"""slhkit benchmark: closed-loop CLI runs timed from outside, or a traced run.

    python3 perfbench/run.py --workload fock-kernel --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program is imported from ``src/``. The
workload config is generated from ``--seed`` (see ``workloads.py``) and the
CLI receives only that file. One client runs one ``slhkit`` process at a
time; the next starts when the last has exited.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median
process wall time and peak RSS of the workload's CLI run, and median wall
time of a fresh process that imports ``slhkit.cli`` and loads the config
(``setup_s``). ``--trace 1`` spends half the window on the same untraced
loop and half calling ``cli.run_command`` in-process with spans around each
module's public functions (``tracing.py``), and reports the per-layer
metrics. A run fails when the CLI exits non-zero, a check in its report does
not pass, its report bytes differ from the first run's, or the answer
fingerprint breaks the workload's expectation (``workloads.gate``).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Per-run details (machine block, samples, failures; spans when
traced) go to ``.perfbench_runs/`` in the working directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import COMPUTED, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, fingerprint, gate, generate_config  # noqa: E402

# One BLAS thread in every child and in the traced process: the same on every
# run, never above nproc, and steadier than threads competing on a shared box.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every run must end well inside 180 s; children still running are killed.
HARD_LIMIT_S = 170.0
SETUP_PROBE = "import sys; from slhkit import cli; cli.load_config(sys.argv[1])"


class RunFailed(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


class Bench:
    """One workload at one seed: generated config, child environment, and the
    record of every attempted run."""

    def __init__(self, root: Path, name: str, seed: int, trace: int):
        self.root, self.name = root, name
        self.workload = WORKLOADS[name]
        self.started = time.perf_counter()
        self.dir = root / ".perfbench_runs" / f"{name}-seed{seed}-trace{trace}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.json"
        self.config.write_bytes(generate_config(name, seed))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, argv, log: Path):
        """Run one child to exit; returns (wall seconds, peak RSS MB, exit code)."""
        limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=out)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def machine(self) -> dict:
        """nproc, versions, BLAS and its thread count (read in a child with
        the run's environment), and memory total."""
        out = self.dir / "probe.json"
        _, _, code = self.spawn([sys.executable, str(HERE / "probe.py")], out)
        if code != 0:
            raise RunFailed(f"machine probe exited {code}: {out.read_text()[-400:]}")
        info = json.loads(out.read_text())
        if not Path(info["slhkit_file"]).resolve().is_relative_to(self.root / "src"):
            raise RunFailed(f"slhkit imported from {info['slhkit_file']}, not src/")
        info["nproc"] = len(os.sched_getaffinity(0))
        info["blas_threads_env"] = BLAS_THREADS
        info["mem_total_mb"] = round(
            os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20)
        return info

    def check(self, data: bytes) -> list:
        """Why this run's report is wrong, if it is."""
        if self.reference is None:
            self.reference = data
        problems = [] if data == self.reference else [
            "report bytes differ from the first run's"]
        return problems + gate(self.name, json.loads(data))

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def cli_run(self, label: str):
        """Setup probe then the workload's CLI run; returns (setup s, wall s,
        peak RSS MB)."""
        w = self.workload
        setup, _, code = self.spawn([sys.executable, "-c", SETUP_PROBE,
                                     str(self.config)], self.dir / "setup.log")
        problems = [] if code == 0 else [f"setup probe exit code {code}"]
        report = self.dir / "report.json"
        report.unlink(missing_ok=True)
        wall, rss, code = self.spawn(
            [sys.executable, "-m", "slhkit", w.command, "--config", str(self.config),
             "--out", str(report), "--sweep", str(w.sweep)], self.dir / "cli.log")
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            problems += self.check(report.read_bytes())
        self.record(label, problems)
        return setup, wall, rss

    def closed_loop(self, seconds: float) -> dict:
        """One untimed warm-up run, then runs until ``seconds`` have passed."""
        self.cli_run("warmup")
        samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
        clock0, mono0 = time.time(), time.perf_counter()
        deadline = mono0 + seconds
        while True:
            setup, wall, rss = self.cli_run(f"run{self.attempted + 1}")
            samples["setup_s"].append(setup)
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            if time.perf_counter() >= deadline:
                break
        walls = samples["wall_s"]
        half = len(walls) // 2
        samples["drift"] = {
            # second half of the window against the first
            "wall_trend": (statistics.median(walls[half:]) / statistics.median(walls[:half]) - 1
                           if half else 0.0),
            # system clock against the monotonic clock over the window
            "clock_drift_s": (time.time() - clock0) - (time.perf_counter() - mono0),
        }
        return samples

    def traced_loop(self, seconds: float) -> Tracer:
        """Repeated in-process runs of config load, run_command and report
        emission, with every module boundary in tracing.TARGETS spanned."""
        sys.path.insert(0, str(self.root / "src"))
        cli = importlib.import_module("slhkit.cli")
        w = self.workload
        tracer = Tracer()
        restore = instrument(tracer)
        out = self.dir / "traced_report.json"
        deadline = time.perf_counter() + seconds
        try:
            while True:
                tracer.run += 1
                label = f"traced{tracer.run}"
                try:
                    config = cli.load_config(str(self.config))
                    report = cli.run_command(w.command, config, None, w.sweep)
                    data = cli.emit_report(report, "json", str(out))
                except Exception as exc:  # any failure of the program is a failed run
                    self.record(label, [f"{type(exc).__name__}: {exc}"])
                    break
                self.record(label, self.check(data))
                if time.perf_counter() >= deadline:
                    break
        finally:
            restore()
        return tracer


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float,
                 trace: int) -> dict:
    bench = Bench(root, name, seed, trace)
    machine = bench.machine()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    loop_seconds = seconds / 2 if trace else seconds
    samples = bench.closed_loop(loop_seconds)
    e2e = {k: statistics.median(samples[k]) for k in ("wall_s", "peak_rss_mb", "setup_s")}
    details = {"workload": name, "seed": seed, "trace": trace, "machine": machine,
               "config": json.loads(bench.config.read_text()), "samples": samples}
    lines = [f"workload {name} seed {seed}: closed loop, 1 client",
             "machine: " + " ".join(f"{k}={machine[k]}" for k in (
                 "nproc", "python", "numpy", "blas_name", "blas_version",
                 "blas_threads", "mem_total_mb"))]
    for key, value in e2e.items():
        q1, q3 = quartiles(samples[key])
        lines.append(f"  {key:<13} {value:10.4f} {units[key]:<3} median of "
                     f"{len(samples[key])}, quartiles {q1:.4f} .. {q3:.4f}")
    lines.append(f"  drift: wall_trend {samples['drift']['wall_trend']:+.4f}, "
                 f"clock_drift_s {samples['drift']['clock_drift_s']:+.2e}")
    if trace:
        tracer = bench.traced_loop(seconds / 2)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics(tracer.spans, names + ["fock_linalg.self_s"])
        work = e2e["wall_s"] - e2e["setup_s"]
        fp = fingerprint(json.loads(bench.reference)) if bench.reference else {}
        metrics["fock.kernel_dim"] = (fp.get("kernel_dims") or [0])[0]
        metrics["fock.domain_vectors"] = fp.get("domain_vectors") or 0
        share = metrics.pop("fock_linalg.self_s") / work if work > 0 else 0.0
        metrics["fock_linalg.self_share"] = share
        metrics["tracing_overhead_s"] = metrics["cli.run_command.s"] - work
        details["traced_runs"] = tracer.run
        (bench.dir / "spans.json").write_text(json.dumps([vars(s) for s in tracer.spans]))
        for key in names:
            tag = "  (computed from array sizes and operation counts, not "\
                  "measured by hardware counters)" if key in COMPUTED else ""
            lines.append(f"  {key:<36} {metrics[key]:14.6g} {units[key]}{tag}")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = e2e
    failed = bench.failed
    lines.append(f"  failed_frac   {failed}/{bench.attempted} = "
                 f"{failed / bench.attempted:.4f}")
    lines.extend(f"  FAILED {p}" for p in bench.problems[:5])
    details.update(metrics=metrics, computed=list(COMPUTED), attempted=bench.attempted,
                   failed=failed, problems=bench.problems)
    (bench.dir / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    print("\n".join(lines), flush=True)
    return {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "slhkit" / "cli.py").is_file():
            raise RunFailed("run from the repository root: src/slhkit/cli.py not found")
        if not (root / "BENCHMARK.json").is_file():
            raise RunFailed("BENCHMARK.json not found in the working directory")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        # Before slhkit (and numpy) is imported here; children inherit it.
        os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(root, spec, name, args.seed, args.seconds,
                                      args.trace) for name in names}
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}:{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
