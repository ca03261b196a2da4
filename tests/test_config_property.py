"""Property of the config boundary: fuzzed JSON configs, well-formed and
broken, through ``cli.main`` for ``slh``, ``phase`` and ``scatter``, and
``defect`` configs with a fuzzed ``grid`` section on coarse grids.

Every run exits 0, 1 or 2 without an escaping exception; exit 2 prints
exactly one ``config error:`` line and writes no report; and an accepted
config keeps its ``config_hash``, and its report every byte, when its keys
are reordered.  A valid config, for any of the five subcommands (``defect``
on coarse grids, ``fock`` at d = 3 and 4), gives a report that is strict
JSON: no NaN or Infinity constant, however extreme its finite numbers."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from slhkit import cli
from slhkit.config import load_config

COMMANDS = ("slh", "phase", "scatter")
KEYS = ("m", "n", "E", "Z", "sigma", "seed", "tolerances", "grid", "fock",
        "phase", "scatter")

# Mostly moderate values, sometimes an extreme finite float; a positive
# field also takes the edges of the positive floats (the least subnormal,
# the least normal and the largest).
NUMBER = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.floats(1e-3, 2.0),
                     st.floats(min_value=0.0, exclude_min=True),
                     st.sampled_from((5e-324, sys.float_info.min,
                                      sys.float_info.max)))
# Any JSON value, NaN and infinities included (json writes them as NaN,
# Infinity and -Infinity, which json.loads reads back).
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)


@st.composite
def hermitian(draw, size: int) -> list:
    """A Hermitian matrix as the config's nested [re, im] pairs: a seeded
    Gaussian draw at a scale from 0 to 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((size, 2 * size)).view(complex)
    scale = draw(st.sampled_from((1.0, 0.0, 1e-3, 1e3, 1e-300, 1e300)))
    e = scale * (a + a.conj().T) / 2
    return [[[v.real, v.imag] for v in row] for row in e.tolist()]


def optional_fields(draw, strategies: dict, always: str) -> dict:
    """Each field drawn or left out, except ``always``, always drawn."""
    return {key: draw(strategy) for key, strategy in strategies.items()
            if key == always or draw(st.booleans())}


@st.composite
def valid_config(draw, command: str) -> dict:
    """A valid config; the section named after ``command``, when there is
    one, is always present (its own fields are still optional)."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    config = {"m": m, "n": n, "E": draw(hermitian((1 + n) * m))}
    gauge = draw(st.sampled_from(("none", "Z", "sigma")))
    if gauge == "Z":
        config["Z"] = draw(hermitian(n * m))
    elif gauge == "sigma":
        config["sigma"] = draw(NUMBER)
    numbers = st.lists(NUMBER, min_size=1, max_size=3)
    config.update(optional_fields(draw, {
        "seed": st.integers(0, 2 ** 40),
        "tolerances": st.fixed_dictionaries({}, optional={
            "hermiticity": POSITIVE, "kernel": POSITIVE, "action": POSITIVE}),
        "grid": st.fixed_dictionaries({}, optional={"T": POSITIVE,
                                                    "h": POSITIVE}),
        "fock": st.fixed_dictionaries({}, optional={"d": st.integers(3, 9)}),
        "phase": st.fixed_dictionaries({}, optional={"E": numbers,
                                                     "sigma": numbers}),
        "scatter": st.fixed_dictionaries({}, optional={
            "E": NUMBER, "epsilon": st.lists(POSITIVE, min_size=1, max_size=3),
            "mollifier": st.sampled_from(("bump", "cos2"))}),
    }, command))
    return config


@st.composite
def broken(draw, config: dict):
    """``config`` with one node replaced, dropped or joined by an unknown
    key, found by a random walk from the root (the root itself can only be
    replaced)."""
    top = {"root": config}
    node, key = top, "root"
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
    action = draw(st.sampled_from(("replace", "drop", "add")))
    if action == "replace" or node is top or not isinstance(node, dict):
        node[key] = draw(ANY_JSON)
    elif action == "drop":
        del node[key]
    else:
        node[draw(st.text(max_size=4))] = draw(ANY_JSON)
    return top["root"]


def reordered(value):
    """``value`` with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {k: reordered(v) for k, v in reversed(value.items())}
    if isinstance(value, list):
        return [reordered(v) for v in value]
    return value


def run(command: str, text: str, tmp: Path, name: str):
    """Exit code, stderr and report bytes (None when none was written) of
    one ``cli.main`` run on a config file holding ``text``."""
    path, out = tmp / f"{name}.json", tmp / f"{name}.report"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path), "--out", str(out)])
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(COMMANDS), st.data())
def test_config_boundary_exits_cleanly(command, data):
    config = data.draw(valid_config(command))
    # Derandomized, hypothesis draws a sampled_from's first elements most
    # often, so the broken shapes come first.
    shape = data.draw(st.sampled_from(("key", "node", "valid", "truncated")))
    if shape == "key":
        config[data.draw(st.sampled_from(KEYS))] = data.draw(ANY_JSON)
    elif shape == "node":
        config = data.draw(broken(config))
    text = json.dumps(config)
    if shape == "truncated":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, err, report = run(command, text, tmp, "config")
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")
            assert report is None
            return
        # stderr differs only in the wall time it prints
        again = run(command, json.dumps(reordered(config)), tmp, "reordered")
        assert (again[0], again[2]) == (code, report)
        assert (load_config(str(tmp / "config.json")).config_hash()
                == load_config(str(tmp / "reordered.json")).config_hash())


# Grid fields for ``defect``, by kind. Every grid the suite runs on is
# coarse (T of 30 to 40 and h of at least 0.1: at most 400 nodes per
# half-line); the config refuses the other kinds (exit 2), or the grid spec
# or the defect pair does, before any node array exists (T < 30, a
# non-integer T / h, a node count over the size guard: exit 1). With T of
# at least 30, an h below 1e-7 or a T above 1e9 trips the guard, and the
# least subnormal h or the largest T overflows the node count.
NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                         st.lists(st.integers(), max_size=2),
                         st.sampled_from((float("nan"), float("inf"),
                                          -float("inf"))))
HALF_WIDTHS = {
    "coarse": st.sampled_from((30, 40, 30.0, 40.0)),
    "small": st.one_of(st.sampled_from((10, 20.0, 25)),
                       st.floats(max_value=30.0, exclude_max=True,
                                 allow_nan=False, allow_infinity=False)),
    "huge": st.one_of(st.just(sys.float_info.max),
                      st.floats(1e9, sys.float_info.max)),
    "between": st.floats(30.0, 40.0),
    "broken": NOT_A_NUMBER,
}
SPACINGS = {
    "coarse": st.sampled_from((0.1, 0.125, 0.2, 0.25, 0.5, 1, 2.0, 2.5, 3.0)),
    "tiny": st.one_of(st.sampled_from((5e-324, sys.float_info.min)),
                      st.floats(0.0, 1e-7, exclude_min=True)),
    "nonpositive": st.floats(max_value=0.0, allow_nan=False,
                             allow_infinity=False),
    "between": st.floats(0.1, 4.0),
    "broken": NOT_A_NUMBER,
}


@st.composite
def defect_grid(draw):
    """A ``grid`` section: T of any kind or left out, h of any kind (never
    left out: its default is a fine grid), and now and then an unknown
    key."""
    grid = {}
    kind = draw(st.sampled_from(("coarse", "absent", *list(HALF_WIDTHS)[1:])))
    if kind != "absent":
        grid["T"] = draw(HALF_WIDTHS[kind])
    grid["h"] = draw(SPACINGS[draw(st.sampled_from(list(SPACINGS)))])
    if draw(st.integers(0, 7)) == 7:
        grid[draw(st.text(max_size=2))] = draw(ANY_JSON)
    return grid


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_defect_config_boundary_exits_cleanly(data):
    config = data.draw(valid_config("defect"))
    config["grid"] = data.draw(defect_grid())
    with tempfile.TemporaryDirectory() as tmp:
        code, err, report = run(
            "defect", json.dumps(config), Path(tmp), "config")
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert report is None
    else:
        # a refused grid writes no report; a completed run writes one
        assert (report is None) == (code == 1 and "checks passed" not in err)


def strict_json(text: str):
    """``json.loads`` refusing the NaN, Infinity and -Infinity constants
    that Python's json writes and reads by default."""
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in a report")
    return json.loads(text, parse_constant=refuse)


def without_system_channel_blocks(e: list, m: int) -> list:
    """``e`` with its E_l0 and E_0l blocks zero, so the Fock kernels are
    not empty."""
    return [[[0.0, 0.0] if (i < m) != (j < m) else cell
             for j, cell in enumerate(row)] for i, row in enumerate(e)]


# Finite numbers whose products and quotients overflow: a phase at such an
# E and sigma, or a mollifier that wide, computes inf and nan.
HUGE = st.sampled_from((sys.float_info.max, 1e300, 1e154))
EXTREME = st.one_of(HUGE, HUGE.map(lambda x: -x), NUMBER)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("slh", "phase", "scatter", "defect", "fock")),
       st.data())
def test_valid_configs_give_strict_json_reports(command, data):
    config = data.draw(valid_config(command))
    numbers = st.lists(EXTREME, min_size=1, max_size=3)
    if command == "phase":
        config["phase"] = {"E": data.draw(numbers),
                           "sigma": data.draw(numbers)}
    elif command == "scatter":
        config["scatter"] = {
            "E": data.draw(EXTREME),
            "epsilon": data.draw(st.lists(st.one_of(HUGE, POSITIVE),
                                          min_size=1, max_size=3))}
    elif command == "defect":
        config["grid"] = {"T": data.draw(st.sampled_from((30.0, 40.0))),
                          "h": data.draw(SPACINGS["coarse"])}
    elif command == "fock":
        config["fock"] = {"d": data.draw(st.integers(3, 4))}
        if data.draw(st.booleans()):
            config["E"] = without_system_channel_blocks(config["E"],
                                                        config["m"])
    with tempfile.TemporaryDirectory() as tmp:
        code, err, report = run(command, json.dumps(config), Path(tmp),
                                "config")
    assert code in (0, 1), err
    # exit 1 without a report is a numerical error, named on one line
    if report is None:
        assert code == 1 and len(err.splitlines()) == 1, err
        return
    assert strict_json(report.decode())["command"] == command
