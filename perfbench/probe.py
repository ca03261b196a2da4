"""Machine probe, run as a child with the benchmark's environment.

Prints one JSON object: where slhkit was imported from, the Python and numpy
versions, the BLAS numpy was built against, and the BLAS thread count the
library reports (None where it exposes no query).
"""

import ctypes
import glob
import json
import os
import platform

import numpy
import slhkit


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "slhkit_file": slhkit.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas_name": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": blas_threads(),
}))
