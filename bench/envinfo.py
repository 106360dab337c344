"""Print the numeric stack a critsqg process runs on, as one JSON object.

    PYTHONPATH=src python3 bench/envinfo.py

Reports the Python, numpy and scipy versions and the BLAS library with the
thread count it starts with (the ``_translation_symbol`` zgemm uses those
threads).  Run as its own process so it sees what a CLI process sees.
"""

from __future__ import annotations

import ctypes
import json
import platform

import numpy as np
import scipy


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }))


if __name__ == "__main__":
    main()
