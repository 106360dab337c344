"""Pseudo-spectral forced critical SQG on the 2-torus with dynamics diagnostics.

Subpackage map:

* :mod:`critsqg.spectral`    - torus grids, spectral fields, operators, norms
* :mod:`critsqg.snapshots`   - binary field snapshots, CSV writers, manifests
* :mod:`critsqg.config`      - config files, presets, run setups; bad input is a ConfigError
* :mod:`critsqg.kernels`     - fractional-Laplacian kernels and inequality checks
* :mod:`critsqg.solver`      - SQG / 1D Burgers time integration, base and tangent stages
* :mod:`critsqg.diagnostics` - decay/Hoelder/absorbing envelopes and monitors
* :mod:`critsqg.tangent`     - linearized dynamics, volume elements, dimension bound
* :mod:`critsqg.calibration` - protocol that pins the universal constants
* :mod:`critsqg.cli`         - command-line front end with manifests

Importing the package pins BLAS to one thread, before numpy loads: a
threaded gemm sums in an order that depends on the core count, so the last
bits of ``kernel_report.csv`` would too.  The pin only acts when numpy is not
yet loaded; ``BLAS_THREADS`` says which case holds, and the manifest records it.
"""

import os
import sys

BLAS_THREADS = "unpinned" if "numpy" in sys.modules else "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
