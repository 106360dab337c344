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
"""

__version__ = "0.1.0"
