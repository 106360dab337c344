"""Run the critsqg CLI in this process with a span around each layer's entry points.

    PYTHONPATH=src python3 bench/trace_cli.py SPANS.json <critsqg arguments>

The program is not modified: after ``critsqg.cli`` is imported, each traced
function is replaced by a wrapper under every module-level name that refers
to it (``cli``, ``solver``, ``tangent`` and ``diagnostics`` import names
directly, so a wrapper must sit where the caller looks the name up).  Spans
(name, start, end, parent) are kept in memory and written to SPANS.json when
the CLI returns or raises; the exit status is the CLI's own, and an uncaught
exception still prints its traceback and exits 1.
"""

from __future__ import annotations

import json
import os
import sys
import time

_t0 = time.perf_counter()
import critsqg.cli as cli  # noqa: E402  (the import is what cli.import_s times)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402

from critsqg import config, diagnostics, kernels, snapshots, solver, spectral, tangent  # noqa: E402

_MODULES = (cli, config, diagnostics, kernels, snapshots, solver, spectral, tangent)
_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


class Tracer:
    """Spans in flat lists (index = span id) plus counters kept at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self.name: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.counts: dict = {}
        self._stack: list = []

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, label: str, fn, count=None):
        """Wrapper recording one span per call; ``count(args, result)`` runs after the span."""
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def patch_function(self, label: str, fn, count=None, home=None) -> None:
        """Replace ``fn`` under every name in the critsqg modules (and ``home``) bound to it."""
        wrapper = self.wrap(label, fn, count)
        for mod in _MODULES + ((home,) if home is not None else ()):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)

    def patch_method(self, label: str, cls, attr: str, count=None) -> None:
        setattr(cls, attr, self.wrap(label, getattr(cls, attr), count))

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        # every cache miss adds exactly one entry to the symbol cache
        misses = len(kernels._symbol_cache)
        calls = self.name.count(self.names.index("kernels.translation_symbol"))
        counts["kernels.translation_symbol.misses"] = misses
        counts["kernels.translation_symbol.hits"] = calls - misses
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "names": self.names, "name": self.name,
                       "parent": self.parent, "start": self.start, "end": self.end,
                       "counts": counts}, fh)


def install(tr: Tracer) -> None:
    def fft_count(args, result):
        tr.add("spectral.fft.points", result.size)
        tr.add("spectral.fft.bytes_computed", getattr(args[0], "nbytes", 0) + result.nbytes)

    # scipy.fft too, so the counters keep their meaning if the program switches library
    for lib in (np.fft, scipy.fft):
        for name in _FFT_NAMES:
            tr.patch_function("spectral.fft", getattr(lib, name), fft_count, home=lib)

    def file_bytes(key):
        return lambda args, _result: tr.add(key, os.path.getsize(args[0]))

    functions = [
        ("spectral.riesz_perp", spectral.riesz_perp, None),
        ("spectral.gradient", spectral.gradient, None),
        ("spectral.holder_seminorm", spectral.holder_seminorm, None),
        ("spectral.norm_report", spectral.norm_report, None),
        ("solver.nonlinear_term", solver.nonlinear_term, None),
        ("solver.velocity_max", solver.velocity_max, None),
        ("solver.run", solver.run,
         lambda _args, traj: tr.add("solver.cfl_reductions", traj.cfl_reductions)),
        ("solver.build_field", solver.build_field, None),
        ("tangent.transport_derivative", tangent._transport_derivative, None),
        ("tangent.gram_schmidt", tangent.h1_gram_schmidt, None),
        ("tangent.trace", tangent._trace_per_m, None),
        ("tangent.volume_and_trace_run", tangent.volume_and_trace_run, None),
        ("diagnostics.track_holder", diagnostics.track_holder, None),
        ("diagnostics.m_alpha_envelope", diagnostics.m_alpha_envelope, None),
        ("diagnostics.decay_envelope_report", diagnostics.decay_envelope_report, None),
        ("diagnostics.absorption_report", diagnostics.absorption_report, None),
        ("kernels.translation_symbol", kernels._translation_symbol, None),
        ("kernels.dissipation_field", kernels.dissipation_field, None),
        ("kernels.pointwise_identity_residual", kernels.pointwise_identity_residual, None),
        ("kernels.nonlinear_lower_bound_check", kernels.nonlinear_lower_bound_check, None),
        ("kernels.lp_poincare_check", kernels.lp_poincare_check, None),
        ("snapshots.write_csv", snapshots.write_csv, file_bytes("snapshots.write_csv.bytes")),
        ("snapshots.write_snapshot", snapshots.write_snapshot,
         file_bytes("snapshots.write_snapshot.bytes")),
        ("config.build_setup", config.build_setup, None),
    ]
    for label, fn, count in functions:
        tr.patch_function(label, fn, count)
    tr.patch_method("solver.advance", solver._Stepper, "advance")
    # CoupledStepper.step(self, theta, xis, dt): one tangent step per field in xis
    tr.patch_method("tangent.step", tangent.CoupledStepper, "step",
                    lambda args, _result: tr.add("tangent.step.tangent_steps", len(args[2])))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    install(tr)
    try:
        return cli.main(argv)
    finally:
        tr.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
