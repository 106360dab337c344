"""Calibration protocol for the universal constants of the diagnostics.

The analysis guarantees that universal constants with the required properties
exist but never exhibits values.  To make every envelope concrete and testable
this module fixes a published corpus (seeds, bandwidths, resolutions below)
and chooses each constant as the tightest value for which its governing
inequality holds corpus-wide, padded with a x2 safety margin; the results are
pinned in a versioned key=value file shipped with the package.  Each
calibration bisects over, or inverts, the very check that the diagnostics run
against its constant, so a constant cannot drift from its check.  Directions:

==========  ===============================================================
constant    governing inequality (safe direction)
==========  ===============================================================
c0          L^p decay envelope dominates measured norms (smaller = safer;
            pinned at half the largest corpus-valid rate)
eps0        admissible Hoelder exponent alpha_0 = min{eps0*kappa/M_inf, 1/4}
            (fixed protocol choice; smaller = safer)
c2          cubic lower bound on D[delta_h theta] (larger = safer)
c5          Hoelder-envelope ODE dominates g(t) (larger = safer)
eps1        post-transient C^{alpha_*} bound 2||f||_inf/(eps1*kappa)
            (smaller = safer; pinned at half the largest valid value)
c7          improved lower bound on D[grad theta] (larger = safer)
c8          velocity-splitting bound on |grad u| |grad theta|^2
c9          H^{3/2} differential inequality coefficient (the measured excess
            is 0 on the corpus, so the floor 1.0 decides)
c10         H^1 quadratic-form bound on the linearized generator
c11         eigenvalue counting lambda_j >= sqrt(j)/c11 (exact enumeration,
            no margin: the minimum over the first 10^4 eigenvalues)
c_backward  log-convexity budget on the pair corpus over the [0, 5] horizon
==========  ===============================================================

Calibration takes about 21 s on a 2-core desk machine; it runs once and its
output is committed.  ``python -m critsqg.calibration`` prints the constants
in the file format (progress goes to stderr); ``--write PATH`` saves them to
PATH instead, and a PATH that cannot be written exits 2 (a missing directory
before the protocol starts).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields as dc_fields, replace
from typing import List, Sequence, Tuple

import numpy as np

from .config import default_corpus_path, read_corpus
from .diagnostics import (
    UniversalConstants,
    decay_envelope_report,
    constants_text,
    holder_budget,
    holder_envelope_check,
    late_holder_violations,
    log_convexity_series,
    post_transient_holder,
    save_constants,
)
from .kernels import KERNEL_SHIFTS, dissipation_field, nonlinear_lower_bound_check
from .solver import FieldSpec, SolverConfig, Trajectory, build_field, build_force, random_band_field, run
from .spectral import (
    SpectralField,
    TorusGrid,
    gradient,
    holder_seminorm,
    inner_h1,
    lp_norm,
    resample,
    riesz_perp,
    sobolev_norm,
)
from .tangent import eigenvalue_count_constant, linearized_rhs

CONSTANTS_VERSION = "2026.08-corpus1"
EPS0 = 0.2                            # protocol choice, not calibrated (see the table above)
PROBE_KAPPA = 1.0                     # dissipation coefficient of the c8 and c10 probes
ROUGH_PROBE_N = 64                    # grid of the rough synthetic probe fields
ROUGH_PROBE_BAND = 10                 # their band
C10_TANGENT_SEEDS = (41, 42, 43, 44)  # seeds of the c10 tangent directions

# ---------------------------------------------------------------------------
# published corpus (the kernel corpus is src/critsqg/data/kernel_corpus.csv)

SOLVER_CORPUS_N = 48
SOLVER_FORCES = [
    FieldSpec(kind="zero"),
    FieldSpec(kind="single_mode", k=(1, 1), amplitude=0.1),
    FieldSpec(kind="random_band", band=3, amplitude=0.15, seed=11),
]
SOLVER_DATA = [
    FieldSpec(kind="single_mode", k=(1, 0), amplitude=1.0),
    FieldSpec(kind="random_band", band=4, amplitude=0.8, seed=21),
    FieldSpec(kind="random_band", band=6, amplitude=0.5, seed=22),
]
SOLVER_T_END = 10.0
SOLVER_DT = 1e-2

BURGERS_N = 256
BURGERS_RUNS = [
    (FieldSpec(kind="single_mode", k=(1,), amplitude=1.0), FieldSpec(kind="zero")),
    (FieldSpec(kind="random_band", band=4, amplitude=0.8, seed=31),
     FieldSpec(kind="single_mode", k=(2,), amplitude=0.1)),
]

PAIR_PERTURBATION = 1e-3
PAIR_HORIZON = 5.0

# base of the candidate constants handed to the checks (dataclasses.replace);
# a check that reads a constant not calibrated yet meets None and fails loudly
_UNSET = UniversalConstants(**{f.name: None for f in dc_fields(UniversalConstants)
                               if f.name != "version"})


def _runs(grid: TorusGrid, cases, **cfg) -> List[Trajectory]:
    """One ``kappa = 1`` run per ``(data, force)`` spec pair on ``grid``."""
    config = SolverConfig(kappa=1.0, **cfg)
    return [run(build_field(d, grid), config, build_force(f, grid)) for d, f in cases]


def solver_corpus_runs() -> List[Trajectory]:
    """The 9 forced SQG runs (3 forces x 3 data, force-major) used throughout calibration."""
    return _runs(TorusGrid(2, SOLVER_CORPUS_N),
                 [(dspec, fspec) for fspec in SOLVER_FORCES for dspec in SOLVER_DATA],
                 dt=SOLVER_DT, t_end=SOLVER_T_END, snapshot_dt=0.1)


def burgers_corpus_runs() -> List[Trajectory]:
    return _runs(TorusGrid(1, BURGERS_N), BURGERS_RUNS, dt=1e-3, t_end=5.0, snapshot_dt=0.1)


def kernel_corpus_fields() -> List[SpectralField]:
    """The shipped kernel corpus, read as ``verify-kernels`` reads it."""
    return [field for _name, field in read_corpus(default_corpus_path())[0]]


# ---------------------------------------------------------------------------
# individual calibrations


def _bisect(holds, lo: float, hi: float, steps: int) -> Tuple[float, float]:
    """Halve ``[lo, hi]`` ``steps`` times around the point where ``holds`` turns from true to false."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def calibrate_c2(fields: Sequence[SpectralField]) -> float:
    """Tightest c2 over corpus x shifts, then x2.

    Inverts :func:`~critsqg.kernels.nonlinear_lower_bound_check`: its ratios
    are linear in c2, so the tight value is ``1 / min ratio`` at ``c2 = 1``
    (no c2 works where D is not positive).
    """
    worst = 0.0
    for phi in fields:
        for h in KERNEL_SHIFTS:
            rep = nonlinear_lower_bound_check(phi, h, 1.0)
            if not rep.empty:
                worst = max(worst, 1.0 / rep.min_ratio if rep.min_ratio > 0.0 else math.inf)
    return 2.0 * worst


def calibrate_c0(runs: Sequence[Trajectory]) -> float:
    """Largest decay rate the corpus supports for p in {2, 4, inf}, halved."""
    lo, _hi = _bisect(lambda c0: all(decay_envelope_report(tr, p, replace(_UNSET, c0=c0)).violations == 0
                                     for tr in runs for p in (2, 4, np.inf)), 1e-3, 4.0, 40)
    return 0.5 * lo


def calibrate_c5(runs: Sequence[Trajectory], eps0: float, c0: float) -> float:
    """Smallest c5 whose envelope ODE dominates g(t) corpus-wide, then x2.

    Checked at the largest admissible exponent alpha_0 and at alpha_0/2 for
    every run (two exponents per trajectory); each Hoelder scan runs once and
    the bisection repeats only :func:`~critsqg.diagnostics.holder_envelope_check`.
    """
    consts = replace(_UNSET, eps0=eps0, c0=c0)
    cases = []
    for tr in runs:
        kappa = tr.config.kappa
        alpha0, m_inf = holder_budget(tr.reports[0].lp[np.inf], tr.force.linf, kappa, consts)
        if m_inf == 0.0:
            continue
        t = np.asarray(tr.times)
        for alpha in (alpha0, alpha0 / 2.0):
            cases.append((t, [holder_seminorm(f, alpha) for f in tr.fields], m_inf, kappa))
    _lo, hi = _bisect(lambda c5: any(holder_envelope_check(*case, replace(consts, c5=c5)).violations
                                     for case in cases), 0.05, 64.0, 40)
    return 2.0 * hi


def calibrate_eps1(runs: Sequence[Trajectory]) -> float:
    """Largest eps1 with ||theta||_{C^{alpha_*}} <= 2||f||_inf/(eps1 k) on late halves, halved."""
    lo, _hi = _bisect(lambda eps1: all(late_holder_violations(tr, replace(_UNSET, eps1=eps1)) == 0
                                       for tr in runs), 1e-4, 8.0, 30)
    return 0.5 * lo


def _late_snapshots(tr: Trajectory, every: int) -> List[SpectralField]:
    """Every ``every``-th snapshot field that lies in the late half of the run."""
    t_half = tr.times[-1] / 2.0
    return [tr.fields[i] for i in range(0, len(tr.times), every) if tr.times[i] >= t_half]


def _gradient_dissipation(fld: SpectralField):
    """``(|grad theta|, D[grad theta], |grad theta| > 1e-3 max|grad theta|)``: the c7 and c8 probe."""
    gx, gy = gradient(fld)
    Dg = dissipation_field(gx, 1.0) + dissipation_field(gy, 1.0)
    gmag = np.sqrt(gx.values() ** 2 + gy.values() ** 2)
    return gmag, Dg, gmag > 1e-3 * max(float(gmag.max()), 1e-300)


def calibrate_c7(runs: Sequence[Trajectory], eps1: float) -> float:
    """Tightest constant of the gradient dissipation lower bound, x2.

    ``D[grad theta](x) >= |grad theta|^{(3-a)/(1-a)} / (c7 [theta]_{C^a}^{1/(1-a)})``
    with ``a = alpha_*`` of each run, measured on late-time snapshots.
    """
    worst = 0.0
    consts = replace(_UNSET, eps1=eps1)
    for tr in runs:
        a, _m_inf_f = post_transient_holder(tr.force.linf, tr.config.kappa, consts)
        expo = (3.0 - a) / (1.0 - a)
        for snap in _late_snapshots(tr, 25):
            # evolved fields fill the dealias band; upsample for alias-free squares
            gmag, Dg, mask = _gradient_dissipation(resample(snap, 2 * snap.grid.n))
            sem = holder_seminorm(snap, a)
            if sem <= 0.0:
                continue
            need = gmag[mask] ** expo / (np.maximum(Dg[mask], 1e-300) * sem ** (1.0 / (1.0 - a)))
            worst = max(worst, float(need.max()))
    return 2.0 * worst


def _rough_probe_fields(seeds=(51, 52, 53, 54)) -> List[SpectralField]:
    grid = TorusGrid(2, ROUGH_PROBE_N)
    return [random_band_field(grid, ROUGH_PROBE_BAND, 1.0, s) for s in seeds]


def calibrate_c8(runs: Sequence[Trajectory]) -> float:
    """Tightest constant of ``2|grad u||grad theta|^2 <= k/2 D[grad theta] + c8 ...``, x2.

    The two sides scale differently in the field amplitude s (s^3 versus s^2
    and s^{7/2}), so for each shape the worst amplitude is attained at
    ``s* = 3b/a`` and the pointwise tight constant is
    ``(2/3) a^{3/2} / (c sqrt(3 b))`` with ``a = 2|grad u||grad theta|^2``,
    ``b = k D[grad theta]/2``, ``c = ||theta||_inf^{1/2} |grad theta|^3 /
    k^{1/2}`` measured at unit amplitude.  Probed on late-run snapshots plus
    rough synthetic fields, at ``k = PROBE_KAPPA``.
    """
    kappa = PROBE_KAPPA
    worst = 0.0
    shapes = _rough_probe_fields()
    for tr in runs:
        shapes += [resample(snap, 2 * snap.grid.n) for snap in _late_snapshots(tr, 40)]
    for fld in shapes:
        linf = lp_norm(fld, np.inf)
        if linf <= 0.0:
            continue
        gmag, Dg, mask = _gradient_dissipation(fld)
        mask &= Dg > 0
        u1, u2 = riesz_perp(fld)
        du = [gradient(u1), gradient(u2)]
        gu = np.sqrt(sum(c.values() ** 2 for pair in du for c in pair))
        a = 2.0 * gu[mask] * gmag[mask] ** 2
        b = 0.5 * kappa * Dg[mask]
        c = math.sqrt(linf) * gmag[mask] ** 3 / math.sqrt(kappa)
        need = (2.0 / 3.0) * a**1.5 / (c * np.sqrt(3.0 * b))
        worst = max(worst, float(need.max()))
    return 2.0 * worst


def calibrate_c9(runs: Sequence[Trajectory]) -> float:
    """Tightest coefficient of the H^{3/2} differential inequality, x2.

    Measured along trajectories (centered differences of the recorded norms).
    The excess is 0 on every run of the published corpus, so the floor 1.0
    decides there; it documents the unconstrained direction (larger values
    only enlarge the envelopes).
    """
    worst = 0.0
    for tr in runs:
        kappa = tr.config.kappa
        t = np.asarray(tr.times)
        h32_sq = np.array([rep.hs[1.5] ** 2 for rep in tr.reports])
        h2_sq = np.array([rep.hs[2.0] ** 2 for rep in tr.reports])
        ddt = (h32_sq[2:] - h32_sq[:-2]) / (t[2:] - t[:-2])
        mid32 = h32_sq[1:-1]
        lhs = ddt + 0.5 * kappa * h2_sq[1:-1] - tr.force.h1**2 / kappa
        ok = mid32 > 1e-12
        need = kappa * np.maximum(lhs[ok], 0.0) / mid32[ok] ** 2
        if need.size:
            worst = max(worst, float(need.max()))
    return max(2.0 * worst, 1.0)


def calibrate_c10(runs: Sequence[Trajectory]) -> float:
    """Tightest constant of the H^1 quadratic-form bound on the generator, x2.

    The transport part ``T = <xi, A_theta[xi] + k Lambda xi>_{H^1}`` is linear
    in theta while the bound's right side is quadratic, so the worst base
    amplitude ``s* = k ||xi||_{3/2}^2 / T`` yields the amplitude-free tight
    constant ``T^2 / (2 ||xi||_{3/2}^2 ||theta||_{H^2}^2 ||xi||_{H^1}^2)``,
    at ``k = PROBE_KAPPA`` with directions seeded from ``C10_TANGENT_SEEDS``.
    """
    kappa = PROBE_KAPPA
    worst = 0.0
    thetas = _rough_probe_fields(seeds=(71, 72))
    for tr in runs:
        thetas += _late_snapshots(tr, 40)
    for theta in thetas:
        h2_sq = sobolev_norm(theta, 2.0) ** 2
        if h2_sq <= 1e-14:
            continue
        for xi in (random_band_field(theta.grid, b, 1.0, s)
                   for s in C10_TANGENT_SEEDS for b in (2, 6, 10)):
            xi32_sq = sobolev_norm(xi, 1.5) ** 2
            transport = inner_h1(xi, linearized_rhs(theta, xi, kappa)) + kappa * xi32_sq
            if transport <= 0.0:
                continue
            worst = max(worst, float(transport**2 / (2.0 * xi32_sq * h2_sq * inner_h1(xi, xi))))
    return 2.0 * worst


def pair_corpus_runs() -> List[Tuple[Trajectory, Trajectory]]:
    """Five trajectory pairs (same force, nearby data) for the budget monitor."""
    grid = TorusGrid(2, SOLVER_CORPUS_N)
    cfg = SolverConfig(kappa=1.0, dt=SOLVER_DT, t_end=PAIR_HORIZON, snapshot_dt=0.1)
    out = []
    for d, f in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2)):  # (SOLVER_DATA, SOLVER_FORCES) indices
        force = build_force(SOLVER_FORCES[f], grid)
        theta0 = build_field(SOLVER_DATA[d], grid)
        out.append((run(theta0, cfg, force), run(theta0 + theta0 * PAIR_PERTURBATION, cfg, force)))
    return out


def calibrate_c_backward(pairs) -> float:
    """Tightest budget constant over the pair corpus and [0, 5] horizon, x2.

    Inverts the budget of :func:`~critsqg.diagnostics.log_convexity_monitor`:
    ``C >= (w(t) - w(0)) / int_0^t ||avg||_{H^{3/2}}^2`` wherever the integral
    is positive.
    """
    worst = 0.0
    for t1, t2 in pairs:
        _t, w, integral, _status = log_convexity_series(t1, t2)
        ok = integral > 1e-12
        if ok.any():
            worst = max(worst, float(((w - w[0])[ok] / integral[ok]).max()))
    return 2.0 * worst


def run_calibration() -> UniversalConstants:
    """Run the whole protocol, printing each step and constant to stderr as it is found."""

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    log("building kernel corpus (20 fields, n=64, band=8) ...")
    fields = kernel_corpus_fields()
    c2 = calibrate_c2(fields)
    log(f"c2 = {c2!r}")

    log("building solver corpus (9 SQG runs + 2 Burgers runs) ...")
    runs = solver_corpus_runs()
    all_runs = runs + burgers_corpus_runs()

    c0 = calibrate_c0(all_runs)
    log(f"c0 = {c0!r}")
    c5 = calibrate_c5(all_runs, EPS0, c0)
    log(f"eps0 = {EPS0!r} (protocol choice), c5 = {c5!r}")
    eps1 = calibrate_eps1(runs)
    log(f"eps1 = {eps1!r}")
    c7 = calibrate_c7(runs, eps1)
    log(f"c7 = {c7!r}")
    c8 = calibrate_c8(runs)
    log(f"c8 = {c8!r}")
    c9 = calibrate_c9(runs)
    log(f"c9 = {c9!r}")
    c10 = calibrate_c10(runs)
    log(f"c10 = {c10!r}")
    c11 = eigenvalue_count_constant(10**4)
    log(f"c11 = {c11!r} (exact enumeration of the first 10^4 eigenvalues)")

    log("building pair corpus (5 pairs) ...")
    pairs = pair_corpus_runs()
    c_backward = calibrate_c_backward(pairs)
    log(f"c_backward = {c_backward!r}")

    return UniversalConstants(
        c0=c0, eps0=EPS0, eps1=eps1, c2=c2, c5=c5, c7=c7, c8=c8, c9=c9,
        c10=c10, c11=c11, c_backward=c_backward, version=CONSTANTS_VERSION,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m critsqg.calibration",
                                     description="Run the calibration protocol.")
    parser.add_argument("--write", metavar="PATH",
                        help="save the constants file to PATH instead of printing it")
    args = parser.parse_args(argv)
    # a target that cannot be written is a usage error (exit 2); a missing
    # directory is caught before the protocol runs, anything else when saving
    if args.write is not None and not os.path.isdir(os.path.dirname(args.write) or "."):
        print(f"{parser.prog}: cannot write {args.write}: no such directory", file=sys.stderr)
        return 2
    consts = run_calibration()
    header = (
        "calibrated universal constants\n"
        f"protocol: critsqg.calibration, corpus version {CONSTANTS_VERSION}\n"
        "each value is the corpus-tight constant padded by the documented margin\n"
    )
    if args.write is None:
        print(constants_text(consts, header), end="")
    else:
        try:
            save_constants(consts, args.write, header=header)
        except OSError as exc:
            print(f"{parser.prog}: cannot write {args.write}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
