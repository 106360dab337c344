"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All tolerances are pinned here; the shared forced corpus (3 forces x 3 data,
t in [0, 10]) is integrated once per session and reused across criteria.
"""

import math
import time

import numpy as np
import pytest

from critsqg import calibration as cal
from critsqg.diagnostics import (
    absorbing_constants,
    absorption_report,
    decay_envelope_report,
    holder_budget,
    load_constants,
    log_convexity_monitor,
    m_alpha_envelope,
    track_holder,
)
from critsqg.kernels import (
    dissipation_field,
    lp_poincare_check,
    nonlinear_lower_bound_check,
    pointwise_identity_residual,
)
from critsqg.solver import Force, SolverConfig, random_band_field, run
from critsqg.spectral import SpectralField, TorusGrid, inner_h1, inner_l2, lp_norm
from critsqg.tangent import (
    bound_curve_negative_at,
    dimension_bound,
    eigenvalue_count_constant,
    frechet_residual,
    trace_bound_curve,
    trace_Pn_A,
    volume_and_trace_run,
    CoupledStepper,
)

from conftest import cos_x1, meshes


def report(criterion: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} [criterion {criterion:2d}] {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def consts():
    return load_constants()


@pytest.fixture(scope="session")
def corpus_runs():
    """The published forced corpus: 3 forces x 3 data, t in [0, 10], n = 48."""
    return cal.solver_corpus_runs()


@pytest.fixture(scope="session")
def kernel_fields():
    return cal.kernel_corpus_fields()


@pytest.fixture(scope="session")
def dimension_run():
    # long enough past the relaxation that the trace averages pass the Cauchy
    # check; the volume/trace identity is read off at t = 5 along the way
    g = TorusGrid(2, 32)
    theta0 = random_band_field(g, 3, 0.5, 5)
    force = Force.wrap(random_band_field(g, 2, 0.01, 6))
    cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=10.0)
    res = volume_and_trace_run(theta0, 6, cfg, force, t_end=10.0, reorth_every=10,
                               t_relax=6.0, seed=7, tangent_band=3)
    return res, force, cfg


def test_criterion_01_exact_decay_oracle():
    g = TorusGrid(2, 64)
    X, _ = meshes(g)
    cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.5)
    t0 = time.perf_counter()
    traj = run(cos_x1(g), cfg, Force.wrap(SpectralField.zeros(g)))
    elapsed = time.perf_counter() - t0
    err = float(np.abs(traj.fields[-1].values() - math.exp(-1.0) * np.cos(X)).max())
    report(1, err <= 1e-6 and elapsed < 10.0,
           f"pointwise error {err:.2e} <= 1e-6 at t=1, runtime {elapsed:.1f}s < 10s")


def test_criterion_02_steady_state_oracle():
    g = TorusGrid(2, 64)
    cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=10.0, snapshot_dt=0.5)
    theta0 = cos_x1(g)
    traj = run(theta0, cfg, Force.wrap(cos_x1(g)))  # f = kappa cos x1, kappa = 1
    worst = 0.0
    for t, fld in zip(traj.times[1:], traj.fields[1:]):
        d = fld - theta0
        worst = max(worst, math.sqrt(inner_l2(d, d)) / t)
    report(2, worst <= 1e-8, f"steady-state drift {worst:.2e} <= 1e-8 per unit time on [0,10]")


def test_criterion_03_pointwise_identity(kernel_fields):
    t0 = time.perf_counter()
    worst_rel = 0.0
    for phi in kernel_fields:
        linf_sq = lp_norm(phi, np.inf) ** 2
        for alpha in (0.5, 1.0, 1.5):
            resid = pointwise_identity_residual(phi, alpha)
            worst_rel = max(worst_rel, float(resid.mean()) / linf_sq)
    g = TorusGrid(2, 64)
    d_err = float(np.abs(dissipation_field(cos_x1(g), 1.0) - 1.0).max())
    elapsed = time.perf_counter() - t0
    report(3, worst_rel <= 1e-2 and d_err <= 1e-3 and elapsed < 120.0,
           f"mean residual/linf^2 {worst_rel:.2e} <= 1e-2 on 20 fields x 3 alphas, "
           f"D_1[cos x1] within {d_err:.1e} of 1, runtime {elapsed:.0f}s < 120s")


def test_criterion_04_lp_poincare(kernel_fields):
    violations = 0
    checked = 0
    for phi in kernel_fields:
        for p in (4, 8):
            lhs, (r1, r2) = lp_poincare_check(phi, p)
            checked += 1
            if lhs < r1 + r2:
                violations += 1
    report(4, violations == 0,
           f"L^p lower bound holds with C = 2^9 pi^2 on {checked} corpus checks, "
           f"{violations} violations")


def test_criterion_05_nonlinear_lower_bound(kernel_fields, consts):
    global_min = math.inf
    for phi in kernel_fields:
        for h in cal.KERNEL_SHIFTS:
            rep = nonlinear_lower_bound_check(phi, h, consts.c2)
            if not rep.empty:
                global_min = min(global_min, rep.min_ratio)
    report(5, 1.0 <= global_min <= 10.0,
           f"calibrated cubic bound: min ratio {global_min:.3f} in [1, 10] over corpus x 8 shifts")


def test_criterion_06_holder_envelope(corpus_runs, consts):
    events = 0
    tracked = 0
    cap_ok = True
    for traj in corpus_runs:
        kappa = traj.config.kappa
        alpha0, m_inf = holder_budget(traj.fields[0], traj.force.field, kappa, consts)
        for alpha in (alpha0, alpha0 / 2.0):
            res = track_holder(traj, alpha, consts)
            events += res.falsification_count
            tracked += 1
            env = m_alpha_envelope(math.sqrt(res.g[0]), m_inf, kappa, consts.c5,
                                   np.asarray(traj.times))
            after = env.t >= env.t_alpha
            cap_ok &= bool(np.all(env.m_alpha[after] <= env.longtime_cap * (1 + 1e-9)))
    report(6, events == 0 and cap_ok,
           f"zero falsifications of g <= M_alpha^2 over {tracked} tracked runs "
           f"(3 forces x 3 data, alpha in {{alpha_0, alpha_0/2}}); "
           f"long-time cap 2 c5 M_inf holds past t_alpha: {cap_ok}")


def test_criterion_07_lp_decay_envelopes(corpus_runs, consts):
    violations = 0
    for traj in corpus_runs:
        for p in (2, 4, np.inf):
            violations += decay_envelope_report(traj, p, consts).violations
    report(7, violations == 0,
           f"simulated L^2/L^4/L^inf norms below decay envelopes at every snapshot "
           f"of 9 corpus runs, {violations} violations")


def test_criterion_08_absorption(corpus_runs, consts):
    # the absorbing radii vanish with the force: the ball statement concerns
    # forced dynamics, so the six forced corpus runs are checked
    ok = True
    details = []
    for traj in corpus_runs:
        if traj.force.field.is_zero():
            continue
        rep = absorption_report(traj, consts)
        entered = np.isfinite(rep.entry_time)
        ok &= entered and rep.permanent and rep.window_violations == 0
        details.append(f"entry={rep.entry_time:.2f}")
    report(8, ok,
           f"H^1 ball entered and kept on all 6 forced runs ({', '.join(details)}); "
           f"unit-window H^3/2 averages within (6+k)/k M_1f^2")


def test_criterion_09_tangent_exactness():
    g = TorusGrid(2, 48)
    x = g.coords
    X, Y = np.meshgrid(x, x, indexing="ij")

    def h1n(vals):
        f = SpectralField.from_values(g, vals)
        return f * (1.0 / math.sqrt(inner_h1(f, f)))

    frame = np.array([h1n(v).coeffs for v in (np.cos(X), np.sin(X), np.cos(Y), np.sin(Y))])
    kappa = 1.0
    tr = trace_Pn_A(SpectralField.zeros(g), frame, kappa)
    trace_err = abs(tr + 4.0 * kappa)

    cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
    cs = CoupledStepper(g, cfg, Force.wrap(SpectralField.zeros(g)))
    th, xs = SpectralField.zeros(g), cos_x1(g).coeffs[None]
    t = 0.0
    while t < 1.0 - 1e-12:
        th, xs = cs.step(th, xs, 1e-3)
        t += 1e-3
    xi = SpectralField._trusted(g, xs[0])
    heat_err = float(np.abs(xi.values() - math.exp(-1.0) * np.cos(X)).max())
    report(9, trace_err <= 1e-8 and heat_err <= 1e-6,
           f"Tr(P4 A_0) = -4k within {trace_err:.1e} (tol 1e-8); "
           f"tangent heat decay error {heat_err:.2e} <= 1e-6 at t=1")


def test_criterion_10_volume_trace_identity(dimension_run):
    res, _force, _cfg = dimension_run
    resid = res.identity_residual_at(5.0)
    report(10, resid <= 1e-3,
           f"|log V_6(5) - log V_6(0) - int Tr| = {resid:.2e} <= 1e-3 on the forced run")


def test_criterion_11_dimension_consistency(dimension_run, consts):
    res, force, cfg = dimension_run
    ac = absorbing_constants(force.linf, force.h1, cfg.kappa, consts)
    m_a = max(ac.m_32f, ac.m_2f)
    N = dimension_bound(cfg.kappa, m_a, consts.c10, consts.c11)
    negative = bound_curve_negative_at(N, cfg.kappa, m_a, consts.c10, consts.c11)
    curve_at_n = float(trace_bound_curve(N, cfg.kappa, m_a, consts.c10, consts.c11))
    converged = bool(res.average_converged.all())
    forced_ok = negative and res.empirical_N <= N and converged

    g = TorusGrid(2, 32)
    unforced = volume_and_trace_run(
        random_band_field(g, 3, 0.5, 9), 3, SolverConfig(kappa=1.0, dt=2e-3, t_end=3.0),
        Force.wrap(SpectralField.zeros(g)), t_end=3.0, reorth_every=10, t_relax=4.0,
        seed=3, tangent_band=3,
    )
    c11_ok = eigenvalue_count_constant(10**4) == consts.c11
    report(11, forced_ok and unforced.empirical_N == 1 and c11_ok,
           f"bound curve at N={N} is {curve_at_n:.3g} (exactly negative: {negative}), "
           f"empirical_N={res.empirical_N} <= N, "
           f"trace averages Cauchy-converged: {converged}; f=0 gives empirical_N=1; "
           f"c11={consts.c11} reproduced by lattice enumeration")


def test_criterion_12_frechet_residual():
    g = TorusGrid(2, 32)
    force = Force.wrap(random_band_field(g, 2, 0.05, 6))
    cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=2.0)
    # relax the base onto the empirically absorbing region first
    theta0 = random_band_field(g, 3, 0.5, 5)
    relax_cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=4.0, snapshot_dt=4.0)
    theta0 = run(theta0, relax_cfg, force).fields[-1]
    res = frechet_residual(theta0, random_band_field(g, 3, 1.0, 8),
                           ts=[0.5, 1.0, 2.0], scales=[1e-1, 1e-2, 1e-3, 1e-4],
                           config=cfg, force=force)
    decreasing = bool(np.all(np.diff(res.ratios, axis=1) <= 0))
    slopes_ok = bool(np.all(res.slopes >= 0.5))
    report(12, decreasing and slopes_ok,
           f"||eta||_H1/r decreasing in r over 1e-1..1e-4; log-log slopes "
           f"{np.round(res.slopes, 2).tolist()} all >= 0.5 at t in {{0.5, 1, 2}}")


def test_criterion_13_backward_uniqueness_budget(consts):
    pairs = cal.pair_corpus_runs()
    violations = 0
    for t1, t2 in pairs:
        res = log_convexity_monitor(t1, t2, consts.c_backward)
        violations += res.violations
    report(13, violations == 0,
           f"w(t) within the calibrated log-convexity budget on 5 trajectory pairs, "
           f"{violations} violations")


def test_criterion_14_determinism(tmp_path):
    from critsqg.cli import EXIT_OK, main

    cfg_text = (
        "[solver]\ndim = 2\nn = 32\ndt = 1e-2\nt_end = 0.4\nsnapshot_dt = 0.1\n\n"
        "[initial]\nkind = random_band\nband = 4\namplitude = 0.8\nseed = 21\n\n"
        "[force]\nkind = random_band\nband = 3\namplitude = 0.15\nseed = 11\n\n"
        "[probes]\ndecay_envelope_ps = 2,4,inf\nholder_alpha = auto\nabsorption = 1\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == EXIT_OK
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("norms.csv", "envelope_p2.csv", "envelope_p4.csv", "envelope_pinf.csv",
                     "holder.csv", "absorption.csv")
    )
    report(14, same, "re-running the manifest reproduces every CSV byte-exactly (serial mode)")
