"""Calibration protocol: shipped constants stay consistent with the corpus."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from critsqg import calibration as cal
from critsqg.diagnostics import (
    decay_envelope,
    decay_envelope_report,
    default_constants_path,
    holder_budget,
    late_holder_violations,
    load_constants,
    log_convexity_monitor,
    m_alpha_envelope,
    track_holder,
)
from critsqg.kernels import dissipation_field, nonlinear_lower_bound_check
from critsqg.solver import FieldSpec, SolverConfig, build_field, build_force, random_band_field, run
from critsqg.spectral import (
    TorusGrid,
    gradient,
    holder_seminorm,
    inner_h1,
    lp_norm,
    resample,
    riesz_perp,
    shift,
    sobolev_norm,
)
from critsqg.tangent import eigenvalue_count_constant, linearized_rhs


def test_shipped_constants_file_exists_and_parses():
    consts = load_constants()
    assert consts.version == cal.CONSTANTS_VERSION
    for name in ("c0", "eps0", "eps1", "c2", "c5", "c7", "c8", "c9", "c10", "c11", "c_backward"):
        assert getattr(consts, name) > 0.0


def test_c11_is_exact_enumeration():
    consts = load_constants()
    assert consts.c11 == eigenvalue_count_constant(10**4)


def test_c2_margin_on_sample_fields():
    # shipped c2 carries the documented x2 margin: halving it must still
    # satisfy the bound on sample corpus fields (tight value), while a
    # substantially smaller value must fail somewhere
    consts = load_constants()
    fields = cal.kernel_corpus_fields()[:3]
    from critsqg.kernels import nonlinear_lower_bound_check

    mins = []
    for phi in fields:
        for h in cal.KERNEL_SHIFTS[:4]:
            rep = nonlinear_lower_bound_check(phi, h, consts.c2)
            if not rep.empty:
                mins.append(rep.min_ratio)
    assert min(mins) >= 1.0
    assert min(mins) <= 10.0


# ---------------------------------------------------------------------------
# Each calibration against the code it replaced (kept below as the oracle) on
# a small corpus, and the check it calibrates run at the tight value, before
# the x2 or x1/2 margin.


def oracle_c2(fields):
    worst = 0.0
    for phi in fields:
        linf = lp_norm(phi, np.inf)
        for h in cal.KERNEL_SHIFTS:
            delta = shift(phi, h) - phi
            dvals = np.abs(delta.values())
            mask = dvals > 1e-8 * linf
            if not mask.any():
                continue
            D = dissipation_field(delta, 1.0)
            hnorm = float(np.hypot(*h))
            # the same per-point ratio as the check, so 1 / its minimum is bit-comparable
            ratio = float((D[mask] * linf * hnorm / dvals[mask] ** 3).min())
            worst = max(worst, 1.0 / ratio if ratio > 0.0 else np.inf)
    return 2.0 * worst


def _oracle_envelope_holds(traj, p, c0):
    kappa = traj.config.kappa
    n0 = lp_norm(traj.fields[0], p)
    nf = lp_norm(traj.force.field, p)
    for t, rep in zip(traj.times, traj.reports):
        if rep.lp[p] > float(decay_envelope(t, n0, nf, kappa, c0)) * (1.0 + 1e-9):
            return False
    return True


def oracle_c0(runs):
    lo, hi = 1e-3, 4.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        ok = all(_oracle_envelope_holds(tr, p, mid) for tr in runs for p in (2, 4, np.inf))
        if ok:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo


def _oracle_envelope_dominates(traj, alpha, series, c0, c5):
    kappa = traj.config.kappa
    m0 = float(series[0])
    m_inf = lp_norm(traj.fields[0], np.inf) + traj.force.linf / (c0 * kappa)
    env = m_alpha_envelope(m0, m_inf, kappa, c5, np.asarray(traj.times))
    return bool(np.all(series**2 <= env.m_alpha**2 * (1.0 + 1e-9) + 1e-300))


def oracle_c5(runs, eps0, c0):
    cases = []
    for tr in runs:
        kappa = tr.config.kappa
        m_inf = lp_norm(tr.fields[0], np.inf) + tr.force.linf / (c0 * kappa)
        if m_inf == 0.0:
            continue
        alpha0 = min(eps0 * kappa / m_inf, 0.25)
        for alpha in (alpha0, alpha0 / 2.0):
            series = np.array([holder_seminorm(f, alpha) for f in tr.fields])
            cases.append((tr, alpha, series))
    lo, hi = 0.05, 64.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        ok = all(_oracle_envelope_dominates(tr, a, s, c0, mid) for tr, a, s in cases)
        if ok:
            hi = mid
        else:
            lo = mid
    return 2.0 * hi


def oracle_eps1(runs):
    def holds(eps1):
        for tr in runs:
            if tr.force.linf == 0.0:
                continue
            kappa = tr.config.kappa
            alpha_star = min(eps1 * kappa**2 / tr.force.linf, 0.25)
            bound = 2.0 * tr.force.linf / (eps1 * kappa)
            t_half = tr.times[-1] / 2.0
            for t, fld in zip(tr.times, tr.fields):
                if t < t_half:
                    continue
                norm = lp_norm(fld, np.inf) + holder_seminorm(fld, alpha_star)
                if norm > bound * (1.0 + 1e-9):
                    return False
        return True

    lo, hi = 1e-4, 8.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * lo


def oracle_c_backward(pairs):
    worst = 0.0
    for t1, t2 in pairs:
        t = np.asarray(t1.times)
        d = np.array([lp_norm(a - b, 2) for a, b in zip(t1.fields, t2.fields)])
        h32 = np.array([sobolev_norm((a + b) * 0.5, 1.5) ** 2 for a, b in zip(t1.fields, t2.fields)])
        if (d <= 1e-14).any():
            continue
        m = float(d.max())
        w = np.log(2.0 * m / d)
        integral = np.concatenate([[0.0], np.cumsum(0.5 * (h32[1:] + h32[:-1]) * np.diff(t))])
        growth = w - w[0]
        ok = integral > 1e-12
        if ok.any():
            worst = max(worst, float((growth[ok] / integral[ok]).max()))
    return 2.0 * worst


_DATA = [FieldSpec(kind="single_mode", k=(1, 0), amplitude=1.0),
         FieldSpec(kind="random_band", band=3, amplitude=0.8, seed=21)]
_FORCES = [FieldSpec(kind="zero"), FieldSpec(kind="random_band", band=2, amplitude=0.15, seed=11)]


@pytest.fixture(scope="module")
def small_runs():
    """Four n=16 SQG runs (2 forces x 2 data) and one n=32 Burgers run, t in [0, 1]."""
    cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0, snapshot_dt=0.1)
    grid = TorusGrid(2, 16)
    runs = [run(build_field(d, grid), cfg, build_force(f, grid), report_ps=(2, 4))
            for f in _FORCES for d in _DATA]
    g1 = TorusGrid(1, 32)
    runs.append(run(build_field(FieldSpec(kind="single_mode", k=(1,), amplitude=1.0), g1), cfg,
                    build_force(FieldSpec(kind="single_mode", k=(2,), amplitude=0.1), g1),
                    report_ps=(2, 4)))
    return runs


@pytest.fixture(scope="module")
def consts():
    return load_constants()


def test_calibrate_c0_matches_oracle_and_check(small_runs, consts):
    c0 = cal.calibrate_c0(small_runs)
    assert c0 == oracle_c0(small_runs)
    assert 1e-3 < 2.0 * c0 < 4.0
    tight = replace(consts, c0=2.0 * c0)
    assert all(decay_envelope_report(tr, p, tight).violations == 0
               for tr in small_runs for p in (2, 4, np.inf))


def test_calibrate_c5_matches_oracle_and_check(small_runs, consts):
    c0 = cal.calibrate_c0(small_runs)
    c5 = cal.calibrate_c5(small_runs, 0.2, c0)
    assert c5 == oracle_c5(small_runs, 0.2, c0)
    assert 0.05 < c5 / 2.0 < 64.0
    tight = replace(consts, eps0=0.2, c0=c0, c5=c5 / 2.0)
    for tr in small_runs:
        alpha0, m_inf = holder_budget(tr.reports[0].lp[np.inf], tr.force.linf, tr.config.kappa,
                                      tight)
        if m_inf > 0.0:
            for alpha in (alpha0, alpha0 / 2.0):
                assert track_holder(tr, alpha, tight).violations == 0


def test_calibrate_eps1_matches_oracle_and_check(small_runs, consts):
    sqg = small_runs[:4]
    eps1 = cal.calibrate_eps1(sqg)
    assert eps1 == oracle_eps1(sqg)
    assert 1e-4 < 2.0 * eps1 < 8.0
    tight = replace(consts, eps1=2.0 * eps1)
    assert all(late_holder_violations(tr, tight) == 0 for tr in sqg)


def test_calibrate_c2_matches_oracle_and_check():
    fields = [random_band_field(TorusGrid(2, 32), 6, 1.0, seed) for seed in (0, 1)]
    c2 = cal.calibrate_c2(fields)
    assert c2 == oracle_c2(fields)
    for phi in fields:
        for h in cal.KERNEL_SHIFTS:
            rep = nonlinear_lower_bound_check(phi, h, c2 / 2.0)
            assert rep.empty or rep.min_ratio >= 1.0


def test_calibrate_c_backward_matches_oracle_and_check():
    cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0, snapshot_dt=0.1)
    grid = TorusGrid(2, 16)
    pairs = []
    for d, f in zip(_DATA, reversed(_FORCES)):
        theta0, force = build_field(d, grid), build_force(f, grid)
        pairs.append((run(theta0, cfg, force),
                      run(theta0 + theta0 * cal.PAIR_PERTURBATION, cfg, force)))
    cb = cal.calibrate_c_backward(pairs)
    assert cb == oracle_c_backward(pairs)
    assert cb > 0.0
    assert all(log_convexity_monitor(t1, t2, cb / 2.0).violations == 0 for t1, t2 in pairs)


def _oracle_late(tr, every):
    t_half = tr.times[-1] / 2.0
    return [tr.fields[i] for i in range(0, len(tr.times), every) if tr.times[i] >= t_half]


def _oracle_rough_fields(seeds):
    grid = TorusGrid(2, cal.ROUGH_PROBE_N)
    return [random_band_field(grid, cal.ROUGH_PROBE_BAND, 1.0, s) for s in seeds]


def oracle_c7(runs, eps1):
    worst = 0.0
    for tr in runs:
        kappa, f_linf = tr.config.kappa, tr.force.linf
        a = 0.25 if f_linf == 0.0 else min(eps1 * kappa**2 / f_linf, 0.25)
        expo = (3.0 - a) / (1.0 - a)
        for snap in _oracle_late(tr, 25):
            fld = resample(snap, 2 * snap.grid.n)
            gx, gy = gradient(fld)
            Dg = dissipation_field(gx, 1.0) + dissipation_field(gy, 1.0)
            gmag = np.sqrt(gx.values() ** 2 + gy.values() ** 2)
            sem = holder_seminorm(snap, a)
            if sem <= 0.0:
                continue
            mask = gmag > 1e-3 * max(float(gmag.max()), 1e-300)
            need = gmag[mask] ** expo / (np.maximum(Dg[mask], 1e-300) * sem ** (1.0 / (1.0 - a)))
            worst = max(worst, float(need.max()))
    return 2.0 * worst


def oracle_c8(runs):
    kappa = cal.PROBE_KAPPA
    worst = 0.0
    shapes = _oracle_rough_fields((51, 52, 53, 54))
    for tr in runs:
        shapes += [resample(snap, 2 * snap.grid.n) for snap in _oracle_late(tr, 40)]
    for fld in shapes:
        linf = lp_norm(fld, np.inf)
        if linf <= 0.0:
            continue
        gx, gy = gradient(fld)
        Dg = dissipation_field(gx, 1.0) + dissipation_field(gy, 1.0)
        u1, u2 = riesz_perp(fld)
        du = [gradient(u1), gradient(u2)]
        gu = np.sqrt(sum(c.values() ** 2 for pair in du for c in pair))
        gmag = np.sqrt(gx.values() ** 2 + gy.values() ** 2)
        mask = (gmag > 1e-3 * max(float(gmag.max()), 1e-300)) & (Dg > 0)
        a = 2.0 * gu[mask] * gmag[mask] ** 2
        b = 0.5 * kappa * Dg[mask]
        c = math.sqrt(linf) * gmag[mask] ** 3 / math.sqrt(kappa)
        need = (2.0 / 3.0) * a**1.5 / (c * np.sqrt(3.0 * b))
        worst = max(worst, float(need.max()))
    return 2.0 * worst


def oracle_c9(runs):
    worst = 0.0
    for tr in runs:
        kappa = tr.config.kappa
        t = np.asarray(tr.times)
        h32_sq = np.array([rep.hs[1.5] ** 2 for rep in tr.reports])
        h2_sq = np.array([rep.hs[2.0] ** 2 for rep in tr.reports])
        ddt = (h32_sq[2:] - h32_sq[:-2]) / (t[2:] - t[:-2])
        lhs = ddt + 0.5 * kappa * h2_sq[1:-1] - tr.force.h1**2 / kappa
        ok = h32_sq[1:-1] > 1e-12
        need = kappa * np.maximum(lhs[ok], 0.0) / h32_sq[1:-1][ok] ** 2
        if need.size:
            worst = max(worst, float(need.max()))
    return max(2.0 * worst, 1.0)


def oracle_c10(runs):
    kappa = cal.PROBE_KAPPA
    worst = 0.0
    thetas = _oracle_rough_fields((71, 72))
    for tr in runs:
        thetas += _oracle_late(tr, 40)
    for theta in thetas:
        h2_sq = sobolev_norm(theta, 2.0) ** 2
        if h2_sq <= 1e-14:
            continue
        for s in cal.C10_TANGENT_SEEDS:
            for b in (2, 6, 10):
                xi = random_band_field(theta.grid, b, 1.0, s)
                q = inner_h1(xi, linearized_rhs(theta, xi, kappa))
                transport = q + kappa * sobolev_norm(xi, 1.5) ** 2
                if transport <= 0.0:
                    continue
                need = transport**2 / (2.0 * sobolev_norm(xi, 1.5) ** 2 * h2_sq * inner_h1(xi, xi))
                worst = max(worst, float(need))
    return 2.0 * worst


@pytest.fixture(scope="module")
def late_runs():
    """Four n=16 SQG runs (2 forces x 2 data), t in [0, 4], snapshots every 0.05.

    Long enough for the late-half strides of c7 (every 25th snapshot) and of
    c8 and c10 (every 40th) to pick at least one snapshot each.
    """
    cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=4.0, snapshot_dt=0.05)
    grid = TorusGrid(2, 16)
    runs = [run(build_field(d, grid), cfg, build_force(f, grid)) for f in _FORCES for d in _DATA]
    for tr in runs:
        for every in (25, 40):
            assert _oracle_late(tr, every)
    return runs


def test_calibrate_c7_matches_oracle(late_runs, consts):
    c7 = cal.calibrate_c7(late_runs, consts.eps1)
    assert c7 == oracle_c7(late_runs, consts.eps1)
    assert 0.0 < c7 < math.inf


def test_calibrate_c8_matches_oracle(late_runs):
    c8 = cal.calibrate_c8(late_runs)
    assert c8 == oracle_c8(late_runs)
    assert 0.0 < c8 < math.inf


def test_calibrate_c9_matches_oracle(late_runs):
    # decaying runs give no positive excess, so the floor decides; the same run
    # read backwards in time has a growing H^{3/2} norm and a positive excess
    assert cal.calibrate_c9(late_runs) == oracle_c9(late_runs) == 1.0
    growing = replace(late_runs[1], fields=late_runs[1].fields[::-1],
                      reports=late_runs[1].reports[::-1])
    c9 = cal.calibrate_c9(late_runs + [growing])
    assert c9 == oracle_c9(late_runs + [growing])
    assert 1.0 < c9 < math.inf


def test_calibrate_c10_matches_oracle(late_runs):
    c10 = cal.calibrate_c10(late_runs)
    assert c10 == oracle_c10(late_runs)
    assert 0.0 < c10 < math.inf


def test_main_prints_constants_and_writes_nothing(tmp_path, monkeypatch, capsys, consts):
    shipped = open(default_constants_path(), "rb").read()
    monkeypatch.setattr(cal, "run_calibration", lambda: consts)
    monkeypatch.chdir(tmp_path)
    assert cal.main([]) == 0
    printed = tmp_path / "printed.txt"
    printed.write_text(capsys.readouterr().out)
    assert load_constants(str(printed)) == consts
    assert os.listdir(tmp_path) == ["printed.txt"]
    assert open(default_constants_path(), "rb").read() == shipped


def test_main_write_saves_constants_to_path(tmp_path, monkeypatch, capsys, consts):
    shipped = open(default_constants_path(), "rb").read()
    monkeypatch.setattr(cal, "run_calibration", lambda: consts)
    out = tmp_path / "constants.txt"
    assert cal.main(["--write", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert load_constants(str(out)) == consts
    assert open(default_constants_path(), "rb").read() == shipped
