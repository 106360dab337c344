"""Envelopes, absorbing constants, and trajectory monitors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from critsqg.diagnostics import (
    UniversalConstants,
    _exceeds,
    absorbing_constants,
    absorption_report,
    decay_envelope,
    decay_envelope_report,
    holder_budget,
    load_constants,
    log_convexity_monitor,
    log_convexity_series,
    m_alpha_envelope,
    save_constants,
    t_alpha_formula,
    track_holder,
)
from critsqg.solver import Force, SolverConfig, Trajectory, random_band_field, run
from critsqg.spectral import NormReport, SpectralField, TorusGrid, lp_norm

from conftest import cos_x1


@pytest.fixture(scope="session")
def consts():
    return load_constants()


def zero_force(grid):
    return Force.wrap(SpectralField.zeros(grid))


@pytest.fixture(scope="module")
def forced_run():
    g = TorusGrid(2, 32)
    cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=0.5, snapshot_dt=0.1)
    return run(random_band_field(g, 4, 1.0, 3), cfg, Force.wrap(random_band_field(g, 3, 0.5, 4)))


def _columns(report):
    """``(t, value, envelope, slack, violated)`` arrays of an envelope report's rows."""
    return tuple(np.array(col) for col in zip(*report.rows))


class TestDecayEnvelope:
    def test_t_zero(self):
        assert decay_envelope(0.0, 3.0, 1.0, 2.0, 0.7) == pytest.approx(3.0)

    def test_infinite_time_limit(self):
        v = decay_envelope(1e9, 3.0, 1.0, 2.0, 0.7)
        assert v == pytest.approx(1.0 / (0.7 * 2.0), rel=1e-12)

    def test_halving_arithmetic(self):
        # f = 0, kappa = 1, c0 = 1, ||theta0|| = 2, t = ln 2 -> 1
        assert decay_envelope(math.log(2.0), 2.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_monotonicity_both_regimes(self):
        t = np.linspace(0.0, 5.0, 200)
        high = np.asarray(decay_envelope(t, 5.0, 1.0, 1.0, 1.0))
        low = np.asarray(decay_envelope(t, 0.1, 1.0, 1.0, 1.0))
        assert np.all(np.diff(high) <= 1e-12)
        assert np.all(np.diff(low) >= -1e-12)

    def test_p_validation(self, consts):
        g = TorusGrid(2, 16)
        traj = run(cos_x1(g), SolverConfig(kappa=1.0, dt=1e-3, t_end=1e-3, snapshot_dt=1e-3),
                   zero_force(g))
        for p in (3, "inf"):
            with pytest.raises(ValueError):
                decay_envelope_report(traj, p, consts)


class TestHolderBudget:
    def test_quarter_cap_branch(self, consts):
        # tiny data and no force: eps0*k/M_inf >= 1/4 so alpha0 = 1/4
        alpha0, m_inf = holder_budget(consts.eps0 / 2.0, 0.0, 1.0, consts)
        assert alpha0 == 0.25
        assert m_inf == consts.eps0 / 2.0

    def test_small_alpha_branch(self, consts):
        alpha0, m_inf = holder_budget(100.0, 0.0, 1.0, consts)
        assert alpha0 == pytest.approx(consts.eps0 / 100.0, rel=1e-12)
        assert alpha0 < 0.25

    def test_degenerate_zero(self, consts):
        alpha0, m_inf = holder_budget(0.0, 0.0, 1.0, consts)
        assert alpha0 == 0.25 and m_inf == 0.0


class TestMAlphaEnvelope:
    def test_equilibrium_is_constant(self):
        c5, m_inf, kappa = 1.5, 1.2, 0.8
        eq = c5 * m_inf
        sol = m_alpha_envelope(eq, m_inf, kappa, c5, np.linspace(0, 5, 50))
        assert np.abs(sol.m_alpha - eq).max() < 1e-9

    def test_monotone_rise_from_zero(self):
        # monotone up to rounding near the equilibrium
        sol = m_alpha_envelope(0.0, 1.0, 1.0, 2.0, np.linspace(0, 20, 200))
        assert np.all(np.diff(sol.m_alpha) >= -1e-9)
        assert sol.m_alpha[-1] == pytest.approx(2.0, rel=1e-3)

    def test_monotone_decay_from_above_with_cap(self):
        sol = m_alpha_envelope(10.0, 1.0, 1.0, 2.0, np.linspace(0, 20, 400))
        assert np.all(np.diff(sol.m_alpha) <= 1e-9)
        assert np.all(sol.m_alpha <= sol.cap + 1e-9)
        assert sol.cap == 10.0

    def test_t_alpha_branches(self):
        # M0 <= 2 c5 M_inf -> 0
        assert t_alpha_formula(1.0, 1.0, 1.0, 2.0) == 0.0
        # explicit branch value
        M0, c5, m_inf, kappa = 10.0, 1.0, 1.0, 2.0
        # d/dt M^2 <= -7 kappa c5^2 M_inf^2 while M >= 2 c5 M_inf
        expected = (M0**2 - 4 * c5**2 * m_inf**2) / (7.0 * kappa * c5**2 * m_inf**2)
        assert t_alpha_formula(M0, m_inf, kappa, c5) == pytest.approx(expected)

    def test_longtime_cap_holds_past_t_alpha(self):
        # w0 = M0/(c5 M_inf) over (2, 50]; just above 2 the true crossing time comes
        # closest to the bound, so a bound short by a factor shows there
        m_inf, kappa, c5 = 1.3, 0.7, 1.5
        for w0 in (2.01, 2.2, 3.0, 4.5, 25.0 / 1.5, 50.0):
            M0 = w0 * c5 * m_inf
            t = np.linspace(0.0, 2.0 * w0**2 / kappa, 2001)
            sol = m_alpha_envelope(M0, m_inf, kappa, c5, t)
            after = t >= sol.t_alpha
            assert after.sum() > 1000
            assert np.all(sol.m_alpha[after] <= sol.longtime_cap * (1 + 1e-9)), w0

    def test_closed_form_matches_ode_oracle(self):
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(7)
        for _ in range(100):
            m_inf, c5, kappa = 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 0.5)
            M0 = c5 * m_inf * rng.uniform(0.0, 50.0)
            t = np.linspace(0.0, 10 ** rng.uniform(-1, 1.5), 101)
            source, damp = c5**2 * kappa * m_inf**2, kappa / (c5 * m_inf)
            ref = solve_ivp(lambda _t, y: source - damp * np.maximum(y, 0.0) ** 1.5, (t[0], t[-1]),
                            [M0**2], t_eval=t, rtol=1e-12, atol=1e-300, method="DOP853").y[0]
            got = m_alpha_envelope(M0, m_inf, kappa, c5, t).m_alpha ** 2
            assert np.all(np.abs(got - ref) <= 1e-10 * ref), (M0, m_inf, kappa, c5)

    def test_single_point_grid(self):
        sol = m_alpha_envelope(3.0, 1.0, 1.0, 2.0, [0.5])
        assert sol.t.tolist() == [0.5] and sol.m_alpha.tolist() == [3.0]

    def test_degenerate_m_inf(self):
        sol = m_alpha_envelope(3.0, 0.0, 1.0, 2.0, np.linspace(0, 1, 5))
        assert np.all(sol.m_alpha == 3.0)

    @pytest.mark.parametrize("args", [
        (3.0, 1.0, 1.0, math.nan, [0.0, 1.0]), (3.0, 1.0, 1.0, math.inf, [0.0, 1.0]),
        (math.nan, 1.0, 1.0, 2.0, [0.0, 1.0]), (3.0, math.inf, 1.0, 2.0, [0.0, 1.0]),
        (3.0, 1.0, math.nan, 2.0, [0.0, 1.0]), (3.0, 1.0, 1.0, 2.0, [0.0, math.nan])],
        ids=["c5_nan", "c5_inf", "M0_nan", "M_inf_inf", "kappa_nan", "t_nan"])
    def test_non_finite_input_raises(self, args):
        # a NaN midpoint never equals an end of its bracket: the bisection would not stop
        with pytest.raises(ValueError, match="must be finite"):
            m_alpha_envelope(*args)


class TestTrackHolder:
    def test_exact_decay_family(self, consts):
        g = TorusGrid(2, 48)
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0, snapshot_dt=0.1)
        traj = run(cos_x1(g), cfg, zero_force(g))
        res = track_holder(traj, 0.25, consts)
        t, g, _env, _slack, _violated = _columns(res)
        # g(t) = exp(-2t) g(0) by seminorm homogeneity of the decaying mode
        expected = g[0] * np.exp(-2.0 * t)
        assert np.abs(g - expected).max() < 1e-4 * g[0]
        assert res.violations == 0

    def test_zero_trajectory(self, grid32, consts):
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=0.3)
        traj = run(SpectralField.zeros(grid32), cfg, zero_force(grid32))
        res = track_holder(traj, 0.25, consts)
        assert np.all(_columns(res)[1] == 0.0)
        assert res.violations == 0

    def test_auto_alpha_is_the_budget_exponent(self, forced_run, consts):
        alpha0, _m_inf = holder_budget(forced_run.reports[0].lp[np.inf], forced_run.force.linf,
                                       forced_run.config.kappa, consts)
        assert track_holder(forced_run, "auto", consts).rows == \
            track_holder(forced_run, alpha0, consts).rows

    def test_violation_recorded_not_raised(self, grid32):
        # deliberately broken constants force an envelope violation
        bad = UniversalConstants(c0=1.0, eps0=0.25, eps1=0.25, c2=1.0, c5=1e-6,
                                 c7=1.0, c8=1.0, c9=1.0, c10=1.0, c11=2.0,
                                 c_backward=1.0, version="test")
        g = TorusGrid(2, 32)
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=0.5, snapshot_dt=0.1)
        theta0 = random_band_field(g, 4, 1.0, 3)
        force = Force.wrap(random_band_field(g, 3, 0.5, 4))
        traj = run(theta0, cfg, force)
        res = track_holder(traj, 0.1, bad)
        # one verdict per snapshot
        violated = _columns(res)[4]
        assert violated.shape == (len(traj.times),) and violated.any()
        assert res.violations == np.count_nonzero(violated)


class TestAbsorbingConstants:
    def test_zero_force_limits(self, consts):
        ac = absorbing_constants(0.0, 0.0, 1.0, consts)
        assert ac.alpha_star == 0.25
        assert ac.m_inf_f == 0.0
        assert ac.m_1f == 0.0 and ac.m_32f == 0.0 and ac.m_2f == 0.0

    def test_m_inf_f_linear_in_force(self, consts):
        # stay on the 1/4 branch so only M_{inf,f} rescales
        a1 = absorbing_constants(0.01, 0.01, 1.0, consts)
        a2 = absorbing_constants(0.02, 0.02, 1.0, consts)
        assert a1.alpha_star == a2.alpha_star == 0.25
        assert a2.m_inf_f == pytest.approx(2 * a1.m_inf_f, rel=1e-12)

    def test_unbounded_force_domain_error(self, consts):
        with pytest.raises(ValueError):
            absorbing_constants(np.inf, 1.0, 1.0, consts)

    def test_golden_snapshot(self, consts):
        # regression pin of the full tuple at unit inputs and shipped constants
        ac = absorbing_constants(1.0, 1.0, 1.0, consts)
        assert ac.alpha_star == min(consts.eps1, 0.25)
        a = ac.alpha_star
        m1_sq = 72.0 + consts.c8 * (8 * consts.c7) ** ((3 - 3 * a) / (2 * a)) / 3.0 * ac.m_inf_f ** (
            (9 - a) / (4 * a)
        )
        assert ac.m_1f == pytest.approx(math.sqrt(m1_sq), rel=1e-12)
        # unit force already sits in the astronomically-large-envelope regime
        assert ac.m_32f == math.inf and ac.m_2f == math.inf

    def test_small_force_full_tuple_finite(self, consts):
        ac = absorbing_constants(0.05, 0.05, 1.0, consts)
        assert ac.alpha_star == 0.25
        k = 1.0
        m1_sq = ac.m_1f**2
        m32_sq = ((6 + k) / k * m1_sq + 0.05**2 / k) * math.exp(consts.c9 * (6 + k) * m1_sq / k**2)
        assert ac.m_32f == pytest.approx(math.sqrt(m32_sq), rel=1e-12)
        m2_sq = 2 / k**2 * 0.05**2 + 2 * consts.c9 / k**2 * m32_sq**2
        assert ac.m_2f == pytest.approx(math.sqrt(m2_sq), rel=1e-12)
        assert np.isfinite(ac.m_2f)

    @pytest.mark.parametrize("args", [
        (0.15, 0.3, 0.05),   # kappa**((9 - 3a)/(4a)) underflows to 0.0
        (1.0, 1.0, 0.05),    # (8*c7)**((3 - 3a)/(2a)) overflows
        (10.0, 5.0, 0.01),
    ])
    def test_m1_term_past_float_range_saturates(self, consts, args):
        ac = absorbing_constants(*args, consts)
        assert ac.m_1f == ac.m_32f == ac.m_2f == math.inf

    @pytest.mark.parametrize("args, expected", [
        ((1.0, 1.0, 1.0), "AbsorbingConstants(alpha_star=0.25, m_inf_f=4.057250433096036, "
                          "m_1f=12850.710188859444, m_32f=inf, m_2f=inf)"),
        ((0.05, 0.05, 1.0), "AbsorbingConstants(alpha_star=0.25, m_inf_f=0.20286252165480181, "
                            "m_1f=0.42506715926094607, m_32f=2.1187401247397575, "
                            "m_2f=6.34888291519858)"),
        ((0.01, 0.01, 1.0), "AbsorbingConstants(alpha_star=0.25, m_inf_f=0.040572504330960366, "
                            "m_1f=0.08485281681960054, m_32f=0.2304570118904852, "
                            "m_2f=0.07642929065047249)"),
    ])
    def test_finite_radii_keep_their_values(self, consts, args, expected):
        # the saturation only acts where the old evaluation raised
        assert repr(absorbing_constants(*args, consts)) == expected


class TestLogConvexity:
    def test_identical_data_degenerate(self, grid32, consts):
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=0.3)
        th = random_band_field(grid32, 4, 1.0, 3)
        f = zero_force(grid32)
        t1 = run(th, cfg, f)
        t2 = run(th, cfg, f)
        res = log_convexity_monitor(t1, t2, consts.c_backward)
        assert res.status == "indistinguishable"
        assert res.violations == 0

    def test_exact_linear_decay_family(self, grid32, consts):
        # theta0 vs 1.01 theta0 on the single-mode ray: difference decays e^{-t}
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=2.0, snapshot_dt=0.1)
        f = zero_force(grid32)
        t1 = run(cos_x1(grid32), cfg, f)
        t2 = run(cos_x1(grid32, amplitude=1.01), cfg, f)
        res = log_convexity_monitor(t1, t2, consts.c_backward)
        assert res.status == "ok"
        # w grows like kappa*t on this family
        assert np.abs(res.w - (res.w[0] + res.t)).max() < 1e-3
        assert res.violations == 0


def _scaled_pair(grid, scales):
    """Trajectories ``theta`` and ``theta + s*xi`` with one snapshot per scale, 0.1 apart."""
    theta, xi = cos_x1(grid), random_band_field(grid, 4, 1.0, 5)
    times = [0.1 * i for i in range(len(scales))]
    cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=times[-1])

    def traj(fields):
        return Trajectory(times=times, fields=fields, reports=[], config=cfg, force=zero_force(grid))

    return traj([theta] * len(scales)), traj([theta + s * xi for s in scales])


class TestLogConvexitySeries:
    @pytest.mark.parametrize("scales, kept", [
        ([1e-2, 1e-3, 1e-4, 0.0, 0.0], 3),   # collapses only at the trailing samples
        ([1e-2, 1e-3, 0.0, 1e-4, 1e-5], 2),  # collapses mid-window, then separates again
        ([1e-2, 0.0, 0.0, 0.0, 0.0], 1),
    ])
    def test_cut_at_first_collapse(self, grid32, scales, kept):
        t, w, integral, status = log_convexity_series(*_scaled_pair(grid32, scales))
        assert status == "indistinguishable"
        assert np.array_equal(t, [0.1 * i for i in range(kept)])
        assert len(w) == len(integral) == kept

    @pytest.mark.parametrize("scales", [[0.0, 1e-2, 1e-3], [0.0, 0.0, 0.0]])
    def test_collapsed_at_start_keeps_nothing(self, grid32, scales):
        t, w, integral, status = log_convexity_series(*_scaled_pair(grid32, scales))
        assert status == "indistinguishable"
        assert len(t) == len(scales) and w.size == integral.size == 0

    def test_separated_pair_is_ok(self, grid32):
        t, w, _integral, status = log_convexity_series(*_scaled_pair(grid32, [1e-2, 1e-3, 1e-4]))
        assert status == "ok" and len(t) == len(w) == 3
        assert np.allclose(w, np.log(2.0 * np.array([1.0, 10.0, 100.0])))


class TestReports:
    def test_decay_envelope_report_of_exact_decay(self, consts):
        g = TorusGrid(2, 48)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.2)
        traj = run(cos_x1(g), cfg, zero_force(g))
        for p in (2, 4, np.inf):
            rep = decay_envelope_report(traj, p, consts)
            assert rep.violations == 0

    @pytest.mark.parametrize("c0_scale", [1.0, 64.0])
    @pytest.mark.parametrize("p", [2, 4, np.inf])
    def test_decay_rows_match_scalar_route(self, forced_run, consts, p, c0_scale):
        # one envelope call over the time array gives the rows that one scalar
        # call per snapshot gives, verdicts included (a 64x c0 violates some)
        consts = replace(consts, c0=c0_scale * consts.c0)
        kappa = forced_run.config.kappa
        f_norm = lp_norm(forced_run.force.field, p)
        norm0 = forced_run.reports[0].lp[p]
        rows = []
        for t, rep in zip(forced_run.times, forced_run.reports):
            env = float(decay_envelope(t, norm0, f_norm, kappa, consts.c0))
            rows.append((t, rep.lp[p], env, env - rep.lp[p], _exceeds(rep.lp[p], env)))
        report = decay_envelope_report(forced_run, p, consts)
        assert report.rows == rows
        assert report.violations == sum(row[4] for row in rows)

    def test_absorption_report_forced_run(self, consts):
        g = TorusGrid(2, 32)
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=3.0, snapshot_dt=0.1)
        theta0 = random_band_field(g, 4, 0.8, 21)
        force = Force.wrap(random_band_field(g, 3, 0.15, 11))
        traj = run(theta0, cfg, force)
        rep = absorption_report(traj, consts)
        assert np.isfinite(rep.entry_time)
        assert rep.permanent
        assert rep.failures == 0

    @staticmethod
    def _absorption(consts, h1_per_radius, h32_sq_per_budget, snapshot_dt=0.5):
        """Report of a hand-made run, snapshots at ``i * snapshot_dt``.

        The norms are given in units of M_1f and of the budget.
        """
        g = TorusGrid(2, 16)
        force = Force.wrap(random_band_field(g, 2, 0.01, 6))
        m_1f = absorbing_constants(force.linf, force.h1, 1.0, consts).m_1f
        budget = 7.0 * m_1f**2  # (6 + kappa)/kappa M_1f^2 at kappa = 1
        reports = [NormReport(lp={}, hs={1.0: a * m_1f, 1.5: math.sqrt(b * budget)})
                   for a, b in zip(h1_per_radius, h32_sq_per_budget)]
        times = [i * snapshot_dt for i in range(len(reports))]
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=times[-1])
        return absorption_report(Trajectory(times=times, fields=[], reports=reports, config=cfg,
                                            force=force), consts)

    def test_absorption_never_entered_is_one_failure(self, consts):
        rep = self._absorption(consts, [2.0] * 5, [0.0] * 5)
        assert rep.entry_time == math.inf and rep.window_rows == []
        assert rep.failures == 1

    def test_absorption_within_slack_is_inside(self, consts):
        # a hair (1e-12 relative) above M_1f is within the slack of the comparison
        rep = self._absorption(consts, [1.0 + 1e-12] * 5, [0.0] * 5)
        assert rep.entry_time == 0.0 and rep.permanent
        assert rep.failures == 0

    def test_absorption_entered_then_left_is_one_failure(self, consts):
        rep = self._absorption(consts, [2.0, 0.5, 0.5, 2.0, 0.5, 0.5], [0.0] * 6)
        assert rep.entry_time == 0.5 and not rep.permanent
        assert [row[3] for row in rep.window_rows] == [False] * 3
        assert rep.failures == 1

    def test_absorption_counts_each_window_over_budget(self, consts):
        # the trapezoid over [0, 1] gives 5/4 of the budget; every later window is 0
        rep = self._absorption(consts, [0.5] * 5, [5.0, 0.0, 0.0, 0.0, 0.0])
        assert rep.entry_time == 0.0 and rep.permanent
        assert [row[3] for row in rep.window_rows] == [True, False, False]
        assert rep.failures == 1

    def test_absorption_windows_span_one_time_unit(self, consts):
        # snapshot times as run makes them, 0.1 apart to 10; t + 1.0 rounds one
        # ulp above the snapshot at t + 1 for t = 3.3, 7.1 and 7.6
        rep = self._absorption(consts, [0.5] * 101, [0.25] * 101, snapshot_dt=0.1)
        assert len(rep.window_rows) == 91
        for t_start, avg, budget, _violated in rep.window_rows:
            assert avg == pytest.approx(0.25 * budget, rel=1e-12), t_start


class TestConstantsIO:
    def test_roundtrip(self, tmp_path, consts):
        path = tmp_path / "c.txt"
        save_constants(consts, str(path), header="roundtrip test")
        back = load_constants(str(path))
        assert back == consts

    def test_env_override(self, tmp_path, monkeypatch, consts):
        path = tmp_path / "c.txt"
        tweaked = UniversalConstants(**{**consts.__dict__, "c0": 0.123})
        save_constants(tweaked, str(path))
        monkeypatch.setenv("SQG_CONSTANTS", str(path))
        assert load_constants().c0 == 0.123

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("c0 = 1.0\n")
        with pytest.raises(ValueError):
            load_constants(str(path))
