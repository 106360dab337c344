"""Time integration: exact-solution oracles, conservation, and stability plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critsqg import solver
from critsqg.solver import (
    BlowupError,
    FieldSpec,
    Force,
    SolverConfig,
    _Stepper,
    _transport_values,
    build_field,
    build_force,
    burgers_nonlinear_term,
    integrate,
    nonlinear_term,
    random_band_field,
    run,
    velocity_max,
)
from critsqg.spectral import (
    SpectralField,
    TorusGrid,
    gradient,
    lp_norm,
    riesz_perp,
    sobolev_norm,
)

from conftest import cos_x1, meshes, step


def zero_force(grid):
    return Force.wrap(SpectralField.zeros(grid))


def sqg_term(theta: SpectralField) -> SpectralField:
    """``-u . grad theta`` of one field, through the solver's stage term."""
    grid = theta.grid
    c = nonlinear_term(grid, _transport_values(grid, theta.coeffs[None]))[0]
    return SpectralField._trusted(grid, c)


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    """``<f, g>_{L^2} = (2 pi)^d sum_k conj(f_k) g_k``."""
    return float(np.real(np.sum(np.conj(f.coeffs) * g.coeffs)) * (2.0 * np.pi) ** f.grid.dim)


def energy_balance_residual(prev: SpectralField, new: SpectralField, dt: float, kappa: float,
                            force: SpectralField) -> float:
    """Discrete residual of d/dt||theta||^2 + 2k||theta||^2_{H^1/2} - 2<f,theta> = 0.

    Evaluated with midpoint quadrature; O(dt^2) per step for the IMEX-CN
    scheme (the linear part cancels identically).
    """
    mid = (prev + new) * 0.5
    d_energy = (inner_l2(new, new) - inner_l2(prev, prev)) / dt
    diss = 2.0 * kappa * sobolev_norm(mid, 0.5) ** 2
    inj = 2.0 * inner_l2(force, mid)
    return float(d_energy + diss - inj)


class TestNonlinearTerm:
    def test_vanishes_on_single_mode(self, grid64):
        out = sqg_term(cos_x1(grid64))
        assert np.abs(out.values()).max() < 1e-14

    def test_zero_input(self, grid64):
        assert sqg_term(SpectralField.zeros(grid64)).is_zero()

    def test_transport_orthogonality(self, grid64):
        for seed in range(3):
            th = random_band_field(grid64, 8, 1.0, seed)
            N = sqg_term(th)
            assert abs(inner_l2(N, th)) < 1e-10 * inner_l2(th, th)

    def test_output_mean_zero_and_dealiased(self, grid64):
        th = random_band_field(grid64, 20, 1.0, 5)
        out = sqg_term(th)
        assert out.coeffs[0, 0] == 0.0
        assert out.band() <= (grid64.n - 1) // 3


class TestStep:
    def test_exact_decay_one_unit_time(self, grid64):
        X, _ = meshes(grid64)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        th = cos_x1(grid64)
        f = SpectralField.zeros(grid64)
        for _ in range(1000):
            th = step(th, cfg, f)
        assert np.abs(th.values() - np.exp(-1.0) * np.cos(X)).max() < 1e-6

    def test_zero_stays_zero(self, grid64):
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0)
        th = step(SpectralField.zeros(grid64), cfg, SpectralField.zeros(grid64))
        assert th.is_zero()

    def test_steady_state_is_fixed_point(self, grid64):
        cfg = SolverConfig(kappa=2.0, dt=1e-2, t_end=1.0)
        th0 = cos_x1(grid64)
        f = cos_x1(grid64, amplitude=2.0)  # kappa * cos x1
        th = th0
        for _ in range(100):
            th = step(th, cfg, f)
        drift = sobolev_norm(th - th0, 0.0)
        assert drift < 1e-10

    def test_blowup_raises_with_state(self, grid64):
        th = random_band_field(grid64, 8, 1.0, 3)
        bad = SpectralField._trusted(grid64, np.where(grid64.kmag == 1.0, np.nan, 0.0).astype(complex))
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0)
        with pytest.raises(BlowupError) as exc:
            step(th, cfg, bad)
        assert exc.value.last_state is th

    def test_mean_zero_every_step(self, grid64):
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0)
        th = random_band_field(grid64, 8, 1.0, 9)
        f = random_band_field(grid64, 4, 0.3, 2)
        for _ in range(20):
            th = step(th, cfg, f)
            assert th.coeffs[0, 0] == 0.0

    def test_energy_balance(self, grid64):
        th = random_band_field(grid64, 8, 1.0, 11)
        f = random_band_field(grid64, 4, 0.5, 12)
        residuals = []
        for dt in (2e-3, 1e-3, 5e-4):
            cfg = SolverConfig(kappa=1.0, dt=dt, t_end=dt)
            new = step(th, cfg, f)
            residuals.append(abs(energy_balance_residual(th, new, dt, 1.0, f)))
        # O(dt^2): quartering when dt halves (allow slack)
        assert residuals[2] < residuals[0] / 8
        assert residuals[0] < 1e-4


class TestRun:
    def test_zero_everything(self, grid32):
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=0.5)
        traj = run(SpectralField.zeros(grid32), cfg, zero_force(grid32))
        assert all(rep.lp[2] == 0.0 for rep in traj.reports)

    def test_l2_decay_rate(self, grid64):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        traj = run(cos_x1(grid64), cfg, zero_force(grid64))
        expected = np.exp(-1.0) * np.sqrt(2 * np.pi**2)
        assert traj.reports[-1].lp[2] == pytest.approx(expected, rel=1e-5)

    def test_snapshot_times(self, grid32):
        cfg = SolverConfig(kappa=1.0, dt=3e-3, t_end=0.5, snapshot_dt=0.1)
        traj = run(random_band_field(grid32, 4, 0.5, 1), cfg, zero_force(grid32))
        assert np.allclose(traj.times, np.arange(6) * 0.1)

    @pytest.mark.parametrize("t_end, times", [(0.34, [0.0, 0.1, 0.2, 0.3, 0.34]),
                                              (0.04, [0.0, 0.04])])
    def test_last_snapshot_lands_on_t_end(self, grid32, t_end, times):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=t_end, snapshot_dt=0.1)
        traj = run(cos_x1(grid32), cfg, zero_force(grid32))
        assert traj.times[-1] == t_end
        assert np.allclose(traj.times, times, rtol=0.0, atol=1e-12)
        # exact decay exp(-t) cos x1: the last state is the one at t_end
        expected = np.exp(-t_end) * cos_x1(grid32).values()
        assert np.abs(traj.fields[-1].values() - expected).max() < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([8, 16]), dt=st.floats(1e-2, 0.5),
           snapshot_dt=st.floats(0.05, 1.0), t_end=st.floats(1e-4, 1.0),
           multiple=st.one_of(st.none(), st.integers(1, 5)))
    def test_last_snapshot_is_t_end_property(self, n, dt, snapshot_dt, t_end, multiple):
        # `multiple` puts t_end on a multiple of snapshot_dt, up to rounding
        if multiple is not None:
            t_end = multiple * snapshot_dt
        g = TorusGrid(2, n)
        cfg = SolverConfig(kappa=1.0, dt=dt, t_end=t_end, snapshot_dt=snapshot_dt)
        traj = run(cos_x1(g), cfg, zero_force(g))
        assert traj.times[-1] == t_end
        assert len(traj.times) == math.ceil(t_end / snapshot_dt - 1e-9) + 1
        assert np.all(np.diff(traj.times) > 0.0)

    def test_nonpositive_snapshot_dt_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.0)

    def test_unforced_maximum_principle(self, grid32):
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=2.0, snapshot_dt=0.05)
        traj = run(random_band_field(grid32, 6, 1.0, 17), cfg, zero_force(grid32))
        linf = [rep.lp[np.inf] for rep in traj.reports]
        for a, b in zip(linf, linf[1:]):
            assert b <= a + 1e-8

    def test_resolution_self_convergence(self):
        # smooth data: doubling n leaves theta(t=1) unchanged to spectral accuracy
        results = {}
        for n in (32, 64):
            g = TorusGrid(2, n)
            th0 = build_field(FieldSpec(kind="random_band", band=4, amplitude=0.8, seed=21), g)
            f = build_force(FieldSpec(kind="random_band", band=3, amplitude=0.15, seed=11), g)
            cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.5)
            traj = run(th0, cfg, f)
            results[n] = traj.fields[-1]
        coarse = results[32]
        fine = results[64]
        from critsqg.spectral import resample

        diff = resample(coarse, 64) - fine
        rel = sobolev_norm(diff, 0.0) / sobolev_norm(fine, 0.0)
        assert rel < 1e-5

    def test_dt_self_convergence_order(self, grid32):
        # second-order in dt: halving dt shrinks the defect ~4x
        th0 = random_band_field(grid32, 5, 1.0, 3)
        f = Force.wrap(random_band_field(grid32, 3, 0.2, 4))
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            cfg = SolverConfig(kappa=1.0, dt=dt, t_end=0.5, snapshot_dt=0.5)
            finals[dt] = run(th0, cfg, f).fields[-1]
        e1 = sobolev_norm(finals[4e-3] - finals[5e-4], 0.0)
        e2 = sobolev_norm(finals[2e-3] - finals[5e-4], 0.0)
        e3 = sobolev_norm(finals[1e-3] - finals[5e-4], 0.0)
        assert e2 < e1 / 3.0
        assert e3 < e2 / 3.0

    def test_cfl_controller_engages(self):
        g = TorusGrid(2, 32)
        th0 = random_band_field(g, 6, 5.0, 2)
        cfg = SolverConfig(kappa=1.0, dt=0.05, t_end=0.2, snapshot_dt=0.1)
        traj = run(th0, cfg, zero_force(g))
        assert traj.cfl_reductions > 0
        assert np.isfinite(traj.reports[-1].lp[2])

    def test_identity_rescale_bit_exact(self, grid32):
        # the lambda = 1 rescale of a run is the run itself, bit for bit
        th0 = random_band_field(grid32, 5, 0.8, 13)
        f = Force.wrap(random_band_field(grid32, 3, 0.2, 14))
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=0.3, snapshot_dt=0.1)
        a = run(th0, cfg, f)
        b = run(th0, cfg, f)
        for fa, fb in zip(a.fields, b.fields):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_etdrk2_matches_cn(self, grid32):
        # an independent second-order scheme, Cox-Matthews ETDRK2 on the same
        # symbol and nonlinear term, lands where the Crank-Nicolson run does
        th0 = random_band_field(grid32, 5, 0.8, 5)
        f = Force.wrap(random_band_field(grid32, 3, 0.2, 6))
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=0.5, snapshot_dt=0.5)
        z = -cfg.dt * cfg.kappa * grid32.kmag
        safe = np.where(z == 0, 1.0, z)
        phi1 = np.where(z == 0, 1.0, np.expm1(z) / safe)
        phi2 = np.where(z == 0, 0.5, (np.expm1(z) - z) / safe**2)

        def rhs(c):
            return nonlinear_term(grid32, _transport_values(grid32, c[None]))[0] + f.field.coeffs

        c = th0.coeffs
        for _ in range(500):
            g1 = rhs(c)
            mid = np.exp(z) * c + cfg.dt * phi1 * g1
            c = mid + cfg.dt * phi2 * (rhs(mid) - g1)
        d = run(th0, cfg, f).fields[-1] - SpectralField.from_coeffs(grid32, c)
        assert sobolev_norm(d, 0.0) < 1e-5


class TestIntegrate:
    @settings(max_examples=200, deadline=None)
    @given(dt=st.floats(1e-2, 0.5),
           halvings=st.lists(st.integers(0, 3), min_size=1, max_size=8),
           gaps=st.lists(st.one_of(st.just(0.0), st.just(5e-13), st.floats(0.0, 0.2)),
                         min_size=1, max_size=5),
           max_steps=st.one_of(st.none(), st.integers(1, 5)))
    def test_reaches_each_target_exactly(self, dt, halvings, gaps, max_steps):
        # the state counts steps; the CFL rule halves dt a drawn number of times
        calls = []

        def cfl_dt(_state, h, _t):
            return h * 0.5 ** halvings[len(calls) % len(halvings)]

        def step(state, h, t):
            calls.append((t, h))
            return state + 1

        state, t = 0, 0.0
        for target in np.cumsum(gaps):
            while True:
                before = len(calls)
                state, t_out = integrate(step, cfl_dt, state, t, target, dt, max_steps)
                taken = calls[before:]
                assert state == len(calls)
                assert max_steps is None or len(taken) <= max_steps
                start = t
                for t_step, h in taken:
                    assert t_step == start  # each step starts where the last one ended
                    assert 0.0 < h <= target - t_step  # never past the target
                    start = t_step + h
                t = t_out
                if t == target:
                    break
                # only a max_steps cut may stop short, and then well before the target
                assert len(taken) == max_steps and t < target - 1e-12


# The step as it was written before base and tangent steps shared one stage
# body: one numpy.fft call per field and per packed symbol pair (velocity
# u_1 + i*u_2, gradient d_x + i*d_y), symbols rebuilt from the wavenumbers, and
# the Heun stages spelled out.  The shared body must agree with
# it bit for bit.
def _ref_values(grid, coeffs):
    return np.real(np.fft.ifftn(coeffs * grid.n**grid.dim))


def _ref_pair(grid, coeffs, sym_a, sym_b):
    """The two real fields of symbols ``sym_a`` and ``sym_b`` from one packed transform."""
    c = np.fft.ifftn(coeffs * (sym_a + 1j * sym_b) * grid.n**grid.dim)
    return c.real, c.imag


def _ref_product(grid, values):
    c = np.fft.fftn(values) / grid.n**grid.dim
    c[(0,) * grid.dim] = 0.0
    c[grid.nyquist_mask] = 0.0
    return c * grid.dealias_mask


def ref_nonlinear(grid, coeffs):
    if grid.dim == 1:
        sq = _ref_product(grid, _ref_values(grid, coeffs) ** 2)
        return sq * grid.gradient_symbols[0] * -0.5
    kx, ky = grid.kvecs
    inv = np.zeros_like(grid.kmag)
    inv[grid.kmag > 0] = 1.0 / grid.kmag[grid.kmag > 0]
    u1, u2 = _ref_pair(grid, coeffs, -1j * ky * inv, 1j * kx * inv)
    gx, gy = _ref_pair(grid, coeffs, 1j * kx, 1j * ky)
    return _ref_product(grid, -(u1 * gx + u2 * gy))


def ref_advance(stepper, f, coeffs, dt):
    grid = stepper.grid

    def rhs(c):
        return ref_nonlinear(grid, c) + f.coeffs

    g1 = rhs(coeffs)
    a, b = stepper._coefficients(dt)
    g2 = rhs((a * coeffs + dt * g1) * b)
    return (a * coeffs + 0.5 * dt * (g1 + g2)) * b


class TestStepOracle:
    # each id names the one step it checks: two-thirds dealiasing, IMEX Crank-Nicolson
    @pytest.mark.parametrize("dim, n", [pytest.param(d, n, id=f"two-thirds-imex-cn-{d}-{n}")
                                        for d, n in [(2, 32), (2, 48), (1, 64)]])
    def test_advance_matches_per_field_step(self, dim, n):
        grid = TorusGrid(dim, n)
        cfg = SolverConfig(kappa=0.7, dt=5e-3, t_end=1.0)
        f = random_band_field(grid, 3, 0.3, 4)
        stepper = _Stepper(grid, cfg, f)
        theta = random_band_field(grid, 5, 1.0, 8)
        for dt in (5e-3, 5e-3, 1.25e-3, 5e-3):
            want = ref_advance(stepper, f, theta.coeffs, dt)
            theta = stepper.advance(theta, dt)
            assert np.array_equal(theta.coeffs, want)
        assert not theta.is_zero()


class TestPackedTransforms:
    """Two real fields per complex inverse transform, against one transform per field."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_transport_values_match_separate_transforms(self, n, m, seed, scale):
        grid = TorusGrid(2, n)
        rng = np.random.default_rng(seed)
        fields = [SpectralField.from_coeffs(grid, scale * (rng.normal(size=grid.shape)
                                                          + 1j * rng.normal(size=grid.shape)))
                  for _ in range(m)]
        stack = np.array([f.coeffs for f in fields]).reshape((m,) + grid.shape)
        u1, u2, gx, gy = solver._transport_values(grid, stack)
        for j, f in enumerate(fields):
            # each packed pair is compared relative to the larger field of the pair
            for got, want in (((u1[j], u2[j]), riesz_perp(f)), ((gx[j], gy[j]), gradient(f))):
                want = [w.values() for w in want]
                top = max(np.abs(w).max() for w in want)
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-14 * top
        assert u1.shape == gy.shape == (m,) + grid.shape

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_velocity_max_matches_riesz_perp(self, n, seed, scale):
        grid = TorusGrid(2, n)
        rng = np.random.default_rng(seed)
        f = SpectralField.from_coeffs(grid, scale * (rng.normal(size=grid.shape)
                                                     + 1j * rng.normal(size=grid.shape)))
        u1, u2 = (u.values() for u in riesz_perp(f))
        want = np.sqrt(u1**2 + u2**2).max()
        assert abs(velocity_max(f) - want) <= 1e-14 * want


class TestCflFloor:
    @pytest.mark.parametrize("umax", [np.inf, np.nan, 1e300])
    def test_runaway_velocity_is_a_blowup_at_t(self, grid32, monkeypatch, umax):
        monkeypatch.setattr(solver, "velocity_max", lambda _theta: umax)
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0)
        stepper = _Stepper(grid32, cfg, SpectralField.zeros(grid32))
        theta = cos_x1(grid32)
        with pytest.raises(BlowupError, match="velocity") as exc:
            stepper.cfl_dt(theta, cfg.dt, 0.375)
        assert exc.value.t == 0.375
        assert exc.value.last_state is theta

    def test_floor_is_dt_times_two_to_minus_40(self, grid32, monkeypatch):
        # budget = cfl_budget * 2 pi / (umax n); put it just above and just below the floor
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0)
        floor = cfg.dt * 2.0**-40
        stepper = _Stepper(grid32, cfg, SpectralField.zeros(grid32))
        for scale, ok in ((1.0, True), (0.999, False)):
            umax = cfg.cfl_budget * 2.0 * np.pi / (scale * floor * grid32.n)
            monkeypatch.setattr(solver, "velocity_max", lambda _theta, u=umax: u)
            if ok:
                assert stepper.cfl_dt(cos_x1(grid32), cfg.dt) == floor
            else:
                with pytest.raises(BlowupError):
                    stepper.cfl_dt(cos_x1(grid32), cfg.dt)

    def test_run_stamps_the_time_reached(self, grid32, monkeypatch):
        # the velocity runs away at the 26th step: t = 0.25, after snapshots 0.1 and 0.2
        calls = []

        def fake_velocity(_theta):
            calls.append(None)
            return 1.0 if len(calls) <= 25 else np.inf

        monkeypatch.setattr(solver, "velocity_max", fake_velocity)
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0, snapshot_dt=0.1)
        with pytest.raises(BlowupError) as exc:
            run(cos_x1(grid32), cfg, zero_force(grid32))
        assert exc.value.t == pytest.approx(0.25, abs=1e-12)
        want = np.exp(-exc.value.t) * cos_x1(grid32).values()
        assert np.abs(exc.value.last_state.values() - want).max() < 1e-5

    def test_cli_exits_3_with_dump(self, tmp_path, monkeypatch, capsys):
        from critsqg.cli import EXIT_BLOWUP, main
        from critsqg.snapshots import read_snapshot

        monkeypatch.setattr(solver, "velocity_max", lambda _theta: np.inf)
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "exact-decay", "--out", str(out)]) == EXIT_BLOWUP
        assert "non-finite velocity" in capsys.readouterr().err
        _field, t = read_snapshot(str(out / "blowup_last_state.sqgf"))
        assert t == 0.0


class TestBurgers:
    def test_zero(self):
        g = TorusGrid(1, 128)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=0.1)
        th = step(SpectralField.zeros(g), cfg, SpectralField.zeros(g))
        assert th.is_zero()

    def test_linf_non_increasing_from_cos(self):
        g = TorusGrid(1, 256)
        th0 = cos_x1(g)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=2.0, snapshot_dt=0.05)
        traj = run(th0, cfg, Force.wrap(SpectralField.zeros(g)))
        linf = [rep.lp[np.inf] for rep in traj.reports]
        for a, b in zip(linf, linf[1:]):
            assert b <= a + 1e-8

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_transport_quadrature_identity(self, p):
        # int (theta theta_x) theta^{p-1} dx = 0 for band-limited fields
        g = TorusGrid(1, 256)
        th = random_band_field(g, 16, 1.0, 3)
        N = burgers_nonlinear_term(th)
        vals = th.values()
        integrand = N.values() * vals ** (p - 1)
        assert abs(integrand.sum() * g.spacing) < 1e-10


class TestFieldSpecs:
    def test_zero_kind(self, grid32):
        assert build_field(FieldSpec(kind="zero"), grid32).is_zero()

    def test_single_mode(self, grid32):
        X, Y = meshes(grid32)
        f = build_field(FieldSpec(kind="single_mode", k=(1, 2), amplitude=0.5), grid32)
        assert np.abs(f.values() - 0.5 * np.cos(X + 2 * Y)).max() < 1e-13

    def test_random_band_normalization_and_determinism(self, grid32):
        a = build_field(FieldSpec(kind="random_band", band=5, amplitude=0.7, seed=5), grid32)
        b = build_field(FieldSpec(kind="random_band", band=5, amplitude=0.7, seed=5), grid32)
        assert np.abs(a.coeffs - b.coeffs).max() == 0.0
        assert lp_norm(a, np.inf) == pytest.approx(0.7, rel=1e-12)
        assert a.band() <= 5

    def test_force_norm_caching(self, grid32):
        force = build_force(FieldSpec(kind="single_mode", k=(1, 0), amplitude=2.0), grid32)
        assert force.linf == pytest.approx(2.0, abs=1e-12)
        assert force.h1 == pytest.approx(sobolev_norm(force.field, 1.0), rel=1e-13)

    def test_velocity_max(self, grid32):
        th = cos_x1(grid32)
        assert velocity_max(th) == pytest.approx(1.0, abs=1e-12)
        g1 = TorusGrid(1, 128)
        assert velocity_max(cos_x1(g1, amplitude=0.5)) == pytest.approx(0.5, abs=1e-12)
