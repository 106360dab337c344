"""Time integration: exact-solution oracles, conservation, and stability plumbing."""

import numpy as np
import pytest

from critsqg.solver import (
    BlowupError,
    FieldSpec,
    Force,
    SolverConfig,
    build_field,
    build_force,
    burgers_nonlinear_term,
    burgers_step,
    energy_balance_residual,
    mollify_force,
    nonlinear_term,
    random_band_field,
    run,
    step,
    velocity_max,
)
from critsqg.spectral import SpectralField, TorusGrid, inner_l2, lp_norm, sobolev_norm

from conftest import cos_x1, meshes


def zero_force(grid):
    return Force.wrap(SpectralField.zeros(grid))


class TestNonlinearTerm:
    def test_vanishes_on_single_mode(self, grid64):
        out = nonlinear_term(cos_x1(grid64))
        assert np.abs(out.values()).max() < 1e-14

    def test_zero_input(self, grid64):
        assert nonlinear_term(SpectralField.zeros(grid64)).is_zero()

    def test_transport_orthogonality(self, grid64):
        for seed in range(3):
            th = random_band_field(grid64, 8, 1.0, seed)
            N = nonlinear_term(th)
            assert abs(inner_l2(N, th)) < 1e-10 * inner_l2(th, th)

    def test_output_mean_zero_and_dealiased(self, grid64):
        th = random_band_field(grid64, 20, 1.0, 5)
        out = nonlinear_term(th)
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
        drift = np.sqrt(inner_l2(th - th0, th - th0))
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
        assert all(rep.l2 == 0.0 for rep in traj.reports)

    def test_l2_decay_rate(self, grid64):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        traj = run(cos_x1(grid64), cfg, zero_force(grid64))
        expected = np.exp(-1.0) * np.sqrt(2 * np.pi**2)
        assert traj.reports[-1].l2 == pytest.approx(expected, rel=1e-5)

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

    def test_nonpositive_snapshot_dt_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.0)

    def test_unforced_maximum_principle(self, grid32):
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=2.0, snapshot_dt=0.05)
        traj = run(random_band_field(grid32, 6, 1.0, 17), cfg, zero_force(grid32))
        linf = [rep.linf for rep in traj.reports]
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
        rel = np.sqrt(inner_l2(diff, diff)) / np.sqrt(inner_l2(fine, fine))
        assert rel < 1e-5

    def test_dt_self_convergence_order(self, grid32):
        # second-order in dt: halving dt shrinks the defect ~4x
        th0 = random_band_field(grid32, 5, 1.0, 3)
        f = Force.wrap(random_band_field(grid32, 3, 0.2, 4))
        finals = {}
        for dt in (4e-3, 2e-3, 1e-3, 5e-4):
            cfg = SolverConfig(kappa=1.0, dt=dt, t_end=0.5, snapshot_dt=0.5)
            finals[dt] = run(th0, cfg, f).fields[-1]
        e1 = np.sqrt(inner_l2(finals[4e-3] - finals[5e-4], finals[4e-3] - finals[5e-4]))
        e2 = np.sqrt(inner_l2(finals[2e-3] - finals[5e-4], finals[2e-3] - finals[5e-4]))
        e3 = np.sqrt(inner_l2(finals[1e-3] - finals[5e-4], finals[1e-3] - finals[5e-4]))
        assert e2 < e1 / 3.0
        assert e3 < e2 / 3.0

    def test_epsilon_family_converges_monotonically(self, grid32):
        th0 = random_band_field(grid32, 5, 1.0, 7)
        f = Force.wrap(random_band_field(grid32, 3, 0.2, 8))
        base_cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.5)
        reference = run(th0, base_cfg, f).fields[-1]
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0, snapshot_dt=0.5,
                               epsilon=eps, mollifier_width=eps)
            fld = run(th0, cfg, f).fields[-1]
            d = fld - reference
            errs.append(np.sqrt(inner_l2(d, d)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_cfl_controller_engages(self):
        g = TorusGrid(2, 32)
        th0 = random_band_field(g, 6, 5.0, 2)
        cfg = SolverConfig(kappa=1.0, dt=0.05, t_end=0.2, snapshot_dt=0.1)
        traj = run(th0, cfg, zero_force(g))
        assert traj.cfl_reductions > 0
        assert np.isfinite(traj.reports[-1].l2)

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
        th0 = random_band_field(grid32, 5, 0.8, 5)
        f = Force.wrap(random_band_field(grid32, 3, 0.2, 6))
        finals = []
        for integ in ("imex-cn", "etdrk2"):
            cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=0.5, snapshot_dt=0.5, integrator=integ)
            finals.append(run(th0, cfg, f).fields[-1])
        d = finals[0] - finals[1]
        assert np.sqrt(inner_l2(d, d)) < 1e-5


class TestMollifier:
    def test_identity_at_zero_width(self, grid64):
        f = random_band_field(grid64, 8, 1.0, 1)
        assert np.abs(mollify_force(f, 0.0).coeffs - f.coeffs).max() == 0.0

    def test_single_mode_factor(self, grid64):
        f = cos_x1(grid64)
        out = mollify_force(f, 1.0)
        assert np.abs(out.values() - np.exp(-0.5) * f.values()).max() < 1e-13

    def test_linf_contraction_and_mean(self, grid64):
        for seed in range(3):
            f = random_band_field(grid64, 10, 1.0, seed)
            out = mollify_force(f, 0.5)
            assert lp_norm(out, np.inf) <= lp_norm(f, np.inf) + 1e-12
            assert out.coeffs[0, 0] == 0.0


class TestBurgers:
    def test_zero(self):
        g = TorusGrid(1, 128)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=0.1)
        th = burgers_step(SpectralField.zeros(g), cfg, SpectralField.zeros(g))
        assert th.is_zero()

    def test_linf_non_increasing_from_cos(self):
        g = TorusGrid(1, 256)
        th0 = cos_x1(g)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=2.0, snapshot_dt=0.05)
        traj = run(th0, cfg, Force.wrap(SpectralField.zeros(g)))
        linf = [rep.linf for rep in traj.reports]
        for a, b in zip(linf, linf[1:]):
            assert b <= a + 1e-8

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_transport_quadrature_identity(self, p):
        # int (theta theta_x) theta^{p-1} dx = 0 for band-limited fields
        g = TorusGrid(1, 256)
        th = random_band_field(g, 16, 1.0, 3)
        N = burgers_nonlinear_term(th, rule="none")
        vals = th.values()
        integrand = N.values() * vals ** (p - 1)
        assert abs(integrand.sum() * g.spacing) < 1e-10

    def test_requires_1d(self, grid32):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError):
            burgers_step(cos_x1(grid32), cfg, SpectralField.zeros(grid32))


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
