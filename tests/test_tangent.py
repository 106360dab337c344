"""Linearized dynamics, Gram-Schmidt volume bookkeeping, traces, dimension bound."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from critsqg import tangent
from critsqg.diagnostics import load_constants
from critsqg.solver import (
    BlowupError,
    Force,
    SolverConfig,
    _Stepper,
    _transport_values,
    nonlinear_term,
    random_band_field,
    run,
)
from critsqg.spectral import SpectralField, TorusGrid, fractional_laplacian, inner_h1, sobolev_norm
from critsqg.tangent import (
    CoupledStepper,
    EnsembleCollapseError,
    _frame_condition,
    _linearized_stack,
    _trace_per_m,
    dimension_bound,
    dimension_verdict,
    eigenvalue_count_constant,
    frechet_residual,
    h1_gram_schmidt,
    lattice_eigenvalues,
    linearized_rhs,
    trace_bound_curve,
    volume_and_trace_run,
)

from conftest import cos_x1, meshes


def h1_normalize(f):
    return f * (1.0 / math.sqrt(inner_h1(f, f)))


def stack(grid, fields):
    """``(m, n, n)`` coefficient stack of ``m`` fields (``m`` may be 0)."""
    return np.array([f.coeffs for f in fields], dtype=np.complex128).reshape((-1,) + grid.shape)


def fields(grid, xs):
    return [SpectralField._trusted(grid, x) for x in xs]


def mode_frame(grid, specs):
    x = grid.coords
    X, Y = np.meshgrid(x, x, indexing="ij")
    out = []
    for fn in specs:
        out.append(h1_normalize(SpectralField.from_values(grid, fn(X, Y))))
    return stack(grid, out)


@pytest.fixture(scope="module")
def grid48():
    return TorusGrid(2, 48)


class TestLinearizedRhs:
    def test_zero_base_is_pure_dissipation(self, grid48):
        xi = random_band_field(grid48, 5, 1.0, 1)
        out = linearized_rhs(SpectralField.zeros(grid48), xi, kappa=0.7)
        kmag = grid48.kmag
        expected = -0.7 * kmag * xi.coeffs
        assert np.abs(out.coeffs - expected).max() < 1e-14

    def test_zero_direction(self, grid48):
        th = random_band_field(grid48, 5, 1.0, 2)
        out = linearized_rhs(th, SpectralField.zeros(grid48), kappa=1.0)
        assert out.is_zero()

    def test_directional_derivative_oracle(self, grid48):
        # ||(N(theta + eps xi) - N(theta))/eps - DN(theta)[xi]||_{L^2} = O(eps)
        th = random_band_field(grid48, 5, 1.0, 3)
        xi = random_band_field(grid48, 5, 1.0, 4)
        lin = linearized_rhs(th, xi, kappa=1.0) + (
            SpectralField._trusted(grid48, 1.0 * grid48.kmag * xi.coeffs)
        )
        errs = []
        for eps in (1e-3, 1e-4):
            plus, base = (nonlinear_term(grid48, _transport_values(grid48, c[None]))[0]
                          for c in ((th + eps * xi).coeffs, th.coeffs))
            d = SpectralField._trusted(grid48, (plus - base) * (1.0 / eps)) - lin
            errs.append(sobolev_norm(d, 0.0))
        assert errs[0] < 1e-2
        assert errs[1] < errs[0] / 5  # first order in eps


class TestCoupledStepper:
    def test_heat_decay_about_zero(self, grid48):
        X, _ = meshes(grid48)
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        cs = CoupledStepper(grid48, cfg, Force.wrap(SpectralField.zeros(grid48)))
        th = SpectralField.zeros(grid48)
        xs = stack(grid48, [cos_x1(grid48)])
        t = 0.0
        while t < 1.0 - 1e-12:
            th, xs = cs.step(th, xs, 1e-3)
            t += 1e-3
        (xi,) = fields(grid48, xs)
        assert np.abs(xi.values() - np.exp(-1.0) * np.cos(X)).max() < 1e-6

    def test_returns_a_read_only_stack(self, grid48):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        cs = CoupledStepper(grid48, cfg, Force.wrap(SpectralField.zeros(grid48)))
        xs = stack(grid48, [cos_x1(grid48), random_band_field(grid48, 4, 1.0, 3)])
        _, out = cs.step(random_band_field(grid48, 4, 0.5, 2), xs, 1e-3)
        assert out.shape == xs.shape and not out.flags.writeable

    def test_zero_tangent_stays_zero(self, grid48):
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=1.0)
        cs = CoupledStepper(grid48, cfg, Force.wrap(random_band_field(grid48, 3, 0.2, 1)))
        th = random_band_field(grid48, 4, 0.5, 2)
        xs = stack(grid48, [SpectralField.zeros(grid48)])
        for _ in range(10):
            th, xs = cs.step(th, xs, 1e-2)
        assert np.all(xs == 0.0)

    def test_linearity_proportional_tangents(self, grid48):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        cs = CoupledStepper(grid48, cfg, Force.wrap(random_band_field(grid48, 3, 0.2, 5)))
        th = random_band_field(grid48, 4, 0.5, 6)
        x1 = random_band_field(grid48, 4, 1.0, 7)
        xs = stack(grid48, [x1, 2.0 * x1])
        for _ in range(300):
            th, xs = cs.step(th, xs, 1e-3)
        x1, x2 = xs
        rel = np.abs(x2 - 2.0 * x1).max() / np.abs(x1).max()
        assert rel < 1e-10


class TestOneStepBody:
    # each id names the one step it checks, IMEX Crank-Nicolson
    @pytest.mark.parametrize("m", [pytest.param(m, id=f"{m}-imex-cn") for m in (0, 2)])
    def test_base_matches_plain_stepper(self, grid48, m):
        # tangents ride along without touching the base: the base is a plain step
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=1.0)
        force = random_band_field(grid48, 3, 0.2, 1)
        cs = CoupledStepper(grid48, cfg, Force.wrap(force))
        plain = _Stepper(grid48, cfg, force)
        theta = other = random_band_field(grid48, 4, 0.5, 2)
        xs = stack(grid48, [random_band_field(grid48, 4, 1.0, 3 + j) for j in range(m)])
        for _ in range(3):
            theta, xs = cs.step(theta, xs, 2e-3)
            other = plain.advance(other, 2e-3)
            assert np.array_equal(theta.coeffs, other.coeffs)
            assert np.array_equal(cs.advance(other, 1e-3, 0.0).coeffs,
                                  plain.advance(other, 1e-3).coeffs)

    @pytest.mark.parametrize("cfg", [pytest.param(SolverConfig(kappa=1.0, dt=5e-3, t_end=1.0),
                                                  id="imex-cn")])
    def test_tangent_is_derivative_of_the_step(self, grid48, cfg):
        # central differences of the base step along xi: error O(eps^2)
        cs = CoupledStepper(grid48, cfg, Force.wrap(random_band_field(grid48, 3, 0.2, 1)))
        theta = random_band_field(grid48, 4, 0.8, 2)
        xi = random_band_field(grid48, 4, 1.0, 3)
        _, (got,) = cs.step(theta, stack(grid48, [xi]), 5e-3)
        errs = []
        for eps in (1e-2, 5e-3):
            plus = cs.advance(theta + eps * xi, 5e-3)
            minus = cs.advance(theta - eps * xi, 5e-3)
            fd = (plus - minus) * (0.5 / eps)
            errs.append(np.abs(fd.coeffs - got).max() / np.abs(got).max())
        assert errs[0] < 1e-8  # dropping a transport term gives ~1e-2
        assert errs[1] < errs[0] / 3.0


# Per-field reference for the stacked tangent path: symbols rebuilt from the
# wavenumbers, and one numpy.fft call per field and per packed symbol pair
# (velocity u_1 + i*u_2, gradient d_x + i*d_y).  The stacked path must agree
# with it bit for bit.  With ``packed=False`` it is the route before packing,
# one transform per operator keeping its real part; the stacked path agrees
# with that one to roundoff only.
def _ref_values(grid, coeffs, packed=True):
    kx, ky = grid.kvecs
    inv = np.zeros_like(grid.kmag)
    nz = grid.kmag > 0
    inv[nz] = 1.0 / grid.kmag[nz]
    symbols = (-1j * ky * inv, 1j * kx * inv, 1j * kx, 1j * ky)
    if not packed:
        return [np.real(np.fft.ifftn(coeffs * sym * grid.n**2)) for sym in symbols]
    u = np.fft.ifftn(coeffs * (symbols[0] + 1j * symbols[1]) * grid.n**2)
    d = np.fft.ifftn(coeffs * (symbols[2] + 1j * symbols[3]) * grid.n**2)
    return [u.real, u.imag, d.real, d.imag]


def _ref_advection(grid, adv):
    c = np.fft.fftn(-adv) / grid.n**2
    c[0, 0] = 0.0
    c[grid.nyquist_mask] = 0.0
    return c * grid.dealias_mask


def ref_transport_derivative(theta, xi, packed=True):
    grid = theta.grid
    u1, u2, tx, ty = _ref_values(grid, theta.coeffs, packed)
    w1, w2, gx, gy = _ref_values(grid, xi.coeffs, packed)
    adv = u1 * gx + u2 * gy
    adv += w1 * tx + w2 * ty
    return _ref_advection(grid, adv)


def ref_linearized_rhs(theta, xi, kappa):
    dissipation = kappa * fractional_laplacian(xi, 1.0)
    return ref_transport_derivative(theta, xi) - dissipation.coeffs


def ref_step(stepper, theta, xis, dt, packed=True):
    grid = stepper.grid
    a, b = stepper._coefficients(dt)
    force = stepper.force.coeffs

    def rhs(c):
        u1, u2, tx, ty = _ref_values(grid, c, packed)
        return _ref_advection(grid, u1 * tx + u2 * ty) + force

    g1 = rhs(theta.coeffs)
    mid = SpectralField._trusted(grid, (a * theta.coeffs + dt * g1) * b)
    g2 = rhs(mid.coeffs)
    theta_new = (a * theta.coeffs + 0.5 * dt * (g1 + g2)) * b
    xis_new = []
    for xi in xis:
        d1 = ref_transport_derivative(theta, xi, packed)
        xi_mid = SpectralField._trusted(grid, (a * xi.coeffs + dt * d1) * b)
        d2 = ref_transport_derivative(mid, xi_mid, packed)
        xis_new.append((a * xi.coeffs + 0.5 * dt * (d1 + d2)) * b)
    return theta_new, xis_new


# each id names the dealias rule of the step it checks, two-thirds
class TestStackedOracle:
    @pytest.mark.parametrize("n", [32, 48])
    @pytest.mark.parametrize("m", [pytest.param(m, id=f"two-thirds-{m}") for m in (0, 1, 6)])
    @pytest.mark.parametrize("forced", [True, False])
    @pytest.mark.parametrize("cfl_halved", [False, True])
    def test_step_matches_per_field_loop(self, n, m, forced, cfl_halved):
        grid = TorusGrid(2, n)
        cfg = SolverConfig(kappa=0.8, dt=1.0 if cfl_halved else 1e-3, t_end=1.0)
        force = random_band_field(grid, 2, 0.3, 6) if forced else SpectralField.zeros(grid)
        cs = CoupledStepper(grid, cfg, Force.wrap(force))
        theta = random_band_field(grid, 4, 0.5, 5)
        xs = stack(grid, [random_band_field(grid, 4, 1.0, 20 + j) for j in range(m)])
        dt = cs.cfl_dt(theta, cfg.dt)
        assert (dt < cfg.dt) == cfl_halved
        for _ in range(3):
            want_theta, want_xis = ref_step(cs, theta, fields(grid, xs), dt)
            theta, xs = cs.step(theta, xs, dt)
            assert np.array_equal(theta.coeffs, want_theta)
            assert len(xs) == m
            for xi, want in zip(xs, want_xis):
                assert np.array_equal(xi, want)

    @pytest.mark.parametrize("n", [pytest.param(n, id=f"two-thirds-{n}") for n in (32, 48)])
    def test_step_near_four_transform_route(self, n):
        # packing two real fields per transform moves only the last bits
        grid = TorusGrid(2, n)
        cfg = SolverConfig(kappa=0.8, dt=1e-3, t_end=1.0)
        cs = CoupledStepper(grid, cfg, Force.wrap(random_band_field(grid, 2, 0.3, 6)))
        theta = ref_theta = random_band_field(grid, 4, 0.5, 5)
        ref_xis = [random_band_field(grid, 4, 1.0, 20 + j) for j in range(6)]
        xs = stack(grid, ref_xis)
        for _ in range(4):
            theta, xs = cs.step(theta, xs, cfg.dt)
            want_theta, want_xis = ref_step(cs, ref_theta, ref_xis, cfg.dt, packed=False)
            ref_theta = SpectralField._trusted(grid, want_theta)
            ref_xis = [SpectralField._trusted(grid, x) for x in want_xis]
        for got, want in zip([theta] + fields(grid, xs), [ref_theta] + ref_xis):
            scale = np.abs(want.coeffs).max()
            assert np.abs(got.coeffs - want.coeffs).max() <= 1e-14 * scale

    @pytest.mark.parametrize("n", [pytest.param(n, id=f"two-thirds-{n}") for n in (32, 48)])
    def test_linearized_rhs_matches_per_field(self, n):
        grid = TorusGrid(2, n)
        theta = random_band_field(grid, 5, 0.7, 3)
        xi = random_band_field(grid, 5, 1.0, 4)
        out = linearized_rhs(theta, xi, 0.9).coeffs
        assert np.array_equal(out, ref_linearized_rhs(theta, xi, 0.9))

    @pytest.mark.parametrize("n", [32, 48])
    def test_traces_match_per_field(self, n):
        grid = TorusGrid(2, n)
        theta = random_band_field(grid, 4, 0.5, 3)
        frame, _ = h1_gram_schmidt(
            grid, stack(grid, [random_band_field(grid, 4, 1.0, s) for s in range(30, 36)]))
        terms = [inner_h1(phi, SpectralField._trusted(grid, ref_linearized_rhs(theta, phi, 1.1)))
                 for phi in fields(grid, frame)]
        per_m = _trace_per_m(theta, frame, 1.1)
        assert np.array_equal(per_m, np.cumsum(terms))
        total = 0.0
        for term in terms:
            total += term
        assert per_m[-1] == total
        assert _trace_per_m(theta, frame[:1], 1.1)[-1] == per_m[0]


# Per-field reference for the stacked Gram-Schmidt and traces: the list
# implementation over ``inner_h1`` that the stack replaced.  The stack path
# must agree with it bit for bit, errors included.
def ref_gram_schmidt(xis):
    frame = []
    increments = np.empty(len(xis))
    for j, xi in enumerate(xis):
        v = xi
        for phi in frame:
            v = v - inner_h1(phi, v) * phi
        norm_sq = inner_h1(v, v)
        ref = inner_h1(xi, xi)
        if not math.isfinite(norm_sq):
            raise EnsembleCollapseError(f"non-finite H^1 norm at tangent index {j}")
        if norm_sq <= 0.0 or (ref > 0 and norm_sq < 1e-24 * ref):
            raise EnsembleCollapseError(f"rank deficiency at tangent index {j}")
        r = math.sqrt(norm_sq)
        frame.append(v * (1.0 / r))
        increments[j] = math.log(r)
    return frame, increments


def ref_trace_per_m(theta, frame, kappa):
    grid = theta.grid
    rhs = _linearized_stack(theta, stack(grid, frame), kappa)
    return np.cumsum([inner_h1(phi, SpectralField._trusted(grid, r)) for phi, r in zip(frame, rhs)])


def _outcome(fn, *args):
    """``("ok", result)`` or ``("raised", message)`` of an :class:`EnsembleCollapseError`."""
    try:
        return "ok", fn(*args)
    except EnsembleCollapseError as exc:
        return "raised", str(exc)


class TestStackedFrameOracle:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([16, 32]), m=st.integers(1, 6), band=st.integers(2, 5),
           exponents=st.lists(st.floats(-6.0, 6.0), min_size=7, max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_gram_schmidt_and_traces_match_per_field(self, n, m, band, exponents, seed):
        grid = TorusGrid(2, n)
        xis = [random_band_field(grid, band, 10.0 ** e, seed + j)
               for j, e in enumerate(exponents[:m])]
        kind, want = _outcome(ref_gram_schmidt, xis)
        assert kind == "ok"
        frame, increments = h1_gram_schmidt(grid, stack(grid, xis))
        assert not frame.flags.writeable
        assert np.array_equal(frame, stack(grid, want[0]))
        assert np.array_equal(increments, want[1])
        theta = random_band_field(grid, band, 10.0 ** exponents[m], seed + 99)
        assert np.array_equal(_trace_per_m(theta, frame, 0.9),
                              ref_trace_per_m(theta, want[0], 0.9))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 32]), m=st.integers(2, 6), data=st.data(),
           defect=st.sampled_from(["nan", "inf", "dependent"]), seed=st.integers(0, 2**32 - 1))
    def test_defects_raise_with_the_offending_index(self, n, m, data, defect, seed):
        grid = TorusGrid(2, n)
        xis = [random_band_field(grid, 4, 10.0 ** data.draw(st.floats(-6.0, 6.0)), seed + j)
               for j in range(m)]
        j = data.draw(st.integers(1, m - 1))
        if defect == "dependent":
            xis[j] = xis[data.draw(st.integers(0, j - 1))] * 10.0 ** data.draw(st.floats(-6.0, 6.0))
        else:
            c = xis[j].coeffs.copy()
            c[1, 2] = np.nan if defect == "nan" else np.inf
            xis[j] = SpectralField._trusted(grid, c)
        want = _outcome(ref_gram_schmidt, xis)
        assert want[0] == "raised" and want[1].endswith(f"index {j}")
        assert _outcome(h1_gram_schmidt, grid, stack(grid, xis)) == want


class TestTangentBlowup:
    def test_non_finite_tangent_raises_with_time(self, grid48):
        cfg = SolverConfig(kappa=1.0, dt=1e-3, t_end=1.0)
        cs = CoupledStepper(grid48, cfg, Force.wrap(SpectralField.zeros(grid48)))
        theta = random_band_field(grid48, 4, 0.5, 2)
        c = random_band_field(grid48, 4, 1.0, 3).coeffs.copy()
        c[1, 2] = np.nan
        bad = SpectralField._trusted(grid48, c)
        with pytest.raises(BlowupError) as exc:
            cs.step(theta, stack(grid48, [cos_x1(grid48), bad]), 1e-3, t=0.25)
        assert exc.value.t == 0.25 + 1e-3
        assert exc.value.last_state is theta

    def test_gram_schmidt_rejects_non_finite_norm(self, grid48):
        c = random_band_field(grid48, 4, 1.0, 3).coeffs.copy()
        c[1, 2] = np.nan
        with pytest.raises(EnsembleCollapseError, match="non-finite.*index 1"):
            h1_gram_schmidt(grid48, stack(grid48, [cos_x1(grid48), SpectralField._trusted(grid48, c)]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_stamped_with_elapsed_time(self):
        # no CFL guard and a huge step: the base overflows after several steps,
        # in the coupled phase after the relax phase; the stamp must be the
        # elapsed time at the end of the failing step, as solver.run reports it
        g = TorusGrid(2, 16)
        cfg = SolverConfig(kappa=0.1, dt=0.5, t_end=50.0, cfl_budget=1e9, snapshot_dt=0.5)
        theta0 = random_band_field(g, 3, 5.0, 5)
        force = Force.wrap(SpectralField.zeros(g))
        with pytest.raises(BlowupError) as plain:
            run(theta0, cfg, force)
        with pytest.raises(BlowupError) as coupled:
            volume_and_trace_run(theta0, 2, cfg, force, reorth_every=2,
                                 t_relax=1.5, seed=7, tangent_band=3)
        assert plain.value.t > 1.5 + cfg.dt
        assert coupled.value.t == pytest.approx(plain.value.t, rel=1e-12)
        assert np.array_equal(coupled.value.last_state.coeffs, plain.value.last_state.coeffs)


class TestGramSchmidt:
    def test_orthonormal_modes_zero_increment(self, grid48):
        frame = mode_frame(grid48, [
            lambda X, Y: np.cos(X), lambda X, Y: np.sin(X),
            lambda X, Y: np.cos(Y), lambda X, Y: np.sin(Y),
        ])
        out, inc = h1_gram_schmidt(grid48, frame)
        assert np.abs(inc).max() < 1e-12

    def test_single_vector_norm(self, grid48):
        f = cos_x1(grid48)
        f3 = f * (3.0 / math.sqrt(inner_h1(f, f)))
        out, inc = h1_gram_schmidt(grid48, stack(grid48, [f3]))
        assert inc[0] == pytest.approx(math.log(3.0), abs=1e-12)
        (phi,) = fields(grid48, out)
        assert inner_h1(phi, phi) == pytest.approx(1.0, rel=1e-12)

    def test_random_frame_gram_identity(self, grid48):
        xis = [random_band_field(grid48, 5, 1.0, s) for s in (11, 12, 13)]
        frame, _ = h1_gram_schmidt(grid48, stack(grid48, xis))
        for i, a in enumerate(fields(grid48, frame)):
            for j, b in enumerate(fields(grid48, frame)):
                want = 1.0 if i == j else 0.0
                assert inner_h1(a, b) == pytest.approx(want, abs=1e-10)

    def test_rank_deficiency_reports_index(self, grid48):
        a = random_band_field(grid48, 4, 1.0, 1)
        with pytest.raises(EnsembleCollapseError, match="index 1"):
            h1_gram_schmidt(grid48, stack(grid48, [a, 2.0 * a]))


def zero_state_trace(grid, frame, kappa):
    """``Tr(P_m A_0)`` about the zero state, ``m`` the frame size."""
    return _trace_per_m(SpectralField.zeros(grid), frame, kappa)[-1]


class TestTrace:
    def test_four_unit_modes(self, grid48):
        frame = mode_frame(grid48, [
            lambda X, Y: np.cos(X), lambda X, Y: np.sin(X),
            lambda X, Y: np.cos(Y), lambda X, Y: np.sin(Y),
        ])
        tr = zero_state_trace(grid48, frame, kappa=1.0)
        assert tr == pytest.approx(-4.0, abs=1e-8)

    def test_empty_frame(self, grid48):
        # no frame sizes m, so no traces
        assert _trace_per_m(SpectralField.zeros(grid48), stack(grid48, []), 1.0).size == 0

    def test_mixed_eigenvalues(self, grid48):
        frame = mode_frame(grid48, [
            lambda X, Y: np.cos(X), lambda X, Y: np.sin(X),
            lambda X, Y: np.cos(Y), lambda X, Y: np.sin(Y),
            lambda X, Y: np.cos(X + Y), lambda X, Y: np.sin(X - Y),
        ])
        tr = zero_state_trace(grid48, frame, kappa=1.0)
        assert tr == pytest.approx(-(4.0 + 2.0 * math.sqrt(2.0)), abs=1e-8)

    def test_twelve_mode_eigenvalue_sum(self, grid48):
        # Tr(P_m A_0) = -kappa * (sum of the m smallest eigenvalues) up to m = 12
        specs = [
            lambda X, Y: np.cos(X), lambda X, Y: np.sin(X),
            lambda X, Y: np.cos(Y), lambda X, Y: np.sin(Y),
            lambda X, Y: np.cos(X + Y), lambda X, Y: np.sin(X + Y),
            lambda X, Y: np.cos(X - Y), lambda X, Y: np.sin(X - Y),
            lambda X, Y: np.cos(2 * X), lambda X, Y: np.sin(2 * X),
            lambda X, Y: np.cos(2 * Y), lambda X, Y: np.sin(2 * Y),
        ]
        frame = mode_frame(grid48, specs)
        lam = lattice_eigenvalues(12)
        for m in range(1, 13):
            tr = zero_state_trace(grid48, frame[:m], kappa=1.3)
            assert tr == pytest.approx(-1.3 * lam[:m].sum(), abs=1e-8)

    def test_orthonormalization_invariance(self, grid48):
        # the trace must not depend on the basis of the span
        th = random_band_field(grid48, 4, 0.5, 3)
        xis = [random_band_field(grid48, 5, 1.0, s) for s in (21, 22, 23)]
        frame, _ = h1_gram_schmidt(grid48, stack(grid48, xis))
        mixed = np.array([
            frame[0] * 0.6 + frame[1] * 0.8,
            frame[1] * 0.8 - frame[0] * 0.6,
            frame[2],
        ])
        frame2, _ = h1_gram_schmidt(grid48, mixed)
        t1 = _trace_per_m(th, frame, 1.0)[-1]
        t2 = _trace_per_m(th, frame2, 1.0)[-1]
        assert t1 == pytest.approx(t2, rel=1e-9)


class TestEigenvalues:
    def test_listing(self):
        lam = lattice_eigenvalues(12)
        expected = [1, 1, 1, 1, math.sqrt(2), math.sqrt(2), math.sqrt(2), math.sqrt(2), 2, 2, 2, 2]
        assert np.allclose(lam, expected)

    def test_count_constant_exact(self):
        assert eigenvalue_count_constant(10**4) == 2.0


class TestDimensionBound:
    def test_ceil_one(self):
        # c10*c11*M_A^2/kappa^2 = 1: the curve is 0 at m = 1, so N = 2
        assert dimension_bound(1.0, 1.0, 0.5, 2.0) == 2

    def test_fourth_power_dependence(self):
        n1 = dimension_bound(1.0, 3.0, 1.3, 2.0)
        n2 = dimension_bound(1.0, 6.0, 1.3, 2.0)
        assert n2 == pytest.approx(16 * n1, rel=2e-2)

    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(1e-3, 1e2), m_a=st.floats(0.0, 1e80),
           c10=st.floats(1e-8, 1e3), c11=st.floats(0.5, 10.0))
    @example(kappa=1.0, m_a=0.0, c10=1.0, c11=1.0)      # x = 0: ceil(x^2) gives N = 0
    @example(kappa=1.0, m_a=9743.0, c10=1.0, c11=1.0)   # x^2 > 2^53: a float floor is off
    @example(kappa=0.05, m_a=1.0, c10=1.0, c11=1.0)     # a tie: float curve(N) == 0.0
    def test_curve_negative_at_bound(self, kappa, m_a, c10, c11):
        # the curve is negative exactly for m > x^2, so N - 1 <= x^2 < N
        N = dimension_bound(kappa, m_a, c10, c11)
        if N == math.inf:
            return
        x2 = Fraction(c10 * c11 * m_a**2 / kappa**2) ** 2
        assert Fraction(N - 1) <= x2 < Fraction(N)
        # the float curve cancels near its root: e.g. kappa = 0.05, M_A = c10 =
        # c11 = 1 give curve(N) == 0.0, so its sign is checked only off the ties
        if x2 < 2**40 and min(x2 - (N - 1), N - x2) > x2 * 1e-12:
            bound = (kappa, m_a, c10, c11)
            assert trace_bound_curve(N, *bound) < 0 <= trace_bound_curve(N - 1, *bound)

    def test_curve_shape(self):
        m = np.arange(1, 50)
        c = trace_bound_curve(m, 1.0, 1.0, 1.0, 2.0)
        # eventually decreasing and crossing zero
        assert c[-1] < 0
        tail = np.diff(c)[-10:]
        assert np.all(tail < 0)


class TestDimensionVerdict:
    def test_radius_past_float_range_is_a_vacuous_pass(self):
        # the holder-corpus force shape at amplitude 0.3: the H^{3/2} radius overflows
        force = Force.wrap(random_band_field(TorusGrid(2, 16), 3, 0.3, 11))
        v = dimension_verdict(6, force, 1.0, load_constants())
        assert v.m_a == math.inf and v.n_bound == math.inf and v.passed

    def test_empirical_n_above_the_bound_fails(self):
        force = Force.wrap(random_band_field(TorusGrid(2, 32), 2, 0.01, 6))
        at_bound = dimension_verdict(1, force, 1.0, load_constants())
        assert at_bound.passed
        above = dimension_verdict(at_bound.n_bound + 1, force, 1.0, load_constants())
        assert above.n_bound == at_bound.n_bound and not above.passed


@pytest.fixture(scope="module")
def volume_run():
    g = TorusGrid(2, 32)
    theta0 = random_band_field(g, 3, 0.5, 5)
    force = Force.wrap(random_band_field(g, 2, 0.05, 6))
    cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=5.0)
    return volume_and_trace_run(theta0, 6, cfg, force,
                                reorth_every=10, t_relax=4.0, seed=7, tangent_band=3)


class TestVolumeTrace:
    def test_identity_residual(self, volume_run):
        assert volume_run.identity_residual < 1e-3

    def test_unforced_traces_converge_to_eigenvalue_sums(self):
        # tangent frames align with the lowest modes at rate exp(-gap t); check
        # convergence toward -kappa * cumsum(lambda) and the final 5% window
        g = TorusGrid(2, 32)
        theta0 = random_band_field(g, 3, 0.5, 9)
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=6.0)
        res = volume_and_trace_run(theta0, 6, cfg, Force.wrap(SpectralField.zeros(g)),
                                   reorth_every=10, t_relax=4.0, seed=3,
                                   tangent_band=3)
        lam = lattice_eigenvalues(6)
        expected = -np.cumsum(lam)
        mid = res.traces[len(res.times) // 2]
        final_err = np.abs(res.traces[-1] - expected).max()
        assert final_err < np.abs(mid - expected).max()
        assert final_err < 0.05 * np.abs(expected).max()
        assert res.empirical_N == 1

    def test_traces_use_the_stepped_dealias_rule(self):
        # the traces take the dealiased generator the frame is stepped with; a
        # frame band of 12 reaches past the two-thirds cutoff 10 of n = 32, where
        # undealiased traces leave a residual twenty times larger
        g = TorusGrid(2, 32)
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=1.0)
        res = volume_and_trace_run(random_band_field(g, 8, 1.0, 5), 4, cfg,
                                   Force.wrap(SpectralField.zeros(g)),
                                   reorth_every=10, t_relax=0.0, seed=3, tangent_band=12)
        assert res.identity_residual < 1e-3

    # 0.0519 is not a multiple of dt, so the last step is clipped; ten steps of
    # 1e-2 sum to 0.09999999999999999, within 1e-12 of 0.1
    @pytest.mark.parametrize("dt, t_end", [(2e-3, 0.0519), (1e-2, 0.1)])
    def test_ends_exactly_at_t_end(self, dt, t_end):
        g = TorusGrid(2, 16)
        cfg = SolverConfig(kappa=1.0, dt=dt, t_end=t_end)
        res = volume_and_trace_run(random_band_field(g, 3, 0.5, 5), 2, cfg,
                                   Force.wrap(random_band_field(g, 2, 0.05, 6)),
                                   reorth_every=3, t_relax=0.0137, seed=7, tangent_band=3)
        assert res.times[-1] == t_end
        assert np.all(np.diff(res.times) > 0)

    @pytest.mark.parametrize("reorth_every", [0, -1])
    def test_reorth_interval_below_one_raises(self, reorth_every):
        # a segment of at most zero steps never advances, so the run would not end
        g = TorusGrid(2, 16)
        with pytest.raises(ValueError, match="reorth_every must be >= 1"):
            volume_and_trace_run(random_band_field(g, 3, 0.5, 5), 2,
                                 SolverConfig(kappa=1.0, dt=1e-2, t_end=0.1),
                                 Force.wrap(SpectralField.zeros(g)),
                                 reorth_every=reorth_every, t_relax=0.0, seed=7, tangent_band=3)

    def test_frame_condition_is_sqrt_cond_of_h1_gram(self, grid48):
        xis = [random_band_field(grid48, 4, 1.0 + j, 50 + j) for j in range(5)]
        # nearly dependent on the first, with a shorter norm
        xis.append(xis[0] * 0.5 + random_band_field(grid48, 4, 1e-3, 99))
        gram = np.array([[inner_h1(f, g) for g in xis] for f in xis])
        want = math.sqrt(np.linalg.cond(gram))
        got = _frame_condition(grid48, stack(grid48, xis))
        assert want > 100.0 and got == pytest.approx(want, rel=1e-6)
        norms = [math.sqrt(inner_h1(f, f)) for f in xis]
        assert got >= max(norms) / min(norms)
        frame, _ = h1_gram_schmidt(grid48, stack(grid48, xis))
        assert _frame_condition(grid48, frame) == pytest.approx(1.0, abs=1e-9)
        # a dependent pair reads inf, or a roundoff-sized lambda_min far above any trigger
        assert _frame_condition(grid48, stack(grid48, [xis[0], xis[0] * 2.0])) > 1e6

    def test_collapse_detection(self, monkeypatch):
        g = TorusGrid(2, 32)
        theta0 = random_band_field(g, 3, 0.5, 5)
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=100.0)
        monkeypatch.setattr(tangent, "COLLAPSE_CONDITION", 10.0)
        with pytest.raises(EnsembleCollapseError):
            volume_and_trace_run(theta0, 6, cfg, Force.wrap(SpectralField.zeros(g)),
                                 reorth_every=10**6, t_relax=0.0, seed=3, tangent_band=3)


def _record_steps(monkeypatch):
    """``(t, dt)`` of every coupled and base-only ``CoupledStepper`` step from here on."""
    seen = []
    step, advance = CoupledStepper.step, CoupledStepper.advance

    def step_spy(self, theta, xs, dt, *, t=0.0):
        seen.append((t, dt))
        return step(self, theta, xs, dt, t=t)

    def advance_spy(self, theta, dt, t=0.0):
        seen.append((t, dt))
        return advance(self, theta, dt, t)

    monkeypatch.setattr(CoupledStepper, "step", step_spy)
    monkeypatch.setattr(CoupledStepper, "advance", advance_spy)
    return seen


def _assert_reaches(seen, targets):
    """Every target is a step boundary: no step straddles one, and stepping resumes at it.

    Steps of 1e-2 reach 0.1 only as 0.09999999999999999, so resuming at exactly
    0.1 needs the driver's snap to the target.
    """
    starts = {t for t, _dt in seen}
    for tau in targets:
        assert not any(t < tau - 1e-12 and t + dt > tau + 1e-12 for t, dt in seen)
    assert all(tau in starts for tau in targets[:-1])
    last_t, last_dt = seen[-1]
    assert abs(last_t + last_dt - targets[-1]) <= 1e-12


class TestFrechet:
    def test_reaches_each_requested_time(self, monkeypatch):
        g = TorusGrid(2, 16)
        cfg = SolverConfig(kappa=1.0, dt=1e-2, t_end=0.123)
        seen = _record_steps(monkeypatch)
        ts = [0.05, 0.1, 0.123]
        res = frechet_residual(random_band_field(g, 3, 0.5, 1), random_band_field(g, 3, 1.0, 2),
                               ts=ts, scales=[1e-2], config=cfg,
                               force=Force.wrap(SpectralField.zeros(g)))
        assert res.ratios.shape == (3, 1)
        _assert_reaches(seen, ts)

    def test_zero_direction(self, grid48):
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=1.0)
        res = frechet_residual(random_band_field(grid48, 4, 0.5, 1),
                               SpectralField.zeros(grid48), ts=[0.5], scales=[1e-1, 1e-2],
                               config=cfg, force=Force.wrap(SpectralField.zeros(grid48)))
        assert np.all(res.ratios == 0.0)

    def test_quadratic_remainder_about_origin(self):
        # theta0 = 0, f = 0: the difference dynamics are purely quadratic, slope 1
        g = TorusGrid(2, 32)
        cfg = SolverConfig(kappa=1.0, dt=2e-3, t_end=1.0)
        res = frechet_residual(SpectralField.zeros(g), random_band_field(g, 3, 1.0, 2),
                               ts=[0.5, 1.0], scales=[1e-1, 1e-2, 1e-3, 1e-4],
                               config=cfg, force=Force.wrap(SpectralField.zeros(g)))
        assert np.all(np.abs(res.slopes - 1.0) <= 0.1)
        # ratios decrease in r at every t
        assert np.all(np.diff(res.ratios, axis=1) <= 0)

