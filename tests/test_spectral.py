"""Spectral fields, operators, and norms: oracle values and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from critsqg.spectral import (
    MeanZeroError,
    SpectralField,
    TorusGrid,
    _all_shift_powers,
    _attained_quotient,
    _holder_ratios,
    _increment_bound,
    _increment_maxima,
    _kmag_power,
    fractional_laplacian,
    gradient,
    holder_seminorm,
    inner_h1,
    lp_norm,
    norm_report,
    resample,
    riesz_perp,
    shift,
    sobolev_norm,
)

from conftest import cos_x1, meshes, step


def random_field(grid, band, seed, amplitude=1.0):
    from critsqg.solver import random_band_field

    return random_band_field(grid, band, amplitude, seed)


class TestTorusGrid:
    def test_rejects_odd_or_tiny_n(self):
        with pytest.raises(ValueError):
            TorusGrid(2, 6)
        with pytest.raises(ValueError):
            TorusGrid(2, 65)
        with pytest.raises(ValueError):
            TorusGrid(3, 64)

    def test_spacing_and_wavenumbers(self, grid64):
        assert grid64.spacing == pytest.approx(2 * np.pi / 64)
        k = grid64.wavenumbers
        assert k[0] == 0 and k[1] == 1 and k[-1] == -1
        assert k.min() == -32 and k.max() == 31


class TestSpectralField:
    def test_roundtrip_values(self, grid64):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=grid64.shape)
        vals -= vals.mean()
        f = SpectralField.from_values(grid64, vals)
        # Nyquist modes are dropped on construction; compare on the projected field
        back = SpectralField.from_values(grid64, f.values())
        assert np.abs(back.values() - f.values()).max() < 1e-12 * np.abs(vals).max()

    def test_mean_zero_enforced(self, grid64):
        with pytest.raises(MeanZeroError):
            SpectralField.from_values(grid64, np.ones(grid64.shape))
        f = SpectralField.from_values(grid64, np.ones(grid64.shape), demean=True)
        assert f.is_zero()

    def test_immutability(self, grid64):
        f = cos_x1(grid64)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0

    def test_hermitian_symmetry(self, grid64):
        f = random_field(grid64, 10, 1)
        c = f.coeffs
        mirrored = np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1)))
        assert np.abs(c - mirrored).max() == 0.0


class TestFractionalLaplacian:
    def test_unit_eigenvalue_mode(self, grid64):
        f = cos_x1(grid64)
        out = fractional_laplacian(f, 1.0)
        assert np.abs(out.values() - f.values()).max() < 1e-13

    def test_single_mode_multiplier(self, grid64):
        f = cos_x1(grid64, mult=2)
        out = fractional_laplacian(f, 1.0)
        assert np.abs(out.values() - 2.0 * f.values()).max() < 1e-13

    def test_identity_multiplier(self, grid64):
        f = random_field(grid64, 8, 2)
        out = fractional_laplacian(f, 0.0)
        assert np.abs(out.values() - f.values()).max() < 1e-13

    def test_semigroup_property(self, grid64):
        f = random_field(grid64, 8, 3)
        a = fractional_laplacian(fractional_laplacian(f, 0.7), 0.6)
        b = fractional_laplacian(f, 1.3)
        scale = np.abs(b.coeffs).max()
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-12 * scale


class TestRiesz:
    def test_sin_mode(self, grid64):
        X, _ = meshes(grid64)
        f = SpectralField.from_values(grid64, np.sin(X))
        u1, u2 = riesz_perp(f)
        assert np.abs(u1.values()).max() < 1e-14
        assert np.abs(u2.values() - np.cos(X)).max() < 1e-13

    def test_zero_field(self, grid64):
        u1, u2 = riesz_perp(SpectralField.zeros(grid64))
        assert u1.is_zero() and u2.is_zero()

    def test_divergence_free_coefficientwise(self, grid64):
        f = random_field(grid64, 12, 4)
        u1, u2 = riesz_perp(f)
        kx, ky = grid64.kvecs
        div = 1j * kx * u1.coeffs + 1j * ky * u2.coeffs
        assert np.abs(div).max() < 1e-14 * max(np.abs(f.coeffs).max(), 1.0)


class TestNorms:
    def test_l2_of_cos(self, grid64):
        f = cos_x1(grid64)
        assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(2 * np.pi**2), rel=1e-13)
        # |k| = 1: every H^s norm coincides
        for s in (0.5, 1.0, 1.7):
            assert sobolev_norm(f, s) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-13)

    def test_hs_multiplier_arithmetic(self, grid64):
        f = cos_x1(grid64, mult=2)
        assert sobolev_norm(f, 1.0) == pytest.approx(2 * sobolev_norm(f, 0.0), rel=1e-13)

    def test_parseval_consistency(self, grid64):
        for seed in range(5):
            f = random_field(grid64, 9, seed)
            assert lp_norm(f, 2) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-10)

    def test_lp_examples(self, grid64):
        f = cos_x1(grid64)
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-12)
        # closed form: int cos^4 over the torus = 3*pi^2/2
        assert lp_norm(f, 4) == pytest.approx((3 * np.pi**2 / 2) ** 0.25, rel=1e-12)

    def test_norm_report_consistency(self, grid64):
        f = random_field(grid64, 8, 7)
        rep = norm_report(f, ps=(2, 6))
        assert set(rep.hs) == {0.5, 1.0, 1.5, 2.0}
        assert sobolev_norm(f, 0.0) == pytest.approx(rep.lp[2], rel=1e-12)
        # one shared transform gives exactly the per-norm values, 2, 4 and inf always
        assert rep.lp == {p: lp_norm(f, p) for p in (2, 4, np.inf, 6)}
        assert all(v >= 0 for v in rep.lp.values())
        assert norm_report(f).lp == {p: rep.lp[p] for p in (2, 4, np.inf)}


class TestHolderSeminorm:
    def test_zero_field(self, grid64):
        value = holder_seminorm(SpectralField.zeros(grid64), 0.5)
        assert type(value) is float and value == 0.0

    def test_lipschitz_of_cos(self):
        g = TorusGrid(2, 128)
        value = holder_seminorm(cos_x1(g), 1.0)
        assert value == pytest.approx(1.0, abs=1e-3)
        assert value >= 0.999

    def test_half_exponent_interior_max(self):
        # continuum maximizer solves tan(h/2) = h; value 2 sin(h/2)/sqrt(h)
        from scipy.optimize import brentq

        hstar = brentq(lambda h: np.tan(h / 2) - h, 2.0, 3.0)
        expected = 2 * np.sin(hstar / 2) / np.sqrt(hstar)
        g = TorusGrid(2, 128)
        assert holder_seminorm(cos_x1(g), 0.5) == pytest.approx(expected, abs=5e-3)
        h = (np.asarray(table_argmax(cos_x1(g), 0.5)) * g.spacing + np.pi) % (2 * np.pi) - np.pi
        assert abs(np.hypot(*h) - hstar) < 0.1

    def test_matches_bruteforce_oracle(self):
        # independent dense double loop on a small grid
        g = TorusGrid(2, 16)
        f = random_field(g, 4, 13)
        v = f.values()
        alpha = 0.37
        best = 0.0
        n = g.n
        for s1 in range(n):
            for s2 in range(n):
                if s1 == 0 and s2 == 0:
                    continue
                h1 = (s1 * g.spacing + np.pi) % (2 * np.pi) - np.pi
                h2 = (s2 * g.spacing + np.pi) % (2 * np.pi) - np.pi
                diff = np.abs(np.roll(v, (-s1, -s2), axis=(0, 1)) - v).max()
                best = max(best, diff / np.hypot(h1, h2) ** alpha)
        assert holder_seminorm(f, alpha) == pytest.approx(best, rel=1e-12)


def serial_holder_scan(field, alpha):
    """Brute-force oracle ``(value, shift)``: one np.roll per shift, strict ``>`` in serial order."""
    grid = field.grid
    shifts = [s for s in np.ndindex(*grid.shape) if any(s)]
    v = field.values()
    best = (-1.0, None)
    for idx in shifts:
        h = (np.asarray(idx, dtype=np.float64) * grid.spacing + np.pi) % (2.0 * np.pi) - np.pi
        hnorm = float(np.linalg.norm(h))
        rolled = np.roll(v, tuple(-c for c in idx), axis=tuple(range(grid.dim)))
        ratio = float(np.abs(rolled - v).max()) / hnorm**alpha
        if ratio > best[0]:
            best = (ratio, idx)
    return best


def table_argmax(field, alpha):
    """The first row-major maximizing shift of the private ratio table, as grid indices."""
    k = int(np.argmax(_holder_ratios(field, alpha)))
    return tuple(int(c) for c in np.unravel_index(k + 1, field.grid.shape))


def holder_corpus_alpha0():
    from critsqg.config import build_setup, preset_sections
    from critsqg.diagnostics import holder_budget, load_constants

    setup = build_setup(preset_sections("holder-corpus"))
    alpha0, _ = holder_budget(lp_norm(setup.initial, np.inf), setup.force.linf,
                              setup.solver.kappa, load_constants())
    return setup.initial, alpha0


def _spike(X, Y):
    v = np.zeros_like(X)
    v[3, 1] = 1.0
    return v


# raw values; as fields they are demeaned, so the constant field becomes the zero field
ADVERSARIAL = {
    "zero": lambda X, Y: np.zeros_like(X),
    "constant": lambda X, Y: np.full_like(X, 2.5),
    "x1 only": lambda X, Y: np.cos(X) + 0.3 * np.sin(2 * X),
    "cos x1 + cos x2": lambda X, Y: np.cos(X) + np.cos(Y),
    "single-point spike": _spike,
    # at n = 32, |h|^alpha of shift (n-1, 0) rounds below that of (1, 0), so
    # the raw maximum sits on a mirrored row and is found only through its mirror
    "single-row line": lambda X, Y: np.where(X == X[0, 0], 1.0, 0.0),
}


class TestHolderScanExactness:
    """The vectorized scan equals the serial per-shift scan bit for bit, value and first argmax."""

    @staticmethod
    def assert_identical(field, alpha):
        want = serial_holder_scan(field, alpha)
        assert (holder_seminorm(field, alpha), table_argmax(field, alpha)) == want

    @pytest.fixture(scope="class")
    def alphas(self):
        _, alpha0 = holder_corpus_alpha0()
        assert 0.15 < alpha0 < 0.2
        return (alpha0, 0.25, 0.37, 0.5, 1.0)

    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_2d_grids(self, n, alphas):
        f = random_field(TorusGrid(2, n), n // 4, n)
        for alpha in alphas:
            self.assert_identical(f, alpha)

    def test_1d_grid(self, alphas):
        g = TorusGrid(1, 256)
        for f in (cos_x1(g), random_field(g, 40, 3)):
            for alpha in alphas:
                self.assert_identical(f, alpha)

    def test_holder_corpus_initial_field(self, alphas):
        theta0, _ = holder_corpus_alpha0()
        for alpha in alphas:
            self.assert_identical(theta0, alpha)

    def test_kernel_corpus_fields(self, alphas):
        import os

        import critsqg

        path = os.path.join(os.path.dirname(critsqg.__file__), "data", "kernel_corpus.csv")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:2]
        for seed, band, norm, n in rows:
            f = random_field(TorusGrid(2, int(n)), int(band), int(seed), amplitude=norm)
            assert f.grid.n == 64
            for alpha in alphas:
                self.assert_identical(f, alpha)

    @pytest.mark.parametrize("n", [16, 32])
    def test_ties_take_the_first_shift(self, n):
        # cos x1 + cos x2 is symmetric under swapping the axes and under h -> -h;
        # at n = 16, alpha = 0.25 the maximum sits on the middle row shift n/2
        g = TorusGrid(2, n)
        X, Y = meshes(g)
        f = SpectralField.from_values(g, np.cos(X) + np.cos(Y))
        for alpha in (0.25, 0.5, 1.0):
            self.assert_identical(f, alpha)
        self.assert_identical(SpectralField.zeros(g), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from(range(8, 33, 2)), alpha=st.floats(0.0, 1.0, exclude_min=True),
           band=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), scale=st.floats(-6.0, 6.0))
    def test_random_band_fields(self, n, alpha, band, seed, scale):
        # grids start at n = 8, the smallest TorusGrid
        f = random_field(TorusGrid(2, n), band, seed, amplitude=10.0**scale)
        self.assert_identical(f, alpha)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("n", [8, 14, 32])
    def test_adversarial_fields(self, name, n):
        g = TorusGrid(2, n)
        f = SpectralField.from_values(g, ADVERSARIAL[name](*meshes(g)), demean=True)
        for alpha in (0.09, 0.25, 0.5, 1.0):
            self.assert_identical(f, alpha)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # building the inf field warns
    def test_non_finite_values_raise(self, grid32):
        vals = random_field(grid32, 4, 1).values()
        vals[3, 5] = np.nan
        with pytest.raises(ValueError):
            holder_seminorm(SpectralField.from_values(grid32, vals), 0.5)
        inf = SpectralField.from_coeffs(grid32, np.full(grid32.shape, np.inf, dtype=complex))
        with pytest.raises(ValueError):
            holder_seminorm(inf, 0.5)


class TestHolderScanBounds:
    """The pruning rests on two inequalities; both hold in floating point, with no tolerance."""

    @staticmethod
    def assert_bounds(v, alpha):
        n = v.shape[0]
        dmax = np.array([[np.abs(np.roll(v, (-i, -j), axis=(0, 1)) - v).max() for j in range(n)]
                         for i in range(n)])
        assert (dmax <= _increment_bound(v)).all()
        if n >= 8:
            hpow = _all_shift_powers(TorusGrid(2, n), alpha)
            ratio = dmax.ravel()[1:] / hpow
            assert _attained_quotient(v, hpow) <= ratio.max()
            # and the pruned table keeps the serial maximum and its first argmax
            pruned = _increment_maxima(v, hpow).ravel()[1:] / hpow
            assert (pruned.max(), np.argmax(pruned)) == (ratio.max(), np.argmax(ratio))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(range(4, 33, 2)), alpha=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(-6.0, 6.0), smooth=st.booleans())
    def test_random_fields(self, n, alpha, seed, scale, smooth):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, n))
        if smooth:
            v = np.cumsum(np.cumsum(v, axis=0), axis=1)
        self.assert_bounds(v * 10.0**scale, alpha)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("n", [4, 8, 14, 32])
    def test_adversarial_fields(self, name, n):
        X, Y = np.meshgrid(np.linspace(-np.pi, np.pi, n, endpoint=False),
                           np.linspace(-np.pi, np.pi, n, endpoint=False), indexing="ij")
        for alpha in (0.09, 0.5, 1.0):
            self.assert_bounds(ADVERSARIAL[name](X, Y), alpha)


class TestOperations:
    def test_shift_exactness(self, grid64):
        f = cos_x1(grid64)
        X, _ = meshes(grid64)
        moved = shift(f, (np.pi / 3, 0.0))
        assert np.abs(moved.values() - np.cos(X + np.pi / 3)).max() < 1e-12

    def test_gradient(self, grid64):
        X, _ = meshes(grid64)
        f = SpectralField.from_values(grid64, np.sin(X))
        gx, gy = gradient(f)
        assert np.abs(gx.values() - np.cos(X)).max() < 1e-12
        assert np.abs(gy.values()).max() < 1e-14

    def test_dealias_idempotent_and_band(self, grid64):
        f = random_field(grid64, 30, 5)
        d = SpectralField._trusted(grid64, f.coeffs * grid64.dealias_mask)
        assert d.band() <= (grid64.n - 1) // 3
        assert np.array_equal(d.coeffs * grid64.dealias_mask, d.coeffs)

    def test_mean_zero_preserved_by_everything(self, grid64):
        f = random_field(grid64, 8, 6)
        zero_idx = (0, 0)
        for out in [
            fractional_laplacian(f, 0.8),
            *riesz_perp(f),
            *gradient(f),
            shift(f, (0.3, -0.9)),
            f + f,
            2.5 * f,
        ]:
            assert out.coeffs[zero_idx] == 0.0

    def test_resample_roundtrip(self, grid32):
        f = random_field(grid32, 6, 9)
        up = resample(f, 64)
        down = resample(up, 32)
        assert np.abs(down.coeffs - f.coeffs).max() < 1e-14
        assert sobolev_norm(up, 1.0) == pytest.approx(sobolev_norm(f, 1.0), rel=1e-13)
        # below the band, truncating would drop modes silently; 2 * band + 2 keeps them all
        g = random_field(grid32, 12, 9)
        assert g.band() == 12
        with pytest.raises(ValueError, match="cannot represent band 12"):
            resample(g, 16)
        assert np.abs(resample(resample(g, 26), 32).coeffs - g.coeffs).max() < 1e-14

    def test_inner_h1_mode_orthogonality(self, grid64):
        X, Y = meshes(grid64)
        a = SpectralField.from_values(grid64, np.cos(X))
        b = SpectralField.from_values(grid64, np.sin(Y))
        assert abs(inner_h1(a, b)) < 1e-14
        assert inner_h1(a, a) == pytest.approx(sobolev_norm(a, 1.0) ** 2, rel=1e-13)


def _mirror(grid, c):
    """``c[-k]`` for every ``k``."""
    rev = c[(slice(None, None, -1),) * grid.dim]
    return np.roll(rev, 1, axis=tuple(range(grid.dim)))


def _operators(grid):
    from critsqg.solver import SolverConfig, _transport_values, burgers_nonlinear_term, nonlinear_term
    from critsqg.spectral import _product_coeffs

    ops = {
        "fractional_laplacian": lambda f, r: fractional_laplacian(f, -2.0 + 5.0 * r),
        "gradient": lambda f, r: gradient(f)[0],
        "shift": lambda f, r: shift(f, (7.0 * r - 3.0,) * grid.dim),
        "resample": lambda f, r: resample(f, 2 * grid.n),
        "combination": lambda f, r: (r * f - 2.0 * f) + f,
        "product": lambda f, r: SpectralField._trusted(grid, _product_coeffs(grid, f.values() ** 3)),
        "step": lambda f, r: step(f, SolverConfig(kappa=1.0, dt=1e-3 + r * 1e-2, t_end=1.0),
                                  2.0 * f),
    }
    if grid.dim == 2:
        ops["riesz_perp"] = lambda f, r: riesz_perp(f)[1]
        ops["nonlinear_term"] = lambda f, r: SpectralField._trusted(
            grid, nonlinear_term(grid, _transport_values(grid, f.coeffs[None]))[0])
    else:
        ops["burgers_nonlinear_term"] = lambda f, r: burgers_nonlinear_term(f)
    return ops


class TestInvariantProperty:
    @settings(max_examples=150, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n=st.sampled_from([8, 16, 32]),
           seed=st.integers(0, 2**32 - 1), r=st.floats(0.0, 1.0),
           op=st.sampled_from(["fractional_laplacian", "gradient", "shift",
                               "resample", "combination", "product", "step",
                               "riesz_perp", "nonlinear_term", "burgers_nonlinear_term"]),
           via_values=st.booleans())
    def test_operators_keep_fields_representable(self, dim, n, seed, r, op, via_values):
        # mean-free, Nyquist-free (both exactly) and Hermitian (real values) to roundoff
        grid = TorusGrid(dim, n)
        ops = _operators(grid)
        assume(op in ops)
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        if via_values:
            f = SpectralField.from_values(grid, raw.real, demean=True)
        else:
            f = SpectralField.from_coeffs(grid, raw)
        out = ops[op](f, r)
        c = out.coeffs
        assert c[(0,) * out.grid.dim] == 0.0
        assert np.all(c[out.grid.nyquist_mask] == 0.0)
        scale = max(np.abs(c).max(), 1e-300)
        assert np.abs(c - np.conj(_mirror(out.grid, c))).max() <= 1e-13 * scale


# Per-dimension reference copies of the grid masks, band and resampling, as
# they were written before those operations became one expression over the axes.
def _ref_frozen(a):
    a.setflags(write=False)
    return a


def _ref_kvecs(grid):
    k = grid.wavenumbers.astype(np.float64)
    if grid.dim == 1:
        return (_ref_frozen(k),)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return (_ref_frozen(kx), _ref_frozen(ky))


def _ref_nyquist_mask(grid):
    ny = grid.wavenumbers == -grid.n // 2
    if grid.dim == 1:
        return _ref_frozen(ny)
    mx, my = np.meshgrid(ny, ny, indexing="ij")
    return _ref_frozen(mx | my)


def _ref_dealias_mask(grid):
    keep = np.abs(grid.wavenumbers) <= (grid.n - 1) // 3
    if grid.dim == 1:
        return _ref_frozen(keep)
    mx, my = np.meshgrid(keep, keep, indexing="ij")
    return _ref_frozen(mx & my)


def _ref_band(field):
    mag = np.abs(field.coeffs)
    top = mag.max()
    if top == 0.0:
        return 0
    active = mag > 1e-14 * top
    k = np.abs(field.grid.wavenumbers)
    if field.grid.dim == 1:
        return int(k[active].max())
    return int(max(k[active.any(axis=1)].max(), k[active.any(axis=0)].max()))


def _ref_resample(field, m):
    grid = field.grid
    if m == grid.n:
        return field
    target = TorusGrid(grid.dim, m)
    c = np.zeros(target.shape, dtype=np.complex128)
    k = grid.wavenumbers
    keep = np.abs(k) < min(grid.n, m) // 2
    if grid.dim == 1:
        c[k[keep]] = field.coeffs[keep]
    else:
        kx = k[keep][:, None].repeat(int(keep.sum()), axis=1)
        ky = k[keep][None, :].repeat(int(keep.sum()), axis=0)
        c[kx, ky] = field.coeffs[np.ix_(keep, keep)]
    return SpectralField.from_coeffs(target, c)


def _assert_same_array(got, ref):
    assert np.array_equal(got, ref)
    assert (got.dtype, got.strides, got.flags.writeable) == (ref.dtype, ref.strides, ref.flags.writeable)


class TestGridOracle:
    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n=st.integers(4, 32).map(lambda h: 2 * h),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_per_dimension_reference(self, dim, n, seed, data):
        grid, ref_grid = TorusGrid(dim, n), TorusGrid(dim, n)
        assert len(grid.kvecs) == dim
        for got, ref in zip(grid.kvecs, _ref_kvecs(ref_grid)):
            _assert_same_array(got, ref)
        _assert_same_array(grid.nyquist_mask, _ref_nyquist_mask(ref_grid))
        _assert_same_array(grid.dealias_mask, _ref_dealias_mask(ref_grid))
        # a sparse random field inside the box |k_i| <= band, so the band may
        # be reached along one axis only
        band = data.draw(st.integers(1, n // 2 - 1), label="band")
        rng = np.random.default_rng(seed)
        raw = (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)) * (
            rng.random(grid.shape) < 0.2)
        raw[np.abs(np.stack(grid.kvecs)).max(axis=0) > band] = 0.0
        f = SpectralField.from_coeffs(grid, raw)
        assert f.band() == _ref_band(f)
        m = data.draw(st.integers(max(f.band() + 1, 4), 48).map(lambda h: 2 * h), label="m")
        got, ref = resample(f, m), _ref_resample(f, m)
        assert got.grid == ref.grid
        _assert_same_array(got.coeffs, ref.coeffs)


_GRID_ARRAYS = ("coords", "wavenumbers", "kvecs", "kmag", "nyquist_mask", "dealias_mask",
                "gradient_symbols")
_GRID_ARRAYS_2D = ("riesz_symbols", "transport_symbols")


def _grid_arrays(grid):
    """Every per-resolution array of ``grid``, the ``kvecs`` tuple spread out."""
    names = _GRID_ARRAYS + (_GRID_ARRAYS_2D if grid.dim == 2 else ())
    out = []
    for name in names:
        got = getattr(grid, name)
        out.extend(got if isinstance(got, tuple) else (got,))
    return out


class TestGridCache:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_grids_share_read_only_arrays(self, dim):
        a, b = TorusGrid(dim, 48), TorusGrid(dim, 48)
        assert a is not b and a == b and hash(a) == hash(b)
        for x, y in zip(_grid_arrays(a), _grid_arrays(b), strict=True):
            assert x is y
            assert not x.flags.writeable

    def test_other_spellings_of_the_resolution_share_without_changing_fields(self):
        ref = TorusGrid(2, 64)
        for grid in (TorusGrid(2, np.int64(64)), TorusGrid(2.0, 64)):
            assert grid == ref and hash(grid) == hash(ref)
            assert all(x is y for x, y in zip(_grid_arrays(grid), _grid_arrays(ref), strict=True))
        assert repr(ref) == "TorusGrid(dim=2, n=64)"
        assert type(ref.dim) is int and type(ref.n) is int
        assert type(TorusGrid(2, np.int64(64)).n) is np.int64

    def test_corpus_rows_share_the_arrays_of_their_grid(self):
        from critsqg.config import default_corpus_path, read_corpus

        fields = [phi for _name, phi in read_corpus(default_corpus_path())[0]]
        assert len(fields) > 1
        ref = _grid_arrays(TorusGrid(2, fields[0].grid.n))
        for phi in fields:
            assert all(x is y for x, y in zip(_grid_arrays(phi.grid), ref, strict=True))

    def test_resample_reuses_the_target_arrays(self, grid64):
        f = random_field(grid64, 6, seed=3)
        up, again = resample(f, 128), resample(f, 128)
        assert up.grid is not again.grid
        assert up.grid.kmag is again.grid.kmag is TorusGrid(2, 128).kmag
        assert up.grid.nyquist_mask is TorusGrid(2, 128).nyquist_mask

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [8, 10, 32, 64])
    def test_values_match_per_dimension_reference(self, dim, n):
        grid = TorusGrid(dim, n)
        for got, ref in zip(grid.kvecs, _ref_kvecs(TorusGrid(dim, n)), strict=True):
            _assert_same_array(got, ref)
        _assert_same_array(grid.nyquist_mask, _ref_nyquist_mask(grid))
        _assert_same_array(grid.dealias_mask, _ref_dealias_mask(grid))
        for array in _grid_arrays(grid):
            assert not array.flags.writeable


class TestKmagPowers:
    """The cached ``|k|`` powers equal the per-call expressions they replace."""

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (2, 64)])
    def test_equal_to_per_call_expressions(self, dim, n):
        kmag = TorusGrid(dim, n).kmag
        nz = kmag > 0
        assert np.array_equal(_kmag_power(dim, n, 2.0), kmag ** 2)  # _h1_pair
        for s in (-1.5, 0.5, 1.0, 1.5, 2.0, 3.0):  # fractional_laplacian
            sym = np.zeros_like(kmag)
            sym[nz] = kmag[nz] ** s
            assert np.array_equal(_kmag_power(dim, n, s), sym)
        for s in (0.5, 1.0, 1.5, 2.0):  # sobolev_norm
            assert np.array_equal(_kmag_power(dim, n, 2.0 * s)[nz], kmag[nz] ** (2.0 * s))

    def test_built_once_per_key_and_read_only(self):
        a = _kmag_power(*TorusGrid(2, 32)._resolution, 1.5)
        assert a is _kmag_power(*TorusGrid(2, np.int64(32))._resolution, 1.5)
        assert a is not _kmag_power(2, 32, 0.5)
        assert not a.flags.writeable
