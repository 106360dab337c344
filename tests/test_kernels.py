"""Kernel constants, dissipation quadrature, and the pointwise/Poincare checks."""

import functools

import numpy as np
import pytest
from scipy.special import gamma

from critsqg import kernels
from critsqg.kernels import (
    LP_POINCARE_CONSTANT,
    c_alpha,
    dissipation_field,
    lp_poincare_check,
    nonlinear_lower_bound_check,
    pointwise_identity_residual,
    spectral_identity_rhs,
)
from critsqg.config import default_corpus_path, read_corpus
from critsqg.spectral import SpectralField, TorusGrid, _collocation, _forward, gradient
from critsqg.solver import random_band_field

from conftest import cos_x1, meshes


class TestCAlpha:
    def test_alpha_one_is_inverse_two_pi(self):
        assert c_alpha(1.0) == pytest.approx(1.0 / (2 * np.pi), rel=1e-14)

    def test_gamma_oracle(self):
        # 2 * Gamma(3/2) / (|Gamma(-1/2)| * pi) with Gamma(3/2) = sqrt(pi)/2,
        # |Gamma(-1/2)| = 2 sqrt(pi)
        expected = 2.0 * (np.sqrt(np.pi) / 2) / (2 * np.sqrt(np.pi) * np.pi)
        assert c_alpha(1.0) == pytest.approx(expected, rel=1e-14)
        for a in (0.3, 0.8, 1.4, 1.9):
            expected = 2**a * gamma(1 + a / 2) / (abs(gamma(-a / 2)) * np.pi)
            assert c_alpha(a) == pytest.approx(expected, rel=1e-13)

    def test_vanishing_limits(self):
        assert c_alpha(1e-6) < 1e-5
        assert c_alpha(2 - 1e-6) < 1e-5

    def test_domain(self):
        for bad in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                c_alpha(bad)


class TestDissipation:
    def test_cosine_is_one_everywhere(self, grid64):
        D = dissipation_field(cos_x1(grid64), 1.0)
        assert np.abs(D - 1.0).max() < 1e-3

    def test_zero_field(self, grid64):
        D = dissipation_field(SpectralField.zeros(grid64), 1.0)
        assert np.abs(D).max() == 0.0

    def test_nonnegative_on_random_fields(self, grid64):
        for seed in range(4):
            phi = random_band_field(grid64, 8, 1.0, seed)
            for a in (0.5, 1.0, 1.5):
                D = dissipation_field(phi, a)
                assert D.min() > -1e-10

    def test_two_mode_cross_check_at_origin(self, grid64):
        X, Y = meshes(grid64)
        phi = SpectralField.from_values(grid64, np.cos(X) + np.cos(Y))
        rhs = spectral_identity_rhs(phi, 1.0)
        val = dissipation_field(phi, 1.0)[0, 0]
        assert val == pytest.approx(rhs[0, 0], abs=1e-3 * max(abs(rhs[0, 0]), 1.0))

    def test_scaling_relation(self):
        # D_a[phi(2.)](x) = 2^a D_a[phi](2x) for the whole-space functional
        g = TorusGrid(2, 64)
        x = g.coords
        X, Y = np.meshgrid(x, x, indexing="ij")
        rng = np.random.default_rng(5)
        modes = [(1, 0, 0.7), (0, 1, -0.4), (1, 1, 0.3), (2, 1, 0.2)]
        vals = sum(a * np.cos(kx * X + ky * Y + rng.uniform(0, 2 * np.pi)) for kx, ky, a in modes)
        phi = SpectralField.from_values(g, vals, demean=True)
        lam = 2
        squeezed = SpectralField.from_values(g, _squeeze(phi, lam), demean=True)
        for a in (0.5, 1.0):
            D_sq = dissipation_field(squeezed, a)
            D = dissipation_field(phi, a)
            # compare at collocation points x with 2x on the grid: index doubling
            n = g.n
            idx = np.arange(n)
            D_at_2x = D[np.ix_((2 * idx) % n, (2 * idx) % n)]
            rel = np.abs(D_sq - lam**a * D_at_2x).max() / np.abs(D).max()
            assert rel < 0.05

    def test_resolution_guard(self):
        g = TorusGrid(2, 32)
        phi = random_band_field(g, 12, 1.0, 1)
        with pytest.raises(ValueError):
            dissipation_field(phi, 1.0)

    @pytest.mark.parametrize("band, n", [(16, 64), (8, 32)])
    def test_resolution_guard_is_strict(self, band, n):
        # 2*band = n/2 puts the square on the Nyquist mode
        phi = random_band_field(TorusGrid(2, n), band, 1.0, 1)
        with pytest.raises(ValueError, match=r"2\*band < "):
            dissipation_field(phi, 1.0)
        with pytest.raises(ValueError):
            spectral_identity_rhs(phi, 1.0)


def _full_nodes(alpha, kmax, radius):
    """Every annulus node, the whole angle set of each ring, with its weight."""
    ca = c_alpha(alpha)
    ys1, ys2, ws = [], [], []
    for r, wr, npsi in kernels._rings(kmax, radius):
        psi = 2.0 * np.pi * np.arange(npsi) / npsi
        ys1.append(np.outer(r, np.cos(psi)).ravel())
        ys2.append(np.outer(r, np.sin(psi)).ravel())
        ws.append(np.repeat(wr * ca * r ** (-1.0 - alpha) * (2.0 * np.pi / npsi), npsi))
    return np.concatenate(ys1), np.concatenate(ys2), np.concatenate(ws)


@functools.lru_cache(maxsize=None)
def _full_grid_symbol(alpha, kmax, n, radius):
    """Brute-force oracle: ``sum_q w_q exp(i k . y_q)`` over all nodes on all n x n wavenumbers."""
    y1, y2, w = _full_nodes(alpha, kmax, radius)
    k = np.fft.fftfreq(n) * n
    S = np.zeros((n, n), dtype=np.complex128)
    chunk = max(1, 40_000_000 // (16 * n))
    for lo in range(0, len(w), chunk):
        hi = lo + chunk
        E1 = np.exp(1j * np.outer(y1[lo:hi], k))
        E2 = np.exp(1j * np.outer(y2[lo:hi], k))
        S += (E1 * w[lo:hi, None]).T @ E2
    return S


def _one_node_last_chunk_radius(grid, kmax):
    """A radius whose half-node count leaves exactly one node in the last chunk of the symbol sum."""
    chunk = kernels._node_chunk(kmax)
    for t in np.arange(0.30, 0.33, 0.0005):
        radius = t * grid.spacing
        if len(kernels._half_nodes(1.0, kmax, radius)[2]) % chunk == 1:
            return radius  # 56,981 nodes in chunks of 5,698 at kmax 22, t = 0.3145
    raise AssertionError(f"no radius in [0.30 h, 0.33 h) leaves one node in the last chunk at kmax {kmax}")


class TestBandLimitedSymbol:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("band, make_radius", [
        (6, kernels._pv_radius), (8, kernels._pv_radius),
        (12, kernels._pv_radius),  # kmax = 24 > n/4: the disc shrinks to pi/96
        (11, _one_node_last_chunk_radius),
    ], ids=["6", "8", "12", "11-one-node-last-chunk"])
    def test_matches_full_grid_oracle(self, grid64, alpha, band, make_radius):
        kmax = 2 * band
        radius = make_radius(grid64, kmax)
        S = kernels._translation_symbol(alpha, kmax, 64, radius)
        oracle = _full_grid_symbol(alpha, kmax, 64, radius)
        k = np.abs(np.fft.fftfreq(64) * 64)
        inband = (k[:, None] <= kmax) & (k[None, :] <= kmax)
        assert np.abs(S - oracle)[inband].max() <= 1e-13 * np.abs(oracle).max()
        assert not S[~inband].any()
        mirror = (-np.arange(64)) % 64
        assert np.array_equal(S[:, mirror], S)
        assert np.array_equal(S[np.ix_(mirror, mirror)], np.conj(S))

    def test_symbol_cache_is_exact_in_alpha(self, grid64, monkeypatch):
        # an alpha 1e-13 off a cached one builds its own weights, so the result
        # does not depend on which alpha was evaluated first
        phi = random_band_field(grid64, 4, 1.0, 5)
        monkeypatch.setattr(kernels, "_symbol_cache", {})
        alone = dissipation_field(phi, 1.0 + 1e-13)
        monkeypatch.setattr(kernels, "_symbol_cache", {})
        dissipation_field(phi, 1.0)
        after = dissipation_field(phi, 1.0 + 1e-13)
        assert np.array_equal(alone, after)
        assert len(kernels._symbol_cache) == 2

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("band", [6, 8])
    def test_dissipation_matches_oracle_route(self, grid64, monkeypatch, alpha, band):
        phi = random_band_field(grid64, band, 1.0, 11)
        D = dissipation_field(phi, alpha)
        monkeypatch.setattr(kernels, "_translation_symbol", _full_grid_symbol)
        D_oracle = dissipation_field(phi, alpha)
        assert np.abs(D - D_oracle).max() <= 1e-12 * np.abs(D_oracle).max()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("band", [6, 8])
    def test_packed_transforms_match_one_per_field(self, grid64, alpha, band):
        phi = random_band_field(grid64, band, 1.0, 11)
        D = dissipation_field(phi, alpha)
        D_unpacked = _unpacked_dissipation(phi, alpha)
        assert np.abs(D - D_unpacked).max() <= 1e-14 * np.abs(D_unpacked).max()


def _unpacked_dissipation(field, alpha):
    """``dissipation_field`` with one inverse transform per real field (the reference route)."""
    grid = field.grid
    kmax = max(1, 2 * field.band())
    delta = kernels._pv_radius(grid, kmax)
    ca = c_alpha(alpha)
    S = kernels._translation_symbol(alpha, kmax, grid.n, delta)
    v = field.values()
    v2 = v * v
    conv_v = _collocation(grid, field.coeffs * S)
    conv_v2 = _collocation(grid, _forward(grid, v2) * S)
    gx, gy = gradient(field)
    grad2 = gx.values() ** 2 + gy.values() ** 2
    inner = ca * np.pi * delta ** (2.0 - alpha) / (2.0 - alpha) * grad2
    tail = ca * 2.0 * np.pi / (alpha * kernels.OUTER_RADIUS**alpha) * (v2 + np.mean(v2))
    return float(S[0, 0].real) * v2 - 2.0 * v * conv_v + conv_v2 + inner + tail


def _squeeze(phi, lam):
    """Values of x -> phi(lam * x) on the same grid (lam integer)."""
    n = phi.grid.n
    idx = (lam * np.arange(n)) % n
    return phi.values()[np.ix_(idx, idx)]


class TestPointwiseIdentity:
    def test_cosine_residual_everywhere(self, grid64):
        resid = pointwise_identity_residual(cos_x1(grid64), 1.0)
        assert resid.max() < 1e-3

    def test_zero_field_exact(self, grid64):
        resid = pointwise_identity_residual(SpectralField.zeros(grid64), 1.0)
        assert resid.max() == 0.0

    def test_corpus_mean_residual(self, grid64):
        for seed in (0, 7, 19):
            phi = random_band_field(grid64, 8, 1.0, seed)
            linf_sq = np.abs(phi.values()).max() ** 2
            for a in (0.5, 1.0, 1.5):
                resid = pointwise_identity_residual(phi, a)
                assert resid.mean() <= 1e-2 * linf_sq

    def test_band_12_resolved_by_pv_radius(self, grid64):
        # kmax = 24 > n/4: the disc shrinks to pi/(4 kmax) = h/3
        assert kernels._pv_radius(grid64, 24) == np.pi / 96
        phi = random_band_field(grid64, 12, 1.0, 0)
        resid = pointwise_identity_residual(phi, 1.5)
        assert resid.mean() <= 1e-2 * np.abs(phi.values()).max() ** 2


class TestLpPoincare:
    def test_pinned_critical_constant(self):
        assert LP_POINCARE_CONSTANT == 2**9 * np.pi**2

    def test_zero_field(self, grid64):
        lhs, (r1, r2) = lp_poincare_check(SpectralField.zeros(grid64), 4)
        assert lhs == 0.0 and r1 == 0.0 and r2 == 0.0

    def test_cosine_with_slack(self, grid64):
        lhs, (r1, r2) = lp_poincare_check(cos_x1(grid64), 4)
        assert lhs >= r1 + r2
        assert lhs > (r1 + r2) * 1.05  # strict slack

    @pytest.mark.parametrize("p", [4, 8])
    def test_random_corpus(self, grid64, p):
        for seed in (1, 5, 9):
            phi = random_band_field(grid64, 8, 1.0, seed)
            lhs, (r1, r2) = lp_poincare_check(phi, p)
            assert lhs >= r1 + r2

    @pytest.mark.parametrize("p", [4, 8])
    def test_product_powers_match_pow(self, monkeypatch, p):
        fields, _ = read_corpus(default_corpus_path())
        products = [lp_poincare_check(phi, p) for _, phi in fields]
        monkeypatch.setattr(kernels, "_int_power", lambda v, e: v**e)
        for (lhs, (r1, r2)), (_, phi) in zip(products, fields):
            lhs_pow, (r1_pow, r2_pow) = lp_poincare_check(phi, p)
            assert lhs == pytest.approx(lhs_pow, rel=1e-14, abs=0.0)
            assert r1 == pytest.approx(r1_pow, rel=1e-14, abs=0.0)
            assert r2 == pytest.approx(r2_pow, rel=1e-14, abs=0.0)

    def test_bad_p(self, grid64):
        with pytest.raises(ValueError):
            lp_poincare_check(cos_x1(grid64), 6)

    def test_lhs_quadrature_is_alias_free(self, grid64):
        # oracle: for theta = cos(x1), int theta^{p-1} Lambda theta = int cos^p
        # = 2*pi * 2*pi * binom(p, p/2)/2^p
        from math import comb

        p = 8
        lhs, _ = lp_poincare_check(cos_x1(grid64), p)
        exact = (2 * np.pi) ** 2 * comb(p, p // 2) / 2**p
        assert lhs == pytest.approx(exact, rel=1e-12)


class TestNonlinearLowerBound:
    def test_cosine_with_spec_shift(self, grid64):
        from critsqg.diagnostics import load_constants

        c2 = load_constants().c2
        rep = nonlinear_lower_bound_check(cos_x1(grid64), (np.pi / 8, 0.0), c2)
        assert not rep.empty
        assert rep.min_ratio >= 1.0

    def test_degenerate_shift_field(self, grid64):
        # delta_h theta vanishes identically when h is a full period of the mode
        phi = cos_x1(grid64)
        rep = nonlinear_lower_bound_check(phi, (2 * np.pi, 0.0), c2=1.0)
        assert rep.empty
        assert rep.min_ratio == np.inf

    def test_zero_shift_rejected(self, grid64):
        with pytest.raises(ValueError):
            nonlinear_lower_bound_check(cos_x1(grid64), (0.0, 0.0), c2=1.0)

    def test_ratio_definition(self, grid64):
        # r(x) = D * c2 * ||theta||_inf * |h| / |delta_h theta|^3 doubles with c2
        phi = random_band_field(grid64, 6, 1.0, 4)
        r1 = nonlinear_lower_bound_check(phi, (np.pi / 4, 0.0), c2=1.0)
        r2 = nonlinear_lower_bound_check(phi, (np.pi / 4, 0.0), c2=2.0)
        m = r1.valid_mask
        assert np.allclose(r2.ratios[m], 2 * r1.ratios[m], rtol=1e-12)
