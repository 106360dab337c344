"""Real-space kernel form of the fractional Laplacian and its dissipation density.

The operator ``Lambda^alpha`` on the 2-torus has, next to its Fourier-multiplier
definition, a singular-integral form with a periodic kernel

    K_alpha(y) = c_alpha * sum_{k in Z^2} |y - 2*pi*k|^{-(2+alpha)},
    c_alpha    = 2^alpha * Gamma(1 + alpha/2) / (|Gamma(-alpha/2)| * pi).

This module evaluates the associated nonnegative dissipation density

    D_alpha[phi](x) = P.V. int_{R^2} (phi(x) - phi(x+y))^2 c_alpha |y|^{-(2+alpha)} dy

by quadrature of the whole-space form with the periodic extension of ``phi``:

* inside a small principal-value disc the integrand is replaced by its
  second-order Taylor model, which removes the singularity analytically and
  integrates to ``c_alpha * pi * delta^{2-alpha}/(2-alpha) * |grad phi|^2``;
* an annulus ``delta <= |y| <= R`` (``R = OUTER_RADIUS = 8*pi``) is covered
  with panelled Gauss-Legendre (radial) x trapezoid (angular) nodes whose
  density scales with the field bandwidth (Nyquist counting for
  ``exp(i k . y)``);
* beyond ``R`` the oscillating part of the periodic extension averages out
  and the tail is added analytically:
  ``c_alpha * 2*pi/(alpha R^alpha) * (phi(x)^2 + mean(phi^2))``.

Because the annulus part is a plain node/weight sum of translates, evaluating
it at every collocation point simultaneously reduces to convolutions with a
precomputed translation symbol ``S(k) = sum_q w_q exp(i k . y_q)``; ``phi*S``
and ``phi^2*S`` are both real, so they share one inverse transform, as do the
two gradient components.  The node set is mirror-symmetric in ``y2``, so the
symbol is summed over the half ``y2 >= 0`` with real ``cos(k2 y2)`` phases.
Its phases are built as powers of one ``exp(i y)`` per node and direction (two
complex exponentials per node, not one per node and wavenumber), a chunk of
nodes at a time: each chunk's work arrays are ~256 KiB, so a symbol build runs
in cache and adds little to the peak memory (see :func:`_node_chunk`).  The rings
of the annulus (radii, radial weights, angle counts) are built once per
(kmax, radius), and the symbol is cached per exact (alpha, kmax, n, radius),
``radius`` that of the principal-value disc.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (
    SpectralField,
    _forward,
    _packed_values,
    fractional_laplacian,
    gradient,
    lp_norm,
    resample,
    shift,
)

__all__ = [
    "c_alpha",
    "OUTER_RADIUS",
    "dissipation_field",
    "spectral_identity_rhs",
    "pointwise_identity_residual",
    "LP_POINCARE_CONSTANT",
    "lp_poincare_check",
    "nonlinear_lower_bound_check",
    "LowerBoundReport",
    "KERNEL_SHIFTS", "kernel_checks",
]


OUTER_RADIUS = 8.0 * np.pi  # switch-over from the annulus quadrature to the analytic tail

# the constant C_{1,2} of the L^p lower bound in the critical two-dimensional case
LP_POINCARE_CONSTANT = float(2**9 * np.pi**2)

# the shifts h of the cubic lower bound on D[delta_h theta]
KERNEL_SHIFTS = [
    (np.pi / 8, 0.0), (0.0, np.pi / 8), (np.pi / 4, np.pi / 4), (np.pi / 2, 0.0),
    (0.0, np.pi / 2), (np.pi, np.pi), (3 * np.pi / 8, np.pi / 8), (np.pi / 16, 0.0),
]


def c_alpha(alpha: float) -> float:
    """Normalization constant of the fractional-Laplacian kernel on the plane.

    ``c_alpha = 2^alpha Gamma(1 + alpha/2) / (pi |Gamma(-alpha/2)|)``; with
    ``alpha = 1`` this evaluates to ``1/(2*pi)``.  Vanishes in both limits
    ``alpha -> 0+`` and ``alpha -> 2-``.
    """
    return 2.0**alpha * math.gamma((2 + alpha) / 2.0) / (np.pi * abs(math.gamma(-alpha / 2.0)))


def _pv_radius(grid, kmax: int) -> float:
    """Principal-value disc radius ``min(h/2, pi/(4 kmax))``.

    The relative Taylor-model error scales like ``(kmax delta)^(4 - alpha)``,
    so the disc shrinks with the integrand bandwidth ``kmax`` once that
    exceeds ``n/4``; it always stays below the collocation spacing ``h``.
    """
    return min(0.5 * grid.spacing, np.pi / (4 * kmax))


@functools.lru_cache(maxsize=None)
def _rings(kmax: int, radius: float) -> tuple:
    """Panels of the annulus ``radius <= |y| <= R`` as ``(r, wr, npsi)``, built once per (kmax, radius).

    ``r`` are the Gauss-Legendre radii of a panel, ``wr`` their weights scaled
    to it, and ``npsi`` its number of equispaced angles; none depends on alpha.
    """
    rings = []
    a = radius
    while a < OUTER_RADIUS:
        b = min(2.0 * a, OUTER_RADIUS)
        nr = int(np.ceil(0.45 * kmax * (b - a))) + 8
        xg, wg = leggauss(nr)
        r = 0.5 * (b - a) * xg + 0.5 * (b + a)
        wr = 0.5 * (b - a) * wg
        r.setflags(write=False)
        wr.setflags(write=False)
        rings.append((r, wr, int(np.ceil(1.1 * kmax * b)) + 16))
        a = b
    return tuple(rings)


def _half_nodes(alpha: float, kmax: int, radius: float):
    """Annulus nodes with angle ``0 <= psi <= pi`` and their weights, kernel factor folded in.

    The angles ``psi_j = 2 pi j / npsi`` of a ring are closed under ``psi ->
    2 pi - psi``, which maps ``(y1, y2)`` to ``(y1, -y2)`` with the same
    weight: an off-axis node carries the weight of itself and its mirror
    (x2), ``psi = 0`` and ``psi = pi`` only their own.
    """
    ca = c_alpha(alpha)
    ys1, ys2, ws = [], [], []
    for r, wr, npsi in _rings(kmax, radius):
        j = np.arange(npsi // 2 + 1)
        psi = 2.0 * np.pi * j / npsi
        mirrored = np.where((j == 0) | (2 * j == npsi), 1.0, 2.0)
        ys1.append(np.outer(r, np.cos(psi)).ravel())
        ys2.append(np.outer(r, np.sin(psi)).ravel())
        ws.append(np.outer(wr * ca * r ** (-1.0 - alpha) * (2.0 * np.pi / npsi), mirrored).ravel())
    return np.concatenate(ys1), np.concatenate(ys2), np.concatenate(ws)


def _node_chunk(kmax: int) -> int:
    """Nodes per chunk of the symbol sum: each ``(kmax + 1, q)`` complex work array is ~256 KiB.

    The two power tables ``P1``, ``P2`` of a chunk, their real and imaginary
    copies and the phases ``z1``, ``z2`` then stay in a core's L2 cache (2 MiB
    per core on the 2-core Xeon of these timings) while the recurrence fills
    them and the gemms read them back.  Median build time of one symbol at n = 64,
    alpha = 1, with 2**17 -> 2**14 entries per work array:

        kmax 12:  4.6 -> 2.8 ms     kmax 24: 23.6 -> 16.1 ms
        kmax 16:  8.1 -> 5.5 ms     kmax 30: 47.1 -> 35.7 ms
        kmax 22: 19.4 -> 13.3 ms

    and 39.1 -> 28.8 ms for the six builds of a ``verify-kernels`` corpus at
    n = 64 (alpha 0.5, 1, 1.5 x kmax 12, 16); repeated sessions vary by about
    20 %.  2**15 is about as fast; 2**12 is slower than 2**14 at every kmax
    and than 2**17 at kmax 24 and 30, its gemms too thin.  The chunk only
    regroups the gemm sums, so the symbol moves by roundoff.
    """
    return max(1, 2**14 // (kmax + 1))


_symbol_cache: dict = {}


def _translation_symbol(alpha: float, kmax: int, n: int, radius: float) -> np.ndarray:
    """``S(k) = sum_q w_q exp(i k . y_q)`` for ``|k_i| <= kmax``, zero elsewhere (cached).

    The node set is mirror-symmetric in ``y2`` and the weights are real, so
    ``S(k1, -k2) = S(k1, k2)`` and ``S(-k) = conj S(k)``: only the quarter
    ``k1, k2 >= 0`` is summed, over the half nodes of :func:`_half_nodes`,
    where the ``k2`` phase is ``cos(k2 y2)``.  The phases are powers of one
    ``z = exp(i y)`` per node and direction, ``P[j] = P[j-1] * z``, and each
    chunk of nodes is two real gemms (real and imaginary part of ``w z1^k1``
    against ``Re z2^k2``).  The recurrence loses about j ulps at power j, less
    than rounding ``k . y`` costs a direct ``exp(i k . y)`` at the ``|k . y|``
    of several hundred reached on the outer annulus.
    """
    key = (alpha, kmax, n, radius)
    got = _symbol_cache.get(key)
    if got is not None:
        return got
    y1, y2, w = _half_nodes(alpha, kmax, radius)
    quarter = np.zeros((kmax + 1, kmax + 1), dtype=np.complex128)  # S[k1 >= 0, k2 >= 0]
    chunk = _node_chunk(kmax)
    for lo in range(0, len(w), chunk):
        hi = lo + chunk
        z1 = np.exp(1j * y1[lo:hi])
        z2 = np.exp(1j * y2[lo:hi])
        P1 = np.empty((kmax + 1, len(z1)), dtype=np.complex128)  # w_q z1^k1, k1 = 0 .. kmax
        P2 = np.empty((kmax + 1, len(z2)), dtype=np.complex128)  # z2^k2, k2 = 0 .. kmax
        P1[0] = w[lo:hi]
        P2[0] = 1.0
        for j in range(1, kmax + 1):
            np.multiply(P1[j - 1], z1, out=P1[j])
            np.multiply(P2[j - 1], z2, out=P2[j])
        cos2 = np.ascontiguousarray(P2.real.T)
        quarter.real += np.ascontiguousarray(P1.real) @ cos2
        quarter.imag += np.ascontiguousarray(P1.imag) @ cos2
    half = np.concatenate((quarter[:, :0:-1], quarter), axis=1)  # S[k1 >= 0, k2 + kmax]
    S = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(kmax + 1)
    k2 = np.arange(-kmax, kmax + 1)
    S[np.ix_(k, k2)] = half
    S[np.ix_(-k[1:], -k2)] = np.conj(half[1:])
    _symbol_cache[key] = S
    return S


def _check_product_resolution(band: int, n: int) -> None:
    """Raise unless the square of a field of bandwidth ``band`` on ``n`` points stays below Nyquist."""
    if 2 * band >= n // 2:
        raise ValueError(
            f"field bandwidth {band} too large for alias-free squares on n={n} (needs 2*band < {n // 2})"
        )


def dissipation_field(field: SpectralField, alpha: float) -> np.ndarray:
    """``D_alpha[phi]`` evaluated at every collocation point (returns an array).

    Quadrature of the whole-space representation as described in the module
    docstring; the result is nonnegative up to quadrature roundoff.
    """
    grid = field.grid
    band = field.band()
    _check_product_resolution(band, grid.n)
    kmax = max(1, 2 * band)  # quadratic integrand content reaches twice the field bandwidth
    delta = _pv_radius(grid, kmax)
    ca = c_alpha(alpha)
    S = _translation_symbol(alpha, kmax, grid.n, delta)
    v = field.values()
    v2 = v * v
    w_total = float(S[0, 0].real)
    # v*S and v^2*S in one transform (both real); the unprojected transform of
    # v^2, whose mean is part of the integrand
    conv = _packed_values(grid, field.coeffs + 1j * _forward(grid, v2), S)
    gx, gy = gradient(field)
    grad = _packed_values(grid, gx.coeffs + 1j * gy.coeffs, 1.0)  # d_x phi + i d_y phi
    grad2 = grad.real**2 + grad.imag**2
    inner = ca * np.pi * delta ** (2.0 - alpha) / (2.0 - alpha) * grad2
    m2 = float(np.mean(v2))
    tail = ca * 2.0 * np.pi / (alpha * OUTER_RADIUS**alpha) * (v2 + m2)
    return w_total * v2 - 2.0 * v * conv.real + conv.imag + inner + tail


def spectral_identity_rhs(field: SpectralField, alpha: float) -> np.ndarray:
    """``2 phi Lambda^alpha phi - Lambda^alpha(phi^2)`` on the grid (spectral route)."""
    _check_product_resolution(field.band(), field.grid.n)
    v = field.values()
    lam = fractional_laplacian(field, alpha).values()
    sq = SpectralField.from_values(field.grid, v * v, demean=True)
    lam_sq = fractional_laplacian(sq, alpha).values()
    return 2.0 * v * lam - lam_sq


def pointwise_identity_residual(field: SpectralField, alpha: float) -> np.ndarray:
    """|2 phi Lambda^a phi - Lambda^a(phi^2) - D_a[phi]| with both routes independent.

    The multiplier terms are computed spectrally, the dissipation density by
    real-space quadrature.  Returns the residual field; residuals are
    reported, never raised.
    """
    return np.abs(spectral_identity_rhs(field, alpha) - dissipation_field(field, alpha))


def _int_power(v: np.ndarray, e: int) -> np.ndarray:
    """``v**e`` for an integer ``e >= 1`` as a product of ``v, v^2, v^4, ...``, not ``pow()`` per point."""
    out = None
    while True:
        if e & 1:
            out = v if out is None else out * v
        e >>= 1
        if not e:
            return out
        v = v * v


def lp_poincare_check(field: SpectralField, p: int):
    """Evaluate both sides of the L^p lower bound for the critical ``Lambda = (-Laplacian)^{1/2}``.

        int theta^{p-1} Lambda theta dx
            >= (1/p) ||Lambda^{1/2}(theta^{p/2})||_{L^2}^2
               + (1/C) ||theta||_{L^p}^p,      C = LP_POINCARE_CONSTANT = 2^9 pi^2

    Returns ``(lhs, (smooth_part, lp_part))``; the caller asserts the
    inequality.  Quadratures are alias-free (power products are formed on a
    zero-padded grid) for ``p`` a positive multiple of 4, the 4 and 8 of
    :func:`kernel_checks`.
    """
    grid = field.grid
    band = max(field.band(), 1)
    m = grid.n
    while m < p * band + 2:
        m *= 2
    padded = resample(field, m)
    v = padded.values()
    lam = resample(fractional_laplacian(field, 1.0), m).values()
    cell = (2.0 * np.pi / m) ** grid.dim
    lhs = float(np.sum(_int_power(v, p - 1) * lam) * cell)

    ch = _forward(padded.grid, _int_power(v, p // 2))
    kmag = padded.grid.kmag
    nzm = kmag > 0
    smooth = float((2.0 * np.pi) ** grid.dim * np.sum(kmag[nzm] * np.abs(ch[nzm]) ** 2)) / p

    lp_p = float(np.sum(_int_power(v, p)) * cell)
    lp_part = lp_p / LP_POINCARE_CONSTANT
    return lhs, (smooth, lp_part)


@dataclass
class LowerBoundReport:
    """Pointwise ratios of the cubic lower bound on D[delta_h theta]."""

    ratios: np.ndarray
    valid_mask: np.ndarray
    empty: bool

    @property
    def min_ratio(self) -> float:
        return float(self.ratios[self.valid_mask].min()) if not self.empty else math.inf


def nonlinear_lower_bound_check(field: SpectralField, h, c2: float) -> LowerBoundReport:
    """Check ``D[delta_h theta](x) >= |delta_h theta(x)|^3 / (c2 ||theta||_inf |h|)``.

    Returns the pointwise ratio ``r(x) = D * c2 * ||theta||_inf * |h| /
    |delta_h theta|^3`` wherever ``|delta_h theta| > 1e-8 * ||theta||_inf``;
    a calibrated ``c2`` makes ``min r >= 1``.  A field with ``delta_h theta``
    identically zero produces an empty report (degenerate-case contract).
    """
    h = np.asarray(h, dtype=np.float64)
    hnorm = float(np.linalg.norm(h))
    delta = shift(field, h) - field
    linf = float(np.abs(field.values()).max())
    dvals = np.abs(delta.values())
    valid = dvals > 1e-8 * max(linf, 1e-300)
    if not valid.any():
        return LowerBoundReport(
            ratios=np.zeros_like(dvals), valid_mask=valid, empty=True
        )
    D = dissipation_field(delta, 1.0)
    ratios = np.zeros_like(dvals)
    ratios[valid] = D[valid] * c2 * linf * hnorm / dvals[valid] ** 3
    return LowerBoundReport(ratios=ratios, valid_mask=valid, empty=False)


def kernel_checks(named_fields, c2: float) -> list:
    """Rows ``(suite, field, value, threshold, passed)`` of the kernel suites on ``(name, phi)`` pairs.

    Per field: ``identity``, the mean identity residual at alpha 0.5, 1, 1.5
    within ``1e-2 ||phi||_inf^2``; ``poincare_p4/p8``, lhs minus rhs at least 0;
    ``lower_bound``, the min ratio at least 1 per shift with a nonempty report.
    Then ``lower_bound_nonvacuous``: the least ratio at most 10 (``c2`` is not
    loose), a row left out on an empty corpus.
    """
    rows = []
    for name, phi in named_fields:
        linf_sq = lp_norm(phi, np.inf) ** 2
        for alpha in (0.5, 1.0, 1.5):
            resid = float(np.mean(pointwise_identity_residual(phi, alpha)))
            rows.append(("identity", f"{name}_a{alpha}", resid, 1e-2 * linf_sq, resid <= 1e-2 * linf_sq))
        for p in (4, 8):
            lhs, (r1, r2) = lp_poincare_check(phi, p)
            rows.append((f"poincare_p{p}", name, lhs - (r1 + r2), 0.0, lhs >= r1 + r2))
        for h in KERNEL_SHIFTS:
            lb = nonlinear_lower_bound_check(phi, h, c2)
            if not lb.empty:
                rows.append(("lower_bound", f"{name}_h{h[0]:.3f}_{h[1]:.3f}", lb.min_ratio, 1.0,
                             lb.min_ratio >= 1.0))
    if rows:
        least = min((row[2] for row in rows if row[0] == "lower_bound"), default=math.inf)
        rows.append(("lower_bound_nonvacuous", "corpus", least, 10.0, least <= 10.0))
    return rows
