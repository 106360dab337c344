"""Mean-zero periodic scalar fields on T^d (d = 1, 2) and their spectral calculus.

Conventions, fixed once and referenced by every norm formula in the package:

* Grid: ``n`` points per dimension on ``[-pi, pi)^d`` with spacing ``2*pi/n``,
  ``x_j = -pi + 2*pi*j/n``.
* Coefficients: ``c_k = DFT(values) / n^d``, indexed by the integer wavenumber
  lattice in standard FFT ordering, so ``values = sum_k c_k exp(i k . u)``
  where ``u`` is the grid chart.  With this normalization the transform is
  unitary in L^2 up to a factor ``(2*pi)^{d/2}``:

      ||phi||_{L^2}^2 = (2*pi)^d * sum_k |c_k|^2      (discrete Parseval, exact)

  Only this module transforms or applies the ``n^d`` scale, in
  :func:`_forward`, :func:`_collocation` and :func:`_packed_values`.
* The ``k = 0`` coefficient is identically zero (all fields are mean-free) and
  the Nyquist row/column (``k_i = n/2``) is zeroed on construction: it breaks
  Hermitian-symmetry bookkeeping for odd derivatives and sits above the
  dealiasing cutoff anyway.
* ``|k|`` is always the Euclidean norm of the integer wavevector.

Fields are immutable values (their coefficient arrays are frozen); every
operation in this module is pure and returns a new field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "TorusGrid",
    "SpectralField",
    "NormReport",
    "MeanZeroError",
    "fractional_laplacian",
    "riesz_perp",
    "gradient",
    "shift",
    "resample",
    "sobolev_norm",
    "lp_norm",
    "holder_seminorm",
    "inner_h1",
    "norm_report",
]

TWO_PI = 2.0 * np.pi


class MeanZeroError(ValueError):
    """Raised when an operation requires a mean-free field and gets one that is not."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on ``[-pi, pi)^dim``.

    ``n`` must be even and at least 8; powers of two are the intended (fast)
    case.  The wavenumber set is exactly the standard FFT ordering for
    resolution ``n``, an integer lattice with ``|k_i| <= n/2``.
    """

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @staticmethod
    def _frozen(a: np.ndarray) -> np.ndarray:
        a.setflags(write=False)
        return a

    @cached_property
    def coords(self) -> np.ndarray:
        """1D coordinate array, shared by every axis."""
        return self._frozen(-np.pi + TWO_PI * np.arange(self.n) / self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """1D integer wavenumbers in FFT ordering."""
        return self._frozen((np.fft.fftfreq(self.n) * self.n).astype(np.int64))

    def _mesh(self, axis: np.ndarray) -> list:
        """The 1D per-axis array ``axis`` spread over the grid, one array per dimension."""
        return np.meshgrid(*(axis,) * self.dim, indexing="ij")

    @cached_property
    def kvecs(self) -> tuple:
        """Meshgrid of wavenumber components, one array per dimension."""
        return tuple(self._frozen(c) for c in self._mesh(self.wavenumbers.astype(np.float64)))

    @cached_property
    def kmag(self) -> np.ndarray:
        """``|k|`` (Euclidean) on the full wavenumber grid."""
        return self._frozen(np.sqrt(sum(c * c for c in self.kvecs)))

    @cached_property
    def riesz_symbols(self) -> np.ndarray:
        """``(2, n, n)`` symbols of ``(-R_2, R_1)``, zero at ``k = 0`` (2D only)."""
        kx, ky = self.kvecs
        inv = np.zeros_like(self.kmag)
        nz = self.kmag > 0
        inv[nz] = 1.0 / self.kmag[nz]
        return self._frozen(np.stack((-1j * ky * inv, 1j * kx * inv)))

    @cached_property
    def gradient_symbols(self) -> np.ndarray:
        """``(dim, *shape)`` symbols ``i k_j`` of the spectral gradient."""
        return self._frozen(np.stack([1j * k for k in self.kvecs]))

    @cached_property
    def transport_symbols(self) -> np.ndarray:
        """``(2, n, n)`` packed symbols ``riesz_0 + i*riesz_1`` and ``grad_0 + i*grad_1`` (2D only).

        Each pairs two symbols that map a real field to a real field, so one
        inverse transform of ``coeffs * transport_symbols[j]`` yields the first
        field in its real part and the second in its imaginary part: ``u_1 +
        i*u_2`` for the velocity and ``d_x + i*d_y`` for the gradient.
        """
        riesz, grad = self.riesz_symbols, self.gradient_symbols
        return self._frozen(np.stack((riesz[0] + 1j * riesz[1], grad[0] + 1j * grad[1])))

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask of modes with any component equal to n/2."""
        ny = self.wavenumbers == -self.n // 2  # fftfreq stores the Nyquist mode as -n/2
        return self._frozen(np.logical_or.reduce(self._mesh(ny)))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: True on modes kept for quadratic products.

        The cutoff ``kc = floor((n - 1) / 3)`` guarantees ``3*kc < n`` so that
        collocation quadrature of cubic expressions of dealiased fields is
        alias-free.
        """
        keep = np.abs(self.wavenumbers) <= (self.n - 1) // 3
        return self._frozen(np.logical_and.reduce(self._mesh(keep)))


def _inverse_in_place(grid: TorusGrid, c: np.ndarray) -> np.ndarray:
    """Inverse transform of ``c`` over its trailing grid axes, written into ``c``.

    Leading axes index independent fields and go through one batched call.
    (Passing ``s`` as well as ``axes`` keeps numpy's per-call overhead at
    that of the default call; per field the result is the same.)  The
    transform runs in place because each large temporary (128 KiB and up,
    glibc's default mmap threshold) is fresh memory that page-faults when
    first written.
    """
    return np.fft.ifftn(c, s=grid.shape, axes=tuple(range(-grid.dim, 0)), out=c)


def _collocation(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Real collocation values of a coefficient array or of a stack of them."""
    return _inverse_in_place(grid, coeffs * grid.n**grid.dim).real


def _packed_values(grid: TorusGrid, coeffs: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Inverse transform of ``coeffs * symbols * n**d``, computed in place.

    Each packed symbol of ``grid.transport_symbols`` gives two real fields
    at once, in the real and imaginary parts of the result.
    """
    c = coeffs * symbols
    c *= grid.n**grid.dim
    return _inverse_in_place(grid, c)


def _forward(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """``DFT(values) / n^d`` over the trailing grid axes (stackable), with no projection."""
    c = np.fft.fftn(values, s=grid.shape, axes=tuple(range(-grid.dim, 0)))
    c /= grid.n**grid.dim
    return c


def _product_coeffs(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Coefficients of real collocation values (stackable like :func:`_collocation`).

    Real input guarantees Hermitian symmetry to roundoff, so only the mean and
    Nyquist projections are applied.
    """
    c = _forward(grid, values)
    c[(...,) + (0,) * grid.dim] = 0.0
    np.copyto(c, 0.0, where=grid.nyquist_mask)
    return c


def _sanitize(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Project onto the representable class: zero mean, zero Nyquist, Hermitian."""
    c = np.asarray(coeffs, dtype=np.complex128).copy()
    if c.shape != grid.shape:
        raise ValueError(f"coefficient shape {c.shape} does not match grid {grid.shape}")
    # exact Hermitian symmetry: average with the reflected conjugate
    rev = tuple(slice(None, None, -1) for _ in range(grid.dim))
    c = 0.5 * (c + np.conj(np.roll(c[rev], 1, axis=tuple(range(grid.dim)))))
    c[(0,) * grid.dim] = 0.0
    c[grid.nyquist_mask] = 0.0
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field on the torus stored as Fourier coefficients.

    Invariants (enforced on construction): the ``k = 0`` coefficient is exactly
    zero, coefficients are Hermitian-symmetric (the field is real valued), and
    Nyquist modes are zero.
    """

    grid: TorusGrid
    coeffs: np.ndarray = dc_field(repr=False)

    @staticmethod
    def from_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(grid, _sanitize(grid, coeffs))

    @staticmethod
    def _trusted(grid: TorusGrid, coeffs: np.ndarray) -> "SpectralField":
        """Wrap coefficients that already satisfy the invariants.

        Internal fast path for operations that provably preserve mean-zero,
        Hermitian symmetry, and the Nyquist zero (diagonal multipliers with
        even real / odd imaginary symbols, linear combinations); skips the
        symmetrization pass of :meth:`from_coeffs`.
        """
        coeffs.setflags(write=False)
        return SpectralField(grid, coeffs)

    @staticmethod
    def from_values(grid: TorusGrid, values: np.ndarray, demean: bool = False) -> "SpectralField":
        """Build a field from collocation values.

        Raises :class:`MeanZeroError` when the sample mean is not (numerically)
        zero, unless ``demean`` is set, in which case the mean is removed.
        """
        v = np.asarray(values, dtype=np.float64)
        if v.shape != grid.shape:
            raise ValueError(f"value shape {v.shape} does not match grid {grid.shape}")
        mean = float(v.mean())
        scale = float(np.abs(v).max())
        if not demean and scale > 0 and abs(mean) > 1e-10 * max(scale, 1.0):
            raise MeanZeroError(f"field mean {mean:.3e} is not zero (pass demean=True to project)")
        return SpectralField.from_coeffs(grid, _forward(grid, v))

    @staticmethod
    def zeros(grid: TorusGrid) -> "SpectralField":
        return SpectralField.from_coeffs(grid, np.zeros(grid.shape, dtype=np.complex128))

    def values(self) -> np.ndarray:
        """Collocation values on the grid (real array)."""
        return _collocation(self.grid, self.coeffs)

    def band(self) -> int:
        """Largest ``|k_i|`` carrying a (numerically) nonzero coefficient."""
        mag = np.abs(self.coeffs)
        top = mag.max()
        if top == 0.0:
            return 0
        active = mag > 1e-14 * top
        return int(max(np.abs(k[active]).max() for k in self.grid.kvecs))

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    # small arithmetic surface so solver/tangent code reads naturally;
    # linear combinations preserve every invariant, so the fast path applies
    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField._trusted(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField._trusted(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField._trusted(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


@dataclass
class NormReport:
    """Norms of one field, keyed by the L^p exponent (``np.inf`` for L^inf) and the H^s index."""

    lp: dict
    hs: dict


def _multiplier(field: SpectralField, symbol: np.ndarray) -> SpectralField:
    # symbols used in this module are even-real or odd-imaginary in k and
    # vanish at k = 0 where required, so invariants survive without re-projection
    return SpectralField._trusted(field.grid, field.coeffs * symbol)


def fractional_laplacian(field: SpectralField, s: float) -> SpectralField:
    """Fourier multiplier ``|k|^s`` acting on a mean-free field.

    For ``s < 0`` the operator is only defined away from constants; the
    mean-free invariant of :class:`SpectralField` guarantees that, and the
    zero mode stays exactly zero.
    """
    if not -2.0 <= s <= 3.0:
        raise ValueError(f"s must lie in [-2, 3], got {s}")
    if s < 0 and abs(field.coeffs[(0,) * field.grid.dim]) > 0:
        raise MeanZeroError("negative fractional powers are undefined on constants")
    kmag = field.grid.kmag
    sym = np.zeros_like(kmag)
    nz = kmag > 0
    sym[nz] = kmag[nz] ** s
    return _multiplier(field, sym)


def riesz_perp(field: SpectralField) -> tuple:
    """Divergence-free velocity ``(-R_2 theta, R_1 theta)`` from the scalar.

    Only defined on T^2 (the 1D testbed transports with the scalar itself).
    """
    if field.grid.dim != 2:
        raise ValueError("riesz_perp requires dim=2")
    return tuple(_multiplier(field, sym) for sym in field.grid.riesz_symbols)


def gradient(field: SpectralField) -> tuple:
    """Spectral gradient, one field per dimension."""
    return tuple(_multiplier(field, sym) for sym in field.grid.gradient_symbols)


def shift(field: SpectralField, h: Sequence[float]) -> SpectralField:
    """Exact spectral translation ``x -> x + h``.

    The phase ``exp(i k . h)`` is the outer product of one ``exp(i k_j h_j)``
    vector per axis: ``d*n`` exponentials, not ``n^d``.
    """
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    if h.shape != (field.grid.dim,):
        raise ValueError("shift vector dimension mismatch")
    k = field.grid.wavenumbers.astype(np.float64)
    phase = reduce(np.multiply.outer, [np.exp(1j * (k * hi)) for hi in h])
    return _multiplier(field, phase)


def resample(field: SpectralField, m: int) -> SpectralField:
    """Exact spectral resampling onto an m-point grid (m above twice the band)."""
    grid = field.grid
    if m == grid.n:
        return field
    if m < 2 * field.band() + 2:
        raise ValueError(f"target resolution {m} cannot represent band {field.band()}")
    target = TorusGrid(grid.dim, m)
    c = np.zeros(target.shape, dtype=np.complex128)
    k = grid.wavenumbers
    keep = np.abs(k) < min(grid.n, m) // 2  # Nyquist is zero by invariant
    c[np.ix_(*(k[keep],) * grid.dim)] = field.coeffs[np.ix_(*(keep,) * grid.dim)]
    return SpectralField.from_coeffs(target, c)


def sobolev_norm(field: SpectralField, s: float) -> float:
    """``(sum_k |k|^{2s} |c_k|^2 * (2pi)^d)^{1/2}``, the H^s norm.

    With the package transform convention this equals ``||Lambda^s phi||_{L^2}``
    exactly; homogeneous and inhomogeneous norms coincide on mean-free fields.
    """
    kmag = field.grid.kmag
    nz = kmag > 0
    w = kmag[nz] ** (2.0 * s)
    return float(np.sqrt(TWO_PI**field.grid.dim * np.sum(w * np.abs(field.coeffs[nz]) ** 2)))


def _lp_of_values(grid: TorusGrid, v: np.ndarray, p) -> float:
    """L^p norm of the collocation values ``v``, as :func:`lp_norm` defines it."""
    if p == np.inf:
        return float(np.abs(v).max())
    p = int(p)
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2 or inf, got {p}")
    cell = grid.spacing ** grid.dim
    return float((np.sum(v**p) * cell) ** (1.0 / p))


def lp_norm(field: SpectralField, p) -> float:
    """Collocation L^p norm: trapezoidal quadrature for even p, max for p=inf.

    Trapezoidal quadrature on the periodic grid is exact for trig polynomials
    below the aliasing limit ``p * band < n``.
    """
    return _lp_of_values(field.grid, field.values(), p)


def _h1_pair(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """H^1 inner product of two coefficient arrays on ``grid``; the one copy of the H^1 sum."""
    k2 = grid.kmag ** 2
    return float(np.real(np.sum(k2 * np.conj(a) * b)) * TWO_PI**grid.dim)


def _h1_gram(grid: TorusGrid, xs: np.ndarray) -> np.ndarray:
    """H^1 Gram matrix of an ``(m, *shape)`` coefficient stack, without the factor ``(2pi)^d``."""
    # Re(conj(a) b) summed over k is the real dot product of the float views
    y = (xs * grid.kmag).view(np.float64).reshape(len(xs), -1)
    return y @ y.T


def inner_h1(f: SpectralField, g: SpectralField) -> float:
    """Homogeneous H^1 inner product ``sum |k|^2 conj(f_k) g_k * (2pi)^d``."""
    f._check_same_grid(g)
    return _h1_pair(f.grid, f.coeffs, g.coeffs)


@lru_cache(maxsize=32, typed=True)
def _all_shift_powers(grid: TorusGrid, alpha: float) -> np.ndarray:
    """``|h|^alpha`` per nonzero grid shift in row-major (serial scan) order.

    ``h`` is the canonical torus displacement of the shift, in [-pi, pi).
    Evaluated one scalar at a time, so each entry is bitwise the
    ``hnorm**alpha`` of the per-shift definition.
    """
    spacing = grid.spacing
    powers = np.array([
        float(np.linalg.norm((np.asarray(s, dtype=np.float64) * spacing + np.pi) % TWO_PI - np.pi))
        ** alpha for s in np.ndindex(*grid.shape)
    ][1:])
    powers.setflags(write=False)
    return powers


def _shift_bound(vmax: np.ndarray, vmin: np.ndarray) -> np.ndarray:
    """``b[i] = max_x max(vmax[x+i] - vmin[x], vmax[x] - vmin[x+i])`` for every cyclic ``i``."""
    ring = np.arange(vmax.shape[0])
    up = (vmax[(ring[:, None] + ring) % ring.size] - vmin).max(axis=1)
    return np.maximum(up, up[-ring % ring.size])


def _increment_bound(v: np.ndarray) -> np.ndarray:
    """Upper bound ``B[s] >= max_x |v(x + s) - v(x)|`` for every 2D grid shift ``s``.

    An increment between rows ``s_1`` apart lies between differences of their
    row extremes, and likewise for columns; ``B`` is the smaller of the two
    bounds.  Rounding is monotone, so ``fl(a - b) <= fl(max - min)`` and the
    bound holds for the floating-point increments, not only for the real ones.
    """
    return np.minimum.outer(_shift_bound(v.max(axis=1), v.min(axis=1)),
                            _shift_bound(v.max(axis=0), v.min(axis=0)))


def _attained_quotient(v: np.ndarray, hpow: np.ndarray) -> float:
    """The largest quotient out of the argmax and argmin points of ``v``: at most the maximum."""
    axes = tuple(range(v.ndim))
    return max(
        float((np.abs(np.roll(v, tuple(-c for c in x), axis=axes) - v[x]).ravel()[1:] / hpow).max())
        for x in (np.unravel_index(np.argmax(v), v.shape), np.unravel_index(np.argmin(v), v.shape)))


def _increment_maxima(v: np.ndarray, hpow: np.ndarray) -> np.ndarray:
    """Table ``dmax[s] = max_x |v(x + s) - v(x)|`` wherever the quotient can be maximal.

    In 1D a single ``(n, n)`` block covers every shift.  In 2D a shift is
    scanned only if it or its mirror has ``fl(B[s] / |h|^alpha)`` at least the
    attained quotient, with ``B`` from :func:`_increment_bound`; division by a
    positive number is monotone too, so every other shift has a quotient below
    the maximum, and its entry is left 0.  Only row shifts ``0..n/2`` are
    scanned; the others are mirrors, because the increments of ``-s`` at
    ``x + s`` are those of ``s`` at ``x`` with the sign flipped, and
    ``fl(a - b) = -fl(b - a)`` makes that exact.
    """
    n = v.shape[0]
    # windows[s] is v translated by s (periodically), for every 0 <= s_i <= n
    windows = sliding_window_view(np.tile(v, (2,) * v.ndim), v.shape)
    if v.ndim == 1:
        return np.abs(windows[:n] - v).max(axis=1)
    keep = np.zeros(n * n, dtype=bool)
    reach = _attained_quotient(v, hpow)
    np.greater_equal(_increment_bound(v).ravel()[1:] / hpow, reach, out=keep[1:])
    keep = keep.reshape(n, n)
    half = np.arange(n // 2 + 1)
    need = keep[half] | keep[-half % n][:, -np.arange(n) % n]
    # each run of needed column shifts of a row is one contiguous window slice;
    # the maximizing shift is always needed, so there is at least one run
    rows, cols = np.nonzero(np.diff(need, axis=1, prepend=False, append=False))
    dmax = np.zeros((n, n))
    block = np.empty((int((cols[1::2] - cols[::2]).max()), n, n))
    for i, j0, j1 in zip(rows[::2].tolist(), cols[::2].tolist(), cols[1::2].tolist()):
        incs = block[: j1 - j0]
        np.subtract(windows[i, j0:j1], v, out=incs)
        np.abs(incs, out=incs)
        incs.reshape(j1 - j0, -1).max(axis=1, out=dmax[i, j0:j1])
    rows = np.arange(1, n // 2)
    dmax[n - rows] = dmax[rows][:, -np.arange(n) % n]
    return dmax


def _holder_ratios(field: SpectralField, alpha: float) -> np.ndarray:
    """Quotients ``max_x |theta(x+s) - theta(x)| / |h|^alpha`` of the nonzero shifts, row-major.

    A shift the pruned scan of :func:`_increment_maxima` skips holds 0; its
    quotient is below the maximum, so the first row-major argmax of the
    table is the serial scan's maximizing shift.  ``alpha`` outside (0, 1]
    and non-finite field values raise ``ValueError``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    hpow = _all_shift_powers(field.grid, alpha)
    v = field.values()
    if not np.isfinite(v).all():
        raise ValueError("Hoelder quotient of a field with non-finite values")
    return _increment_maxima(v, hpow).ravel()[1:] / hpow


def holder_seminorm(field: SpectralField, alpha: float) -> float:
    """Discrete Hoelder quotient ``max_{x,h} |theta(x+h) - theta(x)| / |h|^alpha``.

    Every nonzero grid shift is considered; its canonical torus representative
    satisfies ``|h| <= pi*sqrt(dim)``.  Non-finite field values raise
    ``ValueError``.

    The scan is exact.  In 2D it is a branch-and-bound over shifts: the row
    and column extremes of the field bound ``max_x |delta_h theta|`` from
    above for every shift, the increments out of the field's argmax and argmin
    give a quotient the field attains, and only the shifts whose bound reaches
    that quotient are scanned, a run of adjacent column shifts at a time.
    How many are left depends on the field (the zero field prunes none).
    Only half of the row shifts are scanned; the rest are exact mirrors
    (``h`` and ``-h`` share the same maximal increment).  Each quotient divides
    that maximum by the same scalar ``|h|**alpha`` as a one-shift-at-a-time
    loop, so the value is ``==`` that of the serial scan.
    """
    return float(_holder_ratios(field, alpha).max())


def norm_report(field: SpectralField, ps=()) -> NormReport:
    """The norms of one field: L^p for 2, 4, inf and ``ps`` (one transform), H^s for s in 0.5..2."""
    grid, v = field.grid, field.values()
    return NormReport(
        lp={p: _lp_of_values(grid, v, p) for p in dict.fromkeys((2, 4, np.inf, *ps))},
        hs={s: sobolev_norm(field, s) for s in (0.5, 1.0, 1.5, 2.0)},
    )
