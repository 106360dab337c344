"""Linearized dynamics along trajectories, volume elements, and the dimension bound.

The linearization of the SQG flow about a solution ``theta`` acts on a tangent
field ``xi`` as

    A_theta[xi] = -kappa*Lambda xi - u_theta . grad xi - u_xi . grad theta,

with ``u_phi`` the perpendicular-Riesz velocity of ``phi``.  Tangent fields are
advanced with the exact Frechet derivative of the IMEX Crank-Nicolson step:
the solver's one stage body forms the base term and the derivative stack from
the same base transforms (same stages, same dealiasing), so the residual of
the superlinear-approximation test is the genuine quadratic remainder of the
discrete flow and not an integrator mismatch.

Volume bookkeeping is Benettin style: between re-orthonormalizations the
tangent frame evolves freely; a modified Gram-Schmidt pass in the homogeneous
H^1 inner product ``<f, g> = (2*pi)^2 sum |k|^2 conj(f_k) g_k`` then yields the
per-direction log growth factors, whose running sums track ``log V_m``.  The
trace of the projected generator over an H^1-orthonormal frame,

    Tr(P_n A_theta) = sum_j int (-Laplacian phi_j) A_theta[phi_j] dx,

is sampled at every re-orthonormalization; its second-half time average (with
a Cauchy check over window doublings) approximates the long-time average, and
``empirical_N`` is the smallest frame size whose average is negative.

The a-priori dimension bound uses the trace-bound curve

    m  |->  -kappa*m^{3/2}/c11 + m*c10*M_A^2/kappa,

with ``c11`` the eigenvalue-counting constant of the torus lattice
(``lambda_j >= sqrt(j)/c11``) and ``N = floor((c10*c11*M_A^2/kappa^2)^2) + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .diagnostics import UniversalConstants, absorbing_constants, cumulative_trapezoid
from .spectral import SpectralField, TorusGrid, _h1_gram, _h1_pair
from .solver import (
    Force,
    SolverConfig,
    _Stepper,
    _transport_derivative,
    _transport_values,
    integrate,
    random_band_field,
)

__all__ = [
    "linearized_rhs",
    "CoupledStepper",
    "h1_gram_schmidt",
    "lattice_eigenvalues",
    "eigenvalue_count_constant",
    "VolumeTraceResult",
    "IDENTITY_RESIDUAL_BOUND",
    "COLLAPSE_CONDITION",
    "volume_and_trace_run",
    "dimension_bound",
    "trace_bound_curve",
    "DimensionVerdict", "dimension_verdict",
    "FrechetResult",
    "frechet_residual",
    "EnsembleCollapseError",
]


class EnsembleCollapseError(RuntimeError):
    """Tangent frame became numerically degenerate between re-orthonormalizations."""


def _linearized_stack(theta: SpectralField, coeffs: np.ndarray, kappa: float) -> np.ndarray:
    """``A_theta`` (transport derivative minus ``kappa*|k|``) on each field of a stack."""
    grid = theta.grid
    base = _transport_values(grid, theta.coeffs[None])
    return _transport_derivative(grid, base, coeffs) - coeffs * grid.kmag * float(kappa)


def linearized_rhs(theta: SpectralField, xi: SpectralField, kappa: float) -> SpectralField:
    """``A_theta[xi] = -kappa*Lambda xi - u_theta.grad xi - u_xi.grad theta``, dealiased."""
    out = _linearized_stack(theta, xi.coeffs[None], kappa)
    return SpectralField._trusted(theta.grid, out[0])


class CoupledStepper(_Stepper):
    """Advance a base SQG state and tangent fields in lockstep.

    The tangent update is the exact derivative of the base Heun step: both go
    through the one stage body :meth:`_Stepper._rhs`, which carries the
    tangents as an ``(m, n, n)`` coefficient stack.  Stage one linearizes about
    ``theta^n``, stage two about the predictor state, with identical
    Crank-Nicolson treatment of the dissipative symbol.  Base-only steps are
    the inherited :meth:`advance`.
    """

    def __init__(self, grid: TorusGrid, config: SolverConfig, force: Force):
        super().__init__(grid, config, force.field)

    def step(self, theta: SpectralField, xs: np.ndarray, dt: float, *, t: float = 0.0):
        """Advance ``theta`` and the ``(m, n, n)`` tangent stack ``xs`` by ``dt`` from time ``t``.

        Returns the new base field and a new read-only stack.  A non-finite
        base or tangent coefficient raises :class:`BlowupError` stamped
        ``t + dt``, carrying ``theta``.
        """
        theta_new, xs_new = self._heun(theta, xs, dt, t)
        xs_new.setflags(write=False)
        return SpectralField._trusted(self.grid, theta_new), xs_new


def h1_gram_schmidt(grid: TorusGrid, xs: np.ndarray):
    """Modified Gram-Schmidt in the H^1 inner product over an ``(m, n, n)`` stack.

    Returns ``(frame, increments)``: the orthonormal frame as a new read-only
    stack, and ``increments[j] = log r_jj``, the log of the diagonal factor of
    direction j; their prefix sums advance the per-dimension log-volumes.
    Raises on a non-finite norm and on rank deficiency, reporting the
    offending index.
    """
    frame = np.empty_like(xs)
    increments = np.empty(len(xs))
    for j, xi in enumerate(xs):
        v = xi
        for phi in frame[:j]:
            v = v - phi * _h1_pair(grid, phi, v)
        norm_sq = _h1_pair(grid, v, v)
        ref = _h1_pair(grid, xi, xi)
        if not math.isfinite(norm_sq):
            raise EnsembleCollapseError(f"non-finite H^1 norm at tangent index {j}")
        if norm_sq <= 0.0 or (ref > 0 and norm_sq < 1e-24 * ref):
            raise EnsembleCollapseError(f"rank deficiency at tangent index {j}")
        r = math.sqrt(norm_sq)
        np.multiply(v, 1.0 / r, out=frame[j])
        increments[j] = math.log(r)
    frame.setflags(write=False)
    return frame, increments


def _trace_per_m(theta: SpectralField, xs: np.ndarray, kappa: float) -> np.ndarray:
    """Traces ``sum_{j<m} int (-Laplacian phi_j) A_theta[phi_j] dx`` for ``m = 1..len(xs)``.

    ``xs`` is an H^1-orthonormal frame stack; ``int (-Lap f) g = <f, g>_{H^1}``,
    so the trace does not depend on the orthonormalization chosen.  One
    stacked evaluation of ``A_theta``, dealiased as the frame was stepped.
    """
    grid = theta.grid
    rhs = _linearized_stack(theta, xs, kappa)
    return np.cumsum([_h1_pair(grid, phi, r) for phi, r in zip(xs, rhs)])


def lattice_eigenvalues(count: int) -> np.ndarray:
    """First ``count`` eigenvalues |k| of the torus lattice, sorted with multiplicity."""
    R = 2
    while (2 * R + 1) ** 2 - 1 < 4 * count:
        R *= 2
    ks = np.arange(-R, R + 1)
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    mag = np.sqrt(kx.astype(np.float64) ** 2 + ky.astype(np.float64) ** 2).ravel()
    mag = np.sort(mag[mag > 0])
    # the square |k|_inf <= R contains every lattice point with |k| <= R
    return mag[mag <= R][:count]


def eigenvalue_count_constant(count: int = 10**4) -> float:
    """Minimal c11 with ``lambda_j >= sqrt(j)/c11`` over the first ``count`` eigenvalues."""
    lam = lattice_eigenvalues(count)
    j = np.arange(1, count + 1, dtype=np.float64)
    return float(np.max(np.sqrt(j) / lam))


def trace_bound_curve(m, kappa: float, M_A: float, c10: float, c11: float):
    """Trace-bound curve ``-kappa*m^{3/2}/c11 + m*c10*M_A^2/kappa``."""
    m = np.asarray(m, dtype=np.float64)
    return -kappa * m**1.5 / c11 + m * c10 * M_A**2 / kappa


def dimension_bound(kappa: float, M_A: float, c10: float, c11: float):
    """Attractor-dimension bound ``N = floor((c10*c11*M_A^2/kappa^2)^2) + 1``.

    N is the smallest integer where the trace-bound curve is negative (a tested
    property), in exact rational arithmetic: a float floor is wrong once the
    square outgrows 2^53.  An infinite radius (absorbing constants past float
    range) gives ``inf``.
    """
    x = c10 * c11 * M_A**2 / kappa**2
    if math.isinf(x):
        return math.inf
    return math.floor(Fraction(x) ** 2) + 1


@dataclass(frozen=True)
class DimensionVerdict:
    """The a-priori dimension bound of a forced run, checked against its empirical N."""

    m_a: float          # max of the H^{3/2} and H^2 absorbing radii
    n_bound: object     # N of :func:`dimension_bound`: an int, or inf
    passed: bool        # empirical_n <= N


def dimension_verdict(empirical_n: int, force: Force, kappa: float, consts: UniversalConstants) -> DimensionVerdict:
    """Check ``empirical_n`` against the bound N that the absorbing radii of ``force`` give.

    The curve is negative at N by construction, so only ``empirical_n <= N`` can fail.
    """
    ac = absorbing_constants(force.linf, force.h1, kappa, consts)
    m_a = max(ac.m_32f, ac.m_2f)
    n_bound = dimension_bound(kappa, m_a, consts.c10, consts.c11)
    return DimensionVerdict(m_a, n_bound, empirical_n <= n_bound)


# criterion 10: |log V_m(t) - log V_m(0) - int_0^t Tr(P_m A)| at most this
IDENTITY_RESIDUAL_BOUND = 1e-3

# a tangent frame whose condition (:func:`_frame_condition`) exceeds this has collapsed
COLLAPSE_CONDITION = 1e6


@dataclass
class VolumeTraceResult:
    """Output of a co-evolved base + tangent-ensemble run."""

    times: np.ndarray                # re-orthonormalization instants
    traces: np.ndarray               # (len(times), n) trace of P_m A for m = 1..n
    log_volume: np.ndarray           # (len(times), n) log V_m accumulated
    trace_averages: np.ndarray       # second-half time average per m
    average_converged: np.ndarray    # Cauchy-over-doubling flags per m
    empirical_N: int                 # smallest m with negative trace average

    def running_average(self, m: int) -> np.ndarray:
        tr = self.traces[:, m - 1]
        t = self.times
        out = np.zeros_like(tr)
        if len(t) > 1:
            integ = cumulative_trapezoid(tr, t)
            span = np.maximum(t - t[0], 1e-300)
            out = integ / span
            out[0] = tr[0]
        return out

    def identity_residual_at(self, t: float) -> float:
        """``|log V_m(t) - log V_m(0) - int_0^t Tr(P_m A)|``, all m tangents, at the sample nearest t."""
        i = int(np.argmin(np.abs(self.times - t)))
        integral = np.trapezoid(self.traces[: i + 1, -1], self.times[: i + 1])
        return abs(float(self.log_volume[i, -1] - self.log_volume[0, -1] - integral))

    @property
    def identity_residual(self) -> float:
        """:meth:`identity_residual_at` the final time."""
        return self.identity_residual_at(self.times[-1])


def _frame_condition(grid: TorusGrid, xs: np.ndarray) -> float:
    """``sqrt(cond G)``, ``G`` the H^1 Gram matrix of a tangent stack (inf if singular to roundoff).

    Never below the ratio of the largest to the smallest H^1 norm: ``G`` holds their squares.
    """
    lam = np.linalg.eigvalsh(_h1_gram(grid, xs))
    return math.sqrt(lam[-1] / lam[0]) if lam[0] > 0.0 else math.inf


def _windowed_average(t: np.ndarray, y: np.ndarray, t_from: float, t_to: float) -> float:
    mask = (t >= t_from - 1e-12) & (t <= t_to + 1e-12)
    tt, yy = t[mask], y[mask]
    if len(tt) < 2:
        return float(yy[-1])
    return float(np.trapezoid(yy, tt) / (tt[-1] - tt[0]))


def volume_and_trace_run(
    theta0: SpectralField,
    n_tangent: int,
    config: SolverConfig,
    force: Force,
    *,
    reorth_every: int,
    t_relax: float,
    seed: int,
    tangent_band: int,
) -> VolumeTraceResult:
    """Co-evolve the base flow with ``n_tangent`` tangent fields.

    The base is first relaxed for ``t_relax`` (pre-conditioning onto the
    empirically absorbing region).  The ensemble is re-orthonormalized every
    ``reorth_every`` steps and at exactly ``config.t_end``, accumulating per-dimension
    log-volumes and trace samples.  A frame condition (:func:`_frame_condition`)
    above ``COLLAPSE_CONDITION`` after any coupled step raises
    :class:`EnsembleCollapseError` with advice to reduce the interval.  A
    blowup raises :class:`BlowupError` stamped with the time elapsed since
    ``theta0``, relax phase included.
    """
    if reorth_every < 1:
        raise ValueError("reorth_every must be >= 1")
    grid = theta0.grid
    stepper = CoupledStepper(grid, config, force)

    theta, t_relaxed = integrate(stepper.advance, stepper.cfl_dt, theta0, 0.0, t_relax, config.dt)

    raw = np.array([random_band_field(grid, tangent_band, 1.0, seed + 17 * j).coeffs
                    for j in range(n_tangent)])
    xs, _ = h1_gram_schmidt(grid, raw)

    def coupled_step(state, dt, t_run):
        theta, xs = stepper.step(state[0], state[1], dt, t=t_relaxed + t_run)
        condition = _frame_condition(grid, xs)
        if not condition <= COLLAPSE_CONDITION:
            raise EnsembleCollapseError(
                f"tangent frame condition {condition:.2e} exceeded trigger at "
                f"t={t_relaxed + t_run + dt:.6g}; reduce reorth_every (currently {reorth_every})"
            )
        return theta, xs

    def coupled_cfl_dt(state, dt, t_run):
        return stepper.cfl_dt(state[0], dt, t_relaxed + t_run)

    times = [0.0]
    traces = [_trace_per_m(theta, xs, config.kappa)]
    logv = [np.zeros(n_tangent)]
    acc = np.zeros(n_tangent)
    t_run = 0.0
    while t_run < config.t_end:
        (theta, xs), t_run = integrate(coupled_step, coupled_cfl_dt, (theta, xs),
                                       t_run, config.t_end, config.dt, max_steps=reorth_every)
        xs, increments = h1_gram_schmidt(grid, xs)
        acc = acc + np.cumsum(increments)
        times.append(t_run)
        traces.append(_trace_per_m(theta, xs, config.kappa))
        logv.append(acc.copy())

    times = np.asarray(times)
    traces = np.asarray(traces)
    logv = np.asarray(logv)

    averages = np.empty(n_tangent)
    converged = np.empty(n_tangent, dtype=bool)
    t_half = times[-1] / 2.0
    t_quarter = times[-1] / 4.0
    for m in range(n_tangent):
        second = _windowed_average(times, traces[:, m], t_half, times[-1])
        longer = _windowed_average(times, traces[:, m], t_quarter, times[-1])
        averages[m] = second
        denom = max(abs(second), 1e-12)
        converged[m] = abs(second - longer) / denom <= 0.05
    negative = np.nonzero(averages < 0.0)[0]
    empirical_n = int(negative[0] + 1) if len(negative) else n_tangent + 1

    return VolumeTraceResult(
        times=times,
        traces=traces,
        log_volume=logv,
        trace_averages=averages,
        average_converged=converged,
        empirical_N=empirical_n,
    )


def _h1_norm(grid: TorusGrid, c: np.ndarray) -> float:
    return math.sqrt(max(_h1_pair(grid, c, c), 0.0))


@dataclass
class FrechetResult:
    """Superlinear-approximation residual ``||eta(t)||_{H^1}/r`` per scale."""

    scales: np.ndarray
    ts: np.ndarray
    ratios: np.ndarray          # (len(ts), len(scales))
    slopes: np.ndarray          # log-log slope per t over retained scales


def frechet_residual(
    theta0: SpectralField,
    xi0: SpectralField,
    ts: Sequence[float],
    scales: Sequence[float],
    config: SolverConfig,
    force: Force,
) -> FrechetResult:
    """Differentiability test of the solution map along direction ``xi0``.

    For each scale r the nonlinear pair ``(theta0, theta0 + r*xi0_hat)`` and
    the tangent solution are advanced together; the returned ratios
    ``||S(t)(theta0 + r xi) - S(t)theta0 - r xi(t)||_{H^1}/r`` must decay with
    r (superlinearity).  Scales whose ratio is dominated by integration noise
    (a ratio at or below 1e-11) are excluded from the slopes.
    """
    ts = np.asarray(sorted(ts), dtype=np.float64)
    scales = np.asarray(sorted(scales, reverse=True), dtype=np.float64)
    grid = theta0.grid
    norm0 = _h1_norm(grid, xi0.coeffs)
    if norm0 == 0.0:
        return FrechetResult(scales=scales, ts=ts, ratios=np.zeros((len(ts), len(scales))),
                             slopes=np.zeros(len(ts)))
    xihat = xi0 * (1.0 / norm0)
    stepper = CoupledStepper(grid, config, force)

    def pair_step(state, dt, t):
        theta, xs, phi = state
        theta, xs = stepper.step(theta, xs, dt, t=t)
        return theta, xs, stepper.advance(phi, dt, t)

    def pair_cfl_dt(state, dt, t):
        return stepper.cfl_dt(state[0], dt, t)

    def advance_pairs(r: float):
        """Return eta ratios at the requested times for one scale."""
        state, t, ratios = (theta0, xihat.coeffs[None], theta0 + r * xihat), 0.0, []
        for t_target in ts:
            state, t = integrate(pair_step, pair_cfl_dt, state, t, t_target, config.dt)
            theta, xs, phi = state
            ratios.append(_h1_norm(grid, phi.coeffs - theta.coeffs - xs[0] * r) / r)
        return ratios

    ratios = np.array([advance_pairs(float(r)) for r in scales]).T  # (ts, scales)
    keep = ~np.any(ratios <= 1e-11, axis=0)
    log_r = np.log(scales[keep])
    slopes = np.array([np.polyfit(log_r, np.log(np.maximum(row[keep], 1e-300)), 1)[0]
                       if keep.sum() >= 2 else math.nan for row in ratios])
    return FrechetResult(scales=scales, ts=ts, ratios=ratios, slopes=slopes)
