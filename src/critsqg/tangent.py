"""Linearized dynamics along trajectories, volume elements, and the dimension bound.

The linearization of the SQG flow about a solution ``theta`` acts on a tangent
field ``xi`` as

    A_theta[xi] = -kappa*Lambda xi - u_theta . grad xi - u_xi . grad theta,

with ``u_phi`` the perpendicular-Riesz velocity of ``phi``.  Tangent fields are
advanced with the exact Frechet derivative of the nonlinear IMEX step (same
stages, same dealiasing), so the residual of the superlinear-approximation test
is the genuine quadratic remainder of the discrete flow and not an integrator
mismatch.

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
(``lambda_j >= sqrt(j)/c11``) and ``N = ceil((c10*c11*M_A^2/kappa^2)^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spectral import SpectralField, TorusGrid, _collocation, _product_coeffs, inner_h1
from .solver import BlowupError, Force, SolverConfig, _Stepper, nonlinear_term

__all__ = [
    "linearized_rhs",
    "CoupledStepper",
    "h1_gram_schmidt",
    "trace_Pn_A",
    "lattice_eigenvalues",
    "eigenvalue_count_constant",
    "VolumeTraceResult",
    "volume_and_trace_run",
    "dimension_bound",
    "trace_bound_curve",
    "FrechetResult",
    "frechet_residual",
    "ContinuityResult",
    "continuity_test",
    "EnsembleCollapseError",
]


class EnsembleCollapseError(RuntimeError):
    """Tangent frame became numerically degenerate between re-orthonormalizations."""


def _stack(grid: TorusGrid, fields: Sequence[SpectralField]) -> np.ndarray:
    """``(m, n, n)`` coefficient stack of ``m`` fields (``m`` may be 0)."""
    coeffs = np.array([f.coeffs for f in fields], dtype=np.complex128)
    return coeffs.reshape((len(fields),) + grid.shape)


def _transport_values(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """Collocation values ``(u_1, u_2, d_x, d_y)`` of each field of an ``(m, n, n)`` stack.

    ``u`` is the perpendicular-Riesz velocity and ``d`` the gradient; the
    ``(4, m, n, n)`` result comes from one batched inverse transform.
    """
    symbols = np.concatenate((grid.riesz_symbols, grid.gradient_symbols))
    return _collocation(grid, coeffs * symbols[:, None])


def _advection_coeffs(grid: TorusGrid, adv: np.ndarray, rule: str) -> np.ndarray:
    """Coefficients of ``-adv`` for a stack of collocation products, dealiased under ``rule``."""
    c = _product_coeffs(grid, -adv)
    return c * grid.dealias_mask if rule == "two-thirds" else c


def _transport_derivative(grid: TorusGrid, base: np.ndarray, coeffs: np.ndarray,
                          rule: str) -> np.ndarray:
    """Derivative of the SQG nonlinearity at theta along each field of a stack.

    ``base`` is ``_transport_values`` of theta, shape ``(4, 1, n, n)``, and
    ``coeffs`` the ``(m, n, n)`` tangent stack.  Returns the ``(m, n, n)`` stack
    of ``-(u_theta . grad xi + u_xi . grad theta)``, dealiased under ``rule``,
    from one batched inverse and one batched forward transform.
    """
    u1, u2, tx, ty = base
    w1, w2, gx, gy = _transport_values(grid, coeffs)
    adv = u1 * gx + u2 * gy
    adv += w1 * tx + w2 * ty
    return _advection_coeffs(grid, adv, rule)


def _linearized_stack(theta: SpectralField, coeffs: np.ndarray, kappa: float,
                      rule: str) -> np.ndarray:
    """``A_theta`` (transport derivative minus ``kappa*|k|``) on each field of a stack."""
    grid = theta.grid
    base = _transport_values(grid, theta.coeffs[None])
    return _transport_derivative(grid, base, coeffs, rule) - coeffs * grid.kmag * float(kappa)


def linearized_rhs(theta: SpectralField, xi: SpectralField, kappa: float,
                   rule: str = "two-thirds") -> SpectralField:
    """``A_theta[xi] = -kappa*Lambda xi - u_theta.grad xi - u_xi.grad theta``."""
    if theta.grid != xi.grid:
        raise ValueError("theta and xi live on different grids")
    out = _linearized_stack(theta, xi.coeffs[None], kappa, rule)
    return SpectralField._trusted(theta.grid, out[0])


class CoupledStepper:
    """Advance a base SQG state and tangent fields in lockstep.

    The tangent update is the exact derivative of the base IMEX-CN/Heun step:
    stage one linearizes about ``theta^n``, stage two about the predictor
    state, with identical implicit treatment of the dissipative symbol.

    The ``m`` tangents advance together as one ``(m, n, n)`` coefficient
    stack.  Each stage transforms the base velocity and gradient once, forms
    the base nonlinear term from them, and reuses them for every tangent.
    """

    def __init__(self, grid: TorusGrid, config: SolverConfig, force: Force):
        if grid.dim != 2:
            raise ValueError("tangent dynamics implemented on the 2-torus")
        if config.integrator != "imex-cn":
            raise ValueError("tangent stepping mirrors the imex-cn integrator")
        self._base = _Stepper(grid, config, force.field, nonlinear_term)
        self.grid = grid
        self.config = config

    def _rhs(self, coeffs: np.ndarray, xs: np.ndarray):
        """Explicit stage terms: ``N(theta) + f`` and the derivative stack along ``xs``."""
        rule = self.config.dealias
        base = _transport_values(self.grid, coeffs[None])
        u1, u2, tx, ty = base
        g = _advection_coeffs(self.grid, u1 * tx + u2 * ty, rule)[0] + self._base.force.coeffs
        # base-only steps (relax phases, the Frechet and continuity pairs) skip the empty stack
        return g, _transport_derivative(self.grid, base, xs, rule) if len(xs) else xs

    def step(self, theta: SpectralField, xis: Sequence[SpectralField], dt: float, *,
             t: float = 0.0):
        """Advance ``theta`` and the tangents ``xis`` by ``dt`` from time ``t``.

        A non-finite base or tangent coefficient raises :class:`BlowupError`
        stamped ``t + dt``, carrying ``theta``.
        """
        a, b = self._base._coefficients(dt)
        xs = _stack(self.grid, xis)
        g1, d1 = self._rhs(theta.coeffs, xs)
        g2, d2 = self._rhs((a * theta.coeffs + dt * g1) * b, (a * xs + dt * d1) * b)
        theta_new = (a * theta.coeffs + 0.5 * dt * (g1 + g2)) * b
        xs_new = (a * xs + 0.5 * dt * (d1 + d2)) * b
        if not (np.all(np.isfinite(theta_new)) and np.all(np.isfinite(xs_new))):
            raise BlowupError(t + dt, theta)
        return (SpectralField._trusted(self.grid, theta_new),
                [SpectralField._trusted(self.grid, x) for x in xs_new])

    def cfl_dt(self, theta: SpectralField, dt: float) -> float:
        return self._base.cfl_dt(theta, dt)


def h1_gram_schmidt(xis: Sequence[SpectralField]):
    """Modified Gram-Schmidt in the H^1 inner product.

    Returns ``(frame, increments)`` where ``increments[j] = log r_jj`` is the
    log of the diagonal factor of direction j; their prefix sums advance the
    per-dimension log-volumes.  Raises on a non-finite norm and on rank
    deficiency, reporting the offending index.
    """
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


def trace_Pn_A(theta: SpectralField, frame: Sequence[SpectralField], kappa: float) -> float:
    """``sum_j int (-Laplacian phi_j) A_theta[phi_j] dx`` over an H^1-orthonormal frame.

    Uses ``int (-Lap f) g = <f, g>_{H^1}``; the value does not depend on the
    orthonormalization chosen.  An empty frame contributes zero.
    """
    traces = _trace_per_m(theta, frame, kappa)
    return float(traces[-1]) if len(traces) else 0.0


def _trace_per_m(theta: SpectralField, frame: Sequence[SpectralField], kappa: float) -> np.ndarray:
    """Traces of ``P_m A_theta`` for ``m = 1..len(frame)``, from one stacked evaluation."""
    grid = theta.grid
    rhs = _linearized_stack(theta, _stack(grid, frame), kappa, "two-thirds")
    terms = np.array([inner_h1(phi, SpectralField._trusted(grid, r)) for phi, r in zip(frame, rhs)])
    return np.cumsum(terms)


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
    usable = mag[mag <= R]
    if len(usable) < count:
        raise ValueError("internal enumeration radius too small")
    return usable[:count]


def eigenvalue_count_constant(count: int = 10**4) -> float:
    """Minimal c11 with ``lambda_j >= sqrt(j)/c11`` over the first ``count`` eigenvalues."""
    lam = lattice_eigenvalues(count)
    j = np.arange(1, count + 1, dtype=np.float64)
    return float(np.max(np.sqrt(j) / lam))


def trace_bound_curve(m, kappa: float, M_A: float, c10: float, c11: float):
    """Trace-bound curve ``-kappa*m^{3/2}/c11 + m*c10*M_A^2/kappa``."""
    m = np.asarray(m, dtype=np.float64)
    return -kappa * m**1.5 / c11 + m * c10 * M_A**2 / kappa


def dimension_bound(kappa: float, M_A: float, c10: float, c11: float) -> int:
    """Attractor-dimension bound ``N = ceil((c10*c11*M_A^2/kappa^2)^2)``.

    The square and ceiling are taken in exact rational arithmetic so that the
    trace-bound curve is strictly negative at N (floats lose that strictness
    once N outgrows 2^52).
    """
    from fractions import Fraction

    x = c10 * c11 * M_A**2 / kappa**2
    return int(math.ceil(Fraction(x) ** 2))


def bound_curve_negative_at(n: int, kappa: float, M_A: float, c10: float, c11: float) -> bool:
    """Exact sign test of the trace-bound curve at integer n.

    ``curve(n) < 0  iff  n > (c10*c11*M_A^2/kappa^2)^2``, decided in rational
    arithmetic on the float inputs.
    """
    from fractions import Fraction

    x = c10 * c11 * M_A**2 / kappa**2
    return Fraction(int(n)) > Fraction(x) ** 2


@dataclass
class VolumeTraceResult:
    """Output of a co-evolved base + tangent-ensemble run."""

    times: np.ndarray                # re-orthonormalization instants
    traces: np.ndarray               # (len(times), n) trace of P_m A for m = 1..n
    log_volume: np.ndarray           # (len(times), n) log V_m accumulated
    trace_averages: np.ndarray       # second-half time average per m
    average_converged: np.ndarray    # Cauchy-over-doubling flags per m
    empirical_N: int                 # smallest m with negative trace average
    identity_residual: float         # |log V_n - int Tr(P_n A)| at the final time

    def running_average(self, m: int) -> np.ndarray:
        tr = self.traces[:, m - 1]
        t = self.times
        out = np.zeros_like(tr)
        if len(t) > 1:
            integ = np.concatenate([[0.0], np.cumsum(0.5 * (tr[1:] + tr[:-1]) * np.diff(t))])
            span = np.maximum(t - t[0], 1e-300)
            out = integ / span
            out[0] = tr[0]
        return out

    def identity_residual_at(self, t: float, m: int = None) -> float:
        """``|log V_m(t) - log V_m(0) - int_0^t Tr(P_m A)|`` at the sample nearest t."""
        if m is None:
            m = self.traces.shape[1]
        i = int(np.argmin(np.abs(self.times - t)))
        integral = np.trapezoid(self.traces[: i + 1, m - 1], self.times[: i + 1])
        return abs(float(self.log_volume[i, m - 1] - self.log_volume[0, m - 1] - integral))


def _windowed_average(t: np.ndarray, y: np.ndarray, t_from: float, t_to: float) -> float:
    mask = (t >= t_from - 1e-12) & (t <= t_to + 1e-12)
    tt, yy = t[mask], y[mask]
    if len(tt) < 2:
        return float(yy[-1]) if len(yy) else 0.0
    return float(np.trapezoid(yy, tt) / (tt[-1] - tt[0]))


def volume_and_trace_run(
    theta0: SpectralField,
    n_tangent: int,
    config: SolverConfig,
    force: Force,
    t_end: float,
    reorth_every: int = 20,
    t_relax: float = 0.0,
    seed: int = 7,
    tangent_band: int = 4,
    condition_trigger: float = 1e6,
) -> VolumeTraceResult:
    """Co-evolve the base flow with ``n_tangent`` tangent fields.

    The base is first relaxed for ``t_relax`` (pre-conditioning onto the
    empirically absorbing region).  The ensemble is re-orthonormalized every
    ``reorth_every`` steps, accumulating per-dimension log-volumes and trace
    samples; collapse in between raises :class:`EnsembleCollapseError` with
    advice to reduce the interval.  A blowup raises :class:`BlowupError`
    stamped with the time elapsed since ``theta0``, relax phase included.
    """
    if n_tangent < 1:
        raise ValueError("n_tangent must be >= 1")
    grid = theta0.grid
    stepper = CoupledStepper(grid, config, force)

    theta = theta0
    t = 0.0
    while t < t_relax - 1e-12:
        dt = min(stepper.cfl_dt(theta, config.dt), t_relax - t)
        theta, _ = stepper.step(theta, (), dt, t=t)
        t += dt

    from .solver import random_band_field

    raw = [random_band_field(grid, tangent_band, 1.0, seed + 17 * j) for j in range(n_tangent)]
    frame, _ = h1_gram_schmidt(raw)
    xis = list(frame)

    times = [0.0]
    traces = [_trace_per_m(theta, xis, config.kappa)]
    logv = [np.zeros(n_tangent)]
    acc = np.zeros(n_tangent)
    t_run = 0.0
    while t_run < t_end - 1e-12:
        for _ in range(reorth_every):
            if t_run >= t_end - 1e-12:
                break
            dt = min(stepper.cfl_dt(theta, config.dt), t_end - t_run)
            theta, xis = stepper.step(theta, xis, dt, t=t + t_run)
            t_run += dt
        norms = [math.sqrt(max(inner_h1(xi, xi), 0.0)) for xi in xis]
        top, bot = max(norms), min(norms)
        if bot <= 0.0 or top / max(bot, 1e-300) > condition_trigger:
            raise EnsembleCollapseError(
                f"tangent frame condition {top / max(bot, 1e-300):.2e} exceeded trigger; "
                f"reduce reorth_every (currently {reorth_every})"
            )
        frame, increments = h1_gram_schmidt(xis)
        xis = list(frame)
        acc = acc + np.cumsum(increments)
        times.append(t_run)
        traces.append(_trace_per_m(theta, xis, config.kappa))
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

    integral = np.trapezoid(traces[:, -1], times)
    residual = abs(float(logv[-1, -1] - logv[0, -1] - integral))
    return VolumeTraceResult(
        times=times,
        traces=traces,
        log_volume=logv,
        trace_averages=averages,
        average_converged=converged,
        empirical_N=empirical_n,
        identity_residual=residual,
    )


@dataclass
class FrechetResult:
    """Superlinear-approximation residual ``||eta(t)||_{H^1}/r`` per scale."""

    scales: np.ndarray
    ts: np.ndarray
    ratios: np.ndarray          # (len(ts), len(scales))
    slopes: np.ndarray          # log-log slope per t over retained scales
    excluded: list              # scales dropped as noise-floor dominated


def frechet_residual(
    theta0: SpectralField,
    xi0: SpectralField,
    ts: Sequence[float],
    scales: Sequence[float],
    config: SolverConfig,
    force: Force,
    noise_floor: float = 1e-11,
) -> FrechetResult:
    """Differentiability test of the solution map along direction ``xi0``.

    For each scale r the nonlinear pair ``(theta0, theta0 + r*xi0_hat)`` and
    the tangent solution are advanced together; the returned ratios
    ``||S(t)(theta0 + r xi) - S(t)theta0 - r xi(t)||_{H^1}/r`` must decay with
    r (superlinearity).  Scales whose ratio is dominated by integration noise
    are excluded and reported.
    """
    ts = np.asarray(sorted(ts), dtype=np.float64)
    scales = np.asarray(sorted(scales, reverse=True), dtype=np.float64)
    norm0 = math.sqrt(max(inner_h1(xi0, xi0), 0.0))
    if norm0 == 0.0:
        return FrechetResult(scales=scales, ts=ts, ratios=np.zeros((len(ts), len(scales))),
                             slopes=np.zeros(len(ts)), excluded=[])
    xihat = xi0 * (1.0 / norm0)
    grid = theta0.grid
    stepper = CoupledStepper(grid, config, force)

    def advance_pairs(r: float):
        """Return eta ratios at the requested times for one scale."""
        theta = theta0
        phi = theta0 + r * xihat
        xi = xihat
        out = []
        t = 0.0
        for t_target in ts:
            while t < t_target - 1e-12:
                dt = min(stepper.cfl_dt(theta, config.dt), t_target - t)
                theta, (xi,) = stepper.step(theta, (xi,), dt, t=t)
                phi, _ = stepper.step(phi, (), dt, t=t)
                t += dt
            eta = phi - theta - r * xi
            out.append(math.sqrt(max(inner_h1(eta, eta), 0.0)) / r)
        return out

    ratios = np.array([advance_pairs(float(r)) for r in scales]).T  # (ts, scales)
    excluded = []
    keep = np.ones(len(scales), dtype=bool)
    for j, r in enumerate(scales):
        if np.any(ratios[:, j] <= noise_floor):
            keep[j] = False
            excluded.append(float(r))
    slopes = np.empty(len(ts))
    for i in range(len(ts)):
        xs = np.log(scales[keep])
        ys = np.log(np.maximum(ratios[i, keep], 1e-300))
        if keep.sum() >= 2:
            slopes[i] = float(np.polyfit(xs, ys, 1)[0])
        else:
            slopes[i] = math.nan
    return FrechetResult(scales=scales, ts=ts, ratios=ratios, slopes=slopes, excluded=excluded)


@dataclass
class ContinuityResult:
    t: np.ndarray
    ratio: np.ndarray
    status: str  # "ok" | "degenerate"


def continuity_test(
    theta0: SpectralField,
    perturbation: SpectralField,
    t_grid: Sequence[float],
    config: SolverConfig,
    force: Force,
) -> ContinuityResult:
    """Growth factor ``||S(t)theta0 - S(t)theta0~||_{H^1} / ||theta0 - theta0~||_{H^1}``.

    Identical data (zero perturbation) returns an empty series with a
    degenerate status instead of dividing by zero.
    """
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    base_norm = math.sqrt(max(inner_h1(perturbation, perturbation), 0.0))
    if base_norm == 0.0:
        return ContinuityResult(t=t_grid, ratio=np.array([]), status="degenerate")
    stepper = CoupledStepper(theta0.grid, config, force)
    theta = theta0
    other = theta0 + perturbation
    out = []
    t = 0.0
    for t_target in t_grid:
        while t < t_target - 1e-12:
            dt = min(stepper.cfl_dt(theta, config.dt), t_target - t)
            theta, _ = stepper.step(theta, (), dt, t=t)
            other, _ = stepper.step(other, (), dt, t=t)
            t += dt
        diff = other - theta
        out.append(math.sqrt(max(inner_h1(diff, diff), 0.0)) / base_norm)
    return ContinuityResult(t=t_grid, ratio=np.asarray(out), status="ok")
