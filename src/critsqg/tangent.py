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
from fractions import Fraction
from typing import Sequence

import numpy as np

from .spectral import SpectralField, TorusGrid, _h1_gram, _h1_pair
from .solver import (
    BlowupError,
    Force,
    SolverConfig,
    _advection_coeffs,
    _sqg_advection,
    _Stepper,
    _transport_values,
    integrate,
    random_band_field,
)

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


def _transport_derivative(grid: TorusGrid, base: tuple, coeffs: np.ndarray,
                          rule: str) -> np.ndarray:
    """Derivative of the SQG nonlinearity at theta along each field of a stack.

    ``base`` is ``_transport_values`` of theta, four ``(1, n, n)`` arrays, and
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


def linearized_rhs(theta: SpectralField, xi: SpectralField, kappa: float) -> SpectralField:
    """``A_theta[xi] = -kappa*Lambda xi - u_theta.grad xi - u_xi.grad theta``, dealiased."""
    if theta.grid != xi.grid:
        raise ValueError("theta and xi live on different grids")
    out = _linearized_stack(theta, xi.coeffs[None], kappa, "two-thirds")
    return SpectralField._trusted(theta.grid, out[0])


class CoupledStepper(_Stepper):
    """Advance a base SQG state and tangent fields in lockstep.

    The tangent update is the exact derivative of the base Heun step (IMEX-CN
    or ETDRK2): both go through the one stage body of :class:`_Stepper`, which
    carries the tangents as an ``(m, n, n)`` coefficient stack.  Stage one
    linearizes about ``theta^n``, stage two about the predictor state, with
    identical treatment of the dissipative symbol.  Each stage transforms the
    base velocity and gradient once, forms the base nonlinear term from them,
    and reuses them for every tangent.  Base-only steps are the inherited
    :meth:`checked_advance`.
    """

    def __init__(self, grid: TorusGrid, config: SolverConfig, force: Force):
        if grid.dim != 2:
            raise ValueError("tangent dynamics implemented on the 2-torus")
        super().__init__(grid, config, force.field)

    def _rhs(self, coeffs: np.ndarray, xs: np.ndarray):
        """Base stage term and derivative stack from one set of base transforms."""
        if not len(xs):
            return super()._rhs(coeffs, xs)
        rule = self.config.dealias
        base = _transport_values(self.grid, coeffs[None])
        return (_sqg_advection(self.grid, base, rule)[0] + self.force.coeffs,
                _transport_derivative(self.grid, base, xs, rule))

    def step(self, theta: SpectralField, xs: np.ndarray, dt: float, *, t: float = 0.0):
        """Advance ``theta`` and the ``(m, n, n)`` tangent stack ``xs`` by ``dt`` from time ``t``.

        Returns the new base field and a new read-only stack.  A non-finite
        base or tangent coefficient raises :class:`BlowupError` stamped
        ``t + dt``, carrying ``theta``.
        """
        if xs.shape[1:] != self.grid.shape:
            raise ValueError(f"tangent stack shape {xs.shape} does not match grid {self.grid.shape}")
        theta_new, xs_new = self._heun(theta.coeffs, xs, dt)
        if not (np.all(np.isfinite(theta_new)) and np.all(np.isfinite(xs_new))):
            raise BlowupError(t + dt, theta)
        xs_new.setflags(write=False)
        return SpectralField._trusted(self.grid, theta_new), xs_new

    def lead_cfl_dt(self, state: tuple, dt: float, t: float) -> float:
        """``cfl_dt`` of a tuple state led by the base: every member takes the base's step."""
        return self.cfl_dt(state[0], dt, t)


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


def trace_Pn_A(theta: SpectralField, xs: np.ndarray, kappa: float) -> float:
    """``sum_j int (-Laplacian phi_j) A_theta[phi_j] dx`` over an H^1-orthonormal frame stack.

    Uses ``int (-Lap f) g = <f, g>_{H^1}``; the value does not depend on the
    orthonormalization chosen.  An empty frame contributes zero.
    """
    traces = _trace_per_m(theta, xs, kappa)
    return float(traces[-1]) if len(traces) else 0.0


def _trace_per_m(theta: SpectralField, xs: np.ndarray, kappa: float,
                 rule: str = "two-thirds") -> np.ndarray:
    """Traces of ``P_m A_theta`` for ``m = 1..len(xs)``, from one stacked evaluation.

    ``rule`` must be the dealias rule the frame was stepped under.
    """
    grid = theta.grid
    rhs = _linearized_stack(theta, xs, kappa, rule)
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
    x = c10 * c11 * M_A**2 / kappa**2
    return int(math.ceil(Fraction(x) ** 2))


def bound_curve_negative_at(n: int, kappa: float, M_A: float, c10: float, c11: float) -> bool:
    """Exact sign test of the trace-bound curve at integer n.

    ``curve(n) < 0  iff  n > (c10*c11*M_A^2/kappa^2)^2``, decided in rational
    arithmetic on the float inputs.
    """
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
    ``reorth_every`` steps and at exactly ``t_end``, accumulating per-dimension
    log-volumes and trace samples.  A frame condition (:func:`_frame_condition`)
    above ``condition_trigger`` after any coupled step raises
    :class:`EnsembleCollapseError` with advice to reduce the interval.  A
    blowup raises :class:`BlowupError` stamped with the time elapsed since
    ``theta0``, relax phase included.
    """
    if n_tangent < 1:
        raise ValueError("n_tangent must be >= 1")
    grid = theta0.grid
    stepper = CoupledStepper(grid, config, force)

    theta, t_relaxed = integrate(stepper.checked_advance, stepper.cfl_dt, theta0, 0.0, t_relax,
                                 config.dt)

    raw = np.array([random_band_field(grid, tangent_band, 1.0, seed + 17 * j).coeffs
                    for j in range(n_tangent)])
    xs, _ = h1_gram_schmidt(grid, raw)

    def coupled_step(state, dt, t_run):
        theta, xs = stepper.step(state[0], state[1], dt, t=t_relaxed + t_run)
        condition = _frame_condition(grid, xs)
        if not condition <= condition_trigger:
            raise EnsembleCollapseError(
                f"tangent frame condition {condition:.2e} exceeded trigger at "
                f"t={t_relaxed + t_run + dt:.6g}; reduce reorth_every (currently {reorth_every})"
            )
        return theta, xs

    def coupled_cfl_dt(state, dt, t_run):
        return stepper.lead_cfl_dt(state, dt, t_relaxed + t_run)

    times = [0.0]
    traces = [_trace_per_m(theta, xs, config.kappa, config.dealias)]
    logv = [np.zeros(n_tangent)]
    acc = np.zeros(n_tangent)
    t_run = 0.0
    while t_run < t_end:
        (theta, xs), t_run = integrate(coupled_step, coupled_cfl_dt, (theta, xs),
                                       t_run, t_end, config.dt, max_steps=reorth_every)
        xs, increments = h1_gram_schmidt(grid, xs)
        acc = acc + np.cumsum(increments)
        times.append(t_run)
        traces.append(_trace_per_m(theta, xs, config.kappa, config.dealias))
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


def _gap_norms(stepper: CoupledStepper, step, state: tuple, ts: np.ndarray, dt: float,
               gap) -> list:
    """``||gap(*state)||_{H^1}`` at each sorted time ``ts``, ``state`` led by the base from t = 0."""
    out = []
    t = 0.0
    for t_target in ts:
        state, t = integrate(step, stepper.lead_cfl_dt, state, t, t_target, dt)
        out.append(_h1_norm(stepper.grid, gap(*state)))
    return out


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
) -> FrechetResult:
    """Differentiability test of the solution map along direction ``xi0``.

    For each scale r the nonlinear pair ``(theta0, theta0 + r*xi0_hat)`` and
    the tangent solution are advanced together; the returned ratios
    ``||S(t)(theta0 + r xi) - S(t)theta0 - r xi(t)||_{H^1}/r`` must decay with
    r (superlinearity).  Scales whose ratio is dominated by integration noise
    (a ratio at or below 1e-11) are excluded and reported.
    """
    ts = np.asarray(sorted(ts), dtype=np.float64)
    scales = np.asarray(sorted(scales, reverse=True), dtype=np.float64)
    grid = theta0.grid
    norm0 = _h1_norm(grid, xi0.coeffs)
    if norm0 == 0.0:
        return FrechetResult(scales=scales, ts=ts, ratios=np.zeros((len(ts), len(scales))),
                             slopes=np.zeros(len(ts)), excluded=[])
    xihat = xi0 * (1.0 / norm0)
    stepper = CoupledStepper(grid, config, force)

    def pair_step(state, dt, t):
        theta, xs, phi = state
        theta, xs = stepper.step(theta, xs, dt, t=t)
        return theta, xs, stepper.checked_advance(phi, dt, t)

    def advance_pairs(r: float):
        """Return eta ratios at the requested times for one scale."""
        state = (theta0, xihat.coeffs[None], theta0 + r * xihat)
        norms = _gap_norms(stepper, pair_step, state, ts, config.dt,
                           lambda theta, xs, phi: phi.coeffs - theta.coeffs - xs[0] * r)
        return [eta / r for eta in norms]

    ratios = np.array([advance_pairs(float(r)) for r in scales]).T  # (ts, scales)
    keep = ~np.any(ratios <= 1e-11, axis=0)
    log_r = np.log(scales[keep])
    slopes = np.array([np.polyfit(log_r, np.log(np.maximum(row[keep], 1e-300)), 1)[0]
                       if keep.sum() >= 2 else math.nan for row in ratios])
    return FrechetResult(scales=scales, ts=ts, ratios=ratios, slopes=slopes,
                         excluded=[float(r) for r in scales[~keep]])


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
    base_norm = _h1_norm(theta0.grid, perturbation.coeffs)
    if base_norm == 0.0:
        return ContinuityResult(t=t_grid, ratio=np.array([]), status="degenerate")
    stepper = CoupledStepper(theta0.grid, config, force)

    def pair_step(state, dt, t):
        return tuple(stepper.checked_advance(fld, dt, t) for fld in state)

    norms = _gap_norms(stepper, pair_step, (theta0, theta0 + perturbation), t_grid, config.dt,
                       lambda theta, other: other.coeffs - theta.coeffs)
    return ContinuityResult(t=t_grid, ratio=np.asarray(norms) / base_norm, status="ok")
