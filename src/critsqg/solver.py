"""Time integration of forced critical SQG and 1D critical Burgers.

The evolved systems, on mean-free periodic fields:

* SQG on T^2:      d/dt theta + u . grad theta + kappa*Lambda theta = f,
                   with u = (-R_2 theta, R_1 theta);
* Burgers on T:    d/dt theta + theta theta_x + Lambda theta = f,
                   with the transport in conservative form (theta^2/2)_x.

The one time-stepping scheme is IMEX Crank-Nicolson: the stiff diagonal part
``kappa*|k|`` is treated implicitly, the nonlinear term explicitly with Heun
stages.  Products are formed pseudo-spectrally on the collocation grid and
dealiased with the two-thirds rule; every step re-projects onto mean-free
fields.  An advective CFL controller halves the step when
``dt * ||u||_inf * n / (2*pi)`` exceeds the configured budget, and snapshots
are hit exactly with one short final substep.

The solver never certifies regularity: NaN/Inf states raise ``BlowupError``
carrying the last valid state for a diagnostic dump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .snapshots import read_snapshot
from .spectral import (
    SpectralField,
    TorusGrid,
    _packed_values,
    _product_coeffs,
    lp_norm,
    norm_report,
    resample,
    sobolev_norm,
)

__all__ = [
    "SolverConfig",
    "FieldSpec",
    "Force",
    "Trajectory",
    "BlowupError",
    "random_band_field",
    "build_field",
    "build_force",
    "nonlinear_term",
    "burgers_nonlinear_term",
    "velocity_max",
    "integrate",
    "run",
]


class BlowupError(RuntimeError):
    """Integration produced NaN/Inf or a runaway velocity; carries the last valid state and time."""

    def __init__(self, t: float, last_state: SpectralField, cause: str = "NaN/Inf in field"):
        super().__init__(f"integration blew up at t={t:.6g} ({cause})")
        self.t = t
        self.last_state = last_state


@dataclass(frozen=True)
class SolverConfig:
    """Integration parameters."""

    kappa: float
    dt: float
    t_end: float
    cfl_budget: float = 0.5
    snapshot_dt: float = 0.1

    def __post_init__(self):
        # each message starts with the name of the offending field
        for name in ("kappa", "dt", "snapshot_dt", "cfl_budget"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.t_end >= 0:
            raise ValueError("t_end must be >= 0")


@dataclass(frozen=True)
class FieldSpec:
    """Declarative recipe for an initial condition or force field.

    Kinds: ``zero``; ``single_mode`` (amplitude * cos(k . x));
    ``random_band`` (seeded random field supported on |k| <= band, scaled to
    the requested L^inf amplitude); ``file`` (binary snapshot path).
    """

    kind: str = "zero"
    k: tuple = (1, 0)
    amplitude: float = 1.0
    band: int = 4
    seed: int = 0
    path: str = ""


def random_band_field(grid: TorusGrid, band: int, amplitude: float, seed: int) -> SpectralField:
    """Seeded mean-free random field with ``|k| <= band``, ``||.||_inf = amplitude``.

    Both the coefficient draw order and the L^inf normalization (measured on a
    fixed band-derived reference grid) are independent of ``grid.n``, so the
    same (seed, band, amplitude) names the same field at every resolution.
    """
    rng = np.random.default_rng(seed)
    kmag = grid.kmag
    mask = (kmag > 0) & (kmag <= band)
    c = np.zeros(grid.shape, dtype=np.complex128)
    c[mask] = rng.normal(size=int(mask.sum())) + 1j * rng.normal(size=int(mask.sum()))
    f = SpectralField.from_coeffs(grid, c)
    n_ref = 8
    while n_ref < 16 * band:
        n_ref *= 2
    top = float(np.abs(resample(f, n_ref).values()).max())
    if top == 0.0 or amplitude == 0.0:
        return SpectralField.zeros(grid)
    return f * (amplitude / top)


def build_field(spec: FieldSpec, grid: TorusGrid) -> SpectralField:
    """The field ``spec`` names on ``grid``; ``config.build_setup`` checks a recipe's values."""
    if spec.kind == "zero":
        return SpectralField.zeros(grid)
    if spec.kind == "single_mode":
        kvec = np.asarray(spec.k[: grid.dim], dtype=np.float64)
        phase = sum(kc * x for kc, x in zip(kvec, grid._mesh(grid.coords)))
        return SpectralField.from_values(grid, spec.amplitude * np.cos(phase))
    if spec.kind == "random_band":
        return random_band_field(grid, spec.band, spec.amplitude, spec.seed)
    if spec.kind != "file":
        raise ValueError(f"unknown field kind {spec.kind!r}")
    fld, _t = read_snapshot(spec.path)
    if fld.grid != grid:
        raise ValueError(f"snapshot grid {fld.grid} does not match run grid {grid}")
    return fld


@dataclass(frozen=True)
class Force:
    """Time-independent force with its cached norms."""

    field: SpectralField
    linf: float
    h1: float

    @staticmethod
    def wrap(field: SpectralField) -> "Force":
        return Force(field=field, linf=lp_norm(field, np.inf), h1=sobolev_norm(field, 1.0))


def build_force(spec: FieldSpec, grid: TorusGrid) -> Force:
    return Force.wrap(build_field(spec, grid))


def _transport_values(grid: TorusGrid, coeffs: np.ndarray) -> tuple:
    """Collocation values ``(u_1, u_2, d_x, d_y)`` of each field of an ``(m, n, n)`` stack.

    ``u`` is the perpendicular-Riesz velocity and ``d`` the gradient; the four
    ``(m, n, n)`` real arrays are views of one batched inverse transform of the
    packed symbols, ``u_1 + i*u_2`` and ``d_x + i*d_y``.
    """
    c = _packed_values(grid, coeffs, grid.transport_symbols[:, None])
    return c[0].real, c[0].imag, c[1].real, c[1].imag


def _advection_coeffs(grid: TorusGrid, adv: np.ndarray) -> np.ndarray:
    """Coefficients of ``-adv`` for a stack of collocation products, dealiased (two-thirds rule)."""
    c = _product_coeffs(grid, -adv)
    c *= grid.dealias_mask
    return c


def nonlinear_term(grid: TorusGrid, values: tuple) -> np.ndarray:
    """Coefficients of ``-u . grad theta`` for SQG, dealiased and mean-free, per field of a stack.

    ``values`` is the :func:`_transport_values` of an ``(m, n, n)`` stack;
    the result is the ``(m, n, n)`` stack of the pseudo-spectral products.
    """
    u1, u2, gx, gy = values
    return _advection_coeffs(grid, u1 * gx + u2 * gy)


def _transport_derivative(grid: TorusGrid, base: tuple, coeffs: np.ndarray) -> np.ndarray:
    """Derivative of the SQG nonlinearity at theta along each field of a stack.

    ``base`` is ``_transport_values`` of theta, four ``(1, n, n)`` arrays, and
    ``coeffs`` the ``(m, n, n)`` tangent stack.  Returns the ``(m, n, n)`` stack
    of ``-(u_theta . grad xi + u_xi . grad theta)``, dealiased, from one
    batched inverse and one batched forward transform.
    """
    u1, u2, tx, ty = base
    w1, w2, gx, gy = _transport_values(grid, coeffs)
    adv = u1 * gx + u2 * gy
    adv += w1 * tx + w2 * ty
    return _advection_coeffs(grid, adv)


def burgers_nonlinear_term(theta: SpectralField) -> SpectralField:
    """``-(theta^2 / 2)_x`` in conservative form, dealiased, mean-free."""
    grid = theta.grid
    c = _advection_coeffs(grid, theta.values() ** 2)
    return SpectralField._trusted(grid, c * grid.gradient_symbols[0] * 0.5)


def velocity_max(theta: SpectralField) -> float:
    """``||u||_inf`` of the advecting velocity (the scalar itself in 1D)."""
    if theta.grid.dim == 1:
        return float(np.abs(theta.values()).max())
    u = _packed_values(theta.grid, theta.coeffs, theta.grid.transport_symbols[0])
    return float(np.sqrt(u.real**2 + u.imag**2).max())


class _Stepper:
    """One IMEX Crank-Nicolson step with a per-dt coefficient cache.

    The explicit part uses Heun stages around the Crank-Nicolson treatment of
    the diagonal symbol ``L = kappa*|k|``, which makes
    single-mode steady states exact fixed points.
    The stages carry an ``(m, n, n)`` stack of tangent coefficients beside the
    base state; the one stage body ``_rhs`` also forms their derivative terms.
    """

    def __init__(self, grid: TorusGrid, config: SolverConfig, force: SpectralField):
        self.grid = grid
        self.config = config
        self.force = force
        self.L = config.kappa * grid.kmag
        self._coef: dict = {}
        self._no_tangents = np.zeros((0,) + grid.shape, dtype=np.complex128)
        self.cfl_reductions = 0

    def _coefficients(self, dt: float):
        """The Crank-Nicolson pair ``(a, b) = (1 - dt*L/2, 1/(1 + dt*L/2))`` for ``dt``."""
        got = self._coef.get(dt)
        if got is None:
            got = self._coef[dt] = (1.0 - 0.5 * dt * self.L, 1.0 / (1.0 + 0.5 * dt * self.L))
        return got

    def _rhs(self, coeffs: np.ndarray, xs: np.ndarray):
        """Stage terms ``N(theta) + f`` and ``DN(theta)`` on each field of ``xs``.

        One set of base transforms serves both; in 1D ``xs`` is always empty.
        """
        grid = self.grid
        if grid.dim == 1:
            theta = SpectralField._trusted(grid, coeffs)
            return burgers_nonlinear_term(theta).coeffs + self.force.coeffs, xs
        base = _transport_values(grid, coeffs[None])
        g = nonlinear_term(grid, base)[0] + self.force.coeffs
        return g, (_transport_derivative(grid, base, xs) if len(xs) else xs)

    def _heun(self, theta: SpectralField, xs: np.ndarray, dt: float, t: float):
        """Step ``theta`` and stack ``xs`` by ``dt`` from ``t``; NaN/Inf is a blowup at ``t+dt``."""
        a, b = self._coefficients(dt)
        coeffs = theta.coeffs
        g1, d1 = self._rhs(coeffs, xs)
        g2, d2 = self._rhs((a * coeffs + dt * g1) * b, (a * xs + dt * d1) * b)
        new, xs_new = (a * coeffs + 0.5 * dt * (g1 + g2)) * b, (a * xs + 0.5 * dt * (d1 + d2)) * b
        if not (np.all(np.isfinite(new)) and np.all(np.isfinite(xs_new))):
            raise BlowupError(t + dt, theta)
        return new, xs_new

    def advance(self, theta: SpectralField, dt: float, t: float = 0.0) -> SpectralField:
        """``theta`` advanced by ``dt`` from time ``t``; a blowup is stamped ``t + dt``."""
        return SpectralField._trusted(self.grid, self._heun(theta, self._no_tangents, dt, t)[0])

    def cfl_dt(self, theta: SpectralField, dt: float, t: float = 0.0) -> float:
        """``dt`` halved until it meets the advective CFL budget of ``theta`` at time ``t``.

        A non-finite velocity, or a step that would fall below ``config.dt *
        2**-40``, is a blowup stamped ``t``.
        """
        umax = velocity_max(theta)
        if not math.isfinite(umax):
            raise BlowupError(t, theta, "non-finite velocity")
        if umax <= 0:
            return dt
        budget = self.config.cfl_budget * 2.0 * np.pi / (umax * self.grid.n)
        if dt > budget:
            self.cfl_reductions += 1
        floor = self.config.dt * 2.0**-40
        while dt > budget:
            dt *= 0.5
            if dt < floor:
                raise BlowupError(t, theta, f"CFL step below {floor:.3g}, velocity {umax:.3g}")
        return dt


def integrate(step: Callable, cfl_dt: Callable, state, t: float, target: float, dt: float,
              max_steps: Optional[int] = None):
    """Step ``state`` from ``t`` towards ``target`` and return ``(state, t)``.

    Each step is ``state = step(state, h, t)`` with ``h = min(cfl_dt(state,
    dt, t), target - t)``; a blowup raises :class:`BlowupError` stamped
    ``t + h`` (``t`` when the CFL rule finds no usable step).  Stops after
    ``max_steps`` steps, or within 1e-12 of ``target`` and then returns ``t``
    as exactly ``target``.
    """
    steps = 0
    while t < target - 1e-12 and (max_steps is None or steps < max_steps):
        h = min(cfl_dt(state, dt, t), target - t)
        state = step(state, h, t)
        t += h
        steps += 1
    return state, (target if t >= target - 1e-12 else t)


@dataclass
class Trajectory:
    """Snapshots of one run plus per-snapshot norm records."""

    times: list
    fields: list
    reports: list
    config: SolverConfig
    force: Force
    cfl_reductions: int = 0


def run(
    theta0: SpectralField,
    config: SolverConfig,
    force: Force,
    report_ps=(),
) -> Trajectory:
    """Integrate to ``t_end``, recording snapshots every ``snapshot_dt``.

    The last snapshot is taken at exactly ``t_end``, also when ``t_end`` is not
    a multiple of ``snapshot_dt`` (the last interval is then shorter).  Each
    snapshot gets a norm report, with L^p for 2, 4, inf and ``report_ps``.
    Blowup propagates as :class:`BlowupError`.
    """
    stepper = _Stepper(theta0.grid, config, force.field)

    def snap(t, fld, traj):
        traj.times.append(t)
        traj.fields.append(fld)
        traj.reports.append(norm_report(fld, report_ps))

    traj = Trajectory(times=[], fields=[], reports=[], config=config, force=force)
    theta = theta0
    snap(0.0, theta, traj)
    # a horizon within 1e-9 snapshot intervals of a multiple gets no extra sliver
    n_snaps = math.ceil(config.t_end / config.snapshot_dt - 1e-9)
    t = 0.0
    for i in range(1, n_snaps + 1):
        t_target = config.t_end if i == n_snaps else i * config.snapshot_dt
        theta, t = integrate(stepper.advance, stepper.cfl_dt, theta, t, t_target, config.dt)
        snap(t, theta, traj)
    traj.cfl_reductions = stepper.cfl_reductions
    return traj
