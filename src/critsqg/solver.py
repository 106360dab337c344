"""Time integration of forced critical SQG, its regularization, and 1D critical Burgers.

The evolved systems, on mean-free periodic fields:

* SQG on T^2:      d/dt theta + u . grad theta + kappa*Lambda theta = f,
                   with u = (-R_2 theta, R_1 theta);
* regularized:     an extra ``-epsilon*Laplacian`` damping and a mollified
                   force ``J_eps f`` (spectral Gaussian mollifier);
* Burgers on T:    d/dt theta + theta theta_x + Lambda theta = f,
                   with the transport in conservative form (theta^2/2)_x.

The stiff diagonal part ``kappa*|k| + epsilon*|k|^2`` is treated implicitly
(Crank-Nicolson) or exponentially (ETDRK2); the nonlinear term explicitly with
Heun stages.  Products are formed pseudo-spectrally on the collocation grid and
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
from typing import Callable, Sequence

import numpy as np

from .spectral import (
    SpectralField,
    TorusGrid,
    dealias,
    gradient,
    inner_l2,
    lp_norm,
    norm_report,
    riesz_perp,
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
    "mollify_force",
    "nonlinear_term",
    "burgers_nonlinear_term",
    "velocity_max",
    "step",
    "burgers_step",
    "run",
    "energy_balance_residual",
]


class BlowupError(RuntimeError):
    """Integration produced NaN/Inf; carries the last valid state and time."""

    def __init__(self, t: float, last_state: SpectralField):
        super().__init__(f"integration blew up at t={t:.6g} (NaN/Inf in field)")
        self.t = t
        self.last_state = last_state


@dataclass(frozen=True)
class SolverConfig:
    """Integration parameters; ``epsilon = 0`` for production runs."""

    kappa: float
    dt: float
    t_end: float
    integrator: str = "imex-cn"  # or "etdrk2"
    dealias: str = "two-thirds"  # or "none"
    epsilon: float = 0.0
    mollifier_width: float = 0.0
    seed: int = 0
    cfl_budget: float = 0.5
    snapshot_dt: float = 0.1

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.dt <= 0 or self.t_end < 0 or self.snapshot_dt <= 0:
            raise ValueError("dt and snapshot_dt must be positive and t_end nonnegative")
        if self.integrator not in ("imex-cn", "etdrk2"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dealias not in ("two-thirds", "none"):
            raise ValueError(f"unknown dealias rule {self.dealias!r}")
        if self.epsilon < 0 or self.mollifier_width < 0:
            raise ValueError("epsilon and mollifier_width must be >= 0")


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
    from .spectral import resample

    top = float(np.abs(resample(f, n_ref).values()).max())
    if top == 0.0 or amplitude == 0.0:
        return SpectralField.zeros(grid)
    return f * (amplitude / top)


def build_field(spec: FieldSpec, grid: TorusGrid) -> SpectralField:
    if spec.kind == "zero":
        return SpectralField.zeros(grid)
    if spec.kind == "single_mode":
        kvec = np.asarray(spec.k[: grid.dim], dtype=np.float64)
        if np.all(kvec == 0):
            raise ValueError("single_mode wavevector must be nonzero")
        coords = grid.coords
        if grid.dim == 1:
            phase = kvec[0] * coords
        else:
            x, y = np.meshgrid(coords, coords, indexing="ij")
            phase = kvec[0] * x + kvec[1] * y
        return SpectralField.from_values(grid, spec.amplitude * np.cos(phase))
    if spec.kind == "random_band":
        return random_band_field(grid, spec.band, spec.amplitude, spec.seed)
    if spec.kind == "file":
        from .snapshots import read_snapshot

        fld, _t = read_snapshot(spec.path)
        if fld.grid != grid:
            raise ValueError(f"snapshot grid {fld.grid} does not match run grid {grid}")
        return fld
    raise ValueError(f"unknown field kind {spec.kind!r}")


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


def mollify_force(f: SpectralField, width: float) -> SpectralField:
    """Spectral Gaussian mollifier ``exp(-width^2 |k|^2 / 2)``; identity at width 0.

    The mollifier has unit mass, so ``||J f||_inf <= ||f||_inf`` and the mean
    stays zero.
    """
    if width < 0:
        raise ValueError("width must be >= 0")
    if width == 0.0:
        return f
    sym = np.exp(-0.5 * width**2 * f.grid.kmag ** 2)
    return SpectralField.from_coeffs(f.grid, f.coeffs * sym)


def _maybe_dealias(field: SpectralField, rule: str) -> SpectralField:
    return dealias(field) if rule == "two-thirds" else field


def nonlinear_term(theta: SpectralField, rule: str = "two-thirds") -> SpectralField:
    """``-u . grad theta`` for SQG, pseudo-spectral, dealiased, mean-free."""
    u1, u2 = riesz_perp(theta)
    gx, gy = gradient(theta)
    adv = u1.values() * gx.values() + u2.values() * gy.values()
    out = SpectralField._from_product(theta.grid, -adv)
    return _maybe_dealias(out, rule)


def burgers_nonlinear_term(theta: SpectralField, rule: str = "two-thirds") -> SpectralField:
    """``-(theta^2 / 2)_x`` in conservative form, dealiased, mean-free."""
    sq = SpectralField._from_product(theta.grid, theta.values() ** 2)
    sq = _maybe_dealias(sq, rule)
    (ddx,) = gradient(sq)
    return ddx * (-0.5)


def velocity_max(theta: SpectralField) -> float:
    """``||u||_inf`` of the advecting velocity (the scalar itself in 1D)."""
    if theta.grid.dim == 1:
        return float(np.abs(theta.values()).max())
    u1, u2 = riesz_perp(theta)
    speed = np.sqrt(u1.values() ** 2 + u2.values() ** 2)
    return float(speed.max())


class _Stepper:
    """One-step integrator with per-dt coefficient caches.

    The explicit part uses Heun stages around the implicit/exponential
    treatment of the diagonal symbol ``L = kappa*|k| + epsilon*|k|^2``.  The
    Crank-Nicolson variant makes single-mode steady states exact fixed points.
    """

    def __init__(self, grid: TorusGrid, config: SolverConfig, force: SpectralField,
                 nonlinear: Callable[[SpectralField, str], SpectralField]):
        self.grid = grid
        self.config = config
        self.nonlinear = nonlinear
        self.force = mollify_force(force, config.mollifier_width)
        kmag = grid.kmag
        self.L = config.kappa * kmag + config.epsilon * kmag**2
        self._coef: dict = {}

    def _coefficients(self, dt: float):
        got = self._coef.get(dt)
        if got is not None:
            return got
        if self.config.integrator == "imex-cn":
            a = 1.0 - 0.5 * dt * self.L
            b = 1.0 / (1.0 + 0.5 * dt * self.L)
            coef = (a, b)
        else:  # etdrk2
            z = -dt * self.L
            E = np.exp(z)
            phi1 = np.where(np.abs(z) > 1e-5, (E - 1.0) / np.where(z == 0, 1.0, z), 1.0 + z / 2.0 + z**2 / 6.0)
            phi2 = np.where(np.abs(z) > 1e-5, (E - 1.0 - z) / np.where(z == 0, 1.0, z**2), 0.5 + z / 6.0 + z**2 / 24.0)
            coef = (E, phi1, phi2)
        self._coef[dt] = coef
        return coef

    def rhs_explicit(self, theta: SpectralField) -> SpectralField:
        return self.nonlinear(theta, self.config.dealias) + self.force

    def advance(self, theta: SpectralField, dt: float) -> SpectralField:
        if self.config.integrator == "imex-cn":
            a, b = self._coefficients(dt)
            g1 = self.rhs_explicit(theta)
            mid = SpectralField._trusted(self.grid, (a * theta.coeffs + dt * g1.coeffs) * b)
            g2 = self.rhs_explicit(mid)
            out = (a * theta.coeffs + 0.5 * dt * (g1.coeffs + g2.coeffs)) * b
            return SpectralField._trusted(self.grid, out)
        E, phi1, phi2 = self._coefficients(dt)
        g1 = self.rhs_explicit(theta)
        mid = SpectralField._trusted(self.grid, E * theta.coeffs + dt * phi1 * g1.coeffs)
        g2 = self.rhs_explicit(mid)
        out = mid.coeffs + dt * phi2 * (g2.coeffs - g1.coeffs)
        return SpectralField._trusted(self.grid, out)

    def cfl_dt(self, theta: SpectralField, dt: float) -> float:
        umax = velocity_max(theta)
        if umax <= 0:
            return dt
        budget = self.config.cfl_budget * 2.0 * np.pi / (umax * self.grid.n)
        while dt > budget:
            dt *= 0.5
        return dt


def _check_finite(theta: SpectralField, t: float, last: SpectralField) -> None:
    if not np.all(np.isfinite(theta.coeffs)):
        raise BlowupError(t, last)


def step(theta: SpectralField, config: SolverConfig, force: SpectralField) -> SpectralField:
    """Advance one dt of forced SQG (2D); see :class:`_Stepper` for the scheme."""
    stepper = _Stepper(theta.grid, config, force, nonlinear_term)
    dt = stepper.cfl_dt(theta, config.dt)
    out = stepper.advance(theta, dt)
    _check_finite(out, dt, theta)
    return out


def burgers_step(theta: SpectralField, config: SolverConfig, force: SpectralField) -> SpectralField:
    """Advance one dt of critical Burgers (1D), same IMEX treatment."""
    if theta.grid.dim != 1:
        raise ValueError("burgers_step requires a 1D grid")
    stepper = _Stepper(theta.grid, config, force, burgers_nonlinear_term)
    dt = stepper.cfl_dt(theta, config.dt)
    out = stepper.advance(theta, dt)
    _check_finite(out, dt, theta)
    return out


@dataclass
class Trajectory:
    """Snapshots of one run plus per-snapshot norm records."""

    times: list
    fields: list
    reports: list
    config: SolverConfig
    force: Force
    cfl_reductions: int = 0

    def field_at(self, t: float) -> SpectralField:
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise KeyError(f"no snapshot at t={t}")
        return self.fields[i]


def run(
    theta0: SpectralField,
    config: SolverConfig,
    force: Force,
    probes: Sequence[Callable[[float, SpectralField], None]] = (),
    report_ps=(2, 4),
    report_ss=(0.0, 0.5, 1.0, 1.5, 2.0),
) -> Trajectory:
    """Integrate to ``t_end``, recording snapshots every ``snapshot_dt``.

    The last snapshot is taken at exactly ``t_end``, also when ``t_end`` is not
    a multiple of ``snapshot_dt`` (the last interval is then shorter).  Probes
    are called at every snapshot with ``(t, field)``; norm reports are
    recorded per snapshot.  Blowup propagates as :class:`BlowupError`.
    """
    grid = theta0.grid
    nonlinear = nonlinear_term if grid.dim == 2 else burgers_nonlinear_term
    stepper = _Stepper(grid, config, force.field, nonlinear)

    def snap(t, fld, traj):
        traj.times.append(t)
        traj.fields.append(fld)
        traj.reports.append(norm_report(fld, report_ps, report_ss))
        for probe in probes:
            probe(t, fld)

    traj = Trajectory(times=[], fields=[], reports=[], config=config, force=force)
    theta = theta0
    snap(0.0, theta, traj)
    # a horizon within 1e-9 snapshot intervals of a multiple gets no extra sliver
    n_snaps = math.ceil(config.t_end / config.snapshot_dt - 1e-9)
    t = 0.0
    for i in range(1, n_snaps + 1):
        t_target = config.t_end if i == n_snaps else i * config.snapshot_dt
        while t < t_target - 1e-12:
            dt = stepper.cfl_dt(theta, config.dt)
            if dt < config.dt:
                traj.cfl_reductions += 1
            dt = min(dt, t_target - t)
            new = stepper.advance(theta, dt)
            _check_finite(new, t + dt, theta)
            theta = new
            t += dt
        t = t_target
        snap(t, theta, traj)
    return traj


def energy_balance_residual(
    prev: SpectralField, new: SpectralField, dt: float, kappa: float,
    force: SpectralField, epsilon: float = 0.0,
) -> float:
    """Discrete residual of d/dt||theta||^2 + 2k||theta||^2_{H^1/2} - 2<f,theta> = 0.

    Evaluated with midpoint quadrature; O(dt^2) per step for the IMEX-CN
    scheme (the linear part cancels identically).
    """
    mid = (prev + new) * 0.5
    d_energy = (inner_l2(new, new) - inner_l2(prev, prev)) / dt
    diss = 2.0 * kappa * sobolev_norm(mid, 0.5) ** 2 + 2.0 * epsilon * sobolev_norm(mid, 1.0) ** 2
    inj = 2.0 * inner_l2(force, mid)
    return float(d_energy + diss - inj)
