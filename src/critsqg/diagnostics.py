"""Envelopes, absorbing-ball constants, and trajectory-level verification probes.

Closed forms implemented here (kappa the dissipation coefficient, f the force):

* L^p decay envelope:
  ``||theta(t)||_p <= ||theta_0||_p e^{-t c0 k} + ||f||_p/(c0 k) (1 - e^{-t c0 k})``
* Hoelder budget:  ``M_inf = ||theta_0||_inf + ||f||_inf/(c0 k)`` and
  ``alpha_0 = min{eps0 k / M_inf, 1/4}``
* Hoelder envelope ODE:
  ``d/dt M^2 + (k/(c5 M_inf)) M^3 = c5^2 k M_inf^2``, ``M(0) = [theta_0]_{C^a}``,
  with the a-priori cap ``max{M(0), c5 M_inf}``, the long-time cap
  ``2 c5 M_inf`` valid for ``t >= t_alpha``, and
  ``t_alpha = 0`` if ``M(0) <= 2 c5 M_inf`` else
  ``(M(0)^2 - 4 c5^2 M_inf^2)/(7 k c5^2 M_inf^2)`` (while ``M >= 2 c5 M_inf``
  the ODE gives ``d/dt M^2 <= -7 k c5^2 M_inf^2``).
  The ODE is separable: with ``M = c5 M_inf w`` it reads ``2 w w' = k (1 - w^3)``,
  so ``k t = F(w) - F(w(0))`` with
  ``F(w) = -2/3 ln|1 - w| + 1/3 ln(w^2 + w + 1) - (2/sqrt 3) arctan((2w + 1)/sqrt 3)``.
  ``F`` is monotone on the branch from ``w(0)`` to the equilibrium ``w = 1``
  (rising to +inf there), and :func:`m_alpha_envelope` inverts it by
  bisection to the last bit, so the envelope carries no integrator error
  (an adaptive RK45 at rtol 1e-10 was off by up to ~1e-7 relative in ``M^2``)
* post-transient Hoelder bound ``||theta||_inf + [theta]_{C^{alpha_*}} <= M_{inf,f}`` with
  ``alpha_* = min{eps1 k^2/||f||_inf, 1/4}``, ``M_{inf,f} = 2||f||_inf/(eps1 k)``
* absorbing constants (``a = alpha_*``):
  ``M_{1,f}^2  = 72/k^2 ||f||_{H^1}^2
                 + c8 (8 c7)^{(3-3a)/(2a)} / (3 k^{(9-3a)/(4a)}) M_{inf,f}^{(9-a)/(4a)}``,
  ``M_{3/2,f}^2 = ((6+k)/k M_{1,f}^2 + ||f||_{H^1}^2/k) exp(c9 (6+k) M_{1,f}^2 / k^2)``,
  ``M_{2,f}^2  = 2/k^2 ||f||_{H^1}^2 + 2 c9 / k^2 M_{3/2,f}^4``
* uniform Groenwall bound: ``x(t) <= (X/r + B) e^A`` for ``t >= t0 + r``
* backward-uniqueness log-convexity budget:
  ``w(t) = log(2m/||theta^(1)-theta^(2)||_{L^2}) <= w(0) + C int ||avg||_{H^{3/2}}^2``

The universal constants (c0, eps0, eps1, c2, c5, c7..c11, the budget constant)
are calibration parameters: each is pinned in a versioned key=value file
produced by the documented protocol in :mod:`critsqg.calibration` and loadable
via the ``SQG_CONSTANTS`` environment variable.  Each formula and each
pass/fail comparison (:func:`_exceeds`) has one copy here; a trajectory check
reads the constants it tests from a :class:`UniversalConstants`, and the
calibration bisects over (or inverts) these same functions, handing them
candidate values through :func:`dataclasses.replace`.  The comparisons are
pure: replayable from recorded norms alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields as dc_fields
from typing import Optional

import numpy as np

from .config import ConfigError
from .spectral import SpectralField, holder_seminorm, lp_norm, sobolev_norm
from .solver import Trajectory

__all__ = [
    "UniversalConstants",
    "load_constants",
    "save_constants",
    "default_constants_path",
    "constants_path",
    "AbsorbingConstants",
    "decay_envelope",
    "holder_budget",
    "post_transient_holder",
    "t_alpha_formula",
    "EnvelopeSolution",
    "m_alpha_envelope",
    "HolderTrackResult",
    "holder_envelope_check",
    "track_holder",
    "late_holder_violations",
    "absorbing_constants",
    "uniform_gronwall",
    "LogConvexityResult",
    "log_convexity_series",
    "log_convexity_monitor",
]


@dataclass(frozen=True)
class UniversalConstants:
    """Calibrated universal constants; see data/default_constants.txt for provenance."""

    c0: float
    eps0: float
    eps1: float
    c2: float
    c5: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c_backward: float
    version: str = "unversioned"


def default_constants_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "data", "default_constants.txt")


def constants_path(path: Optional[str] = None) -> str:
    """The constants file: ``path``, else a non-empty ``SQG_CONSTANTS``, else the packaged defaults."""
    return path or os.environ.get("SQG_CONSTANTS") or default_constants_path()


def load_constants(path: Optional[str] = None) -> UniversalConstants:
    """Load the calibrated constants file (key=value, '#' comments).

    The file is resolved by :func:`constants_path`.  A malformed line, a
    non-numeric value or a missing key raises :class:`ConfigError` (a
    ``ValueError``) naming the file and, where there is one, the line.
    """
    path = constants_path(path)
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(lineno, f"constants file {path}: malformed line {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = (val, lineno)
    kwargs = {}
    for f in dc_fields(UniversalConstants):
        if f.name not in values:
            raise ConfigError(0, f"constants file {path} missing key {f.name!r}")
        val, lineno = values[f.name]
        try:
            kwargs[f.name] = val if f.name == "version" else float(val)
        except ValueError:
            raise ConfigError(lineno, f"constants file {path}: bad {f.name} = {val!r}") from None
    return UniversalConstants(**kwargs)


def save_constants(consts: UniversalConstants, path: str, header: str = "") -> None:
    lines = []
    if header:
        lines.extend("# " + h for h in header.splitlines())
    for f in dc_fields(UniversalConstants):
        v = getattr(consts, f.name)
        lines.append(f"{f.name} = {v!r}" if f.name != "version" else f"version = {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _exceeds(value, bound, floor: float = 1e-300):
    """The one pass/fail comparison of every check: ``value`` above ``bound * (1 + 1e-9) + floor``."""
    return value > bound * (1.0 + 1e-9) + floor


def decay_envelope(p, t, theta0_norm: float, f_norm: float, kappa: float, c0: float):
    """L^p decay envelope value at time(s) t; p only validates the usage."""
    if p != np.inf and p != "inf":
        p = int(p)
        if p < 2 or p % 2 != 0:
            raise ValueError("p must be an even integer >= 2 or inf")
    t = np.asarray(t, dtype=np.float64)
    decay = np.exp(-t * c0 * kappa)
    return theta0_norm * decay + f_norm / (c0 * kappa) * (1.0 - decay)


def holder_budget(theta0: SpectralField, f: SpectralField, kappa: float, consts: UniversalConstants):
    """``(alpha_0, M_inf)`` admissible-exponent budget from data and force norms."""
    m_inf = lp_norm(theta0, np.inf) + lp_norm(f, np.inf) / (consts.c0 * kappa)
    if m_inf == 0.0:
        return 0.25, 0.0
    alpha0 = min(consts.eps0 * kappa / m_inf, 0.25)
    return alpha0, m_inf


def t_alpha_formula(M0: float, M_inf: float, kappa: float, c5: float) -> float:
    """Time after which the Hoelder envelope obeys the long-time cap 2*c5*M_inf."""
    if M_inf == 0.0:
        return 0.0
    if M0 <= 2.0 * c5 * M_inf:
        return 0.0
    return (M0**2 - 4.0 * c5**2 * M_inf**2) / (7.0 * kappa * c5**2 * M_inf**2)


@dataclass
class EnvelopeSolution:
    """Sampled Hoelder-envelope ODE solution with its closed-form caps."""

    t: np.ndarray
    m_alpha: np.ndarray
    cap: float            # max{M(0), c5*M_inf}, valid for all t
    longtime_cap: float   # 2*c5*M_inf, valid for t >= t_alpha
    t_alpha: float


def _envelope_time(w, w0):
    """``F(w) - F(w0)`` as log1p and arctan of differences, so it does not cancel near ``w0``."""
    d = w - w0
    return (-2.0 / 3.0 * np.log1p((w0 - w) / (1.0 - w0))
            + np.log1p(d * (w + w0 + 1.0) / (w0 * w0 + w0 + 1.0)) / 3.0
            - 2.0 / math.sqrt(3.0) * np.arctan(
                2.0 * math.sqrt(3.0) * d / (3.0 + (2.0 * w + 1.0) * (2.0 * w0 + 1.0))))


def m_alpha_envelope(M0: float, M_inf: float, kappa: float, c5: float, t_grid) -> EnvelopeSolution:
    """Envelope ODE solution on a nondecreasing time grid: ``k (t - t_grid[0]) = F(w) - F(w0)``
    solved for ``w = M/(c5 M_inf)`` by bisection (``F`` in the module docstring).

    ``M_inf = 0`` (zero data and force) and ``w0 = 1`` give the constant solution.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if M0 < 0 or M_inf < 0:
        raise ValueError("M0 and M_inf must be nonnegative")
    if M_inf == 0.0:
        return EnvelopeSolution(t_grid, np.full_like(t_grid, M0), M0, 0.0, 0.0)

    scale = c5 * M_inf
    w0 = M0 / scale
    if w0 == 1.0:
        m = np.full_like(t_grid, M0)
    else:
        s = kappa * (t_grid - t_grid[0])
        # bracket [a, b] on the path from w0 toward 1: F(a) - F(w0) <= s < F(b) - F(w0),
        # closed at a = b = w0 where s = 0
        a = np.full_like(s, w0)
        b = np.where(s > 0.0, 1.0, w0)
        with np.errstate(divide="ignore"):  # F is +inf at w = 1
            while True:
                mid = 0.5 * (a + b)
                if ((mid == a) | (mid == b)).all():
                    break
                short = _envelope_time(mid, w0) <= s
                a = np.where(short, mid, a)
                b = np.where(short, b, mid)
        m = scale * a
    return EnvelopeSolution(
        t=t_grid,
        m_alpha=m,
        cap=max(M0, scale),
        longtime_cap=2.0 * scale,
        t_alpha=t_alpha_formula(M0, M_inf, kappa, c5),
    )


@dataclass
class FalsificationEvent:
    t: float
    g: float
    envelope_sq: float
    field: SpectralField


@dataclass
class HolderTrackResult:
    """Per-snapshot running sup g(t) = sup_{x,h} v^2 against the envelope."""

    alpha: float
    t: np.ndarray
    g: np.ndarray
    envelope_sq: np.ndarray
    violated: np.ndarray  # g > envelope_sq beyond the slack of _exceeds
    events: list

    @property
    def falsification_count(self) -> int:
        return len(self.events)


def holder_envelope_check(t, seminorms, m_inf: float, kappa: float, consts: UniversalConstants):
    """Compare Hoelder seminorms recorded at times ``t`` with the envelope ODE.

    ``seminorms[0]`` (at ``t[0]``) seeds the envelope.  Returns ``(g,
    envelope_sq, violated)``: ``g`` holds the squared seminorms, and
    ``violated`` marks the snapshots where ``g > M_alpha^2`` beyond the slack.
    """
    env = m_alpha_envelope(seminorms[0], m_inf, kappa, consts.c5, t)
    g = np.array([s**2 for s in seminorms], dtype=np.float64)
    envelope_sq = env.m_alpha**2
    return g, envelope_sq, _exceeds(g, envelope_sq)


def track_holder(traj: Trajectory, alpha: float, consts: UniversalConstants) -> HolderTrackResult:
    """Track ``g(t) = (sup_{x,h} |delta_h theta|/|h|^alpha)^2`` along a trajectory.

    Verifies ``g(t) <= M_alpha(t)^2`` against the envelope ODE seeded from the
    initial data (one Hoelder scan per snapshot, the first one seeds it); a
    violation is recorded as a falsification event carrying the offending
    state, never raised.  Callers owe snapshots dense enough to pin the
    running sup (cadence at most ten time steps; the shipped presets comply).
    """
    kappa = traj.config.kappa
    _alpha0, m_inf = holder_budget(traj.fields[0], traj.force.field, kappa, consts)
    t = np.asarray(traj.times)
    g, envelope_sq, violated = holder_envelope_check(
        t, [holder_seminorm(fld, alpha).value for fld in traj.fields], m_inf, kappa, consts)
    events = [FalsificationEvent(t=float(t[i]), g=float(g[i]), envelope_sq=float(envelope_sq[i]),
                                 field=traj.fields[i]) for i in np.nonzero(violated)[0]]
    return HolderTrackResult(alpha=alpha, t=t, g=g, envelope_sq=envelope_sq, violated=violated,
                             events=events)


def post_transient_holder(f_linf: float, kappa: float, consts: UniversalConstants):
    """``(alpha_*, M_{inf,f})``: the post-transient exponent and C^{alpha_*} radius."""
    if f_linf == 0.0:
        return 0.25, 0.0
    return min(consts.eps1 * kappa**2 / f_linf, 0.25), 2.0 * f_linf / (consts.eps1 * kappa)


def late_holder_violations(traj: Trajectory, consts: UniversalConstants) -> int:
    """Snapshots of the late half with ``||theta||_inf + [theta]_{C^{alpha_*}} > M_{inf,f}``.

    The radius vanishes with the force, so an unforced run has no claim to
    check and reports 0.
    """
    if traj.force.linf == 0.0:
        return 0
    alpha_star, m_inf_f = post_transient_holder(traj.force.linf, traj.config.kappa, consts)
    t_half = traj.times[-1] / 2.0
    return sum(
        int(_exceeds(rep.linf + holder_seminorm(fld, alpha_star).value, m_inf_f))
        for t, rep, fld in zip(traj.times, traj.reports, traj.fields) if t >= t_half
    )


@dataclass(frozen=True)
class AbsorbingConstants:
    alpha_star: float
    m_inf_f: float
    m_1f: float
    m_32f: float
    m_2f: float


def absorbing_constants(f_linf: float, f_h1: float, kappa: float, consts: UniversalConstants) -> AbsorbingConstants:
    """Closed-form absorbing-ball radii, evaluated exactly as printed.

    The exponents blow up as alpha_* -> 0; for strong forces the radii are
    astronomically large and only the inequality direction is testable.
    """
    if not (math.isfinite(f_linf) and math.isfinite(f_h1)):
        raise ValueError("force norms must be finite (alpha_* = 0 is out of domain)")
    if f_linf < 0 or f_h1 < 0:
        raise ValueError("norms must be nonnegative")
    alpha_star, m_inf_f = post_transient_holder(f_linf, kappa, consts)
    a = alpha_star
    m1_sq = 72.0 / kappa**2 * f_h1**2
    m1_sq += (
        consts.c8
        * (8.0 * consts.c7) ** ((3.0 - 3.0 * a) / (2.0 * a))
        / (3.0 * kappa ** ((9.0 - 3.0 * a) / (4.0 * a)))
        * m_inf_f ** ((9.0 - a) / (4.0 * a))
    )
    # the exponential overflows float range already for moderate forces
    # (the envelopes are astronomically large there); saturate to inf
    if m1_sq > 0.0 or f_h1 > 0.0:
        log_m32_sq = math.log((6.0 + kappa) / kappa * m1_sq + f_h1**2 / kappa) + (
            consts.c9 * (6.0 + kappa) * m1_sq / kappa**2
        )
        m32_sq = math.exp(log_m32_sq) if log_m32_sq < 700.0 else math.inf
    else:
        m32_sq = 0.0
    m2_sq = 2.0 / kappa**2 * f_h1**2 + 2.0 * consts.c9 / kappa**2 * m32_sq**2
    return AbsorbingConstants(
        alpha_star=alpha_star,
        m_inf_f=m_inf_f,
        m_1f=math.sqrt(m1_sq),
        m_32f=math.sqrt(m32_sq),
        m_2f=math.sqrt(m2_sq),
    )


def uniform_gronwall(X: float, A: float, B: float, r: float) -> float:
    """Pointwise bound ``(X/r + B) e^A`` from window-integral data."""
    if r <= 0:
        raise ValueError("window length r must be positive")
    if min(X, A, B) < 0:
        raise ValueError("X, A, B must be nonnegative")
    return (X / r + B) * math.exp(A)


@dataclass
class DecayEnvelopeReport:
    """Rows (t, norm, envelope, slack, violated) for one exponent p."""

    p: object
    rows: list
    violations: int


def decay_envelope_report(traj: Trajectory, p, consts: UniversalConstants) -> DecayEnvelopeReport:
    """Compare recorded L^p norms (``p`` inf, 2 or in the run's ``report_ps``) with the envelope."""
    kappa = traj.config.kappa
    theta0_norm = lp_norm(traj.fields[0], p)
    f_norm = lp_norm(traj.force.field, p)
    rows = []
    violations = 0
    for t, rep in zip(traj.times, traj.reports):
        if p == np.inf or p == "inf":
            norm = rep.linf
        elif int(p) == 2:
            norm = rep.l2
        else:
            norm = rep.lp[int(p)]
        env = float(decay_envelope(p, t, theta0_norm, f_norm, kappa, consts.c0))
        violated = _exceeds(norm, env)
        violations += int(violated)
        rows.append((t, norm, env, env - norm, violated))
    return DecayEnvelopeReport(p=p, rows=rows, violations=violations)


@dataclass
class AbsorptionReport:
    """H^1 absorbing-ball entry/permanence and H^{3/2} window averages."""

    m_1f: float
    entry_time: float            # first snapshot inside the ball (inf if never)
    permanent: bool              # stays inside from entry to the horizon end
    window_rows: list            # (t_start, avg_h32_sq, budget, violated)
    window_violations: int
    rows: list                   # (t, h1, m_1f, inside)


def absorption_report(traj: Trajectory, consts: UniversalConstants) -> AbsorptionReport:
    """Check entry into the H^1 ball of radius M_{1,f} and the H^{3/2} window bound.

    Window averages ``int_t^{t+1} ||theta||_{H^{3/2}}^2`` are compared against
    ``(6+kappa)/kappa * M_{1,f}^2`` for unit windows starting at or after the
    empirical entry time.
    """
    kappa = traj.config.kappa
    ac = absorbing_constants(traj.force.linf, traj.force.h1, kappa, consts)
    t = np.asarray(traj.times)
    h1 = np.array([rep.hs[1.0] for rep in traj.reports])
    h32_sq = np.array([rep.hs[1.5] ** 2 for rep in traj.reports])
    inside = h1 <= ac.m_1f
    rows = [(float(tt), float(v), ac.m_1f, bool(i)) for tt, v, i in zip(t, h1, inside)]
    idx = np.nonzero(inside)[0]
    if len(idx) == 0:
        return AbsorptionReport(m_1f=ac.m_1f, entry_time=math.inf, permanent=False,
                                window_rows=[], window_violations=0, rows=rows)
    entry = int(idx[0])
    permanent = bool(inside[entry:].all())
    budget = (6.0 + kappa) / kappa * ac.m_1f**2
    window_rows = []
    violations = 0
    for i in range(entry, len(t)):
        j = np.searchsorted(t, t[i] + 1.0)
        if j >= len(t) or t[j] < t[i] + 1.0 - 1e-9:
            break
        avg = float(np.trapezoid(h32_sq[i : j + 1], t[i : j + 1]))
        violated = _exceeds(avg, budget)
        violations += int(violated)
        window_rows.append((float(t[i]), avg, budget, violated))
    return AbsorptionReport(m_1f=ac.m_1f, entry_time=float(t[entry]), permanent=permanent,
                            window_rows=window_rows, window_violations=violations, rows=rows)


@dataclass
class LogConvexityResult:
    """Backward-uniqueness monitor ``w(t) = log(2m/||diff||_{L^2})`` vs its budget."""

    t: np.ndarray
    w: np.ndarray
    budget: np.ndarray
    violations: int
    status: str  # "ok" | "indistinguishable"


def log_convexity_series(traj1: Trajectory, traj2: Trajectory):
    """``(t, w, integral, status)`` of a trajectory pair under one force.

    ``w(t) = log(2m/||diff||_{L^2})`` with ``m`` the max of the difference L^2
    norm over the window, and ``integral`` the running trapezoid integral of
    ``||avg||_{H^{3/2}}^2`` of the average solution.  A pair whose difference
    collapses to numerical zero at any sample is cut before the first such
    sample with status ``indistinguishable`` (``w`` is empty, and ``t`` all
    snapshot times, when nothing is left); otherwise the status is ``ok``.
    """
    if list(traj1.times) != list(traj2.times):
        raise ValueError("trajectory pair must share snapshot times")
    t = np.asarray(traj1.times)
    d = np.empty(len(t))
    h32_avg_sq = np.empty(len(t))
    scale = 0.0
    for i, (f1, f2) in enumerate(zip(traj1.fields, traj2.fields)):
        diff = f1 - f2
        avg = (f1 + f2) * 0.5
        d[i] = lp_norm(diff, 2)
        h32_avg_sq[i] = sobolev_norm(avg, 1.5) ** 2
        scale = max(scale, lp_norm(f1, 2), lp_norm(f2, 2))
    floor = 1e4 * np.finfo(float).eps * max(scale, 1.0)
    dead = np.nonzero(d <= floor)[0]
    cut = int(dead[0]) if len(dead) else len(t)
    if cut == 0:
        return t, np.array([]), np.array([]), "indistinguishable"
    t_k, d_k, h32 = t[:cut], d[:cut], h32_avg_sq[:cut]
    status = "indistinguishable" if len(dead) else "ok"
    m = float(d_k.max())
    w = np.log(2.0 * m / d_k)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (h32[1:] + h32[:-1]) * np.diff(t_k))])
    return t_k, w, integral, status


def log_convexity_monitor(traj1: Trajectory, traj2: Trajectory, C: float) -> LogConvexityResult:
    """Monitor the budget ``w(t) <= w(0) + C int ||avg||_{H^{3/2}}^2`` on a pair.

    The series come from :func:`log_convexity_series`; a pair whose
    difference collapses to numerical zero is monitored up to the collapse
    and reported ``indistinguishable`` (degenerate-input contract, no crash).
    """
    t, w, integral, status = log_convexity_series(traj1, traj2)
    budget = w[:1] + C * integral
    violations = int(np.sum(_exceeds(w, budget, floor=1e-12)))
    return LogConvexityResult(t=t, w=w, budget=budget, violations=violations, status=status)
