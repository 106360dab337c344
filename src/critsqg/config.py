"""Flat key=value run configuration: schema, parser, and shipped presets.

The format is sectioned plain text, trivially diffable::

    [solver]
    dim = 2
    n = 64
    kappa = 1.0
    ...

    [initial]
    kind = single_mode
    ...

Parsing is line-anchored: every syntax or schema violation reports the
offending line number.  Unknown sections other than ``[manifest]`` (which a
rerun ignores) are rejected; duplicate keys take the last value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Optional, Tuple

import numpy as np

from .solver import FieldSpec, SolverConfig

__all__ = ["ConfigError", "RunSetup", "parse_config_text", "parse_config_file",
           "build_setup", "render_sections", "PRESETS", "preset_sections"]


class ConfigError(ValueError):
    """Config syntax/schema violation anchored to a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_SCHEMA = {
    "solver": {
        "dim", "n", "kappa", "dt", "t_end", "integrator", "dealias", "epsilon",
        "mollifier_width", "seed", "cfl_budget", "snapshot_dt",
    },
    "initial": {"kind", "kx", "ky", "amplitude", "band", "seed", "path"},
    "force": {"kind", "kx", "ky", "amplitude", "band", "seed", "path"},
    "probes": {"holder_alpha", "decay_envelope_ps", "absorption"},
    "tangent": {"n_tangent", "reorth_every", "t_relax", "seed", "tangent_band"},
}


def parse_config_text(text: str) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current != "manifest" and current not in _SCHEMA:
                raise ConfigError(lineno, f"unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(lineno, "key outside of any [section]")
        key, val = (s.strip() for s in line.split("=", 1))
        if current != "manifest" and key not in _SCHEMA[current]:
            raise ConfigError(lineno, f"unknown key {key!r} in section [{current}]")
        sections[current][key] = val
    sections.pop("manifest", None)
    return sections


def parse_config_file(path: str) -> Dict[str, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _get(kv: Dict[str, str], key: str, cast, default):
    if key not in kv:
        return default
    try:
        return cast(kv[key])
    except ValueError as exc:
        raise ConfigError(0, f"bad value for {key!r}: {kv[key]!r} ({exc})") from exc


def _field_spec(kv: Dict[str, str]) -> FieldSpec:
    return FieldSpec(
        kind=kv.get("kind", "zero"),
        k=(_get(kv, "kx", int, 1), _get(kv, "ky", int, 0)),
        amplitude=_get(kv, "amplitude", float, 1.0),
        band=_get(kv, "band", int, 4),
        seed=_get(kv, "seed", int, 0),
        path=kv.get("path", ""),
    )


@dataclass
class RunSetup:
    """Everything needed to launch one run, decoded from a config."""

    dim: int
    n: int
    solver: SolverConfig
    initial: FieldSpec
    force: FieldSpec
    holder_alpha: Optional[str]          # None, "auto", or a float literal
    decay_envelope_ps: Tuple
    absorption: bool
    tangent_n: int
    tangent_reorth: int
    tangent_relax: float
    tangent_seed: int
    tangent_band: int
    sections: Dict[str, Dict[str, str]] = dc_field(default_factory=dict)


def _holder_alpha(raw: Optional[str]) -> Optional[str]:
    """``auto`` or a float literal in (0, 1]; an empty value disables the probe."""
    if not raw:
        return None
    if raw == "auto":
        return raw
    try:
        alpha = float(raw)
    except ValueError:
        alpha = np.nan
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(0, f"holder_alpha must be auto or a number in (0, 1], got {raw!r}")
    return raw


def _envelope_p(tok: str):
    """One Lebesgue exponent: ``inf`` or an even integer >= 2."""
    if tok == "inf":
        return np.inf
    try:
        p = int(tok)
    except ValueError:
        p = 0
    if p < 2 or p % 2:
        raise ConfigError(0, f"decay_envelope_ps entries must be inf or even integers >= 2, got {tok!r}")
    return p


def build_setup(sections: Dict[str, Dict[str, str]], seed_override: Optional[int] = None) -> RunSetup:
    sol = sections.get("solver", {})
    try:
        solver = SolverConfig(
            kappa=_get(sol, "kappa", float, 1.0),
            dt=_get(sol, "dt", float, 1e-3),
            t_end=_get(sol, "t_end", float, 1.0),
            integrator=sol.get("integrator", "imex-cn"),
            dealias=sol.get("dealias", "two-thirds"),
            epsilon=_get(sol, "epsilon", float, 0.0),
            mollifier_width=_get(sol, "mollifier_width", float, 0.0),
            seed=seed_override if seed_override is not None else _get(sol, "seed", int, 0),
            cfl_budget=_get(sol, "cfl_budget", float, 0.5),
            snapshot_dt=_get(sol, "snapshot_dt", float, 0.1),
        )
    except ValueError as exc:
        raise ConfigError(0, str(exc)) from exc
    probes = sections.get("probes", {})
    holder_alpha = _holder_alpha(probes.get("holder_alpha"))
    ps_raw = probes.get("decay_envelope_ps", "")
    ps = tuple(_envelope_p(tok) for tok in filter(None, (t.strip() for t in ps_raw.split(","))))
    tangent = sections.get("tangent", {})
    initial = _field_spec(sections.get("initial", {}))
    force = _field_spec(sections.get("force", {}))
    if seed_override is not None:
        initial = FieldSpec(**{**initial.__dict__, "seed": initial.seed + seed_override})
        force = FieldSpec(**{**force.__dict__, "seed": force.seed + seed_override})
    return RunSetup(
        dim=_get(sol, "dim", int, 2),
        n=_get(sol, "n", int, 64),
        solver=solver,
        initial=initial,
        force=force,
        holder_alpha=holder_alpha,
        decay_envelope_ps=ps,
        absorption=probes.get("absorption", "0") in ("1", "true", "yes"),
        tangent_n=_get(tangent, "n_tangent", int, 6),
        tangent_reorth=_get(tangent, "reorth_every", int, 10),
        tangent_relax=_get(tangent, "t_relax", float, 4.0),
        tangent_seed=_get(tangent, "seed", int, 7),
        tangent_band=_get(tangent, "tangent_band", int, 3),
        sections=sections,
    )


def render_sections(sections: Dict[str, Dict[str, str]]) -> str:
    chunks = []
    for name, kv in sections.items():
        chunks.append(f"[{name}]")
        chunks.extend(f"{k} = {v}" for k, v in kv.items())
        chunks.append("")
    return "\n".join(chunks)


PRESETS: Dict[str, Dict[str, Dict[str, str]]] = {
    # theta0 = cos x1, f = 0: the nonlinearity vanishes identically and the
    # solution is exp(-kappa t) cos x1
    "exact-decay": {
        "solver": {"dim": "2", "n": "64", "kappa": "1.0", "dt": "1e-3", "t_end": "1.0",
                   "snapshot_dt": "0.1"},
        "initial": {"kind": "single_mode", "kx": "1", "ky": "0", "amplitude": "1.0"},
        "force": {"kind": "zero"},
        "probes": {"decay_envelope_ps": "2"},
    },
    # f = kappa cos x1 with theta0 = cos x1 is an exact steady state
    "steady-state": {
        "solver": {"dim": "2", "n": "64", "kappa": "1.0", "dt": "1e-2", "t_end": "10.0",
                   "snapshot_dt": "0.5"},
        "initial": {"kind": "single_mode", "kx": "1", "ky": "0", "amplitude": "1.0"},
        "force": {"kind": "single_mode", "kx": "1", "ky": "0", "amplitude": "1.0"},
        "probes": {},
    },
    # forced random run tracked against the Hoelder envelope at alpha = alpha_0
    "holder-corpus": {
        "solver": {"dim": "2", "n": "48", "kappa": "1.0", "dt": "1e-2", "t_end": "10.0",
                   "snapshot_dt": "0.1"},
        "initial": {"kind": "random_band", "band": "4", "amplitude": "0.8", "seed": "21"},
        "force": {"kind": "random_band", "band": "3", "amplitude": "0.15", "seed": "11"},
        "probes": {"holder_alpha": "auto", "decay_envelope_ps": "2,4,inf", "absorption": "1"},
    },
    # weakly forced base for the tangent-ensemble / dimension pipeline
    "dimension-sweep": {
        "solver": {"dim": "2", "n": "32", "kappa": "1.0", "dt": "2e-3", "t_end": "10.0",
                   "snapshot_dt": "0.5"},
        "initial": {"kind": "random_band", "band": "3", "amplitude": "0.5", "seed": "5"},
        "force": {"kind": "random_band", "band": "2", "amplitude": "0.01", "seed": "6"},
        "probes": {},
        "tangent": {"n_tangent": "6", "reorth_every": "10", "t_relax": "6.0", "seed": "7",
                    "tangent_band": "3"},
    },
    # 1D critical Burgers testbed
    "burgers-basic": {
        "solver": {"dim": "1", "n": "256", "kappa": "1.0", "dt": "1e-3", "t_end": "2.0",
                   "snapshot_dt": "0.1"},
        "initial": {"kind": "single_mode", "kx": "1", "amplitude": "1.0"},
        "force": {"kind": "zero"},
        "probes": {"holder_alpha": "auto", "decay_envelope_ps": "2,inf"},
    },
}


def preset_sections(name: str) -> Dict[str, Dict[str, str]]:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    # deep-copy so callers may mutate
    return {sec: dict(kv) for sec, kv in PRESETS[name].items()}
