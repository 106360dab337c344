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
rerun ignores) are rejected; duplicate keys take the last value; keys are
checked, and fields built, by :func:`build_setup`.  The kernel corpus CSV is
read here too, by :func:`read_corpus`; an unreadable file is a ConfigError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .kernels import _check_product_resolution
from .snapshots import read_snapshot
from .solver import FieldSpec, Force, SolverConfig, build_field, random_band_field
from .spectral import SpectralField, TorusGrid

__all__ = ["ConfigError", "RunSetup", "parse_config_text", "parse_config_file",
           "build_setup", "PRESETS", "preset_sections", "default_corpus_path", "read_corpus", "read_text"]


class ConfigError(ValueError):
    """Config syntax/schema violation anchored to a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_SCHEMA = {
    "solver": {
        "dim", "n", "kappa", "dt", "t_end", "cfl_budget", "snapshot_dt",
    },
    "initial": {"kind", "kx", "ky", "amplitude", "band", "seed", "path"},
    "force": {"kind", "kx", "ky", "amplitude", "band", "seed", "path"},
    "probes": {"holder_alpha", "decay_envelope_ps", "absorption"},
    "tangent": {"n_tangent", "reorth_every", "t_relax", "seed", "tangent_band"},
}


class _Value(str):
    """A config value that remembers its 1-based line (0 for presets and derived values)."""

    lineno = 0


def _line(kv: Dict[str, str], key: str) -> int:
    return getattr(kv.get(key), "lineno", 0)


def parse_config_text(text: str) -> Dict[str, Dict[str, str]]:
    """``{section: {key: value}}``; each value is a ``str`` that also carries its line."""
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
        value = _Value(val)
        value.lineno = lineno
        sections[current][key] = value
    sections.pop("manifest", None)
    return sections


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read is a :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(0, f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def parse_config_file(path: str) -> Dict[str, Dict[str, str]]:
    return parse_config_text(read_text(path))


def default_corpus_path() -> str:
    """The shipped kernel corpus manifest."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "kernel_corpus.csv")


def _corpus_field(row, corpus_path: str) -> SpectralField:
    """The field of a corpus row; a field the quadrature cannot resolve is a ConfigError.

    A generated row is checked from its own band before its field is built:
    the normalization grid of a random field grows with its band.
    """
    field = None
    if row["path"]:
        # file-based corpus entries must be whole, finite and already mean-free
        try:
            field, _t = read_snapshot(row["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(row["lineno"], f"{corpus_path}: {exc}") from None
    grid, band = (row["grid"], row["band"]) if field is None else (field.grid, field.band())
    try:
        if grid.dim != 2:
            raise ValueError(f"field is {grid.dim}-dimensional, expected 2")
        _check_product_resolution(band, grid.n)
    except ValueError as exc:
        raise ConfigError(row["lineno"], f"{corpus_path}: {exc}") from None
    return random_band_field(grid, band, row["norm"], row["seed"]) if field is None else field


def read_corpus(path: str) -> Tuple[List[Tuple[str, SpectralField]], Dict[str, str]]:
    """``(name, field)`` per row ``seed,band,norm[,n[,path]]`` (n defaults to 64) of a corpus CSV.

    Every row is parsed before any field is built; a bad row is a ConfigError at its line.
    Also returns the snapshot path of each file row, as ``corpus_line<lineno>``.
    """
    rows = []
    lines = [(lineno, l.strip()) for lineno, l in enumerate(read_text(path).splitlines(), start=1)
             if l.strip()]
    if lines and lines[0][1].lower().startswith("seed"):
        lines = lines[1:]
    for lineno, line in lines:
        parts = [p.strip() for p in line.split(",")]
        try:
            row = {"seed": int(parts[0]), "band": int(parts[1]), "norm": float(parts[2]),
                   "grid": TorusGrid(2, int(parts[3]) if len(parts) > 3 and parts[3] else 64),
                   "path": parts[4] if len(parts) > 4 else "", "lineno": lineno}
            if not 0.0 < row["norm"] < np.inf:
                raise ValueError(f"norm must be finite and positive, got {row['norm']}")
            fault = _below("band", row["band"], 1) or _below("seed", row["seed"], 0)
            if fault:
                raise ValueError(fault)
        except (IndexError, ValueError) as exc:
            raise ConfigError(lineno, f"{path}: bad row {line!r}, expected "
                                      f"seed,band,norm[,n[,path]] ({exc})") from None
        rows.append(row)
    return ([(f"seed{row['seed']}", _corpus_field(row, path)) for row in rows],
            {f"corpus_line{row['lineno']}": row["path"] for row in rows if row["path"]})


def _get(kv: Dict[str, str], key: str, cast, default, limit=None):
    """``cast(kv[key])``, or ``default`` when absent; finite if a float, at most ``limit`` if given."""
    if key not in kv:
        return default
    try:
        value = cast(kv[key])
    except ValueError as exc:
        raise ConfigError(_line(kv, key), f"bad value for {key!r}: {kv[key]!r} ({exc})") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(_line(kv, key), f"bad value for {key!r}: {kv[key]!r} (not finite)")
    if limit is not None and value > limit:
        raise ConfigError(_line(kv, key), f"{key} must be <= {limit}, got {value}")
    return value


def _below(key: str, value: int, low: int) -> str:
    """Why ``value`` of ``key`` is not an integer >= ``low`` (0 or 1), or ``""`` when it is."""
    return "" if value >= low else f"{key} must be a {'positive' if low else 'non-negative'} integer, got {value}"


def _at_least(kv: Dict[str, str], key: str, value: int, low: int, prefix: str = "") -> int:
    """``value``, or a :class:`ConfigError` on ``key``'s line when it is below ``low``."""
    if value < low:
        raise ConfigError(_line(kv, key), prefix + _below(key, value, low))
    return value


def _field_spec(kv: Dict[str, str], grid: TorusGrid, section: str) -> FieldSpec:
    """The ``[initial]``/``[force]`` recipe, absent keys at the :class:`FieldSpec` defaults.

    Each bad value is a ConfigError on its own line.  A ``band`` above n/2 would
    build a large normalization grid; a wavevector at or past n/2 would alias.
    """
    prefix = f"[{section}] "
    kind = kv.get("kind", FieldSpec.kind)
    if kind not in ("zero", "single_mode", "random_band", "file"):
        raise ConfigError(_line(kv, "kind"), f"{prefix}unknown field kind {kind!r}")
    k = (_get(kv, "kx", int, FieldSpec.k[0]), _get(kv, "ky", int, FieldSpec.k[1]))
    amplitude = _get(kv, "amplitude", float, FieldSpec.amplitude)
    band = _get(kv, "band", int, FieldSpec.band, limit=grid.n // 2)
    seed = _get(kv, "seed", int, FieldSpec.seed)
    if kind == "single_mode":
        keys = ("kx", "ky")[:grid.dim]
        if not any(k[:grid.dim]):
            raise ConfigError(max(_line(kv, key) for key in keys),
                              f"{prefix}single_mode wavevector must be nonzero")
        for key, kc in zip(keys, k):
            if abs(kc) >= grid.n // 2:
                raise ConfigError(_line(kv, key), f"{prefix}|{key}| must be < n/2 = {grid.n // 2}, got {kc}")
    if kind == "random_band":
        _at_least(kv, "band", band, 1, prefix)
        _at_least(kv, "seed", seed, 0, prefix)
    return FieldSpec(kind=kind, k=k, amplitude=amplitude, band=band, seed=seed, path=kv.get("path", FieldSpec.path))


@dataclass
class RunSetup:
    """One run, decoded from a config: its grid, solver settings, built fields and probes."""

    grid: TorusGrid
    solver: SolverConfig
    initial: SpectralField
    force: Force
    holder_alpha: Union[None, str, float]   # None, "auto", or alpha in (0, 1]
    decay_envelope_ps: Tuple
    absorption: bool
    tangent_n: int
    tangent_reorth: int
    tangent_relax: float
    tangent_seed: int
    tangent_band: int
    sections: Dict[str, Dict[str, str]]
    inputs: Dict[str, str]               # the kind = file snapshot paths, by section


def _holder_alpha(raw: Optional[str]) -> Union[None, str, float]:
    """``auto`` or a float in (0, 1]; an empty value disables the probe."""
    if not raw:
        return None
    if raw == "auto":
        return "auto"
    try:
        alpha = float(raw)
    except ValueError:
        alpha = np.nan
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(getattr(raw, "lineno", 0),
                          f"holder_alpha must be auto or a number in (0, 1], got {raw!r}")
    return alpha


_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(kv: Dict[str, str], key: str) -> bool:
    """An on/off value (``1``/``true``/``yes`` or ``0``/``false``/``no``); absent is off."""
    raw = kv.get(key, "0")
    if raw not in _SWITCH:
        raise ConfigError(_line(kv, key), f"{key} must be one of {'/'.join(_SWITCH)}, got {raw!r}")
    return _SWITCH[raw]


def _envelope_p(tok: str, lineno: int):
    """One Lebesgue exponent: ``inf`` or an even integer >= 2."""
    if tok == "inf":
        return np.inf
    try:
        p = int(tok)
    except ValueError:
        p = 0
    if p < 2 or p % 2:
        raise ConfigError(lineno, f"decay_envelope_ps entries must be inf or even integers >= 2, "
                                  f"got {tok!r}")
    return p


# the grid dimension each run command integrates on
_COMMAND_DIM = {"simulate": 2, "burgers": 1, "dimension": 2}


def build_setup(sections: Dict[str, Dict[str, str]], seed_override: Optional[int] = None,
                command: Optional[str] = None, n_tangent: Optional[int] = None) -> RunSetup:
    """Decode and validate a config and build its run; bad input raises :class:`ConfigError`.

    Every key of parsed text, a preset or a dict is checked against the schema.
    ``seed_override`` offsets the ``[initial]`` and ``[force]`` seeds and
    ``n_tangent`` replaces ``[tangent] n_tangent``; ``RunSetup.sections``
    records the resulting values, so a manifest written from them replays the
    run without either override.  A ``command`` (a key of ``_COMMAND_DIM``)
    also requires the ``dim`` it integrates on.
    """
    for name, kv in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(0, f"unknown section [{name}]")
        for key in kv:
            if key not in _SCHEMA[name]:
                raise ConfigError(_line(kv, key), f"unknown key {key!r} in section [{name}]")
    if seed_override is not None or n_tangent is not None:
        sections = {sec: dict(kv) for sec, kv in sections.items()}
    if seed_override is not None:
        for name in ("initial", "force"):
            kv = sections.setdefault(name, {})
            seed = _Value(_get(kv, "seed", int, FieldSpec.seed) + seed_override)
            seed.lineno = _line(kv, "seed")  # an offset seed is reported on its own line
            kv["seed"] = seed
    if n_tangent is not None:
        sections.setdefault("tangent", {})["n_tangent"] = str(n_tangent)
    sol = sections.get("solver", {})
    dim = _get(sol, "dim", int, 2)
    n = _get(sol, "n", int, 64)
    solver_values = dict(
        kappa=_get(sol, "kappa", float, 1.0),
        dt=_get(sol, "dt", float, 1e-3),
        t_end=_get(sol, "t_end", float, 1.0),
        cfl_budget=_get(sol, "cfl_budget", float, SolverConfig.cfl_budget),
        snapshot_dt=_get(sol, "snapshot_dt", float, SolverConfig.snapshot_dt),
    )
    try:
        grid = TorusGrid(dim, n)
        solver = SolverConfig(**solver_values)
    except ValueError as exc:
        # the message starts with the name of the offending key
        raise ConfigError(_line(sol, str(exc).split()[0]), str(exc)) from exc
    if command is not None and dim != _COMMAND_DIM[command]:
        raise ConfigError(_line(sol, "dim"), f"{command} requires dim = {_COMMAND_DIM[command]}, "
                                             f"config has dim = {dim}")
    probes = sections.get("probes", {})
    holder_alpha = _holder_alpha(probes.get("holder_alpha"))
    ps_raw = probes.get("decay_envelope_ps", "")
    ps = tuple(_envelope_p(tok, _line(probes, "decay_envelope_ps"))
               for tok in filter(None, (t.strip() for t in ps_raw.split(","))))
    tangent = sections.get("tangent", {})
    tangent_reorth = _at_least(tangent, "reorth_every", _get(tangent, "reorth_every", int, 10), 1)
    tangent_n = _at_least(tangent, "n_tangent", _get(tangent, "n_tangent", int, 6), 1)
    tangent_band = _at_least(tangent, "tangent_band", _get(tangent, "tangent_band", int, 3, limit=n // 2), 1)
    # independent real fields in the band: one per nonzero, non-Nyquist lattice point
    modes = int(np.count_nonzero((grid.kmag > 0) & (grid.kmag <= tangent_band)
                                 & ~grid.nyquist_mask))
    if tangent_n > modes:
        raise ConfigError(_line(tangent, "n_tangent") or _line(tangent, "tangent_band"),
                          f"n_tangent = {tangent_n} exceeds the {modes} independent modes with "
                          f"|k| <= tangent_band = {tangent_band} on n = {n}")
    tangent_relax = _get(tangent, "t_relax", float, 4.0)
    if tangent_relax < 0:
        raise ConfigError(_line(tangent, "t_relax"), f"t_relax must be >= 0, got {tangent_relax}")
    # the tangent seed fields are random_band fields of seeds tangent_seed + 17 j
    tangent_seed = _at_least(tangent, "seed", _get(tangent, "seed", int, 7), 0, "[tangent] ")
    # both recipes are checked before either field is built
    recipes = {name: sections.get(name, {}) for name in ("initial", "force")}
    specs = {name: _field_spec(kv, grid, name) for name, kv in recipes.items()}
    fields = {}
    for name, kv in recipes.items():
        try:
            fields[name] = build_field(specs[name], grid)
        except (OSError, ValueError) as exc:
            # only a kind = file snapshot fails here: unreadable, defective or on another grid
            raise ConfigError(_line(kv, "path"), f"[{name}] {exc}") from exc
    return RunSetup(
        grid=grid,
        solver=solver,
        initial=fields["initial"],
        force=Force.wrap(fields["force"]),
        holder_alpha=holder_alpha,
        decay_envelope_ps=ps,
        absorption=_switch(probes, "absorption"),
        tangent_n=tangent_n,
        tangent_reorth=tangent_reorth,
        tangent_relax=tangent_relax,
        tangent_seed=tangent_seed,
        tangent_band=tangent_band,
        sections=sections,
        inputs={name: spec.path for name, spec in specs.items() if spec.kind == "file"},
    )


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
        raise ConfigError(0, f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    # deep-copy so callers may mutate
    return {sec: dict(kv) for sec, kv in PRESETS[name].items()}
