"""Command-line surface: presets, exit taxonomy, manifests, determinism."""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

import critsqg

from critsqg.cli import EXIT_BLOWUP, EXIT_FALSIFIED, EXIT_OK, EXIT_USAGE, main
from critsqg.config import (_SCHEMA, PRESETS, ConfigError, build_setup, default_corpus_path,
                            parse_config_text, preset_sections, read_corpus)
from critsqg.solver import FieldSpec, Force, build_field, random_band_field
from critsqg.snapshots import read_snapshot, sha256_of_file, write_manifest, write_snapshot
from critsqg.spectral import SpectralField, TorusGrid
from critsqg.tangent import IDENTITY_RESIDUAL_BOUND, _trace_per_m

from conftest import cos_x1


SMALL_RUN = """
[solver]
dim = 2
n = 32
kappa = 1.0
dt = 1e-2
t_end = 0.4
snapshot_dt = 0.1

[initial]
kind = random_band
band = 4
amplitude = 0.8
seed = 21

[force]
kind = random_band
band = 3
amplitude = 0.15
seed = 11

[probes]
decay_envelope_ps = 2,4,inf
holder_alpha = auto
absorption = 1
"""


# an unforced n=16 dimension run: 4 tangents in band 3, a few steps of relax and run
SMALL_DIMENSION = """
[solver]
dim = 2
n = 16
dt = 1e-2
t_end = 0.05
snapshot_dt = 0.05

[initial]
kind = random_band
band = 3
amplitude = 0.5
seed = 5

[force]
kind = zero

[tangent]
n_tangent = 4
reorth_every = 2
t_relax = 0.02
tangent_band = 3
"""


# keys of the deleted epsilon-regularization; a config naming one is rejected
REMOVED_SOLVER_KEYS = {"epsilon", "mollifier_width"}


def _defective_snapshot(path, dim, defect):
    """A snapshot of a mean-free n = 16 field, cut short, one value too long, holding a NaN,
    or with a header of dim 3 or of n = 7."""
    write_snapshot(str(path), cos_x1(TorusGrid(dim, 16)), 0.0)
    blob = path.read_bytes()
    if defect == "truncated":
        blob = blob[:-80]
    elif defect == "over_long":
        blob += bytes(8)
    elif defect == "nan":
        blob = blob[:24] + np.float64(np.nan).astype("<f8").tobytes() + blob[32:]
    else:  # a header naming no valid grid: the u32 dim at byte 8, or n at byte 12
        offset, value = {"dim3": (8, 3), "n7": (12, 7)}[defect]
        blob = blob[:offset] + value.to_bytes(4, "little") + blob[offset + 4:]
    path.write_bytes(blob)
    return str(path)


SNAPSHOT_DEFECTS = {"truncated": "bytes, expected", "over_long": "bytes, expected",
                    "nan": "non-finite values", "dim3": "dim must be 1 or 2, got 3",
                    "n7": "n must be even and >= 8, got 7"}


class TestConfigParsing:
    def test_sections_roundtrip(self):
        sections = parse_config_text(SMALL_RUN)
        assert sections["solver"]["n"] == "32"
        assert sections["probes"]["holder_alpha"] == "auto"

    def test_malformed_line_number(self):
        bad = "[solver]\ndim = 2\nthis is not a key value\n"
        with pytest.raises(ConfigError) as exc:
            parse_config_text(bad)
        assert exc.value.lineno == 3

    def test_unknown_key_line_number(self):
        bad = "[solver]\nnozzle = 7\n"
        with pytest.raises(ConfigError) as exc:
            build_setup(parse_config_text(bad))
        assert exc.value.lineno == 2

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("[warp]\nspeed = 9\n")

    @pytest.mark.parametrize("sections, message", [
        ({"solver": {"epsilon": "0.1", "n": "16"}}, "unknown key 'epsilon' in section [solver]"),
        ({"solver": {"n": "16"}, "bogus": {"x": "1"}}, "unknown section [bogus]"),
    ], ids=["unknown_key", "unknown_section"])
    def test_dict_schema_checked_at_line_0(self, sections, message):
        # a preset or any caller that builds the dict gets the same schema check as parsed text
        with pytest.raises(ConfigError) as exc:
            build_setup(sections)
        assert exc.value.lineno == 0 and message in str(exc.value)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_setup_holds_the_fields_its_recipes_build(self, name):
        # each [initial]/[force] recipe decoded by hand, with build_setup's defaults
        setup = build_setup(preset_sections(name))
        for section, built in (("initial", setup.initial), ("force", setup.force.field)):
            kv = PRESETS[name].get(section, {})
            spec = FieldSpec(kind=kv.get("kind", "zero"),
                             k=(int(kv.get("kx", 1)), int(kv.get("ky", 0))),
                             amplitude=float(kv.get("amplitude", 1.0)),
                             band=int(kv.get("band", 4)), seed=int(kv.get("seed", 0)))
            assert np.array_equal(built.coeffs, build_field(spec, setup.grid).coeffs), section
        assert setup.force == Force.wrap(setup.force.field)
        assert setup.grid.n == int(PRESETS[name]["solver"]["n"])

    def test_manifest_section_ignored(self):
        text = "[manifest]\ncreated_unix = 1.5\n" + SMALL_RUN
        sections = parse_config_text(text)
        assert "manifest" not in sections

    def test_manifest_records_versions_and_replays_as_config(self, tmp_path):
        sections = parse_config_text(SMALL_RUN)
        write_manifest(str(tmp_path / "m"), sections, "simulate", "o", 0, {}, "v")
        text = (tmp_path / "m").read_text()
        lines = text.splitlines()
        assert f"python_version = {platform.python_version()}" in lines
        assert f"numpy_version = {np.__version__}" in lines
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert f"blas_version = {blas['name']} {blas['version']}" in lines
        assert f"blas_threads = {critsqg.BLAS_THREADS}" in lines
        assert parse_config_text(text) == sections

    def test_presets_exist(self):
        for name in ("exact-decay", "steady-state", "holder-corpus", "dimension-sweep",
                     "burgers-basic"):
            assert preset_sections(name)

    def test_readme_config_example_builds_and_names_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        sections = parse_config_text(block)
        build_setup(sections)
        # the example's [initial] stands for [force] too
        assert _SCHEMA["force"] == _SCHEMA["initial"]
        assert set(sections) == set(_SCHEMA) - {"force"}
        for name, kv in sections.items():
            assert set(kv) == _SCHEMA[name], name

    def test_unknown_preset_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_sections("no-such-preset")

    @pytest.mark.parametrize("extra, message", [
        ("[solver]\nn = 31\n", "n must be even"),
        ("[initial]\nkind = bogus\n", "[initial] unknown field kind"),
        ("[force]\nkind = single_mode\nkx = 0\n", "[force] single_mode wavevector"),
        ("[tangent]\nreorth_every = 0\n", "reorth_every must be a positive integer"),
        ("[solver]\ndt = abc\n", "bad value for 'dt'"),
        ("[solver]\nt_end = inf\n", "not finite"),
        ("[solver]\ncfl_budget = 0\n", "cfl_budget must be positive"),
        ("[tangent]\nn_tangent = 0\n", "n_tangent must be a positive integer, got 0"),
        ("[tangent]\ntangent_band = 0\n", "tangent_band must be a positive integer, got 0"),
        ("[tangent]\nt_relax = -1\n", "t_relax must be >= 0"),
        # band 1 holds the 4 modes (+-1, 0) and (0, +-1)
        ("[tangent]\ntangent_band = 1\nn_tangent = 6\n",
         "n_tangent = 6 exceeds the 4 independent modes"),
        # on n = 64, kx = 32 is the Nyquist mode, which no field holds, and kx = 40 and 64
        # alias onto k = 24 and k = 0
        *((f"[solver]\nn = 64\n[initial]\nkind = single_mode\nkx = {kx}\n",
           f"[initial] |kx| must be < n/2 = 32, got {kx}") for kx in (32, 40, 64)),
    ], ids=["odd_n", "unknown_kind", "zero_wavevector", "zero_reorth", "bad_dt", "inf_t_end",
            "zero_cfl_budget", "zero_n_tangent", "zero_tangent_band", "negative_t_relax",
            "n_tangent_above_band_modes", "kx32_on_n64", "kx40_on_n64", "kx64_on_n64"])
    def test_bad_run_config_exit_2_before_manifest(self, tmp_path, capsys, extra, message):
        # later sections override the same keys of SMALL_RUN; no case steps a field
        text = SMALL_RUN + extra
        with pytest.raises(ConfigError) as exc:
            build_setup(parse_config_text(text))
        assert message in str(exc.value) and str(exc.value).count("line ") == 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (out / "manifest.txt").exists()

    @settings(max_examples=150, deadline=None)
    @given(
        solver=st.dictionaries(
            st.sampled_from(sorted(_SCHEMA["solver"] | REMOVED_SOLVER_KEYS)),
            st.sampled_from(["-1", "0", "1", "2", "3", "8", "16", "31", "32", "1e-3", "0.5",
                             "nan", "inf", "x", ""])),
        initial=st.dictionaries(
            st.sampled_from(["kind", "kx", "ky", "amplitude", "band", "seed"]),
            st.sampled_from(["zero", "single_mode", "random_band", "bogus", "-2", "0", "1",
                             "3", "0.8", "nan", "x", ""])),
        force=st.dictionaries(
            st.sampled_from(["kind", "kx", "ky", "amplitude", "band", "seed"]),
            st.sampled_from(["zero", "single_mode", "random_band", "-1", "0", "2", "0.1", "y"])),
        tangent=st.dictionaries(
            st.sampled_from(["n_tangent", "reorth_every", "t_relax", "seed", "tangent_band"]),
            st.sampled_from(["-1", "0", "1", "10", "0.5", "inf", "z"])),
        seed_override=st.one_of(st.none(), st.integers(-5, 5)),
        as_text=st.booleans(),
    )
    def test_build_setup_rejects_or_builds(self, solver, initial, force, tangent, seed_override,
                                           as_text):
        # grids stay at n <= 32 and bands at <= 3, so building every field is cheap
        sections = {"solver": {"n": "16", **solver}, "initial": initial, "force": force,
                    "tangent": tangent}
        text = "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                       for sec, kv in sections.items())
        try:
            setup = build_setup(parse_config_text(text) if as_text else sections, seed_override)
        except ConfigError:
            return
        # an unknown key is rejected by either route
        assert not REMOVED_SOLVER_KEYS & set(solver)
        assert setup.initial.grid == setup.force.field.grid == setup.grid

    @pytest.mark.parametrize("extra", [
        "[solver]\ndt = abc\n",
        "[solver]\nt_end = inf\n",
        "[solver]\nn = 31\n",
        "[solver]\ndim = 3\n",
        "[solver]\nkappa = 0\n",
        "[solver]\nsnapshot_dt = -1\n",
        "[solver]\nintegrator = rk4\n",
        "[solver]\ndealias = half\n",
        # IMEX Crank-Nicolson with two-thirds dealiasing is the only scheme: no key selects it
        "[solver]\nintegrator = imex-cn\n",
        "[solver]\ndealias = two-thirds\n",
        "[solver]\nepsilon = -1\n",
        # the epsilon-regularization is gone: naming either of its keys is an unknown key
        "[solver]\nepsilon = 0\n",
        "[solver]\nmollifier_width = 0\n",
        "[initial]\nkind = bogus\n",
        "[force]\nkind = single_mode\nkx = 0\n",
        "[initial]\nband = 17\n",
        "[tangent]\nreorth_every = 0\n",
        "[tangent]\ntangent_band = 17\n",
        "[probes]\nholder_alpha = 2\n",
        "[probes]\ndecay_envelope_ps = 2,three\n",
        # the only checks of an envelope p and a Hoelder alpha: odd and zero p, a NaN alpha
        "[probes]\ndecay_envelope_ps = 3\n",
        "[probes]\ndecay_envelope_ps = 0\n",
        "[probes]\nholder_alpha = nan\n",
        "[tangent]\nn_tangent = -3\n",
        "[tangent]\ntangent_band = 0\n",
        "[tangent]\nt_relax = -1\n",
        "[tangent]\ntangent_band = 1\nn_tangent = 5\n",
        # a random_band field needs band >= 1 (band 0 or below built the zero field)
        # and seed >= 0 (a negative seed raised from numpy)
        "[initial]\nband = 0\n",
        "[initial]\nband = -2\n",
        "[force]\nband = -2\n",
        "[initial]\nseed = -1\n",
        "[force]\nseed = -1\n",
        "[tangent]\nseed = -1\n",
        # a single_mode wavevector has |kx|, |ky| < n/2 (16 on SMALL_RUN's n = 32)
        "[initial]\nkind = single_mode\nkx = -16\n",
        "[force]\nkind = single_mode\nky = 40\n",
    ])
    def test_value_error_reports_its_line(self, tmp_path, capsys, extra):
        # the bad value is on the last line of the file
        text = SMALL_RUN + extra
        want = len(text.splitlines())
        with pytest.raises(ConfigError) as exc:
            build_setup(parse_config_text(text))
        assert exc.value.lineno == want
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"line {want}: " in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("command, dim", [("burgers", 2), ("dimension", 1), ("simulate", 1)])
    def test_wrong_dim_for_command_reports_its_line(self, tmp_path, capsys, command, dim):
        text = SMALL_RUN.replace("dim = 2", f"dim = {dim}")
        want = text.splitlines().index(f"dim = {dim}") + 1
        with pytest.raises(ConfigError, match=f"{command} requires dim") as exc:
            build_setup(parse_config_text(text), command=command)
        assert exc.value.lineno == want
        build_setup(parse_config_text(text))  # the config itself is valid
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"line {want}: {command} requires dim" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_seed_override_keeps_lines_and_manifest_bytes(self, tmp_path):
        parsed = build_setup(parse_config_text(SMALL_RUN), seed_override=3).sections
        plain = build_setup({sec: {k: str(v) for k, v in kv.items()}
                             for sec, kv in parse_config_text(SMALL_RUN).items()},
                            seed_override=3).sections
        for name, sections in (("a", parsed), ("b", plain)):
            write_manifest(str(tmp_path / name), sections, "simulate", "o", 3, {}, "v")
        a = (tmp_path / "a").read_text().splitlines()
        b = (tmp_path / "b").read_text().splitlines()
        assert [l for l in a if "created_unix" not in l] == [l for l in b if "created_unix" not in l]
        assert "seed = 24" in a
        text = SMALL_RUN.replace("seed = 11", "seed = x")
        with pytest.raises(ConfigError) as exc:
            build_setup(parse_config_text(text), seed_override=3)
        assert exc.value.lineno == text.splitlines().index("seed = x") + 1

    def test_negative_offset_seed_reports_its_line(self, tmp_path, capsys):
        # SMALL_RUN's [initial] seed 21 offset by -30 is -9, reported on the seed's line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN)
        want = SMALL_RUN.splitlines().index("seed = 21") + 1
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -9") as exc:
            build_setup(parse_config_text(SMALL_RUN), seed_override=-30)
        assert exc.value.lineno == want
        for source, line in ((["--config", str(cfg)], want), (["--preset", "holder-corpus"], 0)):
            out = tmp_path / str(line)
            assert main(["simulate", *source, "--seed-override", "-30", "--out", str(out)]) == EXIT_USAGE
            assert f"line {line}: [initial] seed must be" in capsys.readouterr().err
            assert not (out / "manifest.txt").exists()

    def test_band_above_half_n_rejected_without_building(self, tmp_path, monkeypatch):
        # band 40 on n = 16 used to build a 640-point normalization grid (123 MiB)
        def no_build(*_args, **_kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr("critsqg.config.build_field", no_build)
        # SMALL_RUN's [initial] and [force] are random_band fields
        for section, key in (("initial", "band"), ("force", "band"), ("tangent", "tangent_band")):
            text = SMALL_RUN.replace("n = 32", "n = 16") + f"[{section}]\n{key} = 40\n"
            with pytest.raises(ConfigError, match=f"{key} must be <= 8, got 40"):
                build_setup(parse_config_text(text))
            cfg = tmp_path / f"{section}.cfg"
            cfg.write_text(text)
            out = tmp_path / section
            command = "dimension" if section == "tangent" else "simulate"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            assert not (out / "manifest.txt").exists()
        # n/2 itself is accepted
        monkeypatch.undo()
        edge = SMALL_RUN.replace("n = 32", "n = 16") + "[initial]\nband = 8\n"
        assert np.array_equal(build_setup(parse_config_text(edge)).initial.coeffs,
                              random_band_field(TorusGrid(2, 16), 8, 0.8, 21).coeffs)

    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from([1, 2]), nk=st.sampled_from([16, 64]).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(-n, n), st.integers(-n, n))))
    @example(dim=2, nk=(64, 31, 0))
    @example(dim=2, nk=(64, 40, 0))
    def test_single_mode_holds_its_modes_or_names_its_line(self, dim, nk):
        n, kx, ky = nk
        text = (f"[solver]\ndim = {dim}\nn = {n}\n\n"
                f"[initial]\nkind = single_mode\namplitude = 0.75\nkx = {kx}\nky = {ky}\n")
        k = (kx, ky)[:dim]  # a 1D run ignores ky
        valid = any(k) and max(map(abs, k)) < n // 2
        try:
            setup = build_setup(parse_config_text(text))
        except ConfigError as exc:
            assert not valid
            assert exc.lineno in (text.splitlines().index(f"kx = {kx}") + 1,
                                  text.splitlines().index(f"ky = {ky}") + 1)
            return
        assert valid
        # amplitude/2 at +-k, times (-1)^(kx + ky) because the grid starts at x = -pi
        want = np.zeros(setup.grid.shape, dtype=np.complex128)
        want[tuple(kc % n for kc in k)] = want[tuple(-kc % n for kc in k)] = 0.375 * (-1) ** sum(k)
        assert np.abs(setup.initial.coeffs - want).max() < 1e-13  # roundoff of cos(k . x)

    def test_snapshot_on_another_grid_exit_2_before_manifest(self, tmp_path, capsys):
        snap = tmp_path / "theta.sqgf"
        write_snapshot(str(snap), SpectralField.zeros(TorusGrid(2, 32)), 0.0)
        text = SMALL_RUN.replace("n = 32", "n = 16") + f"[initial]\nkind = file\npath = {snap}\n"
        want = len(text.splitlines())
        with pytest.raises(ConfigError, match="does not match run grid") as exc:
            build_setup(parse_config_text(text))
        assert exc.value.lineno == want
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"line {want}: " in err[0]
        assert not (out / "manifest.txt").exists()
        # a missing file is a config error too; the matching grid still builds
        with pytest.raises(ConfigError, match="No such file"):
            build_setup(parse_config_text(text.replace(str(snap), str(tmp_path / "none"))))
        assert build_setup(parse_config_text(text.replace("n = 16", "n = 32"))).initial.is_zero()

    def test_snapshot_read_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(path):
            calls.append(path)
            return read_snapshot(path)

        for module in ("critsqg.snapshots", "critsqg.solver", "critsqg.config"):
            monkeypatch.setattr(f"{module}.read_snapshot", counted)
        snap = tmp_path / "theta.sqgf"
        write_snapshot(str(snap), cos_x1(TorusGrid(2, 32)), 0.0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN.replace("t_end = 0.4", "t_end = 0.1")
                       + f"[initial]\nkind = file\npath = {snap}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert calls == [str(snap)]

    def test_manifest_pins_the_snapshot_it_reads(self, tmp_path):
        snap = tmp_path / "theta.sqgf"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN.replace("t_end = 0.4", "t_end = 0.1")
                       + f"[initial]\nkind = file\npath = {snap}\n")
        hashes = []
        for amplitude in (0.5, 0.7):
            # rewriting the snapshot changes the hash its manifest records
            write_snapshot(str(snap), cos_x1(TorusGrid(2, 32), amplitude=amplitude), 0.0)
            out = tmp_path / str(amplitude)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            lines = (out / "manifest.txt").read_text().splitlines()
            hashes.append(sha256_of_file(str(snap)))
            assert f"initial = {snap}" in lines and f"initial_sha256 = {hashes[-1]}" in lines
            # the [force] of SMALL_RUN is generated, so it reads no file
            assert not any(line.startswith("force_sha256") for line in lines)
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("command", ["simulate", "burgers", "dimension"])
    @pytest.mark.parametrize("defect", sorted(SNAPSHOT_DEFECTS))
    def test_defective_snapshot_exit_2_on_its_path_line(self, tmp_path, capsys, command, defect):
        dim = 1 if command == "burgers" else 2
        snap = _defective_snapshot(tmp_path / "theta.sqgf", dim, defect)
        base = SMALL_DIMENSION if command == "dimension" else SMALL_RUN.replace("n = 32", "n = 16")
        text = base.replace("dim = 2", f"dim = {dim}") + f"[initial]\nkind = file\npath = {snap}\n"
        want = len(text.splitlines())
        with pytest.raises(ConfigError, match=SNAPSHOT_DEFECTS[defect]) as exc:
            build_setup(parse_config_text(text), command=command)
        assert exc.value.lineno == want and snap in str(exc.value)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"line {want}: " in err[0] and snap in err[0]
        assert not (out / "manifest.txt").exists()
        assert not (out / "blowup_last_state.sqgf").exists()


# how each unusable path reaches the CLI: (path kind, argv or environment it is put in)
UNUSABLE_PATHS = {
    "config_directory": ("directory", "--config"),
    "config_not_utf8": ("not_utf8", "--config"),
    "constants_directory": ("directory", "SQG_CONSTANTS"),
    "out_existing_file": ("file", "--out"),
    "corpus_directory": ("directory", "corpus"),
    "corpus_not_utf8": ("not_utf8", "corpus"),
}


def _shipped_constants_lines():
    from critsqg.diagnostics import default_constants_path

    with open(default_constants_path(), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _shipped_constants_with(key, value):
    """The shipped constants file with ``key``'s value replaced, and ``line N`` of that key."""
    lines = _shipped_constants_lines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.split("=")[0].strip() == key)
    lines[lineno - 1] = f"{key} = {value}"
    return "\n".join(lines) + "\n", f"line {lineno}"


def _shipped_constants_plus(line):
    """The shipped constants file with ``line`` appended, and ``line N`` of it."""
    lines = _shipped_constants_lines() + [line]
    return "\n".join(lines) + "\n", f"line {len(lines)}"


class TestUsageErrors:
    @pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
    def test_unusable_path_exit_2_with_one_line(self, tmp_path, capsys, monkeypatch, case):
        kind, where = UNUSABLE_PATHS[case]
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not_utf8":
            bad.write_bytes(b"[solver]\nn = 16\n# \xff\n")
        else:
            bad.write_text("")
        out = tmp_path / "o"
        argv = ["simulate", "--preset", "exact-decay", "--out", str(out)]
        if where == "--config":
            argv[1:3] = ["--config", str(bad)]
        elif where == "SQG_CONSTANTS":
            monkeypatch.setenv("SQG_CONSTANTS", str(bad))
        elif where == "--out":
            argv[-1] = str(bad)
        else:
            argv = ["verify-kernels", str(bad), "--out", str(out)]
        # an uncaught exception would escape main and fail the test
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("critsqg: config error: ") and str(bad) in err[0]
        assert not (out / "manifest.txt").exists()

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "no-such-preset", "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown preset" in err and len(err.splitlines()) == 1

    def test_stray_key_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        # only bad input maps to exit 2; a KeyError from a bug is not swallowed
        def broken(*_args, **_kwargs):
            raise KeyError("internal")

        monkeypatch.setattr("critsqg.cli.build_setup", broken)
        with pytest.raises(KeyError):
            main(["simulate", "--preset", "exact-decay", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("text, where", [
        ("c0 1.0\n", "line 1"), ("# hdr\nc0 = one\n", "line 2"),
        # values that are not finite and positive: c5 = nan would hang the Hoelder
        # envelope's bisection, c5 = inf and c0 < 0 would give vacuous envelopes
        *(pytest.param(*_shipped_constants_with(key, value), id=f"{key}={value}")
          for key, value in [("c5", "nan"), ("c5", "inf"), ("c0", "-1.0"), ("c2", "nan"),
                             ("c9", "0")]),
        # a repeated key and a typo were loaded silently, the repeat's value winning
        *(pytest.param(*_shipped_constants_plus(extra), id=extra)
          for extra in ["c5 = 99.0", "c55 = 1.0"]),
        # a key left out is named, though it has no line
        pytest.param("".join(f"{line}\n" for line in _shipped_constants_lines()
                             if not line.startswith("c9 ")), "missing key 'c9'", id="no c9")])
    def test_malformed_constants_exit_2(self, tmp_path, capsys, monkeypatch, text, where):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        monkeypatch.setenv("SQG_CONSTANTS", str(bad))
        out = tmp_path / "o"
        rc = main(["verify-kernels", "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert where in err and "bad.txt" in err and len(err.splitlines()) == 1
        assert not (out / "manifest.txt").exists()

    def test_empty_constants_variable_means_shipped_file(self, tmp_path, monkeypatch):
        from critsqg.diagnostics import constants_path, default_constants_path

        monkeypatch.setenv("SQG_CONSTANTS", "")
        assert constants_path() == default_constants_path()

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "exact-decay", "--threads", "2",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**blas_threads) -> dict:
    """This process's environment with ``src`` on the path, no BLAS thread variable
    (importing critsqg set them here) and then the given ones."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    env.update(blas_threads)
    return env


def _python(code: str, env: dict) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout


def _loaded_by_cli_import(module: str) -> bool:
    code = f"import sys, critsqg.cli; print({module!r} in sys.modules)"
    return _python(code, _child_env()).strip() == "True"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the Hoelder envelope is solved in closed form: no ODE integrator is loaded
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_leaves_scipy_special_unloaded():
    # the kernel constant uses math.gamma: scipy.special is never loaded
    assert not _loaded_by_cli_import("scipy.special")


def test_simulate_and_verify_kernels_load_no_scipy(tmp_path):
    # the runtime depends on numpy alone: a Hoelder and absorption run and a kernel
    # check in one fresh process leave no scipy module behind
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN)
    corpus = tmp_path / "c.csv"
    corpus.write_text("seed,band,norm,n\n0,6,1.0,32\n")
    code = ("import sys\nfrom critsqg.cli import main\n"
            f"rcs = [main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'sim')!r}]),\n"
            f"       main(['verify-kernels', {str(corpus)!r}, '--out', {str(tmp_path / 'ker')!r}])]\n"
            "print(rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _python(code, _child_env()).splitlines()[-1] == f"[{EXIT_OK}, {EXIT_OK}] []"
    assert (tmp_path / "sim" / "holder.csv").exists()
    assert (tmp_path / "sim" / "absorption.csv").exists()
    assert (tmp_path / "ker" / "kernel_report.csv").exists()


def test_kernel_report_replays_under_any_blas_thread_setting(tmp_path):
    # importing critsqg pins BLAS to one thread, so a threaded gemm never decides the
    # summation order of the translation symbol: the shipped corpus gives the same
    # bytes whatever thread count the environment asks for
    outs = [tmp_path / name for name in ("unset", "one", "two")]
    for out, blas_threads in zip(outs, ({}, {"OPENBLAS_NUM_THREADS": "1"},
                                        {"OPENBLAS_NUM_THREADS": "2"})):
        code = ("import sys; from critsqg.cli import main\n"
                f"sys.exit(main(['verify-kernels', '--out', {str(out)!r}]))")
        _python(code, _child_env(**blas_threads))
    reports = [(out / "kernel_report.csv").read_bytes() for out in outs]
    assert reports[0] == reports[1] == reports[2]
    for out in outs:
        assert "blas_threads = 1" in (out / "manifest.txt").read_text().splitlines()


def test_manifest_records_blas_unpinned_when_numpy_loaded_first(tmp_path):
    # numpy's BLAS pool already exists, so the pin cannot act; the manifest says so
    manifest = tmp_path / "manifest.txt"
    code = ("import numpy, critsqg.cli\n"
            "from critsqg.snapshots import write_manifest\n"
            f"write_manifest({str(manifest)!r}, {{}}, 'simulate', 'o', 0, {{}}, 'v')\n")
    _python(code, _child_env())
    assert "blas_threads = unpinned" in manifest.read_text().splitlines()


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(critsqg.__path__)))
def test_every_all_entry_resolves(module):
    # a stale __all__ entry breaks ``import *`` with an AttributeError, and a
    # missing one drops a public function or class from it
    exec(f"from critsqg.{module} import *", {})
    mod = importlib.import_module(f"critsqg.{module}")
    if hasattr(mod, "__all__"):
        defined = {name for name, obj in vars(mod).items()
                   if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == mod.__name__}
        assert sorted(defined - set(mod.__all__)) == []


class TestSimulate:
    def test_small_forced_run(self, tmp_path):
        # the manifest lists every file a passing run writes: at t_end = 0.4 no unit
        # H^3/2 window fits and absorption_windows.csv is header-only, at 1.1 two do
        for t_end, windows in (("0.4", 0), ("1.1", 2)):
            cfg = tmp_path / f"run{t_end}.cfg"
            cfg.write_text(SMALL_RUN.replace("t_end = 0.4", f"t_end = {t_end}"))
            out = tmp_path / t_end
            rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
            assert rc == EXIT_OK
            for name in ("manifest.txt", "norms.csv", "envelope_p2.csv", "envelope_pinf.csv",
                         "holder.csv", "absorption.csv", "theta_initial.sqgf", "theta_final.sqgf"):
                assert (out / name).exists(), name
            listed = [line.split(" = ", 1)[1] for line in (out / "manifest.txt").read_text().splitlines()
                      if line.startswith("output = ")]
            assert sorted(listed + ["manifest.txt"]) == sorted(os.listdir(out))
            rows = (out / "absorption_windows.csv").read_text().splitlines()
            assert rows[0] == "t_start,avg_h32_sq,budget,violated" and len(rows) == 1 + windows

    def test_duplicate_exponents_list_their_file_once(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("[solver]\ndim = 2\nn = 16\nt_end = 0.05\nsnapshot_dt = 0.05\n\n"
                       "[initial]\nkind = random_band\nband = 3\namplitude = 0.5\nseed = 5\n\n"
                       "[force]\nkind = zero\n\n[probes]\ndecay_envelope_ps = 2,2,inf,6\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        listed = [line.split(" = ", 1)[1] for line in (out / "manifest.txt").read_text().splitlines()
                  if line.startswith("output = ")]
        assert sorted(listed + ["manifest.txt"]) == sorted(os.listdir(out))
        assert [name for name in listed if name.startswith("envelope_")] == [
            "envelope_p2.csv", "envelope_pinf.csv", "envelope_p6.csv"]

    def test_holder_violated_column_is_the_verdict(self, tmp_path, monkeypatch):
        # an envelope a hair (1e-12 relative) below g is within the slack of the
        # comparison: the run passes and no row of holder.csv reads violated
        from critsqg import diagnostics

        real = diagnostics.holder_envelope_check

        def envelope_just_below(t, *args):
            g = np.array([row[1] for row in real(t, *args).rows])
            return diagnostics._envelope_report(t, g, g / (1.0 + 1e-12))

        monkeypatch.setattr(diagnostics, "holder_envelope_check", envelope_just_below)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "holder.csv").read_text().splitlines()]
        assert rows[0] == ["t", "g", "envelope_sq", "slack", "violated"]
        assert any(float(g) > float(e) for _t, g, e, _s, _v in rows[1:])
        assert [v for *_rest, v in rows[1:]] == ["0"] * (len(rows) - 1)

    def test_falsification_snapshots_follow_holder_rows(self, tmp_path, monkeypatch):
        # c5 = 1e-6 shrinks the Hoelder envelope far below g once t > 0
        from dataclasses import replace

        from critsqg.diagnostics import load_constants, save_constants

        save_constants(replace(load_constants(), c5=1e-6), str(tmp_path / "c.txt"))
        monkeypatch.setenv("SQG_CONSTANTS", str(tmp_path / "c.txt"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[solver]\ndim = 2\nn = 32\ndt = 1e-2\nt_end = 0.5\nsnapshot_dt = 0.1\n\n"
                       "[initial]\nkind = random_band\nband = 4\namplitude = 1.0\nseed = 3\n\n"
                       "[force]\nkind = random_band\nband = 3\namplitude = 0.5\nseed = 4\n\n"
                       "[probes]\nholder_alpha = 0.1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_FALSIFIED
        rows = [line.split(",") for line in (out / "holder.csv").read_text().splitlines()[1:]]
        times = [float(t) for t, *_rest, violated in rows if violated == "1"]
        assert len(times) == 5
        dumped = {name for name in os.listdir(out) if name.startswith("falsification_")}
        assert dumped == {f"falsification_{i}.sqgf" for i in range(len(times))}
        for i, t in enumerate(times):
            assert read_snapshot(str(out / f"falsification_{i}.sqgf"))[1] == t
        listed = [line.split(" = ", 1)[1] for line in (out / "manifest.txt").read_text().splitlines()
                  if line.startswith("output = ")]
        assert not any(name.startswith("falsification_") for name in listed)

    def test_exact_decay_preset_l2_series(self, tmp_path):
        out = tmp_path / "decay"
        rc = main(["simulate", "--preset", "exact-decay", "--out", str(out)])
        assert rc == EXIT_OK
        rows = (out / "norms.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        it, il2 = header.index("t"), header.index("l2")
        l2_0 = None
        for line in rows[1:]:
            cells = line.split(",")
            t, l2 = float(cells[it]), float(cells[il2])
            if l2_0 is None:
                l2_0 = l2
            assert abs(l2 - l2_0 * np.exp(-t)) < 1e-5 * l2_0

    def test_zero_everything(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[solver]\ndim = 2\nn = 32\nt_end = 0.2\n\n[initial]\nkind = zero\n\n"
                       "[force]\nkind = zero\n\n[probes]\ndecay_envelope_ps = 2\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        body = (out / "norms.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) == 0.0 for line in body)

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[solver]\ndim = 2\nbad-line-without-equals\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, alpha", [("auto", "auto"), ("0.25", 0.25), ("1", 1.0), ("", None)])
    def test_holder_alpha_decoded_once(self, raw, alpha):
        # the probe takes the float build_setup parsed, not the literal
        setup = build_setup(parse_config_text(SMALL_RUN + f"holder_alpha = {raw}\n"))
        assert setup.holder_alpha == alpha and type(setup.holder_alpha) is type(alpha)

    @pytest.mark.parametrize("key, value", [("holder_alpha", "0"), ("holder_alpha", "abc"),
                                            ("holder_alpha", "nan"), ("decay_envelope_ps", "2,three"),
                                            ("decay_envelope_ps", "3"), ("decay_envelope_ps", "0"),
                                            ("absorption", "on")])
    def test_bad_probe_value_exit_2_before_manifest(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_RUN + f"{key} = {value}\n")  # [probes] is last; last value wins
        assert parse_config_text(cfg.read_text())["probes"][key] == value
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    def test_both_config_and_preset_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_RUN)
        rc = main(["simulate", "--config", str(cfg), "--preset", "exact-decay",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_exit_3(self, tmp_path, capsys):
        # disable the CFL guard and take a huge explicit step on steep data;
        # the overflowing intermediates on the way to NaN warn by design
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(
            "[solver]\ndim = 2\nn = 32\ndt = 0.9\nt_end = 40\nsnapshot_dt = 10\n"
            "cfl_budget = 1e9\n\n"
            "[initial]\nkind = random_band\nband = 8\namplitude = 40\nseed = 3\n\n"
            "[force]\nkind = zero\n"
        )
        out = tmp_path / "boom"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_BLOWUP
        assert (out / "blowup_last_state.sqgf").exists()

    def test_dim_mismatch(self, tmp_path):
        rc = main(["simulate", "--preset", "burgers-basic", "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE


# SMALL_DIMENSION at kappa = 0.05 under a band-3 force of amplitude 0.15: alpha_* is
# ~0.008, and the absorbing radius m_1f is past float range
SMALL_KAPPA = SMALL_DIMENSION.replace("dt = 1e-2", "kappa = 0.05\ndt = 1e-2").replace(
    "kind = zero", "kind = random_band\nband = 3\namplitude = 0.15\nseed = 11") + (
    "\n[probes]\nabsorption = 1\n")


@pytest.mark.parametrize("command", ["simulate", "dimension"])
def test_small_kappa_radius_past_float_range_ends_by_verdict(tmp_path, command):
    cfg = tmp_path / "k.cfg"
    cfg.write_text(SMALL_KAPPA)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) in (EXIT_OK, EXIT_FALSIFIED)
    if command == "simulate":
        rows = (out / "absorption.csv").read_text().splitlines()
        assert rows[0] == "t,h1,m_1f,inside" and all(r.split(",")[2] == "inf" for r in rows[1:])
    else:
        assert "N (a-priori dimension bound)  = inf" in (out / "dimension_report.txt").read_text()


class TestBurgersCommand:
    def test_zero_preset_like(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("[solver]\ndim = 1\nn = 128\nt_end = 0.2\n\n[initial]\nkind = zero\n\n"
                       "[force]\nkind = zero\n")
        rc = main(["burgers", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK

    def test_basic_preset_linf_monotone(self, tmp_path):
        out = tmp_path / "b"
        rc = main(["burgers", "--preset", "burgers-basic", "--out", str(out)])
        assert rc == EXIT_OK
        rows = (out / "norms.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        ilinf = header.index("linf")
        linf = [float(line.split(",")[ilinf]) for line in rows[1:]]
        assert all(b <= a + 1e-8 for a, b in zip(linf, linf[1:]))


class TestVerifyKernels:
    @pytest.mark.parametrize("shipped", [False, True], ids=["given", "shipped"])
    def test_manifest_records_corpus_and_its_hash(self, tmp_path, monkeypatch, shipped):
        corpus = tmp_path / "c.csv"
        corpus.write_text("seed,band,norm,n\n")
        if shipped:
            # only the manifest is under test: the shipped corpus is not checked
            monkeypatch.setattr("critsqg.cli.read_corpus", lambda _path: ([], {}))
            corpus, argv = default_corpus_path(), []
        else:
            argv = [str(corpus)]
        out = tmp_path / "o"
        assert main(["verify-kernels", *argv, "--out", str(out)]) == EXIT_OK
        lines = (out / "manifest.txt").read_text().splitlines()
        assert f"corpus = {corpus}" in lines
        assert f"corpus_sha256 = {sha256_of_file(str(corpus))}" in lines
        # the manifest holds no config sections: the corpus is the whole input
        assert [l for l in lines if l.startswith("[")] == ["[manifest]"]

    def test_manifest_pins_each_file_row(self, tmp_path):
        snap = tmp_path / "row.sqgf"
        write_snapshot(str(snap), random_band_field(TorusGrid(2, 32), 4, 1.0, 3), 0.0)
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n,path\n0,6,1.0,32\n1,4,1.0,32,{snap}\n")
        out = tmp_path / "o"
        assert main(["verify-kernels", str(corpus), "--out", str(out)]) == EXIT_OK
        lines = (out / "manifest.txt").read_text().splitlines()
        assert [l for l in lines if l.startswith("corpus")] == [
            f"corpus = {corpus}", f"corpus_sha256 = {sha256_of_file(str(corpus))}",
            f"corpus_line3 = {snap}", f"corpus_line3_sha256 = {sha256_of_file(str(snap))}"]

    def test_empty_corpus_vacuous_pass(self, tmp_path, capsys):
        corpus = tmp_path / "empty.csv"
        corpus.write_text("seed,band,norm,n\n")
        rc = main(["verify-kernels", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert "vacuous" in capsys.readouterr().err

    def test_small_corpus_passes(self, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text("seed,band,norm,n\n0,6,1.0,32\n1,6,0.5,32\n")
        rc = main(["verify-kernels", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "kernel_report.csv").exists()

    @pytest.mark.parametrize("row", ["0,6", "0,6,1.0,31", "0,six,1.0,32", "0,6,nan,32",
                                     "0,6,inf,32", "-1,6,1.0,32", "0,0,1.0,32", "0,-2,1.0,32",
                                     "0,6,0,32", "0,6,-1.0,32"])
    def test_bad_corpus_row_exit_2_with_line(self, tmp_path, capsys, row):
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n\n0,6,1.0,32\n{row}\n")
        out = tmp_path / "o"
        rc = main(["verify-kernels", str(corpus), "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 3" in err[0] and repr(row) in err[0]
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("scale, failing", [(1e-3, ["lower_bound"] * 8),
                                                (1e3, ["lower_bound_nonvacuous"])])
    def test_scaled_c2_is_falsified(self, tmp_path, capsys, monkeypatch, scale, failing):
        # c2 x 1e-3 puts every cubic-bound ratio below 1; c2 x 1e3 puts the least one above 10
        from dataclasses import replace

        from critsqg.diagnostics import load_constants, save_constants

        consts = load_constants()
        save_constants(replace(consts, c2=consts.c2 * scale), str(tmp_path / "c.txt"))
        monkeypatch.setenv("SQG_CONSTANTS", str(tmp_path / "c.txt"))
        corpus = tmp_path / "c.csv"
        corpus.write_text("seed,band,norm,n\n0,6,1.0,32\n")
        out = tmp_path / "o"
        assert main(["verify-kernels", str(corpus), "--out", str(out)]) == EXIT_FALSIFIED
        rows = [line.split(",") for line in (out / "kernel_report.csv").read_text().splitlines()[1:]]
        assert [suite for suite, _field, _value, _thr, passed in rows if passed == "0"] == failing
        printed = [line.split()[:3] for line in capsys.readouterr().out.splitlines()]
        assert printed == [["PASS" if passed == "1" else "FAIL", suite, field]
                           for suite, field, _value, _thr, passed in rows]

    def test_unresolved_generated_row_exit_2_with_line(self, tmp_path, capsys):
        # band 16 on n=64 squares onto the Nyquist mode: a usage error, not a FAIL
        corpus = tmp_path / "c.csv"
        corpus.write_text("seed,band,norm,n\n0,6,1.0,32\n\n0,16,1.0,64\n")
        out = tmp_path / "o"
        rc = main(["verify-kernels", str(corpus), "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 4" in err[0] and "bandwidth 16" in err[0]
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("band", [40, 1000])
    def test_generated_row_band_checked_before_building(self, tmp_path, capsys, monkeypatch, band):
        # band 1000 on n=64 used to build 16384^2 normalization arrays before exiting 2
        def no_build(*_args, **_kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr("critsqg.solver.random_band_field", no_build)
        monkeypatch.setattr("critsqg.config.random_band_field", no_build)
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n\n1,{band},1.0,64\n")
        out = tmp_path / "o"
        rc = main(["verify-kernels", str(corpus), "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2" in err[0] and f"bandwidth {band} " in err[0]
        assert not (out / "manifest.txt").exists()

    def test_unresolved_file_row_exit_2_with_line(self, tmp_path, capsys):
        snap = tmp_path / "band8.sqgf"
        write_snapshot(str(snap), random_band_field(TorusGrid(2, 32), 8, 1.0, 3), 0.0)
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n,path\n0,4,1.0,32,{snap}\n")
        out = tmp_path / "o"
        rc = main(["verify-kernels", str(corpus), "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2" in err[0] and "bandwidth 8" in err[0]
        assert not (out / "manifest.txt").exists()

    def test_one_dimensional_file_row_exit_2_with_line(self, tmp_path, capsys):
        snap = tmp_path / "line.sqgf"
        write_snapshot(str(snap), cos_x1(TorusGrid(1, 32)), 0.0)
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n,path\n0,4,1.0,32,{snap}\n")
        rc = main(["verify-kernels", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2" in err[0] and "1-dimensional" in err[0]

    @pytest.mark.parametrize("defect", sorted(SNAPSHOT_DEFECTS))
    def test_defective_file_row_exit_2_with_line(self, tmp_path, capsys, defect):
        snap = _defective_snapshot(tmp_path / "theta.sqgf", 2, defect)
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n,path\n0,4,1.0,16,{snap}\n")
        with pytest.raises(ConfigError, match=SNAPSHOT_DEFECTS[defect]) as exc:
            read_corpus(str(corpus))
        assert exc.value.lineno == 2 and snap in str(exc.value)
        out = tmp_path / "o"
        assert main(["verify-kernels", str(corpus), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2" in err[0] and snap in err[0]
        assert not (out / "manifest.txt").exists()

    def test_non_mean_zero_file_field_exit_2(self, tmp_path, capsys):
        g = TorusGrid(2, 32)
        vals = np.ones(g.shape) + 0.1 * np.cos(np.arange(32))[:, None]
        snap = tmp_path / "bad.sqgf"
        # write raw snapshot bytes with a nonzero-mean payload
        import struct

        with open(snap, "wb") as fh:
            fh.write(struct.pack("<4sIIId", b"SQGF", 1, 2, 32, 0.0))
            fh.write(vals.astype("<f8").tobytes())
        corpus = tmp_path / "c.csv"
        corpus.write_text(f"seed,band,norm,n,path\n0,4,1.0,32,{snap}\n")
        rc = main(["verify-kernels", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert "mean" in capsys.readouterr().err.lower()


class TestDimensionCommand:
    def test_usage_error_on_zero_nmax(self, tmp_path):
        rc = main(["dimension", "--preset", "dimension-sweep", "--n-max", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_USAGE

    def test_n_max_replays_from_manifest(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(SMALL_DIMENSION)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["dimension", "--config", str(cfg), "--n-max", "2",
                     "--out", str(out1)]) == EXIT_OK
        # the manifest records the override, so the replay needs no --n-max
        sections = parse_config_text((out1 / "manifest.txt").read_text())
        assert sections["tangent"]["n_tangent"] == "2"
        assert main(["dimension", "--config", str(out1 / "manifest.txt"),
                     "--out", str(out2)]) == EXIT_OK
        for name in ("trace_log.csv", "dimension_report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        ms = {line.split(",")[1] for line in (out1 / "trace_log.csv").read_text().splitlines()[1:]}
        assert ms == {"1", "2"}

    def test_tangent_count_capped_by_band_modes(self, tmp_path, capsys):
        # band 1 holds the 4 modes (+-1, 0) and (0, +-1): 4 tangents run, 5 do not,
        # and the error names the n_tangent line also when the band line comes last
        band1 = "[tangent]\ntangent_band = 1\n"
        cfg = tmp_path / "d.cfg"
        cfg.write_text(SMALL_DIMENSION + band1)
        assert main(["dimension", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        text = SMALL_DIMENSION.replace("n_tangent = 4", "n_tangent = 5") + band1
        cfg.write_text(text)
        out = tmp_path / "b"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        want = text.splitlines().index("n_tangent = 5") + 1
        err = capsys.readouterr().err
        assert f"line {want}: n_tangent = 5 exceeds the 4 independent modes" in err
        assert not (out / "manifest.txt").exists()

    def test_identity_residual_above_bound_exit_1(self, tmp_path, capsys, monkeypatch):
        # a trace off by 1 per unit time leaves the log-volumes 0.05 behind its integral
        monkeypatch.setattr("critsqg.tangent._trace_per_m", lambda *args: _trace_per_m(*args) + 1.0)
        cfg = tmp_path / "d.cfg"
        cfg.write_text(SMALL_DIMENSION)
        out = tmp_path / "o"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == EXIT_FALSIFIED
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and "identity residual" in err[0]
        assert f"exceeds {IDENTITY_RESIDUAL_BOUND:g}" in err[0]
        # the report and stdout hold the same lines as a passing run
        report = (out / "dimension_report.txt").read_text()
        assert captured.out == report and "exceeds" not in report
        resid = float(report.split("identity residual at t_end = ")[1])
        assert resid > IDENTITY_RESIDUAL_BOUND

    @settings(max_examples=40, deadline=None)
    @given(tangent=st.fixed_dictionaries({}, optional={
        "n_tangent": st.integers(-2, 30),
        "tangent_band": st.integers(-1, 9),
        "reorth_every": st.integers(-1, 4),
        "t_relax": st.sampled_from(["-0.5", "-0.0", "0", "0.01", "0.03"]),
    }))
    def test_exit_code_is_2_exactly_when_build_setup_raises(self, tangent):
        text = SMALL_DIMENSION + "[tangent]\n" + "".join(f"{k} = {v}\n" for k, v in tangent.items())
        try:
            build_setup(parse_config_text(text), command="dimension")
            want = EXIT_OK
        except ConfigError:
            want = EXIT_USAGE
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "d.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            out = os.path.join(tmp, "o")
            err = io.StringIO()
            # an uncaught exception (a traceback) fails the example
            with contextlib.redirect_stderr(err):
                rc = main(["dimension", "--config", cfg, "--out", out])
            assert os.path.exists(os.path.join(out, "manifest.txt")) == (want == EXIT_OK)
            if want == EXIT_OK and rc == EXIT_FALSIFIED:
                # the run is unforced, so the identity gate is the one verdict that can fail:
                # with tangents near n/2 the residual's time-step error exceeds the bound
                # (9 tangents in band 8: 1.1e-3 at dt = 1e-2, 1.8e-4 at dt = 2.5e-3)
                assert err.getvalue().count("\n") == 1 and "identity residual" in err.getvalue()
            else:
                assert rc == want

    def test_unforced_reports_empirical_one(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            "[solver]\ndim = 2\nn = 32\ndt = 2e-3\nt_end = 3\n\n"
            "[initial]\nkind = random_band\nband = 3\namplitude = 0.5\nseed = 5\n\n"
            "[force]\nkind = zero\n\n"
            "[tangent]\nn_tangent = 3\nreorth_every = 10\nt_relax = 3\ntangent_band = 3\n"
        )
        out = tmp_path / "o"
        rc = main(["dimension", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        report = (out / "dimension_report.txt").read_text()
        assert "empirical_N (first m with negative trace average) = 1" in report
        assert (out / "trace_log.csv").exists()

    @pytest.mark.parametrize("amplitude, radius", [("0.15", "6.00600111635"), ("0.3", "inf")])
    def test_strong_force_ends_by_verdict(self, tmp_path, capsys, amplitude, radius):
        # the holder-corpus force shape: at 0.15 N lies past float range, at 0.3
        # the radius overflows to inf and the bound is vacuous
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[solver]\ndim = 2\nn = 16\ndt = 2e-3\nt_end = 0.02\nsnapshot_dt = 0.01\n\n"
                       "[initial]\nkind = random_band\nband = 3\namplitude = 0.5\nseed = 5\n\n"
                       f"[force]\nkind = random_band\nband = 3\namplitude = {amplitude}\nseed = 11\n\n"
                       "[tangent]\nn_tangent = 2\nreorth_every = 5\nt_relax = 0\ntangent_band = 3\n")
        out = tmp_path / "o"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "output = dimension_report.txt" in (out / "manifest.txt").read_text()
        report = {key.strip(): value for key, _, value in
                  (line.partition(" = ") for line in (out / "dimension_report.txt").read_text().splitlines())}
        assert report["M_A (max of H^3/2, H^2 radii)"].startswith(radius)
        n_text = report["N (a-priori dimension bound)"]
        assert (n_text == "inf") if radius == "inf" else (int(n_text) > sys.float_info.max)
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_dump_stamped_with_elapsed_time(self, tmp_path):
        # no CFL guard and a huge step: the base overflows after the 1.5 relax
        # phase, at the same time as `simulate` of the same solver and data
        body = ("[solver]\ndim = 2\nn = 16\nkappa = 0.1\ndt = 0.5\nt_end = 50\n"
                "snapshot_dt = 0.5\ncfl_budget = 1e9\n\n"
                "[initial]\nkind = random_band\nband = 3\namplitude = 5\nseed = 5\n\n"
                "[force]\nkind = zero\n")
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(body + "\n[tangent]\nn_tangent = 2\nreorth_every = 2\nt_relax = 1.5\n"
                              "tangent_band = 3\n")
        for command, out in (("simulate", "s"), ("dimension", "d")):
            rc = main([command, "--config", str(cfg), "--out", str(tmp_path / out)])
            assert rc == EXIT_BLOWUP
        _, t_simulate = read_snapshot(str(tmp_path / "s" / "blowup_last_state.sqgf"))
        _, t_dimension = read_snapshot(str(tmp_path / "d" / "blowup_last_state.sqgf"))
        assert t_simulate > 2.0
        assert t_dimension == pytest.approx(t_simulate, rel=1e-12)

    def test_collapse_exit_3(self, tmp_path, capsys, monkeypatch):
        import critsqg.cli as cli
        from critsqg.tangent import EnsembleCollapseError

        def collapse(*args, **kwargs):
            raise EnsembleCollapseError("tangent frame condition 1.2e+07 exceeded trigger; "
                                        "reduce reorth_every (currently 10)")

        monkeypatch.setattr(cli, "volume_and_trace_run", collapse)
        out = tmp_path / "o"
        rc = main(["dimension", "--preset", "dimension-sweep", "--n-max", "2", "--out", str(out)])
        assert rc == EXIT_BLOWUP
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "reduce reorth_every" in err[0]
        assert (out / "manifest.txt").exists()


class TestDeterminism:
    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        # the manifest doubles as a config file
        assert main(["simulate", "--config", str(out1 / "manifest.txt"),
                     "--out", str(out2)]) == EXIT_OK
        for name in ("norms.csv", "envelope_p2.csv", "envelope_p4.csv",
                     "envelope_pinf.csv", "holder.csv", "absorption.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name

    def test_rerun_after_seed_override_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--seed-override", "3",
                     "--out", str(out1)]) == EXIT_OK
        # the manifest records the offset seeds, so the replay needs no override
        sections = parse_config_text((out1 / "manifest.txt").read_text())
        assert sections["initial"]["seed"] == "24" and sections["force"]["seed"] == "14"
        assert main(["simulate", "--config", str(out1 / "manifest.txt"),
                     "--out", str(out2)]) == EXIT_OK
        for name in ("norms.csv", "holder.csv", "theta_initial.sqgf"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestSnapshotFormat:
    def test_roundtrip(self, tmp_path):
        from critsqg.solver import random_band_field

        g = TorusGrid(2, 32)
        f = random_band_field(g, 5, 1.0, 9)
        p = tmp_path / "f.sqgf"
        write_snapshot(str(p), f, 2.5)
        back, t = read_snapshot(str(p))
        assert t == 2.5
        assert np.abs(back.values() - f.values()).max() < 1e-12

    def test_header_layout(self, tmp_path):
        g = TorusGrid(1, 16)

        f = SpectralField.from_values(g, np.cos(g.coords))
        p = tmp_path / "f.sqgf"
        write_snapshot(str(p), f, 1.0)
        blob = p.read_bytes()
        assert blob[:4] == b"SQGF"
        assert len(blob) == 4 + 4 + 4 + 4 + 8 + 16 * 8

    @pytest.mark.parametrize("defect", sorted(SNAPSHOT_DEFECTS))
    def test_defective_body_rejected_naming_path(self, tmp_path, defect):
        snap = _defective_snapshot(tmp_path / "f.sqgf", 2, defect)
        with pytest.raises(ValueError, match=SNAPSHOT_DEFECTS[defect]) as exc:
            read_snapshot(snap)
        assert str(exc.value).startswith(f"{snap}: ")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.sqgf"
        p.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError):
            read_snapshot(str(p))
