"""Command-line surface: presets, exit taxonomy, manifests, determinism."""

import numpy as np
import pytest

from critsqg.cli import EXIT_BLOWUP, EXIT_OK, EXIT_USAGE, main
from critsqg.config import ConfigError, parse_config_text, preset_sections
from critsqg.snapshots import read_snapshot, write_snapshot
from critsqg.spectral import SpectralField, TorusGrid


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
            parse_config_text(bad)
        assert exc.value.lineno == 2

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("[warp]\nspeed = 9\n")

    def test_manifest_section_ignored(self):
        text = "[manifest]\ncreated_unix = 1.5\n" + SMALL_RUN
        sections = parse_config_text(text)
        assert "manifest" not in sections

    def test_presets_exist(self):
        for name in ("exact-decay", "steady-state", "holder-corpus", "dimension-sweep",
                     "burgers-basic"):
            assert preset_sections(name)


class TestSimulate:
    def test_small_forced_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("manifest.txt", "norms.csv", "envelope_p2.csv", "envelope_pinf.csv",
                     "holder.csv", "absorption.csv", "theta_initial.sqgf", "theta_final.sqgf"):
            assert (out / name).exists(), name

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

    @pytest.mark.parametrize("key, value", [("holder_alpha", "0"), ("holder_alpha", "abc"),
                                            ("decay_envelope_ps", "2,three")])
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

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.sqgf"
        p.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError):
            read_snapshot(str(p))
