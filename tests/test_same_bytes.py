"""The file comparisons and line count of ``tools/same_bytes.py``, on small files (no subprocess)."""

import importlib.util
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from critsqg.config import parse_config_file
from critsqg.diagnostics import default_constants_path, load_constants
from critsqg.snapshots import read_snapshot
from critsqg.spectral import TorusGrid

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_bytes.py")
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _pair(tmp_path, a, b, suffix=".csv"):
    return _write(tmp_path / f"parent{suffix}", a), _write(tmp_path / f"change{suffix}", b)


class TestCompareCsv:
    def test_identical_files_have_no_change(self, tmp_path):
        text = "t,norm,violated\n0.0,1.5,0\n0.1,1.25,0\n"
        assert same_bytes._compare_csv(*_pair(tmp_path, text, text)) == (None, {"t": 0.0, "norm": 0.0})

    def test_changed_verdict_is_a_problem(self, tmp_path):
        problem, _ = same_bytes._compare_csv(*_pair(
            tmp_path, "t,norm,violated\n0.0,1.5,0\n", "t,norm,violated\n0.0,1.5,1\n"))
        assert problem == "column 'violated' differs"

    def test_changed_integer_column_is_a_problem(self, tmp_path):
        problem, _ = same_bytes._compare_csv(*_pair(
            tmp_path, "t,m,trace\n0.5,1,-2.5\n0.5,2,-3.5\n", "t,m,trace\n0.5,1,-2.5\n0.5,3,-3.5\n"))
        assert problem == "column 'm' differs"

    def test_float_column_reports_relative_change(self, tmp_path):
        problem, worst = same_bytes._compare_csv(*_pair(
            tmp_path, "t,norm\n0.0,2.0\n0.1,4.0\n", "t,norm\n0.0,2.0\n0.1,5.0\n"))
        assert problem is None
        assert worst == {"t": 0.0, "norm": pytest.approx(0.2, rel=1e-15)}

    def test_header_or_row_count_change_is_a_problem(self, tmp_path):
        for b in ("t,other\n0.0,2.0\n", "t,norm\n0.0,2.0\n0.1,2.5\n"):
            problem, _ = same_bytes._compare_csv(*_pair(tmp_path, "t,norm\n0.0,2.0\n", b))
            assert problem == "header or row count differs"


def _sqgf(path, n, t, values):
    header = b"SQGF" + struct.pack("<iii", 1, 2, n) + struct.pack("<d", t)
    path.write_bytes(header + np.asarray(values, dtype="<f8").tobytes())
    return str(path)


class TestCompareSqgf:
    def test_header_change_is_a_problem(self, tmp_path):
        v = np.arange(4.0)
        a = _sqgf(tmp_path / "a.sqgf", 2, 0.5, v)
        for b in (_sqgf(tmp_path / "b.sqgf", 2, 0.75, v), _sqgf(tmp_path / "c.sqgf", 4, 0.5, v)):
            assert same_bytes._compare_sqgf(a, b) == ("header or size differs", {})

    def test_value_change_is_relative_to_the_largest_magnitude(self, tmp_path):
        a = _sqgf(tmp_path / "a.sqgf", 2, 0.5, [1.0, -4.0, 2.0, 0.0])
        b = _sqgf(tmp_path / "b.sqgf", 2, 0.5, [1.5, -4.0, 2.0, 0.0])
        assert same_bytes._compare_sqgf(a, b) == (None, {"values": pytest.approx(0.125, rel=1e-15)})
        assert same_bytes._compare_sqgf(a, a) == (None, {"values": 0.0})


_REPORT = """dimension report
N (a-priori dimension bound)  = {N}
trace averages  = [{avg}]
averages converged = [{flag}]
volume/trace identity residual at t_end = {resid}
"""


def _report(**kw):
    base = {"N": 1, "avg": "-2.0", "flag": "True", "resid": "1e-12"}
    return _REPORT.format(**{**base, **kw})


class TestCompareReport:
    def test_identity_residual_reports_absolute_change(self, tmp_path):
        problem, worst = same_bytes._compare_report(*_pair(
            tmp_path, _report(), _report(resid="3e-12"), ".txt"))
        assert problem is None
        assert worst == {"line 3": 0.0, "line 5 absolute": pytest.approx(2e-12, rel=1e-12)}

    def test_float_line_reports_relative_change(self, tmp_path):
        problem, worst = same_bytes._compare_report(*_pair(
            tmp_path, _report(), _report(avg="-2.5"), ".txt"))
        assert problem is None and worst["line 3"] == pytest.approx(0.2, rel=1e-15)

    def test_integer_or_verdict_change_is_a_problem(self, tmp_path):
        for kw in ({"N": 2}, {"flag": "False"}):
            problem, _ = same_bytes._compare_report(*_pair(tmp_path, _report(), _report(**kw), ".txt"))
            assert problem is not None and problem.startswith("line ")


class TestDigests:
    def test_stdout_is_compared_and_manifest_is_not(self, tmp_path):
        out = tmp_path / "kernels"
        out.mkdir()
        for name in ("kernel_report.csv", "stdout.txt", "manifest.txt", "notes.log"):
            _write(out / name, f"{name}\n")
        assert sorted(same_bytes._digests(str(tmp_path))) == ["kernels/kernel_report.csv",
                                                              "kernels/stdout.txt"]

    def test_stdout_change_is_compared_like_a_report(self, tmp_path):
        a = "PASS  identity  seed0_a0.5  value=0.00125 threshold=0.01\n"
        b = "FAIL  identity  seed0_a0.5  value=0.00125 threshold=0.01\n"
        assert same_bytes._compare(*_pair(tmp_path, a, a, ".txt")) == (None, {"line 1": 0.0})
        problem, _ = same_bytes._compare(*_pair(tmp_path, a, b, ".txt"))
        assert problem == "line 1 differs"


class TestSrcLines:
    def test_counts_newlines_of_package_sources_only(self, tmp_path):
        pkg = tmp_path / "critsqg"
        (pkg / "data").mkdir(parents=True)
        _write(pkg / "a.py", "x = 1\ny = 2\n")
        _write(pkg / "b.py", "z = 3")  # no final newline: wc -l counts 0 lines
        _write(pkg / "notes.txt", "1\n2\n3\n")
        _write(pkg / "data" / "c.py", "\n")
        assert same_bytes._src_lines(str(tmp_path)) == 2


class TestCommands:
    def test_both_kernel_corpora_and_a_snapshot_run_among_fifteen_commands(self, tmp_path):
        cmds = same_bytes._commands(str(tmp_path))
        assert len(cmds) == 15
        cfg = str(tmp_path / "snapshot_run.cfg")
        assert cmds["snapshot-file"] == (["simulate", "--config", cfg], {})
        sections = parse_config_file(cfg)
        assert sections["initial"] == {"kind": "file", "path": str(tmp_path / "theta0.sqgf")}
        theta, t = read_snapshot(sections["initial"]["path"])
        assert t == 0.0 and theta.grid == TorusGrid(2, 32) and theta.band() == 3
        assert cmds["kernels-shipped"] == (["verify-kernels"], {})
        assert cmds["kernels-corpus4"] == (["verify-kernels", str(tmp_path / "corpus_4.csv")], {})
        assert (tmp_path / "corpus_4.csv").is_file()

    def test_falsified_run_alone_reads_the_tiny_c5_constants(self, tmp_path):
        cmds = same_bytes._commands(str(tmp_path))
        argv, env = cmds["holder-falsified"]
        assert argv == ["simulate", "--config", str(tmp_path / "falsified_run.cfg")]
        assert env == {"SQG_CONSTANTS": str(tmp_path / "constants_c5_tiny.txt")}
        assert parse_config_file(argv[2])["probes"]["holder_alpha"] == "0.1"
        tiny, shipped = load_constants(env["SQG_CONSTANTS"]), load_constants(default_constants_path())
        assert tiny == replace(shipped, c5=1e-6)
        assert [name for name, (_argv, extra) in cmds.items() if extra] == ["holder-falsified"]
