"""Check that a change leaves the outputs of the shipped commands byte-identical.

    python3 tools/same_bytes.py [--parent REV] [--expect-change FILE ...]

Run from anywhere inside a git checkout.  The parent tree is the commit REV
(default ``HEAD``), unpacked with ``git archive`` into a temporary directory;
the other tree is the checkout as it stands, uncommitted edits included.
Both run the same 15 commands, each in a fresh process with ``PYTHONPATH``
set to the tree's ``src/``, two at a time (one per tree):

* ``simulate`` of the presets ``exact-decay``, ``steady-state`` and
  ``holder-corpus`` (default seed and ``--seed-override`` 0, 1 and 5);
* ``burgers --preset burgers-basic``;
* ``simulate`` of a forced n = 32 config whose ``[initial]`` is ``kind = file``:
  a snapshot that this script writes from a fixed mean-free array;
* ``simulate`` of a small forced n = 32 Hoelder run under a constants file
  with c5 = 1e-6 (the shipped file with that one line changed), passed as
  ``SQG_CONSTANTS`` to this command only: its Hoelder envelope falls far below
  ``g`` once t > 0, so it exits 1 with ``violated = 1`` rows and
  ``falsification_*.sqgf`` snapshots;
* ``dimension --preset dimension-sweep``, in full and with ``--n-max 3``;
* the benchmark's ``tangent_sweep`` config with ``--seed-override`` 3 and 11;
* ``verify-kernels`` on the benchmark's kernel corpus of seed 4;
* ``verify-kernels`` on the default shipped corpus, the one the acceptance
  suite and the calibration of c2 read.

The inputs of the benchmark's three come from this checkout's ``bench/run.py``,
and the snapshot, the constants file and their configs are written once, so
both trees read the same files.  Each command's standard output is saved as ``stdout.txt``
beside its outputs.  Every CSV, ``.sqgf``,
``dimension_report.txt`` and ``stdout.txt`` is compared (manifests hold a
creation time, so they are not).  The script prints each command's exit
codes, one line per file that differs or exists on one side only, the
number of identical files, for each tree the sha256 of the sorted
``sha256  command/file`` list, and the line count of each tree's
``src/critsqg/*.py`` (as ``wc -l`` counts them: newline characters).  It
exits 0 when every exit code and every file is the same, and 1 otherwise.
Nothing is written outside the temporary directory.

``--expect-change`` names files (by file name, for every command) that a
numerical change may move; the script prints the largest relative change
``|a - b| / max(|a|, |b|)`` of what may move (one line of the dimension
report excepted, below), and everything else must be identical:

* a CSV must have the same header and number of rows and identical
  non-numeric columns; a column is numeric when every cell parses as a float
  and at least one is not an integer, so names, counts and 0/1 verdicts must
  match exactly.  The change is printed per numeric column.
* a ``.sqgf`` snapshot must have a byte-equal header (grid and time) and the
  same size; the change of its values is taken relative to the larger of the
  two fields' largest magnitudes.
* ``dimension_report.txt`` and ``stdout.txt`` must have identical text,
  integers and ``True``/``False``; the change is printed per line that holds floats
  (numbers written with a ``.`` or an exponent).  The ``volume/trace identity
  residual`` line gets the absolute change ``|a - b|`` instead: its value is
  a cancellation of log-volume terms of size ~68, so a last-bit change of the
  run is large relative to the residual itself.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import math
import os
import re
import struct
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# a forced n = 32 run from the snapshot path filled in by _write_snapshot_run
_SNAPSHOT_CONFIG = """[solver]
dim = 2
n = 32
kappa = 1.0
dt = 1e-2
t_end = 1.0
snapshot_dt = 0.1

[initial]
kind = file
path = {path}

[force]
kind = random_band
band = 3
amplitude = 0.15
seed = 11

[probes]
decay_envelope_ps = 2,inf
holder_alpha = auto
"""


def _write_snapshot_run(inputs: str) -> str:
    """Write an n = 32 snapshot and the config that starts from it; returns the config path.

    The snapshot holds ``0.6 cos(x) sin(2y) + 0.3 sin(x + 3y)`` (mean-free, band 3)
    at t = 0 in the documented format: the ``<4sIIId`` header (magic, version,
    dim, n, time), then row-major little-endian f64 values.
    """
    n = 32
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    values = 0.6 * np.cos(xx) * np.sin(2.0 * yy) + 0.3 * np.sin(xx + 3.0 * yy)
    snap = os.path.join(inputs, "theta0.sqgf")
    with open(snap, "wb") as fh:
        fh.write(struct.pack("<4sIIId", b"SQGF", 1, 2, n, 0.0))
        fh.write(values.astype("<f8").tobytes())
    cfg = os.path.join(inputs, "snapshot_run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(_SNAPSHOT_CONFIG.format(path=snap))
    return cfg


# a forced n = 32 Hoelder run; under c5 = 1e-6 every snapshot after t = 0 is falsified
_FALSIFIED_CONFIG = """[solver]
dim = 2
n = 32
dt = 1e-2
t_end = 0.5
snapshot_dt = 0.1

[initial]
kind = random_band
band = 4
amplitude = 1.0
seed = 3

[force]
kind = random_band
band = 3
amplitude = 0.5
seed = 4

[probes]
decay_envelope_ps = 2,inf
holder_alpha = 0.1
"""


def _write_falsified_run(inputs: str) -> tuple:
    """Write the Hoelder run's config and its c5 = 1e-6 constants file; returns both paths."""
    with open(os.path.join(os.path.dirname(HERE), "src", "critsqg", "data",
                           "default_constants.txt"), encoding="utf-8") as fh:
        shipped = fh.read()
    text, count = re.subn(r"^c5 = .*$", "c5 = 1e-06", shipped, flags=re.M)
    if count != 1:
        raise RuntimeError("the shipped constants file has no single c5 line")
    constants = os.path.join(inputs, "constants_c5_tiny.txt")
    cfg = os.path.join(inputs, "falsified_run.cfg")
    for path, content in ((constants, text), (cfg, _FALSIFIED_CONFIG)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    return cfg, constants


def _commands(inputs: str) -> dict:
    """{name: (CLI arguments without --out, extra environment)} of the 15 commands."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(os.path.dirname(HERE), "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # dataclasses look their module up by name
    spec.loader.exec_module(bench)
    tangent_cfg = os.path.join(inputs, "tangent_sweep.cfg")
    corpus = os.path.join(inputs, "corpus_4.csv")
    with open(tangent_cfg, "w", encoding="utf-8") as fh:
        fh.write(bench._TANGENT_CONFIG)
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(bench.kernel_corpus(4))
    falsified_cfg, constants = _write_falsified_run(inputs)
    cmds = {
        "exact-decay": ["simulate", "--preset", "exact-decay"],
        "steady-state": ["simulate", "--preset", "steady-state"],
        "holder-corpus": ["simulate", "--preset", "holder-corpus"],
        "burgers-basic": ["burgers", "--preset", "burgers-basic"],
        "snapshot-file": ["simulate", "--config", _write_snapshot_run(inputs)],
        "dimension-sweep": ["dimension", "--preset", "dimension-sweep"],
        "dimension-sweep-n3": ["dimension", "--preset", "dimension-sweep", "--n-max", "3"],
        "kernels-corpus4": ["verify-kernels", corpus],
        "kernels-shipped": ["verify-kernels"],
    }
    for seed in (0, 1, 5):
        cmds[f"holder-corpus-s{seed}"] = ["simulate", "--preset", "holder-corpus",
                                          "--seed-override", str(seed)]
    for seed in (3, 11):
        cmds[f"tangent-sweep-s{seed}"] = ["dimension", "--config", tangent_cfg,
                                          "--seed-override", str(seed)]
    cmds = {name: (argv, {}) for name, argv in cmds.items()}
    cmds["holder-falsified"] = (["simulate", "--config", falsified_cfg],
                                {"SQG_CONSTANTS": constants})
    return cmds


def _run_tree(src: str, out_root: str, cmds: dict) -> dict:
    """Run every command on the package in ``src``; returns {name: exit code}.

    Each command's standard output goes to ``stdout.txt`` in its output directory.
    """
    env = {k: v for k, v in os.environ.items() if k != "SQG_CONSTANTS"}
    env["PYTHONPATH"] = src
    codes = {}
    for name, (argv, extra_env) in cmds.items():
        out = os.path.join(out_root, name)
        done = subprocess.run([sys.executable, "-m", "critsqg.cli", *argv, "--out", out],
                              env={**env, **extra_env}, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "stdout.txt"), "wb") as fh:
            fh.write(done.stdout)
        codes[name] = done.returncode
    return codes


def _digests(out_root: str) -> dict:
    """{"command/file": sha256} of the compared outputs under ``out_root``."""
    got = {}
    for name in sorted(os.listdir(out_root)):
        for fname in sorted(os.listdir(os.path.join(out_root, name))):
            if fname.endswith((".csv", ".sqgf")) or fname in ("dimension_report.txt", "stdout.txt"):
                with open(os.path.join(out_root, name, fname), "rb") as fh:
                    got[f"{name}/{fname}"] = hashlib.sha256(fh.read()).hexdigest()
    return got


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _compare_csv(parent: str, change: str) -> tuple:
    """``(problem or None, {numeric column: largest relative change})`` of two CSVs."""
    with open(parent, encoding="utf-8") as fh:
        a = list(csv.reader(fh))
    with open(change, encoding="utf-8") as fh:
        b = list(csv.reader(fh))
    if not a or a[0] != b[0] or len(a) != len(b):
        return "header or row count differs", {}
    worst = {}
    for j, name in enumerate(a[0]):
        col_a = [row[j] for row in a[1:]]
        col_b = [row[j] for row in b[1:]]
        numeric = all(map(_is_number, col_a + col_b)) and not all(
            c.lstrip("-").isdigit() for c in col_a + col_b)
        if not numeric:
            if col_a != col_b:
                return f"column {name!r} differs", {}
            continue
        # equal cells include "nan"; -0.0 equals 0.0
        worst[name] = max((_relative(float(x), float(y)) for x, y in zip(col_a, col_b)),
                          default=0.0)
    return None, worst


def _relative(x: float, y: float) -> float:
    """``|x - y| / max(|x|, |y|)``: 0 when equal (also both NaN), inf for other non-finite pairs."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _absolute(x: float, y: float) -> float:
    """``|x - y|``, with the non-finite cases of :func:`_relative`."""
    rel = _relative(x, y)
    return abs(x - y) if 0.0 < rel < math.inf else rel


_SQGF_HEADER = 24  # magic, version, dim, n (4 bytes each) and the time (f64)


def _compare_sqgf(parent: str, change: str) -> tuple:
    """``(problem or None, {"values": relative change})`` of two field snapshots."""
    with open(parent, "rb") as fh:
        a = fh.read()
    with open(change, "rb") as fh:
        b = fh.read()
    if a[:_SQGF_HEADER] != b[:_SQGF_HEADER] or len(a) != len(b):
        return "header or size differs", {}
    x, y = (np.frombuffer(data, dtype="<f8", offset=_SQGF_HEADER) for data in (a, b))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        same = np.array_equal(x, y, equal_nan=True)
        return None, {"values": 0.0 if same else math.inf}
    top = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
    diff = float(np.abs(x - y).max(initial=0.0))
    return None, {"values": diff / float(top) if diff else 0.0}


# a number: the split keeps it as an odd-indexed part, the text around it even-indexed
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def _is_float_text(part: str) -> bool:
    return "." in part or "e" in part


def _compare_report(parent: str, change: str) -> tuple:
    """``(problem or None, {"line N": largest change})`` of two dimension reports or stdouts."""
    with open(parent, encoding="utf-8") as fh:
        a = fh.read().splitlines()
    with open(change, encoding="utf-8") as fh:
        b = fh.read().splitlines()
    if len(a) != len(b):
        return "line count differs", {}
    worst = {}
    for lineno, (line_a, line_b) in enumerate(zip(a, b), 1):
        parts_a, parts_b = _NUMBER.split(line_a), _NUMBER.split(line_b)
        if len(parts_a) != len(parts_b):
            return f"line {lineno} differs", {}
        if line_a.startswith("volume/trace identity residual"):
            change, key = _absolute, f"line {lineno} absolute"
        else:
            change, key = _relative, f"line {lineno}"
        for i, (part_a, part_b) in enumerate(zip(parts_a, parts_b)):
            if i % 2 == 1 and _is_float_text(part_a) and _is_float_text(part_b):
                worst[key] = max(worst.get(key, 0.0), change(float(part_a), float(part_b)))
            elif part_a != part_b:
                return f"line {lineno} differs", {}
    return None, worst


def _compare(parent: str, change: str) -> tuple:
    """``(problem or None, {what: largest relative change})`` of an expected change."""
    if parent.endswith(".sqgf"):
        return _compare_sqgf(parent, change)
    if parent.endswith(".csv"):
        return _compare_csv(parent, change)
    return _compare_report(parent, change)


def _src_lines(src: str) -> int:
    """Newlines in the ``critsqg/*.py`` files under ``src``, the total of ``wc -l``."""
    pkg = os.path.join(src, "critsqg")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def _list_hash(digests: dict) -> str:
    lines = "".join(f"{digests[k]}  {k}\n" for k in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--expect-change", nargs="+", default=[], metavar="FILE",
                        help="CSV, .sqgf, dimension_report.txt or stdout.txt file names "
                             "whose numbers may differ")
    args = parser.parse_args(argv)
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=HERE, check=True,
                          capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=root,
                                 check=True, capture_output=True).stdout
        parent = os.path.join(tmp, "parent")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent, filter="data")
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        cmds = _commands(inputs)
        trees = {"parent": os.path.join(parent, "src"), "change": os.path.join(root, "src")}
        outs = {side: os.path.join(tmp, "out", side) for side in trees}
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {side: pool.submit(_run_tree, trees[side], outs[side], cmds)
                       for side in trees}
            codes = {side: fut.result() for side, fut in futures.items()}
        digests = {side: _digests(outs[side]) for side in trees}
        lines = {side: _src_lines(trees[side]) for side in trees}
        expected = {}
        for key in sorted(set(digests["parent"]) & set(digests["change"])):
            if (os.path.basename(key) in args.expect_change
                    and digests["parent"][key] != digests["change"][key]):
                expected[key] = _compare(*(os.path.join(outs[side], key) for side in trees))

    differ = 0
    for name in cmds:
        a, b = codes["parent"][name], codes["change"][name]
        differ += a != b
        print(f"exit {a} -> {b}  {name}{'' if a == b else '  DIFFERS'}")
    same = 0
    for key in sorted(set(digests["parent"]) | set(digests["change"])):
        a, b = digests["parent"].get(key), digests["change"].get(key)
        if a == b:
            same += 1
        elif key in expected:
            problem, worst = expected[key]
            differ += problem is not None
            changes = ", ".join(f"{col} {rel:.3g}" for col, rel in worst.items())
            print(f"expected change: {key}: {problem or 'largest change ' + changes}")
        elif a is None or b is None:
            differ += 1
            print(f"only in {'change' if a is None else 'parent'}: {key}")
        else:
            differ += 1
            print(f"differs: {key}")
    print(f"{same} identical files, {len(expected)} expected changes, {differ} differences"
          f" (parent {args.parent})")
    for side in trees:
        print(f"{side} list sha256 {_list_hash(digests[side])} ({len(digests[side])} files)")
    print(f"src lines: parent {lines['parent']} -> change {lines['change']}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
