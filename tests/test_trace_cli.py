"""The benchmark's tracer still finds every function it patches, on one tiny run."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# an unforced n = 16 run of a few steps
TINY_RUN = """[solver]
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
"""


def test_trace_cli_spans_name_the_patched_layers(tmp_path):
    # bench/trace_cli.py patches functions by name: a renamed one fails here, not in
    # every traced benchmark run
    pytest.importorskip("scipy")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_RUN)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "trace_cli.py"), str(spans),
                          "simulate", "--config", str(cfg), "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    trace = json.loads(spans.read_text())
    called = [trace["names"][i] for i in trace["name"]]
    assert {"solver.build_field", "solver.advance", "config.build_setup"} <= set(called)
    # build_setup builds the [initial] field and the [force] field
    assert called.count("solver.build_field") == 2
