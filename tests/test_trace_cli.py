"""The benchmark's tracer still finds every function it patches, on tiny runs."""

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

# the same field relaxed for 5 base steps, then 10 coupled steps of 2 tangents,
# re-orthonormalized after steps 4, 8 and 10
TINY_DIMENSION = TINY_RUN.replace("t_end = 0.05", "t_end = 0.1") + """
[tangent]
n_tangent = 2
reorth_every = 4
t_relax = 0.05
tangent_band = 2
"""


def _trace(tmp_path, *args):
    """``(names of the spans in call order, counters)`` of one traced CLI run of ``args``."""
    pytest.importorskip("scipy")
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "trace_cli.py"), str(spans),
                          *args, "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    trace = json.loads(spans.read_text())
    return [trace["names"][i] for i in trace["name"]], trace["counts"]


def _config(tmp_path, text):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_trace_cli_spans_name_the_patched_layers(tmp_path):
    # bench/trace_cli.py patches functions by name: a renamed one fails here, not in
    # every traced benchmark run
    called, _counts = _trace(tmp_path, "simulate", "--config", _config(tmp_path, TINY_RUN))
    assert {"solver.build_field", "solver.advance", "config.build_setup"} <= set(called)
    # build_setup builds the [initial] field and the [force] field
    assert called.count("solver.build_field") == 2
    # 5 steps of two Heun stages, each forming its term through nonlinear_term
    assert called.count("solver.nonlinear_term") == 10


def test_trace_cli_counts_each_layer_of_a_dimension_run(tmp_path):
    # every stepping and tangent layer the tracer binds, counted on the dimension path
    called, counts = _trace(tmp_path, "dimension", "--config", _config(tmp_path, TINY_DIMENSION))
    assert called.count("solver.advance") == 5  # the relax phase only
    assert called.count("tangent.step") == 10
    # one base term per stage of the 5 relax and 10 coupled steps
    assert called.count("solver.nonlinear_term") == 30
    assert counts["tangent.step.tangent_steps"] == 20
    # two stages per coupled step, and one per trace sample
    assert called.count("tangent.transport_derivative") == 24
    assert called.count("tangent.gram_schmidt") == 4
    assert called.count("tangent.trace") == 4


def test_trace_cli_counts_each_kernel_layer_of_verify_kernels(tmp_path):
    # the five kernel names the tracer binds, on a two-field n = 16 corpus
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("seed,band,norm,n\n1,2,1.0,16\n2,3,1.0,16\n")
    called, counts = _trace(tmp_path, "verify-kernels", str(corpus))
    assert called.count("kernels.dissipation_field") == 22
    assert called.count("kernels.translation_symbol") == 22
    assert counts["kernels.translation_symbol.misses"] == 7
    assert counts["kernels.translation_symbol.hits"] == 15
    assert called.count("kernels.pointwise_identity_residual") == 6
    assert called.count("kernels.lp_poincare_check") == 4
    assert called.count("kernels.nonlinear_lower_bound_check") == 16
    assert called.count("spectral.gradient") == 22
