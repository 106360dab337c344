"""critsqg benchmark: three CLI workloads, end-to-end timings and a traced per-layer run.

    python3 bench/run.py --workload holder_track --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the CLI runs from ``src/`` and needs
numpy and scipy.  Each CLI run is one fresh process.  Runs go one at a time:
a closed loop with one client and no concurrency.  A set draws two input
seeds from ``--seed`` and alternates them (A, B, A, ...), at least three runs
and then as many more as fit in ``--seconds``, so every set replays one seed.

``--trace 0`` reports the end-to-end metrics of untraced runs: wall time,
CPU time and peak RSS of the CLI's own process (from ``wait4``), and set-up
time, from spawn to the manifest's ``created_unix`` line.  ``--trace 1``
alternates untraced runs of seed A with runs under ``bench/trace_cli.py``, at
least two of each; it reports per-layer call counts, work counters and self
times, checks that every count repeats exactly, and reports the tracing
overhead.

Every run is checked: its exit code, the files on the manifest's
``output =`` lines, byte-equal CSVs for a replayed seed, and headline numbers
within ``RTOL`` of ``bench/reference.json``.  Failed runs are counted by
class (falsified, usage, blowup, crash, timeout, check).  A set is correct
when no check fails and every run ends in the class the reference records
for its seed.  Sets draw their input seeds only from those the reference
records as passing, so no timed run is expected to fail; the known
``holder_track`` crash seeds (an OverflowError in
``diagnostics.absorbing_constants``) are named in every ``holder_track``
result and reproduced by ``bench/selftest.py``.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference.json")

CLI_SEEDS = 40        # inputs come from seeds 0..39, each with a stored reference
SEEDS_PER_SET = 2
MIN_RUNS = 3          # A, B, A: the third run replays the first
TRACE_MIN_RUNS = 4    # untraced, traced, untraced, traced
DEADLINE_S = 170.0    # a set must end within 180 s
# Headline tolerance: far above the last-bit changes of another FFT library,
# far below the change a wrong result makes.
RTOL = 1e-6

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

SPAN_LAYERS = [
    "spectral.fft", "spectral.riesz_perp", "spectral.gradient", "spectral.holder_seminorm",
    "spectral.norm_report",
    "solver.advance", "solver.nonlinear_term", "solver.velocity_max", "solver.run",
    "solver.build_field",
    "tangent.step", "tangent.transport_derivative", "tangent.gram_schmidt", "tangent.trace",
    "tangent.volume_and_trace_run",
    "diagnostics.track_holder", "diagnostics.m_alpha_envelope",
    "diagnostics.decay_envelope_report", "diagnostics.absorption_report",
    "kernels.translation_symbol", "kernels.dissipation_field",
    "kernels.pointwise_identity_residual", "kernels.nonlinear_lower_bound_check",
    "kernels.lp_poincare_check",
    "snapshots.write_csv", "snapshots.write_snapshot",
    "config.build_setup",
]
COUNTERS = [
    ("spectral.fft.points", "count"), ("spectral.fft.bytes_computed", "bytes"),
    ("solver.cfl_reductions", "count"), ("tangent.step.tangent_steps", "count"),
    ("kernels.translation_symbol.misses", "count"), ("kernels.translation_symbol.hits", "count"),
    ("snapshots.write_csv.bytes", "bytes"), ("snapshots.write_snapshot.bytes", "bytes"),
]
PER_LAYER = ([(f"{layer}.calls", "count") for layer in SPAN_LAYERS]
             + [(f"{layer}.self_s", "s") for layer in SPAN_LAYERS]
             + COUNTERS + [("cli.import_s", "s"), ("trace.overhead_s", "s")])


# ---------------------------------------------------------------- workloads

def _headline_holder(out: str) -> dict:
    got = {}
    norms = _csv_rows(os.path.join(out, "norms.csv"))
    if norms:
        got.update({f"norms.{k}": float(v) for k, v in norms[-1].items()})
    holder = _csv_rows(os.path.join(out, "holder.csv"))
    if holder:
        got["holder.g"] = float(holder[-1]["g"])
    return got


def _headline_dimension(out: str) -> dict:
    got = {}
    path = os.path.join(out, "dimension_report.txt")
    if not os.path.exists(path):
        return got
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            if key.startswith("trace averages"):
                for m, avg in enumerate(ast.literal_eval(value.strip()), start=1):
                    got[f"trace_average.m{m}"] = float(avg)
            elif key.startswith("volume/trace identity residual"):
                got["identity_residual"] = float(value)
    return got


def _headline_kernels(out: str) -> dict:
    for row in _csv_rows(os.path.join(out, "kernel_report.csv")):
        if row["suite"] == "lower_bound_nonvacuous":
            return {"lower_bound.min_ratio": float(row["value"])}
    return {}


# dimension-sweep's shape (n=32, 6 tangents, reorth every 10 steps, dt=2e-3)
# with the relax and coupled phases shortened from 6 + 10 to 0.5 + 1.0
_TANGENT_CONFIG = """\
[solver]
dim = 2
n = 32
kappa = 1.0
dt = 2e-3
t_end = 1.0
snapshot_dt = 0.5

[initial]
kind = random_band
band = 3
amplitude = 0.5
seed = 5

[force]
kind = random_band
band = 2
amplitude = 0.01
seed = 6

[tangent]
n_tangent = 6
reorth_every = 10
t_relax = 0.5
seed = 7
tangent_band = 3
"""


def kernel_corpus(seed: int) -> str:
    """Twenty n=64 fields, ten at band 6 and ten at band 8, in seeded order.

    Both bands are within the product-resolution limit (band <= n/4) and in
    the range the shipped corpus (band 8) is calibrated for.  A fixed band
    mix keeps the number of cold ``_translation_symbol`` builds, and so the
    cost, the same for every seed while fields, norms and order vary.
    """
    rng = random.Random(seed)
    bands = [6] * 10 + [8] * 10
    rng.shuffle(bands)
    lines = ["seed,band,norm,n"]
    lines += [f"{rng.randrange(10**6)},{b},{rng.uniform(0.5, 2.0)!r},64" for b in bands]
    return "\n".join(lines) + "\n"


def _write_once(path: str, text: str) -> str:
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return path


def _argv_holder(seed: int, inputs: str, out: str) -> list:
    return ["simulate", "--preset", "holder-corpus", "--seed-override", str(seed), "--out", out]


def _argv_tangent(seed: int, inputs: str, out: str) -> list:
    cfg = _write_once(os.path.join(inputs, "tangent_sweep.cfg"), _TANGENT_CONFIG)
    return ["dimension", "--config", cfg, "--seed-override", str(seed), "--out", out]


def _argv_kernels(seed: int, inputs: str, out: str) -> list:
    corpus = _write_once(os.path.join(inputs, f"corpus_{seed}.csv"), kernel_corpus(seed))
    return ["verify-kernels", corpus, "--out", out]


@dataclass(frozen=True)
class Workload:
    argv: Callable            # (input seed, inputs dir, out dir) -> CLI arguments
    headline: Callable        # out dir -> {name: float}


WORKLOADS = {
    "holder_track": Workload(_argv_holder, _headline_holder),
    "tangent_sweep": Workload(_argv_tangent, _headline_dimension),
    "kernel_verify": Workload(_argv_kernels, _headline_kernels),
}

# the span that should hold the most self time on each workload
PREDICTED_TOP = {
    "holder_track": {"spectral.holder_seminorm"},
    "tangent_sweep": {"spectral.fft", "tangent.transport_derivative"},
    "kernel_verify": {"kernels.translation_symbol"},
}


# ---------------------------------------------------------------- one run

@dataclass
class Run:
    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: object           # None when no manifest was written
    cls: object               # None on exit 0, else the failure class
    missing: list
    csvs: dict
    headline: dict
    spans: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.cls is not None or bool(self.problems)


def _csv_rows(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(out: str):
    """(created_unix or None, output names) from the run's manifest."""
    created, outputs = None, []
    path = os.path.join(out, "manifest.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, _, value = (s.strip() for s in line.partition("="))
                if key == "created_unix":
                    created = float(value)
                elif key == "output":
                    outputs.append(value)
    return created, outputs


def _failure_class(returncode: int, stderr: bytes):
    if returncode == 0:
        return None
    if returncode == -9:
        return "timeout"
    if b"Traceback (most recent call last)" in stderr or returncode not in (1, 2, 3):
        return "crash"
    return {1: "falsified", 2: "usage", 3: "blowup"}[returncode]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def execute(wl: Workload, seed: int, work: str, tag: str, traced: bool, timeout: float) -> Run:
    """One CLI process, spawned and reaped here; the output directory is removed after."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    out = os.path.join(work, tag)
    argv = wl.argv(seed, inputs, out)
    spans_path = os.path.join(work, f"{tag}.spans.json")
    if traced:
        cmd = [sys.executable, os.path.join(BENCH, "trace_cli.py"), spans_path, *argv]
    else:
        cmd = [sys.executable, "-m", "critsqg.cli", *argv]
    err_path = os.path.join(work, f"{tag}.stderr")
    with open(err_path, "wb") as err:
        t_spawn = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    created, outputs = _manifest(out)
    csvs = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    csvs[name] = fh.read()
    spans = None
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
    run = Run(
        seed=seed, traced=traced, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if created is None else created - t_spawn,
        cls=_failure_class(proc.returncode, stderr),
        missing=[o for o in outputs if not os.path.exists(os.path.join(out, o))],
        csvs=csvs, headline=wl.headline(out) if os.path.isdir(out) else {}, spans=spans,
    )
    shutil.rmtree(out, ignore_errors=True)
    return run


def check(run: Run, ref: dict, first) -> list:
    """Problems with one run's outputs; ``first`` is an earlier run of the same seed."""
    problems = []
    if run.cls is None and run.missing:
        problems.append(f"missing outputs {run.missing}")
    if first is not None and run.csvs != first.csvs:
        differ = sorted(n for n in set(run.csvs) | set(first.csvs)
                        if run.csvs.get(n) != first.csvs.get(n))
        problems.append(f"replay: CSV bytes differ in {differ}")
    for key, want in ref["headline"].items():
        got = run.headline.get(key)
        if got is None:
            problems.append(f"headline {key} missing")
        elif abs(got - want) > RTOL * abs(want):
            problems.append(f"headline {key} = {got!r}, reference {want!r}")
    if run.cls != ref["class"]:
        problems.append(f"ended as {run.cls or 'pass'}, reference {ref['class'] or 'pass'}")
    return problems


# ---------------------------------------------------------------- traces

def layer_totals(spans: dict) -> dict:
    """{layer: (calls, self seconds)}; self time is duration minus direct children."""
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    self_s = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            self_s[p] -= dur[i]
    calls = [0] * len(names)
    total = [0.0] * len(names)
    for i, nid in enumerate(name):
        calls[nid] += 1
        total[nid] += self_s[i]
    return {names[k]: (calls[k], total[k]) for k in range(len(names))}


def trace_metrics(traced: list, untraced: list) -> tuple:
    """(metric values, names of count metrics that did not repeat exactly)."""
    per_run = []
    for run in traced:
        totals = layer_totals(run.spans)
        vals = {}
        for layer in SPAN_LAYERS:
            calls, self_s = totals.get(layer, (0, 0.0))
            vals[f"{layer}.calls"] = calls
            vals[f"{layer}.self_s"] = self_s
        for name, _unit in COUNTERS:
            vals[name] = run.spans["counts"].get(name, 0)
        vals["cli.import_s"] = run.spans["import_s"]
        per_run.append(vals)
    counts = [name for name, unit in PER_LAYER if unit != "s"]
    unsteady = [n for n in counts if len({vals[n] for vals in per_run}) > 1]
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(r.wall_s for r in traced)
                         - statistics.median(r.wall_s for r in untraced))
        elif unit == "s":
            out[name] = statistics.median(vals[name] for vals in per_run)
        else:
            out[name] = per_run[0][name]
    return out, unsteady


# ---------------------------------------------------------------- reporting

def high_percentile(values: list):
    """(percentile, value) of the highest rank with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def environment(loadavg_start) -> dict:
    info = {"nproc": os.cpu_count(), "loadavg_start": loadavg_start,
            "loadavg_end": list(os.getloadavg())}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        info["git_sha"] = got.stdout.strip() or None
    else:
        info["git_sha"] = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "critsqg")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    info["src_sha256"] = digest.hexdigest()
    got = subprocess.run([sys.executable, os.path.join(BENCH, "envinfo.py")], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, timeout=60)
    info.update(json.loads(got.stdout))
    return info


def describe(run: Run) -> str:
    setup = "n/a" if run.setup_s is None else f"{run.setup_s:.4f}"
    verdict = run.cls or "pass"
    extra = f" problems={run.problems}" if run.problems else ""
    return (f"  run seed={run.seed:<3d} {'traced' if run.traced else 'plain '} {verdict:<9s}"
            f" wall={run.wall_s:.4f}s cpu={run.cpu_s:.4f}s rss={run.peak_rss_mb:.1f}MiB"
            f" setup={setup}s{extra}")


# ---------------------------------------------------------------- main

def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "critsqg", "cli.py")):
        _die(f"no critsqg source tree under {SRC}; run from the root of a checkout")
    if not os.path.isfile(REFERENCE):
        _die(f"missing {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    t_start = time.perf_counter()
    loadavg_start = list(os.getloadavg())
    wl = WORKLOADS[args.workload]
    # only seeds the reference records as passing, so no timed run should fail
    passing = sorted(int(s) for s, ref in reference.items() if ref["class"] is None)
    known_failing = sorted(int(s) for s, ref in reference.items() if ref["class"] is not None)
    seeds = random.Random(f"{args.workload}/{args.seed}").sample(passing, SEEDS_PER_SET)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    runs: list = []
    first: dict = {}

    def one(seed: int, traced: bool) -> Run:
        left = DEADLINE_S - (time.perf_counter() - t_start)
        run = execute(wl, seed, work, f"run{len(runs)}", traced, left)
        run.problems = check(run, reference[str(seed)], first.get(seed))
        first.setdefault(seed, run)
        runs.append(run)
        return run

    def more() -> bool:
        elapsed = time.perf_counter() - t_start
        if elapsed > DEADLINE_S / 2:
            return False
        return elapsed + statistics.median(r.wall_s for r in runs) <= args.seconds

    try:
        if args.trace:
            # untraced and traced runs of seed A alternate, so both see the same load
            while len(runs) < TRACE_MIN_RUNS or more():
                one(seeds[0], traced=len(runs) % 2 == 1)
        else:
            while len(runs) < MIN_RUNS or more():
                one(seeds[len(runs) % SEEDS_PER_SET], traced=False)
        env = environment(loadavg_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)        # only when no other set is using it

    failed = [r for r in runs if r.failed]
    correct = not any(r.problems for r in runs)
    print(f"critsqg bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"input seeds={seeds} runs={len(runs)} (closed loop, 1 client, 1 process at a time)")
    print("env " + json.dumps(env, sort_keys=True))
    if known_failing:
        print(f"known defect: the reference records input seeds {known_failing} as failing "
              f"({sorted({reference[str(s)]['class'] for s in known_failing})}); sets leave "
              f"them out, and bench/selftest.py reproduces seed {known_failing[0]}")
    for run in runs:
        print(describe(run))

    metrics = {}
    if args.trace:
        traced = [r for r in runs if r.traced and r.spans is not None]
        untraced = [r for r in runs if not r.traced]
        if len(traced) < 2:
            _die("fewer than two traced runs wrote spans")
        values, unsteady = trace_metrics(traced, untraced)
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        if unsteady:
            correct = False
            print(f"trace: counts differ between traced runs of seed {seeds[0]}: {unsteady}")
        else:
            print(f"trace: every count repeated exactly over {len(traced)} traced runs "
                  f"of seed {seeds[0]}")
        print(f"trace: overhead {values['trace.overhead_s']:.4f} s = median traced wall "
              f"minus median untraced wall {untraced_wall:.4f} s "
              f"({values['trace.overhead_s'] / untraced_wall:+.1%}, "
              f"{len(traced)} traced and {len(untraced)} untraced runs)")
        ranked = sorted(SPAN_LAYERS, key=lambda layer: -values[f"{layer}.self_s"])
        print("trace: top self time " + ", ".join(
            f"{layer} {values[f'{layer}.self_s']:.3f}s" for layer in ranked[:5]))
        verdict = "met" if ranked[0] in PREDICTED_TOP[args.workload] else "NOT met"
        print(f"trace: prediction (top layer in {sorted(PREDICTED_TOP[args.workload])}): {verdict}")
        idle = [layer for layer in SPAN_LAYERS if values[f"{layer}.calls"] == 0]
        print(f"trace: layers this workload never calls (reported as 0): {idle}")
        units = dict(PER_LAYER)
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
    else:
        for name, unit in END_TO_END:
            vals = [getattr(r, name) for r in runs if getattr(r, name) is not None]
            if not vals:
                _die(f"no run produced {name}")
            high = high_percentile(vals)
            tail = "none (fewer than 11 samples)" if high is None else f"p{high[0]:.0f} {high[1]:.4f}"
            print(f"{name:<12s} median {statistics.median(vals):.4f} {unit}  high percentile: "
                  f"{tail}  samples={len(vals)}")
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    classes = {}
    for run in failed:
        key = run.cls or "check"
        classes[key] = classes.get(key, 0) + 1
    print(f"failed_share {len(failed)}/{len(runs)} = {len(failed) / len(runs):.3f}  "
          f"by class {classes}  samples={len(runs)}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
