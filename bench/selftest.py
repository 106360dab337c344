"""Show that the benchmark's per-run check fails runs with wrong outputs.

    python3 bench/selftest.py

Makes one real passing run each of ``kernel_verify`` and ``holder_track``,
checks that each passes against its replay and the stored reference, and
then that each of these tampered copies is counted as failed: one flipped CSV
byte, a headline number moved by 1e-4 relative, a listed output missing after
exit 0, and an exit class the reference does not record.  Last, it shows that
``holder_track`` seed 2 (the absorbing_constants OverflowError) is counted as
a failed run of class crash that matches its reference.  Exits 1 if any of
this does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def tampered(run: bench.Run) -> dict:
    name = sorted(run.csvs)[0]
    data = bytearray(run.csvs[name])
    data[len(data) // 2] ^= 0x01
    key = sorted(run.headline)[0]
    return {
        f"flipped byte in {name}": dataclasses.replace(run, csvs={**run.csvs, name: bytes(data)}),
        f"headline {key} moved 1e-4": dataclasses.replace(
            run, headline={**run.headline, key: run.headline[key] * (1.0 + 1e-4)}),
        "listed output missing": dataclasses.replace(run, missing=[name]),
        "unexpected exit class": dataclasses.replace(
            run, cls="usage" if run.cls is None else None),
    }


def main() -> int:
    with open(bench.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(bench.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK)
    bad = 0
    try:
        for name, seed in (("kernel_verify", 0), ("holder_track", 0)):
            ref = reference[name][str(seed)]
            run = bench.execute(bench.WORKLOADS[name], seed, work, name, False, 170.0)
            problems = bench.check(run, ref, run)
            print(f"{name} seed {seed}: real run ended {run.cls or 'pass'}, "
                  f"check problems {problems}")
            bad += bool(problems)
            for label, copy in tampered(run).items():
                copy.problems = bench.check(copy, ref, run)
                caught = copy.failed and copy.problems
                print(f"  {label}: {'counted as failed' if caught else 'NOT caught'}"
                      f" {copy.problems}")
                bad += not caught
        run = bench.execute(bench.WORKLOADS["holder_track"], 2, work, "crash", False, 170.0)
        run.problems = bench.check(run, reference["holder_track"]["2"], None)
        known = run.failed and run.cls == "crash" and not run.problems
        print(f"holder_track seed 2: ended {run.cls}, failed={run.failed}, "
              f"problems {run.problems}: {'known crash, counted' if known else 'NOT as expected'}")
        bad += not known
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if bad == 0 else f"FAILED ({bad})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
