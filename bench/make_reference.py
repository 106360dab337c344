"""Regenerate bench/reference.json: one untraced CLI run per workload input seed.

    python3 bench/make_reference.py [workload ...]

For each named workload (default: all) and each input seed 0..39 it records
how the run ended (None for exit 0, else its failure class) and its headline
numbers, replacing that workload's entries in the existing file.  Regenerate
only when a change alters results on purpose, and say so where the change is
described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def main() -> None:
    names = sys.argv[1:] or sorted(bench.WORKLOADS)
    reference = {}
    if os.path.exists(bench.REFERENCE):
        with open(bench.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    os.makedirs(bench.WORK, exist_ok=True)
    for name in names:
        wl = bench.WORKLOADS[name]
        entries = {}
        work = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=bench.WORK)
        try:
            for seed in range(bench.CLI_SEEDS):
                run = bench.execute(wl, seed, work, f"seed{seed}", traced=False, timeout=600.0)
                entries[str(seed)] = {"class": run.cls, "headline": run.headline}
                print(f"{name} seed={seed} {run.cls or 'pass'} wall={run.wall_s:.3f}s "
                      f"rss={run.peak_rss_mb:.1f}MiB", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference[name] = entries
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
