"""Command-line orchestration with reproducible experiment manifests.

Commands::

    critsqg simulate      --preset exact-decay --out runs/decay
    critsqg burgers       --preset burgers-basic --out runs/b0
    critsqg verify-kernels [corpus.csv] --out runs/kernels
    critsqg dimension     --preset dimension-sweep --n-max 6 --out runs/dim

Exit-code taxonomy: 0 pass, 1 scientific falsification (a verified inequality
of the diagnostics failed at the calibrated constants), 2 usage/config error,
3 numerical blowup or tangent-frame collapse.  Every bad input, an unusable
path included, is a ``ConfigError`` (exit 2, one stderr line); a run
command steps the grid and fields that ``config.build_setup`` validated and
built.  Every command writes its manifest, with the path and hash of each
input file, before any long computation begins; re-running a manifest
reproduces all CSV outputs byte-exactly.  A non-empty ``SQG_CONSTANTS``
environment variable overrides the calibrated-constants file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .config import (ConfigError, build_setup, default_corpus_path, parse_config_file,
                     preset_sections, read_corpus)
from .diagnostics import (
    absorption_report,
    constants_path,
    decay_envelope_report,
    load_constants,
    track_holder,
)
from .kernels import kernel_checks
from .snapshots import write_csv, write_manifest, write_snapshot
from .solver import BlowupError, Trajectory, run
from .tangent import (IDENTITY_RESIDUAL_BOUND, EnsembleCollapseError, dimension_verdict,
                      trace_bound_curve, volume_and_trace_run)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="critsqg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a config (or manifest) file")
        p.add_argument("--preset", help="name of a shipped preset")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed-override", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="integrate forced critical SQG with probes")
    common(p_sim)
    p_bur = sub.add_parser("burgers", help="integrate the 1D critical Burgers testbed")
    common(p_bur)
    p_ker = sub.add_parser("verify-kernels", help="kernel inequality suites on a corpus")
    p_ker.add_argument("corpus", nargs="?", default=default_corpus_path(),
                       help="corpus CSV (default: the shipped corpus)")
    p_ker.add_argument("--out", required=True)
    p_dim = sub.add_parser("dimension", help="tangent ensemble, traces, dimension bound")
    common(p_dim)
    p_dim.add_argument("--n-max", type=int, default=None,
                       help="tangent ensemble size (replaces [tangent] n_tangent)")
    return parser


def _load_sections(args):
    if bool(args.config) == bool(args.preset):
        raise ConfigError(0, "exactly one of --config or --preset is required")
    if args.preset:
        return preset_sections(args.preset)
    return parse_config_file(args.config)


def _start_manifest(args, sections, outputs, inputs) -> None:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(0, f"cannot create output directory {args.out}: {exc.strerror}") from None
    seed = args.seed_override if getattr(args, "seed_override", None) is not None else 0
    write_manifest(
        os.path.join(args.out, "manifest.txt"),
        sections, command=args.command, out_dir=args.out, seed=seed,
        inputs={"constants": constants_path(), **inputs}, code_version=__version__,
        outputs=outputs,
    )


def _norm_rows(traj: Trajectory):
    header = ["t", "l2", "linf", "lp4", "hs0.5", "hs1.0", "hs1.5", "hs2.0"]
    rows = []
    for t, rep in zip(traj.times, traj.reports):
        rows.append((t, rep.lp[2], rep.lp[np.inf], rep.lp[4],
                     rep.hs[0.5], rep.hs[1.0], rep.hs[1.5], rep.hs[2.0]))
    return header, rows


def _run_with_probes(args) -> int:
    """``simulate`` or ``burgers``: one run and the probes its config names."""
    setup = build_setup(_load_sections(args), args.seed_override, args.command)
    consts = load_constants()
    envelope_csv = {p: f"envelope_p{'inf' if p == np.inf else int(p)}.csv"
                    for p in setup.decay_envelope_ps}
    outputs = ["norms.csv", "theta_initial.sqgf", "theta_final.sqgf", *envelope_csv.values()]
    if setup.holder_alpha:
        outputs.append("holder.csv")
    if setup.absorption:
        outputs += ["absorption.csv", "absorption_windows.csv"]
    _start_manifest(args, setup.sections, outputs, setup.inputs)

    traj = run(setup.initial, setup.solver, setup.force, report_ps=setup.decay_envelope_ps)

    header, rows = _norm_rows(traj)
    write_csv(os.path.join(args.out, "norms.csv"), header, rows)
    write_snapshot(os.path.join(args.out, "theta_initial.sqgf"), traj.fields[0], traj.times[0])
    write_snapshot(os.path.join(args.out, "theta_final.sqgf"), traj.fields[-1], traj.times[-1])

    # (file, value and envelope columns, report) of each envelope probe
    probes = [(name, ["norm", "envelope"], decay_envelope_report(traj, p, consts))
              for p, name in envelope_csv.items()]
    if setup.holder_alpha:
        holder = track_holder(traj, setup.holder_alpha, consts)
        probes.append(("holder.csv", ["g", "envelope_sq"], holder))
        # the state of each violated row of holder.csv, numbered in row order
        for i, j in enumerate(j for j, row in enumerate(holder.rows) if row[4]):
            write_snapshot(os.path.join(args.out, f"falsification_{i}.sqgf"), traj.fields[j],
                           traj.times[j])
    falsified = 0
    for name, columns, rep in probes:
        write_csv(os.path.join(args.out, name), ["t", *columns, "slack", "violated"], rep.rows)
        falsified += rep.violations

    if setup.absorption:
        rep = absorption_report(traj, consts)
        write_csv(os.path.join(args.out, "absorption.csv"),
                  ["t", "h1", "m_1f", "inside"], rep.rows)
        # header-only when no unit window fits after the entry time
        write_csv(os.path.join(args.out, "absorption_windows.csv"),
                  ["t_start", "avg_h32_sq", "budget", "violated"], rep.window_rows)
        falsified += rep.failures

    if falsified:
        print(f"critsqg: {falsified} falsification event(s); see {args.out}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def _cmd_verify_kernels(args) -> int:
    consts = load_constants()
    fields, snapshots = read_corpus(args.corpus)
    _start_manifest(args, {}, ["kernel_report.csv"], {"corpus": args.corpus, **snapshots})
    if not fields:
        print("critsqg: warning: empty corpus, vacuous pass", file=sys.stderr)
    report = kernel_checks(fields, consts.c2)
    write_csv(os.path.join(args.out, "kernel_report.csv"),
              ["suite", "field", "value", "threshold", "passed"], report)
    for suite, name, value, thr, ok in report:
        print(f"{'PASS' if ok else 'FAIL'}  {suite:24s} {name:28s} value={value:.6g} threshold={thr:.6g}")
    return EXIT_OK if all(row[4] for row in report) else EXIT_FALSIFIED


def _cmd_dimension(args) -> int:
    setup = build_setup(_load_sections(args), args.seed_override, "dimension", n_tangent=args.n_max)
    n_max = setup.tangent_n  # --n-max, when given, is in the manifest's [tangent] section
    consts = load_constants()
    _start_manifest(args, setup.sections, ["trace_log.csv", "dimension_report.txt"], setup.inputs)
    res = volume_and_trace_run(
        setup.initial, n_max, setup.solver, setup.force, reorth_every=setup.tangent_reorth,
        t_relax=setup.tangent_relax, seed=setup.tangent_seed, tangent_band=setup.tangent_band,
    )

    rows = []
    for m in range(1, n_max + 1):
        ravg = res.running_average(m)
        for i, t in enumerate(res.times):
            rows.append((t, m, res.traces[i, m - 1], ravg[i]))
    write_csv(os.path.join(args.out, "trace_log.csv"),
              ["t", "m", "trace_m", "running_avg_m"], rows)

    lines = ["dimension report", "================", ""]
    passed = True
    if not setup.force.field.is_zero():
        v = dimension_verdict(res.empirical_N, setup.force, setup.solver.kappa, consts)
        bound = (setup.solver.kappa, v.m_a, consts.c10, consts.c11)
        lines.append(f"M_A (max of H^3/2, H^2 radii) = {v.m_a!r}")
        lines.append(f"N (a-priori dimension bound)  = {v.n_bound}")
        passed = v.passed
        lines.append("")
        lines.append("bound curve -kappa*m^1.5/c11 + m*c10*M_A^2/kappa:")
        for m in range(1, min(n_max, 12) + 1):
            lines.append(f"  m={m:3d}  {float(trace_bound_curve(m, *bound))!r}")
    else:
        lines.append("force is zero: a-priori radii vanish, attractor is the origin")
    lines.append("")
    lines.append(f"empirical_N (first m with negative trace average) = {res.empirical_N}")
    lines.append(f"trace averages  = {[float(a) for a in res.trace_averages]!r}")
    lines.append(f"averages converged (Cauchy <= 5% over window doubling) = {list(map(bool, res.average_converged))}")
    lines.append(f"volume/trace identity residual at t_end = {res.identity_residual!r}")
    with open(os.path.join(args.out, "dimension_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    if not res.identity_residual <= IDENTITY_RESIDUAL_BOUND:
        print(f"critsqg: volume/trace identity residual {res.identity_residual:.3g} exceeds "
              f"{IDENTITY_RESIDUAL_BOUND:g}", file=sys.stderr)
        passed = False
    return EXIT_OK if passed else EXIT_FALSIFIED


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-kernels":
            return _cmd_verify_kernels(args)
        if args.command == "dimension":
            return _cmd_dimension(args)
        return _run_with_probes(args)
    except ConfigError as exc:
        print(f"critsqg: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BlowupError as exc:
        write_snapshot(os.path.join(args.out, "blowup_last_state.sqgf"), exc.last_state, exc.t)
        print(f"critsqg: blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except EnsembleCollapseError as exc:
        print(f"critsqg: tangent frame collapse: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
