"""Command-line orchestration with reproducible experiment manifests.

Commands::

    critsqg simulate      --preset exact-decay --out runs/decay
    critsqg burgers       --preset burgers-basic --out runs/b0
    critsqg verify-kernels [corpus.csv] --out runs/kernels
    critsqg dimension     --preset dimension-sweep --n-max 6 --out runs/dim

Exit-code taxonomy: 0 pass, 1 scientific falsification (a verified inequality
of the diagnostics failed at the calibrated constants), 2 usage/config error,
3 numerical blowup or tangent-frame collapse.  Every command writes its
manifest before any long computation begins; re-running a manifest in serial
mode reproduces all CSV outputs byte-exactly.  The ``SQG_CONSTANTS``
environment variable overrides the calibrated-constants file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigError, build_setup, parse_config_file, preset_sections
from .diagnostics import (
    absorbing_constants,
    absorption_report,
    decay_envelope_report,
    holder_budget,
    load_constants,
    track_holder,
)
from .kernels import lp_poincare_check, nonlinear_lower_bound_check, pointwise_identity_residual
from .snapshots import write_csv, write_manifest, write_snapshot
from .solver import BlowupError, Trajectory, build_field, build_force, run
from .spectral import MeanZeroError, SpectralField, TorusGrid, lp_norm
from .tangent import (
    EnsembleCollapseError,
    bound_curve_negative_at,
    dimension_bound,
    trace_bound_curve,
    volume_and_trace_run,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3

_KERNEL_SHIFTS = [
    (np.pi / 8, 0.0), (0.0, np.pi / 8), (np.pi / 4, np.pi / 4), (np.pi / 2, 0.0),
    (0.0, np.pi / 2), (np.pi, np.pi), (3 * np.pi / 8, np.pi / 8), (np.pi / 16, 0.0),
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="critsqg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a config (or manifest) file")
        p.add_argument("--preset", help="name of a shipped preset")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; computation is serial")

    p_sim = sub.add_parser("simulate", help="integrate forced critical SQG with probes")
    common(p_sim)
    p_bur = sub.add_parser("burgers", help="integrate the 1D critical Burgers testbed")
    common(p_bur)
    p_ker = sub.add_parser("verify-kernels", help="kernel inequality suites on a corpus")
    p_ker.add_argument("corpus", nargs="?", default=None, help="corpus manifest CSV")
    p_ker.add_argument("--out", required=True)
    p_ker.add_argument("--threads", type=int, default=1)
    p_dim = sub.add_parser("dimension", help="tangent ensemble, traces, dimension bound")
    common(p_dim)
    p_dim.add_argument("--n-max", type=int, default=None, help="tangent ensemble size")
    return parser


def _load_sections(args):
    if bool(args.config) == bool(args.preset):
        raise ConfigError(0, "exactly one of --config or --preset is required")
    if args.preset:
        return preset_sections(args.preset)
    return parse_config_file(args.config)


def _constants_with_path():
    path = os.environ.get("SQG_CONSTANTS")
    if path is None:
        from .diagnostics import default_constants_path

        path = default_constants_path()
    return load_constants(path), path


def _start_manifest(args, sections, command: str, outputs, consts_path: str) -> None:
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed_override if getattr(args, "seed_override", None) is not None else 0
    write_manifest(
        os.path.join(args.out, "manifest.txt"),
        sections, command=command, out_dir=args.out, seed=seed,
        constants_path=consts_path, code_version=__version__, outputs=outputs,
    )


def _norm_rows(traj: Trajectory):
    header = ["t", "l2", "linf", "lp4", "hs0.5", "hs1.0", "hs1.5", "hs2.0"]
    rows = []
    for t, rep in zip(traj.times, traj.reports):
        rows.append((t, rep.l2, rep.linf, rep.lp.get(4, 0.0),
                     rep.hs[0.5], rep.hs[1.0], rep.hs[1.5], rep.hs[2.0]))
    return header, rows


def _run_with_probes(args, sections, command: str) -> int:
    setup = build_setup(sections, args.seed_override)
    want_dim = 1 if command == "burgers" else 2
    if setup.dim != want_dim:
        raise ConfigError(0, f"{command} requires dim = {want_dim}, config has dim = {setup.dim}")
    grid = TorusGrid(setup.dim, setup.n)
    consts, consts_path = _constants_with_path()
    outputs = ["norms.csv", "theta_initial.sqgf", "theta_final.sqgf"]
    for p in setup.decay_envelope_ps:
        outputs.append(f"envelope_p{'inf' if p == np.inf else int(p)}.csv")
    if setup.holder_alpha:
        outputs.append("holder.csv")
    if setup.absorption:
        outputs.append("absorption.csv")
    _start_manifest(args, sections, command, outputs, consts_path)

    theta0 = build_field(setup.initial, grid)
    force = build_force(setup.force, grid)
    report_ps = (2, 4) + tuple(p for p in setup.decay_envelope_ps if p not in (2, 4, np.inf))
    try:
        traj = run(theta0, setup.solver, force, report_ps=report_ps)
    except BlowupError as exc:
        write_snapshot(os.path.join(args.out, "blowup_last_state.sqgf"), exc.last_state, exc.t)
        print(f"critsqg: blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP

    header, rows = _norm_rows(traj)
    write_csv(os.path.join(args.out, "norms.csv"), header, rows)
    write_snapshot(os.path.join(args.out, "theta_initial.sqgf"), traj.fields[0], traj.times[0])
    write_snapshot(os.path.join(args.out, "theta_final.sqgf"), traj.fields[-1], traj.times[-1])

    falsified = 0
    for p in setup.decay_envelope_ps:
        rep = decay_envelope_report(traj, p, consts)
        label = "inf" if p == np.inf else str(int(p))
        falsified += rep.violations
        write_csv(os.path.join(args.out, f"envelope_p{label}.csv"),
                  ["t", "norm", "envelope", "slack", "violated"], rep.rows)

    if setup.holder_alpha:
        alpha0, _m_inf = holder_budget(theta0, force.field, setup.solver.kappa, consts)
        alpha = alpha0 if setup.holder_alpha == "auto" else float(setup.holder_alpha)
        track = track_holder(traj, alpha, consts)
        write_csv(
            os.path.join(args.out, "holder.csv"),
            ["t", "g", "envelope_sq", "slack", "violated"],
            [(t, g, e, e - g, g > e) for t, g, e in zip(track.t, track.g, track.envelope_sq)],
        )
        for i, ev in enumerate(track.events):
            write_snapshot(os.path.join(args.out, f"falsification_{i}.sqgf"), ev.field, ev.t)
        falsified += track.falsification_count

    if setup.absorption:
        rep = absorption_report(traj, consts)
        write_csv(os.path.join(args.out, "absorption.csv"),
                  ["t", "h1", "m_1f", "inside"], rep.rows)
        if rep.window_rows:
            write_csv(os.path.join(args.out, "absorption_windows.csv"),
                      ["t_start", "avg_h32_sq", "budget", "violated"], rep.window_rows)
        if not np.isfinite(rep.entry_time) or not rep.permanent:
            falsified += 1
        falsified += rep.window_violations

    if falsified:
        print(f"critsqg: {falsified} falsification event(s); see {args.out}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def _read_corpus(path: str):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [l.strip() for l in fh if l.strip()]
    if not lines:
        return rows
    start = 1 if lines[0].lower().startswith("seed") else 0
    for line in lines[start:]:
        parts = [p.strip() for p in line.split(",")]
        row = {"seed": int(parts[0]), "band": int(parts[1]), "norm": float(parts[2])}
        row["n"] = int(parts[3]) if len(parts) > 3 and parts[3] else 64
        row["path"] = parts[4] if len(parts) > 4 else ""
        rows.append(row)
    return rows


def _corpus_field(row, grid: TorusGrid) -> SpectralField:
    if row["path"]:
        from .snapshots import read_snapshot

        # file-based corpus entries must already be mean-free
        try:
            field, _t = read_snapshot(row["path"])
        except MeanZeroError as exc:
            raise MeanZeroError(f"corpus field {row['path']}: {exc}") from exc
        return field
    from .solver import random_band_field

    return random_band_field(grid, row["band"], row["norm"], row["seed"])


def _cmd_verify_kernels(args) -> int:
    corpus_path = args.corpus
    if corpus_path is None:
        here = os.path.dirname(os.path.abspath(__file__))
        corpus_path = os.path.join(here, "data", "kernel_corpus.csv")
    consts, consts_path = _constants_with_path()
    sections = {"solver": {"dim": "2"}}
    _start_manifest(args, sections, "verify-kernels", ["kernel_report.csv"], consts_path)
    try:
        rows = _read_corpus(corpus_path)
    except (OSError, ValueError) as exc:
        print(f"critsqg: cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = []
    failures = 0
    if not rows:
        print("critsqg: warning: empty corpus, vacuous pass", file=sys.stderr)
        write_csv(os.path.join(args.out, "kernel_report.csv"),
                  ["suite", "field", "value", "threshold", "passed"], [])
        return EXIT_OK
    try:
        fields = []
        for row in rows:
            grid = TorusGrid(2, row["n"])
            fields.append((row, _corpus_field(row, grid)))
    except MeanZeroError as exc:
        print(f"critsqg: precondition: {exc}", file=sys.stderr)
        return EXIT_USAGE

    global_min_ratio = np.inf
    for row, phi in fields:
        linf_sq = lp_norm(phi, np.inf) ** 2
        for alpha in (0.5, 1.0, 1.5):
            resid = float(np.mean(pointwise_identity_residual(phi, alpha)))
            ok = resid <= 1e-2 * linf_sq
            failures += int(not ok)
            report.append(("identity", f"seed{row['seed']}_a{alpha}", resid, 1e-2 * linf_sq, ok))
        for p in (4, 8):
            lhs, (r1, r2) = lp_poincare_check(phi, p, 1.0)
            ok = lhs >= r1 + r2
            failures += int(not ok)
            report.append((f"poincare_p{p}", f"seed{row['seed']}", lhs - (r1 + r2), 0.0, ok))
        for h in _KERNEL_SHIFTS:
            lb = nonlinear_lower_bound_check(phi, h, consts.c2)
            if lb.empty:
                continue
            ok = lb.min_ratio >= 1.0
            failures += int(not ok)
            global_min_ratio = min(global_min_ratio, lb.min_ratio)
            report.append(("lower_bound", f"seed{row['seed']}_h{h[0]:.3f}_{h[1]:.3f}",
                           lb.min_ratio, 1.0, ok))
    nonvacuous = global_min_ratio <= 10.0
    failures += int(not nonvacuous)
    report.append(("lower_bound_nonvacuous", "corpus", global_min_ratio, 10.0, nonvacuous))
    write_csv(os.path.join(args.out, "kernel_report.csv"),
              ["suite", "field", "value", "threshold", "passed"], report)
    for suite, name, value, thr, ok in report:
        print(f"{'PASS' if ok else 'FAIL'}  {suite:24s} {name:28s} value={value:.6g} threshold={thr:.6g}")
    return EXIT_FALSIFIED if failures else EXIT_OK


def _cmd_dimension(args) -> int:
    sections = _load_sections(args)
    setup = build_setup(sections, args.seed_override)
    if setup.dim != 2:
        raise ConfigError(0, "dimension requires dim = 2")
    n_max = args.n_max if args.n_max is not None else setup.tangent_n
    if n_max <= 0:
        raise ConfigError(0, "n-max must be a positive integer")
    consts, consts_path = _constants_with_path()
    _start_manifest(args, sections, "dimension", ["trace_log.csv", "dimension_report.txt"], consts_path)
    grid = TorusGrid(2, setup.n)
    theta0 = build_field(setup.initial, grid)
    force = build_force(setup.force, grid)
    try:
        res = volume_and_trace_run(
            theta0, n_max, setup.solver, force, t_end=setup.solver.t_end,
            reorth_every=setup.tangent_reorth, t_relax=setup.tangent_relax,
            seed=setup.tangent_seed, tangent_band=setup.tangent_band,
        )
    except BlowupError as exc:
        write_snapshot(os.path.join(args.out, "blowup_last_state.sqgf"), exc.last_state, exc.t)
        print(f"critsqg: blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except EnsembleCollapseError as exc:
        print(f"critsqg: tangent frame collapse: {exc}", file=sys.stderr)
        return EXIT_BLOWUP

    rows = []
    for m in range(1, n_max + 1):
        ravg = res.running_average(m)
        for i, t in enumerate(res.times):
            rows.append((t, m, res.traces[i, m - 1], ravg[i]))
    write_csv(os.path.join(args.out, "trace_log.csv"),
              ["t", "m", "trace_m", "running_avg_m"], rows)

    forced = not force.field.is_zero()
    lines = ["dimension report", "================", ""]
    failures = 0
    if forced:
        ac = absorbing_constants(force.linf, force.h1, setup.solver.kappa, consts)
        m_a = max(ac.m_32f, ac.m_2f)
        N = dimension_bound(setup.solver.kappa, m_a, consts.c10, consts.c11)
        curve_at_n = float(trace_bound_curve(N, setup.solver.kappa, m_a, consts.c10, consts.c11))
        lines.append(f"M_A (max of H^3/2, H^2 radii) = {m_a!r}")
        lines.append(f"N (a-priori dimension bound)  = {N}")
        negative = bound_curve_negative_at(N, setup.solver.kappa, m_a, consts.c10, consts.c11)
        lines.append(f"trace-bound curve at N        = {curve_at_n!r} (must be < 0: {negative})")
        if not negative:
            failures += 1
        if res.empirical_N > N:
            failures += 1
        lines.append("")
        lines.append("bound curve -kappa*m^1.5/c11 + m*c10*M_A^2/kappa:")
        for m in range(1, min(n_max, 12) + 1):
            lines.append(f"  m={m:3d}  {float(trace_bound_curve(m, setup.solver.kappa, m_a, consts.c10, consts.c11))!r}")
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
    return EXIT_FALSIFIED if failures else EXIT_OK


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_with_probes(args, _load_sections(args), "simulate")
        if args.command == "burgers":
            return _run_with_probes(args, _load_sections(args), "burgers")
        if args.command == "verify-kernels":
            return _cmd_verify_kernels(args)
        if args.command == "dimension":
            return _cmd_dimension(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"critsqg: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, MeanZeroError, FileNotFoundError) as exc:
        print(f"critsqg: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
