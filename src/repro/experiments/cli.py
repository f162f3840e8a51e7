"""``mantle-exp`` — run the paper's experiments from the command line.

Usage::

    mantle-exp list
    mantle-exp run fig12 [--scale quick|full] [--jobs N]
    mantle-exp all [--scale quick|full] [--jobs N]
    mantle-exp trace fig15 [--scale quick|full] [--out trace_fig15.json]
    mantle-exp telemetry fig14 [--scale quick|full] [--out telemetry_fig14]
    mantle-exp profile fig12 [--diff mantle infinifs] [--top N]
    mantle-exp critpath fig14 [--clients N] [--top N]
    mantle-exp whatif fig14 --speedup tafdb.fsync=2x [--model slack|corrected]
    mantle-exp blame fig14|multitenant [--clients N] [--top N]
    mantle-exp triage fig14 [--clients N] [--top N]

``run --jobs N`` fans a sweep experiment's per-point simulators across N
worker processes; ``all --jobs N`` runs whole experiments concurrently.
Either way the simulated results are identical to a serial run — only
wall-clock changes — and output is printed in deterministic registry order.

``trace`` reruns fig15/table1 with span tracing on, writes a Chrome-trace /
Perfetto JSON, prints the span-tree breakdown, and cross-checks the
span-derived tables against the legacy counters (must agree within 1%).

``telemetry`` reruns a figure's knee points with windowed telemetry on,
prints the saturation analyzer's verdicts plus per-host CPU / cache
hit-ratio timelines, and exports the per-window series as CSV + JSON.

``profile`` reruns a figure's knee point (or a bare mdtest op) with cost
attribution on, prints per-system top self-time tables, writes
flamegraph.pl + speedscope exports, and with ``--diff A B`` prints the
signed per-op cost deltas between two systems with mechanism notes.

``critpath`` extracts what actually gated client latency; ``whatif``
turns that into validated virtual speedups (predict, rerun with the
override applied, compare — ``--model corrected`` adds the queueing-aware
bottleneck-law bound for deep-saturation points, and ``--max-error``
gates on the selected model, reporting per-model pass/fail on failure).

``blame`` attributes every queue microsecond on victims' critical paths
to the op type (and tenant) occupying the contended resource — the
who-delayed-whom matrix; the ``multitenant`` target runs the
storm-vs-victim noisy-neighbour scenario instead of a figure point.

``triage`` reruns a knee point tail-instrumented, change-point-segments
the run into labeled phases (warmup/steady/burst/saturated/drain), and
per anomalous phase folds just that phase's tail exemplars through the
critpath + blame machinery — one sentence per phase saying what gated
the slow ops and who is to blame, with a schema-validated JSON export.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.report import print_tables, table_to_jsonable
from repro.experiments import get_experiment, list_experiments
from repro.experiments.runner import (
    run_experiments,
    wallclock_table,
)


def _cmd_list(_args) -> int:
    for experiment in list_experiments():
        print(f"{experiment.id:8s} {experiment.title}")
        print(f"{'':8s}   paper: {experiment.paper_claim}")
    return 0


def _run_one(exp_id: str, scale: str, json_path=None, jobs: int = 1,
             check_profile: bool = False) -> None:
    experiment = get_experiment(exp_id)
    started = time.time()
    tables = experiment.run(scale=scale, jobs=jobs,
                            check_profile=check_profile)
    header = (f"### {experiment.id}: {experiment.title} "
              f"(scale={scale}, {time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    if json_path:
        payload = {
            "experiment": experiment.id,
            "title": experiment.title,
            "paper_claim": experiment.paper_claim,
            "scale": scale,
            "tables": [table_to_jsonable(t) for t in tables],
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"(wrote {json_path})")


def _cmd_run(args) -> int:
    _run_one(args.experiment, args.scale, json_path=args.json,
             jobs=args.jobs, check_profile=args.check_profile)
    return 0


def _cmd_all(args) -> int:
    started = time.time()

    def show(outcome) -> None:
        header = (f"### {outcome.exp_id}: {outcome.title} "
                  f"(scale={args.scale}, {outcome.wall_s:.1f}s wall)")
        if outcome.ok:
            print_tables(outcome.tables, header=header)
        else:
            print(header)
            print(outcome.error, file=sys.stderr)
        print()

    outcomes = run_experiments(scale=args.scale, jobs=args.jobs,
                               on_result=show)
    # Wall-clock summary, slowest first, so perf regressions are visible
    # without running the ledger (benchmarks/ledger).
    summary = wallclock_table(outcomes)
    summary.add_note(f"end-to-end wall time {time.time() - started:.1f}s "
                     f"(jobs={args.jobs})")
    print_tables([summary])
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_trace(args) -> int:
    from repro.experiments.tracecmd import run_trace

    started = time.time()
    tables, payload = run_trace(args.experiment, scale=args.scale,
                                out_path=args.out)
    header = (f"### trace {args.experiment} (scale={args.scale}, "
              f"{len(payload['traceEvents'])} events, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    for label, stats in sorted(payload.get("traceStats", {}).items()):
        if stats.get("dropped", 0) > 0:
            print(f"trace: WARNING: case {label} dropped "
                  f"{stats['dropped']} of {stats['started']} spans from "
                  f"the ring — aggregates under-count", file=sys.stderr)
    return 0


def _cmd_telemetry(args) -> int:
    from repro.experiments.telemetrycmd import run_telemetry

    started = time.time()
    tables, lines, payload = run_telemetry(
        args.experiment, scale=args.scale, out_base=args.out,
        clients=args.clients, items=args.items, window_us=args.window_us)
    header = (f"### telemetry {args.experiment} (scale={args.scale}, "
              f"{len(payload['rows'])} exported rows, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    print()
    print("\n".join(lines))
    return 0


def _cmd_profile(args) -> int:
    from repro.experiments.profilecmd import run_profile, run_profile_diff

    started = time.time()
    if args.diff:
        base_system, other_system = args.diff
        tables, artifacts = run_profile_diff(
            base_system, other_system, args.experiment, scale=args.scale,
            out_base=args.out, clients=args.clients, items=args.items,
            top=args.top)
    else:
        tables, artifacts = run_profile(
            args.experiment, scale=args.scale, out_base=args.out,
            systems=args.systems, clients=args.clients, items=args.items,
            top=args.top)
    spans = sum(a["profile"].span_count for a in artifacts)
    header = (f"### profile {args.experiment} (scale={args.scale}, "
              f"{len(artifacts)} systems, {spans} spans, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    return 0


def _cmd_critpath(args) -> int:
    from repro.experiments.critpathcmd import run_critpath

    started = time.time()
    tables, lines, artifacts = run_critpath(
        args.experiment, scale=args.scale, out_base=args.out,
        systems=args.systems, clients=args.clients, items=args.items,
        top=args.top)
    ops = sum(a["crit"].ops for a in artifacts)
    header = (f"### critpath {args.experiment} (scale={args.scale}, "
              f"{len(artifacts)} systems, {ops} ops folded, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    print()
    print("\n".join(lines))
    return 0


def _cmd_whatif(args) -> int:
    from repro.experiments.critpathcmd import run_whatif

    started = time.time()
    tables, result = run_whatif(
        args.experiment, args.speedup, system=args.system,
        scale=args.scale, clients=args.clients, items=args.items,
        model=args.model)
    header = (f"### whatif {args.experiment} (scale={args.scale}, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    if args.max_error is not None and not result.within(args.max_error):
        print(f"whatif: --model {result.model} prediction failed the "
              f"--max-error {args.max_error:.0%} gate:", file=sys.stderr)
        for line in result.failure_report(args.max_error):
            print(line, file=sys.stderr)
        return 1
    return 0


def _cmd_blame(args) -> int:
    from repro.experiments.blamecmd import run_blame

    started = time.time()
    tables, lines, artifacts = run_blame(
        args.experiment, scale=args.scale, out_base=args.out,
        systems=args.systems, clients=args.clients, items=args.items,
        top=args.top)
    ops = sum(a["blame"].ops for a in artifacts)
    header = (f"### blame {args.experiment} (scale={args.scale}, "
              f"{len(artifacts)} runs, {ops} ops folded, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    print()
    print("\n".join(lines))
    return 0


def _cmd_triage(args) -> int:
    from repro.experiments.triagecmd import run_triage

    started = time.time()
    tables, lines, artifacts = run_triage(
        args.experiment, scale=args.scale, out_base=args.out,
        systems=args.systems, clients=args.clients, items=args.items,
        top=args.top)
    phases = sum(len(a["phases"]) for a in artifacts)
    header = (f"### triage {args.experiment} (scale={args.scale}, "
              f"{len(artifacts)} systems, {phases} phases, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    print()
    print("\n".join(lines))
    for artifact in artifacts:
        if artifact["stats"].get("dropped", 0) > 0:
            print(f"triage: {artifact['system']} dropped "
                  f"{artifact['stats']['dropped']} spans from the trace "
                  f"ring (tail exemplars unaffected)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mantle-exp",
        description="Reproduce the Mantle paper's tables and figures")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", choices=("quick", "full"),
                            default="quick")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="fan sweep points across N worker processes")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also write the tables as JSON")
    run_parser.add_argument("--check-profile", action="store_true",
                            help="re-derive breakdown columns from the "
                                 "cost profiler and assert agreement "
                                 "(fig13/fig15)")
    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--scale", choices=("quick", "full"),
                            default="quick")
    all_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="run N experiments concurrently")
    trace_parser = sub.add_parser(
        "trace", help="run an experiment traced; export Perfetto JSON")
    trace_parser.add_argument("experiment", choices=("fig15", "table1"))
    trace_parser.add_argument("--scale", choices=("quick", "full"),
                              default="quick")
    trace_parser.add_argument("--out", metavar="PATH", default="",
                              help="Chrome-trace output path "
                                   "(default trace_<experiment>.json)")
    telemetry_parser = sub.add_parser(
        "telemetry",
        help="rerun a figure's knee points instrumented; export CSV/JSON")
    telemetry_parser.add_argument("experiment",
                                  choices=("fig12", "fig14", "fig19"))
    telemetry_parser.add_argument("--scale", choices=("quick", "full"),
                                  default="quick")
    telemetry_parser.add_argument("--out", metavar="BASE", default="",
                                  help="output base path "
                                       "(default telemetry_<experiment>)")
    telemetry_parser.add_argument("--clients", type=int, default=None,
                                  help="override the cases' client count")
    telemetry_parser.add_argument("--items", type=int, default=None,
                                  help="override ops per client")
    telemetry_parser.add_argument("--window-us", type=float, default=None,
                                  help="telemetry window in simulated us "
                                       "(default 1000 quick / 10000 full)")
    profile_parser = sub.add_parser(
        "profile",
        help="rerun a knee point with cost attribution; export flame "
             "graphs")
    profile_parser.add_argument(
        "experiment",
        help="figure id (fig12/fig14/fig19) or mdtest op (objstat, "
             "mkdir, ...)")
    profile_parser.add_argument("--scale", choices=("quick", "full"),
                                default="quick")
    profile_parser.add_argument("--diff", nargs=2, default=None,
                                metavar=("BASE", "OTHER"),
                                help="profile two systems and print the "
                                     "per-frame cost deltas")
    profile_parser.add_argument("--systems", nargs="+", default=None,
                                metavar="SYSTEM",
                                help="override the systems to profile")
    profile_parser.add_argument("--out", metavar="BASE", default="",
                                help="output base path "
                                     "(default profile_<experiment>)")
    profile_parser.add_argument("--clients", type=int, default=None,
                                help="override the case's client count")
    profile_parser.add_argument("--items", type=int, default=None,
                                help="override ops per client")
    profile_parser.add_argument("--top", type=int, default=12,
                                help="rows per self-time / diff table")
    critpath_parser = sub.add_parser(
        "critpath",
        help="extract per-op critical paths; print gating centers and "
             "on/off-path contrast")
    critpath_parser.add_argument(
        "experiment",
        help="figure id (fig12/fig14/fig19) or mdtest op (objstat, "
             "mkdir, ...)")
    critpath_parser.add_argument("--scale", choices=("quick", "full"),
                                 default="quick")
    critpath_parser.add_argument("--systems", nargs="+", default=None,
                                 metavar="SYSTEM",
                                 help="override the systems to analyze")
    critpath_parser.add_argument("--out", metavar="BASE", default="",
                                 help="output base path "
                                      "(default critpath_<experiment>)")
    critpath_parser.add_argument("--clients", type=int, default=None,
                                 help="override the case's client count")
    critpath_parser.add_argument("--items", type=int, default=None,
                                 help="override ops per client")
    critpath_parser.add_argument("--top", type=int, default=12,
                                 help="rows per gating / contrast table")
    whatif_parser = sub.add_parser(
        "whatif",
        help="predict a cost-model speedup from critical-path slack, "
             "then rerun with it applied and compare")
    whatif_parser.add_argument(
        "experiment",
        help="figure id (fig12/fig14/fig19) or mdtest op (objstat, "
             "mkdir, ...)")
    whatif_parser.add_argument("--speedup", action="append", default=[],
                               metavar="COMPONENT=FACTORx",
                               help="virtual speedup, e.g. raft.fsync=2x "
                                    "(repeatable; see repro.sim.host."
                                    "COMPONENT_FIELDS for components)")
    whatif_parser.add_argument("--system", default="mantle",
                               help="system to run (default mantle)")
    whatif_parser.add_argument("--scale", choices=("quick", "full"),
                               default="quick")
    whatif_parser.add_argument("--clients", type=int, default=None,
                               help="override the case's client count")
    whatif_parser.add_argument("--items", type=int, default=None,
                               help="override ops per client")
    whatif_parser.add_argument("--max-error", type=float, default=None,
                               metavar="FRAC",
                               help="exit non-zero if the prediction "
                                    "error exceeds this fraction of the "
                                    "measured delta (e.g. 0.15)")
    whatif_parser.add_argument("--model", choices=("slack", "corrected"),
                               default="slack",
                               help="prediction the --max-error gate "
                                    "judges: first-order slack, or slack "
                                    "floored by the queueing bottleneck "
                                    "law (both are always printed)")
    blame_parser = sub.add_parser(
        "blame",
        help="fold occupant-tagged queue waits into a who-delayed-whom "
             "interference matrix")
    blame_parser.add_argument(
        "experiment",
        help="figure id (fig12/fig14/fig19), mdtest op (objstat, "
             "mkdir, ...), or 'multitenant' for the two-namespace "
             "interference scenario")
    blame_parser.add_argument("--scale", choices=("quick", "full"),
                              default="quick")
    blame_parser.add_argument("--systems", nargs="+", default=None,
                              metavar="SYSTEM",
                              help="override the systems to analyze "
                                   "(ignored for multitenant)")
    blame_parser.add_argument("--out", metavar="BASE", default="",
                              help="output base path "
                                   "(default blame_<experiment>)")
    blame_parser.add_argument("--clients", type=int, default=None,
                              help="override the case's client count")
    blame_parser.add_argument("--items", type=int, default=None,
                              help="override ops per client")
    blame_parser.add_argument("--top", type=int, default=12,
                              help="rows per culprit table")
    triage_parser = sub.add_parser(
        "triage",
        help="phase-segment a tail-instrumented run and blame each "
             "anomalous phase's slow ops")
    triage_parser.add_argument(
        "experiment",
        help="figure id (fig12/fig14/fig19) or mdtest op (objstat, "
             "mkdir, ...)")
    triage_parser.add_argument("--scale", choices=("quick", "full"),
                               default="quick")
    triage_parser.add_argument("--systems", nargs="+", default=None,
                               metavar="SYSTEM",
                               help="override the systems to triage")
    triage_parser.add_argument("--out", metavar="BASE", default="",
                               help="output base path "
                                    "(default triage_<experiment>)")
    triage_parser.add_argument("--clients", type=int, default=None,
                               help="override the case's client count")
    triage_parser.add_argument("--items", type=int, default=None,
                               help="override ops per client")
    triage_parser.add_argument("--top", type=int, default=12,
                               help="rows per gating/blame table")
    from repro.experiments.livecmd import add_live_parser, cmd_live
    add_live_parser(sub)
    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "all": _cmd_all,
                "trace": _cmd_trace, "telemetry": _cmd_telemetry,
                "profile": _cmd_profile, "critpath": _cmd_critpath,
                "whatif": _cmd_whatif, "blame": _cmd_blame,
                "triage": _cmd_triage, "live": cmd_live}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
