"""``mantle-exp`` — run the paper's experiments from the command line.

Usage::

    mantle-exp list
    mantle-exp run fig12 [--scale quick|full] [--jobs N]
    mantle-exp all [--scale quick|full] [--jobs N]
    mantle-exp explain fig14 --view profile,critpath,blame,triage
                       [--systems mantle] [--clients N] [--out DIR]
    mantle-exp explain fig12 --view profile --diff mantle infinifs
    mantle-exp explain fig14 --view telemetry [--window-us US]
    mantle-exp explain fig15|table1 --view trace
    mantle-exp explain multitenant --view blame
    mantle-exp whatif fig14 --speedup tafdb.fsync=2x [--max-error FRAC]
    mantle-exp live smoke [--trace] [--telemetry] [--metrics] [--out DIR]
    mantle-exp live fig12 [--divergence X]     (both: [--in-process])

``run --jobs N`` fans a sweep experiment's per-point simulators across N
worker processes; ``all --jobs N`` runs whole experiments concurrently.
Either way the simulated results are identical to a serial run — only
wall-clock changes — and output is printed in deterministic registry order.

``run`` and ``all`` print each exhibit's claims table after its tables; a
failed claim prints one line (exhibit, claim, measured value) and exits 1.

``explain`` reruns a target — a figure's knee points, a traced exhibit,
the ``multitenant`` noisy-neighbour scenario or a bare mdtest op —
instrumented, once per system for all the views named together, and
derives each view from that one run record (the view table is in
:mod:`repro.experiments.explain`).  Exports are named
``<view>_<target>[_<system>].<ext>`` under ``--out`` (a directory), each
validated before it is written.

``whatif`` is the one explanation verb that reruns: it predicts a virtual
speedup from critical-path slack floored by the queueing bottleneck law
(the floor binds only deep in saturation), reruns with the override
applied and compares; ``--max-error`` gates on that one prediction.

A request the registries cannot serve (unknown target, view or system,
``--diff`` without the profile view) exits 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro.bench.cluster import SYSTEMS
from repro.bench.report import print_tables, table_to_jsonable
from repro.experiments import get_experiment, list_experiments
from repro.experiments.base import SCALES, claims_table, show
from repro.experiments.explain import MULTITENANT, explain, targets
from repro.experiments.livecmd import add_live_parser, cmd_live
from repro.experiments.runner import run_experiments, wallclock_table
from repro.experiments.whatif import run_whatif


def _cmd_list(_args) -> int:
    for experiment in list_experiments():
        print(f"{experiment.id:8s} {experiment.title}")
        print(f"{'':8s}   paper: {experiment.paper_claim}")
    return 0


def _report(exp_id: str, scale: str, tables, claims, header: str) -> bool:
    """Print tables and claims; True when every claim passed."""
    print_tables(list(tables) + [claims_table(exp_id, scale, claims)],
                 header=header)
    failed = [claim for claim in claims if not claim.ok]
    for claim in failed:
        print(f"{exp_id}: claim '{claim.text}' {claim.verdict}: measured "
              f"{show(claim.measured)}", file=sys.stderr)
    return not failed


def _cmd_run(args) -> int:
    experiment = get_experiment(args.experiment)
    started = time.time()
    tables = experiment.run(scale=args.scale, jobs=args.jobs)
    header = (f"### {experiment.id}: {experiment.title} "
              f"(scale={args.scale}, {time.time() - started:.1f}s wall)")
    claims = experiment.check(tables, args.scale)
    ok = _report(experiment.id, args.scale, tables, claims, header)
    if args.json:
        payload = {
            "experiment": experiment.id,
            "title": experiment.title,
            "paper_claim": experiment.paper_claim,
            "scale": args.scale,
            "tables": [table_to_jsonable(t) for t in tables],
            "claims": [dataclasses.asdict(claim) for claim in claims],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print(f"(wrote {args.json})")
    return 0 if ok else 1


def _cmd_all(args) -> int:
    started = time.time()
    outcomes = []
    for outcome in run_experiments(scale=args.scale, jobs=args.jobs):
        header = (f"### {outcome.exp_id}: {outcome.title} "
                  f"(scale={args.scale}, {outcome.wall_s:.1f}s wall)")
        if outcome.error is None:
            _report(outcome.exp_id, args.scale, outcome.tables,
                    outcome.claims, header)
        else:
            print(header)
            print(outcome.error, file=sys.stderr)
        print()
        outcomes.append(outcome)
    # Wall-clock summary, slowest first, so perf regressions are visible
    # without running the ledger (benchmarks/ledger).
    summary = wallclock_table(outcomes)
    summary.add_note(f"end-to-end wall time {time.time() - started:.1f}s "
                     f"(jobs={args.jobs})")
    print_tables([summary])
    return 0 if all(o.ok for o in outcomes) else 1


def _cmd_explain(args) -> int:
    started = time.time()
    result = explain(
        args.target, args.view, scale=args.scale, out_dir=args.out,
        systems=args.systems, diff=args.diff, clients=args.clients,
        items=args.items, top=args.top, window_us=args.window_us)
    header = (f"### explain {args.target} --view {','.join(args.view)} "
              f"(scale={args.scale}, {len(result.paths)} files written, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(result.tables, header=header)
    if result.lines:
        print()
        print("\n".join(result.lines))
    return 0


def _cmd_whatif(args) -> int:
    started = time.time()
    tables, result = run_whatif(
        args.target, args.speedup, system=args.system,
        scale=args.scale, clients=args.clients, items=args.items)
    header = (f"### whatif {args.target} (scale={args.scale}, "
              f"{time.time() - started:.1f}s wall)")
    print_tables(tables, header=header)
    if args.max_error is not None and not result.within(args.max_error):
        print("whatif: prediction failed the gate: "
              + result.failure_report(args.max_error), file=sys.stderr)
        return 1
    return 0


def _add_point_options(parser, targets) -> None:
    """The target and the budget options ``explain`` and ``whatif`` share."""
    parser.add_argument(
        "target", choices=targets, metavar="target",
        help="figure id (fig12/fig14/fig15/fig19/table1), 'multitenant' "
             "(the two-namespace interference scenario), or an mdtest op "
             "(objstat, mkdir, dirrename, ...)")
    parser.add_argument("--scale", choices=SCALES, default="quick")
    parser.add_argument("--clients", type=int, default=None,
                        help="override the cases' client count")
    parser.add_argument("--items", type=int, default=None,
                        help="override ops per client")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mantle-exp",
        description="Reproduce the Mantle paper's tables and figures")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", choices=SCALES, default="quick")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="fan sweep points across N worker processes")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also write the tables as JSON")
    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--scale", choices=SCALES, default="quick")
    all_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="run N experiments concurrently")
    explain_parser = sub.add_parser(
        "explain",
        help="run a target instrumented once and fold the requested "
             "views (trace, telemetry, profile, critpath, blame, triage) "
             "out of it; exports land in --out")
    _add_point_options(explain_parser, targets())
    explain_parser.add_argument(
        "--view", type=lambda text: text.split(","), required=True,
        metavar="VIEW[,VIEW...]",
        help="comma-separated views; views named together share one "
             "simulated run per system")
    explain_parser.add_argument("--systems", nargs="+", default=None,
                                choices=SYSTEMS, metavar="SYSTEM",
                                help="narrow (and order) the systems run")
    explain_parser.add_argument("--diff", nargs=2, default=None,
                                choices=SYSTEMS, metavar=("BASE", "OTHER"),
                                help="profile view: run these two systems "
                                     "and print the per-frame cost deltas")
    explain_parser.add_argument("--out", metavar="DIR", default="",
                                help="output directory (default: cwd); "
                                     "files are always named "
                                     "<view>_<target>[_<system>].<ext>")
    explain_parser.add_argument("--top", type=int, default=12,
                                help="rows per ranking table")
    explain_parser.add_argument("--window-us", type=float, default=None,
                                help="telemetry view: window in simulated "
                                     "us (default 1000 quick / 10000 full)")
    whatif_parser = sub.add_parser(
        "whatif",
        help="predict a cost-model speedup from critical-path slack, "
             "then rerun with it applied and compare")
    _add_point_options(whatif_parser, [target for target in targets()
                                       if target != MULTITENANT])
    whatif_parser.add_argument("--speedup", action="append", required=True,
                               metavar="COMPONENT=FACTORx",
                               help="virtual speedup, e.g. raft.fsync=2x "
                                    "(repeatable; see repro.sim.host."
                                    "COMPONENT_FIELDS for components)")
    whatif_parser.add_argument("--system", default="mantle",
                               choices=SYSTEMS,
                               help="system to run (default mantle)")
    whatif_parser.add_argument("--max-error", type=float, default=None,
                               metavar="FRAC",
                               help="exit non-zero if the prediction "
                                    "error exceeds this fraction of the "
                                    "measured delta (e.g. 0.15)")
    add_live_parser(sub)
    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "all": _cmd_all,
                "explain": _cmd_explain, "whatif": _cmd_whatif,
                "live": cmd_live}
    try:
        return handlers[args.command](args)
    except ValueError as err:
        # A request the registry cannot serve: one line, exit 2.
        parser.error(str(err))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
