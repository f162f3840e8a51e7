"""The wall-clock ledger's command line.

Two ways in, one measurement underneath:

* ``--workload NAME --trace 0|1`` measures one workload in this process
  and prints, as the last line of standard output, the JSON object the
  benchmark contract asks for: the end-to-end metrics with ``--trace 0``,
  the per-layer metrics with ``--trace 1``;
* without ``--trace`` it runs that command once per workload and pass,
  each in a process of its own (peak RSS is per process), prints every
  metric by name with its unit, runs the correctness gate and exits
  non-zero if any check failed.

``BENCHMARK.json`` at the repository root is the one list of workloads,
metrics, units and bounds; this file reads it and never repeats it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
WORKDIR = ROOT / ".ledger_work"
DEFAULT_SEED = 11
HELD_OUT_SEED = 12
SMOKE_SCALE = 0.05
MIN_REPS = 3
LIVE_CYCLES = 200            # x 6 ops x 2 connections = 2,400 ops a repetition
LIVE_TRACED_CYCLES = 250     # 2 x 1,500 ops
#: End-to-end metrics that are simulated quantities on ``sim_*`` workloads:
#: two runs of one seed must agree to the last digit.
EXACT_ON_SIM = ("svc_kops", "svc_p50_us", "svc_p99_us")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def clean_env() -> Dict[str, str]:
    """The environment every measurement runs under: no ``MANTLE_*``
    switches (children included) and a fixed string hash, so exact counts
    are exact."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MANTLE_")}
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# One workload, in this process.
# ---------------------------------------------------------------------------

def _median(reps, value) -> float:
    return statistics.median(value(rep) for rep in reps)


def wall_per_op(rep) -> float:
    return rep.wall_s / rep.done


def end_to_end(reps) -> Dict[str, float]:
    """Medians over the repetitions of one untraced run."""
    return {
        "setup_s": _median(reps, lambda r: r.setup_s),
        "ops_per_wall_s": _median(reps, lambda r: r.done / r.wall_s),
        "cpu_us_per_op": _median(reps, lambda r: r.cpu_s / r.done * 1e6),
        "peak_rss_mb": _median(reps, lambda r: r.peak_rss_mb),
        "svc_kops": _median(reps, lambda r: r.svc_kops),
        "svc_p50_us": _median(reps, lambda r: r.svc_p50_us),
        "svc_p99_us": _median(reps, lambda r: r.svc_p99_us),
    }


class Sim:
    """Repetitions of one simulated workload."""

    def __init__(self, name: str, seed: int, smoke: bool):
        from benchmarks.ledger import simload

        self.name = name
        self.simload = simload
        self.stages = simload.make_stages(
            name, seed, SMOKE_SCALE if smoke else 1.0)

    def rep(self, profile=None, obs_rig: Optional[bool] = None):
        if obs_rig is None:
            obs_rig = self.name == "sim_obs"
        return self.simload.run_rep(self.name, self.stages, profile, obs_rig)

    def traced(self):
        """An untraced repetition for the counts, then one under cProfile
        for the layer shares; ``sim_obs`` also runs its plain twin.
        Returns the per-layer values, the repetitions made and what the
        layer map or the fold got wrong."""
        import cProfile

        from benchmarks.ledger import layers

        problems = layers.layer_map_problems()
        counted = self.rep()
        profile = cProfile.Profile()
        profiled = self.rep(profile)
        out = dict(counted.layer)
        out.update(layers.fold_profile(
            profile, profiled.done, profiled.wall_s, problems))
        out["profile.overhead_ratio"] = wall_per_op(profiled) \
            / wall_per_op(counted)
        reps = [counted, profiled]
        if self.name == "sim_obs":
            bare = self.rep(obs_rig=False)
            reps.append(bare)
            out["obs.overhead_ratio"] = wall_per_op(counted) \
                / wall_per_op(bare)
        return out, reps, problems


class Live:
    """Repetitions of ``live_mixed``."""

    def __init__(self, seed: int, smoke: bool):
        from benchmarks.ledger import liveload

        self.liveload = liveload
        self.seed = seed
        self.scale = SMOKE_SCALE if smoke else 1.0

    def rep(self, traced: bool = False):
        cycles = LIVE_TRACED_CYCLES if traced else LIVE_CYCLES
        return self.liveload.run_rep(
            self.seed, max(4, round(cycles * self.scale)), str(WORKDIR),
            traced=traced)

    def traced(self):
        plain = self.rep()
        traced = self.rep(traced=True)
        out = dict(plain.layer)
        out.update(traced.layer)
        if plain.done and traced.done:
            out["live.trace_overhead_ratio"] = wall_per_op(traced) \
                / wall_per_op(plain)
        return out, [plain, traced], []


def gate_reps(name: str, reps, problems: List[str]) -> None:
    """What the repetitions found wrong, and, on simulated workloads,
    whether one seed gave one result."""
    for rep in reps:
        problems += rep.problems
    if name == "live_mixed":
        return
    prints = {rep.fingerprint() for rep in reps}
    if len(prints) > 1:
        problems.append(
            f"{name}: simulated fingerprints differ between repetitions "
            f"of one seed: {sorted(prints)}")


def run_one(args, spec: dict) -> int:
    """Measure one workload here and print the contract's JSON line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    live = args.workload == "live_mixed"
    load = Live(args.seed, args.smoke) if live \
        else Sim(args.workload, args.seed, args.smoke)
    if args.trace:
        values, reps, problems = load.traced()
        wanted = spec["per_layer"]
    else:
        problems = []
        min_reps, seconds = (1, 0.0) if args.smoke \
            else (MIN_REPS, args.seconds)
        reps = []
        while len(reps) < min_reps or \
                sum(rep.wall_s for rep in reps) < seconds:
            reps.append(load.rep())
        wanted = spec["end_to_end"]
    gate_reps(args.workload, reps, problems)
    if not args.trace:
        values = end_to_end(reps) if not problems else {}
        print("repetitions, ops/s:",
              " ".join(f"{rep.done / rep.wall_s:.1f}" for rep in reps))
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)

    for rep in reps:
        for note in rep.notes:
            print(note)
    print(f"{args.workload}: {len(reps)} repetitions, {attempted} "
          f"operations, {sum(rep.wall_s for rep in reps):.2f}s measured")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# Every workload, one process each.
# ---------------------------------------------------------------------------

def child(workload: str, trace: int, args) -> Optional[dict]:
    """Run one workload and pass in a process of its own; returns its
    result object, or ``None`` if it printed none."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, env=clean_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"    GATE FAILED: {workload} --trace {trace} exited "
              f"{done.returncode} without a result")
        return None
    if done.returncode != 0:
        result["correct"] = False
    return result


def print_metrics(result: dict, defs: List[dict], skip_zero: bool) -> None:
    for metric in defs:
        value = result["metrics"][metric["name"]]["value"]
        if skip_zero and value == 0:
            continue
        print(f"    {metric['name']:<34}{value:>16.6g} {metric['unit']}")


def run_set(names: List[str], args, spec: dict, traced: bool) -> dict:
    """One pass over the workloads; ``{name: {"end_to_end": ..,
    "per_layer": ..}}`` with ``None`` where a run printed no result."""
    out: Dict[str, dict] = {}
    for name in names:
        print(f"== {name} (seed {args.seed})")
        entry = out[name] = {"end_to_end": child(name, 0, args)}
        if entry["end_to_end"]:
            result = entry["end_to_end"]
            print_metrics(result, spec["end_to_end"], skip_zero=False)
            print(f"    {'failed_frac':<34}"
                  f"{result['failed'] / result['attempted']:>16.6g} ratio")
        if traced:
            entry["per_layer"] = child(name, 1, args)
            if entry["per_layer"]:
                print_metrics(entry["per_layer"], spec["per_layer"],
                              skip_zero=True)
    return out


def gate(results: dict) -> List[str]:
    """What the set of runs got wrong, across workloads."""
    problems = []
    for name, entry in results.items():
        for kind, result in entry.items():
            if result is None or not result["correct"]:
                problems.append(f"{name}: {kind} run failed its checks")
    mixed = results.get("sim_mixed", {}).get("end_to_end")
    traced = results.get("sim_obs", {}).get("end_to_end")
    if mixed and traced:
        for key in EXACT_ON_SIM:
            a = mixed["metrics"][key]["value"]
            b = traced["metrics"][key]["value"]
            if a != b:
                problems.append(
                    f"sim_obs: {key} = {b!r} but sim_mixed has {a!r}; "
                    "instrumentation must be bookkeeping only")
    return problems


def selfcheck(first: dict, second: dict, spec: dict) -> List[str]:
    """Compare two untraced sets of one code: every end-to-end metric on
    every workload, against its own bound."""
    problems = []
    print(f"{'workload':<14}{'metric':<16}{'first':>14}{'second':>14}"
          f"{'rel diff':>10}{'bound':>8}")
    for name in first:
        a, b = first[name]["end_to_end"], second[name]["end_to_end"]
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            x, y = a["metrics"][key]["value"], b["metrics"][key]["value"]
            exact = key in EXACT_ON_SIM and name.startswith("sim_")
            bound = 0.0 if exact else metric["bound"]
            diff = abs(x - y) / min(abs(x), abs(y))
            verdict = "" if diff <= bound else "  OUTSIDE"
            print(f"{name:<14}{key:<16}{x:>14.6g}{y:>14.6g}"
                  f"{diff:>10.4f}{bound:>8.2f}{verdict}")
            if verdict:
                problems.append(f"selfcheck: {name} {key} differs by "
                                f"{diff:.4f}, bound {bound}")
    return problems


def run_ledger(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    started = time.perf_counter()
    results = run_set(names, args, spec, traced=not args.no_traced)
    problems = gate(results)
    report = {"seed": args.seed, "smoke": args.smoke, "results": results}
    if args.selfcheck:
        print("-- selfcheck: the untraced set again")
        again = run_set(names, args, spec, traced=False)
        problems += gate(again)
        problems += selfcheck(results, again, spec)
        report["selfcheck"] = again
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    report["problems"] = problems
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
    print(f"ledger: {len(names)} workloads in "
          f"{time.perf_counter() - started:.1f}s, "
          f"{'gate passed' if not problems else 'GATE FAILED'}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one workload here: 0 prints the "
                             "end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--no-traced", action="store_true",
                        help="skip the per-layer pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 op counts, one repetition, gate still on")
    parser.add_argument("--json", metavar="OUT", help="write results here")
    parser.add_argument("--list", action="store_true",
                        help="print names, units and bounds as JSON")
    args = parser.parse_args(argv)
    if args.list:
        print(json.dumps({**spec, "default_seed": DEFAULT_SEED,
                          "held_out_seed": HELD_OUT_SEED}, indent=1))
        return 0
    if args.trace is None:
        return run_ledger(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if os.environ != clean_env():
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + (sys.argv[1:] if argv is None else list(argv)),
                  clean_env())
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
