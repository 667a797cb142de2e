#!/usr/bin/env python3
"""Benchmark entry point: build the program and the harness, run one workload.

Single run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Steadiness check (repeats workloads over seeds, alternating their order,
and prints each end-to-end metric's median, quartiles and spread next to
its bound from BENCHMARK.json; with --sets 2 it runs a second set on other
seeds and compares the two sets' medians against the bounds too):

    python3 perfbench/run.py steady --workloads grid,closure --seeds 1,2,3,4,5
    python3 perfbench/run.py steady --sets 2

Smoke test of every workload at reduced sizes, untraced and traced:

    python3 perfbench/run.py smoke

Run from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR, or
`.bench_build` when it is unset.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Build the release `experiments` binary and the harness from source."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ephemeral-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        # Cargo's own chatter goes to stderr; stdout stays the report.
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    release = target_dir() / "release"
    return release / "experiments", release / "perfbench"


def declared(trace):
    """(name, unit) pairs the result line must carry, from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """The last stdout line must hold exactly the declared metrics."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = declared(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != dict(want):
        missing = sorted(set(dict(want)) - set(got))
        extra = sorted(set(got) - set(dict(want)))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return result


def run_once(args):
    experiments, harness = build()
    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--experiments", str(experiments)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, IndexError, KeyError, json.JSONDecodeError) as e:
        print(f"error: bad result line: {e}", file=sys.stderr)
        return 1
    return 0


def single(workload, seed, seconds, trace, smoke=False):
    """One run in its own process, exactly as BENCHMARK.json's command runs.
    Returns its result line, with each metric's sample count added, and the
    host steal share it noted (or None)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
    steal = re.search(r"^# host steal over the run: ([0-9.]+)", proc.stdout, re.M)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, n in re.findall(r"^metric (\S+) = .* \(samples (\d+)\)$", proc.stdout, re.M):
        if name in result["metrics"]:
            result["metrics"][name]["samples"] = int(n)
    return result, steal and float(steal[1])


def spread(vals):
    """(median, q1, q3, (q3 - q1) / median) as the steadiness rule takes them."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(workloads, seeds, seconds):
    """One set: every workload once per seed, alternating the order."""
    values = {w: {} for w in workloads}
    steals = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r, steal = single(w, seed, seconds, 0)
            steals[w].append(steal or 0.0)
            tag = "" if r["correct"] else "  INCORRECT"
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g} {v['unit']} (samples {v['samples']})"
                for k, v in r["metrics"].items())
                + f"; attempted {r['attempted']} failed {r['failed']}; host steal {steal}"
                + tag, flush=True)
            for k, v in r["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
    return values, steals


def steady(args):
    """Repeat workloads over seeds and hold every end-to-end metric to its
    bound: the spread within each set, and with --sets 2 or more the move
    of each set's median from the first set's, in either direction."""
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    sets = []
    worst_spread = worst_drift = 0.0
    for k in range(args.sets):
        set_seeds = [s + 1000 * k for s in seeds]
        values, steals = run_set(workloads, set_seeds, seconds)
        sets.append(values)
        for w in workloads:
            print(f"\nset {k + 1}, {w} ({len(seeds)} runs, {seconds} s each, seeds {set_seeds[0]}..;"
                  f" host steal median {statistics.median(steals[w]):.3f},"
                  f" max {max(steals[w]):.3f})")
            print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}{'/bound':>8}")
            for name, vals in values[w].items():
                med, q1, q3, sp = spread(vals)
                worst_spread = max(worst_spread, sp / bounds[name])
                print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.4f}"
                      f"{bounds[name]:>7}{sp / bounds[name]:>8.3f}")
    for k in range(1, len(sets)):
        for w in workloads:
            print(f"\nset {k + 1} against set 1, {w}: median move in either direction")
            print(f"  {'metric':<14}{'set 1':>14}{f'set {k + 1}':>14}{'move':>9}{'bound':>7}{'/bound':>8}")
            for name in sets[0][w]:
                a = statistics.median(sets[0][w][name])
                b = statistics.median(sets[k][w][name])
                move = max(b / a, a / b) - 1.0
                worst_drift = max(worst_drift, move / bounds[name])
                print(f"  {name:<14}{a:>14.6g}{b:>14.6g}{move:>9.4f}"
                      f"{bounds[name]:>7}{move / bounds[name]:>8.3f}")
    print(f"\nworst spread / bound: {worst_spread:.3f} (target below 0.333)")
    if len(sets) > 1:
        print(f"worst move between sets / bound: {worst_drift:.3f} (must stay below 1)")
    return 0 if worst_spread <= 1.0 and worst_drift <= 1.0 else 1


def smoke(args):
    """Every workload at smoke size, untraced then traced: outputs must
    check out and every declared metric must be present."""
    for w in ["grid", "serve-read", "serve-write", "closure"]:
        for trace in (0, 1):
            r, _ = single(w, args.seed, 2, trace, smoke=True)
            if not r["correct"]:
                raise SystemExit(f"smoke {w} trace {trace}: outputs failed their checks")
            print(f"smoke {w} trace {trace}: ok, {r['attempted']} checked", flush=True)
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("steady", "smoke"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        p.add_argument("--workloads", default=None,
                       help="comma-separated; default: the workloads BENCHMARK.json declares")
        p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
        p.add_argument("--sets", type=int, default=1,
                       help="sets of runs; each later set uses the seeds + 1000 x its index")
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--seed", type=int, default=1)
        args = p.parse_args(sys.argv[2:])
        return steady(args) if sys.argv[1] == "steady" else smoke(args)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True,
                   choices=["grid", "serve-read", "serve-write", "closure"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sizes (the harness's own tests)")
    return run_once(p.parse_args())


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(map(str, e.cmd))} failed with code {e.returncode}", file=sys.stderr)
        sys.exit(1)
