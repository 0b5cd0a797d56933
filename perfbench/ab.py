#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the benchmark.

    python3 perfbench/ab.py --parent ../plwg-parent --change . \\
        --workload fig2-dynamic [--pairs 10] [--seconds 30] [--confirm]

Runs the change's `perfbench/run.py` from the root of each checkout, so
both sides run identical benchmark code against their own src/. Pairs
alternate their order (parent first, then change first, ...), each pair on
its own seed; both sides use the same seeds and run length. run.py keys
its build tree by checkout, and every run must report that its library was
built from its own checkout's src/, or the comparison stops.
For every end-to-end metric of BENCHMARK.json (read from --change) it
prints each side's median and quartiles, the fraction of pairs the change
won (ties count for neither side), and a verdict:

  improved    the change won >= 90% of pairs, the medians differ by more
              than the parent's own quartile spread, and the change's
              median failed share (failed / attempted) is no higher than
              the parent's: a gain bought with more failed operations
              does not count
  unresolved  the run-to-run spread of either side exceeds the bound (unless
              every change run beat every parent run)
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unchanged   otherwise

Seeds 1..pairs are the development seeds. A claim is confirmed on the
held-out seed (HELD_OUT_SEED below), never used while writing a change:
--confirm runs every pair on it instead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HELD_OUT_SEED = 104729


def run(runner, checkout, workload, seed, seconds):
    cmd = ["python3", runner, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: run failed (exit {proc.returncode})")
    library = os.path.join(os.path.realpath(checkout), "src")
    if f"library: {library}" not in lines:
        sys.exit(f"{checkout}: the binary was not built from {library}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: outputs incorrect on seed {seed}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, bound, better, more_failures):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    win_frac = wins / len(parent)
    spread_p = (p3 - p1) / abs(pm) if pm else 0.0
    spread_c = (c3 - c1) / abs(cm) if cm else 0.0
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if (win_frac >= 0.9 and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0
            and not more_failures):
        v = "improved"
    elif max(spread_p, spread_c) > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), win_frac, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--confirm", action="store_true",
                    help=f"run every pair on the held-out seed {HELD_OUT_SEED}")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runner = os.path.join(os.path.abspath(args.change), "perfbench", "run.py")
    seconds = args.seconds or spec["run_seconds"]
    parent, change = {}, {}
    failed_share = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = HELD_OUT_SEED if args.confirm else i + 1
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            result = run(runner, checkout, args.workload, seed, seconds)
            dest = parent if side == "parent" else change
            failed_share[side].append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                dest.setdefault(name, []).append(m["value"])
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, "
              f"{order[0][0]} first) done", file=sys.stderr)

    print(f"workload {args.workload}: {args.pairs} interleaved pairs, "
          f"{seconds} s runs, seeds "
          f"{'held-out ' + str(HELD_OUT_SEED) if args.confirm else '1..' + str(args.pairs)}")
    failed_p = statistics.median(failed_share["parent"])
    failed_c = statistics.median(failed_share["change"])
    more_failures = failed_c > failed_p
    print(f"failed share (median): parent {failed_p:.6g}, change {failed_c:.6g}"
          + ("; no metric may count as improved" if more_failures else ""))
    print(f"{'metric':24s} {'parent q1/med/q3':>36s} {'change q1/med/q3':>36s} "
          f"{'win':>5s}  verdict (bound)")
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in parent or name not in change:
            print(f"{name:24s} missing from the results")
            continue
        (p1, pm, p3), (c1, cm, c3), win, v = verdict(
            parent[name], change[name], m["bound"], m["better"], more_failures)
        print(f"{name:24s} {p1:11.5g} {pm:11.5g} {p3:11.5g}  "
              f"{c1:11.5g} {cm:11.5g} {c3:11.5g}  {win:5.2f}  "
              f"{v} ({m['bound']}, {m['better']} is better)")
    print(f"held-out seed for confirming a claim: {HELD_OUT_SEED} (--confirm)")


if __name__ == "__main__":
    main()
