#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at --size tiny, untraced and traced,
and checks that each run exits 0, passes its correctness gate, and prints
as its last line a JSON result holding exactly the BENCHMARK.json metric
names (end_to_end untraced, per_layer traced) with their units. Exits
non-zero on the first mismatch. Takes about a minute after the build.
"""
import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "2", "--trace", str(trace),
                                     "--size", "tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            label = f"{w['name']} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{label}: correctness gate failed")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result.get('attempted')}")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"{label}: missing {missing} extra {extra} wrong units {wrong}")
            for k, v in result.get("metrics", {}).items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{label}: {k} is not a number")
            print(f"{label}: {'ok' if not problems else 'see below'}", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
