"""Compare two suite results files under the benchmark's own bounds.

    python3 perfbench/compare.py BASE.json NEW.json

For each (end-to-end metric, workload) pair it prints both medians and
quartiles and a verdict:
  better      every NEW run beats every BASE run, or the medians differ in
              the good direction by more than BASE's quartile distance and
              at least 9 in 10 of all (BASE, NEW) run pairs favour NEW
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  either side's quartile spread exceeds the bound
  same        none of the above
Exact per-layer counts must match exactly.  The exit code is 1 when any
pair is worse or any exact count changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXACT_COUNTS = ("lattice.rank4.candidates", "lattice.ideals", "quadratic.gcd.calls",
                "cubic.rotations", "cli.stdout_bytes")


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    old_values, new_values = base["values"], new["values"]
    if all(sign * n < sign * o for n in new_values for o in old_values):
        return "better"
    if max(base["spread"], new["spread"]) > bound:
        return "unresolved"
    if sign * (new["median"] - base["median"]) > bound * base["median"]:
        return "worse"
    wins = sum(sign * n < sign * o for n in new_values for o in old_values)
    if (sign * (base["median"] - new["median"]) > base["q3"] - base["q1"]
            and wins >= 0.9 * len(new_values) * len(old_values)):
        return "better"
    return "same"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    lines, bad = [], False
    for metric in spec["end_to_end"]:
        for workload in base["workloads"]:
            if workload not in new["workloads"]:
                lines.append(f"{metric['name']:12} {workload:17} missing from NEW")
                bad = True
                continue
            b = base["workloads"][workload]["metrics"][metric["name"]]
            n = new["workloads"][workload]["metrics"][metric["name"]]
            v = verdict(b, n, metric["bound"], metric["better"])
            bad |= v == "worse"
            lines.append(
                f"{metric['name']:12} {workload:17} "
                f"{b['median']:10.4f} [{b['q1']:.4f}..{b['q3']:.4f}]  "
                f"{n['median']:10.4f} [{n['q1']:.4f}..{n['q3']:.4f}] {metric['unit']:3} "
                f"(bound {metric['bound']:.2f})  {v}")
    for name in EXACT_COUNTS:
        old, now = base["per_layer"][name]["value"], new["per_layer"][name]["value"]
        bad |= old != now
        lines.append(f"{name:36} {old} -> {now}  {'exact' if old == now else 'CHANGED'}")
    for workload in new["workloads"]:
        w = new["workloads"][workload]
        bad |= w["failed"] > 0
        lines.append(f"fail_ratio {workload:17} {w['failed']}/{w['attempted']}")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lines, bad = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
