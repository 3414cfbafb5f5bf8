"""Run every workload with several seeds and write one results file.

    python3 perfbench/suite.py --out perfbench/out/set-a.json [--first-seed N]

Each run is a separate `run.py` process of `run_seconds` (seeds
first-seed .. first-seed + 9) on every workload at full size.  After the
timed runs, one traced run gives the per-layer metrics.  The file
records the environment (cores, Python and numpy versions, commit, load
average before and after) next to every value, with its median,
quartiles and quartile spread.  Compare two files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

RUNS = 10
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def environment(load_before) -> dict:
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    load_before = os.getloadavg()
    seeds = range(args.first_seed, args.first_seed + RUNS)
    workloads = {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        metrics = {k: {"unit": v["unit"], **summarize([r["metrics"][k]["value"] for r in runs])}
                   for k, v in runs[0]["metrics"].items()}
        workloads[name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
        for k, m in metrics.items():
            print(f"{name} {k}: median {m['median']:.4f} {m['unit']}, "
                  f"quartiles {m['q1']:.4f}..{m['q3']:.4f}, spread {m['spread']:.3f}",
                  file=sys.stderr)
    traced = run_once(next(iter(WORKLOADS)), args.first_seed, 1)
    record = {
        "seconds": SECONDS, "seeds": list(seeds),
        "workloads": workloads,
        "per_layer": traced["metrics"],
        "environment": environment(load_before),
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
