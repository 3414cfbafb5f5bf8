"""simsub benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 repeats the workload as a closed loop, one fresh process per
pass, for S seconds, and reports the end-to-end metrics over the passes
that succeeded (fastest sample for times, median for memory).  --trace 1
runs every workload once untraced and once traced, each in its own fresh
process, plus the seeded kernel probes, and reports the per-layer
metrics and the tracing overhead of each workload.  The seed orders the
commands of each pass, the passes of each traced round and the probe
operands.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
PASS_TIMEOUT_S = 120
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Pass:
    """Outcome of one worker process."""

    code: int
    result: dict | None
    setup_s: float | None
    elapsed_s: float
    peak_rss_mb: float

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.result is not None and not self.result.get("errors")


def spawn(args) -> Pass:
    """Run worker.py with a pinned environment; rusage comes from os.wait4.

    SIMSUB_THREADS defaults to 1 here; the worker sets it per command.
    """
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"), SIMSUB_THREADS="1")
    env.update({name: "1" for name in PINNED_THREADS})
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                            stdout=subprocess.PIPE, env=env)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    lines = out.decode(errors="replace").strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    setup = result["ready"] - start if result else None
    return Pass(proc.returncode, result, setup, elapsed, usage.ru_maxrss / 1024)


def setup_samples(count: int) -> list[float]:
    """Import times of fresh processes; the first (bytecode compile) is dropped."""
    samples = []
    for i in range(count + 1):
        p = spawn(["setup"])
        if not p.ok:
            raise RuntimeError("worker could not import simsub.cli "
                               "(run from the root of a simsub checkout)")
        if i:
            samples.append(p.setup_s)
    return samples


def pass_args(name, size, rng, traced):
    n = len(WORKLOADS[name].commands(size))
    order = ",".join(str(i) for i in rng.sample(range(n), n))
    return ["pass", name, size, order, int(traced)]


def timed_run(args, rng):
    setups = setup_samples(SETUP_PROBES)
    good: list[Pass] = []
    attempted = failed = 0
    start = time.monotonic()
    last = 0.0
    while not attempted or time.monotonic() - start + last <= args.seconds:
        p = spawn(pass_args(args.workload, args.size, rng, False))
        attempted += 1
        last = p.elapsed_s
        if p.ok:
            good.append(p)
            setups.append(p.setup_s)
        else:
            failed += 1
            report_failure(args.workload, p)
    # Every time is the fastest sample of the run: the host alternates
    # between a fast phase and one about 40% slower, lasting 5 to 40 s
    # each, and the fastest sample is the steadiest estimate of the
    # program's own cost.  Memory does not drift, so it takes the median.
    samples = {
        "wall_s": ("s", min, [p.result["wall_s"] for p in good]),
        "cpu_s": ("s", min, [p.result["cpu_s"] for p in good]),
        "peak_rss_mb": ("MB", statistics.median, [p.peak_rss_mb for p in good]),
        "setup_s": ("s", min, setups),
    }
    metrics = {}
    if good:
        for name, (unit, reduce, values) in samples.items():
            metrics[name] = {"value": reduce(values), "unit": unit}
            print(f"{args.workload} {name}: {metrics[name]['value']:.4f} {unit} "
                  f"({reduce.__name__} of {len(values)}, median "
                  f"{statistics.median(values):.4f})", file=sys.stderr)
    return attempted, failed, metrics


def traced_run(args, rng):
    """Per-layer metrics from traced passes of every workload.

    Each round runs every workload untraced and then traced, each in a
    fresh process; rounds repeat while the next one fits in --seconds
    (at least one).  A metric's value is its median over the rounds; the
    overhead of a workload is the median over the rounds of its traced
    wall time minus its untraced wall time in the same round, so both
    sides of a difference see the same phase of the host; the seed picks
    which of the two runs first.
    """
    setup_samples(0)
    names = [args.workload] + [n for n in WORKLOADS if n != args.workload]
    attempted = failed = 0
    rounds, overheads, spans = [], {n: [] for n in names}, {}
    start = time.monotonic()
    last = 0.0
    while not rounds or time.monotonic() - start + last <= args.seconds:
        round_start = time.monotonic()
        raws = []
        for name in names:
            plain_args = pass_args(name, args.size, rng, False)
            walls = {}
            for traced in rng.sample((False, True), 2):
                p = spawn(plain_args[:-1] + [int(traced)])
                attempted += 1
                if not p.ok:
                    failed += 1
                    report_failure(name, p)
                    continue
                walls[traced] = p.result["wall_s"]
                if traced:
                    raws.append(p.result["layers"])
                    spans.setdefault(name, p.result["spans"])
            if len(walls) == 2:
                overheads[name].append(walls[True] - walls[False])
        rounds.append(layers.derive(layers.merge(raws)))
        last = time.monotonic() - round_start
        if failed:
            break
    probe = spawn(["probe", args.seed])
    attempted += 1
    if not probe.ok:
        report_failure("probe", probe)
        return attempted, failed + 1, {}
    if failed:
        return attempted, failed, {}
    values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    values.update(probe.result["rates"])
    for name, diffs in overheads.items():
        values[f"trace.{name}.overhead_s"] = statistics.median(diffs)
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    spans_out = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(
        {"fields": ["id", "name", "start", "end", "parent", "thread", "attrs"],
         "spans": spans}))
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}", file=sys.stderr)
    return attempted, failed, metrics


def report_failure(name, p):
    print(f"{name} pass failed (exit {p.code}): "
          f"{p.result.get('errors') if p.result else 'no result'}", file=sys.stderr)


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "simsub" / "cli.py").is_file():
        print("error: run from the root of a simsub checkout (src/simsub is missing)",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics = run(args, rng)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not metrics:
        print("error: no result to report (see the failed passes above)", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
