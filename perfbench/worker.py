"""One benchmark pass in a fresh process; run.py starts it, never a user.

Modes (the result is the last line of stdout, as JSON):
  worker.py setup                       import simsub.cli and stop
  worker.py pass WORKLOAD SIZE ORDER T  run the workload's commands once,
                                        in ORDER (comma-separated), traced if T=1
  worker.py probe SEED                  the seeded kernel probes

`ready` is time.monotonic() once simsub.cli is imported; on Linux the
clock is shared by all processes, so run.py subtracts its spawn time.
"""

import time

from simsub import cli  # run.py puts src/ on PYTHONPATH

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

from workloads import WORKLOADS, check_output  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(name, size, order, traced):
    commands = WORKLOADS[name].commands(size)
    commands = [commands[i] for i in order]
    run = cli.run
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.timed("cli.run", cli.run)
    outputs = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for threads, argv in commands:
        os.environ["SIMSUB_THREADS"] = str(threads)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(list(argv))
        outputs.append((argv, code, buf))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    errors = []
    texts = [buf.getvalue() for _, _, buf in outputs]
    for (argv, code, _), text in zip(outputs, texts):
        if code != 0:
            errors.append(f"{' '.join(argv)} exited {code}")
        else:
            problem = check_output(argv, text)
            if problem:
                errors.append(problem)
    result = {"ready": READY, "wall_s": wall, "cpu_s": cpu, "errors": errors}
    if traced:
        tracer.uninstall()
        from tracer import summarize
        nbytes = sum(len(t.encode()) for t in texts)
        result["layers"] = summarize(tracer.spans, tracer.counts, nbytes)
        result["spans"] = tracer.spans
    return result


def main(argv):
    mode = argv[0]
    if mode == "setup":
        result = {"ready": READY}
    elif mode == "pass":
        name, size, order, traced = argv[1:5]
        result = run_pass(name, size, [int(i) for i in order.split(",")], traced == "1")
    elif mode == "probe":
        from probes import probe_rates
        result = {"ready": READY, "rates": probe_rates(int(argv[1]))}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
