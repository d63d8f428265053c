"""gfdlab benchmark: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload logramp-sweep --seed 1 \
        --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of a traced run and the tracing overhead. See README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# Pinned before numpy loads. The spectral matvecs go through OpenBLAS and
# are bound by memory bandwidth at n = 2048, where a second thread halves
# the solve; more threads than CPUs would only add noise.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _age_at_start():
    """Seconds between this process's start and the first line of this file."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, age - (time.perf_counter() - _T0))


# Host-speed probe for interpreter-bound workloads: every PROBE_PERIOD s
# a SIGALRM handler times PROBE_LOOPS steps of a fixed pure-Python loop.
# PROBE_REF is that loop's usual duration on the reference host (see
# README.md), so a calibrated round time is in seconds at that speed.
PROBE_PERIOD = 0.25
PROBE_LOOPS = 20000
PROBE_REF = 1.5e-3


class SpeedProbe:
    """Durations of the probe loop, sampled while rounds run."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        s, sqrt = 0.0, math.sqrt
        for i in range(PROBE_LOOPS):
            s += sqrt(i)
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@contextmanager
def _untraced_op(name):
    yield {}


def _rounds(workload, op, budget, count=None):
    """Whole rounds: ``count`` of them, or as many as fit in ``budget`` s.

    Returns each round's time and output. A calibrated workload's round
    time leaves out the probe's own time and is scaled by PROBE_REF over
    the mean probe duration during the round.
    """
    times, walls, outputs = [], [], []
    probe = SpeedProbe() if workload.calibrated else None
    with probe or nullcontext():
        while True:
            i0 = len(probe.samples) if probe else 0
            t = time.perf_counter()
            outputs.append(workload.round(op))
            walls.append(time.perf_counter() - t)
            drawn = probe.samples[i0:] if probe else []
            times.append((walls[-1] - sum(drawn)) * PROBE_REF
                         / statistics.mean(drawn) if drawn else walls[-1])
            if count is not None:
                if len(times) >= count:
                    break
            elif sum(walls) + statistics.median(walls) > budget:
                break
    return times, outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gfdlab", "__init__.py")):
        print(f"gfdlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gfdlab
    import workloads
    from spans import Tracer, layer_metrics
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(gfdlab)
        workload = workloads.WORKLOADS[args.workload](gfdlab, work_dir, args.seed)
        if tracer:
            tracer.uninstall()
        setup_s = _age_at_start() + time.perf_counter() - _T0

        if tracer:
            times, outputs = _rounds(workload, _untraced_op, args.seconds / 2)
            tracer.install(gfdlab)
            traced_times, traced = _rounds(workload, tracer.op, 0,
                                           count=len(times))
            tracer.uninstall()
            outputs += traced
            tracer.write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"))
            metrics = layer_metrics(tracer.spans, tracer.loose, len(traced))
            metrics["trace.overhead_s"] = (
                statistics.median(traced_times) - statistics.median(times), "s")
        else:
            times, outputs = _rounds(workload, _untraced_op, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup_s, "s"),
                       "wall_s": (statistics.median(times), "s"),
                       "peak_rss_mib": (peak, "MiB")}

        problems = workload.check(outputs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: rounds {', '.join(f'{t:.3f}' for t in times)} s,"
          f" checks {'pass' if not problems else 'FAIL'}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(outputs) * workload.ops_per_round,
        "failed": sum(workload.failed(out) for out in outputs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
