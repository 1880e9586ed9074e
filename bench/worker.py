"""One batch of one workload, in a fresh interpreter.

``run.py`` starts this script once per batch.  It prints ``ready`` when
the library is imported and the inputs are made, which ends set-up.  It
then runs the batch, sampling the machine's speed as it goes, checks
the answers outside the timed region and prints one JSON line with the
measurements.  With ``--trace`` the library's bindings are wrapped
before the batch and the spans are written to ``<workdir>/spans.jsonl``
after it.

    python3 bench/worker.py --workload census --seed 1 --workdir DIR
"""

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


# On a shared VM the machine's speed can swing by 2x within seconds,
# more than a bound may allow.  A timer runs a fixed kernel every
# SAMPLE_PERIOD_S during the batch, and the batch's time is also given
# at the speed at which the kernel takes REF_KERNEL_S (README.md, "Noise").
SAMPLE_PERIOD_S = 0.2
REF_KERNEL_S = 0.004


def kernel():
    """A fixed mix of the interpreter work the workloads do: integer
    arithmetic, small dicts and tuples, big-integer binomials, sets."""
    total = 0
    for i in range(18000):
        total += i * i % 7
    table = {}
    for i in range(6000):
        table[i % 97] = (i, str(i))
    for n in range(400, 412):
        math.comb(2 * n, n)
    seen = set()
    for i in range(450):
        seen |= frozenset(range(i, i + 8))


class SpeedSampler:
    """Runs ``kernel`` on a SIGALRM timer and keeps each run's duration."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_time(self, wall):
        """``wall`` less the kernel's own runs, at the reference speed.
        The samples are evenly spaced in time, so the mean of
        REF_KERNEL_S / sample is the batch's mean speed relative to it."""
        work = wall - sum(self.samples)
        return work * statistics.mean(REF_KERNEL_S / t for t in self.samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import spans
    import workloads
    from latzeta import cosetlike, dirichlet, families, groups, lattice, search, zeta

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.workdir)
    ops = workloads.OpClock()
    tracer = spans.Tracer(ops) if args.trace else spans.NullTrace()
    print("ready", flush=True)
    if args.setup_only:
        return

    if args.trace:
        tracer.install({
            "cosetlike": cosetlike, "dirichlet": dirichlet, "families": families,
            "groups": groups, "lattice": lattice, "search": search, "zeta": zeta,
        })
    try:
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            results = workload.run(inputs, ops, tracer)
            wall = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if args.trace:
            tracer.uninstall()
    failures = ops.errors + workload.check(inputs, results)
    if args.trace:
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    print(json.dumps({
        "wall_s": wall,
        "wall_ref_s": sampler.reference_time(wall),
        "samples": len(sampler.samples),
        "peak_rss_kb": peak_kb,
        "op_times": ops.times.tolist(),
        "failures": failures,
        "counts": getattr(tracer, "counts", {}),
    }))


if __name__ == "__main__":
    main()
