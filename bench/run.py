"""Benchmark of latzeta: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload census --seed 3 --seconds 30
    python3 bench/run.py --workload groups --trace 1

Every batch runs in a fresh interpreter (``bench/worker.py``) with
``--jobs 1``, so no in-process cache of the library carries over from
one batch to the next.  A run starts batches until the next one would
end after ``--seconds`` and reports medians over them; set-up probes
run before each batch and after the last.  With ``--trace 1`` it runs
alternating untraced and traced batches and reports the per-layer
metrics.  The metric names and units are read from ``BENCHMARK.json``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when a reference check failed and 2
when the benchmark could not run.  See ``bench/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
WORKLOADS = ("families", "census", "groups", "sweeps")

# set-up probes before each batch and after the last
SETUP_PROBES = 3
# census needs two batches for the fresh-interpreter check
MIN_BATCHES = {"census": 2}
# a traced run makes at least this many (untraced, traced) pairs, so
# that each order of the two batches is run
MIN_PAIRS = 2
# a second batch faster than this share of the first means a cache
# survived between interpreters
FRESH_RATIO_MIN = 0.5
# the largest --seconds accepted: a run may overshoot it by one batch
# or one pair, and must still end well before HANG_LIMIT_S
MAX_SECONDS = 100
# a worker still running this long after its workload's run started is
# taken to hang: it is killed and the run fails
HANG_LIMIT_S = 170
P99_MIN_OPS = 1000
OVERHEAD = "trace.overhead_frac"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload, seed, workdir, deadline, *, trace=False, setup_only=False):
    """Run one worker, killing it at ``deadline``; return its measurements
    plus set-up and elapsed time as seen from here."""
    os.makedirs(workdir)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # the hash seed follows --seed too, so a seed fixes the whole process
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
        elapsed = time.perf_counter() - start
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ran over {HANG_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    result = {} if setup_only else json.loads(out.splitlines()[-1])
    result["setup_s"] = setup
    result["elapsed_s"] = elapsed
    return result


def measure(workload, seed, seconds, rundir, units):
    """Untraced run: batches for ``seconds``, with set-up probes before
    each batch and after the last, so that set-up is sampled across the
    whole run.  ``units`` maps each end-to-end metric to its unit."""
    start = time.perf_counter()
    deadline = start + HANG_LIMIT_S
    setups = []

    def probe():
        for _ in range(SETUP_PROBES):
            workdir = os.path.join(rundir, f"setup{len(setups)}")
            setups.append(
                spawn(workload, seed, workdir, deadline, setup_only=True)["setup_s"]
            )

    batches = []
    while True:
        probe()
        workdir = os.path.join(rundir, f"batch{len(batches)}")
        batches.append(spawn(workload, seed, workdir, deadline))
        elapsed = time.perf_counter() - start
        next_end = elapsed + max(b["elapsed_s"] for b in batches)
        if len(batches) >= MIN_BATCHES.get(workload, 1) and next_end > seconds:
            break
    probe()
    setups += [b["setup_s"] for b in batches]
    op_times = [t for b in batches for t in b["op_times"]]
    failures = [f for b in batches for f in b["failures"]]
    notes = []
    if len(batches) >= 2:
        ratio = batches[1]["wall_ref_s"] / batches[0]["wall_ref_s"]
        notes.append(f"fresh-interpreter check: batch 2 / batch 1 wall_ref_s = {ratio:.3f}")
        if ratio < FRESH_RATIO_MIN:
            failures.append(f"batch 2 took {ratio:.2f} of batch 1: a cache survived")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref_s": statistics.median(b["wall_ref_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_kb"] for b in batches) / 1024,
    }
    p50 = statistics.median(op_times) * 1000
    p99 = None
    if len(op_times) >= P99_MIN_OPS:
        p99 = statistics.quantiles(op_times, n=100)[98] * 1000
    lines = [
        f"{workload}  seed {seed}  {len(batches)} batch(es), each in a fresh "
        f"interpreter, --jobs 1",
        f"  setup_s      {metrics['setup_s']:12.4f} s   median of {len(setups)} set-ups",
        f"  wall_ref_s   {metrics['wall_ref_s']:12.4f} ref_s median of {len(batches)} "
        f"batch(es), {batches[0]['samples']} speed samples in the first",
        f"  wall_s       {statistics.median(b['wall_s'] for b in batches):12.4f} s",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:12.2f} MB",
        f"  op_p50_ms    {p50:12.4f} ms  over {len(op_times)} ops",
        f"  op_p99_ms    " + (f"{p99:12.4f} ms" if p99 is not None
                              else f"{'-':>12}     fewer than {P99_MIN_OPS} ops"),
        f"  ops          {len(op_times):12d}",
        f"  ops_failed   {len(failures):12d}",
        *(f"  {note}" for note in notes),
        *(f"  FAILED {f}" for f in failures),
    ]
    return ({name: (metrics[name], unit) for name, unit in units.items()},
            len(op_times), failures, lines)


def measure_traced(workload, seed, seconds, rundir, units):
    """Traced run: (untraced, traced) pairs of batches with one seed,
    until the next pair would end after ``seconds``.  ``units`` maps each
    per-layer metric to its unit.

    The batches of a pair run one after the other, and every other pair
    runs the traced batch first, so that a drift in machine speed weighs
    on both sides alike.  ``trace.overhead_frac`` is the median of the
    pairs' (traced - untraced) / untraced ``wall_ref_s``.  Every other metric
    is the median over the traced batches; the counts must agree exactly.
    """
    names = [name for name in units if name != OVERHEAD]
    start = time.perf_counter()
    deadline = start + HANG_LIMIT_S
    pairs = []
    while True:
        n = len(pairs)
        plain_dir = os.path.join(rundir, f"plain{n}")
        traced_dir = os.path.join(rundir, f"traced{n}")
        if n % 2:
            traced = spawn(workload, seed, traced_dir, deadline, trace=True)
            plain = spawn(workload, seed, plain_dir, deadline)
        else:
            plain = spawn(workload, seed, plain_dir, deadline)
            traced = spawn(workload, seed, traced_dir, deadline, trace=True)
        with open(os.path.join(traced_dir, "spans.jsonl"), encoding="ascii") as handle:
            records = [json.loads(line) for line in handle]
        traced["spans"] = len(records)
        traced["layer"] = spans.layer_metrics(records, traced["counts"], names)
        pairs.append((plain, traced))
        elapsed = time.perf_counter() - start
        if len(pairs) >= MIN_PAIRS and elapsed + elapsed / len(pairs) > seconds:
            break

    failures = [f for p, t in pairs for f in p["failures"] + t["failures"]]
    metrics = {}
    for name in names:
        values = [t["layer"][0][name] for _, t in pairs]
        metrics[name] = statistics.median(values)
        if units[name] != "s" and len(set(values)) > 1:
            failures.append(f"traced batches disagree on {name}: {values}")
    ratios = [(t["wall_ref_s"] - p["wall_ref_s"]) / p["wall_ref_s"] for p, t in pairs]
    metrics[OVERHEAD] = statistics.median(ratios)
    plain_walls = [p["wall_ref_s"] for p, _ in pairs]
    noise = (max(plain_walls) - min(plain_walls)) / statistics.median(plain_walls)
    extra = pairs[0][1]["layer"][1]
    lines = [
        f"{workload}  seed {seed}  traced: {len(pairs)} pairs, "
        f"{pairs[0][1]['spans']} spans per traced batch",
        *(f"  {name:40s} {value:14.6g} {units[name]}"
          for name, value in metrics.items() if value),
        f"  {OVERHEAD} per pair: " + ", ".join(f"{r:+.4f}" for r in ratios)
        + f"; untraced wall_ref_s varied by {noise:.4f} of its median"
        + (", so the overhead is not resolved" if abs(metrics[OVERHEAD]) < noise else ""),
        f"  (metrics reading 0 are not reached by {workload}; ratio bases: "
        f"{extra['kept']} classes / {extra['enum_keys']} enumeration keys, "
        f"{extra['translate_distinct']} distinct translations)",
        *(f"  FAILED {f}" for f in failures),
    ]
    ops = sum(len(p["op_times"]) + len(t["op_times"]) for p, t in pairs)
    return ({name: (metrics[name], unit) for name, unit in units.items()},
            ops, failures, lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")

    if not os.path.isfile(os.path.join(ROOT, "src", "latzeta", "__init__.py")):
        print("error: src/latzeta not found next to bench/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.makedirs(SCRATCH, exist_ok=True)
    results = {}
    try:
        for name in names:
            rundir = tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH)
            try:
                measure_run = measure_traced if args.trace else measure
                results[name] = measure_run(name, args.seed, args.seconds, rundir, units)
            finally:
                shutil.rmtree(rundir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    metrics = {}
    attempted = failed = 0
    for name, (values, ops, failures, lines) in results.items():
        print("\n".join(lines))
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        attempted += ops
        failed += len(failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
