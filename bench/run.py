"""Benchmark of swarmgames on the process CPU clock.

Run from the repository root:

    python3 bench/run.py --workload crowd --seed 0 --seconds 30 --trace 0

`--workload` is crowd, monitoring, alloc, or all (each in turn, in this
one process).  With `--trace 0` the run times whole rounds of its
workload for `--seconds` CPU-seconds and prints the end-to-end metrics;
with `--trace 1` it runs a fixed set of rounds once untraced and twice
traced, prints the per-layer metrics and writes the spans under
`.bench_out/`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  bench/README.md
explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

# one process on one core: keep numpy's thread pools to a single thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402  (after the thread settings, before numpy loads)
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 10
# ops per window of op_cpu_us_p99: a window's p99 has ten samples beyond it
WINDOW_OPS = 1000
MAX_ROUNDS = workloads.SEED_STRIDE

END_TO_END = {"ops_per_cpu_s": "1/s", "op_cpu_us_p50": "us", "op_cpu_us_p99": "us",
              "setup_s": "s", "peak_rss_mb": "MB"}

_clock = time.process_time_ns


def _program_modules():
    return {n: m for n, m in sys.modules.items()
            if n == "swarmgames" or n.startswith("swarmgames.")}


class Program:
    """A fresh import of swarmgames and of the modules the benchmark drives or wraps."""

    def __init__(self):
        for name in _program_modules():
            del sys.modules[name]
        self.pkg = importlib.import_module("swarmgames")
        self.cli = importlib.import_module("swarmgames.cli")
        self.sim = importlib.import_module("swarmgames.sim")
        self.engine = importlib.import_module("swarmgames.sim.engine")
        self.allocation = importlib.import_module("swarmgames.allocation")
        self.scenarios = importlib.import_module("swarmgames.scenarios")


def steal_ticks():
    """Host steal time from /proc/stat, in clock ticks; None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def set_up(cls, seed, workdir):
    """Import a fresh copy of the program and build the workload's inputs: (workload, CPU ns)."""
    t0 = _clock()
    workload = cls(Program(), seed, workdir)
    return workload, _clock() - t0


def setup_sample(cls, seed, workdir):
    """CPU ns of one more set-up, on a throwaway copy; the live program's modules stay."""
    live = _program_modules()
    spare, spent = set_up(cls, seed, workdir)
    spare.close()
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(live)
    gc.collect()
    return spent


def measure(workload, seconds, sample_setup):
    """Whole rounds until `seconds` CPU-seconds and WINDOW_OPS ops.

    A round the workload leaves out adds neither ops nor CPU time.
    Between rounds, outside the timed section, set-up is timed again at
    SETUP_SAMPLES points spread over the run, so that its median sees the
    same host as the rounds.  Returns (rounds, cpu ns, set-up samples, errors).
    """
    cpu = 0
    r = 0
    errors = []
    setups = []
    mark = 0
    with tracing.patched(workload.op_wrapper()):
        while r < MAX_ROUNDS and (cpu < seconds * 1e9 or len(workload.times) < WINDOW_OPS):
            t0 = _clock()
            error = workload.run_round(r)
            spent = _clock() - t0
            r += 1
            if error is workloads.LEFT_OUT:
                continue
            cpu += spent
            errors += [error] if error else []
            errors += workload.check_round(r - 1)
            if errors:
                break
            if cpu >= mark and len(setups) < SETUP_SAMPLES:
                setups.append(sample_setup())
                mark += seconds * 1e9 / SETUP_SAMPLES
    return r, cpu, setups, errors


def windows(times):
    """Consecutive windows of WINDOW_OPS op times; a shorter remainder joins the last."""
    starts = list(range(0, len(times) - WINDOW_OPS + 1, WINDOW_OPS)) or [0]
    ends = starts[1:] + [len(times)]
    return [times[a:b] for a, b in zip(starts, ends)]


def end_to_end(workload, seconds, first_setup, sample_setup):
    """The end-to-end metrics; the p99 is the median of its per-window values.

    A busy stretch of the host inflates the CPU time of the ops it
    overlaps.  The p99 of the pooled ops takes such a stretch in once it
    spans 1% of the run; the median over windows leaves it out unless it
    spans half of the windows.
    """
    rounds, cpu, setups, errors = measure(workload, seconds, sample_setup)
    times = workload.times
    attempted = len(times)
    cut = windows(times)
    metrics = {
        "ops_per_cpu_s": (attempted - workload.failed) / (cpu / 1e9) if cpu else 0.0,
        "op_cpu_us_p50": tracing.percentile(times, 0.5) / 1e3,
        "op_cpu_us_p99": statistics.median(tracing.percentile(w, 0.99) for w in cut) / 1e3,
        "setup_s": statistics.median([first_setup, *setups]) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"rounds": rounds, "left_out": ",".join(map(str, workload.left_out)) or "-",
            "windows": len(cut),
            "pooled_p99_us": tracing.percentile(times, 0.99) / 1e3,
            "timed_cpu_s": cpu / 1e9, "setups": 1 + len(setups)}
    return attempted, workload.failed, metrics, END_TO_END, errors, info


def _round(workload, r, patches, entry):
    """Round r under `patches`: (cpu ns, bytes written, errors); None if left out."""
    with tracing.patched(patches):
        t0 = _clock()
        error = workload.run_round(r, entry)
        cpu = _clock() - t0
    if error is workloads.LEFT_OUT:
        return None
    written = workload.bytes_written(r) if error is None else 0
    return cpu, written, ([error] if error else []) + workload.check_round(r)


def traced(workload, name, seed):
    """The workload's first `trace_rounds` rounds not left out, each run untraced, then twice traced.

    Interleaving the three by round keeps slow and fast stretches of the
    host from landing on one side of the overhead figure.  The per-layer
    metrics come from the first traced pass; the second must repeat its counts.
    """
    tracers = [tracing.Tracer(), tracing.Tracer()]
    traced_modes = [(tracing.layer_patches(t, workload.program), workload.traced_entry(t))
                    for t in tracers]
    untraced_cpu = untraced_ops = untraced_failed = 0
    traced_cpu = [0, 0]
    errors = []
    r = done = 0
    while done < workload.trace_rounds and r < MAX_ROUNDS:
        ops, fails = len(workload.times), workload.failed
        untraced = _round(workload, r, workload.op_wrapper(), None)
        r += 1
        if untraced is None:
            continue
        done += 1
        cpu, _, round_errors = untraced
        untraced_cpu += cpu
        untraced_ops += len(workload.times) - ops
        untraced_failed += workload.failed - fails
        errors += round_errors
        for k, (tracer, (patches, entry)) in enumerate(zip(tracers, traced_modes)):
            again = _round(workload, r - 1, patches, entry)
            if again is None:
                errors.append(f"round {r - 1}: left out only when traced")
                continue
            cpu, written, round_errors = again
            traced_cpu[k] += cpu
            tracer.bytes_written += written
            errors += round_errors
    attempted = untraced_ops + sum(tracer.n_ops for tracer in tracers)
    failed = untraced_failed + sum(tracer.failed_ops for tracer in tracers)
    metrics, again = (tracing.layer_metrics(tracer) for tracer in tracers)
    untraced_rate = (untraced_ops - untraced_failed) / (untraced_cpu / 1e9)
    traced_rate = (tracers[0].n_ops - tracers[0].failed_ops) / (traced_cpu[0] / 1e9)
    for key in tracing.COUNT_METRICS:
        if metrics[key] != again[key]:
            errors.append(f"count {key} differs between two traced passes: "
                          f"{metrics[key]} vs {again[key]}")
    overhead = {"untraced_ops_per_cpu_s": untraced_rate, "traced_ops_per_cpu_s": traced_rate,
                "overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0)}
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz")
    tracing.write_trace(path, {"workload": name, "seed": seed, **overhead, "metrics": metrics},
                        tracers[0])
    info = {**overhead, "left_out": ",".join(map(str, workload.left_out)) or "-",
            "trace_file": os.path.relpath(path, ROOT)}
    return attempted, failed, metrics, tracing.UNITS, errors, info


def run_workload(name, args, workdir):
    cls = workloads.WORKLOADS[name]
    steal0 = steal_ticks()
    wall0 = time.perf_counter()
    workload, first_setup = set_up(cls, args.seed, workdir)
    try:
        workload.warm_up()
        if args.trace:
            result = traced(workload, name, args.seed)
        else:
            result = end_to_end(workload, args.seconds, first_setup,
                                lambda: setup_sample(cls, args.seed, workdir))
    finally:
        workload.close()
    steal1 = steal_ticks()
    attempted, failed, metrics, units, errors, info = result
    info["wall_s"] = time.perf_counter() - wall0
    info["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    print(f"# {name} seed={args.seed} trace={args.trace} attempted={attempted} failed={failed} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in info.items()))
    for key, value in metrics.items():
        print(f"{name:<10} {key:<40} {value:>14.6g} {units[key]}")
    for error in errors[:10]:
        print(f"bench: {name}: {error}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="CPU-seconds of timed rounds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swarmgames", "__init__.py")):
        print(f"bench: no swarmgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        results = {name: run_workload(name, args, workdir) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": value for name, r in results.items()
                             for key, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
