"""Spans recorded at the boundaries between the program's layers.

The benchmark wraps, from outside the package, the names through which
one layer calls the next.  Every wrapped call appends one span: name,
start and end on the process CPU clock, the index of the enclosing span
and the id of the op it belongs to.  Spans stay in memory until the pass
ends; `layer_metrics` reduces them to the per-layer figures and
`write_trace` saves them.

Self time is a span's time minus the time of its direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import math
import time

_clock = time.process_time_ns

# hook methods the engine calls on the scenario dynamics objects
DYNAMICS_HOOKS = ("init_world", "apply_event", "integrate", "signals", "build_instance",
                  "behave", "post_move", "check_conservation", "check_failure",
                  "cargo_done_time", "metrics_row")
# scenario helpers that cli imports by name
SCENARIO_HELPERS = ("builtin_scenario", "load_scenario", "to_mapping", "from_mapping")

# metrics that must repeat exactly for a given (workload, seed)
COUNT_METRICS = ("allocation.calls", "allocation.failed", "linalg.calls", "linalg.rows",
                 "linalg.singular", "cbf.calls", "cbf.rows_mean", "cbf.projected",
                 "cbf.deadlocks", "sim.engine.steps", "sim.engine.neighbor_links",
                 "cli.bytes_written")

UNITS = {
    "allocation.calls": "count", "allocation.failed": "count", "allocation.cpu_us_p50": "us",
    "allocation.self_cpu_s": "s", "allocation.verify_cpu_s": "s",
    "linalg.calls": "count", "linalg.rows": "count", "linalg.singular": "count",
    "linalg.cpu_s": "s",
    "cbf.calls": "count", "cbf.cpu_s": "s", "cbf.cpu_us_p99": "us", "cbf.rows_mean": "rows",
    "cbf.projected": "count", "cbf.deadlocks": "count",
    "sim.engine.steps": "count", "sim.engine.self_cpu_s": "s",
    "sim.engine.neighbor_links": "count",
    "sim.colony.cpu_s": "s", "sim.colony.behave_cpu_s": "s",
    "sim.monitoring.cpu_s": "s", "sim.monitoring.build_instance_cpu_s": "s",
    "scenarios.cpu_s": "s",
    "cli.self_cpu_s": "s", "cli.bytes_written": "bytes",
}

# span record fields
NAME, START, END, PARENT, OP, ERROR, ARGS, RESULT = range(8)


class Tracer:
    """In-memory span recorder; `wrap` returns the recording twin of a callable."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.n_ops = 0
        self.failed_ops = 0
        self.bytes_written = 0

    def wrap(self, name, fn, *, op=False, keep=False):
        """`op` marks the span that bounds one op; `keep` stores args and result."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if op:
                outer_op = self.op
                self.op = self.n_ops
                self.n_ops += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None,
                   args if keep else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = _clock()
                rec[ERROR] = type(exc).__name__
                if op:
                    self.failed_ops += 1
                raise
            else:
                rec[END] = _clock()
                rec[RESULT] = result if keep else None
                return result
            finally:
                stack.pop()
                if op:
                    self.op = outer_op
        return traced


@contextlib.contextmanager
def patched(pairs):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in pairs]
    try:
        for owner, attr, value in pairs:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_patches(tracer, program):
    """Wrap every layer boundary the simulations cross, plus the solver's callees."""
    t, engine, allocation, cli = tracer, program.engine, program.allocation, program.cli
    pairs = [
        (engine, "step", t.wrap("sim.engine", engine.step, op=True)),
        (engine, "allocate", t.wrap("allocation", engine.allocate)),
        (engine, "filter_velocity", t.wrap("cbf", engine.filter_velocity, keep=True)),
        (allocation, "solve_linear", t.wrap("linalg", allocation.solve_linear, keep=True)),
        (allocation, "verify_equilibrium",
         t.wrap("allocation.verify", allocation.verify_equilibrium)),
        (cli, "run", t.wrap("sim.run", cli.run)),
    ]
    pairs += [(cli, helper, t.wrap(f"scenarios.{helper}", getattr(cli, helper)))
              for helper in SCENARIO_HELPERS]
    for cls, layer in ((program.sim.ColonyDynamics, "sim.colony"),
                       (program.sim.MonitoringDynamics, "sim.monitoring")):
        pairs += [(cls, hook, t.wrap(f"{layer}.{hook}", getattr(cls, hook)))
                  for hook in DYNAMICS_HOOKS]
    return pairs


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list; 0.0 for an empty one."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _clipped(qp):
    # the speed-clipped reference filter_velocity passes through when no row binds
    vx, vy = qp.v_ref
    speed = math.hypot(vx, vy)
    if speed > qp.v_max:
        scale = qp.v_max / speed
        return (vx * scale, vy * scale)
    return (vx, vy)


def layer_metrics(tracer):
    """Reduce the recorded spans to the per-layer metrics, in UNITS order."""
    spans = tracer.spans
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    dur = {}
    self_ns = {}
    for idx, rec in enumerate(spans):
        d = rec[END] - rec[START]
        dur.setdefault(rec[NAME], []).append(d)
        self_ns[rec[NAME]] = self_ns.get(rec[NAME], 0) + d - child[idx]

    def total(prefix):
        return sum(sum(v) for k, v in dur.items() if k.startswith(prefix)) / 1e9

    cbf = [rec for rec in spans if rec[NAME] == "cbf" and rec[ERROR] is None]
    rows = sum(1 + len(rec[ARGS][0].neighbor_positions) for rec in cbf)
    linalg = [rec for rec in spans if rec[NAME] == "linalg"]
    m = {
        "allocation.calls": len(dur.get("allocation", ())),
        "allocation.failed": sum(1 for rec in spans
                                 if rec[NAME] == "allocation" and rec[ERROR] == "AllocationError"),
        "allocation.cpu_us_p50": percentile(dur.get("allocation", []), 0.5) / 1e3,
        "allocation.self_cpu_s": self_ns.get("allocation", 0) / 1e9,
        "allocation.verify_cpu_s": total("allocation.verify"),
        "linalg.calls": len(linalg),
        "linalg.rows": sum(len(rec[ARGS][1]) for rec in linalg),
        "linalg.singular": sum(1 for rec in linalg if rec[ERROR] == "SingularSystem"),
        "linalg.cpu_s": total("linalg"),
        "cbf.calls": len(dur.get("cbf", ())),
        "cbf.cpu_s": total("cbf"),
        "cbf.cpu_us_p99": percentile(dur.get("cbf", []), 0.99) / 1e3,
        "cbf.rows_mean": rows / len(cbf) if cbf else 0.0,
        "cbf.projected": sum(1 for rec in cbf if rec[RESULT][0] != _clipped(rec[ARGS][0])),
        "cbf.deadlocks": sum(1 for rec in cbf if rec[RESULT][1]),
        "sim.engine.steps": len(dur.get("sim.engine", ())),
        "sim.engine.self_cpu_s": self_ns.get("sim.engine", 0) / 1e9,
        "sim.engine.neighbor_links": rows - len(cbf),
        "sim.colony.cpu_s": total("sim.colony."),
        "sim.colony.behave_cpu_s": total("sim.colony.behave"),
        "sim.monitoring.cpu_s": total("sim.monitoring."),
        "sim.monitoring.build_instance_cpu_s": total("sim.monitoring.build_instance"),
        "scenarios.cpu_s": total("scenarios."),
        "cli.self_cpu_s": self_ns.get("cli", 0) / 1e9,
        "cli.bytes_written": tracer.bytes_written,
    }
    return {name: m[name] for name in UNITS}


def write_trace(path, header, tracer):
    """Gzipped JSON: the header fields plus every span as a row."""
    spans = tracer.spans
    base = spans[0][START] if spans else 0
    doc = dict(header)
    doc["span_columns"] = ["name", "start_ns", "end_ns", "parent", "op", "error"]
    doc["spans"] = [[rec[NAME], rec[START] - base, rec[END] - base, rec[PARENT], rec[OP],
                     rec[ERROR]] for rec in spans]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
