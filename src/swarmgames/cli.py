"""Command-line front end: solve one allocation, run one simulation, or
fan out a Monte Carlo campaign.

Exit codes
    0   success (allocate: verified equilibrium; sim: reached t_final)
    1   malformed input file or bad override, a scenario whose robots
        cannot be placed, or an output path that cannot be written
    2   the equilibrium search failed (AllocationError), or allocate
        produced a strategy the equilibrium oracle rejects (montecarlo:
        in any run, after every artifact is written)
    3   simulation ended in energy depletion
    4   simulation ended in total deadlock: no robot can move again
        (montecarlo: any run did, after every artifact is written)

All outputs are written to a temp file and renamed into place, so a
crash never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import math
import multiprocessing
import os
import statistics
import sys

import yaml

from .allocation import (
    EPS_ZERO,
    AllocationError,
    ProblemInstance,
    allocate,
)
from .scenarios import (
    ScenarioError,
    builtin_scenario,
    from_mapping,
    load_scenario,
    read_yaml,
    to_mapping,
)
from .sim import ALLOCATION_FAILED, DEADLOCKED, ENERGY_DEPLETED, run

__all__ = ["main", "CampaignSummary", "summarize_runs"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _atomic_write(path: str, writer) -> None:
    # never leave a half-written artifact under the final name, nor the staging file
    tmp = f"{path}.tmp"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _check_writable(path: str) -> None:
    """Raise, before any work, the OSError that writing path through
    _atomic_write would: create and remove its staging file, and refuse
    a directory, onto which the rename would fail."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.tmp"
    with open(tmp, "w"):
        pass
    os.remove(tmp)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# instance ingestion and strategy output


def load_instance(path: str) -> ProblemInstance:
    """Parse a task-allocation instance file.

    Expected keys: `gamma` (M floats), `signals` (M floats), `costs`
    (g rows of M floats), `counts` (g rows of M+1 integers, idle pool
    first).  Raises ScenarioError with the file location on any defect.
    """
    raw = read_yaml(path)
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected a mapping at the top level")
    missing = [key for key in ("gamma", "signals", "costs", "counts") if key not in raw]
    if missing:
        raise ScenarioError(f"{path}: missing key(s) {', '.join(missing)}")
    extra = sorted(set(raw) - {"gamma", "signals", "costs", "counts"})
    if extra:
        raise ScenarioError(f"{path}: unknown key(s) {', '.join(extra)}")
    for key in ("gamma", "signals", "costs", "counts"):
        # YAML 1.1 reads 1e3 as text and yes/true as bools; numpy would take both
        for entry in _entries(raw[key]):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ScenarioError(f"{path}: {key}: expected a number, got {entry!r}")
    try:
        return ProblemInstance(raw["gamma"], raw["signals"], raw["costs"], raw["counts"])
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _entries(value):
    """The scalars of nested lists, in order."""
    if isinstance(value, list):
        for item in value:
            yield from _entries(item)
    else:
        yield value


def write_strategy_csv(strategy, path: str) -> None:
    """Rows `group,action,probability`, groups 1-based, action 0 = idle.

    Actions with probability at most EPS_ZERO, float dust included, are
    left out; every group keeps at least one row.
    """
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("group,action,probability\n")
            for i, row in enumerate(strategy.probs, start=1):
                for action, p in enumerate(row):
                    if p > EPS_ZERO:
                        fh.write(f"{i},{action},{p:.17g}\n")
    _atomic_write(path, writer)


def cmd_allocate(args) -> int:
    try:
        instance = load_instance(args.instance)
    except OSError as exc:
        return _fail(f"cannot read {args.instance}: {exc.strerror}", 1)
    except ScenarioError as exc:
        return _fail(str(exc), 1)
    try:
        result = allocate(instance, check=True)
    except AllocationError as exc:
        return _fail(f"equilibrium search failed: {exc}", 2)
    try:
        write_strategy_csv(result.strategy, args.out)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc.strerror}", 1)
    report = result.report
    print(f"groups={instance.n_groups} tasks={instance.n_tasks}")
    print(f"max support residual     {report.max_support_residual:.3e}")
    print(f"max dominance violation  {report.max_dominance_violation:.3e}")
    print(f"equilibrium {'verified' if report.valid else 'REJECTED'}; strategy -> {args.out}")
    return 0 if report.valid else 2


# ---------------------------------------------------------------------------
# scenario resolution and overrides


def _apply_override(mapping, dotted: str, value) -> None:
    node = mapping
    parts = dotted.split(".")
    for idx, part in enumerate(parts):
        last = idx == len(parts) - 1
        if isinstance(node, list):
            try:
                key = int(part)
                node[key]
            except (ValueError, IndexError):
                raise ScenarioError(f"override {dotted}: no list element {part!r}") from None
        elif isinstance(node, dict):
            if part not in node:
                raise ScenarioError(f"override {dotted}: unknown field {part!r}")
            key = part
        else:
            raise ScenarioError(f"override {dotted}: {part!r} is below a scalar")
        if last:
            node[key] = value
        else:
            node = node[key]


def build_config(args):
    """Resolve --scenario (builtin name or file path) plus overrides."""
    if os.path.sep in args.scenario or args.scenario.endswith((".yaml", ".yml")):
        config = load_scenario(args.scenario)
    else:
        config = builtin_scenario(args.scenario)
    overrides = []
    if getattr(args, "t_final", None) is not None:
        overrides.append(("t_final", args.t_final))
    if getattr(args, "dt", None) is not None:
        overrides.append(("dt", args.dt))
    for item in getattr(args, "set", None) or []:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ScenarioError(f"override {item!r}: expected key=value")
        try:
            value = yaml.safe_load(text) if text else None
        except yaml.YAMLError:
            raise ScenarioError(f"override {item!r}: unparsable value") from None
        overrides.append((key.strip(), value))
    if not overrides:
        return config
    mapping = to_mapping(config)
    for key, value in overrides:
        _apply_override(mapping, key, value)
    return from_mapping(mapping)


# ---------------------------------------------------------------------------
# single run


def cmd_sim(args) -> int:
    try:
        config = build_config(args)
    except OSError as exc:
        return _fail(f"cannot read {args.scenario}: {exc.strerror}", 1)
    except ScenarioError as exc:
        return _fail(str(exc), 1)
    try:
        _check_writable(args.out)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc.strerror}", 1)
    try:
        metrics = run(config, args.seed)
    except ScenarioError as exc:
        # a scenario the run cannot set up, such as robots that do not fit
        return _fail(str(exc), 1)
    try:
        _atomic_write(args.out, metrics.write_csv)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc.strerror}", 1)
    steps = len(metrics.rows)
    print(f"{config.kind} seed={args.seed if args.seed is not None else config.seed}: "
          f"{steps} steps, metrics -> {args.out}")
    if metrics.final_energy is not None:
        print(f"final colony energy  {metrics.final_energy:.4f} J")
    if metrics.all_cargo_delivered_time is not None:
        print(f"all cargo delivered  {metrics.all_cargo_delivered_time:.1f} s")
    if metrics.robot_steps:
        rate = metrics.deadlock_robot_steps / metrics.robot_steps
        print(f"deadlock robot-steps {metrics.deadlock_robot_steps} ({rate:.3%})")
    if metrics.failure == ALLOCATION_FAILED:
        return _fail(f"equilibrium search failed: {metrics.failure_detail}", 2)
    if metrics.failure:
        print(f"FAILURE: {metrics.failure}", file=sys.stderr)
        return {ENERGY_DEPLETED: 3, DEADLOCKED: 4}.get(metrics.failure, 1)
    return 0


# ---------------------------------------------------------------------------
# campaign


RUN_FIELDS = ("seed", "steps", "failure", "final_energy", "all_cargo_delivered_time",
              "incomplete", "deadlock_robot_steps", "robot_steps",
              "max_conservation_residual")

ENERGY_BIN = 5.0


@dataclasses.dataclass(frozen=True)
class CampaignSummary:
    """Aggregate statistics of one Monte Carlo campaign."""

    runs: int
    energy_failures: int
    energy_histogram: tuple        # ((bin lower edge J, count), ...) sorted
    delivery_times: tuple          # ((seed, time s), ...) in seed order
    incomplete: int
    deadlock_robot_steps: int
    robot_steps: int


def _run_stats(metrics, seed: int) -> dict:
    """One runs.csv row, plus the `failure_detail` that stays off the file."""
    return {
        "seed": seed,
        "steps": len(metrics.rows),
        "failure": metrics.failure or "",
        "final_energy": metrics.final_energy,
        "all_cargo_delivered_time": metrics.all_cargo_delivered_time,
        "incomplete": int(metrics.cargo_incomplete),
        "deadlock_robot_steps": metrics.deadlock_robot_steps,
        "robot_steps": metrics.robot_steps,
        "max_conservation_residual": metrics.max_conservation_residual,
        "failure_detail": metrics.failure_detail,
    }


def summarize_runs(stats: list[dict]) -> CampaignSummary:
    """Reduce per-run stats rows into a CampaignSummary.

    Pure: the campaign command and the recomputation cross-check in the
    tests both call this on rows parsed back from runs.csv.
    """
    bins: dict[float, int] = {}
    for row in stats:
        energy = row["final_energy"]
        if energy is None:
            continue
        lo = ENERGY_BIN * math.floor(energy / ENERGY_BIN)
        bins[lo] = bins.get(lo, 0) + 1
    times = tuple((row["seed"], row["all_cargo_delivered_time"]) for row in stats
                  if row["all_cargo_delivered_time"] is not None)
    return CampaignSummary(
        runs=len(stats),
        energy_failures=sum(1 for row in stats if row["failure"] == ENERGY_DEPLETED),
        energy_histogram=tuple(sorted(bins.items())),
        delivery_times=times,
        incomplete=sum(row["incomplete"] for row in stats),
        deadlock_robot_steps=sum(row["deadlock_robot_steps"] for row in stats),
        robot_steps=sum(row["robot_steps"] for row in stats),
    )


def write_summary_csv(summary: CampaignSummary, path: str) -> None:
    """Tidy three-column form: record,key,value."""
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("record,key,value\n")
            fh.write(f"campaign,runs,{summary.runs}\n")
            fh.write(f"campaign,energy_failures,{summary.energy_failures}\n")
            fh.write(f"campaign,incomplete_deliveries,{summary.incomplete}\n")
            fh.write(f"campaign,deadlock_robot_steps,{summary.deadlock_robot_steps}\n")
            fh.write(f"campaign,robot_steps,{summary.robot_steps}\n")
            for lo, count in summary.energy_histogram:
                fh.write(f"energy_bin,{_fmt(lo)},{count}\n")
            for seed, time in summary.delivery_times:
                fh.write(f"delivery_time,{seed},{_fmt(time)}\n")
    _atomic_write(path, writer)


def format_summary(summary: CampaignSummary, deadlocked: int, failed_allocations: int) -> str:
    """Human-readable campaign summary; `deadlocked` and
    `failed_allocations` count the runs that ended in total deadlock and
    on an AllocationError."""
    lines = [
        f"runs                  {summary.runs}",
        f"energy failures       {summary.energy_failures}",
        f"deadlocked runs       {deadlocked}",
        f"failed allocations    {failed_allocations}",
        f"incomplete deliveries {summary.incomplete}",
    ]
    if summary.robot_steps:
        rate = summary.deadlock_robot_steps / summary.robot_steps
        lines.append(f"deadlock robot-steps  {summary.deadlock_robot_steps} "
                     f"of {summary.robot_steps} ({rate:.3%})")
    if summary.energy_histogram:
        lines.append("final colony energy (J):")
        width = max(count for _, count in summary.energy_histogram)
        for lo, count in summary.energy_histogram:
            bar = "#" * max(1, round(40 * count / width))
            lines.append(f"  [{lo:6.1f},{lo + ENERGY_BIN:6.1f})  {count:4d}  {bar}")
    times = [t for _, t in summary.delivery_times]
    if times:
        lines.append("all-cargo delivery time (s): "
                     f"min {min(times):.1f}  median {statistics.median(times):.1f}  "
                     f"max {max(times):.1f}  (n={len(times)})")
    return "\n".join(lines) + "\n"


def _run_csv(out_dir: str, seed: int) -> str:
    return os.path.join(out_dir, f"run_{seed}.csv")


def _campaign_worker(item) -> dict:
    """One run of a campaign: its stats row, with its metrics CSV left
    under the staging name `_atomic_write` uses, or {"seed", "error"} for
    a seed whose robots cannot be placed."""
    mapping, seed, out_dir = item
    config = from_mapping(mapping)
    try:
        metrics = run(config, seed)
    except ScenarioError as exc:
        return {"seed": seed, "error": str(exc)}
    metrics.write_csv(_run_csv(out_dir, seed) + ".tmp")
    return _run_stats(metrics, seed)


def write_runs_csv(stats: list[dict], path: str) -> None:
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(RUN_FIELDS) + "\n")
            for row in stats:
                fh.write(",".join(_fmt(row[f]) for f in RUN_FIELDS) + "\n")
    _atomic_write(path, writer)


def cmd_montecarlo(args) -> int:
    try:
        config = build_config(args)
    except OSError as exc:
        return _fail(f"cannot read {args.scenario}: {exc.strerror}", 1)
    except ScenarioError as exc:
        return _fail(str(exc), 1)
    if args.runs < 1:
        return _fail("--runs must be at least 1", 1)
    if args.jobs is not None and args.jobs < 0:
        return _fail("--jobs must be at least 0", 1)
    base = args.seed if args.seed is not None else config.seed
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc.strerror}", 1)
    mapping = to_mapping(config)
    items = [(mapping, base + i, args.out) for i in range(args.runs)]
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and args.runs > 1:
        # map preserves submission order, so the aggregate cannot
        # depend on completion order
        with multiprocessing.Pool(min(jobs, args.runs)) as pool:
            stats = pool.map(_campaign_worker, items)
    else:
        stats = [_campaign_worker(item) for item in items]
    # every run's CSV, or none of them if some seed's robots cannot be placed
    unplaced = [row for row in stats if "error" in row]
    for row in stats:
        path = _run_csv(args.out, row["seed"])
        if unplaced:
            if "error" not in row:
                os.remove(path + ".tmp")
        else:
            os.replace(path + ".tmp", path)
    if unplaced:
        for row in unplaced:
            print(row["error"], file=sys.stderr)
        return _fail(f"cannot place the robots of {len(unplaced)} of {len(stats)} runs (seeds "
                     f"{', '.join(str(row['seed']) for row in unplaced)})", 1)
    summary = summarize_runs(stats)
    deadlocked = sum(1 for row in stats if row["failure"] == DEADLOCKED)
    failed = [row for row in stats if row["failure"] == ALLOCATION_FAILED]
    write_runs_csv(stats, os.path.join(args.out, "runs.csv"))
    write_summary_csv(summary, os.path.join(args.out, "summary.csv"))
    text = format_summary(summary, deadlocked, len(failed))

    def write_text(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    _atomic_write(os.path.join(args.out, "summary.txt"), write_text)
    print(text, end="")
    print(f"campaign artifacts -> {args.out}")
    for row in failed:
        print(f"equilibrium search failed: {row['failure_detail']} (seed {row['seed']})",
              file=sys.stderr)
    if failed:
        return _fail(f"FAILURE: {ALLOCATION_FAILED} in {len(failed)} of {len(stats)} runs", 2)
    if deadlocked:
        return _fail(f"FAILURE: {DEADLOCKED} in {deadlocked} of {len(stats)} runs", 4)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_scenario_flags(parser, *, runs: bool) -> None:
    parser.add_argument("--scenario", required=True,
                        help="built-in name (colony, monitoring) or a scenario file path")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (campaign: base seed; runs use base+0..base+runs-1)")
    parser.add_argument("--t-final", type=float, default=None, dest="t_final",
                        help="override simulation horizon (s)")
    parser.add_argument("--dt", type=float, default=None, help="override step size (s)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any scenario field by dotted path, e.g. "
                             "colony.E_drain=0.2 or events.0.time=100; repeatable")
    if runs:
        parser.add_argument("--runs", type=int, required=True, help="number of runs")
        parser.add_argument("--jobs", type=int, default=None,
                            help="parallel workers (default or 0: all cores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmgames",
                                     description="Mixed-strategy task allocation "
                                                 "and swarm simulation tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="solve one allocation instance")
    p_alloc.add_argument("instance", help="instance file (gamma/signals/costs/counts)")
    p_alloc.add_argument("--out", required=True, help="strategy CSV path")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sim = sub.add_parser("sim", help="run one simulation")
    _add_scenario_flags(p_sim, runs=False)
    p_sim.add_argument("--out", required=True, help="metrics CSV path")
    p_sim.set_defaults(func=cmd_sim)

    p_mc = sub.add_parser("montecarlo", help="run an independent-seed campaign")
    _add_scenario_flags(p_mc, runs=True)
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
