"""The benchmark's three workloads: input building, rounds and output checks.

A workload is built from the freshly imported program and a seed (this
is the set-up the benchmark times).  `run_round(r)` performs round r,
the unit every run repeats whole: one `montecarlo --runs 1 --jobs 1`
campaign through `cli.main` for the simulations, one pass over a block
of allocation instances for `alloc`.  Each op's CPU time goes to
`self.times`.  `check_round(r)` then verifies the round's outputs from
first principles, outside the timed section, and returns the defects
it found.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import math
import os
import shutil
import time

import numpy as np

_clock = time.process_time_ns

# a round's campaign seed is SEED_STRIDE * seed + round
SEED_STRIDE = 1000
# what run_round returns for a round the workload leaves out
LEFT_OUT = "left out"


def _override(config, dotted, value):
    """dataclasses.replace along a dotted path, so the program's constructors validate it."""
    head, _, rest = dotted.partition(".")
    if rest:
        value = _override(getattr(config, head), rest, value)
    return dataclasses.replace(config, **{head: value})


class SimWorkload:
    """Campaigns of one built-in scenario, run through `cli.main`.

    The op is one `sim.engine.step` call; `op_wrapper` times it.  On a
    few campaign seeds `allocate` raises AllocationError("support
    expansion cycled") part-way through, the same way on every run.  Such
    a campaign is left out with its steps, and its seed goes to `left_out`.
    """

    scenario = ""
    trace_rounds = 1
    overrides = {}

    def __init__(self, program, seed, workdir):
        self.program = program
        self.seed = seed
        self.workdir = workdir
        self.times = []
        self.failed = 0
        self.left_out = []
        config = program.scenarios.builtin_scenario(self.scenario)
        self.argv_tail = []
        for key, value in self.overrides.items():
            config = _override(config, key, value)
            self.argv_tail += ["--set", f"{key}={value}"]
        self.config = config
        self.n_steps = round(config.t_final / config.dt)
        self.argv_tail += ["--runs", "1", "--jobs", "1"]
        self._devnull = None

    def round_seed(self, r):
        return SEED_STRIDE * self.seed + r

    def round_dir(self, r):
        return os.path.join(self.workdir, f"round{r}")

    def argv(self, r, extra=()):
        return ["montecarlo", "--scenario", self.scenario, *self.argv_tail, *extra,
                "--seed", str(self.round_seed(r)), "--out", self.round_dir(r)]

    def op_wrapper(self):
        """(owner, name, value) patch that records each step's CPU time."""
        engine = self.program.engine
        step = engine.step
        times = self.times

        def timed_step(*args):
            t0 = _clock()
            try:
                return step(*args)
            finally:
                times.append(_clock() - t0)
        return [(engine, "step", timed_step)]

    def _main(self, argv, main):
        if self._devnull is None:
            self._devnull = open(os.devnull, "w", encoding="utf-8")
        with contextlib.redirect_stdout(self._devnull):
            return main(argv)

    def warm_up(self):
        """One short campaign, untimed, so lazy first-call costs fall outside the timing."""
        self._main(self.argv(0, ["--set", "t_final=5.0"]), self.program.cli.main)
        shutil.rmtree(self.round_dir(0))

    def run_round(self, r, main=None):
        """Run campaign r; returns the error text if the program raised or exited non-zero."""
        ops = len(self.times)
        try:
            code = self._main(self.argv(r), main or self.program.cli.main)
        except self.program.pkg.AllocationError:
            del self.times[ops:]
            self.left_out.append(self.round_seed(r))
            shutil.rmtree(self.round_dir(r), ignore_errors=True)
            return LEFT_OUT
        except Exception as exc:  # the program's fault: count the step, report it
            self.failed += 1
            return f"round {r}: {type(exc).__name__}: {exc}"
        return f"round {r}: cli exited {code}" if code else None

    def traced_entry(self, tracer):
        return tracer.wrap("cli", self.program.cli.main)

    def bytes_written(self, r):
        out = self.round_dir(r)
        return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))

    def close(self):
        if self._devnull is not None:
            self._devnull.close()
            self._devnull = None

    # -- checks ----------------------------------------------------------

    def check_round(self, r):
        out = self.round_dir(r)
        try:
            return self._check(out, self.round_seed(r))
        except (OSError, ValueError, KeyError) as exc:
            return [f"round {r}: unreadable output: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out, seed):
        cfg = self.config
        errors = []
        with open(os.path.join(out, "runs.csv"), encoding="utf-8") as fh:
            runs = list(csv.DictReader(fh))
        with open(os.path.join(out, f"run_{seed}.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(runs) != 1 or int(runs[0]["seed"]) != seed:
            errors.append(f"seed {seed}: runs.csv holds {len(runs)} rows")
        if len(rows) != self.n_steps:
            errors.append(f"seed {seed}: {len(rows)} rows, horizon needs {self.n_steps}")
        elif abs(float(rows[-1]["t"]) - cfg.t_final) > 1e-6 * cfg.t_final:
            errors.append(f"seed {seed}: last row at t={rows[-1]['t']}, not {cfg.t_final}")
        removals = sorted((round(e.time / cfg.dt), e.amount) for e in cfg.events
                          if e.kind == "robot_removal")
        heads = ["n_idle"] + [f"n_task{k + 1}" for k in range(cfg.n_tasks)]
        robot_steps = 0
        for s, row in enumerate(rows):
            live = cfg.n_robots
            for at, amount in removals:
                if at <= s:
                    live = max(0, live - amount)
            counted = sum(int(row[h]) for h in heads)
            robot_steps += counted
            if counted != live:
                errors.append(f"seed {seed} row {s}: head counts sum to {counted}, "
                              f"{live} robots live")
            if float(row["min_dist"]) < cfg.r * (1.0 - 1e-9):
                errors.append(f"seed {seed} row {s}: min_dist {row['min_dist']} < r={cfg.r}")
            errors += self.check_row(seed, s, row)
            if len(errors) > 20:
                return errors
        run = runs[0] if runs else {}
        if run and (run["failure"] or int(run["steps"]) != len(rows)
                    or int(run["robot_steps"]) != robot_steps):
            errors.append(f"seed {seed}: runs.csv row {run} disagrees with the metrics CSV")
        errors += self._check_summary(out, runs)
        return errors

    def check_row(self, seed, s, row):
        return []

    @staticmethod
    def _check_summary(out, runs):
        """summary.csv must equal the reduction of runs.csv, recomputed here."""
        def num(text):
            return float(text) if text else None
        expect = {
            ("campaign", "runs"): len(runs),
            ("campaign", "energy_failures"): sum(r["failure"] == "EnergyDepleted" for r in runs),
            ("campaign", "incomplete_deliveries"): sum(int(r["incomplete"]) for r in runs),
            ("campaign", "deadlock_robot_steps"): sum(int(r["deadlock_robot_steps"])
                                                      for r in runs),
            ("campaign", "robot_steps"): sum(int(r["robot_steps"]) for r in runs),
        }
        for r in runs:
            energy = num(r["final_energy"])
            if energy is not None:
                key = ("energy_bin", 5.0 * math.floor(energy / 5.0))
                expect[key] = expect.get(key, 0) + 1
            if r["all_cargo_delivered_time"]:
                expect[("delivery_time", float(r["seed"]))] = num(r["all_cargo_delivered_time"])
        got = {}
        with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                key = rec["key"] if rec["record"] == "campaign" else float(rec["key"])
                got[(rec["record"], key)] = float(rec["value"])
        if set(got) != set(expect) or any(
                abs(got[k] - expect[k]) > 1e-9 * max(1.0, abs(expect[k])) for k in expect):
            return [f"summary.csv {sorted(got.items())} != recomputed {sorted(expect.items())}"]
        return []


class CrowdWorkload(SimWorkload):
    """The colony at 96 robots: the all-pairs loops and the cbf rows dominate."""

    name = "crowd"
    scenario = "colony"
    # the default 1 m spacing cannot place 96 robots in the 5 m colony disk
    overrides = {"n_robots": 96, "colony.min_separation": 0.6, "t_final": 60.0}


class MonitoringWorkload(SimWorkload):
    """The built-in 4-robot monitoring scenario at its full horizon."""

    name = "monitoring"
    scenario = "monitoring"

    def check_row(self, seed, s, row):
        r_max = self.config.monitoring.R_max
        bad = [k for k in range(self.config.n_tasks)
               if not 0.0 <= float(row[f"R_{k + 1}"]) <= r_max]
        return [f"seed {seed} row {s}: R_{k + 1}={row[f'R_{k + 1}']} outside [0, {r_max}]"
                for k in bad]


# ---------------------------------------------------------------------------
# alloc


# (g, M) shapes of the pooled family; POOLED_PER_SHAPE instances each per round
POOLED_SHAPES = ((1, 2), (2, 3), (4, 5), (8, 4), (8, 8), (16, 8), (32, 8), (32, 16), (64, 16))
POOLED_PER_SHAPE = 4
# pooled blocks built at set-up; round r uses block r % POOLED_BLOCKS
POOLED_BLOCKS = 16
# (g, M, count) of the singleton family; these do not depend on --seed
SINGLETON_SHAPES = ((8, 4, 3), (8, 8, 3), (16, 8, 2), (32, 8, 1), (32, 16, 1), (64, 16, 1))
EPS_SUPPORT = 1e-12
EPS_VALUE = 1e-8
EPS_SUM = 1e-9


def pooled_instance(rng, g, m):
    """Groups of 4-8 idle robots, random committed counts, idle kept in every support.

    gamma_k = |n_k| + x_k with x_k < min(n0) / M: in equilibrium fewer
    than x_k idle robots join task k in expectation, so a group's mass on
    any task stays below 1/M and on all tasks below 1.  Every group keeps
    idling in its support, and the solver never has to expand a support,
    which is where it can cycle (see the singleton family).
    """
    n0 = rng.integers(4, 9, size=g)
    committed = rng.integers(0, 3, size=(g, m))
    gamma = committed.sum(axis=0) + rng.uniform(0.5, 1.0, size=m) * n0.min() / m
    signals = rng.uniform(0.0, 1.0, size=m)
    costs = rng.uniform(0.0, 0.5, size=(g, m))
    return gamma, signals, costs, np.column_stack([n0, committed])


def singleton_instance(rng, g, m):
    """One idle robot per group and nothing committed: the shape monitoring builds."""
    gamma = rng.uniform(2.0, 20.0, size=m)
    signals = rng.uniform(0.0, 1.0, size=m)
    costs = rng.uniform(0.0, 1.0, size=(g, m))
    counts = np.zeros((g, m + 1), dtype=np.int64)
    counts[:, 0] = 1
    return gamma, signals, costs, counts


def equilibrium_defects(raw, probs):
    """Check a strategy against the game's definition, independently of the program.

    u_ik = (gamma_k - E[N_k]) / gamma_k - s_k - c_ik, idle pays 0, and
    E[N_k] = committed_k + sum_i n0_i p_ik.  Rows of groups with idle
    robots must be distributions whose supported actions share one
    value, with no unsupported action above it.
    """
    gamma, signals, costs, counts = raw
    g, m = costs.shape
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (g, m + 1):
        return [f"strategy shape {probs.shape} != {(g, m + 1)}"]
    n0 = counts[:, 0].astype(float)
    deciding = n0 > 0
    p = probs[deciding]
    if np.any(p < -EPS_SUPPORT) or np.any(p > 1.0 + EPS_SUPPORT):
        return ["probability outside [0, 1]"]
    if np.any(np.abs(p.sum(axis=1) - 1.0) > EPS_SUM):
        return ["a row does not sum to 1"]
    if np.any(probs[~deciding, 0] != 1.0):
        return ["a group without idle robots does not idle"]
    load = counts[:, 1:].sum(axis=0) + n0 @ probs[:, 1:]
    utility = np.zeros((g, m + 1))
    utility[:, 1:] = (gamma - load) / gamma - signals - costs
    utility = utility[deciding]
    supported = p > EPS_SUPPORT
    top = np.where(supported, utility, -np.inf).max(axis=1)
    low = np.where(supported, utility, np.inf).min(axis=1)
    outside = np.where(supported, -np.inf, utility).max(axis=1)
    errors = []
    if np.any(top - low > EPS_VALUE):
        errors.append(f"supported values spread by {float(np.max(top - low)):.3e}")
    if np.any(outside > top + EPS_VALUE):
        errors.append(f"an unsupported action beats the support by "
                      f"{float(np.max(outside - top)):.3e}")
    return errors


class AllocWorkload:
    """Direct `allocate(instance)` calls, check on, over two instance families.

    A round is one pooled block (from --seed) followed by the fixed
    singleton set.  The op is one `allocate` call; an AllocationError is
    a failed op, and only the singleton family raises it.
    """

    name = "alloc"
    trace_rounds = POOLED_BLOCKS

    def __init__(self, program, seed, workdir):
        self.program = program
        self.times = []
        self.failed = 0
        self.left_out = []
        make = program.pkg.ProblemInstance
        blocks = []
        for b in range(POOLED_BLOCKS):
            rng = np.random.default_rng([seed, b])
            block = []
            for g, m in POOLED_SHAPES:
                for _ in range(POOLED_PER_SHAPE):
                    raw = pooled_instance(rng, g, m)
                    block.append(("pooled", raw, make(*raw)))
            blocks.append(block)
        self.blocks = blocks
        rng = np.random.default_rng(2501)
        self.singletons = [("singleton", raw, make(*raw))
                           for g, m, count in SINGLETON_SHAPES
                           for raw in (singleton_instance(rng, g, m) for _ in range(count))]
        self.results = {}

    def ops(self, r):
        return self.blocks[r % POOLED_BLOCKS] + self.singletons

    def op_wrapper(self):
        return []

    def warm_up(self):
        allocate = self.program.pkg.allocate
        for _, _, instance in self.blocks[0][::POOLED_PER_SHAPE]:
            allocate(instance)

    def run_round(self, r, allocate=None):
        allocate = allocate or self.program.pkg.allocate
        error = self.program.pkg.AllocationError
        times = self.times
        results = []
        failed = []
        for family, _, instance in self.ops(r):
            t0 = _clock()
            try:
                result = allocate(instance)
            except error:
                result = None
                failed.append(family)
            times.append(_clock() - t0)
            results.append(result)
        self.results[r] = results
        self.failed += len(failed)
        if "pooled" in failed:
            return f"round {r}: allocate raised AllocationError on a pooled instance"
        return None

    def check_round(self, r):
        errors = []
        for (family, raw, _), result in zip(self.ops(r), self.results.pop(r)):
            if result is not None:
                g, m = raw[2].shape
                errors += [f"round {r} {family} g={g} M={m}: {e}"
                           for e in equilibrium_defects(raw, result.strategy.probs)]
        return errors

    def traced_entry(self, tracer):
        return tracer.wrap("allocation", self.program.pkg.allocate, op=True)

    def bytes_written(self, r):
        return 0

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (CrowdWorkload, MonitoringWorkload, AllocWorkload)}
