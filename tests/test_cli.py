"""CLI: exit codes, file formats, overrides, campaign aggregation."""

import csv
import math

import pytest

from swarmgames import cli
from swarmgames.allocation import AllocationError
from swarmgames.cli import CampaignSummary, main, summarize_runs
from swarmgames.sim import engine

TWO_TASK_INSTANCE = """\
gamma: [2, 2]
signals: [0.2, 0.4]
costs: [[0, 0]]
counts: [[1, 0, 0]]
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def no_tmp_litter(directory):
    return not any(p.name.endswith(".tmp") for p in directory.iterdir())


# -- allocate ----------------------------------------------------------


def test_allocate_two_task_split(tmp_path, capsys):
    inst = tmp_path / "inst.yaml"
    inst.write_text(TWO_TASK_INSTANCE)
    out = tmp_path / "strategy.csv"
    assert main(["allocate", str(inst), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["group", "action", "probability"]
    parsed = [(int(g), int(a), float(p)) for g, a, p in rows[1:]]
    assert [(g, a) for g, a, _ in parsed] == [(1, 1), (1, 2)]
    assert parsed[0][2] == pytest.approx(0.7, abs=1e-9)
    assert parsed[1][2] == pytest.approx(0.3, abs=1e-9)
    assert "verified" in capsys.readouterr().out
    assert no_tmp_litter(tmp_path)


def test_allocate_dominated_instance_goes_idle(tmp_path):
    inst = tmp_path / "inst.yaml"
    inst.write_text("gamma: [0.5]\nsignals: [1.0]\ncosts: [[0]]\ncounts: [[1, 0]]\n")
    out = tmp_path / "strategy.csv"
    assert main(["allocate", str(inst), "--out", str(out)]) == 0
    assert read_csv(out)[1:] == [["1", "0", "1"]]


def test_allocate_missing_key_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.yaml"
    inst.write_text("signals: [0.5]\ncosts: [[0]]\ncounts: [[1, 0]]\n")
    out = tmp_path / "strategy.csv"
    assert main(["allocate", str(inst), "--out", str(out)]) == 1
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


def test_allocate_parse_error_names_line(tmp_path, capsys):
    inst = tmp_path / "inst.yaml"
    inst.write_text("gamma: [2\nsignals: [0.5]\n")
    assert main(["allocate", str(inst), "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{inst}:" in err
    assert any(part.isdigit() for part in err.split(":")[1:3])


def test_allocate_rejects_out_of_range_signal(tmp_path, capsys):
    inst = tmp_path / "inst.yaml"
    inst.write_text("gamma: [2]\nsignals: [1.5]\ncosts: [[0]]\ncounts: [[1, 0]]\n")
    assert main(["allocate", str(inst), "--out", str(tmp_path / "s.csv")]) == 1
    assert "signals" in capsys.readouterr().err


def test_allocate_rejects_nan_signal(tmp_path, capsys):
    # NaN compares false against both bounds; it is malformed input, not
    # a strategy for the oracle to reject
    inst = tmp_path / "inst.yaml"
    inst.write_text("gamma: [2]\nsignals: [.nan]\ncosts: [[0]]\ncounts: [[1, 0]]\n")
    out = tmp_path / "s.csv"
    assert main(["allocate", str(inst), "--out", str(out)]) == 1
    assert "signals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, text", [
    ("gamma", "gamma: [4.0, 1e3]\nsignals: [0.5, 0.5]\ncosts: [[0.1, 0.1]]\ncounts: [[1, 0, 0]]\n"),
    ("signals", "gamma: [4.0, 2.0]\nsignals: [true, 0.5]\ncosts: [[0.1, 0.1]]\n"
                "counts: [[1, 0, 0]]\n"),
    ("costs", "gamma: [4.0, 2.0]\nsignals: [0.5, 0.5]\ncosts: [[0.1, false]]\n"
              "counts: [[1, 0, 0]]\n"),
    ("counts", "gamma: [4.0, 2.0]\nsignals: [0.5, 0.5]\ncosts: [[0.1, 0.1]]\n"
               "counts: [[yes, 0, 0]]\n"),
    ("gamma", "gamma: [4.0, null]\nsignals: [0.5, 0.5]\ncosts: [[0.1, 0.1]]\n"
              "counts: [[1, 0, 0]]\n"),
])
def test_allocate_rejects_yaml_text_and_bools_as_numbers(tmp_path, capsys, key, text):
    # YAML 1.1 reads 1e3 as the string "1e3" and yes/true/false as bools;
    # numpy would convert both to numbers and solve another instance
    inst = tmp_path / "inst.yaml"
    inst.write_text(text)
    out = tmp_path / "s.csv"
    assert main(["allocate", str(inst), "--out", str(out)]) == 1
    assert f"{key}: expected a number" in capsys.readouterr().err
    assert not out.exists()


def test_allocate_missing_file_exits_1(tmp_path):
    assert main(["allocate", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "s.csv")]) == 1


# -- sim ---------------------------------------------------------------


def test_sim_is_deterministic_and_atomic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code = main(["sim", "--scenario", "colony", "--seed", "5",
                     "--t-final", "60", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(read_csv(a)) == 601
    assert no_tmp_litter(tmp_path)


def test_sim_monitoring_information_columns_clamped(tmp_path):
    out = tmp_path / "mon.csv"
    assert main(["sim", "--scenario", "monitoring", "--seed", "1",
                 "--t-final", "60", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][:6] == ["t", "R_1", "R_2", "R_3", "R_4", "R_5"]
    for row in rows[1:]:
        for value in row[1:6]:
            assert 0.0 <= float(value) <= 1.0


def test_sim_energy_depletion_exits_3(tmp_path, capsys):
    out = tmp_path / "drain.csv"
    code = main(["sim", "--scenario", "colony", "--set", "colony.E_drain=10",
                 "--out", str(out)])
    assert code == 3
    assert "EnergyDepleted" in capsys.readouterr().err
    rows = read_csv(out)
    # 50 J store at 10 J/s leak dies at t = 5.0 s
    assert rows[-1][0] == "5"
    assert float(rows[-1][1]) <= 0.0


def test_sim_total_deadlock_exits_4(tmp_path, capsys):
    # twelve parking slots on the 0.3 m idle ring sit 0.155 m apart, well
    # inside the CBF standoff: every robot deadlocks on the first step
    out = tmp_path / "stuck.csv"
    code = main(["sim", "--scenario", "monitoring", "--set", "n_robots=12",
                 "--t-final", "50", "--out", str(out)])
    assert code == 4
    assert "FAILURE: Deadlocked" in capsys.readouterr().err
    assert len(read_csv(out)) == 2


@pytest.mark.parametrize("command", [
    ["sim", "--out", "run.csv"],
    ["montecarlo", "--runs", "1", "--jobs", "1", "--out", "camp"],
])
def test_failed_equilibrium_search_exits_2(tmp_path, capsys, monkeypatch, command):
    # 1 means malformed input; a solver failure mid-run is not that
    def fail(instance, **kwargs):
        raise AllocationError("crossover did not finish in 200 steps")

    monkeypatch.setattr(engine, "allocate", fail)
    monkeypatch.chdir(tmp_path)
    assert main(command[:1] + ["--scenario", "monitoring", "--t-final", "5"] + command[1:]) == 2
    assert "equilibrium search failed: crossover did not finish in 200 steps" in capsys.readouterr().err


def test_sim_unknown_scenario_exits_1(tmp_path, capsys):
    assert main(["sim", "--scenario", "warehouse",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "warehouse" in capsys.readouterr().err


def test_sim_bad_override_exits_1(tmp_path, capsys):
    assert main(["sim", "--scenario", "colony", "--set", "colony.bogus=1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["n_robots=2.5", "colony.n_sources=2.5",
                                      "events.2.amount=2.5"])
def test_sim_fractional_count_exits_1(tmp_path, capsys, override):
    out = tmp_path / "o.csv"
    assert main(["sim", "--scenario", "colony", "--set", override, "--out", str(out)]) == 1
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario,override", [
    ("colony", "t_final=.nan"), ("colony", "dt=.nan"), ("colony", "v_max=.inf"),
    ("colony", "events.0.time=.nan"), ("colony", "colony.E_drain=.nan"),
    ("colony", "colony.R_o=.inf"), ("colony", "gamma=[.nan, 1.0]"),
    ("colony", "colony.depot=[.nan, 0.0]"), ("monitoring", "monitoring.A=.nan"),
    ("monitoring", "monitoring.idle_point=[2.0, .inf]"), ("colony", "t_final=1.0e+308"),
    ("colony", "events.1.time=1.0e+308"),
])
def test_sim_non_finite_value_exits_1(tmp_path, capsys, scenario, override):
    out = tmp_path / "o.csv"
    assert main(["sim", "--scenario", scenario, "--t-final", "1", "--set", override,
                 "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override,field", [("t_final=1e3", "t_final"),
                                            ("colony.E_drain=1e-3", "colony.E_drain"),
                                            ("gamma=[1e3, 7.2]", "gamma"),
                                            ("gamma=[abc, 1]", "gamma"),
                                            ("gamma=[true, 7.2]", "gamma")])
def test_sim_number_read_as_text_exits_1(tmp_path, capsys, override, field):
    # YAML 1.1 reads 1e3 as a string and true as a bool, not as numbers
    out = tmp_path / "o.csv"
    assert main(["sim", "--scenario", "colony", "--set", override, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert field in err and "expected a number" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sim", "montecarlo"])
@pytest.mark.parametrize("override", ["seed=abc", "seed=1.5", "seed=true"])
def test_non_integer_seed_exits_1(tmp_path, capsys, command, override):
    out = tmp_path / "out"
    extra = ["--runs", "2", "--jobs", "1"] if command == "montecarlo" else []
    assert main([command, "--scenario", "monitoring", "--set", override, "--t-final", "1",
                 *extra, "--out", str(out)]) == 1
    assert "seed must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sim", "montecarlo"])
def test_horizon_under_half_a_step_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    extra = ["--runs", "1", "--jobs", "1"] if command == "montecarlo" else []
    assert main([command, "--scenario", "monitoring", "--t-final", "0.0001",
                 *extra, "--out", str(out)]) == 1
    assert "t_final=0.0001 is under half a step of dt=0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario,override,field", [
    ("monitoring", "r=5", "monitoring.D/sqrt(2)"), ("colony", "r=31", "colony.R_o"),
    ("monitoring", "monitoring.D=1.0e-300", "monitoring.idle_ring"),
    ("monitoring", "monitoring.idle_ring=3.0", "monitoring.idle_ring"),
    ("monitoring", "monitoring.idle_ring=1.0e+300", "monitoring.idle_ring"),
])
def test_sim_radius_outside_the_domain_exits_1(tmp_path, capsys, scenario, override, field):
    # the velocity filter and the parking ring need these inside the domain disk
    out = tmp_path / "o.csv"
    assert main(["sim", "--scenario", scenario, "--t-final", "1", "--set", override,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert field in err and "must be below the domain radius" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sim", "montecarlo"])
def test_robots_that_cannot_be_placed_exit_1(tmp_path, capsys, command):
    # 200 robots 1 m apart do not fit in the 5 m colony disk, which the
    # area bound finds when the config is built, before any placement draw
    out = tmp_path / "out"
    extra = ["--runs", "2", "--jobs", "2"] if command == "montecarlo" else []
    assert main([command, "--scenario", "colony", "--set", "n_robots=200", "--t-final", "1",
                 *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "cannot place n_robots=200 colony.min_separation=1 apart" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_montecarlo_names_every_seed_it_cannot_place(tmp_path, capsys, jobs):
    # 64 robots pass the area bound of 121, but seeds 0-2 find no
    # placement in their draws while seed 3 does: no artifact is written
    out = tmp_path / "camp"
    assert main(["montecarlo", "--scenario", "colony", "--set", "n_robots=64", "--t-final", "1",
                 "--seed", "0", "--runs", "4", "--jobs", jobs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    for seed in (0, 1, 2):
        assert f"seed {seed}: cannot place n_robots=64 colony.min_separation=1 apart" in err
    assert "cannot place the robots of 3 of 4 runs (seeds 0, 1, 2)" in err
    assert "seed 3" not in err
    assert list(out.iterdir()) == []


def test_allocate_unwritable_out_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.yaml"
    inst.write_text(TWO_TASK_INSTANCE)
    out = tmp_path / "missing" / "s.csv"
    assert main(["allocate", str(inst), "--out", str(out)]) == 1
    assert f"cannot write {out}: No such file or directory" in capsys.readouterr().err
    assert no_tmp_litter(tmp_path)


@pytest.mark.parametrize("name, reason", [("missing/m.csv", "No such file or directory"),
                                          ("a_directory", "Is a directory")])
def test_sim_unwritable_out_exits_1(tmp_path, capsys, name, reason):
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / name
    assert main(["sim", "--scenario", "monitoring", "--t-final", "1", "--out", str(out)]) == 1
    assert f"cannot write {out}: {reason}" in capsys.readouterr().err
    assert no_tmp_litter(tmp_path) and no_tmp_litter(tmp_path / "a_directory")


@pytest.mark.parametrize("name", ["missing/m.csv", "a_directory"])
def test_sim_unwritable_out_exits_1_before_the_run(tmp_path, capsys, monkeypatch, name):
    # a full monitoring horizon is not simulated only to find that its
    # metrics cannot be written
    def run(*args):
        raise AssertionError("the run started before --out was tried")

    monkeypatch.setattr(cli, "run", run)
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / name
    assert main(["sim", "--scenario", "monitoring", "--out", str(out)]) == 1
    assert f"cannot write {out}" in capsys.readouterr().err
    assert no_tmp_litter(tmp_path) and no_tmp_litter(tmp_path / "a_directory")


def test_montecarlo_out_that_is_a_file_exits_1_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
    out = tmp_path / "camp"
    out.write_text("kept")
    assert main(["montecarlo", "--scenario", "monitoring", "--t-final", "1",
                 "--runs", "2", "--jobs", "1", "--out", str(out)]) == 1
    assert f"cannot write {out}: File exists" in capsys.readouterr().err
    assert runs == [] and out.read_text() == "kept"


def test_sim_monitoring_domain_past_overflow_exits_1(tmp_path, capsys):
    # D/sqrt(2) overflows to inf, which would switch containment off
    out = tmp_path / "m.csv"
    assert main(["sim", "--scenario", "monitoring", "--set", "monitoring.D=1.5e+308",
                 "--t-final", "20", "--out", str(out)]) == 1
    assert "monitoring.D=1.5e+308 is too large" in capsys.readouterr().err
    assert not out.exists()


def test_sim_dotted_event_override(tmp_path):
    out = tmp_path / "ev.csv"
    assert main(["sim", "--scenario", "colony", "--seed", "0",
                 "--t-final", "40", "--set", "events.0.time=20",
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[200][3] == "0"
    assert rows[201][3] == "10"


# -- montecarlo --------------------------------------------------------


def parse_runs_csv(path):
    stats = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            stats.append({
                "seed": int(row["seed"]),
                "steps": int(row["steps"]),
                "failure": row["failure"],
                "final_energy": float(row["final_energy"]) if row["final_energy"] else None,
                "all_cargo_delivered_time": (float(row["all_cargo_delivered_time"])
                                             if row["all_cargo_delivered_time"] else None),
                "incomplete": int(row["incomplete"]),
                "deadlock_robot_steps": int(row["deadlock_robot_steps"]),
                "robot_steps": int(row["robot_steps"]),
                "max_conservation_residual": float(row["max_conservation_residual"]),
            })
    return stats


def parse_summary_csv(path):
    campaign = {}
    bins = []
    times = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record, key, value in reader:
            if record == "campaign":
                campaign[key] = int(value)
            elif record == "energy_bin":
                bins.append((float(key), int(value)))
            elif record == "delivery_time":
                times.append((int(key), float(value)))
    return CampaignSummary(
        runs=campaign["runs"],
        energy_failures=campaign["energy_failures"],
        energy_histogram=tuple(bins),
        delivery_times=tuple(times),
        incomplete=campaign["incomplete_deliveries"],
        deadlock_robot_steps=campaign["deadlock_robot_steps"],
        robot_steps=campaign["robot_steps"],
    )


def run_campaign(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["montecarlo", "--scenario", "colony", "--runs", "3",
                 "--seed", "0", "--t-final", "120", "--jobs", "1",
                 "--out", str(out), *extra])
    assert code == 0
    return out


def test_montecarlo_writes_all_artifacts(tmp_path):
    out = run_campaign(tmp_path, "mc")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["run_0.csv", "run_1.csv", "run_2.csv",
                     "runs.csv", "summary.csv", "summary.txt"]
    text = (out / "summary.txt").read_text()
    assert "runs                  3" in text
    assert "deadlocked runs       0" in text
    assert "failed allocations    0" in text


def test_montecarlo_summary_recomputable_from_run_artifacts(tmp_path):
    out = run_campaign(tmp_path, "mc")
    stats = parse_runs_csv(out / "runs.csv")
    recomputed = summarize_runs(stats)
    assert recomputed == parse_summary_csv(out / "summary.csv")
    # per-run rows agree with the metrics files they summarize
    for row in stats:
        csv_rows = read_csv(out / f"run_{row['seed']}.csv")
        assert len(csv_rows) - 1 == row["steps"]
        assert float(csv_rows[-1][1]) == pytest.approx(row["final_energy"], abs=1e-9)


def test_montecarlo_histogram_counts_sum_to_runs(tmp_path):
    out = run_campaign(tmp_path, "mc")
    summary = parse_summary_csv(out / "summary.csv")
    assert sum(count for _, count in summary.energy_histogram) == summary.runs
    for lo, _ in summary.energy_histogram:
        assert lo == 5.0 * math.floor(lo / 5.0)


def test_montecarlo_same_base_seed_reproduces(tmp_path):
    a = run_campaign(tmp_path, "mc_a")
    b = run_campaign(tmp_path, "mc_b")
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()
    assert (a / "run_2.csv").read_bytes() == (b / "run_2.csv").read_bytes()


def test_montecarlo_singleton_matches_single_run(tmp_path):
    out = tmp_path / "one"
    assert main(["montecarlo", "--scenario", "colony", "--runs", "1",
                 "--seed", "7", "--t-final", "120", "--jobs", "1",
                 "--out", str(out)]) == 0
    solo = tmp_path / "solo.csv"
    assert main(["sim", "--scenario", "colony", "--seed", "7",
                 "--t-final", "120", "--out", str(solo)]) == 0
    assert (out / "run_7.csv").read_bytes() == solo.read_bytes()
    summary = parse_summary_csv(out / "summary.csv")
    assert summary.runs == 1
    assert sum(c for _, c in summary.energy_histogram) == 1


def test_montecarlo_records_total_deadlock(tmp_path, capsys):
    out = tmp_path / "camp"
    assert main(["montecarlo", "--scenario", "monitoring", "--set", "n_robots=12",
                 "--t-final", "50", "--runs", "2", "--jobs", "1",
                 "--out", str(out)]) == 4
    assert "FAILURE: Deadlocked in 2 of 2 runs" in capsys.readouterr().err
    runs = parse_runs_csv(out / "runs.csv")
    assert [(r["failure"], r["steps"]) for r in runs] == [("Deadlocked", 1)] * 2
    # every artifact is written before the failing exit
    assert parse_summary_csv(out / "summary.csv").runs == 2
    assert "deadlocked runs       2" in (out / "summary.txt").read_text()
    assert no_tmp_litter(out)


def test_montecarlo_records_failed_allocation(tmp_path, capsys, monkeypatch):
    # the second of three runs fails on its eleventh allocation round
    runs = []
    build_world, allocate = engine.build_world, engine.allocate

    def counting_build_world(*args):
        runs.append(0)
        return build_world(*args)

    def failing_allocate(instance, **kwargs):
        if len(runs) == 2:
            runs[-1] += 1
            if runs[-1] > 10:
                raise AllocationError("crossover did not finish in 200 steps")
        return allocate(instance, **kwargs)

    monkeypatch.setattr(engine, "build_world", counting_build_world)
    monkeypatch.setattr(engine, "allocate", failing_allocate)
    out = tmp_path / "camp"
    assert main(["montecarlo", "--scenario", "monitoring", "--t-final", "5", "--runs", "3",
                 "--seed", "0", "--jobs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "equilibrium search failed: crossover did not finish in 200 steps (seed 1)" in err
    assert "FAILURE: AllocationError in 1 of 3 runs" in err
    assert sorted(p.name for p in out.iterdir()) == [
        "run_0.csv", "run_1.csv", "run_2.csv", "runs.csv", "summary.csv", "summary.txt"]
    stats = parse_runs_csv(out / "runs.csv")
    assert [r["failure"] for r in stats] == ["", "AllocationError", ""]
    assert [r["steps"] for r in stats][::2] == [50, 50]
    assert 10 <= stats[1]["steps"] < 50
    assert len(read_csv(out / "run_1.csv")) - 1 == stats[1]["steps"]
    assert summarize_runs(stats) == parse_summary_csv(out / "summary.csv")
    assert "failed allocations    1" in (out / "summary.txt").read_text()
    assert no_tmp_litter(out)


def test_montecarlo_rejects_zero_runs(tmp_path):
    assert main(["montecarlo", "--scenario", "colony", "--runs", "0",
                 "--seed", "0", "--out", str(tmp_path / "x")]) == 1


def test_montecarlo_rejects_negative_jobs(tmp_path, capsys):
    # 0, like the default, means all cores; a negative count is an error
    assert main(["montecarlo", "--scenario", "colony", "--runs", "2", "--jobs", "-3",
                 "--seed", "0", "--out", str(tmp_path / "x")]) == 1
    assert "--jobs must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
