"""Tests for scenario configuration and its file format."""

import math

import pytest

from swarmgames.scenarios import (
    ColonyParams,
    Event,
    MonitoringParams,
    ScenarioConfig,
    ScenarioError,
    builtin_scenario,
    colony_default,
    from_mapping,
    load_scenario,
    monitoring_default,
    save_scenario,
    to_mapping,
)


def test_colony_default_parameters():
    cfg = colony_default()
    assert cfg.kind == "colony"
    assert cfg.n_robots == 12
    assert cfg.gamma == (12.0, 7.2)
    assert cfg.v_max == 1.0
    assert cfg.r == 0.25
    assert cfg.t_final == 600.0
    assert cfg.colony.R_o == 30.0
    assert cfg.colony.R_i == 5.0
    assert cfg.colony.h == 5.0
    assert cfg.colony.E_source == 4.0
    assert cfg.colony.E_drain == 0.1
    assert cfg.colony.c_max == 10
    assert cfg.monitoring is None


def test_colony_default_event_schedule():
    events = colony_default().events
    assert [e.kind for e in events] == [
        "cargo_delivery", "cargo_delivery", "robot_removal"]
    assert events[0].time == 120.0
    assert events[0].amount == 10
    assert events[0].location == (20.0, 0.0)
    assert events[1].time == 225.0
    assert events[2].time == 172.5
    assert events[2].amount == 6


def test_monitoring_default_parameters():
    cfg = monitoring_default()
    assert cfg.kind == "monitoring"
    assert cfg.n_robots == 4
    assert cfg.gamma == (4.0,) * 5
    assert cfg.v_max == 4.0
    assert cfg.r == 0.04
    assert cfg.t_final == 1000.0
    assert cfg.alpha_c == 10.0
    mon = cfg.monitoring
    assert mon.A == 0.75
    assert mon.B == 2.0
    assert mon.R_max == 1.0
    assert mon.D == 4.0
    assert mon.idle_point == (2.0, 2.0)
    assert len(mon.nodes) == 5


def test_monitoring_nodes_form_a_pentagon():
    nodes = monitoring_default().monitoring.nodes
    center = (2.0, 2.0)
    for x, y in nodes:
        assert math.hypot(x - center[0], y - center[1]) == pytest.approx(2.0, abs=1e-12)
        assert 0.0 <= x <= 4.0 and 0.0 <= y <= 4.0
    assert nodes[0] == pytest.approx((2.0, 4.0), abs=1e-12)
    # adjacent nodes are evenly spaced
    side = 2.0 * 2.0 * math.sin(math.pi / 5)
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        assert math.hypot(a[0] - b[0], a[1] - b[1]) == pytest.approx(side, abs=1e-12)


def test_builtin_lookup():
    assert builtin_scenario("colony").kind == "colony"
    assert builtin_scenario("monitoring").kind == "monitoring"
    with pytest.raises(ScenarioError):
        builtin_scenario("warehouse")


def test_round_trip_is_lossless(tmp_path):
    for cfg in (colony_default(), monitoring_default()):
        path = tmp_path / f"{cfg.kind}.yaml"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg


def test_round_trip_preserves_overrides(tmp_path):
    mapping = to_mapping(colony_default())
    mapping["seed"] = 17
    mapping["t_final"] = 42.5
    mapping["colony"]["depot_wait"] = 3.5
    cfg = from_mapping(mapping)
    path = tmp_path / "tweaked.yaml"
    save_scenario(cfg, path)
    again = load_scenario(path)
    assert again == cfg
    assert again.seed == 17
    assert again.colony.depot_wait == 3.5


def test_unknown_keys_rejected():
    mapping = to_mapping(colony_default())
    mapping["robot_count"] = 9
    with pytest.raises(ScenarioError, match="robot_count"):
        from_mapping(mapping)
    mapping = to_mapping(colony_default())
    mapping["colony"]["depo_wait"] = 1.0
    with pytest.raises(ScenarioError, match="colony.depo_wait"):
        from_mapping(mapping)
    mapping = to_mapping(monitoring_default())
    mapping["monitoring"]["nodes"] = [[0, 0]] * 5
    mapping["monitoring"]["idle_pt"] = [1, 1]
    with pytest.raises(ScenarioError, match="idle_pt"):
        from_mapping(mapping)


def test_malformed_yaml_reports_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("kind: colony\n  bad_indent: [\n")
    with pytest.raises(ScenarioError, match=r"broken\.yaml:\d+:"):
        load_scenario(path)


def test_validation_catches_inconsistencies():
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="colony", n_robots=12, gamma=(12.0, 7.2), v_max=1.0,
                       r=0.25, t_final=600.0)  # missing colony section
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="colony", n_robots=12, gamma=(12.0,), v_max=1.0,
                       r=0.25, t_final=600.0, colony=ColonyParams())
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="monitoring", n_robots=4, gamma=(4.0,) * 4, v_max=4.0,
                       r=0.04, t_final=1000.0, monitoring=MonitoringParams())
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="colony", n_robots=0, gamma=(12.0, 7.2), v_max=1.0,
                       r=0.25, t_final=600.0, colony=ColonyParams())
    with pytest.raises(ScenarioError):
        Event(time=120.0, kind="cargo_delivery", amount=10)  # no location
    with pytest.raises(ScenarioError):
        Event(time=-2.0, kind="robot_removal", amount=6)
    with pytest.raises(ScenarioError):
        Event(time=1.0, kind="meteor_strike", amount=1)
    with pytest.raises(ScenarioError):
        ColonyParams(R_i=40.0)
    with pytest.raises(ScenarioError):
        MonitoringParams(B=0.0)


@pytest.mark.parametrize("t_final,dt", [(0.0001, 0.1), (0.04, 0.1), (0.05, 0.1), (0.4, 1.0)])
def test_horizon_must_hold_a_step(t_final, dt):
    # the engine runs round(t_final / dt) steps; fewer than one would exit 0 with no rows
    with pytest.raises(ScenarioError, match=rf"t_final={t_final} .*dt={dt}"):
        ScenarioConfig(kind="colony", n_robots=12, gamma=(12.0, 7.2), v_max=1.0,
                       r=0.25, t_final=t_final, dt=dt, colony=ColonyParams())
    ScenarioConfig(kind="colony", n_robots=12, gamma=(12.0, 7.2), v_max=1.0,
                   r=0.25, t_final=dt, dt=dt, colony=ColonyParams())


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "3"])
def test_counts_must_be_integers(bad):
    with pytest.raises(ScenarioError, match="n_robots must be an integer"):
        ScenarioConfig(kind="colony", n_robots=bad, gamma=(12.0, 7.2), v_max=1.0,
                       r=0.25, t_final=600.0, colony=ColonyParams())
    with pytest.raises(ScenarioError, match="n_sources must be an integer"):
        ColonyParams(n_sources=bad)
    with pytest.raises(ScenarioError, match="amount must be an integer"):
        Event(time=1.0, kind="robot_removal", amount=bad)
    with pytest.raises(ScenarioError, match="seed must be an integer"):
        ScenarioConfig(kind="colony", n_robots=12, gamma=(12.0, 7.2), v_max=1.0,
                       r=0.25, t_final=600.0, seed=bad, colony=ColonyParams())


def test_defaults_make_valid_problem_instances():
    import numpy as np

    from swarmgames.allocation import ProblemInstance

    colony = colony_default()
    inst = ProblemInstance(
        gamma=list(colony.gamma),
        signals=[0.5, 1.0],
        costs=[[0.0, 0.0]],
        counts=[[colony.n_robots, 0, 0]],
    )
    assert inst.n_tasks == 2

    mon = monitoring_default()
    positions = [mon.monitoring.idle_point] * mon.n_robots
    costs = [[math.hypot(px - nx, py - ny) / mon.monitoring.D
              for nx, ny in mon.monitoring.nodes]
             for px, py in positions]
    counts = [[1] + [0] * 5 for _ in range(mon.n_robots)]
    inst = ProblemInstance(
        gamma=list(mon.gamma), signals=[1.0] * 5, costs=costs, counts=counts)
    assert np.all(inst.costs <= 1.0)


def _with(config, **changes):
    """`config` loaded back from its mapping with fields changed; a
    section's field is named `section__field`."""
    mapping = to_mapping(config)
    for name, value in changes.items():
        section, _, field = name.rpartition("__")
        (mapping[section] if section else mapping)[field] = value
    return from_mapping(mapping)


def test_filter_limits_are_checked_at_load():
    # the velocity filter trusts these ranges and checks none of them
    for field in ("v_max", "r", "alpha", "alpha_c"):
        with pytest.raises(ScenarioError, match=f"^{field} must be finite and positive"):
            _with(colony_default(), **{field: 0.0})
    with pytest.raises(ScenarioError, match=r"r=30 must be below .* colony\.R_o = 30$"):
        _with(colony_default(), r=30.0)
    with pytest.raises(ScenarioError, match=r"colony\.R_o"):
        _with(colony_default(), r=31.0)
    assert _with(colony_default(), r=29.0).r == 29.0
    # monitoring's domain disk is the one around the D x D square
    radius = 4.0 * math.sqrt(2.0) / 2.0
    assert monitoring_default().monitoring.domain_radius == radius
    with pytest.raises(ScenarioError, match=r"r=5 must be below .*D/sqrt\(2\) = 2\.828"):
        _with(monitoring_default(), r=5.0)
    with pytest.raises(ScenarioError, match=r"monitoring\.D/sqrt\(2\)"):
        _with(monitoring_default(), r=radius)
    with pytest.raises(ScenarioError, match=r"monitoring\.D/sqrt\(2\)"):
        _with(monitoring_default(), r=0.5, monitoring__D=0.5, monitoring__idle_ring=0.1)
    assert _with(monitoring_default(), r=2.8).r == 2.8


def test_idle_ring_must_fit_in_the_domain_disk():
    # the parking slots sit on this ring around the domain disk's centre
    for ring in (3.0, 2.0 * math.sqrt(2.0), 1.0e300):
        with pytest.raises(ScenarioError, match=r"monitoring\.idle_ring=.* must be below"):
            MonitoringParams(idle_ring=ring)
        with pytest.raises(ScenarioError, match=r"monitoring\.idle_ring"):
            _with(monitoring_default(), monitoring__idle_ring=ring)
    # a tiny D shrinks the disk under the default ring
    with pytest.raises(ScenarioError, match=r"monitoring\.idle_ring"):
        MonitoringParams(D=1.0e-300)
    assert MonitoringParams(idle_ring=2.8).idle_ring == 2.8


def test_domain_radius_must_be_finite():
    # D/sqrt(2) overflowing to inf would switch containment off
    with pytest.raises(ScenarioError, match=r"monitoring\.D=1\.5e\+308 .*overflows"):
        MonitoringParams(D=1.5e308)
    with pytest.raises(ScenarioError, match=r"monitoring\.D="):
        _with(monitoring_default(), monitoring__D=1.5e308)
    assert MonitoringParams(D=1.0e308).domain_radius < math.inf


def test_colony_robots_must_fit_the_colony_disk():
    # disks of diameter min_separation in the colony disk grown by half of
    # it: at most (2 R_i / min_separation + 1)^2, 121 at the defaults,
    # checked when the config is built rather than by the placement draws
    with pytest.raises(ScenarioError, match=r"^cannot place n_robots=122 colony\.min_separation=1 "
                                            r"apart inside colony\.R_i=5: .* = 121 fit$"):
        _with(colony_default(), n_robots=122)
    assert _with(colony_default(), n_robots=121).n_robots == 121
    # the benchmark's crowd: 96 robots 0.6 m apart, under a bound of 312
    assert _with(colony_default(), n_robots=96, colony__min_separation=0.6).n_robots == 96
    with pytest.raises(ScenarioError, match=r"= 312\.111 fit$"):
        _with(colony_default(), n_robots=313, colony__min_separation=0.6)
