"""Declarative scenario configurations and their file format.

Two built-in scenarios ship with the package: a foraging colony that
keeps its shared energy store alive while hauling cargo, and a team of
four robots persistently monitoring five information nodes.  Both are
plain parameter bundles; the simulation engine interprets them.

Scenario files are YAML mappings mirroring the dataclasses below,
handled strictly in both directions: unknown keys are rejected on load
(typos must not silently fall back to defaults) and a config survives a
save/load round trip unchanged.
"""

from __future__ import annotations

import dataclasses
import math

import yaml

__all__ = [
    "ScenarioError",
    "Event",
    "ColonyParams",
    "MonitoringParams",
    "ScenarioConfig",
    "colony_default",
    "monitoring_default",
    "builtin_scenario",
    "read_yaml",
    "load_scenario",
    "save_scenario",
    "to_mapping",
    "from_mapping",
]

BUILTIN_NAMES = ("colony", "monitoring")


class ScenarioError(ValueError):
    """A scenario file or mapping is malformed; message says where."""


@dataclasses.dataclass(frozen=True)
class Event:
    """A scheduled world change.

    kind "cargo_delivery": `amount` units appear at `location`.
    kind "robot_removal": `amount` robots vanish (uniform draw).
    """

    time: float
    kind: str
    amount: int
    location: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("cargo_delivery", "robot_removal"):
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        if not 0 <= self.time < math.inf:
            raise ScenarioError("event time must be finite and >= 0")
        if not _is_int(self.amount):
            raise ScenarioError("event amount must be an integer")
        if self.amount <= 0:
            raise ScenarioError("event amount must be positive")
        if self.kind == "cargo_delivery" and self.location is None:
            raise ScenarioError("cargo_delivery needs a location")
        if self.location is not None:
            object.__setattr__(self, "location", _point(self.location, "event location"))


@dataclasses.dataclass(frozen=True)
class ColonyParams:
    """Foraging-colony constants; defaults follow the reference setup."""

    R_o: float = 30.0           # outer domain radius, m
    R_i: float = 5.0            # colony radius, m
    h: float = 5.0              # random-walk leg / sensing range, m
    E_max: float = 100.0        # energy capacity, J (signal normalizer)
    E_start: float = 50.0       # initial store, J
    E_drain: float = 0.1        # colony leakage, J/s
    E_source: float = 4.0       # energy per delivered source, J
    c_max: int = 10             # cargo count that zeroes the cargo signal
    n_sources: int = 20         # energy sources scattered per run
    depot: tuple[float, float] = (20.0, 0.0)
    depot_wait: float = 2.0     # pickup delay at the depot, s
    arrive_radius: float = 0.5  # "close enough" radius for waypoints, m
    return_noise: float = 0.05  # revisit noise as a fraction of distance
    min_separation: float = 1.0  # initial placement spacing, m

    def __post_init__(self):
        object.__setattr__(self, "depot", _point(self.depot, "colony.depot"))
        if not (0 < self.R_i < self.R_o < math.inf):
            raise ScenarioError("need 0 < R_i < R_o, both finite")
        for name in ("h", "E_max", "E_drain", "E_source", "depot_wait",
                     "arrive_radius", "min_separation"):
            if not _positive(getattr(self, name)):
                raise ScenarioError(f"colony.{name} must be finite and positive")
        if not 0 < self.E_start <= self.E_max:
            raise ScenarioError("need 0 < E_start <= E_max")
        if not _is_int(self.n_sources):
            raise ScenarioError("colony.n_sources must be an integer")
        if not (_positive(self.c_max) and self.n_sources >= 0
                and 0 <= self.return_noise < math.inf):
            raise ScenarioError("colony counts/noise out of range or not finite")


@dataclasses.dataclass(frozen=True)
class MonitoringParams:
    """Persistent-monitoring constants; defaults follow the reference setup."""

    D: float = 4.0              # domain size used to normalize costs, m
    A: float = 0.75             # information accumulation rate
    B: float = 2.0              # information drain per servicing robot
    R_max: float = 1.0          # information cap per node
    nodes: tuple = ()           # node positions; empty means "pentagon default"
    idle_point: tuple[float, float] = (2.0, 2.0)
    idle_ring: float = 0.3      # idle parking ring radius around idle_point, m
    # collection range around a node; wide enough that robots sharing a
    # node drain it together from their mutual collision standoff
    service_radius: float = 1.0

    def __post_init__(self):
        if not self.nodes:
            object.__setattr__(self, "nodes", _pentagon())
        object.__setattr__(
            self, "nodes",
            tuple(_point(p, f"monitoring.nodes[{i}]") for i, p in enumerate(self.nodes)))
        object.__setattr__(self, "idle_point", _point(self.idle_point, "monitoring.idle_point"))
        if not (_positive(self.D) and 0 <= self.A < math.inf and _positive(self.B)
                and _positive(self.R_max)):
            raise ScenarioError("monitoring rates out of range or not finite")
        if not (_positive(self.idle_ring) and _positive(self.service_radius)):
            raise ScenarioError("monitoring radii must be finite and positive")
        if not self.domain_radius < math.inf:
            raise ScenarioError(
                f"monitoring.D={self.D:g} is too large: its domain radius D/sqrt(2) overflows")
        # the parking ring is centred on the domain disk's centre
        if not self.idle_ring < self.domain_radius:
            raise ScenarioError(
                f"monitoring.idle_ring={self.idle_ring:g} must be below the domain "
                f"radius D/sqrt(2) = {self.domain_radius:g}")

    @property
    def domain_radius(self) -> float:
        """Radius of the smallest disk containing the D x D workspace."""
        return self.D * math.sqrt(2.0) / 2.0


def _pentagon():
    """Five nodes on a regular pentagon inscribed in the 4 m square."""
    cx, cy, radius = 2.0, 2.0, 2.0
    pts = []
    for k in range(5):
        angle = math.pi / 2 + 2.0 * math.pi * k / 5
        pts.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return tuple(pts)


def _is_int(value):
    # counts feed range() and random.sample; YAML's true/false are not counts
    return isinstance(value, int) and not isinstance(value, bool)


def _positive(value):
    # NaN fails both comparisons, so this also rejects NaN
    return 0 < value < math.inf


def _point(value, where):
    try:
        x, y = value
        point = (float(x), float(y))
    except (TypeError, ValueError):
        raise ScenarioError(f"{where} must be a 2-point") from None
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        raise ScenarioError(f"{where} must be finite")
    return point


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs: geometry, constants, events, horizon.

    Exactly one of `colony` / `monitoring` is set, matching `kind`.
    `events` keeps the authoring order; the engine sorts its internal
    schedule by time.  The limits the velocity filter relies on
    (positive v_max, r and gains, r below the domain radius) are
    checked here, once; the engine does not check them again.
    """

    kind: str
    n_robots: int
    gamma: tuple[float, ...]
    v_max: float
    r: float                    # collision radius, m
    t_final: float
    dt: float = 0.1
    seed: int = 0
    alpha: float = 1.0          # containment barrier gain, 1/s
    alpha_c: float = 1.0        # collision barrier gain, 1/s
    events: tuple[Event, ...] = ()
    colony: ColonyParams | None = None
    monitoring: MonitoringParams | None = None

    def __post_init__(self):
        if self.kind not in BUILTIN_NAMES:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        for g in self.gamma:
            # YAML 1.1 reads 1e3 as text and true as a bool
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                raise ScenarioError(f"gamma: expected a number, got {g!r}")
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "events", tuple(self.events))
        if not _is_int(self.n_robots):
            raise ScenarioError("n_robots must be an integer")
        if not _is_int(self.seed):
            raise ScenarioError("seed must be an integer")
        if self.n_robots < 1:
            raise ScenarioError("n_robots must be >= 1")
        if not self.gamma or not all(_positive(g) for g in self.gamma):
            raise ScenarioError("gamma entries must be finite and positive")
        for name in ("v_max", "r", "t_final", "dt", "alpha", "alpha_c"):
            if not _positive(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite and positive")
        # times become step counts by round(time / dt)
        if not all(t / self.dt < math.inf for t in (self.t_final, *(e.time for e in self.events))):
            raise ScenarioError("t_final and event times must be a finite number of steps")
        if round(self.t_final / self.dt) < 1:
            raise ScenarioError(f"t_final={self.t_final} is under half a step of dt={self.dt}")
        if self.kind == "colony":
            if self.colony is None or self.monitoring is not None:
                raise ScenarioError("colony scenario needs exactly the colony section")
            if len(self.gamma) != 2:
                raise ScenarioError("colony runs two tasks; gamma must have 2 entries")
            # disks of diameter min_separation around the robots are disjoint
            # and lie inside the colony disk grown by min_separation / 2
            p = self.colony
            bound = (2.0 * p.R_i / p.min_separation + 1.0) ** 2
            if self.n_robots > bound:
                raise ScenarioError(
                    f"cannot place n_robots={self.n_robots} colony.min_separation="
                    f"{p.min_separation:g} apart inside colony.R_i={p.R_i:g}: at most "
                    f"(2 R_i / min_separation + 1)^2 = {bound:g} fit")
        else:
            if self.monitoring is None or self.colony is not None:
                raise ScenarioError("monitoring scenario needs exactly the monitoring section")
            if len(self.gamma) != len(self.monitoring.nodes):
                raise ScenarioError("gamma length must match the node count")
            if any(e.kind == "cargo_delivery" for e in self.events):
                raise ScenarioError("cargo_delivery events only apply to colony scenarios")
        # the velocity filter needs the collision radius inside the domain disk
        radius, where = ((self.colony.R_o, "colony.R_o") if self.kind == "colony"
                         else (self.monitoring.domain_radius, "monitoring.D/sqrt(2)"))
        if not self.r < radius:
            raise ScenarioError(
                f"r={self.r:g} must be below the domain radius {where} = {radius:g}")

    @property
    def n_tasks(self) -> int:
        return len(self.gamma)


def colony_default() -> ScenarioConfig:
    """The 12-robot foraging colony: harvesting plus two cargo waves.

    Cargo arrives at t = 120 s and t = 225 s; half the swarm is removed
    at t = 172.5 s, midway between the deliveries.
    """
    return ScenarioConfig(
        kind="colony",
        n_robots=12,
        gamma=(12.0, 7.2),
        v_max=1.0,
        r=0.25,
        t_final=600.0,
        # collision standoff (v + sqrt(v^2 + 4 a^2 r^2)) / 2a = 0.40 m:
        # two robots fit inside the 0.5 m depot arrive radius at once,
        # which the cargo pickup rate in the reference results implies
        alpha_c=4.0,
        events=(
            Event(time=120.0, kind="cargo_delivery", amount=10, location=(20.0, 0.0)),
            Event(time=225.0, kind="cargo_delivery", amount=10, location=(20.0, 0.0)),
            Event(time=172.5, kind="robot_removal", amount=6),
        ),
        colony=ColonyParams(),
    )


def monitoring_default() -> ScenarioConfig:
    """Four robots keeping five pentagon nodes drained of information."""
    return ScenarioConfig(
        kind="monitoring",
        n_robots=4,
        gamma=(4.0, 4.0, 4.0, 4.0, 4.0),
        v_max=4.0,
        r=0.04,
        t_final=1000.0,
        alpha_c=10.0,
        monitoring=MonitoringParams(),
    )


def builtin_scenario(name: str) -> ScenarioConfig:
    if name == "colony":
        return colony_default()
    if name == "monitoring":
        return monitoring_default()
    raise ScenarioError(f"no built-in scenario named {name!r}")


# ---------------------------------------------------------------------------
# mapping <-> dataclass, strict in both directions


def to_mapping(config: ScenarioConfig) -> dict:
    """Plain nested dict/list/scalar form, as written to YAML."""
    def convert(value):
        if dataclasses.is_dataclass(value):
            return {f.name: convert(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value
    return convert(config)


def _build(cls, mapping, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where or 'top level'}: expected a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in fields:
            raise ScenarioError(f"{where}{key}: unknown key")
        # YAML 1.1 reads 1e3 as text; only 1.0e+3 is a float
        if fields[key].type == "float" and not isinstance(value, (int, float)):
            raise ScenarioError(f"{where}{key}: expected a number, got {value!r}")
        kwargs[key] = _convert_field(fields[key].name, value, f"{where}{key}")
    return cls(**kwargs)


def _convert_field(name, value, where):
    if value is None:
        return None
    if name == "colony":
        return _build(ColonyParams, value, where + ".")
    if name == "monitoring":
        return _build(MonitoringParams, value, where + ".")
    if name == "events":
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: expected a list")
        return tuple(_build(Event, e, f"{where}[{i}].") for i, e in enumerate(value))
    if name in ("gamma", "nodes"):
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: expected a list")
        return tuple(tuple(v) if isinstance(v, list) else v for v in value)
    if isinstance(value, list):
        return tuple(value)
    return value


def from_mapping(mapping: dict) -> ScenarioConfig:
    try:
        return _build(ScenarioConfig, mapping, "")
    except TypeError as exc:
        raise ScenarioError(str(exc)) from None


def read_yaml(path: str):
    """Parse one YAML file; a syntax error becomes a ScenarioError naming
    path:line:column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is not None:
                raise ScenarioError(
                    f"{path}:{mark.line + 1}:{mark.column + 1}: "
                    f"{getattr(exc, 'problem', 'parse error')}") from None
            raise ScenarioError(f"{path}: {exc}") from None


def load_scenario(path: str) -> ScenarioConfig:
    """Parse a scenario file; ScenarioError messages carry the location."""
    raw = read_yaml(path)
    try:
        return from_mapping(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def save_scenario(config: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_mapping(config), fh, sort_keys=False)
