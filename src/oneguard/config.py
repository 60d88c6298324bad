"""Pulse-schedule document: parsing, validation, compilation.

The schedule is a YAML document with sections ``run``, ``plant``,
``signals``, ``ones``, ``virtual_ones``, ``os_mapping``, ``scenarios``,
``controllers`` and ``actuator_groups``. Parsing is strict about shape
(unknown keys are rejected, every number must be finite, unit suffixes
must match the field's declared unit); ``validate`` then reports semantic
problems as diagnostics without throwing. ``validate`` is the only place
the schedule's rules are checked: the runtime objects assume them, and a
schedule that validates with zero errors compiles into runtime objects
that cannot raise ConfigError on any input trace.

YAML 1.1 note: an unquoted ``no`` loads as boolean false. Since "no" is a
legitimate danger-level name, bare booleans in danger positions are read
back as "no"/"yes" rather than rejected.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import yaml

from .allocator import ADDITIVE, EXCLUSIVE, ActuatorGroup
from .controllers import FLAG, GROUP, HOLD, LINEAR, NUMBER, RUNTIMES, SIGNAL, Setting, Waveform
from .errors import ConfigError
from .model import (
    Activation,
    ControlTask,
    DangerLevel,
    EventTrigger,
    REACTION_MAX,
    REACTION_MIN,
    SCENARIO_TYPE_FOR_REACTION,
    ScenarioType,
)
from .monitor import FALLING, MonitorConfig, RISING, ThresholdTable, VirtualOneRule
from .plant import DisruptionBoundary, PlantParams
from .supervisor import OneEvaluation, OsMapping, Scenario, SupervisorConfig

#: Signals the surrogate plant publishes every tick.
PLANT_SIGNALS = (
    "h98y2",
    "ne_edge_norm",
    "stored_energy",
    "nbi_power",
    "nbi_energy",
    "nbi_energy_frac",
    "gas_flux",
    "d_ne_edge",
)

_QUANTITY_RE = re.compile(r"\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([^\s]*)\s*")


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, anchored to a document path."""

    severity: str  # "error" or "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


def _as_float(value: int | float) -> float:
    """``float(value)``, reading an int past the float range as infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _is_error(d: Diagnostic) -> bool:
    return d.severity == "error"


def errors_of(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diagnostics if _is_error(d)]


class _Shape:
    """Error accumulator for the shape-checking pass."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def number(
        self,
        value: Any,
        path: str,
        unit: Optional[str] = None,
        default: Optional[float] = None,
    ) -> float:
        """Parse a numeric leaf, optionally suffixed with a declared unit."""
        if value is None and default is not None:
            return default
        if isinstance(value, bool):
            self.fail(path, f"expected a number, got boolean {value}")
            return 0.0
        if isinstance(value, (int, float)):
            num = _as_float(value)
        elif isinstance(value, str):
            m = _QUANTITY_RE.fullmatch(value)
            if not m:
                self.fail(path, f"cannot parse number {value!r}")
                return 0.0
            num = float(m.group(1))
            suffix = m.group(2)
            if suffix:
                if unit is None:
                    self.fail(path, f"field does not declare a unit, got suffix {suffix!r}")
                elif suffix != unit:
                    self.fail(path, f"unit suffix {suffix!r} does not match declared {unit!r}")
        else:
            self.fail(path, f"expected a number, got {type(value).__name__}")
            return 0.0
        if not math.isfinite(num):
            self.fail(path, f"number must be finite, got {num!r}")
            return 0.0
        return num

    def integer(self, value: Any, path: str, default: Optional[int] = None) -> int:
        if value is None and default is not None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path, f"expected an integer, got {value!r}")
            return 0
        return value

    def string(self, value: Any, path: str, default: Optional[str] = None) -> str:
        if value is None and default is not None:
            return default
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {value!r}")
            return ""
        return value

    def mapping(self, value: Any, path: str, allowed: Mapping[str, bool]) -> Dict[str, Any]:
        """Check a mapping node: required keys present, no unknown keys."""
        if value is None:
            value = {}
        if not isinstance(value, dict):
            self.fail(path, f"expected a mapping, got {type(value).__name__}")
            return {}
        for key in value:
            if key not in allowed:
                self.fail(path, f"unknown key {key!r}")
        for key, required in allowed.items():
            if required and key not in value:
                self.fail(path, f"missing required key {key!r}")
        return value

    def sequence(self, value: Any, path: str, required: bool = True) -> List[Any]:
        if value is None:
            if required:
                self.fail(path, "missing required list")
            return []
        if not isinstance(value, list):
            self.fail(path, f"expected a list, got {type(value).__name__}")
            return []
        return value


def _danger_name(value: Any) -> str:
    # YAML 1.1 reads bare no/yes as booleans; map them back to names.
    if value is False:
        return "no"
    if value is True:
        return "yes"
    return str(value)


# ---------------------------------------------------------------------------
# Typed document model.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    dt: float
    duration: float
    post_roll: float = 0.0
    plant_failure_one: Optional[str] = None


@dataclass(frozen=True)
class OneSpec:
    id: str
    signal: str
    direction: str
    thresholds: Tuple[float, ...]
    hysteresis: Tuple[float, ...]
    unit: Optional[str]
    danger: Tuple[Tuple[int, str], ...]
    reaction: Tuple[Tuple[str, int], ...]
    irreversible: Tuple[int, ...]

    @property
    def max_level(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class VirtualOneSpec:
    id: str
    inputs: Tuple[str, ...]
    rows: Tuple[Tuple[Tuple[int, ...], int], ...]
    danger: Tuple[Tuple[int, str], ...]
    reaction: Tuple[Tuple[str, int], ...]
    irreversible: Tuple[int, ...]

    @property
    def max_level(self) -> int:
        return max((lvl for _, lvl in self.rows), default=0)


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    type: str
    tasks: Tuple[ControlTask, ...]


@dataclass(frozen=True)
class PulseSchedule:
    """Typed mirror of one schedule document.

    Waveforms, tasks, actuator groups and the plant parameters are already
    the runtime types; they take whatever the document says, and
    ``validate`` checks it.
    """

    run: RunSpec
    plant: PlantParams
    scripted: Tuple[Tuple[str, Waveform], ...]
    ones: Tuple[OneSpec, ...]
    virtual_ones: Tuple[VirtualOneSpec, ...]
    os_default: str
    os_rows: Tuple[Tuple[Tuple[int, ...], str], ...]
    scenarios: Tuple[ScenarioSpec, ...]
    controllers: Tuple[Tuple[str, Mapping[str, Any]], ...]
    groups: Tuple[ActuatorGroup, ...]

    @property
    def one_ids(self) -> Tuple[str, ...]:
        return tuple(o.id for o in self.ones) + tuple(v.id for v in self.virtual_ones)

    def group_map(self) -> Dict[str, ActuatorGroup]:
        return {g.id: g for g in self.groups}


# ---------------------------------------------------------------------------
# Parse (shape pass).
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "run": True,
    "plant": True,
    "signals": False,
    "ones": True,
    "virtual_ones": False,
    "os_mapping": True,
    "scenarios": True,
    "controllers": True,
    "actuator_groups": True,
}


def _parse_waveform(node: Any, path: str, sh: _Shape) -> Waveform:
    m = sh.mapping(node, path, {"points": True, "interpolation": False, "unit": False})
    unit = m.get("unit")
    if unit is not None and not isinstance(unit, str):
        sh.fail(f"{path}.unit", "unit must be a string")
        unit = None
    interpolation = sh.string(m.get("interpolation"), f"{path}.interpolation", default=LINEAR)
    points: List[Tuple[float, float]] = []
    for i, pt in enumerate(sh.sequence(m.get("points"), f"{path}.points")):
        if not isinstance(pt, list) or len(pt) != 2:
            sh.fail(f"{path}.points[{i}]", "each breakpoint must be a [time, value] pair")
            continue
        t = sh.number(pt[0], f"{path}.points[{i}].time", unit="s")
        v = sh.number(pt[1], f"{path}.points[{i}].value", unit=unit)
        points.append((t, v))
    return Waveform(points=tuple(points), interpolation=interpolation)


def _parse_reference(node: Any, path: str, sh: _Shape) -> Optional[Waveform]:
    """A task reference: a waveform, or a scalar promoted to a constant one."""
    if node is None:
        return None
    if isinstance(node, dict):
        return _parse_waveform(node, path, sh)
    return Waveform(points=((0.0, sh.number(node, path)),), interpolation=HOLD)


def _parse_level_map(node: Any, path: str, sh: _Shape) -> Tuple[Tuple[int, str], ...]:
    if not isinstance(node, dict):
        sh.fail(path, "danger map must be a mapping of event level to danger name")
        return ()
    out = []
    for key, value in node.items():
        lvl = sh.integer(key, f"{path}[{key!r}]")
        out.append((lvl, _danger_name(value)))
    return tuple(out)


def _parse_reaction_map(node: Any, path: str, sh: _Shape) -> Tuple[Tuple[str, int], ...]:
    if not isinstance(node, dict):
        sh.fail(path, "reaction map must be a mapping of danger name to reaction level")
        return ()
    out = []
    for key, value in node.items():
        out.append((_danger_name(key), sh.integer(value, f"{path}[{key!r}]")))
    return tuple(out)


def _parse_one(node: Any, path: str, sh: _Shape) -> OneSpec:
    m = sh.mapping(
        node,
        path,
        {
            "id": True,
            "signal": True,
            "direction": True,
            "thresholds": True,
            "hysteresis": False,
            "unit": False,
            "danger": True,
            "reaction": True,
            "irreversible": False,
        },
    )
    unit = m.get("unit")
    if unit is not None and not isinstance(unit, str):
        sh.fail(f"{path}.unit", "unit must be a string")
        unit = None
    thresholds = tuple(
        sh.number(v, f"{path}.thresholds[{i}]", unit=unit)
        for i, v in enumerate(sh.sequence(m.get("thresholds"), f"{path}.thresholds"))
    )
    hyst_node = m.get("hysteresis")
    if hyst_node is None:
        hysteresis = tuple(0.0 for _ in thresholds)
    else:
        hysteresis = tuple(
            sh.number(v, f"{path}.hysteresis[{i}]", unit=unit)
            for i, v in enumerate(sh.sequence(hyst_node, f"{path}.hysteresis"))
        )
    irreversible = tuple(
        sh.integer(v, f"{path}.irreversible[{i}]")
        for i, v in enumerate(sh.sequence(m.get("irreversible", [3, 4]), f"{path}.irreversible"))
    )
    return OneSpec(
        id=sh.string(m.get("id"), f"{path}.id"),
        signal=sh.string(m.get("signal"), f"{path}.signal"),
        direction=sh.string(m.get("direction"), f"{path}.direction"),
        thresholds=thresholds,
        hysteresis=hysteresis,
        unit=unit,
        danger=_parse_level_map(m.get("danger"), f"{path}.danger", sh),
        reaction=_parse_reaction_map(m.get("reaction"), f"{path}.reaction", sh),
        irreversible=irreversible,
    )


def _parse_virtual(node: Any, path: str, sh: _Shape) -> VirtualOneSpec:
    m = sh.mapping(
        node,
        path,
        {
            "id": True,
            "inputs": True,
            "rows": True,
            "danger": True,
            "reaction": True,
            "irreversible": False,
        },
    )
    inputs = tuple(
        sh.string(v, f"{path}.inputs[{i}]")
        for i, v in enumerate(sh.sequence(m.get("inputs"), f"{path}.inputs"))
    )
    rows: List[Tuple[Tuple[int, ...], int]] = []
    for i, row in enumerate(sh.sequence(m.get("rows"), f"{path}.rows")):
        rm = sh.mapping(row, f"{path}.rows[{i}]", {"levels": True, "level": True})
        levels = tuple(
            sh.integer(v, f"{path}.rows[{i}].levels[{j}]")
            for j, v in enumerate(sh.sequence(rm.get("levels"), f"{path}.rows[{i}].levels"))
        )
        rows.append((levels, sh.integer(rm.get("level"), f"{path}.rows[{i}].level")))
    irreversible = tuple(
        sh.integer(v, f"{path}.irreversible[{i}]")
        for i, v in enumerate(sh.sequence(m.get("irreversible", [3, 4]), f"{path}.irreversible"))
    )
    return VirtualOneSpec(
        id=sh.string(m.get("id"), f"{path}.id"),
        inputs=inputs,
        rows=tuple(rows),
        danger=_parse_level_map(m.get("danger"), f"{path}.danger", sh),
        reaction=_parse_reaction_map(m.get("reaction"), f"{path}.reaction", sh),
        irreversible=irreversible,
    )


def _parse_activation(node: Any, path: str, sh: _Shape) -> Activation:
    if node is None:
        return Activation()
    m = sh.mapping(node, path, {"t_start": False, "t_end": False, "event": False})
    t_start = sh.number(m.get("t_start"), f"{path}.t_start", unit="s", default=0.0)
    t_end = None
    if m.get("t_end") is not None:
        t_end = sh.number(m.get("t_end"), f"{path}.t_end", unit="s")
    trigger = None
    if m.get("event") is not None:
        em = sh.mapping(m.get("event"), f"{path}.event", {"one": True, "min_level": False, "max_level": False})
        one = sh.string(em.get("one"), f"{path}.event.one")
        min_level = sh.integer(em.get("min_level"), f"{path}.event.min_level", default=0)
        max_level = None
        if em.get("max_level") is not None:
            max_level = sh.integer(em.get("max_level"), f"{path}.event.max_level")
        trigger = EventTrigger(one_id=one, min_level=min_level, max_level=max_level)
    return Activation(t_start=t_start, t_end=t_end, trigger=trigger)


def _parse_task(node: Any, path: str, sh: _Shape) -> ControlTask:
    m = sh.mapping(
        node,
        path,
        {
            "id": True,
            "priority": True,
            "controller": True,
            "group": True,
            "reference": False,
            "activation": False,
        },
    )
    return ControlTask(
        id=sh.string(m.get("id"), f"{path}.id"),
        priority=sh.integer(m.get("priority"), f"{path}.priority", default=1),
        controller=sh.string(m.get("controller"), f"{path}.controller"),
        group=sh.string(m.get("group"), f"{path}.group"),
        reference=_parse_reference(m.get("reference"), f"{path}.reference", sh),
        activation=_parse_activation(m.get("activation"), f"{path}.activation", sh),
    )


def _parse_scenario(node: Any, path: str, sh: _Shape) -> ScenarioSpec:
    m = sh.mapping(node, path, {"id": True, "type": True, "tasks": False})
    tasks = tuple(
        _parse_task(t, f"{path}.tasks[{i}]", sh)
        for i, t in enumerate(sh.sequence(m.get("tasks", []), f"{path}.tasks", required=False))
    )
    return ScenarioSpec(
        id=sh.string(m.get("id"), f"{path}.id"),
        type=sh.string(m.get("type"), f"{path}.type"),
        tasks=tasks,
    )


def _parse_group(node: Any, path: str, sh: _Shape) -> ActuatorGroup:
    m = sh.mapping(
        node,
        path,
        {"id": True, "capacity": True, "semantics": False, "command_range": False, "unit": False},
    )
    unit = sh.string(m.get("unit"), f"{path}.unit", default="")
    capacity = sh.number(m.get("capacity"), f"{path}.capacity", unit=unit or None)
    cr = m.get("command_range")
    if cr is None:
        command_range = (0.0, capacity)
    elif isinstance(cr, list) and len(cr) == 2:
        command_range = (
            sh.number(cr[0], f"{path}.command_range[0]", unit=unit or None),
            sh.number(cr[1], f"{path}.command_range[1]", unit=unit or None),
        )
    else:
        sh.fail(f"{path}.command_range", "expected a [lo, hi] pair")
        command_range = (0.0, capacity)
    return ActuatorGroup(
        id=sh.string(m.get("id"), f"{path}.id"),
        capacity=capacity,
        semantics=sh.string(m.get("semantics"), f"{path}.semantics", default=ADDITIVE),
        command_range=command_range,
        unit=unit,
    )


def _parse_pairs(node: Any, path: str, sh: _Shape) -> Tuple[Tuple[float, float], ...]:
    out = []
    for i, pt in enumerate(sh.sequence(node, path)):
        if not isinstance(pt, list) or len(pt) != 2:
            sh.fail(f"{path}[{i}]", "expected a [x, y] pair")
            continue
        out.append((sh.number(pt[0], f"{path}[{i}][0]"), sh.number(pt[1], f"{path}[{i}][1]")))
    return tuple(out)


#: Plant numbers: unit suffix, and default (None: required).
_PLANT_NUMBERS = {
    "tau_e": ("s", None),
    "tau_98": ("s", None),
    "tau_n": ("s", None),
    "k_gas": (None, None),
    "p_ohmic": ("MW", None),
    "nbi_energy_limit": ("MJ", None),
    "w_init": ("MJ", 0.0),
    "ne_init": (None, 0.0),
    "gas_init": (None, 0.0),
}


def _parse_plant(node: Any, sh: _Shape) -> PlantParams:
    allowed = {key: default is None for key, (_, default) in _PLANT_NUMBERS.items()}
    m = sh.mapping(node, "plant", dict(allowed, nbi_group=True, gas_group=True, degradation=True, boundary=True))
    return PlantParams(
        **{key: sh.number(m.get(key), f"plant.{key}", unit, default) for key, (unit, default) in _PLANT_NUMBERS.items()},
        nbi_group=sh.string(m.get("nbi_group"), "plant.nbi_group"),
        gas_group=sh.string(m.get("gas_group"), "plant.gas_group"),
        degradation=_parse_pairs(m.get("degradation"), "plant.degradation", sh),
        boundary=DisruptionBoundary(_parse_pairs(m.get("boundary"), "plant.boundary", sh)),
    )


def load_document(text: str) -> Dict[str, Any]:
    """Load schedule text into its raw mapping, raising ConfigError if it is not one."""
    try:
        # libyaml's safe loader where PyYAML has it builds the same documents several times faster.
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"schedule is not valid YAML: {exc}") from None
    if doc is None:
        raise ConfigError("schedule document is empty")
    if not isinstance(doc, dict):
        raise ConfigError("schedule document must be a mapping")
    return doc


def parse(text: str) -> PulseSchedule:
    """Parse a schedule document, raising ConfigError on shape problems."""
    return parse_document(load_document(text))


def parse_document(doc: Dict[str, Any]) -> PulseSchedule:
    """Shape-check a loaded schedule mapping, raising ConfigError on problems."""
    sh = _Shape()
    top = sh.mapping(doc, "schedule", _TOP_KEYS)

    run_m = sh.mapping(top.get("run"), "run", {"dt": True, "duration": True, "post_roll": False, "plant_failure_one": False})
    pf = run_m.get("plant_failure_one")
    if pf is not None and not isinstance(pf, str):
        sh.fail("run.plant_failure_one", "expected an event id string")
        pf = None
    run = RunSpec(
        dt=sh.number(run_m.get("dt"), "run.dt", unit="s"),
        duration=sh.number(run_m.get("duration"), "run.duration", unit="s"),
        post_roll=sh.number(run_m.get("post_roll"), "run.post_roll", unit="s", default=0.0),
        plant_failure_one=pf,
    )

    plant = _parse_plant(top.get("plant"), sh)

    scripted: List[Tuple[str, Waveform]] = []
    sig_node = top.get("signals") or {}
    if not isinstance(sig_node, dict):
        sh.fail("signals", "expected a mapping of signal name to waveform")
    else:
        for name, wf in sig_node.items():
            scripted.append((str(name), _parse_waveform(wf, f"signals.{name}", sh)))

    ones = tuple(
        _parse_one(o, f"ones[{i}]", sh) for i, o in enumerate(sh.sequence(top.get("ones"), "ones"))
    )
    virtual_ones = tuple(
        _parse_virtual(v, f"virtual_ones[{i}]", sh)
        for i, v in enumerate(sh.sequence(top.get("virtual_ones", []), "virtual_ones", required=False))
    )

    os_m = sh.mapping(top.get("os_mapping"), "os_mapping", {"default": True, "rows": False})
    os_rows: List[Tuple[Tuple[int, ...], str]] = []
    for i, row in enumerate(sh.sequence(os_m.get("rows", []), "os_mapping.rows", required=False)):
        rm = sh.mapping(row, f"os_mapping.rows[{i}]", {"reactions": True, "scenario": True})
        reactions = tuple(
            sh.integer(v, f"os_mapping.rows[{i}].reactions[{j}]")
            for j, v in enumerate(sh.sequence(rm.get("reactions"), f"os_mapping.rows[{i}].reactions"))
        )
        os_rows.append((reactions, sh.string(rm.get("scenario"), f"os_mapping.rows[{i}].scenario")))

    scenarios = tuple(
        _parse_scenario(s, f"scenarios[{i}]", sh)
        for i, s in enumerate(sh.sequence(top.get("scenarios"), "scenarios"))
    )

    controllers: List[Tuple[str, Mapping[str, Any]]] = []
    ctrl_node = top.get("controllers")
    if not isinstance(ctrl_node, dict):
        sh.fail("controllers", "expected a mapping of controller id to settings")
    else:
        for cid, cfg in ctrl_node.items():
            if not isinstance(cfg, dict):
                sh.fail(f"controllers.{cid}", "expected a mapping")
                continue
            controllers.append((str(cid), dict(cfg)))

    groups = tuple(
        _parse_group(g, f"actuator_groups[{i}]", sh)
        for i, g in enumerate(sh.sequence(top.get("actuator_groups"), "actuator_groups"))
    )

    os_default = sh.string(os_m.get("default"), "os_mapping.default", default="")

    if sh.errors:
        raise ConfigError("schedule has shape errors:\n  " + "\n  ".join(sh.errors))

    return PulseSchedule(
        run=run,
        plant=plant,
        scripted=tuple(scripted),
        ones=ones,
        virtual_ones=virtual_ones,
        os_default=os_default,
        os_rows=tuple(os_rows),
        scenarios=scenarios,
        controllers=tuple(controllers),
        groups=groups,
    )


def read_text(path) -> str:
    """The text of a schedule file, raising ConfigError if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: schedule is not UTF-8 text: {exc}") from None


def parse_file(path) -> PulseSchedule:
    return parse(read_text(path))


# ---------------------------------------------------------------------------
# Validate (semantic pass).
# ---------------------------------------------------------------------------

_DANGER_NAMES = tuple(d.label for d in DangerLevel)
_SCENARIO_TYPES = tuple(t.value for t in ScenarioType)


def _check_waveform(spec: Waveform, path: str, out: List[Diagnostic]) -> None:
    if not spec.points:
        out.append(Diagnostic("error", path, "waveform has no breakpoints"))
        return
    times = [t for t, _ in spec.points]
    if any(a >= b for a, b in zip(times, times[1:])):
        out.append(Diagnostic("error", path, "breakpoint times must be strictly increasing"))
    if spec.interpolation not in (HOLD, LINEAR):
        out.append(Diagnostic("error", path, f"unknown interpolation {spec.interpolation!r}"))


def _check_danger_map(
    danger: Tuple[Tuple[int, str], ...], max_level: int, path: str, out: List[Diagnostic]
) -> None:
    seen = {}
    for lvl, name in danger:
        if lvl < 0 or lvl > max_level:
            out.append(Diagnostic("error", path, f"level {lvl} outside [0, {max_level}]"))
        if name not in _DANGER_NAMES:
            out.append(Diagnostic("error", path, f"unknown danger name {name!r}"))
        if lvl in seen:
            out.append(Diagnostic("error", path, f"duplicate entry for level {lvl}"))
        seen[lvl] = name
    missing = [l for l in range(max_level + 1) if l not in seen]
    if missing:
        out.append(Diagnostic("error", path, f"non-total mapping: missing levels {missing}"))


def _check_reaction_map(
    reaction: Tuple[Tuple[str, int], ...], path: str, out: List[Diagnostic]
) -> None:
    seen = {}
    for name, lvl in reaction:
        if name not in _DANGER_NAMES:
            out.append(Diagnostic("error", path, f"unknown danger name {name!r}"))
            continue
        if not REACTION_MIN <= lvl <= REACTION_MAX:
            out.append(
                Diagnostic("error", path, f"reaction {lvl} outside [{REACTION_MIN}, {REACTION_MAX}]")
            )
        if name in seen:
            out.append(Diagnostic("error", path, f"duplicate entry for danger {name!r}"))
        seen[name] = lvl
    missing = [n for n in _DANGER_NAMES if n not in seen]
    if missing:
        out.append(Diagnostic("error", path, f"non-total mapping: missing danger levels {missing}"))


def _check_classification(spec: OneSpec | VirtualOneSpec, path: str, out: List[Diagnostic]) -> None:
    """The danger map, reaction map and irreversible set of a base or virtual event."""
    _check_danger_map(spec.danger, spec.max_level, f"{path}.danger", out)
    _check_reaction_map(spec.reaction, f"{path}.reaction", out)
    for lvl in spec.irreversible:
        if not REACTION_MIN <= lvl <= REACTION_MAX:
            out.append(Diagnostic("error", f"{path}.irreversible", f"level {lvl} outside [0, 4]"))
    if not {3, 4} <= set(spec.irreversible):
        out.append(
            Diagnostic(
                "warning",
                f"{path}.irreversible",
                "set does not cover the conventional irreversible levels {3, 4}",
            )
        )


def _reachable_reactions(
    danger: Tuple[Tuple[int, str], ...],
    reaction: Tuple[Tuple[str, int], ...],
    levels: Sequence[int],
) -> Tuple[int, ...]:
    """Reaction levels this event can ever report (latch adds nothing new)."""
    dmap = dict(danger)
    rmap = dict(reaction)
    out = set()
    for lvl in levels:
        name = dmap.get(lvl)
        if name is None or name not in rmap:
            continue
        out.add(rmap[name])
    return tuple(sorted(out))


def _runtime_class(kind: Any) -> Optional[type]:
    # Only a string can name a type; a list or mapping is not hashable.
    return RUNTIMES.get(kind) if isinstance(kind, str) else None


def _complete(runtime: type, cfg: Mapping[str, Any]) -> Dict[str, Any]:
    """A controller's settings with the defaults of its table filled in."""
    return {s.key: cfg.get(s.key, s.default) for s in runtime.settings}


def _setting_error(
    setting: Setting, cfg: Mapping[str, Any], signals: set, groups: Mapping[str, ActuatorGroup]
) -> Optional[str]:
    key, kind = setting.key, setting.kind
    if key not in cfg:
        if setting.default is not None:
            return None
        if kind == NUMBER:
            return f"missing required field {key!r}"
    value = cfg.get(key)
    if kind == NUMBER:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(_as_float(value)):
            return f"field {key!r} must be a finite number"
        if setting.bound is not None and not setting.bound[1](value):
            return f"field {key!r} must {setting.bound[0]}"
    elif kind == SIGNAL:
        if not isinstance(value, str):
            return f"missing required signal name {key!r}"
        if value not in signals:
            return f"{key!r} references unknown signal {value!r}"
    elif kind == FLAG:
        if not isinstance(value, bool):
            return f"{key} must be a boolean"
    elif kind == GROUP:
        if not isinstance(value, str) or value not in groups:
            return f"{key} references unknown group {value!r}"
    elif value not in kind:
        return f"{key} must be one of {', '.join(map(repr, kind))}"
    return None


def _check_controller(
    cid: str, cfg: Mapping[str, Any], signals: set, groups: Mapping[str, ActuatorGroup], out: List[Diagnostic]
) -> None:
    path = f"controllers.{cid}"
    kind = cfg.get("type")
    runtime = _runtime_class(kind)
    if runtime is None:
        out.append(Diagnostic("error", path, f"unknown controller type {kind!r}"))
        return
    keys = {s.key for s in runtime.settings}
    for key in cfg:
        if key != "type" and key not in keys:
            out.append(Diagnostic("error", path, f"unknown key {key!r}"))
    for setting in runtime.settings:
        message = _setting_error(setting, cfg, signals, groups)
        if message is not None:
            out.append(Diagnostic("error", path, message))
    settings = _complete(runtime, cfg)
    if kind == "pid":
        lo, hi = settings["lo"], settings["hi"]
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and lo > hi:
            out.append(Diagnostic("error", path, "output limits inverted (lo > hi)"))
    elif kind == "ntm":
        aim = settings["aim_group"]
        if isinstance(aim, str) and aim in groups and groups[aim].semantics != EXCLUSIVE:
            out.append(Diagnostic("error", path, f"aim_group {aim!r} must have exclusive semantics"))


def _combos_with_max(per_one: Sequence[Sequence[int]], maxima: set) -> Iterator[Tuple[int, ...]]:
    """The tuples of ``itertools.product(*per_one)`` whose maximum is in ``maxima``, in product order.

    A prefix is extended only while some completion of it has its maximum
    in ``maxima``, so the walk visits at most ``len(per_one)`` prefixes per
    tuple it yields, however many tuples it skips.
    """
    n = len(per_one)
    # ceiling[i]: least k such that every position from i on has a value <= k.
    # values[i]: the values some position from i on can take.
    ceiling: List[float] = [REACTION_MIN] * (n + 1)
    values: List[frozenset] = [frozenset()] * (n + 1)
    for i in range(n - 1, -1, -1):
        ceiling[i] = max(ceiling[i + 1], min(per_one[i], default=math.inf))
        values[i] = values[i + 1] | frozenset(per_one[i])

    def reachable(i: int, top: int) -> bool:
        return any(k >= top and k >= ceiling[i] and (k == top or k in values[i]) for k in maxima)

    def walk(i: int, prefix: Tuple[int, ...], top: int) -> Iterator[Tuple[int, ...]]:
        if i == n:
            yield prefix
            return
        for r in per_one[i]:
            if reachable(i + 1, max(top, r)):
                yield from walk(i + 1, prefix + (r,), max(top, r))

    if reachable(0, REACTION_MIN - 1):
        yield from walk(0, (), REACTION_MIN - 1)


def _fallback_rule(combo: Tuple[int, ...]) -> str:
    top = max(combo)
    if top == REACTION_MIN:
        return "default scenario"
    return f"max-severity fallback to type {SCENARIO_TYPE_FOR_REACTION[top].value!r}"


def _coverage_diagnostics(
    per_one: Sequence[Sequence[int]], row_map: Mapping[Tuple[int, ...], str], types_present: set
) -> List[Diagnostic]:
    """Check every reachable reaction tuple against the rows and the fallback rule.

    ``per_one`` holds the reachable reaction levels of each event, in event
    order. A tuple without a row falls back on its maximum level alone, so
    the tuples are counted per maximum level k instead of enumerated: the
    reachable tuples with maximum k number prod|R_i & [0, k]| minus
    prod|R_i & [0, k-1]|, less the rows among them. Only the tuples a
    diagnostic names, and the rows met on the way to them, are walked.
    """
    rows_by_max = Counter(max(c) for c in row_map if all(r in rs for r, rs in zip(c, per_one)))
    uncovered = {}
    below = 0  # reachable tuples whose levels all lie below k
    for k in range(REACTION_MIN, REACTION_MAX + 1):
        upto = math.prod(sum(r <= k for r in rs) for rs in per_one)
        uncovered[k] = upto - below - rows_by_max[k]
        below = upto
    # The all-zero tuple always has the default scenario.
    stranded = {
        k for k, count in uncovered.items()
        if k > REACTION_MIN and count and SCENARIO_TYPE_FOR_REACTION[k].value not in types_present
    }

    out: List[Diagnostic] = []
    for combo in _combos_with_max(per_one, stranded):
        if combo not in row_map:
            wanted = SCENARIO_TYPE_FOR_REACTION[max(combo)]
            out.append(
                Diagnostic(
                    "error",
                    "os_mapping.rows",
                    f"reachable combination {list(combo)} has no row and no "
                    f"{wanted.value!r} scenario to fall back to",
                )
            )
    n_fallback = sum(count for k, count in uncovered.items() if k not in stranded)
    if n_fallback:
        hits = itertools.islice(
            (c for c in itertools.product(*per_one) if c not in row_map and max(c) not in stranded), 4
        )
        shown = "; ".join(f"{list(c)} -> {_fallback_rule(c)}" for c in hits)
        out.append(
            Diagnostic(
                "warning",
                "os_mapping.rows",
                f"{n_fallback} reachable combination(s) have no explicit row and rely on "
                f"the fallback rule (max reaction level picks the scenario type): {shown}",
            )
        )
    return out


def _combiner_gap(ranges: Sequence[range], table: Mapping[Tuple[int, ...], int]) -> Optional[str]:
    """The "combiner not total" message for a virtual event's table, None if it is total.

    ``table``'s keys all have one level per input. The missing input
    combinations are counted (the size of the input product less the keys
    inside it), and the product is walked only up to the fourth missing one
    for the examples.
    """
    covered = sum(1 for key in table if all(level in r for level, r in zip(key, ranges)))
    missing = math.prod(len(r) for r in ranges) - covered
    if not missing:
        return None
    examples = itertools.islice(
        (combo for combo in itertools.product(*ranges) if combo not in table), min(missing, 4)
    )
    shown = ", ".join(str(list(c)) for c in examples)
    return f"combiner not total: {missing} missing combinations (e.g. {shown})"


def validate(ps: PulseSchedule) -> List[Diagnostic]:
    """Semantic checks. Returns diagnostics; never raises on content."""
    out: List[Diagnostic] = []
    groups = ps.group_map()
    scenario_map = {s.id: s for s in ps.scenarios}
    controller_map = dict(ps.controllers)
    known_signals = set(PLANT_SIGNALS) | {name for name, _ in ps.scripted}

    # Run section.
    if ps.run.dt <= 0.0:
        out.append(Diagnostic("error", "run.dt", "control period must be positive"))
    if ps.run.duration < 0.0:
        out.append(Diagnostic("error", "run.duration", "duration must be >= 0"))
    if ps.run.post_roll < 0.0:
        out.append(Diagnostic("error", "run.post_roll", "post_roll must be >= 0"))
    if ps.run.plant_failure_one is not None and ps.run.plant_failure_one not in ps.one_ids:
        out.append(
            Diagnostic("error", "run.plant_failure_one", f"unknown event {ps.run.plant_failure_one!r}")
        )

    # Actuator groups.
    seen_groups = set()
    for i, g in enumerate(ps.groups):
        path = f"actuator_groups[{i}]"
        if g.id in seen_groups:
            out.append(Diagnostic("error", path, f"duplicate group id {g.id!r}"))
        seen_groups.add(g.id)
        if g.capacity < 0.0:
            out.append(Diagnostic("error", path, "capacity must be >= 0"))
        if g.semantics not in (ADDITIVE, EXCLUSIVE):
            out.append(Diagnostic("error", path, f"unknown semantics {g.semantics!r}"))
        if g.command_range[0] > g.command_range[1]:
            out.append(Diagnostic("error", path, "command_range inverted"))

    # Plant section.
    for name in ("tau_e", "tau_98", "tau_n", "nbi_energy_limit"):
        if getattr(ps.plant, name) <= 0.0:
            out.append(Diagnostic("error", f"plant.{name}", "must be positive"))
    for table, path in ((ps.plant.degradation, "plant.degradation"), (ps.plant.boundary.vertices, "plant.boundary")):
        xs = [x for x, _ in table]
        if len(xs) < 2:
            out.append(Diagnostic("error", path, "needs at least two points"))
        elif any(a >= b for a, b in zip(xs, xs[1:])):
            out.append(Diagnostic("error", path, "densities must be strictly increasing"))
    for key in ("nbi_group", "gas_group"):
        gid = getattr(ps.plant, key)
        if gid not in groups:
            out.append(Diagnostic("error", f"plant.{key}", f"unknown group {gid!r}"))

    # Scripted signals.
    for name, spec in ps.scripted:
        path = f"signals.{name}"
        if name in PLANT_SIGNALS:
            out.append(Diagnostic("error", path, "name collides with a plant-provided signal"))
        _check_waveform(spec, path, out)

    # Events.
    seen_ones = set()
    base_ids = {o.id for o in ps.ones}
    for i, one in enumerate(ps.ones):
        path = f"ones[{i}]"
        if one.id in seen_ones:
            out.append(Diagnostic("error", path, f"duplicate event id {one.id!r}"))
        seen_ones.add(one.id)
        if one.signal not in known_signals:
            out.append(Diagnostic("error", f"{path}.signal", f"unknown signal {one.signal!r}"))
        if one.direction not in (RISING, FALLING):
            out.append(Diagnostic("error", f"{path}.direction", f"must be {RISING!r} or {FALLING!r}"))
        ts, hs = one.thresholds, one.hysteresis
        if not ts:
            out.append(Diagnostic("error", f"{path}.thresholds", "needs at least one threshold"))
        if len(hs) != len(ts):
            out.append(
                Diagnostic("error", f"{path}.hysteresis", f"{len(hs)} bands for {len(ts)} thresholds")
            )
        elif ts:
            if any(h < 0.0 for h in hs):
                out.append(Diagnostic("error", f"{path}.hysteresis", "bands must be >= 0"))
            if one.direction == RISING:
                if any(a >= b for a, b in zip(ts, ts[1:])):
                    out.append(Diagnostic("error", f"{path}.thresholds", "must be strictly increasing"))
                elif any(ts[j] + hs[j] >= ts[j + 1] - hs[j + 1] for j in range(len(ts) - 1)):
                    out.append(Diagnostic("error", f"{path}.hysteresis", "bands overlap neighbouring thresholds"))
            elif one.direction == FALLING:
                if any(a <= b for a, b in zip(ts, ts[1:])):
                    out.append(Diagnostic("error", f"{path}.thresholds", "must be strictly decreasing"))
                elif any(ts[j] - hs[j] <= ts[j + 1] + hs[j + 1] for j in range(len(ts) - 1)):
                    out.append(Diagnostic("error", f"{path}.hysteresis", "bands overlap neighbouring thresholds"))
        _check_classification(one, path, out)

    # Virtual events.
    for i, v in enumerate(ps.virtual_ones):
        path = f"virtual_ones[{i}]"
        if v.id in seen_ones:
            out.append(Diagnostic("error", path, f"duplicate event id {v.id!r}"))
        seen_ones.add(v.id)
        if not v.inputs:
            out.append(Diagnostic("error", f"{path}.inputs", "needs at least one input"))
        ranges: List[range] = []
        for j, input_id in enumerate(v.inputs):
            if input_id not in base_ids:
                out.append(
                    Diagnostic(
                        "error",
                        f"{path}.inputs[{j}]",
                        f"input {input_id!r} is not a base event (virtuals combine base events only)",
                    )
                )
                ranges.append(range(1))
            else:
                base = next(o for o in ps.ones if o.id == input_id)
                ranges.append(range(base.max_level + 1))
        table = {}
        for levels, lvl in v.rows:
            if levels in table:
                out.append(Diagnostic("error", f"{path}.rows", f"duplicate row for levels {list(levels)}"))
            table[levels] = lvl
            if len(levels) != len(v.inputs):
                out.append(Diagnostic("error", f"{path}.rows", f"row {list(levels)} arity mismatch"))
            if lvl < 0:
                out.append(Diagnostic("error", f"{path}.rows", f"output level {lvl} must be >= 0"))
        if all(len(levels) == len(v.inputs) for levels, _ in v.rows):
            gap = _combiner_gap(ranges, table)
            if gap is not None:
                out.append(Diagnostic("error", f"{path}.rows", gap))
        _check_classification(v, path, out)

    # Scenarios and tasks.
    seen_scenarios = set()
    bindings: Dict[str, Tuple[str, ControlTask]] = {}  # task id -> its first path and task
    for i, sc in enumerate(ps.scenarios):
        path = f"scenarios[{i}]"
        if sc.id in seen_scenarios:
            out.append(Diagnostic("error", path, f"duplicate scenario id {sc.id!r}"))
        seen_scenarios.add(sc.id)
        if sc.type not in _SCENARIO_TYPES:
            out.append(Diagnostic("error", f"{path}.type", f"unknown scenario type {sc.type!r}"))
        seen_prio: Dict[int, str] = {}
        seen_tasks = set()
        for j, task in enumerate(sc.tasks):
            tpath = f"{path}.tasks[{j}]"
            if task.id in seen_tasks:
                out.append(Diagnostic("error", tpath, f"duplicate task id {task.id!r}"))
            seen_tasks.add(task.id)
            first_path, first = bindings.setdefault(task.id, (tpath, task))
            differs = [k for k in ("controller", "group", "reference") if getattr(task, k) != getattr(first, k)]
            if differs:
                out.append(
                    Diagnostic(
                        "warning",
                        tpath,
                        f"task id {task.id!r} is also used at {first_path} with a different "
                        f"{', '.join(differs)}; a task that stays active across a switch between "
                        "them keeps the binding it was activated with",
                    )
                )
            if task.priority < 1:
                out.append(Diagnostic("error", tpath, "priority must be >= 1"))
            if task.priority in seen_prio:
                out.append(
                    Diagnostic(
                        "error",
                        tpath,
                        f"priority {task.priority} already used by task {seen_prio[task.priority]!r}",
                    )
                )
            seen_prio[task.priority] = task.id
            if task.controller not in controller_map:
                out.append(Diagnostic("error", tpath, f"unknown controller {task.controller!r}"))
            else:
                cfg = controller_map[task.controller]
                kind = cfg.get("type")
                runtime = _runtime_class(kind)
                if runtime is not None and runtime.needs_reference(cfg) and task.reference is None:
                    out.append(
                        Diagnostic("error", tpath, f"controller type {kind!r} requires a task reference")
                    )
                if kind == "ntm" and cfg.get("aim_group") == task.group:
                    out.append(Diagnostic("error", tpath, "ntm task group must differ from aim_group"))
            if task.group not in groups:
                out.append(Diagnostic("error", tpath, f"unknown actuator group {task.group!r}"))
            if isinstance(task.reference, Waveform):
                _check_waveform(task.reference, f"{tpath}.reference", out)
            act = task.activation
            if act.t_end is not None and act.t_end <= act.t_start:
                out.append(Diagnostic("error", f"{tpath}.activation", "t_end must exceed t_start"))
            trigger = act.trigger
            if trigger is not None:
                if trigger.one_id not in ps.one_ids:
                    out.append(Diagnostic("error", f"{tpath}.activation", f"unknown event {trigger.one_id!r}"))
                if trigger.min_level < 0:
                    out.append(Diagnostic("error", f"{tpath}.activation", "min_level must be >= 0"))
                if trigger.max_level is not None and trigger.max_level < trigger.min_level:
                    out.append(Diagnostic("error", f"{tpath}.activation", "max_level below min_level"))

    # Controllers.
    for cid, cfg in ps.controllers:
        _check_controller(cid, cfg, known_signals, groups, out)

    # Scenario mapping.
    n_ones = len(ps.one_ids)
    if ps.os_default not in scenario_map:
        out.append(Diagnostic("error", "os_mapping.default", f"unknown scenario {ps.os_default!r}"))
    elif scenario_map[ps.os_default].type != ScenarioType.NORMAL.value:
        out.append(Diagnostic("error", "os_mapping.default", "default scenario must be of type normal"))
    seen_rows = set()
    row_map = {}
    for i, (reactions, scenario_id) in enumerate(ps.os_rows):
        path = f"os_mapping.rows[{i}]"
        if len(reactions) != n_ones:
            out.append(
                Diagnostic("error", path, f"row arity {len(reactions)} does not match {n_ones} events")
            )
            continue
        if any(not REACTION_MIN <= r <= REACTION_MAX for r in reactions):
            out.append(Diagnostic("error", path, f"reaction levels outside [0, 4]: {list(reactions)}"))
        if reactions in seen_rows:
            out.append(Diagnostic("error", path, f"duplicate row for combination {list(reactions)}"))
        seen_rows.add(reactions)
        if scenario_id not in scenario_map:
            out.append(Diagnostic("error", path, f"unknown scenario {scenario_id!r}"))
            continue
        row_map[reactions] = scenario_id
        if all(r == 0 for r in reactions) and scenario_map[scenario_id].type != ScenarioType.NORMAL.value:
            out.append(
                Diagnostic("error", path, "the all-zero combination must map to a normal-type scenario")
            )

    # Coverage of reachable reaction combinations.
    if n_ones > 0 and not errors_of(out):
        per_one = []
        for one in ps.ones:
            per_one.append(_reachable_reactions(one.danger, one.reaction, range(one.max_level + 1)))
        for v in ps.virtual_ones:
            levels = sorted({lvl for _, lvl in v.rows})
            per_one.append(_reachable_reactions(v.danger, v.reaction, levels))
        out.extend(_coverage_diagnostics(per_one, row_map, {sc.type for sc in ps.scenarios}))

    return out


# ---------------------------------------------------------------------------
# Compile (typed runtime objects).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledSchedule:
    """Runtime-ready view of a validated schedule."""

    run: RunSpec
    monitor: MonitorConfig
    supervisor: SupervisorConfig
    groups: Mapping[str, ActuatorGroup]
    #: Controller id -> (type, settings with every default filled in).
    controllers: Mapping[str, Tuple[str, Mapping[str, Any]]]
    plant: PlantParams
    scripted: Mapping[str, Waveform]
    #: Event id -> monitored signal name, in trace column order (None for
    #: a virtual event); the trace row follows it.
    event_signals: Mapping[str, Optional[str]]

    @property
    def one_ids(self) -> Tuple[str, ...]:
        return self.supervisor.one_ids


class ValidationFailed(ConfigError):
    """``compile_schedule`` refused a schedule that has validation errors.

    ``diagnostics`` holds every finding of that validation, warnings
    included, so a caller can report them without validating again.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "schedule failed validation:\n  "
            + "\n  ".join(str(d) for d in errors_of(self.diagnostics))
        )


def compile_schedule(ps: PulseSchedule) -> CompiledSchedule:
    """Build runtime objects from a schedule, insisting on zero errors.

    Raises ``ValidationFailed`` if ``validate`` reports an error.
    """
    diagnostics = validate(ps)
    if errors_of(diagnostics):
        raise ValidationFailed(diagnostics)

    tables = {
        one.id: ThresholdTable(
            signal=one.signal,
            thresholds=one.thresholds,
            direction=one.direction,
            hysteresis=one.hysteresis,
        )
        for one in ps.ones
    }
    virtual_rules = tuple(
        VirtualOneRule(id=v.id, inputs=v.inputs, table={levels: lvl for levels, lvl in v.rows})
        for v in ps.virtual_ones
    )
    monitor = MonitorConfig(
        tables=tables,
        virtual_rules=virtual_rules,
        plant_failure_one=ps.run.plant_failure_one,
    )

    evaluations = {}
    for spec in list(ps.ones) + list(ps.virtual_ones):
        danger = dict(spec.danger)
        reaction = {DangerLevel.from_name(name): lvl for name, lvl in spec.reaction}
        evaluations[spec.id] = OneEvaluation(
            danger=tuple(DangerLevel.from_name(danger[lvl]) for lvl in range(spec.max_level + 1)),
            reaction=tuple(reaction[d] for d in DangerLevel),
            irreversible=frozenset(spec.irreversible),
        )

    scenarios = {
        sc.id: Scenario(
            id=sc.id,
            type=ScenarioType.from_name(sc.type),
            tasks=tuple(sorted(sc.tasks, key=lambda t: t.priority)),
        )
        for sc in ps.scenarios
    }
    os_mapping = OsMapping(
        rows={reactions: sid for reactions, sid in ps.os_rows},
        scenarios=scenarios,
        default=ps.os_default,
    )
    supervisor = SupervisorConfig(
        one_ids=ps.one_ids,
        evaluations=evaluations,
        os_mapping=os_mapping,
    )

    event_signals: Dict[str, Optional[str]] = {one.id: one.signal for one in ps.ones}
    event_signals.update((v.id, None) for v in ps.virtual_ones)
    return CompiledSchedule(
        run=ps.run,
        monitor=monitor,
        supervisor=supervisor,
        groups=ps.group_map(),
        controllers={
            cid: (cfg["type"], _complete(RUNTIMES[cfg["type"]], cfg)) for cid, cfg in ps.controllers
        },
        plant=ps.plant,
        scripted=dict(ps.scripted),
        event_signals=event_signals,
    )
