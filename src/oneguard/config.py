"""Pulse-schedule document: parsing, then validation and compilation in one pass.

The schedule is a YAML document with sections ``run``, ``plant``,
``signals``, ``ones``, ``virtual_ones``, ``os_mapping``, ``scenarios``,
``controllers`` and ``actuator_groups``. Parsing is strict about shape
(unknown keys are rejected, every number must be finite, unit suffixes
must match the field's declared unit); ``validate`` then reports semantic
problems as diagnostics without throwing. ``validate`` is the only place
the schedule's rules are checked, and it builds the runtime objects as it
checks them: a schedule with zero errors comes back with its
``CompiledSchedule`` attached, whose objects assume the rules and cannot
raise ConfigError on any input trace. ``compile_schedule`` only refuses a
schedule with errors or hands that compiled schedule over.

YAML 1.1 note: an unquoted ``no`` loads as boolean false. Since "no" is a
legitimate danger-level name, bare booleans in danger positions are read
back as "no"/"yes" rather than rejected.
"""

from __future__ import annotations

import itertools
import math
import re
import reprlib
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import yaml

from .allocator import ADDITIVE, EXCLUSIVE, ActuatorGroup
from .controllers import FLAG, GROUP, HOLD, LINEAR, NUMBER, RUNTIMES, SIGNAL, Setting, Waveform
from .errors import ConfigError
from .model import (
    Activation,
    ControlTask,
    DANGER_LEVELS,
    EventState,
    EventTrigger,
    REACTION_MAX,
    REACTION_MIN,
    Record,
    SCENARIO_TYPES,
)
from .monitor import FALLING, MonitorConfig, RISING, ThresholdTable, VirtualOneRule
from .plant import PLANT_SIGNALS, DisruptionBoundary, PlantParams
from .supervisor import OneEvaluation, OsMapping, Scenario, SupervisorConfig

_QUANTITY_RE = re.compile(r"\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([^\s]*)\s*")


class Diagnostic(NamedTuple):
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


class Diagnostics(list):
    """What ``validate`` found, in order; ``schedule`` is the compiled schedule if none is an error, else None."""

    schedule: Optional[CompiledSchedule] = None


#: The default of a field a mapping must have; a field table's other
#: defaults stand in for an absent or null value.
REQUIRED = object()


class _Shape:
    """Error accumulator for the shape-checking pass.

    ``unit`` is the unit the section being read declares, for the numbers
    read after its unit field (None: no unit).
    """

    def __init__(self) -> None:
        self.errors: List[str] = []
        self.unit: Optional[str] = None

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def number(self, value: Any, path: str, unit: Optional[str] = None) -> float:
        """Parse a numeric leaf, optionally suffixed with a declared unit."""
        if isinstance(value, bool):
            self.fail(path, f"expected a number, got boolean {value}")
            return 0.0
        if isinstance(value, (int, float)):
            num = _as_float(value)
        elif isinstance(value, str):
            m = _QUANTITY_RE.fullmatch(value)
            if not m:
                self.fail(path, f"cannot parse number {reprlib.repr(value)}")
                return 0.0
            num = float(m.group(1))
            suffix = m.group(2)
            if suffix:
                if unit is None:
                    self.fail(path, f"field does not declare a unit, got suffix {reprlib.repr(suffix)}")
                elif suffix != unit:
                    self.fail(path, f"unit suffix {reprlib.repr(suffix)} does not match declared {reprlib.repr(unit)}")
        else:
            self.fail(path, f"expected a number, got {type(value).__name__}")
            return 0.0
        if not math.isfinite(num):
            self.fail(path, f"number must be finite, got {num!r}")
            return 0.0
        return num

    def integer(self, value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path, f"expected an integer, got {reprlib.repr(value)}")
            return 0
        return value

    def string(self, value: Any, path: str) -> str:
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {reprlib.repr(value)}")
            return ""
        return value

    def sequence(self, value: Any, path: str) -> List[Any]:
        if value is None:
            self.fail(path, "missing required list")
            return []
        if not isinstance(value, list):
            self.fail(path, f"expected a list, got {type(value).__name__}")
            return []
        return value

    def fields(self, node: Any, path: str, table: Mapping[str, Tuple[Reader, Any]]) -> Dict[str, Any]:
        """Read a mapping node by its field table of key -> (reader, default), in table order.

        ``path`` is "" for the document root. A null node reads as an empty
        mapping; a node that is no mapping gets only that line, and every
        key reads as absent.
        """
        where = path or "schedule"
        if node is None:
            node = {}
        if not isinstance(node, dict):
            self.fail(where, f"expected a mapping, got {type(node).__name__}")
            node = {}
        else:
            for key in node:
                if key not in table:
                    self.fail(where, f"unknown key {reprlib.repr(key)}")
            for key, (_, default) in table.items():
                if default is REQUIRED and key not in node:
                    self.fail(where, f"missing required key {key!r}")
        outer, self.unit = self.unit, None
        out = {}
        for key, (read, default) in table.items():
            value = node.get(key)
            if value is None and default is not REQUIRED:
                out[key] = default
            else:
                out[key] = read(self, value, f"{path}.{key}" if path else key)
        self.unit = outer
        return out


#: Parses one value: ``read(sh, value, path)``.
Reader = Callable[[_Shape, Any, str], Any]


def _danger_name(value: Any) -> str:
    # YAML 1.1 reads bare no/yes as booleans; map them back to names.
    if value is False:
        return "no"
    if value is True:
        return "yes"
    return value if isinstance(value, str) else reprlib.repr(value)


# ---------------------------------------------------------------------------
# Typed document model.
# ---------------------------------------------------------------------------

class RunSpec(NamedTuple):
    dt: float
    duration: float
    post_roll: float = 0.0
    plant_failure_one: Optional[str] = None


class OneSpec(NamedTuple):
    id: str
    signal: str
    direction: str
    thresholds: Tuple[float, ...]
    hysteresis: Tuple[float, ...]
    danger: Tuple[Tuple[int, str], ...]
    reaction: Tuple[Tuple[str, int], ...]
    irreversible: Tuple[int, ...]

    @property
    def max_level(self) -> int:
        return len(self.thresholds)


class VirtualOneSpec(NamedTuple):
    id: str
    inputs: Tuple[str, ...]
    rows: Tuple[Tuple[Tuple[int, ...], int], ...]
    danger: Tuple[Tuple[int, str], ...]
    reaction: Tuple[Tuple[str, int], ...]
    irreversible: Tuple[int, ...]

    @property
    def max_level(self) -> int:
        return max((lvl for _, lvl in self.rows), default=0)


class ScenarioSpec(NamedTuple):
    id: str
    type: str
    tasks: Tuple[ControlTask, ...]


class PulseSchedule(NamedTuple):
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


# ---------------------------------------------------------------------------
# Parse (shape pass).
# ---------------------------------------------------------------------------

def _number(unit: Optional[str] = None) -> Reader:
    """Reader of a number in ``unit``."""
    return lambda sh, value, path: sh.number(value, path, unit)


def _in_unit(sh: _Shape, value: Any, path: str) -> float:
    """A number in the unit its section declares."""
    return sh.number(value, path, sh.unit)


def _unit(sh: _Shape, value: Any, path: str) -> Optional[str]:
    """An event's or waveform's unit; the empty unit is declared too."""
    if not isinstance(value, str):
        sh.fail(path, "unit must be a string")
        return None
    sh.unit = value
    return value


def _group_unit(sh: _Shape, value: Any, path: str) -> str:
    """An actuator group's unit; an empty one declares no unit."""
    unit = sh.string(value, path)
    sh.unit = unit or None
    return unit


def _event_id(sh: _Shape, value: Any, path: str) -> Any:
    if not isinstance(value, str):
        sh.fail(path, "expected an event id string")
    return value


def _list(read: Reader) -> Reader:
    """Reader of a list whose items ``read`` parses."""
    return lambda sh, value, path: tuple(
        [read(sh, item, f"{path}[{i}]") for i, item in enumerate(sh.sequence(value, path))]
    )


def _pair(first: Reader, second: Reader, message: str, names: Tuple[str, str] = ("[0]", "[1]")) -> Reader:
    """Reader of a two-item list; ``names`` end the paths of its items."""

    def read(sh: _Shape, value: Any, path: str) -> Tuple[Any, Any]:
        if not isinstance(value, list) or len(value) != 2:
            sh.fail(path, message)
            return (0.0, 0.0)
        return (first(sh, value[0], path + names[0]), second(sh, value[1], path + names[1]))

    return read


def _section(table: Mapping[str, Tuple[Reader, Any]], build: Callable[..., Any]) -> Reader:
    """Reader of a mapping node that ``build`` makes from its fields, passed by key."""
    return lambda sh, node, path: build(**sh.fields(node, path, table))


def _named(read: Reader, message: str) -> Reader:
    """Reader of a mapping of names to values that ``read`` parses, as (name, value) pairs."""

    def read_named(sh: _Shape, node: Any, path: str) -> Tuple[Tuple[str, Any], ...]:
        if not isinstance(node, dict):
            sh.fail(path, message)
            return ()
        return tuple((str(name), read(sh, value, f"{path}.{name}")) for name, value in node.items())

    return read_named


def _row(levels: str, value: str, read: Reader) -> Reader:
    """Reader of a table row: a list of levels, and the ``read`` value they map to."""
    return _section({levels: (_list(_Shape.integer), REQUIRED), value: (read, REQUIRED)}, lambda **f: tuple(f.values()))


def _level_map(sh: _Shape, node: Any, path: str) -> Tuple[Tuple[int, str], ...]:
    if not isinstance(node, dict):
        sh.fail(path, "danger map must be a mapping of event level to danger name")
        return ()
    return tuple((sh.integer(key, f"{path}[{key!r}]"), _danger_name(value)) for key, value in node.items())


def _reaction_map(sh: _Shape, node: Any, path: str) -> Tuple[Tuple[str, int], ...]:
    if not isinstance(node, dict):
        sh.fail(path, "reaction map must be a mapping of danger name to reaction level")
        return ()
    return tuple((_danger_name(key), sh.integer(value, f"{path}[{key!r}]")) for key, value in node.items())


def _settings(sh: _Shape, value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        sh.fail(path, "expected a mapping")
        return {}
    return dict(value)


def _one(unit: Optional[str], hysteresis: Optional[Tuple[float, ...]], **fields: Any) -> OneSpec:
    one = OneSpec(hysteresis=hysteresis, **fields)
    # No hysteresis: a zero band per threshold.
    return one if hysteresis is not None else one._replace(hysteresis=(0.0,) * len(one.thresholds))


def _group(unit: str, command_range: Optional[Tuple[float, float]], **fields: Any) -> ActuatorGroup:
    group = ActuatorGroup(command_range=command_range, **fields)
    # No command range: from zero to the capacity.
    return group if command_range is not None else group._replace(command_range=(0.0, group.capacity))


_PAIRS = _list(_pair(_number(), _number(), "expected a [x, y] pair"))
_IRREVERSIBLE = (_list(_Shape.integer), (3, 4))
_CLASSIFICATION = {"danger": (_level_map, REQUIRED), "reaction": (_reaction_map, REQUIRED)}

# Each section's field table, in the order its fields are read and their errors reported.
_WAVEFORM = {
    "unit": (_unit, None),
    "interpolation": (_Shape.string, LINEAR),
    "points": (
        _list(_pair(_number("s"), _in_unit, "each breakpoint must be a [time, value] pair", (".time", ".value"))),
        REQUIRED,
    ),
}
_waveform = _section(_WAVEFORM, lambda unit, **fields: Waveform(**fields))


def _reference(sh: _Shape, node: Any, path: str) -> Waveform:
    """A task reference: a waveform, or a scalar promoted to a constant one."""
    if isinstance(node, dict):
        return _waveform(sh, node, path)
    return Waveform(points=((0.0, sh.number(node, path)),), interpolation=HOLD)


_EVENT_TRIGGER = {
    "one": (_Shape.string, REQUIRED),
    "min_level": (_Shape.integer, 0),
    "max_level": (_Shape.integer, None),
}
_ACTIVATION = {
    "t_start": (_number("s"), 0.0),
    "t_end": (_number("s"), None),
    "event": (_section(_EVENT_TRIGGER, lambda one, **fields: EventTrigger(one, **fields)), None),
}
_TASK = {
    "id": (_Shape.string, REQUIRED),
    "priority": (_Shape.integer, REQUIRED),
    "controller": (_Shape.string, REQUIRED),
    "group": (_Shape.string, REQUIRED),
    "reference": (_reference, None),
    "activation": (_section(_ACTIVATION, lambda event, **fields: Activation(trigger=event, **fields)), Activation()),
}
_SCENARIO = {
    "tasks": (_list(_section(_TASK, ControlTask)), ()),
    "id": (_Shape.string, REQUIRED),
    "type": (_Shape.string, REQUIRED),
}
_ONE = {
    "unit": (_unit, None),
    "thresholds": (_list(_in_unit), REQUIRED),
    "hysteresis": (_list(_in_unit), None),
    "irreversible": _IRREVERSIBLE,
    "id": (_Shape.string, REQUIRED),
    "signal": (_Shape.string, REQUIRED),
    "direction": (_Shape.string, REQUIRED),
    **_CLASSIFICATION,
}
_VIRTUAL_ONE = {
    "inputs": (_list(_Shape.string), REQUIRED),
    "rows": (_list(_row("levels", "level", _Shape.integer)), REQUIRED),
    "irreversible": _IRREVERSIBLE,
    "id": (_Shape.string, REQUIRED),
    **_CLASSIFICATION,
}
_GROUP = {
    "unit": (_group_unit, ""),
    "capacity": (_in_unit, REQUIRED),
    "command_range": (_pair(_in_unit, _in_unit, "expected a [lo, hi] pair"), None),
    "id": (_Shape.string, REQUIRED),
    "semantics": (_Shape.string, ADDITIVE),
}
_PLANT = {
    "tau_e": (_number("s"), REQUIRED),
    "tau_98": (_number("s"), REQUIRED),
    "tau_n": (_number("s"), REQUIRED),
    "k_gas": (_number(), REQUIRED),
    "p_ohmic": (_number("MW"), REQUIRED),
    "nbi_energy_limit": (_number("MJ"), REQUIRED),
    "w_init": (_number("MJ"), 0.0),
    "ne_init": (_number(), 0.0),
    "gas_init": (_number(), 0.0),
    "nbi_group": (_Shape.string, REQUIRED),
    "gas_group": (_Shape.string, REQUIRED),
    "degradation": (_PAIRS, REQUIRED),
    "boundary": (lambda sh, value, path: DisruptionBoundary(_PAIRS(sh, value, path)), REQUIRED),
}
_RUN = {
    "plant_failure_one": (_event_id, None),
    "dt": (_number("s"), REQUIRED),
    "duration": (_number("s"), REQUIRED),
    "post_roll": (_number("s"), 0.0),
}
_OS_MAPPING = {"rows": (_list(_row("reactions", "scenario", _Shape.string)), ()), "default": (_Shape.string, REQUIRED)}
_SCHEDULE = {
    "run": (_section(_RUN, RunSpec), REQUIRED),
    "plant": (_section(_PLANT, PlantParams), REQUIRED),
    "signals": (_named(_waveform, "expected a mapping of signal name to waveform"), ()),
    "ones": (_list(_section(_ONE, _one)), REQUIRED),
    "virtual_ones": (_list(_section(_VIRTUAL_ONE, VirtualOneSpec)), ()),
    "os_mapping": (_section(_OS_MAPPING, lambda rows, default: (default, rows)), REQUIRED),
    "scenarios": (_list(_section(_SCENARIO, ScenarioSpec)), REQUIRED),
    "controllers": (_named(_settings, "expected a mapping of controller id to settings"), REQUIRED),
    "actuator_groups": (_list(_section(_GROUP, _group)), REQUIRED),
}


def _schedule(signals: Any, os_mapping: Any, actuator_groups: Any, **fields: Any) -> PulseSchedule:
    os_default, os_rows = os_mapping
    return PulseSchedule(scripted=signals, os_default=os_default, os_rows=os_rows, groups=actuator_groups, **fields)


#: The deepest nesting of collections ``load_yaml`` accepts. A schedule
#: nests fewer than ten deep; libyaml's composer recurses once per level on
#: the C stack, and crashed the interpreter at 30 000 levels (8 MiB stack).
MAX_NESTING = 5000
# libyaml's safe loader where PyYAML has it builds the same documents several times faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str, what: str) -> Any:
    """Load one YAML document, raising ConfigError if ``what`` is not valid YAML or nests too deep."""
    try:
        # Each level of nesting opens with one of these characters, so their
        # count bounds the depth: only a text with that many is walked.
        if sum(map(text.count, "[{-:?")) > MAX_NESTING and _nests_deeper(text, MAX_NESTING):
            raise ConfigError(f"{what} nests collections more than {MAX_NESTING} deep")
        return yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, RecursionError) as exc:
        # RecursionError: PyYAML's pure-Python composer recurses per level too.
        raise ConfigError(f"{what} is not valid YAML: {exc}") from None
    except ValueError as exc:
        # From PyYAML's int() past Python's 4300-digit limit, or its date() on a 13th month.
        raise ConfigError(f"{what} cannot be loaded: {str(exc)[:200]}") from None


def _nests_deeper(text: str, limit: int) -> bool:
    """Whether ``text`` nests collections deeper than ``limit``, read off its event stream.

    Nothing recurses to build the stream. The walk stops one level past the
    limit, because libyaml's scanner takes time quadratic in the depth.
    """
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
        if depth > limit:
            return True
    return False


def load_document(text: str) -> Dict[str, Any]:
    """Load schedule text into its raw mapping, raising ConfigError if it is not one."""
    doc = load_yaml(text, "schedule")
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
    schedule = _section(_SCHEDULE, _schedule)(sh, doc, "")
    if sh.errors:
        raise ConfigError("schedule has shape errors:\n  " + "\n  ".join(sh.errors))
    return schedule


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

#: Shows the non-zero levels of a combination of more than 16 events, cut as reprlib cuts past 16 of them.
_SHORT = reprlib.Repr()
_SHORT.maxdict = 16


def _example(combo: Sequence[int]) -> str:
    """A level combination as diagnostics show it: whole up to 16 events, else its non-zero ``{position: level}``."""
    if len(combo) <= 16:
        return repr(list(combo))
    return _SHORT.repr({i: level for i, level in enumerate(combo) if level})


def _count(n: int) -> str:
    """A count whole up to 40 digits, else as 1.23e+45: never converted whole (Python refuses past 4300 digits)."""
    if n < 10**40:
        return str(n)
    e = int((n.bit_length() - 1) * math.log10(2))  # log10(n) rounded down, or one less
    e += n >= 10 ** (e + 1)
    lead = n // 10 ** (e - 2)
    return f"{lead // 100}.{lead % 100:02d}e+{e}"


def _items(
    section: str, items: Sequence[Any], what: str, out: List[Diagnostic], seen: Optional[set] = None
) -> Iterator[Tuple[str, Any]]:
    """``(path, item)`` for each item of a section, reporting a repeated id just before its item."""
    seen = set() if seen is None else seen
    for i, item in enumerate(items):
        path = f"{section}[{i}]"
        if item.id in seen:
            out.append(Diagnostic("error", path, f"duplicate {what} id {item.id!r}"))
        seen.add(item.id)
        yield path, item


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
) -> Dict[int, str]:
    """Check that ``danger`` is total over [0, max_level], and return it; gaps are counted, as the level can be huge."""
    seen = {}
    for lvl, name in danger:
        if lvl < 0 or lvl > max_level:
            out.append(Diagnostic("error", path, f"level {lvl} outside [0, {max_level}]"))
        if name not in DANGER_LEVELS:
            out.append(Diagnostic("error", path, f"unknown danger name {name!r}"))
        if lvl in seen:
            out.append(Diagnostic("error", path, f"duplicate entry for level {lvl}"))
        seen[lvl] = name
    missing = max_level + 1 - sum(1 for lvl in seen if 0 <= lvl <= max_level)
    if missing > 0:
        shown = list(itertools.islice((lvl for lvl in range(max_level + 1) if lvl not in seen), 4))
        text = f"{missing} missing levels (e.g. {shown})" if missing > 4 else f"missing levels {shown}"
        out.append(Diagnostic("error", path, f"non-total mapping: {text}"))
    return seen


def _check_reaction_map(reaction: Tuple[Tuple[str, int], ...], path: str, out: List[Diagnostic]) -> Dict[str, int]:
    """Check that ``reaction`` is total over the danger names and return its known names as a dict."""
    seen = {}
    for name, lvl in reaction:
        if name not in DANGER_LEVELS:
            out.append(Diagnostic("error", path, f"unknown danger name {name!r}"))
            continue
        if not REACTION_MIN <= lvl <= REACTION_MAX:
            out.append(
                Diagnostic("error", path, f"reaction {lvl} outside [{REACTION_MIN}, {REACTION_MAX}]")
            )
        if name in seen:
            out.append(Diagnostic("error", path, f"duplicate entry for danger {name!r}"))
        seen[name] = lvl
    missing = [n for n in DANGER_LEVELS if n not in seen]
    if missing:
        out.append(Diagnostic("error", path, f"non-total mapping: missing danger levels {missing}"))
    return seen


def _check_classification(spec: OneSpec | VirtualOneSpec, path: str, out: List[Diagnostic]) -> Optional[OneEvaluation]:
    """The danger map, reaction map and irreversible set of a base or virtual event.

    Returns the evaluation they make, or None if they have an error.
    """
    start = len(out)
    danger = _check_danger_map(spec.danger, spec.max_level, f"{path}.danger", out)
    reaction = _check_reaction_map(spec.reaction, f"{path}.reaction", out)
    for lvl in spec.irreversible:
        if not REACTION_MIN <= lvl <= REACTION_MAX:
            message = f"level {lvl} outside [{REACTION_MIN}, {REACTION_MAX}]"
            out.append(Diagnostic("error", f"{path}.irreversible", message))
    if errors_of(out[start:]):
        return None
    evaluation = OneEvaluation(
        danger=tuple(DANGER_LEVELS.index(danger[lvl]) for lvl in range(spec.max_level + 1)),
        reaction=tuple(reaction[name] for name in DANGER_LEVELS),
        irreversible=frozenset(spec.irreversible),
    )
    # The latch holds from its lowest level up, so it covers 3 and 4 exactly when it starts at 3 or below.
    if evaluation.latch_from > 3:
        message = "set does not cover the conventional irreversible levels {3, 4}"
        out.append(Diagnostic("warning", f"{path}.irreversible", message))
    return evaluation


def _runtime_class(kind: Any) -> Optional[type]:
    # Only a string can name a type; a list or mapping is not hashable.
    return RUNTIMES.get(kind) if isinstance(kind, str) else None


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
            return f"{key} references unknown group {reprlib.repr(value)}"
    elif value not in kind:
        return f"{key} must be one of {', '.join(map(repr, kind))}"
    return None


def _check_controller(
    cid: str, cfg: Mapping[str, Any], signals: set, groups: Mapping[str, ActuatorGroup], out: List[Diagnostic]
) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Check a controller's settings; returns its type and settings with the defaults filled in, None if untyped."""
    path = f"controllers.{cid}"
    kind = cfg.get("type")
    runtime = _runtime_class(kind)
    if runtime is None:
        out.append(Diagnostic("error", path, f"unknown controller type {reprlib.repr(kind)}"))
        return None
    keys = {s.key for s in runtime.settings}
    for key in cfg:
        if key != "type" and key not in keys:
            out.append(Diagnostic("error", path, f"unknown key {key!r}"))
    for setting in runtime.settings:
        message = _setting_error(setting, cfg, signals, groups)
        if message is not None:
            out.append(Diagnostic("error", path, message))
    settings = {s.key: cfg.get(s.key, s.default) for s in runtime.settings}
    if kind == "pid":
        lo, hi = settings["lo"], settings["hi"]
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) and lo > hi:
            out.append(Diagnostic("error", path, "output limits inverted (lo > hi)"))
    elif kind == "ntm":
        aim = settings["aim_group"]
        if isinstance(aim, str) and aim in groups and groups[aim].semantics != EXCLUSIVE:
            out.append(Diagnostic("error", path, f"aim_group {aim!r} must have exclusive semantics"))
    return kind, settings


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

    if not reachable(0, REACTION_MIN - 1):  # true with no events, so per_one[0] exists below
        return
    # A depth-first walk on an explicit stack, so that the depth is not
    # bounded by the interpreter's recursion limit. stack[i] holds the
    # values position i has yet to try; tops[i] is the maximum of prefix[:i].
    prefix: List[int] = []
    tops = [REACTION_MIN - 1]
    stack = [iter(per_one[0])]
    while stack:
        i = len(prefix)
        r = next((r for r in stack[-1] if reachable(i + 1, max(tops[i], r))), None)
        if r is None:
            stack.pop()
            if prefix:
                prefix.pop()
                tops.pop()
        elif i + 1 == n:
            yield (*prefix, r)
        else:
            prefix.append(r)
            tops.append(max(tops[i], r))
            stack.append(iter(per_one[i + 1]))


def _coverage_diagnostics(per_one: Sequence[Sequence[int]], mapping: OsMapping) -> List[Diagnostic]:
    """Check every reachable reaction tuple against the rows and fallback table of ``mapping``.

    ``per_one`` holds the reachable reaction levels of each event, in event
    order. A tuple without a row falls back on its maximum level k alone, so
    the tuples are counted per k instead of enumerated: the reachable tuples
    with maximum k number prod|R_i & [0, k]| minus prod|R_i & [0, k-1]|,
    less the rows among them. Each k without a fallback scenario gets one
    counted error. Only the tuples a diagnostic names, and the rows met on
    the way to them, are walked.
    """
    rows, fallback = mapping.rows, mapping.fallback
    rows_by_max = Counter(max(c) for c in rows if all(r in rs for r, rs in zip(c, per_one)))
    uncovered = {}
    below = 0  # reachable tuples whose levels all lie below k
    for k in range(REACTION_MIN, REACTION_MAX + 1):
        upto = math.prod(sum(r <= k for r in rs) for rs in per_one)
        uncovered[k] = upto - below - rows_by_max[k]
        below = upto

    def examples(maxima: set) -> Iterator[Tuple[int, ...]]:
        return itertools.islice((c for c in _combos_with_max(per_one, maxima) if c not in rows), 4)

    out: List[Diagnostic] = []
    how = {REACTION_MIN: "default scenario"}  # each level with a fallback, and the rule that picks it
    for k, count in uncovered.items():
        if fallback[k] is None:
            if count:
                shown = "; ".join(map(_example, examples({k})))
                message = f"{_count(count)} reachable combination(s) have no row and no {SCENARIO_TYPES[k]!r}"
                out.append(Diagnostic("error", "os_mapping.rows", f"{message} scenario to fall back to: {shown}"))
        elif k > REACTION_MIN:
            how[k] = f"max-severity fallback to type {mapping.scenarios[fallback[k]].type!r}"
    n_fallback = sum(uncovered[k] for k in how)
    if n_fallback:
        shown = "; ".join(f"{_example(c)} -> {how[max(c)]}" for c in examples(set(how)))
        out.append(
            Diagnostic(
                "warning",
                "os_mapping.rows",
                f"{_count(n_fallback)} reachable combination(s) have no explicit row and rely on "
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
    shown = ", ".join(map(_example, examples))
    return f"combiner not total: {_count(missing)} missing combinations (e.g. {shown})"


def validate(ps: PulseSchedule) -> Diagnostics:
    """Semantic checks, building the runtime objects as they pass; never raises on content.

    The diagnostics' ``schedule`` is the compiled schedule when none of
    them is an error.
    """
    out = Diagnostics()
    groups: Dict[str, ActuatorGroup] = {}
    controller_map = dict(ps.controllers)
    known_signals = set(PLANT_SIGNALS) | {name for name, _ in ps.scripted}

    # Run section.
    if ps.run.dt <= 0.0:
        out.append(Diagnostic("error", "run.dt", "control period must be positive"))
    for key in ("duration", "post_roll"):
        value = getattr(ps.run, key)
        if value < 0.0:
            out.append(Diagnostic("error", f"run.{key}", f"{key} must be >= 0"))
        elif ps.run.dt > 0.0 and not math.isfinite(value / ps.run.dt):
            # The run counts its ticks as int(round(value / dt)).
            out.append(Diagnostic("error", f"run.{key}", f"tick count {key} / dt must be finite"))
    if ps.run.plant_failure_one is not None and ps.run.plant_failure_one not in ps.one_ids:
        out.append(
            Diagnostic("error", "run.plant_failure_one", f"unknown event {ps.run.plant_failure_one!r}")
        )

    # Actuator groups.
    for path, g in _items("actuator_groups", ps.groups, "group", out):
        groups[g.id] = g
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
    boundary = ps.plant.boundary
    for table, path in ((ps.plant.degradation, "plant.degradation"), (boundary.vertices, "plant.boundary")):
        xs = [x for x, _ in table]
        if len(xs) < 2:
            out.append(Diagnostic("error", path, "needs at least two points"))
        elif any(a >= b for a, b in zip(xs, xs[1:])):
            out.append(Diagnostic("error", path, "densities must be strictly increasing"))
        elif table is boundary.vertices and not all(0.0 < seg[4] < math.inf for seg in boundary.segments):
            # The signed distance divides by each segment's squared length.
            message = "a segment's squared length, extended ends included, is not positive and finite"
            out.append(Diagnostic("error", path, message))
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
    tables: Dict[str, ThresholdTable] = {}
    evaluations: Dict[str, Optional[OneEvaluation]] = {}
    seen_ones = set()
    for path, one in _items("ones", ps.ones, "event", out, seen_ones):
        if one.signal not in known_signals:
            out.append(Diagnostic("error", f"{path}.signal", f"unknown signal {one.signal!r}"))
        if one.direction not in (RISING, FALLING):
            out.append(Diagnostic("error", f"{path}.direction", f"must be {RISING!r} or {FALLING!r}"))
        ts, hs = one.thresholds, one.hysteresis
        table = tables[one.id] = ThresholdTable(one.signal, ts, one.direction, hs)
        if not ts:
            out.append(Diagnostic("error", f"{path}.thresholds", "needs at least one threshold"))
        if len(hs) != len(ts):
            out.append(
                Diagnostic("error", f"{path}.hysteresis", f"{len(hs)} bands for {len(ts)} thresholds")
            )
        elif ts:
            if any(h < 0.0 for h in hs):
                out.append(Diagnostic("error", f"{path}.hysteresis", "bands must be >= 0"))
            if one.direction in (RISING, FALLING):
                # The table holds a falling event's thresholds negated, so both read in rising order.
                rs, order = table.rising, "increasing" if one.direction == RISING else "decreasing"
                if any(a >= b for a, b in zip(rs, rs[1:])):
                    out.append(Diagnostic("error", f"{path}.thresholds", f"must be strictly {order}"))
                elif any(rs[j] + hs[j] >= table.release[j + 1] for j in range(len(rs) - 1)):
                    out.append(Diagnostic("error", f"{path}.hysteresis", "bands overlap neighbouring thresholds"))
        evaluations[one.id] = _check_classification(one, path, out)

    # Virtual events; an input names the first base event of its id.
    base_levels = {o.id: o.max_level for o in reversed(ps.ones)}
    virtual_rules: List[VirtualOneRule] = []
    for path, v in _items("virtual_ones", ps.virtual_ones, "event", out, seen_ones):
        if not v.inputs:
            out.append(Diagnostic("error", f"{path}.inputs", "needs at least one input"))
        ranges: List[range] = []
        for j, input_id in enumerate(v.inputs):
            if input_id not in base_levels:
                out.append(
                    Diagnostic(
                        "error",
                        f"{path}.inputs[{j}]",
                        f"input {input_id!r} is not a base event (virtuals combine base events only)",
                    )
                )
                ranges.append(range(1))
            else:
                ranges.append(range(base_levels[input_id] + 1))
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
        virtual_rules.append(VirtualOneRule(v.id, v.inputs, table))
        evaluations[v.id] = _check_classification(v, path, out)

    # Scenarios and tasks.
    bindings: Dict[str, Tuple[str, ControlTask]] = {}  # task id -> its first path and task
    scenarios: Dict[str, Scenario] = {}
    for path, sc in _items("scenarios", ps.scenarios, "scenario", out):
        tasks = tuple(sorted(sc.tasks, key=lambda t: t.priority))
        scenarios[sc.id] = Scenario(sc.id, sc.type, tasks)
        if sc.type not in SCENARIO_TYPES:
            out.append(Diagnostic("error", f"{path}.type", f"unknown scenario type {sc.type!r}"))
        seen_prio: Dict[int, str] = {}
        for tpath, task in _items(f"{path}.tasks", sc.tasks, "task", out):
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
    controllers = {cid: _check_controller(cid, cfg, known_signals, groups, out) for cid, cfg in ps.controllers}

    # Scenario mapping.
    n_ones = len(ps.one_ids)
    if ps.os_default not in scenarios:
        out.append(Diagnostic("error", "os_mapping.default", f"unknown scenario {ps.os_default!r}"))
    elif scenarios[ps.os_default].type != "normal":
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
            message = f"reaction levels outside [{REACTION_MIN}, {REACTION_MAX}]: {list(reactions)}"
            out.append(Diagnostic("error", path, message))
        if reactions in seen_rows:
            out.append(Diagnostic("error", path, f"duplicate row for combination {list(reactions)}"))
        seen_rows.add(reactions)
        if scenario_id not in scenarios:
            out.append(Diagnostic("error", path, f"unknown scenario {scenario_id!r}"))
            continue
        row_map[reactions] = scenario_id
        if all(r == 0 for r in reactions) and scenarios[scenario_id].type != "normal":
            out.append(
                Diagnostic("error", path, "the all-zero combination must map to a normal-type scenario")
            )

    # Coverage of reachable reaction combinations, on the mapping the
    # supervisor runs. A base event reports every level, a virtual one its
    # rows' outputs; the latch adds no reaction. Without errors the event
    # ids are unique, so ``evaluations`` holds one per event, in order.
    mapping = OsMapping(row_map, scenarios, ps.os_default)
    if n_ones > 0 and not errors_of(out):
        outputs = [range(one.max_level + 1) for one in ps.ones] + [rule.table.values() for rule in virtual_rules]
        per_one = [
            sorted({ev.reaction[ev.danger[lvl]] for lvl in levels}) for ev, levels in zip(evaluations.values(), outputs)
        ]
        out.extend(_coverage_diagnostics(per_one, mapping))
    if errors_of(out):
        return out

    pf = ps.run.plant_failure_one
    failure = None if pf is None else EventState(pf, len(evaluations[pf].danger) - 1)
    out.schedule = CompiledSchedule(
        run=ps.run,
        monitor=MonitorConfig(tables, tuple(virtual_rules), failure),
        supervisor=SupervisorConfig(ps.one_ids, evaluations, mapping),
        groups=groups,
        controllers=controllers,
        plant=ps.plant,
        scripted=dict(ps.scripted),
        event_signals={one_id: t.signal for one_id, t in tables.items()} | dict.fromkeys(r.id for r in virtual_rules),
    )
    return out


# ---------------------------------------------------------------------------
# The compiled schedule, which validate builds.
# ---------------------------------------------------------------------------

class CompiledSchedule(Record):
    """Runtime-ready view of a validated schedule.

    ``controllers`` maps each controller id to its (type, settings with
    every default filled in). ``event_signals`` maps each event id to its
    monitored signal name, in trace column order (None for a virtual
    event); the trace row follows it.
    """

    __slots__ = ("run", "monitor", "supervisor", "groups", "controllers", "plant", "scripted", "event_signals")

    def __init__(
        self, run: RunSpec, monitor: MonitorConfig, supervisor: SupervisorConfig, groups: Mapping[str, ActuatorGroup],
        controllers: Mapping[str, Tuple[str, Mapping[str, Any]]], plant: PlantParams, scripted: Mapping[str, Waveform],
        event_signals: Mapping[str, Optional[str]],
    ) -> None:
        self.run, self.monitor, self.supervisor, self.groups = run, monitor, supervisor, groups
        self.controllers, self.plant, self.scripted, self.event_signals = controllers, plant, scripted, event_signals

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
    """The runtime objects ``validate`` built, raising ``ValidationFailed`` if it reports an error."""
    diagnostics = validate(ps)
    if diagnostics.schedule is None:
        raise ValidationFailed(diagnostics)
    return diagnostics.schedule
