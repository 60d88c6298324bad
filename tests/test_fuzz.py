"""The command line on structurally mutated inputs.

The README promises that ``oneguard`` exits 0, 2, 3 or 64 (1 only for an
output it cannot write) and never shows a traceback. The fuzzers of
``test_acceptance`` draw well-formed schedules and perturb numbers; these
draw what they do not: the shipped schedules with nodes of the wrong type,
empty and very long lists, non-string keys, ids holding commas, quotes,
``%`` or newlines, and numbers at and past the ends of the float range,
all also as ``--set`` values; and, separately, mutated trace files for
``replay``. Each example runs ``cli.main`` in-process and requires an
allowed exit, no exception and no stderr line over 1000 characters.
"""

import contextlib
import copy
import csv
import functools
import io
import itertools
import math
import os
import tempfile
from unittest import mock

import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from oneguard import cli
from oneguard import config as cfg
from oneguard import harness

from conftest import DENSITY_LIMIT, DUAL_NTM

SHIPPED = {path: yaml.safe_load(path.read_text(encoding="utf-8")) for path in (DENSITY_LIMIT, DUAL_NTM)}

#: Exits a run of a writable output may end with.
ALLOWED = {harness.EXIT_CLEAN, harness.EXIT_DISRUPTED, harness.EXIT_SHUTDOWN, harness.EXIT_CONFIG}

#: Ticks a fuzzed run may take before it counts as running clean; a mutated
#: duration or dt can ask for more ticks than a test can wait for.
TICK_BUDGET = 400

ODD_TEXT = st.text(st.sampled_from(list("ab0,;\"'%\n\r\t :{}[]#&*!|>-\\é")), min_size=1, max_size=8)
#: The ends of the float range, where a sum or product of two finite values overflows.
EXTREMES = st.sampled_from([1.0e308, -1.0e308, 1.7976931348623157e308, -1.7976931348623157e308])
ODD_NUMBERS = st.one_of(
    EXTREMES,
    st.sampled_from([5e-324, -5e-324, -0.0, math.inf, -math.inf, math.nan]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400), -1, 0]),
    st.floats(),
    # Plain YAML reads these as strings; the schedule reads them as numbers.
    st.sampled_from(["1e400", "-1e400", "1e400 s", "5e-324 s", "-1.0e+308 MW", "nan", "inf s"]),
)
ODD_VALUES = st.one_of(
    ODD_NUMBERS,
    ODD_TEXT,
    st.sampled_from([None, True, False, "", [], {}, [[]], [None], {"a": 1}, [1.0e308, -1.0e308]]),
)
ODD_KEYS = st.one_of(st.integers(-3, 3), st.sampled_from([None, True, 1.5, -0.0]), ODD_TEXT)
#: ``--set`` values, as YAML text.
ODD_SET_VALUES = st.one_of(
    st.sampled_from([
        "1e400", "-1e400", "1.0e+308", "-1.0e+308", "5e-324", "1.0e+308 s", "-1", "-99999999999999999999999",
        "null", "~", "[]", "{}", "[1, [2]]", "{a: 1}", "'a,b'", '"a\\nb"', "'%s'", "[", "'", "&a", "*a",
        "!!binary x", "!!python/object:os.system x", "2020-13-45", "0x__",
        "{points: [[0.0, -1.0e+308], [0.2, 1.0e+308]]}",
    ]),
    ODD_NUMBERS.map(repr),
    ODD_TEXT,
)


class _OutOfTicks(Exception):
    """Raised by the plant once a fuzzed run has taken ``TICK_BUDGET`` ticks."""


def node_paths(node, prefix=()):
    """The path (keys and indices) of every node under ``node``, ``node`` itself included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def strings_in(node):
    """Every string key and string value under ``node``."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from strings_in(key)
            yield from strings_in(child)
    elif isinstance(node, list):
        for child in node:
            yield from strings_in(child)


def renamed(node, old, new):
    """``node`` with every string key and value equal to ``old`` replaced by ``new``, so references still agree."""
    if isinstance(node, dict):
        return {renamed(key, old, new): renamed(child, old, new) for key, child in node.items()}
    if isinstance(node, list):
        return [renamed(child, old, new) for child in node]
    return new if node == old and isinstance(node, str) else node


def is_number(node):
    """True for a number leaf: an int or float, or a number with a unit (``0.01 s``)."""
    if isinstance(node, str):
        node = node.split(" ")[0]
        return node.replace(".", "", 1).replace("e+", "", 1).replace("e-", "", 1).lstrip("-").isdigit()
    return isinstance(node, (int, float)) and not isinstance(node, bool)


@st.composite
def mutated_documents(draw):
    """A shipped schedule document after zero to two mutations.

    Most mutations keep the schedule valid, so that its run is reached: a
    number leaf (a controller setting, a task reference, a waveform point,
    a threshold, a plant constant) becomes an odd number, a task's
    reference becomes a two-point waveform of odd numbers, or a string
    (an id and every reference to it) gains odd characters. The others
    replace any node with a node of another type or an odd value, empty a
    list or repeat it up to 400 times, or put a non-string key in a mapping.
    """
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["number", "number", "number", "reference", "reference", "rename", "rename", "replace", "resize", "key"]
        ))
        if kind == "rename":
            old = draw(st.sampled_from(sorted(set(strings_in(doc)))))
            doc = renamed(doc, old, draw(st.one_of(ODD_TEXT, ODD_TEXT.map(lambda odd: old + odd))))
            continue
        paths = [p for p in node_paths(doc) if p]
        if kind == "number":
            paths = [p for p in paths if is_number(node_at(doc, p))] or paths
        elif kind == "reference":
            paths = [p + ("reference",) for p in paths if p[-2:-1] == ("tasks",)] or paths
        *parent_path, leaf = draw(st.sampled_from(paths))
        parent = node_at(doc, parent_path)
        node = parent.get(leaf) if isinstance(parent, dict) else parent[leaf]
        if kind == "number":
            parent[leaf] = draw(ODD_NUMBERS)
        elif kind == "reference":
            times = [0.0, draw(st.sampled_from([0.1, 0.2, 1.0, 5e-324, 1.0e308]))]
            values = draw(st.lists(st.one_of(EXTREMES, ODD_NUMBERS), min_size=2, max_size=2))
            parent[leaf] = {"points": [list(point) for point in zip(times, values)]}
        elif kind == "resize" and isinstance(node, list):
            parent[leaf] = node * draw(st.sampled_from([0, 2, 50, 400]))
        elif kind == "key" and isinstance(node, dict) and node:
            old = draw(st.sampled_from(list(node)))
            node[draw(ODD_KEYS)] = node.pop(old) if draw(st.booleans()) else draw(ODD_VALUES)
        else:
            parent[leaf] = draw(ODD_VALUES)
    return doc


def overrides(doc):
    """Zero to two ``--set`` arguments.

    Mostly an odd number on a number leaf of ``doc``, as YAML text; else
    an odd value on any path of ``doc``, or on an odd path.
    """
    paths = [p for p in node_paths(doc) if p]
    dotted = [".".join(map(str, p)) for p in paths]
    numbers = [key for key, p in zip(dotted, paths) if is_number(node_at(doc, p))] or dotted
    assignment = st.one_of(
        st.tuples(st.sampled_from(numbers), ODD_NUMBERS.map(repr)),
        st.tuples(st.sampled_from(numbers), ODD_NUMBERS.map(repr)),
        st.tuples(st.one_of(st.sampled_from(dotted), ODD_TEXT), ODD_SET_VALUES),
    )
    sets = st.lists(assignment.map("=".join), max_size=2)
    return sets.map(lambda values: [arg for value in values for arg in ("--set", value)])


def run_cli(argv):
    """``(exit code, stderr)`` of ``cli.main(argv)`` run in-process; any exception propagates as a traceback would."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(argv, code, stderr):
    assert code in ALLOWED, (argv, code, stderr[-2000:])
    assert "Traceback" not in stderr
    assert max(map(len, stderr.splitlines()), default=0) <= 1000, (argv, stderr[:2000])


def budgeted(plant_step):
    """``plant_step`` that raises ``_OutOfTicks`` on its call past ``TICK_BUDGET``."""
    ticks = itertools.count(1)

    def step(*args, **kwargs):
        if next(ticks) > TICK_BUDGET:
            raise _OutOfTicks
        return plant_step(*args, **kwargs)

    return step


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_mutated_schedules_and_overrides_exit_cleanly(data):
    doc = data.draw(mutated_documents())
    sets = data.draw(overrides(doc))
    until = data.draw(st.sampled_from([[]] * 7 + [["--until", "1e400"], ["--until", "nan"], ["--until", "-1"]]))
    with tempfile.TemporaryDirectory() as tmp:
        schedule = os.path.join(tmp, "schedule.yaml")
        with open(schedule, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False, allow_unicode=True)
        argv = ["validate", schedule]
        assert_clean_exit(argv, *run_cli(argv))
        argv = ["run", schedule, *sets, *until, "--out", os.path.join(tmp, "trace.csv")]
        with mock.patch.object(harness, "plant_step", budgeted(harness.plant_step)):
            try:
                code, stderr = run_cli(argv)
            except _OutOfTicks:
                event("run out of ticks")
                return
        event(f"run exit {code}")
        assert_clean_exit(argv, code, stderr)


@functools.lru_cache(maxsize=None)
def shipped_trace(path):
    """The rows of the shipped schedule's own trace."""
    trace = harness.run(cfg.compile_schedule(cfg.parse_file(path))).trace_text
    return tuple(map(tuple, csv.reader(io.StringIO(trace))))


ODD_CELLS = st.one_of(
    st.sampled_from([
        "", "nan", "inf", "-inf", "1e400", "-1", "5", "0.5", "-0", " 1", "0x10", "1_0", "１",
        "99999999999999999999999", "9" * 5000, "\x00", "%s", "a,b", '"', "\n",
    ]),
    ODD_TEXT,
)


@st.composite
def mutated_traces(draw):
    """A shipped trace, as text, after one to three row, column, cell or byte mutations."""
    path = draw(st.sampled_from(sorted(SHIPPED)))
    rows = [list(row) for row in shipped_trace(path)]
    truncate = None
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["cell", "cell", "header", "drop_row", "copy_row", "reverse", "drop_column", "ragged", "truncate"]
        ))
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        if not rows:
            break
        if kind in ("cell", "header"):
            row = rows[0 if kind == "header" else i]
            if row:
                row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
        elif kind == "drop_row":
            del rows[i]
        elif kind == "copy_row":
            rows.insert(i, list(rows[draw(st.integers(0, len(rows) - 1))]))
        elif kind == "reverse":
            rows[1:] = rows[:0:-1]
        elif kind == "drop_column":
            j = draw(st.integers(0, len(rows[0])))
            rows = [row[:j] + row[j + 1 :] for row in rows]
        elif kind == "ragged":
            rows[i] = rows[i][: draw(st.integers(0, len(rows[i])))] + draw(st.lists(ODD_CELLS, max_size=3))
        else:
            truncate = draw(st.floats(0.0, 1.0))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    text = out.getvalue()
    if truncate is not None:
        text = text[: int(len(text) * truncate)]
    return path, text


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_traces())
def test_mutated_traces_replay_cleanly(drawn):
    schedule, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.csv")
        with open(trace, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        argv = ["replay", trace, str(schedule), "--out", os.path.join(tmp, "decisions.csv")]
        code, stderr = run_cli(argv)
        event(f"replay exit {code}")
        assert_clean_exit(argv, code, stderr)
