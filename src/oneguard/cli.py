"""Command-line entry points: run, replay, validate.

Exit codes: 0 clean completion, 2 the surrogate plasma disrupted, 3 the
discharge ended inside a shutdown-type scenario, 64 schedule invalid,
trace unusable or command line wrong, 1 an output file could not be
written.
"""

from __future__ import annotations

import argparse
import reprlib
import sys
from typing import List, NoReturn, Optional

from . import config as cfg
from . import harness
from .errors import ConfigError, TraceError


def _list_index(node: list, key: str, path: str) -> int:
    try:
        index = int(key)
    except ValueError:
        raise ConfigError(f"override path {reprlib.repr(path)}: {reprlib.repr(key)} is not a list index") from None
    if not -len(node) <= index < len(node):
        raise ConfigError(f"override path {reprlib.repr(path)}: index {index} outside a list of {len(node)}")
    return index


def _apply_override(doc: dict, assignment: str) -> None:
    """Apply one ``dotted.path=value`` override onto the raw document."""
    if "=" not in assignment:
        raise ConfigError(f"override {reprlib.repr(assignment)} is not of the form key=value")
    path, raw_value = assignment.split("=", 1)
    value = cfg.load_yaml(raw_value, f"override {reprlib.repr(assignment)}: value")
    keys = path.split(".")
    node = doc
    for key in keys[:-1]:
        if isinstance(node, list):
            node = node[_list_index(node, key, path)]
        elif isinstance(node, dict):
            if key not in node:
                raise ConfigError(f"override path {reprlib.repr(path)}: no such key {reprlib.repr(key)}")
            node = node[key]
        else:
            raise ConfigError(f"override path {reprlib.repr(path)}: cannot descend into {reprlib.repr(key)}")
    leaf = keys[-1]
    if isinstance(node, list):
        node[_list_index(node, leaf, path)] = value
    elif isinstance(node, dict):
        node[leaf] = value
    else:
        raise ConfigError(f"override path {reprlib.repr(path)}: cannot assign to {reprlib.repr(leaf)}")


def _load_schedule(path: str, overrides: List[str], until: Optional[float]) -> cfg.PulseSchedule:
    doc = cfg.load_document(cfg.read_text(path))
    for assignment in overrides:
        _apply_override(doc, assignment)
    if until is not None and isinstance(doc.get("run"), dict):
        doc["run"]["duration"] = until
    return cfg.parse_document(doc)


def _write(text: str, out: Optional[str], what: str) -> bool:
    """Write ``text`` to ``out`` (stdout when None); False after reporting an I/O failure."""
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _print_diagnostics(diagnostics) -> None:
    for d in diagnostics:
        print(str(d), file=sys.stderr)


def _refuse(exc: Exception) -> int:
    """Report an unusable input: every diagnostic of a schedule that failed validation, else one error line."""
    if isinstance(exc, cfg.ValidationFailed):
        _print_diagnostics(exc.diagnostics)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return harness.EXIT_CONFIG


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        ps = cfg.parse_file(args.schedule)
    except (ConfigError, OSError) as exc:
        return _refuse(exc)
    diagnostics = cfg.validate(ps)
    _print_diagnostics(diagnostics)
    n_err = len(cfg.errors_of(diagnostics))
    n_warn = len(diagnostics) - n_err
    print(f"{args.schedule}: {n_err} error(s), {n_warn} warning(s)")
    return harness.EXIT_CONFIG if n_err else harness.EXIT_CLEAN


def cmd_run(args: argparse.Namespace) -> int:
    try:
        ps = _load_schedule(args.schedule, args.set or [], args.until)
        compiled = cfg.compile_schedule(ps)
        result = harness.run(compiled)
    except (ConfigError, OSError) as exc:
        return _refuse(exc)
    if not _write(result.trace_text, args.out, "trace"):
        return 1
    status = {
        harness.EXIT_CLEAN: "completed",
        harness.EXIT_DISRUPTED: "disrupted",
        harness.EXIT_SHUTDOWN: "shutdown",
    }[result.exit_code]
    print(
        f"{status}: {result.rows} tick(s), final scenario {result.final_scenario!r}, "
        f"{result.violations} command violation(s), {result.faults} monitor fault(s)",
        file=sys.stderr,
    )
    return result.exit_code


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        ps = cfg.parse_file(args.schedule)
        compiled = cfg.compile_schedule(ps)
        rows = harness.replay_file(compiled, args.trace)
    except (ConfigError, TraceError, OSError) as exc:
        return _refuse(exc)
    if not _write(harness.replay_to_csv(rows, compiled), args.out, "decisions"):
        return 1
    return harness.EXIT_CLEAN


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 64: exit 2 means a disruption."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(harness.EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oneguard",
        description="Supervisory off-normal-event handling against a surrogate plasma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a schedule in closed loop and write the trace")
    p_run.add_argument("schedule", help="pulse-schedule YAML file")
    p_run.add_argument("--out", help="trace output path (default: stdout)")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a schedule entry by dotted path (repeatable)",
    )
    p_run.add_argument("--until", type=float, help="override run duration in seconds")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-run the supervisor over recorded event levels")
    p_replay.add_argument("trace", help="trace file with time and evt_* columns")
    p_replay.add_argument("schedule", help="pulse-schedule YAML file")
    p_replay.add_argument("--out", help="decision output path (default: stdout)")
    p_replay.set_defaults(func=cmd_replay)

    p_validate = sub.add_parser("validate", help="check a schedule and print diagnostics")
    p_validate.add_argument("schedule", help="pulse-schedule YAML file")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
