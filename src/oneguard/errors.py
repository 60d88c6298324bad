"""Exception types shared across the package."""


class ConfigError(Exception):
    """A schedule document, file or command-line override that cannot be used.

    Only the schedule's parser and compiler and the command line raise
    this. The runtime components assume a schedule that ``validate``
    accepted and never check it again, so a run cannot raise it.
    """


class SimFault(Exception):
    """The surrogate plant received a non-finite actuator command."""


class TraceError(Exception):
    """A trace file cannot be replayed (bad columns, non-monotone time)."""
