"""Supervisory off-normal-event handling for tokamak-style discharges.

The package wires a threshold-based event monitor, per-event danger and
reaction state machines, scenario selection, prioritized actuator
allocation and generic controllers into a deterministic fixed-period
control loop, closed against a 0-D surrogate plasma.
"""

__version__ = "0.1.0"
