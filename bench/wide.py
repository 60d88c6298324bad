"""Seeded generator for the ``wide_switching`` schedule.

The generator emits schedule text only; the program under test sees
nothing else. Every seed produces the same shape (event, scenario, task,
group and breakpoint counts, and the same coverage product), so the cost
of parsing, validating and running it does not depend on the seed; the
seed moves threshold scales, pulse timing, pulse heights, activation
levels and which scenario each explicit row names.

Shape:

* 10 base events, each watching its own scripted signal with three
  thresholds and hysteresis bands, alternately rising and falling;
* 1 virtual event combining the first four base events (a total table of
  4**4 rows);
* 8 scenarios (2 normal, 3 recovery, 2 backup, 1 soft shutdown), 13
  distinct tasks on 5 actuator groups (one exclusive);
* every reaction ladder except the last event's stays below the
  irreversibility latch; the last event reaches reaction 3 only in the
  final slot, so the run ends latched in the shutdown scenario (exit 3).

Signal script: the run is cut into slots; each slot is quiet (all events
at level 0, so the default scenario is selected), single (one event
pulses, which an explicit row covers) or multi (several events overlap,
which mostly falls back to the max-severity rule). Pulses climb through
one to three thresholds and fall back out through the hysteresis bands,
some pausing inside a band on the way down.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import yaml

N_BASE = 10
N_VIRTUAL_INPUTS = 4
N_LEVELS = 3  # thresholds per base event
DT = 0.01
SLOT_S = 0.5
# Slot kinds between the opening quiet slot and the closing latch slot.
SLOT_KINDS = ("quiet",) * 7 + ("single",) * 15 + ("multi",) * 16
N_SLOTS = len(SLOT_KINDS) + 2  # 20 s of run time, 2000 ticks
MULTI_WIDTH = 3  # events pulsing together in a multi slot
LATCH_EVENT = N_BASE - 1  # the one ladder that reaches the latch
RAMP_S = 0.08  # time for a pulse to climb or fall between baseline and peak

GROUPS = (
    {"id": "nbi", "capacity": 1.3, "semantics": "additive", "unit": "MW"},
    {"id": "gas", "capacity": 40.0, "semantics": "additive", "unit": "au"},
    {"id": "ec_power", "capacity": 1.0, "semantics": "additive", "unit": "MW"},
    {"id": "ec_aim", "capacity": 1.0, "semantics": "exclusive", "command_range": [0.0, 1.0]},
    {"id": "ic_power", "capacity": 0.8, "semantics": "additive", "unit": "MW"},
)

SCENARIOS = (
    ("normal", "normal"),
    ("normal_b", "normal"),
    ("recovery_a", "recovery"),
    ("recovery_b", "recovery"),
    ("recovery_c", "recovery"),
    ("backup_a", "backup"),
    ("backup_b", "backup"),
    ("shutdown", "soft_shutdown"),
)


def _event_ids() -> List[str]:
    return [f"e{i}" for i in range(N_BASE)] + ["v0"]


def _pulse_points(
    start: float, width: float, peak: float, band: float, base: float
) -> List[Tuple[float, float]]:
    """Breakpoints of one pulse in "badness" units (0 = baseline).

    The pulse climbs to ``peak`` and holds; when ``band`` is given it then
    pauses at ``band`` (inside the hysteresis band of the level it held)
    before returning to ``base``.
    """
    t_up = start + RAMP_S
    t_hold = start + width * 0.5
    pts = [(start, base), (t_up, peak), (t_hold, peak)]
    if band is not None:
        pts.append((t_hold + RAMP_S, band))
        pts.append((start + width * 0.8, band))
    pts.append((start + width, base))
    return pts


def generate(seed: int) -> Tuple[str, Dict[str, object]]:
    """Return ``(schedule_text, shape)`` for one seed."""
    rng = random.Random(seed)
    ids = _event_ids()
    duration = N_SLOTS * SLOT_S

    # Per-event thresholds, in badness units mapped to signal units.
    scales = [round(rng.uniform(0.5, 2.0), 3) for _ in range(N_BASE)]
    falling = [i % 2 == 1 for i in range(N_BASE)]
    offsets = [round(rng.uniform(5.0, 10.0), 3) for _ in range(N_BASE)]

    def to_signal(i: int, badness: float) -> float:
        # Rising: value = offset + scale * badness. Falling mirrors it.
        v = scales[i] * badness
        return round(offsets[i] - v if falling[i] else offsets[i] + v, 4)

    thresholds_bad = (1.0, 2.0, 3.0)
    hyst_bad = (0.2, 0.2, 0.2)

    # Slot plan.
    kinds = list(SLOT_KINDS)
    rng.shuffle(kinds)
    kinds = ["quiet"] + kinds + ["latch"]
    pulses: Dict[int, List[Tuple[float, float, float, float]]] = {i: [] for i in range(N_BASE)}
    n_pulses = 0
    for s, kind in enumerate(kinds):
        t0 = s * SLOT_S + 0.02
        if kind == "quiet":
            continue
        if kind == "latch":
            members = [LATCH_EVENT]
        elif kind == "single":
            members = [rng.randrange(N_BASE - 1)]
        else:
            members = rng.sample(range(N_BASE - 1), MULTI_WIDTH)
        for j, i in enumerate(members):
            level = 3 if kind == "latch" else rng.randint(1, N_LEVELS)
            peak = thresholds_bad[level - 1] + rng.uniform(0.3, 0.6)
            # Every other pulse pauses inside the band of the held level on
            # the way down, so the breakpoint count does not depend on the seed.
            band = None
            if kind != "latch" and n_pulses % 2 == 0:
                band = thresholds_bad[level - 1] - rng.uniform(0.05, 0.15)
            n_pulses += 1
            start = t0 + j * 0.04
            width = SLOT_S - 0.06 - j * 0.04
            pulses[i].append((start, width, peak, band))

    signals: Dict[str, object] = {}
    n_points = 0
    for i in range(N_BASE):
        pts: List[Tuple[float, float]] = [(0.0, 0.0)]
        for start, width, peak, band in pulses[i]:
            pts.extend(_pulse_points(start, width, peak, band, rng.uniform(0.0, 0.4)))
        pts.append((duration, 0.0))
        signals[f"s{i}"] = {
            "interpolation": "linear",
            "points": [[round(t, 4), to_signal(i, b)] for t, b in pts],
        }
        n_points += len(pts)
    signals["rho_a"] = {"interpolation": "hold", "points": [[0.0, 0.55], [7.0, 0.6], [14.0, 0.5]]}
    signals["rho_b"] = {"interpolation": "linear", "points": [[0.0, 0.8], [20.0, 0.7]]}
    n_points += 5

    ones = []
    for i in range(N_BASE):
        ts = [to_signal(i, t) for t in thresholds_bad]
        hs = [round(scales[i] * h, 4) for h in hyst_bad]
        # Reachable reactions are {0, 1, 2} for every ladder but the last,
        # which also reaches the latch level 3.
        top = 3 if i == LATCH_EVENT else 2
        medium = 2 if i == LATCH_EVENT else rng.choice((1, 2))
        ones.append(
            {
                "id": ids[i],
                "signal": f"s{i}",
                "direction": "falling" if falling[i] else "rising",
                "thresholds": ts,
                "hysteresis": hs,
                "danger": {0: "no", 1: "low", 2: "medium", 3: "high"},
                "reaction": {"no": 0, "low": 1, "medium": medium, "high": top, "very_high": top},
            }
        )

    # Virtual event: how many of its inputs sit at level 2 or above, capped at 2.
    rows = []
    for code in range((N_LEVELS + 1) ** N_VIRTUAL_INPUTS):
        levels = []
        for _ in range(N_VIRTUAL_INPUTS):
            levels.append(code % (N_LEVELS + 1))
            code //= N_LEVELS + 1
        levels.reverse()
        rows.append({"levels": levels, "level": min(2, sum(1 for l in levels if l >= 2))})
    virtual = {
        "id": "v0",
        "inputs": ids[:N_VIRTUAL_INPUTS],
        "rows": rows,
        "danger": {0: "no", 1: "low", 2: "medium"},
        "reaction": {"no": 0, "low": 1, "medium": 2, "high": 2, "very_high": 2},
    }

    # Explicit rows: every single-event tuple at reaction 1 or 2 except the
    # all-zero one (left to the default), plus a few seeded pairs.
    by_type: Dict[str, List[str]] = {}
    for sid, stype in SCENARIOS:
        by_type.setdefault(stype, []).append(sid)
    # Scenarios are dealt round-robin from a seeded start, so every seed
    # spreads the rows evenly over the scenarios.
    pools = {1: by_type["recovery"] + ["normal_b"], 2: by_type["backup"]}
    turn = {r: rng.randrange(len(pool)) for r, pool in pools.items()}

    def deal(r: int) -> str:
        turn[r] += 1
        return pools[r][turn[r] % len(pools[r])]

    os_rows = []
    n = len(ids)
    for i in range(n):
        for r in (1, 2):
            combo = [0] * n
            combo[i] = r
            os_rows.append({"reactions": combo, "scenario": deal(r)})
    seen = {tuple(r["reactions"]) for r in os_rows}
    while len(os_rows) < 2 * n + 8:
        a, b = rng.sample(range(n - 1), 2)
        combo = [0] * n
        combo[a] = rng.choice((1, 2))
        combo[b] = rng.choice((1, 2))
        if tuple(combo) in seen:
            continue
        seen.add(tuple(combo))
        os_rows.append({"reactions": combo, "scenario": deal(2)})

    def act() -> Dict[str, object]:
        """Activation on a seeded event below the latch, from level 1 or 2."""
        return {"event": {"one": ids[rng.randrange(N_BASE - 1)], "min_level": rng.randint(1, 2)}}

    ramp = {
        "interpolation": "linear",
        "points": [[round(k * duration / 11, 3), round(rng.uniform(5.0, 30.0), 2)] for k in range(12)],
    }
    heat = {
        "interpolation": "linear",
        "points": [[round(k * duration / 9, 3), round(rng.uniform(0.6, 1.2), 3)] for k in range(10)],
    }
    ic = {
        "interpolation": "hold",
        "points": [[round(k * duration / 7, 3), round(rng.uniform(0.3, 0.9), 3)] for k in range(8)],
    }
    n_points += len(ramp["points"]) + len(heat["points"]) + len(ic["points"])

    def task(tid, prio, ctl, group, reference=None, activation=None):
        t = {"id": tid, "priority": prio, "controller": ctl, "group": group}
        if reference is not None:
            t["reference"] = reference
        if activation is not None:
            t["activation"] = activation
        return t

    scenarios = [
        {"id": "normal", "type": "normal", "tasks": [
            task("heat_ff", 1, "ff", "nbi", heat),
            task("beta_pid", 2, "beta_pid", "nbi", 0.015),
            task("gas_ff", 3, "ff", "gas", ramp),
            task("ic_ff", 4, "ff", "ic_power", ic),
            task("da_power_n", 5, "da_power_n", "nbi", activation=act()),
        ]},
        {"id": "normal_b", "type": "normal", "tasks": [
            task("heat_ff", 1, "ff", "nbi", heat),
            task("gas_slow", 2, "gas_slow", "gas", ramp),
            task("ic_ff", 3, "ff", "ic_power", ic, activation=act()),
        ]},
        {"id": "recovery_a", "type": "recovery", "tasks": [
            task("ntm_a", 1, "ntm_a", "ec_power"),
            task("heat_ff", 2, "ff", "nbi", heat),
            task("gas_freeze", 3, "gas_freeze", "gas"),
            task("ntm_b", 4, "ntm_b", "ec_power", activation=act()),
        ]},
        {"id": "recovery_b", "type": "recovery", "tasks": [
            task("ntm_b", 1, "ntm_b", "ec_power"),
            task("da_power_r", 2, "da_power_r", "nbi"),
            task("gas_slow", 3, "gas_slow", "gas", ramp),
            task("ec_ff", 4, "ff", "ec_power", 0.7),
        ]},
        {"id": "recovery_c", "type": "recovery", "tasks": [
            task("ntm_a", 1, "ntm_a", "ec_power"),
            task("ntm_b", 2, "ntm_b", "ec_power"),
            task("heat_ff", 3, "ff", "nbi", heat),
            task("ic_ff", 4, "ff", "ic_power", ic),
            task("gas_freeze", 5, "gas_freeze", "gas", activation=act()),
        ]},
        {"id": "backup_a", "type": "backup", "tasks": [
            task("ntm_a", 1, "ntm_a", "ec_power"),
            task("beta_pid", 2, "beta_pid", "nbi", 0.012),
            task("heat_ff", 3, "ff", "nbi", heat),
            task("ec_ff", 4, "ff", "ec_power", 0.5),
            task("gas_slow", 5, "gas_slow", "gas", ramp, activation=act()),
        ]},
        {"id": "backup_b", "type": "backup", "tasks": [
            task("da_power_r", 1, "da_power_r", "nbi"),
            task("ntm_b", 2, "ntm_b", "ec_power"),
            task("gas_freeze", 3, "gas_freeze", "gas"),
            task("ic_ff", 4, "ff", "ic_power", ic, activation=act()),
        ]},
        {"id": "shutdown", "type": "soft_shutdown", "tasks": [
            task("heat_cut", 1, "heat_cut", "nbi"),
            task("ic_cut", 2, "ic_cut", "ic_power"),
        ]},
    ]

    controllers = {
        "ff": {"type": "feedforward"},
        "beta_pid": {"type": "pid", "kp": 20.0, "ki": 120.0, "kd": 0.0, "lo": 0.0, "hi": 0.5,
                     "measurement": "stored_energy"},
        "da_power_n": {"type": "da_power", "mode": "normal", "d_critical1": 2.0, "gain": 1.5,
                       "p_max": 1.3, "signal": "d_ne_edge"},
        "da_power_r": {"type": "da_power", "mode": "recovery", "d_critical1": 2.0, "gain": 1.5,
                       "p_max": 1.3, "signal": "d_ne_edge"},
        "gas_slow": {"type": "gas_shaper", "mode": "slow_ramp", "factor": 0.3},
        "gas_freeze": {"type": "gas_shaper", "mode": "freeze"},
        "heat_cut": {"type": "gas_shaper", "mode": "cutoff", "ramp_down": 0.1},
        "ic_cut": {"type": "gas_shaper", "mode": "cutoff", "ramp_down": 0.05},
        "ntm_a": {"type": "ntm", "position_signal": "rho_a", "aim_group": "ec_aim"},
        "ntm_b": {"type": "ntm", "position_signal": "rho_b", "aim_group": "ec_aim"},
    }

    doc = {
        "run": {"dt": DT, "duration": duration, "post_roll": 0.0},
        "plant": {
            "tau_e": 0.02, "tau_98": 0.02, "tau_n": 0.25, "k_gas": 0.02, "p_ohmic": 0.3,
            "nbi_energy_limit": 100.0, "w_init": 0.006, "ne_init": 0.2, "gas_init": 0.0,
            "nbi_group": "nbi", "gas_group": "gas",
            "degradation": [[0.0, 1.0], [2.0, 1.0]],
            "boundary": [[1.5, 0.1], [2.5, 0.2]],
        },
        "signals": signals,
        "ones": ones,
        "virtual_ones": [virtual],
        "os_mapping": {"default": "normal", "rows": os_rows},
        "scenarios": scenarios,
        "controllers": controllers,
        "actuator_groups": [dict(g) for g in GROUPS],
    }
    text = f"# wide_switching schedule, generated with seed {seed}\n" + yaml.safe_dump(
        doc, sort_keys=False, default_flow_style=None, width=120
    )
    task_ids = {t["id"] for sc in scenarios for t in sc["tasks"]}
    # Reaction tuples validate enumerates: the product of each event's
    # reachable reactions (every level of a base event, every output level
    # of the virtual one).
    coverage = 1
    for spec in ones + [virtual]:
        levels = {r["level"] for r in spec["rows"]} if "rows" in spec else range(N_LEVELS + 1)
        coverage *= len({spec["reaction"][spec["danger"][lvl]] for lvl in levels})
    shape = {
        "base_events": N_BASE,
        "virtual_events": 1,
        "scenarios": len(scenarios),
        "tasks": len(task_ids),
        "groups": len(GROUPS),
        "exclusive_groups": sum(1 for g in GROUPS if g["semantics"] == "exclusive"),
        "waveform_points": n_points,
        "os_rows": len(os_rows),
        "virtual_rows": len(rows),
        "yaml_bytes": len(text.encode("utf-8")),
        "coverage_product": coverage,
        "ticks": int(round(duration / DT)),
    }
    return text, shape


def selection_paths(text: str, trace_rows: List[Dict[str, str]]) -> Dict[str, int]:
    """Count ticks by how the scenario was selected: explicit row, default or fallback.

    Classifies each trace row's reaction tuple against the schedule's own
    rows, independently of the program's selection code.
    """
    doc = yaml.safe_load(text)
    ids = [o["id"] for o in doc["ones"]] + [v["id"] for v in doc.get("virtual_ones", [])]
    rows = {tuple(r["reactions"]) for r in doc["os_mapping"]["rows"]}
    counts = {"explicit": 0, "default": 0, "fallback": 0}
    for row in trace_rows:
        combo = tuple(int(row[f"rct_{i}"]) for i in ids)
        if combo in rows:
            counts["explicit"] += 1
        elif not any(combo):
            counts["default"] += 1
        else:
            counts["fallback"] += 1
    return counts
