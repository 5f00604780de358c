"""Ablations of the paper's §3.2 design decisions.

The paper asserts (without showing data) that:

* a level-one window that is **too small reacts to jitter** as if it
  were sudden, while one **too large responds sluggishly** to genuine
  sudden changes — 4 entries was found sufficient (§3.2.1);
* the level-two FIFO is what tracks **gradual** drift, consulted only
  when level one is silent (§3.2.2).

This module's :func:`run` measures those claims on the simulated
platform in four studies:

* **window size** — for L1 sizes {2, 4, 8, 16}: the fan's
  response delay to a Type-I step and its spurious movement under a
  Type-III jitter load.
* **level-two fallback** — dynamic fan with and without the
  level-two fallback under a Type-II slow ramp: without it the fan
  never tracks the drift and the plant runs hotter.
* **escalation** — tDVFS's depth-escalated trigger
  threshold (the mechanism behind Figure 9's plateau) on vs off: with
  a fixed threshold the daemon chases the plant down the frequency
  ladder, trading much more performance for little extra cooling.
* **split policy** — the paper insists on ONE ``P_p``
  shared by both techniques ("we fill out the arrays in a unified
  way").  What if the fan and DVFS each got their own?  Splitting the
  knob fan-lazy/DVFS-aggressive hands the work to the expensive
  in-band technique (earlier, deeper triggers, longer runtime) for no
  thermal benefit — the measured argument for the single-knob design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..analysis.tables import Table
from ..cluster.cluster import RunResult
from ..runtime import (
    DEFAULT_SEED,
    Measure,
    RunExecutor,
    RunSpec,
    first_rise_delay,
)

__all__ = [
    "WindowSizeRow",
    "L2FallbackRow",
    "AblationResult",
    "run",
    "render",
    "EscalationRow",
    "SplitPolicyRow",
]


@dataclass
class WindowSizeRow:
    """One L1 window size's outcome.

    Attributes
    ----------
    l1_size:
        Window entries.
    sudden_delay:
        Seconds from the Type-I step until the fan moved 5+ duty steps
        above its pre-step level (inf if it never did).
    jitter_movement:
        Mean |duty| movement per second under the Type-III load —
        spurious actuation chasing noise.
    """

    l1_size: int
    sudden_delay: float
    jitter_movement: float


@dataclass
class L2FallbackRow:
    """Gradual-drift tracking with/without the level-two fallback."""

    l2_enabled: bool
    final_temp: float
    final_duty: float


@dataclass
class EscalationRow:
    """tDVFS behaviour with/without threshold escalation.

    Attributes
    ----------
    escalate:
        Whether the depth-escalated threshold was active.
    freq_changes:
        DVFS transitions on node 0.
    min_ghz:
        Deepest frequency reached.
    execution_time:
        Job wall time, s.
    end_temp:
        Final-15 s mean temperature, °C.
    """

    escalate: bool
    freq_changes: int
    min_ghz: float
    execution_time: float
    end_temp: float


@dataclass
class SplitPolicyRow:
    """One (fan P_p, DVFS P_p) assignment on the hybrid scenario.

    Attributes
    ----------
    fan_pp / dvfs_pp:
        The two knobs (equal = the paper's shared-policy design).
    execution_time:
        Job wall time, s.
    mean_temp:
        Node-0 mean temperature, °C.
    first_trigger:
        Earliest tDVFS trigger across nodes, s (None = never).
    min_ghz:
        Deepest frequency any node reached.
    """

    fan_pp: int
    dvfs_pp: int
    execution_time: float
    mean_temp: float
    first_trigger: Optional[float]
    min_ghz: float


@dataclass
class AblationResult:
    """All four studies."""

    window_rows: List[WindowSizeRow]
    l2_rows: List[L2FallbackRow]
    escalation_rows: List[EscalationRow]
    split_rows: List[SplitPolicyRow]


_WINDOW_SIZES = (2, 4, 8, 16)
_L2_MODES = (True, False)
_ESCALATION_MODES = (True, False)
_SPLITS = ((50, 50), (25, 75), (75, 25))


def _window_specs(seed: int, sizes: List[int], quick: bool) -> List[RunSpec]:
    """Per L1 size: a Type-I step run and a Type-III jitter run."""
    duration = 90.0 if quick else 180.0
    step_time = duration / 3
    out: List[RunSpec] = []
    for l1 in sizes:
        out.append(
            RunSpec.of(
                "sudden_profile",
                {"step_time": step_time, "duration": duration},
                rigs=[("dynamic_fan", {"pp": 50, "l1_size": l1})],
                n_nodes=1,
                seed=seed,
                timeout=duration * 6,
                quick=quick,
            )
        )
        out.append(
            RunSpec.of(
                "jitter_profile",
                {"duration": duration},
                rigs=[("dynamic_fan", {"pp": 50, "l1_size": l1})],
                n_nodes=1,
                seed=seed,
                timeout=duration * 6,
                quick=quick,
            )
        )
    return out


def _window_rows(
    sizes: List[int], quick: bool, results: List[RunResult]
) -> List[WindowSizeRow]:
    duration = 90.0 if quick else 180.0
    step_time = duration / 3
    rows: List[WindowSizeRow] = []
    for idx, l1 in enumerate(sizes):
        sudden, jitter = results[2 * idx], results[2 * idx + 1]
        duty = Measure(sudden).trace("duty")
        delay = first_rise_delay(
            np.asarray(duty.times), np.asarray(duty.values), step_time
        )

        duty = Measure(jitter).trace("duty")
        v = np.asarray(duty.values)
        t = np.asarray(duty.times)
        # discard the warm-up third, where responding is correct
        settle = t >= duration / 3
        movement = float(np.sum(np.abs(np.diff(v[settle])))) / max(
            1e-9, float(t[-1] - duration / 3)
        )
        rows.append(
            WindowSizeRow(l1_size=l1, sudden_delay=delay, jitter_movement=movement)
        )
    return rows


def _l2_specs(seed: int, quick: bool) -> List[RunSpec]:
    duration = 150.0 if quick else 300.0
    return [
        RunSpec.of(
            "gradual_profile",
            {"duration": duration},
            rigs=[("dynamic_fan", {"pp": 50, "l2_when_l1_silent": enabled})],
            n_nodes=1,
            seed=seed,
            timeout=duration * 6,
            quick=quick,
        )
        for enabled in _L2_MODES
    ]


def _l2_rows(results: List[RunResult]) -> List[L2FallbackRow]:
    rows: List[L2FallbackRow] = []
    for enabled, result in zip(_L2_MODES, results):
        m = Measure(result)
        rows.append(
            L2FallbackRow(
                l2_enabled=enabled,
                final_temp=m.final_mean("temp", seconds=20.0),
                final_duty=m.final_mean("duty", seconds=20.0),
            )
        )
    return rows


def _escalation_specs(seed: int, quick: bool) -> List[RunSpec]:
    iterations = 70 if quick else 200
    return [
        RunSpec.of(
            "bt_b_4",
            {"iterations": iterations},
            rigs=[
                ("dynamic_fan", {"pp": 50, "max_duty": 0.25}),
                ("tdvfs", {"pp": 50, "escalate_threshold": escalate}),
            ],
            n_nodes=4,
            seed=seed,
            quick=quick,
        )
        for escalate in _ESCALATION_MODES
    ]


def _escalation_rows(results: List[RunResult]) -> List[EscalationRow]:
    rows: List[EscalationRow] = []
    for escalate, result in zip(_ESCALATION_MODES, results):
        m = Measure(result)
        rows.append(
            EscalationRow(
                escalate=escalate,
                freq_changes=result.dvfs_change_count(0),
                min_ghz=m.trace("freq_ghz").min(),
                execution_time=result.execution_time,
                end_temp=m.final_mean("temp", seconds=15.0),
            )
        )
    return rows


def _split_specs(seed: int, quick: bool) -> List[RunSpec]:
    # The paper's hybrid (§4.4) applies one P_p to both techniques, and
    # HybridControl refuses a split knob, so the halves are rigged as
    # separate governors here.
    iterations = 70 if quick else 200
    return [
        RunSpec.of(
            "bt_b_4",
            {"iterations": iterations},
            rigs=[
                ("dynamic_fan", {"pp": fan_pp, "max_duty": 0.50}),
                ("tdvfs", {"pp": dvfs_pp}),
            ],
            n_nodes=4,
            seed=seed,
            quick=quick,
        )
        for fan_pp, dvfs_pp in _SPLITS
    ]


def _split_rows(results: List[RunResult]) -> List[SplitPolicyRow]:
    rows: List[SplitPolicyRow] = []
    for (fan_pp, dvfs_pp), result in zip(_SPLITS, results):
        triggers = result.events.filter(category="tdvfs.trigger")
        rows.append(
            SplitPolicyRow(
                fan_pp=fan_pp,
                dvfs_pp=dvfs_pp,
                execution_time=result.execution_time,
                mean_temp=Measure(result).mean("temp"),
                first_trigger=triggers[0].time if triggers else None,
                min_ghz=min(
                    (e.data["new_ghz"] for e in triggers), default=2.4
                ),
            )
        )
    return rows


def run(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    executor: Optional[RunExecutor] = None,
) -> AblationResult:
    """Run all four ablation studies.

    All sub-study specs are flattened into one executor map so a
    parallel executor overlaps the studies, not just runs within one.
    """
    executor = executor if executor is not None else RunExecutor()
    w = _window_specs(seed, _WINDOW_SIZES, quick)
    l2 = _l2_specs(seed, quick)
    esc = _escalation_specs(seed, quick)
    split = _split_specs(seed, quick)
    results = executor.map(w + l2 + esc + split)
    i0 = len(w)
    i1 = i0 + len(l2)
    i2 = i1 + len(esc)
    return AblationResult(
        window_rows=_window_rows(_WINDOW_SIZES, quick, results[:i0]),
        l2_rows=_l2_rows(results[i0:i1]),
        escalation_rows=_escalation_rows(results[i1:i2]),
        split_rows=_split_rows(results[i2:]),
    )


def render(result: AblationResult) -> str:
    """Text output for all ablations."""
    w = Table(
        headers=["L1 size", "sudden delay (s)", "jitter movement (duty/s)"],
        formats=["d", ".2f", ".4f"],
        title="Ablation A: level-one window size (paper picks 4)",
    )
    for row in result.window_rows:
        w.add_row(row.l1_size, row.sudden_delay, row.jitter_movement)

    l2 = Table(
        headers=["L2 fallback", "final T (degC)", "final duty (%)"],
        formats=[None, ".1f", ".1f"],
        title="Ablation B: level-two fallback under a Type-II slow ramp",
    )
    for row in result.l2_rows:
        l2.add_row("on" if row.l2_enabled else "off", row.final_temp, row.final_duty * 100)

    c = Table(
        headers=[
            "escalated threshold",
            "# freq changes",
            "deepest (GHz)",
            "exec time (s)",
            "end T (degC)",
        ],
        formats=[None, "d", ".1f", ".1f", ".1f"],
        title="Ablation C: tDVFS depth-escalated trigger threshold",
    )
    for row in result.escalation_rows:
        c.add_row(
            "on" if row.escalate else "off",
            row.freq_changes,
            row.min_ghz,
            row.execution_time,
            row.end_temp,
        )

    d = Table(
        headers=[
            "fan P_p",
            "DVFS P_p",
            "exec time (s)",
            "mean T (degC)",
            "first trigger (s)",
            "deepest (GHz)",
        ],
        formats=["d", "d", ".1f", ".1f", None, ".1f"],
        title="Ablation D: shared vs independent P_p (paper: one knob)",
    )
    for row in result.split_rows:
        d.add_row(
            row.fan_pp,
            row.dvfs_pp,
            row.execution_time,
            row.mean_temp,
            "never" if row.first_trigger is None else f"{row.first_trigger:.0f}",
            row.min_ghz,
        )

    return "\n\n".join([w.render(), l2.render(), c.render(), d.render()])
