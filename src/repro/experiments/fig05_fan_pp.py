"""Figure 5 — dynamic fan control under three user policies.

Protocol (paper §4.2): three instances of cpu-burn, each ≈5 minutes,
on one node; dynamic fan control with P_p ∈ {75, 50, 25}; uncapped fan.

The paper's findings, which this harness reports and the benchmark
asserts:

1. Smaller P_p yields lower operating temperature — the policy knob
   works in the right direction.
2. Mean PWM duty is ordered opposite: P_p=25 spends the most fan
   (paper's means: 70 / 53 / 36 % for P_p = 25 / 50 / 75).
3. The fan responds to the sudden burn starts/stops within a couple of
   window rounds, but does *not* chase the jitter inside each burn —
   quantified here as the fan's duty movement during jitter-classified
   rounds vs during sudden-classified rounds.

The three specs differ only in rig parameters (P_p), so the sweep is a
lockstep group: ``RunExecutor.map`` advances all three runs together
through :mod:`repro.fastpath.batch` with byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.rows import lookup_row
from ..analysis.tables import Table
from ..core.classify import ThermalBehavior, classify_trace
from ..runtime import DEFAULT_SEED, RunExecutor, RunSpec

__all__ = ["Fig5Row", "Fig5Result", "PPS", "specs", "run", "render"]


@dataclass
class Fig5Row:
    """One P_p configuration's outcome.

    Attributes
    ----------
    pp:
        The policy value.
    mean_temp / max_temp:
        °C over the session.
    mean_duty:
        Mean PWM duty fraction.
    duty_move_sudden:
        Mean |duty slope| (fraction/s) across sudden-labelled rounds —
        the controller visibly reacts to Type-I events.
    duty_move_jitter:
        Mean |duty slope| across jitter-labelled rounds (per-round
        wobble from sensor noise riding on the jitter).
    duty_net_jitter:
        Mean *signed* slope across jitter rounds.  The paper's "does
        not respond to jitter" claim: jitter must produce no
        *systematic* fan motion, i.e. ``|duty_net_jitter| <<
        duty_move_sudden`` even when per-round wobble exists.
    """

    pp: int
    mean_temp: float
    max_temp: float
    mean_duty: float
    duty_move_sudden: float
    duty_move_jitter: float
    duty_net_jitter: float


@dataclass
class Fig5Result:
    """All three policies."""

    rows: List[Fig5Row]

    def row(self, pp: int) -> Fig5Row:
        """The row for a given P_p."""
        return lookup_row(self.rows, pp=pp)


def _duty_movement_by_label(
    temp_times: np.ndarray,
    temp_values: np.ndarray,
    duty_times: np.ndarray,
    duty_values: np.ndarray,
) -> Dict[ThermalBehavior, Dict[str, float]]:
    """Per-label mean |slope| and mean signed slope of the duty response."""
    labels = classify_trace(temp_times, temp_values)
    slopes: Dict[ThermalBehavior, List[float]] = {b: [] for b in ThermalBehavior}
    for t_round, label in labels:
        # The controller acts when the round completes (at t_round, after
        # the trace snapshot), so its response is the difference between
        # the duty AT t_round and the duty through the following second.
        mask = (duty_times >= t_round - 1e-9) & (
            duty_times <= t_round + 1.0 + 1e-9
        )
        if np.count_nonzero(mask) >= 2:
            d = duty_values[mask]
            t = duty_times[mask]
            slopes[label].append((d[-1] - d[0]) / max(1e-9, t[-1] - t[0]))
    out: Dict[ThermalBehavior, Dict[str, float]] = {}
    for behaviour, values in slopes.items():
        arr = np.asarray(values) if values else np.zeros(1)
        out[behaviour] = {
            "abs": float(np.mean(np.abs(arr))),
            "net": float(np.mean(arr)),
        }
    return out


PPS = (75, 50, 25)


def specs(seed: int = DEFAULT_SEED, quick: bool = False) -> List[RunSpec]:
    """One cpu-burn session spec per policy value."""
    burn = 60.0 if quick else 300.0
    gap = 20.0 if quick else 40.0
    return [
        RunSpec.of(
            "cpu_burn_session",
            {"instances": 3, "burn_duration": burn, "gap_duration": gap},
            rigs=[("dynamic_fan", {"pp": pp, "max_duty": 1.0})],
            n_nodes=1,
            seed=seed,
            timeout=8 * (3 * burn + 3 * gap) + 300,
            quick=quick,
        )
        for pp in PPS
    ]


def run(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    executor: Optional[RunExecutor] = None,
) -> Fig5Result:
    """Run the Figure-5 reproduction for P_p ∈ {75, 50, 25}."""
    executor = executor if executor is not None else RunExecutor()
    results = executor.map(specs(seed=seed, quick=quick))
    rows: List[Fig5Row] = []
    for pp, result in zip(PPS, results):
        temp = result.traces["node0.temp"]
        duty = result.traces["node0.duty"]
        movement = _duty_movement_by_label(
            temp.times, temp.values, duty.times, duty.values
        )
        rows.append(
            Fig5Row(
                pp=pp,
                mean_temp=temp.mean(),
                max_temp=temp.max(),
                mean_duty=duty.mean(),
                duty_move_sudden=movement[ThermalBehavior.SUDDEN]["abs"],
                duty_move_jitter=movement[ThermalBehavior.JITTER]["abs"],
                duty_net_jitter=movement[ThermalBehavior.JITTER]["net"],
            )
        )
    return Fig5Result(rows=rows)


def render(result: Fig5Result) -> str:
    """Paper-style text output for Figure 5."""
    table = Table(
        headers=[
            "P_p",
            "mean T (degC)",
            "max T (degC)",
            "mean PWM duty (%)",
            "|slope|@sudden (%/s)",
            "net slope@jitter (%/s)",
        ],
        formats=["d", ".1f", ".1f", ".1f", ".2f", "+.2f"],
        title="Figure 5 reproduction: dynamic fan control under P_p = 75/50/25 (cpu-burn x3)",
    )
    for row in result.rows:
        table.add_row(
            row.pp,
            row.mean_temp,
            row.max_temp,
            row.mean_duty * 100,
            row.duty_move_sudden * 100,
            row.duty_net_jitter * 100,
        )
    return table.render()
