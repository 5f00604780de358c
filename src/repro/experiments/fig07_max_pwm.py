"""Figure 7 — emulating weaker fans by capping the maximum PWM duty.

Protocol (paper §4.2): NPB BT.B.4, dynamic fan control, P_p = 50,
maximum PWM duty ∈ {25, 50, 75, 100} %.

Findings reproduced:

1. A more powerful fan (higher cap) yields lower temperature; the
   paper measures ≈8 °C between the 25 % and 100 % caps.
2. Diminishing returns: beyond a middling cap, raising the ceiling
   barely changes temperature (the paper calls 50 vs 75 % "not
   significant"), because the proactive controller settles below the
   ceiling anyway — i.e. a cheaper fan run well matches a stronger fan.

The four specs differ only in rig parameters (the PWM cap), so the
sweep is one lockstep group: ``RunExecutor.map`` advances all four runs
together through :mod:`repro.fastpath.batch` with byte-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.rows import lookup_row
from ..analysis.tables import Table
from ..runtime import DEFAULT_SEED, Measure, RunExecutor, RunSpec

__all__ = [
    "Fig7Row",
    "Fig7Result",
    "specs",
    "run",
    "render",
    "CAPS",
]

CAPS = (0.25, 0.50, 0.75, 1.00)


@dataclass
class Fig7Row:
    """Outcome at one maximum-PWM cap.

    Attributes
    ----------
    max_duty:
        The cap (fraction).
    final_temp:
        Mean of the last 30 s, °C.
    mean_temp / max_temp:
        Over the whole run, °C.
    late_duty:
        Settled duty (second-half mean fraction).
    cap_bound:
        True when the settled duty sits at/near the cap (within 2 %),
        i.e. the fan ran out of headroom.
    """

    max_duty: float
    final_temp: float
    mean_temp: float
    max_temp: float
    late_duty: float
    cap_bound: bool


@dataclass
class Fig7Result:
    """All four caps, ascending."""

    rows: List[Fig7Row]

    def row(self, max_duty: float) -> Fig7Row:
        """The row for a given cap."""
        return lookup_row(self.rows, max_duty=max_duty)

    @property
    def spread(self) -> float:
        """Final-temperature gap between the 25 % and 100 % caps, K."""
        return self.row(0.25).final_temp - self.row(1.00).final_temp


def specs(seed: int = DEFAULT_SEED, quick: bool = False) -> List[RunSpec]:
    """One BT.B.4 spec per maximum-PWM cap."""
    iterations = 60 if quick else 200
    return [
        RunSpec.of(
            "bt_b_4",
            {"iterations": iterations},
            rigs=[("dynamic_fan", {"pp": 50, "max_duty": cap})],
            n_nodes=4,
            seed=seed,
            quick=quick,
        )
        for cap in CAPS
    ]


def run(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    executor: Optional[RunExecutor] = None,
) -> Fig7Result:
    """Run the Figure-7 sweep."""
    executor = executor if executor is not None else RunExecutor()
    results = executor.map(specs(seed=seed, quick=quick))
    rows: List[Fig7Row] = []
    for cap, result in zip(CAPS, results):
        m = Measure(result)
        late_duty = m.late_mean("duty")
        rows.append(
            Fig7Row(
                max_duty=cap,
                final_temp=m.final_mean("temp"),
                mean_temp=m.mean("temp"),
                max_temp=m.peak("temp"),
                late_duty=late_duty,
                cap_bound=late_duty >= cap - 0.02,
            )
        )
    return Fig7Result(rows=rows)


def render(result: Fig7Result) -> str:
    """Paper-style text output for Figure 7."""
    table = Table(
        headers=[
            "max PWM duty (%)",
            "final T (degC)",
            "mean T (degC)",
            "max T (degC)",
            "settled duty (%)",
            "at cap?",
        ],
        formats=[".0f", ".1f", ".1f", ".1f", ".1f", None],
        title=(
            "Figure 7 reproduction: dynamic fan under maximum-PWM caps "
            f"(25% vs 100% spread: {result.spread:.1f} K)"
        ),
    )
    for row in result.rows:
        table.add_row(
            row.max_duty * 100,
            row.final_temp,
            row.mean_temp,
            row.max_temp,
            row.late_duty * 100,
            "yes" if row.cap_bound else "no",
        )
    return table.render()
