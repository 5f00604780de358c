"""Measurement and evaluation utilities.

* :mod:`repro.analysis.metrics` — the stabilization time of a
  temperature trace (the paper's Figure 6 criterion).
* :mod:`repro.analysis.thermal_stats` — the degree-seconds stress
  integral over a temperature trace.
* :mod:`repro.analysis.tables` — plain-text table rendering used by
  the benchmark harnesses to print paper-style rows.
* :mod:`repro.analysis.rows` — keyed lookup over collected result
  rows (the shared replacement for per-experiment linear scans).
"""

from .metrics import stabilization_time
from .rows import lookup_row
from .tables import Table

__all__ = [
    "stabilization_time",
    "Table",
    "lookup_row",
]
