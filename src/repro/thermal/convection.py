"""Airflow-to-thermal-resistance convection model.

The out-of-band control path in the paper is: PWM duty → fan RPM →
airflow → heatsink convective resistance → die temperature.  This
module supplies the last hop.

For forced convection over a finned heatsink the Nusselt number scales
roughly like :math:`Re^{0.8}` (Dittus–Boelter exponent), i.e. the
convective conductance grows sub-linearly with airflow and saturates.
We model the sink-to-air resistance as

.. math::

    R(Q) = R_\\infty + \\frac{R_0 - R_\\infty}{1 + (Q / Q_{ref})^{\\alpha}}

with :math:`R_0` the still-air (natural convection) resistance,
:math:`R_\\infty` the asymptotic high-flow resistance and
:math:`Q_{ref}` the flow at which half the reducible resistance is
gone.  The curve is strictly decreasing in :math:`Q` — more airflow
always cools at least as well — which is the monotonicity the paper's
thermal control array relies on when it ranks fan modes by
effectiveness.

The default constants are calibrated (see DESIGN.md §5) against the
paper's operating points: a BT-class ~57 W load equilibrates ≈58 °C at
25 % duty, just above the 51 °C tDVFS threshold at 50 % duty, and just
below it at 75 % duty — which is what makes Table 1's "DVFS must act at
50/25 % but not 75 %" pattern reproducible.  The steeper-than-0.8
exponent reflects the ducted heatsink geometry where bypass flow is
recovered as speed rises.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.marker import hotpath, reject
from ..units import require_non_negative, require_positive

__all__ = ["ConvectionModel"]


@dataclass(frozen=True)
class ConvectionModel:
    """Monotone airflow → sink-to-air resistance map.

    Parameters
    ----------
    r_still:
        Resistance at zero airflow (natural convection), K/W.
    r_max_flow:
        Asymptotic resistance at infinite airflow, K/W.  Must be
        strictly less than ``r_still``.
    q_ref:
        Airflow (CFM) at which half of ``r_still - r_max_flow`` has
        been removed.
    exponent:
        Reynolds-number exponent of the correlation (default 0.8).
    """

    r_still: float = 0.95
    r_max_flow: float = 0.13
    q_ref: float = 8.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        require_positive(self.r_still, "r_still")
        require_positive(self.r_max_flow, "r_max_flow")
        require_positive(self.q_ref, "q_ref")
        require_positive(self.exponent, "exponent")
        if self.r_max_flow >= self.r_still:
            raise ConfigurationError(
                f"r_max_flow ({self.r_max_flow}) must be < r_still "
                f"({self.r_still}); otherwise more airflow would heat the part"
            )

    @hotpath
    def resistance(self, airflow_cfm: float) -> float:
        """Sink-to-air resistance in K/W at the given airflow (CFM)."""
        if not (airflow_cfm >= 0.0):
            reject(require_non_negative, airflow_cfm, "airflow_cfm")
        q = float(airflow_cfm)
        span = self.r_still - self.r_max_flow
        return self.r_max_flow + span / (1.0 + (q / self.q_ref) ** self.exponent)

    def conductance(self, airflow_cfm: float) -> float:
        """Sink-to-air conductance in W/K at the given airflow."""
        return 1.0 / self.resistance(airflow_cfm)
