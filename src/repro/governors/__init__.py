"""Complete thermal-control daemons (the paper's §4 actors).

Out-of-band (fan) governors, all driving the ADT7467 over i2c (the
paper's out-of-band path):

* :class:`~repro.governors.fan_traditional.TraditionalFanControl` —
  the static PWM(T) map of Figure 1, executed by the ADT7467's
  hardware automatic mode.
* :class:`~repro.governors.fan_constant.ConstantFanControl` — a fixed
  duty cycle.
* :class:`~repro.governors.fan_dynamic.DynamicFanControl` — the
  paper's contribution applied to the fan: unified controller with a
  two-level window and a P_p-filled thermal control array.

In-band (DVFS) governors:

* :class:`~repro.governors.tdvfs.TDvfs` — the paper's
  threshold-triggered, history-based DVFS daemon.
* :class:`~repro.governors.cpuspeed.CpuSpeed` — the interval/
  utilization baseline daemon of Table 1.
* :class:`~repro.governors.ondemand.Ondemand` — the kernel's
  proportional utilization governor (a second, thermometer-free
  baseline).

Combined:

* :func:`~repro.governors.hybrid.hybrid_governors` — dynamic fan +
  tDVFS sharing one P_p (§4.4).
"""

from .base import Governor
from .cpuspeed import CpuSpeed, CpuSpeedParams
from .fan_constant import ConstantFanControl
from .fan_dynamic import DynamicFanControl
from .fan_traditional import TraditionalFanControl
from .hybrid import HybridControl, hybrid_governors
from .ondemand import Ondemand, OndemandParams
from .tdvfs import TDvfs, TDvfsParams

__all__ = [
    "Governor",
    "TraditionalFanControl",
    "ConstantFanControl",
    "DynamicFanControl",
    "TDvfs",
    "TDvfsParams",
    "CpuSpeed",
    "CpuSpeedParams",
    "Ondemand",
    "OndemandParams",
    "HybridControl",
    "hybrid_governors",
]
