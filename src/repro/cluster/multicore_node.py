"""The N-core cluster node: a floorplan-bearing :class:`Node` variant.

:class:`MulticoreNode` swaps the single-core compute complex for a
:class:`~repro.thermal.multicore.MulticorePackage` plus one DVFS domain
per core class — a :class:`~repro.cpu.dvfs.GangedDvfs` lead (class 0)
that governors actuate exactly as they do the single-core ladder, with
follower domains tracking it proportionally.  Everything else — fan
chip, motor, aero, sensor, meter, PROCHOT/THERMTRIP protection — is
inherited unchanged from :class:`~repro.cluster.node.Node`, which is
what lets the whole governor and controller stack run on heterogeneous
silicon without modification:

* the per-package :class:`~repro.thermal.sensor.ThermalSensor` reads
  :attr:`~repro.thermal.multicore.MulticorePackage.die_temperature`
  (the hottest core — what a per-package diode reports),
* the hardware protection path slams the lead DVFS domain, which the
  gang propagates to every class's floor,
* the fan chip sees the same remote/local diode pair.

Per tick, each core's power is computed from its *class* model at the
class's current P-state and that core's own temperature (per-core
leakage feedback), under the node-wide utilization of the bound rank —
the job spans the node, so all cores share its duty cycle.

That power and the hottest-core diode are all :meth:`_package_io`
overrides; the tick is :meth:`~repro.cluster.node.Node.tick_pair`, and
specs on a multicore platform form lockstep groups like any other.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Tuple

from ..config import NodeConfig
from ..cpu.core import CpuCore
from ..cpu.dvfs import Dvfs, GangedDvfs
from ..cpu.power import CpuPowerModel
from ..errors import ConfigurationError
from ..sim.marker import hotpath
from ..thermal.multicore import MulticorePackage
from .node import Node

__all__ = ["MulticoreNode"]


class MulticoreNode(Node):
    """A cluster node built around an N-core die floorplan.

    Construction requires ``config.floorplan``; the constructor
    signature is identical to :class:`~repro.cluster.node.Node`.
    """

    def _build_compute(self, cfg: NodeConfig, name: str, events) -> None:
        floorplan = cfg.floorplan
        if floorplan is None:
            raise ConfigurationError(
                f"MulticoreNode {name!r} needs a config with a floorplan"
            )
        self.package = MulticorePackage(
            n_cores=floorplan.n_cores,
            c_core=floorplan.c_core,
            c_sink=floorplan.c_sink,
            r_core_sink=floorplan.r_core_sink,
            r_core_core=floorplan.r_core_core,
            convection=cfg.convection,
            ambient=self.ambient,
            name=f"{name}.pkg",
        )
        followers = [
            Dvfs(
                table=cls.pstates,
                transition_latency=cfg.dvfs_latency,
                events=events,
                name=f"{name}.dvfs.{cls.name}",
            )
            for cls in floorplan.classes[1:]
        ]
        self.dvfs = GangedDvfs(
            table=floorplan.classes[0].pstates,
            followers=followers,
            transition_latency=cfg.dvfs_latency,
            events=events,
            name=f"{name}.dvfs",
        )
        self.core = CpuCore(self.dvfs, name=f"{name}.core")
        self.power_model = CpuPowerModel(floorplan.classes[0].power)
        #: DVFS domain per class, index-aligned with the class list.
        self.domains = (self.dvfs, *followers)
        self._class_models = tuple(
            CpuPowerModel(cls.power) for cls in floorplan.classes
        )
        #: Class index of each core, floorplan order (class 0 first).
        self._core_class = tuple(
            k
            for k, cls in enumerate(floorplan.classes)
            for _ in range(cls.count)
        )

    # -- observables -----------------------------------------------------

    def core_powers(self) -> List[float]:
        """Per-core power over the last tick, W (floorplan order)."""
        return list(self.package._powers)

    # -- dynamics ----------------------------------------------------------

    def _package_io(self) -> Tuple[Callable[[], float], Callable[[bool], None]]:
        """The diode reads the hottest core; ``io`` writes per-core class
        powers at each core's temperature, summed into :attr:`cpu_power`,
        into the package and its network (a negative or NaN one raises
        through :meth:`MulticorePackage.set_core_power
        <repro.thermal.multicore.MulticorePackage.set_core_power>`)."""
        package = self.package
        set_core_power = package.set_core_power
        core_powers = package._powers
        net_powers = package._net._powers
        class_power = tuple(model.power for model in self._class_models)
        domains = self.domains
        core = self.core
        core_nodes = tuple(package._net._nodes[key] for key in package._cores)
        temperature_of = attrgetter("temperature")
        cores = tuple(
            zip(range(package.n_cores), self._core_class, core_nodes,
                package._cores)
        )

        @hotpath
        def diode() -> float:
            return max(map(temperature_of, core_nodes))

        @hotpath
        def io(on: bool) -> None:
            utilization = core._utilization
            for i, k, node, key in cores:
                if on:
                    power = class_power[k](
                        domains[k].pstate, utilization, node.temperature
                    )
                    if not (power >= 0.0):
                        set_core_power(i, power)  # raises the setter's error
                else:
                    power = 0.0
                core_powers[i] = power
                net_powers[key] = power
            self._cpu_power = sum(core_powers) if on else 0.0

        return diode, io
