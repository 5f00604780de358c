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
the job spans the node, so all cores share its duty cycle.  The pass
follows the model's own split: the dynamic term and the leakage
prefactor depend only on the class's V/f point, so
:meth:`CpuPowerModel.pstate_terms
<repro.cpu.power.CpuPowerModel.pstate_terms>` computes them once per
class, and each core adds its own ``math.exp`` leakage factor and the
idle floor.  That is :meth:`CpuPowerModel.power
<repro.cpu.power.CpuPowerModel.power>`'s expression evaluated in its
own order, so every core power has the same bits as a per-core call.

That power and the hottest-core diode are all :meth:`_package_io`
overrides; the tick is :meth:`~repro.cluster.node.Node.tick_pair`, and
specs on a multicore platform form lockstep groups like any other.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, Tuple

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

    # -- dynamics ----------------------------------------------------------

    def _package_io(self) -> Tuple[Callable[[], float], Callable[[bool], None]]:
        """The diode reads the hottest core; ``io`` writes per-core class
        powers at each core's temperature, summed into ``_cpu_power``,
        into the package and its network (a negative or NaN one raises
        through :meth:`MulticorePackage.set_core_power
        <repro.thermal.multicore.MulticorePackage.set_core_power>`).

        Per class, ``io`` takes the P-state terms once and loops over
        that class's cores in floorplan order, so the writes and the
        index-order sum are those of one ``power`` call per core.

        ``io`` uses the core temperatures ``diode()`` read on the same
        tick (nothing writes one between the two), so each is read once."""
        package = self.package
        set_core_power = package.set_core_power
        core_powers = package._powers
        net_powers = package._net._powers
        core = self.core
        exp = math.exp
        core_keys = package._cores
        core_nodes = tuple(package._net._nodes[key] for key in core_keys)
        temperature_of = attrgetter("temperature")
        temperatures = [node.temperature for node in core_nodes]
        members = [[] for _ in self.domains]
        for i, (k, key) in enumerate(zip(self._core_class, core_keys)):
            members[k].append((i, key))
        classes = tuple(
            (
                domain,
                model.pstate_terms,
                model.params.leak_temp_scale,
                model.params.t_ref,
                model.params.idle_floor,
                tuple(cores),
            )
            for domain, model, cores in zip(
                self.domains, self._class_models, members
            )
        )

        @hotpath
        def diode() -> float:
            temperatures[:] = map(temperature_of, core_nodes)
            return max(temperatures)

        @hotpath
        def io(on: bool) -> None:
            if not on:
                for i, key in enumerate(core_keys):
                    core_powers[i] = 0.0
                    net_powers[key] = 0.0
                self._cpu_power = 0.0
                return
            utilization = core._utilization
            for domain, terms, scale, t_ref, floor, cores in classes:
                dynamic, leak = terms(domain.pstate, utilization)
                for i, key in cores:
                    power = dynamic + leak * exp(scale * (temperatures[i] - t_ref))
                    if floor > power:
                        power = floor
                    if not (power >= 0.0):
                        set_core_power(i, power)  # raises the setter's error
                    core_powers[i] = power
                    net_powers[key] = power
            self._cpu_power = sum(core_powers)

        return diode, io
