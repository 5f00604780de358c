"""The canonical simulated testbed, rigging helpers, and registries.

All experiment modules build their clusters through these functions so
that the platform (§4.1 of the paper: 4 nodes, Athlon64 4000+, 4300 RPM
fans behind ADT7467s, 4 Hz lm-sensors) is defined in exactly one place.

This module is also the **name registry** of the runtime layer: the
``RIG_REGISTRY`` / ``WORKLOAD_REGISTRY`` / ``AMBIENT_REGISTRY`` tables
map the string names a :class:`~repro.runtime.spec.RunSpec` carries to
the factories below, so specs stay picklable across process boundaries
(a spec ships *names*; every worker process resolves them here against
its own fresh interpreter).  Workload factories take the cluster so
they can draw their historical named RNG streams (``"wl"``,
``"cpu-burn"``, ``"jitter"``) — stream identity is part of the
determinism contract.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, List, Mapping, Optional

from ..cluster.cluster import Cluster
from ..core.policy import Policy
from ..governors.base import Governor
from ..governors.cpuspeed import CpuSpeed, CpuSpeedParams
from ..governors.fan_constant import ConstantFanControl
from ..governors.fan_dynamic import DynamicFanControl
from ..governors.fan_traditional import TraditionalFanControl
from ..governors.hybrid import HybridControl, hybrid_governors
from ..governors.ondemand import Ondemand
from ..governors.tdvfs import TDvfs, TDvfsParams
from ..runtime.spec import DEFAULT_SEED
from ..thermal.ambient import ConstantAmbient
from ..workloads.cpuburn import cpu_burn_session
from ..workloads.npb import (
    NpbJob,
    NpbParams,
    bt_b_4,
    cg_b_4,
    ep_b_4,
    lu_a_4,
    mg_b_4,
)
from ..workloads.synthetic import (
    gradual_profile,
    jitter_profile,
    mixed_thermal_profile,
    sudden_profile,
)

__all__ = [
    "DEFAULT_SEED",
    "platform_policy",
    "attach_dynamic_fan",
    "attach_traditional_fan",
    "attach_constant_fan",
    "attach_tdvfs",
    "attach_cpuspeed",
    "attach_ondemand",
    "attach_hybrid",
    "RIG_REGISTRY",
    "WORKLOAD_REGISTRY",
    "AMBIENT_REGISTRY",
]


def platform_policy(cluster: Cluster, pp: int = 50) -> Policy:
    """The control policy for ``cluster``'s silicon.

    A platform-less cluster (every pre-platform construction) gets
    exactly the historical ``Policy(pp=pp)`` with the paper's 38–82 °C
    band; a platform-bearing one gets the same ``P_p`` over that
    platform's own safe band.
    """
    if cluster.platform is None:
        return Policy(pp=pp)
    return cluster.platform.policy(pp)


def attach_dynamic_fan(
    cluster: Cluster,
    pp: int = 50,
    max_duty: float = 1.0,
    l1_size: int = 4,
    l2_size: int = 5,
    l2_when_l1_silent: bool = True,
) -> List[DynamicFanControl]:
    """Rig every node with the paper's dynamic fan control."""
    policy = platform_policy(cluster, pp)
    governors = []
    for node in cluster.nodes:
        gov = DynamicFanControl(
            driver=node.make_fan_driver(max_duty=max_duty),
            policy=policy,
            l1_size=l1_size,
            l2_size=l2_size,
            l2_when_l1_silent=l2_when_l1_silent,
            events=cluster.events,
            name=f"{node.name}.fan-dynamic",
            telemetry=cluster.telemetry,
        )
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


def attach_traditional_fan(
    cluster: Cluster, max_duty: float = 1.0
) -> List[TraditionalFanControl]:
    """Rig every node with the Figure-1 static hardware curve."""
    governors = []
    for node in cluster.nodes:
        gov = TraditionalFanControl(
            driver=node.make_fan_driver(max_duty=max_duty),
            duty_max=max_duty,
            name=f"{node.name}.fan-traditional",
        )
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


def attach_constant_fan(
    cluster: Cluster, duty: float = 0.75
) -> List[ConstantFanControl]:
    """Rig every node with a pinned fan duty."""
    governors = []
    for node in cluster.nodes:
        gov = ConstantFanControl(
            driver=node.make_fan_driver(),
            duty=duty,
            name=f"{node.name}.fan-constant",
        )
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


def attach_tdvfs(
    cluster: Cluster,
    pp: int = 50,
    params: Optional[TDvfsParams] = None,
) -> List[TDvfs]:
    """Rig every node with the tDVFS daemon."""
    policy = platform_policy(cluster, pp)
    governors = []
    for node in cluster.nodes:
        gov = TDvfs(
            dvfs=node.dvfs,
            policy=policy,
            params=params,
            events=cluster.events,
            name=f"{node.name}.tdvfs",
            telemetry=cluster.telemetry,
        )
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


def attach_cpuspeed(
    cluster: Cluster, params: Optional[CpuSpeedParams] = None
) -> List[CpuSpeed]:
    """Rig every node with the CPUSPEED baseline daemon."""
    governors = []
    for node in cluster.nodes:
        gov = CpuSpeed(
            core=node.core,
            params=params,
            events=cluster.events,
            name=f"{node.name}.cpuspeed",
        )
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


def attach_ondemand(cluster: Cluster) -> List[Ondemand]:
    """Rig every node with the kernel-style ondemand governor."""
    governors = []
    for node in cluster.nodes:
        gov = Ondemand(node.core, events=cluster.events)
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


def attach_hybrid(
    cluster: Cluster,
    pp: int = 50,
    max_duty: float = 0.50,
    tdvfs_params: Optional[TDvfsParams] = None,
) -> List[HybridControl]:
    """Rig every node with the §4.4 hybrid fan + tDVFS configuration."""
    policy = platform_policy(cluster, pp)
    governors = []
    for node in cluster.nodes:
        gov = hybrid_governors(
            node,
            policy,
            max_duty=max_duty,
            tdvfs_params=tdvfs_params,
            events=cluster.events,
            telemetry=cluster.telemetry,
        )
        cluster.add_governor(node, gov)
        governors.append(gov)
    return governors


# -- runtime registries ------------------------------------------------------
#
# Thin adapters where a spec's primitive parameters need shaping into the
# dataclasses the attach helpers take (TDvfsParams etc.).  Everything a
# RunSpec can name is resolved through the three tables at the bottom.


def _rig_tdvfs(cluster: Cluster, pp: int = 50, **params: object) -> List[TDvfs]:
    return attach_tdvfs(
        cluster, pp=pp, params=TDvfsParams(**params) if params else None
    )


def _rig_cpuspeed(cluster: Cluster, **params: object) -> List[CpuSpeed]:
    return attach_cpuspeed(
        cluster, params=CpuSpeedParams(**params) if params else None
    )


def _rig_hybrid(
    cluster: Cluster,
    pp: int = 50,
    max_duty: float = 0.50,
    **params: object,
) -> List[HybridControl]:
    return attach_hybrid(
        cluster,
        pp=pp,
        max_duty=max_duty,
        tdvfs_params=TDvfsParams(**params) if params else None,
    )


#: Rig name → ``f(cluster, **params)`` governor rigging.
RIG_REGISTRY: Mapping[str, Callable[..., object]] = MappingProxyType({
    "dynamic_fan": attach_dynamic_fan,
    "traditional_fan": attach_traditional_fan,
    "constant_fan": attach_constant_fan,
    "tdvfs": _rig_tdvfs,
    "cpuspeed": _rig_cpuspeed,
    "ondemand": attach_ondemand,
    "hybrid": _rig_hybrid,
})


def _wl_npb(builder: Callable[..., object]) -> Callable[..., object]:
    """NPB factory adapter: draws the historical ``"wl"`` stream."""

    def make(cluster: Cluster, iterations: Optional[int] = None) -> object:
        return builder(rng=cluster.rngs.stream("wl"), iterations=iterations)

    return make


def _wl_cpu_burn_session(
    cluster: Cluster,
    instances: int = 3,
    burn_duration: float = 300.0,
    gap_duration: float = 40.0,
) -> object:
    return cpu_burn_session(
        instances=instances,
        burn_duration=burn_duration,
        gap_duration=gap_duration,
        rng=cluster.rngs.stream("cpu-burn"),
    )


def _wl_mixed_thermal_profile(cluster: Cluster, duration: float) -> object:
    return mixed_thermal_profile(duration=duration).build()


def _wl_sudden_profile(
    cluster: Cluster, step_time: float, duration: float
) -> object:
    return sudden_profile(step_time=step_time, duration=duration).build()


def _wl_gradual_profile(cluster: Cluster, duration: float) -> object:
    return gradual_profile(duration=duration).build()


def _wl_jitter_profile(cluster: Cluster, duration: float) -> object:
    return jitter_profile(
        duration=duration, rng=cluster.rngs.stream("jitter")
    ).build()


def _wl_bt_weak(cluster: Cluster, n_ranks: int, iterations: int) -> object:
    """A BT-like job weak-scaled to ``n_ranks`` (same per-node work)."""
    params = NpbParams(
        name=f"BT-weak.{n_ranks}",
        n_ranks=n_ranks,
        iterations=iterations,
        compute_seconds=0.83,
        comm_seconds=0.22,
        comm_utilization=0.15,
    )
    return NpbJob(params, rng=cluster.rngs.stream("wl")).build()


def _wl_bt_long(cluster: Cluster, horizon: float) -> object:
    """A BT-class job guaranteed to outlast a fault horizon."""
    iterations = int(horizon / 1.0) + 100
    params = NpbParams(
        name="BT-long",
        n_ranks=4,
        iterations=iterations,
        compute_seconds=0.83,
        comm_seconds=0.22,
    )
    return NpbJob(params, rng=cluster.rngs.stream("wl")).build()


#: Workload name → ``f(cluster, **params) -> Job``.
WORKLOAD_REGISTRY: Mapping[str, Callable[..., object]] = MappingProxyType({
    "bt_b_4": _wl_npb(bt_b_4),
    "lu_a_4": _wl_npb(lu_a_4),
    "cg_b_4": _wl_npb(cg_b_4),
    "ep_b_4": _wl_npb(ep_b_4),
    "mg_b_4": _wl_npb(mg_b_4),
    "cpu_burn_session": _wl_cpu_burn_session,
    "mixed_thermal_profile": _wl_mixed_thermal_profile,
    "sudden_profile": _wl_sudden_profile,
    "gradual_profile": _wl_gradual_profile,
    "jitter_profile": _wl_jitter_profile,
    "bt_weak": _wl_bt_weak,
    "bt_long": _wl_bt_long,
})


def _ambient_rack_gradient(
    n_nodes: int, base: float = 28.0, gradient: float = 5.0
) -> Callable[[int], ConstantAmbient]:
    """Linear cold-aisle → top-of-rack inlet gradient over ``n_nodes``."""

    def factory(i: int) -> ConstantAmbient:
        frac = i / max(1, n_nodes - 1)
        return ConstantAmbient(base + gradient * frac)

    return factory


#: Ambient name → ``f(n_nodes, **params) -> (node_index -> AmbientModel)``.
AMBIENT_REGISTRY: Mapping[str, Callable[..., Callable[[int], object]]] = MappingProxyType({
    "rack_gradient": _ambient_rack_gradient,
})
