"""Materialize a :class:`RunSpec` into a live simulation and run it.

:func:`execute_spec` is the single bridge from the declarative layer to
the simulator: it resolves registry names
(:mod:`repro.experiments.platform`), assembles the cluster, riggs the
governors, builds the workload and runs the protocol the spec calls
for — job-to-completion (the normal case) or a fixed fault horizon.
:func:`execute_specs_batch` runs an executor's unit of specs: the fault
specs on their protocol, every other spec as a lane of one
:func:`~repro.fastpath.batch.run_jobs_batch` call, which is the one
``run_job`` (:meth:`Cluster.run_job
<repro.cluster.cluster.Cluster.run_job>` is its one-lane call).

It is a module-level function of one picklable argument precisely so
:class:`~repro.runtime.executor.RunExecutor` can ship it to worker
processes; determinism across process boundaries follows from the
simulator being a pure function of the spec (seeded named RNG streams,
no ambient entropy — enforced by ``repro.lint`` RPR001).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..cluster.cluster import Cluster, RunResult
from ..config import ClusterConfig
from ..errors import ConfigurationError
from ..telemetry.registry import MetricsRegistry
from .spec import RunSpec

__all__ = ["check_names", "execute_spec", "execute_specs_batch"]


def _resolve(registry: Mapping, kind: str, name: str):
    """Look up ``name`` in a registry, failing with the available keys."""
    try:
        return registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {sorted(registry)}"
        ) from None


def check_names(spec: RunSpec) -> None:
    """Fail if ``spec`` names an ambient model, platform, rig or workload
    that no registry knows.

    The names are known before a run starts, so a server refuses such a
    spec before it takes an executor slot.  The import of
    :mod:`repro.experiments.platform` is deferred to call time: the
    experiments layer imports the runtime layer, so the registries must
    be resolved lazily to keep the import graph acyclic (and so worker
    processes resolve them against their own fresh interpreter state).
    """
    from ..experiments import platform as registries
    from ..platform import resolve_platform

    if spec.ambient is not None:
        _resolve(registries.AMBIENT_REGISTRY, "ambient model", spec.ambient.name)
    if spec.platform is not None:
        resolve_platform(spec.platform)
    for rig in spec.rigs:
        _resolve(registries.RIG_REGISTRY, "rig", rig.name)
    _resolve(registries.WORKLOAD_REGISTRY, "workload", spec.workload)


def _build_run(spec: RunSpec):
    """Materialize ``spec`` into a ready-to-run ``(cluster, job)`` pair,
    after :func:`check_names`."""
    from ..experiments import platform as registries
    from ..platform import resolve_platform

    check_names(spec)
    ambient_factory = None
    if spec.ambient is not None:
        maker = registries.AMBIENT_REGISTRY[spec.ambient.name]
        ambient_factory = maker(spec.n_nodes, **dict(spec.ambient.params))

    # A spec without a platform builds the exact pre-platform config —
    # the byte-identity guarantee for every historical spec.  A named
    # platform swaps in that silicon's node config (same chassis).
    if spec.platform is None:
        platform_spec = None
        config = ClusterConfig(n_nodes=spec.n_nodes, seed=spec.seed)
    else:
        platform_spec = resolve_platform(spec.platform)
        config = ClusterConfig(
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            node=platform_spec.node_config(),
        )

    cluster = Cluster(
        config,
        ambient_factory=ambient_factory,
        telemetry=MetricsRegistry() if spec.telemetry else None,
        platform=platform_spec,
    )
    for rig in spec.rigs:
        registries.RIG_REGISTRY[rig.name](cluster, **dict(rig.params))

    job = registries.WORKLOAD_REGISTRY[spec.workload](
        cluster, **dict(spec.workload_params)
    )
    return cluster, job


def execute_spec(spec: RunSpec) -> RunResult:
    """Run the simulation a spec names and return its result."""
    cluster, job = _build_run(spec)
    if spec.fault is None:
        return cluster.run_job(job, timeout=spec.timeout, tail=spec.tail)
    return _execute_fault(cluster, job, spec)


def execute_specs_batch(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Run an execution unit; returns the results in spec order.

    A fault spec runs the fault protocol.  Every other spec is a lane of
    one :func:`~repro.fastpath.batch.run_jobs_batch` call, so their
    nodes' packages step as one stack on one tick schedule.  The specs
    may differ in anything but the package structure their platform
    builds.

    Each spec gets its own cluster, job and telemetry registry exactly
    as :func:`execute_spec` would build them; only the per-tick thermal
    integration is shared.  Results are bitwise identical to running
    each spec through :func:`execute_spec`, which is what makes it legal
    for the executor to populate the per-spec content-addressed cache
    from a unit's run.
    """
    from ..fastpath.batch import run_jobs_batch

    specs = list(specs)
    results: List[Optional[RunResult]] = [
        None if spec.fault is None else execute_spec(spec) for spec in specs
    ]
    lanes = [i for i, spec in enumerate(specs) if spec.fault is None]
    pairs = [_build_run(specs[i]) for i in lanes]
    ran = run_jobs_batch(
        [cluster for cluster, _ in pairs],
        [job for _, job in pairs],
        [specs[i].timeout for i in lanes],
        [specs[i].tail for i in lanes],
    )
    for i, result in zip(lanes, ran):
        results[i] = result
    return results


def _execute_fault(cluster: Cluster, job, spec: RunSpec) -> RunResult:
    """The fault protocol: run to ``at``, inject, ride out the horizon."""
    fault = spec.fault
    cluster.bind_job(job)
    cluster.run_for(fault.at)
    victim = cluster.node(fault.node)
    victim.fail_fan(t=cluster.engine.clock.now)
    cluster.run_for(fault.horizon - fault.at)
    return cluster.result(job.name, fault.horizon)
