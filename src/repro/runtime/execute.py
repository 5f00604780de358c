"""Materialize a :class:`RunSpec` into a live simulation and run it.

:func:`execute_spec` is the single bridge from the declarative layer to
the simulator: it resolves registry names
(:mod:`repro.experiments.platform`), assembles the cluster, riggs the
governors, builds the workload and runs the protocol the spec calls
for — job-to-completion (the normal case) or a fixed fault horizon.

It is a module-level function of one picklable argument precisely so
:class:`~repro.runtime.executor.RunExecutor` can ship it to worker
processes; determinism across process boundaries follows from the
simulator being a pure function of the spec (seeded named RNG streams,
no ambient entropy — enforced by ``repro.lint`` RPR001).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from ..cluster.cluster import Cluster, RunResult
from ..config import ClusterConfig
from ..errors import ConfigurationError
from ..telemetry.registry import MetricsRegistry
from .spec import RunSpec

__all__ = ["execute_spec", "execute_specs_batch"]


def _resolve(registry: Mapping, kind: str, name: str):
    """Look up ``name`` in a registry, failing with the available keys."""
    try:
        return registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {sorted(registry)}"
        ) from None


def _build_run(spec: RunSpec):
    """Materialize ``spec`` into a ready-to-run ``(cluster, job)`` pair.

    The import of :mod:`repro.experiments.platform` is deferred to call
    time: the experiments layer imports the runtime layer, so the
    registries must be resolved lazily to keep the import graph acyclic
    (and so worker processes resolve them against their own fresh
    interpreter state).
    """
    from ..experiments import platform as registries

    ambient_factory = None
    if spec.ambient is not None:
        maker = _resolve(
            registries.AMBIENT_REGISTRY, "ambient model", spec.ambient.name
        )
        ambient_factory = maker(spec.n_nodes, **dict(spec.ambient.params))

    # A spec without a platform builds the exact pre-platform config —
    # the byte-identity guarantee for every historical spec.  A named
    # platform swaps in that silicon's node config (same chassis).
    if spec.platform is None:
        platform_spec = None
        config = ClusterConfig(n_nodes=spec.n_nodes, seed=spec.seed)
    else:
        from ..platform import resolve_platform

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
        attach = _resolve(registries.RIG_REGISTRY, "rig", rig.name)
        attach(cluster, **dict(rig.params))

    make_job = _resolve(registries.WORKLOAD_REGISTRY, "workload", spec.workload)
    job = make_job(cluster, **dict(spec.workload_params))
    return cluster, job


def execute_spec(spec: RunSpec) -> RunResult:
    """Run the simulation a spec names and return its result."""
    cluster, job = _build_run(spec)
    if spec.fault is None:
        return cluster.run_job(job, timeout=spec.timeout, tail=spec.tail)
    return _execute_fault(cluster, job, spec)


def execute_specs_batch(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Run several specs in lockstep through :mod:`repro.fastpath.batch`.

    Each spec gets its own cluster, job and telemetry registry exactly
    as :func:`execute_spec` would build them; only the per-tick thermal
    integration is shared (one stacked solve across every node of every
    run).  Results are bitwise identical to running each spec through
    :func:`execute_spec`, which is what makes it legal for the executor
    to populate the per-spec content-addressed cache from a batched run.

    Callers are expected to pass specs that group (same workload shape
    and tick schedule, no fault protocol); anything the lockstep path
    cannot handle — down to a mid-run divergence or budget exhaustion —
    makes this function fall back to serial per-spec execution, which
    also reproduces the serial path's exact error behaviour.
    """
    from ..fastpath.batch import run_jobs_batch

    specs = list(specs)
    if len(specs) < 2:
        return [execute_spec(spec) for spec in specs]
    try:
        pairs = [_build_run(spec) for spec in specs]
        return run_jobs_batch(
            clusters=[cluster for cluster, _ in pairs],
            jobs=[job for _, job in pairs],
            timeouts=[spec.timeout for spec in specs],
            tails=[spec.tail for spec in specs],
        )
    except Exception:
        # Anything at all — Unbatchable, a simulation error, a foreign
        # component — defers to the serial path, which either succeeds
        # or raises the reference error for the offending spec.
        return [execute_spec(spec) for spec in specs]


def _execute_fault(cluster: Cluster, job, spec: RunSpec) -> RunResult:
    """The fault protocol: run to ``at``, inject, ride out the horizon."""
    fault = spec.fault
    if fault.kind != "fan_fail":
        raise ConfigurationError(f"unknown fault kind {fault.kind!r}")
    cluster.bind_job(job)
    cluster.run_for(fault.at)
    victim = cluster.node(fault.node)
    victim.fail_fan(t=cluster.engine.clock.now)
    cluster.run_for(fault.horizon - fault.at)
    return RunResult(
        execution_time=fault.horizon,
        traces=cluster.traces,
        events=cluster.events,
        average_power=[n.meter.average_power for n in cluster.nodes],
        energy_joules=[n.meter.energy_joules for n in cluster.nodes],
        job_name=job.name,
        node_shutdown=[n.is_shutdown for n in cluster.nodes],
        retired_cycles=[float(n.core.retired_cycles) for n in cluster.nodes],
        telemetry=(
            cluster.telemetry.snapshot() if cluster.telemetry.enabled else None
        ),
    )
