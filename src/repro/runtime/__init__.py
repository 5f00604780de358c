"""The runtime layer: declarative specs, parallel execution, caching.

Every simulation the repo runs — CLI experiments, benchmarks, series
regeneration, tests — flows through this package:

.. code-block:: python

    from repro.runtime import RunExecutor, RunSpec

    specs = [
        RunSpec.of(
            "bt_b_4", {"iterations": 200},
            rigs=[("dynamic_fan", {"pp": 50, "max_duty": cap})],
            seed=20100913,
        )
        for cap in (0.25, 0.50, 0.75, 1.00)
    ]
    results = RunExecutor(jobs=4).map(specs)   # one RunResult per spec

* :mod:`repro.runtime.spec` — :class:`RunSpec`: a frozen, hashable
  name for one run (platform, seed, workload, rigging, fault).
* :mod:`repro.runtime.execute` — the spec → simulation bridge.
* :mod:`repro.runtime.executor` — :class:`RunExecutor`: lockstep
  grouping of sweeps, serial or process-pool fan-out and a
  content-addressed result cache (:mod:`repro.runtime.store`).
* :mod:`repro.runtime.measure` — :class:`Measure`: the shared
  trace-window reductions experiment rows are built from.

The determinism contract: a spec's result is byte-identical whether it
ran serially, in a worker process, or came from the cache.  ``repro
lint`` rule RPR007 keeps experiments on this path by banning direct
``Cluster``/``run_job`` use outside the platform/runtime layers.
"""

from .executor import ExecutorStats, RunExecutor, timed_execute_specs
from .execute import execute_spec
from .measure import Measure, first_rise_delay, late_quarter_slope
from .spec import (
    DEFAULT_SEED,
    FaultSpec,
    Params,
    RigSpec,
    RunSpec,
    freeze_params,
)

__all__ = [
    "DEFAULT_SEED",
    "ExecutorStats",
    "FaultSpec",
    "Measure",
    "Params",
    "RigSpec",
    "RunExecutor",
    "RunSpec",
    "execute_spec",
    "first_rise_delay",
    "freeze_params",
    "late_quarter_slope",
    "timed_execute_specs",
]
