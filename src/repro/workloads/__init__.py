"""Workload substrate.

The paper drives its controllers with three classes of load:

* **cpu-burn** (§4.2) — a synthetic burner that pins the CPU; three
  back-to-back instances produce the sudden/jitter-rich profile of
  Figure 5 (:mod:`repro.workloads.cpuburn`).
* **NAS Parallel Benchmarks** BT.B and LU.A on 4 MPI ranks (§4.2–4.4) —
  iterative solvers whose compute segments scale with CPU frequency and
  whose communication segments do not
  (:mod:`repro.workloads.npb`).
* **Synthetic thermal-type generators** — parameterized Type I
  (sudden), Type II (gradual) and Type III (jitter) utilization
  profiles used to characterize the controller (Figure 2, ablations)
  (:mod:`repro.workloads.synthetic`).

All of them implement the rank protocol of
:class:`repro.cpu.core.RankInterface` plus the job-level protocol in
:mod:`repro.workloads.base`.
"""

from .base import (
    Barrier,
    CommSegment,
    ComputeSegment,
    IdleSegment,
    Job,
    RankProgram,
    Segment,
)
from .cpuburn import CpuBurn, cpu_burn_session
from .npb import (
    NpbJob,
    NpbParams,
    bt_b_4,
    cg_b_4,
    ep_b_4,
    lu_a_4,
    mg_b_4,
)
from .synthetic import (
    SyntheticRank,
    gradual_profile,
    jitter_profile,
    mixed_thermal_profile,
    sudden_profile,
)

__all__ = [
    "Segment",
    "ComputeSegment",
    "CommSegment",
    "IdleSegment",
    "Barrier",
    "RankProgram",
    "Job",
    "CpuBurn",
    "cpu_burn_session",
    "NpbParams",
    "NpbJob",
    "bt_b_4",
    "lu_a_4",
    "cg_b_4",
    "ep_b_4",
    "mg_b_4",
    "SyntheticRank",
    "sudden_profile",
    "gradual_profile",
    "jitter_profile",
    "mixed_thermal_profile",
]
