"""NAS Parallel Benchmark-like iterative parallel workloads.

The paper's evaluation runs NPB **BT.B** and **LU.A** on four nodes
(one MPI rank per node).  We model them as what they are to a thermal
controller: iterative solvers alternating

* a frequency-sensitive **compute** segment (the x/y/z sweeps), and
* a frequency-insensitive **communication** segment (face exchanges),

closed by a **barrier** per iteration (the implicit synchronization of
the exchange).  Calibration: BT.B.4 retires ≈200 iterations totalling
≈219 s at 2.4 GHz — Table 1's baseline execution time — with ~10 %
communication, so one DVFS step to 2.2 GHz stretches the run to ≈233 s,
the paper's measured ratio.

Per-rank load imbalance (a fixed skew plus per-iteration noise) makes
barriers bite, and short utilization dips at each exchange are what
interval-based governors like CPUSPEED mistake for idleness.

LU.A.4 additionally carries an intensity *schedule*: its later
iterations are lighter (the paper's Figure 8 shows the temperature
falling mid-run and tDVFS restoring the original frequency), which we
model as a heavy phase followed by a light phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..units import require_in_range, require_non_negative, require_positive
from .base import (
    Barrier,
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    Job,
    RankProgram,
    Segment,
)

__all__ = [
    "NpbParams",
    "NpbJob",
    "bt_b_4",
    "lu_a_4",
    "cg_b_4",
    "ep_b_4",
    "mg_b_4",
]


@dataclass(frozen=True)
class NpbParams:
    """Shape of one NPB-like benchmark run.

    Attributes
    ----------
    name:
        Benchmark tag, e.g. ``"BT.B.4"``.
    n_ranks:
        MPI ranks (== nodes).
    iterations:
        Solver timesteps.
    compute_seconds:
        Wall time of one iteration's compute segment at
        ``reference_frequency``, seconds.
    comm_seconds:
        Wall time of one iteration's communication segment, seconds.
    comm_utilization:
        Core busy fraction during communication (blocking recv ≈ 0.15).
    reference_frequency:
        Frequency the compute time is quoted at, Hz.
    rank_skew:
        Maximum fixed per-rank compute imbalance (fraction; ranks get
        skews evenly spread in ``[-rank_skew, +rank_skew]``).
    iteration_noise:
        Std-dev of per-iteration compute-time noise (fraction).
    intensity_schedule:
        Optional sequence of (fraction_of_iterations, utilization,
        compute_scale) triples modelling phase changes.  ``None`` means
        uniform full intensity.
    """

    name: str
    n_ranks: int
    iterations: int
    compute_seconds: float
    comm_seconds: float
    comm_utilization: float = 0.15
    reference_frequency: float = 2.4e9
    rank_skew: float = 0.01
    iteration_noise: float = 0.02
    intensity_schedule: Optional[Sequence[tuple]] = None

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        require_positive(self.compute_seconds, "compute_seconds")
        require_non_negative(self.comm_seconds, "comm_seconds")
        require_in_range(self.comm_utilization, 0.0, 1.0, "comm_utilization")
        require_positive(self.reference_frequency, "reference_frequency")
        require_in_range(self.rank_skew, 0.0, 0.5, "rank_skew")
        require_in_range(self.iteration_noise, 0.0, 0.5, "iteration_noise")
        if self.intensity_schedule is not None:
            total = sum(f for f, _, _ in self.intensity_schedule)
            if abs(total - 1.0) > 1e-6:
                raise ConfigurationError(
                    f"intensity_schedule fractions must sum to 1, got {total}"
                )


class NpbJob:
    """Builds the rank programs of one NPB-like run.

    Parameters
    ----------
    params:
        The benchmark shape.
    rng:
        Noise source for iteration-time variation (``None`` = noiseless).
    """

    def __init__(
        self, params: NpbParams, rng: Optional[np.random.Generator] = None
    ) -> None:
        self.params = params
        self.rng = rng

    def _iteration_intensity(self, iteration: int) -> tuple:
        """(utilization, compute_scale) for the given iteration index."""
        p = self.params
        if p.intensity_schedule is None:
            return 0.98, 1.0
        position = iteration / p.iterations
        acc = 0.0
        for fraction, util, scale in p.intensity_schedule:
            acc += fraction
            if position < acc + 1e-12:
                return util, scale
        _, util, scale = p.intensity_schedule[-1]
        return util, scale

    def build(self) -> Job:
        """Construct a fresh :class:`~repro.workloads.base.Job`."""
        p = self.params
        barriers: List[Barrier] = [
            Barrier(p.n_ranks, f"{p.name}/it{k}") for k in range(p.iterations)
        ]
        # Pre-draw all noise so every rank program is deterministic and
        # the generator needs no shared mutable RNG state.
        if self.rng is not None and p.iteration_noise > 0:
            noise = self.rng.normal(
                0.0, p.iteration_noise, size=(p.n_ranks, p.iterations)
            )
        else:
            noise = np.zeros((p.n_ranks, p.iterations))
        if p.n_ranks > 1:
            skews = np.linspace(-p.rank_skew, p.rank_skew, p.n_ranks)
        else:
            skews = np.zeros(1)

        def segments(rank_id: int) -> Iterator[Segment]:
            for k in range(p.iterations):
                util, scale = self._iteration_intensity(k)
                factor = scale * (1.0 + skews[rank_id] + noise[rank_id, k])
                factor = max(0.05, factor)
                cycles = p.compute_seconds * factor * p.reference_frequency
                yield ComputeSegment(cycles, utilization=util)
                if p.comm_seconds > 0:
                    yield CommSegment(
                        p.comm_seconds, utilization=p.comm_utilization
                    )
                yield BarrierSegment(barriers[k])

        ranks = [
            RankProgram(segments(r), name=f"{p.name}/rank{r}")
            for r in range(p.n_ranks)
        ]
        return Job(ranks, name=p.name)


def bt_b_4(
    rng: Optional[np.random.Generator] = None,
    iterations: Optional[int] = None,
) -> Job:
    """NPB BT class B on 4 ranks — the paper's Table 1 / Figs 6-7, 9-10 load.

    ≈219 s at 2.4 GHz: 200 iterations × (0.83 s compute + 0.22 s comm).
    The comm share (~21 % of the iteration) matches BT.B's measured
    communication fraction on commodity GigE clusters of the era and
    gives interval governors the utilization dips they react to.
    """
    params = NpbParams(
        name="BT.B.4",
        n_ranks=4,
        iterations=iterations if iterations is not None else 200,
        compute_seconds=0.83,
        comm_seconds=0.22,
        comm_utilization=0.15,
    )
    return NpbJob(params, rng=rng).build()


def lu_a_4(
    rng: Optional[np.random.Generator] = None,
    iterations: Optional[int] = None,
) -> Job:
    """NPB LU class A on 4 ranks — the Figure 8 load.

    Modelled with a heavy first phase and a lighter tail so the
    temperature crosses the tDVFS threshold upward, then falls back
    below it — producing the down-then-up frequency trajectory of
    Figure 8.
    """
    params = NpbParams(
        name="LU.A.4",
        n_ranks=4,
        iterations=iterations if iterations is not None else 250,
        compute_seconds=0.72,
        comm_seconds=0.12,
        comm_utilization=0.15,
        intensity_schedule=(
            # LU.A on 4 nodes is communication-bound: even the heavy
            # sweeps keep the core only ~half busy, which is what lets
            # the weak (25 %-capped) traditional fan of Figure 8 hold
            # the plant with a single DVFS step.
            (0.55, 0.63, 1.0),   # heavy sweeps
            (0.45, 0.30, 0.55),  # lighter tail (pipelined wavefronts)
        ),
    )
    return NpbJob(params, rng=rng).build()


def cg_b_4(
    rng: Optional[np.random.Generator] = None,
    iterations: Optional[int] = None,
) -> Job:
    """NPB CG class B on 4 ranks — the communication-bound extreme.

    Conjugate gradient is dominated by irregular sparse communication:
    roughly 40 % of each iteration is exchange time at low utilization,
    which makes it the workload interval governors misjudge hardest and
    a mild thermal load overall.
    """
    params = NpbParams(
        name="CG.B.4",
        n_ranks=4,
        iterations=iterations if iterations is not None else 260,
        compute_seconds=0.38,
        comm_seconds=0.26,
        comm_utilization=0.12,
    )
    return NpbJob(params, rng=rng).build()


def ep_b_4(
    rng: Optional[np.random.Generator] = None,
    iterations: Optional[int] = None,
) -> Job:
    """NPB EP class B on 4 ranks — the embarrassingly parallel extreme.

    Essentially no communication (a single reduction at the end of each
    long block), utilization pinned at ~1.0: thermally it behaves like
    cpu-burn with barriers, and interval governors never see a dip.
    """
    params = NpbParams(
        name="EP.B.4",
        n_ranks=4,
        iterations=iterations if iterations is not None else 24,
        compute_seconds=7.2,
        comm_seconds=0.03,
        comm_utilization=0.15,
        rank_skew=0.005,
    )
    return NpbJob(params, rng=rng).build()


def mg_b_4(
    rng: Optional[np.random.Generator] = None,
    iterations: Optional[int] = None,
) -> Job:
    """NPB MG class B on 4 ranks — short cycles, mid communication.

    Multigrid V-cycles are brief and alternate quickly between compute
    and exchange, putting its power signature between BT and CG.
    """
    params = NpbParams(
        name="MG.B.4",
        n_ranks=4,
        iterations=iterations if iterations is not None else 420,
        compute_seconds=0.30,
        comm_seconds=0.12,
        comm_utilization=0.15,
    )
    return NpbJob(params, rng=rng).build()
