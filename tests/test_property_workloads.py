"""Property-based tests on workload execution invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import (
    Barrier,
    BarrierSegment,
    CommSegment,
    ComputeSegment,
    IdleSegment,
    Job,
    RankProgram,
)

FREQ = 2.4e9

# Strategy: a random small program as (kind, magnitude) pairs.
segment_specs = st.lists(
    st.tuples(
        st.sampled_from(["compute", "comm", "idle"]),
        st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def build_segments(specs):
    out = []
    for kind, magnitude in specs:
        if kind == "compute":
            out.append(ComputeSegment(magnitude * FREQ))
        elif kind == "comm":
            out.append(CommSegment(magnitude))
        else:
            out.append(IdleSegment(magnitude))
    return out


def drive(rank, dt=0.05, freq=FREQ, limit=20000):
    t = 0.0
    for _ in range(limit):
        if rank.finished:
            return t
        rank.advance(dt, freq)
        t += dt
    raise AssertionError("rank did not finish")


@given(specs=segment_specs)
@settings(max_examples=150)
def test_busy_never_exceeds_elapsed(specs):
    rank = RankProgram(build_segments(specs), name="r")
    drive(rank)
    assert rank.busy_seconds <= rank.elapsed + 1e-9


@given(specs=segment_specs)
@settings(max_examples=150)
def test_duration_matches_segment_sum(specs):
    """Total wall time equals the sum of segment durations (within one
    tick of quantization)."""
    rank = RankProgram(build_segments(specs), name="r")
    elapsed = drive(rank)
    expected = sum(
        m if k != "compute" else m  # compute at reference freq: m seconds
        for k, m in specs
    )
    assert abs(elapsed - expected) <= 0.05 + 1e-9


@given(specs=segment_specs, ratio=st.sampled_from([1.0, 2.4 / 2.2, 2.4 / 1.8, 2.4]))
@settings(max_examples=100)
def test_slower_frequency_never_faster(specs, ratio):
    """Execution time is non-increasing in frequency, and only compute
    segments stretch."""
    fast = RankProgram(build_segments(specs), name="fast")
    slow = RankProgram(build_segments(specs), name="slow")
    t_fast = drive(fast, freq=FREQ)
    t_slow = drive(slow, freq=FREQ / ratio)
    assert t_slow >= t_fast - 0.05
    compute_time = sum(m for k, m in specs if k == "compute")
    expected_slow = (
        sum(m for k, m in specs if k != "compute") + compute_time * ratio
    )
    assert abs(t_slow - expected_slow) <= 0.05 + 1e-9


@given(
    n_ranks=st.integers(min_value=2, max_value=6),
    works=st.lists(
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=6,
    ),
)
@settings(max_examples=100)
def test_barrier_makes_all_ranks_finish_with_the_slowest(n_ranks, works):
    """After a barrier, every rank's completion time is governed by the
    slowest rank's work (within a tick)."""
    works = (works * n_ranks)[:n_ranks]
    barrier = Barrier(n_ranks)
    ranks = [
        RankProgram(
            [ComputeSegment(w * FREQ), BarrierSegment(barrier)],
            name=f"r{i}",
        )
        for i, w in enumerate(works)
    ]
    job = Job(ranks, name="barrier-prop")
    t = 0.0
    dt = 0.05
    finish_times = [None] * n_ranks
    for _ in range(5000):
        if job.finished:
            break
        for i, rank in enumerate(ranks):
            rank.advance(dt, FREQ)
            if rank.finished and finish_times[i] is None:
                finish_times[i] = t + dt
        t += dt
    assert job.finished
    slowest = max(works)
    for ft in finish_times:
        assert ft is not None
        # nobody finishes before the slowest work is done, and all
        # finish within two ticks of each other
        assert ft >= slowest - 2 * dt
    spread = max(finish_times) - min(finish_times)
    assert spread <= 2 * dt + 1e-9


@given(specs=segment_specs)
@settings(max_examples=100)
def test_utilization_always_in_unit_interval(specs):
    rank = RankProgram(build_segments(specs), name="r")
    for _ in range(10000):
        if rank.finished:
            break
        util = rank.advance(0.05, FREQ)
        assert 0.0 <= util <= 1.0
