"""Concrete workloads: cpu-burn, NPB-like jobs, synthetic profiles."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.base import Job
from repro.workloads.cpuburn import cpu_burn_session
from repro.workloads.npb import NpbJob, NpbParams, bt_b_4, lu_a_4
from repro.workloads.synthetic import (
    gradual_profile,
    jitter_profile,
    mixed_thermal_profile,
    sudden_profile,
)

FREQ = 2.4e9


def drive(job: Job, dt=0.05, freq=FREQ, limit=100_000):
    """Advance all ranks until the job finishes; returns elapsed time."""
    t = 0.0
    steps = 0
    while not job.finished:
        for rank in job.ranks:
            rank.advance(dt, freq)
        t += dt
        steps += 1
        if steps > limit:
            raise AssertionError("job did not finish")
    return t


def one_burn(seconds: float, rng=None) -> Job:
    """A single burn with no warmup; jitter only with an ``rng``."""
    return cpu_burn_session(instances=1, burn_duration=seconds, rng=rng, warmup=0.0)


class TestCpuBurn:
    def test_duration_at_reference_frequency(self):
        job = one_burn(2.0)
        elapsed = drive(job)
        assert elapsed == pytest.approx(2.0, abs=0.1)

    def test_scales_with_frequency(self):
        job = one_burn(2.0)
        elapsed = drive(job, freq=FREQ / 2)
        assert elapsed == pytest.approx(4.0, abs=0.2)

    def test_full_utilization(self):
        (rank,) = one_burn(1.0).ranks
        util = rank.advance(0.5, FREQ)
        assert util == pytest.approx(1.0)

    def test_jitter_adds_dropouts(self, rng):
        job = one_burn(10.0, rng=rng)
        elapsed = drive(job)
        # 4 dropouts (0.4 per second) x 0.35 s extend the nominal 10 s burn
        assert elapsed > 11.0

    def test_session_structure(self, rng):
        job = cpu_burn_session(
            instances=2, burn_duration=5.0, gap_duration=0.5, rng=rng, warmup=0.5
        )
        elapsed = drive(job)
        # warmup + 2 burns + 1 gap, extended by the jitter dropouts
        assert elapsed > 0.5 + 10.0 + 0.5 + 0.3


class TestNpbParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NpbParams(name="x", n_ranks=0, iterations=10, compute_seconds=1.0, comm_seconds=0.1)
        with pytest.raises(ConfigurationError):
            NpbParams(name="x", n_ranks=4, iterations=0, compute_seconds=1.0, comm_seconds=0.1)

    def test_intensity_schedule_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            NpbParams(
                name="x",
                n_ranks=4,
                iterations=10,
                compute_seconds=1.0,
                comm_seconds=0.1,
                intensity_schedule=((0.5, 0.9, 1.0),),
            )


class TestNpbJob:
    def test_rank_count(self):
        job = bt_b_4(iterations=5)
        assert job.n_ranks == 4

    def test_runs_to_completion_with_barriers(self):
        job = bt_b_4(iterations=5)
        elapsed = drive(job)
        expected = 5 * (0.83 + 0.22)
        assert elapsed == pytest.approx(expected, rel=0.1)

    def test_noise_requires_rng(self):
        params = dict(
            name="x",
            n_ranks=2,
            iterations=3,
            compute_seconds=0.5,
            comm_seconds=0.1,
            iteration_noise=0.2,
        )
        rng = np.random.default_rng(0)
        noisy = NpbJob(NpbParams(**params), rng=rng).build()
        clean = NpbJob(NpbParams(**params), rng=None).build()
        t_noisy = drive(noisy, dt=0.005)
        t_clean = drive(clean, dt=0.005)
        assert t_noisy != pytest.approx(t_clean, abs=1e-9)

    def test_lu_builder(self):
        assert lu_a_4(iterations=4).n_ranks == 4

    def test_frequency_stretches_execution(self):
        fast = drive(bt_b_4(iterations=5), freq=2.4e9)
        slow = drive(bt_b_4(iterations=5), freq=2.2e9)
        ratio = slow / fast
        # compute stretches by 2.4/2.2, comm does not
        assert 1.03 < ratio < 1.10


class TestSynthetic:
    def test_sudden_profile_steps(self):
        prof = sudden_profile(low=0.1, high=0.9, step_time=10.0, duration=20.0)
        assert prof.fn(5.0) == 0.1
        assert prof.fn(15.0) == 0.9

    def test_sudden_validates_step_inside(self):
        with pytest.raises(ConfigurationError):
            sudden_profile(step_time=30.0, duration=20.0)

    def test_gradual_ramps(self):
        prof = gradual_profile(start=0.0, end=1.0, duration=100.0)
        assert prof.fn(50.0) == pytest.approx(0.5)

    def test_jitter_mean_preserved(self, rng):
        prof = jitter_profile(base=0.5, amplitude=0.4, duration=60.0, rng=rng)
        values = [prof.fn(t) for t in np.arange(0, 60, 0.05)]
        assert np.mean(values) == pytest.approx(0.5, abs=0.06)

    def test_mixed_profile_builds_and_runs(self):
        job = mixed_thermal_profile(duration=10.0).build()
        elapsed = drive(job)
        assert elapsed == pytest.approx(10.0, abs=0.1)
