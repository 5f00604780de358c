"""Deterministic per-component RNG streams."""

import numpy as np

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(7).stream("sensor").normal(size=5)
        b = RngStreams(7).stream("sensor").normal(size=5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(7).stream("sensor").normal(size=5)
        b = RngStreams(8).stream("sensor").normal(size=5)
        assert not np.allclose(a, b)

    def test_different_names_independent(self):
        streams = RngStreams(7)
        a = streams.stream("sensor").normal(size=5)
        b = streams.stream("workload").normal(size=5)
        assert not np.allclose(a, b)

    def test_same_name_returns_same_generator(self):
        streams = RngStreams(7)
        gen1 = streams.stream("x")
        gen1.normal(size=3)  # advance it
        gen2 = streams.stream("x")
        assert gen1 is gen2

    def test_isolation_new_stream_does_not_perturb_existing(self):
        # Reference: draw from "a" only.
        ref = RngStreams(7).stream("a").normal(size=5)
        # Same seed, but another stream is created first.
        streams = RngStreams(7)
        streams.stream("zzz").normal(size=100)
        got = streams.stream("a").normal(size=5)
        assert np.allclose(ref, got)

    def test_seed_property(self):
        assert RngStreams(99).seed == 99

    def test_cross_process_stability(self):
        # crc32-keyed spawning means the sequence depends only on
        # (seed, name), never on interpreter hash randomization.
        value = float(RngStreams(0).stream("node0.sensor").normal())
        again = float(RngStreams(0).stream("node0.sensor").normal())
        assert value == again
