"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.policy import Policy
from repro.fan.adt7467 import ADT7467, Adt7467Config
from repro.fan.driver import FanDriver
from repro.fleet import run_fleet
from repro.i2c.bus import I2cBus
from repro.runtime import RunExecutor
from repro.thermal.package import CpuPackage


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for per-test noise."""
    return np.random.default_rng(1234)


@pytest.fixture
def policy() -> Policy:
    """The paper's moderate policy, P_p = 50."""
    return Policy(pp=50)


@pytest.fixture
def package() -> CpuPackage:
    """A default CPU package at its initial temperature."""
    return CpuPackage()


@pytest.fixture
def fan_bus():
    """An i2c bus with one ADT7467 attached; returns (bus, chip)."""
    bus = I2cBus()
    chip = ADT7467(Adt7467Config())
    bus.attach(chip)
    return bus, chip


@pytest.fixture
def fan_driver(fan_bus) -> FanDriver:
    """A fan driver probed against the fixture chip."""
    bus, chip = fan_bus
    return FanDriver(bus, chip.address)


@pytest.fixture
def small_cluster() -> Cluster:
    """A 2-node cluster with a fast-to-simulate configuration."""
    return Cluster(ClusterConfig(n_nodes=2, seed=42))


@pytest.fixture
def single_node_cluster() -> Cluster:
    """A 1-node cluster for controller-behaviour tests."""
    return Cluster(ClusterConfig(n_nodes=1, seed=42))


def settle_package(pkg: CpuPackage, power: float, airflow: float, seconds: float = 2500.0) -> float:
    """Drive a package to (near) equilibrium; returns the die temperature."""
    pkg.set_power(power)
    pkg.set_airflow(airflow)
    dt = 0.1
    steps = int(seconds / dt)
    for i in range(steps):
        pkg.step(i * dt, dt)
    return pkg.die_temperature


@pytest.fixture(scope="session")
def pinned_runs(tmp_path_factory):
    """The result-pin runs, once per session: per platform set of
    ``tests/test_result_pins.py``, label -> (spec, fresh result, result
    read back from the store, the store's summary for the spec).  The
    fresh results come from one grouped ``map``, as in production; the
    stored summaries' spec digests fold in the pins' package version."""
    from tests.test_result_pins import PIN_VERSION, PLATFORMS, quick_specs

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro, "__version__", PIN_VERSION)
        for key, (platform, names, _pins) in PLATFORMS.items():
            specs = quick_specs(names, platform)
            cache = tmp_path_factory.mktemp(f"pins-{key}")
            fresh = RunExecutor(cache_dir=cache).map(list(specs.values()))
            warm = RunExecutor(cache_dir=cache)
            loaded = warm.map(list(specs.values()))
            snapshot = warm.telemetry_snapshot()
            assert snapshot.value("host.cache.hits") == len(specs)
            assert snapshot.value("host.exec.executed") == 0
            runs[key] = {
                label: (spec, a, b, warm.cached(spec))
                for (label, spec), a, b in zip(specs.items(), fresh, loaded)
            }
    return runs


@pytest.fixture(scope="session")
def fleet_bytes():
    """``run_fleet(spec, shards).canonical_bytes()``, once per session
    per ``(spec, shards)``."""
    return functools.lru_cache(maxsize=None)(
        lambda spec, shards: run_fleet(spec, shards=shards).canonical_bytes()
    )
