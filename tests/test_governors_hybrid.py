"""Hybrid control: dynamic fan and tDVFS under one P_p."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.policy import Policy
from repro.errors import PolicyError
from repro.governors.fan_dynamic import DynamicFanControl
from repro.governors.hybrid import HybridControl, hybrid_governors
from repro.governors.tdvfs import TDvfs
from repro.workloads.base import ComputeSegment, Job, RankProgram


def one_node(seed=42) -> Cluster:
    return Cluster(ClusterConfig(n_nodes=1, seed=seed))


def burn_job(seconds=60.0) -> Job:
    return Job(
        [RankProgram([ComputeSegment(2.4e9 * seconds)], name="burn")],
        name="burn",
    )


class TestHybridControl:
    def make_hybrid(self, cluster, pp_fan=50, pp_dvfs=None):
        node = cluster.nodes[0]
        policy_fan = Policy(pp=pp_fan)
        policy_dvfs = Policy(pp=pp_dvfs if pp_dvfs is not None else pp_fan)
        fan = DynamicFanControl(
            node.make_fan_driver(max_duty=0.5), policy_fan, events=cluster.events
        )
        tdvfs = TDvfs(node.dvfs, policy_dvfs, events=cluster.events)
        return HybridControl(fan, tdvfs)

    def test_mismatched_policies_rejected(self):
        cluster = one_node()
        with pytest.raises(PolicyError):
            self.make_hybrid(cluster, pp_fan=25, pp_dvfs=75)

    def test_shared_policy_accepted(self):
        cluster = one_node()
        hybrid = self.make_hybrid(cluster, pp_fan=50)
        assert hybrid.coordinator.techniques == ["fan", "dvfs"]

    def test_samples_reach_both_halves(self):
        cluster = one_node()
        hybrid = self.make_hybrid(cluster)
        hybrid.start(0.0)
        for i in range(8):
            hybrid.on_sample(i * 0.25, 50.0)
        assert hybrid.fan.controller.window.samples == 8
        assert hybrid.tdvfs.window.samples == 8

    def test_factory_builds_per_node(self):
        cluster = one_node()
        hybrid = hybrid_governors(
            cluster.nodes[0], Policy(pp=50), max_duty=0.5, events=cluster.events
        )
        assert isinstance(hybrid, HybridControl)
        assert hybrid.fan.driver.max_duty == pytest.approx(0.5)

    def test_end_to_end_run(self):
        cluster = one_node()
        node = cluster.nodes[0]
        cluster.add_governor(
            node, hybrid_governors(node, Policy(pp=50), events=cluster.events)
        )
        result = cluster.run_job(burn_job(60.0), timeout=3600)
        # the fan half must have actuated
        assert result.traces["node0.duty"].max() > 0.12
