"""The extended NPB-like suite: CG, EP, MG — distinct governor-relevant
signatures."""

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.governors.cpuspeed import CpuSpeed
from repro.workloads.npb import bt_b_4, cg_b_4, ep_b_4, mg_b_4

from .test_workloads_jobs import drive


class TestBuilders:
    def test_names_and_ranks(self):
        for builder, name in (
            (cg_b_4, "CG.B.4"),
            (ep_b_4, "EP.B.4"),
            (mg_b_4, "MG.B.4"),
        ):
            job = builder(iterations=3)
            assert job.name == name
            assert job.n_ranks == 4

    def test_iterations_override(self):
        short = cg_b_4(iterations=5)
        assert drive(short) < 10.0


class TestSignatures:
    def run_with_cpuspeed(self, job, timeout=600):
        cluster = Cluster(ClusterConfig(n_nodes=4, seed=5))
        for node in cluster.nodes:
            cluster.add_governor(node, CpuSpeed(node.core, events=cluster.events))
        return cluster.run_job(job, timeout=timeout)

    def test_ep_keeps_utilization_high(self):
        cluster = Cluster(ClusterConfig(n_nodes=4, seed=5))
        result = cluster.run_job(
            ep_b_4(rng=cluster.rngs.stream("wl"), iterations=4)
        )
        assert result.traces["node0.util"].mean() > 0.9

    def test_cg_utilization_below_ep(self):
        def mean_util(builder, iterations):
            cluster = Cluster(ClusterConfig(n_nodes=4, seed=5))
            result = cluster.run_job(
                builder(rng=cluster.rngs.stream("wl"), iterations=iterations)
            )
            return result.traces["node0.util"].mean()

        assert mean_util(cg_b_4, 40) < mean_util(ep_b_4, 4) - 0.2

    def test_ep_barely_makes_cpuspeed_flap(self):
        """Almost no utilization dips (just the rare barrier-wait
        sliver) -> a near-zero change rate."""
        cluster = Cluster(ClusterConfig(n_nodes=4, seed=5))
        for node in cluster.nodes:
            cluster.add_governor(node, CpuSpeed(node.core, events=cluster.events))
        result = cluster.run_job(
            ep_b_4(rng=cluster.rngs.stream("wl"), iterations=4)
        )
        rate = result.dvfs_change_count(0) / result.execution_time
        assert rate < 0.1  # vs ~0.55/s on BT

    def test_cg_makes_cpuspeed_flap_hard(self):
        """40% low-utilization exchange time: CPUSPEED flaps more per
        unit time on CG than on BT."""
        result_cg = self.run_with_cpuspeed(cg_b_4(iterations=60))
        result_bt = self.run_with_cpuspeed(bt_b_4(iterations=40))
        rate_cg = result_cg.dvfs_change_count(0) / result_cg.execution_time
        rate_bt = result_bt.dvfs_change_count(0) / result_bt.execution_time
        assert rate_cg > rate_bt

    def test_thermal_ordering_ep_hotter_than_cg(self):
        def mean_temp(builder, iterations):
            cluster = Cluster(ClusterConfig(n_nodes=4, seed=5))
            result = cluster.run_job(
                builder(rng=cluster.rngs.stream("wl"), iterations=iterations),
                timeout=900,
            )
            return result.traces["node0.temp"].mean()

        assert mean_temp(ep_b_4, 20) > mean_temp(cg_b_4, 200) + 1.0
