"""Cross-module integration scenarios.

Each test exercises a realistic end-to-end path through several
subsystems at once — the kind of wiring mistakes unit tests cannot see.
"""

from repro import Cluster, ClusterConfig, Policy
from repro.core.classify import ThermalBehavior, classify_profile
from repro.governors import (
    ConstantFanControl,
    DynamicFanControl,
    TDvfs,
    TraditionalFanControl,
    hybrid_governors,
)
from repro.governors.tdvfs import TDvfsParams
from repro.workloads import bt_b_4, cpu_burn_session
from repro.workloads.synthetic import sudden_profile


class TestFullStackScenarios:
    def test_quickstart_example_path(self):
        """The README quickstart must work verbatim."""
        cluster = Cluster(ClusterConfig(n_nodes=4))
        policy = Policy(pp=50)
        for node in cluster.nodes:
            cluster.add_governor(
                node,
                DynamicFanControl(
                    node.make_fan_driver(max_duty=0.75),
                    policy,
                    events=cluster.events,
                ),
            )
            cluster.add_governor(
                node, TDvfs(node.dvfs, policy, events=cluster.events)
            )
        result = cluster.run_job(
            bt_b_4(rng=cluster.rngs.stream("wl"), iterations=30)
        )
        assert result.execution_time > 0
        assert result.cluster_average_power > 0

    def test_mixed_governors_across_nodes(self):
        """Heterogeneous rigging: different fan policy per node."""
        cluster = Cluster(ClusterConfig(n_nodes=4, seed=3))
        kinds = []
        for i, node in enumerate(cluster.nodes):
            driver = node.make_fan_driver(max_duty=0.75)
            if i == 0:
                gov = TraditionalFanControl(driver, duty_max=0.75)
            elif i == 1:
                gov = ConstantFanControl(driver, duty=0.75)
            elif i == 2:
                gov = DynamicFanControl(driver, Policy(pp=25))
            else:
                gov = DynamicFanControl(driver, Policy(pp=75))
            kinds.append(gov)
            cluster.add_governor(node, gov)
        result = cluster.run_job(
            bt_b_4(rng=cluster.rngs.stream("wl"), iterations=40)
        )
        # constant node holds pinned duty; dynamic nodes differ by P_p
        assert result.traces["node1.duty"].min() > 0.7
        assert (
            result.traces["node2.duty"].mean()
            >= result.traces["node3.duty"].mean()
        )

    def test_sensor_trace_classifiable(self):
        """The recorded sensor trace feeds straight into the classifier."""
        cluster = Cluster(ClusterConfig(n_nodes=1, seed=9))
        node = cluster.nodes[0]
        cluster.add_governor(
            node, ConstantFanControl(node.make_fan_driver(), duty=0.5)
        )
        job = sudden_profile(step_time=30.0, duration=90.0).build()
        result = cluster.run_job(job, timeout=3600)
        temp = result.traces["node0.temp"]
        fractions = classify_profile(temp.times, temp.values)
        assert fractions[ThermalBehavior.SUDDEN] > 0.0

    def test_tdvfs_parameters_flow_through(self):
        """Custom thresholds reach the daemon through the whole stack."""
        cluster = Cluster(ClusterConfig(n_nodes=1, seed=13))
        node = cluster.nodes[0]
        gov = TDvfs(
            node.dvfs,
            Policy(pp=50),
            params=TDvfsParams(threshold=40.0, cooldown=5.0),
            events=cluster.events,
        )
        cluster.add_governor(node, gov)
        cluster.add_governor(
            node, ConstantFanControl(node.make_fan_driver(), duty=0.10)
        )
        job = cpu_burn_session(
            instances=1, burn_duration=60.0, gap_duration=0.0,
            rng=cluster.rngs.stream("b"), warmup=0.0,
        )
        result = cluster.run_job(job, timeout=3600)
        # 40 degC threshold with a weak fan: must trigger quickly
        assert result.dvfs_change_count(0) >= 1
        first = result.events.first_time("tdvfs.trigger")
        assert first is not None and first < 40.0

    def test_hybrid_on_all_nodes_of_larger_cluster(self):
        cluster = Cluster(ClusterConfig(n_nodes=6, seed=17))
        for node in cluster.nodes:
            cluster.add_governor(
                node,
                hybrid_governors(node, Policy(pp=50), events=cluster.events),
            )
        from repro.workloads.npb import NpbJob, NpbParams

        params = NpbParams(
            name="BT-6",
            n_ranks=6,
            iterations=30,
            compute_seconds=0.83,
            comm_seconds=0.22,
        )
        job = NpbJob(params, rng=cluster.rngs.stream("wl")).build()
        result = cluster.run_job(job, timeout=3600)
        assert result.execution_time > 0
        for i in range(6):
            assert f"node{i}.temp" in result.traces
