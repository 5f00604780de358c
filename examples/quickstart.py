#!/usr/bin/env python
"""Quickstart: the paper's full system in ~20 lines.

Builds the 4-node simulated cluster (AMD Athlon64 nodes, ADT7467 fan
controllers, 4 Hz lm-sensors), rigs every node with the paper's unified
thermal control — dynamic fan control plus tDVFS under one P_p — and
runs NPB BT.B.4, printing the run's headline numbers.

Run:  python examples/quickstart.py
"""

from repro import Cluster, ClusterConfig, Policy
from repro.governors import DynamicFanControl, TDvfs
from repro.workloads import bt_b_4


def main() -> None:
    cluster = Cluster(ClusterConfig(n_nodes=4))
    policy = Policy(pp=50)  # the paper's moderate aggressiveness

    for node in cluster.nodes:
        # out-of-band: history-based dynamic fan control
        cluster.add_governor(
            node,
            DynamicFanControl(
                node.make_fan_driver(max_duty=0.75),
                policy,
                events=cluster.events,
            ),
        )
        # in-band: threshold-triggered tDVFS, same policy
        cluster.add_governor(
            node, TDvfs(node.dvfs, policy, events=cluster.events)
        )

    job = bt_b_4(rng=cluster.rngs.stream("workload"))
    result = cluster.run_job(job)

    temp = result.traces["node0.temp"]
    print(f"job               : {result.job_name}")
    print(f"execution time    : {result.execution_time:.1f} s")
    print(f"avg wall power    : {result.cluster_average_power:.2f} W per node")
    print(f"energy            : {result.cluster_energy / 1000:.1f} kJ")
    print(f"power-delay prod. : {result.power_delay_product(0):.0f} W*s (node0)")
    print(f"freq changes      : {result.dvfs_change_count(0)} (node0)")
    print(f"temperature       : mean {temp.mean():.1f} degC, "
          f"max {temp.max():.1f} degC (node0)")
    print()
    print("thermal control events:")
    for event in result.events.filter(category="tdvfs"):
        print(f"  {event}")


if __name__ == "__main__":
    main()
