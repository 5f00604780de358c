"""How far the forward-Euler RC step strays from the exact solution.

Between control decisions a package is a linear system
``C dT/dt = b - G T``.  With constant inputs it has the closed form

    T(t) = T* + C^-1/2 V exp(-Λ t) V^T C^1/2 (T(0) - T*),   G T* = b,

where ``V Λ V^T`` is the ``eigh`` decomposition of the symmetric
``C^-1/2 G C^-1/2``.  Each test below heats a package from 38 °C with a
68 W load (split evenly over the cores of a floorplan) at 20 CFM for
600 s and steps it with :meth:`RCNetwork.step
<repro.thermal.rc.RCNetwork.step>`, comparing every tick with the
closed form.  It runs on the default package and the two N-core
floorplans, at the default tick and at the fleet gate's sub-stepped
``dt``.  The bounds are the measured worst errors over all free nodes,
rounded up; ``docs/performance.md`` ("RC integration error") has the
table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.multicore_node import MulticoreNode
from repro.cluster.node import Node
from repro.platform import resolve_platform
from tests.test_fleet import GATE_SPECS

WATTS = 68.0
CFM = 20.0
START_C = 38.0
HORIZON_S = 600.0
GATE_DT = GATE_SPECS["substep"].dt

#: ``(platform, dt)`` -> bound on the worst |Euler - exact| (K) over
#: every free node and tick.  Measured: 0.024 / 0.528, 0.0089 / 0.207,
#: 0.0089 / 0.128.
BOUNDS_K = {
    ("athlon64_4000", 0.05): 0.025,
    ("athlon64_4000", GATE_DT): 0.55,
    ("multicore_8c_45nm", 0.05): 0.01,
    ("multicore_8c_45nm", GATE_DT): 0.21,
    ("biglittle_4p4e", 0.05): 0.01,
    ("biglittle_4p4e", GATE_DT): 0.13,
}


def _heated_network(platform: str):
    """The platform's package network under the step load, at rest."""
    config = resolve_platform(platform).node_config()
    node_type = Node if config.floorplan is None else MulticoreNode
    package = node_type("n0", config=config).package
    net = package._net
    heated = getattr(package, "_cores", None) or [package._die]
    package._conv_link.resistance = package.convection.resistance(CFM)
    for name in heated:
        net.set_power(name, WATTS / len(heated))
    for name in net._order:
        if not net.node(name).is_boundary:
            net.set_temperature(name, START_C)
    return net


def worst_euler_error(platform: str, dt: float) -> float:
    """Max |``RCNetwork.step`` - exact| over free nodes and ticks, K."""
    net = _heated_network(platform)
    free, G, b, C = net._assemble()
    t_star = np.linalg.solve(G, b)
    c_inv_half = 1.0 / np.sqrt(C)
    rates, V = np.linalg.eigh(c_inv_half[:, None] * G * c_inv_half[None, :])
    y0 = V.T @ ((np.full(len(free), START_C) - t_star) / c_inv_half)
    worst = 0.0
    for k in range(1, int(round(HORIZON_S / dt)) + 1):
        net.step(dt)
        exact = t_star + c_inv_half * (V @ (np.exp(-rates * (k * dt)) * y0))
        euler = np.array([net.temperature(name) for name in free])
        worst = max(worst, float(np.max(np.abs(euler - exact))))
    assert euler.max() > START_C + 10.0  # the load really heated it
    return worst


@pytest.mark.parametrize("platform, dt", sorted(BOUNDS_K))
def test_euler_error_within_bound(platform: str, dt: float) -> None:
    error = worst_euler_error(platform, dt)
    assert 0.0 < error <= BOUNDS_K[platform, dt]


def test_gate_dt_is_sub_stepped() -> None:
    """The gate's ``dt`` lies past the default package's stability limit,
    so its bound covers the sub-stepped path."""
    net = _heated_network("athlon64_4000")
    net.step(GATE_DT)
    assert net._n_sub > 1
