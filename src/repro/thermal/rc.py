"""Generic lumped-parameter RC thermal networks.

A thermal network is a graph of nodes (thermal masses with heat
capacity, or fixed-temperature boundaries) joined by links (thermal
resistances).  The governing equations are the standard electro-thermal
analogy:

.. math::

    C_i \\frac{dT_i}{dt} = P_i + \\sum_{j \\sim i} \\frac{T_j - T_i}{R_{ij}}

where :math:`P_i` is power injected into node *i* and the sum runs over
links incident to *i*.  Boundary nodes (``capacitance=None``) hold their
temperature regardless of flux — they model ambient air or a chilled
plate.

Integration is explicit (forward Euler) with automatic sub-stepping to
honour the stability bound ``dt < C_i / G_ii``; for the stiff-ish
2-node CPU package this costs nothing, and it keeps the integrator
stable for arbitrary user-built networks.

The network steps from a flattened form built on the first step after
a structural edit: node order and link incidence become parallel
lists, and the conductance matrix ``G``, the per-link conductances and
the stability sub-step count are cached.  Link resistances may change
between steps (the fan changes the convective resistance every tick):
each link reports a resistance write to its network, and only the
matrix rows of that link's free endpoints are rebuilt.  Temperatures,
injected powers and boundary temperatures are read live every step.

The class also provides :meth:`RCNetwork.steady_state`, a direct linear
solve for the equilibrium temperatures under constant powers — used by
calibration code and extensively by the test suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..sim.marker import coldpath, hotpath
from ..units import require_positive

__all__ = ["ThermalNode", "ThermalLink", "RCNetwork"]


@dataclass
class ThermalNode:
    """One lump of the thermal network.

    Parameters
    ----------
    name:
        Unique identifier within the network.
    capacitance:
        Heat capacity in J/K, or ``None`` for a fixed-temperature
        boundary node.
    temperature:
        Initial (and, for boundary nodes, held) temperature in °C.
    """

    name: str
    capacitance: Optional[float]
    temperature: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("thermal node name must be non-empty")
        if self.capacitance is not None:
            require_positive(self.capacitance, f"capacitance of {self.name!r}")

    @property
    def is_boundary(self) -> bool:
        """True when this node holds a fixed temperature."""
        return self.capacitance is None


class ThermalLink:
    """A thermal resistance between two nodes.

    The resistance may be changed at any time via :attr:`resistance`
    (e.g. by a convection model reacting to fan speed).
    """

    __slots__ = ("name", "a", "b", "_resistance", "_observer", "_slot")

    def __init__(self, name: str, a: str, b: str, resistance: float) -> None:
        if a == b:
            raise ConfigurationError(f"link {name!r} connects {a!r} to itself")
        self.name = name
        self.a = a
        self.b = b
        self._resistance = require_positive(resistance, f"resistance of {name!r}")
        # Set by RCNetwork.add_link: the network (or, while a batch
        # stepper owns the integration, its trap) hears every write.
        self._observer = None
        self._slot = -1

    @property
    def resistance(self) -> float:
        """Thermal resistance in K/W."""
        return self._resistance

    @resistance.setter
    def resistance(self, value: float) -> None:
        self._resistance = require_positive(value, f"resistance of {self.name!r}")
        observer = self._observer
        if observer is not None:
            observer.mark_link_dirty(self._slot)

    @property
    def conductance(self) -> float:
        """Thermal conductance in W/K (reciprocal resistance)."""
        return 1.0 / self._resistance


def _raise_diverged() -> None:
    raise SimulationError("thermal integration diverged (non-finite T)")


class RCNetwork:
    """A mutable lumped RC thermal network with an explicit integrator.

    Typical usage::

        net = RCNetwork()
        net.add_node(ThermalNode("die", capacitance=8.0, temperature=30.0))
        net.add_node(ThermalNode("ambient", capacitance=None, temperature=25.0))
        net.add_link(ThermalLink("conv", "die", "ambient", resistance=0.5))
        net.set_power("die", 40.0)
        net.step(0.05)
        net.temperature("die")
    """

    __slots__ = (
        "_nodes",
        "_links",
        "_order",
        "_powers",
        "_stale",
        "_dirty",
        "_cached_dt",
        # set by _refresh
        "_n_sub",
        "_h",
        # set by _flatten
        "_link_list",
        "_free_names",
        "_free_nodes",
        "_m",
        "_rows",
        "_bterms",
        "_link_ends",
        "_g",
        "_diag",
        "_G",
        "_C",
        "_C_list",
        "_T",
        "_b",
        "_Gt",
        "_dT",
    )

    def __init__(self) -> None:
        self._nodes: Dict[str, ThermalNode] = {}
        self._links: Dict[str, ThermalLink] = {}
        self._order: List[str] = []
        self._powers: Dict[str, float] = {}
        # The flattened form is rebuilt by _flatten when _stale; _dirty
        # holds the slots of links whose resistance changed since the
        # last refresh, _cached_dt the dt of the cached sub-step.
        self._stale = True
        self._dirty: set = set()
        self._cached_dt: Optional[float] = None

    # -- construction ----------------------------------------------------

    def add_node(self, node: ThermalNode) -> ThermalNode:
        """Add a node; names must be unique."""
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate thermal node {node.name!r}")
        self._nodes[node.name] = node
        self._order.append(node.name)
        self._powers[node.name] = 0.0
        self._mark_stale()
        return node

    def add_link(self, link: ThermalLink) -> ThermalLink:
        """Add a link; both endpoints must already exist."""
        for endpoint in (link.a, link.b):
            if endpoint not in self._nodes:
                raise ConfigurationError(
                    f"link {link.name!r} references unknown node {endpoint!r}"
                )
        if link.name in self._links:
            raise ConfigurationError(f"duplicate thermal link {link.name!r}")
        link._observer = self
        link._slot = len(self._links)
        self._links[link.name] = link
        self._mark_stale()
        return link

    def _mark_stale(self) -> None:
        """The structure changed: re-flatten on the next step."""
        self._stale = True
        self._cached_dt = None

    def mark_link_dirty(self, slot: int) -> None:
        """Invalidate the cached conductance of the link at ``slot``."""
        self._dirty.add(slot)

    def node(self, name: str) -> ThermalNode:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(
                f"no thermal node named {name!r}; have {sorted(self._nodes)}"
            ) from None

    def link(self, name: str) -> ThermalLink:
        """Look up a link by name."""
        try:
            return self._links[name]
        except KeyError:
            raise ConfigurationError(
                f"no thermal link named {name!r}; have {sorted(self._links)}"
            ) from None

    @property
    def node_names(self) -> List[str]:
        """Node names in insertion order."""
        return list(self._order)

    # -- state -------------------------------------------------------------

    def set_power(self, name: str, watts: float) -> None:
        """Set the power injected into node ``name`` (W, may be negative)."""
        if name not in self._nodes:
            raise ConfigurationError(f"no thermal node named {name!r}")
        if np.isnan(watts):
            raise ConfigurationError(f"power into {name!r} is NaN")
        self._powers[name] = float(watts)

    def power(self, name: str) -> float:
        """Current power injection into ``name`` in watts."""
        return self._powers[self.node(name).name]

    def temperature(self, name: str) -> float:
        """Current temperature of node ``name`` in °C."""
        return self.node(name).temperature

    def set_temperature(self, name: str, celsius: float) -> None:
        """Force a node's temperature (initial conditions, boundary drive)."""
        self.node(name).temperature = float(celsius)

    def temperatures(self) -> Dict[str, float]:
        """Mapping of node name to current temperature."""
        return {n: self._nodes[n].temperature for n in self._order}

    # -- dynamics ------------------------------------------------------------

    def _assemble(self) -> tuple:
        """Build (free names, conductance matrix G, forcing vector b, caps C).

        For free (non-boundary) nodes the ODE is
        ``C dT/dt = -G T + b`` with ``b`` collecting injected power and
        flux from boundary nodes.
        """
        free = [n for n in self._order if not self._nodes[n].is_boundary]
        index = {n: i for i, n in enumerate(free)}
        m = len(free)
        G = np.zeros((m, m), dtype=np.float64)
        b = np.array([self._powers[n] for n in free], dtype=np.float64)
        for link in self._links.values():
            g = link.conductance
            a_free = link.a in index
            b_free = link.b in index
            if a_free:
                i = index[link.a]
                G[i, i] += g
                if b_free:
                    G[i, index[link.b]] -= g
                else:
                    b[i] += g * self._nodes[link.b].temperature
            if b_free:
                j = index[link.b]
                G[j, j] += g
                if a_free:
                    G[j, index[link.a]] -= g
                else:
                    b[j] += g * self._nodes[link.a].temperature
        C = np.array([self._nodes[n].capacitance for n in free], dtype=np.float64)
        return free, G, b, C

    def _flatten(self) -> None:
        """Flatten the graph into the parallel lists :meth:`step` uses.

        Per free node, its incident links as ``(slot, other free index
        or -1)`` in link insertion order — the order the matrix entries
        accumulate in, as in :meth:`_assemble`; boundary couplings as
        ``(free index, slot, boundary node)`` in :meth:`_assemble`'s
        forcing-vector order (a side before b side of each link).
        """
        nodes = self._nodes
        links = list(self._links.values())
        free = [n for n in self._order if not nodes[n].is_boundary]
        index = {name: i for i, name in enumerate(free)}
        m = len(free)
        rows: List[list] = [[] for _ in range(m)]
        bterms: List[tuple] = []
        ends: List[tuple] = []
        for slot, link in enumerate(links):
            i = index.get(link.a, -1)
            j = index.get(link.b, -1)
            ends.append((i, j))
            if i >= 0:
                rows[i].append((slot, j))
                if j < 0:
                    bterms.append((i, slot, nodes[link.b]))
            if j >= 0:
                rows[j].append((slot, i))
                if i < 0:
                    bterms.append((j, slot, nodes[link.a]))
        self._link_list = links
        self._free_names = free
        self._free_nodes = [nodes[n] for n in free]
        self._m = m
        self._rows = rows
        self._bterms = bterms
        self._link_ends = ends
        self._g = [0.0] * len(links)
        self._diag = [0.0] * m
        self._G = np.zeros((m, m), dtype=np.float64)
        self._C = np.array([nodes[n].capacitance for n in free], dtype=np.float64)
        self._C_list = [float(nodes[n].capacitance) for n in free]
        self._T = np.empty(m, dtype=np.float64)
        self._b = np.empty(m, dtype=np.float64)
        self._Gt = np.empty(m, dtype=np.float64)
        self._dT = np.empty(m, dtype=np.float64)
        self._dirty.update(range(len(links)))
        self._stale = False

    @coldpath
    def _refresh(self, dt: float) -> None:
        """Rebuild the dirty conductance rows and the sub-step cache.

        Runs only after a structural edit, a resistance write or a
        ``dt`` change — not per tick — hence ``@coldpath``.  The
        stability sub-step is half the limit ``min_i C_i / G_ii`` over
        ``G_ii > 0``, computed with :meth:`_assemble`'s arithmetic.
        """
        require_positive(dt, "dt")
        if self._stale:
            self._flatten()
        links = self._link_list
        ends = self._link_ends
        g = self._g
        touched = set()
        for slot in self._dirty:
            g[slot] = 1.0 / links[slot]._resistance
            i, j = ends[slot]
            if i >= 0:
                touched.add(i)
            if j >= 0:
                touched.add(j)
        self._dirty.clear()
        G = self._G
        diag = self._diag
        for i in touched:
            row = G[i]
            row[:] = 0.0
            acc = 0.0
            for slot, j in self._rows[i]:
                gv = g[slot]
                acc += gv
                if j >= 0:
                    row[j] -= gv
            row[i] = acc
            diag[i] = acc
        best = math.inf
        C_list = self._C_list
        for i in range(self._m):
            d = diag[i]
            if d > 0.0:
                lim = C_list[i] / (d if d > 1e-300 else 1e-300)
                if lim < best:
                    best = lim
        h_max = 0.5 * best
        if not math.isfinite(h_max) or h_max <= 0.0:
            h_max = dt
        self._n_sub = max(1, math.ceil(dt / h_max))
        self._h = dt / self._n_sub
        self._cached_dt = dt

    @hotpath
    def step(self, dt: float) -> None:
        """Advance all free node temperatures by ``dt`` seconds.

        Forward Euler ``T += h · (b - G T) / C`` over ``n_sub`` sub-steps
        of ``h = dt / n_sub``, the sub-step being half the stability
        limit ``min_i C_i / G_ii``, so the integration is stable for
        any (positive-resistance) network.  The ufuncs write into
        preallocated buffers, which does not change the computed bits.
        """
        if dt != self._cached_dt or self._dirty:
            self._refresh(dt)
        m = self._m
        if m == 0:
            return
        free_nodes = self._free_nodes
        free_names = self._free_names
        powers = self._powers
        T = self._T
        b = self._b
        for i in range(m):
            T[i] = free_nodes[i].temperature
            b[i] = powers[free_names[i]]
        g = self._g
        for i, slot, bnode in self._bterms:
            b[i] += g[slot] * bnode.temperature
        G = self._G
        C = self._C
        Gt = self._Gt
        dT = self._dT
        h = self._h
        matmul = np.matmul
        subtract = np.subtract
        divide = np.divide
        multiply = np.multiply
        add = np.add
        for _ in range(self._n_sub):
            matmul(G, T, out=Gt)
            subtract(b, Gt, out=dT)
            divide(dT, C, out=dT)
            multiply(dT, h, out=dT)
            add(T, dT, out=T)
        item = T.item
        isfinite = math.isfinite
        for i in range(m):
            if not isfinite(item(i)):
                _raise_diverged()
        for i in range(m):
            free_nodes[i].temperature = item(i)

    def steady_state(self) -> Dict[str, float]:
        """Equilibrium temperatures under the current powers/resistances.

        Solves ``G T = b`` directly.  Boundary nodes keep their held
        temperature.  Raises :class:`SimulationError` if the network has
        a free node with no path to any boundary (singular system).
        """
        free, G, b, _ = self._assemble()
        out = {
            n: self._nodes[n].temperature
            for n in self._order
            if self._nodes[n].is_boundary
        }
        if free:
            try:
                T = np.linalg.solve(G, b)
            except np.linalg.LinAlgError as exc:
                raise SimulationError(
                    "steady state is singular: some free node has no "
                    "path to a boundary node"
                ) from exc
            out.update({n: float(t) for n, t in zip(free, T)})
        return out

    def total_stored_energy(self, reference: float = 0.0) -> float:
        """Thermal energy stored relative to ``reference`` °C, in joules.

        Useful for conservation checks in tests: with no injected power
        and adiabatic (boundary-free) networks this is invariant.
        """
        total = 0.0
        for name in self._order:
            node = self._nodes[name]
            if node.capacitance is not None:
                total += node.capacitance * (node.temperature - reference)
        return total
