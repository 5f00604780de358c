"""Compiled RC-network stepper: flat arrays + coefficient caching.

The reference :meth:`repro.thermal.rc.RCNetwork.step` re-walks the
node/link graph every call: it rebuilds the conductance matrix ``G``,
the forcing vector ``b`` and the capacitance vector ``C`` from the
Python-object graph, then recomputes the stability sub-step count —
all before doing any integration.  For the 3-node CPU package stepped
20 times per second per node, that graph walk dominates the whole
simulation.

:class:`CompiledRC` compiles the structure once:

* node order, link incidence and boundary-coupling terms become flat
  parallel lists;
* ``G`` and the per-link conductances are cached and invalidated
  per-link — a resistance write on a :class:`~repro.thermal.rc.ThermalLink`
  notifies this stepper (via the link's ``_observer`` back-reference)
  and only the matrix rows of that link's free endpoints are rebuilt;
* the stability sub-step count ``n_sub`` (and sub-step ``h``) is cached
  until a resistance actually changes.

Equivalence contract: every floating-point operation the reference
path performs is reproduced here with the same operands in the same
order — matrix rows accumulate conductances in link insertion order,
the forcing vector adds boundary terms in the reference's link order,
and the integration uses the identical numpy ufunc sequence
``(b - G @ T) / C`` then ``T += h * dTdt`` (with preallocated ``out=``
buffers, which does not change the computed bits).  Free-node
temperatures and injected powers are re-read from the live network
objects each step, so external ``set_temperature`` / ``set_power``
calls behave exactly as on the reference path.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..errors import SimulationError
from ..thermal.rc import RCNetwork
from ..units import require_positive
from ..sim.marker import coldpath, hotpath

__all__ = ["CompiledRC", "compile_network"]


def _raise_diverged() -> None:
    raise SimulationError("thermal integration diverged (non-finite T)")


class CompiledRC:
    """Flat-array stepper attached to one :class:`RCNetwork`.

    Build via :func:`compile_network`, which also attaches the stepper
    to the network (``net._fast``) so ``RCNetwork.step`` delegates here.
    Structural changes to the network (``add_node`` / ``add_link``)
    detach the stepper automatically.
    """

    __slots__ = (
        "_net",
        "_links",
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
        "_powers",
        "_dirty_slots",
        "_all_dirty",
        "_cached_dt",
        "_n_sub",
        "_h",
    )

    def __init__(self, net: RCNetwork) -> None:
        self._net = net
        nodes = net._nodes
        self._links = list(net._links.values())
        free = [n for n in net._order if not nodes[n].is_boundary]
        index = {name: i for i, name in enumerate(free)}
        m = len(free)
        self._m = m
        self._free_names = free
        self._free_nodes = [nodes[n] for n in free]
        self._powers = net._powers

        # Per free node: incident links as (slot, other-free-index or -1),
        # in global link insertion order — the order the reference path
        # accumulates matrix entries in.
        self._rows: List[list] = [[] for _ in range(m)]
        # Boundary couplings as (free-index, slot, boundary node), in the
        # reference's b-vector accumulation order (a-side before b-side
        # of each link).
        self._bterms: List[tuple] = []
        # Per link: free indices of its endpoints (-1 = boundary side).
        self._link_ends: List[tuple] = []
        for slot, link in enumerate(self._links):
            i = index.get(link.a, -1)
            j = index.get(link.b, -1)
            self._link_ends.append((i, j))
            if i >= 0:
                self._rows[i].append((slot, j))
                if j < 0:
                    self._bterms.append((i, slot, nodes[link.b]))
            if j >= 0:
                self._rows[j].append((slot, i))
                if i < 0:
                    self._bterms.append((j, slot, nodes[link.a]))
            link._observer = self
            link._slot = slot

        self._g = [0.0] * len(self._links)
        self._diag = [0.0] * m
        self._G = np.zeros((m, m), dtype=np.float64)
        self._C = np.array(
            [nodes[n].capacitance for n in free], dtype=np.float64
        )
        self._C_list = [float(nodes[n].capacitance) for n in free]
        self._T = np.empty(m, dtype=np.float64)
        self._b = np.empty(m, dtype=np.float64)
        self._Gt = np.empty(m, dtype=np.float64)
        self._dT = np.empty(m, dtype=np.float64)

        self._dirty_slots: set = set()
        self._all_dirty = True
        self._cached_dt: float | None = None
        self._n_sub = 1
        self._h = 0.0

    # -- invalidation -----------------------------------------------------

    def mark_link_dirty(self, slot: int) -> None:
        """Invalidate the cached coefficients of the link at ``slot``."""
        self._dirty_slots.add(slot)

    def detach(self) -> None:
        """Drop the observer back-references (structure changed)."""
        for link in self._links:
            link._observer = None
            link._slot = -1

    def adopt_observer(self, observer) -> None:
        """Route this network's link-dirty notifications to ``observer``.

        Used by :mod:`repro.fastpath.batch` while a batch stepper owns
        the integration: resistance writes through the public
        :attr:`~repro.thermal.rc.ThermalLink.resistance` setter must
        reach the *batch* (which holds the live conductance stack), not
        this stepper's per-network dirty set.  Slots are untouched, so
        the adopted observer sees the same ``mark_link_dirty(slot)``
        indices this stepper would.
        """
        for link in self._links:
            link._observer = observer

    def restore_observer(self) -> None:
        """Re-point link-dirty notifications back at this stepper.

        The inverse of :meth:`adopt_observer`; callers that refreshed
        coefficients out-of-band must also set ``_all_dirty`` so the
        next :meth:`step` rebuilds from the live resistances.
        """
        for link in self._links:
            link._observer = self

    # -- coefficient refresh ----------------------------------------------

    @coldpath
    def _refresh(self, dt: float) -> None:
        """Recompute invalidated conductance rows and the sub-step cache.

        Runs only when ``dt`` changes or a resistance write dirtied a
        link — not per tick — hence ``@coldpath``: RPR010 stops hot
        reachability here and the row-rebuild allocations stay legal.
        """
        require_positive(dt, "dt")
        m = self._m
        links = self._links
        g = self._g
        if self._all_dirty:
            for slot, link in enumerate(links):
                g[slot] = 1.0 / link._resistance
            rows_to_build = range(m)
            self._all_dirty = False
            self._dirty_slots.clear()
        else:
            touched = set()
            for slot in self._dirty_slots:
                g[slot] = 1.0 / links[slot]._resistance
                i, j = self._link_ends[slot]
                if i >= 0:
                    touched.add(i)
                if j >= 0:
                    touched.add(j)
            self._dirty_slots.clear()
            rows_to_build = sorted(touched)

        G = self._G
        diag = self._diag
        for i in rows_to_build:
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

        # Stability sub-step, mirroring the reference arithmetic exactly:
        # h_max = 0.5 * min_i C_i / max(G_ii, 1e-300) over G_ii > 0.
        best = math.inf
        C_list = self._C_list
        for i in range(m):
            d = diag[i]
            if d > 0.0:
                lim = C_list[i] / (d if d > 1e-300 else 1e-300)
                if lim < best:
                    best = lim
        h_max = 0.5 * best
        if not math.isfinite(h_max) or h_max <= 0.0:
            h_max = dt
        n_sub = math.ceil(dt / h_max)
        if n_sub < 1:
            n_sub = 1
        self._n_sub = n_sub
        self._h = dt / n_sub
        self._cached_dt = dt

    # -- integration -------------------------------------------------------

    @hotpath
    def step(self, dt: float) -> None:
        """Advance the network by ``dt`` — bit-identical to the reference."""
        if dt != self._cached_dt or self._dirty_slots or self._all_dirty:
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


def compile_network(net: RCNetwork) -> CompiledRC:
    """Attach (or return the existing) compiled stepper for ``net``."""
    fast = net._fast
    if fast is None:
        fast = CompiledRC(net)
        net._fast = fast
    return fast
