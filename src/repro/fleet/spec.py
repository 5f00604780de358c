"""Declarative fleet topology specifications.

A :class:`FleetSpec` *names* one coupled fleet simulation — racks ×
nodes-per-rack, the recirculation coupling between racks, the workload
profile, the coordinator's power budget and an optional hot-aisle
fault — without holding any live objects.  Like
:class:`~repro.runtime.spec.RunSpec` it is frozen, hashable,
comparable and picklable, its :meth:`FleetSpec.canonical` JSON is both
the digest input and the public wire form
(``FleetSpec.from_json(spec.to_json()) == spec`` always holds), and it
rides the same content-addressed cache discipline as RunSpecs — with a
``repro-fleet/`` digest domain so the two spec kinds can share a cache
directory without ever colliding.

Deliberately **absent** from the spec: the shard count.  Sharding is a
pure execution strategy — the engine guarantees bitwise-identical
results for every ``shards`` value — so it must not (and does not)
affect the digest: a fleet simulated once is a cache hit at any shard
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Union

from ..errors import ConfigurationError
from ..runtime.spec import (
    DEFAULT_SEED,
    Params,
    _require_finite,
    _require_int,
    _wire_bool,
    _wire_int,
    _wire_number,
    _wire_optional,
    _wire_params,
    _wire_str,
    _WireForm,
    freeze_params,
)

__all__ = [
    "FLEET_WORKLOADS",
    "FleetFaultSpec",
    "FleetSpec",
]

#: Fleet workload profile names (see :mod:`repro.fleet.model`).
FLEET_WORKLOADS = ("uniform", "imbalance", "wave")

#: Each profile's parameters and their defaults (see
#: :class:`repro.fleet.model.WorkloadProfile`).  ``hot_racks`` is an
#: int in ``[0, racks]`` defaulting to half the racks, rounded up; every
#: other parameter is a finite number, and ``period`` must be > 0.
_PROFILE_DEFAULTS = MappingProxyType({
    "uniform": MappingProxyType({"u": 0.85}),
    "imbalance": MappingProxyType(
        {"hot_racks": None, "u_hot": 0.95, "u_cold": 0.30}
    ),
    "wave": MappingProxyType({"period": 60.0, "u_mid": 0.60, "u_amp": 0.35}),
})

#: Fault kinds the coordinator knows how to inject.
_FAULT_KINDS = ("hot_aisle_recirc",)


@dataclass(frozen=True)
class FleetFaultSpec:
    """A hot-aisle containment fault and when it fires.

    Attributes
    ----------
    kind:
        Fault type; currently only ``"hot_aisle_recirc"`` (the victim
        rack's containment is breached, multiplying the recirculated
        fraction of every rack's exhaust it ingests).
    rack:
        Index of the victim rack.
    at:
        Simulated seconds into the run at which the fault fires.  The
        coordinator applies it at the first epoch boundary at or after
        this time, so the injection point is a pure function of the
        spec — never of sharding.
    factor:
        Multiplier on the victim rack's recirculation row (clamped so
        the coupling stays contractive).
    """

    kind: str = "hot_aisle_recirc"
    rack: int = 0
    at: float = 40.0
    factor: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigurationError(
                f"fleet fault kind {self.kind!r} is unknown; "
                f"available: {list(_FAULT_KINDS)}"
            )
        _require_int(self.rack, "fault 'rack'", 0)
        _require_finite(self.at, "fault 'at'", 0.0)
        # >= 1: a breach never improves containment.
        _require_finite(self.factor, "fault 'factor'", 1.0)


@dataclass(frozen=True)
class FleetSpec:
    """A complete, declarative name for one coupled-fleet simulation.

    Attributes
    ----------
    racks / nodes_per_rack:
        Topology: ``racks`` racks in one hot-aisle row, each holding
        ``nodes_per_rack`` identical nodes behind a shared fan wall.
    horizon:
        Simulated seconds the fleet runs.
    dt:
        Physics tick, seconds (the cluster layer's 0.05 s default).
    epoch_ticks:
        Ticks per synchronization epoch.  Cross-rack coupling (rack
        outlet → hot aisle → neighbour inlet) and coordinator budgets
        are frozen *within* an epoch and exchanged only at epoch
        boundaries, which is exactly what makes the simulation
        rack-local between boundaries — and therefore bitwise
        shard-count-independent.
    control_ticks:
        Ticks per local control period (per-node DVFS decisions and the
        per-rack fan-wall loop).  Purely rack-local, so any cadence is
        sharding-safe.
    seed:
        Root seed; workload phase offsets derive from it by pure
        integer mixing (no sequenced RNG, so no draw-order hazards).
    workload:
        Fleet workload profile name (:data:`FLEET_WORKLOADS`).
    workload_params:
        Frozen profile parameters (e.g. hot/cold utilization levels),
        checked against the profile's keys and types by :meth:`profile`.
    power_budget:
        Optional fleet-wide CPU power cap in watts.  ``None`` disables
        coordinator capping (every node keeps ``P_p = 100``).
    recirculation:
        Fraction of a rack's exhaust heat that recirculates to the
        aisle (spread over neighbours by a decaying distance kernel).
    cold_aisle_c:
        Cold-aisle supply temperature, °C.
    platform:
        Optional platform registry key; ``None`` — the default — uses
        the paper's Athlon64 testbed constants and is omitted from
        :meth:`canonical`, mirroring :class:`~repro.runtime.spec.RunSpec`.
    fault:
        Optional :class:`FleetFaultSpec`.
    quick:
        Marks shortened (smoke-test) configurations, carried so cache
        entries distinguish quick fleets from full ones.
    """

    racks: int = 4
    nodes_per_rack: int = 8
    horizon: float = 120.0
    dt: float = 0.05
    epoch_ticks: int = 40
    control_ticks: int = 20
    seed: int = DEFAULT_SEED
    workload: str = "imbalance"
    workload_params: Params = ()
    power_budget: Optional[float] = None
    recirculation: float = 0.2
    cold_aisle_c: float = 25.0
    platform: Optional[str] = None
    fault: Optional[FleetFaultSpec] = None
    quick: bool = False

    def __post_init__(self) -> None:
        _require_int(self.racks, "'racks'", 1)
        _require_int(self.nodes_per_rack, "'nodes_per_rack'", 1)
        _require_int(self.epoch_ticks, "'epoch_ticks'", 1)
        _require_int(self.control_ticks, "'control_ticks'", 1)
        _require_int(self.seed, "'seed'", 0)
        _require_finite(self.horizon, "'horizon'", 0.0, strict=True)
        _require_finite(self.dt, "'dt'", 0.0, strict=True)
        if self.workload not in FLEET_WORKLOADS:
            raise ConfigurationError(
                f"fleet workload {self.workload!r} is unknown; "
                f"available: {list(FLEET_WORKLOADS)}"
            )
        self.profile()
        if self.power_budget is not None:
            _require_finite(
                self.power_budget, "'power_budget'", 0.0, strict=True
            )
        _require_finite(self.recirculation, "'recirculation'")
        if not 0.0 <= self.recirculation <= 0.8:
            raise ConfigurationError(
                "fleet spec 'recirculation' must be in [0, 0.8] (the "
                f"coupling must stay contractive), got {self.recirculation}"
            )
        _require_finite(self.cold_aisle_c, "'cold_aisle_c'")
        if not -50.0 <= self.cold_aisle_c <= 80.0:
            raise ConfigurationError(
                "fleet spec 'cold_aisle_c' is outside the plausible "
                f"[-50, 80] °C range: {self.cold_aisle_c}"
            )
        if self.platform is not None and (
            not isinstance(self.platform, str) or not self.platform
        ):
            raise ConfigurationError(
                "fleet spec 'platform' must be a non-empty string or null, "
                f"got {self.platform!r}"
            )
        if self.fault is not None:
            if not isinstance(self.fault, FleetFaultSpec):
                raise ConfigurationError(
                    "fleet spec 'fault' must be a FleetFaultSpec or None, "
                    f"got {self.fault!r}"
                )
            if self.fault.rack >= self.racks:
                raise ConfigurationError(
                    f"fleet fault rack {self.fault.rack} is outside the "
                    f"{self.racks}-rack topology"
                )
        if not isinstance(self.quick, bool):
            raise ConfigurationError(
                f"fleet spec 'quick' must be a boolean, got {self.quick!r}"
            )

    @classmethod
    def of(
        cls,
        *,
        params: Optional[Mapping[str, Any]] = None,
        **fields: Any,
    ) -> "FleetSpec":
        """Ergonomic constructor taking a plain dict for the profile."""
        return cls(workload_params=freeze_params(params), **fields)

    def profile(self) -> Dict[str, Union[int, float]]:
        """The workload profile's parameters, defaults filled in.

        Raises :class:`~repro.errors.ConfigurationError` for a key the
        profile does not read, a value of the wrong type, a non-finite
        number, a ``hot_racks`` outside ``[0, racks]`` or a ``period``
        that is not positive.
        """
        defaults = _PROFILE_DEFAULTS[self.workload]
        try:
            given = dict(self.workload_params)
        except (TypeError, ValueError):
            raise ConfigurationError(
                "fleet spec workload_params must be key/value pairs, got "
                f"{self.workload_params!r}"
            ) from None
        unknown = sorted(set(given) - set(defaults), key=str)
        if unknown:
            raise ConfigurationError(
                f"fleet workload {self.workload!r} has no parameter(s) "
                f"{unknown}; known: {sorted(defaults)}"
            )
        values: Dict[str, Union[int, float]] = {}
        for key, default in defaults.items():
            name = f"workload_params {key!r}"
            if key == "hot_racks":
                value = given.get(key, (self.racks + 1) // 2)
                _require_int(value, name, 0)
                if value > self.racks:
                    raise ConfigurationError(
                        f"fleet spec {name} must be <= racks "
                        f"({self.racks}), got {value}"
                    )
                values[key] = value
                continue
            value = given.get(key, default)
            _require_finite(value, name)
            if key == "period" and value <= 0.0:
                raise ConfigurationError(
                    f"fleet spec {name} must be > 0, got {value}"
                )
            values[key] = float(value)
        return values

    # -- derived sizes ----------------------------------------------------

    @property
    def total_nodes(self) -> int:
        """Nodes in the fleet."""
        return self.racks * self.nodes_per_rack

    def total_ticks(self) -> int:
        """Physics ticks covering the horizon."""
        return max(1, math.ceil(self.horizon / self.dt - 1e-9))

    def epochs(self) -> int:
        """Synchronization epochs covering the horizon (last may be short)."""
        return math.ceil(self.total_ticks() / self.epoch_ticks)

    # -- wire form / digest ----------------------------------------------

    def canonical(self) -> str:
        """Deterministic JSON form (the digest input and wire form).

        A ``None`` platform is dropped, mirroring
        :meth:`repro.runtime.spec.RunSpec.canonical`.
        """
        return _FLEET_WIRE.canonical(self)

    def to_json(self) -> str:
        """The public JSON wire form (exactly :meth:`canonical`)."""
        return self.canonical()

    @classmethod
    def from_json(cls, payload: Union[str, bytes]) -> "FleetSpec":
        """Parse the JSON wire form back into a spec.

        Every malformed payload raises
        :class:`~repro.errors.ConfigurationError` naming the offending
        field — this is the request-validation seam for fleet jobs, and
        a shard worker rebuilds its spec through it.  Numbers are
        coerced to float, so ``120`` and ``120.0`` name one spec.
        """
        return _FLEET_WIRE.parse(payload)

    def digest(self, version: Optional[str] = None) -> str:
        """Content hash naming this spec (plus the package ``version``).

        The ``repro-fleet/`` domain prefix keeps fleet digests disjoint
        from RunSpec digests even in a shared cache directory.
        """
        return _FLEET_WIRE.digest(self, version)

    def describe(self) -> str:
        """Short human-readable label (progress lines, bench reports)."""
        platform = f"/{self.platform}" if self.platform is not None else ""
        budget = (
            f"/cap={self.power_budget:.0f}W"
            if self.power_budget is not None
            else ""
        )
        fault = f"/fault@{self.fault.at:g}s" if self.fault is not None else ""
        return (
            f"fleet {self.racks}x{self.nodes_per_rack}/{self.workload}"
            f"{budget}{fault}/seed={self.seed}{platform}"
            f"{'/quick' if self.quick else ''}"
        )


_FLEET_WIRE = _WireForm(
    FleetSpec,
    {
        "racks": _wire_int,
        "nodes_per_rack": _wire_int,
        "horizon": _wire_number,
        "dt": _wire_number,
        "epoch_ticks": _wire_int,
        "control_ticks": _wire_int,
        "seed": _wire_int,
        "workload": _wire_str,
        "workload_params": _wire_params,
        "power_budget": _wire_optional(_wire_number),
        "recirculation": _wire_number,
        "cold_aisle_c": _wire_number,
        "platform": _wire_optional(_wire_str),
        "fault": _wire_optional(
            _WireForm(
                FleetFaultSpec,
                {
                    "kind": _wire_str,
                    "rack": _wire_int,
                    "at": _wire_number,
                    "factor": _wire_number,
                },
            ).build
        ),
        "quick": _wire_bool,
    },
    domain="repro-fleet",
)
