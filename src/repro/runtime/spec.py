"""Declarative run specifications and the spec JSON wire seam.

A :class:`RunSpec` *names* one cluster simulation — platform size,
seed, workload, governor rigging, optional ambient model and fault
injection — without holding any live objects, so it is frozen,
hashable, comparable and picklable.  Specs are the currency of the
runtime layer: experiments build lists of them and hand the lists to a
:class:`~repro.runtime.executor.RunExecutor`, which maps each spec to a
:class:`~repro.cluster.cluster.RunResult` (serially, in a process
pool, or out of an on-disk cache).

Workloads, rigs and ambients are referenced **by registry name** (see
the ``WORKLOAD_REGISTRY`` / ``RIG_REGISTRY`` / ``AMBIENT_REGISTRY``
tables in :mod:`repro.experiments.platform`); parameters are frozen to
sorted ``(key, value)`` tuples so a spec's hash is stable across
processes and sessions.

Every spec dataclass range-checks its values in ``__post_init__``.
Both spec kinds (:class:`RunSpec` and
:class:`repro.fleet.spec.FleetSpec`) cross the JSON wire through one
seam, :class:`_WireForm`: one payload loader, one table-driven field
parser and one canonical-form/digest body.  Every malformed or hostile
payload raises :class:`~repro.errors.ConfigurationError` (a 400 when
served).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import reprlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_SEED",
    "MAX_NODE_SECONDS",
    "Params",
    "FaultSpec",
    "RigSpec",
    "RunSpec",
    "freeze_params",
]

#: Seed all paper-reproduction runs use unless overridden.
DEFAULT_SEED = 20100913

#: Frozen parameter mapping: sorted ``(key, value)`` pairs.
Params = Tuple[Tuple[str, Any], ...]

#: Deepest nesting a parameter value may have.  Far beyond any real
#: parameter, and shallow enough that freezing, rendering and decoding a
#: spec never come near the interpreter's recursion limit.
_MAX_PARAM_DEPTH = 32

#: Most node-seconds one run may simulate, ``n_nodes * ((fault horizon,
#: else timeout) + tail)``: about 8.7x the largest shipped spec
#: (``scaling``, 32 nodes x 3600 s), so no request can hold a worker for days.
MAX_NODE_SECONDS = 1_000_000.0

#: Fault kinds :func:`repro.runtime.execute.execute_spec` can inject.
_FAULT_KINDS = ("fan_fail",)


def _freeze_value(value: Any, depth: int = 0) -> Any:
    """Recursively convert ``value`` to a hashable equivalent."""
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            # nan breaks spec equality/dedup (nan != nan) and both nan
            # and inf have no strict-JSON token in canonical().
            raise ConfigurationError(
                f"spec parameter value {value!r} is not finite; specs must "
                "be built from finite numbers"
            )
        return value
    if depth >= _MAX_PARAM_DEPTH:
        raise ConfigurationError(
            f"spec parameter value nests deeper than {_MAX_PARAM_DEPTH} "
            "levels"
        )
    if isinstance(value, Mapping):
        return tuple(sorted(
            (str(k), _freeze_value(v, depth + 1)) for k, v in value.items()
        ))
    if isinstance(value, (list, tuple, set, frozenset)):
        if isinstance(value, (set, frozenset)):
            try:
                items = sorted(value)
            except TypeError:
                # A mixed-type set has no canonical order, so it has no
                # canonical (digest-stable) frozen form.
                raise ConfigurationError(
                    f"spec parameter set {value!r} mixes unorderable "
                    "types; sets must be uniformly orderable to freeze "
                    "deterministically"
                ) from None
        else:
            items = value
        return tuple(_freeze_value(v, depth + 1) for v in items)
    raise ConfigurationError(
        f"spec parameter value {value!r} ({type(value).__name__}) is not "
        "a primitive; specs must be built from hashable primitives"
    )


def freeze_params(params: Optional[Mapping[str, Any]]) -> Params:
    """Freeze a parameter dict into sorted, hashable key/value pairs."""
    if not params:
        return ()
    return tuple(sorted((str(k), _freeze_value(v)) for k, v in params.items()))


# -- range checks shared by every spec dataclass ---------------------------


def _show(value: Any) -> str:
    """A bounded rendering of a rejected value (safe on hostile input)."""
    return f"{reprlib.repr(value)} ({type(value).__name__})"


def _require_int(value: Any, name: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"spec {name} must be an int, got {_show(value)}"
        )
    if value < minimum:
        raise ConfigurationError(
            f"spec {name} must be >= {minimum}, got {reprlib.repr(value)}"
        )


def _require_finite(
    value: Any, name: str, minimum: float = -math.inf, strict: bool = False
) -> None:
    """``value`` is a finite number >= ``minimum`` (> when ``strict``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"spec {name} must be a number, got {_show(value)}"
        )
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise ConfigurationError(
            f"spec {name} must be finite, got {reprlib.repr(value)}"
        )
    if value < minimum or (strict and value == minimum):
        raise ConfigurationError(
            f"spec {name} must be {'>' if strict else '>='} {minimum:g}, "
            f"got {value}"
        )


# -- the JSON wire seam (RunSpec and FleetSpec) ----------------------------

#: One wire kind: ``(decoded value, field path) -> field value``; raises
#: ConfigurationError naming the field path.
_Kind = Callable[[Any, str], Any]


def _load_payload(payload: Union[str, bytes]) -> dict:
    """Decode a spec payload (UTF-8 bytes or text) into a JSON object.

    ``NaN``/``Infinity``/``-Infinity`` and overflowing literals such as
    ``1e999`` decode to non-finite floats, which the field they land in
    rejects by name (numbers are range-checked at construction,
    parameters by :func:`freeze_params`): one finite check for both.
    """
    try:
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        data = json.loads(payload)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"spec payload is not valid UTF-8: {exc}"
        ) from None
    except RecursionError:
        raise ConfigurationError(
            "spec payload is not valid JSON: it nests too deeply to decode"
        ) from None
    except ValueError as exc:  # JSONDecodeError, or an over-long int literal
        raise ConfigurationError(
            f"spec payload is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"spec payload must be a JSON object, got {type(data).__name__}"
        )
    return data


def _wire_exact(kind: type, noun: str) -> _Kind:
    """A value of exactly type ``kind`` (so an int kind refuses ``true``)."""

    def exact(value: Any, where: str) -> Any:
        if type(value) is kind:
            return value
        raise ConfigurationError(
            f"spec {where!r} must be {noun}, got {_show(value)}"
        )

    return exact


_wire_int = _wire_exact(int, "an int")
_wire_bool = _wire_exact(bool, "a boolean")
_wire_str = _wire_exact(str, "a string")


def _wire_number(value: Any, where: str) -> float:
    """A number, coerced to float so ``3600`` and ``3600.0`` name one spec."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigurationError(
                f"spec {where!r} must be finite, got an integer beyond "
                "float range"
            ) from None
    raise ConfigurationError(
        f"spec {where!r} must be a number, got {_show(value)}"
    )


def _wire_optional(kind: _Kind) -> _Kind:
    """``kind``, or ``None`` for a JSON ``null``."""

    def optional(value: Any, where: str) -> Any:
        return None if value is None else kind(value, where)

    return optional


def _wire_params(value: Any, where: str) -> Params:
    """Parameters as the canonical pair list or a plain JSON object."""
    if type(value) is list:
        for entry in value:
            if (
                type(entry) is not list
                or len(entry) != 2
                or type(entry[0]) is not str
            ):
                raise ConfigurationError(
                    f"spec {where!r} entries must be [\"key\", value] pairs, "
                    f"got {_show(entry)}"
                )
        value = dict(value)
    elif type(value) is not dict:
        raise ConfigurationError(
            f"spec {where!r} must be an object or a list of pairs, got "
            f"{_show(value)}"
        )
    try:
        return freeze_params(value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"spec {where!r}: {exc}") from None


class _WireForm:
    """One spec dataclass's JSON wire form.

    ``kinds`` names the wire kind of every dataclass field (checked
    against the fields once, here).  ``legacy`` maps each retired key to
    the one value :meth:`canonical` still renders for it, so digests
    minted while it existed hold; on parse it is type-checked against
    that value and dropped.  ``domain`` prefixes the digest.  A form's
    :meth:`build` is itself a wire kind, which is how nested objects
    (rigs, faults) are parsed.
    """

    def __init__(
        self,
        cls: type,
        kinds: Mapping[str, _Kind],
        *,
        domain: str = "",
        legacy: Mapping[str, Any] = MappingProxyType({}),
    ) -> None:
        fields = dataclasses.fields(cls)
        if set(kinds) != {f.name for f in fields}:
            raise TypeError(
                f"{cls.__name__} wire kinds {sorted(kinds)} do not match "
                f"its fields {sorted(f.name for f in fields)}"
            )
        self.cls = cls
        self.legacy = MappingProxyType(dict(legacy))
        self.kinds = MappingProxyType({
            **kinds,
            **{
                key: _wire_exact(type(value), f"a {type(value).__name__}")
                for key, value in legacy.items()
            },
        })
        self.required = tuple(
            f.name for f in fields if f.default is dataclasses.MISSING
        )
        self.domain = domain

    def parse(self, payload: Union[str, bytes]) -> Any:
        """The spec a payload names (the ``from_json`` body)."""
        return self.build(_load_payload(payload), "")

    def build(self, data: Any, where: str) -> Any:
        """Build the spec a decoded object names; ``where`` is its path."""
        if type(data) is not dict:
            raise ConfigurationError(
                f"spec {where!r} must be an object, got {_show(data)}"
            )
        prefix = f"{where}." if where else ""
        kinds = self.kinds
        fields = {}
        for key, value in data.items():
            kind = kinds.get(key)
            if kind is None:
                unknown = sorted(set(data) - set(kinds))
                raise ConfigurationError(
                    f"unknown spec field(s) {unknown}"
                    f"{f' in {where!r}' if where else ''}; known fields: "
                    f"{sorted(kinds)}"
                )
            fields[key] = kind(value, prefix + key)
        for name in self.legacy:
            fields.pop(name, None)
        for name in self.required:
            if name not in fields:
                raise ConfigurationError(
                    f"spec {repr(where) if where else 'payload'} is "
                    f"missing {name!r}"
                )
        try:
            return self.cls(**fields)
        except ConfigurationError as exc:
            if not where:
                raise
            raise ConfigurationError(f"spec {where!r}: {exc}") from None

    def canonical(self, spec: Any) -> str:
        """Deterministic JSON of ``spec``: its fields plus :attr:`legacy`.

        A ``None`` ``platform`` is dropped, so specs from before the
        field existed keep their canonical form (and digest) byte-for-byte.
        """
        text = spec.__dict__.get("_canonical")
        if text is None:
            data = dataclasses.asdict(spec)
            if data["platform"] is None:
                del data["platform"]
            data.update(self.legacy)
            text = json.dumps(data, sort_keys=True)
            # Memoized beside the fields (the spec is frozen; equality,
            # hashing and asdict see fields only): every request path
            # needs it for the digest and again for the store's check.
            object.__setattr__(spec, "_canonical", text)
        return text

    def digest(self, spec: Any, version: Optional[str]) -> str:
        """sha256 over ``<domain>/<version>`` and the canonical form."""
        if version is None:
            from .. import __version__ as version
        h = hashlib.sha256()
        h.update(f"{self.domain}/{version}\n".encode("utf-8"))
        h.update(self.canonical(spec).encode("utf-8"))
        return h.hexdigest()[:40]


# -- the run spec dataclasses ----------------------------------------------


@dataclass(frozen=True)
class RigSpec:
    """One governor rigging (or ambient model) by registry name.

    Attributes
    ----------
    name:
        Key into the rig/ambient registry of
        :mod:`repro.experiments.platform`.
    params:
        Frozen keyword arguments for the registry factory.
    """

    name: str
    params: Params = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"spec rig 'name' must be a non-empty string, got "
                f"{_show(self.name)}"
            )


@dataclass(frozen=True)
class FaultSpec:
    """An injected fault and the fixed horizon it is observed over.

    Attributes
    ----------
    kind:
        Fault type; currently only ``"fan_fail"`` (the rotor coasts to
        a stop and PWM commands are ignored).
    node:
        Index of the victim node, in ``[0, n_nodes)`` of its run.
    at:
        Simulated seconds into the run at which the fault fires (>= 0).
    horizon:
        Total simulated seconds the scenario runs (> 0; the job is
        sized to outlast it); the run does not wait for job completion.
    """

    kind: str = "fan_fail"
    node: int = 0
    at: float = 40.0
    horizon: float = 420.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ConfigurationError(
                f"spec fault 'kind' {reprlib.repr(self.kind)} is unknown; "
                f"available: {list(_FAULT_KINDS)}"
            )
        _require_int(self.node, "fault 'node'", 0)
        _require_finite(self.at, "fault 'at'", 0.0)
        _require_finite(self.horizon, "fault 'horizon'", 0.0, strict=True)


def _as_rig(entry: Union[str, "RigSpec", Tuple[str, Mapping[str, Any]]]) -> RigSpec:
    """Coerce a rigs-list entry into a :class:`RigSpec`."""
    if isinstance(entry, RigSpec):
        return entry
    if isinstance(entry, str):
        return RigSpec(name=entry)
    name, params = entry
    return RigSpec(name=name, params=freeze_params(params))


@dataclass(frozen=True)
class RunSpec:
    """A complete, declarative name for one cluster simulation.

    Attributes
    ----------
    workload:
        Workload registry key (e.g. ``"bt_b_4"``).
    workload_params:
        Frozen workload factory arguments (e.g. iteration count).
    rigs:
        Governor riggings applied in order (each rigs every node).
    n_nodes / seed:
        Platform size (>= 1) and root seed (>= 0).
    ambient:
        Optional ambient registry entry (e.g. a rack inlet gradient).
    fault:
        Optional fault injection; when set the run follows the fixed
        fault horizon instead of running the job to completion.
    timeout:
        Hard ceiling on simulated seconds for job-completion runs
        (finite, > 0).
    tail:
        Extra simulated seconds after job completion (finite, >= 0).
    quick:
        Marks shortened (smoke-test) configurations.  Carried so cache
        entries and reports can distinguish quick sweeps from full
        ones even when parameter values coincide.
    telemetry:
        Run with a live :class:`~repro.telemetry.MetricsRegistry` so
        the result carries decision provenance and a metrics snapshot.
        Part of the spec (and hence the digest): a telemetry run's
        result object differs from a bare run's, so they must not
        share cache entries — even though the *simulated physics* are
        identical (telemetry is observation-only, which the tests
        assert).
    platform:
        Optional platform registry key (see
        :data:`repro.platform.PLATFORM_REGISTRY`) naming the silicon
        the run simulates.  ``None`` — the default — runs the paper's
        testbed part through the exact pre-platform code path and is
        *omitted* from :meth:`canonical`, so specs that never name a
        platform keep their historical digests and cache keys
        byte-for-byte.  Any explicit value (including the default
        part's own name, ``"athlon64_4000"``) is digest-affecting.
    """

    workload: str
    workload_params: Params = ()
    rigs: Tuple[RigSpec, ...] = ()
    n_nodes: int = 4
    seed: int = DEFAULT_SEED
    ambient: Optional[RigSpec] = None
    fault: Optional[FaultSpec] = None
    timeout: float = 3600.0
    tail: float = 0.0
    quick: bool = False
    telemetry: bool = False
    platform: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ConfigurationError(
                "spec 'workload' must be a non-empty string, got "
                f"{_show(self.workload)}"
            )
        if type(self.rigs) is not tuple or not all(
            type(rig) is RigSpec for rig in self.rigs
        ):
            raise ConfigurationError(
                "spec 'rigs' must be a tuple of RigSpec, got "
                f"{_show(self.rigs)}"
            )
        _require_int(self.n_nodes, "'n_nodes'", 1)
        _require_int(self.seed, "'seed'", 0)
        _require_finite(self.timeout, "'timeout'", 0.0, strict=True)
        _require_finite(self.tail, "'tail'", 0.0)
        if self.fault is not None and self.fault.node >= self.n_nodes:
            raise ConfigurationError(
                f"spec fault 'node' {self.fault.node} is outside the "
                f"{self.n_nodes}-node platform"
            )
        span = self.tail + (self.timeout if self.fault is None else self.fault.horizon)
        if self.n_nodes > MAX_NODE_SECONDS / span:  # an int past float range is fine
            raise ConfigurationError(
                f"spec asks for {self.n_nodes} nodes x {span:g} s, more than "
                f"the {MAX_NODE_SECONDS:,.0f} node-seconds one run may simulate"
            )

    @classmethod
    def of(
        cls,
        workload: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        rigs: Sequence[Union[str, RigSpec, Tuple[str, Mapping[str, Any]]]] = (),
        ambient: Optional[Union[RigSpec, Tuple[str, Mapping[str, Any]]]] = None,
        **fields: Any,
    ) -> "RunSpec":
        """Ergonomic constructor taking plain dicts for all parameters;
        the remaining fields pass through by keyword."""
        return cls(
            workload=workload,
            workload_params=freeze_params(params),
            rigs=tuple(_as_rig(r) for r in rigs),
            ambient=None if ambient is None else _as_rig(ambient),
            **fields,
        )

    def to_json(self) -> str:
        """The public JSON wire form of this spec.

        Exactly :meth:`canonical` — the digest input *is* the wire
        form, so a client can compute the digest of what it POSTs and
        the server recovers an equal spec with :meth:`from_json`:
        ``RunSpec.from_json(spec.to_json()) == spec`` always holds.
        """
        return self.canonical()

    @classmethod
    def from_json(cls, payload: Union[str, bytes]) -> "RunSpec":
        """Parse the JSON wire form back into a spec.

        The serving layer's request-validation seam: every malformed
        or hostile payload raises
        :class:`~repro.errors.ConfigurationError` naming the offending
        field (or the payload, for faults found before any field is
        read).  Parameters may be the canonical pair list or a plain
        object; ``timeout``, ``tail`` and fault ``at``/``horizon`` are
        coerced to float, so ``3600`` and ``3600.0`` name one spec; a
        boolean ``fastpath`` key (a retired engine-path flag) is
        accepted and ignored.
        """
        return _RUN_WIRE.parse(payload)

    def canonical(self) -> str:
        """Deterministic JSON form (the digest input; also debuggable).

        A ``None`` platform is dropped (see :meth:`_WireForm.canonical`)
        and the rendering keeps ``"fastpath": false``: the field is gone
        (there is one engine path), but every digest minted while it
        existed — cache keys, served digests — names the same run.
        """
        return _RUN_WIRE.canonical(self)

    def digest(self, version: Optional[str] = None) -> str:
        """Content hash naming this spec (plus the package ``version``).

        Two specs share a digest iff every field matches; bumping the
        package version invalidates every cached digest, since any code
        change may recalibrate results.
        """
        return _RUN_WIRE.digest(self, version)

    def describe(self) -> str:
        """Short human-readable label (progress lines, bench reports)."""
        rig_names = "+".join(r.name for r in self.rigs) or "bare"
        platform = f"/{self.platform}" if self.platform is not None else ""
        return (
            f"{self.workload}@{self.n_nodes}n/{rig_names}"
            f"/seed={self.seed}{platform}{'/quick' if self.quick else ''}"
        )


_RIG_WIRE = _WireForm(RigSpec, {"name": _wire_str, "params": _wire_params})


def _wire_rig(value: Any, where: str) -> RigSpec:
    """A rig as its bare name or as ``{"name", "params"}``."""
    if type(value) is str:
        value = {"name": value}
    elif type(value) is not dict:
        raise ConfigurationError(
            f"spec {where!r} must be a rig name or object, got {_show(value)}"
        )
    return _RIG_WIRE.build(value, where)


def _wire_rigs(value: Any, where: str) -> Tuple[RigSpec, ...]:
    if type(value) is not list:
        raise ConfigurationError(
            f"spec {where!r} must be a list, got {_show(value)}"
        )
    return tuple(
        [_wire_rig(entry, f"{where}[{i}]") for i, entry in enumerate(value)]
    )


_RUN_WIRE = _WireForm(
    RunSpec,
    {
        "workload": _wire_str,
        "workload_params": _wire_params,
        "rigs": _wire_rigs,
        "n_nodes": _wire_int,
        "seed": _wire_int,
        "ambient": _wire_optional(_wire_rig),
        "fault": _wire_optional(
            _WireForm(
                FaultSpec,
                {
                    "kind": _wire_str,
                    "node": _wire_int,
                    "at": _wire_number,
                    "horizon": _wire_number,
                },
            ).build
        ),
        "timeout": _wire_number,
        "tail": _wire_number,
        "quick": _wire_bool,
        "telemetry": _wire_bool,
        "platform": _wire_optional(_wire_str),
    },
    domain="repro",
    legacy={"fastpath": False},
)
