"""Declarative run specifications.

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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError

__all__ = [
    "DEFAULT_SEED",
    "Params",
    "FaultSpec",
    "RigSpec",
    "RunSpec",
    "freeze_params",
    "specs_table",
]

#: Seed all paper-reproduction runs use unless overridden.
DEFAULT_SEED = 20100913

#: Frozen parameter mapping: sorted ``(key, value)`` pairs.
Params = Tuple[Tuple[str, Any], ...]


def _freeze_value(value: Any) -> Any:
    """Recursively convert ``value`` to a hashable equivalent."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze_value(v)) for k, v in value.items()))
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
        return tuple(_freeze_value(v) for v in items)
    if isinstance(value, float) and not math.isfinite(value):
        # nan breaks spec equality/dedup (nan != nan) and both nan and
        # inf have no strict-JSON token in canonical().
        raise ConfigurationError(
            f"spec parameter value {value!r} is not finite; specs must "
            "be built from finite numbers"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"spec parameter value {value!r} ({type(value).__name__}) is not "
        "a primitive; specs must be built from hashable primitives"
    )


def freeze_params(params: Optional[Mapping[str, Any]]) -> Params:
    """Freeze a parameter dict into sorted, hashable key/value pairs."""
    if not params:
        return ()
    return tuple(sorted((str(k), _freeze_value(v)) for k, v in params.items()))


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

    @classmethod
    def of(cls, name: str, **params: Any) -> "RigSpec":
        """Build a rig spec from keyword arguments."""
        return cls(name=name, params=freeze_params(params))


@dataclass(frozen=True)
class FaultSpec:
    """An injected fault and the fixed horizon it is observed over.

    Attributes
    ----------
    kind:
        Fault type; currently only ``"fan_fail"`` (the rotor coasts to
        a stop and PWM commands are ignored).
    node:
        Index of the victim node.
    at:
        Simulated seconds into the run at which the fault fires.
    horizon:
        Total simulated seconds the scenario runs (the job is sized to
        outlast it); the run does not wait for job completion.
    """

    kind: str = "fan_fail"
    node: int = 0
    at: float = 40.0
    horizon: float = 420.0


def _as_rig(entry: Union[str, "RigSpec", Tuple[str, Mapping[str, Any]]]) -> RigSpec:
    """Coerce a rigs-list entry into a :class:`RigSpec`."""
    if isinstance(entry, RigSpec):
        return entry
    if isinstance(entry, str):
        return RigSpec(name=entry)
    name, params = entry
    return RigSpec(name=name, params=freeze_params(params))


# -- JSON wire-form parsing helpers (RunSpec.from_json) ----------------------


def _typed(data: Mapping[str, Any], key: str, kind: type, default: Any) -> Any:
    """``data[key]`` checked against ``kind`` (``default`` when absent)."""
    value = data.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigurationError(
            f"spec {key!r} must be {kind.__name__}, got {value!r} "
            f"({type(value).__name__})"
        )
    return value


def _int_field(data: Mapping[str, Any], key: str, default: int) -> int:
    return _typed(data, key, int, default)


def _float_field(data: Mapping[str, Any], key: str, default: float) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"spec {key!r} must be a number, got {value!r} "
            f"({type(value).__name__})"
        )
    return float(value)


def _bool_field(data: Mapping[str, Any], key: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"spec {key!r} must be a boolean, got {value!r} "
            f"({type(value).__name__})"
        )
    return value


def _optional_str_field(data: Mapping[str, Any], key: str) -> Optional[str]:
    value = data.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigurationError(
            f"spec {key!r} must be a string or null, got {value!r} "
            f"({type(value).__name__})"
        )
    return value


def _params_from_json(raw: Any, where: str) -> Params:
    """Parse parameters from the pair-list or object wire shapes."""
    if isinstance(raw, Mapping):
        return freeze_params(raw)
    if isinstance(raw, (list, tuple)):
        pairs = {}
        for entry in raw:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
            ):
                raise ConfigurationError(
                    f"spec {where} entries must be [\"key\", value] pairs, "
                    f"got {entry!r}"
                )
            pairs[entry[0]] = entry[1]
        return freeze_params(pairs)
    raise ConfigurationError(
        f"spec {where} must be an object or a list of pairs, got {raw!r} "
        f"({type(raw).__name__})"
    )


def _rig_from_json(raw: Any, where: str) -> RigSpec:
    """Parse one rig/ambient entry (``"name"`` or ``{"name", "params"}``)."""
    if isinstance(raw, str):
        return RigSpec(name=raw)
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"spec {where} must be a rig name or object, got {raw!r} "
            f"({type(raw).__name__})"
        )
    unknown = sorted(set(raw) - {"name", "params"})
    if unknown:
        raise ConfigurationError(
            f"spec {where} has unknown key(s) {unknown}; expected "
            "'name' and optional 'params'"
        )
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"spec {where} 'name' must be a non-empty string, got {name!r}"
        )
    return RigSpec(name=name, params=_params_from_json(
        raw.get("params", ()), f"{where}.params"
    ))


def _fault_from_json(raw: Any) -> Optional[FaultSpec]:
    """Parse the optional fault object."""
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"spec 'fault' must be an object or null, got {raw!r} "
            f"({type(raw).__name__})"
        )
    unknown = sorted(set(raw) - {"kind", "node", "at", "horizon"})
    if unknown:
        raise ConfigurationError(
            f"spec 'fault' has unknown key(s) {unknown}; expected "
            "kind/node/at/horizon"
        )
    kind = raw.get("kind", "fan_fail")
    if not isinstance(kind, str) or not kind:
        raise ConfigurationError(
            f"spec fault 'kind' must be a non-empty string, got {kind!r}"
        )
    try:
        return FaultSpec(
            kind=kind,
            node=_int_field(raw, "node", default=0),
            at=_float_field(raw, "at", default=40.0),
            horizon=_float_field(raw, "horizon", default=420.0),
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"in spec 'fault': {exc}") from None


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
        Platform size and root seed.
    ambient:
        Optional ambient registry entry (e.g. a rack inlet gradient).
    fault:
        Optional fault injection; when set the run follows the fixed
        fault horizon instead of running the job to completion.
    timeout:
        Hard ceiling on simulated seconds for job-completion runs.
    tail:
        Extra simulated seconds after job completion.
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

    @classmethod
    def of(
        cls,
        workload: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        rigs: Sequence[Union[str, RigSpec, Tuple[str, Mapping[str, Any]]]] = (),
        n_nodes: int = 4,
        seed: int = DEFAULT_SEED,
        ambient: Optional[Union[RigSpec, Tuple[str, Mapping[str, Any]]]] = None,
        fault: Optional[FaultSpec] = None,
        timeout: float = 3600.0,
        tail: float = 0.0,
        quick: bool = False,
        telemetry: bool = False,
        platform: Optional[str] = None,
    ) -> "RunSpec":
        """Ergonomic constructor taking plain dicts for all parameters."""
        return cls(
            workload=workload,
            workload_params=freeze_params(params),
            rigs=tuple(_as_rig(r) for r in rigs),
            n_nodes=n_nodes,
            seed=seed,
            ambient=None if ambient is None else _as_rig(ambient),
            fault=fault,
            timeout=timeout,
            tail=tail,
            quick=quick,
            telemetry=telemetry,
            platform=platform,
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

        This is the request-validation seam of the serving layer
        (``POST /v1/runs`` bodies land here): every malformed payload —
        bad JSON, wrong top-level type, unknown or missing fields,
        wrong field types, malformed rigs/fault/params — raises
        :class:`~repro.errors.ConfigurationError` with a message naming
        the offending field, never a bare ``KeyError``/``TypeError``.

        Accepted parameter shapes are the canonical pair list
        (``[["key", value], ...]``) *and* a plain JSON object
        (``{"key": value}``) — hand-written clients get the friendly
        form, round-trips get exactness.  Numeric protocol fields
        (``timeout``, ``tail``, fault ``at``/``horizon``) are coerced
        to float so ``3600`` and ``3600.0`` name the same spec (and
        hence the same digest).  A boolean ``fastpath`` key — the wire
        form of an engine-path flag that no longer exists — is accepted
        and ignored.
        """
        if isinstance(payload, bytes):
            try:
                payload = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigurationError(
                    f"spec payload is not valid UTF-8: {exc}"
                ) from None
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"spec payload is not valid JSON: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                "spec payload must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)} | {"fastpath"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown spec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if "workload" not in data:
            raise ConfigurationError("spec payload is missing 'workload'")
        workload = data["workload"]
        if not isinstance(workload, str) or not workload:
            raise ConfigurationError(
                f"spec 'workload' must be a non-empty string, got {workload!r}"
            )
        # The retired engine-path flag: either value names the same run.
        _bool_field(data, "fastpath")
        try:
            return cls(
                workload=workload,
                workload_params=_params_from_json(
                    data.get("workload_params", ()), "workload_params"
                ),
                rigs=tuple(
                    _rig_from_json(entry, f"rigs[{i}]")
                    for i, entry in enumerate(
                        _typed(data, "rigs", list, default=[])
                    )
                ),
                n_nodes=_int_field(data, "n_nodes", default=4),
                seed=_int_field(data, "seed", default=DEFAULT_SEED),
                ambient=(
                    None
                    if data.get("ambient") is None
                    else _rig_from_json(data["ambient"], "ambient")
                ),
                fault=_fault_from_json(data.get("fault")),
                timeout=_float_field(data, "timeout", default=3600.0),
                tail=_float_field(data, "tail", default=0.0),
                quick=_bool_field(data, "quick"),
                telemetry=_bool_field(data, "telemetry"),
                platform=_optional_str_field(data, "platform"),
            )
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed spec payload: {exc}") from None

    def canonical(self) -> str:
        """Deterministic JSON form (the digest input; also debuggable).

        A ``None`` platform is dropped from the rendering: the field
        was added after digests of platform-less specs were already
        populating on-disk caches, and ``platform=None`` means "the
        exact pre-platform behaviour", so those specs must keep their
        historical canonical form byte-for-byte.  For the same reason
        the rendering keeps ``"fastpath": false``: the field is gone
        (there is one engine path), but every digest minted while it
        existed — cache keys, served digests — names the same run.
        """
        data = dataclasses.asdict(self)
        if data["platform"] is None:
            del data["platform"]
        data["fastpath"] = False
        return json.dumps(data, sort_keys=True)

    def digest(self, version: Optional[str] = None) -> str:
        """Content hash naming this spec (plus the package ``version``).

        Two specs share a digest iff every field matches; bumping the
        package version invalidates every cached digest, since any code
        change may recalibrate results.
        """
        if version is None:
            from .. import __version__ as version
        h = hashlib.sha256()
        h.update(f"repro/{version}\n".encode("utf-8"))
        h.update(self.canonical().encode("utf-8"))
        return h.hexdigest()[:40]

    def describe(self) -> str:
        """Short human-readable label (progress lines, bench reports)."""
        rig_names = "+".join(r.name for r in self.rigs) or "bare"
        platform = f"/{self.platform}" if self.platform is not None else ""
        return (
            f"{self.workload}@{self.n_nodes}n/{rig_names}"
            f"/seed={self.seed}{platform}{'/quick' if self.quick else ''}"
        )


def specs_table(specs: Iterable[RunSpec]) -> str:
    """One :meth:`RunSpec.describe` line per spec (debugging helper)."""
    return "\n".join(s.describe() for s in specs)
