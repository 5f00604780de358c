"""RunSpec contracts: freezing, hashing, registries and the result cache.

The runtime layer's determinism story rests on specs being pure values:
equal specs hash equal, digests are stable across constructions, and a
digest names a cache entry until the package version moves.  These
tests pin each of those properties plus the registry round-trip every
experiment module relies on.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import REGISTRY
from repro.experiments.platform import (
    AMBIENT_REGISTRY,
    RIG_REGISTRY,
    WORKLOAD_REGISTRY,
)
from repro.runtime import (
    FaultSpec,
    RigSpec,
    RunExecutor,
    RunSpec,
    freeze_params,
)
from tests.test_runtime_executor import stats


def cheap_spec(**overrides) -> RunSpec:
    """A spec that simulates in well under a second."""
    kwargs = dict(
        params={"duration": 20.0},
        rigs=[("constant_fan", {"duty": 0.45})],
        n_nodes=1,
        seed=11,
        timeout=120.0,
    )
    kwargs.update(overrides)
    return RunSpec.of("mixed_thermal_profile", **kwargs)


# -- freezing ------------------------------------------------------------


def test_freeze_params_sorts_keys() -> None:
    assert freeze_params({"b": 2, "a": 1}) == (("a", 1), ("b", 2))
    assert freeze_params(None) == ()
    assert freeze_params({}) == ()


def test_freeze_params_handles_nested_containers() -> None:
    frozen = freeze_params({"sizes": [4, 8], "flags": {"x": True}})
    assert frozen == (("flags", (("x", True),)), ("sizes", (4, 8)))
    # The result must be hashable (it keys dedup dicts and cache names).
    hash(frozen)


def test_freeze_params_rejects_live_objects() -> None:
    with pytest.raises(ConfigurationError):
        freeze_params({"rng": object()})


# -- value semantics -----------------------------------------------------


def test_equal_specs_hash_equal() -> None:
    a = cheap_spec()
    b = cheap_spec()
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_rig_entries_coerce_uniformly() -> None:
    by_str = RunSpec.of("bt_b_4", rigs=["ondemand"])
    by_obj = RunSpec.of("bt_b_4", rigs=[RigSpec(name="ondemand")])
    by_tuple = RunSpec.of("bt_b_4", rigs=[("ondemand", {})])
    assert by_str == by_obj == by_tuple


def test_digest_stable_across_constructions() -> None:
    assert cheap_spec().digest() == cheap_spec().digest()


@pytest.mark.parametrize(
    "overrides",
    [
        {"params": {"duration": 21.0}},
        {"seed": 12},
        {"n_nodes": 2},
        {"rigs": [("constant_fan", {"duty": 0.5})]},
        {"quick": True},
        {"telemetry": True},
        {"fault": FaultSpec(kind="fan_fail", node=0, at=5.0, horizon=10.0)},
        {"ambient": ("rack_gradient", {"base": 28.0, "gradient": 5.0})},
        {"platform": "athlon64_4000"},
    ],
)
def test_digest_distinguishes_every_field(overrides) -> None:
    assert cheap_spec().digest() != cheap_spec(**overrides).digest()


# -- platform dimension --------------------------------------------------


def test_canonical_omits_unset_platform() -> None:
    """The digest-stability keystone: ``platform=None`` serializes to
    exactly the pre-platform canonical form, so every digest (and every
    cache entry) minted before the platform dimension existed stays
    valid byte for byte."""
    canonical = cheap_spec().canonical()
    assert "platform" not in canonical
    assert "platform" in cheap_spec(platform="athlon64_4000").canonical()


def test_explicit_default_platform_is_digest_affecting() -> None:
    """Naming the default silicon is not the same spec as naming none:
    the explicit spec goes through the registry build path."""
    assert (
        cheap_spec().digest()
        != cheap_spec(platform="athlon64_4000").digest()
    )


def test_platform_specs_distinguish_by_digest() -> None:
    digests = {
        cheap_spec(platform=name).digest()
        for name in ("athlon64_4000", "multicore_8c_45nm", "biglittle_4p4e")
    }
    assert len(digests) == 3


#: fig07's spec digests captured on the pre-platform tree (fixed pin
#: version so the package version cannot mask a canonical-form drift).
#: These must never change: they name live cache entries.
_FIG07_PINNED = {
    False: (
        "1420d7ab8fae2cf9016acabf71a9bc378c67b2d1",
        "626dfaae9e2f33f5d5a4d0698c06e35895df59ac",
        "b845e07004946e1ff513537119887bf32ff552df",
        "89e291278e2793401f9dfc0eda2ad7a85a2a769a",
    ),
    True: (
        "8941ab7ca7012982dff350856ee6e6770d980f81",
        "29fce7ce8fb6ea423f5ebece94e0a7fb73f833f7",
        "9a2154dce40729a549fe3f18db187b6590315376",
        "5f4995950f1ab2826f0b001dcff950e4fb152fad",
    ),
}


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_fig07_digests_match_pre_platform_pins(quick) -> None:
    from repro.experiments.fig07_max_pwm import specs

    digests = tuple(
        s.digest(version="platform-pin-v1") for s in specs(quick=quick)
    )
    assert digests == _FIG07_PINNED[quick]


def test_digest_folds_in_package_version() -> None:
    spec = cheap_spec()
    assert spec.digest(version="0.1") != spec.digest(version="0.2")


# -- registry round-trip -------------------------------------------------


def _all_experiment_specs():
    collected = []
    for name, (module, _description) in REGISTRY.items():
        specs_fn = getattr(module, "specs", None)
        if specs_fn is not None:
            for s in specs_fn(seed=1, quick=True):
                # Fleet experiments label their specs: ("scenario", spec).
                if isinstance(s, tuple):
                    s = s[1]
                collected.append((name, s))
    return collected


def test_experiment_modules_expose_specs() -> None:
    """The refactor's point: experiments are declarative spec builders."""
    names = {name for name, _ in _all_experiment_specs()}
    assert len(names) >= 10, sorted(names)


@pytest.mark.parametrize(
    "experiment,spec", _all_experiment_specs(), ids=lambda v: str(v)[:48]
)
def test_every_spec_resolves_in_the_registries(experiment, spec) -> None:
    from repro.fleet import FLEET_WORKLOADS, FleetSpec
    from repro.platform import PLATFORM_REGISTRY

    if isinstance(spec, FleetSpec):
        assert spec.workload in FLEET_WORKLOADS
        if spec.platform is not None:
            assert spec.platform in PLATFORM_REGISTRY
        return
    assert spec.workload in WORKLOAD_REGISTRY
    for rig in spec.rigs:
        assert rig.name in RIG_REGISTRY
    if spec.ambient is not None:
        assert spec.ambient.name in AMBIENT_REGISTRY


# -- cache lifecycle -----------------------------------------------------


def test_cache_miss_then_hit_then_version_invalidation(
    tmp_path, monkeypatch
) -> None:
    spec = cheap_spec()

    first = RunExecutor(cache_dir=tmp_path)
    result = first.run(spec)
    assert stats(first)["executed"] == 1
    assert stats(first)["cache_misses"] == 1
    assert stats(first)["cache_hits"] == 0
    entry = tmp_path / f"{spec.digest()}.result"
    assert entry.is_file()

    second = RunExecutor(cache_dir=tmp_path)
    cached = second.run(spec)
    assert stats(second)["executed"] == 0
    assert stats(second)["cache_hits"] == 1
    temp = cached.traces["node0.temp"]
    fresh = result.traces["node0.temp"]
    assert (temp.times == fresh.times).all()
    assert (temp.values == fresh.values).all()

    # A package version bump re-keys every digest.
    monkeypatch.setattr(repro, "__version__", repro.__version__ + ".bumped")
    assert not (tmp_path / f"{spec.digest()}.result").exists()
    bumped = RunExecutor(cache_dir=tmp_path)
    bumped.run(spec)
    assert stats(bumped)["executed"] == 1, "version bump must invalidate"
    assert stats(bumped)["cache_hits"] == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path) -> None:
    spec = cheap_spec()
    entry = tmp_path / f"{spec.digest()}.result"
    entry.write_bytes(b"not a pickle")
    executor = RunExecutor(cache_dir=tmp_path)
    executor.run(spec)
    assert stats(executor)["executed"] == 1
    assert stats(executor)["cache_hits"] == 0


def test_freeze_params_rejects_mixed_type_sets() -> None:
    """A mixed-type set has no canonical order — ConfigurationError,
    not the bare TypeError sorted() used to leak."""
    with pytest.raises(ConfigurationError, match="unorderable"):
        freeze_params({"tags": {1, "a"}})
    # Uniformly orderable sets still freeze (sorted, deterministic).
    assert freeze_params({"sizes": {8, 4}}) == (("sizes", (4, 8)),)


def test_freeze_params_rejects_non_finite_floats() -> None:
    """nan breaks equality/dedup and neither nan nor inf has a strict
    JSON token, so both are configuration errors — at any nesting."""
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError, match="not finite"):
            freeze_params({"x": bad})
        with pytest.raises(ConfigurationError, match="not finite"):
            freeze_params({"xs": [1.0, bad]})
        with pytest.raises(ConfigurationError, match="not finite"):
            freeze_params({"nested": {"deep": (bad,)}})


def test_non_finite_floats_rejected_at_spec_construction() -> None:
    with pytest.raises(ConfigurationError, match="not finite"):
        RunSpec.of("mixed_thermal_profile", {"duration": float("nan")})


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_nodes", 0),
        ("seed", -1),
        ("timeout", float("nan")),
        ("timeout", 0.0),
        ("tail", -5.0),
        ("tail", float("inf")),
        ("fault", FaultSpec(node=1)),  # cheap_spec has one node
    ],
)
def test_construction_checks_ranges(field, value) -> None:
    """RunSpec.of, dataclasses.replace and from_json share one set of
    range checks: the dataclass's own."""
    import dataclasses as _dc

    with pytest.raises(ConfigurationError, match=field):
        cheap_spec(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        _dc.replace(cheap_spec(), **{field: value})
    with pytest.raises(ConfigurationError, match="kind"):
        FaultSpec(kind="meteor")


# -- JSON wire form ------------------------------------------------------


def test_to_json_round_trips_exactly() -> None:
    """from_json(to_json(spec)) == spec for every field combination the
    serving layer can see, including digest equality."""
    specs = [
        cheap_spec(),
        cheap_spec(seed=3, tail=12.5, quick=True, telemetry=True),
        cheap_spec(platform="dell_poweredge_1855"),
        cheap_spec(
            ambient=("sinusoid_ambient", {"mean": 298.0}),
            fault=FaultSpec(kind="fan_fail", node=0, at=40.0, horizon=90.0),
        ),
    ]
    for spec in specs:
        recovered = RunSpec.from_json(spec.to_json())
        assert recovered == spec
        assert recovered.digest() == spec.digest()
        # to_json is the canonical form, so round-tripping is bytewise
        # stable: the wire form of the recovered spec is identical.
        assert recovered.to_json() == spec.to_json()


def test_spec_has_no_engine_path_field() -> None:
    """There is one engine path, so no spec field selects one."""
    import dataclasses as _dc

    assert "fastpath" not in {f.name for f in _dc.fields(RunSpec)}
    with pytest.raises(TypeError):
        cheap_spec(fastpath=True)


def test_canonical_keeps_the_retired_fastpath_key() -> None:
    """Digest stability: the canonical form still carries
    ``"fastpath": false``, so every digest, cache key and served digest
    minted while the field existed names the same run."""
    import json as _json

    wire = _json.loads(cheap_spec().canonical())
    assert wire["fastpath"] is False
    assert list(wire) == sorted(wire)


@pytest.mark.parametrize("value", [False, True])
def test_from_json_accepts_boolean_fastpath(value) -> None:
    """A boolean ``fastpath`` key names the same run either way."""
    import json as _json

    wire = _json.loads(cheap_spec().to_json())
    wire["fastpath"] = value
    recovered = RunSpec.from_json(_json.dumps(wire))
    assert recovered == cheap_spec()
    assert recovered.digest() == cheap_spec().digest()
    del wire["fastpath"]
    assert RunSpec.from_json(_json.dumps(wire)) == cheap_spec()


def test_from_json_accepts_plain_object_params() -> None:
    """Hand-written clients may send params as a JSON object; the pair
    list and the object spell the same spec (and digest)."""
    import json as _json

    wire = _json.loads(cheap_spec().to_json())
    assert isinstance(wire["workload_params"], list)  # canonical pair list
    wire["workload_params"] = dict(wire["workload_params"])
    wire["rigs"] = [
        {"name": rig["name"], "params": dict(rig["params"])}
        for rig in wire["rigs"]
    ]
    assert RunSpec.from_json(_json.dumps(wire)) == cheap_spec()


def test_from_json_coerces_protocol_floats() -> None:
    """``3600`` and ``3600.0`` must name the same spec."""
    import json as _json

    wire = _json.loads(cheap_spec().to_json())
    wire["timeout"] = 120  # int spelling of the canonical 120.0
    assert RunSpec.from_json(_json.dumps(wire)) == cheap_spec()


#: Deep enough that the JSON decoder gives up (200 KB, under the serving
#: layer's 1 MiB body limit).
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000

#: An integer literal past the interpreter's 4300-digit conversion limit.
LONG_INT = "9" * 5000

#: ``(id, payload, needle)``: hostile RunSpec payloads.  Each must raise
#: a ConfigurationError whose message contains ``needle`` (its field, or
#: the payload-level fault), and the server must answer each with a 400.
HOSTILE_RUN_PAYLOADS = [
    ("nan-timeout", '{"workload": "x", "timeout": NaN}', "timeout"),
    ("inf-timeout", '{"workload": "x", "timeout": Infinity}', "timeout"),
    ("overflow-timeout", '{"workload": "x", "timeout": 1e999}', "timeout"),
    ("nan-tail", '{"workload": "x", "tail": NaN}', "tail"),
    ("neginf-tail", '{"workload": "x", "tail": -Infinity}', "tail"),
    ("nan-n_nodes", '{"workload": "x", "n_nodes": NaN}', "n_nodes"),
    ("inf-seed", '{"workload": "x", "seed": Infinity}', "seed"),
    ("nan-fault-at", '{"workload": "x", "fault": {"at": NaN}}', "fault 'at'"),
    (
        "inf-fault-horizon",
        '{"workload": "x", "fault": {"horizon": Infinity}}',
        "fault 'horizon'",
    ),
    (
        "nan-fault-node",
        '{"workload": "x", "fault": {"node": NaN}}',
        "fault.node",
    ),
    (
        "nan-workload-param",
        '{"workload": "x", "workload_params": {"duration": NaN}}',
        "workload_params",
    ),
    (
        "inf-rig-param",
        '{"workload": "x", "rigs": [{"name": "f", "params": {"duty": '
        "-Infinity}}]}",
        "rigs[0].params",
    ),
    # Well formed, but past the one-run budget (MAX_NODE_SECONDS).
    ("huge-n_nodes", '{"workload": "x", "n_nodes": 1000000000}', "node-seconds"),
    (
        "huge-fault-horizon",
        '{"workload": "x", "fault": {"horizon": 1e12}}',
        "node-seconds",
    ),
    ("huge-timeout", '{"workload": "x", "timeout": 1e300}', "node-seconds"),
    ("deep-array-body", DEEP_ARRAY, "nests too deeply"),
    (
        "deep-array-field",
        '{"workload": "x", "workload_params": ' + DEEP_ARRAY + "}",
        "nests too deeply",
    ),
    (
        "deep-param-value",
        '{"workload": "x", "workload_params": {"a": '
        + "[" * 600 + "]" * 600 + "}}",
        "workload_params",
    ),
    ("long-int-seed", '{"workload": "x", "seed": ' + LONG_INT + "}", "digits"),
    ("negative-seed", '{"workload": "x", "seed": -1}', "seed"),
    ("zero-nodes", '{"workload": "x", "n_nodes": 0}', "n_nodes"),
    ("negative-tail", '{"workload": "x", "tail": -5}', "tail"),
    (
        "fault-node-out-of-range",
        '{"workload": "x", "n_nodes": 2, "fault": {"node": 2}}',
        "fault 'node'",
    ),
    ("fault-kind-unknown", '{"workload": "x", "fault": {"kind": "meteor"}}',
     "fault 'kind'"),
    ("fault-at-negative", '{"workload": "x", "fault": {"at": -3}}',
     "fault 'at'"),
    ("utf8-in-workload", b'{"workload": "bt\xff_b_4"}', "not valid UTF-8"),
]


@pytest.mark.parametrize(
    "payload,needle",
    [
        ("{not json", "not valid JSON"),
        (b"\xff\xfe", "not valid UTF-8"),
        ("[1, 2]", "must be a JSON object"),
        ("{}", "missing 'workload'"),
        ('{"workload": 7}', "'workload'"),
        ('{"workload": ""}', "'workload'"),
        ('{"workload": "x", "surprise": 1}', "unknown spec field"),
        ('{"workload": "x", "n_nodes": "four"}', "n_nodes"),
        ('{"workload": "x", "n_nodes": true}', "n_nodes"),
        ('{"workload": "x", "timeout": "soon"}', "timeout"),
        ('{"workload": "x", "quick": 1}', "quick"),
        ('{"workload": "x", "rigs": "constant_fan"}', "rigs"),
        ('{"workload": "x", "rigs": [42]}', "rigs[0]"),
        ('{"workload": "x", "rigs": [{"params": []}]}', "rigs[0]"),
        (
            '{"workload": "x", "rigs": [{"name": "f", "extra": 1}]}',
            "rigs[0]",
        ),
        ('{"workload": "x", "workload_params": 5}', "workload_params"),
        (
            '{"workload": "x", "workload_params": [["a"]]}',
            "workload_params",
        ),
        ('{"workload": "x", "fault": 3}', "fault"),
        ('{"workload": "x", "fault": {"node": "zero"}}', "fault"),
        ('{"workload": "x", "platform": 9}', "platform"),
        ('{"workload": "x", "fastpath": 1}', "fastpath"),
        ('{"workload": "x", "fastpath": "yes"}', "fastpath"),
    ]
    + [pytest.param(body, needle, id=name) for name, body, needle in
       HOSTILE_RUN_PAYLOADS],
)
def test_from_json_malformed_payloads_are_config_errors(
    payload, needle
) -> None:
    """Every malformed payload raises ConfigurationError naming the
    offending field — never a bare KeyError/TypeError (the 400 the
    serving layer returns is built from this message)."""
    import re

    with pytest.raises(ConfigurationError, match="(?s)" + re.escape(needle)):
        RunSpec.from_json(payload)


def test_run_budget_admits_every_shipped_spec_and_nothing_past_it() -> None:
    """``n_nodes * (horizon or timeout + tail)`` is capped at
    MAX_NODE_SECONDS: the cap itself is admitted, a step past it is
    not, and every full-length experiment spec fits under it."""
    from repro.runtime.spec import MAX_NODE_SECONDS

    at_cap = dict(n_nodes=100, timeout=9000.0, tail=1000.0)
    assert MAX_NODE_SECONDS == 100 * (9000.0 + 1000.0)
    RunSpec(workload="x", **at_cap)
    for over in (dict(n_nodes=101), dict(tail=1000.5)):
        with pytest.raises(ConfigurationError, match="node-seconds"):
            RunSpec(workload="x", **{**at_cap, **over})
    for _name, (module, _description) in REGISTRY.items():
        if hasattr(module, "specs"):
            module.specs(quick=False)  # constructing them is the check


# -- FleetSpec: the fleet topology rides the same spec discipline --------


def cheap_fleet_spec(**overrides):
    from repro.fleet import FleetSpec

    kwargs = dict(racks=3, nodes_per_rack=2, horizon=20.0, quick=True)
    kwargs.update(overrides)
    return FleetSpec(**kwargs)


def test_fleet_digest_stable_across_constructions() -> None:
    assert cheap_fleet_spec().digest() == cheap_fleet_spec().digest()


@pytest.mark.parametrize(
    "overrides",
    [
        {"racks": 4},
        {"nodes_per_rack": 3},
        {"horizon": 21.0},
        {"dt": 0.1},
        {"epoch_ticks": 20},
        {"control_ticks": 10},
        {"seed": 7},
        {"workload": "wave"},
        {"workload_params": (("u_hot", 0.9),)},
        {"power_budget": 500.0},
        {"recirculation": 0.3},
        {"cold_aisle_c": 22.0},
        {"platform": "biglittle_4p4e"},
        {"quick": False},
    ],
)
def test_fleet_digest_distinguishes_every_field(overrides) -> None:
    assert cheap_fleet_spec().digest() != cheap_fleet_spec(**overrides).digest()


def test_fleet_digest_distinguishes_fault() -> None:
    from repro.fleet import FleetFaultSpec

    faulted = cheap_fleet_spec(fault=FleetFaultSpec(rack=1, at=5.0))
    assert cheap_fleet_spec().digest() != faulted.digest()
    assert (
        faulted.digest()
        != cheap_fleet_spec(fault=FleetFaultSpec(rack=2, at=5.0)).digest()
    )


def test_fleet_digest_domain_separated_from_runspec() -> None:
    """Fleet and run digests can share a cache directory: even if the
    canonical JSON of some FleetSpec ever collided with a RunSpec's,
    the `repro-fleet/` domain prefix keeps the digests disjoint."""
    fleet = cheap_fleet_spec()
    run = cheap_spec()
    assert fleet.digest() != run.digest()
    assert fleet.digest(version="x") != run.digest(version="x")


def test_fleet_canonical_omits_unset_platform() -> None:
    assert '"platform"' not in cheap_fleet_spec().canonical()
    assert '"platform"' in cheap_fleet_spec(
        platform="athlon64_4000"
    ).canonical()
    assert (
        cheap_fleet_spec().digest()
        != cheap_fleet_spec(platform="athlon64_4000").digest()
    )


def test_fleet_to_json_round_trips_exactly() -> None:
    from repro.fleet import FleetFaultSpec, FleetSpec

    spec = cheap_fleet_spec(
        workload="wave",
        workload_params=(("period", 30.0), ("u_amp", 0.2)),
        power_budget=400.0,
        platform="multicore_8c_45nm",
        fault=FleetFaultSpec(rack=2, at=8.0, factor=2.5),
    )
    recovered = FleetSpec.from_json(spec.to_json())
    assert recovered == spec
    assert recovered.digest() == spec.digest()


def test_fleet_from_json_accepts_object_params() -> None:
    from repro.fleet import FleetSpec

    as_pairs = cheap_fleet_spec(workload_params=(("u_hot", 0.9),))
    as_object = FleetSpec.from_json(
        '{"racks": 3, "nodes_per_rack": 2, "horizon": 20.0, "quick": true,'
        ' "workload_params": {"u_hot": 0.9}}'
    )
    assert as_object == as_pairs
    assert as_object.digest() == as_pairs.digest()


@pytest.mark.parametrize(
    "payload, needle",
    [
        ("[]", "object"),
        ("{", "JSON"),
        ('{"racks": 0}', "racks"),
        ('{"nodes_per_rack": -1}', "nodes_per_rack"),
        ('{"horizon": "long"}', "horizon"),
        ('{"horizon": -5}', "horizon"),
        ('{"dt": 0}', "dt"),
        ('{"epoch_ticks": 0}', "epoch_ticks"),
        ('{"seed": 1.5}', "seed"),
        ('{"workload": "nope"}', "workload"),
        ('{"workload_params": 5}', "workload_params"),
        ('{"power_budget": -1}', "power_budget"),
        ('{"recirculation": 0.95}', "recirculation"),
        ('{"cold_aisle_c": 200}', "cold_aisle_c"),
        ('{"platform": 9}', "platform"),
        ('{"fault": 3}', "fault"),
        ('{"fault": {"kind": "meteor"}}', "kind"),
        ('{"fault": {"rack": 7}}', "rack"),
        ('{"racks": 2, "fault": {"rack": 2}}', "rack"),
        ('{"quick": 1}', "quick"),
        ('{"shards": 4}', "unknown"),
    ]
    + [
        pytest.param(body, needle, id=name)
        for name, body, needle in [
            ("nan-racks", '{"racks": NaN}', "racks"),
            ("inf-nodes_per_rack", '{"nodes_per_rack": Infinity}',
             "nodes_per_rack"),
            ("nan-horizon", '{"horizon": NaN}', "horizon"),
            ("inf-dt", '{"dt": Infinity}', "dt"),
            ("nan-epoch_ticks", '{"epoch_ticks": NaN}', "epoch_ticks"),
            ("inf-control_ticks", '{"control_ticks": Infinity}',
             "control_ticks"),
            ("neginf-seed", '{"seed": -Infinity}', "seed"),
            ("inf-power_budget", '{"power_budget": Infinity}',
             "power_budget"),
            ("nan-recirculation", '{"recirculation": NaN}', "recirculation"),
            ("neginf-cold_aisle_c", '{"cold_aisle_c": -Infinity}',
             "cold_aisle_c"),
            ("overflow-horizon", '{"horizon": 1e999}', "horizon"),
            ("nan-fault-at", '{"fault": {"at": NaN}}', "fault 'at'"),
            ("inf-fault-factor", '{"fault": {"factor": Infinity}}',
             "fault 'factor'"),
            ("nan-fault-rack", '{"fault": {"rack": NaN}}', "fault.rack"),
            ("nan-workload-param", '{"workload_params": {"u_hot": NaN}}',
             "workload_params"),
            ("deep-array-body", DEEP_ARRAY, "nests too deeply"),
            ("long-int-seed", '{"seed": ' + LONG_INT + "}", "digits"),
        ]
    ],
)
def test_fleet_from_json_malformed_payloads_are_config_errors(
    payload, needle
) -> None:
    """Malformed fleet payloads raise ConfigurationError naming the
    field; notably `shards` is rejected — sharding is an execution
    strategy, not part of a fleet's identity."""
    import re

    from repro.fleet import FleetSpec

    with pytest.raises(ConfigurationError, match="(?s)" + re.escape(needle)):
        FleetSpec.from_json(payload)
