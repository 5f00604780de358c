"""Seeded fuzzing of the two spec wire parsers (stdlib ``random`` only).

Valid wire forms of :class:`~repro.runtime.RunSpec` and
:class:`~repro.fleet.FleetSpec` are mutated — a hostile value swapped
in, a key dropped or added, the text truncated, a byte flipped, a value
nested deeply — and each mutant is fed to ``from_json``.  The contract:
``from_json`` either raises :class:`~repro.errors.ConfigurationError`,
or returns a spec ``s`` whose ``to_json()`` is strict JSON, parses back
to ``s`` and keeps its digest.  Any other exception fails the test.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetFaultSpec, FleetSpec
from repro.runtime import FaultSpec, RunSpec

#: Raw JSON tokens swapped in for a value (the text is spliced in, so
#: tokens ``json.dumps`` cannot write — NaN, 5000-digit ints — appear).
HOSTILE_TOKENS = (
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "-1", "0", "-0.0",
    "1.5", "true", "false", "null", '""', '"x"', '"\\ud800"', "[]", "{}",
    "[[1, 2]]", '{"a": 1}', '[["a", NaN]]', "9" * 400, "-" + "9" * 4300,
    "9" * 5000, "[" * 40 + "]" * 40, "[" * 600 + "]" * 600,
    "[" * 3000 + "]" * 3000,
    '"' + "y" * 10_000 + '"',
)

#: Keys an added entry may carry: every known field of both kinds, the
#: retired ``fastpath`` and a few strangers.
EXTRA_KEYS = (
    "workload", "workload_params", "rigs", "n_nodes", "seed", "ambient",
    "fault", "timeout", "tail", "quick", "telemetry", "platform",
    "fastpath", "racks", "nodes_per_rack", "horizon", "dt", "epoch_ticks",
    "control_ticks", "power_budget", "recirculation", "cold_aisle_c",
    "shards", "", "__proto__", "kind", "node", "at", "name", "params",
)

_MARK = "\x00hostile\x00"


def run_seeds():
    return [
        RunSpec.of(
            "mixed_thermal_profile",
            {"duration": 20.0},
            rigs=[("constant_fan", {"duty": 0.45})],
            n_nodes=1,
            seed=11,
            timeout=120.0,
        ),
        RunSpec.of(
            "bt_b_4",
            {"iterations": 3, "tags": ["a", "b"]},
            rigs=["ondemand", ("tdvfs", {"threshold": 70.0})],
            ambient=("sinusoid_ambient", {"mean": 298.0}),
            fault=FaultSpec(node=1, at=5.0, horizon=30.0),
            tail=2.5,
            quick=True,
            telemetry=True,
            platform="dell_poweredge_1855",
        ),
    ]


def fleet_seeds():
    return [
        FleetSpec(racks=3, nodes_per_rack=2, horizon=20.0, quick=True),
        FleetSpec.of(
            racks=4,
            workload="wave",
            params={"period": 30.0, "u_amp": 0.2},
            power_budget=400.0,
            platform="multicore_8c_45nm",
            fault=FleetFaultSpec(rack=2, at=8.0, factor=2.5),
        ),
    ]


def _containers(node, out):
    """Every dict and list inside ``node`` (``node`` included)."""
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, out)
    return out


def _splice(data, rng):
    """``data`` as text with one value replaced by a hostile token."""
    target = rng.choice(_containers(data, []))
    if not target:
        return json.dumps(data)
    if isinstance(target, dict):
        slot = rng.choice(list(target))
    else:
        slot = rng.randrange(len(target))
    target[slot] = _MARK
    return json.dumps(data).replace(
        json.dumps(_MARK), rng.choice(HOSTILE_TOKENS)
    )


def mutate(wire: str, rng: random.Random):
    """One mutant payload (text or bytes) of a valid wire form."""
    data = json.loads(wire)
    op = rng.randrange(7)
    if op == 0:
        return _splice(data, rng)
    objects = [c for c in _containers(data, []) if isinstance(c, dict)]
    if op == 1:  # drop a key
        target = rng.choice(objects)
        if target:
            del target[rng.choice(list(target))]
        return json.dumps(data)
    if op == 2:  # add (or overwrite) a key with a hostile or sane value
        rng.choice(objects)[rng.choice(EXTRA_KEYS)] = _MARK
        return json.dumps(data).replace(
            json.dumps(_MARK),
            rng.choice(HOSTILE_TOKENS + ("3", "0.25", "true", '"fan_fail"')),
        )
    if op == 3:  # truncate
        return wire[: rng.randrange(len(wire))]
    if op == 4:  # flip a byte
        raw = bytearray(wire.encode("utf-8"))
        raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(raw)
    if op == 5:  # nest a value (or the whole body) deeply
        depth = rng.choice((2, 40, 600, 100_000))
        if rng.random() < 0.3:
            return "[" * depth + wire + "]" * depth
        key = rng.choice(list(data))
        data[key] = _MARK
        return json.dumps(data).replace(
            json.dumps(_MARK), "[" * depth + "1" + "]" * depth
        )
    # A sane retyping: a number as an int, params as an object.
    for key, value in list(data.items()):
        if isinstance(value, float) and value.is_integer():
            data[key] = int(value)
        elif key.endswith("params") and isinstance(value, list):
            data[key] = dict(value)
    return json.dumps(data)


def _reject_constant(token: str):
    raise AssertionError(f"to_json emitted the non-standard token {token}")


def check_one(cls, payload) -> bool:
    """The fuzz contract for one payload; True when it was accepted."""
    try:
        spec = cls.from_json(payload)
    except ConfigurationError:
        return False
    wire = spec.to_json()
    json.loads(wire, parse_constant=_reject_constant)
    again = cls.from_json(wire)
    assert again == spec
    assert again.digest() == spec.digest()
    assert again.to_json() == wire
    return True


@pytest.mark.parametrize(
    "cls,seeds",
    [(RunSpec, run_seeds), (FleetSpec, fleet_seeds)],
    ids=["RunSpec", "FleetSpec"],
)
def test_from_json_fuzz_rejects_cleanly_or_round_trips(cls, seeds) -> None:
    rng = random.Random(20100913)
    wires = [spec.to_json() for spec in seeds()]
    accepted = 0
    cases = 2500
    for case in range(cases):
        payload = mutate(rng.choice(wires), rng)
        try:
            accepted += check_one(cls, payload)
        except Exception as exc:  # report the mutant that broke the contract
            raise AssertionError(
                f"case {case}: {type(exc).__name__}: {exc} on payload "
                f"{payload[:300]!r}"
            ) from exc
    # Both outcomes are exercised: the mutator is neither all-hostile
    # nor all-benign.
    assert cases // 10 < accepted < cases - cases // 10
