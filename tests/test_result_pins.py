"""Result pins: the summary and canonical bytes of every quick spec.

Three sets of runs are pinned: every distinct quick experiment spec on
the default platform, the fig6/fig7/table1/fig10 quick specs on
``biglittle_4p4e`` (two core classes), and the fig7/table1/fig10 ones on
``multicore_8c_45nm`` (one homogeneous eight-core class).  Each pin is a pair of sha256
digests:

* ``summary_bytes(spec, result)`` — the served wire form.  These were
  recorded before :meth:`RunResult.canonical_bytes` existed and must
  never move: a change of encoding is not a change of result.
* ``result.canonical_bytes()`` — the one byte form of the run, which
  the result store keeps as its entry body.

The summaries fold in spec digests, which fold in the package version;
the pins were recorded at :data:`PIN_VERSION`, so the runs and this
module's tests run under it.  As with ``tests/test_fleet.py``'s ``GATE_PINS``, the pins
hold on a host whose BLAS kernel uses FMA (ROADMAP item 3).

Every run is also read back from a result store: the loaded result's
canonical bytes, and the summary the store keeps in the entry header,
must equal the fresh ones exactly.  The runs come from the session
fixture ``pinned_runs`` (``tests/conftest.py``), which
``tests/test_reference_oracle.py`` holds to the reference oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Sequence

import pytest

import repro
from repro.cluster.cluster import RunResult, summary_bytes
from repro.experiments import REGISTRY
from repro.runtime import RunExecutor, RunSpec

#: Package version the pinned summaries' spec digests fold in.
PIN_VERSION = "1.0.0"

DEFAULT_PINS = {
    "fig2[0]": (
        "1b160296acee1bb79273b91598c10e1c43ab958ac0bcc78315f64126adcb2501",
        "382b67c59489c33003f1246e277332cc004c1a55d85b455490830c3e1383d23a",
    ),
    "fig5[0]": (
        "72d898f8bc85918ba9d5abaccf7c0fb9fdc27ca20441344ba4e2b3c14c0526c8",
        "8340141b1e16b4ea8b89d5bd6b709f06d58ede960f6af01aee888eb237ba4013",
    ),
    "fig5[1]": (
        "d6321343e6871e8dba9acbb45f64c5c1870de208e971c8df067d79ab06c2b324",
        "7eb935872e7fd8985280442fd377a0df00ef6becdedc33208ad2f16ee420d748",
    ),
    "fig5[2]": (
        "203cf5ae8d80e478fcdd10a1aae153992e8dc6b3584f2d1064924f8e6b926abb",
        "adbf20a6633c7aa29515e0ef695174e6d5fc9259db7c62cf1d0446b81261f4a7",
    ),
    "fig6[0]": (
        "e24885e44520f935347e83eaa904aa3571fa161cdf00f7f604a50e2074db76a2",
        "3320e9517c9544eb33e957914555d0092170367a0fc3b75824096c2348999fa7",
    ),
    "fig6[1]": (
        "45e07c2fe43d4b8611edf346dfa8c16c89809d2870f738e8de8eca7eff259cb6",
        "b2fed16a83aab3fbd68adb86308043cc08c8791b47c2b5ae9f4c40a7ff9fba08",
    ),
    "fig6[2]": (
        "2c15817e130f946de232754657517db6740fb58230ebcb7e10aeeebdf0c779ba",
        "66dfbf74d7782d6482cbafa814b97ee2394f6401d0e0ac38f733b16127220c54",
    ),
    "fig7[0]": (
        "3ae7873a684f5c6d6e3db0920c728c85de4f2cf1550e855eb81cac2accea9175",
        "b670a30ee620246216e14303ac5762701ae3c05d1f3374e6b3053810042c1df8",
    ),
    "fig7[1]": (
        "95abc658144e79bcf8909949b38e50711ca62c96c285435c0b5346ee54976f55",
        "e202e5bca6aa88d74cb1fdedf67a92bc97535fbf0b74e7894bb5a3ffaa353232",
    ),
    "fig7[3]": (
        "c7348166a236924ce5f15f73d161502abce97e1254068d93e36c2387ca36d409",
        "3c2197d262f3971bca487dc2882ec1e863e713a188bf1b6937dfad9ff057c541",
    ),
    "fig8[0]": (
        "b5b3aa867d36ca26e2631c8edbc52272844134deb1273209640937f73d3f5ddb",
        "ed282e58a3599bbf83e2aab01cb45a4dccf317268802a527e8dfc398d9dfecfe",
    ),
    "fig9[0]": (
        "ef6c1b8162a79d71f9dea38eca11738366187aa31a50bf26f06eccd584461b79",
        "0cc839641ee46ff1e8527cfa9fc7a190c4ed89196589fe065df0b229690e44d7",
    ),
    "fig9[1]": (
        "f88c7f3fdebf1eaf297ef531e035e34b3641cd61007f1940cc0be4d30318b101",
        "9032e0f138f4cf4db3d1a4fe19e7fea6343ce83d9c1032db7074602fdcdbba22",
    ),
    "table1[0]": (
        "e47082acd97ee9ce7bb03f8ec97d0dd25384e4215271254d33f53305bbd08ee7",
        "75468b8b51afbc8290ee80b872bd0e0912c543b30523e54de5fdae14bfd9e2cd",
    ),
    "table1[1]": (
        "137aeac0e8bce862a0330b0c09c54a9782f4727c52cb3a3c8a0892a2310d4892",
        "1018179805fa58124d318a100713fd7b24f559abe43a0551df1e8bc476e6683d",
    ),
    "table1[2]": (
        "aec9a5531f0e1b166efee40edbfdf3d3312456afe06db4a8119c2d5ea4246853",
        "363acca6a70e878a492c62498bbd75991b40973b3a8725b2179d0311a6eb407e",
    ),
    "table1[3]": (
        "49a99e9aa72949ad08edd493a13b7c5f0bd49f74eca9b5fdacaf65fc40b82b02",
        "af993b6c69a9603160850f28d4abd4e7ec5f48cc44dccbb2a9a29286b27a1200",
    ),
    "fig10[0]": (
        "4090841fdbb9b1c1ffdeccdc72856f1fe28038fa57720dd9a6cd0853ae5261a2",
        "d7a0200415fcdb0215eb98c6111cab1b4a491d667d9f094e1e6a48437eb4a28f",
    ),
    "fig10[1]": (
        "febb174dff7ac057978667c490f45fb2506b96d447a938adc7da7fe7b47abb91",
        "af993b6c69a9603160850f28d4abd4e7ec5f48cc44dccbb2a9a29286b27a1200",
    ),
    "fig10[2]": (
        "d72cb8ca82596ea2cfb05fda1e0c623ecec1381b89c59844ec02b6918b17cf5b",
        "b33f63e68ad055c1859cd019c4ee39b16ed363aa352ca608ea7067484fc0ddcb",
    ),
    "scaling[0]": (
        "bcfbf34990cce5962b029ac712d50dbdaf0965a14e4ddcd311f495413b6b9f2c",
        "fc82df703b1592b191c02c0021997ab9da9171cbb64f83011722d02f4f113ae8",
    ),
    "scaling[1]": (
        "97cbc25d15ce6125d6549038208ff60132a783227fe2011d519be84c3d384574",
        "fc4bd72e4c8bae77df71c482923daedaf75671696646a238e7cdb6c7841ecdee",
    ),
    "emergency[0]": (
        "c926da12387e09dc34dfcaaf372fab6210232ce1fc75819c49472b317eb54268",
        "7a8746c70559f0394968fd05c3e7400d73530035671ebae094a088ddb7de23ed",
    ),
    "emergency[1]": (
        "bba67bed318c22247b2554080c4e05fb7d95de5972be1376fb7a2171bc919047",
        "f38401f120fdf47a0bb4ee91a015faacb366e79eccd7f3c5ee7af41bc53ee19d",
    ),
    "emergency[2]": (
        "715b13987dd2bb05289226277fde39bcbbb7029f48411fe5ad25c77f7cfb4f10",
        "10cad329af536db1c65692ea8b7dd93493bdec10567d35552917f74ece418aa6",
    ),
    "emergency[3]": (
        "d9be293d2fb3992bc3e8e4f01abcf0e2daa7efbb00b314b625c1ff71a6812a7d",
        "d7aeaa3fae319d3c79466c3cfb86463a1d7aab1ab7b3f711030e7d58dc329678",
    ),
    "suite[0]": (
        "b0eb04d5a9d6f5e47511b26a65ee9e8c066c69239db1e508f81c570c9724144f",
        "5bd406bfecdd6e26c6396eecfd924c9ba3b0230f6d28fba955cbc3da69239555",
    ),
    "suite[1]": (
        "9c6abe87f6e041e9006dd8b30cd5a8a18009e9aa1a984a337fe35627016bb4de",
        "28369973c6d5340011d054857725976076a127048e7cb93f1f4e24bd38ca433f",
    ),
    "suite[2]": (
        "50514a95af90368296439a9571607484a90b4c6b0a9aa91daffafac6faa47995",
        "22af5e67dbc64be8572c3db4459da85278ab36d3ba0a19ac84fd55ba51fe1fd8",
    ),
    "suite[3]": (
        "83b6408a241fa6acf96dcb94aa1ac2f7cb2db0a62ca9d73770a89a878d4c8013",
        "8c1a3000b22ded0847c68c246510fae65bb6523b7f55eaa35c80e0e84fa989e7",
    ),
    "suite[4]": (
        "5eb4f2bd7c61e798576ea9583f93e959f7dd26e43a74ab0118e0f772c0612333",
        "58049f772842a4de68c337a05375d858482cf4c11aba89a96d5721a37faf459d",
    ),
    "suite[5]": (
        "c93d7231e7324166252c1ef70a07a0a6040a8630a3aee486f9cab46e3d32e117",
        "58049f772842a4de68c337a05375d858482cf4c11aba89a96d5721a37faf459d",
    ),
    "suite[6]": (
        "dba50120396e82f04fc37c463b037f9d99608ffe8069f78f81c8af408fc937b9",
        "012aa495014b544773c5c5b5a67cbdc129172001d26209c82ee612d1a277da77",
    ),
    "suite[7]": (
        "e69501d6f2bb73f387dc48c030fdd60713eaa6026d9b9fdbe28d3aeb22ec52ab",
        "5ed6884e02c064a5777e18531916714d7b68778b4595285114ba89e19e45e008",
    ),
}

BIGLITTLE_PINS = {
    "fig6[0]": (
        "9cfaf43ee50d4ec0feac08a0e12ff56cfc01f2caf3bdd9511015cb274b74ca98",
        "32b04ef02f707d4a2f6614ce3d51cb1a63bf26c7ac98c059c382a09820742b12",
    ),
    "fig6[1]": (
        "fee46a25acf8af3f36a78e630e34c0614871b5d5e99e31e61977e3747604ebb0",
        "19635efb4791044c1273333dccd8e275e16e04e033ffcc3aa1a1e35577600999",
    ),
    "fig6[2]": (
        "4d518fa8816ec7b689d6ed7d030ee30b8263101bf09e061545c4368eb644ed89",
        "86ad507ca104d7c542e6c1c76302c32c4ff0d1aed6ed884e715715d38e1dd711",
    ),
    "fig7[0]": (
        "512e45b1882e3d075403ad601da32d956d793568edf58ccf0f3924faa8f4027d",
        "c959691247d8067556b8b5e9a190af5c669df446b7e118699d07d1bdd5c32baa",
    ),
    "fig7[1]": (
        "aec4777ce901d822fd125291f305c85a079733d9ffd6675293eecd300cfd2bb3",
        "32df4e748e88b0a427fad6501c12e4d94cfa6bf70fbfd9ba58ffb9a787502dab",
    ),
    "fig7[3]": (
        "04d0a66f677eb84d947aa7b912f775825c61c65ec6181d3d1b392141dbb2df67",
        "60742c85ec1a3078494ae6f4c21f2de34bec967ffdf3c8945b0d152487a6215a",
    ),
    "table1[0]": (
        "dcd8a98076d852cd36ef5b4a6019e3db5601d1162339581a3ce29055b8a4cc12",
        "e540d01f5f6a1b6bc4cecdca606a8ea8c54ceadf12a8ca3942480da061a10a80",
    ),
    "table1[1]": (
        "aba5f82749807d0c3f0990559dd3fe1abf25d3fe974b5508aa965eedd19cd4a3",
        "58ba7954486644e474cb9d59ad7fcd41627d39fe665dace3e058418a9f8b5cd9",
    ),
    "table1[2]": (
        "b1f02216de32a518c45ee6eac3c1deeb1c39ca622c55a0979e1687ece2d895c1",
        "28289c165faff08ecee5e141c985e3e9943a249cc2945d8e4caf7fe04d2dfdb3",
    ),
    "table1[3]": (
        "5357d6d11f58402e0a97d513a792079621be1c0a94a37d0c2f471ed42939a1dd",
        "5824ef341ca28d418eee73005936fc4daa4ea0572d56e5e58a8f40503504e9aa",
    ),
    "table1[4]": (
        "d10b7a81c752693c42b51c67ff38cadf62f3894c2c517bb4be9a71d4c5bb3f80",
        "c6655b807224cdbbfe477601c063574d45480aa48c4803c6c1075785668e2954",
    ),
    "table1[5]": (
        "52a67610901c8f7f46ede84924eb5961bc10236a3690471f63e681a2b646e0ad",
        "981d4b74c5c4f45dc3ca4569f7c92f188b6feffbda8ef9a30a2db40390d7e6fc",
    ),
    "fig10[0]": (
        "bd1c99ef06fdb141b10384d46f9df7a69e8ff868b915faeaff3b6397b2771193",
        "0131b16150f2331e5e8dec6e033a62001c86c32a7b9cc2430fd2f18c10ccee32",
    ),
    "fig10[1]": (
        "192b4c83036d4ad180e45b9d58a121132c811f27ed0b231a069368354399aacc",
        "5824ef341ca28d418eee73005936fc4daa4ea0572d56e5e58a8f40503504e9aa",
    ),
    "fig10[2]": (
        "41ab626101c53db015e401e03d65e7242b29ef359cd4cf480638a745cdb83396",
        "5b3195e3a1f2f6af64d4ac6262f6178cd44bc0e603582e9973e4cb77922adc3e",
    ),
}

MULTICORE_8C_PINS = {
    "fig7[0]": (
        "ead138e5a0f6f2cf9e51c401cbc46f72d70df2326ab0ec3308a056f0c3045d3d",
        "c9f042358799b5e566a868f6bb6d23207e5c5a5a156cb587c61736bc3e7236a2",
    ),
    "fig7[1]": (
        "f2dbbae32c840d7187db14f5073e88f6184062a1f1a2374db585bdf6af91e148",
        "14b963d717ac22af245c7006558cbbb7b322b1902b078bc7e16407c060444b76",
    ),
    "fig7[2]": (
        "2d8b3a0fd5a505ce96322c3f42db4af5b954a50e4af0032d569932cb063b8187",
        "92f700441fc24727e2c50e7a2587c06bc540e6f9ffa61c39a177ce8cce498c4c",
    ),
    "fig7[3]": (
        "c3a56f73f61e28e109c7666fbab6fa6e0b0eb3f128dbfabbb9ae24cc7f03d052",
        "12221c044cda0283ed831752201e827877e657501afe41710b5b556017079e07",
    ),
    "table1[0]": (
        "f89adbfe45c51051619728d8dba2c474e46f25a4ad7e77a04d158960959863ee",
        "3291774233133772c4ef3b184920460c64ec6293f093d4c2a51c9abbc48d74c0",
    ),
    "table1[1]": (
        "b94b42dadd902c266a249c70bb26d30313a512d04c99d7670e74eb397503b54c",
        "f7d194b4526620d96e3c8501115b03b2a269606093d22966c35cd458d2c51abc",
    ),
    "table1[2]": (
        "4df3302dac9d612a9cf09b6eef74d620838449a2e392dca91c4933afb6911958",
        "439ecba341f4aa39a70cd5454bd00714d7f18735314fc29d2b53fc0be3a9c8ae",
    ),
    "table1[3]": (
        "51a47475a11fd8e4834b8d6f825b27979409451a8cec0a722c5601851e8b5551",
        "6946928c19939b7ac3d97b7281ae867ea53a12ab98821f67c009fbba0daab465",
    ),
    "table1[4]": (
        "53ff42c56e5f9f87105f31aee46df13a34fa2ea2e257cc357f021991e2191fb1",
        "1662e9dc00a19a744e0713a164eac99446d9cd3d9980ce45ed11a7021136b997",
    ),
    "table1[5]": (
        "4241ff211619b16f77c3a7ae386ca57566040d9568a25c9a6a4c5950f8636b0d",
        "8ca6f40fae7a0e1e47b459532d839701065815114f4e9f67a05afdacbbee9544",
    ),
    "fig10[0]": (
        "3d3e72d4caacd163131811961735e2fab0fa46307e593293ef9683897263f722",
        "fd8fe2db58ea951074c4df99126b778ee02774e141f39476428314abdec6a74d",
    ),
    "fig10[1]": (
        "cf78a7a8f3b4e15e63d924ca30110e8b7caff0ada1bb3b39c9194d3d3dc5dc7b",
        "6946928c19939b7ac3d97b7281ae867ea53a12ab98821f67c009fbba0daab465",
    ),
    "fig10[2]": (
        "fd69ae903b22fc6832c2decefc3e10a4deb776a5bd7acd03faafc64230bbda93",
        "c192c73cb0bb9eaa34d545bfde19d0301f70ac43a44f86b80e4fe61cc3807ad3",
    ),
}

PLATFORM_EXPERIMENTS = ("fig7", "table1", "fig10")

#: fig6 adds the auto-mode traditional fan, the one corpus rig whose
#: duty follows the chip's remote diode (the package's hottest core).
#: Its dynamic-fan spec is fig7's third, so it takes the label fig6[1].
BIGLITTLE_EXPERIMENTS = ("fig6", *PLATFORM_EXPERIMENTS)

PLATFORMS = {
    "default": (None, None, DEFAULT_PINS),
    "biglittle_4p4e": ("biglittle_4p4e", BIGLITTLE_EXPERIMENTS, BIGLITTLE_PINS),
    "multicore_8c_45nm": (
        "multicore_8c_45nm", PLATFORM_EXPERIMENTS, MULTICORE_8C_PINS
    ),
}


def quick_specs(
    names: Optional[Sequence[str]] = None, platform: Optional[str] = None
) -> Dict[str, RunSpec]:
    """Each distinct quick run spec of the registry's experiments (or of
    ``names``), labelled ``experiment[index]`` by its first position and
    retargeted to ``platform`` when one is given."""
    out: Dict[str, RunSpec] = {}
    seen = set()
    for name, (module, _description) in REGISTRY.items():
        if (names is not None and name not in names) or not hasattr(module, "specs"):
            continue
        for index, spec in enumerate(module.specs(quick=True)):
            if not isinstance(spec, RunSpec) or spec in seen:
                continue
            seen.add(spec)
            if platform is not None:
                spec = dataclasses.replace(spec, platform=platform)
            out[f"{name}[{index}]"] = spec
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", autouse=True)
def pin_version():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro, "__version__", PIN_VERSION)
        yield


def test_the_pinned_sets_are_every_quick_spec():
    assert len(quick_specs()) == len(DEFAULT_PINS) == 34
    for key in ("biglittle_4p4e", "multicore_8c_45nm"):
        _platform, names, pins = PLATFORMS[key]
        assert len(quick_specs(names)) == len(pins)


@pytest.mark.parametrize("key", sorted(PLATFORMS))
def test_summary_pins_hold(pinned_runs, key):
    runs, pins = pinned_runs[key], PLATFORMS[key][2]
    assert sorted(runs) == sorted(pins)
    moved = [
        label
        for label, (spec, fresh, _loaded, _stored) in runs.items()
        if sha256(summary_bytes(spec, fresh)) != pins[label][0]
    ]
    assert moved == []


@pytest.mark.parametrize("key", sorted(PLATFORMS))
def test_canonical_pins_hold(pinned_runs, key):
    runs, pins = pinned_runs[key], PLATFORMS[key][2]
    moved = [
        label
        for label, (_spec, fresh, _loaded, _stored) in runs.items()
        if sha256(fresh.canonical_bytes()) != pins[label][1]
    ]
    assert moved == []


@pytest.mark.parametrize("key", sorted(PLATFORMS))
def test_store_round_trip_is_exact(pinned_runs, key):
    """A result read back from the store has the fresh canonical bytes,
    the stored summary is the fresh summary, and ``from_canonical``
    inverts ``canonical_bytes`` on its own."""
    for label, (spec, fresh, loaded, stored) in pinned_runs[key].items():
        body = fresh.canonical_bytes()
        assert loaded.canonical_bytes() == body, label
        assert RunResult.from_canonical(body).canonical_bytes() == body, label
        assert stored == summary_bytes(spec, fresh) == summary_bytes(spec, loaded)


def test_telemetry_rows_round_trip(tmp_path):
    """Telemetry snapshots ride the canonical line: a telemetry run read
    back from the store has the same rows and the same summary."""
    spec = dataclasses.replace(quick_specs(("fig2",))["fig2[0]"], telemetry=True)
    fresh = RunExecutor(cache_dir=tmp_path).run(spec)
    loaded = RunExecutor(cache_dir=tmp_path).run(spec)
    assert fresh.telemetry is not None
    assert loaded.telemetry.to_jsonable() == fresh.telemetry.to_jsonable()
    assert loaded.canonical_bytes() == fresh.canonical_bytes()
    assert summary_bytes(spec, loaded) == summary_bytes(spec, fresh)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda body: body[:-8],
        lambda body: body + b"\0" * 8,
        lambda body: body[: body.index(b"\n") + 1],
        lambda body: body.replace(b"\n", b" ", 1),
    ],
    ids=["short", "long", "no-arrays", "no-line"],
)
def test_from_canonical_refuses_malformed_bytes(mangle):
    result = RunExecutor().run(quick_specs(("fig2",))["fig2[0]"])
    with pytest.raises(ValueError):
        RunResult.from_canonical(mangle(result.canonical_bytes()))
