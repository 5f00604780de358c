"""CLI --export and the JSON conversion behind it."""

import json

from repro.cli import main, to_jsonable


class TestToJsonable:
    def test_dataclass(self):
        import dataclasses

        @dataclasses.dataclass
        class Point:
            x: int
            y: float

        assert to_jsonable(Point(1, 2.5)) == {"x": 1, "y": 2.5}

    def test_enum_values(self):
        from repro.core.classify import ThermalBehavior

        assert to_jsonable(ThermalBehavior.SUDDEN) == "sudden"

    def test_enum_dict_keys(self):
        from repro.core.classify import ThermalBehavior

        data = {ThermalBehavior.JITTER: 0.25}
        assert to_jsonable(data) == {"jitter": 0.25}

    def test_nested_structures(self):
        data = {"rows": [(1, 2.0), (3, 4.0)], "none": None}
        out = to_jsonable(data)
        assert out == {"rows": [[1, 2.0], [3, 4.0]], "none": None}
        json.dumps(out)  # must be serializable

    def test_exotic_falls_back_to_str(self):
        class Weird:
            def __str__(self):
                return "weird"

        assert to_jsonable(Weird()) == "weird"


class TestCliExport:
    def test_export_writes_txt_and_json(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "fig2", "--quick", "--export", str(out)]) == 0
        capsys.readouterr()
        txt = out / "fig2.txt"
        js = out / "fig2.json"
        assert txt.exists() and js.exists()
        assert "Figure 2" in txt.read_text()
        payload = json.loads(js.read_text())
        assert payload["experiment"] == "fig2"
        assert payload["quick"] is True
        assert "result" in payload
        # the fractions dict came through with string keys
        assert "sudden" in payload["result"]["fractions"]

    def test_no_export_writes_nothing(self, tmp_path, capsys):
        main(["run", "fig2", "--quick"])
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []
