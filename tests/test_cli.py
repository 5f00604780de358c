"""CLI: argument parsing and experiment dispatch."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig9"])
        assert args.experiment == "fig9"
        assert args.quick is False

    def test_run_with_flags(self):
        args = build_parser().parse_args(
            ["run", "table1", "--quick", "--seed", "9"]
        )
        assert args.quick is True
        assert args.seed == 9

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "table1" in out

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "wall time" in out

    def test_run_respects_seed(self, capsys):
        def table_only(text):
            # drop the wall-time line, which legitimately varies
            return [ln for ln in text.splitlines() if "wall time" not in ln]

        main(["run", "fig2", "--quick", "--seed", "3"])
        first = table_only(capsys.readouterr().out)
        main(["run", "fig2", "--quick", "--seed", "3"])
        second = table_only(capsys.readouterr().out)
        assert first == second


class TestConfigurationErrors:
    """A bad configuration is one line on stderr and exit code 2, for
    every subcommand, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig2", "--quick"], ["fleet", "--quick"]],
        ids=["run", "fleet"],
    )
    def test_cache_dir_that_cannot_be_a_directory(self, argv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + ["--cache-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv[0]}: ")
        assert "not a usable directory" in captured.err
        assert "Traceback" not in captured.err
