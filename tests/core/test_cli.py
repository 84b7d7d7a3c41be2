"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.users == 20_000
        assert args.queries == 2048
        assert not args.unique

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.index is None
        assert args.port == 7311
        assert args.save_on_exit is None

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--rate", "250", "--duration", "2"]
        )
        assert args.rate == 250.0
        assert args.duration == 2.0
        assert args.connections == 4


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "match-unique" in out
        assert "[1, 3]" in out

    def test_workload(self, capsys):
        assert main(["workload", "--users", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "users:              500" in out
        assert "unique sets:" in out

    def test_build_then_match(self, capsys, tmp_path):
        snapshot = str(tmp_path / "idx.npz")
        assert main(
            ["build", "--users", "500", "--gpus", "1",
             "--max-partition-size", "64", "--out", snapshot]
        ) == 0
        out = capsys.readouterr().out
        assert "snapshot written" in out

        assert main(["match", "--index", snapshot, "--tags", "zz-missing"]) == 0
        out = capsys.readouterr().out
        assert "0 keys" in out

    def test_match_rejects_empty_tags(self, tmp_path, capsys):
        assert main(["match", "--index", "x", "--tags", " , "]) == 2

    def test_bench(self, capsys):
        assert main(
            ["bench", "--users", "500", "--queries", "64", "--gpus", "1",
             "--max-partition-size", "64", "--unique"]
        ) == 0
        out = capsys.readouterr().out
        assert "match-unique:" in out
        assert "latency" in out
