"""CLI tests."""

import pytest

from repro.cli import main


class TestCli:
    def test_policies_lists_all(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "Adapt3D" in out
        assert "Default" in out

    def test_floorplan_renders(self, capsys):
        assert main(["floorplan", "--exp", "2"]) == 0
        out = capsys.readouterr().out
        assert "EXP-2" in out
        assert "C" in out

    def test_run_short(self, capsys):
        assert main([
            "run", "Default", "--exp", "1", "--duration", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "hot spots" in out
        assert "peak temperature" in out

    def test_compare_subset(self, capsys):
        assert main([
            "compare", "Default", "Adapt3D",
            "--exp", "1", "--duration", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Adapt3D" in out
        assert "delay" in out

    def test_run_shorter_than_cycle_window(self, capsys):
        # 10 ticks cannot fill the 20-tick cycle window: the metric is
        # undefined and prints as --, the rest of the report stands.
        assert main([
            "run", "Default", "--exp", "1", "--duration", "1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        cycles = next(line for line in lines if line.startswith("thermal"))
        assert cycles.split()[-1] == "--"
        assert any(line.startswith("mean response") for line in lines)

    def test_compare_shorter_than_cycle_window(self, capsys):
        assert main([
            "compare", "Default", "Adapt3D",
            "--exp", "1", "--duration", "1",
        ]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["Default", "Adapt3D"]
        assert all(row.split()[3] == "--" for row in rows)

    def test_compare_unknown_policy_fails(self, capsys):
        assert main(["compare", "NotAPolicy", "--duration", "5"]) == 2

    def test_trace_exports_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main([
            "trace", "Default", "--exp", "1", "--duration", "5",
            "--out", str(out), "--jsonl", str(jsonl),
        ]) == 0
        printed = capsys.readouterr().out
        assert "trace events" in printed
        assert "tick phases" in printed
        assert "engine counters" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "i", "X"} <= phases
        assert jsonl.read_text().strip()

    def test_trace_ring_capacity_reported(self, tmp_path, capsys):
        assert main([
            "trace", "Default", "--exp", "1", "--duration", "5",
            "--out", str(tmp_path / "t.json"), "--capacity", "16",
        ]) == 0
        assert "dropped" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
