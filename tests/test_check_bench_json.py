"""benchmarks.check_bench_json: every file checked, per-file summary, exit codes."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("benchmarks.check_bench_json", reason="requires repo-root cwd")

from benchmarks.check_bench_json import check_file, check_files, check_files_by_path, main
from repro.obs.bench import build_record, write_record


def _valid_path(tmp_path, experiment_id="e1"):
    record = build_record([{"metric": 1.0}], experiment_id, metrics={})
    return write_record(record, tmp_path)


def _broken_path(tmp_path, experiment_id="e9"):
    record = build_record([{"metric": 1.0}], experiment_id, metrics={})
    del record["git_sha"]
    del record["profile"]
    path = tmp_path / f"BENCH_{experiment_id.upper()}.json"
    path.write_text(json.dumps(record))
    return path


class TestCheckFile:
    def test_valid_file_no_problems(self, tmp_path):
        assert check_file(str(_valid_path(tmp_path))) == []

    def test_missing_file_reported(self, tmp_path):
        problems = check_file(str(tmp_path / "BENCH_NOPE.json"))
        assert problems == ["BENCH_NOPE.json: file not found"]

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "BENCH_BAD.json"
        path.write_text("{not json")
        (problem,) = check_file(str(path))
        assert "invalid JSON" in problem

    def test_schema_problems_all_collected(self, tmp_path):
        problems = check_file(str(_broken_path(tmp_path)))
        assert len(problems) == 2  # both missing keys, not just the first
        assert any("git_sha" in p for p in problems)
        assert any("profile" in p for p in problems)


class TestCheckFilesByPath:
    def test_broken_file_does_not_mask_others(self, tmp_path):
        good = _valid_path(tmp_path, "e1")
        bad = _broken_path(tmp_path, "e9")
        worse = tmp_path / "BENCH_E8.json"
        worse.write_text("[]")
        by_path = check_files_by_path([str(good), str(bad), str(worse)])
        assert by_path[str(good)] == []
        assert len(by_path[str(bad)]) == 2
        assert len(by_path[str(worse)]) == 1

    def test_flat_wrapper_concatenates(self, tmp_path):
        good = _valid_path(tmp_path, "e1")
        bad = _broken_path(tmp_path, "e9")
        assert len(check_files([str(good), str(bad)])) == 2


class TestMain:
    def test_all_valid_exit_zero(self, tmp_path, capsys):
        paths = [str(_valid_path(tmp_path, "e1")), str(_valid_path(tmp_path, "e2"))]
        assert main(paths) == 0
        assert "2 BENCH json file(s) valid" in capsys.readouterr().out

    def test_failures_summarised_per_file(self, tmp_path, capsys):
        good = _valid_path(tmp_path, "e1")
        bad = _broken_path(tmp_path, "e9")
        worse = tmp_path / "BENCH_E8.json"
        worse.write_text("{not json")
        assert main([str(good), str(bad), str(worse)]) == 1
        out = capsys.readouterr().out
        assert "2/3 file(s) invalid:" in out
        assert "BENCH_E9.json: 2 problem(s)" in out
        assert "BENCH_E8.json: 1 problem(s)" in out
        assert "BENCH_E1.json" not in out.split("invalid:")[1]

    def test_no_files_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([]) == 1
        assert "no BENCH_*.json files found" in capsys.readouterr().out
