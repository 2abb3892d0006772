"""End-to-end tests for the ``--trace`` flags and ``repro trace``."""

import json

from repro.__main__ import main
from repro.obs import PRUNE_REASONS, TRACE_FORMAT, read_trace, validate_trace


class TestTraceFlag:
    def test_optimize_writes_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(
            ["optimize", "matmul", "--fast", "--trace", str(path)]
        ) == 0
        capsys.readouterr()  # the normal optimize report still prints
        events, problems = read_trace(str(path))
        assert problems == []
        assert validate_trace(events) == []
        pruned = [
            e for e in events
            if e["kind"] == "event" and e["name"] == "candidate.pruned"
        ]
        assert pruned
        assert all(e["attrs"]["reason"] in PRUNE_REASONS for e in pruned)
        # the trace scope closes with the final counter totals
        assert events[-1]["kind"] == "counters"
        assert events[-1]["name"] == "totals"

    def test_compare_writes_trace_with_simulation(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(
            ["compare", "copy", "--fast", "--budget", "2000",
             "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        events, problems = read_trace(str(path))
        assert problems == []
        names = {e["name"] for e in events}
        assert "sim.nest" in names and "sim.total" in names

    def test_unwritable_trace_path_errors(self, capsys):
        try:
            code = main(
                ["optimize", "matmul", "--fast",
                 "--trace", "/nonexistent-dir/out.jsonl"]
            )
        except SystemExit as exc:
            code = exc.code
        assert code not in (0, None)


class TestTraceCommand:
    def _write_trace(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert main(
            ["optimize", "matmul", "--fast", "--trace", str(path)]
        ) == 0
        return path

    def test_summary(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace:")
        assert "candidates considered" in out
        assert "spans:" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace", str(path), "--validate"]) == 0
        assert "schema OK" in capsys.readouterr().out

    def test_validate_rejects_bad_records(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({
                "format": TRACE_FORMAT, "seq": 0, "kind": "event",
                "name": "candidate.pruned",
                "attrs": {"reason": "vibes", "phase": "temporal"},
            }) + "\nnot json\n"
        )
        assert main(["trace", str(path), "--validate"]) == 4
        err = capsys.readouterr().err
        assert "invalid:" in err and "schema violation" in err

    def test_validate_rejects_v1_trace(self, tmp_path, capsys):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            json.dumps({
                "format": "repro-trace-v1", "seq": 0, "kind": "event",
                "name": "candidate.pruned",
                "attrs": {"reason": "capacity", "phase": "temporal"},
            }) + "\n"
        )
        assert main(["trace", str(path), "--validate"]) == 4
        err = capsys.readouterr().err
        assert (
            "invalid: record 0: format is 'repro-trace-v1' "
            "(expected 'repro-trace-v2')"
        ) in err

    def test_validate_reports_non_utf8_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(
            json.dumps({
                "format": TRACE_FORMAT, "seq": 0, "kind": "event",
                "name": "classify", "attrs": {},
            }).encode() + b"\n\xff\xfe not UTF-8\n"
        )
        assert main(["trace", str(path), "--validate"]) == 4
        err = capsys.readouterr().err
        assert f"invalid: {path}:2: non-UTF-8 line" in err

    def test_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 4
        assert "no readable trace records" in capsys.readouterr().err
