"""CLI subcommands."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_world_command(capsys):
    assert main(["world", "--scale", "0.05", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "speed test servers" in out
    assert "story networks" in out


def test_cost_command(capsys):
    assert main(["cost", "--servers", "450", "--days", "30"]) == 0
    out = capsys.readouterr().out
    assert "total" in out
    # The paper's "over USD 6k per month" scale.
    total_line = [l for l in out.splitlines() if l.startswith("total")][0]
    total = float(total_line.split()[-1].replace(",", ""))
    assert total > 6000


def test_cost_standard_tier_cheaper(capsys):
    main(["cost", "--servers", "100", "--days", "10",
          "--tier", "premium"])
    prem = capsys.readouterr().out
    main(["cost", "--servers", "100", "--days", "10",
          "--tier", "standard"])
    std = capsys.readouterr().out

    def total(text):
        line = [l for l in text.splitlines() if l.startswith("total")][0]
        return float(line.split()[-1].replace(",", ""))

    assert total(std) < total(prem)


def test_quickloop_command(capsys):
    assert main(["quickloop", "--scale", "0.05", "--days", "2",
                 "--region", "us-west1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tests completed" in out
    assert "congested s-days" in out


def test_campaign_command_with_faults(capsys, tmp_path):
    out_dir = tmp_path / "export"
    assert main(["campaign", "--scale", "0.05", "--days", "1",
                 "--seed", "3", "--faults", "heavy", "--servers", "6",
                 "--export", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "faults=heavy" in out
    assert "tests completed" in out
    assert "dataset digest" in out
    assert "injected" in out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "lost.csv").exists()


def test_campaign_command_faults_off_digest_stable(capsys):
    args = ["campaign", "--scale", "0.05", "--days", "1",
            "--seed", "3", "--servers", "6"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    def digest(text):
        line = [l for l in text.splitlines()
                if l.startswith("dataset digest")][0]
        return line.split()[-1]

    assert digest(first) == digest(second)
    assert "injected" not in first  # no injector without --faults


def test_campaign_command_trace_and_metrics(capsys, tmp_path):
    import json

    trace_path = tmp_path / "trace.jsonl"
    assert main(["campaign", "--scale", "0.05", "--days", "1",
                 "--seed", "3", "--servers", "6",
                 "--trace", str(trace_path), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "engine events" in out
    assert "test-completed" in out
    assert "billed vm_hours" in out
    assert f"-> {trace_path}" in out
    lines = trace_path.read_text().splitlines()
    assert lines  # the whole campaign is on disk as JSON events
    kinds = {json.loads(line)["kind"] for line in lines}
    assert {"hour-started", "test-completed",
            "billing-charged", "campaign-finished"} <= kinds


def test_lint_command_clean_tree(capsys):
    import pathlib

    import repro

    src = pathlib.Path(repro.__file__).parent
    assert main(["lint", str(src)]) == 0
    assert "repro.lint: clean" in capsys.readouterr().out


def test_lint_command_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR002", "RPR003", "RPR004",
                 "RPR005", "RPR006", "RPR007", "RPR008"):
        assert code in out


def test_lint_command_flags_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nts = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out


def test_lint_command_select(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nts = time.time()\nraise ValueError('x')\n")
    assert main(["lint", str(bad), "--select", "RPR003"]) == 1
    out = capsys.readouterr().out
    assert "RPR003" in out
    assert "RPR001" not in out


@pytest.mark.parametrize("argv", [
    ["experiment", "fig2", "--days", "0"],
    ["quickloop", "--days", "-1"],
    ["campaign", "--days", "0"],
    ["campaign", "--shards", "0"],
    ["serve", "--days", "0"],
    ["serve", "--shards", "-2"],
    ["daemon", "--days", "0"],
    ["daemon", "--shards", "0"],
    ["alerts", "--days", "0"],
    ["obs", "--days", "0"],
    ["cost", "--days", "0"],
    ["campaign", "--days", "two"],
])
def test_non_positive_days_and_shards_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--days" in err or "--shards" in err


def test_repro_error_is_one_stderr_line_and_exit_2(capsys):
    assert main(["campaign", "--region", "nowhere", "--scale", "0.05",
                 "--days", "1"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == ["repro campaign: error: unknown gcp region 'nowhere'"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["campaign", "--servers", "0"], "--servers"),
    (["serve", "--servers", "-1"], "--servers"),
    (["daemon", "--servers", "0"], "--servers"),
    (["alerts", "--servers", "0"], "--servers"),
    (["obs", "--servers", "0"], "--servers"),
    (["cost", "--servers", "0"], "--servers"),
    (["daemon", "--runs", "0"], "--runs"),
    (["serve", "--consumers", "0"], "--consumers"),
    (["obs", "--capacity", "0"], "--capacity"),
])
def test_non_positive_counts_rejected_at_parse_time(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def _one_error_line(capsys, command):
    __tracebackhide__ = True
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"repro {command}: error: ")
    assert "Traceback" not in captured.err
    return lines[0]


def test_daemon_state_in_missing_directory_fails_fast(tmp_path, capsys):
    state = tmp_path / "missing" / "state.json"
    assert main(["daemon", "--state", str(state), "--scale", "0.05"]) == 2
    assert "does not exist" in _one_error_line(capsys, "daemon")


def test_daemon_unreadable_state_is_one_line(tmp_path, capsys):
    """A --state path that exists but cannot be read (a directory)."""
    assert main(["daemon", "--state", str(tmp_path),
                 "--scale", "0.05"]) == 2
    assert str(tmp_path) in _one_error_line(capsys, "daemon")


@pytest.mark.parametrize("command", ["daemon", "alerts", "campaign"])
def test_missing_rules_file_is_one_line(tmp_path, capsys, command):
    rules = tmp_path / "nope.json"
    assert main([command, "--rules", str(rules), "--scale", "0.05",
                 "--days", "1"]) == 2
    assert "nope.json" in _one_error_line(capsys, command)


def test_unwritable_export_is_one_line(tmp_path, capsys):
    """--export under a regular file: the OSError from mkdir."""
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    assert main(["campaign", "--export", str(blocker / "out"),
                 "--scale", "0.05", "--days", "1", "--servers", "2"]) == 2
    assert str(blocker) in _one_error_line(capsys, "campaign")
