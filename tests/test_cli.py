"""Tests for the command-line runner."""

import pytest

from repro.cli import build_parser, run_cli


def test_defaults_parse():
    args = build_parser().parse_args([])
    assert args.preset == ["S-HS"]
    assert args.n == [16]
    assert args.topology == "lan"


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--preset", "X-HS"])


def test_single_run_prints_table(capsys):
    code = run_cli([
        "--preset", "S-HS", "--n", "8",
        "--rate", "2000", "--duration", "1.5", "--warmup", "0.5",
        "--batch-bytes", "1024",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "S-HS" in out
    assert "tput (tx/s)" in out


def test_sweep_runs_all_combinations(capsys):
    code = run_cli([
        "--preset", "S-HS", "SMP-HS", "--n", "4", "8",
        "--rate", "1000", "--duration", "1.0", "--warmup", "0.5",
        "--batch-bytes", "1024",
    ])
    assert code == 0
    out = capsys.readouterr().out
    # 2 presets x 2 sizes = 4 result rows.
    assert out.count("S-HS") >= 2
    assert out.count("SMP-HS") >= 2


def test_timeline_flag(capsys):
    code = run_cli([
        "--preset", "S-HS", "--n", "4",
        "--rate", "1000", "--duration", "1.0", "--warmup", "0.5",
        "--batch-bytes", "1024", "--timeline",
    ])
    assert code == 0
    assert "timeline" in capsys.readouterr().out


def test_fault_arguments(capsys):
    code = run_cli([
        "--preset", "S-HS", "--n", "7",
        "--rate", "1000", "--duration", "1.0", "--warmup", "0.5",
        "--batch-bytes", "1024",
        "--fault", "silent", "--fault-count", "2",
    ])
    assert code == 0


def test_shards_flag_on_an_unsharded_preset(capsys):
    """``--shards`` swaps the mempool under S-HS, whose tuned default is
    DLB on; the run must still construct (and commit)."""
    code = run_cli([
        "--preset", "S-HS", "--shards", "2", "--n", "8",
        "--rate", "1000", "--duration", "1.0", "--warmup", "0.5",
        "--batch-bytes", "1024",
    ])
    assert code == 0
    assert "S-HS" in capsys.readouterr().out


def test_disturbance_window(capsys):
    code = run_cli([
        "--preset", "S-HS", "--n", "4", "--topology", "wan",
        "--rate", "1000", "--duration", "2.0", "--warmup", "0.5",
        "--batch-bytes", "1024", "--faults",
        '[{"event": "delay", "at": 1.0, "duration": 0.5, "base": 0.1, '
        '"jitter": 0.05, "bandwidth_factor": 0.15}]',
    ])
    assert code == 0
    assert "delay" in capsys.readouterr().out  # its fault-window row


def test_profile_flag_prints_hot_functions(capsys):
    code = run_cli([
        "--preset", "S-HS", "--n", "4",
        "--rate", "500", "--duration", "0.5", "--warmup", "0.2",
        "--batch-bytes", "1024",
        "--profile", "--profile-top", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tput (tx/s)" in out  # the results table still prints
    assert "cProfile" in out
    assert "tottime" in out
