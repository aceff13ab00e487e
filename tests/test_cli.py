"""Tests for the command-line runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.live
import repro.parallel
from repro.cli import build_live_parser, build_parser, run_cli
from tests.test_faults import MALFORMED

#: The run flags both runners take, defined once in ``repro.cli``.
SHARED_RUN_FLAGS = (
    "--mempool", "--shards", "--rate", "--duration", "--warmup", "--seed",
    "--selector", "--view-timeout", "--faults", "--durability",
    "--checkpoint-interval", "--data-dir",
)


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
    """Two replicas silent for the whole run: a swap each at t=0."""
    code = run_cli([
        "--preset", "S-HS", "--n", "7",
        "--rate", "1000", "--duration", "1.0", "--warmup", "0.5",
        "--batch-bytes", "1024", "--faults",
        '[{"kind": "swap", "start": 0.0, "nodes": [5], "behavior": "silent"}, '
        '{"kind": "swap", "start": 0.0, "nodes": [6], "behavior": "silent"}]',
    ])
    assert code == 0


def test_shards_flag_on_an_unsharded_preset(capsys):
    """``--shards`` shards the mempool under S-HS, whose tuned default is
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
        '[{"kind": "delay", "start": 1.0, "end": 1.5, "base": 0.1, '
        '"jitter": 0.05}, '
        '{"kind": "bandwidth", "start": 1.0, "end": 1.5, "factor": 0.15}]',
    ])
    assert code == 0
    assert "delay" in capsys.readouterr().out  # its fault-window row


def test_malformed_fault_spec_exits_with_a_message():
    """Malformed ``--faults`` input is a one-line error, never a
    traceback, under both runners."""
    for spec in MALFORMED.values():
        for argv in (["--n", "4"], ["live", "-n", "4"]):
            with pytest.raises(SystemExit, match="bad --faults spec"):
                run_cli(argv + ["--faults", spec])
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--n", "4",
         "--faults", MALFORMED["bool-node"]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert "bad --faults spec" in done.stderr
    assert "Traceback" not in done.stderr


def test_replay_of_an_unreadable_artifact_exits_2(tmp_path, capsys):
    """An artifact of a retired format, or a path with no file, is a
    one-line reason on stderr and exit 2, never a traceback and never
    exit 1, which says the violation reproduced."""
    old = tmp_path / "fuzz-v3.json"
    old.write_text(json.dumps({
        "format": "repro-fuzz-artifact-v3",
        "config": {"fault": "silent", "fault_count": 1},
    }))
    for path in (old, tmp_path / "missing.json"):
        assert run_cli(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"replay: cannot read {path}: ")
        assert len(err.splitlines()) == 1
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "replay", str(old)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert "repro-fuzz-artifact-v3" in done.stderr
    assert "Traceback" not in done.stderr


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


def test_both_parsers_share_every_run_flag():
    """Same type, choices and help in ``repro`` and ``repro live``."""
    def actions(parser):
        return {
            flag: action
            for action in parser._actions for flag in action.option_strings
        }

    sim, live = actions(build_parser()), actions(build_live_parser())
    for flag in SHARED_RUN_FLAGS:
        assert (sim[flag].type, sim[flag].choices, sim[flag].help) == (
            live[flag].type, live[flag].choices, live[flag].help,
        ), flag


class _Stop(Exception):
    """Raised by a stand-in runner once it has seen the configs."""


def _configs_of(monkeypatch, argv):
    """The configs ``run_cli(argv)`` hands its runner, without running."""
    seen = []

    def capture(configs, **_):
        seen.extend(configs)
        raise _Stop

    def capture_live(live):
        seen.append(live.experiment)
        raise _Stop

    monkeypatch.setattr(repro.parallel, "sweep", capture)
    monkeypatch.setattr(repro.live, "run_live", capture_live)
    with pytest.raises(_Stop):
        run_cli(argv)
    return seen


@pytest.mark.parametrize("argv", [
    ["--preset", "S-HS", "--n", "8", "--shards", "2"],
    ["live", "-n", "8", "--shards", "2"],
], ids=["sweep", "live"])
def test_shards_imply_the_sharded_mempool_in_both_runners(monkeypatch, argv):
    [config] = _configs_of(monkeypatch, argv)
    assert config.protocol.mempool == "stratus"
    assert config.protocol.sharding.shards == 2
    assert not config.protocol.load_balancing


@pytest.mark.parametrize("argv", [
    ["--preset", "S-HS", "--n", "8", "--mempool", "narwhal", "--shards", "2"],
    ["live", "-n", "8", "--mempool", "native", "--shards", "2"],
], ids=["sweep", "live"])
def test_shards_under_another_named_mempool_exit(argv):
    with pytest.raises(SystemExit, match="--shards needs"):
        run_cli(argv)


@pytest.mark.parametrize("argv", [
    ["--preset", "S-SL", "--n", "16"],
    ["live", "--protocol", "streamlet"],
], ids=["sweep", "live"])
def test_view_timeout_sets_the_streamlet_epoch_in_both_runners(
    monkeypatch, argv
):
    [config] = _configs_of(monkeypatch, argv + ["--view-timeout", "0.3"])
    assert config.protocol.view_timeout == 0.3
    assert config.protocol.streamlet_epoch == 0.3
