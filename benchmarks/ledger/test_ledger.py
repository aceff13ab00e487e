"""Smoke test of the ledger runner (not part of tier-1's ``testpaths``).

    python -m pytest benchmarks/ledger/test_ledger.py -q

Drives ``run.py --smoke`` (a tenth of every horizon, one rep, the live
cluster at its one-second floor) and checks what the ledger promises:
every declared metric is reported with its unit, the passes of one run
commit the same sequence, the exact metrics repeat bit for bit, the
traced wall is fully attributed, and the control workload never enters
the protocol layers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads(
    (LEDGER_DIR.parents[1] / "BENCHMARK.json").read_text()
)
SIM_WORKLOADS = (
    "shs-lan-16", "shs-lan-128", "sshs-lan-64x4",
    "shs-wan-skew-crash-16", "disseminate-128",
)
#: Metrics that are counts or simulated-clock results on a sim workload.
EXACT = (
    "goodput_ops_per_s", "latency_p50_ms", "completed_share",
    "unique_commit_share", "events_per_op", "py_calls_per_op",
)
WINDOWED = ("goodput_ops_per_s", "latency_p50_ms")
SEAM_SELF_TIMES = (
    "sim.network.call_self_s", "sim.fabric.self_s",
    "mempool.on_message_self_s", "mempool.ingest_self_s",
    "mempool.make_payload_self_s", "mempool.verify_payload_self_s",
    "mempool.on_commit_self_s", "consensus.on_message_self_s",
    "metrics.record_commit_s", "verification.tap_s",
)


def run_smoke(out: Path, *workloads: str, against: Path | None = None) -> dict:
    command = [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke",
               "--out", str(out)]
    for name in workloads:
        command += ["--workload", name]
    if against is not None:
        command += ["--against", str(against)]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("ledger") / "smoke.json"


@pytest.fixture(scope="module")
def ledger(ledger_path) -> dict:
    return run_smoke(ledger_path)


def test_envelope_and_every_metric(ledger):
    for key in ("git_sha", "git_dirty", "python", "platform", "nproc",
                "seed", "reps", "sim.engine.empty_events_per_s"):
        assert key in ledger
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert ledger["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(ledger["workloads"]) == {
        workload["name"] for workload in CONTRACT["workloads"]
    }
    for name, entry in ledger["workloads"].items():
        for run in entry["runs"]:
            assert run["correct"] and not run["failed"], run["problems"]
        for metric in CONTRACT["end_to_end"]:
            # A tenth of the horizon can leave the measurement window
            # without a commit; the rest is never zero.
            if metric["name"] not in WINDOWED:
                assert entry["end_to_end"][metric["name"]]["median"] > 0
        assert set(entry["per_layer"]) <= {
            metric["name"] for metric in CONTRACT["per_layer"]
        }
        assert entry["per_layer"]["sim.engine.empty_events_per_s"] > 0


def test_single_run_prints_the_contract_result():
    completed = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--workload",
         "wal-apply-replay", "--seed", "3", "--seconds", "0.5",
         "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}


def test_passes_commit_the_same_sequence(ledger):
    for name in SIM_WORKLOADS:
        layers = ledger["workloads"][name]["runs"][-1]["detail"]
        if "fingerprints" in layers:
            assert len(layers["fingerprints"]) == 1
            continue
        hashes = layers["commit_hashes"]
        assert hashes["timed"] == [hashes["profile"]] == [hashes["traced"]]
        end_to_end = ledger["workloads"][name]["runs"][0]["detail"]
        assert end_to_end["commit_hash"] == hashes["profile"]


def test_tapped_call_count_equals_untapped(ledger):
    """The end-to-end pass carries the commit tap under the profiler; the
    traced run's profile pass carries nothing. Same total, to the call."""
    for name in SIM_WORKLOADS:
        entry = ledger["workloads"][name]
        assert (
            entry["end_to_end"]["py_calls_per_op"]["raw"]
            == [entry["runs"][-1]["detail"]["py_calls_per_op"]]
        )


def test_unique_commits_are_conserved(ledger):
    for name in SIM_WORKLOADS[:4]:
        run = ledger["workloads"][name]["runs"][0]
        detail = run["detail"]
        assert 0 < detail["unique_tx"] <= run["attempted"]
        assert detail["unique_tx"] <= detail["hub_tx"]


def test_traced_wall_is_fully_attributed(ledger):
    for name in SIM_WORKLOADS:
        layers = ledger["workloads"][name]["per_layer"]
        traced_wall = layers["trace.overhead_ratio"] * layers["host.wall_s"]
        attributed = sum(layers.get(metric, 0.0) for metric in SEAM_SELF_TIMES)
        assert attributed == pytest.approx(traced_wall, rel=0.02)


def test_control_bypasses_the_protocol_layers(ledger):
    layers = ledger["workloads"]["disseminate-128"]["per_layer"]
    for metric in ("mempool.on_message_calls", "consensus.on_message_calls",
                   "mempool.py_calls", "consensus.py_calls",
                   "metrics.record_commit_calls"):
        assert layers[metric] == 0  # measured, and zero
    assert layers["sim.network.calls"] > 0
    # A layer the workload does not have is left out, not reported as 0.
    assert "live.network.pair_frames_per_s" not in layers
    assert "dup_commit_share" not in layers
    assert ledger["workloads"]["shs-lan-16"]["per_layer"]["dup_commit_share"] == 0


def test_exact_metrics_repeat_bit_for_bit(ledger, ledger_path, tmp_path):
    # --against holds the second run to the first by the ledger's own
    # bounds and would make the runner exit non-zero on a regression.
    again = run_smoke(tmp_path / "again.json", "shs-lan-16", "disseminate-128",
                      against=ledger_path)
    for name in ("shs-lan-16", "disseminate-128"):
        for metric in EXACT:
            first = ledger["workloads"][name]["end_to_end"][metric]["raw"]
            second = again["workloads"][name]["end_to_end"][metric]["raw"]
            assert first == second, (name, metric)
