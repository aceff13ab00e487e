"""Fixed-seed fuzz corpus: tier-1 regression over the protocol grid.

One (root_seed, index) pair per consensus x mempool cell, so every cell
runs exactly once with the invariant oracles armed. The pick is
mechanical, never chosen by verdict: a cell's pair is the first index
of the root-7 sweep that draws it, else the first of root 42's
(``test_corpus_is_the_first_pick``). A failure here is a regression in
a protocol engine, a mempool, the harness, or the oracles themselves —
the replay command for any failing entry is::

    python -m repro fuzz --seed <root> --start <index> --iterations 1

The whole corpus is budgeted to stay well under a minute; keep new
entries short (the fuzzer's duration_range already caps runs at 5s of
simulated time).
"""

import time

import pytest

from repro.config import ProtocolConfig
from repro.faults import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.verification import ScenarioFuzzer, run_scenario
from repro.verification.fuzzer import (
    FUZZ_CONSENSUS_KINDS, FUZZ_MEMPOOL_KINDS, QUICK_PROTOCOL,
)

#: (root_seed, scenario_index, consensus, mempool) — the last two are
#: asserted so a silent change to the derivation (which would quietly
#: re-point the corpus at different cells) fails loudly.
CORPUS = [
    (7, 0, "hotstuff", "native"),
    (7, 1, "streamlet", "stratus"),
    (7, 2, "twochain", "narwhal"),
    (7, 3, "hotstuff", "stratus"),
    (7, 4, "streamlet", "simple"),
    (7, 10, "twochain", "native"),
    (7, 14, "hotstuff", "simple"),
    (7, 16, "twochain", "gossip"),
    (7, 21, "streamlet", "narwhal"),
    (7, 23, "streamlet", "gossip"),
    (7, 25, "twochain", "stratus"),
    (7, 32, "hotstuff", "gossip"),
    (7, 34, "hotstuff", "narwhal"),
    (42, 12, "streamlet", "native"),
    (42, 17, "twochain", "simple"),
]

#: The roots the pick walks, in order, and the indices it looks at in
#: each: the documented sweep ``python -m repro fuzz --seed 7
#: --iterations 40``, then root 42 for the cells it never draws.
PICK_ROOTS = (7, 42)
PICK_SWEEP = 40

#: CI's fuzz smoke runs ``repro fuzz --seed 7 --iterations 17``: the
#: shortest root-7 prefix that draws every mempool (gossip first at 16).
SMOKE_ITERATIONS = 17

#: Per-scenario wall-clock budget, generous for slow CI machines.
SCENARIO_BUDGET_S = 30.0


def test_corpus_covers_full_grid():
    cells = {(consensus, mempool) for _, _, consensus, mempool in CORPUS}
    assert len(cells) == len(CORPUS)
    assert len(cells) == len(FUZZ_CONSENSUS_KINDS) * len(FUZZ_MEMPOOL_KINDS)


def test_corpus_is_the_first_pick():
    """Each cell's pair is the first index that draws it, whatever that
    case's verdict: a failing cell is reported, not swapped out."""
    picks = {}
    for root in PICK_ROOTS:
        fuzzer = ScenarioFuzzer(root)
        for index in range(PICK_SWEEP):
            protocol = fuzzer.scenario(index).protocol
            picks.setdefault(
                (protocol.consensus, protocol.mempool), (root, index)
            )
    assert sorted(
        (root, index, consensus, mempool)
        for (consensus, mempool), (root, index) in picks.items()
    ) == CORPUS


def test_smoke_prefix_draws_every_mempool():
    fuzzer = ScenarioFuzzer(7)
    drawn = {
        fuzzer.scenario(index).protocol.mempool
        for index in range(SMOKE_ITERATIONS)
    }
    assert drawn == set(FUZZ_MEMPOOL_KINDS)


@pytest.mark.parametrize(
    "root,index,consensus,mempool",
    CORPUS,
    ids=[f"{c}-{m}-r{r}i{i}" for r, i, c, m in CORPUS],
)
def test_corpus_scenario_clean(root, index, consensus, mempool):
    config = ScenarioFuzzer(root).scenario(index)
    protocol = config.protocol
    assert (protocol.consensus, protocol.mempool) == (consensus, mempool)
    started = time.monotonic()
    result = run_scenario(config)
    elapsed = time.monotonic() - started
    assert result.violations == [], "\n".join(map(str, result.violations))
    assert result.committed_tx > 0
    assert elapsed < SCENARIO_BUDGET_S


# -- sharded Stratus cell ----------------------------------------------------
#
# The fuzzer draws no shard layout (see FUZZ_MEMPOOL_KINDS): adding one
# would re-derive every recorded (seed, index) cell above. Two shards get
# a hand-rolled chaos cell instead — certificate-only ordering under
# crash + partition with the shard-aware oracles armed.

def test_sharded_stratus_hotstuff_chaos_cell():
    from repro.config import ProtocolConfig, ShardingConfig
    from repro.harness.config import ExperimentConfig
    from repro.harness.presets import chaos_schedule
    from repro.harness.runner import build_experiment
    from repro.verification import standard_suite

    protocol = ProtocolConfig(
        n=8, consensus="hotstuff", mempool="stratus",
        sharding=ShardingConfig(shards=2),
        batch_bytes=4 * 128, batch_timeout=0.05, view_timeout=0.5,
    )
    config = ExperimentConfig(
        protocol=protocol, rate_tps=400.0, duration=6.0, warmup=0.5,
        seed=11, label="sharded-chaos-crash-partition",
        faults=chaos_schedule("crash-partition", 8),
    )
    started = time.monotonic()
    result = build_experiment(config, standard_suite()).run()
    elapsed = time.monotonic() - started
    assert result.violations == []
    assert result.committed_tx > 0
    assert elapsed < SCENARIO_BUDGET_S


# -- durability cells --------------------------------------------------------
#
# The restart-under-chaos corpus: crash-restart preset with the durable
# executor attached, one cell per fsync policy. Unlike the grid corpus
# above these are not fuzzer-derived — the point is that a replica that
# loses its memory mid-run recovers from its own disk (checkpoint + WAL
# tail), not by replaying the whole protocol history, and the invariant
# oracles still see zero violations.

@pytest.mark.parametrize("fsync", ["always", "interval"])
def test_restart_under_chaos_recovers_from_disk(tmp_path, fsync):
    from repro.config import ProtocolConfig
    from repro.durability import DurabilityConfig
    from repro.harness.config import ExperimentConfig
    from repro.harness.presets import chaos_schedule
    from repro.harness.runner import build_experiment
    from repro.verification import standard_suite

    protocol = ProtocolConfig(
        n=4, consensus="hotstuff", mempool="stratus",
        batch_bytes=4 * 128, batch_timeout=0.05, view_timeout=0.5,
    )
    config = ExperimentConfig(
        protocol=protocol, rate_tps=400.0, duration=6.0, warmup=0.5,
        seed=7, label=f"durable-crash-restart-{fsync}",
        faults=chaos_schedule("crash-restart", 4),
        durability=DurabilityConfig(fsync=fsync, checkpoint_interval=4),
        data_dir=str(tmp_path),
    )
    started = time.monotonic()
    experiment = build_experiment(config, standard_suite())
    result = experiment.run()
    elapsed = time.monotonic() - started
    assert result.violations == []
    assert result.committed_tx > 0
    # Replica 3 (the preset's victim) restarted at t=4 s; its executor
    # must have been re-opened from disk, not rebuilt from genesis.
    victim = experiment.replicas[3].executor
    assert victim.recovery.source in ("checkpoint", "checkpoint+wal")
    assert victim.recovery.checkpoint_height > 0
    # And the hub carries the recovery record for reporting.
    report = experiment.metrics.recovery_report()
    assert [row["node"] for row in report] == [3]
    assert report[0]["source"] == victim.recovery.source
    assert elapsed < SCENARIO_BUDGET_S


# -- ROADMAP item 8, case (ii) -----------------------------------------------

def test_restarted_leader_fetches_the_block_its_quorum_certified():
    """fuzz[19] of root seed 7 (two-chain over simple, n=5) as the fuzzer
    drew it from four consensus engines, long the one failing case of
    the seed-7 sweep; spelled out since the pool was pinned to three.
    Replica 3, back from its crash, leads view 88 holding a new-view
    quorum whose best QC certifies a block it never received. It now
    fetches that block at once; when it did not, its proposal waited
    out the view, and the next commit after the loss window came 2.04 s
    later, against a 2.0 s bound (``liveness/stalled``). The
    ``propose-without-sync`` mutant removes the fetch, in a case that
    was fuzz[21] of root seed 210."""
    config = ExperimentConfig(
        protocol=ProtocolConfig(
            n=5, mempool="simple", consensus="twochain", **QUICK_PROTOCOL,
        ),
        rate_tps=500.2, duration=3.632, warmup=0.5, seed=841634352989878877,
        faults=FaultSchedule.from_spec([
            {"kind": "loss", "start": 0.446, "end": 0.726, "rate": 0.276,
             "channel": "consensus"},
            {"kind": "partition", "start": 1.135, "end": 1.54,
             "groups": [[1, 2, 4], [0, 3]]},
            {"kind": "delay", "start": 1.308, "end": 1.573, "base": 0.0551,
             "jitter": 0.0129},
            {"kind": "bandwidth", "start": 1.308, "end": 1.573,
             "factor": 0.965},
            {"kind": "crash", "start": 1.403, "end": 1.632, "nodes": [3]},
        ]),
    )
    result = run_scenario(config)
    assert result.violations == [], "\n".join(map(str, result.violations))
    assert result.committed_tx > 0
