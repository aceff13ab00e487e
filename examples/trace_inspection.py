#!/usr/bin/env python3
"""Follow one microblock through a run on the replicas' observer tap.

Every replica has one protocol-event tap, ``Replica.observer``; the
invariant oracles subscribe to it, and so can your own code. This
example hangs a small :class:`~repro.verification.Oracle` subclass on a
7-replica Stratus deployment, runs a burst of load, and prints the life
of the first microblock cut: who cut it and when, the block whose
payload carried it, and when each replica committed and filled that
block. Beside it go the run-wide counts the metrics hub keeps. Useful
as a debugging recipe when developing new mempools or engines against
this substrate.

Run:  python examples/trace_inspection.py
"""

from repro import ExperimentConfig, build_experiment, tuned_protocol
from repro.verification import Oracle, OracleSuite


class LifeRecorder(Oracle):
    """What the observer tap reports about microblocks and blocks."""

    name = "life-recorder"

    def on_attach(self) -> None:
        self.first_cut = None  # (replica id, microblock) of the first cut
        self.blocks = {}  # block id -> proposal, at its first commit
        self.commits = {}  # block id -> {replica id: local commit time}
        self.fills = {}  # block id -> {replica id: filled_at}

    def on_microblock_created(self, replica, microblock) -> None:
        if self.first_cut is None:
            self.first_cut = (replica.node_id, microblock)

    def on_local_commit(self, replica, proposal) -> None:
        block_id = proposal.block_id
        self.blocks.setdefault(block_id, proposal)
        self.commits.setdefault(block_id, {})[replica.node_id] = self.suite.now

    def on_block_resolved(self, replica, block) -> None:
        fills = self.fills.setdefault(block.block_id, {})
        fills[replica.node_id] = block.filled_at


def main() -> None:
    protocol = tuned_protocol(
        "S-HS", n=7, topology_kind="lan",
        batch_bytes=8 * 1024, batch_timeout=0.05,
    )
    recorder = LifeRecorder()
    experiment = build_experiment(ExperimentConfig(
        protocol=protocol, rate_tps=5_000, duration=2.0, warmup=0.5,
    ), OracleSuite([recorder]))
    experiment.run()

    origin, microblock = recorder.first_cut
    print(f"microblock {microblock.id:#x}: cut by r{origin} "
          f"at t={microblock.created_at:.3f} s ({microblock.tx_count} txs)")
    block_id, proposal = next(
        (block_id, proposal) for block_id, proposal in recorder.blocks.items()
        if microblock.id in proposal.payload.microblock_ids
    )
    print(f"carried by block {block_id:#x}: height {proposal.height}, "
          f"proposed by r{proposal.proposer} at t={proposal.created_at:.3f} s "
          f"with {len(proposal.payload.microblock_ids)} microblocks")
    fills = recorder.fills.get(block_id, {})
    print("  replica  committed  filled")
    for node, committed in sorted(recorder.commits[block_id].items()):
        filled = f"{fills[node]:.3f} s" if node in fills else "-"
        print(f"  r{node:<6d}  {committed:.3f} s    {filled}")

    metrics = experiment.metrics
    stable = metrics.stable_times
    print("\nrun-wide counts (metrics hub):")
    print(f"  microblocks stable  {len(stable):6d} "
          f"(p50 {stable.percentile(50) * 1000:.1f} ms)")
    print(f"  view changes        {metrics.view_change_count:6d}")
    print(f"  fetches             {metrics.fetch_count:6d}")
    print(f"  DLB forwards        {metrics.forwarded_microblocks:6d}")


if __name__ == "__main__":
    main()
