"""Intentionally broken protocol variants — the oracles' self-test.

Deterministic simulation testing is only trustworthy if the oracles
demonstrably *catch* the bug classes they claim to cover. Each mutant
here seeds one classic BFT/SMP bug into an otherwise standard stack, and
the registry pairs it with a canned run under which the expected
oracle must fire. ``tests/test_mutations.py`` asserts exactly that, so a
refactor that silently blinds an oracle breaks the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import ProtocolConfig, ShardingConfig
from repro.consensus.hotstuff import HotStuff
from repro.consensus.twochain import TwoChainHotStuff
from repro.faults.schedule import FaultSchedule
from repro.harness.config import ExperimentConfig
from repro.harness.result import RunResult
from repro.mempool.simple_smp import SimpleSharedMempool
from repro.mempool.stratus import StratusMempool
from repro.types.microblock import make_microblock_id
from repro.types.proposal import Payload, PayloadEntry, Proposal
from repro.verification.fuzzer import (
    QUICK_PROTOCOL, run_scenario,
)

#: Fabricated microblock counters start here so they can never collide
#: with ids the real batcher hands out during a short run.
_FABRICATED_BASE = 1 << 20


class EagerCommitHotStuff(HotStuff):
    """Commits the certified block itself (a bare 1-chain) instead of
    the three-chain rule, and so never locks.

    A certified block that later loses a view-change race is abandoned by
    the canonical chain but was already committed here, so a replica cut
    off right after certification commits a block the healed majority
    replaces — conflicting commits the safety oracle must catch.
    """

    name = "hotstuff-eager"
    commit_links = 0


class ProposeWithoutSync(TwoChainHotStuff):
    """Defers a proposal on a certified block it lacks, and asks nobody:
    a leader back from a crash waits out the view it leads."""

    name = "twochain-no-sync"

    def _sync_certified(self, qc) -> None:
        """BUG under test: the deferred proposal waits for nothing."""


class UngatedSimpleMempool(SimpleSharedMempool):
    """Votes without holding the proposal's microblock bodies.

    Skipping the fetch-before-vote gate is the moral equivalent of
    Stratus skipping proof verification: commits no longer imply the
    data is anywhere retrievable, which the availability oracle (armed
    strictly) must flag under dissemination loss.
    """

    name = "simple-ungated"

    def prepare(self, proposal: Proposal, on_ready) -> None:
        on_ready()


class ReplayingMempool(SimpleSharedMempool):
    """Re-proposes an already committed microblock (double commit)."""

    name = "simple-replaying"

    def make_payload(self) -> Payload:
        payload = super().make_payload()
        if self._committed:
            replayed = min(self._committed)
            return Payload(
                entries=payload.entries + (PayloadEntry(mb_id=replayed),),
                embedded=payload.embedded,
            )
        return payload


class FabricatingMempool(UngatedSimpleMempool):
    """Proposes microblock ids no client batch ever produced.

    Builds on the ungated variant: a gated mempool would deadlock
    waiting for the nonexistent body instead of committing it, and the
    fabrication would never reach the ledger oracle.
    """

    name = "simple-fabricating"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fabricated = 0

    def make_payload(self) -> Payload:
        payload = super().make_payload()
        fake = make_microblock_id(
            self.node_id, _FABRICATED_BASE + self._fabricated
        )
        self._fabricated += 1
        return Payload(
            entries=payload.entries + (PayloadEntry(mb_id=fake),),
            embedded=payload.embedded,
        )


class SilentPrepareMempool(SimpleSharedMempool):
    """Never reports readiness, so no replica ever votes."""

    name = "simple-mute"

    def prepare(self, proposal: Proposal, on_ready) -> None:
        """BUG under test: ``on_ready`` is never invoked."""


class ShortQuorumScope(StratusMempool):
    """Stratus with a PAB scope one ack short.

    The scope's quorum is what both minting and verifying read, so the
    whole network agrees on the weakened rule (ROADMAP's "quorum f_s
    instead of f_s + 1") and nothing but the availability oracle can
    notice: a proof may now form, and be voted on, while fewer honest
    stores hold the body than the real quorum promises.
    """

    def _scope(self):
        scope = super()._scope()
        scope.quorum -= 1
        return scope


class ForgetReferenced(StratusMempool):
    """Stratus whose ``on_proposal`` marks nothing.

    Ids then count as referenced only where a replica built the payload
    itself. A leader that enters its view before the previous proposal
    lands — the votes outran its copy — still has that proposal's ids
    in avaQue and proposes them a second time, on top of the block that
    already carries them, which the ledger oracle's ancestor rule must
    flag.
    """

    def on_proposal(self, proposal: Proposal) -> None:
        pass


@dataclass(frozen=True)
class Mutant:
    """One seeded bug plus the run under which it must be caught."""

    name: str
    description: str
    expected_oracle: str
    config: ExperimentConfig
    mempool_cls: Optional[type] = None
    consensus_cls: Optional[type] = None
    strict_availability: bool = False


def _config(
    faults: Optional[list] = None,
    seed: int = 1,
    duration: float = 3.0,
    rate_tps: float = 400.0,
    **protocol,
) -> ExperimentConfig:
    """A mutant's run: a HotStuff/simple fuzz-style case at n=4 unless
    ``protocol`` sets other :class:`ProtocolConfig` fields."""
    fields = {"n": 4, "consensus": "hotstuff", "mempool": "simple"}
    fields.update(QUICK_PROTOCOL, **protocol)
    return ExperimentConfig(
        protocol=ProtocolConfig(**fields),
        rate_tps=rate_tps,
        duration=duration,
        warmup=0.5,
        seed=seed,
        faults=FaultSchedule.from_spec(faults) if faults else None,
    )


#: The Stratus mutants' cells: a suffix and its protocol fields. The
#: sharded cell runs at n=7, whose two shards have different members
#: ((0, 2, 4, 6) and (0, 1, 3, 5)); at n=4 both shards hold every
#: replica and the run is the unsharded one.
STRATUS_CELLS: dict[str, dict] = {
    "stratus": {},
    "shards2": {"n": 7, "sharding": ShardingConfig(shards=2)},
}


MUTANTS: dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            name="eager-commit",
            description=(
                "HotStuff commits on a 1-chain; a replica partitioned "
                "away right after certifying a block commits it while "
                "the majority abandons it for a competing chain"
            ),
            expected_oracle="safety",
            consensus_cls=EagerCommitHotStuff,
            config=_config(
                # Seed re-tuned when the network moved to per-sender
                # jitter streams (the fork window is schedule-sensitive);
                # the partition opens just after replica 3, leading view
                # 101, proposes.
                seed=15,
                mempool="native",
                n=7,
                duration=5.5,
                rate_tps=300.0,
                faults=[
                    {"kind": "partition", "start": 1.191, "end": 3.48,
                     "groups": [[3], [0, 1, 2, 4, 5, 6]]},
                ],
            ),
        ),
        Mutant(
            name="skip-proof-gate",
            description=(
                "mempool votes without bodies (no proof/data gate); "
                "commits stop implying retrievability under loss"
            ),
            expected_oracle="availability",
            mempool_cls=UngatedSimpleMempool,
            strict_availability=True,
            config=_config(
                n=7,
                duration=4.0,
                faults=[
                    {"kind": "loss", "start": 0.6, "end": 2.1,
                     "rate": 0.8, "channel": "data"},
                ],
            ),
        ),
        # One mempool, so each Stratus bug runs unsharded and again at
        # two shards under the same schedule.
        *(
            Mutant(
                name=f"short-quorum-{cell}",
                description=(
                    "PAB scope mints and accepts proofs one ack short of "
                    "its quorum; under body loss a microblock commits "
                    "while held by fewer honest stores than promised"
                ),
                expected_oracle="availability",
                mempool_cls=ShortQuorumScope,
                config=_config(
                    mempool="stratus",
                    duration=4.0,
                    faults=[
                        {"kind": "loss", "start": 0.6, "end": 2.1,
                         "rate": 0.8, "channel": "data"},
                    ],
                    **dict(fields, n=7),
                ),
            )
            for cell, fields in STRATUS_CELLS.items()
        ),
        *(
            Mutant(
                name=f"forget-referenced-{cell}",
                description=(
                    "on_proposal marks nothing: a leader proposes ids the "
                    "block it builds on already carries, and they commit "
                    "twice on one chain"
                ),
                expected_oracle="smp-integrity",
                mempool_cls=ForgetReferenced,
                config=_config(mempool="stratus", **fields),
            )
            for cell, fields in STRATUS_CELLS.items()
        ),
        Mutant(
            name="propose-without-sync",
            description="a restarted leader defers on a certified block it "
            "lacks and asks nobody for it; the view it leads times out",
            expected_oracle="liveness",
            consensus_cls=ProposeWithoutSync,
            # Replica 0 leads view 60 after its restart, holding a
            # new-view quorum whose best QC certifies a block it missed
            # (fuzz[21] of root seed 210 before the consensus pool was
            # pinned to three engines).
            config=_config(
                consensus="twochain", mempool="gossip",
                seed=6006115235551441403, duration=3.512, rate_tps=177.6,
                faults=[
                    {"kind": "crash", "start": 0.925, "end": 1.161,
                     "nodes": [0]},
                    {"kind": "loss", "start": 0.925, "end": 1.246,
                     "rate": 0.203},
                ],
            ),
        ),
        Mutant(
            name="replay-payload",
            description="leader re-proposes an already committed microblock",
            expected_oracle="smp-integrity",
            mempool_cls=ReplayingMempool,
            config=_config(),
        ),
        Mutant(
            name="fabricate-payload",
            description="leader proposes microblock ids no client produced",
            expected_oracle="smp-integrity",
            mempool_cls=FabricatingMempool,
            config=_config(),
        ),
        Mutant(
            name="mute-votes",
            description="prepare never signals readiness; nothing commits",
            expected_oracle="liveness",
            mempool_cls=SilentPrepareMempool,
            config=_config(duration=2.5),
        ),
    )
}


def run_mutant(
    name: str, config: Optional[ExperimentConfig] = None
) -> RunResult:
    """Run a registered mutant under its (or a custom) config."""
    mutant = MUTANTS[name]
    return run_scenario(
        config if config is not None else mutant.config,
        strict_availability=mutant.strict_availability,
        mempool_cls=mutant.mempool_cls,
        consensus_cls=mutant.consensus_cls,
    )


def mutant_caught(mutant: Mutant, result: RunResult) -> bool:
    """Did the oracle the mutant targets actually fire?"""
    return any(
        violation.oracle == mutant.expected_oracle
        for violation in result.violations
    )
