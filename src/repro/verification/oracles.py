"""Invariant oracles over deterministic simulation runs.

Each oracle encodes one claim the paper makes about the protocols under
test and checks it against *every* honest replica's observed execution:

* :class:`SafetyOracle` — BFT agreement and prefix-consistent chains.
* :class:`AvailabilityOracle` — PAB proofs (Section IV-A) and Narwhal
  certificates: what a committed block references is retrievable.
* :class:`LedgerOracle` — SMP integrity (Section III): committed content
  is exactly client content, nothing fabricated or committed twice.
* :class:`ConservationOracle` — what a correct replica cut or holds a
  proof for ends the run committed, proposed, proposable or in a push.
* :class:`LivenessOracle` — commits resume within a bound after each
  injected fault window heals (Section VII).

Oracles record :class:`Violation` objects on an :class:`OracleSuite`
instead of raising, so one run surfaces every broken invariant and the
fuzzer can attach the full list to its seed artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.config import decode_fields, encode_fields

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import RunningExperiment
    from repro.replica.node import Replica
    from repro.types.microblock import MicroBlock
    from repro.types.proposal import Block, Proposal


def _shard_map_for(protocol) -> Optional["object"]:
    """The run's :class:`~repro.sharding.ShardMap` (one shard when
    unsharded) for a Stratus run, else ``None``."""
    if protocol.mempool != "stratus":
        return None
    from repro.sharding import ShardMap

    return ShardMap.of(protocol)


@dataclass
class Violation:
    """One observed invariant breach, with enough context to debug it."""

    oracle: str
    kind: str
    time: float
    message: str
    node: Optional[int] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return decode_fields(cls, data)

    def __str__(self) -> str:
        where = f" (replica {self.node})" if self.node is not None else ""
        return (
            f"[{self.oracle}/{self.kind}] t={self.time:.3f}{where}: "
            f"{self.message}"
        )


def honest_ids(config: "ExperimentConfig") -> frozenset[int]:
    """Replicas whose observations the oracles trust.

    Any replica a ``swap`` window turns non-honest, at t=0 or mid-run, is
    excluded for the whole run; crashed-and-restarted replicas stay
    honest (crash-recovery model).
    """
    windows = config.faults.windows if config.faults is not None else ()
    suspect = {
        window.nodes[0] for window in windows
        if window.kind == "swap" and window.behavior != "honest"
    }
    return frozenset(range(config.protocol.n)) - suspect


class Oracle:
    """Base oracle: bound to a suite, observing one experiment."""

    name = "abstract"

    def __init__(self) -> None:
        self.suite: Optional["OracleSuite"] = None

    def bind(self, suite: "OracleSuite") -> None:
        self.suite = suite

    @property
    def experiment(self) -> "RunningExperiment":
        return self.suite.experiment

    @property
    def config(self) -> "ExperimentConfig":
        return self.suite.experiment.config

    def report(
        self,
        kind: str,
        message: str,
        node: Optional[int] = None,
        **details,
    ) -> None:
        self.suite.record(Violation(
            oracle=self.name,
            kind=kind,
            time=self.suite.now,
            message=message,
            node=node,
            details=details,
        ))

    # -- hooks (all optional) ----------------------------------------------

    def on_attach(self) -> None:
        """The suite was attached to an experiment; reset state."""

    def on_local_commit(
        self, replica: "Replica", proposal: "Proposal"
    ) -> None:
        """An honest replica's consensus engine committed ``proposal``."""

    def on_microblock_created(
        self, replica: "Replica", microblock: "MicroBlock"
    ) -> None:
        """A replica, honest or not, batched a new microblock."""

    def on_block_resolved(self, replica: "Replica", block: "Block") -> None:
        """A committed block became full at an honest replica."""

    def finalize(self) -> None:
        """The run ended; check end-of-run invariants."""


class OracleSuite:
    """Fan-out observer installed on every replica of one experiment."""

    def __init__(self, oracles) -> None:
        self.oracles = list(oracles)
        self.violations: list[Violation] = []
        self.experiment: Optional["RunningExperiment"] = None
        self._honest: frozenset[int] = frozenset()

    @property
    def now(self) -> float:
        return self.experiment.sim.now if self.experiment is not None else 0.0

    def attach(self, experiment: "RunningExperiment") -> "OracleSuite":
        """Install this suite as every replica's observer."""
        self.experiment = experiment
        self._honest = honest_ids(experiment.config)
        for replica in experiment.replicas:
            replica.observer = self
        for oracle in self.oracles:
            oracle.bind(self)
            oracle.on_attach()
        return self

    def honest_replicas(self) -> list["Replica"]:
        return [
            replica for replica in self.experiment.replicas
            if replica.node_id in self._honest
        ]

    def record(self, violation: Violation) -> None:
        self.violations.append(violation)

    # -- replica observer interface ----------------------------------------

    def on_local_commit(
        self, replica: "Replica", proposal: "Proposal"
    ) -> None:
        if replica.node_id not in self._honest:
            return
        for oracle in self.oracles:
            oracle.on_local_commit(replica, proposal)

    def on_microblock_created(
        self, replica: "Replica", microblock: "MicroBlock"
    ) -> None:
        # Not filtered by honesty: a creation record is client content
        # leaving a batcher, whoever hosts it. A censoring or lying
        # sender's microblocks are genuine and do commit; dropping their
        # records made every one of them read as ``fabricated``.
        for oracle in self.oracles:
            oracle.on_microblock_created(replica, microblock)

    def on_block_resolved(self, replica: "Replica", block: "Block") -> None:
        if replica.node_id not in self._honest:
            return
        for oracle in self.oracles:
            oracle.on_block_resolved(replica, block)

    def finalize(self) -> list[Violation]:
        for oracle in self.oracles:
            oracle.finalize()
        return self.violations


class SafetyOracle(Oracle):
    """Agreement and prefix consistency of honest committed chains:
    every honest replica commits one chain, heights 1 to its top with
    no hole, and all of them agree height by height."""

    name = "safety"

    def on_attach(self) -> None:
        # height -> (block_id, first committing honest replica)
        self._global: dict[int, tuple[int, int]] = {}
        self._height_of: dict[int, int] = {}
        # replica -> height -> block_id
        self._chains: dict[int, dict[int, int]] = {}
        self._reported: set[tuple] = set()

    def _report_once(self, key: tuple, kind: str, message: str,
                     node: Optional[int], **details) -> None:
        if key in self._reported:
            return
        self._reported.add(key)
        self.report(kind, message, node=node, **details)

    def on_local_commit(
        self, replica: "Replica", proposal: "Proposal"
    ) -> None:
        node = replica.node_id
        height = proposal.height
        block_id = proposal.block_id
        chain = self._chains.setdefault(node, {})

        prev = chain.get(height)
        if prev is not None and prev != block_id:
            self._report_once(
                ("local-fork", node, height, min(prev, block_id)),
                "local-fork",
                f"replica {node} committed conflicting blocks "
                f"{prev:#x} and {block_id:#x} at height {height}",
                node, height=height, blocks=[prev, block_id],
            )
        chain[height] = block_id

        known = self._height_of.setdefault(block_id, height)
        if known != height:
            self._report_once(
                ("height-mismatch", block_id),
                "height-mismatch",
                f"block {block_id:#x} committed at heights "
                f"{known} and {height}",
                node, block=block_id, heights=[known, height],
            )

        first = self._global.get(height)
        if first is None:
            self._global[height] = (block_id, node)
        elif first[0] != block_id:
            self._report_once(
                ("fork", height, min(first[0], block_id)),
                "fork",
                f"honest replicas {first[1]} and {node} committed "
                f"conflicting blocks {first[0]:#x} and {block_id:#x} "
                f"at height {height}",
                node, height=height, blocks=[first[0], block_id],
            )

        parent = chain.get(height - 1)
        if parent is not None and parent != proposal.parent_id:
            self._report_once(
                ("broken-prefix", node, height),
                "broken-prefix",
                f"replica {node}'s block at height {height} links to "
                f"parent {proposal.parent_id:#x} but the replica "
                f"committed {parent:#x} at height {height - 1}",
                node, height=height,
                parent=proposal.parent_id, committed=parent,
            )

    def finalize(self) -> None:
        for node, chain in sorted(self._chains.items()):
            top = max(chain)
            if len(chain) == top:
                continue
            missing = [h for h in range(1, top + 1) if h not in chain]
            self.report(
                "gap",
                f"replica {node} committed up to height {top} but not "
                f"at {len(missing)} heights below it (first {missing[0]})",
                node=node, top=top, missing=len(missing),
                first=missing[0],
            )


class AvailabilityOracle(Oracle):
    """Committed microblocks must be held by enough honest stores.

    Armed by default only for the *certifying* mempools whose protocols
    actually promise this at commit time — Stratus (a PAB proof carries
    ``q`` storage acks, so at least ``q - byz`` honest replicas hold the
    body) and Narwhal (a certificate roots in a ``2f + 1`` echo quorum,
    and honest replicas only echo bodies they stored). The best-effort
    mempools make no such promise — that *is* the weakness the paper
    fixes — so checking them would flag the baseline, not a bug. Pass
    ``strict=True`` to arm the PAB bar (``f + 1 - byz``) anyway, which is
    how the mutation self-test catches a mempool that skips the proof
    gate.

    For Stratus the claim is *per shard*: a certificate carries
    ``quorum(s)`` member acks, so at least ``quorum(s) - byz_s`` honest
    *members of shard s* hold the body — non-members are expected to
    commit certificates without bodies, so only member stores count. At
    one shard that is every replica and the run's PAB quorum.
    """

    name = "availability"

    CERTIFYING = ("stratus", "narwhal")

    def __init__(self, strict: bool = False) -> None:
        super().__init__()
        self._strict = strict

    def on_attach(self) -> None:
        self._checked: set[int] = set()
        protocol = self.config.protocol
        self._armed = self._strict or protocol.mempool in self.CERTIFYING
        self._shard_map = _shard_map_for(protocol)
        faults = self.config.faults
        byz = set(faults.initial_behaviors() if faults is not None else ())
        if protocol.mempool == "narwhal":
            self._threshold = max(1, protocol.consensus_quorum - len(byz))
        else:
            self._threshold = max(1, protocol.f + 1 - len(byz))
        #: Per shard: (its members, honest member stores required).
        self._shard_bars = []
        shard_map = self._shard_map
        for shard in range(shard_map.shards if shard_map else 0):
            members = shard_map.member_set(shard)
            required = shard_map.quorum(shard) - len(byz & members)
            self._shard_bars.append((members, max(1, required)))

    def _shard_bar(self, mb_id) -> tuple[Optional[frozenset[int]], int]:
        """(eligible holders, required count) for one microblock."""
        if self._shard_map is None:
            return None, self._threshold
        return self._shard_bars[self._shard_map.shard_of_microblock(mb_id)]

    @staticmethod
    def _holds(replica: "Replica", mb_id) -> bool:
        store = getattr(replica.mempool, "store", None)
        return store is not None and mb_id in store

    def on_local_commit(
        self, replica: "Replica", proposal: "Proposal"
    ) -> None:
        if not self._armed or proposal.block_id in self._checked:
            return
        self._checked.add(proposal.block_id)
        if proposal.payload.embedded:
            return  # data travelled inside the proposal itself
        for mb_id in proposal.payload.microblock_ids:
            eligible, threshold = self._shard_bar(mb_id)
            holders = [
                peer.node_id for peer in self.suite.honest_replicas()
                if (eligible is None or peer.node_id in eligible)
                and self._holds(peer, mb_id)
            ]
            if len(holders) < threshold:
                where = (
                    "honest store(s)" if eligible is None
                    else "honest shard-member store(s)"
                )
                self.report(
                    "unavailable",
                    f"microblock {mb_id:#x} committed in block "
                    f"{proposal.block_id:#x} is held by only "
                    f"{len(holders)} {where}, need {threshold}",
                    node=replica.node_id,
                    microblock=mb_id, block=proposal.block_id,
                    holders=holders, threshold=threshold,
                )


class LedgerOracle(Oracle):
    """SMP integrity: committed content is exactly client content.

    Under Stratus, commits are certificate-level: a replica may never
    resolve a foreign shard's bodies, and throughput may be accounted
    from certificate tx counts. Conservation is therefore checked *per
    shard* as well — certified transactions committed in a
    shard must not exceed transactions batched by that shard's origins —
    and each committed certificate's embedded tx count is cross-checked
    against the honest origin's creation record.
    """

    name = "smp-integrity"

    def on_attach(self) -> None:
        # mb_id -> (tx_count, origin) at creation
        self._created: dict[int, tuple[int, int]] = {}
        # mb_id -> block_id that committed it
        self._committed: dict[int, int] = {}
        # (node, mb_id) -> earliest time that node locally committed it
        self._local_commits: dict[tuple[int, int], float] = {}
        # Transactions over *unique* committed microblocks — the
        # execution-level count where a fork-race double commit of the
        # same microblock applies once (real deployments dedupe there).
        self._committed_tx = 0
        self._seen_blocks: set[int] = set()
        # block_id -> (parent_id, height) of every committed block: the
        # parent links the duplicate check walks.
        self._links: dict[int, tuple[int, int]] = {}
        self._resolved_blocks: set[int] = set()
        # Per-shard conservation (Stratus only).
        self._shard_map = _shard_map_for(self.config.protocol)
        self._shard_created: dict[int, int] = {}
        self._shard_committed: dict[int, int] = {}

    def on_microblock_created(
        self, replica: "Replica", microblock: "MicroBlock"
    ) -> None:
        record = (microblock.tx_count, microblock.origin)
        first_time = microblock.id not in self._created
        existing = self._created.setdefault(microblock.id, record)
        if first_time and self._shard_map is not None:
            shard = self._shard_map.shard_of_origin(microblock.origin)
            self._shard_created[shard] = (
                self._shard_created.get(shard, 0) + microblock.tx_count
            )
        if existing != record:
            self.report(
                "id-collision",
                f"microblock id {microblock.id:#x} created twice with "
                f"different content: {existing} vs {record}",
                node=replica.node_id, microblock=microblock.id,
            )

    def on_local_commit(
        self, replica: "Replica", proposal: "Proposal"
    ) -> None:
        now = self.suite.now
        for mb_id in proposal.payload.microblock_ids:
            self._local_commits.setdefault((replica.node_id, mb_id), now)
        if proposal.block_id in self._seen_blocks:
            return
        self._seen_blocks.add(proposal.block_id)
        self._links[proposal.block_id] = (proposal.parent_id, proposal.height)
        certs = {
            entry.mb_id: entry.cert
            for entry in proposal.payload.entries
            if getattr(entry, "cert", None) is not None
        }
        for mb_id in proposal.payload.microblock_ids:
            owner = self._committed.get(mb_id)
            if owner is not None and owner != proposal.block_id:
                # Only flag *knowing* replays. Either the first
                # occurrence is in an ancestor of this block — engines
                # propose on a block only once they hold it and its
                # whole ancestry, so the proposer stored that ancestor —
                # or the proposer had already committed the microblock
                # locally before building the block. Otherwise an honest
                # leader cut off by a partition can legitimately
                # re-propose ids whose first commit it never saw — real
                # deployments dedupe those at execution.
                if self._is_ancestor(owner, proposal):
                    knew = "built on the first block's chain"
                else:
                    first = self._local_commits.get(
                        (proposal.proposer, mb_id)
                    )
                    if first is None or first >= proposal.created_at:
                        continue
                    knew = (
                        f"had committed it locally at t={first:.3f} before "
                        f"proposing again at t={proposal.created_at:.3f}"
                    )
                self.report(
                    "duplicate",
                    f"microblock {mb_id:#x} committed twice: in blocks "
                    f"{owner:#x} and {proposal.block_id:#x}, and "
                    f"proposer {proposal.proposer} {knew}",
                    node=replica.node_id,
                    microblock=mb_id,
                    blocks=[owner, proposal.block_id],
                    proposer=proposal.proposer,
                )
                continue
            self._committed[mb_id] = proposal.block_id
            created_tx = self._created.get(mb_id, (0, 0))[0]
            self._committed_tx += created_tx
            cert = certs.get(mb_id)
            if cert is not None:
                if self._shard_map is not None:
                    shard = self._shard_map.shard_of_microblock(mb_id)
                    self._shard_committed[shard] = (
                        self._shard_committed.get(shard, 0) + cert.tx_count
                    )
                if mb_id in self._created and cert.tx_count != created_tx:
                    self.report(
                        "cert-mismatch",
                        f"certificate for microblock {mb_id:#x} claims "
                        f"{cert.tx_count} txs but the origin batched "
                        f"{created_tx}",
                        node=replica.node_id,
                        microblock=mb_id, block=proposal.block_id,
                        certified=cert.tx_count, created=created_tx,
                    )
            if mb_id not in self._created:
                self.report(
                    "fabricated",
                    f"committed microblock {mb_id:#x} (block "
                    f"{proposal.block_id:#x}) never came out of any "
                    f"replica's batcher",
                    node=replica.node_id,
                    microblock=mb_id, block=proposal.block_id,
                )

    def _is_ancestor(self, block_id: int, proposal: "Proposal") -> bool:
        """Is committed block ``block_id`` on ``proposal``'s parent chain?

        Walks committed parent links down to the block's height.
        """
        height = self._links[block_id][1]
        cursor = proposal.parent_id
        while cursor != block_id:
            link = self._links.get(cursor)
            if link is None or link[1] <= height:
                return False
            cursor = link[0]
        return True

    def on_block_resolved(self, replica: "Replica", block: "Block") -> None:
        if block.block_id in self._resolved_blocks:
            return
        self._resolved_blocks.add(block.block_id)
        for microblock in block.microblocks.values():
            created = self._created.get(microblock.id)
            if created is not None and created[0] != microblock.tx_count:
                self.report(
                    "mutated",
                    f"microblock {microblock.id:#x} resolved with "
                    f"{microblock.tx_count} txs but was created with "
                    f"{created[0]}",
                    node=replica.node_id, microblock=microblock.id,
                )

    def finalize(self) -> None:
        emitted = self.experiment.generator.emitted_tx_count
        if self._committed_tx > emitted:
            self.report(
                "conservation",
                f"{self._committed_tx} txs committed (unique microblocks) "
                f"but clients only submitted {emitted}",
                committed=self._committed_tx, emitted=emitted,
            )
        if self._shard_map is not None:
            for shard in sorted(self._shard_committed):
                committed = self._shard_committed[shard]
                created = self._shard_created.get(shard, 0)
                if committed > created:
                    self.report(
                        "shard-conservation",
                        f"shard {shard} committed {committed} certified "
                        f"txs but its origins only batched {created}",
                        shard=shard, committed=committed, created=created,
                    )


class ConservationOracle(Oracle):
    """Ledger conservation over the PAB mempool (Stratus).

    An id is in one state at a replica, ``proposable -> referenced ->
    committed``, and a microblock is pushed until it is proven. At the
    end of the run, at every correct replica, every id it holds a
    verified certificate for is committed there, carried by a proposal
    it stores or still in its queue — not pulled into a payload nobody
    proposed (``stranded``) — and every push it still runs has targets
    that can make the quorum — no microblock was pushed to nobody
    (``unshared``). Nothing here is a deadline: an overloaded run that
    ends with work in flight is clean.
    """

    name = "conservation"

    def finalize(self) -> None:
        for replica in self.suite.honest_replicas():
            node, mempool = replica.node_id, replica.mempool
            proofs = getattr(mempool, "_proofs", None)
            if proofs is None:
                return  # not a PAB mempool: no evidence to conserve
            queued = set(mempool._proposable)
            for mb_id in proofs:
                if (
                    mb_id not in mempool._committed
                    and mempool._referenced.get(mb_id, 0) <= 0
                    and mb_id not in queued
                ):
                    self.report(
                        "stranded",
                        f"replica {node} holds a proof for microblock "
                        f"{mb_id:#x} but has not committed it, stores no "
                        f"proposal for it and cannot propose it",
                        node=node, microblock=mb_id,
                    )
            quorum = mempool.pab._quorum
            for mb_id, push in mempool.pab._pushes.items():
                if len(push.targets) + 1 < quorum:
                    self.report(
                        "unshared",
                        f"replica {node} pushes microblock {mb_id:#x} to "
                        f"{len(push.targets)} targets: no proof can form "
                        f"(quorum {quorum})",
                        node=node, microblock=mb_id,
                    )


class LivenessOracle(Oracle):
    """Commit progress resumes within a bound after faults heal.

    ``bound`` defaults to a multiple of the protocol's view/epoch timers
    (see :func:`repro.verification.fuzzer.default_liveness_bound`). A
    fault window is only judged when it healed early enough that a
    recovery inside the bound was possible before the run ended;
    never-healed windows are skipped (nothing to recover *from*).
    """

    name = "liveness"

    def __init__(self, bound: Optional[float] = None) -> None:
        super().__init__()
        self._bound = bound

    def on_attach(self) -> None:
        if self._bound is None:
            from repro.verification.fuzzer import default_liveness_bound

            self._bound = default_liveness_bound(self.config.protocol)

    def finalize(self) -> None:
        metrics = self.experiment.metrics
        now = self.experiment.sim.now
        if (
            self.config.rate_tps > 0
            and now >= self._bound
            and not metrics.commits
        ):
            self.report(
                "no-progress",
                f"no block committed in {now:.1f}s of simulated time "
                f"(liveness bound {self._bound:.1f}s)",
                bound=self._bound,
            )
            return
        for window in metrics.fault_windows:
            if math.isinf(window.end) or window.end + self._bound > now:
                continue
            recover = metrics.time_to_recover(window)
            if recover > self._bound:
                self.report(
                    "stalled",
                    f"{window.kind} window healed at {window.end:.2f}s "
                    f"but the next commit took "
                    f"{'forever' if math.isinf(recover) else f'{recover:.2f}s'}"
                    f" (bound {self._bound:.1f}s)",
                    window=window.kind,
                    healed_at=window.end,
                    time_to_recover=recover,
                    bound=self._bound,
                )


def standard_suite(
    liveness_bound: Optional[float] = None,
    strict_availability: bool = False,
) -> OracleSuite:
    """The default five-oracle suite the fuzzer and CLI arm."""
    return OracleSuite([
        SafetyOracle(),
        AvailabilityOracle(strict=strict_availability),
        LedgerOracle(),
        ConservationOracle(),
        LivenessOracle(bound=liveness_bound),
    ])
