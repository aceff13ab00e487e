"""Missing-microblock fetching (the ``PAB-Fetch`` procedure, Algorithm 2).

A fetch round sends requests to a target set, arms a timeout ``delta``,
and repeats with fresh targets until the body is in the store. Target
selection is pluggable: the simple SMP fetches from the current leader
(the behaviour that collapses under attack), while Stratus samples from
the availability proof's signers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TYPE_CHECKING

from repro.config import ProtocolConfig
from repro.sim.interfaces import DeadlineQueue
from repro.sim.network import Channel
from repro.mempool.base import MessageKinds
from repro.mempool.store import MicroBlockStore
from repro.types import sizes
from repro.types.microblock import MicroBlockId

if TYPE_CHECKING:  # pragma: no cover
    from repro.replica.node import Replica

TargetProvider = Callable[[set[int]], list[int]]

#: Retry rounds back off by this factor, up to the cap in seconds, with
#: +/- this fraction of jitter, so a dead or partitioned holder is not
#: hammered at a fixed cadence; a fetch is abandoned (and counted) after
#: this many rounds (0 = retry forever), or a GC'd or equivocated
#: microblock would be chased for the rest of the run.
FETCH_BACKOFF_FACTOR = 1.5
FETCH_BACKOFF_MAX = 2.0
FETCH_JITTER = 0.1
FETCH_MAX_ROUNDS = 25
#: Most signers asked in one round.
FETCH_MAX_TARGETS = 4
#: Most fetches running rounds at once per replica; later ones wait, in
#: order. A replica back from a crash misses hundreds of bodies, and their
#: replies, all at once, crowd the pushes off its peers' uplinks: every
#: peer's blocks shrink (``shs-wan-skew-crash-16``: ~32 microblocks to 2-21).
FETCH_WINDOW = 64


def backoff_delay(config: ProtocolConfig, rounds: int, rng) -> float:
    """Retry delay after ``rounds`` completed rounds: exponential, jittered.

    Shared by fetch retries and PAB push retransmissions. The first retry
    waits ``fetch_timeout`` (delta in Algorithm 2); later ones grow by
    the backoff factor up to its cap, with relative noise so synchronized
    retriers do not re-converge on the same peer at the same instant.
    """
    base = config.fetch_timeout * (FETCH_BACKOFF_FACTOR ** (rounds - 1))
    cap = max(FETCH_BACKOFF_MAX, config.fetch_timeout)
    delay = min(base, cap)
    if FETCH_JITTER > 0:
        delay *= 1.0 + rng.uniform(-FETCH_JITTER, FETCH_JITTER)
    return delay


#: Push retransmissions wait at least this multiple of the estimated
#: stable time (the p-th percentile push->quorum interval). Acts like a
#: TCP RTO: when the network is merely slow (congestion, delay spikes)
#: acks are still coming, so retransmitting at the uncongested cadence
#: would add load exactly when the network can least absorb it.
RETRY_STABLE_TIME_FACTOR = 3.0

#: ...and at least this multiple of the observed push->first-ack RTT,
#: the earliest congestion signal available before the stable-time
#: estimator has a window's worth of samples.
RETRY_RTT_FACTOR = 3.0

#: ...and at least this multiple of the transport's expected transfer
#: time for the retransmission itself (serialization + current egress
#: backlog). Retrying before the original copies even left the uplink
#: is what makes contended fair-share scenarios snowball.
RETRY_TRANSFER_TIME_FACTOR = 2.0


def adaptive_retry_delay(
    config: ProtocolConfig,
    rounds: int,
    host: "Replica",
    size_bytes: float,
    copies: int,
    stable_estimate: float | None = None,
    rtt_estimate: float | None = None,
) -> float:
    """Congestion-aware push-retransmission delay.

    The exponential, jittered :func:`backoff_delay` is the base (drawn
    first, so the RNG stream matches runs where no signal is available);
    each available signal — stable-time percentile, push->first-ack RTT,
    and the transport's backlog-aware transfer-time estimate — then
    raises the floor. Signals only ever *delay* a retry: a quorum
    cancels the timer, so an uncongested network is unaffected.
    """
    delay = backoff_delay(config, rounds, host.rng)
    if stable_estimate is not None:
        delay = max(delay, RETRY_STABLE_TIME_FACTOR * stable_estimate)
    if rtt_estimate is not None:
        delay = max(delay, RETRY_RTT_FACTOR * rtt_estimate)
    if copies > 0:
        expected = host.network.expected_transfer_seconds(
            host.node_id, size_bytes, copies
        )
        if expected is not None:
            delay = max(delay, RETRY_TRANSFER_TIME_FACTOR * expected)
    return delay


class _PendingFetch:
    __slots__ = ("mb_id", "targets", "requested", "rounds")

    def __init__(self, mb_id: MicroBlockId, targets) -> None:
        self.mb_id = mb_id
        #: A target provider, or proof signers until the first round.
        self.targets = targets
        self.requested: set[int] = set()
        self.rounds = 0


class FetchManager:
    """Drives fetch rounds and answers peers' fetch requests."""

    def __init__(
        self, host: "Replica", config: ProtocolConfig, store: MicroBlockStore
    ) -> None:
        self._host = host
        self._config = config
        self._store = store
        self._held = store.blocks
        #: Requested ids, with their grace entry until the first round and
        #: their ``_PendingFetch`` after; a landed one stays to a deadline.
        self._pending: dict[MicroBlockId, object] = {}
        #: ``(deadline, id, targets)`` in their grace. One constant delay
        #: keeps them in order: a FIFO behind a wake armed at ``_grace_at``.
        self._grace: deque[tuple] = deque()
        self._grace_at: float | None = None
        #: Retries: jittered, so a heap, and one timer too.
        self._rounds = DeadlineQueue(host.sim, self._round, self._live)
        #: ``_PendingFetch``es in ``_pending`` past their first round (at
        #: most ``FETCH_WINDOW``), and those due but waiting for a slot.
        self._running = 0
        self._waiting: deque[_PendingFetch] = deque()
        self._promoting = False

    @property
    def outstanding(self) -> int:
        """Requested ids whose body has not landed."""
        return sum(1 for mb_id in self._pending if mb_id not in self._held)

    def request(
        self,
        mb_id: MicroBlockId,
        targets: TargetProvider | tuple[int, ...],
        grace: bool = False,
    ) -> None:
        """Fetch ``mb_id`` until delivered; idempotent per microblock.

        ``targets`` is a target provider, or an availability proof's
        signers (asked per :func:`sampled_signers` from the first round
        on). ``grace`` defers the first round by ``fetch_timeout``: the
        common reason a microblock is missing is that its broadcast copy
        is still serializing at the origin, so an immediate request would
        duplicate an in-flight transfer (per-peer TCP FIFO prevents this
        in the prototype). Its grace entry finds the body held at its
        deadline (and forgets the id) or mints the fetch and runs it.
        """
        if mb_id in self._held or mb_id in self._pending:
            return
        if grace:
            deadline = self._host.sim.now + self._config.fetch_timeout
            entry = self._pending[mb_id] = (deadline, mb_id, targets)
            self._grace.append(entry)
            if self._grace_at is None:
                self._grace_at = deadline
                self._host.sim.schedule_at(deadline, self._serve_grace)
        else:
            fetch = self._pending[mb_id] = _PendingFetch(mb_id, targets)
            self._waiting.append(fetch)
            self._promote()

    def handle_request(self, requester: int, mb_id: MicroBlockId) -> None:
        """Serve a peer's fetch request if we hold the microblock."""
        if not self._host.behavior.serves_fetches:
            return
        microblock = self._store.get(mb_id)
        if microblock is None:
            return
        self._host.network.send(
            self._host.node_id, requester, MessageKinds.MICROBLOCK_FETCH,
            microblock.size_bytes, microblock,
        )

    def cancel(self, mb_id: MicroBlockId) -> None:
        """Stop fetching ``mb_id`` (e.g. its block was GC'd or abandoned)."""
        fetch = self._pending.pop(mb_id, None)
        if fetch.__class__ is _PendingFetch and fetch.rounds:
            self._end()

    # -- internal ----------------------------------------------------------

    def _serve_grace(self) -> None:
        """Run the due first rounds. A dead head (body held, id cancelled
        or re-requested) goes before its deadline is read, so it arms no
        wake; a wall clock reading a hair before the armed one is due."""
        horizon = self._grace_at = max(self._host.sim.now, self._grace_at)
        grace, pending, held = self._grace, self._pending, self._held
        while grace:
            deadline, mb_id, targets = entry = grace[0]
            if mb_id in pending and pending[mb_id] is entry:
                if mb_id in held:
                    del pending[mb_id]
                elif deadline > horizon:
                    break
                else:
                    pending[mb_id] = fetch = _PendingFetch(mb_id, targets)
                    grace.popleft()
                    self._waiting.append(fetch)
                    continue
            grace.popleft()
        if self._waiting:
            self._promote()
        self._grace_at = grace[0][0] if grace else None
        if grace:
            self._host.sim.schedule_at(self._grace_at, self._serve_grace)

    def _end(self) -> None:
        """A running fetch left ``_pending``. Waiting ones start in an event
        of their own: a first round must not push onto the heap whose wake
        runs ``_live``."""
        self._running -= 1
        if self._waiting and not self._promoting:
            self._promoting = True
            self._host.sim.schedule(0.0, self._promote)

    def _promote(self) -> None:
        """Run first rounds, oldest first, while the window has room; a
        fetch cancelled or landed while it waited is skipped."""
        self._promoting = False
        waiting, pending, held = self._waiting, self._pending, self._held
        while waiting and self._running < FETCH_WINDOW:
            fetch = waiting.popleft()
            if pending.get(fetch.mb_id) is not fetch:
                continue
            if fetch.mb_id in held:
                del pending[fetch.mb_id]
                continue
            self._running += 1
            self._round(fetch)

    def _live(self, pending: _PendingFetch) -> bool:
        """``pending`` is its id's incarnation (a cancelled and
        re-requested id is a new one) and its body has not landed; a
        landed one is forgotten here, and its window slot freed."""
        mb_id = pending.mb_id
        if self._pending.get(mb_id) is not pending:
            return False
        if mb_id in self._held:
            del self._pending[mb_id]
            self._end()
            return False
        return True

    def _round(self, pending: _PendingFetch) -> None:
        pending.rounds += 1
        if FETCH_MAX_ROUNDS and pending.rounds > FETCH_MAX_ROUNDS:
            self._abandon(pending)
            return
        provider = pending.targets
        if isinstance(provider, tuple):
            provider = pending.targets = sampled_signers(
                self._config, self._host.rng, provider, self._host.node_id
            )
        targets = provider(pending.requested)
        if not targets:
            # Exhausted the candidate set; retry everyone next round.
            pending.requested.clear()
            targets = provider(pending.requested)
        for target in targets:
            pending.requested.add(target)
            self._host.network.send(
                self._host.node_id, target, MessageKinds.FETCH_REQUEST,
                sizes.FETCH_REQUEST, pending.mb_id, Channel.CONTROL,
            )
            self._host.metrics.record_fetch()
        self._rounds.defer(
            backoff_delay(self._config, pending.rounds, self._host.rng),
            pending,
        )

    def _abandon(self, pending: _PendingFetch) -> None:
        del self._pending[pending.mb_id]
        self._host.metrics.record_fetch_abandoned()
        self._end()


def sampled_signers(
    config: ProtocolConfig,
    rng,
    signers: tuple[int, ...],
    own_id: int,
) -> TargetProvider:
    """Target provider for PAB recovery: random subset of proof signers.

    Per Algorithm 2, each un-requested signer is asked with a configured
    probability; at least one target is always selected so a round makes
    progress.
    """

    def provider(requested: set[int]) -> list[int]:
        candidates = [
            signer
            for signer in signers
            if signer != own_id and signer not in requested
        ]
        if not candidates:
            return []
        chosen = [
            signer
            for signer in candidates
            if rng.random() < config.fetch_sample_fraction
        ]
        if not chosen:
            chosen = [rng.choice(candidates)]
        if len(chosen) > FETCH_MAX_TARGETS:
            chosen = rng.sample(chosen, FETCH_MAX_TARGETS)
        return chosen

    return provider


def single_target(target: int) -> TargetProvider:
    """Target provider that always asks one node (fetch-from-leader)."""

    def provider(requested: set[int]) -> list[int]:
        return [target]

    return provider
