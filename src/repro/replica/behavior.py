"""Byzantine behaviour strategies.

A :class:`Behavior` object is consulted by the mempool and consensus code
at the points where the paper's attackers deviate:

* :class:`SilentReplica` — crash-like: never votes, acks, or serves
  fetches (the "less than one-third remain silent" common-case setting of
  Section VII-B).
* :class:`CensoringSender` — the Fig. 8 attacker: shares its microblocks
  only with the current leader (plus, under Stratus, the minimum set of
  extra replicas needed to obtain an availability proof), so that honest
  replicas see missing transactions.
* :class:`LyingProxy` — the DLB attacker: advertises zero load to attract
  forwards, then censors them; defeated by the banList + proof timeout.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sharding import ShardMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import ProtocolConfig
    from repro.replica.node import Replica


class Behavior:
    """Honest-by-default strategy hooks."""

    #: Whether the replica participates in consensus voting/proposing.
    silent = False
    #: Whether the replica acks microblock bodies it receives.
    acks_microblocks = True
    #: Whether the replica answers fetch requests for bodies it holds.
    serves_fetches = True
    #: Whether the replica performs proxy duty for forwarded microblocks.
    handles_forwards = True
    #: Whether the replica suppresses its own availability proofs
    #: (Section VIII's bandwidth-wasting attack).
    withholds_proofs = False

    def share_targets(
        self, host: "Replica", default_targets: list[int]
    ) -> list[int]:
        """Recipients for a microblock this replica originated."""
        return default_targets

    def load_status(self, real_status: Optional[float]) -> Optional[float]:
        """Load status advertised to DLB queries."""
        return real_status


class HonestBehavior(Behavior):
    """The default, fully correct behaviour."""


class SilentReplica(Behavior):
    """Crashed / muted replica: contributes nothing."""

    silent = True
    acks_microblocks = False
    serves_fetches = False
    handles_forwards = False

    def share_targets(
        self, host: "Replica", default_targets: list[int]
    ) -> list[int]:
        return []

    def load_status(self, real_status: Optional[float]) -> Optional[float]:
        return None


class CensoringSender(Behavior):
    """Byzantine sender inducing missing transactions (Fig. 8).

    Against the simple SMP it shares each microblock with the leader
    only; against availability-guaranteeing mempools it must additionally
    reach enough witnesses for its content to become proposable at all —
    an ack quorum minus its own ack under Stratus (PAB; the shard quorum
    under sharding, where a leader outside the shard is no witness), an
    echo quorum minus its own echo under reliable
    broadcast (Narwhal). It refuses to serve the resulting fetches.

    ``min_witnesses`` is that number of *other* replicas; 0 models the
    pure leader-only attack on the simple SMP.
    """

    serves_fetches = False
    handles_forwards = False

    def __init__(self, min_witnesses: int = 0) -> None:
        if min_witnesses < 0:
            raise ValueError(
                f"min_witnesses must be >= 0, got {min_witnesses}"
            )
        self._min_witnesses = min_witnesses

    def share_targets(
        self, host: "Replica", default_targets: list[int]
    ) -> list[int]:
        leader = host.consensus.current_leader()
        targets = {leader} - {host.node_id}
        # Only recipients that can ack count as witnesses: under sharding
        # the leader may sit outside the sender's shard.
        missing = self._min_witnesses - len(
            targets.intersection(default_targets)
        )
        if missing > 0:
            candidates = [
                node for node in default_targets if node not in targets
            ]
            extra = host.rng.sample(
                candidates, min(missing, len(candidates))
            )
            targets.update(extra)
        return sorted(targets)


class LyingProxy(Behavior):
    """Byzantine proxy: advertises zero load, censors forwarded blocks."""

    handles_forwards = False
    serves_fetches = False

    def load_status(self, real_status: Optional[float]) -> Optional[float]:
        return 0.0


class ProofWithholder(Behavior):
    """Byzantine sender that wastes bandwidth by withholding proofs.

    Section VIII: the attacker broadcasts microblock bodies (consuming
    every replica's ingress bandwidth) but never publishes the
    availability proof, so the content is never proposed. The transactions
    it censors are its *own* clients'; the paper's mitigation is the
    client-side timeout (resend to another replica), which is outside the
    replica protocol.
    """

    withholds_proofs = True


#: Behavior names accepted by ``behavior_for`` (chaos ``swap`` windows).
BEHAVIOR_KINDS = ("honest", "silent", "censor", "lying", "withhold")


def behavior_for(kind: str, config: "ProtocolConfig") -> Behavior:
    """Build a behavior from its name, tuned to the protocol under test.

    The censoring attacker needs protocol-specific witness counts: under
    Stratus it must reach its shard's ack quorum minus its own ack, under
    Narwhal an echo quorum minus its own echo; against the simple SMP the
    pure leader-only attack suffices.
    """
    if kind == "honest":
        return HonestBehavior()
    if kind == "silent":
        return SilentReplica()
    if kind == "censor":
        if config.mempool == "stratus":
            witnesses = ShardMap.of(config).quorum(0) - 1
        elif config.mempool == "narwhal":
            witnesses = 2 * config.f
        else:
            witnesses = 0
        return CensoringSender(min_witnesses=witnesses)
    if kind == "lying":
        return LyingProxy()
    if kind == "withhold":
        return ProofWithholder()
    raise ValueError(
        f"unknown behavior {kind!r}; choose from {BEHAVIOR_KINDS}"
    )
