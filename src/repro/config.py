"""Protocol configuration shared by mempool and consensus components.

One :class:`ProtocolConfig` instance describes everything a replica needs
to know about the protocol variant under test: which mempool and consensus
engine to run, batching parameters, PAB quorum, DLB settings, and timers.
Topology- and workload-level settings live in
:class:`repro.harness.config.ExperimentConfig`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

MEMPOOL_KINDS = ("native", "simple", "gossip", "narwhal", "stratus")
CONSENSUS_KINDS = ("hotstuff", "twochain", "streamlet", "pbft")


def encode_fields(obj, **encoders: Callable) -> dict:
    """``{field name: value}`` over the constructor fields of ``obj``.

    The one codec of everything that crosses a process boundary or lands
    in a JSON artifact: a dataclass serialises by walking its own
    fields, so a new field cannot be forgotten. A field whose value is
    not plain JSON data names the function that flattens it (skipped
    while the value is ``None``).
    """
    data = {}
    for spec in dataclasses.fields(obj):
        if not spec.init:
            continue  # a cache, not an input: from_dict could not pass it
        value = getattr(obj, spec.name)
        encode = encoders.get(spec.name)
        if encode is not None and value is not None:
            value = encode(value)
        data[spec.name] = value
    return data


def decode_fields(cls, data: dict, **decoders: Callable):
    """Inverse of :func:`encode_fields`: ``cls(**data)`` after restoring
    the fields named in ``decoders`` from their flattened form."""
    data = dict(data)
    for name, decode in decoders.items():
        if data.get(name) is not None:
            data[name] = decode(data[name])
    return cls(**data)


@dataclass(frozen=True)
class ShardingConfig:
    """Shard layout for the Stratus mempool.

    Deliberately tiny and value-like: the derived structure (membership
    orbits, per-shard quorums) lives in
    :class:`repro.sharding.map.ShardMap`, so a rebalance is "build a new
    map from a bumped ``epoch``" rather than a mutation.

    * ``shards`` — number of availability shards the microblock space is
      partitioned into. ``1`` is unsharded Stratus (every replica in one
      shard), the layout of a run without one.
    * ``epoch`` — rebalance generation. Bumping it rotates every
      membership deterministically (``(node + epoch) mod n``), the hook
      a reconfiguration protocol would drive; all replicas must agree on
      the epoch, exactly like they agree on ``n``.
    """

    shards: int = 2
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")

    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardingConfig":
        return decode_fields(cls, data)


@dataclass
class ProtocolConfig:
    """Per-replica protocol parameters.

    Fields default to the paper's settings (Section VII-A): 128-byte
    transaction payloads, 128 KB microblocks, PAB quorum ``f + 1``,
    power-of-d sampling with ``d = 1``.

    Four derived quantities are computed once at construction and read
    as plain attributes on the event path: ``f`` (fault tolerance, the
    largest f with n >= 3f + 1), ``consensus_quorum`` (votes per quorum
    certificate, 2f + 1), ``stability_quorum`` (PAB ack quorum q in
    [f+1, 2f+1], default f + 1) and ``txs_per_microblock``
    (transactions that fill a microblock at the batch size). They are
    not dataclass fields — not serialised, not compared — and
    ``dataclasses.replace`` recomputes them because it constructs anew.
    """

    n: int
    mempool: str = "stratus"
    consensus: str = "hotstuff"

    # -- batching ----------------------------------------------------------
    tx_payload: int = 128
    batch_bytes: int = 128 * 1024
    batch_timeout: float = 0.05
    native_block_bytes: int = 512 * 1024
    # The paper sets no proposal-size cap (Section VII-B) because its
    # settings never accumulate a large backlog; a bound prevents a
    # death spiral where one slow view yields a multi-megabyte catch-up
    # proposal that itself times out. 0 = unlimited.
    proposal_max_microblocks: int = 1024

    # -- PAB ---------------------------------------------------------------
    pab_quorum: Optional[int] = None  # None = f + 1
    # delta in Algorithm 2. Also the grace period before a PAB recovery
    # fetch: in the prototype, per-peer TCP FIFO means a correct sender's
    # body always precedes its proof, so an immediate fetch would
    # duplicate an in-flight transfer. Recovery is background traffic
    # (Section IV-B).
    fetch_timeout: float = 0.5
    fetch_sample_fraction: float = 0.25  # share of signers asked per round

    # -- DLB ---------------------------------------------------------------
    load_balancing: bool = False
    lb_samples: int = 1  # d in power-of-d-choices
    lb_query_timeout: float = 0.2  # tau
    lb_forward_timeout: float = 1.0  # tau'
    lb_probe_interval: int = 8  # self-push every k-th mb while busy

    # -- consensus ---------------------------------------------------------
    view_timeout: float = 2.0
    empty_view_delay: float = 0.005
    streamlet_epoch: float = 0.4

    # -- sharding (stratus only) ---------------------------------------------
    # None means one shard; any other mempool kind rejects a layout
    # rather than run unsharded.
    sharding: Optional[ShardingConfig] = None

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"BFT needs n >= 4, got n={self.n}")
        self.f = (self.n - 1) // 3
        self.consensus_quorum = 2 * self.f + 1
        self.stability_quorum = (
            self.pab_quorum if self.pab_quorum is not None else self.f + 1
        )
        self.txs_per_microblock = max(1, self.batch_bytes // self.tx_payload)
        if self.sharding is not None and self.sharding.shards > self.n:
            raise ValueError(
                f"cannot split {self.n} replicas into "
                f"{self.sharding.shards} shards"
            )
        if self.mempool not in MEMPOOL_KINDS:
            raise ValueError(
                f"unknown mempool {self.mempool!r}; choose from {MEMPOOL_KINDS}"
            )
        if self.consensus not in CONSENSUS_KINDS:
            raise ValueError(
                f"unknown consensus {self.consensus!r}; "
                f"choose from {CONSENSUS_KINDS}"
            )
        if self.sharding is not None and self.mempool != "stratus":
            raise ValueError(
                f"sharding needs mempool='stratus', got {self.mempool!r}"
            )
        sharded = self.sharding is not None and self.sharding.shards > 1
        if sharded and (self.load_balancing or self.pab_quorum is not None):
            # Neither reaches a sharded run (its quorum is the shard's
            # f_s + 1 and there is no shard-aware DLB), so taking them
            # would run something other than what was asked for.
            raise ValueError(
                "more than one shard supports neither load_balancing "
                "nor pab_quorum (the shard quorum is f_s + 1)"
            )
        if self.pab_quorum is not None and not (
            self.f + 1 <= self.pab_quorum <= 2 * self.f + 1
        ):
            raise ValueError(
                f"pab_quorum must be in [f+1, 2f+1] = "
                f"[{self.f + 1}, {2 * self.f + 1}], got {self.pab_quorum}"
            )
        if self.lb_samples < 1:
            raise ValueError(f"lb_samples must be >= 1, got {self.lb_samples}")
        if self.empty_view_delay >= self.view_timeout:
            # Every paced view would outlast its own timeout: no commits.
            raise ValueError(
                f"empty_view_delay ({self.empty_view_delay}) must be below "
                f"view_timeout ({self.view_timeout})"
            )
        if not 0.0 < self.fetch_sample_fraction <= 1.0:
            raise ValueError(
                "fetch_sample_fraction must be in (0, 1], "
                f"got {self.fetch_sample_fraction}"
            )

    def to_dict(self) -> dict:
        """JSON-able form; round-trips through :meth:`from_dict`.

        Used by ``repro.parallel`` to ship configurations into spawned
        worker processes without pickling live objects.
        """
        return encode_fields(self, sharding=ShardingConfig.to_dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        return decode_fields(cls, data, sharding=ShardingConfig.from_dict)
