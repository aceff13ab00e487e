"""Mempool implementations.

Five mempool families back the protocols evaluated in the paper
(Table II):

* :class:`~repro.mempool.native.NativeMempool` — leader ships full
  transaction data (N-HS, N-SL);
* :class:`~repro.mempool.simple_smp.SimpleSharedMempool` — best-effort
  broadcast plus fetch-from-leader (SMP-HS, the straw man);
* :class:`~repro.mempool.gossip_smp.GossipSharedMempool` — gossip
  dissemination (SMP-HS-G);
* :class:`~repro.mempool.narwhal.NarwhalMempool` — Bracha reliable
  broadcast, quadratic message complexity (Narwhal baseline);
* :class:`~repro.mempool.stratus.StratusMempool` — PAB + DLB
  (this paper's contribution); ``ProtocolConfig.sharding`` runs the
  same mempool over per-shard quorums with certificate-only consensus
  ordering (Arma / BigDipper directions; see DESIGN.md "Sharding").
"""

from repro.mempool.base import Mempool, MessageKinds
from repro.mempool.native import NativeMempool, SharedPendingPool
from repro.mempool.simple_smp import SimpleSharedMempool
from repro.mempool.gossip_smp import GossipSharedMempool
from repro.mempool.narwhal import NarwhalMempool
from repro.mempool.stratus import StratusMempool

MEMPOOL_CLASSES = {
    "native": NativeMempool,
    "simple": SimpleSharedMempool,
    "gossip": GossipSharedMempool,
    "narwhal": NarwhalMempool,
    "stratus": StratusMempool,
}

__all__ = [
    "Mempool",
    "MessageKinds",
    "NativeMempool",
    "SharedPendingPool",
    "SimpleSharedMempool",
    "GossipSharedMempool",
    "NarwhalMempool",
    "StratusMempool",
    "MEMPOOL_CLASSES",
]
