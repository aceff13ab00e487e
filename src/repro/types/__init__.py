"""Core data structures shared by every protocol.

Transactions are *counted*, not materialized: a microblock records how many
transactions it batches, their total byte size, and the sum of their client
arrival times (for latency accounting). This keeps multi-hundred-replica
simulations tractable without changing protocol-visible behaviour.
"""

from repro.types import sizes
from repro.types.batch import TxBatch
from repro.types.microblock import MicroBlock, make_microblock_id
from repro.types.proposal import Payload, PayloadEntry

__all__ = [
    "sizes",
    "TxBatch",
    "MicroBlock",
    "make_microblock_id",
    "Payload",
    "PayloadEntry",
]
