"""BFT consensus engines.

Three engines exercise the mempools: chained HotStuff (the paper's main
integration target), its two-chain variant (Bamboo ships both), and
Streamlet (epoch-based, all-to-all votes), the paper's second
integration target. All three keep one block tree and one proposal
lifecycle, :class:`~repro.consensus.chain.ChainedEngine`.
"""

from repro.consensus.base import ConsensusEngine
from repro.consensus.hotstuff import HotStuff
from repro.consensus.twochain import TwoChainHotStuff
from repro.consensus.streamlet import Streamlet

CONSENSUS_CLASSES = {
    "hotstuff": HotStuff,
    "twochain": TwoChainHotStuff,
    "streamlet": Streamlet,
}

__all__ = [
    "ConsensusEngine",
    "HotStuff",
    "TwoChainHotStuff",
    "Streamlet",
    "CONSENSUS_CLASSES",
]
