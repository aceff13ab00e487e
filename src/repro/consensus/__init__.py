"""BFT consensus engines.

Four engines exercise the mempools: chained HotStuff (the paper's main
integration target), its two-chain variant (Bamboo ships both),
Streamlet (epoch-based, all-to-all votes), and PBFT (used by the
Appendix-A analytic benches). All four keep one block tree and one
proposal lifecycle, :class:`~repro.consensus.chain.ChainedEngine`.
"""

from repro.consensus.base import ConsensusEngine
from repro.consensus.hotstuff import HotStuff
from repro.consensus.twochain import TwoChainHotStuff
from repro.consensus.streamlet import Streamlet
from repro.consensus.pbft import Pbft

CONSENSUS_CLASSES = {
    "hotstuff": HotStuff,
    "twochain": TwoChainHotStuff,
    "streamlet": Streamlet,
    "pbft": Pbft,
}

__all__ = [
    "ConsensusEngine",
    "HotStuff",
    "TwoChainHotStuff",
    "Streamlet",
    "Pbft",
    "CONSENSUS_CLASSES",
]
