"""Two-chain HotStuff (the Bamboo variant the paper also ships).

Identical to chained HotStuff except for the commit rule: a block
commits when it heads a *two*-chain of consecutive-view certified blocks
(like Jolteon/DiemBFT v4), saving one round of commit latency at the
cost of a heavier view-change responsibility — which this normal-case
implementation inherits unchanged from the three-chain engine.

The lock moves to one-chain: a replica locks on the certified block
itself rather than its parent.
"""

from __future__ import annotations

from repro.consensus.hotstuff import HotStuff


class TwoChainHotStuff(HotStuff):
    """Chained HotStuff with the two-chain commit rule."""

    name = "twochain"
    commit_links = 1
