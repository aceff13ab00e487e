"""The Stratus mempool's shard layout (Arma / BigDipper directions).

Partitions the microblock space into shards with independent per-shard
PAB quorums; consensus orders compact :class:`ShardCertificate`s. An
unsharded run is the layout with one shard of every replica. The PAB
loop itself is the one in :mod:`repro.mempool.stratus.pab`, run over a
:class:`ShardScope`. See DESIGN.md "Sharding" for the architecture.
"""

from repro.config import ShardingConfig
from repro.sharding.certificate import CertificateError, ShardCertificate
from repro.sharding.map import ONE_SHARD, ShardMap
from repro.sharding.scope import ShardScope

__all__ = [
    "CertificateError",
    "ONE_SHARD",
    "ShardCertificate",
    "ShardMap",
    "ShardScope",
    "ShardingConfig",
]
