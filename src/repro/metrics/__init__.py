"""Measurement collection: throughput, latency, bandwidth, view changes."""

from repro.metrics.collector import CommitRecord, MetricsHub
from repro.metrics.digest import WeightedDigest, commit_sequence_hash

__all__ = [
    "MetricsHub",
    "CommitRecord",
    "WeightedDigest",
    "commit_sequence_hash",
]
