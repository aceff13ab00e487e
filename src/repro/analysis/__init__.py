"""Analytic throughput models from Appendix A."""

from repro.analysis.model import (
    lbft_max_throughput,
    pab_ack_row_bytes,
    smp_max_throughput,
    smp_limit_throughput,
    smp_optimal_microblock_bytes,
)

__all__ = [
    "lbft_max_throughput",
    "pab_ack_row_bytes",
    "smp_max_throughput",
    "smp_limit_throughput",
    "smp_optimal_microblock_bytes",
]
