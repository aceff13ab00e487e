"""Stratus: the paper's robust shared mempool.

Four cooperating pieces:

* :mod:`repro.mempool.stratus.pab` — provably available broadcast
  (Algorithms 1 and 2), one engine parameterised by a scope;
* :mod:`repro.mempool.stratus.estimator` — stable-time workload
  estimation (Section V-B);
* :mod:`repro.mempool.stratus.dlb` — distributed load balancing with
  power-of-d proxy selection (Algorithm 4);
* :mod:`repro.mempool.stratus.mempool` — the mempool tying them to the
  consensus engine (Algorithm 3).
"""

from repro.mempool.stratus.mempool import StratusMempool

__all__ = ["StratusMempool"]
