"""Span recording at the layer seams, installed from outside.

``install`` replaces public entry points *on the instances* a built
experiment holds (``Network.send``/``broadcast``, the mempool and
consensus handlers behind ``Replica.handle``, ``MetricsHub.record_commit``
and the observer tap) with timing wrappers. Nothing under ``src/`` knows
about it. A span is ``(id, name, start, end, parent id, ident)``; a
layer's self time is its span minus the time its child spans cover, so
the self times of all spans add up to the time covered by top-level
spans, and what is left of the traced wall is the event fabric (heap,
link callbacks, timers that reach no seam).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

#: Spans kept verbatim for ``out/<workload>.spans.jsonl``; every span is
#: aggregated regardless.
SAMPLE_CAP = 100_000


class SpanRecorder:
    def __init__(self) -> None:
        #: name -> [calls, self seconds]
        self.totals: dict[str, list] = {}
        self.sample: list[tuple] = []
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(
        self,
        name: str,
        call: Callable,
        ident: Optional[Callable] = None,
    ) -> Callable:
        """``call`` timed as a span named ``name``; ``ident(*args)`` gives
        the microblock/block id spans of one request share."""
        totals = self.totals.setdefault(name, [0, 0.0])
        stack = self._stack
        sample = self.sample

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    self.top_level_s += duration
                if len(sample) < SAMPLE_CAP:
                    sample.append((
                        span_id, name, start, end,
                        parent[0] if parent is not None else None,
                        ident(*args) if ident is not None else None,
                    ))

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, ident in self.sample:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "ident": ident,
                }) + "\n")


def _envelope_ident(envelope) -> Optional[int]:
    """Microblock or block id carried by a message, when it has one."""
    payload = envelope.payload
    for attribute in ("id", "mb_id", "block_id"):
        ident = getattr(payload, attribute, None)
        if isinstance(ident, int):
            return ident
    return payload if isinstance(payload, int) else None


def install_network(recorder: SpanRecorder, network) -> None:
    network.send = recorder.wrap("sim.network.send", network.send)
    network.broadcast = recorder.wrap(
        "sim.network.broadcast", network.broadcast
    )


def install(recorder: SpanRecorder, experiment) -> None:
    """Wrap every seam of a built (not yet run) experiment.

    ``Replica.handle`` resolves ``mempool.on_message`` and
    ``consensus.on_message`` per message kind on first delivery, so
    instance attributes set before the simulator runs are what it routes
    to. ``Replica.handle`` itself is registered with the network at
    construction and cannot be replaced through the public surface; its
    routing cost stays in the fabric share.
    """
    install_network(recorder, experiment.network)
    wrap = recorder.wrap
    metrics = experiment.metrics
    metrics.record_commit = wrap(
        "metrics.record_commit", metrics.record_commit,
        lambda *args, **kwargs: kwargs.get("block_id", args[0] if args else None),
    )
    for replica in experiment.replicas:
        mempool, consensus = replica.mempool, replica.consensus
        replica.on_client_batch = wrap(
            "workload.ingest", replica.on_client_batch
        )
        mempool.on_client_batch = wrap(
            "mempool.ingest", mempool.on_client_batch
        )
        mempool.on_message = wrap(
            "mempool.on_message", mempool.on_message, _envelope_ident
        )
        mempool.make_payload = wrap(
            "mempool.make_payload", mempool.make_payload
        )
        mempool.verify_payload = wrap(
            "mempool.verify_payload", mempool.verify_payload
        )
        mempool.on_commit = wrap(
            "mempool.on_commit", mempool.on_commit,
            lambda proposal, commit_time: proposal.block_id,
        )
        consensus.on_message = wrap(
            "consensus.on_message", consensus.on_message, _envelope_ident
        )
    suite = experiment.oracles
    if suite is not None:
        suite.on_local_commit = wrap(
            "verification.tap", suite.on_local_commit,
            lambda replica, proposal: proposal.block_id,
        )
        suite.on_microblock_created = wrap(
            "verification.tap", suite.on_microblock_created,
            lambda replica, microblock: microblock.id,
        )
        suite.on_block_resolved = wrap(
            "verification.tap", suite.on_block_resolved,
            lambda replica, block: block.block_id,
        )
