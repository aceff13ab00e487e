"""Live client driver: the open-loop workload over TCP.

Reuses :class:`repro.workload.WorkloadGenerator` — the exact tick/carry
rate math of the simulated client — by pointing it at proxy receivers
whose ``on_client_batch`` ships the batch to the real replica as a
``client.batch`` frame. Runs inside the orchestrator process.
"""

from __future__ import annotations

import asyncio

from repro.harness.config import ExperimentConfig
from repro.harness.runner import make_selector
from repro.live.network import LiveNetwork
from repro.live.scheduler import RealtimeScheduler
from repro.live.wire import CLIENT_BATCH
from repro.sim.interfaces import Channel
from repro.types import TxBatch
from repro.workload import WorkloadGenerator

#: Node id the client stamps as frame source. Replicas never route on
#: it (``client.batch`` has its own dispatch hook), it only has to stay
#: clear of real replica ids.
CLIENT_ID = -1


class _ReplicaProxy:
    """Stands in for one replica on the client side of the wire."""

    def __init__(self, network: LiveNetwork, node_id: int) -> None:
        self._network = network
        self._node_id = node_id

    def on_client_batch(self, batch: TxBatch) -> None:
        self._network.send(
            CLIENT_ID, self._node_id, CLIENT_BATCH,
            batch.total_bytes, batch, Channel.DATA,
        )


async def run_client(
    config: ExperimentConfig,
    ports: dict[int, int],
    epoch: float,
    wire_codec: str = "binary",
) -> int:
    """Submit the workload until ``config.end_time``; returns tx emitted."""
    loop = asyncio.get_running_loop()
    scheduler = RealtimeScheduler(loop, epoch=epoch)
    network = LiveNetwork(CLIENT_ID, ports, scheduler, codec=wire_codec)
    await network.start(listen=False)

    proxies = [_ReplicaProxy(network, node) for node in sorted(ports)]
    generator = WorkloadGenerator(
        sim=scheduler,
        replicas=proxies,
        rate_tps=config.rate_tps,
        tx_payload=config.protocol.tx_payload,
        selector=make_selector(config),
    )

    await scheduler.sleep_until(0.0)
    generator.start()

    await scheduler.sleep_until(config.end_time)
    generator.stop()
    await network.close()
    return generator.emitted_tx_count
