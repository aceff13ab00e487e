"""Asyncio TCP :class:`Transport` backend.

One :class:`LiveNetwork` instance serves exactly one replica process: it
listens on its own localhost port and keeps one outbound connection per
peer. Frames are the length-prefixed bodies of :mod:`repro.live.wire`
in the run's one codec (binary v2 by default, JSON v1 for comparison),
which every process takes from its spawn spec; an inbound stream that
does not decode in it raises :class:`WireError` and is dropped, and the
other peers' streams keep delivering. Per-peer, per-channel FIFO ordering
falls out of TCP plus the single writer task per link, satisfying the
:class:`Transport` ordering contract the protocol recovery paths rely
on.

``send``/``broadcast`` stay synchronous (the protocol code is the same
code that runs in-sim): they encode the frame immediately — which is
where the codec's purity assertion fires — and hand the bytes to the
peer link's writer task. ``broadcast`` encodes **once** and shares the
frame bytes across every link instead of paying the codec per
recipient, and send accounting only counts frames the link actually
accepted: a frame shed by backpressure never inflates
``messages_sent``/``bytes_sent``.

Robustness properties (the live-chaos hardening):

* **Bounded send queues.** Each link keeps two bounded deques — one for
  CONSENSUS/CONTROL frames, one for DATA — and the writer drains the
  priority queue first. When a queue is full the new frame is dropped
  (``NetworkStats.frames_dropped``), so a dead or throttled peer costs a
  bounded amount of memory and data backlog never starves consensus
  traffic. Message loss is within the Transport contract; the protocol's
  retransmission paths recover.
* **Write coalescing.** The writer drains a bounded batch of queued
  frames per ``writer.drain()`` (:data:`PUMP_BATCH_FRAMES` frames or
  :data:`PUMP_BATCH_BYTES` bytes, whichever first), so a burst costs
  one await and lets TCP coalesce small frames into full segments
  instead of one segment per vote. Shaping semantics stay per-frame:
  the pending batch is flushed before any shaper hold, and every frame
  still pays its own delay/throttle.
* **Reconnection.** A link whose connection fails or resets retries
  forever with exponential backoff plus jitter — not just during the
  startup window — so a replica SIGKILLed and respawned mid-run is
  re-reachable as soon as it rebinds its port.
* **Liveness view.** ``liveness()`` reports which peers currently hold
  an established connection; writers never block protocol callbacks, so
  a dead peer degrades into dropped frames instead of a hang.
* **Shaping hook.** An optional :class:`repro.live.chaos.LinkShaper`
  drops frames at send time (partitions, loss windows) and delays them
  at write time (latency spikes, bandwidth squeezes), realizing the
  chaos layer's network faults on real sockets.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Optional, TYPE_CHECKING, Union

from repro.live.wire import FrameDecoder, WireCodec, WireError, get_codec
from repro.sim.interfaces import Channel, Envelope, Handler, Scheduler, Transport
from repro.sim.network import NetworkStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.chaos import LinkShaper

#: First retry delay after a failed connect; doubles per attempt.
CONNECT_RETRY_DELAY = 0.05
#: Backoff cap — a downed peer is probed at least this often (plus
#: jitter), bounding how stale the liveness view can get.
CONNECT_RETRY_MAX = 1.0

#: Bounded send-queue depths (frames). DATA carries microblock bodies —
#: the bulk — and is capped tighter than the consensus/control queue so
#: backpressure sheds payload before it sheds votes.
DATA_QUEUE_CAP = 1024
PRIORITY_QUEUE_CAP = 4096

#: Write-coalescing bounds: frames joined into one write per
#: ``drain()`` await. The byte bound keeps a batch of jumbo frames from
#: monopolizing the loop; the frame bound caps the join list for bursts
#: of tiny frames (binary votes/acks run ~50-100 bytes apiece).
PUMP_BATCH_FRAMES = 512
PUMP_BATCH_BYTES = 256 * 1024


class _PeerLink:
    """One outbound connection: bounded frame queues + a writer task.

    The queues are plain deques rather than ``asyncio.Queue`` because
    ``send`` must stay synchronous and the drop policy needs to inspect
    both queues' depths; an :class:`asyncio.Event` wakes the writer.
    """

    def __init__(
        self,
        dst: int,
        host: str,
        port: int,
        stats: NetworkStats,
        shaper: Optional["LinkShaper"] = None,
    ) -> None:
        self.dst = dst
        self.host = host
        self.port = port
        self.task: Optional[asyncio.Task] = None
        self.bytes_out = 0
        self.connected = False
        self.reconnects = 0
        self._stats = stats
        self._shaper = shaper
        self._priority: deque[tuple[bytes, Channel]] = deque()
        self._data: deque[tuple[bytes, Channel]] = deque()
        self._wake = asyncio.Event()
        self._closing = False
        # Backoff jitter only — shaping decisions never draw from this.
        self._rng = random.Random()

    # -- producer side (synchronous, protocol thread) -------------------

    def enqueue(self, frame: bytes, channel: Channel) -> bool:
        """Queue one frame; returns False when backpressure drops it."""
        if self._closing:
            return False
        if channel is Channel.DATA:
            queue, cap = self._data, DATA_QUEUE_CAP
        else:
            queue, cap = self._priority, PRIORITY_QUEUE_CAP
        if len(queue) >= cap:
            self._stats.frames_dropped += 1
            return False
        queue.append((frame, channel))
        depth = len(self._priority) + len(self._data)
        if depth > self._stats.queue_high_watermark:
            self._stats.queue_high_watermark = depth
        self._wake.set()
        return True

    @property
    def queued(self) -> int:
        return len(self._priority) + len(self._data)

    def close(self) -> None:
        """Ask the writer to drain its queues and exit."""
        self._closing = True
        self._wake.set()

    # -- writer task -----------------------------------------------------

    async def run(self) -> None:
        writer = None
        try:
            while True:
                writer = await self._connect()
                if writer is None:  # closed while unreachable
                    return
                self.connected = True
                try:
                    drained = await self._pump(writer)
                except (ConnectionError, OSError):
                    # Peer process exited or reset mid-write: the frame
                    # being written is lost (within the Transport
                    # contract); reconnect and keep going.
                    drained = False
                finally:
                    self.connected = False
                    writer.close()
                    writer = None
                if drained:
                    return
                self.reconnects += 1
                self._stats.reconnects += 1
        except asyncio.CancelledError:
            # Loop teardown (LiveNetwork.close cancelling a stuck link).
            pass
        finally:
            self.connected = False
            if writer is not None:
                writer.close()

    async def _pump(self, writer: asyncio.StreamWriter) -> bool:
        """Write queued frames until closed (True) or the link drops.

        Frames are written in coalesced batches — up to
        :data:`PUMP_BATCH_FRAMES` frames or :data:`PUMP_BATCH_BYTES`
        bytes joined into a **single** ``write()`` per ``drain()``, so
        a burst costs one transport call and one socket send instead of
        one per frame — while shaping stays per-frame: before a shaper
        hold, the pending batch is flushed so already-written frames
        hit the socket at their unshaped time, then the held frame pays
        its full delay exactly as in the unbatched path.
        """
        priority, data = self._priority, self._data
        while True:
            if priority:
                frame, channel = priority.popleft()
            elif data:
                frame, channel = data.popleft()
            else:
                if self._closing:
                    return True
                self._wake.clear()
                if not (priority or data or self._closing):
                    await self._wake.wait()
                continue
            parts: list[bytes] = []
            batch_bytes = 0
            while True:
                if self._shaper is not None:
                    delay = self._shaper.write_delay(
                        self.dst, len(frame), channel
                    )
                    if delay > 0:
                        if parts:
                            writer.write(b"".join(parts))
                            await writer.drain()
                            parts = []
                            batch_bytes = 0
                        await asyncio.sleep(delay)
                parts.append(frame)
                self.bytes_out += len(frame)
                batch_bytes += len(frame)
                if (
                    len(parts) >= PUMP_BATCH_FRAMES
                    or batch_bytes >= PUMP_BATCH_BYTES
                ):
                    break
                if priority:
                    frame, channel = priority.popleft()
                elif data:
                    frame, channel = data.popleft()
                else:
                    break
            if parts:
                writer.write(parts[0] if len(parts) == 1 else b"".join(parts))
            await writer.drain()

    async def _connect(self) -> Optional[asyncio.StreamWriter]:
        """Connect with exponential backoff + jitter until closed.

        Unlike a startup-only retry window, this never gives up: a peer
        restarted mid-run (chaos respawn, operator restart) is picked
        back up as soon as it listens again.
        """
        backoff = CONNECT_RETRY_DELAY
        while not self._closing:
            try:
                _, writer = await asyncio.open_connection(self.host, self.port)
                return writer
            except (ConnectionError, OSError):
                delay = backoff * (0.5 + self._rng.random())
                backoff = min(backoff * 2.0, CONNECT_RETRY_MAX)
                await asyncio.sleep(delay)
        return None


class LiveNetwork(Transport):
    """TCP message fabric for one replica (or the client driver)."""

    def __init__(
        self,
        node_id: int,
        ports: dict[int, int],
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        shaper: Optional["LinkShaper"] = None,
        codec: Union[str, WireCodec] = "binary",
    ) -> None:
        self.node_id = node_id
        self.ports = ports
        self.host = host
        self.scheduler = scheduler
        self.shaper = shaper
        self.codec = get_codec(codec)
        self.stats = NetworkStats()
        self.bytes_in = 0
        self._handler: Optional[Handler] = None
        self._links: dict[int, _PeerLink] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._accepted: set[asyncio.StreamWriter] = set()
        self._closed = False

    @property
    def bytes_out(self) -> int:
        return sum(link.bytes_out for link in self._links.values())

    def liveness(self) -> dict[int, bool]:
        """Which peers hold an established outbound connection right now.

        The heartbeat is the TCP connection itself: a downed peer's link
        flips to False within one write or one backoff probe
        (≤ :data:`CONNECT_RETRY_MAX` plus jitter), and back to True as
        soon as a reconnect lands.
        """
        return {node: link.connected for node, link in self._links.items()}

    # -- lifecycle -----------------------------------------------------

    async def start(self, listen: bool = True) -> None:
        """Bind the listening socket and spawn peer links.

        The client driver passes ``listen=False``: it only writes.
        """
        if listen:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.ports[self.node_id]
            )
        loop = asyncio.get_running_loop()
        for node, port in self.ports.items():
            if node == self.node_id:
                continue
            link = _PeerLink(
                node, self.host, port, self.stats, shaper=self.shaper
            )
            link.task = loop.create_task(link.run())
            self._links[node] = link

    async def close(self, drain_timeout: float = 5.0) -> None:
        """Stop the fabric, draining queued frames where peers are up.

        Links to unreachable peers (and links whose shaper is throttling
        them below the drain budget) are cancelled after
        ``drain_timeout`` so shutdown never hangs on a dead or squeezed
        connection.
        """
        self._closed = True
        for link in self._links.values():
            link.close()
        tasks = [link.task for link in self._links.values() if link.task]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drop accepted inbound connections too: a process exit would
        # close them at the kernel; an in-process close (tests, client
        # driver) must look the same to peers, or their links report a
        # closed endpoint as live forever.
        for writer in list(self._accepted):
            writer.close()

    # -- Transport surface ---------------------------------------------

    def register(self, node: int, handler: Handler) -> None:
        if node != self.node_id:
            raise ValueError(
                f"live network of node {self.node_id} cannot host node {node}"
            )
        if self._handler is not None:
            raise ValueError(f"node {node} already registered")
        self._handler = handler

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
    ) -> None:
        if self._closed:
            return
        if dst == self.node_id:
            # Loopback: deliver on the next loop tick, like the
            # simulator's zero-delay local delivery — never re-entrantly.
            # Loopback is never shaped: partitions/loss model the fabric
            # between processes, and a replica always reaches itself.
            envelope = Envelope(
                src, dst, kind, 0.0, payload, channel, self.scheduler.now
            )
            self.scheduler.schedule(0.0, lambda: self._dispatch(envelope))
            return
        link = self._links.get(dst)
        if link is None:
            raise ValueError(f"send to unknown node {dst}")
        if self.shaper is not None and self.shaper.drops(
            src, dst, kind, channel
        ):
            self.stats.messages_dropped += 1
            return
        frame = self.codec.encode(src, kind, channel, payload)
        # Count only what the link accepted: a frame shed by
        # backpressure was never sent, and pretending otherwise skews
        # the per-replica bandwidth tables exactly when they matter
        # (saturated or chaos runs).
        if link.enqueue(frame, channel):
            self.stats.record_send(src, kind, len(frame))

    def broadcast(
        self,
        src: int,
        kind: str,
        size_bytes: float,
        payload: object,
        channel: Channel = Channel.DATA,
        recipients: Optional[list[int]] = None,
    ) -> None:
        """Fan one payload out to ``recipients`` (default: all peers).

        The frame is encoded **once** and the same bytes are enqueued on
        every link — the per-recipient codec cost of the naive
        ``send``-per-peer loop was pure waste, and on the broadcast-heavy
        PAB path it dominated the send side.
        """
        if self._closed:
            return
        if recipients is None:
            recipients = [node for node in self.ports if node != src]
        frame: Optional[bytes] = None
        for dst in recipients:
            if dst == src:
                continue
            link = self._links.get(dst)
            if link is None:
                raise ValueError(f"send to unknown node {dst}")
            if self.shaper is not None and self.shaper.drops(
                src, dst, kind, channel
            ):
                self.stats.messages_dropped += 1
                continue
            if frame is None:
                frame = self.codec.encode(src, kind, channel, payload)
            if link.enqueue(frame, channel):
                self.stats.record_send(src, kind, len(frame))

    # -- receive path --------------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # A stream in another codec (or not a wire stream at all)
        # raises WireError on its first frame and is abandoned below.
        decoder = FrameDecoder(self.codec)
        self._accepted.add(writer)
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                self.bytes_in += len(data)
                for src, kind, channel, payload in decoder.feed(data):
                    envelope = Envelope(
                        src, self.node_id, kind, 0.0, payload, channel,
                        self.scheduler.now,
                    )
                    self._dispatch(envelope)
        except (ConnectionError, WireError):
            # A reset peer or desynced stream only loses that stream's
            # remaining messages — again within the Transport contract.
            pass
        except asyncio.CancelledError:
            # Loop teardown mid-read (asyncio.run cancelling leftover
            # tasks); swallowing keeps shutdown quiet.
            pass
        finally:
            self._accepted.discard(writer)
            writer.close()

    def _dispatch(self, envelope: Envelope) -> None:
        if self._closed:
            self.stats.messages_dropped += 1
            return
        if self._handler is None:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        self._handler(envelope)
