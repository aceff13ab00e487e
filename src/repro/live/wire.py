"""Wire codecs for the live runtime.

Every message crossing a live TCP connection is one *frame*:

.. code-block:: text

    +----------------+----------------------------------------+
    | 4-byte big-    | frame body (codec-specific)            |
    | endian length  |                                        |
    +----------------+----------------------------------------+

Two frame-body formats exist. A run uses one, named by its spawn spec
(``LiveConfig.wire_codec``), so no byte on the stream says which:

* **v1 (json)** — a UTF-8 JSON document ``{"src", "kind", "ch", "p"}``
  whose payload is encoded *structurally*: plain scalars pass through,
  tuples and registered dataclasses become tagged objects
  (``{"__t__": <tag>, "v": ...}``) so that ``from_wire(to_wire(m)) == m``
  holds exactly — including tuple-ness, which the protocol relies on
  for hashable payload fields.
* **v2 (binary)** — a struct-packed header (``!iBB``: source node,
  message-kind id from :data:`MESSAGE_REGISTRY` order, channel) followed
  by a compact tag-byte payload encoding: one tag byte per value,
  zigzag varints for ints, raw IEEE doubles for floats, and — replacing
  v1's ``{"__t__": ...}`` name tagging — a fixed class-tag table over
  :data:`WIRE_TYPES` that writes dataclass fields positionally in
  declaration order, with no field names on the wire. Both the class-tag
  table and the kind-id table are positional: appending keeps older
  frames decodable, any other edit is a wire-format break between
  peers built from different trees.

Bytes in the other format, or from no wire at all, fail the
:data:`MAX_FRAME_BYTES` length cap or the strict body decode and raise
:class:`WireError`; the transport then abandons that stream.

Both codecs double as the purity assertion demanded by the live
runtime: only scalars, lists/tuples/dicts, and the registered pure-data
classes below are encodable. A message smuggling a simulator handle,
timer, or any other live object raises :class:`WireError` at send time
instead of corrupting a peer.

Everything here is stdlib (``struct`` + ``json``): the environment
ships no third-party serializer, and the framing keeps the codecs
swappable — only this module knows the byte formats.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import Any, Iterator, Optional, Union

from repro.crypto.certificates import QuorumCert
from repro.crypto.signatures import Signature
from repro.mempool.base import MessageKinds
from repro.sharding.certificate import ShardCertificate
from repro.sim.interfaces import Channel
from repro.types.batch import TxBatch
from repro.types.microblock import MicroBlock
from repro.types.proposal import Payload, PayloadEntry, Proposal

__all__ = [
    "WireError",
    "WIRE_TYPES",
    "MESSAGE_REGISTRY",
    "WireCodec",
    "CODECS",
    "get_codec",
    "to_wire",
    "from_wire",
    "encode_frame",
    "decode_frame",
    "encode_frame_binary",
    "decode_frame_binary",
    "FrameDecoder",
]


class WireError(ValueError):
    """Raised when an object cannot cross the wire (or a frame is bad)."""


#: Pure-data classes allowed on the wire, keyed by their tag. Everything
#: here must be a dataclass whose fields are themselves encodable —
#: that closure property is what the purity assertion enforces. The
#: *order* of this table is the binary codec's class-tag assignment:
#: append new classes at the end.
WIRE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        Signature,
        QuorumCert,
        MicroBlock,
        TxBatch,
        PayloadEntry,
        Payload,
        Proposal,
        ShardCertificate,
    )
}

#: Every message kind that crosses the live network, mapped to the
#: payload classes its top-level object may contain. Used by the
#: round-trip property tests to sweep the full vocabulary, and — in
#: declaration order — as the binary codec's kind-id table (append new
#: kinds at the end). The JSON codec is structural and does not consult
#: this table.
MESSAGE_REGISTRY: dict[str, tuple[type, ...]] = {
    MessageKinds.MICROBLOCK: (MicroBlock,),
    MessageKinds.MICROBLOCK_GOSSIP: (MicroBlock,),
    MessageKinds.MICROBLOCK_FETCH: (MicroBlock,),
    MessageKinds.MICROBLOCK_FORWARD: (MicroBlock,),
    MessageKinds.ACK: (Signature,),
    MessageKinds.PROOF: (tuple,),          # (mb_id, ShardCertificate)
    MessageKinds.FETCH_REQUEST: (int,),    # mb_id
    MessageKinds.RB_ECHO: (int,),          # mb_id
    MessageKinds.RB_READY: (int,),         # mb_id
    MessageKinds.LB_QUERY: (int,),         # query token
    MessageKinds.LB_INFO: (tuple,),        # (token, load)
    MessageKinds.PROPOSAL: (Proposal,),
    MessageKinds.VOTE: (tuple,),           # (block_id[, view], Signature)
    MessageKinds.NEW_VIEW: (tuple,),       # (view, QuorumCert)
    MessageKinds.SYNC_REQUEST: (tuple,),   # (block_id, committed height)
    MessageKinds.CLIENT_BATCH: (TxBatch,),
    # Snapshot state transfer (appended in PR 8; append-only table).
    MessageKinds.STATE_SNAPSHOT_REQ: (int,),  # requester's applied height
    # (height, last_block_id, digest, tx_applied, blocks_applied, {k: v})
    MessageKinds.STATE_SNAPSHOT: (tuple,),
}


# -- structural payload codec (v1, JSON) -------------------------------------

def to_wire(obj: Any) -> Any:
    """Encode a payload object into JSON-able form.

    Raises :class:`WireError` for any object outside the pure-data
    vocabulary — this is the codec's purity assertion.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # json.dumps(allow_nan=False) would catch these too, but failing
        # here names the offending value instead of the whole frame.
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise WireError(f"non-finite float on the wire: {obj!r}")
        return obj
    if isinstance(obj, tuple):
        return {"__t__": "tuple", "v": [to_wire(item) for item in obj]}
    if isinstance(obj, list):
        return [to_wire(item) for item in obj]
    if isinstance(obj, dict):
        # Tagged pair list: JSON objects only take string keys, and
        # protocol dicts (if any appear) are keyed by ints.
        return {
            "__t__": "dict",
            "v": [[to_wire(k), to_wire(v)] for k, v in obj.items()],
        }
    cls = type(obj)
    tag = cls.__name__
    if WIRE_TYPES.get(tag) is cls and is_dataclass(obj):
        return {
            "__t__": tag,
            "v": {
                f.name: to_wire(getattr(obj, f.name)) for f in fields(obj)
            },
        }
    raise WireError(
        f"{cls.__module__}.{cls.__qualname__} is not a wire type; "
        "wire messages must be pure data (register the class in "
        "repro.live.wire.WIRE_TYPES if it is)"
    )


def from_wire(obj: Any) -> Any:
    """Decode the output of :func:`to_wire` back into payload objects."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [from_wire(item) for item in obj]
    if isinstance(obj, dict):
        tag = obj.get("__t__")
        value = obj.get("v")
        if tag == "tuple":
            return tuple(from_wire(item) for item in value)
        if tag == "dict":
            return {from_wire(k): from_wire(v) for k, v in value}
        cls = WIRE_TYPES.get(tag)
        if cls is None:
            raise WireError(f"unknown wire tag {tag!r}")
        return cls(**{name: from_wire(item) for name, item in value.items()})
    raise WireError(f"undecodable wire object: {obj!r}")


# -- framing -----------------------------------------------------------------

_LENGTH = struct.Struct(">I")

#: Upper bound on a single frame. Generously above any real message
#: (proposals reference microblocks rather than embedding bodies); its
#: job is to fail fast when a desynced stream yields a garbage length.
MAX_FRAME_BYTES = 32 * 1024 * 1024


def encode_frame(
    src: int, kind: str, channel: Channel, payload: Any
) -> bytes:
    """Serialize one message into a length-prefixed v1 (JSON) frame."""
    document = {
        "src": src,
        "kind": kind,
        "ch": channel.value,
        "p": to_wire(payload),
    }
    body = json.dumps(
        document, allow_nan=False, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> tuple[int, str, Channel, Any]:
    """Decode one v1 frame body (length prefix already stripped)."""
    try:
        document = json.loads(body.decode("utf-8"))
        return (
            document["src"],
            document["kind"],
            Channel(document["ch"]),
            from_wire(document["p"]),
        )
    except WireError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc


# -- binary payload codec (v2) -----------------------------------------------
#
# One tag byte per value. Ints are zigzag varints (arbitrary precision),
# floats raw IEEE doubles, strings/containers carry a varint count.
# Registered dataclasses get tags 0x20+index in WIRE_TYPES order and
# write their fields positionally — no names on the wire, which is the
# bulk of the size and CPU win over the v1 tagging.

_B_NONE = 0x00
_B_FALSE = 0x01
_B_TRUE = 0x02
_B_INT = 0x03
_B_FLOAT = 0x04
_B_STR = 0x05
_B_TUPLE = 0x06
_B_LIST = 0x07
_B_DICT = 0x08
_B_CLASS_BASE = 0x20

_FLOAT = struct.Struct("!d")


def _field_getter(names: tuple[str, ...]):
    """One C-level call extracting a class's fields as a tuple.

    ``attrgetter`` with several names returns the value tuple directly;
    the single-name form returns a bare value, so wrap it for shape.
    """
    if len(names) == 1:
        name = names[0]
        return lambda obj: (getattr(obj, name),)
    return attrgetter(*names)


#: class -> field names in declaration order (the positional wire order).
_BIN_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in WIRE_TYPES.values()
}
#: class -> (tag byte, field-tuple getter)
_BIN_ENCODE: dict[type, tuple[int, Any]] = {
    cls: (_B_CLASS_BASE + index, _field_getter(_BIN_FIELDS[cls]))
    for index, cls in enumerate(WIRE_TYPES.values())
}
#: tag index -> (class, field names); constructors take the fields
#: positionally in the same order.
_BIN_DECODE: tuple = tuple(
    (cls, _BIN_FIELDS[cls]) for cls in WIRE_TYPES.values()
)

#: kind string <-> one-byte id, in MESSAGE_REGISTRY declaration order.
_KIND_TO_ID: dict[str, int] = {
    kind: index for index, kind in enumerate(MESSAGE_REGISTRY)
}
_ID_TO_KIND: tuple = tuple(MESSAGE_REGISTRY)

_HEADER2 = struct.Struct("!iBB")  # src (int32), kind id, channel

#: channel byte -> Channel member, skipping the enum-call machinery on
#: the per-frame decode path (KeyError folds into "malformed frame").
_CHANNEL_BY_VALUE: dict[int, Channel] = {
    member.value: member for member in Channel
}


def _encode_value(obj: Any, out: bytearray) -> None:
    kind = type(obj)
    if kind is int:
        out.append(_B_INT)
        # zigzag, then unsigned LEB128
        value = (obj << 1) if obj >= 0 else ((-obj << 1) - 1)
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
    elif kind is str:
        raw = obj.encode("utf-8")
        out.append(_B_STR)
        value = len(raw)
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
        out += raw
    elif kind is float:
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise WireError(f"non-finite float on the wire: {obj!r}")
        out.append(_B_FLOAT)
        out += _FLOAT.pack(obj)
    elif kind is bool:
        out.append(_B_TRUE if obj else _B_FALSE)
    elif obj is None:
        out.append(_B_NONE)
    elif kind is tuple or kind is list:
        out.append(_B_TUPLE if kind is tuple else _B_LIST)
        value = len(obj)
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
        for item in obj:
            _encode_value(item, out)
    elif kind is dict:
        out.append(_B_DICT)
        value = len(obj)
        while value > 0x7F:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)
        for key, item in obj.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        entry = _BIN_ENCODE.get(kind)
        if entry is None:
            raise WireError(
                f"{kind.__module__}.{kind.__qualname__} is not a wire type; "
                "wire messages must be pure data (register the class in "
                "repro.live.wire.WIRE_TYPES if it is)"
            )
        tag, getter = entry
        out.append(tag)
        for item in getter(obj):
            _encode_value(item, out)


def _read_uvarint(body: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        byte = body[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 896:
            # 128 continuation bytes — far beyond any real id or count;
            # only a garbage stream produces it. Bail before an
            # adversarial megabyte of 0x80s turns into a giant bigint.
            raise WireError("malformed varint (runaway continuation)")


def _decode_value(body: bytes, pos: int) -> tuple[Any, int]:
    # The single-byte varint fast paths (``byte < 0x80``) cover nearly
    # every int and count on a real wire — ids, views, field counts —
    # and skip a Python call per value in the hottest loop of the
    # receive path.
    tag = body[pos]
    pos += 1
    if tag == _B_INT:
        value = body[pos]
        if value < 0x80:
            pos += 1
        else:
            second = body[pos + 1]
            if second < 0x80:
                # Two-byte varint: ids, views, and counters live here
                # for most of a run; skip the generic loop for them.
                value = (value & 0x7F) | (second << 7)
                pos += 2
            else:
                value, pos = _read_uvarint(body, pos)
        return (value >> 1) if not value & 1 else -((value + 1) >> 1), pos
    if tag == _B_STR:
        count = body[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_uvarint(body, pos)
        end = pos + count
        if end > len(body):
            raise WireError("malformed frame: truncated string")
        return body[pos:end].decode("utf-8"), end
    if tag == _B_FLOAT:
        (value,) = _FLOAT.unpack_from(body, pos)
        return value, pos + _FLOAT.size
    if tag == _B_NONE:
        return None, pos
    if tag == _B_TRUE:
        return True, pos
    if tag == _B_FALSE:
        return False, pos
    if tag == _B_TUPLE or tag == _B_LIST:
        count = body[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_uvarint(body, pos)
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _decode_value(body, pos)
            append(item)
        return (tuple(items) if tag == _B_TUPLE else items), pos
    if tag == _B_DICT:
        count = body[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_uvarint(body, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _decode_value(body, pos)
            value, pos = _decode_value(body, pos)
            mapping[key] = value
        return mapping, pos
    index = tag - _B_CLASS_BASE
    if 0 <= index < len(_BIN_DECODE):
        cls, names = _BIN_DECODE[index]
        values = []
        append = values.append
        for _ in names:
            value, pos = _decode_value(body, pos)
            append(value)
        return cls(*values), pos
    raise WireError(f"unknown binary wire tag 0x{tag:02x}")


def encode_frame_binary(
    src: int, kind: str, channel: Channel, payload: Any
) -> bytes:
    """Serialize one message into a length-prefixed v2 (binary) frame."""
    kind_id = _KIND_TO_ID.get(kind)
    if kind_id is None:
        raise WireError(
            f"kind {kind!r} is not in MESSAGE_REGISTRY; the binary codec "
            "only ships registered kinds"
        )
    out = bytearray(_LENGTH.size + _HEADER2.size)
    _HEADER2.pack_into(out, _LENGTH.size, src, kind_id, channel.value)
    _encode_value(payload, out)
    length = len(out) - _LENGTH.size
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {length} bytes")
    _LENGTH.pack_into(out, 0, length)
    return bytes(out)


def decode_frame_binary(body: bytes) -> tuple[int, str, Channel, Any]:
    """Decode one v2 frame body (length prefix already stripped)."""
    try:
        src, kind_id, channel_value = _HEADER2.unpack_from(body)
        kind = _ID_TO_KIND[kind_id]
        payload, end = _decode_value(body, _HEADER2.size)
        if end != len(body):
            raise WireError(
                f"malformed frame: {len(body) - end} trailing bytes"
            )
        return src, kind, _CHANNEL_BY_VALUE[channel_value], payload
    except WireError:
        raise
    except (IndexError, ValueError, KeyError, TypeError,
            struct.error) as exc:
        raise WireError(f"malformed frame: {exc}") from exc


# -- codec selection ---------------------------------------------------------


class WireCodec:
    """One frame-body format: its name, encode and decode."""

    __slots__ = ("name", "encode", "decode")

    def __init__(self, name: str, encode, decode) -> None:
        self.name = name
        self.encode = encode
        self.decode = decode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WireCodec({self.name!r})"


CODECS: dict[str, WireCodec] = {
    "json": WireCodec("json", encode_frame, decode_frame),
    "binary": WireCodec("binary", encode_frame_binary, decode_frame_binary),
}


def get_codec(codec: Union[str, WireCodec]) -> WireCodec:
    """Resolve a codec name (``json``/``binary``) to its :class:`WireCodec`."""
    if isinstance(codec, WireCodec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise WireError(
            f"unknown wire codec {codec!r}; choose from {sorted(CODECS)}"
        ) from None


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed whatever chunks the socket yields; iterate the completed
    messages, decoded by ``codec``. Partial frames are buffered across
    feeds. Reassembly is read-offset based: consumed bytes are reclaimed
    in one amortized compaction instead of a per-frame
    ``del buffer[:end]``, so a burst of thousands of coalesced frames in
    one read costs O(total), not O(total**2) memmove.
    """

    def __init__(self, codec: Union[str, WireCodec]) -> None:
        self._decode = get_codec(codec).decode
        self._buffer = bytearray()
        self._offset = 0

    def feed(self, data: bytes) -> Iterator[tuple[int, str, Channel, Any]]:
        self._buffer.extend(data)
        decode = self._decode
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield decode(frame)

    def _next_frame(self) -> Optional[bytes]:
        buffer = self._buffer
        offset = self._offset
        if len(buffer) - offset < _LENGTH.size:
            self._compact()
            return None
        (length,) = _LENGTH.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds limit (desync?)")
        end = offset + _LENGTH.size + length
        if len(buffer) < end:
            self._compact()
            return None
        frame = bytes(buffer[offset + _LENGTH.size:end])
        self._offset = end
        return frame

    def _compact(self) -> None:
        # Called only when the buffer holds at most one partial frame,
        # so the memmove is bounded by that frame's size — amortized
        # O(1) per byte fed regardless of how many frames one read
        # coalesced.
        if self._offset:
            del self._buffer[:self._offset]
            self._offset = 0
