"""Wire-codec tests: round-trips over the full message registry for both
codecs, purity rejection, frame reassembly, foreign-stream rejection,
and decoder fuzz (torn/garbage/oversized streams)."""

import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.certificates import QuorumCert
from repro.crypto.signatures import Signature
from repro.live.wire import (
    CODECS,
    MESSAGE_REGISTRY,
    FrameDecoder,
    WireError,
    decode_frame,
    decode_frame_binary,
    encode_frame,
    encode_frame_binary,
    from_wire,
    get_codec,
    to_wire,
)
from repro.mempool.base import MessageKinds
from repro.sharding.certificate import ShardCertificate
from repro.sim.engine import Simulator
from repro.sim.interfaces import Channel
from repro.types.batch import TxBatch
from repro.types.microblock import MicroBlock
from repro.types.proposal import (
    Payload, PayloadEntry, Proposal, make_block_id,
)

# -- strategies generating every registered payload shape --------------------

ids = st.integers(min_value=0, max_value=2**50)
nodes = st.integers(min_value=0, max_value=63)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
signer_sets = st.lists(nodes, min_size=1, max_size=7, unique=True).map(
    lambda s: tuple(sorted(s))
)

signatures = st.builds(Signature, signer=nodes, digest=ids,
                       forged=st.booleans())
qcs = st.builds(QuorumCert, block_id=ids, view=st.integers(0, 1000),
                signers=signer_sets)
microblocks = st.builds(
    MicroBlock,
    id=ids, origin=nodes,
    tx_count=st.integers(min_value=1, max_value=10_000),
    tx_payload=st.integers(min_value=1, max_value=4096),
    created_at=times, sum_arrival=times,
)
batches = st.builds(
    TxBatch,
    count=st.integers(min_value=1, max_value=10_000),
    payload_bytes=st.integers(min_value=1, max_value=4096),
    mean_arrival=times,
)
shard_certs = st.builds(
    ShardCertificate,
    mb_id=ids,
    tx_count=st.integers(min_value=1, max_value=10_000),
    mean_arrival=times, signers=signer_sets, forged=st.booleans(),
)
entries = st.builds(PayloadEntry, mb_id=ids,
                    cert=st.one_of(st.none(), shard_certs))
payloads = st.builds(
    Payload,
    entries=st.lists(entries, max_size=4).map(tuple),
    embedded=st.lists(microblocks, max_size=2).map(tuple),
)
proposals = st.builds(
    Proposal,
    block_id=ids, view=st.integers(0, 1000), height=st.integers(0, 10_000),
    proposer=nodes, parent_id=ids, justify=qcs, payload=payloads,
    created_at=times,
)
digests = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
kv_data = st.dictionaries(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=1, max_value=2**32),
    max_size=16,
)
# (height, last_block_id, digest, tx_applied, blocks_applied, data)
snapshots = st.tuples(
    st.integers(0, 10_000), ids, digests,
    st.integers(0, 2**40), st.integers(0, 10_000), kv_data,
)

#: One strategy per registered message kind, matching the payload each
#: kind actually carries on the wire.
PAYLOADS_BY_KIND = {
    MessageKinds.MICROBLOCK: microblocks,
    MessageKinds.MICROBLOCK_GOSSIP: microblocks,
    MessageKinds.MICROBLOCK_FETCH: microblocks,
    MessageKinds.MICROBLOCK_FORWARD: microblocks,
    MessageKinds.ACK: signatures,
    MessageKinds.PROOF: st.tuples(ids, shard_certs),
    MessageKinds.FETCH_REQUEST: ids,
    MessageKinds.RB_ECHO: ids,
    MessageKinds.RB_READY: ids,
    MessageKinds.LB_QUERY: ids,
    MessageKinds.LB_INFO: st.tuples(ids, times),
    MessageKinds.PROPOSAL: proposals,
    MessageKinds.VOTE: st.one_of(
        st.tuples(ids, st.integers(0, 1000), signatures),
        st.tuples(ids, signatures),
    ),
    MessageKinds.NEW_VIEW: st.tuples(st.integers(0, 1000), qcs),
    MessageKinds.SYNC_REQUEST: st.tuples(ids, st.integers(0, 10_000)),
    MessageKinds.CLIENT_BATCH: batches,
    MessageKinds.STATE_SNAPSHOT_REQ: st.integers(0, 10_000),
    MessageKinds.STATE_SNAPSHOT: snapshots,
}

any_message = st.sampled_from(sorted(MESSAGE_REGISTRY)).flatmap(
    lambda kind: st.tuples(st.just(kind), PAYLOADS_BY_KIND[kind])
)


def test_registry_and_strategies_cover_the_same_kinds():
    assert set(PAYLOADS_BY_KIND) == set(MESSAGE_REGISTRY)


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_sync_request_round_trips_as_a_pair(codec):
    """``(block_id, requester's committed height)`` in both codecs; the
    kind keeps its binary id (the registry is positional)."""
    request = (make_block_id(15, 2**20 + 3), 4321)
    frame = get_codec(codec).encode(
        15, MessageKinds.SYNC_REQUEST, Channel.CONSENSUS, request
    )
    decoded = get_codec(codec).decode(frame[4:])
    assert decoded == (15, MessageKinds.SYNC_REQUEST, Channel.CONSENSUS,
                       request)
    assert type(decoded[3]) is tuple
    assert list(MESSAGE_REGISTRY).index(MessageKinds.SYNC_REQUEST) == 14


@given(any_message)
@settings(max_examples=300)
def test_payload_round_trip_over_full_registry(message):
    _, payload = message
    assert from_wire(to_wire(payload)) == payload


@given(any_message, st.sampled_from(list(Channel)), nodes)
@settings(max_examples=100)
def test_frame_round_trip(message, channel, src):
    kind, payload = message
    frame = encode_frame(src, kind, channel, payload)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    got_src, got_kind, got_channel, got_payload = decode_frame(frame[4:])
    assert (got_src, got_kind, got_channel) == (src, kind, channel)
    assert got_payload == payload


@given(any_message, st.sampled_from(list(Channel)), nodes)
@settings(max_examples=300)
def test_binary_frame_round_trip_over_full_registry(message, channel, src):
    kind, payload = message
    frame = encode_frame_binary(src, kind, channel, payload)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    decoded = decode_frame_binary(frame[4:])
    assert decoded == (src, kind, channel, payload)
    # Tuple-ness survives the positional encoding too.
    if isinstance(payload, tuple):
        assert isinstance(decoded[3], tuple)


@given(any_message, st.sampled_from(list(Channel)))
@settings(max_examples=100)
def test_binary_frames_are_smaller_than_json(message, channel):
    kind, payload = message
    json_frame = encode_frame(3, kind, channel, payload)
    binary_frame = encode_frame_binary(3, kind, channel, payload)
    assert len(binary_frame) < len(json_frame)


def test_binary_codec_preserves_extreme_ints_and_negatives():
    for value in (0, -1, 1, 2**34 | 7, -(2**40), 2**80, -(2**80)):
        frame = encode_frame_binary(
            -1, MessageKinds.FETCH_REQUEST, Channel.CONTROL, value
        )
        assert decode_frame_binary(frame[4:])[3] == value


def test_binary_codec_rejects_unregistered_kind():
    with pytest.raises(WireError, match="MESSAGE_REGISTRY"):
        encode_frame_binary(0, "made.up", Channel.DATA, 1)


def test_tuples_survive_as_tuples():
    decoded = from_wire(to_wire((1, (2, 3), [4, 5])))
    assert decoded == (1, (2, 3), [4, 5])
    assert isinstance(decoded, tuple)
    assert isinstance(decoded[1], tuple)
    assert isinstance(decoded[2], list)


def test_int_keyed_dict_round_trips():
    payload = {1: "a", 2: (3, 4)}
    assert from_wire(to_wire(payload)) == payload


def test_binary_containers_round_trip_structurally():
    payload = (1, (2, 3), [4, [5]], {1: "a", "b": (True, None, 2.5)})
    frame = encode_frame_binary(0, MessageKinds.LB_INFO, Channel.DATA, payload)
    decoded = decode_frame_binary(frame[4:])[3]
    assert decoded == payload
    assert isinstance(decoded, tuple)
    assert isinstance(decoded[1], tuple)
    assert isinstance(decoded[2], list)
    assert isinstance(decoded[3]["b"], tuple)


# -- purity assertion --------------------------------------------------------

def test_sim_timer_is_rejected():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    with pytest.raises(WireError, match="pure data"):
        to_wire(timer)


def test_arbitrary_object_is_rejected():
    class NotWire:
        pass

    with pytest.raises(WireError, match="pure data"):
        to_wire(NotWire())
    with pytest.raises(WireError, match="pure data"):
        to_wire((1, NotWire()))  # nested inside a tuple


def test_unregistered_dataclass_is_rejected():
    import dataclasses

    @dataclasses.dataclass
    class Sneaky:
        x: int = 1

    with pytest.raises(WireError, match="pure data"):
        to_wire(Sneaky())


def test_non_finite_floats_are_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(WireError, match="non-finite"):
            to_wire(bad)


def test_binary_codec_asserts_purity_too():
    class NotWire:
        pass

    for bad in (NotWire(), (1, NotWire())):
        with pytest.raises(WireError, match="pure data"):
            encode_frame_binary(0, MessageKinds.VOTE, Channel.CONSENSUS, bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(WireError, match="non-finite"):
            encode_frame_binary(
                0, MessageKinds.FETCH_REQUEST, Channel.CONTROL, bad
            )


def test_unknown_tag_is_rejected_on_decode():
    with pytest.raises(WireError, match="unknown wire tag"):
        from_wire({"__t__": "EvilType", "v": {}})


# -- framing -----------------------------------------------------------------

def _sample_frames(count, codec="json"):
    encode = get_codec(codec).encode
    return [
        encode(
            node, MessageKinds.FETCH_REQUEST, Channel.CONTROL, node * 17
        )
        for node in range(count)
    ]


def test_frame_decoder_handles_byte_by_byte_feed():
    frames = _sample_frames(3)
    stream = b"".join(frames)
    decoder = FrameDecoder("json")
    messages = []
    for i in range(len(stream)):
        messages.extend(decoder.feed(stream[i:i + 1]))
    assert [payload for _, _, _, payload in messages] == [0, 17, 34]


def test_frame_decoder_handles_coalesced_frames():
    frames = _sample_frames(5)
    decoder = FrameDecoder("json")
    messages = list(decoder.feed(b"".join(frames)))
    assert len(messages) == 5
    assert [src for src, _, _, _ in messages] == list(range(5))


def test_frame_decoder_rejects_oversized_length_prefix():
    decoder = FrameDecoder("json")
    with pytest.raises(WireError, match="exceeds limit"):
        list(decoder.feed(struct.pack(">I", 2**31) + b"xxxx"))


def test_malformed_frame_body_raises_wire_error():
    with pytest.raises(WireError, match="malformed"):
        decode_frame(b"not json at all")
    with pytest.raises(WireError, match="malformed"):
        decode_frame(b'{"src": 1}')  # missing keys


def test_frame_decoder_burst_reassembly_is_linear():
    """Regression for the O(total**2) ``del buffer[:end]`` reassembly.

    A coalesced burst of tens of thousands of frames arriving in one
    read must cost O(total); the old per-frame prefix deletion moved
    gigabytes of buffer for this input and took tens of seconds.
    """
    count = 30_000
    encode = get_codec("binary").encode
    stream = b"".join(
        encode(1, MessageKinds.RB_ECHO, Channel.CONTROL, index)
        for index in range(count)
    )
    decoder = FrameDecoder("binary")
    started = time.perf_counter()
    payloads = [payload for _, _, _, payload in decoder.feed(stream)]
    elapsed = time.perf_counter() - started
    assert payloads == list(range(count))
    # Fully consumed input leaves no buffered residue behind.
    assert len(decoder._buffer) == 0 and decoder._offset == 0
    # Generous bound: the linear decoder finishes in well under a
    # second; the quadratic one needed tens of seconds.
    assert elapsed < 5.0, f"burst reassembly took {elapsed:.1f}s"


def test_frame_decoder_keeps_partial_frame_across_burst_feeds():
    frames = _sample_frames(100, codec="binary")
    stream = b"".join(frames)
    split = len(stream) - 3  # tear the final frame
    decoder = FrameDecoder("binary")
    first = list(decoder.feed(stream[:split]))
    assert len(first) == 99
    rest = list(decoder.feed(stream[split:]))
    assert len(rest) == 1
    assert rest[0][3] == 99 * 17


# -- foreign streams ---------------------------------------------------------
#
# A run's codec comes from its spawn spec and nothing on the wire names
# it: bytes in the other codec, or from no wire at all, must fail the
# frame-length cap or the strict body decode.

def _stream(codec_name, messages=3):
    encode = get_codec(codec_name).encode
    return b"".join(
        encode(7, MessageKinds.RB_READY, Channel.CONTROL, index)
        for index in range(messages)
    )


def test_mixed_codec_stream_is_rejected():
    for codec_name, foreign in (("binary", "json"), ("json", "binary")):
        decoder = FrameDecoder(codec_name)
        with pytest.raises(WireError, match="malformed frame"):
            list(decoder.feed(_stream(foreign)))


def test_non_wire_stream_is_rejected():
    for codec_name in sorted(CODECS):
        decoder = FrameDecoder(codec_name)
        with pytest.raises(WireError, match="exceeds limit"):
            list(decoder.feed(b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n"))


# -- decoder fuzz ------------------------------------------------------------

@given(
    st.lists(st.integers(0, 2**40), min_size=1, max_size=30),
    st.data(),
    st.sampled_from(sorted(CODECS)),
)
@settings(max_examples=60)
def test_torn_stream_reassembles_exactly(payload_ids, data, codec_name):
    """Arbitrary tearing of a multi-frame stream never loses or reorders
    a message — the incremental decoder is split-point oblivious."""
    codec = get_codec(codec_name)
    stream = b"".join(
        codec.encode(0, MessageKinds.FETCH_REQUEST, Channel.CONTROL, value)
        for value in payload_ids
    )
    decoder = FrameDecoder(codec_name)
    received = []
    position = 0
    while position < len(stream):
        step = data.draw(st.integers(1, len(stream) - position))
        received.extend(
            payload for _, _, _, payload
            in decoder.feed(stream[position:position + step])
        )
        position += step
    assert received == payload_ids


@given(st.binary(min_size=0, max_size=256))
@settings(max_examples=200)
def test_garbage_binary_body_raises_wire_error_not_crash(body):
    """Any byte soup either decodes or raises WireError — never an
    unhandled IndexError/struct.error/UnicodeDecodeError escape."""
    try:
        decode_frame_binary(body)
    except WireError:
        pass


@given(st.binary(min_size=0, max_size=256))
@settings(max_examples=100)
def test_garbage_json_body_raises_wire_error_not_crash(body):
    try:
        decode_frame(body)
    except WireError:
        pass


def test_oversized_frame_rejected_by_both_codecs():
    from repro.live.wire import MAX_FRAME_BYTES

    for codec_name in sorted(CODECS):
        decoder = FrameDecoder(codec_name)
        with pytest.raises(WireError, match="exceeds limit"):
            list(decoder.feed(
                struct.pack(">I", MAX_FRAME_BYTES + 1) + b"xxxx"
            ))
    # And at encode time: a pathological payload fails fast.
    with pytest.raises(WireError, match="too large"):
        encode_frame_binary(
            0, MessageKinds.FETCH_REQUEST, Channel.CONTROL,
            "x" * (MAX_FRAME_BYTES + 1),
        )
