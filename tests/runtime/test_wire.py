"""Wire layer: every Message round-trips exactly; framing survives sockets;
malformed input of any shape is a WireError."""

import dataclasses
import json
import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import BnPair, CompensationReply, GradientPayload, Weights, WorkerState
from repro.runtime import messages
from repro.runtime.codecs import make_codec
from repro.runtime.messages import (
    MESSAGE_TYPES,
    BnStatsPush,
    CombinedPush,
    CompensationMessage,
    GossipReport,
    GradientPush,
    Message,
    PullReply,
    PullRequest,
    Shutdown,
    StatePush,
    TracePush,
    WeightExchange,
)
from repro.runtime import wire
from repro.runtime.wire import (
    ConnectionClosed,
    ControlFrame,
    FrameConnection,
    ProtocolMismatch,
    WireError,
    codec_roundtrip_message,
    decode,
    decode_frame,
    encode_control,
    encode_message,
)


def _state(worker=1, bn_layers=2):
    rng = np.random.default_rng(0)
    bn = [
        (rng.normal(size=4).astype(np.float32), rng.normal(size=4).astype(np.float32))
        for _ in range(bn_layers)
    ]
    return WorkerState(
        worker=worker, loss=0.731, bn_stats=bn, t_comm=0.01, t_comp=0.02, pull_version=5
    )


def _payload(worker=1, n=17):
    grad = np.random.default_rng(3).normal(size=n)
    return GradientPayload(worker=worker, grad=grad, pull_version=4, loss=0.9)


def _messages():
    weights = np.random.default_rng(1).normal(size=33).astype(np.float64)
    reply = CompensationReply(worker=2, l_delay=0.61, predicted_step=3, sensitivity=0.25)
    return [
        PullRequest(0, sent_at=1.25),
        PullReply(1, weights=weights, version=7, request_sent_at=0.5),
        PullReply(1, weights=None, version=-1),  # barrier-queued shape
        StatePush(1, state=_state()),
        StatePush(2, state=_state(worker=2, bn_layers=0)),  # local-BN: no stats
        CompensationMessage(2, reply=reply),
        CompensationMessage(2, reply=None),  # non-LC algorithms reply nothing
        GradientPush(1, payload=_payload()),
        CombinedPush(3, state=_state(worker=3), payload=_payload(worker=3)),
        Shutdown(),
        BnStatsPush(  # running stats are float64 in the model, float32 on the wire
            0,
            stats=tuple(
                (rng.normal(size=6), np.abs(rng.normal(size=6)) + 0.5)
                for rng in [np.random.default_rng(9)]
                for _ in range(2)
            ),
        ),
        BnStatsPush(0, stats=()),  # BN-free model
        WeightExchange(  # one side of an ad-psgd pairwise average
            2,
            weights=np.random.default_rng(5).normal(size=21),
            bn_stats=tuple(
                (rng.normal(size=3), np.abs(rng.normal(size=3)) + 0.1)
                for rng in [np.random.default_rng(6)]
                for _ in range(2)
            ),
            step=41,
        ),
        WeightExchange(3, weights=None, bn_stats=(), step=0),  # handshake shape
        GossipReport(1, loss=0.42, staleness=3, local_step=17),
        TracePush(  # [t, kind, worker, *fields] rows, header-only
            2, rows=([0.5, "span", 2, "fwd", 1.25], [0.75, "mark", 2, "done"])
        ),
        TracePush(1, rows=()),  # an obs child with nothing retained
    ]


def test_samples_cover_every_message_type():
    # coverage used to be a lint over a hand-written codec table; with the
    # codec derived from the dataclasses it is this test's job
    declared = {
        cls for cls in MESSAGE_TYPES.values() if cls.__module__ == messages.__name__
    }
    assert {type(m) for m in _messages()} == declared


def _assert_equal(original, decoded):
    assert type(decoded) is type(original)
    assert decoded.worker == original.worker
    if isinstance(original, PullRequest):
        assert decoded.sent_at == original.sent_at
    if isinstance(original, PullReply):
        assert decoded.version == original.version
        assert decoded.request_sent_at == original.request_sent_at
        if original.weights is None:
            assert decoded.weights is None
        else:  # float32 wire format: exact after the cast
            np.testing.assert_array_equal(
                decoded.weights, original.weights.astype(np.float32)
            )
    if isinstance(original, (StatePush, CombinedPush)):
        a, b = original.state, decoded.state
        assert (b.worker, b.pull_version) == (a.worker, a.pull_version)
        assert b.loss == pytest.approx(a.loss)
        assert (b.t_comm, b.t_comp) == (a.t_comm, a.t_comp)
        assert len(b.bn_stats) == len(a.bn_stats)
        for (m0, v0), (m1, v1) in zip(a.bn_stats, b.bn_stats):
            np.testing.assert_array_equal(m1, m0.astype(np.float32))
            np.testing.assert_array_equal(v1, v0.astype(np.float32))
    if isinstance(original, (GradientPush, CombinedPush)):
        a, b = original.payload, decoded.payload
        assert (b.worker, b.pull_version) == (a.worker, a.pull_version)
        assert b.loss == pytest.approx(a.loss)
        assert b.grad.dtype == np.float64  # GradientPayload restores math dtype
        assert b.nbytes == a.nbytes
        np.testing.assert_array_equal(b.grad, a.grad.astype(np.float32))
    if isinstance(original, WeightExchange):
        assert decoded.step == original.step
        if original.weights is None:
            assert decoded.weights is None
        else:
            np.testing.assert_array_equal(
                decoded.weights, original.weights.astype(np.float32)
            )
        assert len(decoded.bn_stats) == len(original.bn_stats)
        for (m0, v0), (m1, v1) in zip(original.bn_stats, decoded.bn_stats):
            np.testing.assert_array_equal(m1, np.asarray(m0, dtype=np.float32))
            np.testing.assert_array_equal(v1, np.asarray(v0, dtype=np.float32))
    if isinstance(original, GossipReport):
        assert decoded.loss == pytest.approx(original.loss)
        assert (decoded.staleness, decoded.local_step) == (
            original.staleness,
            original.local_step,
        )
    if isinstance(original, CompensationMessage):
        assert decoded.reply == original.reply
    if isinstance(original, TracePush):
        assert decoded.rows == original.rows
    if isinstance(original, BnStatsPush):
        assert len(decoded.stats) == len(original.stats)
        for (m0, v0), (m1, v1) in zip(original.stats, decoded.stats):
            np.testing.assert_array_equal(m1, np.asarray(m0, dtype=np.float32))
            np.testing.assert_array_equal(v1, np.asarray(v0, dtype=np.float32))


@pytest.mark.parametrize("message", _messages(), ids=lambda m: type(m).__name__)
def test_every_message_type_round_trips(message):
    decoded, delay = decode(encode_message(message, delay=0.125))
    assert delay == 0.125
    _assert_equal(message, decoded)


def test_control_frames_round_trip():
    doc = {"hello": 3, "token": "abc", "nested": {"x": [1, 2]}}
    decoded, delay = decode(encode_control(doc))
    assert decoded == doc and delay == 0.0


def test_decode_rejects_garbage():
    with pytest.raises(WireError):
        decode(b"\x00")  # too short for a header length
    with pytest.raises(WireError):
        decode(b"\x00\x00\x00\xffgarbage")  # header length beyond frame
    with pytest.raises(WireError):
        decode(encode_message(PullRequest(0))[:-1] + b"")  # fine, full...
    # wrong protocol version
    bad = encode_control({"x": 1}).replace(b'"v":%d' % wire.PROTOCOL_VERSION, b'"v":9')
    with pytest.raises(WireError, match="protocol mismatch"):
        decode(bad)


def test_v1_peer_rejected_with_reason():
    # a handcrafted frame exactly as a v1 sender would emit it: the single
    # check_protocol_version path must name both versions in the error
    header = json.dumps(
        {"v": 1, "kind": "control", "delay": 0.0, "fields": {"hello": 0}, "arrays": []}
    ).encode("utf-8")
    frame = wire._LEN.pack(len(header)) + header
    with pytest.raises(
        ProtocolMismatch, match=rf"peer speaks v1, we speak v{wire.PROTOCOL_VERSION}"
    ):
        decode(frame)


def test_control_frame_roundtrip():
    frame = ControlFrame("hello", {"worker": 3, "token": "t"})
    doc = frame.to_doc()
    assert doc == {
        "ctl": "hello",
        "cv": wire.PROTOCOL_VERSION,
        "body": {"worker": 3, "token": "t"},
    }
    back = ControlFrame.from_doc(doc, expect_version=wire.PROTOCOL_VERSION)
    assert back.kind == "hello" and back.body == {"worker": 3, "token": "t"}
    # the doc form survives the wire unchanged
    decoded, _ = decode(encode_control(doc))
    assert ControlFrame.from_doc(decoded).body == frame.body


def test_control_frame_version_and_shape_checks():
    doc = ControlFrame("hello", {}, v=1).to_doc()
    with pytest.raises(WireError, match="protocol mismatch"):
        ControlFrame.from_doc(doc, expect_version=wire.PROTOCOL_VERSION)
    with pytest.raises(WireError, match="not a control frame"):
        ControlFrame.from_doc({"hello": 0})
    with pytest.raises(WireError, match="body"):
        ControlFrame.from_doc({"ctl": "x", "cv": 2, "body": [1]})


def test_decode_rejects_truncated_arrays():
    frame = encode_message(GradientPush(0, payload=_payload(n=8)))
    with pytest.raises(WireError, match="truncated"):
        decode(frame[:-4])


def test_encode_rejects_unknown_message():
    class Rogue:
        pass

    with pytest.raises(WireError, match="no wire codec"):
        encode_message(Rogue())


def test_frame_connection_over_socketpair():
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        sent = _messages()
        # writer thread so large frames cannot deadlock the pair's buffers
        writer = threading.Thread(
            target=lambda: [a.send_message(m, delay=0.5) for m in sent]
        )
        writer.start()
        for original in sent:
            decoded, delay = b.recv()
            assert delay == 0.5
            _assert_equal(original, decoded)
        writer.join(timeout=10.0)
    finally:
        a.close()
        b.close()


def test_frame_connection_eof_raises_connection_closed():
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    a.close()
    with pytest.raises(ConnectionClosed):
        b.read_frame()
    b.close()


def test_frame_length_cap_enforced_both_ends(monkeypatch):
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16)
        # sender side: an oversized frame fails loudly here, before any
        # byte leaves (this used to slip through and die on the peer)
        with pytest.raises(WireError, match="outgoing frame length"):
            a.send_frame(b"x" * 64)
        # receiver side: a corrupt length prefix must not trigger a huge
        # allocation — write one straight past the sender-side check
        left.sendall(wire._LEN.pack(64))
        with pytest.raises(WireError, match="exceeds cap"):
            b.read_frame()
    finally:
        a.close()
        b.close()


def test_recv_info_reports_logical_and_wire_bytes():
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        message = GradientPush(1, payload=_payload(n=64))
        a.send_message(message, nbytes=64 * 4)
        decoded, delay, logical, wire_nbytes = b.recv_info()
        assert isinstance(decoded, GradientPush)
        assert logical == 256
        # raw32 wire = header + 4 bytes/element + framing, so > logical
        assert wire_nbytes > 256
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("codec_name", ["raw32", "fp16", "topk"])
def test_codec_negotiated_connection_roundtrip(codec_name):
    left, right = socket.socketpair()
    a = FrameConnection(left, codec=make_codec(codec_name))
    b = FrameConnection(right)
    try:
        n = 1024
        message = GradientPush(1, payload=_payload(n=n))
        sent_bytes = []
        writer = threading.Thread(
            target=lambda: sent_bytes.append(a.send_message(message, nbytes=n * 4))
        )
        writer.start()
        decoded, _, logical, wire_nbytes = b.recv_info()
        writer.join(timeout=10.0)
        assert sent_bytes[0] == wire_nbytes  # both ends count the same bytes
        assert logical == n * 4
        assert decoded.payload.grad.shape == (n,)
        grad = message.payload.grad
        if codec_name == "raw32":
            np.testing.assert_array_equal(decoded.payload.grad, grad.astype(np.float32))
        elif codec_name == "fp16":
            np.testing.assert_allclose(decoded.payload.grad, grad, rtol=2**-10, atol=1e-4)
            assert wire_nbytes < n * 4  # half-precision actually shrank the frame
        else:  # topk ships ceil(10%) of coordinates, exact where it ships
            nonzero = np.nonzero(decoded.payload.grad)[0]
            assert 1 <= len(nonzero) <= 103
            np.testing.assert_allclose(
                decoded.payload.grad[nonzero], grad[nonzero], rtol=1e-6
            )
    finally:
        a.close()
        b.close()


def test_decoded_messages_do_not_alias_recv_buffer():
    """The reusable receive buffer is overwritten by every read; anything a
    decoded message retains must therefore be owned, not borrowed."""
    left, right = socket.socketpair()
    a, b = FrameConnection(left), FrameConnection(right)
    try:
        first = BnStatsPush(0, stats=((np.ones(50), np.full(50, 2.0)),))
        second = BnStatsPush(0, stats=((np.full(50, 9.0), np.full(50, 8.0)),))
        a.send_message(first)
        a.send_message(second)
        d1, _ = b.recv()
        d2, _ = b.recv()  # overwrites the buffer d1 was decoded from
        np.testing.assert_array_equal(d1.stats[0][0], np.ones(50, dtype=np.float32))
        np.testing.assert_array_equal(d2.stats[0][0], np.full(50, 9.0, dtype=np.float32))
    finally:
        a.close()
        b.close()


def _arrays_in(value):
    """Every ndarray a decoded message holds, however deeply nested."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays_in(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item)


def test_no_decoded_message_keeps_a_view_of_the_frame():
    for message in _messages():
        frame = bytearray(encode_message(message))
        decoded, _, _ = decode_frame(memoryview(frame), copy=False)
        receive_buffer = np.frombuffer(frame, dtype=np.uint8)
        for array in _arrays_in(decoded):
            assert not np.may_share_memory(array, receive_buffer), type(message).__name__


# ---------------------------------------------------------------------- #
# the codec is derived: a new envelope needs no wire.py edit
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Probe(Message):
    """An envelope defined outside repro.runtime.messages."""

    label: str = ""
    scale: Optional[float] = None
    weights: Optional[Weights] = None
    payload: Optional[GradientPayload] = None
    pairs: Tuple[BnPair, ...] = ()
    history: List[int] = field(default_factory=list)


def _probe():
    rng = np.random.default_rng(11)
    return Probe(
        4,
        label="probe",
        scale=0.5,
        weights=rng.normal(size=12),
        payload=_payload(worker=4, n=40),
        pairs=((rng.normal(size=3), np.abs(rng.normal(size=3))),),
        history=[3, 1, 4],
    )


def _assert_probe(original, decoded, codec_name):
    assert type(decoded) is Probe
    assert (decoded.worker, decoded.label, decoded.scale) == (4, "probe", 0.5)
    assert decoded.history == [3, 1, 4]
    dense = np.testing.assert_array_equal
    if codec_name == "fp16":  # every role goes half precision
        dense = lambda a, b: np.testing.assert_allclose(a, b, rtol=2**-10, atol=1e-3)
    dense(decoded.weights, original.weights.astype(np.float32))
    (m0, v0), (m1, v1) = original.pairs[0], decoded.pairs[0]
    dense(m1, m0.astype(np.float32))
    dense(v1, v0.astype(np.float32))
    grad = decoded.payload.grad
    assert grad.dtype == np.float64 and grad.shape == (40,)
    if codec_name == "topk":  # only the gradient role is sparsified
        assert 1 <= np.count_nonzero(grad) <= 4
    else:
        dense(grad, original.payload.grad.astype(np.float32))


@pytest.mark.parametrize("codec_name", ["raw32", "fp16", "topk"])
def test_new_message_subclass_round_trips(codec_name):
    original = _probe()
    frame = encode_message(original, codec=make_codec(codec_name))
    decoded, _ = decode(frame)
    _assert_probe(original, decoded, codec_name)
    emulated, wire_nbytes = codec_roundtrip_message(
        original, make_codec(codec_name), nbytes=1000
    )
    _assert_probe(original, emulated, codec_name)
    if codec_name == "raw32":
        assert wire_nbytes == 1000
    else:
        assert wire_nbytes < 1000


@pytest.mark.parametrize("annotation", [dict, np.ndarray, Dict[str, float], List])
def test_unsupported_field_raises_naming_it(annotation):
    bad = dataclasses.make_dataclass(
        "Unwireable", [("junk", annotation, None)], bases=(Message,), frozen=True
    )
    with pytest.raises(TypeError, match=r"Unwireable\.junk"):
        encode_message(bad(0))


def test_message_kind_names_must_be_unique():
    with pytest.raises(TypeError, match="already taken"):
        type("PullRequest", (Message,), {})


# ---------------------------------------------------------------------- #
# robustness: well-framed but malformed input is always a WireError
# ---------------------------------------------------------------------- #
def _frame(header):
    raw = json.dumps(header).encode("utf-8")
    return wire._LEN.pack(len(raw)) + raw


def _header(kind, fields, **extra):
    return dict({"v": wire.PROTOCOL_VERSION, "kind": kind, "fields": fields}, **extra)


_PULL = {"worker": 0, "sent_at": 0.0}
_REPLY = {"worker": 0, "version": 1, "request_sent_at": 0.0}
_NAN_STATE = {"worker": 0, "loss": float("nan"), "bn_stats": [], "t_comm": 0.0,
              "t_comp": 0.0, "pull_version": 0}
_MISSING_ARRAY = {"enc": "raw", "shape": [3], "parts": [{"dtype": "float32", "n": 3}]}


@pytest.mark.parametrize(
    "header",
    [
        pytest.param(_header("PullRequest", {}), id="missing-fields"),
        pytest.param(_header("PullRequest", "x"), id="fields-not-object"),
        pytest.param(_header("PullRequest", dict(_PULL, worker="a")), id="str-worker"),
        pytest.param(_header("PullRequest", _PULL, delay="soon"), id="str-delay"),
        pytest.param(_header("PullRequest", _PULL, delay=-1.0), id="negative-delay"),
        pytest.param(_header("PullReply", dict(_REPLY, weights=True)), id="array-flag"),
        pytest.param(_header("PullReply", dict(_REPLY, weights=_MISSING_ARRAY)),
                     id="array-without-payload"),
        pytest.param(_header("TracePush", {"worker": 0, "rows": 5}), id="rows-int"),
        pytest.param(_header("TracePush", {"worker": 0, "rows": [[{"x": 1}]]}),
                     id="row-value-object"),
        pytest.param(_header("StatePush", {"worker": 0, "state": _NAN_STATE}),
                     id="nan-loss"),
        # a dataclass and the base class, but not registered messages
        pytest.param(_header("WorkerState", {}), id="unregistered-kind"),
        pytest.param(_header("Message", {"worker": 0}), id="base-kind"),
        pytest.param(_header(["PullRequest"], {}), id="kind-not-string"),
        pytest.param(_header("control", [1, 2]), id="control-fields-list"),
        pytest.param([1, 2], id="header-not-object"),
    ],
)
def test_malformed_headers_raise_wire_error(header):
    with pytest.raises(WireError):
        decode(_frame(header))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "raw", "f16", "topk", "float32", "int32", "x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["enc", "shape", "parts", "dtype", "n", "worker", "x"]),
        children,
        max_size=4,
    ),
    max_leaves=12,
)

_SAMPLES = _messages() + [_probe()]


def _valid_frame(data):
    message = data.draw(st.sampled_from(_SAMPLES))
    codec = data.draw(st.sampled_from(["raw32", "fp16", "topk"]))
    return encode_message(message, delay=0.25, nbytes=64, codec=make_codec(codec))


def _decode_or_wire_error(frame):
    for copy in (True, False):
        try:
            decode_frame(frame, copy=copy)
        except WireError:
            pass


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_header_docs_raise_only_wire_error(data):
    frame = _valid_frame(data)
    (header_len,) = wire._LEN.unpack_from(frame)
    header = json.loads(frame[4 : 4 + header_len])
    # replace one random subtree of a real header with arbitrary JSON
    root = node = {"header": header}
    key = "header"
    while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
        node = node[key]
        key = data.draw(
            st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node)))
        )
    node[key] = data.draw(_JSON)
    _decode_or_wire_error(_frame(root["header"]) + frame[4 + header_len :])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_truncated_frames_raise_wire_error(data):
    frame = _valid_frame(data)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(WireError):
        decode(frame[:cut])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bit_flipped_frames_raise_only_wire_error(data):
    frame = bytearray(_valid_frame(data))
    for _ in range(data.draw(st.integers(1, 3))):
        bit = data.draw(st.integers(0, 8 * len(frame) - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
    _decode_or_wire_error(bytes(frame))
