"""Wire layer for the process backend: zero-copy framing + codec plumbing.

Every frame on a worker socket is::

    [u32 frame length][u32 header length][header JSON][array part buffers]

The header is a small JSON document carrying the message kind, its
fields, an optional delivery ``delay`` (the emulated downlink occupancy
the receiver sleeps out — the :class:`~repro.runtime.transport.Mailbox`
contract) and the sender's *logical* byte count (``nbytes`` — what the
run's accounting charges, independent of compression).  Array data
travels as raw buffers appended after the header; nothing is ever
pickled.

The codec is derived from the :mod:`repro.runtime.messages` dataclasses:
each class's type hints compile once into an encoder/decoder pair, and
declaration order is the codec.  A field's header value follows its
annotation — a JSON scalar as itself, a nested dataclass as an object, a
``Tuple``/``List`` as a list, an empty ``Optional`` as ``null``, and an
array (``Gradient``/``Weights``/``BnStat`` name its codec role) as its
codec entry, whose buffers follow the header in field order.  Any other
annotation fails when the plan is built, naming ``Class.field``; decode
builds only registered message classes and turns every malformed input
into :class:`WireError`.

The data plane is zero-copy in both directions:

* **send** — :func:`encode_message_into` returns ``(prefix, buffers)``
  where the buffers are the codec's contiguous arrays themselves;
  :meth:`FrameConnection.send_message` hands them to a vectored
  ``socket.sendmsg`` with no payload join.
* **receive** — :meth:`FrameConnection.read_frame` fills a reusable
  per-connection buffer via ``recv_into`` and returns a read-only view
  of it (valid until the next read); :func:`decode` builds arrays as
  ``np.frombuffer`` views with ``copy=False``.  A view a decoded message
  keeps is copied (a cast, like ``GradientPayload``'s float64, already
  is one), so a decoded message never aliases the receive buffer.

Two frame flavors share the transport:

* **message frames** — one :mod:`repro.runtime.messages` envelope each;
  :func:`encode_message` / :func:`decode` are exact inverses for every
  type (property-tested in ``tests/runtime/test_wire.py``).
* **control frames** — :class:`ControlFrame` documents for handshakes
  (proc hello/config/ready/start/error and the fleet protocol both ride
  this one typed helper); :func:`decode` returns the doc dict itself.

Version negotiation: the header carries ``v`` and :func:`decode` runs the
single :func:`check_protocol_version` path, so a peer speaking another
version is rejected with a reason on its first frame rather than failing
opaquely mid-run.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import (
    Annotated,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.runtime import codecs as codecs_mod
from repro.runtime.codecs import (
    GradientCodec,
    RAW32,
    ROLE_BN,
    ROLE_GRAD,
    ROLE_WEIGHTS,
    decode_array,
    entry_nbytes,
)
from repro.runtime.messages import MESSAGE_TYPES, Message

#: bumped whenever the header schema or codec tables change incompatibly;
#: v2 = codec-entry array metadata + logical ``nbytes`` in the header;
#: v3 = fields derived from the message dataclasses, entries inline
PROTOCOL_VERSION = 3

#: refuse frames beyond this size — enforced on *both* ends: a corrupt
#: length prefix must not trigger a gigabyte allocation, and an oversized
#: send must fail loudly here, not opaquely on the peer
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct(">I")

class WireError(RuntimeError):
    """Malformed frame, unknown message kind, or protocol violation."""


class ConnectionClosed(WireError):
    """The peer closed the socket mid-stream (EOF before a full frame)."""


class ProtocolMismatch(WireError):
    """The peer speaks a different protocol version (reject with reason)."""


def check_protocol_version(
    got: Any, want: int, label: str = "wire", error: type = ProtocolMismatch
) -> None:
    """The one version gate every protocol layer routes through."""
    if got != want:
        raise error(f"{label} protocol mismatch: peer speaks v{got}, we speak v{want}")


# ---------------------------------------------------------------------- #
# typed control frames (proc handshake + fleet protocol share this shape)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ControlFrame:
    """One typed handshake/control document: ``kind`` + ``body`` + version.

    ``v`` defaults to the wire protocol version at serialization time;
    higher-level protocols with their own versioning (fleet) pass theirs
    explicitly.  ``to_doc``/``from_doc`` are exact JSON-able inverses.
    """

    kind: str
    body: Dict[str, Any] = field(default_factory=dict)
    v: Optional[int] = None

    def to_doc(self) -> Dict[str, Any]:
        version = PROTOCOL_VERSION if self.v is None else int(self.v)
        return {"ctl": self.kind, "cv": version, "body": dict(self.body)}

    @classmethod
    def from_doc(
        cls,
        doc: Any,
        expect_version: Optional[int] = None,
        label: str = "control",
        error: type = WireError,
    ) -> "ControlFrame":
        if not isinstance(doc, dict) or "ctl" not in doc:
            raise error(f"not a {label} frame: {doc!r}")
        if expect_version is not None:
            # skew gets the dedicated subclass so handshakes can reject
            # with a reason instead of treating the peer as garbage
            mismatch = ProtocolMismatch if error is WireError else error
            check_protocol_version(doc.get("cv"), expect_version, label, mismatch)
        body = doc.get("body")
        if body is None:
            body = {}
        if not isinstance(body, dict):
            raise error(f"{label} frame body must be a dict, got {type(body).__name__}")
        return cls(str(doc["ctl"]), dict(body), v=doc.get("cv"))


# ---------------------------------------------------------------------- #
# the codec, derived from the message dataclasses
# ---------------------------------------------------------------------- #
_Encode = Callable[[Any, "_Encoding"], Any]
_Decode = Callable[[Any, Any], Any]

_ROLES = (ROLE_GRAD, ROLE_WEIGHTS, ROLE_BN)
_JSON_SCALARS = (bool, int, float, str, type(None))


class _Encoding:
    """One message's array output: codec entries and the buffers to send."""

    def __init__(self, codec: GradientCodec) -> None:
        self.codec = codec
        self.entries: List[Dict[str, Any]] = []
        self.buffers: List[np.ndarray] = []

    def array(self, role: str, array: np.ndarray) -> Dict[str, Any]:
        entry, buffers = self.codec.encode(role, array)
        self.entries.append(entry)
        self.buffers.extend(buffers)
        return entry


class _FrameArrays:
    """Array source for one frame decode: the payload after the header."""

    def __init__(self, payload: memoryview, copy: bool) -> None:
        self._payload = payload
        self._copy = copy
        self._offset = 0
        # the memory a kept array must not share (none when copying)
        self._base = None if copy else np.frombuffer(payload, dtype=np.uint8)

    def take(self, entry: Any) -> np.ndarray:
        if not isinstance(entry, dict):
            raise WireError(f"array entry must be an object, got {entry!r}")
        parts: List[np.ndarray] = []
        for part in entry.get("parts", ()):
            dtype_name = part.get("dtype") if isinstance(part, dict) else None
            if dtype_name not in codecs_mod.PART_DTYPES:
                raise WireError(f"disallowed array part dtype {dtype_name!r}")
            dtype = np.dtype(dtype_name)
            n = int(part.get("n", 0))
            nbytes = n * dtype.itemsize
            remaining = self._payload.nbytes - self._offset
            if n < 0 or nbytes > remaining:
                raise WireError(
                    f"array payload truncated: expected {nbytes} bytes, got {remaining}"
                )
            parts.append(
                np.frombuffer(self._payload, dtype=dtype, count=n, offset=self._offset)
            )
            self._offset += nbytes
        # decode allocates from a peer-controlled shape (topk densifies):
        # no array may outgrow what a raw32 frame could have carried
        if codecs_mod._shape_size(entry.get("shape", ())) > MAX_FRAME_BYTES // 4:
            raise WireError(f"array shape {entry.get('shape')!r} exceeds the frame cap")
        return decode_array(entry, parts, copy=self._copy)[0]

    def own(self, value: Any) -> Any:
        """``value``, copied if it is an array viewing the receive buffer."""
        if (
            self._base is not None
            and isinstance(value, np.ndarray)
            and np.may_share_memory(value, self._base)
        ):
            return value.copy()
        return value

    def finish(self) -> None:
        unclaimed = self._payload.nbytes - self._offset
        if unclaimed:
            raise WireError(f"frame carries {unclaimed} unclaimed payload byte(s)")


class _BufferArrays:
    """Array source for an in-memory round trip: the encoder's own buffers."""

    def __init__(self, buffers: List[np.ndarray]) -> None:
        self._buffers = iter(buffers)

    def take(self, entry: Dict[str, Any]) -> np.ndarray:
        parts = [next(self._buffers) for _ in entry["parts"]]
        return decode_array(entry, parts, copy=False)[0]

    def own(self, value: Any) -> Any:
        return value


def _compile(hint: Any, where: str) -> Tuple[_Encode, _Decode]:
    """The (encode, decode) pair for one annotation; ``where`` is the
    ``Class.field`` it belongs to, named in every error."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in (bool, int, float, str):

        def decode_scalar(doc, arrays):
            if type(doc) is not hint:
                raise WireError(f"{where} must be {hint.__name__}, got {doc!r}")
            return doc

        return (lambda value, out: hint(value)), decode_scalar
    if origin is Annotated and args[0] is np.ndarray and args[1] in _ROLES:
        role = args[1]
        return (lambda value, out: out.array(role, value)), (
            lambda doc, arrays: arrays.take(doc)
        )
    if origin is Union and len(args) == 2 and type(None) in args:
        enc, dec = _compile(next(arg for arg in args if arg is not type(None)), where)
        return (lambda value, out: None if value is None else enc(value, out)), (
            lambda doc, arrays: None if doc is None else dec(doc, arrays)
        )
    if origin is Union and all(arg in _JSON_SCALARS for arg in args):

        def decode_json(doc, arrays):
            if type(doc) not in args:
                raise WireError(f"{where} must be a JSON scalar, got {doc!r}")
            return doc

        return (lambda value, out: value), decode_json
    if (origin is list and len(args) == 1) or (
        origin is tuple and len(args) == 2 and args[1] is Ellipsis
    ):
        enc, dec = _compile(args[0], where)

        def decode_seq(doc, arrays):
            if type(doc) is not list:
                raise WireError(f"{where} must be a list, got {doc!r}")
            return origin(arrays.own(dec(item, arrays)) for item in doc)

        return (lambda value, out: [enc(item, out) for item in value]), decode_seq
    if origin is tuple and args and Ellipsis not in args:
        items = [_compile(arg, where) for arg in args]

        def decode_fixed(doc, arrays):
            if type(doc) is not list or len(doc) != len(items):
                raise WireError(f"{where} must be a {len(items)}-item list, got {doc!r}")
            return tuple(arrays.own(dec(item, arrays)) for (_, dec), item in zip(items, doc))

        return (
            lambda value, out: [enc(item, out) for (enc, _), item in zip(items, value)]
        ), decode_fixed
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return _plan(hint)
    raise TypeError(f"{where}: unsupported wire annotation {hint!r}")


#: (encode, decode) per dataclass, built once per class
_PLANS: Dict[type, Tuple[_Encode, _Decode]] = {}


def _plan(cls: type) -> Tuple[_Encode, _Decode]:
    """A dataclass's codec: its fields as an object, in declaration order."""
    plan = _PLANS.get(cls)
    if plan is not None:
        return plan
    hints = get_type_hints(cls, include_extras=True)
    fields = []
    for f in dataclasses.fields(cls):
        where = f"{cls.__name__}.{f.name}"
        if not f.init:
            raise TypeError(f"{where}: an init=False field cannot be rebuilt on decode")
        fields.append((f.name, *_compile(hints[f.name], where)))

    def encode(value, out):
        return {name: enc(getattr(value, name), out) for name, enc, _ in fields}

    def decode(doc, arrays):
        if not isinstance(doc, dict):
            raise WireError(f"{cls.__name__} must be an object, got {doc!r}")
        obj = cls(**{name: dec(doc[name], arrays) for name, _, dec in fields})
        # a field the class kept as given may still view the receive
        # buffer (one it cast, like GradientPayload.grad, owns its copy)
        for name, _, _ in fields:
            value = getattr(obj, name)
            if isinstance(value, np.ndarray):
                object.__setattr__(obj, name, arrays.own(value))
        return obj

    plan = _PLANS[cls] = (encode, decode)
    return plan


# every class in repro.runtime.messages is checked here, at import
for _message_cls in tuple(MESSAGE_TYPES.values()):
    _plan(_message_cls)
del _message_cls


# ---------------------------------------------------------------------- #
# frame encode/decode
# ---------------------------------------------------------------------- #
def _encode(
    message: Message, codec: Optional[GradientCodec]
) -> Tuple[str, Dict[str, Any], _Encoding]:
    """(kind, header fields, array output) for one envelope."""
    cls = type(message)
    if MESSAGE_TYPES.get(cls.__name__) is not cls:
        raise WireError(f"no wire codec for {cls.__name__}")
    out = _Encoding(codec or RAW32)
    return cls.__name__, _plan(cls)[0](message, out), out


def _pack_header(header: Dict[str, Any]) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(header_bytes)) + header_bytes


def encode_message_into(
    message: Message,
    delay: float = 0.0,
    nbytes: int = 0,
    codec: Optional[GradientCodec] = None,
) -> Tuple[bytes, List[np.ndarray]]:
    """Serialize one envelope without joining the payload.

    Returns ``(prefix, buffers)``: the prefix is the header-length word
    plus the header JSON; the buffers are the codec's contiguous arrays,
    ready for a vectored send.  ``nbytes`` is the sender's logical byte
    count, carried in the header so both ends account identically.
    """
    kind, fields, out = _encode(message, codec)
    header = {
        "v": PROTOCOL_VERSION,
        "kind": kind,
        "delay": float(delay),
        "nbytes": int(nbytes),
        "fields": fields,
    }
    return _pack_header(header), out.buffers


def encode_message(
    message: Message,
    delay: float = 0.0,
    nbytes: int = 0,
    codec: Optional[GradientCodec] = None,
) -> bytes:
    """Joined-payload variant of :func:`encode_message_into` (tests, and
    transports without vectored sends)."""
    prefix, buffers = encode_message_into(message, delay=delay, nbytes=nbytes, codec=codec)
    return b"".join([prefix] + [memoryview(b).cast("B") for b in buffers])


def encode_control(doc: Dict[str, Any]) -> bytes:
    """Serialize a control document (a :class:`ControlFrame` doc or any
    plain JSON dict)."""
    return _pack_header({"v": PROTOCOL_VERSION, "kind": "control", "fields": doc})


def decode_frame(
    payload: Union[bytes, bytearray, memoryview], copy: bool = True
) -> Tuple[Union[Message, Dict[str, Any]], float, int]:
    """Inverse of :func:`encode_message` / :func:`encode_control`.

    Returns ``(message, delay, logical_nbytes)`` for message frames and
    ``(doc, 0.0, 0)`` for control frames.  With ``copy=False`` array data
    is read straight out of ``payload`` with no intermediate copy; a
    decoded message still never aliases the buffer.  Every malformed
    input raises :class:`WireError`.
    """
    view = memoryview(payload)
    if view.nbytes < _LEN.size:
        raise WireError(f"frame too short for a header length ({view.nbytes} bytes)")
    (header_len,) = _LEN.unpack_from(view)
    if header_len > view.nbytes - _LEN.size:
        raise WireError(f"header length {header_len} exceeds frame size {view.nbytes}")
    try:
        header = json.loads(bytes(view[_LEN.size : _LEN.size + header_len]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"unparseable frame header: {exc}")
    if not isinstance(header, dict):
        raise WireError(f"frame header must be an object, got {type(header).__name__}")
    check_protocol_version(header.get("v"), PROTOCOL_VERSION)
    kind = header.get("kind")
    try:
        if kind == "control":
            doc = header.get("fields")
            if not isinstance(doc, dict):
                raise WireError(f"control fields must be an object, got {doc!r}")
            return dict(doc), 0.0, 0
        cls = MESSAGE_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise WireError(f"unknown message kind {kind!r}")
        delay = float(header.get("delay", 0.0))
        if not 0.0 <= delay < float("inf"):
            raise WireError(f"delivery delay must be finite and >= 0, got {delay}")
        nbytes = int(header.get("nbytes", 0))
        arrays = _FrameArrays(view[_LEN.size + header_len :], copy)
        message = _plan(cls)[1](header["fields"], arrays)
        arrays.finish()
        return message, delay, nbytes
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        # well framed but malformed (a wrong field type, or a class's own
        # check such as WorkerState's finite loss): still a wire error
        raise WireError(f"malformed {kind!r} frame: {exc!r}") from exc


def decode(
    payload: Union[bytes, bytearray, memoryview], copy: bool = True
) -> Tuple[Union[Message, Dict[str, Any]], float]:
    """:func:`decode_frame` without the byte accounting: ``(obj, delay)``."""
    obj, delay, _ = decode_frame(payload, copy=copy)
    return obj, delay


def codec_roundtrip_message(
    message: Message, codec: GradientCodec, nbytes: int
) -> Tuple[Message, int]:
    """Apply a codec's lossy encode/decode to an in-memory message.

    What the in-process transports use to emulate compression without a
    socket: returns the message as the peer would decode it (through the
    same plan as a frame), plus the wire byte count (the logical
    ``nbytes`` with each array's float32 footprint swapped for its
    encoded footprint).
    """
    _, fields, out = _encode(message, codec)
    decoded = _plan(type(message))[1](fields, _BufferArrays(out.buffers))
    wire_nbytes = int(nbytes) + sum(
        entry_nbytes(entry) - 4 * codecs_mod._shape_size(entry["shape"])
        for entry in out.entries
    )
    return decoded, max(0, wire_nbytes)


# ---------------------------------------------------------------------- #
# socket framing
# ---------------------------------------------------------------------- #
class FrameConnection:
    """One framed, length-prefixed socket with a zero-copy data plane.

    Sends are vectored (``sendmsg`` over the codec's buffers, no join);
    reads fill a reusable per-connection buffer via ``recv_into`` and
    hand out read-only views of it.  ``codec`` is this connection's
    *outgoing* gradient codec (decode is stateless, so the two directions
    may run different codecs).

    Thread contract: at most one sender and one reader at a time; callers
    with multiple sending threads (e.g. the server actor plus a shutdown
    broadcast) hold their own per-connection send lock.
    """

    def __init__(self, sock: socket.socket, codec: Optional[GradientCodec] = None) -> None:
        self._sock = sock
        self.codec = codec
        self._len_buf = bytearray(_LEN.size)
        self._recv_buf = bytearray(4096)
        try:  # latency matters more than throughput for 4-message cycles
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, ValueError):
            pass  # not a TCP socket (tests use socketpair)

    # -------------------------------------------------------------- #
    def send_parts(self, parts: List[Union[bytes, memoryview, np.ndarray]]) -> int:
        """Vectored send of one frame; returns bytes put on the wire.

        Raises :class:`WireError` *here* when the frame exceeds
        :data:`MAX_FRAME_BYTES` — the sender-side half of the cap.
        """
        bufs = [memoryview(p).cast("B") for p in parts]
        total = sum(b.nbytes for b in bufs)
        if total > MAX_FRAME_BYTES:
            raise WireError(
                f"outgoing frame length {total} exceeds cap {MAX_FRAME_BYTES}"
            )
        bufs.insert(0, memoryview(_LEN.pack(total)))
        sendmsg = getattr(self._sock, "sendmsg", None)
        if sendmsg is None:  # pragma: no cover - all supported platforms have it
            self._sock.sendall(b"".join(bufs))
            return total + _LEN.size
        while bufs:
            sent = sendmsg(bufs)
            while sent > 0:
                if sent >= bufs[0].nbytes:
                    sent -= bufs[0].nbytes
                    bufs.pop(0)
                else:
                    bufs[0] = bufs[0][sent:]
                    sent = 0
        return total + _LEN.size

    def send_frame(self, payload: Union[bytes, memoryview]) -> int:
        return self.send_parts([payload])

    def send_message(
        self, message: Message, delay: float = 0.0, nbytes: int = 0
    ) -> int:
        """Encode with this connection's codec and send; returns wire bytes."""
        prefix, buffers = encode_message_into(
            message, delay=delay, nbytes=nbytes, codec=self.codec
        )
        return self.send_parts([prefix] + buffers)

    def send_control(self, doc: Dict[str, Any]) -> int:
        return self.send_frame(encode_control(doc))

    # -------------------------------------------------------------- #
    def _recv_exact_into(self, buf: Union[bytearray, memoryview], n: int) -> None:
        view = memoryview(buf)
        got = 0
        while got < n:
            received = self._sock.recv_into(view[got:n])
            if received == 0:
                raise ConnectionClosed("peer closed the connection mid-frame")
            got += received

    def read_frame(self) -> memoryview:
        """Read one frame into the reusable buffer; returns a read-only
        view of it, valid until the next :meth:`read_frame` call."""
        self._recv_exact_into(self._len_buf, _LEN.size)
        (length,) = _LEN.unpack(self._len_buf)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
        if len(self._recv_buf) < length:
            self._recv_buf = bytearray(max(length, 2 * len(self._recv_buf)))
        self._recv_exact_into(self._recv_buf, length)
        view = memoryview(self._recv_buf)[:length]
        return view.toreadonly() if hasattr(view, "toreadonly") else view

    def recv(self) -> Tuple[Union[Message, Dict[str, Any]], float]:
        """Read and decode the next frame: ``(message_or_doc, delay)``."""
        obj, delay, _, _ = self.recv_info()
        return obj, delay

    def recv_info(
        self,
    ) -> Tuple[Union[Message, Dict[str, Any]], float, int, int]:
        """Read and decode one frame with its byte accounting.

        Returns ``(message_or_doc, delay, logical_nbytes, wire_nbytes)``
        where ``wire_nbytes`` is what actually crossed the socket
        (length prefix included).
        """
        view = self.read_frame()
        obj, delay, nbytes = decode_frame(view, copy=False)
        return obj, delay, nbytes, view.nbytes + _LEN.size

    # -------------------------------------------------------------- #
    def settimeout(self, timeout: Union[float, None]) -> None:
        """Deadline for subsequent socket reads/writes (None = blocking)."""
        self._sock.settimeout(timeout)

    def shutdown_write(self) -> None:
        """Half-close: the peer reads EOF, this side can still read."""
        self._sock.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
