"""Length-prefixed binary wire codec for protocol payloads.

Every payload class in :mod:`repro.protocols.messages` — plus the value
types they carry (:class:`~repro.protocols.forward_list.ForwardList`,
:class:`~repro.protocols.forward_list.FLEntry`,
:class:`~repro.protocols.forward_list.TxnRef`,
:class:`~repro.locking.modes.LockMode`) and the plain containers the
fields use (ints, floats, strings, tuples, lists, dicts, None, bools) —
round-trips through a tagged, recursive binary encoding.

Framing is a 4-byte big-endian length prefix followed by the encoded
body. Decoding is strict: unknown tags, truncated bodies, trailing
garbage, and absurd frame lengths all raise :class:`CodecError` rather
than producing a partial value — a live endpoint must never act on a
half-read message.

The encoding is deliberately boring (no pickle, no reflection on the
receiving side): the decoder only ever constructs the fixed set of
payload classes below, so a malformed or hostile frame cannot instantiate
anything else.
"""

import dataclasses
import struct

from repro.locking.modes import LockMode
from repro.protocols.forward_list import FLEntry, ForwardList, TxnRef
from repro.protocols.messages import (
    AbortNotice,
    AbortRelease,
    CacheRecall,
    CacheRecallAck,
    ChainCommit,
    ChainCommitAck,
    CommitAck,
    CommitDecision,
    CommitRelease,
    DataShip,
    DecisionAck,
    GShip,
    HandoffNote,
    LockRequest,
    OutcomeQuery,
    OutcomeReply,
    PrepareRequest,
    PrepareVote,
    ReaderRelease,
    ReleaseWaiver,
    ReturnToServer,
    TxnDone,
)


class CodecError(ValueError):
    """A frame could not be encoded or decoded."""


#: Hard ceiling on one frame's body. Protocol payloads are tiny (the
#: largest is a GShip with a forward list); anything near this limit is a
#: corrupt or hostile length prefix, not a message.
MAX_FRAME_SIZE = 16 * 1024 * 1024

#: Every payload class the transport may carry, in a fixed order — the
#: index is the wire identifier, so the tuple order is part of the wire
#: format (append only).
MESSAGE_TYPES = (
    LockRequest,
    DataShip,
    CommitRelease,
    AbortRelease,
    AbortNotice,
    GShip,
    ReaderRelease,
    ReturnToServer,
    TxnDone,
    ChainCommit,
    ChainCommitAck,
    HandoffNote,
    ReleaseWaiver,
    CommitAck,
    CacheRecall,
    CacheRecallAck,
    PrepareRequest,
    PrepareVote,
    CommitDecision,
    DecisionAck,
    OutcomeQuery,
    OutcomeReply,
)

_MSG_INDEX = {cls: index for index, cls in enumerate(MESSAGE_TYPES)}
_MSG_FIELDS = {cls: tuple(f.name for f in dataclasses.fields(cls))
               for cls in MESSAGE_TYPES}

_HEADER = struct.Struct(">I")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

_MODE_CODE = {LockMode.READ: 0, LockMode.WRITE: 1}
_MODE_FROM_CODE = {0: LockMode.READ, 1: LockMode.WRITE}


# -- encoding ----------------------------------------------------------------

def _encode_int(out, value):
    out += b"i"
    length = value.bit_length() // 8 + 1  # two's complement width
    if length > 0xFFFF:
        raise CodecError(f"integer too large to encode ({length} bytes)")
    out += length.to_bytes(2, "big")
    out += value.to_bytes(length, "big", signed=True)


def _encode_sized(out, tag, payload):
    out += tag
    out += _U32.pack(len(payload))
    out += payload


def _encode_count(out, tag, count):
    out += tag
    out += _U32.pack(count)


def _encode(out, value):
    # Exact type checks: bool is an int subclass, and a LockMode is an
    # enum — dispatching on type() keeps each value on exactly one path.
    kind = type(value)
    if value is None:
        out += b"N"
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is int:
        _encode_int(out, value)
    elif kind is float:
        out += b"f"
        out += _F64.pack(value)
    elif kind is str:
        _encode_sized(out, b"s", value.encode("utf-8"))
    elif kind is bytes:
        _encode_sized(out, b"y", value)
    elif kind is tuple:
        _encode_count(out, b"t", len(value))
        for item in value:
            _encode(out, item)
    elif kind is list:
        _encode_count(out, b"l", len(value))
        for item in value:
            _encode(out, item)
    elif kind is dict:
        _encode_count(out, b"d", len(value))
        for key, item in value.items():
            _encode(out, key)
            _encode(out, item)
    elif kind is LockMode:
        out += b"M"
        out += bytes((_MODE_CODE[value],))
    elif kind is TxnRef:
        out += b"R"
        _encode(out, value.txn_id)
        _encode(out, value.client_id)
    elif kind is FLEntry:
        out += b"E"
        out += bytes((_MODE_CODE[value.mode],))
        _encode_count(out, b"t", len(value.txns))
        for ref in value.txns:
            _encode(out, ref)
    elif kind is ForwardList:
        _encode_count(out, b"L", len(value.entries))
        for entry in value.entries:
            _encode(out, entry)
    else:
        index = _MSG_INDEX.get(kind)
        if index is None:
            raise CodecError(f"cannot encode {kind.__name__!r} value")
        out += b"m"
        out += bytes((index,))
        for name in _MSG_FIELDS[kind]:
            _encode(out, getattr(value, name))


def encode(value):
    """Encode one value to its tagged binary body (no length prefix)."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def encode_frame(value):
    """Encode ``value`` as a complete length-prefixed frame."""
    body = encode(value)
    if len(body) > MAX_FRAME_SIZE:
        raise CodecError(f"frame body of {len(body)} bytes exceeds "
                         f"MAX_FRAME_SIZE ({MAX_FRAME_SIZE})")
    return _HEADER.pack(len(body)) + body


# -- decoding ----------------------------------------------------------------

def _need(data, offset, count):
    end = offset + count
    if end > len(data):
        raise CodecError(
            f"truncated frame: needed {count} bytes at offset {offset}, "
            f"have {len(data) - offset}")
    return end


def _decode_count(data, offset):
    end = _need(data, offset, 4)
    return _U32.unpack_from(data, offset)[0], end


def _decode_mode(data, offset):
    end = _need(data, offset, 1)
    mode = _MODE_FROM_CODE.get(data[offset])
    if mode is None:
        raise CodecError(f"unknown lock-mode code {data[offset]!r}")
    return mode, end


def _decode(data, offset):
    end = _need(data, offset, 1)
    tag = data[offset:end]
    offset = end
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"i":
        end = _need(data, offset, 2)
        length = int.from_bytes(data[offset:end], "big")
        offset = end
        end = _need(data, offset, length)
        return int.from_bytes(data[offset:end], "big", signed=True), end
    if tag == b"f":
        end = _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], end
    if tag == b"s":
        length, offset = _decode_count(data, offset)
        end = _need(data, offset, length)
        try:
            return data[offset:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string field: {exc}") from exc
    if tag == b"y":
        length, offset = _decode_count(data, offset)
        end = _need(data, offset, length)
        return bytes(data[offset:end]), end
    if tag in (b"t", b"l"):
        count, offset = _decode_count(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return (tuple(items) if tag == b"t" else items), offset
    if tag == b"d":
        count, offset = _decode_count(data, offset)
        result = {}
        for _ in range(count):
            key, offset = _decode(data, offset)
            value, offset = _decode(data, offset)
            result[key] = value
        return result, offset
    if tag == b"M":
        return _decode_mode(data, offset)
    if tag == b"R":
        txn_id, offset = _decode(data, offset)
        client_id, offset = _decode(data, offset)
        return TxnRef(txn_id=txn_id, client_id=client_id), offset
    if tag == b"E":
        mode, offset = _decode_mode(data, offset)
        txns, offset = _decode(data, offset)
        if not isinstance(txns, tuple) \
                or not all(type(ref) is TxnRef for ref in txns):
            raise CodecError("forward-list entry txns must be TxnRefs")
        try:
            return FLEntry(mode, txns), offset
        except ValueError as exc:
            raise CodecError(f"invalid forward-list entry: {exc}") from exc
    if tag == b"L":
        count, offset = _decode_count(data, offset)
        entries = []
        for _ in range(count):
            entry, offset = _decode(data, offset)
            if type(entry) is not FLEntry:
                raise CodecError("forward list may only contain FLEntry")
            entries.append(entry)
        return ForwardList(entries), offset
    if tag == b"m":
        end = _need(data, offset, 1)
        index = data[offset]
        offset = end
        if index >= len(MESSAGE_TYPES):
            raise CodecError(f"unknown message-type index {index}")
        cls = MESSAGE_TYPES[index]
        values = []
        for _ in _MSG_FIELDS[cls]:
            value, offset = _decode(data, offset)
            values.append(value)
        try:
            return cls(*values), offset
        except (TypeError, ValueError) as exc:
            raise CodecError(
                f"invalid {cls.__name__} payload: {exc}") from exc
    raise CodecError(f"unknown tag byte {tag!r} at offset {offset - 1}")


def decode(data):
    """Decode one value from a complete body; trailing bytes are an error."""
    value, offset = _decode(data, 0)
    if offset != len(data):
        raise CodecError(
            f"trailing garbage: {len(data) - offset} bytes after the value")
    return value


def decode_frame(data):
    """Decode one length-prefixed frame from the head of ``data``.

    Returns ``(value, bytes_consumed)``. Raises :class:`CodecError` if the
    buffer does not hold a complete, well-formed frame.
    """
    if len(data) < _HEADER.size:
        raise CodecError(
            f"truncated frame header: {len(data)} of {_HEADER.size} bytes")
    (length,) = _HEADER.unpack_from(data, 0)
    if length > MAX_FRAME_SIZE:
        raise CodecError(
            f"frame length {length} exceeds MAX_FRAME_SIZE "
            f"({MAX_FRAME_SIZE}); corrupt or hostile length prefix")
    end = _HEADER.size + length
    if len(data) < end:
        raise CodecError(
            f"truncated frame body: {len(data) - _HEADER.size} of "
            f"{length} bytes")
    return decode(bytes(data[_HEADER.size:end])), end
