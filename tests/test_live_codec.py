"""Round-trip property tests for the live wire codec.

Every payload class in ``repro.protocols.messages`` gets a hypothesis
strategy built from its real field shapes; encode → frame → decode must
reproduce an equal value. Truncations, bit flips, trailing garbage, and
hostile length prefixes must raise ``CodecError`` — never a partial or
wrong value, and never a non-CodecError crash.
"""

import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import codec
from repro.live.codec import (
    CodecError,
    MESSAGE_TYPES,
    decode,
    decode_frame,
    encode,
    encode_frame,
)
from repro.locking.modes import LockMode
from repro.protocols import messages
from repro.protocols.forward_list import FLEntry, ForwardList, TxnRef
from repro.protocols.messages import TxnDone

# -- strategies --------------------------------------------------------------

ids = st.integers(min_value=0, max_value=2**48)
any_ints = st.integers()  # arbitrary precision, both signs
floats = st.floats(allow_nan=False)
modes = st.sampled_from([LockMode.READ, LockMode.WRITE])
values = st.one_of(st.none(), st.text(max_size=20), any_ints, floats)

txn_refs = st.builds(TxnRef, txn_id=ids, client_id=ids)


def fl_entries():
    read_groups = st.builds(
        lambda refs: FLEntry(LockMode.READ, refs),
        st.lists(txn_refs, min_size=1, max_size=4).map(tuple))
    writers = st.builds(
        lambda ref: FLEntry(LockMode.WRITE, (ref,)), txn_refs)
    return st.one_of(read_groups, writers)


forward_lists = st.builds(
    ForwardList, st.lists(fl_entries(), max_size=4).map(tuple))

plain = st.one_of(
    st.none(), st.booleans(), any_ints, floats, st.text(max_size=30),
    st.binary(max_size=30))

containers = st.recursive(
    plain,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(any_ints, st.text(max_size=8)),
                        children, max_size=4)),
    max_leaves=12)


def _field_strategy(cls, field):
    """A value strategy matching one message field's real domain."""
    specials = {
        ("GShip", "fl_tail"): forward_lists,
        ("ReaderRelease", "fl_from_writer"):
            st.one_of(st.none(), forward_lists),
        ("GShip", "release_to"):
            st.one_of(st.none(), st.tuples(ids, ids)),
        ("GShip", "group"): st.lists(ids, max_size=4).map(tuple),
        ("ReaderRelease", "group"): st.lists(ids, max_size=4).map(tuple),
        ("GShip", "await_releases_from"):
            st.lists(ids, max_size=4).map(tuple),
        ("AbortNotice", "expect_items"): st.lists(ids, max_size=4).map(tuple),
        ("CommitRelease", "read_items"): st.lists(ids, max_size=4).map(tuple),
        ("CommitRelease", "updates"):
            st.dictionaries(ids, st.text(max_size=12), max_size=4),
        ("ChainCommit", "writes"):
            st.dictionaries(ids, st.tuples(ids, st.text(max_size=12)),
                            max_size=4),
        ("PrepareRequest", "updates"):
            st.dictionaries(ids, st.one_of(
                st.text(max_size=12),
                st.tuples(ids, st.text(max_size=12))), max_size=4),
        ("PrepareRequest", "read_items"): st.lists(ids, max_size=4).map(tuple),
        ("PrepareRequest", "participants"):
            st.lists(ids, max_size=4).map(tuple),
        ("CommitDecision", "updates"):
            st.one_of(st.none(),
                      st.dictionaries(ids, st.text(max_size=12), max_size=4)),
        ("OutcomeReply", "status"):
            st.sampled_from(["committed", "aborted", "prepared", "unknown"]),
    }
    key = (cls.__name__, field.name)
    if key in specials:
        return specials[key]
    name = field.name
    if name == "mode":
        return modes
    if name in ("value",):
        return values
    if name in ("commit_time",):
        return st.one_of(st.none(), floats)
    if name in ("reason",):
        return st.text(max_size=20)
    if name in ("final", "carries_data", "vote", "vote_request", "charge",
                "ack", "commit"):
        return st.booleans()
    if name in ("busy_txn", "client_id") and field.default is None:
        return st.one_of(st.none(), ids)
    return ids  # txn_id, item_id, version, epoch, from_txn, to_txn, ...


def message_strategy(cls):
    kwargs = {field.name: _field_strategy(cls, field)
              for field in dataclasses.fields(cls)}
    return st.builds(cls, **kwargs)


any_message = st.one_of([message_strategy(cls) for cls in MESSAGE_TYPES])


# -- round trips -------------------------------------------------------------

def test_every_messages_class_is_covered():
    """MESSAGE_TYPES must cover every payload dataclass in the module."""
    payload_classes = {
        obj for name, obj in vars(messages).items()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type)}
    assert payload_classes == set(MESSAGE_TYPES)


@pytest.mark.parametrize("cls", MESSAGE_TYPES,
                         ids=[cls.__name__ for cls in MESSAGE_TYPES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_message_round_trip(cls, data):
    message = data.draw(message_strategy(cls))
    decoded = decode(encode(message))
    assert type(decoded) is cls
    assert decoded == message


@pytest.mark.parametrize("cls", MESSAGE_TYPES,
                         ids=[cls.__name__ for cls in MESSAGE_TYPES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_message_pickles(cls, data):
    # Slotted, unfrozen dataclasses have no __dict__ and no generated
    # __getstate__; pickle (pool workers, LP pipes) must still carry them.
    message = data.draw(message_strategy(cls))
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        copy = pickle.loads(pickle.dumps(message, protocol=protocol))
        assert type(copy) is cls
        assert copy == message


def test_other_value_objects_pickle():
    from repro.network.reliable import Reliable, ReliableAck
    from repro.protocols.transaction import TxnOutcome
    from repro.storage.wal import LogRecord, LogRecordType
    from repro.workload.spec import Operation, TransactionSpec

    spec = TransactionSpec(operations=(
        Operation(item_id=1, mode=LockMode.READ, think_time=0.5),
        Operation(item_id=2, mode=LockMode.WRITE, think_time=1.5)))
    for value in (
            spec, TxnRef(txn_id=7, client_id=3),
            TxnOutcome(txn_id=7, client_id=3, committed=False,
                       start_time=1.0, end_time=4.0, n_ops=2, n_writes=1,
                       abort_reason="deadlock"),
            LogRecord(lsn=1, record_type=LogRecordType.UPDATE, txn=7,
                      item_id=2, version=3, timestamp=9.0),
            Reliable(inner=TxnDone(txn_id=7), seq=4,
                     incarnation=1),
            ReliableAck(seq=4, incarnation=1)):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value
    assert pickle.loads(pickle.dumps(spec)).n_writes == 1


@settings(max_examples=150, deadline=None)
@given(value=containers)
def test_container_round_trip(value):
    assert decode(encode(value)) == value


@settings(max_examples=60, deadline=None)
@given(fl=forward_lists)
def test_forward_list_round_trip(fl):
    decoded = decode(encode(fl))
    assert isinstance(decoded, ForwardList)
    assert decoded == fl
    assert [entry.mode for entry in decoded] == [entry.mode for entry in fl]


@settings(max_examples=60, deadline=None)
@given(message=any_message)
def test_frame_round_trip(message):
    frame = encode_frame(message)
    value, consumed = decode_frame(frame)
    assert consumed == len(frame)
    assert value == message


@settings(max_examples=60, deadline=None)
@given(message=any_message, trailer=st.binary(min_size=0, max_size=8))
def test_frame_ignores_bytes_after_frame(message, trailer):
    """decode_frame consumes exactly one frame off the head of a buffer."""
    frame = encode_frame(message)
    value, consumed = decode_frame(frame + trailer)
    assert consumed == len(frame)
    assert value == message


def test_nan_survives_by_bit_pattern():
    frame = encode_frame(float("nan"))
    value, _ = decode_frame(frame)
    assert math.isnan(value)


def test_bool_and_int_do_not_collapse():
    assert decode(encode(True)) is True
    assert decode(encode(1)) == 1
    assert type(decode(encode(1))) is int
    assert type(decode(encode(True))) is bool


def test_int_dict_keys_round_trip():
    value = {1: "a", -7: "b", 2**70: "c"}
    assert decode(encode(value)) == value


# -- rejection ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(message=any_message, cut=st.integers(min_value=1, max_value=64))
def test_truncated_frames_rejected(message, cut):
    frame = encode_frame(message)
    cut = min(cut, len(frame))
    with pytest.raises(CodecError):
        decode_frame(frame[:-cut])


@settings(max_examples=120, deadline=None)
@given(garbage=st.binary(min_size=0, max_size=64))
def test_garbage_never_crashes_decoder(garbage):
    """Arbitrary bytes either decode (harmlessly) or raise CodecError."""
    try:
        decode_frame(garbage)
    except CodecError:
        pass


@settings(max_examples=60, deadline=None)
@given(message=any_message, position=st.integers(min_value=0),
       flip=st.integers(min_value=1, max_value=255))
def test_bit_flips_never_crash_decoder(message, position, flip):
    frame = bytearray(encode_frame(message))
    position %= len(frame)
    frame[position] ^= flip
    try:
        decode_frame(bytes(frame))
    except CodecError:
        pass


def test_trailing_garbage_inside_frame_rejected():
    body = encode(TxnDone(txn_id=1)) + b"\x00"
    frame = struct.pack(">I", len(body)) + body
    with pytest.raises(CodecError, match="trailing garbage"):
        decode_frame(frame)


def test_hostile_length_prefix_rejected():
    frame = struct.pack(">I", codec.MAX_FRAME_SIZE + 1)
    with pytest.raises(CodecError, match="MAX_FRAME_SIZE"):
        decode_frame(frame)


def test_unknown_tag_rejected():
    body = b"Z"
    frame = struct.pack(">I", len(body)) + body
    with pytest.raises(CodecError, match="unknown tag"):
        decode_frame(frame)


def test_unknown_message_index_rejected():
    body = b"m" + bytes((len(MESSAGE_TYPES),))
    frame = struct.pack(">I", len(body)) + body
    with pytest.raises(CodecError, match="unknown message-type index"):
        decode_frame(frame)


def test_unencodable_value_rejected():
    with pytest.raises(CodecError, match="cannot encode"):
        encode(object())
