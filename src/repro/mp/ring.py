"""Shared-memory SPSC rings for the process backend.

A :class:`ShmRing` is the inter-process transport behind every
decoupling queue when ``EngineConfig.backend`` is ``"process"``: a
single-producer / single-consumer byte ring over one
``multiprocessing.shared_memory`` segment, carrying one *envelope* per
``push_many`` call, so one IPC crossing moves a whole micro-batch (the
PR-1 bulk-transfer protocol, across address spaces).

Layout of the segment::

    offset  size  field                       writer
    ------  ----  --------------------------  -----------------
    0       8     head  (bytes consumed)      consumer only
    8       8     tail  (bytes written)       producer only
    16      8     data capacity in bytes      creator, once
    24      8     reserved (zero)             creator, once
    32      ...   data region (byte ring)     producer writes,
                                              consumer reads

``head`` and ``tail`` are monotonically increasing 64-bit counters
addressed modulo the capacity.  Each side writes only its own counter
and reads the other's, so the only cross-process hazard is a stale (not
torn) read: 8-byte aligned stores are atomic on every platform CPython's
``mmap`` runs on, and a stale value merely under-reports available
data/space — never corrupts it.

An envelope on the wire is ``[u32 length][u8 kind][body]``, where the
length counts the kind byte and the body:

* ``INT`` / ``FLOAT`` — every item is exactly a
  :class:`~repro.streams.elements.StreamElement` whose value is exactly
  an ``int`` (not a ``bool``) or exactly a ``float``, and whose
  timestamp, seq and (``INT``) value fit in int64.  The body is three
  little-endian columns of ``n`` entries each: timestamps (int64), seqs
  (int64), values (int64 or float64), so ``n = (length - 1) // 24``.
* ``PICKLE`` — anything else (punctuations, mixed or other value types,
  out-of-range ints, ``StreamElement`` subclasses): the item list,
  pickled.

Decoding rebuilds each element with its original ``seq``, which FIFO
and Chain read through ``oldest_seq()`` across processes.  An envelope
that does not wrap is written and read in place in the segment; one
that wraps around the end of the data region is copied byte-wise.

The ring is *bounded*: ``try_push_batch`` returns False when the batch
does not fit, and the queue proxies in :mod:`repro.mp.queues` keep an
unbounded local spill so producers never block inside a dispatch (which
is what keeps pause/reconfigure quiescence deadlock-free — see
docs/multicore.md).
"""

from __future__ import annotations

import functools
import pickle
import struct
from multiprocessing import shared_memory
from typing import Any, List, Sequence

from repro.streams.elements import StreamElement

__all__ = [
    "ShmRing",
    "HEADER_BYTES",
    "DEFAULT_CAPACITY",
    "decode_batch",
    "encode_batch",
    "unlink_by_name",
]

_U64 = struct.Struct("<Q")
_COUNTERS = struct.Struct("<QQ")  # head, tail
_LEN = struct.Struct("<I")

#: Bytes reserved for the head/tail/capacity/reserved header.
HEADER_BYTES = 32

#: Default data-region size per ring (1 MiB).
DEFAULT_CAPACITY = 1 << 20

_OFF_HEAD = 0
_OFF_TAIL = 8
_OFF_CAPACITY = 16

#: Envelope kinds (the byte after the length).
_PICKLE = 0
_INT = 1
_FLOAT = 2
_VALUE_CODES = {_INT: "q", _FLOAT: "d"}
_KIND_OF_VALUE_TYPE = {int: _INT, float: _FLOAT}
_ELEMENT_ONLY = {StreamElement}
_INT_ONLY = {int}
#: Bytes per element of a columnar body: timestamp, seq, value.
_COLUMN_BYTES = 24


@functools.lru_cache(maxsize=1024)
def _columns(kind: int, n: int) -> struct.Struct:
    """The packer of a ``kind`` envelope of ``n`` elements, kind byte included."""
    return struct.Struct(f"<B{2 * n}q{n}{_VALUE_CODES[kind]}")


def encode_batch(items: Sequence[Any]) -> bytes:
    """Encode ``items`` as one envelope payload: kind byte plus body.

    One-element batches (every push at the default ``batch_size``) skip
    the column building, which costs more than the packing itself.
    """
    try:
        if len(items) == 1:
            item = items[0]
            if type(item) is StreamElement:
                kind = _KIND_OF_VALUE_TYPE.get(type(item.value))
                if kind and type(item.timestamp) is int and type(item.seq) is int:
                    return _columns(kind, 1).pack(kind, item.timestamp, item.seq, item.value)
        elif set(map(type, items)) == _ELEMENT_ONLY:
            values = [item.value for item in items]
            value_types = set(map(type, values))
            kind = _KIND_OF_VALUE_TYPE.get(value_types.pop()) if len(value_types) == 1 else None
            timestamps = [item.timestamp for item in items]
            seqs = [item.seq for item in items]
            if kind and set(map(type, timestamps)) == _INT_ONLY == set(map(type, seqs)):
                return _columns(kind, len(items)).pack(kind, *timestamps, *seqs, *values)
    except struct.error:  # an int outside int64
        pass
    return bytes((_PICKLE,)) + pickle.dumps(list(items), pickle.HIGHEST_PROTOCOL)


def decode_batch(buf: Any, start: int, size: int) -> list:
    """Decode the ``size``-byte payload at ``buf[start:]`` into its items."""
    kind = buf[start]
    if kind == _PICKLE:
        return pickle.loads(buf[start + 1 : start + size])
    n = (size - 1) // _COLUMN_BYTES
    fields = _columns(kind, n).unpack_from(buf, start)
    if n == 1:
        return [StreamElement(fields[3], fields[1], fields[2])]
    return list(
        map(StreamElement, fields[2 * n + 1 :], fields[1 : n + 1], fields[n + 1 : 2 * n + 1])
    )


class ShmRing:
    """A bounded SPSC byte ring over a shared-memory segment.

    Exactly one process may push and exactly one may pop; both may be
    the same process (a partition that owns a queue it also feeds).

    Args:
        shm: The backing segment (created or attached by the caller via
            the :meth:`create` / :meth:`attach` constructors).
    """

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        self._buf = shm.buf
        self.capacity = _U64.unpack_from(self._buf, _OFF_CAPACITY)[0]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> "ShmRing":
        """Create a fresh ring with ``capacity`` data bytes."""
        if capacity < 64:
            raise ValueError(f"ring capacity too small: {capacity}")
        shm = shared_memory.SharedMemory(create=True, size=HEADER_BYTES + capacity)
        shm.buf[:HEADER_BYTES] = bytes(HEADER_BYTES)
        _U64.pack_into(shm.buf, _OFF_CAPACITY, capacity)
        return cls(shm)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach to an existing ring by segment name."""
        return cls(shared_memory.SharedMemory(name=name))

    @property
    def name(self) -> str:
        """The shared-memory segment name (for cross-process attach)."""
        return self._shm.name

    @property
    def empty(self) -> bool:
        """True when no envelope is buffered."""
        head, tail = _COUNTERS.unpack_from(self._buf, _OFF_HEAD)
        return head == tail

    # ------------------------------------------------------------------
    # Byte copies for envelopes that wrap
    # ------------------------------------------------------------------
    def _write_bytes(self, offset: int, payload: bytes) -> None:
        first = min(len(payload), self.capacity - offset)
        start = HEADER_BYTES + offset
        self._buf[start : start + first] = payload[:first]
        rest = len(payload) - first
        if rest:
            self._buf[HEADER_BYTES : HEADER_BYTES + rest] = payload[first:]

    def _read_bytes(self, offset: int, size: int) -> bytes:
        first = min(size, self.capacity - offset)
        start = HEADER_BYTES + offset
        chunk = bytes(self._buf[start : start + first])
        rest = size - first
        if rest:
            chunk += bytes(self._buf[HEADER_BYTES : HEADER_BYTES + rest])
        return chunk

    # ------------------------------------------------------------------
    # Envelope protocol
    # ------------------------------------------------------------------
    def try_push_bytes(self, payload: bytes) -> bool:
        """Append one ``[length][payload]`` envelope; False when full.

        ``payload`` is an encoded envelope (kind byte plus body, see
        :func:`encode_batch`).  Producer-only.  The tail counter is
        advanced *after* the bytes are in place, so a concurrent
        consumer never reads a half-written envelope.
        """
        size = len(payload)
        needed = _LEN.size + size
        capacity = self.capacity
        if needed > capacity:
            raise ValueError(
                f"envelope of {needed} bytes exceeds ring capacity "
                f"{capacity}; raise EngineConfig.ring_capacity"
            )
        buf = self._buf
        head, tail = _COUNTERS.unpack_from(buf, _OFF_HEAD)
        if needed > capacity - (tail - head):
            return False
        offset = tail % capacity
        if offset + needed <= capacity:
            start = HEADER_BYTES + offset
            _LEN.pack_into(buf, start, size)
            buf[start + _LEN.size : start + needed] = payload
        else:
            self._write_bytes(offset, _LEN.pack(size) + payload)
        _U64.pack_into(buf, _OFF_TAIL, tail + needed)
        return True

    def try_push_batch(self, items: Sequence[object]) -> bool:
        """Encode ``items`` as one envelope and push it; False when full."""
        return self.try_push_bytes(encode_batch(items))

    def pop_batches(self) -> List[list]:
        """Decode and consume every buffered envelope, in FIFO order.

        Consumer-only.  The head counter is advanced once, after the
        last envelope is decoded.
        """
        buf = self._buf
        capacity = self.capacity
        head, tail = _COUNTERS.unpack_from(buf, _OFF_HEAD)
        batches: List[list] = []
        while head < tail:
            offset = head % capacity
            if offset + _LEN.size <= capacity:
                (size,) = _LEN.unpack_from(buf, HEADER_BYTES + offset)
            else:
                (size,) = _LEN.unpack(self._read_bytes(offset, _LEN.size))
            body = (offset + _LEN.size) % capacity
            if body + size <= capacity:
                batches.append(decode_batch(buf, HEADER_BYTES + body, size))
            else:
                batches.append(decode_batch(self._read_bytes(body, size), 0, size))
            head += _LEN.size + size
        if batches:
            _U64.pack_into(buf, _OFF_HEAD, head)
        return batches

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping (does not destroy the segment)."""
        # The memoryview must be released before SharedMemory.close().
        self._buf = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only, after all closes)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. crash cleanup)
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShmRing {self.name} cap={self.capacity}>"


def unlink_by_name(name: str) -> None:
    """Best-effort unlink of a segment by name (crash cleanup)."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another cleanup
        pass
