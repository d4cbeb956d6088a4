"""Wire codecs for the route exchange (PR 7).

The route exchange ships blocks of int64 tuples between ranks.  This
module owns the *representation* of those blocks on the simulated wire:

* :class:`WireConfig` — the knobs for the wire-optimization layer
  (sender-side combining, payload codec, collective algorithm choice).
  The layer is **on by default**; ``WireConfig.off()`` reproduces the
  pre-wire behavior bit-for-bit (no combining, no encoding, direct
  ``alltoallv``, legacy byte charging).

* Row-block codecs — ``raw`` (native int64 bytes), ``delta``
  (per-column delta + zigzag varint; small when rows arrive sorted by
  independent key, which sender-side combining guarantees) and ``dict``
  (global value dictionary + fixed-width indices; small when the value
  universe is tiny, e.g. CC labels late in the fixpoint).

The codec *defines the charged size*: the modeled cost of a codec is the
encoded byte count of each box, which flows through
``CostModel.alltoallv`` bandwidth terms (decoding CPU time is not
charged; the sender-side fold is charged separately by the engine, see
DESIGN §11).  In-process exchanges never build those bytes:
:func:`encoded_sizes` computes every box's ``len(encode_rows(box))``
in one segmented pass over a whole send block, and the route exchange
ships the rows themselves inside an opaque payload with no integer
leaves, so the fault plane's bit-flip mutator still only reaches the box
header and the CRC-32 envelope catches it before anything is absorbed.
:func:`encode_rows`/:func:`decode_rows` stay the reference: each sized
exchange round-trips its largest box through them and raises on any
mismatch, and the SPMD driver and the rebalance exchange still ship the
real bytes.

Encode/decode are exact inverses for every int64 block, including
negative values and full-range bit patterns (deltas wrap modulo 2^64 on
both sides, so overflow is harmless).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Available payload codecs, in documentation order.
WIRE_CODECS: Tuple[str, ...] = ("raw", "delta", "dict")

#: Available collective algorithm choices for the route ``alltoallv``.
WIRE_COLLECTIVES: Tuple[str, ...] = ("auto", "direct", "bruck")

#: Integer words of per-box metadata (bucket, sub, n_rows, pre_rows)
#: that travel alongside the encoded payload and are charged as wire
#: bytes with it.
WIRE_HEADER_WORDS = 4


@dataclass(frozen=True)
class WireConfig:
    """Configuration of the wire-optimization layer under the route exchange.

    ``enabled=False`` (via :meth:`off`) bypasses the layer entirely: route
    payloads, byte charges and collective costs are bit-identical to the
    pre-wire engine.  With the layer on, fixpoint results and iteration
    counts are unchanged — only modeled bytes/seconds (and the dedup work
    the receiver no longer does) move.
    """

    enabled: bool = True
    #: Fold duplicate independent keys per (destination, bucket, sub)
    #: box before the exchange, using the receiver's own vector
    #: combiners.  Only lattices where sender pre-folding provably
    #: commutes with receiver absorption participate (see
    #: ``VectorCombiner.combinable``); others ship verbatim.
    sender_combine: bool = True
    codec: str = "delta"
    #: Route collective: "direct" (flat alltoallv), "bruck"
    #: (log-round), or "auto" (α–β model picks per superstep from the
    #: observed message sizes).
    alltoallv: str = "auto"

    def __post_init__(self) -> None:
        if self.codec not in WIRE_CODECS:
            raise ValueError(
                f"wire codec must be one of {WIRE_CODECS}, got {self.codec!r}"
            )
        if self.alltoallv not in WIRE_COLLECTIVES:
            raise ValueError(
                f"alltoallv choice must be one of {WIRE_COLLECTIVES}, "
                f"got {self.alltoallv!r}"
            )

    @classmethod
    def off(cls) -> "WireConfig":
        """The pre-wire engine, bit-for-bit (baseline for A/B runs)."""
        return cls(
            enabled=False, sender_combine=False, codec="raw", alltoallv="direct"
        )


# --------------------------------------------------------------- varint

def _zigzag(d: np.ndarray) -> np.ndarray:
    """Map int64 → uint64 so small-magnitude values get small varints."""
    return (d.astype(np.uint64) << np.uint64(1)) ^ (
        (d >> np.int64(63)).astype(np.uint64)
    )


def _unzigzag(u: np.ndarray) -> np.ndarray:
    return (u >> np.uint64(1)).astype(np.int64) ^ -(
        (u & np.uint64(1)).astype(np.int64)
    )


def _varint_encode(u: np.ndarray) -> bytes:
    """LEB128-encode a uint64 vector (vectorized; ≤10 scatter passes)."""
    n = u.shape[0]
    if n == 0:
        return b""
    nb = np.ones(n, np.int64)
    for k in range(1, 10):
        nb += u >= (np.uint64(1) << np.uint64(7 * k))
    starts = np.zeros(n, np.int64)
    np.cumsum(nb[:-1], out=starts[1:])
    out = np.zeros(int(starts[-1] + nb[-1]), np.uint8)
    for j in range(10):
        m = nb > j
        if not m.any():
            break
        byte = ((u[m] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        byte[nb[m] - 1 > j] |= np.uint8(0x80)
        out[starts[m] + j] = byte
    return out.tobytes()


def _varint_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`_varint_encode`; validates the stream shape."""
    if count == 0:
        if data:
            raise ValueError("varint stream has trailing bytes")
        return np.zeros(0, np.uint64)
    buf = np.frombuffer(data, np.uint8)
    ends = np.nonzero((buf & 0x80) == 0)[0]
    if ends.shape[0] != count or (buf.shape[0] and ends[-1] != buf.shape[0] - 1):
        raise ValueError(
            f"varint stream decodes to {ends.shape[0]} values, expected {count}"
        )
    starts = np.empty(count, np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > 10:
        raise ValueError("varint value longer than 10 bytes")
    vals = np.zeros(count, np.uint64)
    for j in range(10):
        m = lengths > j
        if not m.any():
            break
        vals[m] |= (buf[starts[m] + j].astype(np.uint64) & np.uint64(0x7F)) << (
            np.uint64(7 * j)
        )
    return vals


# ---------------------------------------------------------------- codecs

def _column_deltas(rows: np.ndarray) -> np.ndarray:
    """Per-column first-differences, column-major flattened."""
    cols = np.ascontiguousarray(rows.T)
    d = np.empty_like(cols)
    d[:, 0] = cols[:, 0]
    d[:, 1:] = cols[:, 1:] - cols[:, :-1]
    return d.ravel()


def _delta_encode(rows: np.ndarray) -> bytes:
    return _varint_encode(_zigzag(_column_deltas(rows)))


def _delta_decode(data: bytes, n_rows: int, arity: int) -> np.ndarray:
    u = _varint_decode(data, n_rows * arity)
    d = _unzigzag(u).reshape(arity, n_rows)
    cols = np.cumsum(d, axis=1, dtype=np.int64)
    return np.ascontiguousarray(cols.T)


_DICT_HEADER = struct.Struct("<QBQ")  # n_dict, index width, dict byte length


def _index_dtype(n_dict: int) -> np.dtype:
    if n_dict <= 1 << 8:
        return np.dtype("<u1")
    if n_dict <= 1 << 16:
        return np.dtype("<u2")
    if n_dict <= 1 << 32:
        return np.dtype("<u4")
    return np.dtype("<u8")


def _dict_encode(rows: np.ndarray) -> bytes:
    uniq, inv = np.unique(rows.ravel(), return_inverse=True)
    dict_bytes = _varint_encode(_zigzag(_column_deltas(uniq.reshape(1, -1).T)))
    dtype = _index_dtype(uniq.shape[0])
    header = _DICT_HEADER.pack(uniq.shape[0], dtype.itemsize, len(dict_bytes))
    return header + dict_bytes + inv.astype(dtype).tobytes()


def _dict_decode(data: bytes, n_rows: int, arity: int) -> np.ndarray:
    n_dict, width, dict_len = _DICT_HEADER.unpack_from(data, 0)
    off = _DICT_HEADER.size
    uniq = _delta_decode(data[off:off + dict_len], n_dict, 1).ravel()
    dtype = np.dtype(f"<u{width}")
    inv = np.frombuffer(data, dtype, offset=off + dict_len).astype(np.int64)
    if inv.shape[0] != n_rows * arity:
        raise ValueError(
            f"dict stream has {inv.shape[0]} indices, expected {n_rows * arity}"
        )
    return np.ascontiguousarray(uniq[inv].reshape(n_rows, arity))


def encode_rows(rows: np.ndarray, codec: str) -> bytes:
    """Encode an ``(n, arity)`` int64 block with the named codec."""
    if rows.size == 0:
        return b""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if codec == "raw":
        return rows.astype("<i8", copy=False).tobytes()
    if codec == "delta":
        return _delta_encode(rows)
    if codec == "dict":
        return _dict_encode(rows)
    raise ValueError(f"unknown wire codec {codec!r}")


def decode_rows(data: bytes, n_rows: int, arity: int, codec: str) -> np.ndarray:
    """Exact inverse of :func:`encode_rows` (returns a writable block)."""
    if n_rows == 0:
        return np.zeros((0, arity), np.int64)
    if codec == "raw":
        return (
            np.frombuffer(data, "<i8").astype(np.int64).reshape(n_rows, arity)
        )
    if codec == "delta":
        return _delta_decode(data, n_rows, arity)
    if codec == "dict":
        return _dict_decode(data, n_rows, arity)
    raise ValueError(f"unknown wire codec {codec!r}")


#: ``u >= _VARINT_LIMITS[k]`` exactly when ``u`` needs more than ``k + 1``
#: LEB128 bytes.
_VARINT_LIMITS = np.asarray([1 << (7 * k) for k in range(1, 10)], np.uint64)


def _varint_lengths(u: np.ndarray) -> np.ndarray:
    """LEB128 byte count of every element of a uint64 vector."""
    return np.searchsorted(_VARINT_LIMITS, u, side="right").astype(np.int64) + 1


def encoded_sizes(rows: np.ndarray, starts: np.ndarray, codec: str) -> np.ndarray:
    """``len(encode_rows(box, codec))`` of every box of a segmented block.

    ``rows`` is an ``(n, arity)`` int64 block whose boxes are the
    consecutive row ranges beginning at ``starts`` (ascending, first 0,
    every box non-empty).  One vectorized pass sizes them all: ``raw`` is
    ``n·arity·8``; ``delta`` sums the varint lengths of the zigzagged
    column differences, restarting at every box; ``dict`` is the header,
    the delta-varint dictionary of the box's distinct values, and one
    fixed-width index per value.
    """
    n, arity = rows.shape
    counts = np.diff(np.append(starts, n))
    if codec == "raw":
        return counts * (arity * 8)
    if codec == "delta":
        d = np.empty_like(rows)
        d[1:] = rows[1:] - rows[:-1]
        d[starts] = rows[starts]
        per_row = _varint_lengths(_zigzag(d).ravel()).reshape(n, arity).sum(axis=1)
        return np.add.reduceat(per_row, starts)
    if codec == "dict":
        n_boxes = starts.shape[0]
        box = np.repeat(np.repeat(np.arange(n_boxes), counts), arity)
        vals = rows.ravel()
        order = np.lexsort((vals, box))
        vals, box = vals[order], box[order]
        fresh = np.ones(vals.shape[0], bool)
        fresh[1:] = (vals[1:] != vals[:-1]) | (box[1:] != box[:-1])
        uniq, ubox = vals[fresh], box[fresh]
        first = np.ones(uniq.shape[0], bool)
        first[1:] = ubox[1:] != ubox[:-1]
        d = np.empty_like(uniq)
        d[1:] = uniq[1:] - uniq[:-1]
        d[first] = uniq[first]
        dict_bytes = np.bincount(
            ubox, weights=_varint_lengths(_zigzag(d)), minlength=n_boxes
        ).astype(np.int64)
        n_dict = np.bincount(ubox, minlength=n_boxes)
        width = np.select(
            [n_dict <= 1 << 8, n_dict <= 1 << 16, n_dict <= 1 << 32], [1, 2, 4], 8
        )
        return _DICT_HEADER.size + dict_bytes + counts * arity * width
    raise ValueError(f"unknown wire codec {codec!r}")


def encoded_nbytes(payload: bytes) -> int:
    """Wire bytes charged for one box: payload plus the metadata words."""
    return len(payload) + WIRE_HEADER_WORDS * 8
