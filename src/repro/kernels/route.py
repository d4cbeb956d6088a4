"""Vectorized send-side builders for the communication phases.

``build_intra_sends``
    Intra-bucket replication (pipeline phase 2): every outer tuple goes
    to each sub-bucket owner of its inner-side bucket.  Payload boxes
    are ``(bucket_array, row_block)`` pairs, so the all-to-all's ledger
    accounting (per src→dst tuple counts, message counts, bytes) is
    identical to the scalar path's per-tuple items.

``build_route_sends``
    Home routing of emitted head tuples (phase 4): one hash pass over
    every source computes each tuple's (bucket, sub, owner); rows are
    stably grouped per destination shard into boxes.  With the wire
    layer on, the same pass folds each source's boxes and sizes them with
    the codec (:func:`wire_payloads`).

Both preserve the scalar path's per-(src, dst) row sequences exactly —
the ordering the receiving shards' absorb semantics depend on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.wire import WIRE_HEADER_WORDS, decode_rows, encode_rows, encoded_sizes
from repro.kernels.absorb import fold_groups
from repro.kernels.block import lex_group

IntraBox = Tuple[np.ndarray, np.ndarray]  # (per-row buckets, rows)
RouteBox = Tuple[int, int, np.ndarray]  # (bucket, sub, rows)


class WireRows:
    """Opaque payload of one sized wire box: its rows and codec size.

    ``rows`` is a view of the sender's folded block, absorbed by the
    receiver as it is; ``size`` is ``len(encode_rows(rows, codec))``.
    The payload has no integer or array leaves, so on a route box
    ``(bucket, sub, n_rows, pre_rows, WireRows)`` the fault plane's bit
    flips land on the four header words, as they did when payloads were
    encoded ``bytes``, and the CRC-32 envelope catches them.
    """

    __slots__ = ("rows", "size")

    def __init__(self, rows: np.ndarray, size: int):
        self.rows = rows
        self.size = size

    @property
    def nbytes(self) -> int:
        """Wire bytes charged for the box: payload plus the header words."""
        return self.size + WIRE_HEADER_WORDS * 8


#: A route box with the wire layer on; ``pre_rows`` is the pre-fold row
#: count, kept so the per-edge savings stay observable (CommMatrix
#: "precombine" channel, trace-report bytes-saved column).
SizedBox = Tuple[int, int, int, int, WireRows]  # (bucket, sub, n_rows, pre_rows, payload)
#: ``sends[src][dst]``: the boxes one rank sends another.
RouteSends = Dict[int, Dict[int, List[Union[RouteBox, SizedBox]]]]


def wire_payloads(block: np.ndarray, starts: np.ndarray, codec: str) -> List[WireRows]:
    """Size every box of a segmented block and wrap it as a payload.

    Box ``i`` is ``block[starts[i]:starts[i + 1]]``; one segmented
    :func:`~repro.comm.wire.encoded_sizes` pass sizes them all, without
    running the codec (see :func:`check_largest`).
    """
    ends = np.append(starts[1:], block.shape[0])
    sizes = encoded_sizes(block, starts, codec)
    return [
        WireRows(block[lo:hi], size)
        for lo, hi, size in zip(starts.tolist(), ends.tolist(), sizes.tolist())
    ]


def check_largest(payloads: Sequence[WireRows], codec: str) -> None:
    """Round-trip the payload with the most rows (first on ties) through
    the real codec, so every sized exchange runs it once; raise
    ``RuntimeError`` if the encoded length is not the charged size or
    the rows do not decode back."""
    if not payloads:
        return
    big = max(payloads, key=lambda p: p.rows.shape[0])
    rows, size = big.rows, big.size
    data = encode_rows(rows, codec)
    if len(data) != size:
        raise RuntimeError(
            f"{codec} box of {rows.shape[0]} rows was sized {size} B "
            f"but encodes to {len(data)} B"
        )
    back = decode_rows(data, rows.shape[0], rows.shape[1], codec)
    if not np.array_equal(back, rows):
        raise RuntimeError(f"{codec} box of {rows.shape[0]} rows does not round-trip")


#: Rows per vectorized routing pass: blocks and sources are batched up to
#: about this many rows, which amortizes per-block overhead when ranks are
#: many and small while keeping the pass's temporaries small when they
#: are big.
ROUTE_PASS_ROWS = 1 << 14


def _batches(blocks: Sequence[Tuple[int, np.ndarray]]) -> Iterator[List[Tuple[int, np.ndarray]]]:
    """Consecutive runs of ``(rank, rows)`` blocks, each closed once it
    holds :data:`ROUTE_PASS_ROWS` rows or more."""
    batch: List[Tuple[int, np.ndarray]] = []
    n_rows = 0
    for block in blocks:
        batch.append(block)
        n_rows += block[1].shape[0]
        if n_rows >= ROUTE_PASS_ROWS:
            yield batch
            batch, n_rows = [], 0
    if batch:
        yield batch


def build_intra_sends(
    owner_blocks: Sequence[Tuple[int, np.ndarray]],
    dist,
    n_sub: int,
    probe_cols: Sequence[int],
    per_rank_ser: np.ndarray,
) -> Tuple[Dict[int, Dict[int, List[IntraBox]]], int]:
    """Replicate outer blocks to the sub-bucket owners of their buckets.

    ``owner_blocks`` are (owner rank, matched rows) pairs in shard order;
    ``per_rank_ser`` accumulates each owner's serialization fanout
    (deduplicated destinations per tuple, as the scalar path counts).
    Blocks are routed in batches (:data:`ROUTE_PASS_ROWS`); each block
    still ships one box per destination, its rows in block order.
    """
    sends: Dict[int, Dict[int, List[IntraBox]]] = {}
    n_intra = 0
    blocks = [(owner, rows) for owner, rows in owner_blocks if rows.shape[0]]
    for batch in _batches(blocks):
        n_intra += _intra_pass(batch, dist, n_sub, probe_cols, per_rank_ser, sends)
    return sends, n_intra


def _intra_pass(
    batch: List[Tuple[int, np.ndarray]],
    dist,
    n_sub: int,
    probe_cols: Sequence[int],
    per_rank_ser: np.ndarray,
    sends: Dict[int, Dict[int, List[IntraBox]]],
) -> int:
    """One vectorized pass of :func:`build_intra_sends` over some blocks:
    one bucket hash and one ``(n_sub, rows)`` owner matrix for all their
    rows, then one sort by (block, destination, row).  Adds the boxes to
    ``sends`` and returns the fanout."""
    owners = np.asarray([owner for owner, _ in batch], dtype=np.int64)
    rows = np.concatenate([r for _, r in batch]) if len(batch) > 1 else batch[0][1]
    n = rows.shape[0]
    blk = np.repeat(
        np.arange(len(batch), dtype=np.int64), [r.shape[0] for _, r in batch]
    )
    buckets = dist.buckets_of_key_rows(rows, probe_cols)
    dst_mat = dist.ranks_of_bucket_subs(
        np.tile(buckets, n_sub), np.repeat(np.arange(n_sub, dtype=np.int64), n)
    ).reshape(n_sub, n)
    # A tuple goes to each *distinct* destination once; mask out a
    # sub-bucket whose owner repeats an earlier sub's owner.
    keep = np.ones(dst_mat.shape, dtype=bool)
    for s in range(1, n_sub):
        for p in range(s):
            keep[s] &= dst_mat[s] != dst_mat[p]
    flat = np.flatnonzero(keep)
    row_idx = flat % n
    dst = dst_mat.reshape(-1)[flat]
    row_blk = blk[row_idx]
    # Per (block, destination), rows in arrival order (scalar append order).
    order = np.lexsort((row_idx, dst, row_blk))
    blk_sorted = row_blk[order]
    dst_sorted = dst[order]
    idx = row_idx[order]
    starts = np.flatnonzero(
        np.concatenate([
            [True],
            (blk_sorted[1:] != blk_sorted[:-1]) | (dst_sorted[1:] != dst_sorted[:-1]),
        ])
    )
    ends = np.append(starts[1:], idx.shape[0])
    b_out = buckets[idx]
    r_out = rows[idx]
    for src, d, lo, hi in zip(
        owners[blk_sorted[starts]].tolist(), dst_sorted[starts].tolist(),
        starts.tolist(), ends.tolist(),
    ):
        sends.setdefault(src, {}).setdefault(d, []).append((b_out[lo:hi], r_out[lo:hi]))
    per_rank_ser += np.bincount(owners[row_blk], minlength=per_rank_ser.shape[0])
    return int(flat.shape[0])


def build_route_sends(
    emitted: Dict[int, np.ndarray],
    dist,
    codec: Optional[str] = None,
    *,
    n_indep: int = 0,
    combiner=None,
    combine: bool = False,
) -> Tuple[RouteSends, int, Dict[int, int]]:
    """Group every source's emitted rows into per-shard boxes by owner.

    Sources are routed in batches (:data:`ROUTE_PASS_ROWS`).  One pass
    over a batch computes each row's (bucket, sub, owner) and stably
    sorts the rows by (source, bucket, sub): a box is one (source,
    bucket, sub) run, each destination's boxes come in (bucket, sub)
    order, and a box's rows keep their emission order.

    ``codec=None`` (wire layer off) ships ``(bucket, sub, rows)`` boxes.
    With a codec this is the whole wire-on send side.  When ``combine``
    is set the same stable sort also groups each box's rows by
    independent key — by all columns for a plain relation
    (``combiner is None``) — and the groups fold with ``combiner.join``
    (:func:`~repro.kernels.absorb.fold_groups`): one sender fold per
    source rank, giving each box exactly the rows ``combine_block``
    gives it.  Every box is then sized by the codec
    (:func:`wire_payloads`) and ships as ``(bucket, sub, n_rows,
    pre_rows, WireRows)``; the largest goes through the real codec
    (:func:`check_largest`).

    Returns ``(sends, n_comm, folded)``: the send plan, the rows
    emitted, and per source rank the rows that went through a fold
    (rows of boxes with more than one pre-fold row; the engine charges
    them at serialization cost).
    """
    sends: RouteSends = {}
    folded: Dict[int, int] = {}
    largest: List[WireRows] = []
    n_comm = 0
    blocks = [(src, rows) for src, rows in emitted.items() if rows.shape[0]]
    for batch in _batches(blocks):
        largest += _route_pass(
            [rows for _, rows in batch], [src for src, _ in batch], dist, codec,
            n_indep, combiner, combine, sends, folded,
        )
        n_comm += sum(rows.shape[0] for _, rows in batch)
    if codec is not None:
        check_largest(largest, codec)
    return sends, n_comm, folded


def _route_pass(
    blocks: List[np.ndarray],
    srcs: List[int],
    dist,
    codec: Optional[str],
    n_indep: int,
    combiner,
    combine: bool,
    sends: RouteSends,
    folded: Dict[int, int],
) -> List[WireRows]:
    """One vectorized pass of :func:`build_route_sends` over some sources'
    blocks; adds their boxes to ``sends`` and fold counts to ``folded``
    and returns the pass's largest payload (none with the wire off)."""
    rows = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    src_arr = np.repeat(
        np.asarray(srcs, dtype=np.int64), [blk.shape[0] for blk in blocks]
    )
    b_arr, s_arr = dist.bucket_sub_of_rows(rows)
    dst_arr = dist.ranks_of_bucket_subs(b_arr, s_arr)
    box_key = np.column_stack([src_arr, b_arr, s_arr])
    if codec is not None and combine:
        key_cols = rows if combiner is None else rows[:, :n_indep]
        order, g_starts, g_counts = lex_group(np.column_stack([box_key, key_cols]))
        head = order[g_starts]  # first arrival of every group
        if combiner is None:
            block = rows[head]
        else:
            block = np.empty((head.shape[0], rows.shape[1]), dtype=np.int64)
            block[:, :n_indep] = rows[head, :n_indep]
            block[:, n_indep:] = fold_groups(
                rows[order, n_indep:], g_starts, g_counts, combiner.join
            )
        head_key = box_key[head]
        starts = np.flatnonzero(
            np.concatenate([[True], (head_key[1:] != head_key[:-1]).any(axis=1)])
        )
        pre = np.add.reduceat(g_counts, starts)
    else:
        head, starts, pre = lex_group(box_key)
        block = rows[head]
    m = block.shape[0]
    ends = np.append(starts[1:], m)
    first = head[starts]
    box_src = src_arr[first]
    n_rows = ends - starts
    b_first = b_arr[first].tolist()
    s_first = s_arr[first].tolist()
    if codec is None:
        boxes: List[Union[RouteBox, SizedBox]] = [
            (b, s, block[lo:hi])
            for b, s, lo, hi in zip(b_first, s_first, starts.tolist(), ends.tolist())
        ]
        largest: List[WireRows] = []
    else:
        if combine:
            per_src = np.bincount(box_src, weights=np.where(pre > 1, pre, 0))
            for r in np.nonzero(per_src)[0].tolist():
                folded[r] = int(per_src[r])
        payloads = wire_payloads(block, starts, codec)
        boxes = list(zip(b_first, s_first, n_rows.tolist(), pre.tolist(), payloads))
        largest = [payloads[int(np.argmax(n_rows))]]
    for src, dst, box in zip(box_src.tolist(), dst_arr[first].tolist(), boxes):
        sends.setdefault(src, {}).setdefault(dst, []).append(box)
    return largest


#: A rebalance-exchange box: one (bucket, new sub-bucket) fragment of one
#: version, codec-encoded.  ``kind`` is 0 for the full version, 1 for Δ.
#: ``seq`` is a transport sequence number, unique per box across the
#: exchange: the install step is not idempotent (unlike absorb, which
#: deduplicates by set semantics), so the receiver drops at-least-once
#: duplicate deliveries by sequence number.
ReshardBox = Tuple[int, int, int, int, bytes, int]  # (bucket, sub, kind, n_rows, payload, seq)


def build_reshard_sends(
    blocks: Sequence[Tuple[int, int, np.ndarray]],
    new_dist,
    codec: str,
) -> Tuple[Dict[int, Dict[int, List[ReshardBox]]], int, int]:
    """Re-hash version blocks under a resized placement (rebalance exchange).

    ``blocks`` are ``(src_rank, kind, rows)`` triples in deterministic
    (sorted old shard key, version) order; every row is re-placed under
    ``new_dist`` and grouped into per-(bucket, sub) boxes.  Buckets never
    change on a sub-bucket resize (join columns and seed are fixed), so
    this is purely intra-bucket traffic.

    Returns the send plan plus total rows shipped and rows whose owner
    actually changed (the migration volume).
    """
    sends: Dict[int, Dict[int, List[ReshardBox]]] = {}
    n_shipped = 0
    n_moved = 0
    seq = 0
    for src, kind, rows in blocks:
        n = rows.shape[0]
        if n == 0:
            continue
        b_arr, s_arr = new_dist.bucket_sub_of_rows(rows)
        dst_arr = new_dist.ranks_of_bucket_subs(b_arr, s_arr)
        order = np.lexsort((s_arr, b_arr))
        b_sorted = b_arr[order]
        s_sorted = s_arr[order]
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = (b_sorted[1:] != b_sorted[:-1]) | (
            s_sorted[1:] != s_sorted[:-1]
        )
        starts = np.nonzero(boundary)[0].astype(np.int64)
        ends = np.concatenate([starts[1:], np.asarray([n], dtype=np.int64)])
        row_map = sends.setdefault(src, {})
        for s0, s1 in zip(starts.tolist(), ends.tolist()):
            idx = order[s0:s1]
            dst = int(dst_arr[idx[0]])
            row_map.setdefault(dst, []).append(
                (
                    int(b_sorted[s0]),
                    int(s_sorted[s0]),
                    kind,
                    int(idx.shape[0]),
                    encode_rows(rows[idx], codec),
                    seq,
                )
            )
            seq += 1
        n_shipped += n
        n_moved += int((dst_arr != src).sum())
    return sends, n_shipped, n_moved


def decode_reshard_box(box: ReshardBox, arity: int, codec: str):
    """Inverse of the per-box encoding in :func:`build_reshard_sends`."""
    b, s, kind, n_rows, payload, _seq = box
    return b, s, kind, decode_rows(payload, n_rows, arity, codec)
