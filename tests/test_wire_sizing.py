"""Size-only wire accounting and the one-pass sender fold.

The route exchange never encodes its boxes: ``encoded_sizes`` computes
each box's codec length in one segmented pass and the rows travel as
views inside an opaque payload.  These tests pin the three things that
must hold for that to leave every modeled number unchanged: the sized
count equals the real encoding's length, the one-pass fold gives each
box exactly what the per-box ``combine_block`` gives it, and the fault
plane sees the same payload shape (and so draws the same faults).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.kernels.route as route
from repro.comm.wire import WIRE_CODECS, encode_rows, encoded_sizes
from repro.core.aggregators import (
    AnyAggregator,
    CountAggregator,
    MaxAggregator,
    MCountAggregator,
    MinAggregator,
    SumAggregator,
    UnionAggregator,
)
from repro.faults.config import FaultConfig
from repro.faults.plane import InjectionStats, _count_leaves
from repro.kernels.absorb import combine_block, vector_combiner
from repro.kernels.block import lex_group
from repro.kernels.route import WireRows, build_route_sends, check_largest
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation
from repro.runtime.config import EngineConfig

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

# ------------------------------------------------------------ segmented sizes

_values = st.one_of(
    st.integers(I64_MIN, I64_MAX),
    st.sampled_from([I64_MIN, I64_MAX, 0, 1, -1, 127, 128, -64, -65]),
    st.integers(-300, 300),
)


@st.composite
def _boxed_blocks(draw):
    arity = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    rows = [
        [draw(_values) for _ in range(arity)] for _ in range(sum(sizes))
    ]
    block = np.asarray(rows, dtype=np.int64).reshape(-1, arity)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    return block, starts


@pytest.mark.parametrize("codec", WIRE_CODECS)
@given(_boxed_blocks())
def test_sized_count_equals_encoded_length(codec, boxed):
    block, starts = boxed
    ends = np.append(starts[1:], block.shape[0])
    expect = [len(encode_rows(block[a:b], codec)) for a, b in zip(starts, ends)]
    assert encoded_sizes(block, starts, codec).tolist() == expect


@pytest.mark.parametrize("codec", WIRE_CODECS)
def test_extreme_neighbours_and_single_rows(codec):
    # Neighbouring boxes whose values sit at opposite ends of the int64
    # range: a delta that failed to restart per box would overflow here.
    block = np.asarray(
        [[I64_MAX, 0], [I64_MIN, -1], [I64_MIN, I64_MAX], [0, 0], [I64_MAX, I64_MIN]],
        dtype=np.int64,
    )
    for starts in ([0], [0, 1, 2, 3, 4], [0, 2, 3]):
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.append(starts[1:], block.shape[0])
        expect = [len(encode_rows(block[a:b], codec)) for a, b in zip(starts, ends)]
        assert encoded_sizes(block, starts, codec).tolist() == expect


def test_check_largest_raises_on_wrong_size_or_rows(monkeypatch):
    rows = np.asarray([[1, 2], [3, 4]], dtype=np.int64)
    size = len(encode_rows(rows, "delta"))
    small = WireRows(rows[:1], size + 99)  # wrong, but not the largest
    check_largest([small, WireRows(rows, size)], "delta")
    with pytest.raises(RuntimeError, match="sized"):
        check_largest([WireRows(rows, size + 1), small], "delta")
    monkeypatch.setattr(route, "decode_rows", lambda *a: rows + 1)
    with pytest.raises(RuntimeError, match="round-trip"):
        check_largest([WireRows(rows, size)], "delta")


@pytest.mark.parametrize("codec", WIRE_CODECS)
def test_exchange_round_trip_check_catches_a_wrong_size(monkeypatch, codec):
    rel = VersionedRelation(Schema(name="p", arity=2, join_cols=(0,)), 4)
    rows = np.random.default_rng(1).integers(0, 40, size=(60, 2))
    build_route_sends({0: rows, 1: rows[:9]}, rel.dist, codec)  # sizes agree
    real = route.encoded_sizes
    monkeypatch.setattr(
        route, "encoded_sizes", lambda *args: real(*args) + 1
    )
    with pytest.raises(RuntimeError, match="sized"):
        build_route_sends({0: rows, 1: rows[:9]}, rel.dist, codec)


# ----------------------------------------------------------- one-pass fold


class _WideDist:
    """A placement whose (bucket, sub) ids need more than 63 bits next to
    the source rank, so routing cannot use the packed sort key."""

    def __init__(self, dist):
        self.dist = dist

    def bucket_sub_of_rows(self, rows):
        b, s = self.dist.bucket_sub_of_rows(rows)
        return (b << 40) | 1, (s << 30) | 5

    def ranks_of_bucket_subs(self, b, s):
        return self.dist.ranks_of_bucket_subs(b >> 40, s >> 30)


def _reference_sends(emitted, dist, n_indep, combiner, combine):
    """Per-box reference: group each source's rows by (bucket, sub) in
    emission order, then fold every box of more than one row on its own."""
    sends, folded = {}, {}
    for src, rows in emitted.items():
        if rows.shape[0] == 0:
            continue
        b, s = dist.bucket_sub_of_rows(rows)
        dst = dist.ranks_of_bucket_subs(b, s)
        for bb, ss in sorted(set(zip(b.tolist(), s.tolist()))):
            idx = np.nonzero((b == bb) & (s == ss))[0]
            box, pre = rows[idx], idx.shape[0]
            if combine and pre > 1:
                box = combine_block(box, n_indep, combiner)
                folded[src] = folded.get(src, 0) + pre
            sends.setdefault(src, {}).setdefault(int(dst[idx[0]]), []).append(
                (bb, ss, box, pre)
            )
    return sends, folded


#: head → (aggregator or None for a plain relation, dependent values)
HEADS = {
    "plain": (None, (-4, 4)),
    "min": (MinAggregator(), (0, 50)),
    "max": (MaxAggregator(), (-50, 50)),
    "any": (AnyAggregator(), (0, 3)),
    "union": (UnionAggregator(), (0, 16)),
    "mcount": (MCountAggregator(bound=20), (0, 30)),
    "sum": (SumAggregator(), (0, 9)),
    "count": (CountAggregator(), (1, 2)),
}


def _emitted(n_ranks, dep_range, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for i, n in enumerate((300, 1, 40, 0, 7)):
        src = (3 * i) % n_ranks
        if src not in out:
            keys = rng.integers(0, 12, size=(n, 2))
            dep = rng.integers(*dep_range, size=(n, 1))
            out[src] = np.hstack([keys, dep]).astype(np.int64)
    return out


@pytest.mark.parametrize("wide", [False, True], ids=["packed", "wide"])
@pytest.mark.parametrize("n_sub", [1, 8])
@pytest.mark.parametrize("n_ranks", [1, 7, 64])
@pytest.mark.parametrize("head", sorted(HEADS))
def test_one_pass_fold_matches_per_box_reference(head, n_ranks, n_sub, wide):
    agg, dep_range = HEADS[head]
    schema = Schema(name="h", arity=3, join_cols=(0,), n_subbuckets=n_sub)
    dist = VersionedRelation(schema, n_ranks).dist
    if wide:
        dist = _WideDist(dist)
    combiner = None if agg is None else vector_combiner(agg)
    combine = combiner is None or combiner.combinable
    # SUM and COUNT are the heads whose boxes must ship verbatim.
    assert combine == (head not in ("sum", "count"))
    n_indep = 3 if agg is None else 2
    emitted = _emitted(n_ranks, dep_range, seed=n_ranks * 31 + n_sub)
    sends, n_comm, folded = build_route_sends(
        emitted, dist, "delta", n_indep=n_indep, combiner=combiner, combine=combine
    )
    ref, ref_folded = _reference_sends(emitted, dist, n_indep, combiner, combine)
    assert n_comm == sum(rows.shape[0] for rows in emitted.values())
    assert folded == ref_folded
    assert sends.keys() == ref.keys()
    for src, per_dst in ref.items():
        assert sends[src].keys() == per_dst.keys()
        for dst, boxes in per_dst.items():
            got = sends[src][dst]
            assert [(b, s, pre) for b, s, _n, pre, _p in got] == [
                (b, s, pre) for b, s, _rows, pre in boxes
            ]
            for (_b, _s, n, _pre, payload), (_rb, _rs, rows, _rp) in zip(got, boxes):
                assert n == rows.shape[0]
                assert payload.rows.dtype == np.int64
                np.testing.assert_array_equal(payload.rows, rows)
                assert payload.size == len(encode_rows(rows, "delta"))


def test_wire_off_boxes_keep_emission_order():
    schema = Schema(name="h", arity=3, join_cols=(0,), n_subbuckets=8)
    dist = VersionedRelation(schema, 7).dist
    emitted = _emitted(7, (0, 9), seed=5)
    sends, _, folded = build_route_sends(emitted, dist)
    ref, _ = _reference_sends(emitted, dist, 2, None, False)
    assert folded == {}
    for src, per_dst in ref.items():
        for dst, boxes in per_dst.items():
            got = sends[src][dst]
            assert [(b, s) for b, s, _ in got] == [(b, s) for b, s, _, _ in boxes]
            for (_, _, rows), (_, _, expect, _) in zip(got, boxes):
                np.testing.assert_array_equal(rows, expect)


_matrices = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(
            st.one_of(st.integers(0, 40), st.integers(-3, 3),
                      st.integers(0, 2**62), st.just(I64_MIN)),
            min_size=ncols, max_size=ncols,
        ),
        min_size=1, max_size=30,
    )
)


@given(_matrices)
def test_lex_group_matches_lexsort(rows):
    mat = np.asarray(rows, dtype=np.int64)
    order, starts, counts = lex_group(mat)
    expect = np.lexsort(tuple(mat[:, c] for c in range(mat.shape[1] - 1, -1, -1)))
    np.testing.assert_array_equal(order, expect)
    sorted_mat = mat[expect]
    fresh = np.ones(mat.shape[0], dtype=bool)
    fresh[1:] = (sorted_mat[1:] != sorted_mat[:-1]).any(axis=1)
    np.testing.assert_array_equal(starts, np.nonzero(fresh)[0])
    assert counts.sum() == mat.shape[0]


# ------------------------------------------------------------ fault plane


def test_fault_plane_sees_four_leaves_per_box():
    rel = VersionedRelation(Schema(name="p", arity=3, join_cols=(0,)), 5)
    rows = np.random.default_rng(2).integers(0, 30, size=(200, 3))
    sends, _, _ = build_route_sends({0: rows, 3: rows[:50]}, rel.dist, "dict")
    for per_dst in sends.values():
        for payload in per_dst.values():
            assert _count_leaves(payload) == 4 * len(payload)


def _chaos_sssp_graph():
    from repro.graphs.generators import rmat

    return rmat(7, 4, seed=1).with_weights(np.random.default_rng(3), 10)


#: InjectionStats of these chaos runs when route payloads were encoded
#: ``bytes``: the sized payloads must draw exactly the same faults.  The
#: dup and corrupt rates are high so that a different leaf count per box
#: (which moves the corruption draws) changes these numbers.
CHAOS = dict(drop=0.05, dup=0.3, corrupt=0.3, max_retries=16)
CHAOS_PINS = {
    ("delta", "sssp"): dict(
        supersteps=29, drops=18, dups=82, corruptions=116, crashes=0,
        permanent_crashes=0, detected_corruptions=116, retransmits=90,
        retransmitted_bytes=4589,
    ),
    ("dict", "cc"): dict(
        supersteps=23, drops=26, dups=119, corruptions=140, crashes=0,
        permanent_crashes=0, detected_corruptions=140, retransmits=106,
        retransmitted_bytes=9347,
    ),
}


@pytest.mark.parametrize("codec,query", sorted(CHAOS_PINS))
def test_chaos_injections_pinned_and_answers_fault_free(codec, query):
    from repro.comm.wire import WireConfig
    from repro.queries.cc import run_cc
    from repro.queries.sssp import run_sssp

    graph = _chaos_sssp_graph()

    def run(faults):
        cfg = EngineConfig(
            n_ranks=8, wire=WireConfig(codec=codec), subbuckets={"edge": 4},
            faults=faults,
        )
        if query == "sssp":
            return run_sssp(graph, [0, 1], cfg).fixpoint
        return run_cc(graph, cfg).fixpoint

    chaos = run(FaultConfig(seed=11, **CHAOS))
    clean = run(None)
    assert dataclasses.asdict(chaos.recovery.injected) == CHAOS_PINS[codec, query]
    assert isinstance(chaos.recovery.injected, InjectionStats)
    head = "spath" if query == "sssp" else "cc"
    assert chaos.query(head) == clean.query(head)
    assert chaos.counters["wire_on_wire_bytes"] == clean.counters["wire_on_wire_bytes"]


def test_update_seed_exchange_chaos_pinned(monkeypatch):
    """The incremental-seed exchange keeps its bare rows in front of the
    sized payload, so the fault plane sees one leaf per value, as before."""
    from repro.comm.simcluster import SimCluster
    from repro.queries.sssp import sssp_program
    from repro.runtime.incremental import FixpointHandle

    rng = np.random.default_rng(9)
    edges = sorted({
        (int(a), int(b), int(c))
        for a, b, c in zip(rng.integers(0, 50, 220), rng.integers(0, 50, 220),
                           rng.integers(1, 10, 220))
    })
    base, batch = edges[:-13], edges[-13:]
    cfg = EngineConfig(n_ranks=6, faults=FaultConfig(seed=31, **CHAOS))
    handle = FixpointHandle.converge(
        sssp_program(), {"edge": base, "start": [(0,)]}, cfg
    )
    seed_sends = []
    real = SimCluster.alltoallv

    def spy(self, sends, **kwargs):
        if kwargs.get("kind") == "incremental_seed":
            seed_sends.append(sends)
        return real(self, sends, **kwargs)

    monkeypatch.setattr(SimCluster, "alltoallv", spy)
    handle.update({"edge": batch})
    payloads = [p for sends in seed_sends for row in sends.values() for p in row.values()]
    assert sum(box[1].rows.shape[0] for p in payloads for box in p) == len(batch)
    for payload in payloads:
        assert _count_leaves(payload) == sum(box[1].rows.size for box in payload)
    assert dataclasses.asdict(handle.engine.fault_plane.stats) == dict(
        supersteps=34, drops=5, dups=44, corruptions=62, crashes=0,
        permanent_crashes=0, detected_corruptions=62, retransmits=41,
        retransmitted_bytes=1561,
    )
    clean = FixpointHandle.converge(
        sssp_program(), {"edge": edges, "start": [(0,)]}, EngineConfig(n_ranks=6)
    )
    assert handle.query("spath") == clean.query("spath")
