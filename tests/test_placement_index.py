"""The owned-shard placement index against the scalar placement oracle.

Every ``VersionedRelation`` keeps one cached :class:`PlacementIndex`
(per-shard owners from one vectorized pass, rank → sorted owned keys),
rebuilt when its placement version changes.  These tests pin the index
to the scalar ``Distribution.owner`` on every path that changes the
placement: new shards, ``set_schema``, ``exclude_ranks``,
``install_reshard`` and checkpoint restore.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.simcluster import SimCluster
from repro.faults import checkpoint as ckpt_mod
from repro.graphs.generators import erdos_renyi
from repro.graphs.reference import connected_components
from repro.kernels.join import RankJoinIndex
from repro.kernels.route import build_intra_sends
from repro.queries.cc import run_cc
from repro.relational.distribution import Distribution
from repro.relational.schema import Schema
from repro.relational.storage import RelationStore
from repro.runtime.config import EngineConfig
from repro.runtime.rebalance import reshard_relation

RANKS = (1, 7, 64, 1024)
SUBS = (1, 3, 8)


def _schema(n_sub):
    return Schema(name="r", arity=3, join_cols=(0,), n_subbuckets=n_sub)


def _scalar_sizes(rel, version):
    out = np.zeros(rel.n_ranks, dtype=np.int64)
    for key, shard in rel.shards.items():
        size = shard.delta_size() if version == "delta" else shard.full_size()
        out[rel.owner_of(key)] += size
    return out


def assert_matches_scalar(rel):
    """Index reads ≡ filters over the scalar ``owner_of`` oracle."""
    keys = sorted(rel.shards)
    owned = [rel.owned_keys(r) for r in range(rel.n_ranks)]
    assert sorted(k for ks in owned for k in ks) == keys  # a partition
    by_owner = {}
    for key in keys:
        by_owner.setdefault(rel.owner_of(key), []).append(key)
    for rank, ks in enumerate(owned):
        assert ks == by_owner.get(rank, [])
    for version in ("full", "delta"):
        sizes = (
            rel.delta_sizes_by_rank() if version == "delta"
            else rel.full_sizes_by_rank()
        )
        assert sizes.dtype == np.int64
        assert np.array_equal(sizes, _scalar_sizes(rel, version))
        tags = [owner for owner, _ in rel.version_blocks(version)]
        assert tags == [
            rel.owner_of(k) for k in keys
            if rel.shards[k].version_block(version).shape[0]
        ]
        assert tags == [owner for owner, _ in rel.version_batches(version)]
    n_sub = rel.schema.n_subbuckets
    for bucket in {k[0] for k in keys}:
        for rank in {rel.owner_of(k) for k in keys if k[0] == bucket} | {0}:
            expect = [
                rel.shards[(bucket, s)] for s in range(n_sub)
                if (bucket, s) in rel.shards
                and rel.owner_of((bucket, s)) == rank
            ]
            assert rel.shards_at_rank_for_bucket(bucket, rank) == expect


rows_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 9)),
    min_size=0,
    max_size=60,
)


@st.composite
def placements(draw):
    n_ranks = draw(st.sampled_from(RANKS))
    n_sub = draw(st.sampled_from(SUBS))
    dead = draw(st.sets(st.integers(0, n_ranks - 1), max_size=min(3, n_ranks - 1)))
    return n_ranks, n_sub, dead


@pytest.mark.parametrize("layout", ["scalar", "columnar"])
@given(placement=placements(), rows=rows_strategy)
@settings(max_examples=30)
def test_index_partitions_shards_like_scalar_owner(layout, placement, rows):
    n_ranks, n_sub, dead = placement
    store = RelationStore(n_ranks, layout=layout)
    rel = store.declare(_schema(n_sub))
    rel.load(rows)
    rel.advance()
    if dead:
        rel.exclude_ranks(dead)
    assert_matches_scalar(rel)


@pytest.mark.parametrize("layout", ["scalar", "columnar"])
@given(
    placement=placements(),
    rows=rows_strategy,
    more=rows_strategy,
    target=st.sampled_from(SUBS),
)
@settings(max_examples=20)
def test_index_follows_every_placement_change(layout, placement, rows, more, target):
    n_ranks, n_sub, dead = placement
    store = RelationStore(n_ranks, layout=layout)
    rel = store.declare(_schema(n_sub))
    rel.load(rows)
    rel.advance()
    if dead:
        rel.exclude_ranks(dead)
    assert_matches_scalar(rel)
    ckpt = ckpt_mod.capture(
        store, ["r"], stratum=0, iteration=0, changed=True,
        iterations_total=0, counters={}, trace_len=0,
    )
    rel.load(more)  # new shards appear
    assert_matches_scalar(rel)
    reshard_relation(rel, target, SimCluster(n_ranks))  # install_reshard
    assert_matches_scalar(rel)
    rel.set_schema(dataclasses.replace(rel.schema))
    assert_matches_scalar(rel)
    rel.load(more)
    ckpt_mod.restore(store, ckpt)  # restore_shards
    assert_matches_scalar(rel)
    assert sorted(map(tuple, rel.iter_full())) == sorted(
        {tuple(r) for r in rows}
    )


def test_version_bumps_only_when_placement_can_change():
    store = RelationStore(8, layout="columnar")
    rel = store.declare(_schema(3))
    rel.load([(1, 2, 3)])
    index, v0 = rel.placement(), rel.placement_version
    rel.load([(1, 2, 3)])  # same shard, nothing new
    rel.advance()
    assert rel.placement_version == v0 and rel.placement() is index
    rel.load([(k, k, k) for k in range(20)])
    assert rel.placement_version > v0 and rel.placement() is not index
    for change in (
        lambda: rel.exclude_ranks({3}),
        lambda: rel.set_schema(rel.schema),
        lambda: rel.restore_shards(dict(rel.shards), rel.full_gen, rel.delta_gen),
    ):
        before = rel.placement_version
        change()
        assert rel.placement_version == before + 1
    with pytest.raises(AttributeError):
        rel.shards = {}


# ------------------------------------------------------- join-index guard


def test_join_index_build_makes_no_scalar_owner_calls(monkeypatch):
    """A columnar CC at 1,024 ranks builds its join indexes from the
    owned-shard index alone: zero scalar ``Distribution.owner`` calls
    inside ``RankJoinIndex.build``."""
    seen = {"owner": 0, "builds": 0, "owner_in_build": 0}
    real_owner = Distribution.owner
    real_build = RankJoinIndex.build.__func__

    def owner(self, bucket, sub):
        seen["owner"] += 1
        return real_owner(self, bucket, sub)

    def build(cls, rel, version, rank, match_block=None):
        seen["builds"] += 1
        before = seen["owner"]
        try:
            return real_build(cls, rel, version, rank, match_block)
        finally:
            seen["owner_in_build"] += seen["owner"] - before

    monkeypatch.setattr(Distribution, "owner", owner)
    monkeypatch.setattr(RankJoinIndex, "build", classmethod(build))
    graph = erdos_renyi(300, 600, seed=3)
    res = run_cc(graph, EngineConfig(n_ranks=1024, executor="columnar"))
    ref = connected_components(graph)
    assert all(res.labels[v] == ref[v] for v in res.labels)
    assert seen["builds"] > 100
    assert seen["owner_in_build"] == 0


# ------------------------------------------------------------ intra sends


def _intra_reference(owner_blocks, dist, n_sub, probe_cols):
    """Per-block, per-tuple reference of ``build_intra_sends``: one box
    per (block, destination), destinations in ascending order, rows in
    block order; fanout counts distinct destinations per tuple."""
    sends, fanout = {}, {}
    for owner, rows in owner_blocks:
        if not rows.shape[0]:
            continue
        per_dst = {}
        for row in rows.tolist():
            bucket = dist.bucket_of_key(tuple(row[c] for c in probe_cols))
            dsts = dict.fromkeys(dist.owner(bucket, s) for s in range(n_sub))
            for dst in dsts:
                per_dst.setdefault(dst, []).append((bucket, row))
            fanout[owner] = fanout.get(owner, 0) + len(dsts)
        row_map = sends.setdefault(owner, {})
        for dst in sorted(per_dst):
            row_map.setdefault(dst, []).append(per_dst[dst])
    return sends, fanout


@given(
    placement=placements(),
    blocks=st.lists(
        st.tuples(st.integers(0, 6), rows_strategy), min_size=0, max_size=6
    ),
)
@settings(max_examples=40)
def test_intra_sends_match_per_block_reference(placement, blocks):
    n_ranks, n_sub, dead = placement
    dist = Distribution(_schema(n_sub), n_ranks, None, dead)
    owner_blocks = [
        (owner % n_ranks, np.asarray(rows, dtype=np.int64).reshape(-1, 3))
        for owner, rows in blocks
    ]
    per_rank = np.zeros(n_ranks, dtype=np.int64)
    sends, n_intra = build_intra_sends(owner_blocks, dist, n_sub, (1,), per_rank)
    ref, fanout = _intra_reference(owner_blocks, dist, n_sub, (1,))
    assert list(sends) == list(ref)
    for owner, row_map in ref.items():
        assert list(sends[owner]) == list(row_map)
        for dst, boxes in row_map.items():
            got = [
                list(zip(b.tolist(), r.tolist())) for b, r in sends[owner][dst]
            ]
            assert got == boxes
    assert n_intra == sum(fanout.values())
    assert per_rank.tolist() == [fanout.get(r, 0) for r in range(n_ranks)]
