"""Query-level validation against sequential reference algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import chain, erdos_renyi, grid2d, ring, rmat, star
from repro.graphs.reference import (
    connected_components,
    count_components,
    dijkstra,
    pagerank as reference_pagerank,
    reachable_from,
    transitive_closure,
)
from repro.graphs.types import Graph
from repro.queries import (
    run_cc,
    run_lsp,
    run_pagerank,
    run_reach,
    run_sssp,
    run_tc,
)
from repro.runtime.config import EngineConfig

CFG = EngineConfig(n_ranks=7)


def random_graph_strategy():
    """Small random weighted digraphs as edge lists."""
    edge = st.tuples(
        st.integers(0, 12), st.integers(0, 12), st.integers(1, 9)
    )
    return st.lists(edge, min_size=1, max_size=40).map(
        lambda edges: Graph(
            edges=np.array(edges, dtype=np.int64), n_nodes=13, name="hyp"
        )
    )


class TestSssp:
    def test_fixture_graph(self, small_weighted_graph):
        r = run_sssp(small_weighted_graph, [0], CFG)
        ref = dijkstra(small_weighted_graph, 0)
        assert {(0, t): d for t, d in ref.items()} == r.distances

    def test_multi_source_independent(self, small_weighted_graph):
        r = run_sssp(small_weighted_graph, [0, 5], CFG)
        for s in (0, 5):
            ref = dijkstra(small_weighted_graph, s)
            got = {t: d for (src, t), d in r.distances.items() if src == s}
            assert got == ref

    def test_unweighted_graph_gets_unit_weights(self):
        g = chain(5)  # unweighted
        r = run_sssp(g, [0], CFG)
        assert r.distance(0, 4) == 4

    def test_result_accessors(self, small_weighted_graph):
        r = run_sssp(small_weighted_graph, [0], CFG)
        assert r.distance(0, 0) == 0
        assert r.distance(0, 6) is None  # island node
        assert r.n_paths == len(r.distances)
        assert r.iterations > 0

    def test_subbuckets_override(self, small_weighted_graph):
        base = run_sssp(small_weighted_graph, [0], CFG)
        sub = run_sssp(small_weighted_graph, [0], CFG, edge_subbuckets=8)
        assert base.distances == sub.distances

    @settings(max_examples=20)
    @given(random_graph_strategy())
    def test_property_matches_dijkstra(self, g):
        r = run_sssp(g, [0], EngineConfig(n_ranks=5))
        ref = dijkstra(g, 0)
        got = {t: d for (s, t), d in r.distances.items()}
        assert got == ref


class TestCc:
    def test_two_components(self):
        g = Graph(
            edges=np.array([(0, 1), (1, 2), (5, 6)], dtype=np.int64),
            n_nodes=7,
        )
        r = run_cc(g, CFG)
        assert r.n_components == 2
        assert r.labels[2] == 0 and r.labels[6] == 5

    def test_matches_union_find(self, medium_graph):
        r = run_cc(medium_graph, CFG)
        ref = connected_components(medium_graph)
        non_isolated = set(int(v) for v in np.unique(medium_graph.edges[:, :2]))
        for v in non_isolated:
            assert r.labels[v] == ref[v]
        assert r.n_components == len({ref[v] for v in non_isolated})

    def test_weighted_graph_weights_dropped(self, small_weighted_graph):
        r = run_cc(small_weighted_graph, CFG)
        assert r.n_components == count_components(small_weighted_graph)

    def test_directed_without_symmetrize(self):
        # 0 -> 1 -> 2 with no back edges: min-label propagation still
        # reaches everything *forward* from the minimum node
        g = Graph(edges=np.array([(0, 1), (1, 2)], dtype=np.int64), n_nodes=3)
        r = run_cc(g, CFG, symmetrize=False)
        assert r.labels[2] == 0

    def test_ring_converges(self):
        r = run_cc(ring(17), CFG)
        assert r.n_components == 1
        assert set(r.labels.values()) == {0}

    @settings(max_examples=15)
    @given(random_graph_strategy())
    def test_property_matches_union_find(self, g):
        r = run_cc(g, EngineConfig(n_ranks=5))
        ref = connected_components(g)
        non_isolated = set(int(v) for v in np.unique(g.edges[:, :2]))
        assert {v: r.labels[v] for v in non_isolated} == {
            v: ref[v] for v in non_isolated
        }


    def test_high_rank_twitter_like(self):
        """CC at 4,096 ranks, kept in tier-1 on purpose: per-rank costs
        (join-index builds, size votes) are what this scale stresses.
        The modeled time is the literal the run had before the owned-shard
        placement index, so the index changes no modeled number."""
        from repro.experiments.common import optimized_config
        from repro.graphs.datasets import load_dataset

        g = load_dataset("twitter_like", scale_shift=4)
        r = run_cc(g, optimized_config(4096))
        ref = connected_components(g)
        non_isolated = set(int(v) for v in np.unique(g.edges[:, :2]))
        assert {v: r.labels[v] for v in non_isolated} == {
            v: ref[v] for v in non_isolated
        }
        assert r.fixpoint.modeled_seconds() == 0.0006072526


class TestReachability:
    def test_tc_small(self):
        g = Graph(edges=np.array([(0, 1), (1, 2)], dtype=np.int64), n_nodes=3)
        paths, _ = run_tc(g, CFG)
        assert paths == {(0, 1), (0, 2), (1, 2)}

    def test_tc_matches_reference(self, medium_graph):
        paths, _ = run_tc(medium_graph, CFG)
        assert paths == transitive_closure(medium_graph)

    def test_reach_includes_sources(self):
        g = Graph(edges=np.array([(0, 1)], dtype=np.int64), n_nodes=3)
        reach, _ = run_reach(g, [0, 2], CFG)
        assert reach == {0, 1, 2}

    def test_reach_matches_bfs(self, medium_graph):
        reach, _ = run_reach(medium_graph, [0, 7], CFG)
        assert reach == reachable_from(medium_graph, [0, 7])


class TestLsp:
    def test_chain(self):
        g = chain(8).with_unit_weights()
        value, _ = run_lsp(g, [0], CFG)
        assert value == 7

    def test_matches_dijkstra_eccentricity(self, medium_weighted_graph):
        value, _ = run_lsp(medium_weighted_graph, [0, 3], CFG)
        expected = max(
            max(dijkstra(medium_weighted_graph, s).values()) for s in (0, 3)
        )
        assert value == expected

    def test_no_sources(self, small_weighted_graph):
        value, _ = run_lsp(small_weighted_graph, [], CFG)
        assert value is None

    def test_no_leakage_spnorm_is_final_only(self, small_weighted_graph):
        """The §III-A point: spnorm holds exactly the final shortest
        distances, never the transient lengths of the fixpoint."""
        _, result = run_lsp(small_weighted_graph, [0], CFG)
        spath = result.query("spath")
        spnorm = result.query("spnorm")
        assert spnorm == spath


class TestPageRank:
    def test_matches_power_iteration(self):
        g = rmat(6, 4, seed=4)
        pr = run_pagerank(g, iterations=12, config=CFG)
        ref = reference_pagerank(g, iterations=12)
        assert float(np.abs(pr - ref).max()) < 1e-3

    def test_sums_to_one(self):
        g = erdos_renyi(50, 300, seed=3)
        pr = run_pagerank(g, iterations=10, config=CFG)
        assert pr.sum() == pytest.approx(1.0, abs=0.02)

    def test_star_hub_attracts_mass(self):
        g = star(20)
        pr = run_pagerank(g.symmetrized(), iterations=10, config=CFG)
        assert pr[0] == pytest.approx(pr.max())

    def test_zero_iterations_uniform(self):
        g = chain(4)
        pr = run_pagerank(g, iterations=0, config=CFG)
        assert np.allclose(pr, 0.25, atol=1e-5)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_pagerank(chain(4), iterations=-1, config=CFG)

    def test_empty_graph(self):
        g = Graph(edges=np.zeros((0, 2), dtype=np.int64), n_nodes=0)
        assert run_pagerank(g, iterations=3, config=CFG).size == 0
