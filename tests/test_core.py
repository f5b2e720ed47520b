import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmhyper.core import (
    Hypergraph,
    HypergraphError,
    PartiteHypergraph,
    complete_hypergraph,
)
from rmhyper.coloring import VerdictStatus, find_good_coloring
from rmhyper.construct import build_part_rainbow_forced, complete_partite_factor
from rmhyper.girth import girth, girth_at_least

from oracles import disjoint_union, random_hypergraph
import random


def path_graph():
    return Hypergraph(["x", "y", "z"], [{"x", "y"}, {"y", "z"}])


class TestHypergraphConstruction:
    def test_path_on_three_vertices(self):
        h = path_graph()
        assert h.num_vertices == 3
        assert h.num_edges == 2
        assert h.is_uniform(2)

    def test_complete_three_uniform_on_five(self):
        h = complete_hypergraph(5, 3)
        assert h.num_edges == 10
        assert h.is_uniform(3)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(HypergraphError, match="duplicate edge"):
            Hypergraph(["x", "y"], [{"x", "y"}, {"y", "x"}])

    def test_edge_outside_vertex_set_rejected(self):
        with pytest.raises(HypergraphError, match="unknown vertex"):
            Hypergraph([0, 1], [[0, 2]])

    def test_small_edge_rejected(self):
        with pytest.raises(HypergraphError, match="fewer than 2"):
            Hypergraph([0, 1], [[0]])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(HypergraphError, match="duplicate vertex"):
            Hypergraph([0, 0], [])

    def test_vertex_order_is_canonical(self):
        h = Hypergraph([3, 1, 2], [[3, 2]])
        assert h.vertices == (3, 1, 2)
        assert h.index_of(1) == 1
        # edge positions refer to the canonical order
        assert h.edge_index_tuples() == ((0, 2),)

    def test_value_equality(self):
        a = Hypergraph([0, 1, 2], [[0, 1], [1, 2]])
        b = Hypergraph([0, 1, 2], [[1, 2], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != Hypergraph([0, 1, 2], [[0, 1]])


class TestDegreeInducedUnion:
    def test_degree_examples(self):
        h = path_graph()
        assert h.degree("y") == 2
        assert all(complete_hypergraph(5, 3).degree(v) == 6 for v in range(5))
        iso = Hypergraph([0, 1, 2], [[0, 1]])
        assert iso.degree(2) == 0

    def test_degree_unknown_vertex(self):
        with pytest.raises(HypergraphError, match="unknown vertex 'w'"):
            path_graph().degree("w")

    def test_degree_matches_a_scan_of_the_edges(self):
        rng = random.Random(515)
        for _ in range(200):
            h = random_hypergraph(rng, max_vertices=9, max_edges=12)
            for v in h.vertices:
                assert h.degree(v) == sum(v in e for e in h.edges)

    def test_disjoint_union_counts(self):
        h = path_graph()
        u, maps = disjoint_union([h, h])
        assert u.num_vertices == 6 and u.num_edges == 4
        assert len(maps) == 2 and set(maps[0].values()).isdisjoint(maps[1].values())

    def test_disjoint_union_single_is_isomorphic_copy(self):
        h = path_graph()
        u, (m,) = disjoint_union([h])
        assert u.num_vertices == h.num_vertices and u.num_edges == h.num_edges
        assert {frozenset(m[v] for v in e) for e in h.edges} == set(u.edges)

    def test_disjoint_union_many_copies_arithmetic(self):
        h = Hypergraph(range(5), [[0, 1], [2, 3, 4]])
        u, maps = disjoint_union([h] * 21)
        assert u.num_vertices == 21 * 5 == 105
        assert u.num_edges == 21 * 2 == 42

    def test_union_then_induced_recovers_copy(self):
        rng = random.Random(7)
        for _ in range(25):
            h1 = random_hypergraph(rng)
            h2 = random_hypergraph(rng)
            u, maps = disjoint_union([h1, h2])
            for h, m in ((h1, maps[0]), (h2, maps[1])):
                block = set(m.values())
                assert len(block) == h.num_vertices
                induced = {e for e in u.edges if e <= block}
                assert {frozenset(m[v] for v in e) for e in h.edges} == induced


def _assert_same_value(derived, built):
    """``derived`` equals a hypergraph validated from scratch, in every view."""
    assert derived == built and hash(derived) == hash(built)
    assert derived.vertices == built.vertices
    assert derived.edge_index_tuples() == built.edge_index_tuples()
    assert derived.edges == built.edges
    assert [derived.degree(v) for v in derived.vertices] == [built.degree(v) for v in built.vertices]
    assert derived.uniformity() == built.uniformity()


class TestDerivedEqualsValidated:
    """``without_edges`` skips validation; its results must be the values
    the validating constructor gives."""

    def test_without_edges(self):
        rng = random.Random(1212)
        for _ in range(300):
            h = random_hypergraph(rng, max_vertices=9, max_edges=12)
            drop = rng.sample(h.edges, rng.randint(0, h.num_edges))
            kept = [e for e in h.edges if e not in drop]
            _assert_same_value(h.without_edges(drop), Hypergraph(h.vertices, kept))

    def test_derived_of_derived(self):
        rng = random.Random(1214)
        for _ in range(100):
            h = random_hypergraph(rng, max_vertices=9, max_edges=12)
            d = h.without_edges(h.edges[:1]).without_edges(h.edges[-1:])
            _assert_same_value(d, Hypergraph(h.vertices, h.edges[1:-1]))

    def test_dropping_what_is_not_an_edge_is_a_no_op(self):
        h = Hypergraph(["x", "y", "z", "w"], [{"x", "y"}, {"y", "z", "w"}])
        for drop in ([{"x", "z"}], [{"y", "z"}], [{"x"}], [set()], [{"x", "q"}], [{"q", "r"}]):
            _assert_same_value(h.without_edges(drop), h)
        # repeated vertices and repeated entries name the edge once
        _assert_same_value(
            h.without_edges([["y", "x", "x"], {"x", "y"}, {"x", "q"}]),
            Hypergraph(h.vertices, [{"y", "z", "w"}]),
        )

    def test_edge_position(self):
        h = Hypergraph(["x", "y", "z", "w"], [{"y", "z", "w"}, {"x", "y"}])
        assert h.edge_position(["y", "x"]) == 0
        assert h.edge_position({"w", "z", "y"}) == 1
        assert h.edge_position({"y", "z"}) is None
        assert h.edge_position({"y", "q"}) is None


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the kind and message, to compare two routes
        return type(exc), str(exc)


class TestRangeVertices:
    """A hypergraph on ``range(n)`` keeps no vertex-index dict; it must
    answer as the same hypergraph on a list of the same vertices."""

    PROBES = (-1, 0, 1, True, False, 1.0, 2.5, "a", None, (0, 1), 10**20)

    def test_same_value_and_answers(self):
        rng = random.Random(1616)
        for _ in range(200):
            n = rng.randint(2, 12)
            edges = [rng.sample(range(n), rng.randint(2, min(n, 4))) for _ in range(rng.randint(0, 8))]
            edges = list({frozenset(e) for e in edges})
            ranged, listed = Hypergraph(range(n), edges), Hypergraph(list(range(n)), edges)
            _assert_same_value(ranged, listed)
            for v in (*range(n + 1), *self.PROBES):
                assert _outcome(lambda: ranged.index_of(v)) == _outcome(lambda: listed.index_of(v)), v
                edge = {v, 0}
                assert ranged.edge_position(edge) == listed.edge_position(edge), v
            for e in edges:
                assert ranged.edge_position(e) == listed.edge_position(e) is not None
            assert ranged.without_edges(edges[:1]) == listed.without_edges(edges[:1])

    def test_same_errors(self):
        for edges in ([[0, 3]], [[0, -1]], [[1, 2.5]], [[True, 1.0]], [[0, "a"]], [[0, 1], [1, 0]]):
            assert _outcome(lambda: Hypergraph(range(3), edges)) == _outcome(
                lambda: Hypergraph([0, 1, 2], edges)
            ), edges
        # bool and float ids name the integer vertex they equal
        assert Hypergraph(range(3), [[True, 2.0]]).edge_index_tuples() == ((1, 2),)

    def test_same_parts(self):
        for parts in ([(0, 2), (1,)], [(0, True), (2,)], [(0,), (1,)], [(0, 3), (1, 2)], [(0, 1), (1, 2)]):
            ranged = _outcome(lambda: PartiteHypergraph(Hypergraph(range(3), [[0, 1]]), parts))
            listed = _outcome(lambda: PartiteHypergraph(Hypergraph([0, 1, 2], [[0, 1]]), parts))
            assert ranged == listed, parts

    def test_keeps_no_index_dict(self):
        # on range(n) the vertex tuple and its ints are all that is kept
        # (774 KB); on a list the index dict and its position ints come on
        # top (1,272 KB, the list's own ints not counted), and a range build
        # that kept the dict too took 1,890 KB
        listed = list(range(20_000))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ranged = Hypergraph(range(20_000), [(0, 1)])
            middle = tracemalloc.get_traced_memory()[0]
            indexed = Hypergraph(listed, [(0, 1)])
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ranged == indexed
        assert middle - before < 0.7 * (after - middle)


class TestUniformity:
    def test_uniform_checks(self):
        assert path_graph().is_uniform(2)
        assert not complete_hypergraph(5, 3).is_uniform(2)
        assert Hypergraph([0, 1], []).is_uniform(4)  # vacuous
        assert complete_hypergraph(5, 3).uniformity() == 3
        assert Hypergraph([0, 1], []).uniformity() is None

    def test_uniformity_below_two_rejected(self):
        with pytest.raises(HypergraphError):
            path_graph().is_uniform(1)


class TestPartiteValidation:
    def test_path_parts(self):
        p = PartiteHypergraph(path_graph(), [("x", "z"), ("y",)])
        assert p.part_sizes() == (2, 1)
        assert p.parts == (("x", "z"), ("y",))

    def test_edge_with_two_vertices_in_one_part_rejected(self):
        with pytest.raises(HypergraphError, match="more than once"):
            PartiteHypergraph(path_graph(), [("x", "y"), ("z",)])

    def test_parts_must_cover(self):
        with pytest.raises(HypergraphError, match="cover"):
            PartiteHypergraph(path_graph(), [("x",), ("y",)])

    def test_parts_must_be_disjoint(self):
        with pytest.raises(HypergraphError, match="appears in parts"):
            PartiteHypergraph(path_graph(), [("x", "y"), ("y", "z")])

    def test_empty_part_allowed(self):
        p = PartiteHypergraph(Hypergraph([0, 1], [[0, 1]]), [(0,), (1,), ()])
        assert p.part_sizes() == (1, 1, 0)


def _pr33_and_factor():
    pr = build_part_rainbow_forced(3, 3)
    return pr, complete_partite_factor(pr, 4)[0]


class TestPartiteIsAHypergraph:
    """A partite value goes into every hypergraph function as it is, with
    the result that its base gives."""

    def test_girth_as_on_the_base(self):
        for p in _pr33_and_factor():
            for cap in (4, 6, 10):
                result = girth(p, cap)
                assert result == girth(p.base, cap)
            assert result.girth.value == 6 and result.witness is not None
            for g in range(2, 9):
                assert girth_at_least(p, g) == girth_at_least(p.base, g) == (g <= 6)

    def test_good_coloring_search_as_on_the_base(self):
        for p in _pr33_and_factor():
            verdict = find_good_coloring(p)
            assert verdict == find_good_coloring(p.base)
            assert verdict.status is VerdictStatus.WITNESS_FOUND
            assert verdict.nodes == p.num_vertices

    def test_equal_only_to_partite_values(self):
        base = path_graph()
        p = PartiteHypergraph(base, [("x", "z"), ("y",)])
        assert isinstance(p, Hypergraph)
        assert p != p.base and p.base != p
        assert len({p, p.base}) == 2
        assert p == PartiteHypergraph(Hypergraph(["x", "y", "z"], base.edges), [("z", "x"), ("y",)])
        assert p != PartiteHypergraph(base, [("x", "z"), ("y",), ()])
        assert (p.vertices, p.edges, p.num_vertices, p.num_edges) == (
            base.vertices, base.edges, 3, 2,
        )

    def test_derived_values_have_no_parts(self):
        p = PartiteHypergraph(path_graph(), [("x", "z"), ("y",)])
        assert type(p.without_edges([])) is Hypergraph
        assert p.without_edges([]) == p.base


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edge_pool = st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=min(n, 4))
    raw = draw(st.lists(edge_pool, max_size=6))
    dedup = {frozenset(e) for e in raw}
    return Hypergraph(range(n), sorted(tuple(sorted(e)) for e in dedup))


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_degree_sum_equals_total_edge_size(h):
    assert sum(h.degree(v) for v in h.vertices) == sum(len(e) for e in h.edges)


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_edges_always_within_vertex_set(h):
    vs = set(h.vertices)
    assert all(e <= vs for e in h.edges)
    assert all(len(e) >= 2 for e in h.edges)
    assert len(set(h.edges)) == h.num_edges
