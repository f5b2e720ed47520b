"""Metamorphic properties of the solver and the girth engine: answers that
must not change, or may move only one way, when the input changes in a way
that cannot change the answer."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rmhyper.coloring import (  # noqa: E402
    VerdictStatus,
    coloring_is_good,
    find_good_coloring,
    find_part_rainbow_bad,
)
from rmhyper.core import Hypergraph, PartiteHypergraph  # noqa: E402
from rmhyper.girth import girth  # noqa: E402

# Reproducible runs that leave no example database behind.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def hypergraphs(draw, min_edge_size=2):
    n = draw(st.integers(min_edge_size, 8))
    edge = st.frozensets(st.integers(0, n - 1), min_size=min_edge_size, max_size=min(4, n))
    edges = draw(st.sets(edge, max_size=10))
    return Hypergraph(range(n), sorted(map(sorted, edges)))


@st.composite
def partite_hypergraphs(draw):
    n = draw(st.integers(2, 8))
    part_of = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = [[v for v in range(n) if part_of[v] == p] for p in sorted(set(part_of))]
    edge = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=min(4, n))
    edges = [e for e in draw(st.sets(edge, max_size=10)) if len({part_of[v] for v in e}) == len(e)]
    return PartiteHypergraph(Hypergraph(range(n), sorted(map(sorted, edges))), parts)


def relabel(h, perm):
    """``h`` with vertex v renamed perm[v] and listed in the renamed order."""
    return Hypergraph(sorted(perm[v] for v in h.vertices), [[perm[v] for v in e] for e in h.edges])


@PROPERTY_SETTINGS
@given(st.data())
def test_good_verdict_is_invariant_under_relabelling_and_order(data):
    h = data.draw(hypergraphs())
    perm = data.draw(st.permutations(range(h.num_vertices)))
    status = find_good_coloring(h).status
    assert status is not VerdictStatus.BUDGET_EXCEEDED
    assert find_good_coloring(relabel(h, perm)).status is status
    assert find_good_coloring(h, order_strategy="degree").status is status


@PROPERTY_SETTINGS
@given(st.data())
def test_part_rainbow_verdict_is_invariant_under_relabelling_and_order(data):
    p = data.draw(partite_hypergraphs())
    perm = data.draw(st.permutations(range(p.num_vertices)))
    status = find_part_rainbow_bad(p).status
    assert status is not VerdictStatus.BUDGET_EXCEEDED
    renamed = PartiteHypergraph(relabel(p.base, perm), [[perm[v] for v in part] for part in p.parts])
    assert find_part_rainbow_bad(renamed).status is status
    assert find_part_rainbow_bad(p, order_strategy="degree").status is status


@PROPERTY_SETTINGS
@given(st.data())
def test_good_coloring_survives_edge_deletion(data):
    h = data.draw(hypergraphs(min_edge_size=3))  # a 2-vertex edge admits no good coloring
    verdict = find_good_coloring(h)
    hypothesis.assume(verdict.status is VerdictStatus.WITNESS_FOUND)
    kept = data.draw(st.lists(st.sampled_from(h.edges), unique=True)) if h.edges else []
    smaller = Hypergraph(h.vertices, kept)
    assert coloring_is_good(smaller, verdict.coloring)
    assert find_good_coloring(smaller).status is VerdictStatus.WITNESS_FOUND


def exact_girth(h):
    """Berge girth, or infinity when acyclic; exact, since a cycle uses
    distinct edges and so is never longer than the edge count."""
    found = girth(h, cap=max(2, h.num_edges)).girth
    return found.value if found.is_finite else float("inf")


@PROPERTY_SETTINGS
@given(st.data())
def test_edge_deletion_never_lowers_girth(data):
    # sparser than hypergraphs(), so that girths above 2 and acyclic inputs are common
    n = data.draw(st.integers(2, 9))
    edge = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=min(3, n))
    h = Hypergraph(range(n), sorted(map(sorted, data.draw(st.sets(edge, max_size=8)))))
    before = exact_girth(h)
    kept = data.draw(st.lists(st.sampled_from(h.edges), unique=True)) if h.edges else []
    assert exact_girth(Hypergraph(h.vertices, kept)) >= before
    for edge in h.edges:
        assert exact_girth(h.without_edges([edge])) >= before


@st.composite
def forest_candidates(draw):
    """Sparse hypergraphs split into up to four blocks of vertices, so that
    several components, isolated vertices, forests and cycles are all common."""
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    edges = set()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if hi - lo >= 2:
            edge = st.frozensets(st.integers(lo, hi - 1), min_size=2, max_size=min(3, hi - lo))
            edges |= draw(st.sets(edge, max_size=hi - lo))
    return Hypergraph(range(n), sorted(map(sorted, edges)))


@PROPERTY_SETTINGS
@given(forest_candidates(), st.integers(2, 9))
def test_infinite_girth_iff_incidence_graph_is_a_forest(h, cap):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(("v", v) for v in h.vertices)
    for i, edge in enumerate(h.edges):
        graph.add_edges_from((("e", i), ("v", v)) for v in edge)
    assert (girth(h, cap).girth.kind == "infinite") == nx.is_forest(graph)
