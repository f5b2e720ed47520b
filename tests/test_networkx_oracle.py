"""networkx as a second girth oracle for the constructions.

The Berge girth of a hypergraph is half the girth of its bipartite incidence
graph; networkx computes that girth with no code of this package.
"""
import pytest

nx = pytest.importorskip("networkx")

from rmhyper.construct import build_part_rainbow_forced, supply_min_degree_girth  # noqa: E402


def incidence_girth(h) -> float:
    """Girth of ``h``'s incidence graph, taken on its 2-core (a leaf lies on
    no cycle, and dropping the leaves makes the BFS from every node cheaper)."""
    graph = nx.Graph()
    graph.add_nodes_from(("v", v) for v in h.vertices)
    for i, edge in enumerate(h.edges):
        graph.add_edges_from((("e", i), ("v", v)) for v in edge)
    return nx.girth(nx.k_core(graph, 2))


@pytest.mark.parametrize("q", [6, 3, 4, 8])
@pytest.mark.parametrize("g", [4, 6, 8])
def test_supplier_graph_girth_and_regularity(g, q):
    # K_{q,q}, the plane PG(2, q-1) and the quadrangle W(q-1); the r = 3
    # recursion asks for q = 6, and q = 3 gives the Heawood graph and the
    # Tutte-Coxeter graph
    supplier = supply_min_degree_girth(2, g, q)
    graph = nx.Graph([tuple(edge) for edge in supplier.edges])
    assert graph.number_of_nodes() == supplier.num_vertices
    assert nx.girth(graph) == g
    assert {degree for _, degree in graph.degree()} == {q}


@pytest.mark.parametrize(
    "gs, berge_girth", [((4,), 8), ((5, 6), 12), ((7, 8), 16)], ids=["g4", "g5-6", "g7-8"]
)
def test_part_rainbow_forced_girth(gs, berge_girth):
    # targets that share a supplier share the build, so it is checked once
    builds = [build_part_rainbow_forced(3, g) for g in gs]
    assert all(built == builds[0] for built in builds)
    assert incidence_girth(builds[0].base) == 2 * berge_girth
