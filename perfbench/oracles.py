"""Independent checks of program outputs.

Nothing here calls the program: girth comes from networkx on the incidence
graph, colorings are classified from the definitions, and the counting
inequality is evaluated in floating point.
"""
from __future__ import annotations

import math


def berge_girth(vertices, edges) -> int | None:
    """Berge girth as half the girth of the bipartite incidence graph; None
    when the hypergraph has no cycle."""
    import networkx as nx  # not a dependency of the program; imported after timing

    graph = nx.Graph()
    graph.add_nodes_from(("v", v) for v in vertices)
    for i, edge in enumerate(edges):
        graph.add_edges_from((("e", i), ("v", v)) for v in edge)
    found = nx.girth(graph)
    return None if math.isinf(found) else int(found) // 2


def _distinct(assignment, edge) -> int:
    return len({assignment[v] for v in edge})


def is_good_coloring(vertices, edges, assignment) -> bool:
    """Every vertex colored and every edge mixed: neither monochromatic nor
    rainbow."""
    if set(assignment) != set(vertices):
        return False
    return all(1 < _distinct(assignment, e) < len(e) for e in edges)


def is_bad_part_rainbow(edges, parts, assignment) -> bool:
    """Injective on every part and no rainbow edge."""
    if set(assignment) != {v for part in parts for v in part}:
        return False
    if any(len({assignment[v] for v in part}) != len(part) for part in parts):
        return False
    return all(_distinct(assignment, e) < len(e) for e in edges)


def is_cycle(edges, cycle_edges, connectors) -> bool:
    """A Berge cycle of the hypergraph: distinct edges E_i and distinct
    connectors x_i with x_i in E_i and E_{i+1}."""
    known = {frozenset(e) for e in edges}
    cycle = [frozenset(e) for e in cycle_edges]
    g = len(cycle)
    return (
        g >= 2
        and len(connectors) == g
        and len(set(cycle)) == g
        and len(set(connectors)) == g
        and all(e in known for e in cycle)
        and all(x in cycle[i] and x in cycle[(i + 1) % g] for i, x in enumerate(connectors))
    )


def counting_inequality(n: int, r: int, g: int) -> bool:
    """n ln n + ln(a-1) < n^(1+1/g) ln(a/(a-1)), a = C((r-1)^2+1, r)."""
    a = math.comb((r - 1) ** 2 + 1, r)
    return n * math.log(n) + math.log(a - 1) < n ** (1 + 1 / g) * math.log(a / (a - 1))
