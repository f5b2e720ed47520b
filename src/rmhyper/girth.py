"""Berge girth and cycle witnesses.

A cycle of length g consists of g distinct edges E_0..E_{g-1} and g distinct
vertices x_0..x_{g-1} with x_i in E_i and in E_{i+1} (indices mod g).  Girth
is computed on the bipartite incidence graph (vertex nodes vs edge nodes): a
hypergraph cycle of length g corresponds exactly to an incidence cycle of
length 2g, which turns the problem into a standard shortest-cycle BFS and
handles length-2 cycles (two edges sharing two vertices) uniformly.

The incidence graph is first peeled to its 2-core: a node of degree at most
one lies on no cycle, so it is removed, and so on until every node left has
at least two live neighbours.  Nothing is left exactly when the graph is a
forest (infinite girth).  Otherwise each vertex root still in the core costs
one BFS (the per-root search of Itai and Rodeh, SIAM J. Comput. 7(4), 1978),
which stops at the first layer that cannot close a walk shorter than the
best one found so far; after it, no cycle through the root is shorter than
the best, so the root is removed and the core peeled again (while scans read
three layers or more, where a removal is cheap beside them).  The witness is
read off the BFS tree of the root that found the shortest, and it is the one
a scan from every root would give (see :func:`girth`).

:func:`delete_short_cycles` is the carrier deletion loop: it deletes the
first edge of a shortest cycle until none is shorter than g, exactly as a
girth() call after each deletion would choose, but it keeps one lower bound
per vertex root across the deletions (a deletion never shortens a cycle), so
a root is scanned again only while its bound is below the best cycle found.
The bounds only choose which roots to scan: roots leave the core under the
one rule above, in the deletion loop as in girth().

:func:`girth_at_least` is the one check of a "girth at least g"
postcondition, used by the supplier, the builders and the random generators:
g <= 2 holds without a scan, and any other g costs one scan with cap g - 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Hypergraph, HypergraphError, VertexId


@dataclass(frozen=True)
class CycleWitness:
    """A certified cycle: edges E_0..E_{g-1} and connectors x_0..x_{g-1}.

    The connector x_i lies in E_i and in E_{i+1} (indices mod g); edges and
    connectors are each pairwise distinct.
    """

    edges: tuple[frozenset[VertexId], ...]
    vertices: tuple[VertexId, ...]

    def validate(self, h: Hypergraph) -> None:
        """Re-check every invariant against ``h``; raises on violation."""
        g = len(self.edges)
        if g < 2 or len(self.vertices) != g:
            raise HypergraphError(f"witness must pair g>=2 edges with g vertices, got {g}")
        if len(set(self.edges)) != g:
            raise HypergraphError("witness edges are not distinct")
        if len(set(self.vertices)) != g:
            raise HypergraphError("witness vertices are not distinct")
        for e in self.edges:
            if h.edge_position(e) is None:
                raise HypergraphError(f"witness edge {sorted(map(repr, e))} not in hypergraph")
        for i, x in enumerate(self.vertices):
            if x not in self.edges[i] or x not in self.edges[(i + 1) % g]:
                raise HypergraphError(f"connector {x!r} not in both incident edges")


@dataclass(frozen=True)
class Girth:
    """Outcome of a girth computation: exact value, infinite, or a bound."""

    kind: str  # "finite" | "infinite" | "at_least"
    value: int | None = None

    @classmethod
    def finite(cls, value: int) -> "Girth":
        if value < 2:
            raise ValueError(f"finite girth must be >= 2, got {value}")
        return cls("finite", value)

    @classmethod
    def infinite(cls) -> "Girth":
        return cls("infinite")

    @classmethod
    def at_least(cls, bound: int) -> "Girth":
        return cls("at_least", bound)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def guarantees_at_least(self, g: int) -> bool:
        """True iff the girth is provably >= g."""
        if self.kind == "infinite":
            return True
        assert self.value is not None
        return self.value >= g

    def __str__(self) -> str:
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "infinite"
        return f">={self.value}"


@dataclass(frozen=True)
class GirthResult:
    girth: Girth
    witness: CycleWitness | None


def _incidence_adjacency(h: Hypergraph) -> list[Sequence[int]]:
    """Adjacency lists of the incidence graph.

    Nodes 0..n-1 are vertices, nodes n..n+m-1 are edges; an edge node's list
    is the edge's own tuple of vertex positions.  Whether the graph is a
    forest is left to the 2-core peel of :func:`girth`.
    """
    n = h.num_vertices
    adj: list = [[] for _ in range(n)]
    for pos, key in enumerate(h.edge_index_tuples()):
        enode = n + pos
        for vi in key:
            adj[vi].append(enode)
        adj.append(key)
    return adj


def _peel(
    adj: list[Sequence[int]], degree: list[int], level: list[int], cut: int, stack: list[int]
) -> None:
    """Remove the nodes on ``stack``, then every node left with one live
    neighbour or none, until none is.

    A removed node gets level ``cut``, above every level a scan sets, so the
    scans neither enter it nor close a walk through it; ``degree`` counts
    each node's live neighbours.  Each node is removed once, so all the
    peels of one girth() call cost one pass over the incidence graph.
    """
    for x in stack:
        level[x] = cut
    while stack:
        for y in adj[stack.pop()]:
            if level[y] != cut:
                degree[y] -= 1
                if degree[y] == 1:
                    level[y] = cut
                    stack.append(y)


def _scan_from_root(
    adj: list[Sequence[int]], root: int, bound: int, level: list[int], parent: list[int], base: int
) -> tuple[int, int, int] | None:
    """BFS from ``root`` for a closed walk shorter than ``bound``.

    ``level`` and ``parent`` are shared by every root of one girth() call: a
    node reached at depth d gets level ``base + d``, so levels below ``base``
    are left over from earlier roots and count as unseen, while a node the
    peel removed sits above every level and is never entered.  Expanding a
    node at depth d closes walks of length 2d + 2 only (the incidence graph
    is bipartite, and shorter closings were seen from the other end a layer
    earlier), so the scan stops at the first layer with 2d + 2 >= bound.  In
    the first layer that closes a walk it still finishes the layer and
    returns (2d + 2, u, w) with u < w the smallest closing pair of nodes;
    None if no layer closes one.
    """
    level[root] = base
    parent[root] = -1
    layer = [root]
    depth = 0
    while layer and 2 * depth + 2 < bound:
        below = base + depth + 1
        nxt: list[int] = []
        closing: tuple[int, int] | None = None
        for u in layer:
            for w in adj[u]:
                lw = level[w]
                if lw < base:
                    level[w] = below
                    parent[w] = u
                    nxt.append(w)
                elif lw == below:
                    pair = (u, w) if u < w else (w, u)
                    if closing is None or pair < closing:
                        closing = pair
        if closing is not None:
            return (2 * depth + 2, *closing)
        layer = nxt
        depth += 1
    return None


def _path_to(parent: list[int], node: int) -> list[int]:
    out = [node]
    while parent[node] != -1:
        node = parent[node]
        out.append(node)
    out.reverse()
    return out


def _witness_from_walk(h: Hypergraph, walk: list[int], target: int) -> CycleWitness:
    # The walk root -> u, w -> root is already a cycle: had the two tree paths
    # met below the root, their lowest common node would close a shorter one.
    # It starts at the root, a vertex node, so vertex and edge nodes alternate
    # from there.  With E_i := edge before x_i, x_i lies in E_i and E_{i+1}.
    cycle = walk[:-1]
    assert len(set(cycle)) == len(cycle) == target, "closing walk is not a simple cycle"
    vertex_nodes = cycle[0::2]
    edge_nodes = cycle[1::2]
    vs, keys, n = h.vertices, h.edge_index_tuples(), h.num_vertices
    vertices = tuple(vs[i] for i in vertex_nodes)
    edges = tuple(frozenset([vs[i] for i in keys[e - n]]) for e in edge_nodes)
    g = len(vertices)
    witness = CycleWitness(edges=tuple(edges[(i - 1) % g] for i in range(g)), vertices=vertices)
    witness.validate(h)
    return witness


def _shortest_walk(h: Hypergraph, cap: int, lower: list[int]) -> tuple[int, list[int]] | None:
    """The scan of :func:`girth`: None if the 2-core left is empty, else the
    shortest closing length below 2 * cap + 1 (or that bound) and its walk,
    empty if no root closed one.

    ``lower`` holds, for each vertex root, a lower bound on the length of the
    shortest incidence cycle through it; all zero for a plain girth() call.
    It is read only to choose which roots to scan: a root whose bound is at
    least the best so far is skipped, since its scan could close nothing,
    and it is removed under the same rule as a scanned root.  Every scan
    stores what it learnt: the length it closed, which is the shortest cycle
    through the root (see :func:`girth`), or else the scan bound rounded up
    to an even length.
    """
    adj = _incidence_adjacency(h)
    n = h.num_vertices
    # a scan reaches depth cap at most, so each root gets cap + 1 levels
    cut = n * (cap + 1)
    level = [-1] * len(adj)
    degree = list(map(len, adj))
    best = 2 * cap + 1
    # an edge node has at least two vertices, so only vertex nodes start below 2
    _peel(adj, degree, level, cut, [x for x in range(n) if degree[x] < 2])
    if level.count(cut) == len(adj):
        return None

    parent = [-1] * len(adj)
    walk: list[int] = []
    for root in range(n):
        if level[root] == cut:
            continue
        if lower[root] < best:
            found = _scan_from_root(adj, root, best, level, parent, root * (cap + 1))
            if found is not None:
                best, u, w = found
                lower[root] = best
                walk = _path_to(parent, u) + _path_to(parent, w)[::-1]
                if best == 4:  # incidence cycles are even and >= 4; cannot improve
                    break
            else:
                lower[root] = best + best % 2
        if best > 6:  # a shallower scan costs little more than the removal
            _peel(adj, degree, level, cut, [root])
    return best, walk


def girth(h: Hypergraph, cap: int) -> GirthResult:
    """Exact Berge girth up to ``cap``.

    Returns the shortest cycle length with a certified witness when it is at
    most ``cap``; ``infinite`` when the hypergraph is provably acyclic (the
    2-core of its incidence graph is empty); ``at_least(cap + 1)`` otherwise.

    Each vertex root still in the core costs one BFS, which stops at the
    first layer that cannot close a walk shorter than the best so far (at
    most 2 * cap at the start).  A BFS from a root on a cycle of length L
    closes a walk of length at most L, so after the scan no cycle through
    the root is shorter than the best: the root is removed, and the core is
    peeled again, since a cycle shorter than the best avoids the root and
    every node it leaves with fewer than two live neighbours.  This is done
    only while the best exceeds 6: with a bound of 6 or less a scan reads
    just the root's edges and their vertices, and a removal, which reads
    the root's edges, costs up to a third of such a scan, on dense inputs
    more than the scans it saves.  The witness is the cycle of the last
    root that improved the best, closed by its smallest pair of nodes, and
    is read off that root's BFS tree.

    The removals change neither the girth nor the witness of a scan from
    every root.  The first root to reach the minimum lies on a minimum
    cycle.  No root scanned before it lies on one (its scan would have
    reached the minimum), and a minimum cycle that avoids the removed roots
    keeps two live neighbours at each of its nodes, so no minimum cycle
    loses a node: the root is still in the core, and so is every walk its
    scan closes at the minimum, each of which is a minimum cycle.  Up to
    the closing layer each node the scan reaches has exactly one neighbour
    in the layer before (two would close a shorter walk), so the nodes of
    these walks are reached at the same depths, from the same parents and
    in the same order with or without the removed nodes, and the scan
    closes the same pairs and picks the same smallest.  By the same
    argument every cycle through a root that is shorter than its scan
    bound is still in the core, so a scan that closes a walk closes the
    shortest cycle through the root.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    found = _shortest_walk(h, cap, [0] * h.num_vertices)
    if found is None:
        return GirthResult(Girth.infinite(), None)
    best, walk = found
    if not walk:
        return GirthResult(Girth.at_least(cap + 1), None)
    assert best % 2 == 0
    return GirthResult(Girth.finite(best // 2), _witness_from_walk(h, walk, best))


def delete_short_cycles(h: Hypergraph, g: int) -> tuple[Hypergraph, int]:
    """Delete the first edge of a shortest cycle until no cycle is shorter
    than ``g``; returns the hypergraph left and the number deleted.

    Each deletion removes the edge of the witness that ``girth(h, g - 1)``
    would give, so the result is the one of calling :func:`girth` after
    every deletion.  One lower bound per vertex root is carried across the
    deletions: the length of the shortest cycle through the root, or the
    bound its last scan closed nothing below (lengths in the incidence
    graph, twice those in the hypergraph).  A deletion only removes an
    edge node and its links from the incidence graph, so no cycle through
    a root gets shorter and every bound still holds.  The bounds only choose
    which roots to scan: a root whose bound is at least the best so far is
    skipped, since its scan could close nothing shorter, and it is removed
    under the same rule as a scanned root.  This does not change the
    witness.  A removed root lies on no cycle shorter than the best when it
    is removed, so, as in :func:`girth`, no minimum cycle loses a node.  The
    first root to reach the minimum has a bound at most the minimum, below
    the best so far, so it is scanned, and it closes the same pair from the
    same BFS tree.  Each witness is validated before its edge is deleted.
    """
    deleted = 0
    if g <= 2:  # every hypergraph has girth at least 2
        return h, deleted
    lower = [0] * h.num_vertices
    while (found := _shortest_walk(h, g - 1, lower)) is not None and found[1]:
        best, walk = found
        h = h.without_edges([_witness_from_walk(h, walk, best).edges[0]])
        deleted += 1
    return h, deleted


def girth_at_least(h: Hypergraph, g: int) -> bool:
    """True iff ``h`` has girth at least ``g``: the postcondition of every
    builder and generator.  Every hypergraph has girth >= 2, so g <= 2 needs
    no scan; otherwise one :func:`girth` scan with cap g - 1 decides it."""
    return g <= 2 or girth(h, cap=g - 1).girth.guarantees_at_least(g)

