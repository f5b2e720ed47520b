"""Berge girth, cycle witnesses and exact short-cycle counting.

A cycle of length g consists of g distinct edges E_0..E_{g-1} and g distinct
vertices x_0..x_{g-1} with x_i in E_i and in E_{i+1} (indices mod g).  Girth
is computed on the bipartite incidence graph (vertex nodes vs edge nodes): a
hypergraph cycle of length g corresponds exactly to an incidence cycle of
length 2g, which turns the problem into a standard shortest-cycle BFS and
handles length-2 cycles (two edges sharing two vertices) uniformly.

A union-find run while the incidence graph is built tells a forest (infinite
girth) apart.  Otherwise each vertex root costs one BFS, which stops at the
first layer that cannot close a walk shorter than the best one found so far;
the witness is read off the BFS tree of the root that found the shortest.

:func:`girth_at_least` is the one check of a "girth at least g"
postcondition, used by the supplier, the builders and the random generators:
g <= 2 holds without a scan, and any other g costs one scan with cap g - 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Sequence

from .core import Hypergraph, HypergraphError, VertexId, complete_hypergraph

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """Exhaustive cycle enumeration exceeded its candidate budget."""


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


def _incidence_adjacency(h: Hypergraph) -> tuple[list[Sequence[int]], bool]:
    """Adjacency lists of the incidence graph, and whether it is a forest.

    Nodes 0..n-1 are vertices, nodes n..n+m-1 are edges; an edge node's list
    is the edge's own tuple of vertex positions.  The graph stays a
    forest exactly while every edge node joins vertices of distinct
    components, which a union-find over vertex positions tracks.
    """
    n = h.num_vertices
    adj: list = [[] for _ in range(n)]
    comp = list(range(n))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    forest = True
    for pos, key in enumerate(h.edge_index_tuples()):
        enode = n + pos
        for vi in key:
            adj[vi].append(enode)
        adj.append(key)
        if forest:
            roots = {find(vi) for vi in key}
            forest = len(roots) == len(key)
            top = roots.pop()
            for other in roots:
                comp[other] = top
    return adj, forest


def _scan_from_root(
    adj: list[Sequence[int]], root: int, bound: int, level: list[int], parent: list[int], base: int
) -> tuple[int, int, int] | None:
    """BFS from ``root`` for a closed walk shorter than ``bound``.

    ``level`` and ``parent`` are shared by every root of one girth() call: a
    node reached at depth d gets level ``base + d``, so levels below ``base``
    are left over from earlier roots and count as unseen.  Expanding a node
    at depth d closes walks of length 2d + 2 only (the incidence graph is
    bipartite, and shorter closings were seen from the other end a layer
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


def _extract_simple_cycle(walk: list[int]) -> list[int]:
    """First repeated node in ``walk`` closes a simple cycle; return it."""
    first_pos: dict[int, int] = {}
    for i, node in enumerate(walk):
        if node in first_pos:
            return walk[first_pos[node] : i]
        first_pos[node] = i
    raise AssertionError("closed walk contains no repeat")


def _witness_from_walk(h: Hypergraph, n: int, walk: list[int], target: int) -> CycleWitness:
    cycle = _extract_simple_cycle(walk)
    assert len(cycle) == target, "extracted cycle is shorter than the scan minimum"
    # Rotate so the cycle starts at a vertex node, then split alternating
    # vertex / edge nodes.  With E_i := edge before x_i, x_i lies in E_i and
    # E_{i+1}.
    start = 0 if cycle[0] < n else 1
    cycle = cycle[start:] + cycle[:start]
    vertex_nodes = cycle[0::2]
    edge_nodes = cycle[1::2]
    vs, keys = h.vertices, h.edge_index_tuples()
    vertices = tuple(vs[i] for i in vertex_nodes)
    edges = tuple(frozenset([vs[i] for i in keys[e - n]]) for e in edge_nodes)
    g = len(vertices)
    witness = CycleWitness(edges=tuple(edges[(i - 1) % g] for i in range(g)), vertices=vertices)
    witness.validate(h)
    return witness


def girth(h: Hypergraph, cap: int) -> GirthResult:
    """Exact Berge girth up to ``cap``.

    Returns the shortest cycle length with a certified witness when it is at
    most ``cap``; ``infinite`` when the hypergraph is provably acyclic (its
    incidence graph is a forest, found by a union-find while the adjacency
    is built); ``at_least(cap + 1)`` otherwise.

    Each vertex root costs one BFS, which stops at the first layer that
    cannot close a walk shorter than the best so far (at most 2 * cap at the
    start).  The witness is the cycle of the last root that improved the
    best, closed by its smallest pair of nodes, and is read off that root's
    BFS tree.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    adj, forest = _incidence_adjacency(h)
    if forest:
        return GirthResult(Girth.infinite(), None)

    n = h.num_vertices
    level = [-1] * len(adj)
    parent = [-1] * len(adj)
    best = 2 * cap + 1
    walk: list[int] = []
    for root in range(n):
        # a scan reaches depth cap at most, so each root gets cap + 1 levels
        found = _scan_from_root(adj, root, best, level, parent, root * (cap + 1))
        if found is not None:
            best, u, w = found
            walk = _path_to(parent, u) + _path_to(parent, w)[::-1]
            if best == 4:  # incidence cycles are even and >= 4; cannot improve
                break
    if not walk:
        return GirthResult(Girth.at_least(cap + 1), None)
    assert best % 2 == 0
    return GirthResult(Girth.finite(best // 2), _witness_from_walk(h, n, walk, best))


def girth_at_least(h: Hypergraph, g: int) -> bool:
    """True iff ``h`` has girth at least ``g``: the postcondition of every
    builder and generator.  Every hypergraph has girth >= 2, so g <= 2 needs
    no scan; otherwise one :func:`girth` scan with cap g - 1 decides it."""
    return g <= 2 or girth(h, cap=g - 1).girth.guarantees_at_least(g)


def _connector_sets(
    inter: list[frozenset[int]], budget_state: list[int], budget: int
) -> set[frozenset[int]]:
    """All sets of distinct connectors realisable for one cyclic edge order.

    ``inter[i]`` holds the candidates for position i (the intersection of
    consecutive edges).  Returns the distinct frozensets of connectors for
    which a valid assignment exists.
    """
    ell = len(inter)
    out: set[frozenset[int]] = set()
    chosen: list[int] = []
    in_use: set[int] = set()

    def backtrack(i: int) -> None:
        if i == ell:
            out.add(frozenset(chosen))
            return
        for x in inter[i]:
            if x in in_use:
                continue
            budget_state[0] += 1
            if budget_state[0] > budget:
                raise EnumerationBudgetError(
                    f"cycle enumeration exceeded {budget} candidate tuples"
                )
            in_use.add(x)
            chosen.append(x)
            backtrack(i + 1)
            chosen.pop()
            in_use.remove(x)

    backtrack(0)
    return out


def count_cycles(h: Hypergraph, ell: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Exact number of distinct ell-cycles by exhaustive enumeration.

    Two cycles are identified iff they have the same cyclic sequence of edges
    (up to rotation and reflection) and the same set of connector vertices.
    Intended for desk-scale instances; raises EnumerationBudgetError past the
    candidate budget.
    """
    if ell < 2:
        raise ValueError(f"cycle length must be >= 2, got {ell}")
    keys = [frozenset(t) for t in h.edge_index_tuples()]
    m = len(keys)
    if ell > m:
        return 0
    r = h.uniformity()
    support_bound = (r - 1) * ell if r is not None else None

    budget_state = [0]
    count = 0
    for combo in combinations(range(m), ell):
        if ell == 2:
            arrangements: list[tuple[int, ...]] = [combo]
        else:
            # Cyclic sequences up to rotation/reflection: pin the smallest
            # edge first and orient so the second entry is below the last.
            first, rest = combo[0], combo[1:]
            arrangements = [
                (first,) + perm for perm in permutations(rest) if perm[0] < perm[-1]
            ]
        for arr in arrangements:
            budget_state[0] += 1
            if budget_state[0] > budget:
                raise EnumerationBudgetError(
                    f"cycle enumeration exceeded {budget} candidate tuples"
                )
            inter = [keys[arr[i]] & keys[arr[(i + 1) % ell]] for i in range(ell)]
            if any(not s for s in inter):
                continue
            sets = _connector_sets(inter, budget_state, budget)
            if sets and support_bound is not None:
                support = frozenset().union(*(keys[e] for e in arr))
                if len(support) > support_bound:
                    raise AssertionError(
                        f"{ell}-cycle spans {len(support)} vertices, above the "
                        f"(r-1)*ell = {support_bound} bound"
                    )
            count += len(sets)
    return count


def cycle_count_bound_check(
    r: int, ell: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> bool:
    """Check count(K_n^(r), ell) <= c * C(n, (r-1)*ell) by exact counting.

    The constant c is the exact ell-cycle count on a fixed vertex set of size
    (r-1)*ell, computed by the same exhaustive enumeration.
    """
    support = (r - 1) * ell
    exact = count_cycles(complete_hypergraph(n, r), ell, budget)
    c = count_cycles(complete_hypergraph(support, r), ell, budget) if support >= r else 0
    return exact <= c * comb(n, support)
