"""Exhaustive coloring search: good colorings and part-rainbow colorings.

Colorings are treated as set partitions of the vertices and searched in
restricted-growth canonical form (the first searched vertex opens class 0, a
vertex may open at most one new class).  Both target properties are invariant
under renaming colors, so this collapses the n^n coloring space to
Bell-number scale without losing completeness.

Vertices are colored in a static order (``search_order``, built with a
lazy heap; by default each next vertex is one that closes the most edges),
so at depth d exactly the first d vertices of that order are colored.  An
edge whose other vertices share one class may not have its closing vertex w
(its last in the order) take that class (monochromatic); one whose other
vertices are pairwise distinct must have w reuse one of them (rainbow).
The rainbow rule is always active, the monochromatic one only in the search
for good colorings.  The rules are applied by forward checking (Haralick and
Elliott, 1980): each class tried for the edge's second-to-last vertex reads
the classes of the edge's other vertices, narrows w's allowed classes in
place, and is rejected at once if w has none left; w's own candidates are
then read off that mask.  For a 3-uniform edge this costs one class lookup.
Every overwritten mask goes onto one trail, which is unwound to a depth's
mark before the depth tries its next class.  Masks only narrow deeper down,
so the first witness is the one a check at w alone would find, in no more
nodes.  A set of classes is one int with a bit per class, and the search is
one loop over an explicit stack, so its depth has no recursion limit.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .core import Hypergraph, PartiteHypergraph, VertexId

DEFAULT_BUDGET = 10_000_000


class ColoringError(ValueError):
    """A coloring is malformed for the requested operation."""


class EdgeClass(Enum):
    MONOCHROMATIC = "monochromatic"
    RAINBOW = "rainbow"
    MIXED = "mixed"


class VerdictStatus(Enum):
    WITNESS_FOUND = "witness_found"
    PROPERTY_HOLDS = "property_holds"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Coloring:
    """A total assignment of vertices to color classes 0..k-1.

    Class indices are canonical (restricted-growth relative to the carrier's
    vertex order): the first vertex has class 0 and every class index is at
    most one above the classes seen before it.
    """

    assignment: Mapping[VertexId, int]

    @classmethod
    def from_assignment(cls, h: Hypergraph, raw: Mapping[VertexId, int]) -> "Coloring":
        """Canonicalise ``raw`` against ``h``'s vertex order."""
        relabel: dict[int, int] = {}
        canonical: dict[VertexId, int] = {}
        for v in h.vertices:
            if v not in raw:
                raise ColoringError(f"vertex {v!r} is uncolored")
            c = raw[v]
            if c not in relabel:
                relabel[c] = len(relabel)
            canonical[v] = relabel[c]
        if len(canonical) != len(raw):
            extra = set(raw) - set(canonical)
            raise ColoringError(f"assignment colors unknown vertices {extra!r}")
        return cls(canonical)

    def class_sizes(self) -> tuple[int, ...]:
        sizes: dict[int, int] = {}
        for c in self.assignment.values():
            sizes[c] = sizes.get(c, 0) + 1
        return tuple(sizes[c] for c in sorted(sizes))


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome of a search-based verifier.

    ``nodes`` counts decision-tree nodes explored, the reproducible budget
    unit used by every solver entry point: one per class tried for a vertex,
    including a class that forward checking rejects at once.
    """

    status: VerdictStatus
    coloring: Coloring | None
    nodes: int


def classify_edge(coloring: Coloring | Mapping[VertexId, int], edge: frozenset[VertexId]) -> EdgeClass:
    """Monochromatic, rainbow or mixed, given all edge vertices are colored."""
    assignment = coloring.assignment if isinstance(coloring, Coloring) else coloring
    try:
        distinct = len({assignment[v] for v in edge})
    except KeyError as exc:
        raise ColoringError(f"vertex {exc.args[0]!r} is uncolored") from None
    if distinct == 1:
        return EdgeClass.MONOCHROMATIC
    if distinct == len(edge):
        return EdgeClass.RAINBOW
    return EdgeClass.MIXED


def coloring_is_good(h: Hypergraph, coloring: Coloring | Mapping[VertexId, int]) -> bool:
    """True iff every edge is mixed (no monochromatic, no rainbow edge)."""
    return all(classify_edge(coloring, e) is EdgeClass.MIXED for e in h.edges)


def has_rainbow_edge(h: Hypergraph, coloring: Coloring | Mapping[VertexId, int]) -> bool:
    return any(classify_edge(coloring, e) is EdgeClass.RAINBOW for e in h.edges)


def is_part_rainbow(p: PartiteHypergraph, coloring: Coloring | Mapping[VertexId, int]) -> bool:
    """True iff the coloring is injective within every part."""
    assignment = coloring.assignment if isinstance(coloring, Coloring) else coloring
    for part in p.parts:
        try:
            colors = [assignment[v] for v in part]
        except KeyError as exc:
            raise ColoringError(f"vertex {exc.args[0]!r} is uncolored") from None
        if len(set(colors)) != len(colors):
            return False
    return True


# ---------------------------------------------------------------------------
# Backtracking engine
# ---------------------------------------------------------------------------


def search_order(h: Hypergraph, strategy: str = "connectivity") -> list[int]:
    """Static vertex order for the solver, as canonical vertex positions.

    ``connectivity`` (default) repeatedly takes the vertex that closes the
    most edges, being the only one of them not yet ordered (ties: the most
    already-ordered vertices over its edges, higher degree, canonical
    position).  An edge's last two vertices then tend to come together, so
    forward checking fires early; for graphs the first two keys are equal.
    It is built with a lazy max-heap: a vertex is pushed again each time its
    counts rise, and stale entries are skipped, so the order costs O(sum of
    squared edge sizes * log) rather than O(n^2).
    ``degree`` sorts by descending degree alone.  Heuristic only: verdicts
    never depend on the order.
    """
    n = h.num_vertices
    degrees = [h.degree(v) for v in h.vertices]
    if strategy == "degree":
        return sorted(range(n), key=lambda i: (-degrees[i], i))
    if strategy != "connectivity":
        raise ValueError(f"unknown order strategy {strategy!r}")
    edges = h.edge_index_tuples()
    incident: list[list[int]] = [[] for _ in range(n)]
    for pos, key in enumerate(edges):
        for vi in key:
            incident[vi].append(pos)
    score = [0] * n
    closes = [0] * n  # edges in which the vertex is the only one not yet ordered
    left = [len(key) for key in edges]  # per edge: its vertices not yet ordered
    placed = [False] * n
    heap = [(0, 0, -degrees[i], i) for i in range(n)]  # (-closes, -score, -degree, position)
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        neg_closes, neg_score, _, best = heapq.heappop(heap)
        if -neg_closes != closes[best] or -neg_score != score[best]:
            continue  # stale: pushed before one of the vertex's counts last rose
        order.append(best)
        placed[best] = True
        for pos in incident[best]:
            left[pos] -= 1
            for u in edges[pos]:
                if not placed[u]:
                    score[u] += 1
                    closes[u] += left[pos] == 1
                    heapq.heappush(heap, (-closes[u], -score[u], -degrees[u], u))
    return order


def _backtrack(
    h: Hypergraph,
    *,
    forbid_mono: bool,
    groups: Sequence[Sequence[VertexId]] | None,
    budget: int,
    order_strategy: str,
) -> Verdict:
    """The shared search; a witness comes back canonicalised, and each entry
    point re-verifies it against its own property."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1 node, got {budget}")
    n = h.num_vertices
    # part_of[v] indexes part_used, the classes already taken in v's part;
    # without parts every vertex is its own part, which never restricts it.
    part_of = list(range(n))
    if groups is not None:
        for i, part in enumerate(groups):
            for v in part:
                part_of[h.index_of(v)] = i
    part_used = [0] * n

    order = search_order(h, order_strategy)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    # feeds[v]: (w, u, part of w) for each edge whose last two vertices in
    # `order` are v and then w; u is the rest's one vertex, or ~i for rests[i]
    feeds: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    rests: list[tuple[int, ...]] = []
    for key in h.edge_index_tuples():
        *rest, v, w = sorted(key, key=position.__getitem__)
        if len(rest) == 1:
            u = rest[0]
        else:
            u = ~len(rests)
            rests.append(tuple(rest))
        feeds[v].append((w, u, part_of[w]))

    keep_mono = 0 if forbid_mono else -1  # widens a mono rule to nothing
    # allowed[w]: the classes w may take, from the edges it closes (-1: any)
    allowed = [-1] * n
    bit = [0] * n  # 1 << class of each colored vertex
    pending = [0] * n  # per depth: classes not yet tried
    fresh_before = [0] * n  # `fresh` on entering each depth
    marks = [0] * n  # per depth: the trail's length on entering it
    trail: list[int] = []  # w, allowed[w] before each write, flat
    fresh = 1  # the bit of the class a vertex would open
    nodes = 0
    depth = 0
    descending = True
    while True:
        if descending:
            if depth == n:
                assignment = {h.vertices[i]: bit[i].bit_length() - 1 for i in range(n)}
                return Verdict(VerdictStatus.WITNESS_FOUND, Coloring.from_assignment(h, assignment), nodes)
            v = order[depth]
            todo = ((fresh << 1) - 1) & allowed[v] & ~part_used[part_of[v]]
            fresh_before[depth] = fresh
            mark = marks[depth] = len(trail)
        else:
            v = order[depth]
            mark = marks[depth]
            part_used[part_of[v]] ^= bit[v]
            fresh = fresh_before[depth]
            todo = pending[depth]
        p = part_of[v]
        fed = feeds[v]
        while todo:
            b = todo & -todo  # lowest class first
            todo ^= b
            nodes += 1
            if nodes > budget:
                return Verdict(VerdictStatus.BUDGET_EXCEEDED, None, nodes)
            while len(trail) > mark:  # undo the writes of the class tried last
                a = trail.pop()
                allowed[trail.pop()] = a
            grown = fresh << 1 if b == fresh else fresh
            span = (grown << 1) - 1
            part_used[p] |= b
            not_b = ~b | keep_mono
            # Forward check: b narrows the classes of each w that v feeds, and
            # is rejected if one is left with none.  A fresh class is ruled
            # out only by a rainbow rule, which keeps used classes, so a w
            # with no class here has none further down either.
            for w, u, q in fed:
                a = allowed[w]
                if u >= 0:  # one rest vertex: mono if it has b, else rainbow
                    c = bit[u]
                    na = a & not_b if c == b else a & (c | b)
                else:
                    rest = rests[~u]
                    m = 0
                    for x in rest:
                        m |= bit[x]
                    is_mono = forbid_mono and m & (m - 1) == 0
                    distinct = m.bit_count() == len(rest)
                    if not (is_mono or distinct):
                        continue  # the rest's classes rule nothing out
                    na = a & ~(b & (m or -1)) if is_mono else a
                    if distinct and not m & b:
                        na &= m | b
                if not span & na & ~part_used[q]:
                    break
                if na != a:
                    trail.append(w)
                    trail.append(a)
                    allowed[w] = na
            else:
                break  # b passed: descend with it
            part_used[p] ^= b
        else:  # no class left; a shallower depth undoes this one's writes
            if depth == 0:
                return Verdict(VerdictStatus.PROPERTY_HOLDS, None, nodes)
            depth -= 1
            descending = False
            continue
        bit[v] = b
        fresh = grown
        pending[depth] = todo
        depth += 1
        descending = True


def find_good_coloring(
    h: Hypergraph,
    budget: int = DEFAULT_BUDGET,
    order_strategy: str = "connectivity",
) -> Verdict:
    """Search for a coloring under which every edge is mixed.

    ``WITNESS_FOUND`` carries such a coloring; ``PROPERTY_HOLDS`` means the
    canonical partition space was exhausted, i.e. every coloring of ``h`` has
    a monochromatic or rainbow edge; ``BUDGET_EXCEEDED`` reports the node
    count reached.  A ``budget`` below 1 raises ``ValueError``.
    """
    verdict = _backtrack(
        h,
        forbid_mono=True,
        groups=None,
        budget=budget,
        order_strategy=order_strategy,
    )
    if verdict.coloring is not None and not coloring_is_good(h, verdict.coloring):
        raise AssertionError("solver produced a coloring that fails re-verification")
    return verdict


def find_part_rainbow_bad(
    p: PartiteHypergraph,
    budget: int = DEFAULT_BUDGET,
    order_strategy: str = "connectivity",
) -> Verdict:
    """Search part-rainbow colorings (injective within each part) for one
    with no rainbow edge.

    ``PROPERTY_HOLDS`` means every part-rainbow coloring has a rainbow edge,
    i.e. the partite hypergraph is part-rainbow-forced.  Colors may repeat
    across different parts.  A ``budget`` below 1 raises ``ValueError``.
    """
    verdict = _backtrack(
        p,
        forbid_mono=False,
        groups=p.parts,
        budget=budget,
        order_strategy=order_strategy,
    )
    coloring = verdict.coloring
    if coloring is not None and (
        has_rainbow_edge(p, coloring) or not is_part_rainbow(p, coloring)
    ):
        raise AssertionError("solver produced a coloring that fails re-verification")
    return verdict
