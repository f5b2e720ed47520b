"""Exhaustive coloring search: good colorings and part-rainbow colorings.

Colorings are treated as set partitions of the vertices and searched in
restricted-growth canonical form (the first searched vertex opens class 0, a
vertex may open at most one new class).  Both target properties are invariant
under renaming colors, so this collapses the n^n coloring space to
Bell-number scale without losing completeness.

Vertices are colored in a static order (``search_order``), so at depth d
exactly the first d vertices of that order are colored.  Each edge is checked
once, when its closing vertex (its last vertex in the order) is assigned: if
the edge's other vertices all share a class the closing vertex must avoid it
(would become monochromatic), and if they are pairwise distinct it must reuse
one of them (would become rainbow).  Only the rules matching the forbidden
edge kinds are active.  The search is one loop over an explicit stack, so its
depth has no recursion limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

from .core import Hypergraph, PartiteHypergraph, VertexId

DEFAULT_BUDGET = 10_000_000
MAX_PARTITION_VERTICES = 15  # Bell(15) ~ 1.4e9: anything above is not desk scale


class ColoringError(ValueError):
    """A coloring is malformed for the requested operation."""


class PartitionLimitError(ValueError):
    """Exhaustive partition enumeration was asked for too many vertices."""


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

    @property
    def num_classes(self) -> int:
        return len(set(self.assignment.values()))

    def class_sizes(self) -> tuple[int, ...]:
        sizes: dict[int, int] = {}
        for c in self.assignment.values():
            sizes[c] = sizes.get(c, 0) + 1
        return tuple(sizes[c] for c in sorted(sizes))


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome of a search-based verifier.

    ``nodes`` counts decision-tree nodes explored, the reproducible budget
    unit used by every solver entry point.
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


def enumerate_partitions(n: int, max_n: int = MAX_PARTITION_VERTICES) -> Iterator[tuple[int, ...]]:
    """All set partitions of n items as restricted-growth strings.

    Yields each partition exactly once, in lexicographic restricted-growth
    order.  Guarded by ``max_n`` because the count is the n-th Bell number.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > max_n:
        raise PartitionLimitError(f"partition enumeration limited to n <= {max_n}, got {n}")
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    maxima = [0] * n  # maxima[i] = 1 + max(rgs[:i+1])

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(rgs)
            return
        top = maxima[i - 1] if i else 0
        for c in range(top + 1):
            rgs[i] = c
            maxima[i] = max(top, c + 1)
            yield from rec(i + 1)

    yield from rec(0)


# ---------------------------------------------------------------------------
# Backtracking engine
# ---------------------------------------------------------------------------


def search_order(h: Hypergraph, strategy: str = "connectivity") -> list[int]:
    """Static vertex order for the solver, as canonical vertex positions.

    ``connectivity`` (default) repeatedly takes the vertex sharing the most
    edges with already-ordered vertices (ties: higher degree, then canonical
    position), which makes each edge's last vertex arrive soon after the
    rest.  ``degree`` sorts by descending degree alone.  Heuristic only:
    verdicts never depend on the order.
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
    placed = [False] * n
    order: list[int] = []
    for _ in range(n):
        best = -1
        best_key = (-1, -1, 1)
        for i in range(n):
            if placed[i]:
                continue
            key = (score[i], degrees[i], -i)
            if key > best_key:
                best_key = key
                best = i
        order.append(best)
        placed[best] = True
        for pos in incident[best]:
            for u in edges[pos]:
                if not placed[u]:
                    score[u] += 1
    return order


def _backtrack(
    h: Hypergraph,
    *,
    forbid_mono: bool,
    forbid_rainbow: bool,
    groups: Sequence[Sequence[VertexId]] | None,
    budget: int,
    order_strategy: str,
) -> Verdict:
    """The shared search; a witness comes back canonicalised, and each entry
    point re-verifies it against its own property."""
    n = h.num_vertices
    group_used: list[bytearray | None] = [None] * n  # per vertex: its group's used classes
    if groups is not None:
        for part in groups:
            used = bytearray(n + 1)
            for v in part:
                group_used[h.index_of(v)] = used

    order = search_order(h, order_strategy)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    # closes[v]: for each edge whose last vertex in `order` is v, its other vertices
    closes: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for key in h.edge_index_tuples():
        last = max(key, key=position.__getitem__)
        closes[last].append(tuple(u for u in key if u != last))

    color = [-1] * n
    pending: list[list[int]] = [[] for _ in range(n)]  # per depth: untried classes, next one last
    used_before = [0] * n  # classes in use on entering each depth
    nodes = 0
    num_used = 0
    depth = 0
    descending = True
    while True:
        if descending:
            if depth == n:
                coloring = Coloring.from_assignment(h, {h.vertices[i]: color[i] for i in range(n)})
                return Verdict(VerdictStatus.WITNESS_FOUND, coloring, nodes)
            v = order[depth]
            forbidden: set[int] = set()
            required: set[int] | None = None
            for others in closes[v]:
                on_edge = {color[u] for u in others}
                if forbid_mono and len(on_edge) == 1:
                    forbidden |= on_edge
                if forbid_rainbow and len(on_edge) == len(others):
                    required = on_edge if required is None else required & on_edge
            gused = group_used[v]
            pending[depth] = [
                c
                for c in (range(num_used, -1, -1) if required is None else sorted(required, reverse=True))
                if c not in forbidden and not (gused is not None and gused[c])
            ]
            used_before[depth] = num_used
        else:
            v = order[depth]
            gused = group_used[v]
            if gused is not None:
                gused[color[v]] = 0
            num_used = used_before[depth]
        todo = pending[depth]
        if not todo:
            if depth == 0:
                return Verdict(VerdictStatus.PROPERTY_HOLDS, None, nodes)
            depth -= 1
            descending = False
            continue
        c = todo.pop()
        nodes += 1
        if nodes > budget:
            return Verdict(VerdictStatus.BUDGET_EXCEEDED, None, nodes)
        color[v] = c
        if c == num_used:
            num_used += 1
        if gused is not None:
            gused[c] = 1
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
    count reached.
    """
    verdict = _backtrack(
        h,
        forbid_mono=True,
        forbid_rainbow=True,
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
    across different parts.
    """
    verdict = _backtrack(
        p.base,
        forbid_mono=False,
        forbid_rainbow=True,
        groups=p.parts,
        budget=budget,
        order_strategy=order_strategy,
    )
    coloring = verdict.coloring
    if coloring is not None and (
        has_rainbow_edge(p.base, coloring) or not is_part_rainbow(p, coloring)
    ):
        raise AssertionError("solver produced a coloring that fails re-verification")
    return verdict
