"""Immutable hypergraph values with validated structural invariants.

The two value types here, :class:`Hypergraph` and :class:`PartiteHypergraph`,
are the carriers consumed by every other module.  Vertex identifiers are
opaque hashables; the order in which vertices are first listed is the
canonical order used for serialisation, tie breaking and reproducible seeded
runs.  Values are immutable after validation, so they are safe to share
between concurrent workers without synchronisation.
"""
from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Sequence

VertexId = Hashable


class HypergraphError(ValueError):
    """A hypergraph value would violate a structural invariant."""


def validate_uniformity(r: int) -> int:
    """Check that ``r`` is a legal edge size (at least 2) and return it."""
    if not isinstance(r, int) or r < 2:
        raise HypergraphError(f"uniformity must be an integer >= 2, got {r!r}")
    return r


class Hypergraph:
    """A finite hypergraph: an ordered vertex set plus a set of hyperedges.

    Invariants enforced at construction:

    * every edge is a subset of the vertex set,
    * every edge has at least 2 vertices,
    * edges form a set (no duplicates).

    Edges are stored in a canonical order (sorted by their tuples of vertex
    positions), so equal values produce identical serialisations.
    """

    __slots__ = ("_vertices", "_vindex", "_edges", "_edge_indices", "_degrees")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Iterable[VertexId]]):
        vs = tuple(vertices)
        vindex: dict[VertexId, int] = {}
        for v in vs:
            if v in vindex:
                raise HypergraphError(f"duplicate vertex {v!r}")
            vindex[v] = len(vindex)

        seen: set[frozenset[int]] = set()
        keyed: list[tuple[tuple[int, ...], frozenset[VertexId]]] = []
        for raw in edges:
            edge = frozenset(raw)
            if len(edge) < 2:
                raise HypergraphError(f"edge {sorted(map(repr, edge))} has fewer than 2 vertices")
            try:
                key = tuple(sorted(vindex[v] for v in edge))
            except KeyError as exc:
                raise HypergraphError(f"edge contains unknown vertex {exc.args[0]!r}") from None
            fkey = frozenset(key)
            if fkey in seen:
                raise HypergraphError(f"duplicate edge {{{', '.join(map(repr, sorted(key)))}}}")
            seen.add(fkey)
            keyed.append((key, edge))
        keyed.sort(key=lambda item: item[0])

        self._vertices = vs
        self._vindex = vindex
        self._edges = tuple(edge for _, edge in keyed)
        self._edge_indices = tuple(key for key, _ in keyed)
        degrees = [0] * len(vs)
        for key in self._edge_indices:
            for i in key:
                degrees[i] += 1
        self._degrees = tuple(degrees)

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[frozenset[VertexId], ...]:
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def index_of(self, v: VertexId) -> int:
        """Position of ``v`` in the canonical vertex order."""
        try:
            return self._vindex[v]
        except KeyError:
            raise HypergraphError(f"unknown vertex {v!r}") from None

    def edge_index_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Edges as sorted tuples of vertex positions, in canonical edge order."""
        return self._edge_indices

    def degree(self, v: VertexId) -> int:
        """Number of edges containing ``v``."""
        return self._degrees[self.index_of(v)]

    def edges_containing(self, v: VertexId) -> tuple[int, ...]:
        """Canonical positions of the edges containing ``v``, by a scan of
        every edge."""
        i = self.index_of(v)
        return tuple(pos for pos, key in enumerate(self._edge_indices) if i in key)

    def is_uniform(self, r: int) -> bool:
        """True iff every edge has exactly ``r`` vertices (vacuously true)."""
        validate_uniformity(r)
        return all(len(e) == r for e in self._edges)

    def uniformity(self) -> int | None:
        """Common edge size if the hypergraph is uniform, else None.

        An edgeless hypergraph has no witnessed uniformity and returns None.
        """
        sizes = {len(e) for e in self._edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    # -- derived hypergraphs ---------------------------------------------

    def induced(self, keep: Iterable[VertexId]) -> "Hypergraph":
        """Subhypergraph on ``keep``: drops every edge not fully inside it."""
        keep_set = set(keep)
        for v in keep_set:
            if v not in self._vindex:
                raise HypergraphError(f"unknown vertex {v!r}")
        vs = tuple(v for v in self._vertices if v in keep_set)
        es = [e for e in self._edges if e <= keep_set]
        return Hypergraph(vs, es)

    def without_edges(self, drop: Iterable[frozenset[VertexId]]) -> "Hypergraph":
        """Copy with the given edges removed; vertices are kept."""
        drop_set = {frozenset(e) for e in drop}
        return Hypergraph(self._vertices, [e for e in self._edges if e not in drop_set])

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Hypergraph({self.num_vertices} vertices, {self.num_edges} edges)"


class PartiteHypergraph:
    """A hypergraph plus an ordered partition of its vertices into parts.

    Invariants enforced at construction:

    * parts are pairwise disjoint and their union is the whole vertex set,
    * every edge contains at most one vertex from each part.

    Part members are stored in canonical (base) vertex order.
    """

    __slots__ = ("_base", "_parts", "_part_of")

    def __init__(self, base: Hypergraph, parts: Sequence[Iterable[VertexId]]):
        part_of: dict[VertexId, int] = {}
        norm: list[tuple[VertexId, ...]] = []
        for i, raw in enumerate(parts):
            members = set(raw)
            for v in members:
                base.index_of(v)  # raises on unknown vertex
                if v in part_of:
                    raise HypergraphError(f"vertex {v!r} appears in parts {part_of[v]} and {i}")
                part_of[v] = i
            norm.append(tuple(sorted(members, key=base.index_of)))
        if len(part_of) != base.num_vertices:
            missing = [v for v in base.vertices if v not in part_of]
            raise HypergraphError(f"parts do not cover vertices {missing!r}")
        for pos, edge in enumerate(base.edges):
            hits = [part_of[v] for v in edge]
            if len(set(hits)) != len(hits):
                raise HypergraphError(
                    f"edge #{pos} meets one part more than once (parts {sorted(hits)})"
                )
        self._base = base
        self._parts = tuple(norm)
        self._part_of = part_of

    @property
    def base(self) -> Hypergraph:
        return self._base

    @property
    def parts(self) -> tuple[tuple[VertexId, ...], ...]:
        return self._parts

    @property
    def num_parts(self) -> int:
        return len(self._parts)

    def part(self, i: int) -> tuple[VertexId, ...]:
        return self._parts[i]

    def part_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self._parts)

    def part_of(self, v: VertexId) -> int:
        try:
            return self._part_of[v]
        except KeyError:
            raise HypergraphError(f"unknown vertex {v!r}") from None

    # convenience delegates
    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._base.vertices

    @property
    def edges(self) -> tuple[frozenset[VertexId], ...]:
        return self._base.edges

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        return self._base.num_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartiteHypergraph):
            return NotImplemented
        return self._base == other._base and self._parts == other._parts

    def __hash__(self) -> int:
        return hash((self._base, self._parts))

    def __repr__(self) -> str:
        return (
            f"PartiteHypergraph({self.num_vertices} vertices, "
            f"{self.num_edges} edges, parts {self.part_sizes()})"
        )


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    """Complete r-uniform hypergraph on vertices 0..n-1 (all r-subsets)."""
    validate_uniformity(r)
    if n < r:
        raise HypergraphError(f"need at least r={r} vertices, got {n}")
    return Hypergraph(range(n), combinations(range(n), r))


def comb_at_most(n: int, k: int, cap: int) -> int:
    """min(C(n, k), cap), without computing C(n, k) past ``cap``.

    With k <= n / 2, C(n, i) >= 2^i, so at most log2(cap) + 1 factors are
    multiplied in however large n and k are.
    """
    k = min(k, n - k)
    count = 1 if k >= 0 else 0
    for i in range(k):
        if count >= cap:
            break
        count = count * (n - i) // (i + 1)  # C(n, i) * (n - i) / (i + 1) = C(n, i + 1)
    return min(count, cap)
