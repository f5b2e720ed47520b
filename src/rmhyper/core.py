"""Immutable hypergraph values with validated structural invariants.

The two value types here, :class:`Hypergraph` and its subclass
:class:`PartiteHypergraph`, a hypergraph with its vertices split into parts,
are the carriers consumed by every other module.  Vertex identifiers are
opaque hashables; the order in which vertices are first listed is the
canonical order used for serialisation, tie breaking and reproducible seeded
runs.

A :class:`Hypergraph` stores each edge once, as the sorted tuple of its
vertex positions; the frozensets of vertex ids and the degrees are built
from the tuples on first use.  The public constructors validate their
input; among other things, no edge or part lists a vertex twice (a repeat is
refused, not dropped).  ``without_edges`` keeps a subset of valid, sorted
tuples, skips the validation and shares the vertex index with its parent.
A hypergraph built on ``range(n)``, as the builders' results and the random
carriers are, keeps no index dict: each vertex is its own position.  Values
are immutable after construction, and a lazily built cache holds the same
tuple whichever thread builds it, so values are safe to share between
concurrent workers without synchronisation.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, compress
from typing import Hashable, Iterable

VertexId = Hashable
_Keys = tuple[tuple[int, ...], ...]  # sorted tuples of vertex positions, in sorted order


class HypergraphError(ValueError):
    """A hypergraph value would violate a structural invariant."""


def validate_uniformity(r: int) -> int:
    """Check that ``r`` is a legal edge size (at least 2) and return it."""
    if not isinstance(r, int) or r < 2:
        raise HypergraphError(f"uniformity must be an integer >= 2, got {r!r}")
    return r


def validate_girth(g: int) -> None:
    """Check that ``g`` is a legal girth target (at least 2)."""
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")


class _Positions:
    """The vertex index of a hypergraph built on ``range(n)``, where each
    vertex is its own position: it answers lookups and membership tests as
    the dict ``{v: v for v in range(n)}`` would, in the space of one range."""

    __slots__ = ("_range",)

    def __init__(self, n: int) -> None:
        self._range = range(n)

    def __contains__(self, v: object) -> bool:
        return v in self._range

    def __getitem__(self, v: VertexId) -> int:
        try:
            return self._range.index(v)
        except ValueError:
            raise KeyError(v) from None


_Index = dict[VertexId, int] | _Positions


class Hypergraph:
    """A finite hypergraph: an ordered vertex set plus a set of hyperedges.

    Invariants enforced at construction:

    * every edge is a subset of the vertex set,
    * every edge has at least 2 vertices,
    * no edge lists a vertex twice,
    * edges form a set (no duplicates).

    Each edge is stored once, as the sorted tuple of its vertex positions
    (:meth:`edge_index_tuples`), and the edges are kept sorted by these
    tuples, so equal values produce identical serialisations.  The
    frozensets of vertex ids in :attr:`edges`, and the degrees, are built
    from the tuples on first use and cached.  :meth:`without_edges` keeps a
    subset of already valid, already sorted tuples, so it builds its result
    without validating it again and shares the vertex tuple and index with
    its parent.
    """

    __slots__ = ("_vertices", "_vindex", "_edges", "_edge_indices", "_degrees")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Iterable[VertexId]]):
        vs = tuple(vertices)
        vindex: _Index
        if isinstance(vertices, range) and vertices.start == 0 and vertices.step == 1:
            vindex = _Positions(len(vs))
            position = vertices.index
        else:
            vindex = {}
            for v in vs:
                if v in vindex:
                    raise HypergraphError(f"duplicate vertex {v!r}")
                vindex[v] = len(vindex)
            position = vindex.__getitem__

        keys: set[tuple[int, ...]] = set()
        for i, raw in enumerate(edges):
            edge = tuple(raw)  # read once, so an iterator is refused as a list is
            if len(edge) < 2:
                raise HypergraphError(f"edge {sorted(map(repr, edge))} has fewer than 2 vertices")
            if len(set(edge)) != len(edge):
                twice = next(v for j, v in enumerate(edge) if v in edge[:j])
                raise HypergraphError(f"edge #{i} lists vertex {twice!r} twice")
            try:
                key = tuple(sorted(map(position, edge)))
            except (KeyError, ValueError):
                unknown = next(v for v in edge if v not in vindex)
                raise HypergraphError(f"edge contains unknown vertex {unknown!r}") from None
            if key in keys:
                raise HypergraphError(f"duplicate edge {{{', '.join(map(repr, key))}}}")
            keys.add(key)
        self._adopt(vs, vindex, tuple(sorted(keys)))

    def _adopt(
        self, vertices: tuple[VertexId, ...], vindex: _Index, keys: _Keys
    ) -> None:
        self._vertices = vertices
        self._vindex = vindex
        self._edge_indices = keys
        self._edges: tuple[frozenset[VertexId], ...] | None = None
        self._degrees: tuple[int, ...] | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[frozenset[VertexId], ...]:
        """Edges as frozensets of vertex ids, in canonical edge order."""
        if self._edges is None:
            # Every thread that gets here builds an equal tuple, so the
            # unsynchronised write is safe on a shared value.
            vs = self._vertices
            self._edges = tuple(frozenset([vs[i] for i in key]) for key in self._edge_indices)
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edge_indices)

    def index_of(self, v: VertexId) -> int:
        """Position of ``v`` in the canonical vertex order."""
        try:
            return self._vindex[v]
        except KeyError:
            raise HypergraphError(f"unknown vertex {v!r}") from None

    def edge_index_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Edges as sorted tuples of vertex positions, in canonical edge order."""
        return self._edge_indices

    def edge_position(self, edge: Iterable[VertexId]) -> int | None:
        """Canonical position of ``edge``, or None if it is not an edge (also
        when it holds a vertex that is not in the hypergraph)."""
        try:
            key = tuple(sorted({self._vindex[v] for v in edge}))
        except KeyError:
            return None
        keys = self._edge_indices
        pos = bisect_left(keys, key)
        return pos if pos < len(keys) and keys[pos] == key else None

    def degree(self, v: VertexId) -> int:
        """Number of edges containing ``v``."""
        i = self.index_of(v)
        if self._degrees is None:  # built once, like the edges view
            degrees = [0] * len(self._vertices)
            for key in self._edge_indices:
                for j in key:
                    degrees[j] += 1
            self._degrees = tuple(degrees)
        return self._degrees[i]

    def is_uniform(self, r: int) -> bool:
        """True iff every edge has exactly ``r`` vertices (vacuously true)."""
        validate_uniformity(r)
        return all(len(key) == r for key in self._edge_indices)

    def uniformity(self) -> int | None:
        """Common edge size if the hypergraph is uniform, else None.

        An edgeless hypergraph has no witnessed uniformity and returns None.
        """
        sizes = set(map(len, self._edge_indices))
        if len(sizes) == 1:
            return sizes.pop()
        return None

    # -- derived hypergraphs ---------------------------------------------

    def without_edges(self, drop: Iterable[Iterable[VertexId]]) -> "Hypergraph":
        """Copy with the given edges removed; vertices are kept.  Entries
        that are not edges are ignored."""
        keep = [True] * len(self._edge_indices)
        for pos in map(self.edge_position, drop):
            if pos is not None:
                keep[pos] = False
        h = Hypergraph.__new__(Hypergraph)  # a subset of valid tuples stays valid
        h._adopt(self._vertices, self._vindex, tuple(compress(self._edge_indices, keep)))
        return h

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._vertices == other._vertices and self._edge_indices == other._edge_indices

    def __hash__(self) -> int:
        return hash((self._vertices, self._edge_indices))

    def __repr__(self) -> str:
        return f"Hypergraph({self.num_vertices} vertices, {self.num_edges} edges)"


class PartiteHypergraph(Hypergraph):
    """A hypergraph with an ordered partition of its vertices into parts.

    It takes on the vertices, vertex index and edge tuples of the valid
    ``base`` it is built from, without validating them again.  Invariants
    enforced at construction:

    * no part lists a vertex twice,
    * parts are pairwise disjoint and their union is the whole vertex set,
    * every edge contains at most one vertex from each part.

    Part members are stored in canonical (base) vertex order.  A partite
    value equals only a partite value with the same base and parts;
    :meth:`without_edges` returns a plain hypergraph.
    """

    __slots__ = ("_base", "_parts")

    def __init__(self, base: Hypergraph, parts: Iterable[Iterable[VertexId]]):
        vs, vindex = base.vertices, base._vindex
        part_at: list[int] = [-1] * len(vs)  # the part of each vertex position
        norm: list[tuple[VertexId, ...]] = []
        for i, raw in enumerate(parts):
            positions = []
            for v in raw:
                if v not in vindex:
                    raise HypergraphError(f"unknown vertex {v!r}")
                p = vindex[v]
                if part_at[p] == i:
                    raise HypergraphError(f"part #{i} lists vertex {v!r} twice")
                if part_at[p] >= 0:
                    raise HypergraphError(f"vertex {v!r} appears in parts {part_at[p]} and {i}")
                part_at[p] = i
                positions.append(p)
            positions.sort()
            norm.append(tuple([vs[p] for p in positions]))
        if -1 in part_at:
            missing = [v for v, part in zip(vs, part_at) if part < 0]
            raise HypergraphError(f"parts do not cover vertices {missing!r}")
        for pos, key in enumerate(base.edge_index_tuples()):
            if len({part_at[i] for i in key}) != len(key):
                hits = sorted(part_at[i] for i in key)
                raise HypergraphError(f"edge #{pos} meets one part more than once (parts {hits})")
        self._adopt(vs, vindex, base.edge_index_tuples())
        self._base = base
        self._parts = tuple(norm)

    @property
    def base(self) -> Hypergraph:
        """The hypergraph without parts that this value was built from."""
        return self._base

    @property
    def parts(self) -> tuple[tuple[VertexId, ...], ...]:
        return self._parts

    @property
    def num_parts(self) -> int:
        return len(self._parts)

    def part_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self._parts)

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
