"""Recursive builders for part-rainbow-forced and rm-unavoidable hypergraphs.

The building blocks: attaching a private marker vertex to every edge (raising
uniformity by one), amalgamation of a partite hypergraph along one part using
a base hypergraph, complete partite factors, and a supplier of uniform
hypergraphs with prescribed minimum degree and girth.  The supplier is a
fixed table of deterministic hypergraphs: complete hypergraphs for girth 2
(and complete graphs for girth 3), the incidence graphs of K_{q,q}, the plane
PG(2, q-1) and the quadrangle W(q-1) for graphs up to girth 8, and cycles for
graphs of minimum degree at most 2.  Inputs outside the table are refused
before any work, so every build is deterministic and every estimate exact.

Each recursion is written once, as steps that pair a block's cardinality
identity with its builder, and evaluated two ways: over sizes (exact integers,
or an astronomical marker past ``SIZE_CAP``) for the estimates, and over
hypergraphs for the builders.  Builders are estimate-first: both refuse
before they materialise anything when the estimate exceeds the hard limits,
and check each step's predicted size against the limits before taking it.
Blocks and builders re-verify their structural postconditions so corrupted
inputs fail fast; the supplier and both builders check girth with
:func:`~rmhyper.girth.girth_at_least`, on outputs of every size.

All construction operations relabel their output onto integer vertex ids
0..n-1 with a deterministic layout and return the relabelling maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from typing import Any, Callable, Sequence

from .core import (
    Hypergraph,
    HypergraphError,
    PartiteHypergraph,
    VertexId,
    comb_at_most,
    complete_hypergraph,
    validate_uniformity,
)
from .girth import girth_at_least

SIZE_CAP = 10**15  # beyond this, predicted counts are reported as astronomical


@dataclass(frozen=True)
class BuildLimits:
    max_vertices: int = 100_000
    max_edges: int = 500_000

    def __post_init__(self) -> None:
        if self.max_vertices <= 0 or self.max_edges <= 0:
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class SizeEstimate:
    """Predicted cardinalities of a construction, or an astronomical marker."""

    vertices: int | None
    edges: int | None
    astronomical: bool
    note: str = ""

    def within(self, limits: BuildLimits) -> bool:
        if self.astronomical or self.vertices is None or self.edges is None:
            return False
        return self.vertices <= limits.max_vertices and self.edges <= limits.max_edges


class SizeLimitError(RuntimeError):
    """A construction was refused because its predicted size exceeds limits."""

    def __init__(self, message: str, estimate: SizeEstimate):
        super().__init__(message)
        self.estimate = estimate


class _Astronomical(SizeLimitError):
    """A predicted size passed SIZE_CAP; the note says where."""

    def __init__(self, note: str):
        super().__init__(note, SizeEstimate(None, None, True, note))


class SupplierError(RuntimeError):
    """No supplier in the table serves the inputs, or the one that does
    exceeds the limits."""


@dataclass
class TraceNode:
    """One construction step with its recorded cardinalities."""

    op: str
    info: dict
    children: list["TraceNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "info": self.info,
            "children": [c.to_dict() for c in self.children],
        }


# ---------------------------------------------------------------------------
# Cardinality identities (pure arithmetic; inputs are hypergraphs or _Size)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Size:
    """The cardinalities of a hypergraph, read like one."""

    num_vertices: int
    num_edges: int
    parts: tuple[int, ...] = ()

    def part_sizes(self) -> tuple[int, ...]:
        return self.parts

    @property
    def base(self) -> "_Size":
        return self


def _marked_size(p: Any) -> _Size:
    """attach_edge_markers: one new vertex per edge, all in one new part."""
    return _Size(p.num_vertices + p.num_edges, p.num_edges, (*p.part_sizes(), p.num_edges))


def _amalgam_size(h: Any, j: int, f: Any) -> _Size:
    """amalgamate along part j: one copy of h per edge of f, with part j
    identified with f's vertex set."""
    parts = [f.num_edges * s for s in h.part_sizes()]
    parts[j] = f.num_vertices
    return _Size(
        f.num_edges * (h.num_vertices - h.part_sizes()[j]) + f.num_vertices,
        f.num_edges * h.num_edges,
        tuple(parts),
    )


def _factor_size(p: Any, a: int) -> _Size:
    """complete_partite_factor: C(a, r) copies of p.  Copy part k lands in
    part t for the C(t, k) * C(a-1-t, r-1-k) subsets whose k-th smallest is t."""
    sizes = p.part_sizes()
    r = len(sizes)
    parts = tuple(
        sum(comb(t, k) * comb(a - 1 - t, r - 1 - k) * s for k, s in enumerate(sizes))
        for t in range(a)
    )
    return _Size(comb(a, r) * p.num_vertices, comb(a, r) * p.num_edges, parts)


def _complete_size(n: int, r: int) -> _Size:
    """complete_hypergraph(n, r), without computing C(n, r) past SIZE_CAP."""
    edges = comb_at_most(n, r, SIZE_CAP + 1)
    if edges > SIZE_CAP:
        # log10 C(n, k) with ln(n! / (n-k)!) by Stirling's series, written
        # through log1p: lgamma(n + 1) - lgamma(n - k + 1) cancels to 0.0 at
        # n near 10^42
        k = min(r, n - r)
        falling = k * math.log(n) - (n - k + 0.5) * math.log1p(-k / n) - k
        falling += (1 / n - 1 / (n - k)) / 12
        digits = (falling - math.lgamma(k + 1)) / math.log(10)
        raise _Astronomical(f"complete base alone has ~10^{digits:.0f} edges")
    return _Size(n, edges)


# ---------------------------------------------------------------------------
# The supplier table
# ---------------------------------------------------------------------------


def _supplier(ell: int, g: int, q: int) -> tuple[_Size, Callable[[], Hypergraph]]:
    """The supplier of :func:`supply_min_degree_girth` as its exact size and
    its builder; inputs that no row serves raise SupplierError.

    g = 2, or ell = 2 and g = 3: the complete ell-uniform hypergraph on the
    fewest n with C(n-1, ell-1) >= q, which is K_{q+1} for graphs.

    ell = 2, 4 <= g <= 8: the incidence graph of a generalized n-gon of order
    (p, p), p = q - 1, n = ceil(g / 2), with girth 2n and 1 + p + ... +
    p^(n-1) points and as many lines: K_{q,q} (n = 2), the plane PG(2, p)
    (n = 3) and the symplectic quadrangle W(p) (n = 4), the last two over the
    prime field F_p.  Each is q-regular and meets the Moore bound for its own
    girth: no graph of that girth and degree is smaller.

    ell = 2, q <= 2, for inputs the rows above do not serve: the cycle C_g.
    """
    if g == 2 or (ell == 2 and g == 3):
        lo, hi = ell, ell + q - 1  # C(ell + q - 2, ell - 1) >= q
        while lo < hi:
            mid = (lo + hi) // 2
            if comb_at_most(mid - 1, ell - 1, q) >= q:
                hi = mid
            else:
                lo = mid + 1
        return _complete_size(lo, ell), lambda: complete_hypergraph(lo, ell)
    if ell == 2 and g <= 8:
        n, p = (g + 1) // 2, q - 1
        if n > 2 and p >= _PRIME_TEST_LIMIT:
            raise SupplierError(
                f"no supplier for ell={ell}, g={g}, q={q}: whether q - 1 is prime is "
                f"decided only below {_PRIME_TEST_LIMIT}"
            )
        if n == 2 or _is_prime(p):
            points = sum(p**i for i in range(n))
            return _Size(2 * points, q * points), lambda: _polygon_incidence_graph(n, p)
    if ell == 2 and q <= 2:
        return _Size(g, g), lambda: Hypergraph(range(g), [(i, (i + 1) % g) for i in range(g)])
    raise SupplierError(
        f"no supplier for ell={ell}, g={g}, q={q}: the table serves g = 2 and, for "
        "graphs, g <= 4, g <= 8 with q - 1 prime, and any g with q <= 2"
    )


# Miller-Rabin with the first 12 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them.
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TEST_LIMIT = 318_665_857_834_031_151_167_461


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for p < _PRIME_TEST_LIMIT."""
    if p < 2:
        return False
    for a in _PRIME_TEST_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_TEST_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _projective_points(dim: int, p: int) -> list[tuple[int, ...]]:
    """The points of PG(dim - 1, p): the nonzero vectors of F_p^dim whose
    first nonzero coordinate is 1, in lexicographic order."""
    return [
        (0,) * j + (1,) + rest
        for j in reversed(range(dim))
        for rest in product(range(p), repeat=dim - 1 - j)
    ]


def _normalised(x: tuple[int, ...], p: int) -> tuple[int, ...]:
    inverse = pow(next(c for c in x if c), -1, p)
    return tuple(c * inverse % p for c in x)


def _hyperplane(u: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """The points x of PG(len(u) - 1, p) with u . x = 0, for a normalised u.
    With u_j the leading 1, x is fixed by its other coordinates, which run
    over the points of PG(len(u) - 2, p)."""
    j = u.index(1)
    rest = u[:j] + u[j + 1 :]
    return [
        _normalised((*a[:j], -sum(b * c for b, c in zip(a, rest)) % p, *a[j:]), p)
        for a in _projective_points(len(u) - 1, p)
    ]


def _polygon_incidence_graph(n: int, p: int) -> Hypergraph:
    """The incidence graph of a generalized n-gon of order (p, p), n in
    {2, 3, 4}: points 0..P-1, then lines P..2P-1.

    n = 2: every point on every line.  n = 3: the plane PG(2, p), whose line
    u holds the points x with u . x = 0.  n = 4: the quadrangle W(p), all
    points of PG(3, p) with the lines through two points x, y on which the
    symplectic form x0*y1 - x1*y0 + x2*y3 - x3*y2 vanishes.
    """
    if n == 2:
        lines: list[Sequence[int]] = [range(p + 1)] * (p + 1)
    elif n == 3:
        points = _projective_points(3, p)
        index = {x: i for i, x in enumerate(points)}
        lines = [[index[x] for x in _hyperplane(u, p)] for u in points]
    else:
        points = _projective_points(4, p)
        index = {x: i for i, x in enumerate(points)}
        found: set[tuple[int, ...]] = set()
        for i, x in enumerate(points):
            # the lines on x lie in the plane of the y with form(x, y) = 0,
            # and each meets y_j = 0 (x_j the leading 1) in one point y
            j = x.index(1)
            for y in _hyperplane(_normalised((-x[1], x[0], -x[3], x[2]), p), p):
                if y[j] == 0:
                    span = (tuple((b + t * a) % p for a, b in zip(x, y)) for t in range(p))
                    found.add(tuple(sorted([i, *(index[_normalised(z, p)] for z in span)])))
        lines = sorted(found)
    size = len(lines)
    edges = [(i, size + j) for j, line in enumerate(lines) for i in line]
    return Hypergraph(range(2 * size), edges)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def attach_edge_markers(
    p: PartiteHypergraph,
) -> tuple[PartiteHypergraph, dict[VertexId, int], tuple[int, ...]]:
    """Extend every edge by a private fresh vertex placed in one new part.

    The input must be r-uniform r-partite; the output is (r+1)-uniform
    (r+1)-partite with the new part's size equal to the edge count.  Returns
    the extended hypergraph, the relabelling of the original vertices onto
    0..n-1, and the marker ids in canonical edge order.
    """
    r = p.num_parts
    if p.num_edges and p.uniformity() != r:
        raise HypergraphError(f"input must be {r}-uniform to match its {r} parts")
    n = p.num_vertices
    vmap = {v: i for i, v in enumerate(p.vertices)}
    markers = tuple(range(n, n + p.num_edges))
    edges = [(*key, markers[pos]) for pos, key in enumerate(p.edge_index_tuples())]
    parts = [tuple(vmap[v] for v in part) for part in p.parts]
    parts.append(markers)
    result = PartiteHypergraph(Hypergraph(range(n + p.num_edges), edges), parts)
    return result, vmap, markers


def amalgamate(
    h: PartiteHypergraph, part_index: int, f: Hypergraph
) -> tuple[PartiteHypergraph, tuple[dict[VertexId, int], ...]]:
    """Amalgamation of ``h`` along ``part_index`` using ``f``.

    Takes one vertex-disjoint copy of ``h`` per edge of ``f`` and identifies
    the chosen part of each copy with that edge (both in canonical order).
    The result's chosen part is the vertex set of ``f``; every other part is
    the disjoint union of the copies' parts.  Returns the amalgam and one
    embedding per copy, in ``f``'s canonical edge order.
    """
    if not 0 <= part_index < h.num_parts:
        raise HypergraphError(f"part index {part_index} out of range")
    anchor = h.part(part_index)
    size = len(anchor)
    if size < 2:
        raise HypergraphError(f"part {part_index} has {size} vertices; need >= 2 to amalgamate")
    if not f.is_uniform(size):
        raise HypergraphError(
            f"base hypergraph must be {size}-uniform to match part {part_index}"
        )
    nf = f.num_vertices
    copy_maps: list[dict[VertexId, int]] = []
    edges: list[list[int]] = []
    other_parts: list[list[int]] = [[] for _ in range(h.num_parts)]
    keys = h.edge_index_tuples()
    fresh = nf
    for fe in f.edge_index_tuples():
        cmap: dict[VertexId, int] = {}
        for v, target in zip(anchor, fe):
            cmap[v] = target
        for v in h.vertices:
            if v not in cmap:
                cmap[v] = fresh
                fresh += 1
        copy_maps.append(cmap)
        at = [cmap[v] for v in h.vertices]
        edges.extend([[at[i] for i in key] for key in keys])
        for j in range(h.num_parts):
            if j != part_index:
                other_parts[j].extend(cmap[v] for v in h.part(j))

    parts: list[Sequence[int]] = [
        tuple(range(nf)) if j == part_index else tuple(other_parts[j])
        for j in range(h.num_parts)
    ]
    result = PartiteHypergraph(Hypergraph(range(fresh), edges), parts)

    # cardinality identities (fail fast on corrupted inputs)
    actual = _Size(result.num_vertices, result.num_edges, result.part_sizes())
    if _amalgam_size(h, part_index, f) != actual:
        raise AssertionError("amalgamation broke its cardinality identities")
    return result, tuple(copy_maps)


def complete_partite_factor(
    f: PartiteHypergraph, num_parts: int
) -> tuple[PartiteHypergraph, tuple[dict[VertexId, int], ...]]:
    """Union of C(a, r) disjoint copies of ``f``, one inside each r-subset of
    ``a`` parts, with copy part k mapped into the k-th smallest chosen part.

    Guarantees that the union of any r parts of the result contains the full
    vertex set of some copy.  Returns the factor plus one embedding per copy,
    in sorted r-subset order.
    """
    r = f.num_parts
    if num_parts < r:
        raise HypergraphError(f"need at least r={r} parts, got {num_parts}")
    if f.num_edges and f.uniformity() != r:
        raise HypergraphError(f"input must be {r}-uniform to match its {r} parts")
    nf = f.num_vertices
    copy_maps: list[dict[VertexId, int]] = []
    edges: list[list[int]] = []
    parts: list[list[int]] = [[] for _ in range(num_parts)]
    keys = f.edge_index_tuples()
    offset = 0
    for subset in combinations(range(num_parts), r):
        cmap = {v: offset + i for i, v in enumerate(f.vertices)}
        copy_maps.append(cmap)
        edges.extend([[offset + i for i in key] for key in keys])
        for k, target in enumerate(subset):
            parts[target].extend(cmap[v] for v in f.part(k))
        offset += nf
    result = PartiteHypergraph(Hypergraph(range(offset), edges), parts)
    actual = _Size(result.num_vertices, result.num_edges, result.part_sizes())
    if _factor_size(f, num_parts) != actual:
        raise AssertionError("partite factor broke its cardinality identities")
    return result, tuple(copy_maps)


def supply_min_degree_girth(
    ell: int, g: int, q: int, limits: BuildLimits | None = None
) -> Hypergraph:
    """An ell-uniform hypergraph with girth >= g and minimum degree >= q.

    Built from the table of :func:`_supplier`: the complete ell-uniform
    hypergraph for g = 2 (K_{q+1} for graphs, also for g = 3), K_{q,q} for
    graphs with g = 4, the incidence graph of the plane PG(2, q-1) for g <= 6
    and of the quadrangle W(q-1) for g <= 8 when q - 1 is prime, and the
    cycle C_g for graphs with q <= 2.  The output is deterministic, sized
    exactly by the estimators, and re-verified before return: uniformity,
    minimum degree, and girth by :func:`~rmhyper.girth.girth_at_least`.
    Inputs outside the table, and suppliers beyond the vertex or edge limit,
    raise :class:`SupplierError` before anything is built.
    """
    validate_uniformity(ell)
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")
    if q < 1:
        raise ValueError(f"minimum degree must be >= 1, got {q}")
    limits = limits or BuildLimits()
    try:
        size, build = _supplier(ell, g, q)
    except _Astronomical as exc:
        raise SupplierError(f"supplier for ell={ell}, g={g}, q={q}: {exc}") from None
    if size.num_vertices > limits.max_vertices or size.num_edges > limits.max_edges:
        raise SupplierError(
            f"supplier for ell={ell}, g={g}, q={q} exceeds the limits "
            f"({limits.max_vertices} vertices / {limits.max_edges} edges)"
        )
    h = build()
    if not h.is_uniform(ell) or min(h.degree(v) for v in h.vertices) < q:
        raise AssertionError("supplier output lost uniformity or minimum degree")
    if not girth_at_least(h, g):
        raise AssertionError("supplier output lost the girth guarantee")
    return h


# ---------------------------------------------------------------------------
# The recursions, evaluated over sizes (estimates) or hypergraphs (builders)
# ---------------------------------------------------------------------------


class _Sizes:
    """Evaluates a recursion over cardinalities: every step returns its
    predicted size, and one past SIZE_CAP ends the evaluation."""

    def __init__(self, limits: BuildLimits | None = None) -> None:
        self.limits = limits
        self.note = ""

    def step(self, size: _Size, where: str, build: Callable[[], Any]) -> Any:
        if size.num_vertices > SIZE_CAP or size.num_edges > SIZE_CAP:
            raise _Astronomical(f"exceeds {SIZE_CAP:.0e} at {where}")
        return size


class _Build(_Sizes):
    """Evaluates a recursion over hypergraphs, refusing each step whose
    predicted size exceeds the limits (if any) before taking it."""

    def step(self, size: _Size, where: str, build: Callable[[], Any]) -> Any:
        if self.limits is not None:
            predicted = SizeEstimate(size.num_vertices, size.num_edges, False)
            _refuse_beyond(predicted, where, self.limits)
        return build()


def _refuse_beyond(estimate: SizeEstimate, what: str, limits: BuildLimits) -> None:
    if not estimate.within(limits):
        note = f": {estimate.note}" if estimate.note else ""
        raise SizeLimitError(
            f"{what} exceeds the limits ({limits.max_vertices} vertices / "
            f"{limits.max_edges} edges){note}",
            estimate,
        )


def _shape_info(x: Any) -> dict:
    return {"vertices": x.num_vertices, "edges": x.num_edges, "part_sizes": list(x.part_sizes())}


def _pr_recursion(r: int, g: int, ops: _Sizes) -> Any:
    """The recursion of :func:`build_part_rainbow_forced`."""
    pr: Any = base_rainbow_path()
    for k in range(2, r):
        where = f"uniformity {k + 1}"
        ell = pr.num_edges
        q = ell * (k + 1)
        tilde = ops.step(_marked_size(pr), where, lambda: attach_edge_markers(pr)[0])
        base = ops.step(
            _supplier(ell, g, q)[0], where,
            lambda: supply_min_degree_girth(ell, g, q, ops.limits),
        )
        pr = ops.step(_amalgam_size(tilde, k, base), where, lambda: amalgamate(tilde, k, base)[0])
    return pr


def _sweep(
    ops: _Sizes, start: Any, base_for_part: Callable[[int, int], Any], trace: TraceNode | None
) -> Any:
    current = start
    for j in range(len(start.part_sizes())):
        size = current.part_sizes()[j]
        base = base_for_part(j, size)
        current = ops.step(
            _amalgam_size(current, j, base), f"sweep step {j + 1}",
            lambda: amalgamate(current, j, base)[0],
        )
        if trace is not None:
            info = {"part": j, "part_size": size, "copies": base.num_edges, **_shape_info(current)}
            trace.children.append(TraceNode("amalgamate", info))
    return current


def _h_recursion(r: int, g: int, ops: _Sizes) -> tuple[Any, TraceNode]:
    """The recursion of :func:`build_rm_unavoidable`, with its trace."""
    trace = TraceNode("build_rm_unavoidable", {"r": r, "g": g})
    if g == 2 or r == 2:  # for r = 2 the base is one edge: acyclic, so of any girth
        n = (r - 1) ** 2 + 1
        result = ops.step(_complete_size(n, r), "complete base", lambda: complete_hypergraph(n, r))
        info = {"vertices": result.num_vertices, "edges": result.num_edges}
        if g > 2:
            info["note"] = "base case already meets the girth target"
            ops.note = ops.note or info["note"]
        trace.children.append(TraceNode("complete_base", info))
    else:
        a = (r - 1) ** 2 + r
        pr = _pr_recursion(r, g, ops)
        factor = ops.step(
            _factor_size(pr, a), "complete partite factor",
            lambda: complete_partite_factor(pr, a)[0],
        )
        info = {"parts": a, "copies": comb(a, r), **_shape_info(factor)}
        trace.children.append(TraceNode("complete_partite_factor", info))
        sub = lambda j, size: _h_recursion(size, g - 1, ops)[0]
        result = _sweep(ops, factor, sub, trace).base
    trace.info.update(vertices=result.num_vertices, edges=result.num_edges)
    return result, trace


def _estimate(r: int, g: int, recursion: Callable[[_Sizes], Any]) -> SizeEstimate:
    validate_uniformity(r)
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")
    sizes = _Sizes()
    try:
        result = recursion(sizes)
    except _Astronomical as exc:
        return exc.estimate
    return SizeEstimate(result.num_vertices, result.num_edges, False, sizes.note)


def _verify(h: Hypergraph, r: int, g: int) -> None:
    if not h.is_uniform(r):
        raise AssertionError("recursion produced a non-uniform hypergraph")
    if not girth_at_least(h, g):
        raise AssertionError(f"construction failed its girth >= {g} postcondition")


def estimate_pr_size(r: int, g: int) -> SizeEstimate:
    """Exact size of the part-rainbow-forced construction, or an astronomical
    marker; raises SupplierError where the table has no supplier."""
    return _estimate(r, g, lambda ops: _pr_recursion(r, g, ops))


def estimate_h_size(r: int, g: int) -> SizeEstimate:
    """Exact size of the rm-unavoidable construction, or an astronomical
    marker; raises SupplierError where the table has no supplier."""
    return _estimate(r, g, lambda ops: _h_recursion(r, g, ops)[0])


def base_rainbow_path() -> PartiteHypergraph:
    """The 2-uniform base: a path on three vertices, parts {ends}, {middle}."""
    return PartiteHypergraph(Hypergraph([0, 1, 2], [[0, 1], [1, 2]]), [(0, 2), (1,)])


def build_part_rainbow_forced(
    r: int, g: int, limits: BuildLimits | None = None
) -> PartiteHypergraph:
    """The r-uniform r-partite part-rainbow-forced hypergraph of girth >= g.

    Base: the path on three vertices.  Step k -> k+1: attach edge markers,
    then amalgamate along the new part using a supplier hypergraph whose
    uniformity is the edge count and whose minimum degree is edge count times
    (k+1).  Estimate-first: refuses with a SizeLimitError, before building
    anything, when the predicted size exceeds the limits, and with a
    SupplierError when the table has no supplier for a step.
    """
    limits = limits or BuildLimits()
    what = f"part-rainbow-forced recursion for r={r}, g={g}"
    _refuse_beyond(estimate_pr_size(r, g), what, limits)
    pr = _pr_recursion(r, g, _Build(limits))
    _verify(pr, r, g)
    return pr


def amalgamation_sweep(
    start: PartiteHypergraph,
    base_for_part: Callable[[int, int], Hypergraph],
    trace: TraceNode | None = None,
) -> PartiteHypergraph:
    """Amalgamate ``start`` along parts 0..a-1 in turn.

    ``base_for_part(j, size)`` supplies the hypergraph used at step j, which
    must be ``size``-uniform.  This is the inner loop of the rm-unavoidable
    recursion, exposed so it can be exercised with stand-in bases.
    """
    return _sweep(_Build(), start, base_for_part, trace)


def build_rm_unavoidable(
    r: int, g: int, limits: BuildLimits | None = None
) -> tuple[Hypergraph, TraceNode]:
    """An r-uniform hypergraph of girth >= g in which every vertex coloring
    has a monochromatic or rainbow edge.

    Base (g = 2): the complete r-uniform hypergraph on (r-1)^2 + 1 vertices.
    When that base already has girth >= g (exactly the r = 2 case, where it
    is a single acyclic edge) it is returned directly: the recursion exists
    only to amplify girth.  Otherwise the recursion takes a complete partite
    factor of the rainbow-forcing construction and amalgamates along each
    part with a recursively built hypergraph whose uniformity is that part's
    size.  Estimate-first, like :func:`build_part_rainbow_forced`; beyond the
    base cases the sizes are astronomical.
    """
    limits = limits or BuildLimits()
    what = f"rm-unavoidable recursion for r={r}, g={g}"
    _refuse_beyond(estimate_h_size(r, g), what, limits)
    final, trace = _h_recursion(r, g, _Build(limits))
    _verify(final, r, g)
    return final, trace
