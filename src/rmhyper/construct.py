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
hypergraphs for the builders.  The builders and :func:`build_factor` are
estimate-first: each refuses once, before it materialises anything, when its
estimate exceeds the hard limits.  No step can pass them after that, as no
block's output is smaller than its inputs: an amalgam has f.m (h.n - s) +
f.n >= h.n vertices, a factor C(a, r) >= 1 copies; markers add vertices.
Blocks and builders re-verify their structural postconditions so corrupted
inputs fail fast; the supplier and both builders check girth with
:func:`~rmhyper.girth.girth_at_least`, on outputs of every size.

All construction operations relabel their output onto integer vertex ids
0..n-1 with a deterministic layout and return the relabelling maps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import combinations, product
from math import comb, factorial, isqrt
from typing import Any, Callable, Iterator, Sequence

from .core import (
    Hypergraph,
    HypergraphError,
    PartiteHypergraph,
    VertexId,
    comb_at_most,
    complete_hypergraph,
    validate_girth,
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
    """No supplier in the table serves the inputs within the limits."""


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
        raise _Astronomical(f"complete base alone has ~10^{_log10_comb(n, r):.0f} edges")
    return _Size(n, edges)


_HALF_LN_2PI = Decimal("0.918938533204672741780329736405617639861397473637783")


def _leading(x: int) -> Decimal:
    """``x`` in the current context from its leading 200 bits (about 60
    digits), with the dropped bits carried as a power of two, so that a huge
    ``x`` is never converted in full."""
    shift = max(0, x.bit_length() - 200)
    return Decimal(x >> shift) * Decimal(2) ** shift


def _log10_comb(n: int, r: int) -> Decimal:
    """log10 C(n, r) in 50-digit decimal arithmetic whatever the operands'
    size: no operand passes through a float (r near 10^400 overflows one),
    and none is converted in full (see :func:`_leading`).

    ln(n! / (n-k)!) is Stirling's series up to 1/(12 m), with -ln(1 - k/n)
    summed as sum_j (k/n)^j / j, since ln n - ln(n-k) would cancel all of n's
    digits.  ln k! is exact below k = 1000 and Stirling's series above, whose
    first omitted term is below 1e-18.  So the error is about
    1/(360 (n-k)^3) plus rounding in the 45th digit.
    """
    k = min(r, n - r)
    with localcontext(Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        dn, dk = _leading(n), _leading(k)
        x = dk / dn  # at most 1/2
        neg_log1p, power, j = Decimal(0), x, 1
        while neg_log1p + power / j != neg_log1p:
            neg_log1p += power / j
            power, j = power * x, j + 1
        falling = dk * dn.ln() + (dn - dk + Decimal("0.5")) * neg_log1p - dk
        falling += (1 / dn - 1 / (dn - dk)) / 12
        if k < 1000:
            log_k_factorial = Decimal(factorial(k)).ln()
        else:
            log_k_factorial = (dk + Decimal("0.5")) * dk.ln() - dk + _HALF_LN_2PI
            log_k_factorial += 1 / (12 * dk) - 1 / (360 * dk**3)
        return (falling - log_k_factorial) / Decimal(10).ln()


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
    girth: no graph of that girth and degree is smaller, so a row past
    SIZE_CAP is astronomical, and trial division decides only p below 10^5.

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
        points = sum(p**i for i in range(n))
        if q * points > SIZE_CAP:  # only for q >= 2, where edges >= vertices
            raise _Astronomical(f"the girth-{2 * n} row has over {SIZE_CAP:.0e} edges")
        if n == 2 or (p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))):
            return _Size(2 * points, q * points), lambda: _polygon_incidence_graph(n, p)
    if ell == 2 and q <= 2:
        return _Size(g, g), lambda: Hypergraph(range(g), [(i, (i + 1) % g) for i in range(g)])
    raise SupplierError(
        f"no supplier for ell={ell}, g={g}, q={q}: the table serves g = 2 and, for "
        "graphs, g <= 4, g <= 8 with q - 1 prime, and any g with q <= 2"
    )


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


def _lines(dim: int, p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every line of PG(dim - 1, p) once, as its reduced basis (x, y): y is a
    point with its leading 1 at j, and x has its leading 1 at some i < j and
    x_j = 0.  This is the line's 2 x dim basis in reduced row echelon form,
    so every line has exactly one.  Each other point of the line is a x + b y
    with a != 0, whose leading entry is a at i, so it is x + t y, t = b / a,
    for exactly one t in F_p, and is normalised as it stands."""
    for y in _projective_points(dim, p):
        j = y.index(1)
        for i in range(j):
            for rest in product(range(p), repeat=dim - 2 - i):
                yield (0,) * i + (1,) + rest[: j - i - 1] + (0,) + rest[j - i - 1 :], y


def _polygon_incidence_graph(n: int, p: int) -> Hypergraph:
    """The incidence graph of a generalized n-gon of order (p, p), n in
    {2, 3, 4}: points 0..P-1, then lines P..2P-1.

    n = 2: every point on every line.  n = 3: the plane PG(2, p), each line
    at the place of its dual point u (u . x = 0 on it).  n = 4: the quadrangle
    W(p): all points of PG(3, p) and, sorted, the lines of :func:`_lines` on
    which the symplectic form x0*y1 - x1*y0 + x2*y3 - x3*y2 vanishes.
    """
    if n == 2:
        lines: list[Sequence[int]] = [range(p + 1)] * (p + 1)
    else:
        points = _projective_points(n, p)
        index = {x: i for i, x in enumerate(points)}
        def on(x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
            span = (tuple((a + t * b) % p for a, b in zip(x, y)) for t in range(p))
            return [index[y], *(index[z] for z in span)]
        if n == 3:
            lines = [()] * len(points)
            for (x0, x1, x2), y in _lines(3, p):
                u = (x1 * y[2] - x2 * y[1], x2 * y[0] - x0 * y[2], x0 * y[1] - x1 * y[0])
                lines[index[_normalised(u, p)]] = on((x0, x1, x2), y)
        else:
            form = lambda x, y: x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]
            lines = sorted(sorted(on(x, y)) for x, y in _lines(4, p) if form(x, y) % p == 0)
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
    anchor = h.parts[part_index]
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
                other_parts[j].extend(cmap[v] for v in h.parts[j])

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
            parts[target].extend(cmap[v] for v in f.parts[k])
        offset += nf
    result = PartiteHypergraph(Hypergraph(range(offset), edges), parts)
    actual = _Size(result.num_vertices, result.num_edges, result.part_sizes())
    if _factor_size(f, num_parts) != actual:
        raise AssertionError("partite factor broke its cardinality identities")
    return result, tuple(copy_maps)


def supply_min_degree_girth(
    ell: int, g: int, q: int, limits: BuildLimits = BuildLimits()
) -> Hypergraph:
    """An ell-uniform hypergraph with girth >= g and minimum degree >= q.

    Built from the table of :func:`_supplier`: the complete ell-uniform
    hypergraph for g = 2 (K_{q+1} for graphs, also for g = 3), K_{q,q} for
    graphs with g = 4, the incidence graph of the plane PG(2, q-1) for g <= 6
    and of the quadrangle W(q-1) for g <= 8 when q - 1 is prime, and the
    cycle C_g for graphs with q <= 2.  The output is deterministic and
    re-verified before return: its size against the table's, then uniformity,
    minimum degree, and girth by :func:`~rmhyper.girth.girth_at_least`.
    Inputs outside the table, and suppliers beyond the limits or ``SIZE_CAP``,
    raise :class:`SupplierError` before anything is built.
    """
    validate_uniformity(ell)
    validate_girth(g)
    if q < 1:
        raise ValueError(f"minimum degree must be >= 1, got {q}")
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
    if (h.num_vertices, h.num_edges) != (size.num_vertices, size.num_edges):
        raise AssertionError("supplier output differs from its table size")
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

    def __init__(self, limits: BuildLimits = BuildLimits()) -> None:
        self.limits = limits
        self.note = ""

    def step(self, size: _Size, where: str, build: Callable[[], Any]) -> Any:
        if size.num_vertices > SIZE_CAP or size.num_edges > SIZE_CAP:
            raise _Astronomical(f"exceeds {SIZE_CAP:.0e} at {where}")
        return size


class _Build(_Sizes):
    """Evaluates a recursion over hypergraphs; the final estimate bounds every step."""

    def step(self, size: _Size, where: str, build: Callable[[], Any]) -> Any:
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
    ops: _Sizes, start: Any, base_for_part: Callable[[int, int], Any], trace: TraceNode
) -> Any:
    """Amalgamate ``start`` along parts 0..a-1 in turn, with the
    ``size``-uniform ``base_for_part(j, size)`` at step j: the inner loop of
    the rm-unavoidable recursion."""
    current = start
    for j in range(len(start.part_sizes())):
        size = current.part_sizes()[j]
        base = base_for_part(j, size)
        current = ops.step(
            _amalgam_size(current, j, base), f"sweep step {j + 1}",
            lambda: amalgamate(current, j, base)[0],
        )
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
    validate_girth(g)
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
    r: int, g: int, limits: BuildLimits = BuildLimits()
) -> PartiteHypergraph:
    """The r-uniform r-partite part-rainbow-forced hypergraph of girth >= g.

    Base: the path on three vertices.  Step k -> k+1: attach edge markers,
    then amalgamate along the new part using a supplier hypergraph whose
    uniformity is the edge count and whose minimum degree is edge count times
    (k+1).  Estimate-first: refuses with a SizeLimitError, before building
    anything, when the predicted size exceeds the limits, and with a
    SupplierError when the table has no supplier for a step.
    """
    what = f"part-rainbow-forced recursion for r={r}, g={g}"
    _refuse_beyond(estimate_pr_size(r, g), what, limits)
    pr = _pr_recursion(r, g, _Build(limits))
    _verify(pr, r, g)
    return pr


def build_factor(
    p: PartiteHypergraph, a: int, limits: BuildLimits = BuildLimits()
) -> PartiteHypergraph:
    """:func:`complete_partite_factor` of ``p`` into ``a`` parts, estimate-first:
    refuses with a SizeLimitError, before building anything, when its C(a, r)
    copies exceed the limits.  Each copy is priced as at least one vertex and
    each of the ``a`` output part lists as one more, so an input without
    vertices is not free.  A count past ``SIZE_CAP`` is astronomical."""
    copies = comb_at_most(a, p.num_parts, SIZE_CAP + 1)
    counts = (copies * max(p.num_vertices, 1) + a, copies * p.num_edges)
    estimate = SizeEstimate(*counts, False)
    if max(counts) > SIZE_CAP:
        estimate = SizeEstimate(None, None, True, f"over {SIZE_CAP:.0e} copies, vertices or edges")
    _refuse_beyond(estimate, f"complete partite factor with {a} parts", limits)
    return complete_partite_factor(p, a)[0]


def build_rm_unavoidable(
    r: int, g: int, limits: BuildLimits = BuildLimits()
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
    what = f"rm-unavoidable recursion for r={r}, g={g}"
    _refuse_beyond(estimate_h_size(r, g), what, limits)
    final, trace = _h_recursion(r, g, _Build(limits))
    _verify(final, r, g)
    return final, trace
