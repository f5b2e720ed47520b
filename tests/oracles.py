"""Independent brute-force oracles, reference kernels, a disjoint union and
seeded corpus generators.

The oracles re-derive expected values straight from the definitions,
without touching the library's incidence reduction or backtracking solver,
so tests can compare two unrelated routes to the same answer.  The
reference kernels are earlier versions of optimised library code, kept so
that tests can require the same results from the current version.
"""
from __future__ import annotations

import json
import random
from itertools import combinations, permutations, product
from typing import Any, Sequence

from rmhyper.coloring import search_order
from rmhyper.core import Hypergraph, PartiteHypergraph
from rmhyper.girth import Girth, GirthResult, _path_to, _witness_from_walk, girth
from rmhyper.randgen import ThresholdResult, _subset_count, derive_seed


def bell_number(n: int) -> int:
    """Bell numbers via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# Cycles straight from the definition
# ---------------------------------------------------------------------------


def _connector_assignments(inter: list[frozenset]) -> list[tuple]:
    """All tuples of pairwise-distinct connectors, one from each slot."""
    out: list[tuple] = []
    chosen: list = []

    def rec(i: int) -> None:
        if i == len(inter):
            out.append(tuple(chosen))
            return
        for x in inter[i]:
            if x not in chosen:
                chosen.append(x)
                rec(i + 1)
                chosen.pop()

    rec(0)
    return out


def _has_cycle_on(keys: list[frozenset], arr: tuple[int, ...]) -> bool:
    ell = len(arr)
    inter = [keys[arr[i]] & keys[arr[(i + 1) % ell]] for i in range(ell)]
    if any(not s for s in inter):
        return False
    return bool(_connector_assignments(inter))


def berge_girth_bruteforce(h: Hypergraph) -> int | None:
    """Shortest Berge cycle length by direct enumeration; None if acyclic."""
    keys = [frozenset(t) for t in h.edge_index_tuples()]
    m = len(keys)
    for ell in range(2, m + 1):
        for combo in combinations(range(m), ell):
            if ell == 2:
                if _has_cycle_on(keys, combo):
                    return 2
                continue
            first, rest = combo[0], combo[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue
                if _has_cycle_on(keys, (first,) + perm):
                    return ell
    return None


def _canonical_cycle_key(arr: tuple[int, ...], connectors: tuple) -> tuple:
    ell = len(arr)
    rotations = [tuple(arr[(i + k) % ell] for i in range(ell)) for k in range(ell)]
    rev = tuple(reversed(arr))
    rotations += [tuple(rev[(i + k) % ell] for i in range(ell)) for k in range(ell)]
    return (min(rotations), frozenset(connectors))


def count_cycles_bruteforce(h: Hypergraph, ell: int) -> int:
    """Distinct ell-cycles by enumerating every edge order and deduplicating
    (cyclic edge sequence up to rotation/reflection, connector set).

    On an r-uniform ``h`` it also asserts that every cycle spans at most
    (r-1)*ell vertices, the support bound of the paper's cycle-count lemma."""
    keys = [frozenset(t) for t in h.edge_index_tuples()]
    m = len(keys)
    r = h.uniformity()
    seen: set[tuple] = set()
    for combo in combinations(range(m), ell):
        for perm in permutations(combo):
            inter = [keys[perm[i]] & keys[perm[(i + 1) % ell]] for i in range(ell)]
            if any(not s for s in inter):
                continue
            assignments = _connector_assignments(inter)
            if assignments and r is not None:
                support = len(frozenset().union(*(keys[e] for e in perm)))
                assert support <= (r - 1) * ell, f"{ell}-cycle spans {support} vertices"
            for assignment in assignments:
                seen.add(_canonical_cycle_key(perm, assignment))
    return len(seen)


def count_overlapping_pairs(h: Hypergraph) -> int:
    """Edge pairs sharing at least two vertices: an independent 2-cycle count
    whenever no pair of edges overlaps in three or more vertices."""
    keys = [frozenset(t) for t in h.edge_index_tuples()]
    return sum(1 for a, b in combinations(keys, 2) if len(a & b) >= 2)


# ---------------------------------------------------------------------------
# Exhaustive coloring oracle (own partition enumerator)
# ---------------------------------------------------------------------------


def iter_rgs(n: int):
    """Restricted-growth strings of length n (independent implementation)."""
    if n == 0:
        yield ()
        return
    stack = [(1, (0,))]
    while stack:
        top, prefix = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for c in range(top, -1, -1):
            stack.append((max(top, c + 1), prefix + (c,)))


def exhaustive_good_verdict(h: Hypergraph) -> tuple[str, tuple | None]:
    """("witness", rgs) if some partition makes every edge mixed, else
    ("holds", None)."""
    n = h.num_vertices
    edge_keys = h.edge_index_tuples()
    for rgs in iter_rgs(n):
        ok = True
        for key in edge_keys:
            distinct = len({rgs[i] for i in key})
            if distinct == 1 or distinct == len(key):
                ok = False
                break
        if ok:
            return "witness", rgs
    return "holds", None


# ---------------------------------------------------------------------------
# Reference kernel: the solver without forward checking
# ---------------------------------------------------------------------------


def closing_vertex_search(
    h: Hypergraph,
    *,
    forbid_mono: bool,
    forbid_rainbow: bool,
    groups,
    budget: int,
    order_strategy: str,
) -> tuple[str, list[int] | None, int]:
    """The colouring search as it was before forward checking: each edge is
    checked only at its closing vertex, by a rescan of the edges it closes.

    Returns ``(status, classes, nodes)``: ``classes`` lists the canonical
    class of each vertex in ``h``'s vertex order for a witness, else None.
    The forward-checking solver must give the same status and witness on
    every case this decides, in no more nodes.
    """
    n = h.num_vertices
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
    closes = [[] for _ in range(n)]
    for key in h.edge_index_tuples():
        last = max(key, key=position.__getitem__)
        closes[last].append(tuple(u for u in key if u != last))
    bit = [0] * n
    pending = [0] * n
    fresh_before = [0] * n
    fresh = 1
    nodes = 0
    depth = 0
    descending = True
    while True:
        if descending:
            if depth == n:
                relabel: dict[int, int] = {}
                classes = [relabel.setdefault(bit[i], len(relabel)) for i in range(n)]
                return "witness_found", classes, nodes
            v = order[depth]
            forbidden = 0
            required = -1
            for others in closes[v]:
                m = 0
                for u in others:
                    m |= bit[u]
                if m & (m - 1) == 0:
                    if forbid_mono:
                        forbidden |= m
                    if forbid_rainbow and len(others) == 1:
                        required &= m
                elif forbid_rainbow and m.bit_count() == len(others):
                    required &= m
            todo = ((fresh << 1) - 1) & required & ~forbidden & ~part_used[part_of[v]]
            fresh_before[depth] = fresh
        else:
            v = order[depth]
            part_used[part_of[v]] ^= bit[v]
            fresh = fresh_before[depth]
            todo = pending[depth]
        if not todo:
            if depth == 0:
                return "property_holds", None, nodes
            depth -= 1
            descending = False
            continue
        b = todo & -todo
        pending[depth] = todo ^ b
        nodes += 1
        if nodes > budget:
            return "budget_exceeded", None, nodes
        bit[v] = b
        if b == fresh:
            fresh <<= 1
        part_used[part_of[v]] |= b
        depth += 1
        descending = True


# ---------------------------------------------------------------------------
# Reference kernels: the writers, the threshold search, the sub-edge draw and
# the integer root before their rewrites
# ---------------------------------------------------------------------------


def to_json_dict(h: Hypergraph, meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """The canonical document of ``h`` as a dict."""
    vs = h.vertices
    doc: dict[str, Any] = {
        "vertices": list(vs),
        "edges": [[vs[i] for i in key] for key in h.edge_index_tuples()],
    }
    if isinstance(h, PartiteHypergraph):
        doc["parts"] = [list(p) for p in h.parts]
    if meta is not None:
        doc["meta"] = meta
    return doc


def dumps_reference(h: Hypergraph, meta=None) -> str:
    """The canonical document through the pure-Python indenting encoder."""
    return json.dumps(to_json_dict(h, meta), sort_keys=True, indent=2) + "\n"


def to_dot_reference(h: Hypergraph) -> str:
    """The DOT export as it was, naming a vertex once per incidence."""

    def dot_id(prefix, value) -> str:
        text = str(value).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{prefix}:{text}"'

    vs = h.vertices
    lines = ["graph incidence {"]
    for v in vs:
        lines.append(f"  {dot_id('v', v)} [shape=circle];")
    for pos in range(h.num_edges):
        lines.append(f"  {dot_id('e', pos)} [shape=box];")
    for pos, key in enumerate(h.edge_index_tuples()):
        for i in key:
            lines.append(f"  {dot_id('v', vs[i])} -- {dot_id('e', pos)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def counting_sides_mpmath(n: int, a: int, g: int, dps: int = 50):
    """Both sides of the counting inequality in mpmath, as the library
    evaluated them before it moved to the standard library's decimal."""
    from mpmath import mp

    with mp.workdps(dps):
        nn = mp.mpf(n)
        lhs = nn * mp.log(nn) + mp.log(a - 1)
        rhs = nn ** (1 + mp.mpf(1) / g) * mp.log(mp.mpf(a) / (a - 1))
        return lhs, rhs


def counting_inequality_holds_mpmath(n: int, r: int, g: int) -> bool:
    """The two-precision check on :func:`counting_sides_mpmath`."""
    a = _subset_count(r)
    lo_lhs, lo_rhs = counting_sides_mpmath(n, a, g, dps=30)
    hi_lhs, hi_rhs = counting_sides_mpmath(n, a, g, dps=60)
    if (lo_lhs < lo_rhs) != (hi_lhs < hi_rhs):
        raise ArithmeticError(f"precision-dependent comparison at n={n}")
    return bool(hi_lhs < hi_rhs)


def counting_threshold_exact(r: int, g: int, holds, sides, *, n_max: int = 10**12) -> ThresholdResult:
    """The threshold search run on an exact check ``holds(n, r, g)`` alone,
    reporting ``sides(n, a, g)`` at the threshold."""
    a = _subset_count(r)
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")
    hi = 2
    while not holds(hi, r, g):
        hi *= 2
        if hi > n_max:
            raise ArithmeticError(f"no satisfying n found below {n_max}")
    lo = max(2, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid, r, g):
            hi = mid
        else:
            lo = mid + 1
    n = hi
    while n > 2 and holds(n - 1, r, g):
        n -= 1
    if not holds(n, r, g) or (n > 2 and holds(n - 1, r, g)):
        raise ArithmeticError("threshold boundary verification failed")
    lhs, rhs = sides(n, a, g)
    return ThresholdResult(n=n, lhs=float(lhs), rhs=float(rhs), a=a)


def counting_threshold_mpmath(r: int, g: int, *, n_max: int = 10**12) -> ThresholdResult:
    """The exact threshold search on the mpmath two-precision check."""
    return counting_threshold_exact(
        r, g, counting_inequality_holds_mpmath, counting_sides_mpmath, n_max=n_max
    )


def sample_subedges_reference(h: Hypergraph, r: int, seed: int) -> tuple[tuple, Hypergraph]:
    """The sub-edge draw over vertex ids: each edge's members sorted by a
    vertex-index map of its own, and the spanned hypergraph built from the
    deduplicated choices."""
    rng = random.Random(derive_seed(seed, "subedges"))
    index_order = {v: i for i, v in enumerate(h.vertices)}
    choices = []
    for edge in h.edges:
        members = sorted(edge, key=index_order.__getitem__)
        choices.append(frozenset(rng.sample(members, r)))
    dedup = {tuple(sorted(c, key=index_order.__getitem__)) for c in choices}
    return tuple(choices), Hypergraph(h.vertices, sorted(dedup))


def ceil_power_reference(n: int, num: int, den: int) -> int:
    """ceil(n**(num/den)) by a binary search over [1, n**ceil(num/den)]."""
    if num == den + 1 and n >= 2 and den >= (n + 1) * n.bit_length():
        return n + 1
    target = n**num
    lo, hi = 1, max(2, n ** -(-num // den))
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**den >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# The girth engine before the 2-core peel: a union-find tells a forest apart,
# and every vertex root is scanned.
# ---------------------------------------------------------------------------


def _incidence_adjacency_reference(h: Hypergraph) -> tuple[list[Sequence[int]], bool]:
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


def _scan_from_root_reference(
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


def girth_reference(h: Hypergraph, cap: int) -> GirthResult:
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
    adj, forest = _incidence_adjacency_reference(h)
    if forest:
        return GirthResult(Girth.infinite(), None)

    n = h.num_vertices
    level = [-1] * len(adj)
    parent = [-1] * len(adj)
    best = 2 * cap + 1
    walk: list[int] = []
    for root in range(n):
        # a scan reaches depth cap at most, so each root gets cap + 1 levels
        found = _scan_from_root_reference(adj, root, best, level, parent, root * (cap + 1))
        if found is not None:
            best, u, w = found
            walk = _path_to(parent, u) + _path_to(parent, w)[::-1]
            if best == 4:  # incidence cycles are even and >= 4; cannot improve
                break
    if not walk:
        return GirthResult(Girth.at_least(cap + 1), None)
    assert best % 2 == 0
    return GirthResult(Girth.finite(best // 2), _witness_from_walk(h, walk, best))


def delete_short_cycles_reference(h: Hypergraph, g: int) -> tuple[Hypergraph, int]:
    """The carrier deletion loop before it carried per-root bounds: a fresh
    girth() scan after every deletion, and the first edge of its witness
    deleted."""
    deleted = 0
    if g > 2:
        while True:
            res = girth(h, cap=g - 1)
            if not res.girth.is_finite:
                break
            assert res.witness is not None
            h = h.without_edges([res.witness.edges[0]])
            deleted += 1
    return h, deleted


# ---------------------------------------------------------------------------
# The generalized polygons before one line enumeration served both
# ---------------------------------------------------------------------------


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


def polygon_incidence_graph_reference(n: int, p: int) -> Hypergraph:
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
# Disjoint unions
# ---------------------------------------------------------------------------


def disjoint_union(hs: list[Hypergraph]) -> tuple[Hypergraph, tuple[dict, ...]]:
    """Vertex-disjoint union, relabelled onto 0..N-1.

    Returns the union plus one injection per input, mapping original vertex
    ids to the new integer ids.  Copy k occupies a contiguous id block, in
    the input's canonical vertex order.
    """
    maps: list[dict] = []
    edges: list[list[int]] = []
    offset = 0
    for h in hs:
        relabel = {v: offset + i for i, v in enumerate(h.vertices)}
        maps.append(relabel)
        edges.extend([[relabel[v] for v in e] for e in h.edges])
        offset += h.num_vertices
    return Hypergraph(range(offset), edges), tuple(maps)


# ---------------------------------------------------------------------------
# Seeded corpora
# ---------------------------------------------------------------------------


def random_hypergraph(
    rng: random.Random,
    max_vertices: int = 7,
    max_edges: int = 6,
    max_edge_size: int = 4,
    min_vertices: int = 2,
) -> Hypergraph:
    n = rng.randint(min_vertices, max_vertices)
    want = rng.randint(0, max_edges)
    edges: set[frozenset[int]] = set()
    for _ in range(4 * want):
        if len(edges) == want:
            break
        size = rng.randint(2, min(n, max_edge_size))
        edges.add(frozenset(rng.sample(range(n), size)))
    return Hypergraph(range(n), sorted(tuple(sorted(e)) for e in edges))


def sparse_hypergraph(rng: random.Random, max_vertices: int = 40) -> Hypergraph:
    """A sparse hypergraph on at most ``max_vertices`` vertices with 0.2n to
    1.6n edges of sizes 2 to 4: random edges on a random share of the
    vertices, often a long Berge cycle through some of them, pendant trees
    (each edge meets what came before in one vertex) and isolated vertices.
    Most draws are linear (no two edges share two vertices), so that girth 2
    does not swamp the longer cycles."""
    n = rng.randint(4, max_vertices)
    want = rng.randint(max(1, n // 5), 8 * n // 5)
    linear = rng.random() < 0.7
    order = rng.sample(range(n), n)
    split = rng.randint(2, n)
    dense, fresh = order[:split], order[split:]
    touched = list(dense)
    edges: set[frozenset[int]] = set()
    if rng.random() < 0.5 and len(dense) >= 3:
        ring = dense[: rng.randint(3, len(dense))]
        for i, x in enumerate(ring):
            edges.add(frozenset((ring[i - 1], x)))
    for _ in range(4 * want):
        if len(edges) >= want:
            break
        size = rng.choice((2, 2, 3, 3, 4))
        if fresh and rng.random() < 0.4:
            grown = [fresh.pop() for _ in range(min(size - 1, len(fresh)))]
            edges.add(frozenset([rng.choice(touched), *grown]))
            touched.extend(grown)
        elif len(dense) >= size:
            e = frozenset(rng.sample(dense, size))
            if not linear or all(len(e & f) < 2 for f in edges):
                edges.add(e)
    return Hypergraph(range(n), sorted(tuple(sorted(e)) for e in edges))


def random_graph(rng: random.Random, max_vertices: int = 9, require_edge: bool = True) -> Hypergraph:
    n = rng.randint(2, max_vertices)
    pairs = list(combinations(range(n), 2))
    want = rng.randint(1 if require_edge else 0, len(pairs))
    return Hypergraph(range(n), rng.sample(pairs, want))


def random_partite(
    rng: random.Random,
    max_parts: int = 3,
    max_part_size: int = 3,
    max_edges: int = 5,
) -> PartiteHypergraph:
    num_parts = rng.randint(2, max_parts)
    sizes = [rng.randint(1, max_part_size) for _ in range(num_parts)]
    parts: list[list[int]] = []
    nxt = 0
    for s in sizes:
        parts.append(list(range(nxt, nxt + s)))
        nxt += s
    edges: set[frozenset[int]] = set()
    for _ in range(4 * max_edges):
        if len(edges) >= max_edges:
            break
        span = rng.randint(2, num_parts)
        chosen_parts = rng.sample(range(num_parts), span)
        edges.add(frozenset(rng.choice(parts[p]) for p in chosen_parts))
    edges = {e for e in edges if len(e) >= 2}
    return PartiteHypergraph(
        Hypergraph(range(nxt), sorted(tuple(sorted(e)) for e in edges)), parts
    )
