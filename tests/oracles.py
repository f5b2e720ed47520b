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
from itertools import combinations, permutations

from rmhyper.coloring import search_order
from rmhyper.core import Hypergraph, PartiteHypergraph
from rmhyper.formats import to_json_dict
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
