import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from rmhyper import coloring
from rmhyper.coloring import (
    DEFAULT_BUDGET,
    Coloring,
    ColoringError,
    EdgeClass,
    Verdict,
    VerdictStatus,
    classify_edge,
    coloring_is_good,
    find_good_coloring,
    find_part_rainbow_bad,
    has_rainbow_edge,
    is_part_rainbow,
    search_order,
)
from rmhyper.construct import base_rainbow_path, build_part_rainbow_forced, complete_partite_factor
from rmhyper.core import Hypergraph, PartiteHypergraph, complete_hypergraph

from oracles import (
    bell_number,
    closing_vertex_search,
    exhaustive_good_verdict,
    iter_rgs,
    random_graph,
    random_hypergraph,
    random_partite,
)


def triple():
    return Hypergraph([1, 2, 3], [[1, 2, 3]])


def rainbow_path():
    return PartiteHypergraph(
        Hypergraph(["x", "y", "z"], [{"x", "y"}, {"y", "z"}]), [("x", "z"), ("y",)]
    )


def loose_path(n):
    """3-uniform loose path on n (odd) vertices: consecutive triples share one vertex."""
    return Hypergraph(range(n), [(i, i + 1, i + 2) for i in range(0, n - 2, 2)])


def affine_plane_3():
    """AG(2,3): the 12 lines of the 3x3 grid over GF(3)."""
    lines = set()
    for (x0, y0), (x1, y1) in combinations([(x, y) for x in range(3) for y in range(3)], 2):
        dx, dy = (x1 - x0) % 3, (y1 - y0) % 3
        lines.add(tuple(sorted(3 * ((x0 + k * dx) % 3) + (y0 + k * dy) % 3 for k in range(3))))
    return Hypergraph(range(9), sorted(lines))


def cyclic_sts_13():
    """The cyclic Steiner triple system on Z_13, base blocks {0,1,4}, {0,2,7}."""
    blocks = ((0, 1, 4), (0, 2, 7))
    return Hypergraph(range(13), {tuple((b + i) % 13 for b in block) for block in blocks for i in range(13)})


def projective_space_3_2():
    """PG(3,2): points 1..15 as nonzero vectors of GF(2)^4, lines {a, b, a^b}."""
    return Hypergraph(range(1, 16), {frozenset((a, b, a ^ b)) for a in range(1, 16) for b in range(a + 1, 16)})


def linear_packing(n, seed):
    """A maximal linear 3-uniform packing on 0..n-1 by seeded random greedy choice."""
    triples = list(combinations(range(n), 3))
    random.Random(seed).shuffle(triples)
    covered, chosen = set(), []
    for a, b, c in triples:
        pairs = {(a, b), (a, c), (b, c)}
        if not covered & pairs:
            covered |= pairs
            chosen.append((a, b, c))
    return Hypergraph(range(n), chosen)


class TestClassifyEdge:
    def test_three_kinds(self):
        e = frozenset({1, 2, 3})
        assert classify_edge({1: 0, 2: 0, 3: 0}, e) is EdgeClass.MONOCHROMATIC
        assert classify_edge({1: 0, 2: 1, 3: 2}, e) is EdgeClass.RAINBOW
        assert classify_edge({1: 0, 2: 0, 3: 1}, e) is EdgeClass.MIXED

    def test_uncolored_vertex_raises(self):
        with pytest.raises(ColoringError, match="uncolored"):
            classify_edge({1: 0, 2: 0}, frozenset({1, 2, 3}))

    def test_two_edges_are_never_mixed(self):
        e = frozenset({1, 2})
        assert classify_edge({1: 0, 2: 0}, e) is EdgeClass.MONOCHROMATIC
        assert classify_edge({1: 0, 2: 1}, e) is EdgeClass.RAINBOW


class TestColoringCanonicalForm:
    def test_canonicalises_to_restricted_growth(self):
        h = Hypergraph([0, 1, 2, 3], [[0, 1], [2, 3]])
        c = Coloring.from_assignment(h, {0: 7, 1: 7, 2: 3, 3: 7})
        assert [c.assignment[v] for v in h.vertices] == [0, 0, 1, 0]

    def test_missing_vertex_rejected(self):
        h = Hypergraph([0, 1], [[0, 1]])
        with pytest.raises(ColoringError):
            Coloring.from_assignment(h, {0: 0})

    def test_unknown_vertex_rejected(self):
        h = Hypergraph([0, 1], [[0, 1]])
        with pytest.raises(ColoringError, match="unknown vertices \\{2\\}"):
            Coloring.from_assignment(h, {0: 0, 1: 1, 2: 0})

    def test_class_sizes(self):
        h = Hypergraph(range(4), [[0, 1]])
        c = Coloring.from_assignment(h, {0: 5, 1: 5, 2: 9, 3: 9})
        assert Counter(c.assignment.values()) == {0: 2, 1: 2}
        assert len(set(c.assignment.values())) == 2


class TestEnumeratePartitions:
    """The test oracles' partition enumerator, used by the brute-force checks."""

    @pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (5, 52)])
    def test_known_counts(self, n, count):
        assert sum(1 for _ in iter_rgs(n)) == count

    def test_matches_bell_numbers(self):
        for n in range(9):
            assert sum(1 for _ in iter_rgs(n)) == bell_number(n)

    def test_all_distinct_and_canonical(self):
        seen = set(iter_rgs(6))
        assert len(seen) == bell_number(6)
        for rgs in seen:
            top = 0
            for value in rgs:
                assert 0 <= value <= top
                top = max(top, value + 1)


class TestFindGoodColoring:
    def test_single_triple_has_witness(self):
        v = find_good_coloring(triple())
        assert v.status is VerdictStatus.WITNESS_FOUND
        assert coloring_is_good(triple(), v.coloring)

    def test_any_graph_with_an_edge_holds(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng)
            assert find_good_coloring(g).status is VerdictStatus.PROPERTY_HOLDS

    def test_complete_three_uniform_on_five_holds(self):
        v = find_good_coloring(complete_hypergraph(5, 3))
        assert v.status is VerdictStatus.PROPERTY_HOLDS

    def test_empty_edge_set_any_coloring_is_good(self):
        h = Hypergraph(range(3), [])
        v = find_good_coloring(h)
        assert v.status is VerdictStatus.WITNESS_FOUND

    def test_pigeonhole_sharpness(self):
        # on (r-1)^2 vertices a coloring with r-1 classes of size r-1 is good
        for r in (3, 4):
            tight = find_good_coloring(complete_hypergraph((r - 1) ** 2 + 1, r))
            assert tight.status is VerdictStatus.PROPERTY_HOLDS
            loose = find_good_coloring(complete_hypergraph((r - 1) ** 2, r))
            assert loose.status is VerdictStatus.WITNESS_FOUND
            sizes = Counter(loose.coloring.assignment.values()).values()
            assert len(sizes) == r - 1 and all(s == r - 1 for s in sizes)

    def test_planted_good_coloring_is_found(self):
        rng = random.Random(2025)
        for _ in range(25):
            n = rng.randint(4, 9)
            planted = {v: rng.randint(0, 2) for v in range(n)}
            edges = set()
            for _ in range(12):
                size = rng.randint(3, min(4, n))
                e = frozenset(rng.sample(range(n), size))
                distinct = len({planted[v] for v in e})
                if 1 < distinct < len(e):
                    edges.add(e)
            h = Hypergraph(range(n), sorted(tuple(sorted(e)) for e in edges))
            v = find_good_coloring(h)
            assert v.status is VerdictStatus.WITNESS_FOUND
            assert coloring_is_good(h, v.coloring)

    def test_budget_exhaustion_reports_nodes(self):
        h = complete_hypergraph(8, 4)
        v = find_good_coloring(h, budget=5)
        assert v.status is VerdictStatus.BUDGET_EXCEEDED
        assert v.nodes == 6  # the count that crossed the budget is reported

    def test_witness_valid_under_class_relabeling(self):
        h = Hypergraph(range(5), [[0, 1, 2], [2, 3, 4]])
        v = find_good_coloring(h)
        assert v.status is VerdictStatus.WITNESS_FOUND
        relabeled = {vx: 100 - c for vx, c in v.coloring.assignment.items()}
        assert coloring_is_good(h, relabeled)

    def test_verdicts_match_exhaustive_oracle(self):
        expected = {
            "witness": VerdictStatus.WITNESS_FOUND,
            "holds": VerdictStatus.PROPERTY_HOLDS,
        }
        rng = random.Random(77)
        for _ in range(60):
            h = random_hypergraph(rng, max_vertices=7, max_edges=8)
            kind, _ = exhaustive_good_verdict(h)
            assert find_good_coloring(h).status is expected[kind]

    def test_order_strategies_agree(self):
        rng = random.Random(5)
        for _ in range(25):
            h = random_hypergraph(rng, max_vertices=6, max_edges=6)
            a = find_good_coloring(h, order_strategy="connectivity").status
            b = find_good_coloring(h, order_strategy="degree").status
            assert a == b

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            search_order(triple(), "alphabetical")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            find_good_coloring(triple(), budget=budget)
        with pytest.raises(ValueError, match="budget"):
            find_part_rainbow_bad(rainbow_path(), budget=budget)
        smallest = find_good_coloring(triple(), budget=1)
        assert (smallest.status, smallest.nodes) == (VerdictStatus.BUDGET_EXCEEDED, 2)

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        h = loose_path(1201)
        v = find_good_coloring(h)
        assert v.status is VerdictStatus.WITNESS_FOUND
        assert v.nodes == 1201


class TestPartRainbow:
    def test_rainbow_path_is_forced(self):
        v = find_part_rainbow_bad(rainbow_path())
        assert v.status is VerdictStatus.PROPERTY_HOLDS

    def test_single_cross_part_edge_is_not_forced(self):
        p = PartiteHypergraph(Hypergraph(["u", "v"], [{"u", "v"}]), [("u",), ("v",)])
        v = find_part_rainbow_bad(p)
        assert v.status is VerdictStatus.WITNESS_FOUND
        assert v.coloring.assignment["u"] == v.coloring.assignment["v"]
        assert is_part_rainbow(p, v.coloring)
        assert not has_rainbow_edge(p.base, v.coloring)

    def test_witness_reverifies(self):
        base = Hypergraph(range(4), [[0, 2], [1, 3]])
        p = PartiteHypergraph(base, [(0, 1), (2, 3)])
        v = find_part_rainbow_bad(p)
        assert v.status is VerdictStatus.WITNESS_FOUND
        assert is_part_rainbow(p, v.coloring)
        assert not has_rainbow_edge(base, v.coloring)

    def test_uncolored_part_member_raises(self):
        with pytest.raises(ColoringError, match="vertex 'y' is uncolored"):
            is_part_rainbow(rainbow_path(), {"x": 0, "z": 1})

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        h = loose_path(1201)
        p = PartiteHypergraph(h, [(v,) for v in h.vertices])
        v = find_part_rainbow_bad(p)
        assert v.status is VerdictStatus.WITNESS_FOUND
        assert v.nodes == 1201

    def test_verify_alias(self):
        for strategy in ("connectivity", "degree"):
            assert (
                find_part_rainbow_bad(rainbow_path(), order_strategy=strategy).status
                is VerdictStatus.PROPERTY_HOLDS
            )

    def test_part_rainbow_exhausts_against_bruteforce(self):
        # brute force: enumerate partitions, filter part-rainbow, look for one
        # with no rainbow edge
        rng = random.Random(31)
        for _ in range(40):
            p = random_partite(rng)
            n = p.num_vertices
            order = {v: i for i, v in enumerate(p.vertices)}
            found = None
            for rgs in iter_rgs(n):
                assignment = {v: rgs[order[v]] for v in p.vertices}
                if not is_part_rainbow(p, assignment):
                    continue
                if not has_rainbow_edge(p.base, assignment):
                    found = assignment
                    break
            got = find_part_rainbow_bad(p)
            if found is None:
                assert got.status is VerdictStatus.PROPERTY_HOLDS
            else:
                assert got.status is VerdictStatus.WITNESS_FOUND


@pytest.mark.parametrize(
    "solve, instance, bad",
    [
        (find_good_coloring, triple, {1: 0, 2: 0, 3: 0}),  # a monochromatic edge
        (find_part_rainbow_bad, rainbow_path, {"x": 0, "y": 1, "z": 2}),  # rainbow edges
        (find_part_rainbow_bad, rainbow_path, {"x": 0, "y": 0, "z": 0}),  # part x, z not injective
    ],
)
def test_a_coloring_that_fails_reverification_is_never_reported(monkeypatch, solve, instance, bad):
    h = instance()
    verdict = Verdict(VerdictStatus.WITNESS_FOUND, Coloring.from_assignment(h, bad), 1)
    monkeypatch.setattr(coloring, "_backtrack", lambda *args, **kwargs: verdict)
    with pytest.raises(AssertionError, match="fails re-verification"):
        solve(h)


def _quadratic_connectivity_order(h):
    """The connectivity order by a full rescan per pick, each key counted
    afresh from the ordered vertices: the reference the heap order must
    reproduce."""
    n = h.num_vertices
    degrees = [h.degree(v) for v in h.vertices]
    incident = [[key for key in h.edge_index_tuples() if i in key] for i in range(n)]
    placed = [False] * n

    def key(i):
        ordered = [sum(placed[u] for u in e) for e in incident[i]]
        closes = sum(k == len(e) - 1 for k, e in zip(ordered, incident[i]))
        return (closes, sum(ordered), degrees[i], -i)

    order = []
    for _ in range(n):
        best = max((i for i in range(n) if not placed[i]), key=key)
        order.append(best)
        placed[best] = True
    return order


def _order_corpus():
    rng = random.Random(404)
    for i in range(200):
        r = 2 + i % 3
        n = rng.randint(r, 40)
        if i % 4 == 0:  # cyclic: every vertex has degree r, so every pick is a tie
            edges = {tuple(sorted((j + k) % n for k in range(r))) for j in range(n)}
        else:  # sparse: many vertices share a degree, some are isolated
            edges = {tuple(sorted(rng.sample(range(n), r))) for _ in range(rng.randint(0, 2 * n))}
        yield Hypergraph(range(n), sorted(edges))
    pr = build_part_rainbow_forced(3, 3)
    for parts in (3, 4, 5):
        yield complete_partite_factor(pr, parts)[0].base
    for parts in (2, 3, 6):
        yield complete_partite_factor(base_rainbow_path(), parts)[0].base


def test_heap_order_matches_the_quadratic_scan():
    for h in _order_corpus():
        assert search_order(h) == _quadratic_connectivity_order(h)


def test_closing_vertex_is_ordered_first():
    # 0 comes first, then 1 (degree 2, before 3 by position).  Now 3 and 5
    # both have two ordered edge-mates (0 and 1, in two edges of 3 and in
    # one edge of 5), and 3 has the higher degree, but 5 closes {0, 1, 5},
    # so 5 comes next.  3 then has the most ordered edge-mates; 2 and 4 each
    # close one edge and tie, so position decides.  Without the closing
    # count the order would be [0, 1, 3, 2, 4, 5].
    h = Hypergraph(range(6), [(0, 1, 5), (0, 3, 4), (1, 2, 3)])
    assert search_order(h) == [0, 1, 5, 3, 2, 4]
    assert _quadratic_connectivity_order(h) == [0, 1, 5, 3, 2, 4]


def _pinned_instance(name):
    for prefix in ("packing", "tail"):
        if name.startswith(prefix):
            n, seed = name[len(prefix):].split("-")
            return linear_packing(int(n), int(seed))
    if name.startswith("pr(3,3)"):
        pr = build_part_rainbow_forced(3, 3)
        _, _, parts = name.partition("x")
        return complete_partite_factor(pr, int(parts))[0] if parts else pr
    return {"AG(2,3)": affine_plane_3, "STS(13)": cyclic_sts_13, "PG(3,2)": projective_space_3_2}[name]()


# Status, node count and SHA-256 prefix of the canonical coloring (classes in
# vertex order) per instance and order: the search tree itself is pinned, not
# just the verdict.  `before` is the status, node count and coloring digest
# of the closing-vertex search without forward checking, recorded from the
# kernels before it (the recursive search, then the set-based loop) under the
# order by shared edges alone.  Forward checking and the closing-first order
# keep every decided status and may only lower the count; the first witness
# may change with the order (STS(13)).  The test ids keep naming these
# earlier pins.  "tail" packings run under the benchmark's tail budget of
# 40,000 nodes.
_PINS = [
    ("AG(2,3)", "connectivity", "witness_found", 9, ("witness_found", 9, "25b8fcb31ea87885"), "25b8fcb31ea87885"),
    ("AG(2,3)", "degree", "witness_found", 9, ("witness_found", 9, "25b8fcb31ea87885"), "25b8fcb31ea87885"),
    ("STS(13)", "connectivity", "witness_found", 24, ("witness_found", 25, "8168b6c32f313bc8"), "72527cb4b14960bd"),
    ("STS(13)", "degree", "witness_found", 22, ("witness_found", 25, "8168b6c32f313bc8"), "8168b6c32f313bc8"),
    ("PG(3,2)", "connectivity", "witness_found", 15, ("witness_found", 15, "152018b9ce7158e0"), "152018b9ce7158e0"),
    ("PG(3,2)", "degree", "witness_found", 15, ("witness_found", 15, "152018b9ce7158e0"), "152018b9ce7158e0"),
    ("packing19-1", "connectivity", "property_holds", 1057, ("property_holds", 3667, None), None),
    ("packing19-1", "degree", "property_holds", 2528, ("property_holds", 5726, None), None),
    ("packing21-2", "connectivity", "witness_found", 734, ("witness_found", 1905, "3ed35099f86ed8e8"), "3ed35099f86ed8e8"),
    ("packing21-2", "degree", "witness_found", 1728, ("witness_found", 2817, "3ed35099f86ed8e8"), "3ed35099f86ed8e8"),
    ("packing22-3", "connectivity", "property_holds", 1303, ("property_holds", 5032, None), None),
    ("packing22-3", "degree", "property_holds", 3869, ("property_holds", 8306, None), None),
    ("pr(3,3)", "connectivity", "property_holds", 1705, ("property_holds", 8674, None), None),
    ("pr(3,3)x4", "connectivity", "property_holds", 1705, ("property_holds", 8674, None), None),
    ("pr(3,3)x6", "connectivity", "property_holds", 1705, ("property_holds", 8674, None), None),
    ("tail41-1", "connectivity", "property_holds", 4409, ("budget_exceeded", 40001, None), None),
    ("tail41-1", "degree", "property_holds", 22647, ("budget_exceeded", 40001, None), None),
]


@pytest.mark.parametrize(
    "name,strategy,status,nodes,before,coloring_digest",
    _PINS,
    ids=[f"{name}-{strategy}-{b[0]}-{b[1]}-{b[2]}" for name, strategy, _, _, b, _ in _PINS],
)
def test_pinned_search_tree(name, strategy, status, nodes, before, coloring_digest):
    instance = _pinned_instance(name)
    budget = 40_000 if name.startswith("tail") else DEFAULT_BUDGET
    if isinstance(instance, PartiteHypergraph):
        v = find_part_rainbow_bad(instance, budget=budget, order_strategy=strategy)
    else:
        v = find_good_coloring(instance, budget=budget, order_strategy=strategy)
    assert (v.status.value, v.nodes) == (status, nodes)
    before_status, before_nodes, _ = before
    assert nodes <= before_nodes
    if before_status != "budget_exceeded":
        assert status == before_status
    if coloring_digest is None:
        assert v.coloring is None
    else:
        classes = [v.coloring.assignment[x] for x in instance.vertices]
        assert hashlib.sha256(repr(classes).encode()).hexdigest()[:16] == coloring_digest


def _assert_no_worse_than_closing_vertex_search(instance, budget, strategy):
    """Status, canonical witness and node bound against the reference kernel,
    whenever the reference decides.  Returns the reference's result and the
    kernel's, each as (status, witness classes or None, nodes)."""
    if isinstance(instance, PartiteHypergraph):
        h, groups, forbid_mono = instance.base, instance.parts, False
        v = find_part_rainbow_bad(instance, budget=budget, order_strategy=strategy)
    else:
        h, groups, forbid_mono = instance, None, True
        v = find_good_coloring(instance, budget=budget, order_strategy=strategy)
    ref = closing_vertex_search(
        h, forbid_mono=forbid_mono, forbid_rainbow=True, groups=groups, budget=budget, order_strategy=strategy
    )
    got = (v.status.value, v.coloring and [v.coloring.assignment[x] for x in h.vertices], v.nodes)
    status, classes, nodes = ref
    if status != "budget_exceeded":
        assert got[:2] == (status, classes)
        assert v.nodes <= nodes
    return ref, got


def _forward_check_corpus():
    rng = random.Random(706)
    for i in range(360):
        if i % 3 == 2:
            yield random_partite(rng, max_parts=4, max_part_size=4, max_edges=10)
        else:
            yield random_hypergraph(rng, max_vertices=9, max_edges=12, max_edge_size=2 + i % 3)


# One digest of every run's (status, witness classes, nodes) on the corpus.
# The corpus mixes edge sizes 2-4 and partite instances, so this pins the
# forward check's general rule (rests of 0 or 2+ vertices) beside the
# one-vertex rule of 3-uniform edges: node counts must match exactly.
FORWARD_CHECK_CORPUS_DIGEST = "67321aacce111622c26b8d38cbdb20053fcff094f8a253231c6a9312e6fbe150"


def test_forward_checking_matches_the_closing_vertex_search():
    decided = 0
    runs = []
    for instance in _forward_check_corpus():
        for budget in (5, 50, 10**6):
            for strategy in ("connectivity", "degree"):
                ref, got = _assert_no_worse_than_closing_vertex_search(instance, budget, strategy)
                decided += ref[0] != "budget_exceeded"
                runs.append(got)
    assert decided >= 1500
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == FORWARD_CHECK_CORPUS_DIGEST


@pytest.mark.parametrize("strategy,reference_nodes", [("connectivity", 5_767), ("degree", 303_319)])
def test_tail_packing_holds_without_forward_checking(strategy, reference_nodes):
    # The first instance forward checking newly decided within the tail
    # budget of 40,000 nodes.  Under the closing-first order the search
    # without forward checking decides it within that budget too.
    h = linear_packing(41, 1)
    for budget in (5, 50, 10**6):
        ref, _ = _assert_no_worse_than_closing_vertex_search(h, budget, strategy)
    assert ref == ("property_holds", None, reference_nodes)


def test_forward_check_through_the_part_of_the_closing_vertex():
    # The path 0-1-2-3 with 1 and 3 in one part, in order 1, 2, 0, 3.
    # A 2-edge is rainbow unless both ends share a class, so 1 takes class 0
    # and 2 must repeat it.  Edge {2, 3} (fed by 2) then requires class 0 of
    # 3, which its part-mate 1 holds: 2's only class is rejected through 3's
    # part alone, and the search ends before 0 and 3, one node less.
    h = Hypergraph(range(4), [(0, 1), (1, 2), (2, 3)])
    p = PartiteHypergraph(h, [(0,), (1, 3), (2,)])
    assert search_order(h) == [1, 2, 0, 3]
    ref, _ = _assert_no_worse_than_closing_vertex_search(p, DEFAULT_BUDGET, "connectivity")
    assert ref == ("property_holds", None, 3)
    assert find_part_rainbow_bad(p).nodes == 2
