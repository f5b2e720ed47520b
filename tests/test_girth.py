import hashlib
import importlib
import random
from itertools import combinations
from math import comb

import pytest

from rmhyper import randgen
from rmhyper.construct import build_factor, build_part_rainbow_forced, supply_min_degree_girth
from rmhyper.core import Hypergraph, HypergraphError, complete_hypergraph
from rmhyper.girth import CycleWitness, Girth, delete_short_cycles, girth, girth_at_least
from rmhyper.randgen import random_high_girth, random_search_unavoidable

from oracles import (
    berge_girth_bruteforce,
    count_cycles_bruteforce,
    count_overlapping_pairs,
    delete_short_cycles_reference,
    girth_reference,
    random_graph,
    random_hypergraph,
    sparse_hypergraph,
)


def cycle_graph(n):
    return Hypergraph(range(n), [[i, (i + 1) % n] for i in range(n)])


class TestGirth:
    def test_path_is_acyclic(self):
        h = Hypergraph(["x", "y", "z"], [{"x", "y"}, {"y", "z"}])
        res = girth(h, cap=5)
        assert res.girth.kind == "infinite"
        assert res.witness is None

    def test_complete_uniform_has_girth_two(self):
        for r in (3, 4):
            h = complete_hypergraph((r - 1) ** 2 + 1, r)
            res = girth(h, cap=4)
            assert res.girth.value == 2
            res.witness.validate(h)

    def test_two_triples_sharing_two_vertices(self):
        h = Hypergraph(range(1, 5), [[1, 2, 3], [2, 3, 4]])
        res = girth(h, cap=4)
        assert res.girth.value == 2
        assert set(res.witness.vertices) == {2, 3}
        res.witness.validate(h)

    def test_triangle(self):
        res = girth(cycle_graph(3), cap=5)
        assert res.girth.value == 3
        res.witness.validate(cycle_graph(3))

    def test_witness_of_another_hypergraph_is_rejected(self):
        witness = girth(cycle_graph(3), cap=5).witness
        for other in (
            Hypergraph(range(3), [[0, 1], [1, 2], [0, 1, 2]]),  # one edge missing
            Hypergraph(range(1, 4), [[1, 2], [2, 3], [3, 1]]),  # vertex 0 unknown
        ):
            with pytest.raises(HypergraphError, match="not in hypergraph"):
                witness.validate(other)

    @pytest.mark.parametrize(
        "edges, vertices, message",
        [
            ([(0, 1), (1, 2), (2, 0)], (1, 2), "must pair g>=2 edges with g vertices"),
            ([(0, 1), (0, 1), (1, 2)], (1, 0, 2), "edges are not distinct"),
            ([(0, 1), (1, 2), (2, 0)], (1, 1, 0), "vertices are not distinct"),
            ([(0, 1), (1, 2), (2, 0)], (0, 2, 1), "connector 0 not in both incident edges"),
        ],
    )
    def test_malformed_witness_is_rejected(self, edges, vertices, message):
        witness = CycleWitness(tuple(map(frozenset, edges)), vertices)
        with pytest.raises(HypergraphError, match=message):
            witness.validate(cycle_graph(3))

    def test_finite_girth_below_two_is_rejected(self):
        with pytest.raises(ValueError, match="finite girth must be >= 2, got 1"):
            Girth.finite(1)

    def test_long_cycle_beyond_cap(self):
        res = girth(cycle_graph(9), cap=3)
        assert res.girth.kind == "at_least"
        assert res.girth.value == 4
        assert girth(cycle_graph(9), cap=9).girth.value == 9

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            girth(cycle_graph(3), cap=1)

    def test_girth_guarantee_semantics(self):
        assert girth(cycle_graph(9), cap=3).girth.guarantees_at_least(4)
        assert not girth(cycle_graph(3), cap=3).girth.guarantees_at_least(4)
        assert girth(Hypergraph([0, 1], [[0, 1]]), cap=2).girth.guarantees_at_least(99)

    def test_witness_is_exact_shortest(self):
        # two triangles sharing a vertex plus a long cycle
        h = Hypergraph(range(8), [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 0]])
        res = girth(h, cap=8)
        assert res.girth.value == 3
        assert len(res.witness.edges) == 3


class TestGirthAtLeast:
    def test_agrees_with_the_capped_scan(self):
        rng = random.Random(1717)
        for _ in range(300):
            h = random_hypergraph(rng, max_vertices=8, max_edges=8)
            for g in range(2, 8):
                expected = girth(h, cap=max(2, g - 1)).girth.guarantees_at_least(g)
                assert girth_at_least(h, g) == expected

    @pytest.mark.parametrize("g, b", [(4, 8), (6, 12)])
    def test_holds_up_to_the_girth_of_pr3(self, g, b):
        h = build_part_rainbow_forced(3, g).base
        assert girth_at_least(h, b)
        assert not girth_at_least(h, b + 1)

    def test_girth_two_needs_no_scan(self, monkeypatch):
        def unreachable(h):
            raise AssertionError("a girth scan ran for g = 2")

        # the name ``rmhyper.girth`` is the function; the module is imported by path
        module = importlib.import_module("rmhyper.girth")
        monkeypatch.setattr(module, "_incidence_adjacency", unreachable)
        assert girth_at_least(Hypergraph(range(4), [(0, 1, 2), (0, 1, 3)]), 2)  # a 2-cycle
        supply_min_degree_girth(3, 2, 4)
        for s in range(3):
            random_high_girth(8, 5, 2, s, samples=1)
            random_search_unavoidable(8, 3, 2, seed=s, tries=2)


class TestGirthAgainstBruteForce:
    def test_seeded_corpus_equivalence(self):
        rng = random.Random(20240817)
        for _ in range(150):
            h = random_hypergraph(rng, max_vertices=7, max_edges=6)
            expected = berge_girth_bruteforce(h)
            res = girth(h, cap=max(2, h.num_edges))
            if expected is None:
                assert res.girth.kind == "infinite"
            else:
                assert res.girth.value == expected
                res.witness.validate(h)

    def test_girth_monotone_under_edge_deletion(self):
        rng = random.Random(99)
        for _ in range(60):
            h = random_hypergraph(rng, max_vertices=6, max_edges=6)
            if not h.num_edges:
                continue
            cap = max(2, h.num_edges)

            def lower(hh):
                res = girth(hh, cap=cap).girth
                return float("inf") if res.kind == "infinite" else res.value

            base = lower(h)
            for e in h.edges:
                assert lower(h.without_edges([e])) >= base


def hub_star(triples, closing):
    """``triples`` triples (0, 2i+1, 2i+2) through the hub 0, plus, when
    ``closing``, the triple (1, 3, n) that closes a triangle with the first
    two."""
    n = 2 * triples + 1
    edges = [(0, 2 * i + 1, 2 * i + 2) for i in range(triples)]
    if closing:
        edges.append((1, 3, n))
    return Hypergraph(range(n + closing), edges)


class TestHubStar:
    """Every leaf root reaches the hub at depth 2; a scan that expanded the
    hub once per root took minutes on the 20,000-edge star."""

    def test_closing_edge_gives_a_triangle(self):
        h = hub_star(20_000, closing=True)
        res = girth(h, cap=6)
        assert res.girth.value == 3
        res.witness.validate(h)

    def test_star_alone_is_acyclic(self):
        res = girth(hub_star(20_000, closing=False), cap=6)
        assert res.girth.kind == "infinite"
        assert res.witness is None

    def test_witness_of_the_small_star(self):
        h = hub_star(2000, closing=True)
        res = girth(h, cap=6)
        assert res.witness.vertices == (0, 3, 1)
        res.witness.validate(h)


class TestAgainstTheReferenceEngine:
    """girth() scans only roots in the 2-core of the incidence graph and
    removes each root after its scan; the engine that scanned every root
    must give the same girth and the same witness."""

    def test_sparse_corpus(self):
        rng = random.Random(2828)
        seen = set()
        for _ in range(5000):
            h = sparse_hypergraph(rng)
            for cap in (2, 3, 4, 6, 9, 12):
                got, want = girth(h, cap), girth_reference(h, cap)
                assert str(got.girth) == str(want.girth), (h, cap)
                assert got.witness == want.witness, (h, cap)
                seen.add(str(want.girth))
        assert {"infinite", ">=3", ">=13"} | {str(g) for g in range(2, 13)} <= seen


@pytest.fixture
def scans(monkeypatch):
    """The roots of every ``_scan_from_root`` call, in order."""
    module = importlib.import_module("rmhyper.girth")
    roots = []
    scan = module._scan_from_root

    def counted(adj, root, *rest):
        roots.append(root)
        return scan(adj, root, *rest)

    monkeypatch.setattr(module, "_scan_from_root", counted)
    return roots


class TestRootScans:
    """Roots off the 2-core are never scanned, and a scanned root leaves the
    core together with every node then left on no cycle.  The counts are
    exact."""

    @pytest.mark.parametrize("g", [4, 5, 12, 2000])
    def test_one_scan_for_a_cycle_beyond_the_cap(self, scans, g):
        assert str(girth(cycle_graph(g), cap=g - 1).girth) == f">={g}"
        assert scans == [0]

    def test_no_root_is_removed_below_three_layers(self, scans):
        # at cap 2 a scan reads only the root's edges and their vertices
        assert str(girth(cycle_graph(3), cap=2).girth) == ">=3"
        assert scans == [0, 1, 2]

    def test_no_scan_for_a_forest(self, scans):
        assert girth(hub_star(50, closing=False), cap=6).girth.kind == "infinite"
        assert girth(Hypergraph(range(5), [(0, 1), (1, 2, 3)]), cap=3).girth.kind == "infinite"
        assert scans == []

    @pytest.mark.parametrize("cap, value", [(4, ">=5"), (8, "8")])
    def test_five_scans_for_pr34(self, scans, cap, value):
        pr = build_part_rainbow_forced(3, 4).base
        scans.clear()  # the build checks its suppliers and itself
        assert str(girth(pr, cap).girth) == value
        assert len(scans) == 5

    def test_hundred_scans_for_the_six_part_factor_of_pr34(self, scans):
        factor = build_factor(build_part_rainbow_forced(3, 4), 6)
        assert factor.num_vertices == 2400
        scans.clear()
        assert str(girth(factor, cap=4).girth) == ">=5"
        assert len(scans) == 100


def _witness_record(h, cap):
    """(girth, witness edge positions, witness vertex positions)."""
    res = girth(h, cap)
    if res.witness is None:
        return (str(res.girth), None)
    position = {key: pos for pos, key in enumerate(h.edge_index_tuples())}
    edges = tuple(position[tuple(sorted(map(h.index_of, e)))] for e in res.witness.edges)
    return (str(res.girth), edges, tuple(map(h.index_of, res.witness.vertices)))


def _witness_corpus():
    rng = random.Random(1010)
    for i in range(1000):
        n = rng.randint(4, 24)
        top = 2 + i % 3
        sizes = [rng.randint(2, top) for _ in range(rng.randint(1, 2 + 2 * n // top))]
        edges = {frozenset(rng.sample(range(n), k)) for k in sizes}
        yield Hypergraph(range(n), sorted(map(sorted, edges)))
    for g in range(2, 7):
        yield build_part_rainbow_forced(3, g).base


# Digests of girth() and of the carrier deletion loop, taken from the engine
# that ran a second BFS per witness.  Which shortest cycle is reported, and so
# which edge each deletion removes, must not depend on how the scan is run.
WITNESS_CORPUS_DIGEST = "a6a3e8a3941bf4bdb178092b13c8d4d402b025721f19122a2978e448749893f7"
CARRIER_DIGEST = "698d253d0fcb8743fd98bb048b91065df503483c7002937798927dd32b61d671"
CARRIER_SHAPES = ((12, 5, 3), (40, 3, 3), (30, 2, 4), (20, 3, 4), (16, 2, 5))


def test_pinned_witnesses():
    runs = [_witness_record(h, cap) for h in _witness_corpus() for cap in (2, 3, 4, 6, 9)]
    assert sum(run[1] is not None for run in runs) >= 2000
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == WITNESS_CORPUS_DIGEST


def test_pinned_carrier_deletions():
    runs = []
    for shape in CARRIER_SHAPES:
        for seed in range(4):
            sample = random_high_girth(*shape, seed, samples=1)
            runs.append((sample.hypergraph.edge_index_tuples(), sample.edges_deleted))
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == CARRIER_DIGEST


class TestDeleteShortCycles:
    """The deletion loop that carries per-root bounds across deletions must
    delete the same edges as a fresh girth() scan after every deletion, and
    scan fewer roots."""

    def test_same_deletions_as_a_scan_per_deletion(self, monkeypatch):
        rng = random.Random(3131)
        cases = [
            (rng.randint(big_r + 1, 30), big_r, g, rng.randrange(2**32), 1 + k % 2)
            for big_r in range(2, 6)
            for g in range(3, 8)
            for k in range(6)
        ]
        # cap 2 on the carrier shapes, where most roots' bounds rule them out
        cases += [(n, 3, 3, rng.randrange(2**32), 1) for n in (40, 60) for _ in range(4)]
        got = [random_high_girth(n, big_r, g, seed, samples=s) for n, big_r, g, seed, s in cases]
        monkeypatch.setattr(randgen, "delete_short_cycles", delete_short_cycles_reference)
        want = [random_high_girth(n, big_r, g, seed, samples=s) for n, big_r, g, seed, s in cases]
        assert got == want
        assert sum(sample.edges_deleted for sample in want) > 4000

    def test_below_girth_three_nothing_is_deleted(self):
        h = complete_hypergraph(5, 3)
        assert delete_short_cycles(h, 2) == (h, 0)

    # root scans over ten seeds of each carrier workload shape, recheck included
    SCANS = {(12, 5, 3): (588, 1006), (40, 3, 3): (2434, 19619), (30, 2, 4): (1470, 23115)}

    @pytest.mark.parametrize("shape", list(SCANS))
    def test_pinned_root_scans(self, monkeypatch, scans, shape):
        counts = []
        for loop in (delete_short_cycles, delete_short_cycles_reference):
            monkeypatch.setattr(randgen, "delete_short_cycles", loop)
            scans.clear()
            for seed in range(10):
                random_high_girth(*shape, seed, samples=1)
            counts.append(len(scans))
        assert tuple(counts) == self.SCANS[shape]
        assert counts[0] < counts[1]


class TestCountCycles:
    """The brute-force cycle counter that acceptance criterion 8 runs on."""

    def test_triangle_has_one_three_cycle(self):
        assert count_cycles_bruteforce(cycle_graph(3), 3) == 1

    def test_graphs_have_no_two_cycles(self):
        h = Hypergraph(["x", "y", "z"], [{"x", "y"}, {"y", "z"}])
        assert count_cycles_bruteforce(h, 2) == 0

    def test_complete_three_uniform_on_five_two_cycles(self):
        h = complete_hypergraph(5, 3)
        assert count_cycles_bruteforce(h, 2) == 30
        assert count_overlapping_pairs(h) == 30  # shared-pair oracle agrees

    def test_closed_forms_on_corpus(self):
        # a 2-cycle is two edges with two of their common vertices, and a
        # 3-cycle of a graph is a triangle
        rng = random.Random(4242)
        for _ in range(40):
            h = random_hypergraph(rng, max_vertices=6, max_edges=5)
            pairs = sum(comb(len(a & b), 2) for a, b in combinations(h.edges, 2))
            assert count_cycles_bruteforce(h, 2) == pairs
            graph = random_graph(rng, max_vertices=6)
            edges = set(graph.edges)
            triangles = sum(
                all(frozenset(p) in edges for p in combinations(t, 2))
                for t in combinations(graph.vertices, 3)
            )
            assert count_cycles_bruteforce(graph, 3) == triangles

    def test_support_bound_holds_while_counting(self):
        # the count asserts the (r-1)*ell support bound on every cycle found.
        # By hand: 20 connector triples; each of the three connector pairs
        # takes one of 4 third vertices, and at most one edge may be the
        # triple itself: 4^3 - 10 choices
        assert count_cycles_bruteforce(complete_hypergraph(6, 3), 3) == 20 * (4**3 - 10)


class TestCycleCountBound:
    @pytest.mark.parametrize("r,ell,n", [(2, 3, 5), (3, 2, 5), (3, 2, 4)])
    def test_bound_holds(self, r, ell, n):
        support = (r - 1) * ell
        c = count_cycles_bruteforce(complete_hypergraph(support, r), ell)
        assert count_cycles_bruteforce(complete_hypergraph(n, r), ell) <= c * comb(n, support)

    def test_triangle_constant_is_exact(self):
        # the constants c: one triangle on 3 vertices, six 2-cycles of K_4^(3)
        assert count_cycles_bruteforce(complete_hypergraph(3, 2), 3) == 1
        assert count_cycles_bruteforce(complete_hypergraph(4, 3), 2) == 6
