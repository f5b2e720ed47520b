import hashlib
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, isqrt
from pathlib import Path

import pytest

from rmhyper import construct
from rmhyper.coloring import VerdictStatus, find_good_coloring, find_part_rainbow_bad
from rmhyper.construct import (
    BuildLimits,
    SizeEstimate,
    SizeLimitError,
    SupplierError,
    TraceNode,
    amalgamate,
    attach_edge_markers,
    base_rainbow_path,
    build_part_rainbow_forced,
    build_rm_unavoidable,
    complete_partite_factor,
    estimate_h_size,
    estimate_pr_size,
    supply_min_degree_girth,
)
from rmhyper.core import Hypergraph, HypergraphError, PartiteHypergraph, complete_hypergraph
from rmhyper.formats import dumps
from rmhyper.girth import Girth, girth

from oracles import polygon_incidence_graph_reference, random_partite


def _unreachable(*args):
    raise AssertionError("reached before the refusal")


class TestAttachEdgeMarkers:
    def test_path_example(self):
        ext, vmap, markers = attach_edge_markers(base_rainbow_path())
        assert ext.num_vertices == 5
        assert ext.num_edges == 2
        assert ext.part_sizes() == (2, 1, 2)
        assert ext.base.is_uniform(3)
        assert len(markers) == 2 and len(set(markers)) == 2
        assert set(vmap) == {0, 1, 2}

    def test_edgeless_input_gains_empty_part(self):
        p = PartiteHypergraph(Hypergraph([0, 1], []), [(0,), (1,)])
        ext, _, markers = attach_edge_markers(p)
        assert ext.num_edges == 0
        assert ext.part_sizes() == (1, 1, 0)
        assert markers == ()

    def test_single_edge_input(self):
        p = PartiteHypergraph(Hypergraph([0, 1], [[0, 1]]), [(0,), (1,)])
        ext, _, markers = attach_edge_markers(p)
        assert ext.part_sizes() == (1, 1, 1)
        assert ext.base.is_uniform(3)

    def test_non_uniform_rejected(self):
        p = PartiteHypergraph(Hypergraph([0, 1, 2], [[0, 1]]), [(0,), (1,), (2,)])
        with pytest.raises(HypergraphError, match="uniform"):
            attach_edge_markers(p)


class TestAmalgamate:
    def test_single_edge_base_gives_isomorphic_copy(self):
        h = base_rainbow_path()
        f = Hypergraph(["a", "b"], [{"a", "b"}])
        result, maps = amalgamate(h, 0, f)
        assert result.num_vertices == h.num_vertices
        assert result.num_edges == h.num_edges
        assert result.part_sizes() == h.part_sizes()
        (m,) = maps
        assert {frozenset(m[v] for v in e) for e in h.edges} == set(result.edges)

    def test_uniformity_mismatch_rejected(self):
        h = base_rainbow_path()  # part 0 has 2 vertices
        f = complete_hypergraph(4, 3)
        with pytest.raises(HypergraphError, match="uniform"):
            amalgamate(h, 0, f)

    def test_small_part_rejected(self):
        h = base_rainbow_path()  # part 1 has a single vertex
        with pytest.raises(HypergraphError, match=">= 2"):
            amalgamate(h, 1, complete_hypergraph(3, 2))

    def test_seventy_vertex_instance(self):
        ext, _, _ = attach_edge_markers(base_rainbow_path())
        result, maps = amalgamate(ext, 2, complete_hypergraph(7, 2))
        assert result.num_vertices == 70
        assert result.num_edges == 42
        assert result.part_sizes() == (42, 21, 7)
        assert result.base.is_uniform(3)
        assert len(maps) == 21

    def test_cardinality_identities_on_corpus(self):
        rng = random.Random(314)
        done = 0
        while done < 40:
            h = random_partite(rng)
            anchors = [i for i in range(h.num_parts) if len(h.parts[i]) >= 2]
            if not anchors or not h.num_edges:
                continue
            i = rng.choice(anchors)
            k = len(h.parts[i])
            nf = rng.randint(k, k + 2)
            pool = list(combinations(range(nf), k))
            f = Hypergraph(range(nf), rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            result, maps = amalgamate(h, i, f)
            assert result.num_edges == f.num_edges * h.num_edges
            assert len(result.parts[i]) == f.num_vertices
            for j in range(h.num_parts):
                if j != i:
                    assert len(result.parts[j]) == f.num_edges * len(h.parts[j])
            # every copy embeds its edges
            edge_set = set(result.edges)
            for m in maps:
                for e in h.edges:
                    assert frozenset(m[v] for v in e) in edge_set
            done += 1

    def test_girth_at_least_min_of_inputs(self):
        rng = random.Random(1618)
        cap = 8

        def lower(hh):
            res = girth(hh, cap=cap).girth
            return float("inf") if res.kind == "infinite" else res.value

        done = 0
        while done < 40:
            h = random_partite(rng)
            anchors = [i for i in range(h.num_parts) if len(h.parts[i]) >= 2]
            if not anchors or not h.num_edges:
                continue
            i = rng.choice(anchors)
            k = len(h.parts[i])
            nf = rng.randint(k, k + 2)
            pool = list(combinations(range(nf), k))
            f = Hypergraph(range(nf), rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            result, _ = amalgamate(h, i, f)
            assert lower(result.base) >= min(lower(h.base), lower(f))
            done += 1


class TestCompletePartiteFactor:
    def test_same_part_count_is_single_copy(self):
        f = base_rainbow_path()
        result, maps = complete_partite_factor(f, 2)
        assert len(maps) == 1
        assert result.num_vertices == f.num_vertices
        assert result.part_sizes() == f.part_sizes()

    def test_path_factor_three_parts(self):
        result, maps = complete_partite_factor(base_rainbow_path(), 3)
        assert len(maps) == 3
        assert result.num_vertices == 9
        assert result.num_edges == 6
        assert result.part_sizes() == (4, 3, 2)

    def test_single_edge_factor(self):
        f = PartiteHypergraph(Hypergraph([0, 1], [[0, 1]]), [(0,), (1,)])
        result, _ = complete_partite_factor(f, 3)
        assert result.num_edges == 3
        assert result.num_vertices == 6
        # three pairwise disjoint edges
        assert all(a.isdisjoint(b) for a, b in combinations(result.edges, 2))

    def test_too_few_parts_rejected(self):
        with pytest.raises(HypergraphError, match="at least"):
            complete_partite_factor(base_rainbow_path(), 1)

    def test_every_part_subset_contains_a_copy(self):
        f = base_rainbow_path()
        a = 4
        result, maps = complete_partite_factor(f, a)
        part_sets = [set(result.parts[p]) for p in range(a)]
        copy_vertex_sets = [set(m.values()) for m in maps]
        for subset in combinations(range(a), f.num_parts):
            union = set().union(*(part_sets[p] for p in subset))
            assert any(cv <= union for cv in copy_vertex_sets)


class TestSupplier:
    def test_complete_graph_shortcut(self):
        out = supply_min_degree_girth(2, 3, 6)
        assert out == complete_hypergraph(7, 2)

    def test_min_degree_one_gives_single_edge(self):
        out = supply_min_degree_girth(2, 3, 1)
        assert out == complete_hypergraph(2, 2)
        assert girth(out, cap=3).girth.kind == "infinite"

    def test_complete_bipartite_route(self):
        # girth 4 is met by K_{3,3}: points 0..2, lines 3..5
        out = supply_min_degree_girth(2, 4, 3)
        assert out == Hypergraph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])
        assert girth(out, cap=5).girth == Girth.finite(4)

    @pytest.mark.parametrize("ell, q, n", [(3, 2, 4), (3, 3, 4), (3, 4, 5), (4, 2, 5), (4, 5, 6)])
    def test_complete_route_three_and_four_uniform(self, ell, q, n):
        # girth 2 takes the complete ell-uniform hypergraph on the fewest n
        # with C(n-1, ell-1) >= q
        assert comb(n - 1, ell - 1) >= q > comb(n - 2, ell - 1)
        assert supply_min_degree_girth(ell, 2, q) == complete_hypergraph(n, ell)

    def test_validation(self):
        with pytest.raises(ValueError):
            supply_min_degree_girth(2, 1, 3)
        with pytest.raises(ValueError):
            supply_min_degree_girth(2, 3, 0)

    def test_impossible_within_limits(self):
        # PG(2, 11) has 266 vertices
        limits = BuildLimits(max_vertices=40, max_edges=100)
        with pytest.raises(SupplierError):
            supply_min_degree_girth(2, 5, 12, limits)

    @pytest.mark.parametrize(
        "g, vertices, edges",
        [(4, 12, 36), (5, 62, 186), (6, 62, 186), (7, 312, 936), (8, 312, 936)],
    )
    def test_generalized_polygon_suppliers(self, g, vertices, edges):
        # K_{6,6}, the plane PG(2, 5) and the quadrangle W(5): 6-regular,
        # sized exactly by the estimate
        assert construct._supplier(2, g, 6)[0] == construct._Size(vertices, edges)
        out = supply_min_degree_girth(2, g, 6)
        assert (out.num_vertices, out.num_edges) == (vertices, edges)
        assert out.is_uniform(2)
        assert all(out.degree(v) == 6 for v in out.vertices)
        assert girth(out, cap=g + 1).girth == Girth.finite(g + g % 2)

    def test_refused_outside_the_table(self, monkeypatch):
        # ell >= 3 past g = 2; g >= 9, past the quadrangles; q - 1 = 4 is
        # not prime
        monkeypatch.setattr(construct, "complete_hypergraph", _unreachable)
        monkeypatch.setattr(construct, "_polygon_incidence_graph", _unreachable)
        for ell, g, q in [(3, 3, 6), (3, 3, 2), (3, 3, 3), (3, 4, 2), (2, 9, 6), (2, 5, 5)]:
            with pytest.raises(SupplierError, match="no supplier"):
                supply_min_degree_girth(ell, g, q)

    def test_primality_matches_trial_division(self):
        # the plane (g = 5) and the quadrangle (g = 7) serve exactly the q with
        # q - 1 prime, up to the largest p whose row fits under SIZE_CAP; past
        # it every q is astronomical, prime or not
        def row(g, q):
            try:
                size, _ = construct._supplier(2, g, q)
            except SizeLimitError as exc:
                assert "over 1e+15 edges" in str(exc)
                return "astronomical"
            except SupplierError as exc:
                assert "no supplier" in str(exc)
                return "none"
            return size

        for g, n in [(5, 3), (7, 4)]:
            edges = lambda p: (p + 1) * sum(p**i for i in range(n))
            p_max = 1000  # its plane and quadrangle have at most 10^12 edges
            while edges(p_max + 1) <= construct.SIZE_CAP:
                p_max += 1
            sieve = bytearray([0, 0]) + bytearray([1]) * (p_max + 199)
            for d in range(2, isqrt(len(sieve)) + 1):
                sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
            assert any(sieve[p_max + 1 :])
            for p in range(2, len(sieve)):
                if p > p_max:
                    expected = "astronomical"
                else:
                    built = construct._Size(2 * edges(p) // (p + 1), edges(p))
                    expected = built if sieve[p] else "none"
                assert row(g, p + 1) == expected, (g, p)

    def test_plane_over_a_huge_prime_is_refused_at_once(self, monkeypatch):
        # 2^61 - 1 is prime, but its plane is past SIZE_CAP: no primality test runs
        monkeypatch.setattr(construct, "_polygon_incidence_graph", _unreachable)
        start = time.perf_counter()
        with pytest.raises(SupplierError, match="over 1e\\+15 edges"):
            supply_min_degree_girth(2, 5, 2**61)
        assert time.perf_counter() - start < 1

    def test_primality_beyond_the_exact_range_is_refused(self, monkeypatch):
        # q - 1 is the least strong pseudoprime to the first 12 prime bases,
        # which a Miller-Rabin test on them would call prime; every row past
        # SIZE_CAP is refused as astronomical, K_{q,q} (no prime needed) too
        q = 399_165_290_221 * 798_330_580_441 + 1
        monkeypatch.setattr(construct, "_polygon_incidence_graph", _unreachable)
        for g in (4, 5, 8):
            with pytest.raises(SupplierError, match="over 1e\\+15 edges"):
                supply_min_degree_girth(2, g, q)

    @pytest.mark.parametrize("g", [5, 9])
    def test_cycle_route(self, g):
        # q - 1 = 1 is not prime, so no plane or quadrangle serves q = 2
        out = supply_min_degree_girth(2, g, 2)
        assert out == Hypergraph(range(g), [(i, (i + 1) % g) for i in range(g)])
        assert girth(out, cap=g).girth == Girth.finite(g)

    @pytest.mark.parametrize("max_vertices, max_edges", [(311, 10_000), (10_000, 935)])
    def test_geometry_beyond_limits_is_refused_before_it_is_built(
        self, monkeypatch, max_vertices, max_edges
    ):
        # W(5) has 312 vertices and 936 edges
        monkeypatch.setattr(construct, "_polygon_incidence_graph", _unreachable)
        limits = BuildLimits(max_vertices, max_edges)
        with pytest.raises(SupplierError, match="exceeds the limits"):
            supply_min_degree_girth(2, 8, 6, limits)



_PRIMES_TO_23 = [2, 3, 5, 7, 11, 13, 17, 19, 23]


class TestGeneralizedPolygons:
    @pytest.mark.parametrize(
        "n, p", [(n, p) for n in (2, 3) for p in _PRIMES_TO_23] + [(4, p) for p in (2, 3, 5, 7)]
    )
    def test_same_labelled_graph_as_the_reference(self, n, p):
        assert construct._polygon_incidence_graph(n, p) == polygon_incidence_graph_reference(n, p)

    @pytest.mark.parametrize("n, p, calls", [(4, 5, 0), (4, 11, 0), (3, 5, 31)])
    def test_normalisations(self, monkeypatch, n, p, calls):
        # the plane normalises one dual point per line; the quadrangle's
        # points come normalised from their reduced bases
        seen = []
        normalised = construct._normalised
        monkeypatch.setattr(
            construct, "_normalised", lambda x, p: seen.append(x) or normalised(x, p)
        )
        construct._polygon_incidence_graph(n, p)
        assert len(seen) == calls

    @pytest.mark.parametrize("dim, p", [(3, 2), (3, 5), (4, 3), (5, 2)])
    def test_every_line_once_from_its_reduced_basis(self, dim, p):
        # (p^dim - 1)(p^(dim-1) - 1) / ((p^2 - 1)(p - 1)) lines, each with
        # p + 1 normalised points, and no two lines share two points
        points = set(construct._projective_points(dim, p))
        lines = []
        for x, y in construct._lines(dim, p):
            line = frozenset([y, *(tuple((a + t * b) % p for a, b in zip(x, y)) for t in range(p))])
            assert len(line) == p + 1 and line <= points
            lines.append(line)
        assert len(lines) == (p**dim - 1) * (p ** (dim - 1) - 1) // ((p * p - 1) * (p - 1))
        assert all(len(a & b) <= 1 for a, b in combinations(lines, 2))


class TestBuildPartRainbowForced:
    def test_base_case_is_path(self):
        pr = build_part_rainbow_forced(2, 5)
        assert pr.num_vertices == 3
        assert pr.num_edges == 2
        assert pr.part_sizes() == (2, 1)
        assert girth(pr.base, cap=5).girth.kind == "infinite"

    def test_base_forced_for_every_girth_target(self):
        for g in (2, 3, 7):
            pr = build_part_rainbow_forced(2, g)
            assert find_part_rainbow_bad(pr).status is VerdictStatus.PROPERTY_HOLDS

    def test_three_uniform_instance(self):
        pr = build_part_rainbow_forced(3, 3)
        assert pr.num_vertices == 70
        assert pr.num_edges == 42
        assert pr.part_sizes() == (42, 21, 7)
        assert pr.base.is_uniform(3)
        assert girth(pr.base, cap=3).girth.guarantees_at_least(3)

    def test_four_uniform_exceeds_desk_limits(self):
        # pr(4, 2) fits the limits (see PINNED); girth 3 needs a 42-uniform
        # supplier of girth 3, which the table does not have
        with pytest.raises(SupplierError, match="ell=42, g=3, q=168"):
            build_part_rainbow_forced(4, 3)
        with pytest.raises(SizeLimitError) as err:
            build_part_rainbow_forced(4, 2, BuildLimits(max_vertices=66_263))
        assert err.value.estimate.vertices == 66_264

    def test_refused_before_any_step_is_built(self, monkeypatch):
        monkeypatch.setattr(construct, "amalgamate", _unreachable)
        monkeypatch.setattr(construct, "supply_min_degree_girth", _unreachable)
        with pytest.raises(SupplierError):
            build_part_rainbow_forced(4, 3)
        with pytest.raises(SizeLimitError):
            build_part_rainbow_forced(5, 2)

    def test_step_beyond_limits_is_refused_before_it_is_built(self, monkeypatch):
        # the builders check no step against the limits, so a supplier row
        # whose build differs from its table size must fail before any
        # amalgamation uses it: K_10 in place of pr(3, 4)'s K_{6,6}
        stand_in = lambda n, p: complete_hypergraph(10, 2)  # min degree 9 >= q = 6
        monkeypatch.setattr(construct, "_polygon_incidence_graph", stand_in)
        monkeypatch.setattr(construct, "amalgamate", _unreachable)
        assert estimate_pr_size(3, 4) == SizeEstimate(120, 72, False)
        with pytest.raises(AssertionError, match="supplier output differs from its table size"):
            build_part_rainbow_forced(3, 4)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_three_uniform_builds_are_exact_and_seed_free(self, g):
        # every supplier is deterministic: two builds agree byte for byte
        est = estimate_pr_size(3, g)
        pr = build_part_rainbow_forced(3, g)
        assert (est.vertices, est.edges) == (pr.num_vertices, pr.num_edges)
        assert dumps(build_part_rainbow_forced(3, g)) == dumps(pr)

    def test_estimates(self):
        assert estimate_pr_size(2, 7).vertices == 3
        est = estimate_pr_size(3, 3)
        assert (est.vertices, est.edges) == (70, 42)
        assert estimate_pr_size(4, 2) == SizeEstimate(66_264, 39_732, False)
        big = estimate_pr_size(5, 2)
        assert not big.astronomical and big.vertices > 10**6
        with pytest.raises(SupplierError):
            estimate_pr_size(3, 9)


class TestBuildRmUnavoidable:
    def test_base_case_three_uniform(self):
        h, trace = build_rm_unavoidable(3, 2)
        assert h == complete_hypergraph(5, 3)
        assert trace.info["edges"] == 10

    def test_two_uniform_single_edge(self):
        h, _ = build_rm_unavoidable(2, 2)
        assert h == complete_hypergraph(2, 2)

    def test_two_uniform_girth_three_uses_acyclic_base(self):
        h, trace = build_rm_unavoidable(2, 3)
        assert h == complete_hypergraph(2, 2)
        assert girth(h, cap=3).girth.kind == "infinite"
        notes = [c.info.get("note", "") for c in trace.children]
        assert any("girth target" in n for n in notes)

    def test_desk_scale_instances_are_unavoidable(self):
        for r, g in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            h, _ = build_rm_unavoidable(r, g)
            assert find_good_coloring(h).status is VerdictStatus.PROPERTY_HOLDS
            assert girth(h, cap=g).girth.guarantees_at_least(g)

    def test_complete_base_beyond_limits_is_refused(self):
        limits = BuildLimits(max_vertices=10, max_edges=50)
        with pytest.raises(SizeLimitError) as err:
            build_rm_unavoidable(5, 2, limits)
        est = err.value.estimate
        assert (est.vertices, est.edges, est.astronomical) == (17, 6188, False)

    @pytest.mark.parametrize("g", [2, 3])
    def test_refused_before_any_complete_base_is_built(self, monkeypatch, g):
        real = construct.complete_hypergraph

        def guarded(n, r):
            if comb(n, r) > 500_000:
                raise AssertionError(f"complete_hypergraph({n}, {r}) reached")
            return real(n, r)

        monkeypatch.setattr(construct, "complete_hypergraph", guarded)
        # g = 3 stops earlier: pr(7, 3) needs a 42-uniform supplier of girth 3
        with pytest.raises(SizeLimitError if g == 2 else SupplierError):
            build_rm_unavoidable(7, g)

    def test_three_uniform_girth_three_is_astronomical(self):
        with pytest.raises(SizeLimitError) as err:
            build_rm_unavoidable(3, 3)
        assert err.value.estimate.astronomical

    def test_huge_complete_base_is_astronomical(self):
        # C(n, r) at n = (r - 1)^2 + 1, r = 10^21 has about 2.14 * 10^22 digits;
        # lgamma differences cancel to 0.0 there and comb() overflowed
        est = estimate_h_size(10**21, 2)
        assert est.astronomical and est.vertices is None
        assert est.note.startswith("complete base alone has ~10^2143429448190")

    @pytest.mark.parametrize("d", [400, 4000, 600_000])
    def test_complete_base_past_the_float_range_is_astronomical(self, d):
        # log10 C(n, r) at n = (r - 1)^2 + 1, r = 10^d is 10^d (d + log10 e)
        # less a few units; r passed through a float before and overflowed
        est = estimate_h_size(10**d, 2)
        assert est.astronomical and est.vertices is None
        digits = est.note.removeprefix("complete base alone has ~10^").removesuffix(" edges")
        assert digits.startswith(f"{d}43429448190325182765")
        assert len(digits) == d + len(str(d))

    def test_huge_operands_are_not_converted_in_full(self):
        # r with 100,000 digits once went to Decimal whole, in about 1 s; at
        # 600,000 digits n passed Decimal's default exponent range
        r = 10**100_000
        t0 = time.perf_counter()
        est = estimate_h_size(r, 2)
        assert time.perf_counter() - t0 < 0.1
        assert est.astronomical
        assert est.note.startswith("complete base alone has ~10^10000043429448190325182765")

    @pytest.mark.parametrize("n, r", [(60, 30), (122, 12), (10**6, 3), (10**14, 40), (5000, 2500)])
    def test_astronomical_note_counts_the_digits(self, n, r):
        with pytest.raises(construct._Astronomical) as err:
            construct._complete_size(n, r)
        digits = math.log10(comb(n, r))
        assert err.value.estimate.note == f"complete base alone has ~10^{digits:.0f} edges"

    def test_estimates(self):
        est = estimate_h_size(3, 2)
        assert (est.vertices, est.edges) == (5, 10)
        assert estimate_h_size(3, 3).astronomical
        assert estimate_h_size(2, 3).vertices == 2
        est42 = estimate_h_size(4, 2)
        assert (est42.vertices, est42.edges) == (10, 210)

    def test_validation(self):
        with pytest.raises(HypergraphError):
            build_rm_unavoidable(1, 2)
        with pytest.raises(ValueError):
            build_rm_unavoidable(3, 1)


class TestAmalgamationSweep:
    def test_sweep_with_stand_in_bases(self):
        # run the recursion's inner loop with small complete bases instead of
        # the full-size recursive ones, checking the recorded cardinalities
        factor, _ = complete_partite_factor(base_rainbow_path(), 3)
        assert factor.part_sizes() == (4, 3, 2)
        trace = TraceNode("sweep", {})
        result = construct._sweep(
            construct._Build(), factor, lambda j, size: complete_hypergraph(size + 1, size), trace
        )
        assert len(trace.children) == 3
        current_edges = factor.num_edges
        for step in trace.children:
            copies = step.info["copies"]
            assert step.info["edges"] == copies * current_edges
            current_edges = step.info["edges"]
        assert result.num_edges == current_edges
        # every part ends identified with its stand-in base's vertex set
        dump = trace.to_dict()
        assert [c["op"] for c in dump["children"]] == ["amalgamate"] * 3


def _base_trace(r, g, vertices, edges, **note):
    info = {"vertices": vertices, "edges": edges, **note}
    return {
        "op": "build_rm_unavoidable",
        "info": {"r": r, "g": g, "vertices": vertices, "edges": edges},
        "children": [{"op": "complete_base", "info": info, "children": []}],
    }


@dataclass(frozen=True)
class Refused:
    """The estimator raises SupplierError with a message matching ``match``."""

    match: str


NO_42_UNIFORM_GIRTH_3 = Refused("ell=42, g=3, q=168")

# (kind, r, g, estimate, SHA-256 prefix of the build's JSON or None when not
# built, trace of the h build)
PINNED = [
    ("pr", 2, 2, SizeEstimate(3, 2, False, ""), "30ed48e99adc8ad2", None),
    ("pr", 3, 3, SizeEstimate(70, 42, False, ""), "cd1923c8c231c78b", None),
    ("pr", 3, 4, SizeEstimate(120, 72, False, ""), "5bec9f0dc8d5b3a0", None),
    # supplier: the complete 42-uniform hypergraph on 44 vertices
    ("pr", 4, 2, SizeEstimate(66264, 39732, False, ""), "ad9812cd424119ec", None),
    ("pr", 4, 3, NO_42_UNIFORM_GIRTH_3, None, None),
    ("pr", 5, 3, NO_42_UNIFORM_GIRTH_3, None, None),
    ("h", 2, 2, SizeEstimate(2, 1, False, ""), "88b300742a85db2a", _base_trace(2, 2, 2, 1)),
    (
        "h", 2, 3,
        SizeEstimate(2, 1, False, "base case already meets the girth target"),
        "88b300742a85db2a",
        _base_trace(2, 3, 2, 1, note="base case already meets the girth target"),
    ),
    ("h", 3, 2, SizeEstimate(5, 10, False, ""), "4235cc8dbf1bbc1d", _base_trace(3, 2, 5, 10)),
    ("h", 4, 2, SizeEstimate(10, 210, False, ""), "d44c9bcde5e394ce", _base_trace(4, 2, 10, 210)),
    ("h", 5, 2, SizeEstimate(17, 6188, False, ""), "baffc01633517317", _base_trace(5, 2, 17, 6188)),
    (
        "h", 3, 3,
        SizeEstimate(None, None, True, "complete base alone has ~10^2034 edges"),
        None, None,
    ),
    # the recursion reaches pr(4, 3) before any complete base
    ("h", 4, 3, NO_42_UNIFORM_GIRTH_3, None, None),
    (
        "h", 12, 2,
        SizeEstimate(None, None, True, "complete base alone has ~10^16 edges"),
        None, None,
    ),
    ("h", 3, 4, NO_42_UNIFORM_GIRTH_3, None, None),
    # suppliers PG(2, 5) for g = 5, 6 and W(5) for g = 7, 8
    ("pr", 3, 5, SizeEstimate(620, 372, False, ""), "ea80171417d56bc4", None),
    ("pr", 3, 6, SizeEstimate(620, 372, False, ""), "ea80171417d56bc4", None),
    ("pr", 3, 7, SizeEstimate(3120, 1872, False, ""), "432c193532acb7ac", None),
    ("pr", 3, 8, SizeEstimate(3120, 1872, False, ""), "432c193532acb7ac", None),
]


@pytest.mark.parametrize("kind, r, g, estimate, digest, trace", PINNED)
def test_pinned_outputs(kind, r, g, estimate, digest, trace):
    estimator = estimate_pr_size if kind == "pr" else estimate_h_size
    if isinstance(estimate, Refused):
        with pytest.raises(SupplierError, match=estimate.match):
            estimator(r, g)
        return
    assert estimator(r, g) == estimate
    if digest is None:
        return
    if kind == "pr":
        built = build_part_rainbow_forced(r, g)
        # the sizes evaluation of the recursion predicts every part
        sizes = construct._pr_recursion(r, g, construct._Sizes())
        assert sizes.part_sizes() == built.part_sizes()
    else:
        built, built_trace = build_rm_unavoidable(r, g)
        assert built_trace.to_dict() == trace
    assert hashlib.sha256(dumps(built).encode()).hexdigest()[:16] == digest
    assert (estimate.vertices, estimate.edges) == (built.num_vertices, built.num_edges)


class _RecordedSizes(construct._Sizes):
    def __init__(self):
        super().__init__()
        self.steps = []

    def step(self, size, where, build):
        self.steps.append(size)
        return super().step(size, where, build)


@pytest.mark.parametrize(
    "kind, r, g, estimate",
    [(kind, r, g, est) for kind, r, g, est, digest, _ in PINNED if digest is not None],
)
def test_no_step_is_larger_than_the_final_estimate(kind, r, g, estimate):
    # the builders refuse on the final estimate only, which must bound every step
    sizes = _RecordedSizes()
    recursion = construct._pr_recursion if kind == "pr" else construct._h_recursion
    recursion(r, g, sizes)
    for size in sizes.steps:
        assert size.num_vertices <= estimate.vertices, (kind, r, g, size)
        assert size.num_edges <= estimate.edges, (kind, r, g, size)


def _served(ell, g, q):
    """The rows of the supplier table, restated."""
    p = q - 1
    prime = p >= 2 and all(p % d for d in range(2, p))
    return g == 2 or (ell == 2 and (g <= 4 or (g <= 8 and prime) or q <= 2))


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("g", range(2, 11))
def test_supplier_table(monkeypatch, ell, g):
    for q in range(1, 8):
        if _served(ell, g, q):
            size, _ = construct._supplier(ell, g, q)
            out = supply_min_degree_girth(ell, g, q)
            assert construct._Size(out.num_vertices, out.num_edges) == size
            assert out.is_uniform(ell)
            assert min(out.degree(v) for v in out.vertices) >= q
            assert girth(out, cap=g).girth.guarantees_at_least(g)
            continue
        with monkeypatch.context() as patched:
            patched.setattr(construct, "complete_hypergraph", _unreachable)
            patched.setattr(construct, "_polygon_incidence_graph", _unreachable)
            with pytest.raises(SupplierError, match="no supplier"):
                supply_min_degree_girth(ell, g, q)


def test_supplier_of_an_astronomical_size_is_refused(monkeypatch):
    monkeypatch.setattr(construct, "complete_hypergraph", _unreachable)
    with pytest.raises(SupplierError, match="10\\^"):
        supply_min_degree_girth(60, 2, 10**40)


def test_supplier_postcondition_fires(monkeypatch):
    # in place of the plane PG(2, 5), 31 points and 31 lines with point i on
    # lines i..i+5 (mod 31): its size and 6-regular, but of girth 4 < 6
    lines = [(i, 31 + (i + k) % 31) for i in range(31) for k in range(6)]
    stand_in = Hypergraph(range(62), lines)
    monkeypatch.setattr(construct, "_polygon_incidence_graph", lambda n, p: stand_in)
    with pytest.raises(AssertionError, match="supplier output lost the girth guarantee"):
        supply_min_degree_girth(2, 6, 6)


def test_builds_of_every_size_are_verified():
    h = Hypergraph(range(20_001), [(0, 1), (1, 2), (0, 2)])  # a triangle: girth 3 < 4
    with pytest.raises(AssertionError, match="construction failed its girth >= 4 postcondition"):
        construct._verify(h, 2, 4)


def test_deterministic_builders_do_not_load_the_random_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, rmhyper.construct; print('rmhyper.randgen' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # __all__ and the lazily loaded _RANDGEN are kept by hand, apart from the modules
    import rmhyper

    namespace: dict = {}
    exec("from rmhyper import *", namespace)
    assert all(name in namespace for name in rmhyper.__all__)
    assert set(rmhyper._RANDGEN) <= set(rmhyper.__all__)
