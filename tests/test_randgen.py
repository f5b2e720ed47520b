import functools
import gc
import random
import re
import time
import tracemalloc
from decimal import Context, Decimal, localcontext
from itertools import combinations
from math import comb

import pytest

from oracles import (
    ceil_power_reference,
    counting_inequality_holds_mpmath,
    counting_sides_mpmath,
    counting_threshold_exact,
    counting_threshold_mpmath,
    sample_subedges_reference,
)
from rmhyper import randgen
from rmhyper.coloring import Verdict, VerdictStatus, find_good_coloring
from rmhyper.core import Hypergraph, HypergraphError, complete_hypergraph
from rmhyper.formats import dumps
from rmhyper.girth import girth
from rmhyper.randgen import (
    ceil_power,
    counting_inequality_holds,
    counting_threshold,
    derive_seed,
    random_high_girth,
    random_search_unavoidable,
    sample_subedges,
)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(42, "sample:0")
        assert a == derive_seed(42, "sample:0")
        assert a != derive_seed(42, "sample:1")
        assert a != derive_seed(43, "sample:0")


class TestCeilPower:
    def test_exact_values(self):
        assert ceil_power(12, 4, 3) == 28  # ceil(12^(4/3)) = ceil(27.47..)
        assert ceil_power(8, 3, 2) == 23  # ceil(8^1.5) = ceil(22.62..)
        assert ceil_power(16, 3, 2) == 64  # exact integer power
        assert ceil_power(1, 5, 3) == 1

    def test_matches_float_away_from_boundaries(self):
        for n in range(2, 200):
            for num, den in ((3, 2), (4, 3), (5, 4)):
                exact = ceil_power(n, num, den)
                approx = n ** (num / den)
                assert exact - 1 < approx < exact + 1

    def test_huge_girth_targets_match_the_definition(self):
        # ceil(n^(1+1/g)) = c exactly when (c-1)^g < n^(g+1) <= c^g; from
        # g = (n + 1) * bit_length(n) on, c is n + 1 without a root search
        for n in range(2, 61):
            cutoff = (n + 1) * n.bit_length()
            for g in range(2, cutoff + 21):
                c = ceil_power(n, g + 1, g)
                assert (c - 1) ** g < n ** (g + 1) <= c**g, (n, g)
            assert ceil_power(n, 10**9 + 1, 10**9) == n + 1

    def test_small_roots_match_the_full_search(self):
        for n in range(1, 80):
            for g in range(1, 60):
                for num, den in ((g + 1, g), (2 * g + 1, g), (g, 1), (3, 2 * g)):
                    assert ceil_power(n, num, den) == ceil_power_reference(n, num, den), (
                        n, num, den,
                    )
        # roots past 2^60 take a shifted float seed
        assert ceil_power(10**200, 2, 1) == 10**400
        assert ceil_power(10**200, 3, 2) == ceil_power_reference(10**200, 3, 2) == 10**300

    def test_newton_root_matches_the_full_search(self):
        # roots from 10^40 to past 1e308, half of them exact powers
        rng = random.Random(2208)
        for i in range(40):
            den = rng.randint(1, 6)
            num = rng.randint(den, 3 * den)
            if i % 2:
                n = rng.randint(2, 10 ** rng.randint(40, 200))
            else:
                n = rng.randint(2, 10**40) ** den
            assert ceil_power(n, num, den) == ceil_power_reference(n, num, den), (n, num, den)
        # a bisection over 13,000 bits took 3 s; one over a float bracket 2^32
        # units wide raised a 660,000-bit power 32 times, in 0.9 s
        for n, den in ((10**2000, 3), (10**20, 10_000)):
            t0 = time.perf_counter()
            c = ceil_power(n, den + 1, den)
            assert time.perf_counter() - t0 < 0.5
            assert (c - 1) ** den < n ** (den + 1) <= c**den

    def test_roots_near_two_with_large_exponents_at_once(self):
        # Newton seeded at 1 first lands near 2^199 / 200 and then shrinks by
        # 199/200 a step (seconds on the first input); seeded at 2, below the
        # root 5^0.57 = 2.50.., it overshoots by about e^67 and takes some
        # 20,000 steps (1 s)
        for args, root in (
            ((2**199 - 1, 1, 200), 2),
            ((2**200, 1, 200), 2),
            ((2**200 + 1, 1, 200), 3),
            ((1, 7, 3), 1),
            ((5, 171, 300), 3),
        ):
            t0 = time.perf_counter()
            assert ceil_power(*args) == root, args
            assert time.perf_counter() - t0 < 0.1, args
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError):
            counting_threshold(3, 10**9)
        assert time.perf_counter() - t0 < 0.1

    def test_below_the_cutoff_without_a_wide_search(self):
        # the full search raises a 1.7-million-bit power about 35 times here
        t0 = time.perf_counter()
        c = ceil_power(100_000, 100_001, 100_000)
        elapsed = time.perf_counter() - t0
        assert c == 100_012
        assert elapsed < 2.0
        assert (c - 1) ** 100_000 < 100_000**100_001 <= c**100_000


class TestRandomHighGirth:
    def test_edge_target_and_girth(self):
        sample = random_high_girth(12, 5, 3, seed=1)
        assert sample.edge_target == 28
        h = sample.hypergraph
        assert h.num_vertices == 12
        assert h.is_uniform(5)
        assert girth(h, cap=2).girth.guarantees_at_least(3)

    def test_deterministic_per_seed(self):
        a = random_high_girth(12, 5, 3, seed=7)
        b = random_high_girth(12, 5, 3, seed=7)
        assert dumps(a.hypergraph) == dumps(b.hypergraph)
        assert a.edges_kept == b.edges_kept
        c = random_high_girth(12, 5, 3, seed=8)
        assert dumps(c.hypergraph) != dumps(a.hypergraph)

    def test_edge_count_capped_by_available(self):
        # only one 5-subset exists on 5 vertices
        sample = random_high_girth(5, 5, 2, seed=0)
        assert sample.hypergraph.num_edges == 1

    def test_girth_two_needs_no_deletion(self):
        sample = random_high_girth(9, 3, 2, seed=3)
        assert sample.edges_deleted == 0
        assert sample.target_met

    def test_unreachable_target_returns_the_best_sample(self):
        # 5-uniform with girth >= 3 on 12 vertices packs at most
        # C(12,2)/C(5,2) = 6 edges, far below the target of 28
        sample = random_high_girth(12, 5, 3, seed=1, samples=2)
        assert not sample.target_met and sample.edge_target == 28
        assert 1 <= sample.edges_kept <= 6
        first = random_high_girth(12, 5, 3, seed=1, samples=1)
        assert sample.edges_kept >= first.edges_kept

    def test_validation(self):
        with pytest.raises(HypergraphError):
            random_high_girth(3, 5, 3, seed=0)
        with pytest.raises(ValueError):
            random_high_girth(12, 5, 1, seed=0)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            random_high_girth(12, 5, 3, seed=0, samples=0)

    def test_kept_carriers_are_compact(self):
        # each edge is kept once, as a tuple of vertex positions; frozensets
        # of vertex ids are built only on request.  10 carriers of about
        # 110 triples each kept 342 KB when every edge was also a frozenset
        # and keep about 96 KB with the tuples alone.
        random_high_girth(40, 3, 3, seed=99, samples=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [random_high_girth(40, 3, 3, seed=s, samples=1) for s in range(10)]
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(k.hypergraph.num_edges for k in kept) > 1000
        assert grown < 120 * 1024

    def test_deletion_removes_overlapping_pair(self):
        # seeds where sampling produced 2-cycles must end with girth >= 3
        for seed in range(10):
            h = random_high_girth(10, 4, 3, seed=seed).hypergraph
            for a, b in combinations(h.edges, 2):
                assert len(a & b) <= 1


class TestPostconditions:
    def test_deletion_loop_recheck_fires(self, monkeypatch):
        # a deletion loop that returns the sample untouched; the re-check
        # runs its own scan and finds the sample's short cycles
        monkeypatch.setattr(randgen, "delete_short_cycles", lambda h, g: (h, 0))
        with pytest.raises(AssertionError, match="deletion loop failed to reach the girth target"):
            random_high_girth(12, 5, 3, seed=1, samples=1)

    def test_search_recheck_fires(self, monkeypatch):
        two_cycle = Hypergraph(range(8), [(0, 1, 2), (0, 1, 3)])
        holds = Verdict(VerdictStatus.PROPERTY_HOLDS, None, 1)
        monkeypatch.setattr(randgen, "sample_subedges", lambda h, r, seed: ((), two_cycle))
        monkeypatch.setattr(randgen, "find_good_coloring", lambda h, budget: holds)
        with pytest.raises(AssertionError, match="certified instance fails its girth recheck"):
            random_search_unavoidable(8, 3, 3, seed=0, tries=1)


class TestBadCycleStatistics:
    def test_mean_deleted_is_finite_and_subquadratic(self):
        # sanity echo of the linear expectation bound on short cycles: the
        # observed deletion counts must not grow quadratically in n
        def mean_deleted(n: int, seeds: int) -> float:
            total = 0
            for s in range(seeds):
                total += random_high_girth(n, 3, 3, seed=s, samples=1).edges_deleted
            return total / seeds

        small = mean_deleted(10, 200)
        assert 0 < small < 10**4
        lo = mean_deleted(10, 50)
        hi = mean_deleted(40, 50)
        assert hi / lo < (40 / 10) ** 2


class TestSampleSubedges:
    def test_identity_when_sizes_match(self):
        h = complete_hypergraph(6, 3)
        choices, sub = sample_subedges(h, 3, seed=0)
        assert sub == h
        assert choices == h.edges

    def test_subsets_come_from_their_edges(self):
        carrier = random_high_girth(12, 5, 3, seed=2).hypergraph
        choices, sub = sample_subedges(carrier, 3, seed=5)
        assert len(choices) == carrier.num_edges
        for choice, edge in zip(choices, carrier.edges):
            assert choice <= edge and len(choice) == 3
        assert sub.is_uniform(3)
        assert set(sub.vertices) == set(carrier.vertices)

    def test_uniform_choice_chi_square(self):
        carrier = Hypergraph(range(5), [range(5)])
        counts: dict[frozenset, int] = {}
        draws = 10_000
        for i in range(draws):
            (choice,), _ = sample_subedges(carrier, 3, seed=i)
            counts[choice] = counts.get(choice, 0) + 1
        assert len(counts) == comb(5, 3) == 10
        expected = draws / 10
        chi2 = sum((got - expected) ** 2 / expected for got in counts.values())
        assert chi2 < 30  # df = 9; 30 is far beyond the 0.999 quantile

    def test_girth_never_drops(self):
        rng = random.Random(88)
        cap = 6

        def lower(h):
            res = girth(h, cap=cap).girth
            return float("inf") if res.kind == "infinite" else res.value

        for trial in range(500):
            n = rng.randint(5, 9)
            size = rng.randint(3, 4)
            pool = list(combinations(range(n), size))
            edges = rng.sample(pool, rng.randint(1, min(8, len(pool))))
            carrier = Hypergraph(range(n), edges)
            _, sub = sample_subedges(carrier, rng.randint(2, size), seed=trial)
            assert lower(sub) >= lower(carrier)

    @pytest.mark.parametrize("ids", ["int", "shuffled str"])
    def test_matches_the_id_based_draw(self, ids):
        rng = random.Random(15)
        for trial in range(200):
            n = rng.randint(5, 12)
            size = rng.randint(3, 5)
            pool = list(combinations(range(n), size))
            edges = rng.sample(pool, rng.randint(1, min(20, len(pool))))
            names = list(range(n)) if ids == "int" else [f"v{i}" for i in range(n)]
            if ids != "int":  # canonical order is then not the ids' sorted order
                rng.shuffle(names)
            carrier = Hypergraph(names, [[names[i] for i in e] for e in edges])
            r = rng.randint(2, size)
            choices, sub = sample_subedges(carrier, r, seed=trial)
            expected_choices, expected = sample_subedges_reference(carrier, r, seed=trial)
            assert choices == expected_choices
            assert sub.vertices == expected.vertices
            assert sub.edge_index_tuples() == expected.edge_index_tuples()

    def test_validation(self):
        h = Hypergraph(range(4), [[0, 1, 2], [0, 1, 2, 3]])
        with pytest.raises(HypergraphError, match="uniform"):
            sample_subedges(h, 2, seed=0)


# thresholds at n_max = 10^30 whose 30-digit sides do not separate at the
# boundary
THRESHOLDS_PAST_THIRTY_DIGITS = [
    (3, 10, 6957495876184822085662209903),
    (5, 5, 10111563050037188607123969124),
    (6, 4, 53815054850691614230612069798),
    (10, 2, 19416754885656815342929324482),
]


class TestCountingThreshold:
    def test_three_three_boundary(self):
        res = counting_threshold(3, 3)
        assert 10**6 < res.n < 10**7
        assert not counting_inequality_holds(res.n - 1, 3, 3)
        assert counting_inequality_holds(res.n, 3, 3)
        assert counting_inequality_holds(2 * res.n, 3, 3)
        assert res.lhs < res.rhs
        assert res.a == comb(5, 3)

    def test_monotone_in_girth(self):
        assert counting_threshold(3, 2).n < counting_threshold(3, 3).n

    def test_r_two_rejected(self):
        with pytest.raises(ValueError, match="r >= 3"):
            counting_threshold(2, 3)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_matches_the_exact_search(self, r):
        for g in range(2, 9):
            self.check_matches_the_exact_search(r, g, 10**12)

    @pytest.mark.parametrize(
        "r, g, n_max",
        [
            (4, 8, 10**40),  # the exact check is undecided at the float result
            (3, 100, 10**400),  # the float search overflows
        ],
    )
    def test_matches_the_exact_search_beyond_floats(self, r, g, n_max):
        self.check_matches_the_exact_search(r, g, n_max)

    @pytest.mark.parametrize("n_max", [80, 81, 82, 10**3, 10**6])
    def test_refusal_without_a_search_matches_the_exact_search(self, n_max):
        # no n <= n_max can hold once (a - 1)^g >= n_max; for r = 3, g = 2
        # that is 81, so from n_max = 82 on the search runs
        for r in (3, 4, 6):
            for g in (2, 3, 5):
                self.check_matches_the_exact_search(r, g, n_max)

    @staticmethod
    def exact_search(r, g, n_max=10**12):
        # the same search on the library's own check, reporting the sides at
        # the 30 digits every decision starts from
        sides = functools.partial(randgen._counting_sides, dps=30)
        return counting_threshold_exact(r, g, counting_inequality_holds, sides, n_max=n_max)

    def check_matches_the_exact_search(self, r, g, n_max):
        try:
            expected = self.exact_search(r, g, n_max=n_max)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=str(exc)):
                counting_threshold(r, g, n_max=n_max)
        else:
            assert counting_threshold(r, g, n_max=n_max) == expected

    def test_a_skewed_newton_guess_gives_the_same_threshold(self, monkeypatch):
        # the exact search gallops from any bracket, so the guess needs no proof
        pairs = [(3, 2), (3, 3), (3, 4), (4, 2), (5, 2)]
        expected = [self.exact_search(r, g) for r, g in pairs]
        newton_guess = randgen._newton_guess
        for skew in (lambda n: n * 1000, lambda n: max(2, n // 1000)):
            monkeypatch.setattr(
                randgen, "_newton_guess", lambda a, g, n_max: min(skew(newton_guess(a, g, n_max)), n_max)
            )
            assert [counting_threshold(r, g) for r, g in pairs] == expected

    def test_far_threshold_is_the_boundary(self):
        # a 394-digit threshold, far past the floats' range
        n = counting_threshold(3, 100, n_max=10**400).n
        assert 10**393 < n < 10**394
        assert counting_inequality_holds(n, 3, 100)
        assert not counting_inequality_holds(n - 1, 3, 100)

    @pytest.mark.parametrize("r, g", [(2, 3), (3, 1)])
    def test_invalid_inputs_raise_as_the_exact_search(self, r, g):
        with pytest.raises(ValueError) as expected:
            self.exact_search(r, g)
        with pytest.raises(ValueError, match=str(expected.value)):
            counting_threshold(r, g)

    def test_holds_on_spot_scan(self):
        res = counting_threshold(3, 2)
        for n in range(res.n, 2 * res.n + 1, max(1, res.n // 7)):
            assert counting_inequality_holds(n, 3, 2)

    @pytest.mark.parametrize("r", [3, 8, 11])
    def test_log_terms_keep_every_digit(self, r):
        # ln(a/(a-1)) cancels about as many digits as a has; the cached terms
        # still match an evaluation with 100 more digits, rounded
        a = comb((r - 1) ** 2 + 1, r)
        for dps in (30, 50, 60):
            with localcontext(Context(prec=dps + 100)):
                wide = Decimal(a - 1).ln(), (Decimal(a) / (a - 1)).ln()
            with localcontext(Context(prec=dps)):
                assert randgen._log_terms(a, dps) == (+wide[0], +wide[1])

    def test_precision_disagreement_raises(self, monkeypatch):
        # sides that never separate are evaluated at 30, 60, ..., 960 digits,
        # and only the cap raises; the search raises at its first evaluation
        seen = []

        def sides(n, a, g, dps=50):
            seen.append((n, dps))
            return Decimal(1), Decimal(1)

        monkeypatch.setattr(randgen, "_counting_sides", sides)
        with pytest.raises(ArithmeticError, match="^counting inequality undecided at n=5 with 960 digits$"):
            counting_inequality_holds(5, 3, 3)
        assert seen == [(5, dps) for dps in (30, 60, 120, 240, 480, 960)]
        seen.clear()
        # the Newton step is 0 on these sides, so the guess is the rounded
        # seed, 2796450, and the first exact evaluation is just below it
        with pytest.raises(ArithmeticError, match="^counting inequality undecided at n=2796449 with 960 digits$"):
            counting_threshold(3, 3)
        assert seen[-6:] == [(2796449, dps) for dps in (30, 60, 120, 240, 480, 960)]

    @pytest.mark.parametrize(
        "gap, decided_at",
        [
            ("1.9e-28", 30),  # above rho (L + R) = 9 * 2 * 10^-29 at 30 digits
            ("1.7e-28", 60),  # below it: undecided until 60 digits
            ("1e-100", 120),  # the bound 1.8e-118 at 120 digits, 1.8e-58 at 60
        ],
    )
    def test_decided_once_the_gap_exceeds_the_error_bound(self, monkeypatch, gap, decided_at):
        # n = 5 and g = 3 give rho = (3 * 3 + 6 * 3) / 3 = 9 times 10^(1 - p)
        seen = []

        def sides(n, a, g, dps=50):
            seen.append(dps)
            with localcontext(Context(prec=200)):  # 1 + gap, unrounded
                return Decimal(1), 1 + Decimal(gap)

        monkeypatch.setattr(randgen, "_counting_sides", sides)
        assert counting_inequality_holds(5, 3, 3)
        assert seen[-1] == decided_at and seen == sorted(set(seen))
        seen.clear()
        monkeypatch.setattr(randgen, "_counting_sides", lambda *a: sides(*a)[::-1])
        assert not counting_inequality_holds(5, 3, 3)
        assert seen[-1] == decided_at

    @pytest.mark.parametrize("r, g, threshold", THRESHOLDS_PAST_THIRTY_DIGITS)
    def test_thresholds_past_the_thirty_digit_sides(self, r, g, threshold):
        # each is confirmed at 150 digits by TestCountingSidesAgainstMpmath
        assert counting_threshold(r, g, n_max=10**30).n == threshold

    @pytest.mark.parametrize("n_max", [10**12, 10**30])
    def test_every_grid_input_is_decided(self, n_max):
        # on r = 3..11 x g = 2..39 a search either returns or finds no n
        for r in range(3, 12):
            for g in range(2, 40):
                try:
                    res = counting_threshold(r, g, n_max=n_max)
                except ArithmeticError as exc:
                    assert str(exc) == f"no satisfying n found below {n_max}", (r, g)
                else:
                    assert res.n <= n_max and res.lhs <= res.rhs


class TestCountingSidesAgainstMpmath:
    """The decimal evaluation against the earlier mpmath one, kept in
    ``oracles.counting_sides_mpmath`` as an independent route."""

    @pytest.fixture(autouse=True)
    def _needs_mpmath(self):
        pytest.importorskip("mpmath")

    @pytest.mark.parametrize("r", range(3, 12))
    def test_thresholds_and_sides_match_bit_for_bit(self, r):
        for g in range(2, 40):
            try:
                expected = counting_threshold_mpmath(r, g)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError, match=f"^{re.escape(str(exc))}$"):
                    counting_threshold(r, g)
                continue
            got = counting_threshold(r, g)
            assert (got.n, got.a) == (expected.n, expected.a), (r, g)
            assert got.lhs.hex() == expected.lhs.hex() and got.rhs.hex() == expected.rhs.hex()

    def test_random_decisions_agree(self):
        rng = random.Random(2020)
        for _ in range(3000):
            r, g = rng.randint(3, 11), rng.randint(2, 39)
            n = rng.randint(2, 10 ** rng.randint(1, 12))
            assert counting_inequality_holds(n, r, g) == counting_inequality_holds_mpmath(n, r, g), (n, r, g)

    @pytest.mark.parametrize("r, g, threshold", THRESHOLDS_PAST_THIRTY_DIGITS)
    def test_thresholds_past_the_thirty_digit_sides_hold_at_150_digits(self, r, g, threshold):
        a = comb((r - 1) ** 2 + 1, r)
        lhs, rhs = counting_sides_mpmath(threshold, a, g, dps=150)
        assert lhs < rhs
        lhs, rhs = counting_sides_mpmath(threshold - 1, a, g, dps=150)
        assert lhs >= rhs

    @pytest.mark.parametrize("r, g", [(3, 2), (3, 3), (4, 2), (5, 2)])
    def test_decisions_agree_around_the_threshold(self, r, g):
        n = counting_threshold(r, g).n
        for m in range(n - 40, n + 41):
            assert counting_inequality_holds(m, r, g) == counting_inequality_holds_mpmath(m, r, g), m


class TestRandomSearch:
    def test_r_two_rejected_at_params(self):
        with pytest.raises(ValueError, match="r >= 3"):
            random_search_unavoidable(8, 2, 2)

    def test_finds_certified_instance(self):
        out = random_search_unavoidable(8, 3, 2, seed=0, tries=30, budget=500_000)
        assert out.found
        h = out.hypergraph
        assert h.is_uniform(3)
        # independent re-verification of both certified properties
        assert find_good_coloring(h).status is VerdictStatus.PROPERTY_HOLDS
        assert girth(h, cap=2).girth.guarantees_at_least(2)

    def test_unfound_returns_hardest_attempt(self):
        # tiny n gives sparse instances that always admit good colorings
        out = random_search_unavoidable(5, 3, 2, seed=0, tries=4, budget=100_000)
        assert not out.found
        assert out.verdict.status is VerdictStatus.WITNESS_FOUND
        # at n = 7, seed 1 the six tries take 11, 7, 11, 15, 14 and 12 nodes:
        # the hardest is try 3, and of the tied tries 0 and 2 the first wins
        for tries, index, nodes in [(6, 3, 15), (3, 0, 11)]:
            out = random_search_unavoidable(7, 3, 2, seed=1, tries=tries, budget=100_000)
            assert not out.found
            assert (out.try_index, out.verdict.nodes) == (index, nodes)

    def test_params_validation(self):
        # each check fires before the later ones
        cases = [
            ((4, 2, 1), {"tries": 0}, "r >= 3"),
            ((4, 3, 1), {"tries": 0}, "girth target must be >= 2, got 1"),
            ((4, 3, 2), {"tries": 0}, "need n >= 5 vertices, got 4"),  # (r-1)^2+1 = 5
            ((8, 3, 2), {"tries": 0}, "tries and budget must be positive"),
            ((8, 3, 2), {"budget": 0}, "tries and budget must be positive"),
        ]
        for args, kwargs, match in cases:
            with pytest.raises(ValueError, match=match):
                random_search_unavoidable(*args, **kwargs)
        assert counting_threshold(3, 2).a == comb(5, 3) == 10  # r-subsets of a carrier edge
