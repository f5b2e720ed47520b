"""Probabilistic generation: high-girth carriers, sub-edge sampling, and the
counting bound behind the randomized existence argument.

The randomized proof has three steps, and each is a plain function over data
the caller already holds.  :func:`random_high_girth` samples a fixed number
of distinct R-subsets uniformly and deletes one edge from each short cycle
until the girth target holds.  :func:`sample_subedges` draws one r-subset
from each carrier edge's position tuple; the r-uniform hypergraph they span
inherits the carrier's girth.  :func:`random_search_unavoidable` repeats
both with R = (r-1)^2+1 and hands each result to the coloring solver until
one is certified.  The counting bound is evaluated in the standard
library's decimal arithmetic at fixed precisions instead of re-proving the
existence result, whose n is far beyond desk scale.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from math import ceil, comb, floor, log, log1p, log2, log10

from .coloring import Verdict, VerdictStatus, find_good_coloring
from .construct import SIZE_CAP, BuildLimits, SizeEstimate, SizeLimitError
from .core import Hypergraph, HypergraphError, comb_at_most, validate_uniformity
from .girth import girth, girth_at_least

DEFAULT_SAMPLES = 8
DEFAULT_TRIES = 64
DEFAULT_SEARCH_BUDGET = 2_000_000


def derive_seed(master: int, label: object) -> int:
    """Stable 64-bit child seed for independent substreams."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def ceil_power(n: int, num: int, den: int) -> int:
    """Exact ceil(n**(num/den)) for positive integers, by integer root.

    For num = den + 1 and den >= (n + 1) * bit_length(n) the answer is n + 1
    without the root: ln n < bit_length(n) <= den / (n + 1) <= den ln(1 + 1/n),
    so n < n**(num/den) < n + 1.  This keeps huge girth targets from raising
    n to a power with as many digits as den.

    Otherwise, for a root below 2^36, a float estimate brackets it within one
    or two units, and two exact checks confirm the bracket before a binary
    search over it.  For a larger root, or where the bracket misses, integer
    Newton steps from a seed taken from log2 of the root give its floor.
    """
    if num == den + 1 and n >= 2 and den >= (n + 1) * n.bit_length():
        return n + 1
    target = n**num
    bits = num / den * log2(n)  # log2 of the root
    if bits < 36:
        est = 2**bits  # relative error below 1e-14
        lo, hi = max(1, floor(est * (1 - 2**-36))), ceil(est * (1 + 2**-36))
        if hi**den >= target and (lo == 1 or lo**den < target):
            lo = lo if lo == 1 else lo + 1  # lo**den < target
            while lo < hi:
                mid = (lo + hi) // 2
                if mid**den >= target:
                    hi = mid
                else:
                    lo = mid + 1
            return lo
    shift = max(0, floor(bits) - 60)
    x = max(1, int(2 ** (bits - shift))) << shift
    # one step from any x >= 1 lands on or above the floor of the root;
    # from there the steps decrease until they reach it
    x = ((den - 1) * x + target // x ** (den - 1)) // den
    while (step := ((den - 1) * x + target // x ** (den - 1)) // den) < x:
        x = step
    return x if x**den >= target else x + 1


@dataclass(frozen=True)
class CarrierSample:
    """Outcome of one high-girth generation run."""

    hypergraph: Hypergraph
    edge_target: int
    edges_kept: int
    target_met: bool
    samples_used: int
    edges_deleted: int


def _refuse_count(what: str, count: int, unit: str, limit: int, estimate: SizeEstimate) -> None:
    """Raise SizeLimitError if ``count`` exceeds ``limit``.  Past SIZE_CAP the
    message gives a digit count, since ``count`` may have more digits than
    str() prints, and the estimate is astronomical."""
    if count <= limit:
        return
    if count > SIZE_CAP:
        size, estimate = f"~10^{log10(count):.0f}", SizeEstimate(None, None, True)
    else:
        size = str(count)
    raise SizeLimitError(f"{what} {size} {unit} exceeds the limit of {limit} {unit}", estimate)


def random_high_girth(
    n: int,
    uniformity: int,
    g: int,
    seed: int,
    *,
    samples: int = DEFAULT_SAMPLES,
) -> CarrierSample:
    """Random uniform hypergraph on n vertices with verified girth >= g.

    Samples twice ceil(n^(1+1/g)) distinct edges without replacement (capped
    at the number of available edges), then repeatedly deletes the first edge
    of a currently shortest cycle until no cycle shorter than g remains.  If
    the surviving edge count misses the target ceil(n^(1+1/g)), fresh samples
    are drawn up to ``samples`` times and the best attempt is returned.  At
    desk scale the guarantee behind the target does not yet bind, so misses
    are expected for small n.  More vertices than the default
    ``BuildLimits().max_vertices``, or a sample of more edges than its
    ``max_edges``, raises SizeLimitError before any edge is drawn.
    """
    validate_uniformity(uniformity)
    if n < uniformity:
        raise HypergraphError(f"need n >= {uniformity} vertices, got {n}")
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    limits = BuildLimits()
    _refuse_count("a carrier on", n, "vertices", limits.max_vertices, SizeEstimate(n, None, False))
    target = ceil_power(n, g + 1, g)
    m = comb_at_most(n, uniformity, 2 * target)
    _refuse_count("a carrier sample of", m, "edges", limits.max_edges, SizeEstimate(n, m, False))

    best: CarrierSample | None = None
    population = range(n)
    for attempt in range(samples):
        rng = random.Random(derive_seed(seed, f"sample:{attempt}"))
        chosen: set[frozenset[int]] = set()
        while len(chosen) < m:
            chosen.add(frozenset(rng.sample(population, uniformity)))
        h = Hypergraph(population, chosen)
        deleted = 0
        if g > 2:
            while True:
                res = girth(h, cap=g - 1)
                if not res.girth.is_finite:
                    break
                assert res.witness is not None
                h = h.without_edges([res.witness.edges[0]])
                deleted += 1
        if not girth_at_least(h, g):
            raise AssertionError("deletion loop failed to reach the girth target")
        sample = CarrierSample(
            hypergraph=h,
            edge_target=target,
            edges_kept=h.num_edges,
            target_met=h.num_edges >= target,
            samples_used=attempt + 1,
            edges_deleted=deleted,
        )
        if sample.target_met:
            return sample
        if best is None or sample.edges_kept > best.edges_kept:
            best = sample
    assert best is not None
    return best


def sample_subedges(
    h: Hypergraph, r: int, seed: int
) -> tuple[tuple[frozenset, ...], Hypergraph]:
    """Choose a uniform random r-subset of every edge of an R-uniform carrier.

    Returns the choices, one per carrier edge in canonical carrier edge order,
    plus the r-uniform hypergraph they span (on the carrier's full vertex
    set).  Distinct carrier edges can yield the same subset; the choices
    record every draw while the hypergraph deduplicates, so it may have fewer
    edges than the carrier.  Its girth is at least the carrier's girth.
    """
    validate_uniformity(r)
    big = h.uniformity()
    if h.num_edges and (big is None or big < r):
        raise HypergraphError(f"carrier must be uniform with edges of size >= {r}")
    rng = random.Random(derive_seed(seed, "subedges"))
    vs = h.vertices
    choices = tuple(
        frozenset([vs[i] for i in rng.sample(key, r)]) for key in h.edge_index_tuples()
    )
    return choices, Hypergraph(vs, set(choices))


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest n where the counting inequality holds, with both sides."""

    n: int
    lhs: float  # n ln n + ln(a-1)
    rhs: float  # n^(1+1/g) ln(a/(a-1))
    a: int


@lru_cache(maxsize=16)
def _log_terms(a: int, dps: int) -> tuple[Decimal, Decimal]:
    """ln(a-1) and ln(a/(a-1)) to ``dps`` significant digits.  The quotient
    carries as many guard digits as ``a`` has, since its logarithm cancels
    them."""
    with localcontext(Context(prec=dps + a.bit_length() // 3 + 1)):
        terms = Decimal(a - 1).ln(), (Decimal(a) / (a - 1)).ln()
    with localcontext(Context(prec=dps)):
        return +terms[0], +terms[1]


def _counting_sides(n: int, a: int, g: int, dps: int = 50) -> tuple[Decimal, Decimal]:
    """Both sides of the counting inequality in ``dps``-digit decimal
    arithmetic, with ln n taken once and n^(1/g) as exp(ln n / g)."""
    log_a1, slope = _log_terms(a, dps)
    with localcontext(Context(prec=dps)):
        nn = Decimal(n)
        log_n = nn.ln()
        return nn * log_n + log_a1, nn * (log_n / g).exp() * slope


def counting_inequality_holds(n: int, r: int, g: int) -> bool:
    """Exact check of n ln n + ln(a-1) < n^(1+1/g) ln(a/(a-1)).

    ``a`` is the number of r-subsets of an edge of the (r-1)^2+1-uniform
    carrier.  Both sides are evaluated in decimal arithmetic at 30 and at 60
    significant digits; if the two comparisons disagree, ArithmeticError is
    raised.
    """
    a = _subset_count(r)
    lo_lhs, lo_rhs = _counting_sides(n, a, g, dps=30)
    hi_lhs, hi_rhs = _counting_sides(n, a, g, dps=60)
    if (lo_lhs < lo_rhs) != (hi_lhs < hi_rhs):
        raise ArithmeticError(f"precision-dependent comparison at n={n}")
    return bool(hi_lhs < hi_rhs)


def _check_r(r: int) -> int:
    if r < 3:
        raise ValueError(
            "the counting argument needs r >= 3: for r = 2 there is a single "
            "2-subset per carrier edge and the bound is vacuous"
        )
    return r


def _subset_count(r: int) -> int:
    return comb((_check_r(r) - 1) ** 2 + 1, r)


def _first_holding(holds, n_max: int) -> int | None:
    """Smallest n >= 2 with ``holds(n)``, for a ``holds`` that is monotone in
    n: exponential search finds a satisfying n, binary search isolates the
    boundary.  None if no n up to ``n_max`` satisfies it."""
    hi = 2
    while not holds(hi):
        hi *= 2
        if hi > n_max:
            return None
    lo = max(2, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _is_boundary(n: int, r: int, g: int) -> bool:
    """Exact check that the counting inequality holds at n and fails at n-1."""
    return counting_inequality_holds(n, r, g) and not (
        n > 2 and counting_inequality_holds(n - 1, r, g)
    )


def counting_threshold(r: int, g: int, *, n_max: int = 10**12) -> ThresholdResult:
    """Smallest n satisfying the counting inequality, by monotone search.

    The search runs in floats, and the exact two-precision check confirms
    that the inequality holds at its result n and fails at n-1.  If the
    floats found no n up to ``n_max``, overflowed, or the check fails or
    raises, the search runs again on the exact check alone, with a downward
    walk from the binary search's result, and its result is re-verified the
    same way.
    """
    _check_r(r)
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")
    # With a - 1 >= n_max^(1/g) no n <= n_max satisfies the inequality: its
    # right side is at most n^(1+1/g) / (a-1) <= n, below n ln n + ln(a-1).
    # Decided without computing a, which has millions of digits at huge r.
    root = 2 if g >= n_max.bit_length() else ceil_power(n_max, 1, g)  # >= n_max^(1/g)
    if comb_at_most((r - 1) ** 2 + 1, r, root + 1) > root:
        raise ArithmeticError(f"no satisfying n found below {n_max}")
    a = _subset_count(r)

    c, slope, power = log(a - 1), log1p(1 / (a - 1)), 1 + 1 / g
    try:  # floats overflow past 1e308, and the exact check can be undecided
        n = _first_holding(lambda n: n * log(n) + c < n**power * slope, n_max)
        confirmed = n is not None and _is_boundary(n, r, g)
    except ArithmeticError:
        confirmed = False
    if not confirmed:
        n = _first_holding(lambda n: counting_inequality_holds(n, r, g), n_max)
        if n is None:
            raise ArithmeticError(f"no satisfying n found below {n_max}")
        while n > 2 and counting_inequality_holds(n - 1, r, g):
            n -= 1
        if not _is_boundary(n, r, g):
            raise ArithmeticError("threshold boundary verification failed")
    lhs, rhs = _counting_sides(n, a, g)
    return ThresholdResult(n=n, lhs=float(lhs), rhs=float(rhs), a=a)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the randomized search: first certified instance, or the
    hardest (most search nodes) attempt seen."""

    found: bool
    hypergraph: Hypergraph
    verdict: Verdict
    try_index: int
    tries_used: int


def random_search_unavoidable(
    n: int,
    r: int,
    g: int,
    seed: int = 0,
    *,
    tries: int = DEFAULT_TRIES,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SearchOutcome:
    """Sample sub-edge hypergraphs over random high-girth carriers until the
    coloring solver certifies one as unavoidable.

    Each try draws an (r-1)^2+1-uniform carrier of girth >= g on n vertices
    and one r-subset of each of its edges.  Every certified instance is
    re-verified: girth at least g and an exhausted good-coloring search.
    """
    _check_r(r)
    if g < 2:
        raise ValueError(f"girth target must be >= 2, got {g}")
    carrier_uniformity = (r - 1) ** 2 + 1
    if n < carrier_uniformity:
        raise ValueError(f"need n >= {carrier_uniformity} vertices, got {n}")
    if tries < 1 or budget < 1:
        raise ValueError("tries and budget must be positive")

    best: tuple[int, SearchOutcome] | None = None
    for t in range(tries):
        seed_t = derive_seed(seed, f"try:{t}")
        carrier = random_high_girth(n, carrier_uniformity, g, seed_t)
        _, candidate = sample_subedges(carrier.hypergraph, r, seed_t)
        verdict = find_good_coloring(candidate, budget=budget)
        found = verdict.status is VerdictStatus.PROPERTY_HOLDS
        outcome = SearchOutcome(found, candidate, verdict, t, t + 1)
        if found:
            if not girth_at_least(candidate, g):
                raise AssertionError("certified instance fails its girth recheck")
            return outcome
        if best is None or verdict.nodes > best[0]:
            best = (verdict.nodes, outcome)
    assert best is not None
    return replace(best[1], tries_used=tries)
