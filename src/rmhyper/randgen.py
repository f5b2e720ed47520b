"""Probabilistic generation: high-girth carriers, sub-edge sampling, and the
counting bound behind the randomized existence argument.

The randomized proof has three steps, and each is a plain function over data
the caller already holds.  :func:`random_high_girth` samples a fixed number
of distinct R-subsets uniformly and deletes one edge from each short cycle
until the girth target holds (:func:`~rmhyper.girth.delete_short_cycles`),
then re-checks the girth with a fresh scan; its vertex count and sample
size pass the builders' size gate first.  :func:`sample_subedges` draws
one r-subset from each carrier edge's position tuple; the r-uniform
hypergraph they span inherits the carrier's girth.
:func:`random_search_unavoidable` repeats both with R = (r-1)^2+1 and hands
each result to the coloring solver until one is certified.  The counting
bound is decided rather than re-proving the existence result, whose n is
far beyond desk scale: both sides are evaluated in the standard library's
decimal arithmetic from 30 digits, and the comparison stands once they
differ by more than a proven error bound; otherwise the precision doubles
up to 960 digits, where ArithmeticError is raised.  One exact search, from
a decimal Newton root, finds the threshold, and its sides are reported at
30 digits.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from math import ceil, comb, floor, inf, log, log2

from .coloring import Verdict, VerdictStatus, find_good_coloring
from .construct import BuildLimits, SizeEstimate
from .core import Hypergraph, HypergraphError, comb_at_most, validate_girth, validate_uniformity
from .girth import delete_short_cycles, girth_at_least

DEFAULT_SAMPLES = 8
DEFAULT_TRIES = 64
DEFAULT_SEARCH_BUDGET = 2_000_000
_DIGITS = 30  # the counting comparison's first precision, and the reported sides'
_MAX_DIGITS = 960  # its cap: 30 digits doubled five times


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

    A root below 2 needs no root search: bit_length(n**num) <= den means
    n**num < 2**den, so the answer is 1 for n**num = 1 and 2 otherwise.

    Every other root takes integer Newton steps from the float estimate of
    the root rounded up.  From a seed below the root the first step
    overshoots by a factor of about e^(den * gap / root), and each later
    step shrinks only by a factor (den - 1) / den: seeded at 2, the root
    5^0.57 = 2.50.. with den = 300 takes some 20,000 steps.  One step from
    any x >= 1 lands on or above the floor of the root, and from there the
    steps decrease until they reach it.
    """
    if num == den + 1 and n >= 2 and den >= (n + 1) * n.bit_length():
        return n + 1
    target = n**num
    if target.bit_length() <= den:
        return 1 if target == 1 else 2
    bits = num / den * log2(n)  # log2 of the root
    shift = max(0, floor(bits) - 60)
    x = ceil(2 ** (bits - shift)) << shift  # at least 2, as the root is
    x = ((den - 1) * x + target // x ** (den - 1)) // den
    while (step := ((den - 1) * x + target // (power := x ** (den - 1))) // den) < x:
        x = step
    return x if x * power >= target else x + 1  # power is x**(den-1) for this x


@dataclass(frozen=True)
class CarrierSample:
    """Outcome of one high-girth generation run."""

    hypergraph: Hypergraph
    edge_target: int
    edges_kept: int
    target_met: bool
    samples_used: int
    edges_deleted: int


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
    of a currently shortest cycle until no cycle shorter than g remains
    (:func:`~rmhyper.girth.delete_short_cycles`), and re-checks the girth
    with a fresh scan.  If the surviving edge count misses the target
    ceil(n^(1+1/g)), fresh samples are drawn up to ``samples`` times and the
    best attempt is returned.  At desk scale the guarantee behind the target
    does not yet bind, so misses are expected for small n.  More vertices
    than the default ``BuildLimits().max_vertices``, or a sample of more
    edges than its ``max_edges``, raises SizeLimitError from the size gate
    :meth:`~rmhyper.construct.BuildLimits.refuse_beyond` before any edge is
    drawn; the vertex count is refused before the edge target is computed.
    """
    validate_uniformity(uniformity)
    if n < uniformity:
        raise HypergraphError(f"need n >= {uniformity} vertices, got {n}")
    validate_girth(g)
    if samples < 1:
        raise ValueError("samples must be >= 1")

    limits = BuildLimits()
    limits.refuse_beyond(SizeEstimate.of(n), "a carrier")
    target = ceil_power(n, g + 1, g)
    m = comb_at_most(n, uniformity, 2 * target)
    limits.refuse_beyond(SizeEstimate.of(n, m), "a carrier sample")

    best: CarrierSample | None = None
    population = range(n)
    for attempt in range(samples):
        rng = random.Random(derive_seed(seed, f"sample:{attempt}"))
        chosen: set[frozenset[int]] = set()
        while len(chosen) < m:
            chosen.add(frozenset(rng.sample(population, uniformity)))
        h, deleted = delete_short_cycles(Hypergraph(population, chosen), g)
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


def _counting_sides(n: int, a: int, g: int, dps: int) -> tuple[Decimal, Decimal]:
    """Both sides of the counting inequality in ``dps``-digit decimal
    arithmetic, with ln n taken once and n^(1/g) as exp(ln n / g)."""
    log_a1, slope = _log_terms(a, dps)
    with localcontext(Context(prec=dps)):
        nn = Decimal(n)
        log_n = nn.ln()
        return nn * log_n + log_a1, nn * (log_n / g).exp() * slope


def counting_inequality_holds(n: int, r: int, g: int) -> bool:
    """Decide n ln n + ln(a-1) < n^(1+1/g) ln(a/(a-1)).

    ``a`` is the number of r-subsets of an edge of the (r-1)^2+1-uniform
    carrier.  Both sides are evaluated by :func:`_counting_sides` at p = 30
    significant digits.  The computed sides L and R decide the comparison
    once |L - R| > rho (L + R), with rho = (3b/g + 6) 10^(1-p) and b the bit
    length of n; this test is evaluated exactly, in integers.  Otherwise p
    is doubled, and past ``_MAX_DIGITS`` ArithmeticError is raised.

    Why rho suffices.  Let u = 10^(1-p) / 2.  decimal rounds each of
    + - * /, ln and exp correctly, so every step is exact up to a factor
    1 + d with |d| <= u; n and g enter exactly.  :func:`_log_terms` rounds
    ln(a-1) twice (within 1.1u), and its ln(a/(a-1)) >= 1/a turns the
    rounding of the quotient at P = p + bit_length(a)//3 + 1 digits into a
    relative error below a 10^(p-P) u < 0.8u, so with two more roundings
    it is within 2u.  The left side's terms are positive; two roundings on
    n ln n and one on the sum leave it within 3.01u.  On the right, ln n / g
    = x is computed within 2.01u, and exp multiplies that relative error by
    x <= b ln 2 / g: while rho <= 1, e^(x 2.01u) <= e^(1/2), so exp(x) is
    within 2.3 (b/g) u, and three roundings and the slope add 5.01u.  Each
    side is thus within eps = rho / 2 of its exact value, and within
    eps / (1 - eps) <= rho of the computed one.  So R - L > rho (L + R)
    gives exact rhs >= R (1 - rho) > L (1 + rho) >= exact lhs, and the
    other sign gives the reverse; the test can pass only while rho < 1.
    """
    a = _subset_count(r)
    dps = _DIGITS
    while True:
        (x, y), (z, w) = (side.as_integer_ratio() for side in _counting_sides(n, a, g, dps))
        lhs, rhs = x * w, z * y  # L = x/y and R = z/w, both times y w
        if abs(lhs - rhs) * g * 10 ** (dps - 1) > (3 * n.bit_length() + 6 * g) * (lhs + rhs):
            return lhs < rhs
        if dps >= _MAX_DIGITS:
            raise ArithmeticError(f"counting inequality undecided at n={n} with {dps} digits")
        dps *= 2


def _check_r(r: int) -> int:
    if r < 3:
        raise ValueError(
            "the counting argument needs r >= 3: for r = 2 there is a single "
            "2-subset per carrier edge and the bound is vacuous"
        )
    return r


def _subset_count(r: int) -> int:
    return comb((_check_r(r) - 1) ** 2 + 1, r)


def _first_holding(holds, n_max: int, lo: int, hi: int) -> int | None:
    """Smallest n >= 2 with ``holds(n)``, for a ``holds`` that is monotone in
    n, searched from the bracket 1 <= lo < hi; n = 1 counts as failing and is
    never evaluated.  The bracket gallops outward, doubling its width, until
    ``holds(hi)`` and not ``holds(lo)``, and bisection then isolates the
    boundary.  None if ``hi`` passes ``n_max`` first."""
    while lo > 1 and holds(lo):
        lo, hi = max(1, 3 * lo - 2 * hi), lo
    while not holds(hi):
        lo, hi = hi, 3 * hi - 2 * lo
        if hi > n_max:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _newton_guess(a: int, g: int, n_max: int) -> int:
    """The ceiling of the root of f(n) = rhs - lhs, clamped to [2, n_max].
    A float seed t = ln n from t <- g (ln t - ln s), s = ln(a/(a-1)), falls to
    its fixed point, where the map contracts by g/t < 1/3.  Newton steps on
    integer n follow, in decimal at as many digits as n has plus 20, until
    one is below 1; f and f'(n) = (1 + 1/g) n^(1/g) s - ln n - 1 come from
    :func:`_counting_sides`: n^(1/g) s = rhs / n, ln n = (lhs - ln(a-1)) / n."""
    s_a1 = Context().multiply(_log_terms(a, _DIGITS)[1], a - 1)  # near 1 for any a
    ln_s = log(float(s_a1)) - log(a - 1)
    t, last = 2 * g * (log(2 * g) - ln_s), inf  # above: ln t <= t/2g + ln 2g - 1
    while last - t > 1e-12 * t:
        last, t = t, g * (log(t) - ln_s)
    if t >= log(n_max):
        return n_max
    dps = int(t / log(10)) + 21
    n = round(Context(prec=dps).exp(Decimal(t)))  # an integer n keeps ln n short
    while True:
        lhs, rhs = _counting_sides(n, a, g, dps)
        with localcontext(Context(prec=dps)):
            root = n - n * (rhs - lhs) / ((g + 1) * rhs / g - lhs + _log_terms(a, dps)[0] - n)
        if abs(root - n) < 1:
            return min(max(ceil(root), 2), n_max)
        n = round(root)


def counting_threshold(r: int, g: int, *, n_max: int = 10**12) -> ThresholdResult:
    """Smallest n satisfying the counting inequality, by monotone search.

    One exact search on :func:`counting_inequality_holds` starts from the
    bracket (guess - 1, guess) around :func:`_newton_guess`; the guess needs
    no proof, since the search is correct from any bracket.  The sides are
    reported as floats of the 30-digit evaluation every decision starts
    from.  ArithmeticError is raised when no n up to ``n_max`` satisfies the
    inequality.
    """
    _check_r(r)
    validate_girth(g)
    # With a - 1 >= n_max^(1/g) no n <= n_max satisfies the inequality: its
    # right side is at most n^(1+1/g) / (a-1) <= n, below n ln n + ln(a-1).
    # Decided without computing a, which has millions of digits at huge r.
    root = ceil_power(n_max, 1, g)  # >= n_max^(1/g)
    if comb_at_most((r - 1) ** 2 + 1, r, root + 1) > root:
        raise ArithmeticError(f"no satisfying n found below {n_max}")
    a = _subset_count(r)
    guess = _newton_guess(a, g, n_max)
    n = _first_holding(lambda n: counting_inequality_holds(n, r, g), n_max, guess - 1, guess)
    if n is None:
        raise ArithmeticError(f"no satisfying n found below {n_max}")
    lhs, rhs = _counting_sides(n, a, g, _DIGITS)
    return ThresholdResult(n=n, lhs=float(lhs), rhs=float(rhs), a=a)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the randomized search: the first certified instance, or else
    the hardest attempt (the first try with the most search nodes), with the
    index of its try."""

    found: bool
    hypergraph: Hypergraph
    verdict: Verdict
    try_index: int


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
    When no try is certified, all ``tries`` ran and the hardest is returned.
    """
    _check_r(r)
    validate_girth(g)
    carrier_uniformity = (r - 1) ** 2 + 1
    if n < carrier_uniformity:
        raise ValueError(f"need n >= {carrier_uniformity} vertices, got {n}")
    if tries < 1 or budget < 1:
        raise ValueError("tries and budget must be positive")

    best: SearchOutcome | None = None
    for t in range(tries):
        seed_t = derive_seed(seed, f"try:{t}")
        carrier = random_high_girth(n, carrier_uniformity, g, seed_t)
        _, candidate = sample_subedges(carrier.hypergraph, r, seed_t)
        verdict = find_good_coloring(candidate, budget=budget)
        found = verdict.status is VerdictStatus.PROPERTY_HOLDS
        outcome = SearchOutcome(found, candidate, verdict, t)
        if found:
            if not girth_at_least(candidate, g):
                raise AssertionError("certified instance fails its girth recheck")
            return outcome
        if best is None or verdict.nodes > best.verdict.nodes:
            best = outcome
    assert best is not None
    return best
