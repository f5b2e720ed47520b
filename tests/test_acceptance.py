"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every check is exact; the stated wall-clock limits are asserted
too (all are generous for this implementation).
"""
import json
import random
import time
from collections import Counter
from itertools import combinations
from math import comb

from rmhyper.cli import run
from rmhyper.coloring import (
    DEFAULT_BUDGET,
    VerdictStatus,
    coloring_is_good,
    find_good_coloring,
    find_part_rainbow_bad,
)
from rmhyper.core import Hypergraph, complete_hypergraph
from rmhyper.construct import (
    amalgamate,
    base_rainbow_path,
    build_part_rainbow_forced,
    build_rm_unavoidable,
    estimate_pr_size,
    supply_min_degree_girth,
)
from rmhyper.formats import loads
from rmhyper.girth import girth
from rmhyper.randgen import (
    counting_inequality_holds,
    counting_threshold,
    random_high_girth,
)

from oracles import (
    berge_girth_bruteforce,
    closing_vertex_search,
    count_cycles_bruteforce,
    count_overlapping_pairs,
    iter_rgs,
    random_graph,
    random_hypergraph,
    random_partite,
)


def report(number: int, description: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed <= limit else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed <= limit, f"criterion {number} exceeded its {limit}s limit ({elapsed:.2f}s)"


def test_criterion_01_unavoidable_base_case(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "h32.json"
    ok = run(["construct", "h", "--r", "3", "--g", "2", "-o", str(out)]) == 0
    built = loads(out.read_text())
    ok &= built == complete_hypergraph(5, 3)
    # the exhaustive oracle walks all 52 canonical partitions, none good
    partitions = list(iter_rgs(5))
    ok &= len(partitions) == 52
    keys = built.edge_index_tuples()
    good = [
        rgs
        for rgs in partitions
        if all(1 < len({rgs[i] for i in key}) < len(key) for key in keys)
    ]
    ok &= good == []
    ok &= run(["solve", "good", str(out)]) == 1
    capsys.readouterr()
    with capsys.disabled():
        report(1, "base case: complete 3-uniform on 5 vertices, all 52 partitions bad", ok, time.time() - t0, 1)


def test_criterion_02_pigeonhole_sharpness():
    t0 = time.time()
    h = complete_hypergraph(4, 3)
    verdict = find_good_coloring(h)
    ok = verdict.status is VerdictStatus.WITNESS_FOUND
    ok &= Counter(verdict.coloring.assignment.values()) == {0: 2, 1: 2}
    ok &= coloring_is_good(h, verdict.coloring)
    report(2, "sharpness: 4 vertices admit a good 2-class (2,2) coloring", ok, time.time() - t0, 1)


def test_criterion_03_rainbow_path_base():
    t0 = time.time()
    p = base_rainbow_path()
    verdict = find_part_rainbow_bad(p)
    ok = verdict.status is VerdictStatus.PROPERTY_HOLDS
    ok &= girth(p.base, cap=8).girth.kind == "infinite"
    report(3, "path base is part-rainbow-forced and acyclic", ok, time.time() - t0, 1)


def test_criterion_04_three_uniform_rainbow_forced():
    t0 = time.time()
    supplied = supply_min_degree_girth(2, 3, 2 * 3)
    ok = supplied == complete_hypergraph(7, 2)
    ok &= min(supplied.degree(v) for v in supplied.vertices) == 6
    pr = build_part_rainbow_forced(3, 3)
    ok &= pr.num_vertices == 70 and pr.num_edges == 42
    ok &= pr.base.is_uniform(3) and pr.num_parts == 3
    ok &= girth(pr.base, cap=3).girth.guarantees_at_least(3)
    verdict = find_part_rainbow_bad(pr, budget=10**8)
    ok &= verdict.status is VerdictStatus.PROPERTY_HOLDS
    report(
        4,
        f"70-vertex 3-uniform instance is part-rainbow-forced ({verdict.nodes} nodes)",
        ok,
        time.time() - t0,
        600,
    )


def test_criterion_05_girth_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(1905)
    ok = True
    for _ in range(1000):
        h = random_hypergraph(rng, max_vertices=7, max_edges=6)
        expected = berge_girth_bruteforce(h)
        got = girth(h, cap=max(2, h.num_edges))
        if expected is None:
            ok &= got.girth.kind == "infinite"
        else:
            ok &= got.girth.value == expected
            if got.witness is None:
                ok = False
            else:
                got.witness.validate(h)
    report(5, "incidence girth equals brute-force Berge search on 1000 seeds", ok, time.time() - t0, 30)


def test_criterion_06_solver_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(1906)
    ok = True
    for _ in range(500):
        h = random_hypergraph(rng, max_vertices=8, max_edges=9)
        keys = h.edge_index_tuples()
        oracle_good = None
        for rgs in iter_rgs(h.num_vertices):
            if all(1 < len({rgs[i] for i in key}) < len(key) for key in keys):
                oracle_good = rgs
                break
        verdict = find_good_coloring(h)
        if oracle_good is None:
            ok &= verdict.status is VerdictStatus.PROPERTY_HOLDS
        else:
            ok &= verdict.status is VerdictStatus.WITNESS_FOUND
            ok &= coloring_is_good(h, verdict.coloring)
    report(6, "solver verdicts equal the exhaustive partition oracle on 500 seeds", ok, time.time() - t0, 60)


def test_criterion_07_amalgamation_identities():
    t0 = time.time()
    rng = random.Random(1907)
    cap = 8

    def lower(hh):
        res = girth(hh, cap=cap).girth
        return float("inf") if res.kind == "infinite" else res.value

    ok = True
    done = 0
    while done < 200:
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
        ok &= result.num_edges == f.num_edges * h.num_edges
        ok &= lower(result.base) >= min(lower(h.base), lower(f))
        done += 1
    report(7, "edge-count identity and girth lower bound on 200 amalgamations", ok, time.time() - t0, 60)


def test_criterion_08_cycle_count_bound():
    t0 = time.time()
    ok = True
    for r, ell, n in [(2, 3, 5), (2, 3, 6), (3, 2, 4), (3, 2, 5)]:
        # c is the ell-cycle count on (r-1)*ell vertices, which every ell-cycle spans at most
        support = (r - 1) * ell
        c = count_cycles_bruteforce(complete_hypergraph(support, r), ell)
        ok &= count_cycles_bruteforce(complete_hypergraph(n, r), ell) <= c * comb(n, support)
    k35 = complete_hypergraph(5, 3)
    ok &= count_cycles_bruteforce(k35, 2) == 30
    ok &= count_overlapping_pairs(k35) == 30  # independent pair-count oracle
    report(8, "short-cycle counts satisfy the support-set bound; (3,2,5) count is 30", ok, time.time() - t0, 30)


def test_criterion_09_random_generator_girth():
    t0 = time.time()
    girth_ok = True
    met = 0
    seeds = 200
    for seed in range(seeds):
        sample = random_high_girth(12, 5, 3, seed=seed)
        girth_ok &= sample.edge_target == 28
        girth_ok &= girth(sample.hypergraph, cap=2).girth.guarantees_at_least(3)
        met += sample.target_met
    rate = met / seeds
    print(
        f"  note: edge target 28 met in {rate:.0%} of runs; a girth-3 5-uniform "
        f"hypergraph on 12 vertices packs at most 6 edges, so 0% is expected "
        f"(the guarantee only binds at much larger n; rate is logged, not asserted)"
    )
    report(9, "random generator returns verified girth >= 3 on 200 seeds", girth_ok, time.time() - t0, 120)


def test_criterion_10_counting_bound_threshold():
    t0 = time.time()
    res = counting_threshold(3, 3)
    ok = not counting_inequality_holds(res.n - 1, 3, 3)
    ok &= counting_inequality_holds(res.n, 3, 3)
    ok &= counting_inequality_holds(2 * res.n, 3, 3)
    for n in range(res.n, 2 * res.n + 1, max(1, res.n // 9)):
        ok &= counting_inequality_holds(n, 3, 3)
    ok &= res.lhs < res.rhs
    report(10, f"counting inequality first holds at n = {res.n}", ok, time.time() - t0, 1)


def test_criterion_11_graphs_always_unavoidable():
    t0 = time.time()
    rng = random.Random(1911)
    ok = True
    for _ in range(100):
        g = random_graph(rng, require_edge=True)
        ok &= find_good_coloring(g).status is VerdictStatus.PROPERTY_HOLDS
    report(11, "100 random nonempty graphs are rm-unavoidable", ok, time.time() - t0, 5)


def test_criterion_12_end_to_end_two_uniform_girth_three():
    t0 = time.time()
    h, trace = build_rm_unavoidable(2, 3)
    ok = h.is_uniform(2)
    ok &= girth(h, cap=3).girth.guarantees_at_least(3)
    ok &= find_good_coloring(h).status is VerdictStatus.PROPERTY_HOLDS
    ok &= trace.info["r"] == 2 and trace.info["g"] == 3
    report(12, "2-uniform girth-3 instance builds and certifies end to end", ok, time.time() - t0, 300)


def test_criterion_13_three_uniform_girth_eight_from_the_quadrangle():
    t0 = time.time()
    pr = build_part_rainbow_forced(3, 8)  # re-verifies girth >= 8 before returning
    est = estimate_pr_size(3, 8)
    ok = (est.vertices, est.edges) == (pr.num_vertices, pr.num_edges) == (3120, 1872)
    ok &= pr.base.is_uniform(3)
    report(13, "pr(3, 8) builds exactly as estimated and verifies girth >= 8", ok, time.time() - t0, 2)


def test_criterion_14_three_uniform_girth_four_rainbow_forced(tmp_path, capsys):
    t0 = time.time()
    pr = build_part_rainbow_forced(3, 4)
    ok = pr.num_vertices == 120 and pr.base.is_uniform(3)
    verdict = find_part_rainbow_bad(pr)
    ok &= verdict.status is VerdictStatus.PROPERTY_HOLDS
    # the same verdict from the closing-vertex search without forward checking
    status, _, reference_nodes = closing_vertex_search(
        pr.base,
        forbid_mono=False,
        forbid_rainbow=True,
        groups=pr.parts,
        budget=DEFAULT_BUDGET,
        order_strategy="connectivity",
    )
    ok &= status == "property_holds" and verdict.nodes <= reference_nodes
    out = tmp_path / "pr34.json"
    ok &= run(["construct", "pr", "--r", "3", "--g", "4", "-o", str(out)]) == 0
    capsys.readouterr()
    ok &= run(["solve", "part-rainbow", str(out)]) == 1
    solved = json.loads(capsys.readouterr().out)
    ok &= (solved["status"], solved["nodes"]) == ("property_holds", verdict.nodes)
    report(
        14,
        f"120-vertex pr(3, 4) is part-rainbow-forced ({verdict.nodes} nodes, "
        f"{reference_nodes} without forward checking), also through the CLI",
        ok,
        time.time() - t0,
        60,
    )
