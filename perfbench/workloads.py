"""The benchmark's workloads: inputs made from the seed, timed operations,
and the checks that run on their outputs after timing.

Operations look the program's functions up on their modules at call time, so
the wrappers the tracer installs are the ones that run.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from itertools import combinations

import oracles

# Imported only after the runner has put the checkout's ``src`` on the path.
from rmhyper import cli, coloring, construct, core, formats, randgen

OUT_DIR = ".perfbench_out"
CACHE_DIR = ".perfbench_cache"


def child_seed(seed: int, label: str) -> int:
    """Stable 64-bit seed for one input, independent of the program's own
    seed derivation."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class Workload:
    """One closed-loop client: ``ops()`` runs in order, each call after the
    previous one returned.

    The constructor builds the inputs from ``seed``, as part of set-up;
    ``root`` is the checkout, under which a workload may keep files.
    ``record`` summarises an output for comparison between passes; ``check``
    returns an error message for an output that is wrong.
    """

    name = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Untimed preparation before each pass."""

    def record(self, index: int, output) -> dict:
        raise NotImplementedError

    def check(self, index: int, output, record: dict) -> str | None:
        raise NotImplementedError

    def decided(self, record: dict) -> bool:
        """Whether the operation ended with a definite answer, not a budget
        or cap stop."""
        return True

    def counts(self, records: list[dict]) -> dict[str, int]:
        """Exact counts of one pass, which must repeat in every pass."""
        return {}

    def close(self) -> None:
        """Release what the workload keeps after the run."""


# ---------------------------------------------------------------------------
# carrier: the short-cycle deletion loop, never the solver
# ---------------------------------------------------------------------------


class Carrier(Workload):
    name = "carrier"
    # (n, R, g): acceptance criterion 9 and README ``random carrier``; the
    # shape of TestBadCycleStatistics; the supplier behind
    # ``construct pr --r 3 --g 4``.
    SHAPES = ((12, 5, 3), (40, 3, 3), (30, 2, 4))
    OPS = 102

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.inputs = [
            (*self.SHAPES[i % len(self.SHAPES)], child_seed(seed, f"carrier:{i}"))
            for i in range(self.OPS)
        ]

    def warm_up(self) -> None:
        randgen.random_high_girth(12, 5, 3, child_seed(self.seed, "warm-up"), samples=1)

    def ops(self):
        def op(n, big_r, g, s):
            return lambda: randgen.random_high_girth(n, big_r, g, s, samples=1)

        return [(f"carrier{n}-{r}-{g}", op(n, r, g, s)) for n, r, g, s in self.inputs]

    def record(self, index, output):
        h = output.hypergraph
        return {
            "edges_deleted": output.edges_deleted,
            "samples_used": output.samples_used,
            "edges": digest(h.edge_index_tuples()),
        }

    def check(self, index, output, record):
        n, big_r, g, _ = self.inputs[index]
        h = output.hypergraph
        if h.num_vertices != n or not all(len(e) == big_r for e in h.edges):
            return f"carrier {index}: not {big_r}-uniform on {n} vertices"
        if output.edges_kept != h.num_edges:
            return f"carrier {index}: edges_kept {output.edges_kept} != {h.num_edges}"
        found = oracles.berge_girth(h.vertices, h.edges)
        if found is not None and found < g:
            return f"carrier {index}: girth {found} < {g}"
        return None

    def counts(self, records):
        return {"randgen.edges_deleted": sum(r["edges_deleted"] for r in records)}


# ---------------------------------------------------------------------------
# certify: solver verdicts on inputs built during set-up
# ---------------------------------------------------------------------------


def linear_packing(n: int, seed: int) -> list[tuple[int, int, int]]:
    """A maximal linear 3-uniform packing on 0..n-1 by random greedy choice:
    no two triples share a pair, so the Berge girth is at least 3."""
    triples = list(combinations(range(n), 3))
    random.Random(seed).shuffle(triples)
    covered: set[tuple[int, int]] = set()
    chosen = []
    for a, b, c in triples:
        pairs = ((a, b), (a, c), (b, c))
        if not covered.intersection(pairs):
            covered.update(pairs)
            chosen.append((a, b, c))
    return chosen


def affine_plane_3() -> list[tuple[int, ...]]:
    """AG(2,3): the 12 lines of the 3x3 grid over GF(3)."""
    lines = set()
    for (x0, y0), (x1, y1) in combinations([(x, y) for x in range(3) for y in range(3)], 2):
        dx, dy = (x1 - x0) % 3, (y1 - y0) % 3
        lines.add(tuple(sorted(3 * ((x0 + k * dx) % 3) + (y0 + k * dy) % 3 for k in range(3))))
    return sorted(lines)


def cyclic_sts_13() -> list[tuple[int, ...]]:
    """The cyclic Steiner triple system on Z_13, base blocks {0,1,4}, {0,2,7}."""
    return sorted({tuple(sorted((b + i) % 13 for b in block)) for block in ((0, 1, 4), (0, 2, 7)) for i in range(13)})


def projective_space_3_2() -> list[tuple[int, ...]]:
    """PG(3,2): points 1..15 as nonzero vectors of GF(2)^4, lines {a, b, a^b}."""
    return sorted({tuple(sorted((a, b, a ^ b))) for a in range(1, 16) for b in range(a + 1, 16)})


class Certify(Workload):
    """Groups: (a) packings on 19-25 points, (b) the fixed corpus,
    (c) criterion 4's part-rainbow instance and its factors, (d) a hard tail
    of packings on 31-41 points under a fixed node budget."""

    name = "certify"
    PACKINGS = 77
    TAIL = 16
    TAIL_BUDGET = 40_000
    REFERENCE_BUDGET = 2_000_000

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        budget = coloring.DEFAULT_BUDGET
        cases: list[tuple[str, object, int, str]] = []  # label, input, budget, group
        for i in range(self.PACKINGS):
            n = 19 + i % 7
            edges = linear_packing(n, child_seed(seed, f"packing:{i}"))
            cases.append((f"packing{n}", core.Hypergraph(range(n), edges), budget, "a"))
        corpus = {
            "AG(2,3)": (range(9), affine_plane_3()),
            "STS(13)": (range(13), cyclic_sts_13()),
            "PG(3,2)": (range(1, 16), projective_space_3_2()),
        }
        for label, (vertices, edges) in corpus.items():
            cases.append((label, core.Hypergraph(vertices, edges), budget, "b"))
        pr33 = construct.build_part_rainbow_forced(3, 3)
        cases.append(("pr(3,3)", pr33, budget, "c"))
        for parts in (4, 5, 6):
            factor, _ = construct.complete_partite_factor(pr33, parts)
            cases.append((f"pr(3,3)x{parts}", factor, budget, "c"))
        for i in range(self.TAIL):
            n = 31 + 2 * (i % 6)
            edges = linear_packing(n, child_seed(seed, f"tail:{i}"))
            cases.append((f"tail{n}", core.Hypergraph(range(n), edges), self.TAIL_BUDGET, "d"))
        # Mixed order, so that slow spells of a shared machine do not fall on
        # one group only.
        random.Random(child_seed(seed, "order")).shuffle(cases)
        self.cases = cases
        self.cache_path = os.path.join(root, CACHE_DIR, f"certify-{seed}.json")
        self._references: dict[str, str] | None = None

    def warm_up(self) -> None:
        coloring.find_good_coloring(core.Hypergraph(range(9), affine_plane_3()))

    def ops(self):
        def op(h, budget):
            if isinstance(h, core.PartiteHypergraph):
                return lambda: coloring.find_part_rainbow_bad(h, budget=budget)
            return lambda: coloring.find_good_coloring(h, budget=budget)

        return [(label, op(h, budget)) for label, h, budget, _ in self.cases]

    def record(self, index, output):
        assignment = output.coloring.assignment if output.coloring else None
        return {
            "status": output.status.value,
            "nodes": output.nodes,
            "coloring": digest(sorted(assignment.items())) if assignment else None,
        }

    def decided(self, record):
        return record["status"] != "budget_exceeded"

    def counts(self, records):
        corpus = [r["nodes"] for r, case in zip(records, self.cases) if case[3] in "bc"]
        return {
            "coloring.nodes": sum(r["nodes"] for r in records),
            "coloring.corpus_nodes": sum(corpus),
            "decided": sum(map(self.decided, records)),
        }

    def check(self, index, output, record):
        label, h, budget, _ = self.cases[index]
        status = output.status.value
        if status == "budget_exceeded":
            return None if output.nodes > budget else f"{label}: budget stop at {output.nodes} <= {budget} nodes"
        if isinstance(h, core.PartiteHypergraph):
            if status == "witness_found":
                ok = oracles.is_bad_part_rainbow(h.edges, h.parts, output.coloring.assignment)
                return None if ok else f"{label}: witness is not a part-rainbow coloring without rainbow edges"
            # Degree order needs more than 10^7 nodes here.  The reference is
            # the construction: pr(3,3) is part-rainbow-forced, and a part-
            # rainbow coloring of a factor restricts to one of each copy.
            return None
        if status == "witness_found":
            ok = oracles.is_good_coloring(h.vertices, h.edges, output.coloring.assignment)
            return None if ok else f"{label}: witness has a monochromatic or rainbow edge"
        reference = self.reference(h)
        if reference != "property_holds":
            return f"{label}: property_holds, but degree order gives {reference}"
        return None

    def reference(self, h) -> str:
        """Verdict under another search order, cached per seed."""
        key = digest((h.vertices, h.edge_index_tuples()))
        if self._references is None:
            try:
                with open(self.cache_path, encoding="utf-8") as fp:
                    self._references = json.load(fp)
            except (OSError, ValueError):
                self._references = {}
        if key not in self._references:
            verdict = coloring.find_good_coloring(
                h, budget=self.REFERENCE_BUDGET, order_strategy="degree"
            )
            self._references[key] = verdict.status.value
        return self._references[key]

    def close(self) -> None:
        if self._references is not None:
            os.makedirs(os.path.dirname(self.cache_path), exist_ok=True)
            with open(self.cache_path, "w", encoding="utf-8") as fp:
                json.dump(self._references, fp, sort_keys=True)


# ---------------------------------------------------------------------------
# pipeline: the README CLI chain, in-process
# ---------------------------------------------------------------------------


class Pipeline(Workload):
    name = "pipeline"

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        self.workdir = os.path.join(root, OUT_DIR, f"work-pipeline-{os.getpid()}")
        s = str(seed)
        # (argv, expected exit code, artifact the command writes, its check)
        self.commands = [
            # The default-seed pr(3,4) build is the largest desk-scale instance
            # (a 35,500-vertex factor); its size swings with the construction
            # seed, so the workload seed drives the random commands instead.
            (["construct", "pr", "--r", "3", "--g", "4", "-o", "pr34.json"], 0, "pr34.json", self._check_artifact),
            (["construct", "factor", "--input", "pr34.json", "--parts", "6", "-o", "factor.json"], 0, "factor.json", self._check_factor),
            (["girth", "factor.json", "--cap", "4", "--witness", "-o", "girth_factor.json"], 2, "girth_factor.json", self._check_girth_factor),
            (["girth", "pr34.json", "--cap", "8", "--witness", "-o", "girth_pr34.json"], 0, "girth_pr34.json", self._check_girth_pr34),
            (["convert", "factor.json", "--json", "-o", "factor_copy.json"], 0, "factor_copy.json", self._check_factor_copy),
            (["convert", "factor.json", "--dot", "-o", "factor.dot"], 0, "factor.dot", self._check_factor_dot),
            (["construct", "pr", "--r", "3", "--g", "3", "-o", "pr33.json"], 0, "pr33.json", self._check_artifact),
            (["solve", "part-rainbow", "pr33.json", "-o", "solve_pr33.json"], 1, "solve_pr33.json", self._check_solve_pr33),
            (["construct", "h", "--r", "3", "--g", "2", "-o", "h32.json"], 0, "h32.json", self._check_artifact),
            (["solve", "good", "h32.json", "-o", "solve_h32.json"], 1, "solve_h32.json", self._check_solve_h32),
            (["random", "carrier", "--n", "12", "--R", "5", "--g", "3", "--seed", s, "-o", "carrier.json"], 0, "carrier.json", self._check_carrier),
            (["random", "search", "--n", "8", "--r", "3", "--g", "2", "--seed", s, "-o", "found.json"], 1, "found.json", self._check_found),
            (["bound", "--r", "3", "--g", "3", "-o", "bound.json"], 0, "bound.json", self._check_bound),
        ]
        self._loaded: dict[str, object] = {}
        self._girths: dict[str, int | None] = {}

    def _run(self, argv):
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            return cli.run(argv)
        finally:
            os.chdir(cwd)

    def start_pass(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def warm_up(self) -> None:
        self.start_pass()
        self._run(["construct", "h", "--r", "3", "--g", "2", "-o", "warm-up.json"])
        self._run(["bound", "--r", "3", "--g", "3", "-o", "warm-up-bound.json"])

    def ops(self):
        return [(" ".join(argv[:2]), lambda argv=argv: self._run(argv)) for argv, *_ in self.commands]

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _text(self, name: str) -> str:
        with open(self._path(name), encoding="utf-8") as fp:
            return fp.read()

    def record(self, index, output):
        path = self._path(self.commands[index][2])
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fp:
                data = fp.read()
        return {"code": output, "bytes": len(data), "sha": hashlib.sha256(data).hexdigest()[:16]}

    def decided(self, record):
        return record["code"] in (cli.EXIT_WITNESS, cli.EXIT_HOLDS)

    def counts(self, records):
        return {"artifact_bytes": sum(r["bytes"] for r in records)}

    def check(self, index, output, record):
        argv, expected, artifact, checker = self.commands[index]
        label = " ".join(argv)
        if output != expected:
            return f"{label}: exit {output}, expected {expected}"
        problem = checker(artifact)
        return f"{label}: {problem}" if problem else None

    def _check_artifact(self, name: str) -> str | None:
        """A hypergraph document survives ``loads(dumps(x)) == x`` and is in
        canonical form."""
        text = self._text(name)
        x = self._load(name)
        again = formats.dumps(x, meta=formats.load_meta(text) or None)
        if formats.loads(again) != x:
            return "loads(dumps(x)) != x"
        if again != text:
            return "artifact is not canonical"
        return None

    def _load(self, name: str):
        """An artifact as the program loads it, parsed once per run."""
        if name not in self._loaded:
            self._loaded[name] = formats.loads(self._text(name))
        return self._loaded[name]

    def _hypergraph(self, name: str):
        h = self._load(name)
        return h.base if isinstance(h, core.PartiteHypergraph) else h

    def _girth(self, name: str) -> int | None:
        """networkx girth of an artifact, computed once per run."""
        if name not in self._girths:
            h = self._hypergraph(name)
            self._girths[name] = oracles.berge_girth(h.vertices, h.edges)
        return self._girths[name]

    def _check_factor_copy(self, name):
        if self._text(name) != self._text("factor.json"):
            return "convert --json changed the document"
        return self._check_artifact(name)

    def _check_factor(self, name):
        """The factor is C(6,3) = 20 copies of pr(3,4) on consecutive vertex
        blocks, so its girth is pr(3,4)'s."""
        problem = self._check_artifact(name)
        if problem:
            return problem
        h, pr34 = self._hypergraph(name), self._hypergraph("pr34.json")
        size = pr34.num_vertices
        copy = [[pr34.index_of(v) for v in e] for e in pr34.edges]
        expected = {frozenset(k * size + i for i in e) for k in range(20) for e in copy}
        if list(h.vertices) != list(range(20 * size)) or set(h.edges) != expected:
            return "factor is not 20 copies of pr(3,4)"
        return None

    def _check_girth_factor(self, name):
        report = json.loads(self._text(name))
        expected = self._girth("pr34.json")  # the factor's, by _check_factor
        if report["girth"] != ">=5" or expected < 5:
            return f"reported {report['girth']}, networkx girth {expected}"
        return None

    def _check_girth_pr34(self, name):
        report = json.loads(self._text(name))
        expected = self._girth("pr34.json")
        if report["girth"] != str(expected):
            return f"reported {report['girth']}, networkx girth {expected}"
        witness = report["witness"]
        if not oracles.is_cycle(self._hypergraph("pr34.json").edges, witness["edges"], witness["vertices"]):
            return "witness is not a cycle of the hypergraph"
        return None

    def _check_factor_dot(self, name):
        h = self._hypergraph("factor.json")
        lines = self._text(name).count("\n")
        expected = 2 + h.num_vertices + h.num_edges + sum(len(e) for e in h.edges)
        return None if lines == expected else f"{lines} DOT lines, expected {expected}"

    def _check_solve_pr33(self, name):
        # pr(3,3) is part-rainbow-forced by construction (criterion 4).
        report = json.loads(self._text(name))
        return None if report["status"] == "property_holds" else f"status {report['status']}"

    def _check_solve_h32(self, name):
        report = json.loads(self._text(name))
        h = self._hypergraph("h32.json")
        reference = coloring.find_good_coloring(h, order_strategy="degree").status.value
        return None if report["status"] == reference == "property_holds" else f"status {report['status']}, reference {reference}"

    def _check_carrier(self, name):
        problem = self._check_artifact(name)
        if problem:
            return problem
        h = self._hypergraph(name)
        found = self._girth(name)
        if h.num_vertices != 12 or any(len(e) != 5 for e in h.edges):
            return "carrier is not 5-uniform on 12 vertices"
        return None if found is None or found >= 3 else f"carrier girth {found} < 3"

    def _check_found(self, name):
        problem = self._check_artifact(name)
        if problem:
            return problem
        h = self._hypergraph(name)
        reference = coloring.find_good_coloring(h, order_strategy="degree").status.value
        return None if reference == "property_holds" else f"degree order gives {reference}"

    def _check_bound(self, name):
        report = json.loads(self._text(name))
        n, r, g = report["threshold"], report["r"], report["g"]
        if not (oracles.counting_inequality(n, r, g) and not oracles.counting_inequality(n - 1, r, g)):
            return f"threshold {n} is not where the counting inequality starts to hold"
        return None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Carrier, Certify, Pipeline)}
