"""Span tracing of the rmhyper layers, installed from outside the package.

Every public function defined in a layer module, and ``Hypergraph.__init__``,
is replaced by a wrapper that records a span ``[name, start, end, parent,
op]`` in memory while recording is on.  Modules import each other's names
directly (``from .girth import girth``), so every module attribute that holds
a wrapped function is replaced, not only the defining one.  Wrappers also
read a few counts off the values the layers return (solver nodes, deleted
edges, bytes serialised).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("core", "girth", "coloring", "construct", "randgen", "formats", "cli")
HYPERGRAPH_SPAN = "core.Hypergraph"
SOLVERS = ("coloring.find_good_coloring", "coloring.find_part_rainbow_bad")
WRITERS = ("formats.dumps", "formats.dump", "formats.to_dot", "formats.to_json_dict")
READERS = (
    "formats.loads",
    "formats.load",
    "formats.load_path",
    "formats.load_meta",
    "formats.from_json_dict",
)


def _observe_build(counts, args, result):
    counts["core.edges_built"] += args[0].num_edges


def _observe_girth(counts, args, result):
    counts["girth.finite"] += result.girth.is_finite


def _observe_solver(counts, args, result):
    counts["coloring.nodes"] += result.nodes
    counts[f"coloring.{result.status.value}"] += 1


def _observe_carrier(counts, args, result):
    counts["randgen.samples_used"] += result.samples_used
    counts["randgen.edges_deleted"] += result.edges_deleted


def _observe_text(counts, args, result):
    counts["formats.bytes_out"] += len(result.encode("utf-8"))


OBSERVERS = {
    HYPERGRAPH_SPAN: _observe_build,
    "girth.girth": _observe_girth,
    "coloring.find_good_coloring": _observe_solver,
    "coloring.find_part_rainbow_bad": _observe_solver,
    "randgen.random_high_girth": _observe_carrier,
    "formats.dumps": _observe_text,
    "formats.to_dot": _observe_text,
}


class Tracer:
    """Wrappers plus the spans and counts of the traced passes.

    ``spans`` holds one list per pass; a span's parent is the index of the
    enclosing span in the same list, or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list[list]] = []
        self.counts: list[Counter] = []
        self.op = -1
        self._stack: list[int] = []
        self._recording = False
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            spans = self.spans[-1]
            index = len(spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op]
            spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts[-1], args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"rmhyper.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
        package = importlib.import_module("rmhyper")
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        hypergraph = modules["core"].Hypergraph
        self._restore.append((hypergraph, "__init__", hypergraph.__init__))
        hypergraph.__init__ = self._wrap(HYPERGRAPH_SPAN, hypergraph.__init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def start_pass(self) -> None:
        self.spans.append([])
        self.counts.append(Counter())
        self._recording = True

    def stop_pass(self) -> None:
        self._recording = False
        self.op = -1

    def layers(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over the traced passes, and the counts that did
        not repeat exactly; times are the median over passes."""
        per_pass = [layer_metrics(s, c) for s, c in zip(self.spans, self.counts)]
        merged, mismatches = {}, []
        for name, first in per_pass[0].items():
            values = [m[name] for m in per_pass]
            if isinstance(first, int):
                if len(set(values)) != 1:
                    mismatches.append(f"{name} differs between traced passes: {values}")
                merged[name] = first
            else:
                merged[name] = statistics.median(values)
        return merged, mismatches

    def write(self, path: str) -> None:
        """Write every span as one JSON line: pass, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fp:
            for number, spans in enumerate(self.spans):
                for name, start, end, parent, op in spans:
                    fp.write(json.dumps([number, name, start, end, parent, op]) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    A layer's ``self_s`` is the time its spans do not spend in child spans.
    A layer is entered when one of its spans has a parent in another layer
    (or none), and ``calls`` counts entries.  The time of a group of
    functions sums the spans in the group whose parent is outside it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    entries: Counter = Counter()
    by_name: Counter = Counter()
    girth_from_randgen = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        layer = layer_of(name)
        self_s[layer] += end - start - child_time[index]
        by_name[name] += 1
        parent_layer = layer_of(spans[parent][0]) if parent >= 0 else None
        if parent_layer != layer:
            entries[layer] += 1
            girth_from_randgen += layer == "girth" and parent_layer == "randgen"

    def group_s(*names: str) -> float:
        return sum((
            end - start
            for name, start, end, parent, _ in spans
            if name in names and (parent < 0 or spans[parent][0] not in names)
        ), 0.0)

    solver_s = group_s(*SOLVERS)
    girth_calls = by_name["girth.girth"]
    deleted = counts["randgen.edges_deleted"]
    return {
        "core.builds": by_name[HYPERGRAPH_SPAN],
        "core.edges_built": counts["core.edges_built"],
        "core.self_s": self_s["core"],
        "girth.calls": entries["girth"],
        "girth.self_s": self_s["girth"],
        "girth.finite_ratio": counts["girth.finite"] / girth_calls if girth_calls else 0.0,
        "coloring.calls": entries["coloring"],
        "coloring.self_s": self_s["coloring"],
        "coloring.nodes": counts["coloring.nodes"],
        "coloring.nodes_per_s": counts["coloring.nodes"] / solver_s if solver_s else 0.0,
        "coloring.holds": counts["coloring.property_holds"],
        "coloring.witness": counts["coloring.witness_found"],
        "coloring.budget_exceeded": counts["coloring.budget_exceeded"],
        "randgen.carriers": by_name["randgen.random_high_girth"],
        "randgen.self_s": self_s["randgen"],
        "randgen.samples_used": counts["randgen.samples_used"],
        "randgen.edges_deleted": deleted,
        "randgen.girth_calls_per_deletion": girth_from_randgen / deleted if deleted else 0.0,
        "construct.self_s": self_s["construct"],
        "construct.supply_s": group_s("construct.supply_min_degree_girth"),
        "construct.amalgamate_s": group_s("construct.amalgamate"),
        "construct.factor_s": group_s("construct.complete_partite_factor"),
        "formats.dumps_s": group_s(*WRITERS),
        "formats.load_s": group_s(*READERS),
        "formats.bytes_out": counts["formats.bytes_out"],
        "cli.commands": by_name["cli.run"],
        "cli.self_s": self_s["cli"],
    }
