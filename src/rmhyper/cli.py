"""Command-line entry point.

Subcommands cover construction, girth computation, coloring searches, random
generation, the counting bound and format conversion.  ``construct`` and
``random`` take their kind as a subcommand that accepts exactly its own
options, so an option of another kind is a usage error.  Exit codes follow
the three-valued verdicts so shell pipelines can branch on them:

* 0 - witness found / operation succeeded
* 1 - property holds (search exhausted) / girth infinite
* 2 - budget or cap exceeded
* 3 - bad input (unreadable inputs, unwritable outputs, formats, arguments)
* 4 - size limit refusal / supplier failure
* 5 - unexpected internal error (a crash is never reported as a verdict)

Artifacts embed the full parameters under "meta", so rerunning the recorded
command reproduces the file byte for byte.  Relative output paths are
resolved against $RMHYPER_OUTPUT_DIR when it is set.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import comb
from typing import Any, Callable, Sequence, TypeVar

from . import __version__
from .coloring import (
    DEFAULT_BUDGET,
    VerdictStatus,
    find_good_coloring,
    find_part_rainbow_bad,
)
from .core import Hypergraph, PartiteHypergraph
from .construct import (
    BuildLimits,
    SizeEstimate,
    SizeLimitError,
    SupplierError,
    _refuse_beyond,
    build_part_rainbow_forced,
    build_rm_unavoidable,
    complete_partite_factor,
)
from .formats import FormatError, _loads_with_meta, dumps, loads, to_dot
from .girth import girth
from .randgen import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_TRIES,
    counting_threshold,
    random_high_girth,
    random_search_unavoidable,
)

EXIT_WITNESS = 0
EXIT_HOLDS = 1
EXIT_BUDGET = 2
EXIT_BAD_INPUT = 3
EXIT_LIMIT = 4
EXIT_ERROR = 5

_VERDICT_EXIT = {
    VerdictStatus.WITNESS_FOUND: EXIT_WITNESS,
    VerdictStatus.PROPERTY_HOLDS: EXIT_HOLDS,
    VerdictStatus.BUDGET_EXCEEDED: EXIT_BUDGET,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # subcommands share the class, so none reads "--r" as "--require-target"
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):  # argparse would exit(2), which means budget
        raise CliError(message)


OUTPUT_DIR_ENV = "RMHYPER_OUTPUT_DIR"
_T = TypeVar("_T")


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(h: Hypergraph, meta: dict[str, Any], out: str | None) -> None:
    _write_text(dumps(h, meta=meta), out)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fp:
            return fp.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}")


def _load(path: str, parse: Callable[[str], _T]) -> _T:
    """The file at ``path`` through ``parse``; a format error is bad input."""
    try:
        return parse(_read_text(path))
    except FormatError as exc:
        raise CliError(f"{path}: {exc}")


def _cmd_construct(args: argparse.Namespace) -> int:
    limits = BuildLimits(max_vertices=args.max_vertices, max_edges=args.max_edges)
    meta: dict[str, Any] = {
        "command": f"construct {args.kind}",
        "max_vertices": args.max_vertices,
        "max_edges": args.max_edges,
    }
    if args.kind == "pr":
        meta.update({"r": args.r, "g": args.g})
        _emit(build_part_rainbow_forced(args.r, args.g, limits), meta, args.output)
    elif args.kind == "h":
        meta.update({"r": args.r, "g": args.g})
        result, trace = build_rm_unavoidable(args.r, args.g, limits)
        meta["trace"] = trace.to_dict()
        _emit(result, meta, args.output)
    else:  # factor
        loaded = _load(args.input, loads)
        if not isinstance(loaded, PartiteHypergraph):
            raise CliError(f"{args.input}: factor needs a partite hypergraph (with 'parts')")
        meta.update({"parts": args.parts, "input": args.input})
        # the totals of C(a, r) copies, without the per-part sums that cost O(a)
        copies = comb(args.parts, loaded.num_parts) if args.parts >= loaded.num_parts else 0
        predicted = SizeEstimate(copies * loaded.num_vertices, copies * loaded.num_edges, False)
        _refuse_beyond(predicted, f"complete partite factor with {args.parts} parts", limits)
        factor, _ = complete_partite_factor(loaded, args.parts)
        _emit(factor, meta, args.output)
    return EXIT_WITNESS


def _cmd_girth(args: argparse.Namespace) -> int:
    h = _load(args.file, loads)
    result = girth(h, cap=args.cap)
    report: dict[str, Any] = {"girth": str(result.girth), "cap": args.cap}
    if args.witness and result.witness is not None:
        order = {v: i for i, v in enumerate(h.vertices)}
        report["witness"] = {
            "edges": [sorted(e, key=order.__getitem__) for e in result.witness.edges],
            "vertices": list(result.witness.vertices),
        }
    _write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    if result.girth.kind == "finite":
        return EXIT_WITNESS
    if result.girth.kind == "infinite":
        return EXIT_HOLDS
    return EXIT_BUDGET


def _cmd_solve(args: argparse.Namespace) -> int:
    loaded = _load(args.file, loads)
    if args.kind == "good":
        verdict = find_good_coloring(loaded, budget=args.budget)
    else:
        if not isinstance(loaded, PartiteHypergraph):
            raise CliError(f"{args.file}: part-rainbow search needs a partite hypergraph")
        verdict = find_part_rainbow_bad(loaded, budget=args.budget)
    report: dict[str, Any] = {
        "status": verdict.status.value,
        "nodes": verdict.nodes,
        "budget": args.budget,
    }
    if verdict.coloring is not None:
        report["coloring"] = {str(v): c for v, c in verdict.coloring.assignment.items()}
    _write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    return _VERDICT_EXIT[verdict.status]


def _cmd_carrier(args: argparse.Namespace) -> int:
    sample = random_high_girth(args.n, args.R, args.g, args.seed)
    meta = {
        "command": "random carrier",
        "n": args.n,
        "R": args.R,
        "g": args.g,
        "seed": args.seed,
        "edge_target": sample.edge_target,
        "edges_kept": sample.edges_kept,
        "target_met": sample.target_met,
        "edges_deleted": sample.edges_deleted,
    }
    _emit(sample.hypergraph, meta, args.output)
    if args.require_target and not sample.target_met:
        return EXIT_BUDGET
    return EXIT_WITNESS


def _cmd_search(args: argparse.Namespace) -> int:
    outcome = random_search_unavoidable(
        args.n, args.r, args.g, args.seed, tries=args.tries, budget=args.budget
    )
    meta = {
        "command": "random search",
        "n": args.n,
        "r": args.r,
        "g": args.g,
        "seed": args.seed,
        "tries": args.tries,
        "budget": args.budget,
        "found": outcome.found,
        "try_index": outcome.try_index,
        "solver_nodes": outcome.verdict.nodes,
    }
    _emit(outcome.hypergraph, meta, args.output)
    if outcome.found:
        return EXIT_HOLDS  # the instance's unavoidability property holds
    if outcome.verdict.status is VerdictStatus.BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_WITNESS


def _cmd_bound(args: argparse.Namespace) -> int:
    try:
        result = counting_threshold(args.r, args.g)
    except ArithmeticError as exc:  # no threshold found or decided for these inputs
        raise CliError(str(exc))
    report = {
        "r": args.r,
        "g": args.g,
        "a": result.a,
        "threshold": result.n,
        "lhs": result.lhs,
        "rhs": result.rhs,
    }
    _write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", args.output)
    return EXIT_WITNESS


def _cmd_convert(args: argparse.Namespace) -> int:
    h, meta = _load(args.file, _loads_with_meta)
    out = dumps(h, meta=meta or None) if args.format == "json" else to_dot(h)
    _write_text(out, args.output)
    return EXIT_WITNESS


def _command(sub, name: str, func, summary: str | None = None) -> argparse.ArgumentParser:
    """A leaf subcommand that runs ``func`` and writes to ``-o`` (default stdout)."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rmhyper", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rmhyper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a construction and write JSON")
    kinds = p_construct.add_subparsers(dest="kind", required=True)
    limits = BuildLimits()
    for kind in ("pr", "h", "factor"):
        p = _command(kinds, kind, _cmd_construct)
        if kind == "factor":
            p.add_argument("--input", required=True, help="partite hypergraph JSON")
            p.add_argument("--parts", type=int, required=True, help="part count a")
        else:
            p.add_argument("--r", type=int, required=True, help="uniformity")
            p.add_argument("--g", type=int, required=True, help="girth target")
        p.add_argument("--max-vertices", type=int, default=limits.max_vertices)
        p.add_argument("--max-edges", type=int, default=limits.max_edges)

    p_girth = _command(sub, "girth", _cmd_girth, "exact girth up to a cap")
    p_girth.add_argument("file")
    p_girth.add_argument("--cap", type=int, default=8)
    p_girth.add_argument("--witness", action="store_true")

    p_solve = _command(sub, "solve", _cmd_solve, "coloring searches")
    p_solve.add_argument("kind", choices=["good", "part-rainbow"])
    p_solve.add_argument("file")
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_random = sub.add_parser("random", help="randomized generation")
    kinds = p_random.add_subparsers(dest="kind", required=True)
    carrier = _command(kinds, "carrier", _cmd_carrier, "high-girth carrier by cycle deletion")
    search = _command(kinds, "search", _cmd_search, "search for a certified unavoidable instance")
    for p, uniformity in ((carrier, "--R"), (search, "--r")):
        p.add_argument("--n", type=int, required=True)
        p.add_argument(uniformity, type=int, required=True, help="uniformity")
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
    carrier.add_argument("--require-target", action="store_true")
    search.add_argument("--tries", type=int, default=DEFAULT_TRIES)
    search.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    p_bound = _command(sub, "bound", _cmd_bound, "counting-inequality threshold")
    p_bound.add_argument("--r", type=int, required=True)
    p_bound.add_argument("--g", type=int, required=True)

    p_convert = _command(sub, "convert", _cmd_convert, "canonical JSON or DOT")
    p_convert.add_argument("file")
    fmt = p_convert.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--dot", dest="format", action="store_const", const="dot")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        code, message = exc.code, f"error: {exc}"
    except SizeLimitError as exc:
        est = exc.estimate
        size = "astronomical" if est.astronomical else f"{est.vertices} vertices / {est.edges} edges"
        code, message = EXIT_LIMIT, f"refused: {exc} [estimate: {size}]"
    except SupplierError as exc:
        code, message = EXIT_LIMIT, f"error: {exc}"
    except ValueError as exc:  # HypergraphError, FormatError and bad parameters
        code, message = EXIT_BAD_INPUT, f"error: {exc}"
    except Exception as exc:  # any other exit code would read as a verdict
        code, message = EXIT_ERROR, f"error: unexpected {type(exc).__name__}: {exc}"
    print(message, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
