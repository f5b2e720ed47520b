"""JSON and DOT serialisation.

JSON schema: ``{"vertices": [...], "edges": [[...], ...], "parts": [[...], ...]?}``
with an optional ``"meta"`` object that loaders preserve but ignore.  Vertex
ids are strings or integers (not booleans), and no two ids may have the same
text form, such as ``1`` and ``"1"``: reports and DOT output name vertices by
that text.  Dumps are canonical: keys sorted, each edge and part listed in
canonical vertex order, edges sorted lexicographically by vertex position, so
equal values serialise to identical bytes.  The loader re-runs full
validation.  DOT export renders the bipartite incidence graph
(vertex nodes vs edge nodes) and is one-way.
"""
from __future__ import annotations

import json
from typing import Any, TextIO

from .core import Hypergraph, HypergraphError, PartiteHypergraph


class FormatError(ValueError):
    """Input file is not a valid hypergraph document."""


def to_json_dict(
    h: Hypergraph | PartiteHypergraph, meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    base = h.base if isinstance(h, PartiteHypergraph) else h
    vs = base.vertices
    doc: dict[str, Any] = {
        "vertices": list(vs),
        "edges": [[vs[i] for i in key] for key in base.edge_index_tuples()],
    }
    if isinstance(h, PartiteHypergraph):
        doc["parts"] = [list(p) for p in h.parts]
    if meta is not None:
        doc["meta"] = meta
    return doc


def from_json_dict(doc: dict[str, Any]) -> Hypergraph | PartiteHypergraph:
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise FormatError(f"missing required key {key!r}")
        if not isinstance(doc[key], list):
            raise FormatError(f"key {key!r} must be a list")
    ids = doc["vertices"]
    kinds = set(map(type, ids))
    if not kinds <= {str, int}:
        bad = next(v for v in ids if type(v) not in (str, int))
        raise FormatError(f"vertex id {bad!r} is not a string or an integer")
    if len(kinds) == 2:  # only an int and a string can share a text form
        texts = {str(v) for v in ids if type(v) is int}
        clash = next((v for v in ids if type(v) is str and v in texts), None)
        if clash is not None:
            raise FormatError(f"vertex ids {int(clash)!r} and {clash!r} have the same text form")
    try:
        h = Hypergraph(doc["vertices"], doc["edges"])
        if "parts" in doc:
            if not isinstance(doc["parts"], list):
                raise FormatError("key 'parts' must be a list")
            return PartiteHypergraph(h, doc["parts"])
        return h
    except HypergraphError as exc:
        raise FormatError(str(exc)) from exc
    except TypeError as exc:
        raise FormatError(f"malformed document: {exc}") from exc


def dumps(h: Hypergraph | PartiteHypergraph, meta: dict[str, Any] | None = None) -> str:
    return json.dumps(to_json_dict(h, meta), sort_keys=True, indent=2) + "\n"


def dump(
    h: Hypergraph | PartiteHypergraph, fp: TextIO, meta: dict[str, Any] | None = None
) -> None:
    fp.write(dumps(h, meta))


def loads(text: str) -> Hypergraph | PartiteHypergraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return from_json_dict(doc)


def load(fp: TextIO) -> Hypergraph | PartiteHypergraph:
    return loads(fp.read())


def load_path(path: str) -> Hypergraph | PartiteHypergraph:
    with open(path, "r", encoding="utf-8") as fp:
        return load(fp)


def load_meta(text: str) -> dict[str, Any]:
    """The preserved ``meta`` object of a document, if any."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    meta = doc.get("meta", {}) if isinstance(doc, dict) else {}
    return meta if isinstance(meta, dict) else {}


def _dot_id(prefix: str, value: Any) -> str:
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{prefix}:{text}"'


def to_dot(h: Hypergraph | PartiteHypergraph) -> str:
    """Bipartite incidence graph in DOT: round vertex nodes, boxed edge nodes."""
    base = h.base if isinstance(h, PartiteHypergraph) else h
    vs = base.vertices
    lines = ["graph incidence {"]
    for v in vs:
        lines.append(f"  {_dot_id('v', v)} [shape=circle];")
    for pos in range(base.num_edges):
        lines.append(f"  {_dot_id('e', pos)} [shape=box];")
    for pos, key in enumerate(base.edge_index_tuples()):
        for i in key:
            lines.append(f"  {_dot_id('v', vs[i])} -- {_dot_id('e', pos)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
