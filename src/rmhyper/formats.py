"""JSON and DOT serialisation.

JSON schema: ``{"vertices": [...], "edges": [[...], ...], "parts": [[...], ...]?}``
with an optional ``"meta"`` object that loaders preserve but ignore.  One id
rule holds for loaders and writers alike (:func:`_check_vertex_ids`): vertex
ids are strings or integers (not booleans), and no two ids may have the same
text form, such as ``1`` and ``"1"``, because reports and DOT output name
vertices by that text.  A writer given other ids raises :class:`FormatError`
instead of writing a document the loader would refuse.  The loader also
refuses an edge or part that is not a JSON array or has a member of another
type than a vertex id; one that lists a vertex twice is refused by the
:mod:`core` constructors, whose message the loader passes on.

Dumps are canonical.  The document lists the vertices in order, each edge
and part in canonical vertex order, and the edges sorted lexicographically by
vertex position; ``parts`` appears for a partite hypergraph and ``meta`` when
given.  Its text is what ``json.dumps(doc, sort_keys=True, indent=2)`` writes,
plus a newline, so equal values serialise to identical bytes.  :func:`dumps`
writes that text itself rather than through the pure-Python encoder that
``json`` uses for indented output: one call of the C encoder, with a newline
as the item separator, encodes every vertex id (JSON text never holds a raw
newline, so splitting on newlines gives each id's encoded text), and the
``edges``, ``parts`` and ``vertices`` blocks are joined from those texts by
vertex position.  ``meta`` goes through ``json.dumps`` with the same
settings, two spaces deeper.  The loader re-runs full validation.  DOT export
renders the bipartite incidence graph (vertex nodes vs edge nodes) and is
one-way.
"""
from __future__ import annotations

import json
from itertools import chain
from typing import Any, Sequence

from .core import Hypergraph, HypergraphError, PartiteHypergraph, VertexId


class FormatError(ValueError):
    """Input file is not a valid hypergraph document."""


def _check_vertex_ids(ids: Sequence[VertexId]) -> None:
    """Raise :class:`FormatError` unless every id is a string or an integer
    (not a boolean) and no two ids have the same text form."""
    kinds = set(map(type, ids))
    if not kinds <= {str, int}:
        bad = next(v for v in ids if type(v) not in (str, int))
        raise FormatError(f"vertex id {bad!r} is not a string or an integer")
    if len(kinds) == 2:  # only an int and a string can share a text form
        texts = {str(v) for v in ids if type(v) is int}
        clash = next((v for v in ids if type(v) is str and v in texts), None)
        if clash is not None:
            raise FormatError(f"vertex ids {int(clash)!r} and {clash!r} have the same text form")


def _arrays(doc: dict[str, Any], key: str) -> list:
    """``doc[key]``, refused unless it is a list of JSON arrays whose members
    have a vertex id's type: looked up by ``==`` alone, 1.0 and true are 1."""
    items = doc[key]
    if not isinstance(items, list):
        raise FormatError(f"key {key!r} must be a list")
    if not set(map(type, items)) <= {list}:
        pos = next(i for i, x in enumerate(items) if type(x) is not list)
        raise FormatError(f"{key[:-1]} #{pos} is not a JSON array")
    if not set(map(type, chain.from_iterable(items))) <= {str, int}:
        pos, bad = next((i, v) for i, x in enumerate(items) for v in x if type(v) not in (str, int))
        raise FormatError(f"{key[:-1]} #{pos} member {bad!r} is not a string or an integer")
    return items


def from_json_dict(doc: dict[str, Any]) -> Hypergraph:
    if not isinstance(doc, dict):
        raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise FormatError(f"missing required key {key!r}")
    if not isinstance(doc["vertices"], list):
        raise FormatError("key 'vertices' must be a list")
    edges = _arrays(doc, "edges")
    _check_vertex_ids(doc["vertices"])
    try:
        h = Hypergraph(doc["vertices"], edges)
        if "parts" not in doc:
            return h
        return PartiteHypergraph(h, _arrays(doc, "parts"))
    except HypergraphError as exc:
        raise FormatError(str(exc)) from exc
    except TypeError as exc:
        raise FormatError(f"malformed document: {exc}") from exc


def _array(items: list[str], depth: int) -> str:
    """An indent-2 JSON array of encoded ``items`` whose opening bracket
    sits at nesting ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def dumps(h: Hypergraph, meta: dict[str, Any] | None = None) -> str:
    """The canonical document of ``h``, byte for byte what
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` writes for it."""
    vs = h.vertices
    _check_vertex_ids(vs)
    texts = json.dumps(vs, separators=("\n", ":"))[1:-1].split("\n") if vs else []
    # _array inlined for the edges, which are never empty: a call per edge
    # would cost a third of the whole dump
    member = ",\n      "
    edges = [
        "[\n      " + member.join([texts[i] for i in key]) + "\n    ]"
        for key in h.edge_index_tuples()
    ]
    fields = ['"edges": ' + _array(edges, 1)]
    if meta is not None:
        fields.append('"meta": ' + json.dumps(meta, sort_keys=True, indent=2).replace("\n", "\n  "))
    if isinstance(h, PartiteHypergraph):
        text_of = dict(zip(vs, texts))
        parts = [_array([text_of[v] for v in p], 2) for p in h.parts]
        fields.append('"parts": ' + _array(parts, 1))
    fields.append('"vertices": ' + _array(texts, 1))
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise FormatError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:  # an integer past the digit limit of int()
        raise FormatError("invalid JSON: an integer has too many digits") from None


def _meta_of(doc: Any) -> dict[str, Any]:
    meta = doc.get("meta", {}) if isinstance(doc, dict) else {}
    return meta if isinstance(meta, dict) else {}


def _loads_with_meta(text: str) -> tuple[Hypergraph, dict[str, Any]]:
    """:func:`loads` and :func:`load_meta` of ``text`` from one parse."""
    doc = _decode(text)
    return from_json_dict(doc), _meta_of(doc)


def loads(text: str) -> Hypergraph:
    return from_json_dict(_decode(text))


def load_meta(text: str) -> dict[str, Any]:
    """The preserved ``meta`` object of a document, if any."""
    return _meta_of(_decode(text))


def _dot_id(prefix: str, value: Any) -> str:
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{prefix}:{text}"'


def to_dot(h: Hypergraph) -> str:
    """Bipartite incidence graph in DOT: round vertex nodes, boxed edge nodes."""
    vs = h.vertices
    _check_vertex_ids(vs)
    vnames = [_dot_id("v", v) for v in vs]
    enames = [_dot_id("e", pos) for pos in range(h.num_edges)]
    lines = ["graph incidence {"]
    lines += [f"  {name} [shape=circle];" for name in vnames]
    lines += [f"  {name} [shape=box];" for name in enames]
    heads = [f"  {name} -- " for name in vnames]
    for ename, key in zip(enames, h.edge_index_tuples()):
        tail = f"{ename};"
        lines += [heads[i] + tail for i in key]
    lines.append("}")
    return "\n".join(lines) + "\n"
