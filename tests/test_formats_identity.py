"""The JSON and DOT writers give, byte for byte, the text of the reference
writers in ``oracles.py``: the canonical document through the pure-Python
indenting encoder, and the DOT export that names a vertex per incidence."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import dumps_reference, to_dot_reference  # noqa: E402
from rmhyper.core import Hypergraph, PartiteHypergraph  # noqa: E402
from rmhyper.formats import dumps, loads, to_dot  # noqa: E402

# Reproducible runs that leave no example database behind.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

AWKWARD_IDS = [
    'say "hi"',
    "back\\slash",
    "\x00\x07\x1b\x1f\x7f",
    "line\nbreak\r",
    "tab\tstop",
    "ünïcødé ✓ 𝔘  ",
    "[,]",
    ": ",
    "",
    " ",
    0,
    -1,
    -(10**40),
    10**40,
]
vertex_ids = st.one_of(st.sampled_from(AWKWARD_IDS), st.integers(), st.text(max_size=6))
short_text = st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | short_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(short_text, inner, max_size=3),
    max_leaves=8,
)
metas = st.none() | st.dictionaries(short_text, json_values, max_size=4)


@st.composite
def documents(draw):
    """A hypergraph or partite hypergraph on awkward ids, possibly with no
    vertices, no edges or empty parts."""
    ids = draw(st.lists(vertex_ids, max_size=8, unique=True))
    int_texts = {str(v) for v in ids if type(v) is int}
    ids = [v for v in ids if type(v) is int or v not in int_texts]
    n = len(ids)
    parts = draw(st.integers(0, 4))
    part_of = draw(st.lists(st.integers(0, max(parts - 1, 0)), min_size=n, max_size=n))
    edges = set()
    if n >= 2:
        edge = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=min(4, n))
        edges = draw(st.sets(edge, max_size=10))
    if parts:
        edges = {e for e in edges if len({part_of[i] for i in e}) == len(e)}
    h = Hypergraph(ids, [[ids[i] for i in e] for e in edges])
    if not parts:
        return h
    return PartiteHypergraph(h, [[v for v, p in zip(ids, part_of) if p == q] for q in range(parts)])


@PROPERTY_SETTINGS
@given(documents(), metas)
def test_writers_match_the_reference_writers(h, meta):
    text = dumps(h, meta)
    assert text == dumps_reference(h, meta)
    assert loads(text) == h
    assert to_dot(h) == to_dot_reference(h)


NESTED_META = {"z": [], "a": {"b": [1.5, None, {}, [], -0.0, 1e300], "c": {}}, "n": None}


@pytest.mark.parametrize(
    "h, meta",
    [
        (Hypergraph([], []), None),
        (Hypergraph([], []), {}),
        (Hypergraph(AWKWARD_IDS, []), NESTED_META),
        (Hypergraph(AWKWARD_IDS, [AWKWARD_IDS[:3], AWKWARD_IDS[2:]]), NESTED_META),
        (PartiteHypergraph(Hypergraph([], []), [[], []]), {"e": {}}),
        (
            PartiteHypergraph(
                Hypergraph(AWKWARD_IDS, [AWKWARD_IDS[:2], AWKWARD_IDS[-2:]]),
                [AWKWARD_IDS[1::2], [], AWKWARD_IDS[::2]],
            ),
            None,
        ),
    ],
)
def test_edge_cases_match_the_reference_writers(h, meta):
    assert dumps(h, meta) == dumps_reference(h, meta)
    assert to_dot(h) == to_dot_reference(h)
