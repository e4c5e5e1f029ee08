"""Only a GkmError escapes, on corpus documents with one or two fields changed.

A mutation replaces or deletes one node of a document: the root, a key's
value, a list item or a leaf.  Through ``cli.main`` each command exits 0 or 1
and raises nothing; through the library, a graph that was never validated
meets the report, Thom classes and slice bases, and any failure is a
GkmError.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gkm.cli import main
from gkm.cohomology import basis, thom_class
from gkm.corpus import corpus, corpus_names
from gkm.errors import GkmError
from gkm.graph import orient
from gkm.jsonio import document_to_graph, graph_to_document
from gkm.lefschetz import hard_lefschetz_report

_DOCUMENTS = [graph_to_document(corpus(name).graph, corpus(name).xi) for name in corpus_names()]
_IDS = sorted({v["id"] for doc in _DOCUMENTS for v in doc["vertices"]})

_VALUES = st.one_of(
    st.integers(-3, 4),
    st.sampled_from(["0", "1", "-2", "1/2", "3/0", "1.5", "", "x", *_IDS]),
    st.booleans(),
    st.none(),
    st.floats(-2, 2, allow_nan=False),
    st.lists(st.sampled_from(["0", "1", "-1", "2/3"]), max_size=3),
    st.just({}),
)


def _paths(node, path=()):
    """The path of every node under ``node``, itself included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_VALUES)
    return doc


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_every_command_exits_0_or_1_on_a_mutated_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["validate", str(path)], ["report", str(path), "--json"],
                     ["render", str(path), "-o", str(Path(tmp, "doc.svg"))]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1), argv


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_only_gkm_errors_escape_from_an_unvalidated_graph(doc):
    try:
        graph, xi = document_to_graph(doc)
    except GkmError:
        return
    calls = [lambda d=d: basis(graph, d) for d in range(4)]
    if xi is not None:
        try:
            og = orient(graph, xi)
        except GkmError:
            og = None
        if og is not None:
            calls.append(lambda: hard_lefschetz_report(og))
            calls += [lambda v=v, s=s: thom_class(og, v, s)
                      for v in graph.vertex_ids() for s in ("plus", "minus")]
    for call in calls:
        try:
            call()
        except GkmError:
            pass
