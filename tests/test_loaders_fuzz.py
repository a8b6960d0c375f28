"""Fuzzed input to every JSON loader and to the CLI verbs that read files.

A loader either returns its structure or raises a ChainmailError; the
CLI turns every input into an exit status in {0, 1, 2, 3} and never
prints a traceback.  Documents are kept small: most have the right keys
with values drawn near the valid ranges, the rest are arbitrary JSON.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from chainmail import sources
from chainmail.category import PosetMap, map_from_json_dict
from chainmail.cli import main
from chainmail.errors import ChainmailError
from chainmail.poset import Poset, from_json_dict

FUZZ = settings(max_examples=60, deadline=None)


def mostly(good, bad):
    """``good`` nine times in ten, ``bad`` otherwise."""
    return st.integers(0, 9).flatmap(lambda k: good if k else bad)


scalars = (st.none() | st.booleans() | st.integers(-2, 5)
           | st.floats(-8, 8)
           | st.sampled_from([float("inf"), float("nan"), 1e300])
           | st.sampled_from(["a", "b", "c", "0", "1", ""]))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["a", "b", "0"]), inner,
                                     max_size=3)),
    max_leaves=10)
names = mostly(st.sampled_from(["a", "b", "c", "d"]), scalars)
members = st.lists(mostly(st.integers(0, 3), scalars), max_size=3)


def _shaped(**fields):
    return mostly(st.fixed_dictionaries(
        {key: mostly(field, values) for key, field in fields.items()}),
        values)


poset_docs = _shaped(
    elements=st.lists(names, max_size=4, unique=True),
    covers=st.lists(st.lists(names, min_size=2, max_size=2), max_size=4))
map_docs = _shaped(
    source=poset_docs, target=poset_docs,
    table=st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), names,
                          max_size=4),
    role=st.sampled_from(["monotone", "chainmail-morphism",
                          "connectivity-hom"]))
counts = mostly(st.integers(-1, 6), scalars)
families = st.lists(members, max_size=6)
graph_docs = _shaped(vertices=counts, edges=st.lists(
    st.lists(mostly(st.integers(0, 3), scalars), min_size=2, max_size=2),
    max_size=5))
hypergraph_docs = _shaped(vertices=counts, hyperedges=families)
topology_docs = _shaped(points=counts, opens=families)
connspace_docs = _shaped(points=counts, connected=families)

LOADERS = (
    (from_json_dict, poset_docs, Poset),
    (map_from_json_dict, map_docs, PosetMap),
    (sources.graph_from_json_dict, graph_docs, sources.Graph),
    (sources.hypergraph_from_json_dict, hypergraph_docs, sources.Hypergraph),
    (sources.topology_from_json_dict, topology_docs, sources.FiniteTopology),
    (sources.connectivity_space_from_json_dict, connspace_docs,
     sources.ConnectivitySpace),
)


@FUZZ
@given(st.data())
def test_loaders_return_a_structure_or_a_chainmail_error(data):
    for load, docs, kind in LOADERS:
        doc = data.draw(docs)
        try:
            result = load(doc)
        except ChainmailError:
            continue
        assert isinstance(result, kind)


def _run(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [path])
    return code, out.getvalue() + err.getvalue()


@FUZZ
@given(poset_docs)
def test_check_exit_codes(doc):
    code, text = _run(["check"], doc)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in text


@FUZZ
@given(st.sampled_from([("graph", graph_docs),
                        ("hypergraph", hypergraph_docs),
                        ("topology", topology_docs),
                        ("connspace", connspace_docs)]), st.data())
def test_build_exit_codes(kind_docs, data):
    kind, docs = kind_docs
    code, text = _run(["build", kind], data.draw(docs))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in text
