"""Mutated documents get a report or a one-line rejection, never a traceback.

Each valid input of the snapshot cases (tests/cli_snapshots/cases.json, the
calls that read a document and exit 0 or 1) is mutated at one node of its
JSON tree: a key is dropped; a value becomes a float, a bool, a negative or
an out-of-range value; an entry of a list or an object is repeated (an
object key as itself or as an alias the readers might collapse: "2,1" for
"1,2", "02" for "2"); or a list loses its last entry.  ``main`` runs
in-process on the mutated document with the case's options, and must either
exit 0 or 1 with a JSON report on stdout, or exit 2 with nothing on stdout
and exactly one line on stderr.  Any exception fails the test, an
AssertionError raised in the package included, so no input reaches the
``assert`` statements there.
"""

import contextlib
import copy
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from difflie.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "cli_snapshots")
with open(os.path.join(HERE, "cases.json")) as fh:
    CASES = [c for c in json.load(fh) if c["exit"] != 2
             and any(a.endswith(".json") for a in c["argv"])]

KINDS = ("drop", "float", "bool", "negative", "out-of-range", "repeat",
         "shorten")


class Pairs(list):
    """A JSON object as (key, value) pairs, so that a key may repeat."""


def _dump(node):
    if isinstance(node, Pairs):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), _dump(v))
                                  for k, v in node)
    if isinstance(node, dict):
        return _dump(Pairs(node.items()))
    if isinstance(node, list):
        return "[%s]" % ", ".join(_dump(v) for v in node)
    return json.dumps(node)


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _mutations(doc):
    """Every (path, kind) that applies to the document."""
    out = []
    for path, node in _nodes(doc):
        kinds = ["float", "bool", "negative", "out-of-range"]
        if path and isinstance(_get(doc, path[:-1]), dict):
            kinds.append("drop")
        if isinstance(node, (list, dict)) and node:
            kinds.append("repeat")
        if isinstance(node, list) and node:
            kinds.append("shorten")
        out.extend((path, k) for k in kinds)
    return out


def _get(doc, path):
    for p in path:
        doc = doc[p]
    return doc


def _alias(key):
    if "," in key:
        return ",".join(reversed(key.split(",")))
    return "0" + key if key.isdigit() else key


def _replacement(node, kind):
    """A float, a bool, a negative or an out-of-range value for node."""
    if kind == "bool":
        return True
    if isinstance(node, str):  # every string in a document is a scalar
        if kind == "float":
            return float(Fraction(node))
        if kind == "negative":
            return node[1:] if node.startswith("-") else "-" + node
        return "1/0"
    if isinstance(node, int):
        return {"float": float(node), "negative": -node - 1,
                "out-of-range": node + 1}[kind]
    return {"float": 1.5, "negative": -1, "out-of-range": "x"}[kind]


def mutate(doc, path, kind, pick):
    """The document mutated at path; pick chooses the repeated entry."""
    doc = copy.deepcopy(doc)
    node = _get(doc, path)
    if kind == "drop":
        del _get(doc, path[:-1])[path[-1]]
        return doc
    if kind == "shorten":
        node.pop()
        return doc
    if kind == "repeat":
        if isinstance(node, list):
            k = pick % len(node)
            node.insert(k, copy.deepcopy(node[k]))
            return doc
        key = list(node)[pick % len(node)]
        new = Pairs(node.items())
        new.append((_alias(key), copy.deepcopy(node[key])))
    else:
        new = _replacement(node, kind)
    if not path:
        return new
    _get(doc, path[:-1])[path[-1]] = new
    return doc


def _document(case):
    name = next(a for a in case["argv"] if a.endswith(".json"))
    with open(os.path.join(HERE, "inputs", name)) as fh:
        return name, json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
@given(data=st.data())
def test_mutated_document_is_reported_or_rejected(case, data,
                                                  tmp_path_factory):
    name, doc = _document(case)
    path, kind = data.draw(st.sampled_from(_mutations(doc)))
    mutated = mutate(doc, path, kind, data.draw(st.integers(0, 7)))
    target = tmp_path_factory.getbasetemp() / ("mutated-" + name)
    target.write_text(_dump(mutated))
    argv = [str(target) if a == name else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, err
    else:
        assert code in (0, 1)
        assert isinstance(json.loads(out), dict) and err == ""


def test_mutations_cover_every_kind():
    kinds = set()
    for case in CASES:
        kinds |= {k for _, k in _mutations(_document(case)[1])}
    assert kinds == set(KINDS)


def test_repeated_key_survives_serialization():
    doc = {"coeffs": {"1,2": ["1"]}}
    text = _dump(mutate(doc, ("coeffs",), "repeat", 0))
    assert text == '{"coeffs": {"1,2": ["1"], "2,1": ["1"]}}'
    text = _dump(mutate({"mu": {"x": 1}}, ("mu",), "repeat", 0))
    assert text.count('"x"') == 2
