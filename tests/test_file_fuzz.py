"""File loading under derandomized fuzzing.

One built file of each kind gets one random mutation: a subtree replaced by
a wrong value, or a key or item deleted or added.  Every mutated file then
goes through the commands that read it.  No exception may escape
``cli.main``, and an exit 2 prints exactly one ``error:`` line.  Mutated dfa
and rfa files must also be read the same way by the table-filling reader
and by the per-entry reader it replaced.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from qfa import analysis, serialize
from qfa.cli import main
from qfa.constructions import block_dfa
from tests_support import assert_readers_agree

# (name, build arguments, a word over the alphabet)
KINDS = [
    ("blocks", ["blocks", "--m", "2"], "xy"),
    ("modp", ["modp", "--p", "3"], "aa"),
    ("equality", ["equality", "--n", "1", "--n-max", "2", "--epsilon", "0.9"], "a"),
    ("prfa-trio", ["prfa-trio"], "aa"),
]
VALUES = [None, True, False, 0, 1, -1, 10**30, float("nan"), "zz", "^", "$", [], {}, [0], {"zz": 0}]


@functools.lru_cache(maxsize=None)
def built_docs() -> dict:
    """The built files as parsed JSON, by name, with the RFA of blocks as "blocks-rfa"."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, _ in KINDS:
            path = os.path.join(tmp, f"{name}.json")
            assert quiet_main(["build"] + argv + ["-o", path])[0] == 0
            with open(path, encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        rfa = os.path.join(tmp, "rfa.json")
        serialize.save(analysis.reversibilize(analysis.minimize_dfa(block_dfa(2))), rfa)
        with open(rfa, encoding="utf-8") as fh:
            docs["blocks-rfa"] = json.load(fh)
    return docs


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def nodes(doc):
    """Every (parent, key) of ``doc`` below the root, grouped by depth."""
    levels, level = [], [(None, None, doc)]
    while level:
        level = [
            (node, key, node[key])
            for _, _, node in level
            if isinstance(node, (dict, list))
            for key in (list(node) if isinstance(node, dict) else range(len(node)))
        ]
        if level:
            levels.append([(parent, key) for parent, key, _ in level])
    return levels


@st.composite
def mutated(draw, doc):
    """A deep copy of ``doc`` with one mutation, at a depth drawn uniformly
    and then at a node drawn uniformly among those at that depth (the root
    counting as depth 0)."""
    doc = json.loads(json.dumps(doc))
    levels = nodes(doc)
    depth = draw(st.integers(0, len(levels)))
    parent, key = draw(st.sampled_from(levels[depth - 1])) if depth else (None, None)
    node = doc if parent is None else parent[key]
    values = VALUES + doc["states"][:2]
    op = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
    if op == "add" and isinstance(node, (dict, list)):
        value = draw(st.sampled_from(values))
        if isinstance(node, dict):
            node[draw(st.sampled_from(["zz", "^", "$", "a", "x"] + list(node)[:1]))] = value
        else:
            node.append(value)
    elif op == "delete" and parent is not None:
        del parent[key]
    elif parent is None:
        return draw(st.sampled_from(values))
    else:
        parent[key] = draw(st.sampled_from(values))
    return doc


def commands(path: str, word: str, classical: bool):
    yield ["run", path, word]
    yield ["analyze", path]
    yield ["dist", path, word, ""]
    if classical:
        yield ["equiv", path, path]


@pytest.mark.parametrize("name, word", [(k[0], k[2]) for k in KINDS] + [("blocks-rfa", "xy")])
@settings(
    derandomize=True, database=None, deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_files_exit_cleanly(name, word, data):
    doc = data.draw(mutated(built_docs()[name]))
    classical = name.startswith("blocks")
    if classical and isinstance(doc, dict) and doc.get("kind") in ("dfa", "rfa"):
        if doc.get("format_version") == serialize.FORMAT_VERSION:
            assert_readers_agree(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in commands(path, word, classical):
            code, err = quiet_main(argv)  # an exception escaping main fails the test here
            assert code in (0, 1, 2, 3), (argv, code)
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
