"""File loading under derandomized fuzzing.

One built file of each kind gets one random mutation: a subtree replaced by
a wrong value, or a key or item deleted or added.  Every mutated file then
goes through the commands that read it.  No exception may escape
``cli.main``, and an exit 2 prints exactly one ``error:`` line.  Mutated dfa
and rfa files must also be read the same way by the table-filling reader
and by the per-entry reader it replaced.

A second pool draws well-formed operator trees and breaks one node of each:
a wrong shape or dimension, a tensor power with 0, 21 or a non-integer
number of copies, a permutation that is not one or holds floats, a plane
rotation whose axis is out of range or whose target is not a unit vector.
Every such file must exit 2 with one ``error:`` line.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from qfa import analysis, linalg, serialize
from qfa.automata import QuantumAutomaton
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


# states of the automaton whose operators the second pool breaks
TREE_DIM = 8
ONE, ZERO = [1.0, 0.0], [0.0, 0.0]


def unit_rows(dim, shift=0):
    """The rows of a cyclic shift matrix, as a file writes them."""
    return [[ONE if j == (i + shift) % dim else ZERO for j in range(dim)] for i in range(dim)]


@st.composite
def operator_tree(draw, dim, depth):
    """A well-formed operator spec of dimension ``dim``, nested up to ``depth``."""
    kinds = ["identity", "dense", "permutation"]
    kinds += ["plane-rotation"] if dim >= 2 else []
    kinds += ["tensor-power"] if dim in (2, 4, 8) else []
    kinds += ["block-diag", "composed"] * 2 if depth else []
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return {"op": "identity", "dim": dim}
    if kind == "dense":
        return unit_rows(dim, draw(st.integers(0, dim - 1)))
    if kind == "permutation":
        return {"op": "permutation", "dest": draw(st.permutations(range(dim)))}
    if kind == "plane-rotation":
        axis = draw(st.integers(0, dim - 1))
        return {"op": "plane-rotation", "axis": axis, "target": unit_rows(dim)[(axis + 1) % dim]}
    if kind == "tensor-power":
        return {"op": "tensor-power", "base": unit_rows(2, 1), "copies": dim.bit_length() - 1}
    if kind == "composed":
        count = draw(st.integers(1, 3))
        return {"op": "composed", "factors": [draw(operator_tree(dim, depth - 1)) for _ in range(count)]}
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, dim - sum(sizes))))
    return {"op": "block-diag", "blocks": [draw(operator_tree(size, depth - 1)) for size in sizes]}


def tree_nodes(spec):
    """Every operator spec in a tree, the root first."""
    yield spec
    for key in ("blocks", "factors"):
        for child in spec.get(key, []) if isinstance(spec, dict) else []:
            yield from tree_nodes(child)


def faults(node):
    """Ways to break one node, each as a function that edits it in place."""
    if isinstance(node, list):  # a dense matrix
        return [
            lambda m: m.pop(),  # one row short
            lambda m: m[0].pop(),  # a ragged row
            lambda m: [row.append(ZERO) for row in m],  # one column too many
            lambda m: m.append(list(m[0])),  # one row too many
        ]
    dim_faults = [lambda n: n.update(op="block-diag", blocks=[n.copy(), {"op": "identity", "dim": 1}])]
    kind = node["op"]
    if kind == "identity":
        return dim_faults + [lambda n: n.update(dim=n["dim"] + 1), lambda n: n.update(dim=1.5)]
    if kind == "tensor-power":
        return dim_faults + [
            lambda n: n.update(copies=0),
            lambda n: n.update(copies=21),
            lambda n: n.update(copies=1.5),
            lambda n: n.update(copies="2"),
            lambda n: n.update(base=unit_rows(3)),  # a power of 3 states
            lambda n: n["base"][0].append(ZERO),  # a base that is not square
        ]
    if kind == "permutation":
        return dim_faults + [
            lambda n: n["dest"].__setitem__(0, n["dest"][-1] if len(n["dest"]) > 1 else 1),
            lambda n: n.update(dest=[float(x) for x in n["dest"]]),
            lambda n: n["dest"].__setitem__(0, n["dest"][0] + 0.5),
            lambda n: n["dest"].append(len(n["dest"])),
        ]
    if kind == "plane-rotation":
        return dim_faults + [
            lambda n: n.update(axis=-1),
            lambda n: n.update(axis=len(n["target"])),
            lambda n: n.update(axis=0.5),
            lambda n: n.update(target=[[2.0, 0.0] if x == ONE else x for x in n["target"]]),
            lambda n: n["target"].__setitem__(n["axis"], ONE),  # not orthogonal to the axis
            lambda n: n["target"].append(ZERO),
        ]
    if kind == "block-diag":
        return dim_faults + [
            lambda n: n["blocks"].append({"op": "identity", "dim": 1}),
            lambda n: n["blocks"].pop(),
        ]
    return dim_faults + [  # composed
        lambda n: n.update(factors=[]),
        lambda n: n["factors"].append({"op": "identity", "dim": TREE_DIM + 1}),
    ]


@functools.lru_cache(maxsize=None)
def tree_base_doc() -> dict:
    """A QFA file of TREE_DIM states whose operators are all identities."""
    initial = [1.0] + [0.0] * (TREE_DIM - 1)
    q = QuantumAutomaton(
        states=tuple(f"s{i}" for i in range(TREE_DIM)),
        alphabet=("a",),
        accepting=frozenset({1, 4}),
        rejecting=frozenset({2, 7}),
        initial=linalg.as_state_vector(initial),
        unitaries={sym: linalg.IdentityOp(TREE_DIM) for sym in ("a", "^", "$")},
    )
    return serialize.qfa_to_dict(q)


@settings(
    derandomize=True, database=None, deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_broken_operator_trees_exit_2(data):
    tree = data.draw(operator_tree(TREE_DIM, 3))
    node = data.draw(st.sampled_from(list(tree_nodes(tree))))
    data.draw(st.sampled_from(faults(node)))(node)
    doc = json.loads(json.dumps(tree_base_doc()))
    doc["unitaries"][data.draw(st.sampled_from(["a", "^", "$"]))] = tree
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["run", path, "aa"],
            ["run", path, "", "--mode", "once"],
            ["run", path, "a", "--mode", "scans", "--scans", "2", "--trace"],
            ["dist", path, "a", "aa"],
            ["dist", path, "", "a", "--mode", "once"],
        ):
            code, err = quiet_main(argv)  # an exception escaping main fails the test here
            assert code == 2, (argv, tree, err)
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
