"""Canonical automaton file format (JSON, format_version 1).

Amplitudes are stored as [re, im] pairs printed with repr, which round-trips
doubles exactly.  Dense matrices are nested row lists; structured operators
are tagged objects.  A QFA file may specify only some rows of a matrix
(a {"rows": {state: row}} object); missing rows are completed canonically at
load time and the completion is written back on save, so save-then-load is
an exact round trip.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
    make_qfa,
)

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    pass


def _require(doc: dict, kind: str, keys):
    missing = [k for k in keys if k not in doc]
    if missing:
        raise FileFormatError(f"{kind} file is missing {', '.join(map(repr, missing))}")


def _mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} must be an object, got {obj!r}")
    return obj


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise FileFormatError(f"{key} must be a list, got {value!r}")
    return value


def _state_index(doc: dict) -> dict:
    states = doc["states"]
    if not isinstance(states, list) or not all(isinstance(name, str) for name in states):
        raise FileFormatError("states must be a list of names")
    return {name: i for i, name in enumerate(states)}


def _lookup(index: dict, name, what: str) -> int:
    if isinstance(name, str) and name in index:
        return index[name]
    raise FileFormatError(f"{what} names undeclared state {name!r}")


def _amp_out(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _amp_in(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise FileFormatError(f"amplitude must be a [re, im] pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _vector_out(v: np.ndarray):
    return [_amp_out(z) for z in v]


def _vector_in(items) -> np.ndarray:
    return np.array([_amp_in(x) for x in items], dtype=complex)


def _matrix_out(m: np.ndarray):
    return [[_amp_out(z) for z in row] for row in m]


def _operator_out(op):
    if isinstance(op, np.ndarray):
        return _matrix_out(op)
    if isinstance(op, linalg.IdentityOp):
        return {"op": "identity", "dim": op.dim}
    if isinstance(op, linalg.TensorPowerOp):
        return {"op": "tensor-power", "base": _matrix_out(op.base), "copies": op.copies}
    if isinstance(op, linalg.PermutationOp):
        return {"op": "permutation", "dest": op.dest.tolist()}
    if isinstance(op, linalg.BlockDiagOp):
        return {"op": "block-diag", "blocks": [_operator_out(b) for b in op.blocks]}
    if isinstance(op, linalg.ComposedOp):
        return {"op": "composed", "factors": [_operator_out(f) for f in op.factors]}
    if isinstance(op, linalg.PlaneRotationOp):
        return {"op": "plane-rotation", "axis": op.axis, "target": _vector_out(op.target)}
    raise FileFormatError(f"cannot serialize operator of type {type(op).__name__}")


def _operator_in(obj, state_index=None):
    if isinstance(obj, list):
        return np.array([[_amp_in(z) for z in row] for row in obj], dtype=complex)
    if not isinstance(obj, dict):
        raise FileFormatError(f"bad operator spec: {obj!r}")
    if "rows" in obj and "op" not in obj:
        if state_index is None:
            raise FileFormatError("partial rows are only allowed inside a qfa file")
        rows = _mapping(obj["rows"], "rows")
        for name in rows:
            _lookup(state_index, name, "a partial row")
        return {name: _vector_in(row) for name, row in rows.items()}
    kind = obj.get("op")
    if kind == "identity":
        return linalg.IdentityOp(obj["dim"])
    if kind == "tensor-power":
        return linalg.TensorPowerOp(_operator_in(obj["base"]), obj["copies"])
    if kind == "permutation":
        return linalg.PermutationOp(obj["dest"])
    if kind == "block-diag":
        return linalg.BlockDiagOp([_operator_in(b) for b in obj["blocks"]])
    if kind == "composed":
        return linalg.ComposedOp([_operator_in(f) for f in obj["factors"]])
    if kind == "plane-rotation":
        return linalg.PlaneRotationOp(obj["axis"], _vector_in(obj["target"]))
    raise FileFormatError(f"unknown operator kind {kind!r}")


def qfa_to_dict(q: QuantumAutomaton) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "qfa",
        "states": list(q.states),
        "alphabet": list(q.alphabet),
        "accepting": sorted(q.states[i] for i in q.accepting),
        "rejecting": sorted(q.states[i] for i in q.rejecting),
        "initial": _vector_out(q.initial),
        "unitaries": {sym: _operator_out(op) for sym, op in sorted(q.unitaries.items())},
    }


def qfa_from_dict(doc: dict) -> QuantumAutomaton:
    _require(doc, "qfa", ("states", "alphabet", "accepting", "rejecting", "initial", "unitaries"))
    index = _state_index(doc)
    return make_qfa(
        states=doc["states"],
        alphabet=_list(doc, "alphabet"),
        accepting=[_lookup(index, s, "accepting") for s in _list(doc, "accepting")],
        rejecting=[_lookup(index, s, "rejecting") for s in _list(doc, "rejecting")],
        initial=_vector_in(_list(doc, "initial")),
        partial_unitaries={
            sym: _operator_in(spec, state_index=index)
            for sym, spec in _mapping(doc["unitaries"], "unitaries").items()
        },
    )


def classical_to_dict(c: ClassicalAutomaton) -> dict:
    flag = c.halting_mode == HALT_ON_ENTER
    transitions = {}
    for (s, a), t in sorted(c.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        transitions.setdefault(c.states[s], {})[a] = c.states[t]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "rfa" if flag else "dfa",
        "states": list(c.states),
        "alphabet": list(c.alphabet),
        "start": c.states[c.start],
        "accepting": sorted(c.states[i] for i in c.accepting),
        "rejecting": sorted(c.states[i] for i in c.rejecting),
        "halting_mode": c.halting_mode,
        "transitions": transitions,
    }


def classical_from_dict(doc: dict) -> ClassicalAutomaton:
    kind = doc.get("kind", "dfa")
    _require(doc, kind, ("states", "alphabet", "start", "accepting", "transitions"))
    index = _state_index(doc)
    transitions = {}
    for src, row in _mapping(doc["transitions"], "transitions").items():
        s = _lookup(index, src, "a transition")
        for sym, dst in _mapping(row, f"transitions of {src!r}").items():
            transitions[(s, sym)] = _lookup(index, dst, "a transition")
    mode = doc.get("halting_mode", END_OF_WORD)
    if mode not in (END_OF_WORD, HALT_ON_ENTER):
        raise FileFormatError(f"unknown halting mode {mode!r}")
    return ClassicalAutomaton(
        states=tuple(doc["states"]),
        alphabet=tuple(_list(doc, "alphabet")),
        start=_lookup(index, doc["start"], "start"),
        accepting=frozenset(_lookup(index, s, "accepting") for s in _list(doc, "accepting")),
        rejecting=frozenset(_lookup(index, s, "rejecting") for s in _list(doc, "rejecting")),
        transitions=transitions,
        halting_mode=mode,
    )


def prfa_to_dict(p: ProbabilisticAutomaton) -> dict:
    transitions = {}
    for (s, a), edges in sorted(p.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        transitions.setdefault(p.states[s], {})[a] = [
            [p.states[t], float(prob)] for t, prob in edges
        ]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "prfa",
        "states": list(p.states),
        "alphabet": list(p.alphabet),
        "initial_distribution": [[p.states[s], float(prob)] for s, prob in p.initial_distribution],
        "accepting": sorted(p.states[i] for i in p.accepting),
        "rejecting": sorted(p.states[i] for i in p.rejecting),
        "transitions": transitions,
    }


def prfa_from_dict(doc: dict) -> ProbabilisticAutomaton:
    _require(
        doc, "prfa", ("states", "alphabet", "initial_distribution", "accepting", "transitions")
    )
    index = _state_index(doc)
    transitions = {}
    for src, row in _mapping(doc["transitions"], "transitions").items():
        s = _lookup(index, src, "a transition")
        for sym, edges in _mapping(row, f"transitions of {src!r}").items():
            transitions[(s, sym)] = _weighted(index, edges, "a transition")
    return ProbabilisticAutomaton(
        states=tuple(doc["states"]),
        alphabet=tuple(_list(doc, "alphabet")),
        initial_distribution=tuple(
            _weighted(index, _list(doc, "initial_distribution"), "initial_distribution")
        ),
        accepting=frozenset(_lookup(index, s, "accepting") for s in _list(doc, "accepting")),
        rejecting=frozenset(_lookup(index, s, "rejecting") for s in _list(doc, "rejecting")),
        transitions=transitions,
    )


def _weighted(index: dict, pairs, what: str) -> list:
    out = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(f"{what} entry must be a [state, probability] pair, got {pair!r}")
        out.append((_lookup(index, pair[0], what), float(pair[1])))
    return out


def automaton_to_dict(auto) -> dict:
    if isinstance(auto, QuantumAutomaton):
        return qfa_to_dict(auto)
    if isinstance(auto, ClassicalAutomaton):
        return classical_to_dict(auto)
    if isinstance(auto, ProbabilisticAutomaton):
        return prfa_to_dict(auto)
    raise FileFormatError(f"cannot serialize {type(auto).__name__}")


def automaton_from_dict(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FileFormatError("not an automaton file (missing kind)")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format_version {version!r}")
    kind = doc["kind"]
    if kind == "qfa":
        return qfa_from_dict(doc)
    if kind in ("dfa", "rfa"):
        return classical_from_dict(doc)
    if kind == "prfa":
        return prfa_from_dict(doc)
    raise FileFormatError(f"unknown automaton kind {kind!r}")


def save(auto, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(automaton_to_dict(auto), fh, indent=1)
        fh.write("\n")


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON: {exc}") from exc
    return automaton_from_dict(doc)
