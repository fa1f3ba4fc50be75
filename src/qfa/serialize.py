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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import linalg
from .automata import (
    END_OF_WORD,
    HALT_ON_ENTER,
    LEFT_END,
    RIGHT_END,
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
    _check_alphabet,
    make_qfa,
)

FORMAT_VERSION = 1
# list items or transition rows per piece of text the classical writer makes
_PIECE_ITEMS = 4096


class FileFormatError(ValueError):
    pass


def _require(doc: dict, what: str, keys):
    missing = [k for k in keys if k not in doc]
    if missing:
        raise FileFormatError(f"{what} is missing {', '.join(map(repr, missing))}")


def _mapping(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} must be an object, got {obj!r}")
    return obj


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise FileFormatError(f"{key} must be a list, got {value!r}")
    return value


def _alphabet(doc: dict) -> list:
    alphabet = _list(doc, "alphabet")
    if not all(isinstance(a, str) for a in alphabet):
        raise FileFormatError(f"alphabet must hold strings, got {alphabet!r}")
    return alphabet


def _number(value, what: str) -> float:
    """A real-valued field as a float: a JSON int or float, never a boolean.
    NaN passes, so that validation reports it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise FileFormatError(f"{what} is out of range") from None


def _field(doc: dict, key: str, json_type: type):
    """A required field of an operator spec, of type ``json_type``."""
    _require(doc, f"{doc['op']} operator", (key,))
    value = doc[key]
    # a JSON true loads as a Python bool, which is also an int
    if not isinstance(value, json_type) or (json_type is int and isinstance(value, bool)):
        noun = "an integer" if json_type is int else "a list"
        raise FileFormatError(f"{key} must be {noun}, got {value!r}")
    return value


def _state_index(doc: dict) -> dict:
    states = doc["states"]
    if not isinstance(states, list) or not all(map(isinstance, states, repeat(str))):
        raise FileFormatError("states must be a list of names")
    index = dict(zip(states, range(len(states))))
    if len(index) != len(states):
        repeated = {name for i, name in enumerate(states) if index[name] != i}
        raise FileFormatError(f"duplicate state names {sorted(repeated)}")
    return index


def _lookup(index: dict, name, what: str) -> int:
    if isinstance(name, str) and name in index:
        return index[name]
    raise FileFormatError(f"{what} names undeclared state {name!r}")


def _lookups(index: dict, names, what: str) -> frozenset:
    """``_lookup`` of every name in a list, as a set."""
    try:
        return frozenset(map(index.__getitem__, names))
    except (KeyError, TypeError):  # word the error for the first bad name
        return frozenset(_lookup(index, name, what) for name in names)


def _check_indices(n_states: int, what: str, *groups):
    """Refuse, before a file is opened, an index in ``groups`` that names none
    of ``n_states`` states: a negative one would save as a state counted
    from the end."""
    indices = list(chain(*groups))
    if indices and not (0 <= min(indices) and max(indices) < n_states):
        raise FileFormatError(f"cannot save: {what} index names no state")


def _amp_out(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _amp_in(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise FileFormatError(f"amplitude must be a [re, im] pair, got {pair!r}")
    return complex(_number(pair[0], "amplitude part"), _number(pair[1], "amplitude part"))


def _vector_out(v: np.ndarray):
    return [_amp_out(z) for z in v]


def _vector_in(items, what: str) -> np.ndarray:
    if not isinstance(items, list):
        raise FileFormatError(f"{what} must be a list, got {items!r}")
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
        return np.array([_vector_in(row, "a matrix row") for row in obj], dtype=complex)
    if not isinstance(obj, dict):
        raise FileFormatError(f"bad operator spec: {obj!r}")
    if "rows" in obj and "op" not in obj:
        if state_index is None:
            raise FileFormatError("partial rows are only allowed inside a qfa file")
        rows = _mapping(obj["rows"], "rows")
        for name in rows:
            _lookup(state_index, name, "a partial row")
        return {name: _vector_in(row, f"partial row {name!r}") for name, row in rows.items()}
    kind = obj.get("op")
    if kind == "identity":
        return linalg.IdentityOp(_field(obj, "dim", int))
    if kind == "tensor-power":
        base = _operator_in(_field(obj, "base", list))
        return linalg.TensorPowerOp(base, _field(obj, "copies", int))
    if kind == "permutation":
        return linalg.PermutationOp(_field(obj, "dest", list))
    if kind == "block-diag":
        return linalg.BlockDiagOp([_operator_in(b) for b in _field(obj, "blocks", list)])
    if kind == "composed":
        return linalg.ComposedOp([_operator_in(f) for f in _field(obj, "factors", list)])
    if kind == "plane-rotation":
        target = _vector_in(_field(obj, "target", object), "target")
        return linalg.PlaneRotationOp(_field(obj, "axis", int), target)
    raise FileFormatError(f"unknown operator kind {kind!r}")


def qfa_to_dict(q: QuantumAutomaton) -> dict:
    _check_indices(len(q.states), "an accepting or rejecting", q.accepting, q.rejecting)
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
    _require(doc, "qfa file", ("states", "alphabet", "accepting", "rejecting", "initial", "unitaries"))
    index = _state_index(doc)
    return make_qfa(
        states=doc["states"],
        alphabet=_alphabet(doc),
        accepting=[_lookup(index, s, "accepting") for s in _list(doc, "accepting")],
        rejecting=[_lookup(index, s, "rejecting") for s in _list(doc, "rejecting")],
        initial=_vector_in(doc["initial"], "initial"),
        partial_unitaries={
            sym: _operator_in(spec, state_index=index)
            for sym, spec in _mapping(doc["unitaries"], "unitaries").items()
        },
    )


def _json_array(items: list):
    """Pieces of a JSON array of encoded strings, one level deep at indent 1."""
    if not items:
        yield "[]"
        return
    for lo in range(0, len(items), _PIECE_ITEMS):
        yield ("[\n  " if lo == 0 else ",\n  ") + ",\n  ".join(items[lo:lo + _PIECE_ITEMS])
    yield "\n ]"


def _json_rows(table: np.ndarray, names: np.ndarray, keys: list):
    """Pieces of the "transitions" object, one level deep at indent 1.

    ``names`` is an object array of encoded state names and ``keys[k]`` the
    text before the target of column k.  A row without transitions is left
    out.  Each block of rows is concatenated column by column.
    """
    opened = False
    for lo in range(0, len(table), _PIECE_ITEMS):
        block = table[lo:lo + _PIECE_ITEMS]
        present = block >= 0
        rows = np.flatnonzero(present.any(axis=1))
        if not len(rows):
            continue
        block, present = block[rows], present[rows]
        later = np.cumsum(present, axis=1) > present  # an entry comes before it in its row
        text = ",\n  " + names[lo + rows] + ": {"
        for k, key in enumerate(keys):
            entry = np.where(later[:, k], ",", "") + (key + names[block[:, k]])
            text = np.where(present[:, k], text + entry, text)
        piece = "".join((text + "\n  }").tolist())
        yield piece if opened else "{" + piece[1:]
        opened = True
    yield "\n }" if opened else "{}"


def _classical_text(c: ClassicalAutomaton):
    """The text of a dfa or rfa file as ``json.dump`` writes it at indent 1,
    in pieces made from ``c.table``.

    Each name is encoded once.  Rows hold their symbols in sorted order, and
    a state without transitions has no row.  Refuses, before any text is
    made, what a file cannot hold or the reader would refuse: names or
    symbols that are not strings, repeated state names, a start, accepting
    or rejecting index that is not a state, and a table that is not of
    shape ``(n_states, len(symbols))`` or holds an entry that is neither -1
    nor a state.
    """
    symbols, table = c.symbols, c.table
    if not all(isinstance(x, str) for x in chain(c.states, symbols)):
        raise FileFormatError("cannot save: state names and symbols must be strings")
    if len(set(c.states)) != c.n_states:
        raise FileFormatError("cannot save: duplicate state names")
    _check_indices(c.n_states, "a start, accepting or rejecting", (c.start,), c.accepting, c.rejecting)
    fits = table.shape == (c.n_states, len(symbols))
    if not (fits and -1 <= table.min(initial=-1) and table.max(initial=-1) < c.n_states):
        raise FileFormatError("cannot save: a transition names no state or symbol of the automaton")
    names = list(map(encode_basestring_ascii, c.states))
    order = sorted(range(len(symbols)), key=symbols.__getitem__)
    keys = [f"\n   {encode_basestring_ascii(symbols[k])}: " for k in order]
    kind = "rfa" if c.halting_mode == HALT_ON_ENTER else "dfa"

    def sorted_names(group):
        return list(map(encode_basestring_ascii, sorted(c.states[i] for i in group)))

    def pieces():
        yield f'{{\n "format_version": {FORMAT_VERSION},\n "kind": "{kind}",\n "states": '
        yield from _json_array(names)
        yield ',\n "alphabet": '
        yield from _json_array([encode_basestring_ascii(a) for a in c.alphabet])
        yield f',\n "start": {names[c.start]},\n "accepting": '
        yield from _json_array(sorted_names(c.accepting))
        yield ',\n "rejecting": '
        yield from _json_array(sorted_names(c.rejecting))
        yield f',\n "halting_mode": {encode_basestring_ascii(c.halting_mode)},\n "transitions": '
        yield from _json_rows(table[:, order], np.array(names, dtype=object), keys)
        yield "\n}"

    return pieces()


def _transition_table(doc: dict, index: dict, rows: dict, mode):
    """``rows`` as the table of a dfa or rfa file, or None when a row, name,
    symbol, the alphabet or the mode is not one it can hold; the per-entry
    reader then words the error."""
    alphabet = doc["alphabet"]
    if mode not in (END_OF_WORD, HALT_ON_ENTER) or not isinstance(alphabet, list):
        return None
    symbols = alphabet + [LEFT_END, RIGHT_END] if mode == HALT_ON_ENTER else alphabet
    values = rows.values()
    if not all(map(isinstance, symbols, repeat(str))) or not all(map(isinstance, values, repeat(dict))):
        return None
    column = {a: k for k, a in enumerate(symbols)}
    sizes = np.fromiter(map(len, values), np.int64, len(rows))
    count = int(sizes.sum())
    sources = np.fromiter(map(index.get, rows, repeat(-1)), np.int64, len(rows))
    columns = np.fromiter(map(column.get, chain.from_iterable(values), repeat(-1)), np.int64, count)
    try:  # a target that is a list or an object cannot be looked up
        targets = chain.from_iterable(map(dict.values, values))
        targets = np.fromiter(map(index.get, targets, repeat(-1)), np.int64, count)
    except TypeError:
        return None
    if min(sources.min(initial=0), columns.min(initial=0), targets.min(initial=0)) < 0:
        return None
    table = np.full((len(index), len(symbols)), -1, dtype=np.int32)
    table[np.repeat(sources, sizes), columns] = targets
    return table


def classical_from_dict(doc: dict) -> ClassicalAutomaton:
    """Read a dfa or rfa file.  The table is filled from the rows in one
    pass.  Only a file that the fill refuses is read entry by entry, to word
    the error; a transition on a symbol the automaton does not have is
    refused after every other check."""
    kind = doc.get("kind", "dfa")
    _require(doc, f"{kind} file", ("states", "alphabet", "start", "accepting", "transitions"))
    index = _state_index(doc)
    rows = _mapping(doc["transitions"], "transitions")
    mode = doc.get("halting_mode", END_OF_WORD)
    table = _transition_table(doc, index, rows, mode)
    if table is None:
        entries = []
        for src, row in rows.items():
            _lookup(index, src, "a transition")
            for sym, dst in _mapping(row, f"transitions of {src!r}").items():
                _lookup(index, dst, "a transition")
                entries.append((src, sym))
    if mode not in (END_OF_WORD, HALT_ON_ENTER):
        raise FileFormatError(f"unknown halting mode {mode!r}")
    fields = dict(
        states=tuple(doc["states"]),
        alphabet=tuple(_alphabet(doc)),
        start=_lookup(index, doc["start"], "start"),
        accepting=_lookups(index, _list(doc, "accepting"), "accepting"),
        rejecting=_lookups(index, _list(doc, "rejecting"), "rejecting"),
        halting_mode=mode,
    )
    if table is None:  # the names and the mode passed, so the fill refused a symbol
        _check_alphabet(fields["alphabet"])  # the constructor's check comes first
        symbols = fields["alphabet"] + ((LEFT_END, RIGHT_END) if mode == HALT_ON_ENTER else ())
        src, sym = next(entry for entry in entries if entry[1] not in symbols)
        raise FileFormatError(f"transition from {src} on {sym!r}: not a symbol of the automaton")
    return ClassicalAutomaton(table=table, **fields)


def prfa_to_dict(p: ProbabilisticAutomaton) -> dict:
    _check_indices(
        p.n_states,
        "an accepting, rejecting, initial or transition",
        p.accepting,
        p.rejecting,
        (s for s, _ in p.initial_distribution),
        (s for s, _ in p.transitions),
        (t for edges in p.transitions.values() for t, _ in edges),
    )
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
        doc, "prfa file", ("states", "alphabet", "initial_distribution", "accepting", "transitions")
    )
    index = _state_index(doc)
    transitions = {}
    for src, row in _mapping(doc["transitions"], "transitions").items():
        s = _lookup(index, src, "a transition")
        for sym, edges in _mapping(row, f"transitions of {src!r}").items():
            transitions[(s, sym)] = _weighted(index, edges, "a transition")
    return ProbabilisticAutomaton(
        states=tuple(doc["states"]),
        alphabet=tuple(_alphabet(doc)),
        initial_distribution=tuple(
            _weighted(index, _list(doc, "initial_distribution"), "initial_distribution")
        ),
        accepting=frozenset(_lookup(index, s, "accepting") for s in _list(doc, "accepting")),
        rejecting=frozenset(_lookup(index, s, "rejecting") for s in _list(doc, "rejecting")),
        transitions=transitions,
    )


def _weighted(index: dict, pairs, what: str) -> list:
    if not isinstance(pairs, list):
        raise FileFormatError(f"{what} must be a list of [state, probability] pairs, got {pairs!r}")
    out = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(f"{what} entry must be a [state, probability] pair, got {pair!r}")
        out.append((_lookup(index, pair[0], what), _number(pair[1], f"{what} probability")))
    return out


def automaton_to_dict(auto) -> dict:
    if isinstance(auto, QuantumAutomaton):
        return qfa_to_dict(auto)
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
    """Write an automaton file: its JSON object at indent 1, and a newline.

    A quantum or probabilistic automaton is written as
    ``json.dumps(automaton_to_dict(auto), indent=1)``, made in full first.  A
    classical one is written from its transition table by
    ``_classical_text``, a bounded number of pieces at a time.  Either way,
    an automaton that no file can hold is refused before the file is opened.
    """
    if isinstance(auto, ClassicalAutomaton):
        pieces = _classical_text(auto)
    else:
        pieces = [json.dumps(automaton_to_dict(auto), indent=1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"invalid JSON: {exc}") from exc
    return automaton_from_dict(doc)
