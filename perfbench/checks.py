"""Output checks computed apart from the program.

Every function here returns a list of problems; an empty list means the
output passed.  Nothing in this module imports ``qfa``: the checks use closed
forms, the automaton files' own transition tables, a regular expression for
the block language, and plain numpy forward passes.
"""

from __future__ import annotations

import re
from collections import deque

import numpy as np

MARGIN_TOL = 1e-9        # CLI margins against the closed form
CONSERVATION_TOL = 1e-12  # |p_acc + p_rej + p_non - 1|
CHAIN_TOL = 1e-9          # run_prfa against its square-root QFA
REPLAY_TOL = 1e-12        # the program's runners against this module's forward passes
UNITARY_TOL = 1e-9

# ---------------------------------------------------------------------------
# Composite counting automata: closed form of the acceptance probability
# ---------------------------------------------------------------------------


def closed_form_accept(p: int, d: int, coefficients, remainder: int, j: int) -> float:
    """p_acc(a^j) = (1/s) * sum_l cos^(2d)(2*pi*k_l*(j - r)/p)."""
    ks = np.asarray(coefficients, dtype=float)
    return float(np.mean(np.cos(2.0 * np.pi * ks * (j - remainder) / p) ** (2 * d)))


def equality_margins(n, epsilon, n_max, p, d, coefficients):
    """Margins `qfa verify equality` must print, in its check order."""
    r = n % p
    accept = 1e-9 - abs(closed_form_accept(p, d, coefficients, r, n) - 1.0)
    reject = min(
        (1.0 - closed_form_accept(p, d, coefficients, r, j)) - (1.0 - epsilon)
        for j in range(n_max + 1) if j != n
    )
    return [accept, reject]


def modp_margins(p, d, coefficients, reject_bound):
    """Margins `qfa verify modp` / `modp-amplified` must print, in check order."""
    reject = min(
        (1.0 - closed_form_accept(p, d, coefficients, 0, j)) - (reject_bound - 1e-9)
        for j in range(1, p)
    )
    accept = min(1e-9 - abs(closed_form_accept(p, d, coefficients, 0, j) - 1.0)
                 for j in (p, 2 * p))
    return [reject, accept]


def check_verify(payload: dict, expected_margins) -> list:
    """A `qfa verify --json` payload passes and matches the closed-form margins."""
    problems = []
    if payload.get("pass") is not True:
        problems.append(f"verify did not pass: {payload!r}")
    got = [c.get("margin") for c in payload.get("checks", [])]
    if len(got) != len(expected_margins):
        return problems + [f"expected {len(expected_margins)} checks, got {len(got)}"]
    for i, (g, e) in enumerate(zip(got, expected_margins)):
        if not isinstance(g, (int, float)) or not abs(g - e) <= MARGIN_TOL:
            problems.append(f"check {i}: margin {g!r} != closed form {e!r}")
    return problems


# ---------------------------------------------------------------------------
# DFA files and `qfa analyze` witnesses
# ---------------------------------------------------------------------------


def dfa_doc(n: int, alphabet, letters, accepting) -> dict:
    """Format-v1 DFA file for states s0..s{n-1}; letters[i][s] is the image of s."""
    names = [f"s{i}" for i in range(n)]
    return {
        "format_version": 1,
        "kind": "dfa",
        "states": names,
        "alphabet": list(alphabet),
        "start": names[0],
        "accepting": [names[i] for i in sorted(accepting)],
        "transitions": {
            names[s]: {a: names[f[s]] for a, f in zip(alphabet, letters)} for s in range(n)
        },
    }


def _walk(doc, state, word):
    for sym in word:
        state = doc["transitions"][state][sym]
    return state


def _reachable(doc, state):
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for t in doc["transitions"].get(s, {}).values():
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def _eligible(doc, state):
    """Neither every continuation accepted nor every one rejected."""
    acc = set(doc["accepting"])
    reach = _reachable(doc, state)
    return bool(reach & acc) and bool(reach - acc)


def _bfs_order(doc):
    """States in breadth-first order from the start, letters in alphabet order.

    `qfa analyze` names the states of the minimal automaton m0, m1, ... in
    this order, so on a minimal input m<i> is the i-th state found here.
    """
    order = [doc["start"]]
    seen = {doc["start"]}
    queue = deque(order)
    while queue:
        s = queue.popleft()
        for a in doc["alphabet"]:
            t = doc["transitions"][s][a]
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def _injective(doc):
    return all(
        len({row[a] for row in doc["transitions"].values()}) == len(doc["transitions"])
        for a in doc["alphabet"]
    )


def check_permutation_analysis(doc: dict, payload: dict) -> list:
    """A minimal permutation DFA: no witness of either kind, and reversible."""
    problems = []
    if not _injective(doc):
        problems.append("input is not a permutation DFA")
    if payload.get("minimal_states") != len(doc["states"]):
        problems.append(f"minimal_states {payload.get('minimal_states')} != {len(doc['states'])}")
    for key in ("forbidden_construction", "prfa_forbidden_construction"):
        if payload.get(key) is not None:
            problems.append(f"{key} reported for a permutation DFA: {payload[key]!r}")
    if payload.get("reversible") is not True:
        problems.append("a permutation DFA was reported non-reversible")
    return problems


def check_witness_analysis(doc: dict, payload: dict) -> list:
    """Replay both witnesses of `qfa analyze` on the file's transition table."""
    n = len(doc["states"])
    if payload.get("minimal_states") != n:
        return [f"minimal_states {payload.get('minimal_states')} != {n}"]
    problems = []
    if payload.get("reversible") is not _injective(doc):
        problems.append(f"reversible={payload.get('reversible')!r} disagrees with the table")
    order = _bfs_order(doc)
    if len(order) != n:
        return problems + ["input has unreachable states"]
    name = {f"m{i}": s for i, s in enumerate(order)}

    single = payload.get("forbidden_construction")
    if single is None:
        problems.append("no forbidden construction reported")
    else:
        q1, q2, x = name.get(single["q1"]), name.get(single["q2"]), single["x"]
        if q1 is None or q2 is None or q1 == q2:
            problems.append(f"bad witness states {single!r}")
        elif not (_walk(doc, q1, x) == q2 and _walk(doc, q2, x) == q2 and _eligible(doc, q2)):
            problems.append(f"forbidden construction does not replay: {single!r}")

    double = payload.get("prfa_forbidden_construction")
    if double is None:
        problems.append("no prfa forbidden construction reported")
    else:
        q1, q2 = name.get(double["q1"]), name.get(double["q2"])
        x, y = double["x"], double.get("y", "")
        if q1 is None or q2 is None or q1 == q2:
            problems.append(f"bad witness states {double!r}")
        elif not (_eligible(doc, q1) and _eligible(doc, q2)
                  and _walk(doc, q1, x) == q1
                  and _walk(doc, q1, y) == q2 and _walk(doc, q2, y) == q2):
            problems.append(f"prfa forbidden construction does not replay: {double!r}")
        else:
            cur = q2
            for _ in range(n):
                cur = _walk(doc, cur, x)
                if cur == q2:
                    problems.append(f"a power of x returns q2 to itself: {double!r}")
                    break
    return problems


# ---------------------------------------------------------------------------
# Block-language family
# ---------------------------------------------------------------------------


def block_language(m: int):
    """(xy|zy)^m together with the shortcuts (xy|zy)^i xx for i < m."""
    return re.compile(f"(?:xy|zy){{{m}}}|(?:xy|zy){{0,{m - 1}}}xx")


def block_sample_words(rng, m: int, count: int):
    """Members, one-letter mutations of members, and random words over {x,y,z}."""
    words = []
    for i in range(count):
        blocks = m if rng.random() < 0.5 else rng.randrange(m)
        word = "".join(rng.choice(("xy", "zy")) for _ in range(blocks))
        if blocks < m:
            word += "xx"
        kind = i % 3
        if kind == 1 and word:
            pos = rng.randrange(len(word))
            word = word[:pos] + rng.choice("xyz".replace(word[pos], "")) + word[pos + 1:]
        elif kind == 2:
            word = "".join(rng.choice("xyz") for _ in range(rng.randrange(2 * m + 3)))
        words.append(word)
    return words


def rfa_accepts(doc: dict, word: str) -> bool:
    """Halt-on-enter run of ^ word $ on an RFA file; never halting is rejection."""
    acc = set(doc["accepting"])
    rej = set(doc.get("rejecting", []))
    state = doc["start"]
    if state in acc or state in rej:
        return state in acc
    for sym in "^" + word + "$":
        state = doc["transitions"][state][sym]
        if state in acc or state in rej:
            return state in acc
    return False


def check_blocks(m: int, analyze: dict, equiv: dict, rfa_doc: dict, words) -> list:
    """Block family sizes, equivalence verdict, and the RFA against the regex."""
    problems = []
    if analyze.get("minimal_states") != 3 * m + 2:
        problems.append(f"minimal_states {analyze.get('minimal_states')} != {3 * m + 2}")
    rev = analyze.get("reversibilized_states")
    if not isinstance(rev, int) or rev < 3 * (2**m - 1):
        problems.append(f"reversibilized_states {rev!r} < {3 * (2**m - 1)}")
    if rev != len(rfa_doc.get("states", ())):
        problems.append(f"reversibilized_states {rev!r} != states in the saved file")
    if equiv.get("equivalent") is not True:
        problems.append(f"qfa equiv reported {equiv!r}")
    language = block_language(m)
    for word in words:
        try:
            got = rfa_accepts(rfa_doc, word)
        except KeyError as exc:
            problems.append(f"RFA has no transition {exc} on {word!r}")
            continue
        if got != bool(language.fullmatch(word)):
            problems.append(f"RFA {'accepts' if got else 'rejects'} {word!r}")
    return problems


# ---------------------------------------------------------------------------
# Small dense automata: PRFA forward pass and measure-once product
# ---------------------------------------------------------------------------


def prfa_forward(initial, transitions, accepting, rejecting, word):
    """(p_acc, p_rej, p_non) of ^ word $; a missing row keeps its mass."""
    p_acc = p_rej = 0.0
    dist = {}
    for s, prob in initial:
        if s in accepting:
            p_acc += prob
        elif s in rejecting:
            p_rej += prob
        else:
            dist[s] = dist.get(s, 0.0) + prob
    for sym in "^" + word + "$":
        nxt = {}
        for s, mass in dist.items():
            for t, prob in transitions.get((s, sym), ((s, 1.0),)):
                nxt[t] = nxt.get(t, 0.0) + mass * prob
        dist = {}
        for t, mass in nxt.items():
            if t in accepting:
                p_acc += mass
            elif t in rejecting:
                p_rej += mass
            else:
                dist[t] = mass
    return p_acc, p_rej, sum(dist.values())


def unitarity_problems(matrices) -> list:
    problems = []
    for sym, m in matrices.items():
        m = np.asarray(m)
        defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if not defect <= UNITARY_TOL:
            problems.append(f"matrix for {sym!r} is not unitary (defect {defect:.3e})")
    return problems


def measure_once(initial, matrices, accepting, rejecting, word):
    """Product of the dense matrices over ^ word $, then one projective measurement."""
    psi = np.asarray(initial, dtype=complex)
    for sym in "^" + word + "$":
        psi = psi @ matrices[sym]
    prob = np.abs(psi) ** 2
    p_acc = float(prob[sorted(accepting)].sum())
    p_rej = float(prob[sorted(rejecting)].sum())
    return p_acc, p_rej, float(prob.sum()) - p_acc - p_rej


def _close(a, b, tol):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def check_sweep(prfa, qfa_matrices, qfa_initial, results, words) -> list:
    """Check one word sweep over a PRFA and its square-root QFA.

    ``prfa`` is (initial, transitions, accepting, rejecting) as plain data;
    ``results[i]`` holds the program's (prfa, many, once, scans) triples for
    ``words[i]``, where scans is a list of per-scan triples.
    """
    initial, transitions, accepting, rejecting = prfa
    problems = unitarity_problems(qfa_matrices)
    for word, (pr, many, once, scans) in zip(words, results):
        for label, triple in (("run_prfa", pr), ("run_measure_many", many),
                              ("run_measure_once", once)) + tuple(
                                  (f"run_multiscan[{i}]", s) for i, s in enumerate(scans)):
            if not abs(sum(triple) - 1.0) <= CONSERVATION_TOL:
                problems.append(f"{label}({word!r}) loses mass: {triple!r}")
        if not _close(pr, many, CHAIN_TOL):
            problems.append(f"run_prfa {pr!r} != QFA embedding {many!r} on {word!r}")
        own = prfa_forward(initial, transitions, accepting, rejecting, word)
        if not _close(pr, own, REPLAY_TOL):
            problems.append(f"run_prfa {pr!r} != forward pass {own!r} on {word!r}")
        dense = measure_once(qfa_initial, qfa_matrices, accepting, rejecting, word)
        if not _close(once, dense, REPLAY_TOL):
            problems.append(f"run_measure_once {once!r} != dense product {dense!r} on {word!r}")
        if not scans or not _close(scans[0], many, REPLAY_TOL):
            problems.append(f"first scan {scans[:1]!r} != measure-many {many!r} on {word!r}")
        if len(problems) > 20:
            break
    return problems


def words_up_to(alphabet, max_len):
    """Every word over the alphabet of length 0..max_len, shortest first."""
    out = [""]
    layer = [""]
    for _ in range(max_len):
        layer = [w + a for w in layer for a in alphabet]
        out.extend(layer)
    return out
