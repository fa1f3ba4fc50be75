"""The benchmark's checks accept the program's real output and reject wrong answers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import worker  # noqa: E402
from qfa import constructions  # noqa: E402


def cli(*argv):
    return worker.cli_json(list(argv), worker.Clock())


def perturbed(payload, index, delta=1e-6):
    out = copy.deepcopy(payload)
    out["checks"][index]["margin"] += delta
    return out


@pytest.mark.parametrize("case", ["equality", "modp-amplified", "modp"])
def test_verify_check_rejects_margin_off_by_1e_6(case):
    if case == "equality":
        n, eps, n_max, seed = 3, 0.5, 6, 4
        payload = cli("verify", "equality", "--n", str(n), "--n-max", str(n_max), "--seed", str(seed))
        p, d, seq = constructions.equality_plan(n, eps, n_max, seed)
        expected = checks.equality_margins(n, eps, n_max, p, d, seq.coefficients)
    elif case == "modp-amplified":
        p, eps, seed = 7, 0.6, 2
        payload = cli("verify", "modp-amplified", "--p", str(p), "--seed", str(seed))
        d = constructions.choose_amplification(p, eps / 3.0)
        seq = constructions.find_amplified_sequence(p, eps / 3.0, d, seed)
        expected = checks.modp_margins(p, d, seq.coefficients, 1.0 - eps)
    else:
        p, seed = 7, 5
        payload = cli("verify", "modp", "--p", str(p), "--seed", str(seed))
        seq = constructions.find_good_sequence(p, seed)
        expected = checks.modp_margins(p, 1, seq.coefficients, 1.0 / 8.0)
    assert checks.check_verify(payload, expected) == []
    for i in range(len(expected)):
        assert checks.check_verify(perturbed(payload, i), expected)
        assert checks.check_verify(perturbed(payload, i, -1e-6), expected)
    assert checks.check_verify(dict(payload, **{"pass": False}), expected)


def sweep(seed, max_len=4):
    words = checks.words_up_to("ab", max_len)
    plain, matrices, initial, results = worker.sweep_check_args(
        *worker.sweep_words(seed, words, worker.Clock()))
    return plain, matrices, initial, results, words


@pytest.mark.parametrize("runner", [0, 1, 2])
def test_sweep_check_rejects_probability_off_by_1e_6(runner):
    plain, matrices, initial, results, words = sweep(seed=11)
    assert checks.check_sweep(plain, matrices, initial, results, words) == []
    bad = copy.deepcopy(results)
    bad[len(words) // 2][runner][0] += 1e-6
    assert checks.check_sweep(plain, matrices, initial, bad, words)


def test_sweep_check_rejects_non_unitary_matrix():
    plain, matrices, initial, results, words = sweep(seed=12, max_len=1)
    bad = dict(matrices)
    bad["a"] = bad["a"] * (1.0 + 1e-6)
    assert checks.check_sweep(plain, bad, initial, results, words)


def analyze(tmp_path, doc, *extra):
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps(doc))
    return cli("analyze", str(path), *extra)


def flip_letter(word, pos, alphabet):
    return word[:pos] + next(a for a in alphabet if a != word[pos]) + word[pos + 1:]


def test_witness_check_rejects_one_changed_letter(tmp_path):
    doc = worker.full_transformation_dfa(random.Random(3), n=4)
    payload = analyze(tmp_path, doc)
    assert checks.check_witness_analysis(doc, payload) == []
    for key, field in (("forbidden_construction", "x"), ("prfa_forbidden_construction", "y")):
        bad = copy.deepcopy(payload)
        bad[key][field] = flip_letter(bad[key][field], 0, doc["alphabet"])
        assert checks.check_witness_analysis(doc, bad), (key, bad[key])


def test_witness_check_rejects_missing_witness(tmp_path):
    doc = worker.full_transformation_dfa(random.Random(4), n=4)
    payload = analyze(tmp_path, doc)
    assert checks.check_witness_analysis(doc, dict(payload, prfa_forbidden_construction=None))


def test_permutation_check(tmp_path):
    doc = worker.permutation_dfa(random.Random(5), n=4)
    payload = analyze(tmp_path, doc)
    assert checks.check_permutation_analysis(doc, payload) == []
    assert checks.check_permutation_analysis(doc, dict(payload, reversible=False))
    fake = {"q1": "m0", "q2": "m1", "x": "a", "y": "b"}
    assert checks.check_permutation_analysis(doc, dict(payload, prfa_forbidden_construction=fake))


def test_blocks_check_rejects_flipped_accepting_sink(tmp_path):
    m = 3
    dfa, rfa = str(tmp_path / "blocks.json"), str(tmp_path / "rfa.json")
    worker.run_cli(["build", "blocks", "--m", str(m), "-o", dfa], worker.Clock())
    analyzed = cli("analyze", dfa, "--reversibilize", rfa)
    equivalent = cli("equiv", dfa, rfa)
    with open(rfa, encoding="utf-8") as fh:
        rfa_doc = json.load(fh)
    member = "xyzyxy"
    words = [member] + checks.block_sample_words(random.Random(6), m, 30)
    assert checks.block_language(m).fullmatch(member)
    assert checks.check_blocks(m, analyzed, equivalent, rfa_doc, words) == []

    # the accepting sink that `member` halts in becomes a rejecting one
    state = rfa_doc["start"]
    for sym in "^" + member + "$":
        state = rfa_doc["transitions"][state][sym]
        if state in rfa_doc["accepting"]:
            break
    bad = copy.deepcopy(rfa_doc)
    bad["accepting"].remove(state)
    bad["rejecting"].append(state)
    assert checks.check_blocks(m, analyzed, equivalent, bad, words)
    assert checks.check_blocks(m, analyzed, dict(equivalent, equivalent=False), rfa_doc, words)


def test_closed_form_is_one_at_the_target_length():
    assert checks.closed_form_accept(31, 10, [3, 17, 30], 0, 62) == pytest.approx(1.0, abs=1e-15)
    assert checks.closed_form_accept(61, 2, [5, 9], 20, 20) == 1.0
