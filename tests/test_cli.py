import dataclasses
import json
import os
import subprocess
import sys

import pytest

import qfa
from qfa import cli, linalg, serialize
from qfa.cli import main
from qfa.constructions import astar_bstar_dfa, example_qfa, modp_qfa, random_prfa
from qfa.semantics import run_measure_many
from tests_support import assert_readers_agree, astar_dfa, classical, sigma_star_dfa


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.json"
    serialize.save(example_qfa(), str(path))
    return str(path)


class TestRun:
    def test_worked_example(self, example_file, capsys):
        assert main(["run", example_file, "aa"]) == 0
        out = capsys.readouterr().out
        assert "p_acc=0.250000000000" in out
        assert "p_rej=0.750000000000" in out

    def test_scans_one_equals_many(self, example_file, capsys):
        assert main(["run", example_file, "a", "--mode", "scans", "--scans", "1"]) == 0
        scans_out = capsys.readouterr().out.splitlines()[:3]
        assert main(["run", example_file, "a", "--mode", "many"]) == 0
        many_out = capsys.readouterr().out.splitlines()[:3]
        assert scans_out == many_out

    def test_unknown_symbol_exit_code(self, example_file, capsys):
        assert main(["run", example_file, "ax"]) == 2

    def test_trace(self, example_file, capsys):
        assert main(["run", example_file, "a", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "step 1" in out and "step 3" in out

    def test_json_output(self, example_file, capsys):
        assert main(["run", example_file, "aa", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_acc"] == pytest.approx(0.25, abs=1e-12)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"), "a"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad), "a"]) == 2


class TestAnalyze:
    def test_astar_bstar(self, tmp_path, capsys):
        path = tmp_path / "ab.json"
        serialize.save(astar_bstar_dfa(), str(path))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "minimal states: 3" in out
        assert "x='b'" in out
        assert "x='a' y='b'" in out
        assert "reversible: no" in out

    def test_astar_with_reversibilize(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        out_path = tmp_path / "a_rfa.json"
        serialize.save(astar_dfa(), str(path))
        assert main(["analyze", str(path), "--reversibilize", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "forbidden construction: absent" in out
        assert "prfa forbidden construction: absent" in out
        rfa = serialize.load(str(out_path))
        assert rfa.halting_mode == "halt-on-enter"

    def test_monoid_cap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ab.json"
        serialize.save(astar_bstar_dfa(), str(path))
        assert main(["analyze", str(path), "--monoid-cap", "2"]) == 3
        # a one-element monoid is over a cap of 0
        path = tmp_path / "sigma.json"
        serialize.save(sigma_star_dfa(), str(path))
        assert main(["analyze", str(path), "--monoid-cap", "0"]) == 3
        assert main(["analyze", str(path), "--monoid-cap", "1"]) == 0

    def test_monoid_cap_holds_without_witness(self, tmp_path, capsys):
        # S_6 on a transposition and a 6-cycle: 720 elements and no witness
        n = 6
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple((s + 1) % n for s in range(n))
        s6 = classical(
            states=tuple(f"s{i}" for i in range(n)),
            alphabet=("a", "b"),
            start=0,
            accepting=frozenset({0, 3}),
            transitions={(s, a): f[s] for a, f in zip("ab", (swap, cycle)) for s in range(n)},
        )
        path = tmp_path / "s6.json"
        serialize.save(s6, str(path))
        assert main(["analyze", str(path), "--monoid-cap", "100"]) == 3
        assert "exceeds cap of 100" in capsys.readouterr().err
        assert main(["analyze", str(path), "--monoid-cap", "720"]) == 0
        assert "prfa forbidden construction: absent" in capsys.readouterr().out


class TestBuild:
    def test_modp_reports_blocks(self, tmp_path, capsys):
        out_path = tmp_path / "modp.json"
        assert main(["build", "modp", "--p", "31", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "blocks: 28" in out
        auto = serialize.load(str(out_path))
        assert run_measure_many(auto, "a" * 31).p_acc == pytest.approx(1.0, abs=1e-9)

    def test_astarbstar_residual(self, tmp_path, capsys):
        out_path = tmp_path / "ab.json"
        assert main(["build", "astarbstar", "-o", str(out_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-13

    def test_blocks_state_count(self, tmp_path, capsys):
        out_path = tmp_path / "lm.json"
        assert main(["build", "blocks", "--m", "2", "-o", str(out_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == 8

    def test_bad_parameter_exit_code(self, tmp_path, capsys):
        assert main(["build", "modp", "--p", "4", "-o", str(tmp_path / "x.json")]) == 2


class TestVerify:
    def test_modp_passes(self, capsys):
        assert main(["verify", "modp", "--p", "31"]) == 0
        out = capsys.readouterr().out
        assert "result: pass" in out
        assert "PASS" in out

    def test_astarbstar_passes(self, capsys):
        assert main(["verify", "astarbstar"]) == 0
        assert "result: pass" in capsys.readouterr().out

    def test_not_prime_is_input_error(self, capsys):
        assert main(["verify", "modp", "--p", "4"]) == 2

    def test_trio_chain(self, capsys):
        assert main(["verify", "prfa-trio"]) == 0
        assert "result: pass" in capsys.readouterr().out

    def test_blocks(self, capsys):
        assert main(["verify", "blocks", "--m", "2"]) == 0
        assert "result: pass" in capsys.readouterr().out


class TestEquivDist:
    def test_equiv_reports_counterexample(self, tmp_path, capsys):
        p1 = tmp_path / "ab.json"
        p2 = tmp_path / "a.json"
        serialize.save(astar_bstar_dfa(), str(p1))
        serialize.save(astar_dfa(), str(p2))
        assert main(["equiv", str(p1), str(p2)]) == 0
        out = capsys.readouterr().out
        assert "equivalent: no" in out
        assert "counterexample: 'b'" in out

    def test_equiv_same(self, tmp_path, capsys):
        p1 = tmp_path / "ab.json"
        serialize.save(astar_bstar_dfa(), str(p1))
        assert main(["equiv", str(p1), str(p1)]) == 0
        assert "equivalent: yes" in capsys.readouterr().out

    def test_dist(self, example_file, capsys):
        assert main(["dist", example_file, "a", "aa"]) == 0
        out = capsys.readouterr().out
        assert "tv_distance=0.000000000000" in out


def prfa_with_edge_to(target):
    p = random_prfa(1)
    return dataclasses.replace(p, transitions={**p.transitions, (0, "a"): [(target, 1.0)]})


class TestRoundTrip:
    def test_identical_simulation_after_round_trip(self, tmp_path):
        corpus = ["", "a", "aa", "aaa", "a" * 7]
        auto = modp_qfa(13, seed=0)
        path = tmp_path / "m13.json"
        serialize.save(auto, str(path))
        back = serialize.load(str(path))
        for word in corpus:
            o1 = run_measure_many(auto, word)
            o2 = run_measure_many(back, word)
            assert (o1.p_acc, o1.p_rej, o1.p_non) == (o2.p_acc, o2.p_rej, o2.p_non)

    def test_dense_modp_file_runs_like_structured(self, tmp_path, capsys):
        # modp files were once written with dense matrices; both forms must load and agree
        auto = modp_qfa(5, seed=0)
        dense = dataclasses.replace(
            auto, unitaries={sym: linalg.to_dense(op) for sym, op in auto.unitaries.items()}
        )
        paths = [str(tmp_path / "structured.json"), str(tmp_path / "dense.json")]
        serialize.save(auto, paths[0])
        serialize.save(dense, paths[1])
        assert isinstance(json.load(open(paths[1]))["unitaries"]["a"], list)
        for mode in (["--mode", "many"], ["--mode", "once"], ["--mode", "scans", "--scans", "2"]):
            outputs = []
            for path in paths:
                assert main(["run", path, "aaaaaaa", "--trace"] + mode) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    def test_save_load_save_stable(self, tmp_path, example_file):
        auto = serialize.load(example_file)
        path2 = tmp_path / "copy.json"
        serialize.save(auto, str(path2))
        assert (
            open(example_file).read() == open(str(path2)).read()
        )

    @pytest.mark.parametrize(
        "change, error",
        [
            (lambda: dataclasses.replace(astar_dfa(), start=-1), serialize.FileFormatError),
            (lambda: dataclasses.replace(astar_dfa(), start=2), serialize.FileFormatError),
            (lambda: dataclasses.replace(astar_dfa(), accepting=frozenset({5})), serialize.FileFormatError),
            (lambda: dataclasses.replace(astar_dfa(), rejecting=frozenset({-1})), serialize.FileFormatError),
            (lambda: dataclasses.replace(example_qfa(), rejecting=frozenset({7})), serialize.FileFormatError),
            (lambda: dataclasses.replace(random_prfa(0), accepting=frozenset({99})), serialize.FileFormatError),
            (lambda: dataclasses.replace(example_qfa(), unitaries={**example_qfa().unitaries, "a": object()}),
             serialize.FileFormatError),
            # an index of -1 would otherwise save as the last state; n is one past the end
            (lambda: dataclasses.replace(example_qfa(), accepting=frozenset({-1})), serialize.FileFormatError),
            (lambda: dataclasses.replace(example_qfa(), accepting=frozenset({4})), serialize.FileFormatError),
            (lambda: dataclasses.replace(random_prfa(1), accepting=frozenset({-1})), serialize.FileFormatError),
            (lambda: dataclasses.replace(random_prfa(1), accepting=frozenset({2})), serialize.FileFormatError),
            (lambda: dataclasses.replace(random_prfa(1), initial_distribution=((-1, 1.0),)),
             serialize.FileFormatError),
            (lambda: dataclasses.replace(random_prfa(1), initial_distribution=((2, 1.0),)),
             serialize.FileFormatError),
            (lambda: prfa_with_edge_to(-1), serialize.FileFormatError),
            (lambda: prfa_with_edge_to(2), serialize.FileFormatError),
        ],
        ids=["dfa-start-negative", "dfa-start-past-end", "dfa-accepting", "dfa-rejecting",
             "qfa-halting", "prfa-halting", "qfa-unknown-operator",
             "qfa-accepting-negative", "qfa-accepting-past-end", "prfa-accepting-negative",
             "prfa-accepting-past-end", "prfa-initial-negative", "prfa-initial-past-end",
             "prfa-edge-negative", "prfa-edge-past-end"],
    )
    def test_save_refuses_before_opening_the_file(self, tmp_path, change, error):
        path = tmp_path / "kept.json"
        serialize.save(example_qfa(), str(path))
        before = path.read_bytes()
        with pytest.raises(error):
            serialize.save(change(), str(path))
        assert path.read_bytes() == before
        with pytest.raises(error):
            serialize.save(change(), str(tmp_path / "never.json"))
        assert not (tmp_path / "never.json").exists()

    def test_partial_rows_completed_at_load(self, tmp_path):
        doc = {
            "format_version": 1,
            "kind": "qfa",
            "states": ["q0", "q1"],
            "alphabet": ["a"],
            "accepting": ["q1"],
            "rejecting": [],
            "initial": [[1.0, 0.0], [0.0, 0.0]],
            "unitaries": {
                "a": {"rows": {"q0": [[0.0, 0.0], [1.0, 0.0]]}},
                "$": {"rows": {"q0": [[0.0, 0.0], [1.0, 0.0]], "q1": [[1.0, 0.0], [0.0, 0.0]]}},
            },
        }
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        auto = serialize.load(str(path))
        from qfa.automata import validate

        assert validate(auto) == []
        out = run_measure_many(auto, "a")
        assert out.p_acc == pytest.approx(1.0, abs=1e-12)


class TestMalformedFiles:
    DFA = {
        "format_version": 1,
        "kind": "dfa",
        "states": ["x"],
        "alphabet": ["a"],
        "start": "x",
        "accepting": [],
        "transitions": {"x": {"a": "x"}},
    }
    PRFA = {
        "format_version": 1,
        "kind": "prfa",
        "states": ["s", "acc"],
        "alphabet": ["a"],
        "initial_distribution": [["s", 1.0]],
        "accepting": ["acc"],
        "transitions": {},
    }

    def run_on(self, tmp_path, doc, argv):
        if doc.get("kind") in ("dfa", "rfa"):
            assert_readers_agree(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return main([argv[0], str(path)] + argv[1:])

    def test_dfa_without_states(self, tmp_path, capsys):
        doc = {k: v for k, v in self.DFA.items() if k != "states"}
        assert self.run_on(tmp_path, doc, ["analyze"]) == 2
        assert "missing 'states'" in capsys.readouterr().err

    def test_dfa_start_not_declared(self, tmp_path, capsys):
        doc = dict(self.DFA, start="y")
        assert self.run_on(tmp_path, doc, ["analyze"]) == 2
        assert "undeclared state 'y'" in capsys.readouterr().err

    def test_qfa_unknown_accepting_state(self, tmp_path, capsys, example_file):
        doc = json.loads(open(example_file).read())
        doc["accepting"] = ["zz"]
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        assert "undeclared state 'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("accepting", 5), ("alphabet", "a"), ("initial_distribution", {"s": 1.0})]
    )
    def test_field_not_a_list(self, tmp_path, capsys, key, value):
        doc = dict(self.DFA if key != "initial_distribution" else self.PRFA, **{key: value})
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        assert f"{key} must be a list" in capsys.readouterr().err

    def test_qfa_full_matrix_outside_alphabet(self, tmp_path, capsys):
        one = [[[1.0, 0.0]]]
        doc = {
            "format_version": 1,
            "kind": "qfa",
            "states": ["q0"],
            "alphabet": ["a"],
            "accepting": [],
            "rejecting": [],
            "initial": [[1.0, 0.0]],
            "unitaries": {"a": one, "b": one},
        }
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        assert "outside the working alphabet: ['b']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"op": "identity"}, "identity operator is missing 'dim'"),
            ({"op": "tensor-power", "base": [[[1.0, 0.0]]]}, "tensor-power operator is missing 'copies'"),
            ({"op": "block-diag", "blocks": 5}, "blocks must be a list, got 5"),
            ({"op": "plane-rotation", "axis": 0, "target": 5}, "target must be a list, got 5"),
            ({"rows": {"s": 5}}, "partial row 's' must be a list, got 5"),
            ({"op": "permutation", "dest": 3}, "dest must be a list, got 3"),
            ({"op": "identity", "dim": [3]}, "dim must be an integer, got [3]"),
            ([5, 5, 5], "a matrix row must be a list, got 5"),
            ({"op": "permutation", "dest": [1.9, 0, 2]}, "dest must hold integers, got dtype float64"),
            ({"op": "permutation", "dest": ["0", "1", "2"]}, "dest must hold integers, got dtype <U1"),
            (
                {"op": "block-diag", "blocks": [{"op": "identity", "dim": True}, {"op": "identity", "dim": 2}]},
                "dim must be an integer, got True",
            ),
            (
                {"op": "plane-rotation", "axis": False, "target": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]},
                "axis must be an integer, got False",
            ),
            ({"op": "tensor-power", "base": [[[1.0, 0.0]]], "copies": True}, "copies must be an integer, got True"),
            ([[[None, 0.0]]], "amplitude part must be a number, got None"),
            (
                {"op": "tensor-power", "base": {"op": "identity", "dim": 2}, "copies": 2},
                "base must be a list, got {'op': 'identity', 'dim': 2}",
            ),
        ],
        ids=[
            "no-dim", "no-copies", "blocks", "target", "row", "dest", "dim", "matrix-row",
            "float-dest", "string-dest", "bool-dim", "bool-axis", "bool-copies", "matrix-entry",
            "structured-base",
        ],
    )
    def test_malformed_operator_spec(self, tmp_path, capsys, spec, message):
        doc = {
            "format_version": 1,
            "kind": "qfa",
            "states": ["s", "acc", "rej"],
            "alphabet": ["a"],
            "accepting": ["acc"],
            "rejecting": ["rej"],
            "initial": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "unitaries": {"a": spec},
        }
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    HADAMARD = [[[0.5**0.5, 0.0], [0.5**0.5, 0.0]], [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]]]

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"op": "tensor-power", "base": HADAMARD, "copies": 10000000},
                "tensor-power operator has 10000000 copies, more than 20",
            ),
            (
                {"op": "block-diag", "blocks": [
                    {"op": "tensor-power", "base": HADAMARD, "copies": 20}, {"op": "identity", "dim": 1},
                ]},
                "symbol 'a': matrix dimension 1048577 != 3",
            ),
        ],
        ids=["copies", "nested-dimension"],
    )
    def test_tensor_power_bounded_before_it_is_built(self, tmp_path, capsys, spec, message):
        doc = {
            "format_version": 1,
            "kind": "qfa",
            "states": ["s", "acc", "rej"],
            "alphabet": ["a"],
            "accepting": ["acc"],
            "rejecting": ["rej"],
            "initial": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "unitaries": {"a": spec},
        }
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("initial_distribution", [["s", float("nan")]]),
            ("transitions", {"s": {"a": [["acc", float("nan")]]}}),
        ],
        ids=["nan-initial", "nan-edge"],
    )
    def test_malformed_prfa(self, tmp_path, capsys, key, value):
        assert self.run_on(tmp_path, dict(self.PRFA, **{key: value}), ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "failed validation" in err and "to nan" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("transitions", {"s": {"a": [["acc", None]]}}, "a transition probability must be a number, got None"),
            ("initial_distribution", [["s", "1.0"]], "initial_distribution probability must be a number, got '1.0'"),
            ("initial_distribution", [["s", True]], "initial_distribution probability must be a number, got True"),
        ],
        ids=["null-edge", "string-initial", "bool-initial"],
    )
    def test_prfa_probability_not_a_number(self, tmp_path, capsys, key, value, message):
        assert self.run_on(tmp_path, dict(self.PRFA, **{key: value}), ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("edges", [None, 5, True, {"acc": 1.0}], ids=["null", "number", "bool", "object"])
    def test_prfa_edge_list_not_a_list(self, tmp_path, capsys, edges):
        doc = dict(self.PRFA, transitions={"s": {"a": edges}})
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"a transition must be a list of [state, probability] pairs, got {edges!r}" in err

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([None, 0.0], "got None"),
            ([[1], 0.0], "got [1]"),
            (["0.5", 0.0], "got '0.5'"),
            ([1.0, False], "got False"),
            ([10**400, 0], "amplitude part is out of range"),
            ([float("nan"), 0.0], "failed validation: initial vector has non-finite amplitudes"),
        ],
        ids=["null", "list", "string", "bool", "huge-int", "nan-loads"],
    )
    def test_initial_amplitude_not_a_number(self, tmp_path, capsys, example_file, entry, message):
        doc = json.loads(open(example_file).read())
        doc["initial"][0] = entry
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("kind, end", [("qfa", "$"), ("dfa", "$"), ("dfa", "^"), ("prfa", "^")])
    def test_endmarker_in_alphabet(self, tmp_path, capsys, example_file, kind, end):
        if kind == "qfa":
            doc = json.loads(open(example_file).read())
            doc["alphabet"] = ["a", end]
        else:
            doc = dict(self.DFA if kind == "dfa" else self.PRFA, alphabet=["a", end])
        assert self.run_on(tmp_path, doc, ["run", "a" + end]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"alphabet must not contain the endmarker {end!r}" in err

    @pytest.mark.parametrize("kind", ["qfa", "dfa", "prfa"])
    @pytest.mark.parametrize(
        "alphabet, message",
        [
            (["a", "a"], "alphabet repeats the letters ['a']"),
            (["a", 1], "alphabet must hold strings, got ['a', 1]"),
            ([["a"]], "alphabet must hold strings, got [['a']]"),
        ],
        ids=["repeated", "number", "list"],
    )
    def test_alphabet_letters(self, tmp_path, capsys, example_file, kind, alphabet, message):
        if kind == "qfa":
            doc = json.loads(open(example_file).read())
            doc["alphabet"] = alphabet
        else:
            doc = dict(self.DFA if kind == "dfa" else self.PRFA, alphabet=alphabet)
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err

    RFA = {
        "format_version": 1,
        "kind": "rfa",
        "states": ["x", "acc"],
        "alphabet": ["a"],
        "start": "x",
        "accepting": ["acc"],
        "halting_mode": "halt-on-enter",
        "transitions": {"x": {"a": "x", "^": "x", "$": "acc"}},
    }

    @pytest.mark.parametrize(
        "kind, row, symbol",
        [
            ("dfa", {"a": "x", "c": "x"}, "c"),
            ("dfa", {"a": "x", "$": "x"}, "$"),
            ("rfa", {"a": "x", "^": "x", "$": "acc", "b": "acc"}, "b"),
        ],
        ids=["dfa-letter", "dfa-endmarker", "rfa-letter"],
    )
    @pytest.mark.parametrize("command", ["analyze", "equiv", "run"])
    def test_transition_outside_the_alphabet(self, tmp_path, capsys, kind, row, symbol, command):
        doc = dict(self.DFA if kind == "dfa" else self.RFA, transitions={"x": row})
        out = tmp_path / "out.json"
        argv = {
            "analyze": ["analyze", "--reversibilize", str(out)],
            "equiv": ["equiv", str(tmp_path / "bad.json")],
            "run": ["run", "a"],
        }[command]
        assert self.run_on(tmp_path, doc, argv) == 2
        err = capsys.readouterr().err
        path = tmp_path / "bad.json"
        assert err == f"error: {path}: transition from x on {symbol!r}: not a symbol of the automaton\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({}, "transition from x on 'c': not a symbol of the automaton"),
            ({"transitions": {"x": {"c": "x"}, "acc": {"a": "nope"}}}, "a transition names undeclared state 'nope'"),
            ({"transitions": {"x": {"c": "x"}, "y": {"a": "x"}}}, "a transition names undeclared state 'y'"),
            ({"transitions": {"x": {"c": "x"}, "acc": []}}, "transitions of 'acc' must be an object, got []"),
            ({"halting_mode": "sometimes"}, "unknown halting mode 'sometimes'"),
            ({"alphabet": ["a", 1]}, "alphabet must hold strings, got ['a', 1]"),
            ({"start": "nope"}, "start names undeclared state 'nope'"),
            ({"accepting": ["acc", "nope"]}, "accepting names undeclared state 'nope'"),
            ({"alphabet": ["a", "^"]}, "alphabet must not contain the endmarker '^'"),
            ({"alphabet": ["a", "a"]}, "alphabet repeats the letters ['a']"),
        ],
        ids=[
            "stray", "unknown-target", "unknown-source", "row-not-object", "mode", "alphabet-type",
            "start", "accepting", "endmarker-letter", "repeated-letter",
        ],
    )
    def test_stray_symbol_is_refused_after_every_other_check(self, change, message):
        doc = {
            **self.DFA, "states": ["x", "acc"], "accepting": ["acc"],
            "transitions": {"x": {"a": "x", "c": "x", "d": "x"}}, **change,
        }
        assert_readers_agree(doc)
        with pytest.raises(ValueError) as exc:
            serialize.classical_from_dict(doc)
        assert str(exc.value) == message

    def test_validation_failure_is_one_line(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "kind": "qfa",
            "states": ["s", "acc", "rej"],
            "alphabet": ["a"],
            "accepting": ["acc"],
            "rejecting": ["rej"],
            "initial": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "unitaries": {"a": {"op": "identity", "dim": 2}, "$": {"op": "identity", "dim": 4}},
        }
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "symbol 'a': matrix dimension 2 != 3; symbol '$': matrix dimension 4 != 3" in err

    @pytest.mark.parametrize("kind", ["qfa", "dfa", "rfa", "prfa"])
    def test_duplicate_state_names(self, tmp_path, capsys, example_file, kind):
        if kind == "qfa":
            doc = json.loads(open(example_file).read())
            doc["states"][1] = doc["states"][0]
        elif kind == "prfa":
            doc = dict(self.PRFA, states=["s", "s", "acc"])
        else:
            doc = dict(self.DFA, kind=kind, states=["p", "p"], start="p", transitions={"p": {"a": "p"}})
            if kind == "rfa":
                doc["halting_mode"] = "halt-on-enter"
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "duplicate state names" in err


class TestOsErrors:
    """An unreadable input or an unwritable output exits 2 with one error line."""

    def assert_input_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "Traceback" not in err
        return err

    def test_directory_as_input(self, tmp_path, capsys):
        err = self.assert_input_error(["run", str(tmp_path), "a"], capsys)
        assert err.startswith(f"error: cannot read {tmp_path}: ")

    def test_build_into_missing_directory(self, tmp_path, capsys):
        self.assert_input_error(["build", "example", "-o", str(tmp_path / "missing" / "x.json")], capsys)

    def test_reversibilize_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        serialize.save(astar_dfa(), str(path))
        out = str(tmp_path / "missing" / "r.json")
        self.assert_input_error(["analyze", str(path), "--reversibilize", out], capsys)


class TestOneParser:
    def test_one_parser_serves_every_call(self, example_file, tmp_path, capsys):
        # main builds its parser on the first call of the process; later
        # calls, a parse error among them, print what a fresh parser prints
        fresh = cli.build_parser.__wrapped__()
        assert main(["run", example_file, "aa"]) == 0
        run_out = capsys.readouterr().out
        assert main(["build", "modp", "--p", "5", "-o", str(tmp_path / "m.json")]) == 0
        assert "blocks" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            fresh.parse_args(["verify", "nope"])
        assert capsys.readouterr().err == err
        assert "invalid choice: 'nope'" in err
        assert main(["run", example_file, "aa"]) == 0
        assert capsys.readouterr().out == run_out
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser().format_help() == fresh.format_help()


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path, capsys):
        path = tmp_path / "ab.json"
        serialize.save(astar_bstar_dfa(), str(path))
        assert main(["analyze", str(path)]) == 0
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(os.path.abspath(qfa.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "qfa", "analyze", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected
        done = subprocess.run(
            [sys.executable, "-m", "qfa", "--help"], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0
        assert done.stdout.startswith("usage: qfa ")
