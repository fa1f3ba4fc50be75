import dataclasses
import json

import pytest

from qfa import linalg, serialize
from qfa.cli import main
from qfa.constructions import astar_bstar_dfa, astar_dfa, example_qfa, modp_qfa
from qfa.semantics import run_measure_many


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

    def test_qfa_duplicate_state_names(self, tmp_path, capsys, example_file):
        doc = json.loads(open(example_file).read())
        doc["states"][1] = doc["states"][0]
        assert self.run_on(tmp_path, doc, ["run", "a"]) == 2
        assert "duplicate state names" in capsys.readouterr().err
