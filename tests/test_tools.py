"""The timing harnesses in ``tools/`` still run against this checkout: each
is imported by path and its smallest case is run once."""

import importlib.util
import os
import sys

import pytest

from qfa import analysis, automata, constructions, semantics

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture()
def harness(monkeypatch):
    """Import a harness from ``tools/`` by path, under its own name so that
    one harness can import another."""
    # importing a harness sets OPENBLAS_NUM_THREADS; teardown restores it
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)

    def load(name):
        spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load


def quartiles_in_order(timing, unit):
    return timing[f"q1_{unit}"] <= timing[f"median_{unit}"] <= timing[f"q3_{unit}"]


def test_bench_runners_steps_and_runner(harness):
    bench = harness("bench_runners")
    q = constructions.modp_qfa(5)
    for runs in (1, 2):
        steps = bench.time_steps(q, runs)
        assert sorted(steps) == ["$", "a"]
        for parts in steps.values():
            assert sorted(parts) == ["apply", "observe", "step"]
            assert all(quartiles_in_order(t, "us") for t in parts.values())
        timing = bench.time_runner(lambda w: semantics.run_measure_many(q, w), ["", "a", "aa"], runs)
        assert quartiles_in_order(timing, "us")
    # a single run is its own median and quartiles
    one_run = bench.time_runner(lambda w: None, ["", "a"], 1), bench.time_call(lambda: None, 1, 3)
    assert all(len(set(t.values())) == 1 for t in one_run)


def test_bench_analysis_generator_and_timer(harness):
    harness("bench_runners")
    bench = harness("bench_analysis")
    dfa = bench.generated_dfa(3, merge=True)
    assert automata.validate_classical(dfa) == [] and dfa.alphabet == ("a", "b", "c")
    for runs in (1, 2):
        timing, minimal = bench.time_call(analysis.minimize_dfa, runs, lambda: dfa)
        assert quartiles_in_order(timing, "ms") and minimal.n_states == 3
    # a single run is its own median and quartiles
    assert len(set(bench.time_call(analysis.minimize_dfa, 1, lambda: dfa)[0].values())) == 1
