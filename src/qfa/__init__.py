"""Exact simulation and analysis of 1-way quantum finite automata."""

from .automata import (
    ClassicalAutomaton,
    ProbabilisticAutomaton,
    QuantumAutomaton,
    RunOutcome,
    is_reversible,
    make_qfa,
    prfa_to_qfa,
    rfa_to_prfa,
    validate,
)
from .linalg import complete_unitary, tv_distance
from .semantics import (
    ScanReport,
    run_dfa,
    run_measure_many,
    run_measure_once,
    run_multiscan,
    run_prefixes,
    run_prfa,
)
from .analysis import (
    ConstructionWitness,
    dfa_equivalent,
    find_forbidden_construction,
    find_prfa_forbidden_construction,
    minimize_dfa,
    reversibilize,
)

__all__ = [
    "ClassicalAutomaton",
    "ConstructionWitness",
    "ProbabilisticAutomaton",
    "QuantumAutomaton",
    "RunOutcome",
    "ScanReport",
    "complete_unitary",
    "dfa_equivalent",
    "find_forbidden_construction",
    "find_prfa_forbidden_construction",
    "is_reversible",
    "make_qfa",
    "minimize_dfa",
    "prfa_to_qfa",
    "reversibilize",
    "rfa_to_prfa",
    "run_dfa",
    "run_measure_many",
    "run_measure_once",
    "run_multiscan",
    "run_prefixes",
    "run_prfa",
    "tv_distance",
    "validate",
]

__version__ = "0.1.0"
