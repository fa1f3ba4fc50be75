"""A fixed battery of ``qfa`` commands and the transcript they produce.

Each command runs in process through ``qfa.cli.main`` inside one working
directory, with relative paths, so the transcript holds no machine-specific
path.  For every command the transcript records the exit code, stdout, and
stderr from its first ``error:`` line on.  The first command that writes a
file also records it: a classical (DFA or PRFA) file by its SHA-256, a quantum
file by its parsed JSON.

``tests/test_cli_transcript.py`` replays the battery and compares it with
``tests/data/cli_transcript.json``.  Regenerate that file with

    PYTHONPATH=src python tests/cli_transcript.py

only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from qfa import serialize
from qfa.automata import prfa_to_qfa
from qfa.cli import main
from qfa.constructions import astar_bstar_dfa, random_prfa
from tests_support import astar_dfa, parity_dfa

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_transcript.json")
JSON_FLOAT_TOL = 1e-15


def write_fixtures():
    """Inputs that no ``qfa build`` target makes, written to the current directory."""
    serialize.save(astar_bstar_dfa(), "ab.json")
    serialize.save(astar_dfa(), "astar.json")
    serialize.save(parity_dfa(), "parity.json")
    for seed in (0, 1):
        serialize.save(prfa_to_qfa(random_prfa(seed)), f"dense{seed}.json")
    with open("broken.json", "w") as fh:
        fh.write("{not json")
    with open("ab.json") as fh:
        doc = json.load(fh)
    doc["start"] = "nowhere"
    with open("bad_start.json", "w") as fh:
        json.dump(doc, fh)


def _with_json(commands):
    return [c for argv in commands for c in (argv, argv + ["--json"])]


def battery():
    """The command lines, in order; later commands read files earlier ones wrote."""
    cmds = []
    seeded = [["modp", "--p", "5"], ["modp", "--p", "7"], ["modp-amplified", "--p", "3"],
              ["modp-amplified", "--p", "5", "--epsilon", "0.9"],
              ["equality", "--n", "2", "--n-max", "4", "--epsilon", "0.9"]]
    for target in seeded:
        for seed in ("0", "1"):
            name = "-".join(target[:1] + target[2::2]) + f"-s{seed}.json"
            cmds += _with_json([["build"] + target + ["--seed", seed, "-o", name]])
            cmds += _with_json([["verify"] + target + ["--seed", seed]])
    for target in (["example"], ["astarbstar"], ["blocks", "--m", "3"], ["prfa-trio"]):
        cmds += _with_json([["build"] + target + ["-o", target[0] + ".json"], ["verify"] + target])
    cmds += _with_json([["verify", "modp"], ["verify", "equality", "--seed", "1"],
                        ["verify", "blocks"], ["verify", "blocks", "--m", "4"],
                        ["verify", "equality", "--n", "3", "--n-max", "9", "--epsilon", "0.3"]])

    runs = [("example.json", ["", "a", "aa", "aaa"]),
            ("astarbstar.json", ["ab", "ba", "aabb"]),
            ("modp-5-s0.json", ["aaaa", "aaaaa"]),
            ("modp-amplified-5-0.9-s1.json", ["aaa"]),
            ("equality-2-4-0.9-s0.json", ["aa", "aaa"]),
            ("dense0.json", ["", "abba"]),
            ("dense1.json", ["b", "aab"])]
    for path, words in runs:
        for word in words:
            for mode in (["--mode", "many"], ["--mode", "once"], ["--mode", "scans", "--scans", "3"]):
                cmds += _with_json([["run", path, word] + mode, ["run", path, word, "--trace"] + mode])
    for path, words in (("prfa-trio.json", ["", "aaa", "aaaa"]), ("blocks.json", ["xy", "zyxx", "xyzy"]),
                        ("ab.json", ["-", "ba"])):
        for word in words:
            cmds += _with_json([["run", path, word], ["run", path, word, "--trace"]])

    for path in ("ab.json", "astar.json", "parity.json", "blocks.json"):
        cmds += _with_json([["analyze", path]])
    cmds += _with_json([["analyze", "blocks.json", "--reversibilize", "blocks-rfa.json"],
                        ["analyze", "parity.json", "--reversibilize", "parity-rfa.json"]])
    cmds += _with_json([["run", "blocks-rfa.json", "zyxy"], ["equiv", "blocks.json", "blocks-rfa.json"],
                        ["equiv", "ab.json", "astar.json"], ["equiv", "parity.json", "parity-rfa.json"],
                        ["dist", "example.json", "a", "aa"], ["dist", "example.json", "a", "aa", "--mode", "once"],
                        ["dist", "dense0.json", "ab", "ba"], ["dist", "dense1.json", "", "bb", "--mode", "once"]])

    cmds += [
        ["run", "missing.json", "a"],
        ["run", "broken.json", "a"],
        ["run", "bad_start.json", "a"],
        ["run", "example.json", "ax"],
        ["run", "dense0.json", "c", "--mode", "once"],
        ["run", "dense0.json", "c", "--mode", "scans", "--scans", "2"],
        ["run", "prfa-trio.json", "b"],
        ["run", "ab.json", "c"],
        ["analyze", "example.json"],
        ["analyze", "blocks-rfa.json"],
        ["analyze", "ab.json", "--monoid-cap", "2"],
        ["analyze", "ab.json", "--reversibilize", "ab-rfa.json"],
        ["build", "modp", "--p", "4", "-o", "x.json"],
        ["build", "equality", "--epsilon", "0", "-o", "x.json"],
        ["verify", "modp", "--p", "4"],
        ["verify", "modp-amplified", "--p", "9"],
        ["verify", "equality", "--n", "9", "--n-max", "4"],
        ["equiv", "example.json", "ab.json"],
        ["equiv", "ab.json", "prfa-trio.json"],
        ["dist", "ab.json", "a", "b"],
        ["dist", "example.json", "a", "b"],
        ["verify", "nothing"],
    ]
    return cmds


def _written_files(argv):
    return [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in ("-o", "--reversibilize")]


def _file_record(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    doc = json.loads(data)
    if doc.get("kind") == "qfa":
        return {"json": doc}
    return {"sha256": hashlib.sha256(data).hexdigest()}


def run_command(argv, recorded_files):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    lines = err.getvalue().splitlines(keepends=True)
    first = next((i for i, line in enumerate(lines) if "error:" in line), len(lines))
    return {
        "argv": list(argv),
        "code": code,
        "stdout": out.getvalue(),
        "stderr": "".join(lines[first:]),
        "files": {path: _file_record(path) for path in recorded_files},
    }


def transcript():
    """Run the battery in the current directory and return one record per command."""
    write_fixtures()
    records, seen = [], set()
    for argv in battery():
        # a file is recorded once, after the first command that writes it
        new = [path for path in _written_files(argv) if path not in seen]
        seen.update(new)
        records.append(run_command(argv, new))
    return records


def _close(a, b, where, problems):
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=0.0, abs_tol=JSON_FLOAT_TOL)):
            problems.append(f"{where}: {a!r} != {b!r}")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            problems.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
        for key in a.keys() & b.keys():
            _close(a[key], b[key], f"{where}.{key}", problems)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]", problems)
    elif type(a) is not type(b) or a != b:
        problems.append(f"{where}: {a!r} != {b!r}")


def differences(expected, actual):
    """Describe where ``actual`` departs from ``expected``; empty when they match.

    Text output must match exactly; ``--json`` output and quantum files match
    key by key with floats within ``JSON_FLOAT_TOL``.
    """
    problems = []
    if len(expected) != len(actual):
        problems.append(f"{len(actual)} commands, expected {len(expected)}")
    for want, got in zip(expected, actual):
        where = "qfa " + " ".join(want["argv"])
        if want["argv"] != got["argv"]:
            problems.append(f"{where}: the battery now runs {got['argv']}")
            continue
        for key in ("code", "stderr"):
            if want[key] != got[key]:
                problems.append(f"{where}: {key} {got[key]!r}, expected {want[key]!r}")
        if "--json" in want["argv"] and want["code"] in (0, 1):
            _close(json.loads(want["stdout"]), json.loads(got["stdout"]), where + " stdout", problems)
        elif want["stdout"] != got["stdout"]:
            problems.append(f"{where}: stdout {got['stdout']!r}, expected {want['stdout']!r}")
        _close(want["files"], got["files"], where + " files", problems)
    return problems


def main_regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            records = transcript()
        finally:
            os.chdir(here)
    os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
    print(f"{len(records)} commands -> {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
