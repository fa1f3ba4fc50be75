"""The CLI's output on a fixed battery of commands does not change.

The expected transcript is ``tests/data/cli_transcript.json``; see
``tests/cli_transcript.py`` for what is recorded and how to regenerate it.
"""

import json

from cli_transcript import EXPECTED, differences, transcript


def test_cli_transcript_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    problems = differences(expected, transcript())
    assert not problems, "\n".join(problems[:20])


def test_comparison_tolerates_only_tiny_json_float_drift():
    record = {"argv": ["verify", "modp", "--json"], "code": 0, "stderr": "",
              "stdout": json.dumps({"margin": 0.5, "pass": True}), "files": {}}
    assert differences([record], [dict(record, stdout=json.dumps({"margin": 0.5 + 1e-16, "pass": True}))]) == []
    assert differences([record], [dict(record, stdout=json.dumps({"margin": 0.5 + 1e-14, "pass": True}))])
    assert differences([record], [dict(record, stdout=json.dumps({"margin": 0.5, "pass": 1}))])
    text = dict(record, argv=["verify", "modp"], stdout="margin 5.000e-01\n")
    assert differences([text], [dict(text, stdout="margin 5.000e-01 \n")])
    assert differences([record], [dict(record, code=1)])
