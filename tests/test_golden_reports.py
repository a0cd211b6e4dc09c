"""Whole CLI reports, compared with the reports kept in
``tests/data/golden_reports.json``.

Each case is one ``leibcohom`` invocation; its exit code, standard output
and standard error must match the stored ones exactly once the timestamp
(the one non-deterministic field) is replaced by a placeholder.  Rewrite
the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from leibcohom.catalog import catalog
from leibcohom.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

CATALOG = ["lambda6", "lambda6_z2", "abelian_1", "abelian_2", "abelian_3",
           "derived2_f2_z2", "free_leib(2,1)_perm", "free_leib(2,2)_perm",
           "free_leib(3,1)_perm"]
PLAIN = [["validate"], ["cohomology"], ["homology"]]
EQUIVARIANT = [["cohomology", "--equivariant"], ["cup", "--p", "1", "--q", "1"],
               ["zinbiel-check", "--degrees", "1", "1", "1"]]
EDGE_DEGREES = [["cohomology", "--max-degree", "0"],
                ["cohomology", "--max-degree", "-1"],
                ["homology", "--max-degree", "0"],
                ["homology", "--max-degree", "-1"]]

# problem documents with fractional constants and over F_3; max_degree 3
LAMBDA6_BRACKETS = [{"i": 1, "j": 3, "value": [0, "1/2", 0]},
                    {"i": 3, "j": 3, "value": ["-2/5", 0, 0]}]
DOCUMENTS = {
    "lambda6-fractions": {"field": {"type": "rational"},
                          "algebra": {"dim": 3, "brackets": LAMBDA6_BRACKETS},
                          "max_degree": 3},
    "lambda6-gf3": {"field": {"type": "prime", "p": 3},
                    "algebra": {"dim": 3, "brackets": LAMBDA6_BRACKETS},
                    "max_degree": 3},
}


def cases():
    """(id, argv) pairs; a document's file name stands for its path."""
    out = []
    for name in CATALOG:
        commands = PLAIN + (EQUIVARIANT if catalog(name).action else [])
        if name in ("lambda6", "lambda6_z2"):
            commands = commands + EDGE_DEGREES
        if name == "lambda6_z2":
            commands = commands + [c[:1] + ["--equivariant"] + c[1:]
                                   for c in EDGE_DEGREES[:2]]
        out += [(f"{name}:{' '.join(c)}", ["--catalog", name] + c)
                for c in commands]
    for doc in DOCUMENTS:
        out += [(f"{doc}:{c[0]}", c + [f"{doc}.json"]) for c in PLAIN]
    return [(f"{cid}:{fmt}", (["--json"] if fmt == "json" else []) + argv)
            for cid, argv in out for fmt in ("text", "json")]


def write_documents(directory):
    for name, doc in DOCUMENTS.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))


def run_case(argv):
    """Exit code, stdout and stderr of one invocation, timestamp blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = re.sub(r"^# generated .*$", "# generated <timestamp>",
                  out.getvalue(), count=1, flags=re.M)
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "<timestamp>"',
                  text, count=1)
    return {"exit": code, "stdout": text, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cid, argv", cases(), ids=[c for c, _ in cases()])
def test_report_matches_golden(golden, tmp_path, monkeypatch, cid, argv):
    write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_case(argv) == golden[cid]


@pytest.mark.parametrize("cid", [c for c, _ in cases() if c.endswith(":text")])
def test_text_report_keys_are_unique_and_those_of_its_json_twin(golden, cid):
    text, twin = golden[cid], golden[cid[:-len("text")] + "json"]
    lines = text["stdout"].splitlines()[1:]         # after "# generated"
    keys = [line.split(": ", 1)[0] for line in lines]
    assert len(keys) == len(set(keys)), keys
    if twin["stdout"]:
        assert keys == [k for k in json.loads(twin["stdout"])
                        if k != "timestamp"]
    else:
        assert keys == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(Path(tmp))
        os.chdir(tmp)
        reports = {cid: run_case(argv) for cid, argv in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
