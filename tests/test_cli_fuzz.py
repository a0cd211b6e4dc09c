"""A fuzzer over JSON problem documents.

Each example takes a small valid document, changes one count or scalar
in it and runs the CLI in-process on the result.  Whatever the change,
the run must end with exit code 0, 1 or 2, without an exception, within
a fixed time.  Some changes have a known outcome:

* a count or index (``p``, ``dim``, ``order``, table entries, ``i``,
  ``j``, ``subgroup``, ``H``, ``K``, ``g``, ``max_degree``) replaced by a
  float, a boolean, a string that spells no integer or a negative number
  is a parse error;
* a count replaced by the string that spells it gives the same report;
* a scalar replaced by a boolean is a parse error;
* a scalar string whose decimal exponent is over the JSON reader's digit
  limit is a parse error;
* a scalar string whose exponent is within that limit is computed (exit
  0) or refused by a check (exit 2): by ``validate`` with its report, by
  the other commands with a validation error.  The residual of a check
  may then hold an int too long to print, so no message may print it.

Two more fuzzers change what is around the values: the document's shape
(a key deleted, ``[]``, ``{}`` or ``null`` in place of a value, an extra
entry in an object or a list) and the command line (an argument
deleted, repeated, replaced or moved).  Each run must end with exit code
0, 1 or 2 and a report or a message, or, for a command line that
argparse refuses, with its ``SystemExit(2)``; never with a traceback.
A degree option below its least value (0 for ``--max-degree``, 1 for
``--p``, ``--q``, ``--r`` and ``--degrees``) is a parse error too.
"""

import contextlib
import copy
import functools
import io
import json
import os
import sys
import tempfile
import time

from hypothesis import example, given, settings, strategies as st

from leibcohom.cli import main

SECONDS = 5         # per example; the documents take milliseconds

Z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
LAMBDA6_Z2 = {
    "field": {"type": "rational"},
    "algebra": {"dim": 3, "brackets": [{"i": 1, "j": 3, "value": [0, 1, 0]},
                                       {"i": 3, "j": 3, "value": [1, 0, 0]}]},
    "group": Z2,
    "action": {"matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            [[1, 0, 0], [0, -1, 0], [0, 0, -1]]]},
    "max_degree": 2,
}


def _maps(identity, swap, project, top):
    """The four morphisms of the orbit category of Z/2 with their maps."""
    return [{"H": [0], "K": [0], "g": 0, "matrix": identity},
            {"H": [0], "K": [0], "g": 1, "matrix": swap},
            {"H": [0], "K": [0, 1], "g": 0, "matrix": project},
            {"H": [0, 1], "K": [0, 1], "g": 0, "matrix": top}]


ONE = {"i": 1, "j": 1, "value": [1]}
CONSTANT = {
    "systems": [{"subgroup": [0], "dim": 1, "products": [ONE], "unit": [1]},
                {"subgroup": [0, 1], "dim": 1, "products": [ONE],
                 "unit": [1]}],
    "maps": _maps([[1]], [[1]], [[1]], [[1]]),
}
# functions on the cosets of each subgroup, pointwise
COSETS = {
    "systems": [{"subgroup": [0], "dim": 2,
                 "products": [{"i": 1, "j": 1, "value": [1, 0]},
                              {"i": 2, "j": 2, "value": [0, 1]}],
                 "unit": [1, 1]},
                {"subgroup": [0, 1], "dim": 1, "products": [ONE],
                 "unit": [1]}],
    "maps": _maps([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1], [1]], [[1]]),
}
BASES = [
    dict(LAMBDA6_Z2, coefficients=CONSTANT),
    dict(LAMBDA6_Z2, coefficients=COSETS, max_degree=1),
    # [e1, e1] = e2 over GF(3), the group negating e1
    {"field": {"type": "prime", "p": 3},
     "algebra": {"dim": 2, "brackets": [{"i": 1, "j": 1, "value": [0, 1]}]},
     "group": Z2,
     "action": {"matrices": [[[1, 0], [0, 1]], [["-1", 0], [0, "1/4"]]]},
     "coefficients": CONSTANT, "max_degree": 2},
]
COMMANDS = [["validate"], ["cohomology", "--equivariant"]]

COUNTS = {"p", "dim", "order", "i", "j", "g", "max_degree"}
COUNT_LISTS = {"table", "subgroup", "H", "K"}
SCALAR_LISTS = {"value", "unit", "matrix", "matrices"}


def _entries(x, path):
    """The paths of the entries of a (nested) list."""
    if isinstance(x, list):
        for k, y in enumerate(x):
            yield from _entries(y, path + (k,))
    else:
        yield path


def leaves(doc, path=()):
    """(path, "count" or "scalar") for every count and scalar of a
    document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, x in items:
        if k in COUNTS:
            yield path + (k,), "count"
        elif k in COUNT_LISTS or k in SCALAR_LISTS:
            kind = "count" if k in COUNT_LISTS else "scalar"
            yield from ((p, kind) for p in _entries(x, path + (k,)))
        else:
            yield from leaves(x, path + (k,))


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


def run(argv, doc):
    """(exit code, stdout without its timestamp line, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path] + argv[1:])
        seconds = time.monotonic() - start
    body = [line for line in out.getvalue().splitlines()
            if not line.startswith("# generated ")]
    return code, body, err.getvalue(), seconds


@functools.cache
def unchanged(base, command):
    return run(COMMANDS[command], BASES[base])[:2]


@st.composite
def mutations(draw):
    """(base index, command index, path, new value, expected outcome):
    "refused" for a parse error, "same" for the base's report, or
    "checked" for exit 0, or exit 2 from a check."""
    base = draw(st.integers(0, len(BASES) - 1))
    command = draw(st.integers(0, len(COMMANDS) - 1))
    path, kind = draw(st.sampled_from(list(leaves(BASES[base]))))
    x = BASES[base]
    for k in path:
        x = x[k]
    if kind == "count":
        value = draw(st.sampled_from([
            float(x), x + 0.5, x % 2 == 0, "x", "1.0", -x - 1, str(x)]))
        return base, command, path, value, "same" if value == str(x) \
            else "refused"
    if draw(st.booleans()):
        return base, command, path, draw(st.booleans()), "refused"
    exponent = draw(st.integers(0, 10 ** 6))
    sign = draw(st.sampled_from(["", "-", "+"]))
    value = draw(st.sampled_from(["1", "-2.5", "3"])) + \
        draw(st.sampled_from(["e", "E"])) + sign + str(exponent)
    limit = sys.get_int_max_str_digits()
    return base, command, path, value, \
        "refused" if limit and exponent > limit else "checked"


@given(mutations())
@example((0, 1, ("action", "matrices", 1, 2, 0), "1e2150", "checked"))
@settings(max_examples=60, deadline=None)
def test_a_mutated_document_is_computed_or_refused(mutation):
    base, command, path, value, expected = mutation
    code, body, err, seconds = run(COMMANDS[command],
                                   replaced(BASES[base], path, value))
    assert seconds < SECONDS
    assert code in (0, 1, 2) and "Traceback" not in err
    if expected == "refused":
        assert code == 1 and err.startswith("parse error") and not body
    elif expected == "same":
        assert (code, body) == unchanged(base, command)
    elif code:                      # "checked", and refused by a check
        assert code == 2
        if COMMANDS[command] == ["validate"]:
            assert body and not err
        else:
            assert err.startswith("validation error") and not body


def test_the_bases_compute():
    for base in range(len(BASES)):
        for command in range(len(COMMANDS)):
            code, body = unchanged(base, command)
            assert code == 0 and body


def nodes(doc, path=()):
    """The path of every value in a document, object entries and list
    items alike, outermost first."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for k, x in items:
        yield path + (k,)
        yield from nodes(x, path + (k,))


def at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def shape_mutations(draw):
    """(base index, command index, description, mutated document)."""
    base = draw(st.integers(0, len(BASES) - 1))
    command = draw(st.integers(0, len(COMMANDS) - 1))
    doc = copy.deepcopy(BASES[base])
    kind = draw(st.sampled_from(["delete", "replace", "extend"]))
    if kind == "extend":
        path = draw(st.sampled_from([()] + [
            p for p in nodes(doc) if isinstance(at(doc, p), (dict, list))]))
        node = at(doc, path)
        if isinstance(node, dict):
            node["extra"] = 1
        else:
            node.append(copy.deepcopy(node[-1]) if node else 0)
        return base, command, (kind, path), doc
    path = draw(st.sampled_from(list(nodes(doc))))
    if kind == "delete":
        del at(doc, path[:-1])[path[-1]]
        return base, command, (kind, path), doc
    value = draw(st.sampled_from([[], {}, None]))
    at(doc, path[:-1])[path[-1]] = value
    return base, command, (kind, path, value), doc


def assert_computed_or_refused(code, body, err):
    assert "Traceback" not in err
    if code == 0:
        assert body and not err
    elif code == 1:
        assert err.startswith("parse error") and not body
    else:                   # a check's report, or a message
        assert code == 2 and (body or err)


@given(shape_mutations())
@settings(max_examples=150, deadline=None)
def test_a_reshaped_document_is_computed_or_refused(mutation):
    base, command, _, doc = mutation
    code, body, err, seconds = run(COMMANDS[command], doc)
    assert seconds < SECONDS
    assert_computed_or_refused(code, body, err)


ARGVS = [
    ["validate", "FILE"],
    ["cohomology", "FILE", "--equivariant", "--max-degree", "2"],
    ["homology", "FILE", "--max-degree", "2"],
    ["cup", "FILE", "--p", "1", "--q", "1"],
    ["zinbiel-check", "FILE", "--degrees", "1", "1", "1"],
    ["--json", "--catalog", "lambda6_z2", "cohomology", "--max-degree", "2"],
    ["rho-identity", "--p", "1", "--q", "1", "--r", "1"],
]
WORDS = ["FILE", "missing.json", "", "x", "-1", "0", "1", "3", "1.5",
         "--json", "--catalog", "lambda6", "lambda6_z2", "abelian_0",
         "--equivariant", "--max-degree", "--p", "--degrees", "validate",
         "cup"]


@st.composite
def argv_mutations(draw):
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["delete", "repeat", "replace", "move"]))
        if kind == "delete" and k < len(argv):
            del argv[k]
        elif kind == "repeat" and k < len(argv):
            argv.insert(k, argv[k])
        elif kind == "move" and k < len(argv):
            argv.insert(draw(st.integers(0, len(argv) - 1)), argv.pop(k))
        else:
            argv.insert(k, draw(st.sampled_from(WORDS)))
    return argv


def run_argv(argv):
    """(exit code, stdout without its timestamp line, stderr, seconds) of
    a command line, with "FILE" naming the first base document; the exit
    code is None where argparse refuses the line."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(BASES[0], fh)
        argv = [path if a == "FILE" else a for a in argv]
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:       # argparse refuses the line
                assert exc.code == 2
                code = None
        seconds = time.monotonic() - start
    body = [line for line in out.getvalue().splitlines()
            if not line.startswith("# generated ")]
    return code, body, err.getvalue(), seconds


@given(argv_mutations())
@settings(max_examples=150, deadline=None)
def test_a_mutated_command_line_is_computed_or_refused(argv):
    code, body, err, seconds = run_argv(argv)
    assert seconds < SECONDS
    if code is None:
        assert "Traceback" not in err and "usage:" in err
    else:
        assert_computed_or_refused(code, body, err)


# Every degree option of the command line takes its lower bound the same
# way: a value below it is a parse error with exit 1 that names the
# option, and the bound itself is computed.  (template, option, least)
DEGREE_OPTIONS = [
    (["cohomology", "FILE", "--equivariant", "--max-degree", "{}"],
     "--max-degree", 0),
    (["homology", "FILE", "--max-degree", "{}"], "--max-degree", 0),
    (["cup", "FILE", "--p", "{}", "--q", "1"], "--p", 1),
    (["cup", "FILE", "--p", "1", "--q", "{}"], "--q", 1),
    (["zinbiel-check", "FILE", "--degrees", "1", "{}", "1"], "--degrees", 1),
    (["rho-identity", "--p", "{}", "--q", "1", "--r", "1"], "--p", 1),
    (["rho-identity", "--p", "1", "--q", "1", "--r", "{}"], "--r", 1),
]


@given(st.sampled_from(DEGREE_OPTIONS), st.integers(1, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_a_degree_below_its_least_is_a_parse_error(option, below):
    template, name, least = option
    value = least - below
    code, body, err, _ = run_argv([a.format(value) for a in template])
    assert (code, body, err) == (
        1, [], f"parse error: {name}: {value} is below {least}\n")
    code, body, err, _ = run_argv([a.format(least) for a in template])
    assert code == 0 and body and not err


def test_the_upper_degree_bounds_stay_refusals():
    # p + q + r beyond the document's max_degree + 2, or beyond 9
    assert run_argv(["zinbiel-check", "FILE", "--degrees", "2", "2", "1"])[::2] \
        == (2, "degree overflow beyond configured max\n")
    assert run_argv(["rho-identity", "--p", "4", "--q", "3", "--r", "3"])[::2] \
        == (2, "require p+q+r <= 9\n")
