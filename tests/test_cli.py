import copy
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from leibcohom import cli
from leibcohom.catalog import catalog, lambda6
from leibcohom.cli import main, parse_problem, ProblemParseError
from leibcohom.complexes import (BoundaryChain, CoefficientAlgebra,
                                 betti_numbers, cohomology, homology)
from leibcohom.equivariant import EquivariantSetup
from leibcohom.groups import FiniteGroup
from leibcohom.leibniz import check_leibniz_identity, free_leibniz_truncated
from leibcohom.linalg import GF, Matrix
from leibcohom.verdict import Verdict

from conftest import rebased
from test_cli_fuzz import BASES, CONSTANT, COSETS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def lambda6_doc(**extra):
    doc = {
        "field": {"type": "rational"},
        "algebra": {
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 3, "value": [0, 1, 0]},
                {"i": 3, "j": 3, "value": [1, 0, 0]},
            ],
        },
        "max_degree": 3,
    }
    doc.update(extra)
    return doc


def lambda6_z2_doc(**extra):
    base = {
        "group": {"order": 2, "table": [[0, 1], [1, 0]]},
        "action": {"matrices": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        ]},
        "coefficients": "constant",
    }
    base.update(extra)
    return lambda6_doc(**base)


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_header(text):
    lines = text.splitlines()
    assert lines and lines[0].startswith("# generated ")
    return "\n".join(lines[1:])


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, lambda6_z2_doc())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    body = strip_header(out)
    assert "leibniz_identity: ok" in body
    assert "group_axioms: ok" in body
    assert "action_axioms: ok" in body
    assert "coefficient_system: ok" in body


def test_validate_catalog(capsys):
    code, out, _ = run(capsys, ["--catalog", "lambda6_z2", "validate"])
    assert code == 0
    assert "action_axioms: ok" in out


def test_parse_error_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "parse error" in err


def test_parse_error_malformed_table(tmp_path, capsys):
    doc = lambda6_doc(group={"order": 2, "table": [[0, 7], [1, 0]]})
    code, _, err = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 1
    assert "parse error" in err


def test_parse_error_missing_file(capsys):
    code, _, err = run(capsys, ["validate"])
    assert code == 1


def test_parse_error_bad_bracket_index(tmp_path):
    doc = lambda6_doc()
    doc["algebra"]["brackets"][0]["i"] = 9
    with pytest.raises(ProblemParseError):
        parse_problem(doc)


def test_validation_failure_exit_2(tmp_path, capsys):
    doc = {
        "field": {"type": "rational"},
        "algebra": {"dim": 1,
                    "brackets": [{"i": 1, "j": 1, "value": [1]}]},
    }
    code, out, _ = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 2
    assert "violations" in out


def test_validation_failure_bad_action(tmp_path, capsys):
    doc = lambda6_z2_doc()
    doc["action"]["matrices"][1] = [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    code, out, _ = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 2
    assert "action_axioms: violations" in out


def test_cohomology_plain(tmp_path, capsys):
    path = write(tmp_path, lambda6_doc())
    code, out, _ = run(capsys, ["cohomology", path, "--max-degree", "2"])
    assert code == 0
    body = strip_header(out)
    assert "betti_0: 1" in body
    assert "betti_1: 1" in body


def test_cohomology_equivariant_pins(tmp_path, capsys):
    path = write(tmp_path, lambda6_z2_doc())
    code, out, _ = run(capsys, ["cohomology", path, "--equivariant",
                                "--max-degree", "3"])
    assert code == 0
    body = strip_header(out)
    for line in ["invariant_dim_0: 1", "invariant_dim_1: 1",
                 "invariant_dim_2: 5", "invariant_dim_3: 13",
                 "betti_0: 1", "betti_1: 0", "betti_2: 1", "betti_3: 0"]:
        assert line in body


def test_cohomology_json(tmp_path, capsys):
    path = write(tmp_path, lambda6_doc())
    code, out, _ = run(capsys, ["--json", "cohomology", path,
                                "--max-degree", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "cohomology"
    assert "timestamp" in doc
    assert doc["betti_0"] == 1 and doc["betti_1"] == 1


def test_homology_catalog(capsys):
    code, out, _ = run(capsys, ["--catalog", "lambda6", "homology",
                                "--max-degree", "2"])
    assert code == 0
    assert "betti_1: 1" in out


def test_cup_command(capsys):
    code, out, _ = run(capsys, ["--catalog", "derived2_f2_z2", "cup",
                                "--p", "1", "--q", "1"])
    assert code == 0
    assert "pairs_checked: 1" in out
    assert "cup_0_0_invariant: ok" in out


def test_cup_checks_each_product_once(capsys, monkeypatch):
    degrees = []
    check = EquivariantSetup.check_invariance

    def counting(self, cochain):
        degrees.append(cochain.degree)
        return check(self, cochain)

    monkeypatch.setattr(EquivariantSetup, "check_invariance", counting)
    code, out, _ = run(capsys, ["--catalog", "free_leib(2,2)_perm", "cup",
                                "--p", "1", "--q", "2"])
    assert code == 0
    assert "pairs_checked: 4" in out and out.count(": ok") == 4
    assert degrees == [3] * 4


def test_cup_reports_a_product_that_fails_its_check(capsys, monkeypatch):
    check = EquivariantSetup.check_invariance

    def failing(self, cochain):
        if cochain.degree != 2:
            return check(self, cochain)
        m = self.category.morphisms[-1]
        residual = Matrix.from_entries(self.field, 1, 4, [{3: self.field.one()}])
        return Verdict.failed([(m, residual)])

    monkeypatch.setattr(EquivariantSetup, "check_invariance", failing)
    code, out, err = run(capsys, ["--catalog", "derived2_f2_z2", "cup",
                                  "--p", "1", "--q", "1"])
    assert code == 2 and "Traceback" not in err
    assert "cup_0_0_invariant: FAIL constraint ({0,1}, {0,1}, 0) " \
        "residual nonzero at [(0, 3)]" in out
    assert "pairs_checked: 1" in out


def test_cup_rejects_degree_zero(capsys):
    code, _, err = run(capsys, ["--catalog", "lambda6_z2", "cup",
                                "--p", "0", "--q", "1"])
    assert code == 1
    assert err.strip() == "parse error: --p: 0 is below 1"


def test_zinbiel_check_command(capsys):
    code, out, _ = run(capsys, ["--catalog", "derived2_f2_z2",
                                "zinbiel-check", "--degrees", "1", "1", "1"])
    assert code == 0
    assert "triples_checked: 1" in out
    assert "failures: 0" in out


def test_zinbiel_check_reports_a_failing_triple_with_its_defect(
        capsys, monkeypatch):
    # the defect of degree 3 on derived2_f2_z2: word 3 of the {0} block
    # (dim g = 2, constant coefficients) and the one word of the {0,1} block
    def failing(a, b, c, setup):
        defect = [0] * setup.ambient_dim(3)
        defect[3] = defect[8] = 1
        return Verdict.failed([("defect_not_a_coboundary", defect)])

    monkeypatch.setattr(cli, "zinbiel_check_on_cohomology", failing)
    code, out, err = run(capsys, ["--catalog", "derived2_f2_z2",
                                  "zinbiel-check", "--degrees", "1", "1", "1"])
    assert code == 2 and "Traceback" not in err
    assert "triple_0_0_0: FAIL defect_not_a_coboundary nonzero at " \
        "[({0}, 0, 3), ({0,1}, 0, 0)]" in out
    assert "triples_checked: 1" in out and "failures: 1" in out


@pytest.mark.parametrize("name, degrees", [
    ("derived2_f2_z2", [1, 1, 1]), ("derived2_f2_z2", [1, 2, 1]),
    ("lambda6_z2", [2, 2, 2])])
def test_zinbiel_check_reads_one_echelon_of_its_own_degree(
        capsys, monkeypatch, name, degrees):
    # the classes and the span test read the echelon of each degree's
    # coboundaries: no coboundary matrix X_n and no Matrix.rref, and a
    # check of total degree n builds nothing above degree n
    def refused(*args):
        raise AssertionError("a second elimination of the coboundaries")

    make_setup = cli.make_setup

    def make_then_refuse(problem):
        setup = make_setup(problem)         # validation takes its ranks
        monkeypatch.setattr(Matrix, "rref", refused)
        return setup

    monkeypatch.setattr(cli, "make_setup", make_then_refuse)
    monkeypatch.setattr(EquivariantSetup, "equivariant_coboundary", refused)
    built = {"invariant_space": [], "_delta_sums": []}
    for method, degrees_built in built.items():
        original = getattr(EquivariantSetup, method)

        def spy(setup, n, original=original, degrees_built=degrees_built):
            degrees_built.append(n)
            return original(setup, n)
        monkeypatch.setattr(EquivariantSetup, method, spy)
    steps = []
    step = BoundaryChain.step

    def step_spy(chain):
        step(chain)
        steps.append(chain.degree)
    monkeypatch.setattr(BoundaryChain, "step", step_spy)
    code, out, _ = run(capsys, ["--catalog", name, "zinbiel-check",
                                "--degrees", *map(str, degrees)])
    assert code == 0 and "failures: 0" in out
    n = sum(degrees)
    assert max(built["invariant_space"]) == n
    assert max(built["_delta_sums"]) == n - 1     # delta images in degree n
    assert max(steps) == n


def test_zinbiel_check_bad_degrees(capsys):
    code, _, err = run(capsys, ["--catalog", "derived2_f2_z2",
                                "zinbiel-check", "--degrees", "0", "1", "1"])
    assert code == 1
    assert err.strip() == "parse error: --degrees: 0 is below 1"


def test_rho_identity_command(capsys):
    code, out, _ = run(capsys, ["rho-identity", "--p", "2", "--q", "2",
                                "--r", "2"])
    assert code == 0
    assert "identity: ok" in out


def test_rho_identity_bad_degrees(capsys):
    code, _, err = run(capsys, ["rho-identity", "--p", "0", "--q", "1",
                                "--r", "1"])
    assert code == 1
    assert err.strip() == "parse error: --p: 0 is below 1"


def test_report_determinism_plain(tmp_path, capsys):
    path = write(tmp_path, lambda6_z2_doc())
    argv = ["cohomology", path, "--equivariant", "--max-degree", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert strip_header(out1) == strip_header(out2)


def test_report_determinism_json(tmp_path, capsys):
    path = write(tmp_path, lambda6_doc())
    argv = ["--json", "cohomology", path, "--max-degree", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timestamp"), d2.pop("timestamp")
    assert d1 == d2


def test_prime_field_problem(tmp_path, capsys):
    doc = {
        "field": {"type": "prime", "p": 2},
        "algebra": {"dim": 2,
                    "brackets": [{"i": 1, "j": 1, "value": [0, 1]}]},
        "max_degree": 3,
    }
    path = write(tmp_path, doc)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    code, out, _ = run(capsys, ["cohomology", path])
    assert code == 0


def explicit_constant_doc(identity_map=((1,),), unit=(1,)):
    """The constant system for Z/2 spelled out by hand; the map of the
    identity morphism of G/G and the unit of A(G/e) can be replaced."""
    return lambda6_z2_doc(coefficients={
        "systems": [
            {"subgroup": [0], "dim": 1,
             "products": [{"i": 1, "j": 1, "value": [1]}], "unit": list(unit)},
            {"subgroup": [0, 1], "dim": 1,
             "products": [{"i": 1, "j": 1, "value": [1]}], "unit": [1]},
        ],
        "maps": [
            {"H": [0], "K": [0], "g": 0, "matrix": [[1]]},
            {"H": [0], "K": [0], "g": 1, "matrix": [[1]]},
            {"H": [0], "K": [0, 1], "g": 0, "matrix": [[1]]},
            {"H": [0, 1], "K": [0, 1], "g": 0,
             "matrix": [list(r) for r in identity_map]},
        ],
    })


def test_explicit_coefficient_system(tmp_path, capsys):
    path = write(tmp_path, explicit_constant_doc())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    assert "coefficient_system: ok" in out
    code, out, _ = run(capsys, ["cohomology", path, "--equivariant",
                                "--max-degree", "2"])
    assert code == 0
    assert "betti_2: 1" in out


@pytest.mark.parametrize("identity_map, kind", [
    ([[2]], "unit"), ([[1], [1]], "shape")], ids=["not-unital", "wrong-shape"])
def test_validate_reports_bad_coefficient_system(tmp_path, capsys,
                                                  identity_map, kind):
    path = write(tmp_path, explicit_constant_doc(identity_map))
    code, out, _ = run(capsys, ["validate", path])
    assert code == 2
    assert f"coefficient_system: violations [('{kind}'" in out


# The trivial group on abelian_2 with A = K{u, x, y}: u the unit, x x = y,
# x y = x and y x = y y = 0, so x y != y x and (x x) x = 0 != x = x (x x).
# Before each A(G/H) was checked, ``validate`` passed it and
# ``zinbiel-check --degrees 1 1 1`` failed 40 of 216 triples.  CI runs
# ``validate`` on it as a negative control.
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
NONASSOCIATIVE_COEFFICIENTS = os.path.join(DATA,
                                           "nonassociative_coefficients.json")
# lambda6_z2 with the coset functions of Z/2 written out; CI diffs its
# reports against those of "coset-functions"
LAMBDA6_Z2_COSETS = os.path.join(DATA, "lambda6_z2_coset_functions.json")


def test_a_nonassociative_coefficient_algebra_is_refused(capsys):
    code, out, _ = run(capsys, ["validate", NONASSOCIATIVE_COEFFICIENTS])
    assert code == 2
    assert ("coefficient_system: violations [('algebra', (frozenset({0}), "
            "'commutativity', (1, 2)))") in out
    assert "'associativity', (1, 1, 1))" in out
    code, out, err = run(capsys, ["zinbiel-check", NONASSOCIATIVE_COEFFICIENTS,
                                  "--degrees", "1", "1", "1"])
    assert code == 2 and out == ""
    assert ("validation error: coefficient system axioms violated: "
            "('algebra', (frozenset({0}), 'commutativity', (1, 2)))") in err


def test_parse_error_coefficient_unit_length(tmp_path, capsys):
    path = write(tmp_path, explicit_constant_doc(unit=[1, 0]))
    for argv in (["validate", path], ["cohomology", path, "--equivariant"]):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "parse error: coefficients" in err


@pytest.mark.parametrize("index", [0, -1, 2])
def test_parse_error_coefficient_product_index(tmp_path, capsys, index):
    # index 0 or -1 would wrap to the last row of the product table
    doc = explicit_constant_doc()
    doc["coefficients"]["systems"][0]["products"][0]["i"] = index
    path = write(tmp_path, doc)
    for argv in (["validate", path], ["cohomology", path, "--equivariant"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "parse error: coefficients: product index out of range" in err


def test_rational_string_scalars(tmp_path):
    doc = lambda6_doc()
    doc["algebra"]["brackets"][0]["value"] = ["0", "1/2", "0"]
    problem = parse_problem(doc)
    assert problem.algebra.structure[0][2][1] == Fraction(1, 2)


def not_leibniz_doc(**extra):
    doc = {"field": {"type": "rational"},
           "algebra": {"dim": 1, "brackets": [{"i": 1, "j": 1, "value": [1]}]}}
    doc.update(extra)
    return doc


def one_dim_doc(table, **extra):
    doc = {"field": {"type": "rational"}, "algebra": {"dim": 1},
           "group": {"order": len(table), "table": table},
           "action": {"matrices": [[[1]]] * len(table)}}
    doc.update(extra)
    return doc


@pytest.mark.parametrize("doc", [
    lambda6_doc(field="rational"),
    lambda6_z2_doc(action=[]),
    lambda6_doc(max_degree="x"),
    lambda6_doc(algebra={"dim": -1}),
    lambda6_doc(algebra={"dim": "x"}),
    lambda6_doc(algebra={"dim": 1, "brackets": [{"i": 1, "j": 1, "value": 3}]}),
], ids=["field-string", "action-list", "max-degree-string", "negative-dim",
        "dim-string", "bracket-value-int"])
def test_parse_error_wrong_shape(tmp_path, capsys, doc):
    code, _, err = run(capsys, ["cohomology", write(tmp_path, doc)])
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize("argv, doc", [
    (["cohomology"], not_leibniz_doc()),
    (["cohomology", "--equivariant"], one_dim_doc([[1, 0], [0, 1]])),
    (["cohomology", "--equivariant"], lambda6_z2_doc(action={"matrices": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]})),
    (["cohomology", "--equivariant"], one_dim_doc([[0, 1], [1, 1]])),
    (["cup", "--p", "1", "--q", "1"], not_leibniz_doc(
        group={"order": 1, "table": [[0]]}, action={"matrices": [[[1]]]})),
    (["homology", "--max-degree", "3"], {"algebra": {"dim": 2, "brackets": [
        {"i": 1, "j": 1, "value": [1, 0]},
        {"i": 1, "j": 2, "value": [0, 1]}]}}),
    (["cohomology", "--equivariant"], explicit_constant_doc([[2]])),
    (["cohomology", "--equivariant"], explicit_constant_doc([[1], [1]])),
], ids=["not-leibniz", "no-identity", "action-breaks-bracket", "no-inverse",
        "cup-not-leibniz", "homology-not-leibniz", "coefficients-not-unital",
        "coefficients-wrong-shape"])
def test_invalid_input_exits_2(tmp_path, capsys, argv, doc):
    code, out, err = run(capsys, [argv[0], write(tmp_path, doc)] + argv[1:])
    assert code == 2
    assert "validation error" in err and out == ""


# -- the document read in one pass, and checked through one sequence ---------

# every command that reads a problem file
FILE_COMMANDS = [["validate"], ["cohomology"], ["homology"],
                 ["cohomology", "--equivariant"], ["cup", "--p", "1", "--q", "1"],
                 ["zinbiel-check", "--degrees", "1", "1", "1"]]


def run_file(capsys, tmp_path, argv, doc):
    return run(capsys, [argv[0], write(tmp_path, doc)] + argv[1:])


def repeated(doc, *path):
    """The document with its list at ``path`` given its last entry twice."""
    doc = copy.deepcopy(doc)
    entries = doc
    for k in path:
        entries = entries[k]
    entries.append(copy.deepcopy(entries[-1]))
    return doc


@pytest.mark.parametrize("path, message", [
    (("coefficients", "systems"),
     "coefficients: subgroup [0, 1] given twice in systems"),
    (("coefficients", "maps"),
     "coefficients: the map of ({0,1}, {0,1}, 0) given twice"),
    (("coefficients", "systems", 0, "products"),
     "coefficients: product (i, j) = (1, 1) given twice for subgroup [0]"),
    (("algebra", "brackets"), "algebra: bracket (i, j) = (3, 3) given twice"),
], ids=["subgroup", "map", "product", "bracket"])
def test_a_repeated_entry_is_a_parse_error(tmp_path, capsys, path, message):
    # the copy agrees with the entry it repeats, which it used to replace
    doc = repeated(explicit_constant_doc(), *path)
    for argv in FILE_COMMANDS:
        assert run_file(capsys, tmp_path, argv, doc) == (
            1, "", f"parse error: {message}\n")


def test_a_map_of_no_morphism_is_a_parse_error(tmp_path, capsys):
    # on Z/2 there is no G-map G/{0,1} -> G/{0}
    doc = explicit_constant_doc()
    doc["coefficients"]["maps"].append(
        {"H": [0, 1], "K": [0], "g": 0, "matrix": [[1]]})
    for argv in FILE_COMMANDS:
        assert run_file(capsys, tmp_path, argv, doc) == (
            1, "", "parse error: coefficients: the map of ({0,1}, {0}, 0) "
                   "is not a morphism of the orbit category\n")


@pytest.mark.parametrize("doc, message", [
    (lambda6_doc(coefficients="bogus"), "coefficients: unknown spec 'bogus'"),
    (lambda6_doc(coefficients=None), "coefficients: unknown spec None"),
    # the group axioms fail, and the coefficients are refused before them
    (one_dim_doc([[0, 1, 2], [1, 0, 1], [2, 2, 0]],
                 coefficients={"maps": []}), "KeyError: 'systems'"),
], ids=["unknown-name", "null", "no-systems"])
def test_coefficients_are_read_with_the_document(tmp_path, capsys, doc,
                                                 message):
    for argv in FILE_COMMANDS:
        assert run_file(capsys, tmp_path, argv, doc) == (
            1, "", f"parse error: {message}\n")


def given_systems():
    """(id, document with a given system, the name of the same system):
    the systems of Z/2 written out in the basis order of
    ``coset_function_coefficients``."""
    with open(LAMBDA6_Z2_COSETS) as fh:
        cosets = json.load(fh)
    gf3 = BASES[2]
    return [("lambda6_z2-constant", lambda6_z2_doc(coefficients=CONSTANT),
             "constant"),
            ("lambda6_z2-coset-functions", cosets, "coset-functions"),
            ("gf3-constant", dict(gf3, coefficients=CONSTANT), "constant"),
            ("gf3-coset-functions", dict(gf3, coefficients=COSETS),
             "coset-functions")]


@pytest.mark.parametrize("argv", FILE_COMMANDS[:1] + FILE_COMMANDS[3:],
                         ids=" ".join)
@pytest.mark.parametrize("given, name", [case[1:] for case in given_systems()],
                         ids=[case[0] for case in given_systems()])
def test_a_given_system_reports_as_its_named_system(tmp_path, capsys, argv,
                                                     given, name):
    code, out, err = run_file(capsys, tmp_path, argv, given)
    named = run_file(capsys, tmp_path, argv, dict(given, coefficients=name))
    assert code == 0 and not err
    assert (code, strip_header(out), err) == (
        named[0], strip_header(named[1]), named[2])


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("given", [True, False], ids=["given", "named"])
def test_each_check_runs_once_per_command(tmp_path, capsys, monkeypatch, argv,
                                          given):
    calls = dict.fromkeys(["check_leibniz_identity", "FiniteGroup.validate",
                           "validate_action", "check_coefficient_system"], 0)

    def counted(name, check):
        def spy(*args):
            calls[name] += 1
            return check(*args)
        return spy

    for name in ("check_leibniz_identity", "validate_action",
                 "check_coefficient_system"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.setattr(FiniteGroup, "validate",
                        counted("FiniteGroup.validate", FiniteGroup.validate))
    doc = explicit_constant_doc() if given else lambda6_z2_doc()
    code, out, _ = run_file(capsys, tmp_path, argv, doc)
    assert code == 0 and out
    # a named system is a coefficient system by construction
    assert calls == {"check_leibniz_identity": 1, "FiniteGroup.validate": 1,
                     "validate_action": 1, "check_coefficient_system":
                     int(given or argv == ["validate"])}


def _huge_residual_docs():
    """An action and an algebra whose first violation has a residual with
    a scalar past the digit limit that ``str`` puts on ints."""
    z2 = lambda6_z2_doc(max_degree=2)
    z2["action"]["matrices"][1][2][0] = "1e2150"
    two = {"field": {"type": "rational"},
           "algebra": {"dim": 2, "brackets": [
               {"i": 1, "j": 1, "value": [0, "1e2200"]},
               {"i": 2, "j": 1, "value": ["1e2200", 0]}]}}
    return z2, two


@pytest.mark.parametrize("argv, which", [
    (["cohomology"], 0), (["cohomology", "--equivariant"], 0),
    (["cohomology"], 1), (["homology"], 1)],
    ids=["action-plain", "action-equivariant", "algebra-cohomology",
         "algebra-homology"])
def test_a_violation_with_a_huge_residual_is_a_validation_error(
        tmp_path, capsys, argv, which):
    # the message names the check and its indices, not the residual
    doc = _huge_residual_docs()[which]
    code, out, err = run(capsys, [argv[0], write(tmp_path, doc)] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and "Traceback" not in err
    assert err.strip().endswith(")") and len(err) < 200


def test_validate_lists_the_first_ten_violations_and_the_total(tmp_path,
                                                                capsys):
    # [e_i, e_j] = s = e_1 + e_2 + e_3 for all i, j: [e_i, [e_j, e_k]] = 3s
    # while [[e_i, e_j], e_k] - [[e_i, e_k], e_j] = 0, so all 27 triples fail
    doc = lambda6_doc(algebra={"dim": 3, "brackets": [
        {"i": i, "j": j, "value": [1, 1, 1]}
        for i in range(1, 4) for j in range(1, 4)]})
    code, out, _ = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 2
    first = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    assert (f"leibniz_identity: violations at triples {first[:10]} "
            "(27 in all)\n") in out
    # ten or fewer are listed without a total
    doc = lambda6_doc(algebra={"dim": 1, "brackets": [
        {"i": 1, "j": 1, "value": [1]}]})
    code, out, _ = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 2
    assert "leibniz_identity: violations at triples [(0, 0, 0)]\n" in out


def test_validate_skips_action_when_group_fails(tmp_path, capsys):
    doc = one_dim_doc([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    code, out, _ = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 2
    assert "group_axioms: violations" in out
    assert "action_axioms" not in out and "coefficient_system" not in out


@pytest.mark.parametrize("p", ["1" + "0" * 400, "1000000000000000003", "7" * 5000],
                         ids=["401-digit", "prime-1e18", "5000-digit"])
def test_large_prime_is_a_quick_parse_error(tmp_path, capsys, p):
    # a 401-digit p is beyond the prime test's exact range and a 5000-digit
    # one beyond what json reads; the prime 10^18 + 3 is accepted at once,
    # and there the missing algebra is the error
    path = tmp_path / "problem.json"
    path.write_text('{"field": {"type": "prime", "p": ' + p + '}}')
    start = time.monotonic()
    code, out, err = run(capsys, ["validate", str(path)])
    assert time.monotonic() - start < 5
    assert code == 1 and out == ""
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("scalar", ["1e-99999999", "1e-3000000", "2.5E+4301"])
def test_a_scalar_with_a_huge_exponent_is_a_quick_parse_error(tmp_path,
                                                               scalar):
    # Fraction would build 10 to the power of the exponent; the bound is the
    # digit limit json puts on integers.  A subprocess, so that a stall
    # fails the test instead of hanging it.
    doc = lambda6_doc()
    doc["algebra"]["brackets"][0]["value"] = [0, scalar, 0]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "leibcohom.cli",
                           "cohomology", write(tmp_path, doc)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 5
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("parse error: bad scalar")


@pytest.mark.parametrize("scalar, value", [
    ("3/4", Fraction(3, 4)), ("-2.5", Fraction(-5, 2)), ("1e3", 1000),
    (" 1E-4300 ", Fraction(1, 10 ** 4300)), ("-1_0e+1_0", -10 ** 11)])
def test_scalar_strings_within_the_exponent_bound(scalar, value):
    doc = lambda6_doc()
    doc["algebra"]["brackets"][0]["value"] = [0, scalar, 0]
    assert parse_problem(doc).algebra.structure[0][2][1] == value


@pytest.mark.parametrize("doc, argv", [
    (lambda6_doc(field={"type": "prime", "p": 2.9}), []),
    (lambda6_doc(field={"type": "prime", "p": 2.0}), []),
    (lambda6_doc(algebra={"dim": 2.7}), []),
    (lambda6_doc(algebra={"dim": True}), []),
    (lambda6_doc(algebra={"dim": 2, "brackets": [
        {"i": 1.9, "j": 1, "value": [0, 1]}]}), []),
    (lambda6_doc(max_degree=-4), []),
    (lambda6_doc(), ["--max-degree", "-1"]),
    (lambda6_z2_doc(group={"order": 2, "table": [[0, 1], [1, False]]}), []),
], ids=["p-float", "p-integral-float", "dim-float", "dim-boolean", "i-float",
        "max-degree-negative", "argv-max-degree-negative", "table-boolean"])
def test_counts_are_integers_and_degrees_nonnegative(tmp_path, capsys, doc,
                                                     argv):
    code, out, err = run(capsys, ["cohomology", write(tmp_path, doc)] + argv)
    assert code == 1 and out == ""
    assert err.startswith("parse error") and "Traceback" not in err


def test_counts_may_be_strings_that_spell_integers(tmp_path, capsys):
    doc = lambda6_z2_doc(max_degree="2", group={"order": "2",
                                                "table": [["0", 1], [1, 0]]})
    doc["algebra"]["dim"] = " 3 "
    doc["algebra"]["brackets"][0]["i"] = "1"
    code, out, _ = run(capsys, ["cohomology", "--equivariant",
                                write(tmp_path, doc)])
    expected = run(capsys, ["cohomology", "--equivariant",
                            write(tmp_path, lambda6_z2_doc(max_degree=2))])
    assert code == 0 and strip_header(out) == strip_header(expected[1])


def test_prime_field_near_1e18(tmp_path, capsys):
    doc = {"field": {"type": "prime", "p": 10 ** 18 + 3},
           "algebra": {"dim": 1, "brackets": []}}
    code, out, _ = run(capsys, ["cohomology", write(tmp_path, doc),
                                "--max-degree", "2"])
    assert code == 0
    assert strip_header(out).splitlines()[1:] == ["betti_0: 1", "betti_1: 1",
                                                  "betti_2: 1"]


# -- the plain Betti numbers the CLI reads off one rank per boundary map ------

def plain_algebras():
    """Every catalog algebra, and two over F_2."""
    return [(name, catalog(name).algebra) for name in
            ["lambda6", "abelian_1", "abelian_2", "abelian_3", "derived2_f2_z2",
             "free_leib(2,1)_perm", "free_leib(3,1)_perm", "free_leib(2,2)_perm"]
            ] + [("lambda6-gf2", lambda6(GF(2))),
                 ("free_leib(2,2)-gf2", free_leibniz_truncated(2, 2, GF(2))[0])]


@pytest.mark.parametrize("name, alg", plain_algebras(),
                         ids=[name for name, _ in plain_algebras()])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_betti_numbers_from_ranks_match_the_complexes(name, alg, seed):
    if seed is not None:
        alg = rebased(alg, seed)
        assert check_leibniz_identity(alg).ok
    A = CoefficientAlgebra.scalar(alg.field)
    betti = betti_numbers(alg, 4)
    assert betti == [cohomology(alg, A, n).betti for n in range(5)]
    assert betti[1:] == [homology(alg, n).betti for n in range(1, 5)]


def test_betti_numbers_at_degree_zero_and_below():
    alg = catalog("lambda6").algebra
    assert betti_numbers(alg, 0) == [1]
    assert betti_numbers(alg, -1) == betti_numbers(alg, -5) == []


def test_one_parser_per_process_keeps_no_state(capsys):
    argv = ["--catalog", "lambda6_z2", "cohomology", "--max-degree", "1"]
    parser = cli.build_parser()
    for bad in (["--catalog", "lambda6_z2", "cohomology", "--max-degree", "x"],
                ["--help"], ["cohomology", "--help"]):
        with pytest.raises(SystemExit):
            main(bad)
    capsys.readouterr()
    code, out, _ = run(capsys, ["--json"] + argv[:3] + ["--equivariant"]
                       + argv[3:])
    assert code == 0 and json.loads(out)["invariant_dim_1"] == 1
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert strip_header(out) == "command: cohomology\nbetti_0: 1\nbetti_1: 1"
    assert cli.build_parser() is parser


# -- a reader that closes stdout early ----------------------------------------

# 1-dimensional, [e, e] = e: [e, [e, e]] = e but [[e, e], e] - [[e, e], e] = 0
NOT_LEIBNIZ = {"field": {"type": "rational"},
               "algebra": {"dim": 1, "brackets": [{"i": 1, "j": 1, "value": [1]}]}}


@pytest.mark.parametrize("argv, doc, code", [
    (["--catalog", "lambda6", "cohomology", "--max-degree", "3"], None, 0),
    (["--json", "--catalog", "lambda6", "cohomology", "--max-degree", "3"],
     None, 0),
    (["validate"], NOT_LEIBNIZ, 2),
], ids=["text", "json", "failed-check"])
def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(
        tmp_path, argv, doc, code):
    # the reader is gone before the report is written, as in `| (exit 0)`
    if doc is not None:
        argv = argv + [write(tmp_path, doc)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "leibcohom.cli"] + argv,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == code
    assert err == b""


# -- the size pre-flight ------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["--catalog", "abelian_3", "cohomology", "--max-degree", "14"],
    ["--catalog", "lambda6_z2", "cup", "--p", "9", "--q", "9"],
], ids=["cohomology-degree-14", "cup-9-9"])
def test_size_preflight_refuses_quickly(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "leibcohom.cli"] + argv,
                          env=env, capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("size error: ")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["--catalog", "abelian_1", "homology", "--max-degree", "100000000"],
    ["--catalog", "lambda6", "cohomology", "--max-degree", "9"],
    ["--catalog", "lambda6_z2", "cohomology", "--equivariant",
     "--max-degree", "9"],
    ["--catalog", "lambda6_z2", "cohomology", "--equivariant",
     "--max-degree", str(10 ** 12)],
], ids=["abelian_1-many-degrees", "plain-degree-9", "equivariant-degree-9",
        "equivariant-huge-degree"])
def test_size_preflight_refuses_in_process(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, argv)
    assert time.monotonic() - start < 5
    assert code == 2 and out == "" and err.startswith("size error: ")


def test_size_preflight_uses_the_document_max_degree(tmp_path, capsys):
    path = write(tmp_path, lambda6_doc(max_degree=9))
    for command in ("cohomology", "homology"):
        code, _, err = run(capsys, [command, path])
        assert code == 2 and "size error" in err


def test_size_preflight_zinbiel_check(tmp_path, capsys):
    path = write(tmp_path, lambda6_z2_doc(max_degree=20))
    code, out, err = run(capsys, ["zinbiel-check", path,
                                  "--degrees", "4", "3", "3"])
    assert code == 2 and out == "" and "degree 10 is over" in err


def test_size_budget_admits_plain_lambda6_to_degree_8():
    # degree 9 is the top of a tower up to 8: 3^0 + ... + 3^9 = 29524
    cli.check_size(9, lambda n: 3 ** n)
    with pytest.raises(cli.ProblemSizeError):
        cli.check_size(10, lambda n: 3 ** n)


# -- catalog names and the dimension bound ------------------------------------

@pytest.mark.parametrize("name", ["nosuch", "abelian_0", "free_leib(0,2)_perm",
                                  "free_leib(2,0)_perm"])
def test_unknown_or_degenerate_catalog_name_is_a_parse_error(capsys, name):
    code, out, err = run(capsys, ["--catalog", name, "validate"])
    assert code == 1 and out == ""
    assert err.startswith("parse error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["free_leib(6,6)_perm", "abelian_99999999",
                                  "free_leib(1,99999999999)_perm",
                                  f"abelian_{cli.MAX_ALGEBRA_DIM + 1}"])
def test_oversized_catalog_entry_is_refused_before_it_is_built(
        capsys, monkeypatch, name):
    def forbidden(name):
        raise AssertionError(f"{name} was built")

    monkeypatch.setattr(cli, "catalog", forbidden)
    code, out, err = run(capsys, ["--catalog", name, "cohomology"])
    assert code == 2 and out == ""
    assert err.startswith("size error: ") and len(err.splitlines()) == 1


# the names the tests, scripts, README and benchmark use
CATALOG_IN_USE = ["lambda6", "lambda6_z2", "derived2_f2_z2", "abelian_1",
                  "abelian_2", "abelian_3", "free_leib(2,1)_perm",
                  "free_leib(3,1)_perm", "free_leib(2,2)_perm",
                  "free_leib(2,3)_perm"]


@pytest.mark.parametrize("name", CATALOG_IN_USE + [
    f"abelian_{cli.MAX_ALGEBRA_DIM}", "free_leib(1,24)_perm",
    "free_leib(4,2)_perm"])
def test_catalog_dimension_is_read_off_the_name(name):
    dim = catalog(name).algebra.dim
    assert dim <= cli.MAX_ALGEBRA_DIM
    assert cli.catalog_dimension(name, cli.MAX_ALGEBRA_DIM) == dim
    assert cli.catalog_dimension(name, dim - 1) is None


def test_dimension_bound_refuses_before_the_table_is_built(tmp_path, capsys):
    # a 3000^3 table would exhaust memory; the bound is checked first
    for dim in (3000, cli.MAX_ALGEBRA_DIM + 1):
        path = write(tmp_path, {"algebra": {"dim": dim}})
        for argv in (["validate", path], ["cohomology", path]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert err.startswith("size error: ")


def test_coefficient_dimension_bound_refuses_before_the_table_is_built(
        tmp_path, capsys):
    # an explicit coefficient algebra's product table has dim^3 entries too
    for dim in (3000, cli.MAX_ALGEBRA_DIM + 1):
        doc = explicit_constant_doc()
        doc["coefficients"]["systems"][0]["dim"] = dim
        path = write(tmp_path, doc)
        for argv in (["validate", path], ["cohomology", path, "--equivariant"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == ""
            assert err.startswith("size error: coefficients: dimension")


def test_dimension_bound_edge_validates_quickly(tmp_path, capsys):
    # at the bound, an empty table and a dense one (not Leibniz: every
    # triple is checked and reported) are both answered; the dense table
    # is the Leibniz check's worst case
    m = cli.MAX_ALGEBRA_DIM
    empty = write(tmp_path, {"algebra": {"dim": m}}, "empty.json")
    dense = write(tmp_path, {"algebra": {"dim": m, "brackets": [
        {"i": i, "j": j, "value": [(i * j + k) % 5 - 2 for k in range(m)]}
        for i in range(1, m + 1) for j in range(1, m + 1)]}}, "dense.json")
    start = time.monotonic()
    code, out, _ = run(capsys, ["validate", empty])
    assert code == 0 and "leibniz_identity: ok" in out
    code, out, _ = run(capsys, ["cohomology", empty, "--max-degree", "1"])
    assert code == 0 and f"betti_1: {m}" in out
    code, out, _ = run(capsys, ["validate", dense])
    assert code == 2 and "leibniz_identity: violations" in out
    assert time.monotonic() - start < 30

