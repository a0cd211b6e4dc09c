import json

import pytest

from leibcohom.cli import main, parse_problem, ProblemParseError


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


def test_cup_rejects_degree_zero(capsys):
    code, _, err = run(capsys, ["--catalog", "lambda6_z2", "cup",
                                "--p", "0", "--q", "1"])
    assert code == 2


def test_zinbiel_check_command(capsys):
    code, out, _ = run(capsys, ["--catalog", "derived2_f2_z2",
                                "zinbiel-check", "--degrees", "1", "1", "1"])
    assert code == 0
    assert "triples_checked: 1" in out
    assert "failures: 0" in out


def test_zinbiel_check_bad_degrees(capsys):
    code, _, err = run(capsys, ["--catalog", "derived2_f2_z2",
                                "zinbiel-check", "--degrees", "0", "1", "1"])
    assert code == 2


def test_rho_identity_command(capsys):
    code, out, _ = run(capsys, ["rho-identity", "--p", "2", "--q", "2",
                                "--r", "2"])
    assert code == 0
    assert "identity: ok" in out


def test_rho_identity_bad_degrees(capsys):
    code, _, err = run(capsys, ["rho-identity", "--p", "0", "--q", "1",
                                "--r", "1"])
    assert code == 2


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


def test_parse_error_coefficient_unit_length(tmp_path, capsys):
    path = write(tmp_path, explicit_constant_doc(unit=[1, 0]))
    for argv in (["validate", path], ["cohomology", path, "--equivariant"]):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "parse error: coefficients" in err


def test_rational_string_scalars(tmp_path):
    doc = lambda6_doc()
    doc["algebra"]["brackets"][0]["value"] = ["0", "1/2", "0"]
    problem = parse_problem(doc)
    from fractions import Fraction
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


def test_validate_skips_action_when_group_fails(tmp_path, capsys):
    doc = one_dim_doc([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    code, out, _ = run(capsys, ["validate", write(tmp_path, doc)])
    assert code == 2
    assert "group_axioms: violations" in out
    assert "action_axioms" not in out and "coefficient_system" not in out
