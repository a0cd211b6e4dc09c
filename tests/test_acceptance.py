"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with pytest -s / on failure)
and enforces its runtime budget.  Tolerances are zero: every comparison
is exact equality over Q or F_p.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import leibcohom as L
from leibcohom.linalg import QQ, GF, Matrix, in_span
from leibcohom.complexes import (CoefficientAlgebra, boundary_matrix,
                                 coboundary_matrix, homology, cohomology)
from leibcohom.equivariant import EquivariantCochain
from leibcohom.shuffles import (shuffles, rho_sum, rho_explicit_word,
                                check_rho_identity, cup,
                                zinbiel_check_on_cohomology,
                                check_zinbiel_axiom)
from leibcohom.cli import main

from conftest import ambient_coboundary, catalog_setup, reference_cohomology


SMALL_CATALOG = ["lambda6", "abelian_1", "abelian_2", "abelian_3",
                 "derived2_f2_z2"]


class Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        within_budget = elapsed < self.seconds
        status = "PASS" if exc_type is None and within_budget else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
              f"({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds}s budget"
        return False


def test_criterion_01_axiom_suite():
    with Budget(1, "axiom-suite", 1):
        for name in SMALL_CATALOG:
            assert L.check_leibniz_identity(L.catalog(name).algebra).ok, name
        alg, _ = L.free_leibniz_truncated(2, 3)
        assert L.check_leibniz_identity(alg).ok
        bad = L.LeibnizAlgebra(QQ, 1, [[[1]]])
        v = L.check_leibniz_identity(bad)
        assert not v.ok
        assert (0, 0, 0) in [t for t, _ in v.violations]


def test_criterion_02_complex_suite():
    with Budget(2, "complex-suite", 10):
        for name in SMALL_CATALOG:
            alg = L.catalog(name).algebra
            f = alg.field
            A = CoefficientAlgebra.scalar(f)
            for n in range(2, 5):
                dn = boundary_matrix(alg, n).matrix
                dn1 = boundary_matrix(alg, n + 1).matrix
                comp = dn.mul(dn1)
                assert all(x == f.zero() for row in comp.data for x in row)
            for n in range(0, 4):
                c1 = coboundary_matrix(alg, A, n)
                c2 = coboundary_matrix(alg, A, n + 1)
                comp = c2.mul(c1)
                assert all(x == f.zero() for row in comp.data for x in row)
        # the 14-dimensional free Leibniz entry is checked at desk scale
        big = L.catalog("free_leib(2,3)_perm").algebra
        d2 = boundary_matrix(big, 2).matrix
        d3 = boundary_matrix(big, 3).matrix
        comp = d2.mul(d3)
        assert all(x == QQ.zero() for row in comp.data for x in row)


def test_criterion_03_dimension_law():
    with Budget(3, "dimension-law", 30):
        for m in (1, 2, 3):
            setup = L.EquivariantSetup.trivial(
                L.catalog(f"abelian_{m}").algebra,
                CoefficientAlgebra.scalar(QQ))
            for n in range(1, 5):
                assert setup.cohomology(n).betti == m ** n, (m, n)


def test_criterion_04_lambda6_spot_values(lambda6):
    with Budget(4, "lambda6-spot-values", 1):
        assert homology(lambda6, 1).betti == 1
        A = CoefficientAlgebra.scalar(QQ)
        assert cohomology(lambda6, A, 1).betti == 1


def test_criterion_05_equivariant_reduction():
    with Budget(5, "equivariant-reduction", 60):
        # the trivial group's cohomology against the sympy reference on
        # the plain coboundary matrices
        for name in SMALL_CATALOG:
            alg = L.catalog(name).algebra
            A = CoefficientAlgebra.scalar(alg.field)
            setup = L.EquivariantSetup.trivial(alg, A)
            for n in range(0, 5):
                eq = setup.cohomology(n)
                assert (eq.betti, eq.cocycles, eq.coboundaries, eq.classes) \
                    == reference_cohomology(alg, A, n), (name, n)
        # the 14-dimensional entry reduces identically at desk scale
        big = L.catalog("free_leib(2,3)_perm").algebra
        A = CoefficientAlgebra.scalar(QQ)
        setup = L.EquivariantSetup.trivial(big, A)
        for n in range(0, 2):
            assert setup.cohomology(n).betti == \
                reference_cohomology(big, A, n)[0]


def test_criterion_06_invariance_lemma():
    with Budget(6, "invariance-lemma", 60):
        for name in ("lambda6_z2", "derived2_f2_z2"):
            for coeffs in ("constant", "coset-functions"):
                setup = catalog_setup(name, coefficients=coeffs)
                for n in range(0, 4):
                    D = ambient_coboundary(setup, n)
                    for v in setup.invariant_space(n).basis:
                        img = EquivariantCochain.from_ambient(
                            setup, n + 1, D.apply(v))
                        assert setup.check_invariance(img).ok, \
                            (name, coeffs, n)


def test_criterion_07_shuffle_suite():
    with Budget(7, "shuffle-suite", 30):
        for p in range(0, 8):
            for q in range(0, 8 - p):
                assert len(list(shuffles(p, q))) == comb(p + q, p)
        for p in range(1, 5):
            for q in range(1, 6 - p):
                for word in product(range(3), repeat=p + q):
                    assert rho_sum(p, q).apply_word(word) == \
                        rho_explicit_word(p, q, word)


def test_criterion_08_rho_identity():
    with Budget(8, "rho-identity", 30):
        for p in range(1, 4):
            for q in range(1, 4):
                for r in range(1, 4):
                    assert check_rho_identity(p, q, r).ok, (p, q, r)
        assert not check_rho_identity(1, 1, 1, flip_sign=True).ok


def _equivariant_delta(setup, cochain):
    n = cochain.degree
    img = ambient_coboundary(setup, n).apply(cochain.to_ambient(setup))
    return EquivariantCochain.from_ambient(setup, n + 1, img)


def _leibniz_defect(setup, c, d, sign_exponent):
    f = setup.field
    p, q = c.degree, d.degree
    lhs = _equivariant_delta(setup, cup(c, d, setup, check_invariance=False))
    t1 = cup(_equivariant_delta(setup, c), d, setup, check_invariance=False)
    t2 = cup(c, _equivariant_delta(setup, d), setup, check_invariance=False)
    sign = f.one() if sign_exponent % 2 == 0 else f.neg(f.one())
    return [f.sub(x, f.add(y, f.mul(sign, z)))
            for x, y, z in zip(lhs.to_ambient(setup), t1.to_ambient(setup),
                               t2.to_ambient(setup))]


def test_criterion_09_cup_leibniz_rule(lambda6_z2_setup):
    with Budget(9, "cup-leibniz-rule", 60):
        setup = lambda6_z2_setup
        f = setup.field
        # degree-convention oracle: the sign (-1)^p must work at (1,1) and
        # (1,2) while the (-1)^q variant must fail somewhere in range
        wrong_sign_survives = True
        for p, q in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            for v in setup.invariant_space(p).basis:
                c = EquivariantCochain.from_ambient(setup, p, v)
                for w in setup.invariant_space(q).basis:
                    d = EquivariantCochain.from_ambient(setup, q, w)
                    defect = _leibniz_defect(setup, c, d, p)
                    assert all(x == f.zero() for x in defect), (p, q)
                    if p % 2 != q % 2:
                        alt = _leibniz_defect(setup, c, d, q)
                        if any(x != f.zero() for x in alt):
                            wrong_sign_survives = False
        assert not wrong_sign_survives, \
            "sign convention oracle failed to discriminate"


def test_criterion_10_zinbiel_relation():
    with Budget(10, "zinbiel-relation", 120):
        setups = [
            ("abelian_2", L.EquivariantSetup.trivial(
                L.catalog("abelian_2").algebra,
                CoefficientAlgebra.scalar(QQ))),
            ("lambda6_z2", catalog_setup("lambda6_z2")),
            ("derived2_f2_z2", catalog_setup("derived2_f2_z2")),
        ]
        counts = {}
        for name, setup in setups:
            reps = {n: [setup.cochain_from_invariant(n, coords)
                        for coords in setup.cohomology(n).representatives]
                    for n in (1, 2)}
            checked = 0
            for p, q, r in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
                for a in reps[p]:
                    for b in reps[q]:
                        for c in reps[r]:
                            assert zinbiel_check_on_cohomology(
                                a, b, c, setup).ok, (name, p, q, r)
                            checked += 1
            counts[name] = checked
        assert counts["abelian_2"] == 56
        assert counts["derived2_f2_z2"] == 4
        # lambda6_z2 has no degree-1 classes with constant coefficients,
        # so its triple set in this range is exhaustively empty
        assert counts["lambda6_z2"] == 0


def test_criterion_11_free_zinbiel_axiom():
    with Budget(11, "free-zinbiel-axiom", 30):
        assert check_zinbiel_axiom(2, 4).ok
        assert not check_zinbiel_axiom(2, 4, swap_shuffle=True).ok


def test_criterion_12_cli_determinism(tmp_path, capsys):
    with Budget(12, "cli-determinism", 60):
        import json
        doc = {
            "field": {"type": "rational"},
            "algebra": {"dim": 3, "brackets": [
                {"i": 1, "j": 3, "value": [0, 1, 0]},
                {"i": 3, "j": 3, "value": [1, 0, 0]}]},
            "group": {"order": 2, "table": [[0, 1], [1, 0]]},
            "action": {"matrices": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[1, 0, 0], [0, -1, 0], [0, 0, -1]]]},
            "coefficients": "constant",
            "max_degree": 3,
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        commands = [
            (["validate", str(path)], 0),
            (["cohomology", str(path), "--max-degree", "2"], 0),
            (["cohomology", str(path), "--equivariant",
              "--max-degree", "3"], 0),
            (["homology", str(path), "--max-degree", "3"], 0),
            (["cup", str(path), "--p", "1", "--q", "2"], 0),
            (["zinbiel-check", str(path), "--degrees", "1", "1", "1"], 0),
            (["rho-identity", "--p", "2", "--q", "2", "--r", "2"], 0),
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        for argv, expected in commands:
            code1, out1 = run(argv)
            code2, out2 = run(argv)
            assert code1 == code2 == expected, argv
            body1 = [ln for ln in out1.splitlines()
                     if not ln.startswith("# generated ")]
            body2 = [ln for ln in out2.splitlines()
                     if not ln.startswith("# generated ")]
            assert body1 == body2, argv
        # exit code contract: 1 = parse error, 2 = validation failure
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _ = run(["validate", str(bad)])
        assert code == 1
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({
            "field": {"type": "rational"},
            "algebra": {"dim": 1,
                        "brackets": [{"i": 1, "j": 1, "value": [1]}]}}))
        code, _ = run(["validate", str(invalid)])
        assert code == 2
