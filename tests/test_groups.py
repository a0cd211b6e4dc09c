import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import leibcohom as L
from leibcohom.linalg import QQ, Matrix
from leibcohom.groups import (FiniteGroup, GroupAction, enumerate_subgroups,
                              orbit_category, validate_action,
                              fixed_subalgebra, restriction_map)
from leibcohom.leibniz import check_morphism

from conftest import rebasing


def test_group_validation():
    assert FiniteGroup.cyclic(4).validate().ok
    assert FiniteGroup.symmetric(3)[0].validate().ok


def test_subgroup_counts():
    assert len(enumerate_subgroups(FiniteGroup.cyclic(2))) == 2
    assert len(enumerate_subgroups(FiniteGroup.cyclic(4))) == 3
    s3, _ = FiniteGroup.symmetric(3)
    assert len(enumerate_subgroups(s3)) == 6


def test_subgroups_are_closed():
    s3, _ = FiniteGroup.symmetric(3)
    for H in enumerate_subgroups(s3):
        assert 0 in H
        for a in H:
            assert s3.inv(a) in H
            for b in H:
                assert s3.mul(a, b) in H


def test_orbit_category_z2():
    cat = orbit_category(FiniteGroup.cyclic(2))
    assert len(cat.morphisms) == 4
    e = frozenset({0})
    G = frozenset({0, 1})
    assert (e, e, 0) in cat.morphisms          # identity on G/e
    assert (e, e, 1) in cat.morphisms          # nontrivial self-map of G/e
    assert (e, G, 0) in cat.morphisms          # G/e -> G/G
    assert (G, G, 0) in cat.morphisms          # identity on G/G


def test_orbit_category_identities_present():
    s3, _ = FiniteGroup.symmetric(3)
    cat = orbit_category(s3)
    for H in cat.subgroups:
        assert (H, H, 0) in cat.morphisms


def test_orbit_category_trivial_group():
    cat = orbit_category(FiniteGroup.trivial())
    assert len(cat.subgroups) == 1 and len(cat.morphisms) == 1


def lambda6_action():
    return L.catalog("lambda6_z2").action


def test_validate_trivial_action(lambda6):
    group = FiniteGroup.cyclic(3)
    action = GroupAction(group, lambda6, [Matrix.identity(QQ, 3)] * 3)
    assert validate_action(action).ok


def test_validate_lambda6_z2():
    assert validate_action(lambda6_action()).ok


def test_validate_bad_action(lambda6):
    bad = Matrix.from_rows(QQ, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    action = GroupAction(FiniteGroup.cyclic(2), lambda6,
                         [Matrix.identity(QQ, 3), bad])
    v = validate_action(action)
    assert not v.ok
    pairs = [(i, j) for kind, (g, i, j), _ in
             [(k, loc, r) for k, loc, r in v.violations
              if k == "bracket_equivariance"]]
    assert (2, 2) in pairs


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_homomorphism_verdicts_match_a_fraction_loop(data):
    # Z/n on an abelian algebra (so every invertible psi_g is an algebra
    # map) by psi_g = S B^g S^-1, with S a rebasing times scalars that
    # carry denominators, and one psi_g (g != 0) changed in one entry or not
    n, B = data.draw(st.sampled_from([
        (2, [[-1, 0], [0, 1]]), (2, [[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
        (4, [[0, -1], [1, 0]]), (3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]))
    m = len(B)
    P, Q = rebasing(m, data.draw(st.integers(0, 99)))
    c = [Fraction(data.draw(st.sampled_from([1, -2, 3]))),
         *(Fraction(1, data.draw(st.sampled_from([1, 2, 3])))
           for _ in range(m - 1))]

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)]

    S = [[P[a][i] * c[i] for i in range(m)] for a in range(m)]
    Si = [[Q[i][a] / c[i] for a in range(m)] for i in range(m)]
    psi = [[[Fraction(int(i == j)) for j in range(m)] for i in range(m)]]
    for _ in range(n - 1):
        psi.append(mul(psi[-1], B))
    psi = [mul(mul(S, M), Si) for M in psi]
    if data.draw(st.booleans()):
        g = data.draw(st.integers(1, n - 1))
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        psi[g][i][j] += Fraction(1, data.draw(st.sampled_from([1, 2, 5])))
    group = FiniteGroup.cyclic(n)
    action = GroupAction(group, L.LeibnizAlgebra.zero_bracket(QQ, m),
                         [Matrix.from_rows(QQ, M) for M in psi])
    v = validate_action(action)
    assert [g for kind, g, _ in v.violations if kind == "homomorphism"] == [
        (g1, g2) for g1, g2 in product(range(n), repeat=2)
        if mul(psi[g1], psi[g2]) != psi[group.mul(g1, g2)]]


def test_fixed_subalgebra_trivial_subgroup():
    action = lambda6_action()
    fx = fixed_subalgebra(action, frozenset({0}))
    assert fx.dim == 3
    assert fx.inclusion == Matrix.identity(QQ, 3)


def test_fixed_subalgebra_full_group():
    action = lambda6_action()
    fx = fixed_subalgebra(action, frozenset({0, 1}))
    assert fx.dim == 1
    assert fx.inclusion.column(0) == [QQ.one(), QQ.zero(), QQ.zero()]
    # induced bracket on span(e1) is zero
    assert fx.algebra.structure[0][0] == [QQ.zero()]


def test_fixed_subalgebra_trivial_action(lambda6):
    group = FiniteGroup.cyclic(2)
    action = GroupAction(group, lambda6, [Matrix.identity(QQ, 3)] * 2)
    fx = fixed_subalgebra(action, frozenset({0, 1}))
    assert fx.dim == 3


def _all_fixed(action, cat):
    return {H: fixed_subalgebra(action, H) for H in cat.subgroups}


def test_restriction_identity_morphism():
    action = lambda6_action()
    cat = orbit_category(action.group)
    fixed = _all_fixed(action, cat)
    e = frozenset({0})
    phi = restriction_map(action, (e, e, 0), fixed)
    assert phi.matrix == Matrix.identity(QQ, 3)


def test_restriction_to_full_group():
    action = lambda6_action()
    cat = orbit_category(action.group)
    fixed = _all_fixed(action, cat)
    e, G = frozenset({0}), frozenset({0, 1})
    phi = restriction_map(action, (e, G, 0), fixed)
    # span(e1) included into g, in the standard bases
    assert phi.matrix.rows == 3 and phi.matrix.cols == 1
    assert phi.matrix.column(0) == [QQ.one(), QQ.zero(), QQ.zero()]


def test_restriction_nontrivial_self_map():
    action = lambda6_action()
    cat = orbit_category(action.group)
    fixed = _all_fixed(action, cat)
    e = frozenset({0})
    phi = restriction_map(action, (e, e, 1), fixed)
    assert phi.matrix == action.psi(1)


@pytest.mark.parametrize("group_factory", [
    lambda: FiniteGroup.cyclic(2),
    lambda: FiniteGroup.cyclic(4),
    lambda: FiniteGroup.symmetric(3),
])
def test_restriction_functoriality(group_factory, lambda6):
    made = group_factory()
    group = made[0] if isinstance(made, tuple) else made
    # trivial action suffices to exercise the category bookkeeping; the
    # lambda6_z2 case covers a nontrivial psi
    action = GroupAction(group, lambda6,
                         [Matrix.identity(QQ, 3)] * group.order)
    cat = orbit_category(group)
    fixed = _all_fixed(action, cat)
    maps = {m: restriction_map(action, m, fixed) for m in cat.morphisms}
    for m1 in cat.morphisms:
        for m2 in cat.morphisms:
            if m1[1] != m2[0]:
                continue
            comp = cat.compose(m1, m2)
            assert maps[comp].matrix == maps[m1].matrix.mul(maps[m2].matrix)


def test_restriction_functoriality_nontrivial():
    action = lambda6_action()
    cat = orbit_category(action.group)
    fixed = _all_fixed(action, cat)
    maps = {m: restriction_map(action, m, fixed) for m in cat.morphisms}
    for m1 in cat.morphisms:
        for m2 in cat.morphisms:
            if m1[1] != m2[0]:
                continue
            comp = cat.compose(m1, m2)
            assert maps[comp].matrix == maps[m1].matrix.mul(maps[m2].matrix)
    for m, phi in maps.items():
        assert check_morphism(phi).ok


def test_fixed_dim_monotone():
    action = lambda6_action()
    cat = orbit_category(action.group)
    fixed = _all_fixed(action, cat)
    dims = {H: fixed[H].dim for H in cat.subgroups}
    for H in cat.subgroups:
        for Hp in cat.subgroups:
            if Hp <= H:
                assert dims[H] <= dims[Hp]


def test_fixed_bracket_closure_exact():
    action = L.catalog("derived2_f2_z2").action
    cat = orbit_category(action.group)
    for H in cat.subgroups:
        fx = fixed_subalgebra(action, H)   # raises on closure failure
        assert L.check_leibniz_identity(fx.algebra).ok


def test_fixed_set_not_closed_rejected():
    # [e1,e1] = e2 while psi = diag(1,-1) fixes only e1: not an automorphism
    alg = L.LeibnizAlgebra(QQ, 2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
    action = GroupAction(FiniteGroup.cyclic(2), alg,
                         [Matrix.identity(QQ, 2),
                          Matrix.from_rows(QQ, [[1, 0], [0, -1]])])
    with pytest.raises(AssertionError, match="not closed under bracket"):
        fixed_subalgebra(action, frozenset({0, 1}))


def test_restriction_rejects_invalid_triple():
    alg = L.LeibnizAlgebra.zero_bracket(QQ, 2)
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    action = GroupAction(FiniteGroup.cyclic(2), alg,
                         [Matrix.identity(QQ, 2), swap])
    e, G = frozenset({0}), frozenset({0, 1})
    fixed = {H: fixed_subalgebra(action, H) for H in (e, G)}
    assert restriction_map(action, (e, G, 0), fixed).matrix.cols == 1
    # g^e is not inside g^G, so there is no map G/G -> G/e
    with pytest.raises(AssertionError, match="invalid morphism triple"):
        restriction_map(action, (G, e, 0), fixed)


OPTIMIZED_GUARDS = """
import leibcohom as L
from leibcohom.linalg import QQ, Matrix
assert False, "asserts must be stripped here"
try:
    Matrix(QQ, 2, 2, [[1, 2]])
except ValueError:
    print("shape guard")
alg = L.catalog("lambda6").algebra
double = Matrix.from_rows(QQ, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
action = L.GroupAction(L.FiniteGroup.trivial(), alg, [double])
e = frozenset({0})
try:
    L.restriction_map(action, (e, e, 0), {e: L.fixed_subalgebra(action, e)})
except AssertionError as exc:
    if "breaks the bracket" in str(exc):
        print("morphism guard")
try:
    L.FiniteGroup([[0, 1], [1]])
except ValueError:
    print("group shape guard")
G = frozenset({0, 1})
try:
    L.orbit_category(L.FiniteGroup.cyclic(2)).compose((e, G, 0), (e, G, 0))
except AssertionError as exc:
    if "cannot compose" in str(exc):
        print("composite guard")
action = L.catalog("lambda6_z2").action
category = L.orbit_category(action.group)
setup = L.EquivariantSetup(action, category,
                           L.constant_coefficients(category, QQ))
setup.restrictions[(e, e, 1)] = L.AlgebraMorphism(
    setup.fixed[e].algebra, setup.fixed[e].algebra,
    Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
try:
    setup.invariant_space(0)
except AssertionError as exc:
    if "leaves the invariant subspace" in str(exc):
        print("setup guard")
"""


def test_guards_survive_python_O():
    # psi = 2 Id on lambda6 is linear but doubles brackets, so it is no
    # algebra map, and neither is a restriction of lambda6_z2 that negates
    # e_3 alone, which a setup refuses at its first invariant space; the
    # guards must raise with asserts compiled away
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_GUARDS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:5] == ["shape guard", "morphism guard",
                                           "group shape guard",
                                           "composite guard", "setup guard"]
