from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import leibcohom as L
from leibcohom.linalg import QQ, Matrix, vec_is_zero
from leibcohom.complexes import (CoefficientAlgebra, boundary_matrix,
                                 TensorSpace, cohomology, coboundary_matrix)
from leibcohom.shuffles import (perm_identity, perm_inverse, perm_compose,
                                perm_sign, shuffles, PermutationSum,
                                shuffle_sum, tilde, rho_sum, tau_perm,
                                tau_sum, rho_explicit_word,
                                check_rho_identity, cup_nonequivariant, cup,
                                zinbiel_check_on_cohomology,
                                FreeZinbielElement, free_zinbiel_product,
                                check_zinbiel_axiom)
from leibcohom.equivariant import EquivariantCochain


# -- permutations ---------------------------------------------------------

def test_perm_basics():
    s = (2, 1, 3)          # one-line notation on {1,2,3}
    assert perm_compose(s, perm_inverse(s)) == perm_identity(3)
    assert perm_sign(s) == -1
    assert perm_sign(perm_identity(5)) == 1


small_perms = st.integers(1, 5).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))))


@given(small_perms)
@settings(max_examples=50, deadline=None)
def test_sign_of_inverse(s):
    assert perm_sign(tuple(s)) == perm_sign(perm_inverse(tuple(s)))


@given(st.permutations((1, 2, 3, 4)), st.permutations((1, 2, 3, 4)))
@settings(max_examples=50, deadline=None)
def test_sign_multiplicative(s, t):
    s, t = tuple(s), tuple(t)
    assert perm_sign(perm_compose(s, t)) == perm_sign(s) * perm_sign(t)


@given(st.permutations((1, 2, 3)), st.permutations((1, 2, 3)))
@settings(max_examples=30, deadline=None)
def test_matrix_representation_homomorphism(s, t):
    s, t = tuple(s), tuple(t)
    ps, pt = PermutationSum.single(s), PermutationSum.single(t)
    m = 3
    assert (ps * pt).matrix(m, QQ) == ps.matrix(m, QQ).mul(pt.matrix(m, QQ))


# -- shuffles, tilde, rho, tau -------------------------------------------

def test_shuffle_counts():
    for p in range(0, 5):
        for q in range(0, 8 - p):
            assert len(list(shuffles(p, q))) == comb(p + q, p)


def test_shuffles_are_increasing_on_blocks():
    for sigma in shuffles(3, 2):
        inv = perm_inverse(sigma)
        assert list(sigma[:3]) == sorted(sigma[:3])
        assert list(sigma[3:]) == sorted(sigma[3:])


def test_tilde_is_an_involution():
    s = shuffle_sum(2, 2)
    assert tilde(tilde(s)) == s


def test_rho_1_1_is_identity():
    assert rho_sum(1, 1).terms == {perm_identity(2): Fraction(1)}


def test_rho_2_1_pinned():
    # rho_{2,1} = Id_1 (x) tilde(sh_{1,1}); sh_{1,1} = id + (2 1), so
    # tilde gives id - (2 1), embedded as id - (1 3 2) on three letters
    s = rho_sum(2, 1)
    assert s.terms == {(1, 2, 3): Fraction(1), (1, 3, 2): Fraction(-1)}


def test_tau_perm_block_swap():
    sigma = tau_perm(2, 1)
    ps = PermutationSum.single(sigma)
    assert ps.apply_word(("a", "b", "c")) == {("c", "a", "b"): Fraction(1)}


def test_rho_matches_explicit_formula():
    for p in range(1, 5):
        for q in range(1, 6 - p):
            n = p + q
            for word in product(range(3), repeat=n):
                assert rho_sum(p, q).apply_word(word) == \
                    rho_explicit_word(p, q, word)


def test_rho_matrix_agrees_with_word_action():
    p, q, m = 2, 2, 2
    mat = rho_sum(p, q).matrix(m, QQ)
    space = TensorSpace(m, p + q)
    words = list(space.words())
    for col, w in enumerate(words):
        expansion = rho_sum(p, q).apply_word(w)
        vec = mat.column(col)
        expected = {words[i]: vec[i] for i in range(len(words))
                    if vec[i] != QQ.zero()}
        assert expansion == expected


# -- the rho composition identity ----------------------------------------

def test_rho_identity_all_small():
    for p in range(1, 4):
        for q in range(1, 4):
            for r in range(1, 4):
                assert check_rho_identity(p, q, r).ok, (p, q, r)


def test_rho_identity_negative_control():
    v = check_rho_identity(2, 1, 1, flip_sign=True)
    assert not v.ok
    word, residual = v.violations[0]
    assert residual  # nonzero witness expansion


def test_rho_identity_matches_dense_matrices():
    # independent check: compose the actual matrices on a 4-letter alphabet
    p, q, r = 2, 1, 1
    n, m = p + q + r, 4
    f = QQ

    def mat(ps):
        return ps.matrix(m, f)

    lhs = mat(rho_sum(p, q).embed(n, 0)).mul(mat(rho_sum(p + q, r)))
    second = mat((tau_sum(r, q) * rho_sum(r, q)).embed(n, p))
    sign = f.coerce((-1) ** (r * q))
    first = mat(rho_sum(q, r).embed(n, p))
    first_rows, second_rows = first.data, second.data
    rhs_sum = Matrix(f, m ** n, m ** n,
                     [[f.add(first_rows[i][j], f.mul(sign, second_rows[i][j]))
                       for j in range(m ** n)] for i in range(m ** n)])
    rhs = rhs_sum.mul(mat(rho_sum(p, q + r)))
    assert lhs == rhs


# -- cup products ---------------------------------------------------------

def scalar_cochain(alg, n, values):
    """1 x m^n matrix cochain over the scalar coefficient algebra."""
    return Matrix.from_rows(alg.field, [values])


def test_cup_pinned_example(lambda6):
    # c = d = e3-dual in degree 1: (c cup d)(x, y) = x_3 y_3
    A = CoefficientAlgebra.scalar(QQ)
    c = scalar_cochain(lambda6, 1, [0, 0, 1])
    out = cup_nonequivariant(c, c, lambda6, A)
    space = TensorSpace(3, 2)
    expected = [QQ.one() if w == (2, 2) else QQ.zero() for w in space.words()]
    assert out.data == [expected]


@pytest.mark.parametrize("columns", [1, 2])
def test_cup_refuses_cochains_on_a_one_dimensional_algebra(columns):
    # every degree has 1^n = 1 column, so one column names no degree, and
    # the search for a power of 1 equal to two columns would never end
    alg = L.LeibnizAlgebra.zero_bracket(QQ, 1)
    c = Matrix.from_rows(QQ, [[1] * columns])
    with pytest.raises(ValueError, match="1-dimensional"):
        cup_nonequivariant(c, c, alg, CoefficientAlgebra.scalar(QQ))


def test_cup_degree_one_bilinear(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    c = scalar_cochain(lambda6, 1, [1, 2, 3])
    d = scalar_cochain(lambda6, 1, [0, 1, 0])
    out = cup_nonequivariant(c, d, lambda6, A)
    # rho_{1,1} = id, so (c cup d)(e_i, e_j) = c(e_i) d(e_j)
    space = TensorSpace(3, 2)
    for col, (i, j) in enumerate(space.words()):
        assert out.data[0][col] == c.data[0][i] * d.data[0][j]


def delta_plain(alg, c, n):
    """delta(c) = c o d_{n+1} for a plain cochain matrix c."""
    return c.mul(boundary_matrix(alg, n + 1).matrix)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_cup_leibniz_rule(lambda6, p, q):
    A = CoefficientAlgebra.scalar(QQ)
    m = 3
    # a deterministic spread of cochain values exercises all basis slots
    cvals = [QQ.coerce(((7 * k) % 11) - 5) for k in range(m ** p)]
    dvals = [QQ.coerce(((5 * k) % 13) - 6) for k in range(m ** q)]
    c = scalar_cochain(lambda6, p, cvals)
    d = scalar_cochain(lambda6, q, dvals)
    lhs = delta_plain(lambda6, cup_nonequivariant(c, d, lambda6, A), p + q)
    t1 = cup_nonequivariant(delta_plain(lambda6, c, p), d, lambda6, A)
    t2 = cup_nonequivariant(c, delta_plain(lambda6, d, q), lambda6, A)
    sign = QQ.coerce((-1) ** p)
    rhs = Matrix.from_rows(QQ, [[t1.data[0][j] + sign * t2.data[0][j]
                                 for j in range(t1.cols)]])
    assert lhs == rhs


def test_cocycle_cup_cocycle_is_cocycle(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    res1 = cohomology(lambda6, A, 1)
    res2 = cohomology(lambda6, A, 2)
    for u in res1.cocycle_basis:
        for v in res2.cocycle_basis:
            cu = scalar_cochain(lambda6, 1, u)
            cv = scalar_cochain(lambda6, 2, v)
            out = cup_nonequivariant(cu, cv, lambda6, A)
            d_out = delta_plain(lambda6, out, 3)
            assert all(x == QQ.zero() for x in d_out.data[0])


def test_cocycle_cup_coboundary_is_coboundary(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    from leibcohom.linalg import in_span
    res1 = cohomology(lambda6, A, 1)
    delta1 = coboundary_matrix(lambda6, A, 1)
    delta2 = coboundary_matrix(lambda6, A, 2)
    cb_images = [delta2.column(j) for j in range(delta2.cols)]
    for u in res1.cocycle_basis:
        cu = scalar_cochain(lambda6, 1, u)
        for j in range(delta1.cols):
            cb = scalar_cochain(lambda6, 2, delta1.column(j))
            out = cup_nonequivariant(cu, cb, lambda6, A)
            ok, _ = in_span(out.data[0], cb_images, field=QQ)
            assert ok


def test_equivariant_cup_preserves_invariance(lambda6_z2_setup):
    setup = lambda6_z2_setup
    s1 = setup.invariant_space(1)
    s2 = setup.invariant_space(2)
    for v in s1.basis:
        c = EquivariantCochain.from_ambient(setup, 1, v)
        for w in s2.basis:
            d = EquivariantCochain.from_ambient(setup, 2, w)
            out = cup(c, d, setup)     # asserts invariance internally
            assert out.degree == 3
            assert setup.check_invariance(out).ok


def test_cup_rejects_degree_zero(lambda6_z2_setup):
    setup = lambda6_z2_setup
    c0 = setup.cochain_from_invariant(0, [QQ.one()])
    c1 = setup.cochain_from_invariant(
        1, [QQ.one()] * setup.invariant_space(1).dim)
    with pytest.raises(ValueError):
        cup(c0, c1, setup)


def test_cup_rejects_noninvariant_input(lambda6_z2_setup):
    setup = lambda6_z2_setup
    total = setup.ambient_dim(1)
    vec = [QQ.zero()] * total
    vec[1] = QQ.one()
    bad = EquivariantCochain.from_ambient(setup, 1, vec)
    good = setup.cochain_from_invariant(
        1, [QQ.one()] * setup.invariant_space(1).dim)
    with pytest.raises(ValueError):
        cup(bad, good, setup)


def _cocycle_reps(setup, n):
    return [setup.cochain_from_invariant(n, coords)
            for coords in setup.cohomology(n).representatives]


def test_zinbiel_relation_on_derived2(derived2_setup):
    setup = derived2_setup
    reps = {n: _cocycle_reps(setup, n) for n in (1, 2)}
    checked = 0
    for p, q, r in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        for a in reps[p]:
            for b in reps[q]:
                for c in reps[r]:
                    assert zinbiel_check_on_cohomology(a, b, c, setup).ok
                    checked += 1
    assert checked == 4


def test_zinbiel_relation_on_abelian():
    setup = L.EquivariantSetup.trivial(L.catalog("abelian_2").algebra,
                                       CoefficientAlgebra.scalar(QQ))
    reps = _cocycle_reps(setup, 1)
    assert len(reps) == 2
    for a in reps:
        for b in reps:
            for c in reps:
                assert zinbiel_check_on_cohomology(a, b, c, setup).ok


def test_zinbiel_check_fails_with_a_nonassociative_coefficient_product():
    # unit u, x x = y, x y = x, y x = 0, so (x x) x = 0 but x (x x) = x.
    # With the trivial group on abelian_2, delta is 0, so the defect of
    # a = b = x e^1, c = x e^2 on the word (e1, e1, e2) is no coboundary
    alg = L.LeibnizAlgebra.zero_bracket(QQ, 2)
    group = L.FiniteGroup.trivial()
    category = L.orbit_category(group)
    mu = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
          [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    algebras = {H: CoefficientAlgebra(QQ, 3, mu, [1, 0, 0])
                for H in category.subgroups}
    maps = {m: Matrix.identity(QQ, 3) for m in category.morphisms}
    setup = L.EquivariantSetup(
        L.GroupAction(group, alg, [Matrix.identity(QQ, 2)]), category,
        L.CoefficientSystem(category, QQ, algebras, maps))
    H, = category.subgroups

    def x_at(j):
        return EquivariantCochain(1, {H: Matrix.from_rows(
            QQ, [[0, 0], [int(j == 0), int(j == 1)], [0, 0]])})

    verdict = zinbiel_check_on_cohomology(x_at(0), x_at(0), x_at(1), setup)
    assert not verdict.ok
    kind, witness = verdict.violations[0]
    assert kind == "defect_not_a_coboundary" and not vec_is_zero(QQ, witness)


# -- free zinbiel algebra -------------------------------------------------

def zw(w, alphabet=2, N=4):
    return FreeZinbielElement.word(alphabet, N, w)


def test_zinbiel_word_products():
    # (a)(b) = ab ; (a)(bc) = abc ; (ab)(c) = abc + acb
    assert free_zinbiel_product(zw((0,)), zw((1,))).coeffs == \
        {(0, 1): Fraction(1)}
    assert free_zinbiel_product(zw((0,)), zw((1, 0))).coeffs == \
        {(0, 1, 0): Fraction(1)}
    assert free_zinbiel_product(zw((0, 1)), zw((0,))).coeffs == \
        {(0, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}


def test_zinbiel_truncation():
    out = free_zinbiel_product(zw((0, 1)), zw((0, 1)), N=3)
    assert out.coeffs == {}


def test_zinbiel_axiom_holds():
    assert check_zinbiel_axiom(2, 4).ok
    assert check_zinbiel_axiom(3, 4).ok


def test_zinbiel_axiom_negative_control():
    v = check_zinbiel_axiom(2, 4, swap_shuffle=True)
    assert not v.ok
    assert v.violations  # concrete witness triples
