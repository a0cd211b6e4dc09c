from fractions import Fraction
from itertools import combinations, permutations, product
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
                                check_rho_identity, cup,
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

def plain_cochain(setup, n, rows):
    """A cochain of degree n on the trivial group's setup: its one
    component, one row of values per coordinate of A."""
    H, = setup.category.subgroups
    return EquivariantCochain(n, {H: Matrix.from_rows(setup.field, rows)})


def values(x):
    """The one component of a cochain on the trivial group's setup."""
    matrix, = x.components.values()
    return matrix


def scalar_setup(alg):
    return L.EquivariantSetup.trivial(alg, CoefficientAlgebra.scalar(alg.field))


def test_cup_pinned_example(lambda6):
    # c = d = e3-dual in degree 1: (c cup d)(x, y) = x_3 y_3
    setup = scalar_setup(lambda6)
    c = plain_cochain(setup, 1, [[0, 0, 1]])
    out = cup(c, c, setup)
    space = TensorSpace(3, 2)
    expected = [QQ.one() if w == (2, 2) else QQ.zero() for w in space.words()]
    assert out.degree == 2
    assert values(out).data == [expected]


def test_cup_on_a_one_dimensional_algebra():
    # every degree has one word (e, ..., e); rho_{1,2} is the identity, and
    # rho_{2,1} = id - (1 3 2) sends (e, e, e) to itself twice, with
    # opposite signs
    setup = scalar_setup(L.LeibnizAlgebra.zero_bracket(QQ, 1))
    c = plain_cochain(setup, 1, [[2]])
    d = plain_cochain(setup, 2, [[3]])
    assert values(cup(c, d, setup)).data == [[6]]
    assert values(cup(d, c, setup)).data == [[0]]
    assert cup(d, c, setup).degree == 3


def test_cup_degree_one_bilinear(lambda6):
    setup = scalar_setup(lambda6)
    cvals, dvals = [1, 2, 3], [0, 1, 0]
    out = values(cup(plain_cochain(setup, 1, [cvals]),
                     plain_cochain(setup, 1, [dvals]), setup)).data
    # rho_{1,1} = id, so (c cup d)(e_i, e_j) = c(e_i) d(e_j)
    space = TensorSpace(3, 2)
    for col, (i, j) in enumerate(space.words()):
        assert out[0][col] == cvals[i] * dvals[j]


def oracle_cup(m, p, q, c, d):
    """(c cup d)(x_1..x_{p+q}) as a dict word -> [two ints], straight from
    the defining sum over the (p-1, q)-shuffles: x_1 and the letters at a
    set S of p - 1 of the positions 2..p+q go to c, the others to d, with
    the sign of the shuffle, and the values are multiplied pointwise, as
    functions on 2 points.  c and d map words to [two ints]."""
    n = p + q
    out = {}
    for word in product(range(m), repeat=n):
        acc = [0, 0]
        for S in combinations(range(1, n), p - 1):
            rest = [i for i in range(1, n) if i not in S]
            sign = (-1) ** sum(1 for s in S for r in rest if r < s)
            a = c[(word[0],) + tuple(word[i] for i in S)]
            b = d[tuple(word[i] for i in rest)]
            acc = [acc[k] + sign * a[k] * b[k] for k in range(2)]
        out[word] = acc
    return out


@st.composite
def cup_problems(draw):
    field = draw(st.sampled_from([QQ, L.GF(3)]))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4 - p))
    if m ** (p + q) > 27:
        m = 2
    ints = st.integers(-3, 3)

    def cochain(n):
        return {w: draw(st.lists(ints, min_size=2, max_size=2))
                for w in product(range(m), repeat=n)}

    return field, m, p, q, cochain(p), cochain(q)


@given(cup_problems())
@settings(max_examples=60, deadline=None)
def test_cup_matches_the_word_level_formula(problem):
    field, m, p, q, c, d = problem
    setup = L.EquivariantSetup.trivial(
        L.LeibnizAlgebra.zero_bracket(field, m),
        CoefficientAlgebra.pointwise_functions(field, 2))

    def as_cochain(x, n):       # words in lexicographic order
        return plain_cochain(setup, n, [[x[w][al] for w in sorted(x)]
                                        for al in range(2)])

    out = values(cup(as_cochain(c, p), as_cochain(d, q), setup)).data
    expected = oracle_cup(m, p, q, c, d)
    assert [[out[al][t] for al in range(2)]
            for t in range(m ** (p + q))] == \
        [[field.coerce(x) for x in expected[w]] for w in sorted(expected)]


def delta_plain(alg, x):
    """delta(x) = x o d_{n+1} for a plain cochain x of degree n."""
    n = x.degree
    return EquivariantCochain(n + 1, {
        H: m.mul(boundary_matrix(alg, n + 1).matrix)
        for H, m in x.components.items()})


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_cup_leibniz_rule(lambda6, p, q):
    setup = scalar_setup(lambda6)
    m = 3
    # a deterministic spread of cochain values exercises all basis slots
    cvals = [((7 * k) % 11) - 5 for k in range(m ** p)]
    dvals = [((5 * k) % 13) - 6 for k in range(m ** q)]
    c = plain_cochain(setup, p, [cvals])
    d = plain_cochain(setup, q, [dvals])
    lhs = values(delta_plain(lambda6, cup(c, d, setup)))
    t1 = values(cup(delta_plain(lambda6, c), d, setup)).data[0]
    t2 = values(cup(c, delta_plain(lambda6, d), setup)).data[0]
    sign = QQ.coerce((-1) ** p)
    rhs = Matrix.from_rows(QQ, [[t1[j] + sign * t2[j]
                                 for j in range(len(t1))]])
    assert lhs == rhs


def test_cocycle_cup_cocycle_is_cocycle(lambda6):
    setup = scalar_setup(lambda6)
    A = CoefficientAlgebra.scalar(QQ)
    res1 = cohomology(lambda6, A, 1)
    res2 = cohomology(lambda6, A, 2)
    for u in res1.cocycle_basis:
        for v in res2.cocycle_basis:
            cu = plain_cochain(setup, 1, [u])
            cv = plain_cochain(setup, 2, [v])
            d_out = values(delta_plain(lambda6, cup(cu, cv, setup)))
            assert d_out.is_zero()


def test_cocycle_cup_coboundary_is_coboundary(lambda6):
    setup = scalar_setup(lambda6)
    A = CoefficientAlgebra.scalar(QQ)
    from leibcohom.linalg import in_span
    res1 = cohomology(lambda6, A, 1)
    delta1 = coboundary_matrix(lambda6, A, 1)
    delta2 = coboundary_matrix(lambda6, A, 2)
    cb_images = [delta2.column(j) for j in range(delta2.cols)]
    for u in res1.cocycle_basis:
        cu = plain_cochain(setup, 1, [u])
        for j in range(delta1.cols):
            cb = plain_cochain(setup, 2, [delta1.column(j)])
            out = values(cup(cu, cb, setup))
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
