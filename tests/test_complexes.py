from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import leibcohom as L
from leibcohom.catalog import lambda6 as lambda6_over
from leibcohom.leibniz import free_leibniz_truncated
from leibcohom.linalg import (QQ, GF, Matrix, clear_denominators,
                              combination, dense_vector, kernel_basis,
                              last_pivot_echelon, rank)
from leibcohom.complexes import (BoundaryChain, TensorSpace, boundary_matrix,
                                 coboundary_matrix, CoefficientAlgebra,
                                 homology, cohomology, _representatives)

from conftest import (greedy_independent, reference_cohomology, sympy_kernel,
                      word_boundary)
from test_linalg import textbook_rref


# ---------------------------------------------------------------------------
# Independent oracle: expand d on a word symbolically as a dict word -> coeff.
# This mirrors the defining sum directly, with no matrix bookkeeping.
# ---------------------------------------------------------------------------

def oracle_boundary(alg, word):
    n = len(word)
    f = alg.field
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            sign = f.one() if (j + 1) % 2 == 0 else f.neg(f.one())
            br = alg.basis_bracket(word[i], word[j])
            for k in range(alg.dim):
                if br[k] == f.zero():
                    continue
                new = word[:i] + (k,) + word[i + 1:j] + word[j + 1:]
                c = f.mul(sign, br[k])
                out[new] = f.add(out.get(new, f.zero()), c)
    return {w: c for w, c in out.items() if c != f.zero()}


def matrix_column_as_dict(alg, n, word):
    d = boundary_matrix(alg, n)
    src = TensorSpace(alg.dim, n)
    dst = TensorSpace(alg.dim, n - 1)
    col = d.column(src.index(word))
    words = list(dst.words())
    return {words[r]: col[r] for r in range(dst.dim)
            if col[r] != alg.field.zero()}


def test_boundary_matches_oracle_everywhere(lambda6):
    for n in (2, 3, 4):
        src = TensorSpace(3, n)
        for word in src.words():
            assert matrix_column_as_dict(lambda6, n, word) == \
                oracle_boundary(lambda6, word)


def test_boundary_pinned_values(lambda6):
    # d(e1 (x) e3) = [e1,e3] = e2 ; indices are 0-based here
    assert matrix_column_as_dict(lambda6, 2, (0, 2)) == {(1,): Fraction(1)}
    # d(e3 (x) e3 (x) e3): i<j terms give +(e1,e3) - (e1,e3) - (e3,e1)
    assert matrix_column_as_dict(lambda6, 3, (2, 2, 2)) == \
        {(2, 0): Fraction(-1)}


def test_boundary_rejects_low_degree(lambda6):
    with pytest.raises(ValueError):
        boundary_matrix(lambda6, 1)


def test_d_squared_zero(lambda6):
    for n in (3, 4, 5):
        dn = boundary_matrix(lambda6, n)
        dn1 = boundary_matrix(lambda6, n - 1)
        comp = dn1.mul(dn)
        assert all(x == QQ.zero() for row in comp.data for x in row)


def test_d_squared_zero_mod_two():
    alg = L.catalog("derived2_f2_z2").algebra
    for n in (3, 4, 5):
        dn = boundary_matrix(alg, n)
        dn1 = boundary_matrix(alg, n - 1)
        comp = dn1.mul(dn)
        assert all(x == 0 for row in comp.data for x in row)


def test_delta_squared_zero(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    for n in range(0, 4):
        d1 = coboundary_matrix(lambda6, A, n)
        d2 = coboundary_matrix(lambda6, A, n + 1)
        comp = d2.mul(d1)
        assert all(x == QQ.zero() for row in comp.data for x in row)


def test_coboundary_is_transpose_for_scalar(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    for n in (1, 2, 3):
        assert coboundary_matrix(lambda6, A, n) == \
            boundary_matrix(lambda6, n + 1).transpose()


def test_coboundary_degree_zero(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    m = coboundary_matrix(lambda6, A, 0)
    assert m.rows == 3 and m.cols == 1
    assert all(x == QQ.zero() for row in m.data for x in row)


def test_homology_lambda6(lambda6):
    assert homology(lambda6, 1).betti == 1
    res = homology(lambda6, 2)
    assert res.chain_dimension == 9
    assert res.betti == len(res.cycle_basis) - len(res.boundary_basis)
    for v in res.cycle_basis:
        assert not any(boundary_matrix(lambda6, 2).apply(v))


def test_homology_abelian():
    alg = L.catalog("abelian_2").algebra
    for n in (1, 2, 3):
        assert homology(alg, n).betti == 2 ** n


def test_cohomology_lambda6_scalar(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    assert cohomology(lambda6, A, 0).betti == 1   # CL^0 = A and delta^0 = 0
    assert cohomology(lambda6, A, 1).betti == 1


def test_duality_scalar_coefficients(lambda6):
    # over a field with A = K the cochain complex is the transpose, so the
    # betti numbers of HL^n and HL_n agree
    A = CoefficientAlgebra.scalar(QQ)
    for n in (1, 2, 3):
        assert cohomology(lambda6, A, n).betti == homology(lambda6, n).betti


# Plain cohomology is the trivial group's equivariant cohomology; the
# reference is ``conftest.reference_cohomology``, sympy on the coboundary
# matrices.
PLAIN_TOPS = {"lambda6": 4, "abelian_2": 3, "derived2_f2_z2": 5,
              "free_leib(2,2)_perm": 2, "free_leib(3,1)_perm": 2}


@pytest.mark.parametrize("points", [None, 2, 3])
@pytest.mark.parametrize("name", list(PLAIN_TOPS))
def test_cohomology_matches_the_sympy_reference(name, points):
    alg = L.catalog(name).algebra
    A = CoefficientAlgebra.scalar(alg.field) if points is None else \
        CoefficientAlgebra.pointwise_functions(alg.field, points)
    top = PLAIN_TOPS[name] if points is None else \
        min(PLAIN_TOPS[name], 3 if points == 2 else 2)
    for n in range(top + 1):
        res = cohomology(alg, A, n)
        assert res.cochain_dimension == alg.dim ** n * A.dim
        assert (res.betti, res.cocycles, res.coboundaries, res.classes) == \
            reference_cohomology(alg, A, n), n


def test_cohomology_representatives_are_cocycles(lambda6):
    A = CoefficientAlgebra.scalar(QQ)
    res = cohomology(lambda6, A, 2)
    delta = coboundary_matrix(lambda6, A, 2)
    for v in res.representatives:
        assert not any(delta.apply(v))
    assert len(res.representatives) == res.betti


def test_coefficient_algebra_validation():
    assert CoefficientAlgebra.scalar(QQ).validate().ok
    A = CoefficientAlgebra.pointwise_functions(QQ, 3)
    assert A.validate().ok
    one = [QQ.one()] * 3
    assert A.mu.apply([QQ.one()] * 9) == one        # mu(1 (x) 1) = 1
    # nonassociative, noncommutative product must be rejected
    bad = CoefficientAlgebra(QQ, 2,
                             [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
                             [1, 0])
    assert not bad.validate().ok


def test_mu_columns_are_the_products():
    table = [[[1, 0], [0, 2]], [[0, 2], [Fraction(1, 3), 0]]]
    A = CoefficientAlgebra(QQ, 2, table, [1, 0])
    assert (A.mu.rows, A.mu.cols) == (2, 4)
    for i, j in product(range(2), repeat=2):
        assert A.mu.column(i * 2 + j) == table[i][j]


def reference_validate(f, d, table, unit):
    """The algebra axioms on the basis by a dense triple loop over field
    elements, in the order commutativity, associativity, unit."""
    def mul(a, b):
        out = [f.zero()] * d
        for i, j, k in product(range(d), repeat=3):
            out[k] = f.add(out[k], f.mul(f.mul(a[i], b[j]), table[i][j][k]))
        return out

    e = [[f.one() if t == i else f.zero() for t in range(d)]
         for i in range(d)]
    out = [("commutativity", (i, j)) for i, j in product(range(d), repeat=2)
           if mul(e[i], e[j]) != mul(e[j], e[i])]
    out += [("associativity", (i, j, k))
            for i, j, k in product(range(d), repeat=3)
            if mul(mul(e[i], e[j]), e[k]) != mul(e[i], mul(e[j], e[k]))]
    out += [("unit", i) for i in range(d)
            if mul(unit, e[i]) != e[i] or mul(e[i], unit) != e[i]]
    return out


@st.composite
def coefficient_tables(draw):
    """A field, a dimension d <= 4, and a product table with a unit: drawn
    at random, or the pointwise functions on d points in a basis of
    rescaled indicator functions c_i e_i, with a few entries changed, so
    that both verdicts occur, with denominators over Q."""
    f = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    d = draw(st.integers(0, 4))
    scalars = {QQ: [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)],
               GF(2): [1], GF(3): [1, 2]}[f]
    entries = st.sampled_from([0, 0] + scalars).map(f.coerce)
    if draw(st.booleans()):
        table = draw(st.lists(st.lists(st.lists(
            entries, min_size=d, max_size=d), min_size=d, max_size=d),
            min_size=d, max_size=d))
        unit = draw(st.lists(entries, min_size=d, max_size=d))
    else:
        # (c_i e_i)(c_i e_i) = c_i (c_i e_i), with unit sum_i (1/c_i) c_i e_i
        c = draw(st.lists(st.sampled_from(scalars).map(f.coerce),
                          min_size=d, max_size=d))
        table = [[[c[i] if i == j == k else f.zero() for k in range(d)]
                  for j in range(d)] for i in range(d)]
        unit = [f.inv(x) for x in c]
        if d:
            for i, j, k, x in draw(st.lists(st.tuples(
                    *[st.integers(0, d - 1)] * 3, entries), max_size=2)):
                table[i][j][k] = x
    return f, d, table, unit


@given(coefficient_tables())
@settings(max_examples=150, deadline=None)
def test_validate_matches_a_dense_triple_loop(problem):
    f, d, table, unit = problem
    verdict = CoefficientAlgebra(f, d, table, unit).validate()
    expected = reference_validate(f, d, table, unit)
    assert verdict.violations == expected
    assert verdict.ok == (not expected)


@st.composite
def small_algebras(draw):
    dim = draw(st.integers(1, 2))
    entries = st.integers(-2, 2)
    structure = draw(st.lists(
        st.lists(st.lists(entries, min_size=dim, max_size=dim),
                 min_size=dim, max_size=dim),
        min_size=dim, max_size=dim))
    return L.LeibnizAlgebra(QQ, dim, structure)


@given(small_algebras())
@settings(max_examples=40, deadline=None)
def test_d_squared_zero_iff_leibniz(alg):
    # d^2 = 0 on degree 3 is exactly the Leibniz identity
    d3 = boundary_matrix(alg, 3)
    d2 = boundary_matrix(alg, 2)
    comp = d2.mul(d3)
    is_zero = all(x == QQ.zero() for row in comp.data for x in row)
    assert is_zero == L.check_leibniz_identity(alg).ok


@given(small_algebras())
@settings(max_examples=25, deadline=None)
def test_euler_characteristic_consistency(alg):
    # rank-nullity bookkeeping: betti_n = dim ker d_n - rank d_{n+1}
    if not L.check_leibniz_identity(alg).ok:
        return
    m = alg.dim
    for n in (1, 2):
        res = homology(alg, n)
        dn1 = boundary_matrix(alg, n + 1)
        kernel_dim = m ** n if n == 1 else \
            m ** n - rank(boundary_matrix(alg, n))
        assert res.betti == kernel_dim - rank(dn1)


# ---------------------------------------------------------------------------
# Word-level oracle, ``conftest.word_boundary``, written straight from the
# formula and sharing no code with the program, taken over Q with the
# structure constants as Fractions.
# ---------------------------------------------------------------------------

@st.composite
def structure_constants(draw, fractional):
    m = draw(st.integers(1, 3))
    dens = st.integers(1, 7) if fractional else st.just(1)
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), dens))
    return draw(st.lists(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=m, max_size=m),
                         min_size=m, max_size=m))


def as_pairs(mat):
    return {(r, c): x for r, row in enumerate(mat.entries)
            for c, x in row.items()}


@given(structure_constants(fractional=True), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_boundary_matches_fraction_oracle_over_q(structure, n):
    m = len(structure)
    d = boundary_matrix(L.LeibnizAlgebra(QQ, m, structure), n)
    assert (d.rows, d.cols) == (m ** (n - 1), m ** n)
    got = as_pairs(d)
    assert all(type(x) is Fraction for x in got.values())
    assert got == word_boundary(QQ, structure, m, n)


@given(structure_constants(fractional=False), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_boundary_matches_fraction_oracle_over_gf3(structure, n):
    m = len(structure)
    d = boundary_matrix(L.LeibnizAlgebra(GF(3), m, structure), n)
    want = {key: int(x) % 3 for key, x in
            word_boundary(QQ, structure, m, n).items()}
    assert as_pairs(d) == {key: x for key, x in want.items() if x}


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("name", ["lambda6", "derived2_f2_z2"])
def test_coboundary_is_transpose_kron_identity(name, a):
    alg = L.catalog(name).algebra
    f = alg.field
    A = CoefficientAlgebra.pointwise_functions(f, a)
    for n in (1, 2, 3):
        assert coboundary_matrix(alg, A, n) == \
            boundary_matrix(alg, n + 1).transpose().kron(
                Matrix.identity(f, a))
    assert coboundary_matrix(alg, A, 0) == Matrix.zero(f, alg.dim * a, a)


# ---------------------------------------------------------------------------
# The boundary rows come from a one-degree step.  Reference: the defining
# double sum over i < j, written out here on int rows over the common
# denominator of the structure constants, sharing no code with the step.
# The step needs no Leibniz identity, so random brackets are fair game.
# ---------------------------------------------------------------------------

def double_loop_boundary_ints(alg, n):
    """d_n^T for n >= 2 as int rows and their common denominator c, one
    row per source word, each bracket term summed in ints (mod p over F_p,
    where c = 1)."""
    m = alg.dim
    p = alg.field.characteristic
    c = 1
    for row in alg.structure:
        for v in row:
            for x in v:
                c = c * x.denominator // gcd(c, x.denominator)
    s = [[[x.numerator * (c // x.denominator) for x in v] for v in row]
         for row in alg.structure]
    targets = {w: t for t, w in enumerate(product(range(m), repeat=n - 1))}
    rows = []
    for word in product(range(m), repeat=n):
        acc = {}
        for j in range(1, n):          # 0-based; the sign is (-1)^(j+1)
            sign = -1 if j % 2 == 0 else 1
            for i in range(j):
                rest = word[:j] + word[j + 1:]
                for k, x in enumerate(s[word[i]][word[j]]):
                    if x:
                        t = targets[rest[:i] + (k,) + rest[i + 1:]]
                        acc[t] = acc.get(t, 0) + sign * x
        if p:
            rows.append({t: y for t, x in acc.items() if (y := x % p)})
        else:
            rows.append({t: x for t, x in acc.items() if x})
    return rows, c


def _step_algebras():
    """The catalog algebras over Q, and algebras over F_2 and F_3."""
    names = ["lambda6", "abelian_3", "derived2_f2_z2", "free_leib(2,2)_perm"]
    return [(name, L.catalog(name).algebra, 5) for name in names] + [
        ("lambda6-gf2", lambda6_over(GF(2)), 6),
        ("lambda6-gf3", lambda6_over(GF(3)), 6),
        ("free_leib(2,2)-gf3", free_leibniz_truncated(2, 2, GF(3))[0], 3)]


@pytest.mark.parametrize("name, alg, top", _step_algebras(),
                         ids=[name for name, _, _ in _step_algebras()])
def test_boundary_step_matches_the_double_loop(name, alg, top):
    chain = BoundaryChain(alg)
    for n in range(2, top + 1):
        rows, c = double_loop_boundary_ints(alg, n)
        assert chain.at(n) == rows, n
        assert chain.denominator == c
    # a lower degree is built again from d_1
    assert chain.at(2) == double_loop_boundary_ints(alg, 2)[0]
    assert chain.degree == 2


@st.composite
def bilinear_brackets(draw):
    """Any structure constants over Q (with denominators), F_2 or F_3."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    structure = draw(structure_constants(fractional=field == QQ))
    return L.LeibnizAlgebra(field, len(structure), structure)


@given(bilinear_brackets(), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_boundary_step_matches_the_double_loop_on_random_brackets(alg, n):
    chain = BoundaryChain(alg)
    rows = chain.at(n)
    assert (rows, chain.denominator) == double_loop_boundary_ints(alg, n)


# ---------------------------------------------------------------------------
# homology(n) reads the cycles and the boundaries off one BoundaryChain.
# The cycles must be sympy's null space of d_n in reduced-echelon form (all
# of g when n = 1, where d_1 = 0), and the boundaries the columns of d_{n+1}
# that sympy's greedy rank test picks.
# ---------------------------------------------------------------------------

def _check_homology(alg, n):
    f = alg.field
    dim = alg.dim ** n
    res = homology(alg, n)
    rows = boundary_matrix(alg, n).entries if n > 1 else []
    columns = boundary_matrix(alg, n + 1).transpose().entries
    assert res.chain_dimension == dim
    assert res.cycles == sympy_kernel(f, rows, dim)
    assert res.boundaries == [columns[j] for j in
                              greedy_independent(f, columns, dim)]
    assert res.betti == len(res.cycles) - len(res.boundaries)


@given(bilinear_brackets(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_homology_is_the_sympy_kernel_and_the_greedy_boundaries(alg, n):
    _check_homology(alg, n)


@pytest.mark.parametrize("name", ["lambda6", "abelian_2", "derived2_f2_z2",
                                  "free_leib(2,1)_perm", "free_leib(3,1)_perm",
                                  "free_leib(2,2)_perm"])
def test_catalog_homology_is_the_sympy_kernel_and_the_greedy_boundaries(name):
    alg = L.catalog(name).algebra
    for n in range(1, 3 if alg.dim > 3 else 4):
        _check_homology(alg, n)


# ---------------------------------------------------------------------------
# Class representatives.  _representatives keeps the cocycles whose free
# column is no pivot of the coboundaries' last_pivot_echelon: those at a
# pivot of the columns [coboundaries | cocycles].  The oracle eliminates
# those columns outright: over Q with sympy's rref, over F_p with the
# textbook elimination.  The cocycles are a reduced-echelon kernel basis,
# as every caller passes them, and the coboundaries any vectors of their
# span, none (nb = 0) and as many as the cocycles (nb = nc) included.
# ---------------------------------------------------------------------------

def _pivot_columns(field, columns, dim):
    dense = [dense_vector(field, v, dim) for v in columns]
    rows = [[v[i] for v in dense] for i in range(dim)]
    if field == QQ:
        return list(sympy.Matrix(dim, len(columns),
                                 lambda i, j: sympy.Rational(
                                     rows[i][j].numerator,
                                     rows[i][j].denominator)).rref()[1])
    return textbook_rref(Matrix(field, dim, len(columns), rows))[1]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_class_representatives_are_the_pivot_cocycles(field, data):
    entries = (st.integers(-2, 2) if field == QQ
               else st.integers(0, field.p - 1))
    dim = data.draw(st.integers(1, 7))
    r = data.draw(st.integers(0, dim))
    rows = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                              min_size=r, max_size=r))
    cocycles, _ = kernel_basis(
        Matrix(field, r, dim, [[field.coerce(x) for x in row] for row in rows]))
    nc = len(cocycles)
    nb = data.draw(st.one_of(st.just(0), st.just(nc), st.integers(0, nc)))
    coboundaries = [
        combination(field, zip(map(field.coerce, coeffs), cocycles))
        for coeffs in data.draw(st.lists(
            st.lists(entries, min_size=nc, max_size=nc),
            min_size=nb, max_size=nb))]
    pivots = _pivot_columns(field, coboundaries + cocycles, dim)
    echelon = last_pivot_echelon(
        field, clear_denominators(coboundaries)[0], dim)
    assert _representatives(cocycles, echelon) == \
        [cocycles[j - nb] for j in pivots if j >= nb]
