from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from leibcohom.linalg import (QQ, GF, Matrix, rank, kernel_basis, in_span,
                              free_coordinates, solve, solve_matrix, vec_add,
                              vec_is_zero)


def qmat(rows):
    return Matrix.from_rows(QQ, rows)


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(QQ, 2)) == 2
    assert rank(Matrix.zero(QQ, 3, 4)) == 0


def test_rank_dependent_rows():
    assert rank(qmat([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 2)) == ([], [])


def test_kernel_zero_matrix():
    basis, free = kernel_basis(Matrix.zero(QQ, 2, 2))
    assert len(basis) == 2 and free == [0, 1]
    assert rank(Matrix.from_columns(QQ, basis)) == 2


def test_kernel_one_equation():
    basis, free = kernel_basis(qmat([[1, 1]]))
    assert len(basis) == 1 and free == [1]
    v = basis[0]
    assert v[0] == -v[1] and v[0] != 0


def test_in_span_zero_vector():
    ok, coeffs = in_span([Fraction(0), Fraction(0)], [[Fraction(0), Fraction(1)]])
    assert ok and coeffs == [0]


def test_in_span_false():
    ok, coeffs = in_span([1, 0], [[0, 1]])
    assert not ok and coeffs is None


def test_in_span_coefficient():
    ok, coeffs = in_span([3, 6], [[1, 2]])
    assert ok and coeffs == [3]


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span([1, 2, 3], [[1, 2]])


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.inv(2) == 3
    assert f5.add(3, 4) == 2
    with pytest.raises(ValueError):
        GF(6)


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def rational_matrices(draw, max_dim=5):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Matrix.from_rows(QQ, rows)


@given(rational_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)[0]) == m.cols


@given(rational_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    basis, free = kernel_basis(m)
    for i, v in enumerate(basis):
        assert vec_is_zero(QQ, m.apply(v))
        # reduced echelon: 1 at its own free column, 0 at the others
        assert [v[c] for c in free] == [int(i == j) for j in range(len(free))]


@given(rational_matrices(), st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_free_coordinates_match_solve(m, coeffs):
    basis, free = kernel_basis(m)
    coeffs = coeffs[:len(basis)]
    inclusion = Matrix.from_columns(QQ, basis, nrows=m.cols)
    v = inclusion.apply([Fraction(c) for c in coeffs])
    assert free_coordinates(QQ, basis, free, v) == solve(inclusion, v) == coeffs
    # a nonzero row r of m is off its null space, since r . r > 0 over Q
    for r in m.data:
        if any(r):
            off = vec_add(QQ, v, r)
            assert free_coordinates(QQ, basis, free, off) is None
            assert solve(inclusion, off) is None


def test_free_coordinates_outside_span():
    basis, free = kernel_basis(qmat([[1, 1, 0]]))
    assert free == [1, 2]
    assert free_coordinates(QQ, basis, free, [-2, 2, 5]) == [2, 5]
    assert free_coordinates(QQ, basis, free, [1, 2, 5]) is None
    assert free_coordinates(QQ, [], [], [0, 0]) == []
    assert free_coordinates(QQ, [], [], [0, 1]) is None


@given(rational_matrices())
@settings(max_examples=40, deadline=None)
def test_rank_matches_sympy(m):
    expected = sympy.Matrix([[sympy.Rational(x) for x in row]
                             for row in m.data]).rank()
    assert rank(m) == expected


@given(st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rank_agrees_over_f2_when_det_odd(rows):
    m_q = Matrix.from_rows(QQ, rows)
    det = sympy.Matrix(rows).det()
    if det % 2 == 0:
        return
    m_2 = Matrix.from_rows(GF(2), rows)
    assert rank(m_q) == rank(m_2) == 4


@given(rational_matrices(max_dim=4),
       st.lists(small_entries, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_in_span_reconstruction(m, coeffs):
    basis = m.columns()
    coeffs = coeffs[:len(basis)]
    f = QQ
    v = [f.zero()] * m.rows
    for c, b in zip(coeffs, basis):
        for i in range(m.rows):
            v[i] += Fraction(c) * b[i]
    ok, found = in_span(v, basis)
    assert ok
    recon = [f.zero()] * m.rows
    for c, b in zip(found, basis):
        for i in range(m.rows):
            recon[i] += c * b[i]
    assert recon == v


def test_solve_inconsistent():
    m = qmat([[1, 0], [1, 0]])
    assert solve(m, [Fraction(1), Fraction(2)]) is None


# -- sparse product and multi-column solve ----------------------------------

sparse_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def product_pairs(draw, max_dim=5):
    """(A, B) with A r x k and B k x c; some rows and columns forced to zero."""
    r, k, c = (draw(st.integers(1, max_dim)) for _ in range(3))

    def mat(rows, cols):
        data = draw(st.lists(st.lists(sparse_rationals, min_size=cols,
                                      max_size=cols),
                             min_size=rows, max_size=rows))
        for i in draw(st.sets(st.integers(0, rows - 1))):
            data[i] = [Fraction(0)] * cols
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in data:
                row[j] = Fraction(0)
        return Matrix.from_rows(QQ, data)

    return mat(r, k), mat(k, c)


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in m.data for x in row])


@given(product_pairs())
@settings(max_examples=80, deadline=None)
def test_mul_matches_sympy(pair):
    a, b = pair
    prod = a.mul(b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert to_sympy(prod) == to_sympy(a) * to_sympy(b)


def test_mul_zero_rows_and_columns():
    a = qmat([[0, 0, 0], [1, 0, 2]])
    b = qmat([[0, 3], [0, 5], [0, 0]])
    assert a.mul(b) == qmat([[0, 0], [0, 3]])
    assert Matrix.zero(QQ, 2, 3).mul(b) == Matrix.zero(QQ, 2, 2)
    assert a.mul(Matrix.zero(QQ, 3, 4)) == Matrix.zero(QQ, 2, 4)
    assert Matrix.zero(QQ, 2, 0).mul(Matrix.zero(QQ, 0, 3)) == \
        Matrix.zero(QQ, 2, 3)


def test_mul_prime_field_matches_sympy_mod_p():
    f5 = GF(5)
    rows_a = [[1, 4, 0], [0, 0, 0], [3, 2, 4]]
    rows_b = [[2, 0], [4, 0], [1, 0]]
    prod = Matrix.from_rows(f5, rows_a).mul(Matrix.from_rows(f5, rows_b))
    expected = (sympy.Matrix(rows_a) * sympy.Matrix(rows_b)).applyfunc(
        lambda x: x % 5)
    assert prod.data == expected.tolist()


@given(rational_matrices(max_dim=4),
       st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_matrix_matches_columnwise_solve(m, coeffs):
    # right-hand sides in the column space of m, plus a zero column
    rhs_cols = [[sum((Fraction(c) * x for c, x in zip(cs, row)), Fraction(0))
                 for row in m.data] for cs in zip(*coeffs[:m.cols])]
    rhs_cols.append([Fraction(0)] * m.rows)
    b = Matrix.from_columns(QQ, rhs_cols)
    x = solve_matrix(m, b)
    assert x is not None
    assert (x.rows, x.cols) == (m.cols, b.cols)
    for j, col in enumerate(rhs_cols):
        assert x.column(j) == solve(m, col)
    assert m.mul(x) == b


def test_solve_matrix_one_inconsistent_column():
    m = qmat([[1, 0], [1, 0], [0, 1]])
    good = [Fraction(2), Fraction(2), Fraction(3)]
    bad = [Fraction(1), Fraction(2), Fraction(0)]
    assert solve(m, good) is not None and solve(m, bad) is None
    for cols in ([good, bad], [bad, good], [good, good, bad, good]):
        assert solve_matrix(m, Matrix.from_columns(QQ, cols)) is None
    x = solve_matrix(m, Matrix.from_columns(QQ, [good, good]))
    assert x.columns() == [solve(m, good)] * 2


def test_solve_matrix_free_variables_zero():
    m = qmat([[1, 1, 0], [0, 0, 1]])
    x = solve_matrix(m, qmat([[3, 0], [4, 0]]))
    assert x == qmat([[3, 0], [0, 0], [4, 0]])
    assert solve_matrix(m, Matrix.zero(QQ, 2, 0)) == Matrix.zero(QQ, 3, 0)
