import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from leibcohom.linalg import (QQ, GF, Matrix, rank, kernel_basis, in_span,
                              int_column_reduction, int_combination,
                              int_free_coordinates, int_kernel_basis,
                              solve, solve_matrix,
                              dense_vector,
                              sparse_vector, clear_denominators, is_prime,
                              PRIME_TEST_BOUND)

from conftest import sympy_kernel, sympy_rref


def qmat(rows):
    return Matrix.from_rows(QQ, rows)


def dense(vectors, n):
    return [dense_vector(QQ, v, n) for v in vectors]


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
    assert rank(Matrix.from_columns(QQ, dense(basis, 2))) == 2


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


def test_is_prime_matches_sympy():
    for n in range(10 ** 4):
        assert is_prime(n) == sympy.isprime(n), n
    near = [10 ** e + d for e in (18, 24) for d in range(-60, 61)]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    tricky = [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in near + tricky + [PRIME_TEST_BOUND - 2]:
        assert is_prime(n) == sympy.isprime(n), n


def test_prime_field_refuses_p_beyond_the_exact_range():
    assert GF(10 ** 18 + 3).p == 10 ** 18 + 3
    for p in (PRIME_TEST_BOUND, 10 ** 400 + 1):
        with pytest.raises(ValueError, match="primes must be below"):
            GF(p)


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
    for i, v in enumerate(dense(basis, m.cols)):
        assert not any(m.apply(v))
        # reduced echelon: 1 at its own free column, 0 at the others
        assert [v[c] for c in free] == [int(i == j) for j in range(len(free))]


def coordinates(basis, free, v):
    """The coordinates of the sparse vector v over Q in a reduced-echelon
    basis, read by ``int_free_coordinates`` in ints and divided back, or
    None."""
    rows, d = clear_denominators([v])
    coords = int_free_coordinates(QQ, clear_denominators(basis), free, rows)
    return None if coords is None else QQ.divide_ints(coords, d)[0]


@given(rational_matrices(), st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_int_free_coordinates_match_solve(m, coeffs):
    basis, free = kernel_basis(m)
    coeffs = coeffs[:len(basis)]
    inclusion = Matrix.from_columns(QQ, dense(basis, m.cols), nrows=m.cols)
    v = inclusion.apply([Fraction(c) for c in coeffs])
    coords = coordinates(basis, free, sparse_vector(v))
    assert dense_vector(QQ, coords, len(basis)) == solve(inclusion, v) == coeffs
    # a nonzero row r of m is off its null space, since r . r > 0 over Q
    for r in m.data:
        if any(r):
            off = [a + b for a, b in zip(v, r)]
            assert coordinates(basis, free, sparse_vector(off)) is None
            assert solve(inclusion, off) is None


def test_int_free_coordinates_outside_span():
    basis, free = kernel_basis(qmat([[1, 1, 0]]))
    assert free == [1, 2]
    ints = clear_denominators(basis)
    assert int_free_coordinates(QQ, ints, free, [{0: -2, 1: 2, 2: 5}]) == \
        [{0: 2, 1: 5}]
    assert int_free_coordinates(QQ, ints, free, [{0: 1, 1: 2, 2: 5}]) is None
    # one row off the span refuses the whole list
    assert int_free_coordinates(QQ, ints, free, [{1: 1, 0: -1},
                                                 {1: 1}]) is None
    assert int_free_coordinates(QQ, ([], 1), [], [{}]) == [{}]
    assert int_free_coordinates(QQ, ([], 1), [], [{1: 1}]) is None
    # a basis over a denominator: (1/2, 1/3) spans the same line
    half, free = [{0: Fraction(1, 2), 1: Fraction(1)}], [1]
    assert clear_denominators(half) == ([{0: 1, 1: 2}], 2)
    assert coordinates(half, free, {0: Fraction(3, 4),
                                         1: Fraction(3, 2)}) == \
        {0: Fraction(3, 2)}
    assert coordinates(half, free, {0: Fraction(1), 1: Fraction(1)}) \
        is None


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
def sparse_matrices(draw, rows, cols, entries=sparse_rationals, field=QQ):
    """rows x cols over field; some rows and columns forced to zero."""
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    z = field.zero()
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1))):
            data[i] = [z] * cols
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in data:
                row[j] = z
    return Matrix(field, rows, cols,
                  [[field.coerce(x) for x in row] for row in data])


@st.composite
def product_pairs(draw, max_dim=5):
    """(A, B) with A r x k and B k x c; some rows and columns forced to zero."""
    r, k, c = (draw(st.integers(1, max_dim)) for _ in range(3))
    return draw(sparse_matrices(r, k)), draw(sparse_matrices(k, c))


@st.composite
def rref_inputs(draw, field=QQ, entries=sparse_rationals, max_dim=6):
    """Rectangular matrices, 0 x n and n x 0 included."""
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    return draw(sparse_matrices(r, c, entries, field))


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


# -- sparse elimination ------------------------------------------------------

def textbook_rref(m):
    """Dense Gauss-Jordan elimination, column by column: the reference."""
    f = m.field
    a = [row[:] for row in m.data]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        pr = next((i for i in range(r, m.rows) if a[i][c] != f.zero()), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(m.rows):
            factor = a[i][c]
            if i != r and factor != f.zero():
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


@given(rref_inputs())
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy(m):
    before = [dict(row) for row in m.entries]
    before_dense = m.data
    red, pivots = m.rref()
    expected, expected_pivots = to_sympy(m).rref()
    assert (red.field, red.rows, red.cols) == (QQ, m.rows, m.cols)
    assert to_sympy(red) == expected
    assert pivots == list(expected_pivots)
    assert m.entries == before and m.data == before_dense


@pytest.mark.parametrize("p", [2, 3, 5, 10 ** 18 + 3])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_rref_matches_textbook_over_prime_fields(p, data):
    f = GF(p)
    m = data.draw(rref_inputs(f, st.one_of(st.just(0), st.integers(0, p - 1))))
    before = [dict(row) for row in m.entries]
    red, pivots = m.rref()
    assert (red.data, pivots) == textbook_rref(m)
    assert all(type(x) is int and 0 < x < p
               for row in red.entries for x in row.values())
    assert m.entries == before


def test_rref_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0)]:
        red, pivots = Matrix.zero(QQ, r, c).rref()
        assert red == Matrix.zero(QQ, r, c) and pivots == []


@given(rref_inputs())
@settings(max_examples=60, deadline=None)
def test_int_column_reduction_is_the_null_space_and_the_greedy_columns(m):
    # the columns of m as int rows over d; sympy gives the reference
    columns, d = clear_denominators(m.transpose().entries)
    basis, picked = int_column_reduction(QQ, columns)
    expected = [[Fraction(int(x.p), int(x.q)) for x in v]
                for v in to_sympy(m).nullspace()]
    assert dense(basis, m.cols) == expected
    chosen = []
    for col in columns:
        with_col = sympy.Matrix([[c.get(i, 0) for i in range(m.rows)]
                                 for c in chosen + [col]])
        if with_col.rank() > len(chosen):
            chosen.append(col)
    assert picked == chosen


# -- canonical sparse rows ------------------------------------------------------

CANONICAL_FIELDS = [QQ, GF(2), GF(5)]


def field_entries(field):
    if field == QQ:
        return sparse_rationals
    return st.one_of(st.just(0), st.integers(0, field.p - 1))


def assert_canonical(m, expected):
    """m stores no zero entry and no column out of range, and its dense
    view is the sympy matrix expected."""
    assert len(m.entries) == m.rows
    for row in m.entries:
        assert all(row.values())
        assert all(0 <= j < m.cols for j in row)
    assert to_sympy(m) == expected


@pytest.mark.parametrize("field", CANONICAL_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_every_constructor_and_kernel_returns_canonical_rows(field, data):
    entries = field_entries(field)
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, a2 = (data.draw(sparse_matrices(r, k, entries, field)) for _ in range(2))
    b = data.draw(sparse_matrices(k, c, entries, field))
    A, A2, B = to_sympy(a), to_sympy(a2), to_sympy(b)

    def reduce(s):
        return s if field == QQ else s.applyfunc(lambda x: x % field.p)

    kron = sympy.Matrix(r * k, k * c,
                        lambda i, j: A[i // k, j // c] * B[i % k, j % c])
    if field == QQ:
        rref = A.rref()[0]
    else:
        rref = sympy.Matrix(r, k, [x for row in textbook_rref(a)[0] for x in row])
    cases = [
        (Matrix.from_rows(field, a.data), A if r else sympy.zeros(0, 0)),
        (Matrix.from_columns(field, a.columns(), nrows=r), A),
        (Matrix.identity(field, c), sympy.eye(c)),
        (a.mul(b), reduce(A * B)),
        (a.kron(b), reduce(kron)),
        (a.transpose(), A.T),
        (a.sub(a2), reduce(A - A2)),
        (a.sub(a), sympy.zeros(r, k)),
        (a.rref()[0], rref),
    ]
    for m, expected in cases:
        assert_canonical(m, expected)


@given(rational_matrices(), st.lists(small_entries, min_size=5, max_size=5),
       st.integers(0, 4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_int_free_coordinates_rejects_a_change_at_a_pivot_column(m, coeffs, p,
                                                                 bump):
    # v and v + bump e_p agree at every free column, so only the rebuild
    # of v from its free-column entries tells them apart
    _, pivots = m.rref()
    if not pivots:
        return
    basis, free = kernel_basis(m)
    v = {}
    for c, b in zip(coeffs, basis):
        for i, x in b.items():
            v[i] = v.get(i, 0) + c * x
    v = {i: Fraction(x) for i, x in v.items() if x}
    assert coordinates(basis, free, v) is not None
    pc = pivots[p % len(pivots)]
    off = dict(v)
    off[pc] = off.get(pc, 0) + bump
    off = {i: x for i, x in off.items() if x}
    assert coordinates(basis, free, off) is None


# -- the integer elimination kernel ---------------------------------------------

big_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))


def assert_rref_matches_sympy(m):
    before = [dict(row) for row in m.entries]
    red, pivots = m.rref()
    expected, expected_pivots = to_sympy(m).rref()
    assert to_sympy(red) == expected
    assert pivots == list(expected_pivots)
    assert all(type(x) is Fraction for row in red.entries for x in row.values())
    assert m.entries == before


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rref_matches_sympy_on_large_rationals(data):
    r, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    m = data.draw(sparse_matrices(r, c, big_rationals))
    # a row repeated at a large scale keeps the rank below the row count
    extra = data.draw(st.builds(Fraction, st.integers(1, 10 ** 9),
                                st.integers(1, 10 ** 6)))
    rows = m.data + [[extra * x for x in m.data[0]]]
    assert_rref_matches_sympy(Matrix(QQ, r + 1, c, rows))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_rref_of_scaled_hilbert_blocks(n):
    # [H | K] for H_ij = 1/(i+j+1), which is invertible, has RREF
    # [I | H^-1 K]; K_ij = 1/(i+2j+1) makes H^-1 K far from integral.
    # Rows are scaled by large rationals, and one is repeated
    scales = [Fraction(10 ** 9 - 7 * i, 10 ** 6 + i) for i in range(n)]
    rows = [[s * Fraction(1, i + j + 1) for j in range(n)]
            + [s * Fraction(1, i + 2 * j + 1) for j in range(n)]
            for i, s in enumerate(scales)]
    m = Matrix.from_rows(QQ, rows + [rows[0]])
    assert_rref_matches_sympy(m)
    assert rank(m) == n


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rref_is_unchanged_by_a_dense_unimodular_rebasing(data):
    # P D for an integer P of determinant 1 has the row space of D, hence
    # the same RREF, but its rows are dense
    r, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    d = data.draw(sparse_matrices(r, c))
    p = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(data.draw(st.integers(r, 4 * r))):
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        if i != j:
            k = data.draw(st.integers(-50, 50))
            p[i] = [x + k * y for x, y in zip(p[i], p[j])]
    pd = Matrix.from_rows(QQ, p).mul(d)
    assert_rref_matches_sympy(pd)
    assert pd.rref() == d.rref()


# -- row order and the column index of the elimination loop ------------------

ROW_ORDER_FIELDS = [QQ, GF(2), GF(3), GF(5)]


@pytest.mark.parametrize("field", ROW_ORDER_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rref_ignores_the_order_of_the_rows(field, data):
    r, c = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    m = data.draw(sparse_matrices(r, c, field_entries(field), field))
    order = data.draw(st.permutations(range(r)))
    shuffled = Matrix.from_entries(field, r, c, [m.entries[i] for i in order])
    before = [dict(row) for row in m.entries]
    assert shuffled.rref() == m.rref()
    assert m.entries == before
    assert shuffled.entries == [before[i] for i in order]


@st.composite
def sparse_high_rank(draw, field, rows=170, cols=160):
    """rows x cols with 1 to 3 nonzeros per row at random columns: rank
    well above 100, and most pivot rows met again by later pivots."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    top = 7 if field == QQ else field.p - 1
    entries = []
    for _ in range(rows):
        picked = rnd.sample(range(cols), rnd.randint(1, 3))
        entries.append({j: field.coerce(rnd.choice([-1, 1]) * rnd.randint(1, top))
                        for j in picked})
    entries = [{j: x for j, x in row.items() if x} for row in entries]
    return Matrix.from_entries(field, rows, cols, entries)


@given(sparse_high_rank(QQ))
@settings(max_examples=10, deadline=None)
def test_rref_of_a_sparse_high_rank_matrix_matches_sympy(m):
    assert_rref_matches_sympy(m)
    assert rank(m) > 100


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_rref_of_a_sparse_high_rank_matrix_matches_textbook(p, data):
    m = data.draw(sparse_high_rank(GF(p)))
    red, pivots = m.rref()
    assert (red.data, pivots) == textbook_rref(m)
    assert len(pivots) > 100


# ---------------------------------------------------------------------------
# The int-row convention: over Q int rows over a common denominator, over
# F_p residues over 1.  Checked against Fraction and % arithmetic written
# out here, on rows with large denominators and the prime 2^61 - 1.
# ---------------------------------------------------------------------------

CONVENTION_FIELDS = [QQ, GF(2), GF(3), GF(2 ** 61 - 1)]


def field_elements(field):
    """Nonzero field elements: fractions with denominators over Q,
    residues, the largest included, over F_p."""
    if field == QQ:
        return st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                            max_denominator=10 ** 4).filter(bool)
    return st.integers(1, field.p - 1)


def sparse_rows(entries):
    return st.lists(st.dictionaries(st.integers(0, 40), entries, max_size=6),
                    max_size=6)


@pytest.mark.parametrize("field", CONVENTION_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cleared_rows_divide_back_to_the_rows(field, data):
    rows = data.draw(sparse_rows(field_elements(field)))
    ints, d = clear_denominators(rows)
    assert all(type(x) is int for row in ints for x in row.values())
    assert [list(r) for r in ints] == [list(r) for r in rows]
    if field == QQ:
        lcm = 1                 # of the denominators, written out
        for row in rows:
            for x in row.values():
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        assert d == lcm
        assert all(Fraction(y, d) == x for row, irow in zip(rows, ints)
                   for x, y in zip(row.values(), irow.values()))
    else:
        assert (ints, d) == (rows, 1)
    assert field.divide_ints(ints, d) == rows


@pytest.mark.parametrize("field", CONVENTION_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reducing_int_rows_drops_exactly_the_zeros(field, data):
    p = field.characteristic
    big = 3 * p if p else 10 ** 30
    ints = st.one_of(st.just(0), st.just(p), st.just(-p),
                     st.integers(-big, big))
    rows = data.draw(sparse_rows(ints))
    reduced = field.reduce_ints(rows)
    for row, out in zip(rows, reduced):
        if p:
            assert out == {j: x % p for j, x in row.items() if x % p}
            assert all(0 < x < p for x in out.values())
        else:
            assert out == {j: x for j, x in row.items() if x}
    d = data.draw(st.integers(1, 10 ** 6)) if field == QQ else 1
    divided = field.divide_ints(rows, d)
    assert divided == [{j: y for j, x in row.items()
                        if (y := field.coerce(Fraction(x, d)))}
                       for row in rows]



@pytest.mark.parametrize("field", CONVENTION_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_int_combination_matches_a_fraction_sum(field, data):
    # each drawn term may come back negated, so that whole rows cancel, and
    # rows of one column make single entries cancel too
    p = field.characteristic
    big = 3 * p if p else 10 ** 30
    ints = st.one_of(st.just(0), st.integers(-big, big))
    terms = []
    for c, row in data.draw(st.lists(st.tuples(ints, st.one_of(
            st.dictionaries(st.integers(0, 40), ints, max_size=6),
            st.dictionaries(st.just(7), ints, max_size=1))), max_size=8)):
        terms.append((c, row))
        if data.draw(st.booleans()):
            terms.append((-c, row))
    total = [Fraction(0)] * 41
    for c, row in terms:
        for j, x in row.items():
            total[j] += Fraction(c) * x
    summed = int_combination(terms)
    assert all(type(x) is int for x in summed.values())
    assert field.reduce_ints([summed]) == [
        {j: y for j, x in enumerate(total) if (y := field.coerce(x))}]
    # a row less itself is nothing, however its terms are split
    assert field.reduce_ints([int_combination(
        terms + [(-c, row) for c, row in terms])]) == [{}]


# ---------------------------------------------------------------------------
# int_kernel_basis hands back its basis as int rows over the least common
# denominator e, which ``kernel_basis`` and the set-up divide once.
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [QQ, GF(3), GF(2 ** 61 - 1)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_int_kernel_basis_is_the_reduced_null_space_over_one_denominator(
        field, data):
    r, c = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
    entries = st.one_of(st.just(field.zero()), field_elements(field))
    rows = [sparse_vector(data.draw(st.lists(entries, min_size=c,
                                             max_size=c)))
            for _ in range(r)]
    ints, _ = clear_denominators(rows)
    (basis, e), free = int_kernel_basis(field, ints, c)
    assert type(e) is int and e > 0
    assert all(type(x) is int for v in basis for x in v.values())
    if field == QQ:
        assert gcd(e, *(x for v in basis for x in v.values())) == 1
        vectors = [{j: Fraction(x, e) for j, x in v.items()} for v in basis]
    else:
        assert e == 1
        assert all(0 < x < field.p for v in basis for x in v.values())
        vectors = basis
    assert vectors == sympy_kernel(field, rows, c)
    pivots = sympy_rref(field, rows, c)[1]
    assert free == [j for j in range(c) if j not in pivots]
    assert kernel_basis(Matrix.from_entries(field, r, c, rows)) == \
        (vectors, free)

