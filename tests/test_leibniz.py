from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import leibcohom as L
from leibcohom.linalg import QQ, GF, Matrix
from leibcohom.leibniz import (check_leibniz_identity, check_morphism,
                               AlgebraMorphism, DifferentialLieAlgebra,
                               derived_bracket_algebra, free_leibniz_truncated)


def test_lambda6_brackets(lambda6):
    e1, e2, e3 = (lambda6.basis_vector(i) for i in range(3))
    assert lambda6.bracket(e1, e3) == e2
    assert lambda6.bracket(e3, e3) == e1
    zero = [QQ.zero()] * 3
    assert lambda6.bracket(zero, e3) == zero


def test_lambda6_is_leibniz(lambda6):
    assert check_leibniz_identity(lambda6).ok


def test_abelian_is_leibniz():
    assert check_leibniz_identity(L.LeibnizAlgebra.zero_bracket(QQ, 4)).ok


def test_dim1_idempotent_violates():
    alg = L.LeibnizAlgebra(QQ, 1, [[[1]]])
    v = check_leibniz_identity(alg)
    assert not v.ok
    triples = [t for t, _ in v.violations]
    assert (0, 0, 0) in triples
    # residual = LHS - RHS = e_1 - 0
    assert v.violations[0][1] == [Fraction(1)]


def test_identity_morphism(lambda6):
    phi = AlgebraMorphism(lambda6, lambda6, Matrix.identity(QQ, 3))
    assert check_morphism(phi).ok


def diag(entries):
    return Matrix.from_rows(QQ, [[entries[i] if i == j else 0
                                  for j in range(3)] for i in range(3)])


def test_diag_automorphism(lambda6):
    # c -> diag(c^2, c^3, c) is an automorphism family; c = -1
    phi = AlgebraMorphism(lambda6, lambda6, diag([1, -1, -1]))
    assert check_morphism(phi).ok


def test_diag_non_morphism(lambda6):
    phi = AlgebraMorphism(lambda6, lambda6, diag([-1, 1, 1]))
    v = check_morphism(phi)
    assert not v.ok
    assert (2, 2) in [p for p, _ in v.violations]


def test_morphism_composition_closed(lambda6):
    a = AlgebraMorphism(lambda6, lambda6, diag([1, -1, -1]))
    b = AlgebraMorphism(lambda6, lambda6, diag([1, -1, -1]))
    assert check_morphism(a.compose(b)).ok


def test_check_morphism_refuses_a_matrix_of_the_wrong_shape():
    # the 2x2 matrix into a 3-dimensional target has as many int columns
    # as the source has dimensions, so only its stored shape refuses it
    plane = L.LeibnizAlgebra.zero_bracket(QQ, 2)
    space = L.LeibnizAlgebra.zero_bracket(QQ, 3)
    wide = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]])
    for phi in [AlgebraMorphism(plane, plane, wide),
                AlgebraMorphism(plane, space, Matrix.identity(QQ, 2)),
                AlgebraMorphism.from_ints(plane, space, [{0: 1}, {1: 1}], 1,
                                          2)]:
        with pytest.raises(ValueError, match="shape"):
            check_morphism(phi)
    assert check_morphism(AlgebraMorphism.from_ints(
        plane, space, [{0: 1}, {1: 1}], 1, 3)).ok


def two_dim_dgla():
    # [x, y] = y, d(x) = y, d(y) = 0
    z = 0
    structure = [[[z, z], [z, 1]], [[z, -1], [z, z]]]
    d = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    return DifferentialLieAlgebra(QQ, 2, structure, d)


def test_dgla_validates():
    assert two_dim_dgla().validate().ok


def test_derived_bracket_two_dim():
    alg = derived_bracket_algebra(two_dim_dgla())
    x, y = alg.basis_vector(0), alg.basis_vector(1)
    assert alg.bracket(x, x) == y
    zero = [QQ.zero()] * 2
    assert alg.bracket(x, y) == zero
    assert alg.bracket(y, x) == zero
    assert alg.bracket(y, y) == zero
    assert check_leibniz_identity(alg).ok


def test_derived_bracket_abelian():
    z = 0
    structure = [[[z, z], [z, z]], [[z, z], [z, z]]]
    d = Matrix.from_rows(QQ, [[0, 0], [1, 0]])
    alg = derived_bracket_algebra(DifferentialLieAlgebra(QQ, 2, structure, d))
    assert all(x == QQ.zero() for row in alg.structure for v in row for x in v)


def test_derived_bracket_zero_differential():
    dgla = two_dim_dgla()
    dgla.differential = Matrix.zero(QQ, 2, 2)
    alg = derived_bracket_algebra(dgla)
    assert all(x == QQ.zero() for row in alg.structure for v in row for x in v)


def test_derived_bracket_rejects_bad_dgla():
    bad = two_dim_dgla()
    bad.differential = Matrix.from_rows(QQ, [[1, 0], [0, 0]])  # d^2 != 0
    with pytest.raises(ValueError):
        derived_bracket_algebra(bad)


def test_free_leibniz_one_letter():
    alg, words = free_leibniz_truncated(1, 3)
    assert words == [(0,), (0, 0), (0, 0, 0)]
    v, vv, vvv = (alg.basis_vector(i) for i in range(3))
    assert alg.bracket(v, v) == vv
    assert alg.bracket(vv, v) == vvv
    assert alg.bracket(v, vv) == [QQ.zero()] * 3


def test_free_leibniz_truncation_degree_one():
    alg, _ = free_leibniz_truncated(3, 1)
    z = QQ.zero()
    assert all(x == z for row in alg.structure for v in row for x in v)


def test_free_leibniz_two_letters_degree_two():
    alg, words = free_leibniz_truncated(2, 2)
    i = words.index((0,))
    j = words.index((1,))
    out = alg.bracket(alg.basis_vector(i), alg.basis_vector(j))
    expected = alg.basis_vector(words.index((0, 1)))
    assert out == expected


def test_free_leibniz_identity_exact():
    alg, _ = free_leibniz_truncated(2, 3)
    assert check_leibniz_identity(alg).ok


def test_catalog_lambda6():
    entry = L.catalog("lambda6")
    nonzero = sum(1 for i in range(3) for j in range(3)
                  if any(x != QQ.zero() for x in entry.algebra.structure[i][j]))
    assert entry.algebra.dim == 3 and nonzero == 2


def test_catalog_abelian():
    entry = L.catalog("abelian_3")
    assert all(x == QQ.zero() for row in entry.algebra.structure
               for v in row for x in v)


def test_catalog_derived2_action_matrix():
    entry = L.catalog("derived2_f2_z2")
    assert entry.algebra.field == GF(2)
    assert entry.action.psi(1).data == [[1, 0], [1, 1]]
    assert L.validate_action(entry.action).ok


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        L.catalog("nope")


def test_catalog_entries_all_leibniz():
    for name in ["lambda6", "lambda6_z2", "abelian_1", "abelian_2", "abelian_3",
                 "free_leib(2,3)_perm", "derived2_f2_z2"]:
        entry = L.catalog(name)
        assert check_leibniz_identity(entry.algebra).ok, name
        if entry.action is not None:
            assert L.validate_action(entry.action).ok, name


# -- the integer-arithmetic checks against plain field arithmetic ----------

small_fractions = st.one_of(st.just(Fraction(0)),
                            st.fractions(-3, 3, max_denominator=4))


def drawn_algebra(data, dim):
    structure = data.draw(st.lists(st.lists(st.lists(
        small_fractions, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    return L.LeibnizAlgebra(QQ, dim, structure)


def sub(u, v):
    return [a - b for a, b in zip(u, v)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_checks_match_bracket_arithmetic(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    src, tgt = drawn_algebra(data, n), drawn_algebra(data, m)
    e = src.basis_vector
    expected = []
    for i, j, k in product(range(n), repeat=3):
        r = sub(src.bracket(e(i), src.bracket(e(j), e(k))),
                sub(src.bracket(src.bracket(e(i), e(j)), e(k)),
                    src.bracket(src.bracket(e(i), e(k)), e(j))))
        if any(r):
            expected.append(((i, j, k), r))
    assert check_leibniz_identity(src).violations == expected
    phi = AlgebraMorphism(src, tgt, Matrix.from_rows(QQ, data.draw(st.lists(
        st.lists(small_fractions, min_size=n, max_size=n),
        min_size=m, max_size=m))))
    expected = []
    for i, j in product(range(n), repeat=2):
        r = sub(phi.apply(src.basis_bracket(i, j)),
                tgt.bracket(phi.matrix.column(i), phi.matrix.column(j)))
        if any(r):
            expected.append(((i, j), r))
    assert check_morphism(phi).violations == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_leibniz_check_matches_bracket_arithmetic_on_sparse_tables(data):
    # the check visits only the nonzero structure constants: a few nonzero
    # brackets in an algebra of up to 5 dimensions, over Q, F_2 and F_3,
    # must give the violations that every triple gives
    f = data.draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n = data.draw(st.integers(1, 5))
    entries = small_fractions if f == QQ else st.integers(-2, 2)
    structure = [[[0] * n for _ in range(n)] for _ in range(n)]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        structure[i][j] = data.draw(st.lists(entries, min_size=n, max_size=n))
    alg = L.LeibnizAlgebra(f, n, structure)
    e = alg.basis_vector

    def minus(u, v):
        return [f.sub(a, b) for a, b in zip(u, v)]

    expected = []
    for i, j, k in product(range(n), repeat=3):
        r = minus(alg.bracket(e(i), alg.bracket(e(j), e(k))),
                  minus(alg.bracket(alg.bracket(e(i), e(j)), e(k)),
                        alg.bracket(alg.bracket(e(i), e(k)), e(j))))
        if any(r):
            expected.append(((i, j, k), r))
    assert check_leibniz_identity(alg).violations == expected


# -- the differential Lie algebra checks against a Fraction loop -----------

def dgla_oracle(f, n, structure, rows):
    """The violations ``DifferentialLieAlgebra.validate`` must report, from
    plain Fraction brackets: structure[i][j] is [e_i, e_j] and rows is d,
    whose column j is d(e_j); residuals are coerced into f at the end."""
    S = [[[Fraction(x) for x in v] for v in row] for row in structure]
    D = [[Fraction(x) for x in row] for row in rows]
    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def br(u, v):
        return [sum(u[i] * v[j] * S[i][j][k] for i in range(n)
                    for j in range(n)) for k in range(n)]

    def d(v):
        return [sum(D[r][c] * v[c] for c in range(n)) for r in range(n)]

    def plus(u, v, sign=1):
        return [a + sign * b for a, b in zip(u, v)]

    def found(kind, where, r):
        r = [f.coerce(x) for x in r]
        return [(kind, where, r)] if any(r) else []

    pairs = list(product(range(n), repeat=2))
    out = []
    for i, j in pairs:
        out += found("antisymmetry", (i, j), plus(S[i][j], S[j][i]))
    for i, j, k in product(range(n), repeat=3):
        out += found("jacobi", (i, j, k), plus(
            br(e[i], br(e[j], e[k])),
            plus(br(br(e[i], e[j]), e[k]), br(br(e[i], e[k]), e[j]), -1), -1))
    d2 = [[f.coerce(sum(D[r][k] * D[k][c] for k in range(n)))
           for c in range(n)] for r in range(n)]
    if any(map(any, d2)):
        out.append(("d_squared", None, d2))
    for i, j in pairs:
        column = [[D[r][c] for r in range(n)] for c in range(n)]
        out += found("derivation", (i, j), plus(
            d(S[i][j]), plus(br(column[i], e[j]), br(e[i], column[j])), -1))
    derived = [[[f.coerce(x) for x in br(e[i], [D[r][j] for r in range(n)])]
                for j in range(n)] for i in range(n)]
    return out, derived


# valid differential Lie algebras to plant violations in: (structure, d)
VALID_DGLAS = [
    ([[[0]]], [[0]]),
    ([[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[0, 0], [1, 0]]),
    ([[[0, 0], [0, 1]], [[0, -1], [0, 0]]], [[0, 0], [1, 0]]),   # two_dim
    ([[[0, 0, 0], [0, 1, 0], [0, 0, 0]],                          # two_dim
      [[0, -1, 0], [0, 0, 0], [0, 0, 0]],                         # plus a
      [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],                         # central z
     [[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    ([[[0] * 3] * 3] * 3, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
]


@st.composite
def planted_dglas(draw):
    """A field (QQ, GF(2), GF(3)), a valid differential Lie algebra scaled
    by drawn nonzero constants, and at most two entries of its brackets or
    of d bumped; or, now and then, a table drawn whole."""
    f = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    scalars = small_fractions if f == QQ else st.integers(-2, 2)
    structure, rows = draw(st.sampled_from(VALID_DGLAS))
    n = len(rows)
    a, b = draw(scalars.filter(bool)), draw(scalars.filter(bool))
    structure = [[[a * x for x in v] for v in row] for row in structure]
    rows = [[b * x for x in row] for row in rows]
    if draw(st.integers(0, 4)) == 0:
        structure = draw(st.lists(st.lists(st.lists(
            scalars, min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if draw(st.booleans()):
            structure[i][j][k] += draw(scalars)
        else:
            rows[i][j] += draw(scalars)
    return f, n, structure, rows


@given(planted_dglas())
@settings(max_examples=150, deadline=None)
def test_dgla_validate_matches_a_fraction_loop(drawn):
    f, n, structure, rows = drawn
    dgla = DifferentialLieAlgebra(f, n, structure, Matrix.from_rows(f, rows))
    expected, derived = dgla_oracle(f, n, structure, rows)
    assert dgla.validate().violations == expected
    if expected:
        with pytest.raises(ValueError, match=expected[0][0]):
            derived_bracket_algebra(dgla)
    else:
        assert derived_bracket_algebra(dgla).structure == derived


@pytest.mark.parametrize("kind, structure, rows", [
    ("antisymmetry", [[[0, 0], [0, 1]], [[0, 0], [0, 0]]], [[0, 0], [1, 0]]),
    ("jacobi", [[[1]]], [[0]]),
    ("d_squared", [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[1, 0], [0, 0]]),
    ("derivation", [[[0, 0], [0, 1]], [[0, -1], [0, 0]]], [[0, 1], [0, 0]]),
])
@pytest.mark.parametrize("f", [QQ, GF(2), GF(3)], ids=repr)
def test_dgla_validate_reports_each_planted_kind(kind, structure, rows, f):
    n = len(rows)
    dgla = DifferentialLieAlgebra(f, n, structure, Matrix.from_rows(f, rows))
    violations = dgla.validate().violations
    assert violations == dgla_oracle(f, n, structure, rows)[0]
    assert kind in {k for k, _, _ in violations}


def test_dgla_refuses_a_differential_of_the_wrong_shape():
    dgla = two_dim_dgla()
    dgla.differential = Matrix.zero(QQ, 2, 3)
    with pytest.raises(ValueError):
        dgla.validate()
