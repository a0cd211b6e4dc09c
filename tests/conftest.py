import contextlib
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import leibcohom as L
from leibcohom.linalg import QQ, Matrix


# ---------------------------------------------------------------------------
# A reference for plain cohomology that shares no code with the program
# beyond the coboundary matrices: ranks, reduced echelon forms and greedy
# independence are taken in sympy, over QQ or GF(p).
# ---------------------------------------------------------------------------

def sympy_rref(field, vectors, dim):
    """The reduced echelon form of the sparse vectors of length dim, as
    rows of field elements, and its pivot columns."""
    rows = [v for v in vectors if v]
    if not rows:
        return [], ()
    if field == QQ:
        domain, entry = sympy.QQ, lambda x: (x.numerator, x.denominator)
    else:
        domain, entry = sympy.GF(field.p), int
    red, pivots = DomainMatrix.from_list(
        [[entry(v.get(k, field.zero())) for k in range(dim)] for v in rows],
        domain).rref()
    if field == QQ:
        back = lambda x: Fraction(int(x.numerator), int(x.denominator))
    else:
        back = lambda x: int(x) % field.p
    return [[back(x) for x in row] for row in red.to_list()], pivots


def sympy_rank(field, vectors, dim):
    return len(sympy_rref(field, vectors, dim)[1])


def sympy_kernel(field, vectors, dim):
    """The null space of the matrix with the sparse vectors as rows: one
    vector per free column of its reduced echelon form, 1 there and 0 at
    the other free columns."""
    red, pivots = sympy_rref(field, vectors, dim)
    basis = []
    for fc in range(dim):
        if fc not in pivots:
            v = {fc: field.one()}
            for row, pc in zip(red, pivots):
                if row[fc]:
                    v[pc] = field.neg(row[fc])
            basis.append(v)
    return basis


def greedy_independent(field, vectors, dim):
    """The indices of the vectors that raise the sympy rank of the ones
    kept before them."""
    kept = []
    for j, v in enumerate(vectors):
        before = [vectors[i] for i in kept]
        if sympy_rank(field, before + [v], dim) > len(kept):
            kept.append(j)
    return kept


def greedy_classes(field, cocycles, coboundaries, dim):
    """The cocycles independent of the coboundaries and the cocycles
    before them."""
    nb = len(coboundaries)
    return [cocycles[j - nb] for j in
            greedy_independent(field, coboundaries + cocycles, dim) if j >= nb]


def reference_cohomology(alg, A, n):
    """(betti, cocycles, coboundaries, classes) of HL^n(g; A) from the
    coboundary matrices and sympy alone: the Betti number from two ranks,
    the cocycles the null space of delta^n, the coboundaries the columns
    of delta^(n-1) that greedy independence keeps, and the classes
    ``greedy_classes`` of the two."""
    f = alg.field
    dim = alg.dim ** n * A.dim
    delta = L.coboundary_matrix(alg, A, n).entries
    below = []                  # the columns of delta^(n-1)
    if n:
        mat = L.coboundary_matrix(alg, A, n - 1)
        below = [{} for _ in range(mat.cols)]
        for i, row in enumerate(mat.entries):
            for j, x in row.items():
                below[j][i] = x
    cocycles = sympy_kernel(f, delta, dim)
    coboundaries = [below[j] for j in greedy_independent(f, below, dim)]
    betti = dim - sympy_rank(f, delta, dim) - sympy_rank(f, below, dim)
    return (betti, cocycles, coboundaries,
            greedy_classes(f, cocycles, coboundaries, dim))


def block_diag(field, mats):
    """The block-diagonal matrix with the given blocks, in order."""
    entries = []
    c = 0
    for m in mats:
        entries.extend({c + j: x for j, x in row.items()} for row in m.entries)
        c += m.cols
    return Matrix.from_entries(field, len(entries), c, entries)


def ambient_coboundary(setup, n):
    """(+)_H delta_H on the ambient cochains, degree n -> n + 1: the
    coboundary matrix of each fixed subalgebra, by the field-entry route of
    ``complexes.coboundary_matrix``."""
    return block_diag(setup.field, [
        L.coboundary_matrix(setup.fixed[H].algebra,
                            setup.coefficients.algebras[H], n)
        for H in setup.category.subgroups])


def catalog_setup(name, coefficients="constant"):
    entry = L.catalog(name)
    assert entry.action is not None
    category = L.orbit_category(entry.action.group)
    field = entry.algebra.field
    if coefficients == "constant":
        cs = L.constant_coefficients(category, field)
    else:
        cs = L.coset_function_coefficients(category, field)
    return L.EquivariantSetup(entry.action, category, cs)


def rebasing(m, seed):
    """A seeded unit lower-triangular integer m x m matrix P (invertible
    over every field) and its inverse, which is integral too."""
    rng = random.Random(seed)
    P = [[1 if a == i else rng.randint(-2, 2) if a > i else 0
          for i in range(m)] for a in range(m)]
    Q = [[int(x) for x in row] for row in sympy.Matrix(P).inv().tolist()]
    return P, Q


def rebased(alg, seed):
    """The algebra in the basis f_i = sum_a P[a][i] e_a, for P from
    ``rebasing(alg.dim, seed)``."""
    m = alg.dim
    P, Q = rebasing(m, seed)
    s = [[[Fraction(x) for x in v] for v in row] for row in alg.structure]
    structure = []
    for i in range(m):
        structure.append([])
        for j in range(m):
            v = [sum(P[a][i] * P[b][j] * s[a][b][k]
                     for a in range(m) for b in range(m)) for k in range(m)]
            structure[i].append([sum(Q[l][k] * v[k] for k in range(m))
                                 for l in range(m)])
    return L.LeibnizAlgebra(alg.field, m, structure)


def rebased_action(action, seed):
    """The same action on ``rebased(action.algebra, seed)``: each psi_g
    becomes P^-1 psi_g P."""
    alg = action.algebra
    f = alg.field
    P, Q = rebasing(alg.dim, seed)
    P, Q = Matrix.from_rows(f, P), Matrix.from_rows(f, Q)
    return L.GroupAction(action.group, rebased(alg, seed),
                         [Q.mul(psi).mul(P) for psi in action.matrices])


@contextlib.contextmanager
def counting_fractions():
    """Yields a list that gains one entry per ``Fraction`` made inside the
    block: ``Fraction.__new__``, and ``Fraction._from_coprime_ints`` where
    the fractions module has it (Python 3.12 on), are replaced by counting
    wrappers and put back on exit."""
    made = []
    saved = {name: Fraction.__dict__[name]
             for name in ("__new__", "_from_coprime_ints")
             if name in Fraction.__dict__}
    new = saved["__new__"].__func__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    Fraction.__new__ = staticmethod(counted_new)
    if "_from_coprime_ints" in saved:
        coprime = saved["_from_coprime_ints"].__func__

        def counted_coprime(cls, n, d):
            made.append((n, d))
            return coprime(cls, n, d)
        Fraction._from_coprime_ints = classmethod(counted_coprime)
    try:
        yield made
    finally:
        for name, attr in saved.items():
            setattr(Fraction, name, attr)


@pytest.fixture(scope="session")
def lambda6():
    return L.catalog("lambda6").algebra


@pytest.fixture(scope="session")
def lambda6_z2_setup():
    return catalog_setup("lambda6_z2")


@pytest.fixture(scope="session")
def derived2_setup():
    return catalog_setup("derived2_f2_z2")
