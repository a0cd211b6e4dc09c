import random
from fractions import Fraction

import pytest
import sympy

import leibcohom as L
from leibcohom.linalg import QQ, Matrix


def trivial_setup(algebra, coefficients="constant"):
    """Equivariant setup for the trivial group acting trivially."""
    group = L.FiniteGroup.trivial()
    action = L.GroupAction(group, algebra,
                           [Matrix.identity(algebra.field, algebra.dim)])
    category = L.orbit_category(group)
    if coefficients == "constant":
        cs = L.constant_coefficients(category, algebra.field)
    else:
        cs = L.coset_function_coefficients(category, algebra.field)
    return L.EquivariantSetup(action, category, cs)


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


@pytest.fixture(scope="session")
def lambda6():
    return L.catalog("lambda6").algebra


@pytest.fixture(scope="session")
def lambda6_z2_setup():
    return catalog_setup("lambda6_z2")


@pytest.fixture(scope="session")
def derived2_setup():
    return catalog_setup("derived2_f2_z2")
