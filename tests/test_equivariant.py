import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd
from unittest import mock

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

import leibcohom as L
from leibcohom import equivariant, groups
from leibcohom.catalog import _letter_permutation_action
from leibcohom.complexes import BoundaryChain
from leibcohom.leibniz import free_leibniz_truncated
from leibcohom.linalg import (QQ, GF, Matrix, clear_denominators, combination)
from leibcohom.equivariant import (constant_coefficients,
                                   coset_function_coefficients,
                                   check_coefficient_system,
                                   CoefficientSystem, EquivariantCochain)
from leibcohom.verdict import Verdict

from conftest import (ambient_coboundary, block_diag, catalog_setup,
                      counting_fractions, greedy_classes, greedy_independent,
                      rebased_action, rebasing,
                      reference_cohomology, sympy_kernel, sympy_rank)


def test_constant_coefficients_validate():
    for group in (L.FiniteGroup.cyclic(2), L.FiniteGroup.symmetric(3)[0]):
        cat = L.orbit_category(group)
        assert check_coefficient_system(constant_coefficients(cat, QQ)).ok


def test_coset_coefficients_validate():
    for group in (L.FiniteGroup.cyclic(2), L.FiniteGroup.cyclic(4),
                  L.FiniteGroup.symmetric(3)[0]):
        cat = L.orbit_category(group)
        assert check_coefficient_system(
            coset_function_coefficients(cat, QQ)).ok


def test_coset_coefficients_z2_shapes():
    group = L.FiniteGroup.cyclic(2)
    cat = L.orbit_category(group)
    cs = coset_function_coefficients(cat, QQ)
    e, G = frozenset({0}), frozenset({0, 1})
    assert cs.algebras[e].dim == 2
    assert cs.algebras[G].dim == 1
    # right translation by the nonidentity element swaps the two cosets of e
    swap = cs.maps[(e, e, 1)]
    assert swap.data == [[QQ.zero(), QQ.one()], [QQ.one(), QQ.zero()]]
    # projection G/e -> G/G pulls functions back to constants
    incl = cs.maps[(e, G, 0)]
    assert incl.data == [[QQ.one()], [QQ.one()]]


def test_broken_coefficient_system_rejected():
    group = L.FiniteGroup.cyclic(2)
    cat = L.orbit_category(group)
    cs = coset_function_coefficients(cat, QQ)
    e = frozenset({0})
    bad_maps = dict(cs.maps)
    bad_maps[(e, e, 1)] = Matrix.from_rows(QQ, [[1, 0], [1, 1]])
    broken = CoefficientSystem(cat, QQ, cs.algebras, bad_maps)
    v = check_coefficient_system(broken)
    assert not v.ok


def dense_coefficients(k, seed=0):
    """(functions on G/H) (x) K[x]/(x^k) on Z/2, in a dense basis of each
    A(G/H), built with sympy: a coefficient system in new coordinates
    x' = P_H x is one again.  P_H = L U for unit triangular L and U, so
    its inverse Q_H is integral too.  Returns the system, its tables and
    its units."""
    rng = random.Random(seed)
    cat = L.orbit_category(L.FiniteGroup.cyclic(2))
    cs = coset_function_coefficients(cat, QQ)
    change, tables, units = {}, {}, {}
    for H in cat.subgroups:
        n = cs.algebras[H].dim
        d = n * k
        low = sympy.Matrix(d, d, lambda i, j: int(i == j) or
                           (rng.randint(-1, 1) if i > j else 0))
        up = sympy.Matrix(d, d, lambda i, j: int(i == j) or
                          (rng.randint(-1, 1) if i < j else 0))
        P = low * up
        Q = P.inv()
        change[H] = P, Q

        def e(a, b):        # (c, x^s) (c', x^t) = [c = c'] (c, x^(s+t))
            (c, s), (c2, t) = divmod(a, k), divmod(b, k)
            v = sympy.zeros(d, 1)
            if c == c2 and s + t < k:
                v[c * k + s + t] = 1
            return v

        def f(i, j):
            v = sum((Q[a, i] * Q[b, j] * e(a, b) for a in range(d)
                     for b in range(d) if Q[a, i] and Q[b, j]),
                    sympy.zeros(d, 1))
            return [Fraction(int(x)) for x in P * v]

        tables[H] = [[f(i, j) for j in range(d)] for i in range(d)]
        unit = sympy.Matrix([int(i % k == 0) for i in range(d)])
        units[H] = [Fraction(int(x)) for x in P * unit]
    algebras = {H: L.CoefficientAlgebra(QQ, len(units[H]), tables[H], units[H])
                for H in cat.subgroups}
    maps = {}
    for (H, K, g), M in cs.maps.items():
        big = sympy.Matrix(M.data).applyfunc(int)
        big = sympy.kronecker_product(big, sympy.eye(k))
        maps[(H, K, g)] = Matrix.from_rows(QQ, [
            [int(x) for x in row]
            for row in (change[H][0] * big * change[K][1]).tolist()])
    return CoefficientSystem(cat, QQ, algebras, maps), tables, units


def test_dense_coefficient_system_verdicts():
    from test_complexes import reference_validate
    cs, tables, units = dense_coefficients(3)
    cat = cs.category
    e, G = cat.subgroups
    assert cs.algebras[e].dim == 6
    assert sum(map(len, cs.algebras[e].mu.entries)) > 6 * 36 // 2
    assert check_coefficient_system(cs).ok
    # a map that is no longer multiplicative
    m = (e, G, 0)
    rows = [[int(x) for x in r] for r in cs.maps[m].data]
    rows[0][0] += 1
    maps = dict(cs.maps)
    maps[m] = Matrix.from_rows(QQ, rows)
    v = check_coefficient_system(CoefficientSystem(cat, QQ, cs.algebras, maps))
    assert ("algebra_map", m) in v.violations
    assert not any(kind == "algebra" for kind, _ in v.violations)
    # an algebra whose product is changed in one entry: its violations come
    # first, named by the subgroup and the indices of the basis elements
    table = [[list(v) for v in row] for row in tables[e]]
    table[1][1][0] += 1
    algebras = dict(cs.algebras)
    algebras[e] = L.CoefficientAlgebra(QQ, 6, table, units[e])
    expected = reference_validate(QQ, 6, table, units[e])
    assert expected
    v = check_coefficient_system(CoefficientSystem(cat, QQ, algebras,
                                                   cs.maps))
    assert v.violations[:len(expected)] == [
        ("algebra", (e, kind, where)) for kind, where in expected]


@st.composite
def z2_coefficient_systems(draw):
    """A system on Z/2 over Q or GF(3) whose algebras are functions on 1-3
    points in a basis B_H = P_H diag(c), with P_H unit triangular and
    scalars c (denominators over Q), and whose maps are each a pullback
    along a function of the points, brought to those bases, with or
    without one entry changed, or a matrix drawn at random.  Returns the
    field, the category, the tables, the units and the maps, in Fractions,
    and the system."""
    f = draw(st.sampled_from([QQ, GF(3)]))
    scalars = [1, 2, -1, Fraction(1, 2), Fraction(-2, 3)] if f == QQ else [1, 2]
    entries = st.sampled_from([0, 0, 1, -1, 2] + scalars)
    cat = L.orbit_category(L.FiniteGroup.cyclic(2))
    n, basis, inverse, tables, units = {}, {}, {}, {}, {}
    for H in cat.subgroups:
        n[H] = k = draw(st.integers(1, 3))
        P, Q = rebasing(k, draw(st.integers(0, 99)))
        c = [Fraction(draw(st.sampled_from(scalars))) for _ in range(k)]
        basis[H] = [[P[a][i] * c[i] for i in range(k)] for a in range(k)]
        inverse[H] = [[Q[i][a] / c[i] for a in range(k)] for i in range(k)]
        B, Bi = basis[H], inverse[H]
        tables[H] = [[[sum(Bi[l][a] * B[a][i] * B[a][j] for a in range(k))
                       for l in range(k)] for j in range(k)] for i in range(k)]
        units[H] = [sum(Bi[l][a] for a in range(k)) for l in range(k)]
    maps = {}
    for m in cat.morphisms:
        H, K, _ = m
        kind = draw(st.sampled_from(["pullback", "changed", "random"]))
        if kind == "random":
            M = [[Fraction(draw(entries)) for _ in range(n[K])]
                 for _ in range(n[H])]
        else:
            to = [draw(st.integers(0, n[K] - 1)) for _ in range(n[H])]
            M = [[sum(inverse[H][i][a] * basis[K][to[a]][j]
                      for a in range(n[H])) for j in range(n[K])]
                 for i in range(n[H])]
            if kind == "changed":
                M[draw(st.integers(0, n[H] - 1))][
                    draw(st.integers(0, n[K] - 1))] += Fraction(
                        draw(st.sampled_from(scalars)))
        maps[m] = M
    system = CoefficientSystem(
        cat, f, {H: L.CoefficientAlgebra(f, n[H], tables[H], units[H])
                 for H in cat.subgroups},
        {m: Matrix.from_rows(f, M) for m, M in maps.items()})
    return f, cat, tables, maps, system


@given(z2_coefficient_systems())
@settings(max_examples=80, deadline=None)
def test_algebra_map_verdicts_match_a_fraction_loop(drawn):
    f, cat, tables, maps, system = drawn

    def breaks_products(m):
        """Whether M(e_i e_j) - M(e_i) M(e_j) is nonzero for some i, j."""
        H, K, _ = m
        M, TH, TK = maps[m], tables[H], tables[K]
        h, k = len(M), len(M[0])
        for i, j in product(range(k), repeat=2):
            for r in range(h):
                x = sum(M[r][l] * TK[i][j][l] for l in range(k))
                x -= sum(M[a][i] * M[b][j] * TH[a][b][r]
                         for a in range(h) for b in range(h))
                if f.coerce(x):
                    return True
        return False

    v = check_coefficient_system(system)
    assert [m for kind, m in v.violations if kind == "algebra_map"] == \
        [m for m in cat.morphisms if breaks_products(m)]


def functoriality_oracle(f, cat, maps):
    """The (m1, m2) at which M_(m1 m2) - M_m1 M_m2, in a Fraction loop over
    the maps as lists, is nonzero in f."""
    out = []
    for m1 in cat.morphisms:
        for m2 in cat.morphisms:
            if m1[1] != m2[0]:
                continue
            M1, M2, M = maps[m1], maps[m2], maps[cat.compose(m1, m2)]
            if any(f.coerce(M[r][c] - sum(Fraction(M1[r][k]) * M2[k][c]
                                          for k in range(len(M2))))
                   for r in range(len(M)) for c in range(len(M[0]))):
                out.append((m1, m2))
    return out


@given(z2_coefficient_systems())
@settings(max_examples=80, deadline=None)
def test_functoriality_and_unit_verdicts_match_a_fraction_loop(drawn):
    f, cat, _, maps, system = drawn

    def unital(m):
        H, K, _ = m
        uK, uH = system.algebras[K].unit, system.algebras[H].unit
        return all(f.coerce(sum(Fraction(x) * uK[j] for j, x in enumerate(row))
                            - uH[r]) == 0 for r, row in enumerate(maps[m]))

    v = check_coefficient_system(system)
    assert [m for kind, m in v.violations if kind == "unit"] == \
        [m for m in cat.morphisms if not unital(m)]
    assert [p for kind, p in v.violations if kind == "functoriality"] == \
        functoriality_oracle(f, cat, maps)


@pytest.mark.parametrize("which", [0, 7, 20, 33])
def test_a_map_bumped_in_one_entry_breaks_functoriality_as_a_fraction_loop(
        which):
    # coset functions on S_3: 34 maps, one of them changed in one entry
    cat = L.orbit_category(L.FiniteGroup.symmetric(3)[0])
    cs = coset_function_coefficients(cat, QQ)
    maps = {m: M.data for m, M in cs.maps.items()}
    m = cat.morphisms[which]
    maps[m] = [list(row) for row in maps[m]]
    maps[m][0][0] += 1
    v = check_coefficient_system(CoefficientSystem(
        cat, QQ, cs.algebras, {k: Matrix.from_rows(QQ, M)
                               for k, M in maps.items()}))
    expected = functoriality_oracle(QQ, cat, maps)
    assert expected
    assert [p for kind, p in v.violations if kind == "functoriality"] == \
        expected


# ---------------------------------------------------------------------------
# Regression pins.  The dimensions and betti numbers below were computed with
# an independent symbolic implementation (separate constraint assembly over
# sympy) and, for the mod-2 example, confirmed by brute-force enumeration of
# every ambient vector.
# ---------------------------------------------------------------------------

def test_lambda6_z2_constant_pins(lambda6_z2_setup):
    setup = lambda6_z2_setup
    assert [setup.invariant_space(n).dim for n in range(4)] == [1, 1, 5, 13]
    assert [setup.cohomology(n).betti for n in range(4)] == [1, 0, 1, 0]


def test_derived2_f2_z2_constant_pins(derived2_setup):
    setup = derived2_setup
    assert [setup.invariant_space(n).dim for n in range(5)] == [1, 1, 2, 4, 8]
    assert [setup.cohomology(n).betti for n in range(5)] == [1, 1, 1, 1, 1]


def test_derived2_dims_by_brute_force(derived2_setup):
    # over F2 the invariant subspace can be enumerated exhaustively
    setup = derived2_setup
    for n in range(4):
        total = setup.ambient_dim(n)
        count = 0
        for bits in product((0, 1), repeat=total):
            c = EquivariantCochain.from_ambient(setup, n, list(bits))
            if setup.check_invariance(c).ok:
                count += 1
        assert count == 2 ** setup.invariant_space(n).dim


def test_invariant_basis_satisfies_constraints(lambda6_z2_setup):
    setup = lambda6_z2_setup
    for n in range(4):
        for v in setup.invariant_space(n).basis:
            c = EquivariantCochain.from_ambient(setup, n, v)
            assert setup.check_invariance(c).ok


def test_ambient_round_trip(lambda6_z2_setup):
    setup = lambda6_z2_setup
    v = setup.invariant_space(2).basis[0]
    c = EquivariantCochain.from_ambient(setup, 2, v)
    assert c.to_ambient(setup) == v


def test_noninvariant_cochain_detected(lambda6_z2_setup):
    setup = lambda6_z2_setup
    total = setup.ambient_dim(1)
    vec = [QQ.zero()] * total
    vec[1] = QQ.one()     # e2-dual on the trivial-subgroup block only
    c = EquivariantCochain.from_ambient(setup, 1, vec)
    assert not setup.check_invariance(c).ok


def test_delta_squared_zero_invariant(lambda6_z2_setup):
    setup = lambda6_z2_setup
    for n in range(3):
        d1 = setup.equivariant_coboundary(n)
        d2 = setup.equivariant_coboundary(n + 1)
        comp = d2.mul(d1)
        assert all(x == QQ.zero() for row in comp.data for x in row)


def test_delta_preserves_invariance(lambda6_z2_setup):
    # the ambient coboundary of each invariant basis vector is itself
    # an invariant cochain of degree n + 1
    setup = lambda6_z2_setup
    for n in range(3):
        D = ambient_coboundary(setup, n)
        for v in setup.invariant_space(n).basis:
            img = D.apply(v)
            c = EquivariantCochain.from_ambient(setup, n + 1, img)
            assert setup.check_invariance(c).ok


def test_trivial_group_reduction(lambda6):
    A = L.CoefficientAlgebra.scalar(QQ)
    setup = L.EquivariantSetup.trivial(lambda6, A)
    for n in range(4):
        assert setup.cohomology(n).betti == \
            reference_cohomology(lambda6, A, n)[0]


def test_dim_monotonicity(lambda6_z2_setup):
    setup = lambda6_z2_setup
    for n in range(4):
        ambient = setup.ambient_dim(n)
        assert 0 <= setup.invariant_space(n).dim <= ambient


def test_generating_constraints_agree(lambda6_z2_setup):
    # identity morphisms contribute vacuous constraints; the computed
    # invariant dimension must not depend on them
    setup = lambda6_z2_setup
    cat = setup.category
    nonid = [m for m in cat.morphisms if not (m[0] == m[1] and m[2] == 0)]
    for n in range(3):
        space = setup.invariant_space(n)
        count = 0
        for v in space.basis:
            c = EquivariantCochain.from_ambient(setup, n, v)
            ok = all(
                c.components[m[0]].mul(_kron_power(
                    setup.restrictions[m].matrix, n, setup.field)) ==
                setup.coefficients.maps[m].mul(c.components[m[1]])
                for m in nonid)
            if ok:
                count += 1
        assert count == space.dim


def _kron_power(mat, n, field):
    out = Matrix.identity(field, 1)
    for _ in range(n):
        out = out.kron(mat)
    return out


def test_coset_coefficients_cohomology_runs():
    setup = catalog_setup("lambda6_z2", coefficients="coset-functions")
    dims = [setup.invariant_space(n).dim for n in range(3)]
    assert dims[0] >= 1
    for n in range(2):
        d1 = setup.equivariant_coboundary(n)
        d2 = setup.equivariant_coboundary(n + 1)
        comp = d2.mul(d1)
        assert all(x == QQ.zero() for row in comp.data for x in row)
    res = setup.cohomology(1)
    assert res.betti == len(res.cocycle_basis) - len(res.coboundary_basis)


def test_coset_invariance_lemma():
    setup = catalog_setup("lambda6_z2", coefficients="coset-functions")
    for n in range(3):
        for v in setup.invariant_space(n).basis:
            c = EquivariantCochain.from_ambient(setup, n, v)
            assert setup.check_invariance(c).ok


def test_fresh_setup_degree_two(lambda6_z2_setup):
    setup = lambda6_z2_setup
    fresh = L.EquivariantSetup(setup.action, setup.category, setup.coefficients)
    assert fresh.invariant_space(2).dim == 5
    assert fresh.cohomology(2).betti == 1


def _spy_on_spaces(setup):
    """Record the degree of every invariant_space call on this setup."""
    degrees = []
    build = setup.invariant_space

    def spy(n):
        degrees.append(n)
        return build(n)
    setup.invariant_space = spy
    return degrees


def _tampered_setup():
    """lambda6_z2 with a restriction that is not an algebra map, which
    breaks delta's invariance."""
    setup = catalog_setup("lambda6_z2")
    e = frozenset({0})
    bad = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    setup.restrictions[(e, e, 1)] = L.AlgebraMorphism(
        setup.fixed[e].algebra, setup.fixed[e].algebra, bad)
    return setup


def test_delta_image_outside_invariants_rejected():
    with pytest.raises(AssertionError, match="leaves the invariant subspace"):
        _tampered_setup().equivariant_coboundary(1)


def test_a_fresh_cohomology_rejects_an_image_outside_invariants():
    # the one check runs at the first invariant space, before any delta
    setup = _tampered_setup()
    degrees = _spy_on_spaces(setup)
    with pytest.raises(AssertionError, match="leaves the invariant subspace"):
        setup.cohomology(1)
    assert degrees == [0]
    with pytest.raises(AssertionError, match=r"\(\[0\], \[0\], 1\)"):
        _tampered_setup().invariant_space(3)


# ---------------------------------------------------------------------------
# Closed-form oracles for S^n_G and HL^n_G on nontrivial groups.
#   constant coefficients over Q: S^n_G is the G-invariant n-cochains, so
#     dim S^n_G = (1/|G|) sum_g tr(psi_g)^n  (the character formula);
#   coset-function coefficients: dim S^n_G = m^n and HL^n_G = HL^n(g)
#     (Shapiro's lemma for coinduced coefficients).
# The actions are representations of Z/2 x Z/2 and S_3 on abelian_m (every
# invertible map is an automorphism of a zero bracket), the catalog actions,
# and re-based copies of both.
# ---------------------------------------------------------------------------

KLEIN = L.FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
S3, S3_PERMS = L.FiniteGroup.symmetric(3)


def _sign(perm):
    return (-1) ** sum(perm[j] > perm[i] for i in range(3) for j in range(i))


def _block(kind, g):
    """One block of psi_g: a Klein character, a Klein swap through one
    bit, or the trivial, sign or permutation representation of S_3."""
    name, k = kind
    if name == "character":
        return [[(-1) ** bin(k & g).count("1")]]
    if name == "swap":
        return [[0, 1], [1, 0]] if g & k else [[1, 0], [0, 1]]
    perm = S3_PERMS[g]
    if name == "trivial":
        return [[1]]
    if name == "sign":
        return [[_sign(perm)]]
    return [[int(perm[j] == i) for j in range(3)] for i in range(3)]


BLOCKS = {
    "klein": (KLEIN, [("character", k) for k in range(4)]
              + [("swap", 1), ("swap", 2)]),
    "s3": (S3, [("trivial", None), ("sign", None), ("permutation", None)]),
}


@st.composite
def abelian_actions(draw):
    """Z/2 x Z/2 or S_3 acting on abelian_m, m <= 3, by a direct sum of
    sign and permutation representations."""
    group, kinds = BLOCKS[draw(st.sampled_from(sorted(BLOCKS)))]
    blocks, m = [], 0
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        size = len(_block(kind, 0))
        if m + size <= 3:
            blocks.append(kind)
            m += size
    matrices = [block_diag(QQ, [Matrix.from_rows(QQ, _block(kind, g))
                                for kind in blocks])
                for g in range(group.order)]
    return L.GroupAction(group, L.LeibnizAlgebra.zero_bracket(QQ, m), matrices)


CATALOG_ACTIONS = ["lambda6_z2", "free_leib(2,1)_perm", "free_leib(3,1)_perm",
                   "derived2_f2_z2"]


@st.composite
def actions(draw):
    """A generated action on abelian_m or a catalog action, possibly
    re-based."""
    if draw(st.booleans()):
        action = draw(abelian_actions())
    else:
        action = L.catalog(draw(st.sampled_from(CATALOG_ACTIONS))).action
    seed = draw(st.sampled_from([None, 1, 2]))
    if seed is not None:
        action = rebased_action(action, seed)
    assert L.validate_action(action).ok
    return action


def _setup(action, coefficients):
    category = L.orbit_category(action.group)
    return L.EquivariantSetup(action, category,
                              coefficients(category, action.algebra.field))


@given(actions())
@settings(max_examples=30, deadline=None)
def test_constant_coefficient_dimensions_follow_the_character_formula(action):
    if action.algebra.field != QQ:
        return
    setup = _setup(action, constant_coefficients)
    traces = [sum(row[i] for i, row in enumerate(psi.data))
              for psi in action.matrices]
    for n in range(4):
        expected = sum(t ** n for t in traces) / action.group.order
        assert setup.invariant_space(n).dim == expected


@given(actions())
@settings(max_examples=30, deadline=None)
def test_coset_coefficients_give_the_plain_cohomology(action):
    from leibcohom.complexes import betti_numbers
    setup = _setup(action, coset_function_coefficients)
    alg = action.algebra
    plain = betti_numbers(alg, 2)
    for n in range(3):
        assert setup.invariant_space(n).dim == alg.dim ** n
        assert setup.cohomology(n).betti == plain[n]


def test_an_identity_morphism_sent_to_a_non_identity_map_still_binds():
    # an unvalidated system on lambda6_z2: coset functions, but the
    # identity morphism of G/e goes to the swap of the two cosets
    good = catalog_setup("lambda6_z2", coefficients="coset-functions")
    e = frozenset({0})
    maps = dict(good.coefficients.maps)
    maps[(e, e, 0)] = maps[(e, e, 1)]
    assert maps[(e, e, 0)] != Matrix.identity(QQ, 2)
    coefficients = CoefficientSystem(good.category, QQ,
                                     good.coefficients.algebras, maps)
    assert not check_coefficient_system(coefficients).ok
    setup = L.EquivariantSetup(good.action, good.category, coefficients)
    smaller = False
    for n in range(4):
        space = setup.invariant_space(n)
        kernel = _kernel_of_all_constraints(setup, n)
        assert space.dim == len(kernel)
        basis = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                               for x in v] for v in space.basis])
        both = basis.col_join(sympy.Matrix.hstack(*kernel).T) if kernel \
            else basis
        assert both.rank() == space.dim
        smaller |= space.dim < good.invariant_space(n).dim
    assert smaller


def _kernel_of_all_constraints(setup, n):
    """The null space, as sympy columns, of c_H R^(x)n - A(g-hat) c_K over
    every morphism, each cochain unit vector evaluated on its own."""
    def sym(mat):
        return sympy.Matrix(mat.rows, mat.cols,
                            [sympy.Rational(x.numerator, x.denominator)
                             for row in mat.data for x in row])

    layout = setup.layout(n)
    total = setup.ambient_dim(n)
    maps = []
    for m in setup.category.morphisms:
        Rn = sympy.eye(1)
        for _ in range(n):
            Rn = sympy.kronecker_product(Rn, sym(setup.restrictions[m].matrix))
        maps.append((m[0], m[1], Rn, sym(setup.coefficients.maps[m])))
    columns = []
    for i in range(total):
        comps = {}
        for H, h, a, off in layout:
            c = sympy.zeros(a, h ** n)
            if off <= i < off + a * h ** n:
                t, al = divmod(i - off, a)
                c[al, t] = 1
            comps[H] = c
        residuals = []
        for H, K, Rn, A in maps:
            residuals.extend(comps[H] * Rn - A * comps[K])
        columns.append(residuals)
    return sympy.Matrix(columns).T.nullspace()


# ---------------------------------------------------------------------------
# cohomology(n) reads delta off its ambient images in degree n.  It must give
# what the coboundary matrices X_n = equivariant_coboundary(n) give, taken
# in sympy: the cocycles the reduced-echelon null space of X_n, the
# coboundaries the columns of X_{n-1} that greedy independence keeps, and
# the classes the cocycles it keeps after them.
# ---------------------------------------------------------------------------

def _check_against_coboundary_matrices(setup, top):
    f = setup.field
    results = [setup.cohomology(n) for n in range(top + 1)]
    for n, res in enumerate(results):
        dim = setup.invariant_space(n).dim
        cocycles = sympy_kernel(f, setup.equivariant_coboundary(n).entries,
                                dim)
        columns = (setup.equivariant_coboundary(n - 1).transpose().entries
                   if n else [])
        coboundaries = [columns[j] for j in
                        greedy_independent(f, columns, dim)]
        assert res.cochain_dimension == dim
        assert res.cocycles == cocycles
        assert res.coboundaries == coboundaries
        assert res.classes == greedy_classes(f, cocycles, coboundaries, dim)
        assert res.betti == len(cocycles) - len(coboundaries)


@given(actions(), st.sampled_from([constant_coefficients,
                                   coset_function_coefficients]))
@settings(max_examples=30, deadline=None)
def test_cohomology_equals_the_coboundary_matrix_route(action, coefficients):
    _check_against_coboundary_matrices(_setup(action, coefficients), 3)


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_catalog_cohomology_equals_the_coboundary_matrix_route(name,
                                                               coefficients):
    top = 2 if name == "free_leib(2,2)_perm" else 3
    _check_against_coboundary_matrices(
        catalog_setup(name, coefficients=coefficients), top)


# ---------------------------------------------------------------------------
# The int echelon of _coboundary_echelon(n) is the one that cohomology(n)
# chooses its classes with, and is_coboundary(n, row), the zinbiel span
# test, clears a row against it.  Its rows must span the column space of
# X_{n-1} (ranks taken in sympy, over Q or in GF(p)); each row's pivot is
# its largest column, with a primitive positive lead over Q and lead 1
# over F_p, and each row is 0 at the other pivots.  is_coboundary must
# accept every delta image of S^{n-1}_G and refuse every class
# representative.
# ---------------------------------------------------------------------------

def _check_coboundary_echelon(setup, top):
    """Checks degrees 1..top; returns the number of echelon rows seen."""
    f = setup.field
    seen = 0
    for n in range(1, top + 1):
        echelon = setup._coboundary_echelon(n)[2]
        assert setup._coboundary_echelon(n)[2] is echelon
        rows = list(echelon.values())
        dim = setup.invariant_space(n).dim
        images = setup.equivariant_coboundary(n - 1).transpose().entries
        rank = sympy_rank(f, images, dim)
        assert len(rows) == sympy_rank(f, rows, dim) == rank
        assert sympy_rank(f, rows + images, dim) == rank
        for pc, row in echelon.items():
            assert max(row) == pc
            assert not any(q in row for q in echelon if q != pc)
            if f == QQ:
                assert row[pc] > 0 and gcd(*row.values()) == 1
            else:
                assert row[pc] == 1
                assert all(0 < x < f.p for x in row.values())
        for w in images:
            assert setup.is_coboundary(n, clear_denominators([w])[0][0])
        for z in setup.cohomology(n).classes:
            assert not setup.is_coboundary(n, clear_denominators([z])[0][0])
        seen += len(rows)
    return seen


@given(actions(), st.sampled_from([constant_coefficients,
                                   coset_function_coefficients]))
@settings(max_examples=30, deadline=None)
def test_coboundary_echelon_is_the_last_pivot_echelon_of_the_coboundaries(
        action, coefficients):
    _check_coboundary_echelon(_setup(action, coefficients), 3)


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_catalog_coboundary_echelon_is_the_last_pivot_echelon(name,
                                                              coefficients):
    # every echelon is empty exactly on the abelian free_leib(m,1)_perm
    setup = catalog_setup(name, coefficients=coefficients)
    top = 2 if name == "free_leib(2,2)_perm" else 3
    abelian = not any(x for row in setup.action.algebra.structure
                      for v in row for x in v)
    assert (_check_coboundary_echelon(setup, top) > 0) != abelian


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS)
def test_a_tower_leaves_the_next_space_unbuilt(name, coefficients):
    setup = catalog_setup(name, coefficients=coefficients)
    degrees = _spy_on_spaces(setup)
    for n in range(4):
        setup.invariant_space(n)
        setup.cohomology(n)
    assert max(degrees) == 3
    # the coboundary matrix of the top degree still needs S^4_G
    setup.equivariant_coboundary(3)
    assert max(degrees) == 4


# ---------------------------------------------------------------------------
# The delta images are summed in ints over each subgroup's d^T.  They must
# be B (+)_H delta_H^T for B the basis of S^n_G as rows, with each delta_H
# the field-entry coboundary matrix, built here.
# ---------------------------------------------------------------------------

def _fraction_route_images(setup, n):
    sn = setup.invariant_space(n)
    B = Matrix.from_entries(setup.field, sn.dim, sn.ambient_dim, sn.vectors)
    return B.mul(ambient_coboundary(setup, n).transpose()).entries


@st.composite
def f2_actions(draw):
    """An action over F_2 with a nonzero bracket, or a permutation action
    on abelian_m over F_2, possibly re-based."""
    kind = draw(st.sampled_from(["derived2", "free_leib", "abelian"]))
    if kind == "derived2":
        action = L.catalog("derived2_f2_z2").action
    elif kind == "free_leib":
        alg, words = free_leibniz_truncated(2, 2, GF(2))
        action = _letter_permutation_action(alg, words, 2)
    else:
        q = draw(abelian_actions())
        f2 = GF(2)
        action = L.GroupAction(
            q.group, L.LeibnizAlgebra.zero_bracket(f2, q.algebra.dim),
            [Matrix.from_rows(f2, psi.data) for psi in q.matrices])
    seed = draw(st.sampled_from([None, 1, 2]))
    if seed is not None:
        action = rebased_action(action, seed)
    assert L.validate_action(action).ok
    return action


def scaled(action, s):
    """The action on the algebra with every bracket multiplied by s, which
    keeps the Leibniz identity and the automorphisms: over Q, s = 1/2
    gives d^T a common denominator other than 1."""
    alg = action.algebra
    f = alg.field
    c = f.coerce(s)
    structure = [[[f.mul(c, x) for x in v] for v in row]
                 for row in alg.structure]
    return L.GroupAction(action.group, L.LeibnizAlgebra(f, alg.dim, structure),
                         action.matrices)


@given(st.one_of(actions(), f2_actions()),
       st.sampled_from([constant_coefficients, coset_function_coefficients]),
       st.sampled_from([1, Fraction(1, 2), Fraction(-2, 3)]))
@settings(max_examples=40, deadline=None)
def test_delta_images_equal_the_fraction_route(action, coefficients, s):
    if action.algebra.field == QQ:
        action = scaled(action, s)
    setup = _setup(action, coefficients)
    for n in range(4):
        assert setup.field.divide_ints(*setup._delta_sums(n)) == \
            _fraction_route_images(setup, n)


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_catalog_delta_images_equal_the_fraction_route(name, coefficients,
                                                       seed):
    # re-based, the fixed subalgebras of free_leib(2,2)_perm have
    # structure constants with different denominators (1 and 49)
    setup = catalog_setup(name, coefficients=coefficients)
    action = setup.action if seed is None else rebased_action(setup.action,
                                                              seed)
    if setup.field == QQ:
        action = scaled(action, Fraction(1, 2))
    setup = L.EquivariantSetup(action, setup.category, setup.coefficients)
    top = 2 if name == "free_leib(2,2)_perm" else 4
    # the top degree first: the lower ones build each d^T again from d_2
    for n in [top] + list(range(top)):
        assert setup.field.divide_ints(*setup._delta_sums(n)) == \
            _fraction_route_images(setup, n)


@given(st.one_of(actions(), f2_actions()),
       st.sampled_from([constant_coefficients, coset_function_coefficients]),
       st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_is_coboundary_agrees_with_a_sympy_rank_test(action, coefficients, n,
                                                     data):
    # the span test against sympy: a combination of delta images, maybe
    # with a class representative added; over Q the brackets are halved,
    # so the images have denominators
    if action.algebra.field == QQ:
        action = scaled(action, Fraction(1, 2))
    setup = _setup(action, coefficients)
    f = setup.field
    images = setup.equivariant_coboundary(n - 1).transpose().entries
    classes = setup.cohomology(n).classes
    small = st.integers(-3, 3)
    terms = [(f.coerce(data.draw(small)), w) for w in images]
    if classes and data.draw(st.booleans()):
        terms.append((f.coerce(data.draw(small)),
                      classes[data.draw(st.integers(0, len(classes) - 1))]))
    scale = f.coerce(data.draw(st.sampled_from([1, Fraction(-5, 6)]))
                     if f == QQ else 1)
    v = combination(f, [(f.mul(scale, c), w) for c, w in terms])
    dim = setup.invariant_space(n).dim
    expected = sympy_rank(f, images + [v], dim) == sympy_rank(f, images, dim)
    assert setup.is_coboundary(n, clear_denominators([v])[0][0]) == expected


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_a_tower_builds_each_boundary_once(monkeypatch, name, coefficients):
    built = []
    step = BoundaryChain.step

    def spy(chain):
        step(chain)
        built.append((id(chain), chain.degree))

    monkeypatch.setattr(BoundaryChain, "step", spy)
    setup = catalog_setup(name, coefficients=coefficients)
    top = 3 if name == "free_leib(2,2)_perm" else 5
    for n in range(top + 1):
        setup.cohomology(n)
    chains = [setup._chains[H] for H in setup.category.subgroups]
    assert len({id(c) for c in chains}) == len(chains)
    assert sorted(built) == sorted((id(c), k) for c in chains
                                   for k in range(2, top + 2))


# ---------------------------------------------------------------------------
# An oracle that shares no code with the program: over Q with constant
# coefficients S^n_G is the G-invariant n-cochains, so HL^n_G is the
# cohomology of the G-averaged cochain complex, dim HL^n(g)^G.  Built here in
# sympy from the structure constants and the action matrices alone: the
# boundary from its defining formula, delta^n = d_{n+1}^T, the invariant
# cochains as the column space of the average of (psi_g^(x)n)^T.
# ---------------------------------------------------------------------------

def _sympy_boundary(structure, m, n):
    """d_n: g^(x)n -> g^(x)(n-1) for n >= 2, as an m^(n-1) x m^n matrix."""
    words = list(product(range(m), repeat=n - 1))
    index = {w: i for i, w in enumerate(words)}
    d = sympy.zeros(m ** (n - 1), m ** n)
    for col, x in enumerate(product(range(m), repeat=n)):
        for j in range(1, n):
            for i in range(j):
                rest = x[:j] + x[j + 1:]
                for k, c in enumerate(structure[x[i]][x[j]]):
                    if c:
                        w = rest[:i] + (k,) + rest[i + 1:]
                        d[index[w], col] += (-1) ** (j + 1) * c
    return d


def _averaged_betti(action, top):
    alg = action.algebra
    m = alg.dim
    structure = [[[sympy.Rational(x.numerator, x.denominator) for x in v]
                  for v in row] for row in alg.structure]
    psi = [sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in mat.data])
           for mat in action.matrices]
    invariant, delta = [], []
    for n in range(top + 1):
        average = sympy.zeros(m ** n, m ** n)
        for g in psi:
            power = sympy.eye(1)
            for _ in range(n):
                power = sympy.kronecker_product(power, g)
            average += power.T
        space = (average / len(psi)).columnspace()
        invariant.append(sympy.Matrix.hstack(*space) if space
                         else sympy.zeros(m ** n, 0))
        d = _sympy_boundary(structure, m, n + 1) if n >= 1 else \
            sympy.zeros(1, m)
        delta.append((d.T * invariant[n]).rank() if invariant[n].cols else 0)
    return [invariant[n].cols - delta[n] - (delta[n - 1] if n else 0)
            for n in range(top + 1)]


@given(actions())
@settings(max_examples=20, deadline=None)
def test_constant_coefficients_give_the_invariants_of_the_plain_cohomology(
        action):
    if action.algebra.field != QQ:
        return
    setup = _setup(action, constant_coefficients)
    assert [setup.cohomology(n).betti for n in range(4)] == \
        _averaged_betti(action, 3)


@pytest.mark.parametrize("seed", [None, 1])
def test_lambda6_z2_cohomology_is_the_invariant_part_of_the_plain_one(seed):
    action = L.catalog("lambda6_z2").action
    if seed is not None:
        action = rebased_action(action, seed)
    expected = _averaged_betti(action, 3)
    assert expected == [1, 0, 1, 0]     # HL^n(lambda6) = 1 in every degree
    setup = _setup(action, constant_coefficients)
    assert [setup.cohomology(n).betti for n in range(4)] == expected


# ---------------------------------------------------------------------------
# Over a large prime every int row of the equivariant path (R^(x)n, the
# constraint rows, the boundaries and the images of delta) must be reduced
# mod p, or its entries grow past p and the residues go wrong.  On these
# problems no denominator or pivot is divisible by 2^61 - 1, so the
# reduced-echelon bases over F_p are those over Q read mod p.
# ---------------------------------------------------------------------------

LARGE_PRIME = GF(2 ** 61 - 1)


def action_over(action, field):
    """The same action with its structure constants and matrices read
    into another field."""
    alg = action.algebra
    structure = [[[field.coerce(x) for x in v] for v in row]
                 for row in alg.structure]
    return L.GroupAction(action.group,
                         L.LeibnizAlgebra(field, alg.dim, structure),
                         [Matrix.from_rows(field, psi.data)
                          for psi in action.matrices])


def read_mod(field, vectors):
    return [{j: field.coerce(x) for j, x in v.items()} for v in vectors]


@pytest.mark.parametrize("name, coefficients, betti", [
    ("lambda6_z2", "constant", [1, 0, 1, 0, 1]),
    ("lambda6_z2", "coset-functions", [1, 1, 1, 1, 1]),
    ("free_leib(2,1)_perm", "constant", [1, 1, 2, 4, 8]),
    ("free_leib(2,1)_perm", "coset-functions", [1, 2, 4, 8, 16]),
])
def test_large_prime_towers_equal_the_rational_ones(name, coefficients,
                                                    betti):
    rational = catalog_setup(name, coefficients)
    action = action_over(rational.action, LARGE_PRIME)
    category = L.orbit_category(action.group)
    make = (constant_coefficients if coefficients == "constant"
            else coset_function_coefficients)
    setup = L.EquivariantSetup(action, category,
                               make(category, LARGE_PRIME))
    assert [setup.cohomology(n).betti for n in range(5)] == betti
    for n in range(5):
        q, fp = rational.cohomology(n), setup.cohomology(n)
        assert q.betti == betti[n]
        assert setup.invariant_space(n).vectors == read_mod(
            LARGE_PRIME, rational.invariant_space(n).vectors)
        for part in ("cocycles", "coboundaries", "classes"):
            assert getattr(fp, part) == read_mod(LARGE_PRIME,
                                                 getattr(q, part)), (n, part)


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", ["lambda6_z2", "free_leib(2,1)_perm"])
def test_large_prime_int_rows_hold_residues(name, coefficients):
    # left unreduced, R^(x)n and the constraint rows would still give the
    # right towers, since the elimination reduces; they must not grow
    rational = catalog_setup(name, coefficients)
    action = action_over(rational.action, LARGE_PRIME)
    category = L.orbit_category(action.group)
    make = (constant_coefficients if coefficients == "constant"
            else coset_function_coefficients)
    setup = L.EquivariantSetup(action, category,
                               make(category, LARGE_PRIME))
    p = LARGE_PRIME.p
    for n in range(5):
        rows = list(setup._constraint_rows(n))
        for m in category.morphisms:
            columns, d = setup._restriction_ints(m, n)
            assert d == 1
            rows += columns
        assert all(0 < x < p for row in rows for x in row.values()), n


# ---------------------------------------------------------------------------
# The invariance check.  delta keeps S^n_G invariant because the restriction
# map R: g^K -> g^H of each binding morphism is a bracket morphism: then
# d_H R^(x)(n+1) = R^(x)n d_K, so every constraint C of the morphism takes
# C(delta b) = C(b) d_K = 0.  ``_binding`` checks each binding R once, and
# refuses the setup at its first invariant space.  The oracles share no
# code with it:
#   - a Fraction loop of R[e_i, e_j] - [R e_i, R e_j] must fail on some
#     binding R exactly when the setup is refused;
#   - the sympy product of every constraint row of degree n + 1, written
#     out from the restriction and coefficient matrices, with all delta
#     images of degree n must vanish at every degree up to a tower's top
#     unless the setup is refused.  That also checks the delta-sum code,
#     whose images of the top degree nothing else reads.
# ---------------------------------------------------------------------------

def _rational(x):
    """A field element as a sympy rational; residues are ints."""
    return sympy.Rational(x.numerator, x.denominator)


def _all_constraint_rows(setup, n):
    """Row (tK, al) of c_H R^(x)n - A(g-hat) c_K for every morphism, as a
    dense list on the ambient coordinates of degree n, with R^(x)n[tH][tK]
    the product of R's entries at the digits of tH and tK."""
    total = setup.ambient_dim(n)
    blocks = {H: (h, a, off) for H, h, a, off in setup.layout(n)}
    rows = []
    for m in setup.category.morphisms:
        H, K, _ = m
        R = setup.restrictions[m].matrix.data
        A = setup.coefficients.maps[m].data
        (hH, aH, offH), (hK, aK, offK) = blocks[H], blocks[K]
        words_H = list(product(range(hH), repeat=n))
        for tK, wK in enumerate(product(range(hK), repeat=n)):
            for al in range(aH):
                row = [0] * total
                for tH, wH in enumerate(words_H):
                    entry = sympy.Integer(1)
                    for i, j in zip(wH, wK):
                        entry *= _rational(R[i][j])
                    row[offH + tH * aH + al] += entry
                for aj in range(aK):
                    row[offK + tK * aK + aj] -= _rational(A[al][aj])
                rows.append(row)
    return rows


def _breaks_the_bracket(phi):
    """Whether R[e_i, e_j] != [R e_i, R e_j] for some basis pair, R =
    phi's matrix, summed in Fractions from the dense matrix and structure
    constants (residues read mod p)."""
    p = phi.target.field.characteristic
    R = [[Fraction(x) for x in row] for row in phi.matrix.data]
    S, T = phi.source.structure, phi.target.structure
    k, h = phi.source.dim, phi.target.dim
    for i, j, r in product(range(k), range(k), range(h)):
        x = sum(R[r][l] * S[i][j][l] for l in range(k)) - sum(
            R[a][i] * R[b][j] * T[a][b][r] for a in range(h) for b in range(h))
        if x % p if p else x:
            return True
    return False


def _binding_morphisms(setup):
    """Every morphism but the (H, H, g) whose restriction and coefficient
    maps are both identity matrices."""
    def identity(M):
        return all(x == (i == j) for i, row in enumerate(M.data)
                   for j, x in enumerate(row))
    return [m for m in setup.category.morphisms
            if m[0] != m[1] or not identity(setup.restrictions[m].matrix)
            or not identity(setup.coefficients.maps[m])]


def _refused(setup):
    """Whether the setup's check refuses it, with its message.  A refused
    setup's binding data is then built with the check passed over, so that
    it computes what an unchecked setup would."""
    try:
        setup._binding
        return False
    except AssertionError as e:
        assert "leaves the invariant subspace" in str(e)
    with mock.patch.object(equivariant, "check_morphism",
                           lambda phi: Verdict(True, [])):
        setup._binding
    return True


def _broken_degrees(setup, top):
    """The degrees n <= top whose delta images have a nonzero sympy
    product with the constraint rows of degree n + 1."""
    p = setup.field.characteristic
    broken = []
    for n in range(top + 1):
        images = setup.field.divide_ints(*setup._delta_sums(n))
        if not any(images):
            continue
        C = sympy.Matrix(_all_constraint_rows(setup, n + 1))
        V = sympy.Matrix(setup.ambient_dim(n + 1), len(images),
                         lambda k, j: _rational(images[j].get(k, 0)))
        if any(x % p if p else x for x in C * V):
            broken.append(n)
    return broken


def _check_matches_the_oracles(setup, top):
    """Asserts that the setup is refused exactly when the Fraction loop
    breaks a binding restriction map, and only a refused setup has images
    that break a constraint in a degree n <= top; returns (refused, the
    broken degrees)."""
    breaks = any(_breaks_the_bracket(setup.restrictions[m])
                 for m in _binding_morphisms(setup))
    refused = _refused(setup)
    assert refused == breaks
    broken = _broken_degrees(setup, top)
    assert refused or not broken, broken
    return refused, broken


def _tamper(setup, morphism, matrix):
    src = setup.restrictions[morphism]
    setup.restrictions[morphism] = L.AlgebraMorphism(src.source, src.target,
                                                     matrix)


@st.composite
def nilpotent_actions(draw):
    """Z/2 x Z/2 or S_3 acting on a two-step nilpotent Leibniz algebra
    V + Z with [V, V] <= Z and every other bracket 0, which satisfies the
    Leibniz identity for any bracket on V.  V and Z are sums of characters
    (each Klein character; the trivial and sign characters of S_3), or V
    is S_3's permutation representation with an invariant form into the
    trivial Z.  A bracket only pairs characters whose product is the
    target's, so each psi_g is an automorphism."""
    name = draw(st.sampled_from(sorted(BLOCKS)))
    group, kinds = BLOCKS[name]
    characters = [k for k in kinds if len(_block(k, 0)) == 1]
    label = {("trivial", None): 0, ("sign", None): 1,
             **{("character", k): k for k in range(4)}}
    nonzero = st.sampled_from([1, -1, 2, -2])
    if name == "s3" and draw(st.booleans()):
        V, Z = [("permutation", None)], [("trivial", None)]
    else:
        V = draw(st.lists(st.sampled_from(characters), min_size=1,
                          max_size=2))
        # [v_0, v_last] is allowed to hit Z
        Z = [next(k for k in characters
                  if label[k] == label[V[0]] ^ label[V[-1]])]
    v = sum(len(_block(kind, 0)) for kind in V)
    m = v + 1
    structure = [[[0] * m for _ in range(m)] for _ in range(m)]
    if V[0][0] == "permutation":        # B = t I + u J, invariant under S_3
        t, u = draw(nonzero), draw(st.integers(-2, 2))
        for i in range(3):
            for j in range(3):
                structure[i][j][v] = t * (i == j) + u
    else:
        for i, a in enumerate(V):
            for j, b in enumerate(V):
                if label[a] ^ label[b] == label[Z[0]]:
                    structure[i][j][v] = draw(nonzero)
    matrices = [block_diag(QQ, [Matrix.from_rows(QQ, _block(kind, g))
                                for kind in V + Z])
                for g in range(group.order)]
    action = L.GroupAction(group, L.LeibnizAlgebra(QQ, m, structure),
                           matrices)
    assert L.validate_action(action).ok
    return action


def _rescale_coefficients(setup, H0, c):
    """The same coefficient system with the first basis vector of A(G/H0)
    scaled by c: delta still keeps invariance, and over Q c = 2 or 1/2
    gives the maps a denominator that R^(x)n does not have."""
    f = setup.field
    scale = {H: f.one() for H in setup.category.subgroups}
    scale[H0] = f.coerce(c)
    setup.coefficients.maps = {
        (H, K, g): Matrix.from_entries(f, A.rows, A.cols, [
            {j: f.mul(x, f.mul(f.inv(scale[H]) if i == 0 else f.one(),
                               scale[K] if j == 0 else f.one()))
             for j, x in row.items()}
            for i, row in enumerate(A.entries)])
        for (H, K, g), A in setup.coefficients.maps.items()}


@given(st.one_of(nilpotent_actions(), actions()),
       st.sampled_from([constant_coefficients, coset_function_coefficients]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_the_check_refuses_exactly_the_restrictions_that_break_the_bracket(
        action, coefficients, data):
    setup = _setup(action, coefficients)
    f = setup.field
    kind = data.draw(st.sampled_from([None, "restriction", "coefficients"]))
    if kind == "restriction":
        # any matrix of the right shape, a morphism or not
        m = data.draw(st.sampled_from(setup.category.morphisms))
        R = setup.restrictions[m].matrix
        entries = data.draw(st.lists(st.integers(-1, 1),
                                     min_size=R.rows * R.cols,
                                     max_size=R.rows * R.cols))
        _tamper(setup, m, Matrix(f, R.rows, R.cols, [
            [f.coerce(x) for x in entries[i * R.cols:(i + 1) * R.cols]]
            for i in range(R.rows)]))
    elif kind == "coefficients":
        H0 = data.draw(st.sampled_from(setup.category.subgroups))
        c = data.draw(st.sampled_from([-1, 2, Fraction(1, 2)] if f == QQ
                                      else [-1]))
        _rescale_coefficients(setup, H0, c)
    # the oracle writes out dense rows: degree 3 only while they are short
    refused, _ = _check_matches_the_oracles(
        setup, 2 if setup.ambient_dim(3) <= 200 else 1)
    assert not refused or kind == "restriction"


def _non_morphism(alg):
    """An endomorphism matrix of alg that is not an algebra map: the
    identity with one more entry, or with one entry doubled."""
    f, m = alg.field, alg.dim
    for i, j, x in [(0, m - 1, 1), (m - 1, 0, 1), (m - 1, m - 1, 1)]:
        rows = [{k: f.one()} for k in range(m)]
        rows[i][j] = f.add(rows[i].get(j, f.zero()), f.coerce(x))
        mat = Matrix.from_entries(f, m, m, [{k: y for k, y in r.items() if y}
                                            for r in rows])
        if not L.check_morphism(L.AlgebraMorphism(alg, alg, mat)).ok:
            return mat
    raise AssertionError("no candidate breaks the bracket")


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", ["lambda6_z2", "derived2_f2_z2",
                                  "free_leib(2,2)_perm"])
def test_the_check_refuses_a_catalog_restriction_that_is_no_morphism(
        name, coefficients):
    # each of these delta images would leave the invariant subspace
    setup = catalog_setup(name, coefficients=coefficients)
    e = frozenset({0})
    _tamper(setup, (e, e, 1), _non_morphism(setup.fixed[e].algebra))
    top = 1 if name == "free_leib(2,2)_perm" else 2
    refused, broken = _check_matches_the_oracles(setup, top)
    assert refused and broken


@pytest.mark.parametrize("name, coefficients", [
    ("lambda6_z2", "coset-functions"), ("free_leib(2,2)_perm", "constant")])
@pytest.mark.parametrize("c", [2, Fraction(1, 2)])
def test_the_check_keeps_a_rescaled_coefficient_system(name, coefficients, c):
    # the constraint rows of (e, G, 0) take a factor that the restriction
    # part alone must be multiplied by; the coefficient maps drop out of
    # C(delta b) = C(b) d_K
    setup = catalog_setup(name, coefficients)
    _rescale_coefficients(setup, frozenset({0}), c)
    assert _check_matches_the_oracles(setup, 2) == (False, [])


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS)
def test_a_catalog_tower_keeps_every_constraint_up_to_its_top(
        name, coefficients):
    # the images of the top degree are read nowhere else in the program
    setup = catalog_setup(name, coefficients)
    top = 3
    for n in range(top + 1):
        setup.cohomology(n)
    assert _check_matches_the_oracles(setup, top) == (False, [])


def test_the_check_refuses_a_restriction_broken_in_one_entry():
    # on free_leib(2,2)_perm, g^G -> g with one entry doubled breaks the
    # bracket; in degree 1 only the middle one of three pivot images would
    # then break a constraint of degree 2, and the setup is refused before
    # any image is summed
    setup = catalog_setup("free_leib(2,2)_perm", "coset-functions")
    f = setup.field
    e, G = frozenset({0}), frozenset({0, 1})
    R = setup.restrictions[(e, G, 0)]
    assert R.matrix.entries[3] == {1: f.one()}
    bad = Matrix.from_entries(f, R.matrix.rows, R.matrix.cols,
                              [{1: f.coerce(2)} if i == 3 else row
                               for i, row in enumerate(R.matrix.entries)])
    _tamper(setup, (e, G, 0), bad)
    with pytest.raises(AssertionError, match="leaves the invariant subspace"):
        setup.invariant_space(0)
    assert _check_matches_the_oracles(setup, 1) == (True, [1])
    images = setup.field.divide_ints(*setup._delta_sums(1))
    V = sympy.Matrix(setup.ambient_dim(2), len(images),
                     lambda k, j: _rational(images[j].get(k, 0)))
    C = sympy.Matrix(_all_constraint_rows(setup, 2))
    assert [any(C * V[:, j]) for j in V.rref()[1]] == [False, True, False]


@pytest.mark.parametrize("coefficients, binding", [("constant", 27),
                                                    ("coset-functions", 28)])
def test_a_setup_checks_each_binding_restriction_once_at_first_use(
        coefficients, binding):
    # S_3 has 34 orbit-category morphisms; the (H, H, g) whose restriction
    # and coefficient maps are identity matrices bind nothing and are not
    # checked, and construction checks none
    checked = []

    def spy(phi):
        checked.append(phi)
        return L.check_morphism(phi)
    with mock.patch.object(groups, "check_morphism", spy), \
            mock.patch.object(equivariant, "check_morphism", spy):
        setup = catalog_setup("free_leib(3,1)_perm", coefficients)
        assert len(setup.category.morphisms) == 34 and checked == []
        setup.invariant_space(0)
        assert [id(phi) for phi in checked] == [
            id(setup.restrictions[m]) for m in _binding_morphisms(setup)]
        assert len(checked) == binding
        for n in range(3):
            setup.invariant_space(n)
            setup.cohomology(n)
        assert len(checked) == binding


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_a_tower_streams_each_constraint_system_once(name, coefficients):
    setup = catalog_setup(name, coefficients=coefficients)
    streamed = []
    rows = setup._constraint_rows

    def spy(n):
        streamed.append(n)
        return rows(n)
    setup._constraint_rows = spy
    top = 3 if name == "free_leib(2,2)_perm" else 5
    for n in range(top + 1):
        setup.invariant_space(n)
        setup.cohomology(n)
    assert streamed == list(range(top + 1))


@pytest.mark.parametrize("coefficients", ["constant", "coset-functions"])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_a_tower_builds_no_restriction_power_above_its_top(name, coefficients):
    setup = catalog_setup(name, coefficients=coefficients)
    asked = []
    build = setup._restriction_ints

    def spy(morphism, n):
        asked.append(n)
        return build(morphism, n)
    setup._restriction_ints = spy
    top = 3 if name == "free_leib(2,2)_perm" else 5
    for n in range(top + 1):
        setup.cohomology(n)
    assert max(asked) == top


# ---------------------------------------------------------------------------
# The set-up data against sympy: the fixed subalgebras and restriction maps
# that every EquivariantSetup builds in int rows, checked on the action's
# input matrices and structure constants alone.
# ---------------------------------------------------------------------------

def _sym(rows, ncols):
    """Dense rows of field elements as a sympy matrix over Q (residues as
    ints)."""
    return sympy.Matrix(len(rows), ncols, lambda i, j: _rational(rows[i][j]))


def _vanishes(field, M):
    p = field.characteristic
    return all((x % p if p else x) == 0 for x in M)


def _check_setup_data(setup):
    """g^H is the reduced-echelon null space of the stacked psi_h - I, its
    bracket is the one of g on the inclusion, and incl_H R = psi_g incl_K
    for every morphism (H, K, g); the inclusion is rebuilt from the kept
    int rows, and the int data kept beside each matrix equals it."""
    action, f = setup.action, setup.field
    alg = action.algebra
    m = alg.dim
    T = sympy.Matrix(m, m * m, lambda k, ab: _rational(
        alg.structure[ab // m][ab % m][k]))
    incl = {}
    for H in setup.category.subgroups:
        fx = setup.fixed[H]
        k = fx.dim
        rows = [[f.sub(x, f.one()) if i == j else x
                 for j, x in enumerate(row)]
                for h in sorted(H) if h
                for i, row in enumerate(action.psi(h).data)]
        ints, e = fx.ints           # e = 1 over F_p
        columns = [{i: Fraction(x, e) for i, x in c.items()} for c in ints]
        assert columns == sympy_kernel(
            f, [{j: x for j, x in enumerate(r) if x} for r in rows], m)
        incl[H] = sympy.Matrix(m, k, lambda i, j: _rational(
            columns[j].get(i, 0)))
        S = sympy.Matrix(k, k * k, lambda c, ab: _rational(
            fx.algebra.structure[ab // k][ab % k][c]))
        assert not k or _vanishes(f, incl[H] * S - T *
                                  sympy.kronecker_product(incl[H], incl[H]))
    for morphism, phi in setup.restrictions.items():
        H, K, g = morphism
        R = _sym(phi.matrix.data, phi.matrix.cols)
        psi = _sym(action.psi(g).data, m)
        assert _vanishes(f, incl[H] * R - psi * incl[K])
        columns, d = phi.integral
        assert _vanishes(f, R - sympy.Matrix(
            R.rows, R.cols, lambda i, j: _rational(columns[j].get(i, 0)) / d))


@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm",
                                                    "free_leib(2,3)_perm"])
def test_catalog_setup_data_matches_sympy(name):
    _check_setup_data(catalog_setup(name))


@given(nilpotent_actions())
@settings(max_examples=30, deadline=None)
def test_nilpotent_setup_data_matches_sympy(action):
    _check_setup_data(_setup(action, constant_coefficients))


def _restriction_by_a_fraction_loop(setup, morphism):
    """psi_g on the basis of g^K, in the basis of g^H: summed in Fractions
    from the dense psi_g and the kept int rows of both bases, each image
    checked to be rebuilt by its entries at the free columns of g^H, which
    are its coordinates.  Dense rows of field elements."""
    H, K, g = morphism
    f, m = setup.field, setup.action.algebra.dim
    p = f.characteristic
    psi = [[Fraction(x) for x in row] for row in setup.action.psi(g).data]

    def basis(fx):
        ints, e = fx.ints
        return [[Fraction(v.get(a, 0), e) for a in range(m)] for v in ints]
    fH, bH = setup.fixed[H], basis(setup.fixed[H])
    columns = []
    for b in basis(setup.fixed[K]):
        image = [sum(x * y for x, y in zip(row, b)) for row in psi]
        coords = [image[c] for c in fH.free]
        rebuilt = [sum(x * v[a] for x, v in zip(coords, bH)) for a in range(m)]
        assert all((x - y) % p == 0 if p else x == y
                   for x, y in zip(image, rebuilt))
        columns.append([f.coerce(x) for x in coords])
    return [[c[r] for c in columns] for r in range(fH.dim)]


def _scaled_swap():
    """Z/2 swapping the two axes of abelian_2 with scales 2 and 1/2: g^G
    is spanned by (1/2, 1), int row (1, 2) over 2."""
    return L.GroupAction(L.FiniteGroup.cyclic(2),
                         L.LeibnizAlgebra.zero_bracket(QQ, 2),
                         [Matrix.identity(QQ, 2), Matrix.from_rows(
                             QQ, [[0, Fraction(1, 2)], [2, 0]])])


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm",
                                                    "scaled swap"])
def test_each_restriction_matrix_is_a_fraction_loop_of_psi(name, seed):
    action = (_scaled_swap() if name == "scaled swap"
              else L.catalog(name).action)
    if seed is not None:
        action = rebased_action(action, seed)
    setup = _setup(action, constant_coefficients)
    for m, phi in setup.restrictions.items():
        H, K, _ = m
        assert phi.shape == (setup.fixed[H].dim, setup.fixed[K].dim)
        assert phi.matrix.data == _restriction_by_a_fraction_loop(setup, m)


@pytest.mark.parametrize("coefficients", [constant_coefficients,
                                          coset_function_coefficients])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["scaled swap"])
def test_the_binding_morphisms_are_read_off_the_int_columns(name,
                                                            coefficients):
    # the scaled swap's identity on g^G is 2/2 in int columns
    action = (_scaled_swap() if name == "scaled swap"
              else rebased_action(L.catalog(name).action, 1))
    setup = _setup(action, coefficients)
    assert [m for m, _, _ in setup._binding] == _binding_morphisms(setup)


# ---------------------------------------------------------------------------
# The set-up makes no field element: the fixed subalgebras, the restriction
# maps and the induced brackets stay int rows until something reads them.
# ---------------------------------------------------------------------------

def _set_up_fractions(action, coefficients, top=3):
    """(made, read, setup): the number of Fractions made while a setup on
    the action is built and solves S^0_G .. S^top_G, and then while every
    restriction matrix and induced structure is read.  The coefficient
    system is built before the count."""
    category = L.orbit_category(action.group)
    cs = coefficients(category, action.algebra.field)
    with counting_fractions() as made:
        setup = L.EquivariantSetup(action, category, cs)
        for n in range(top + 1):
            setup.invariant_space(n)
    with counting_fractions() as read:
        for phi in setup.restrictions.values():
            phi.matrix
        for fx in setup.fixed.values():
            fx.algebra.structure
    return len(made), len(read), setup


@pytest.mark.parametrize("over_f2", [False, True])
@pytest.mark.parametrize("coefficients", [constant_coefficients,
                                          coset_function_coefficients])
@pytest.mark.parametrize("name", CATALOG_ACTIONS + ["free_leib(2,2)_perm"])
def test_the_set_up_makes_no_fraction(name, coefficients, over_f2):
    # the spy sees the lazy views divided when they are read, over Q only
    action = L.catalog(name).action
    if over_f2:
        action = action_over(action, GF(2))
    made, read, setup = _set_up_fractions(action, coefficients)
    assert made == 0
    assert (read > 0) == (setup.field == QQ)


OPTIMIZED_FRACTION_COUNT = """
from leibcohom.linalg import GF
import leibcohom as L
from test_equivariant import (CATALOG_ACTIONS, _set_up_fractions,
                              action_over, constant_coefficients,
                              coset_function_coefficients)
assert False, "asserts must be stripped here"
for name in CATALOG_ACTIONS:
    for coefficients in (constant_coefficients, coset_function_coefficients):
        action = L.catalog(name).action
        for a in (action, action_over(action, GF(2))):
            made, read, setup = _set_up_fractions(a, coefficients)
            print(name, setup.field, made, read > 0)
"""


def test_the_set_up_makes_no_fraction_under_python_O():
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c",
                           OPTIMIZED_FRACTION_COUNT], cwd=tests, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4 * 2 * 2
    for line in lines:
        name, field, made, read = line.split()
        assert (made, read) == ("0", str(field == "QQ"))
