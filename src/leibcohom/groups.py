"""Finite groups, actions on Leibniz algebras, and the orbit category.

Groups are multiplication tables on 0..n-1 with 0 the identity.  Desk
scale (|G| <= 24) keeps brute-force subgroup enumeration cheap.

The set-up data of the equivariant complex is built on int rows (the
convention in the ``linalg`` module docstring): a ``GroupAction`` clears
each psi_g to int rows once, ``fixed_subalgebra`` takes g^H as the kernel
of the stacked int rows of psi_h - I and its induced brackets from the
algebra's ``integral`` constants and the subspace's int basis, which it
keeps as the kernel returned it, and ``restriction_map`` applies psi_g's
int rows to that basis.  Field elements are made once, for the
inclusion, the structure constants and the matrices that the
``LeibnizAlgebra`` and ``AlgebraMorphism`` hold.
"""

from __future__ import annotations

from itertools import permutations

from .linalg import (Matrix, clear_denominators, dense_vector,
                     int_combination, int_free_coordinates, int_kernel_basis,
                     reduce_int_rows)
from .leibniz import LeibnizAlgebra, AlgebraMorphism, check_morphism
from .verdict import Verdict


class FiniteGroup:
    def __init__(self, table):
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError(f"a group table of {n} rows must be {n}x{n}")
        self.order = n
        self.table = [list(row) for row in table]
        self.inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == 0 and self.table[b][a] == 0:
                    self.inverse[a] = b
                    break

    def validate(self):
        n = self.order
        violations = []
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                violations.append(("identity", a))
        for a in range(n):
            if self.inverse[a] is None:
                violations.append(("inverse", a))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        violations.append(("associativity", (a, b, c)))
        return Verdict(not violations, violations)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    @classmethod
    def trivial(cls):
        return cls([[0]])

    @classmethod
    def cyclic(cls, n):
        return cls([[(a + b) % n for b in range(n)] for a in range(n)])

    @classmethod
    def symmetric(cls, n):
        """S_n as a multiplication table; identity permutation is element 0."""
        elems = sorted(permutations(range(n)))
        if elems[0] != tuple(range(n)):
            raise AssertionError("element 0 of S_n is not the identity")
        idx = {p: i for i, p in enumerate(elems)}
        # product = apply right first, then left
        table = [[idx[tuple(p[q[i]] for i in range(n))] for q in elems]
                 for p in elems]
        return cls(table), elems


def subgroup_closure(G, gens):
    """The subgroup generated by gens: the closure of {0} under right
    multiplication by them, which holds their inverses, since in a finite
    group each inverse is a power."""
    mul = G.table
    elems = {0}
    found = [0]
    for a in found:                 # grows while it is read
        for s in gens:
            c = mul[a][s]
            if c not in elems:
                elems.add(c)
                found.append(c)
    return frozenset(elems)


def enumerate_subgroups(G):
    """All subgroups, sorted by (size, sorted element tuple)."""
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for H in frontier:
            for x in range(G.order):
                if x in H:
                    continue
                K = subgroup_closure(G, H | {x})
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    return sorted(found, key=lambda H: (len(H), sorted(H)))


class OrbitCategory:
    """Objects G/H for all subgroups H; morphisms are G-maps G/H -> G/K.

    A morphism is the triple (H, K, g) with g^{-1} H g <= K, identified
    with the coset gK; the stored representative is min(gK).
    """

    def __init__(self, group):
        self.group = group
        self.subgroups = enumerate_subgroups(group)
        n, mul, inv = group.order, group.table, group.inverse
        # conj[g][h] = g^-1 h g; the test g^-1 H g <= K depends on the
        # coset gK only, so each coset is tested once, at its least element
        conj = [[mul[mul[inv[g]][h]][g] for h in range(n)] for g in range(n)]
        reps = {K: sorted({min(mul[g][k] for k in K) for g in range(n)})
                for K in self.subgroups}
        self.morphisms = [(H, K, g) for H in self.subgroups
                          for K in self.subgroups for g in reps[K]
                          if all(conj[g][h] in K for h in H)]
        self._morph_set = set(self.morphisms)

    def cosets(self, H):
        """Left cosets of H, each as a frozenset, sorted by least element."""
        seen = {}
        for g in range(self.group.order):
            c = frozenset(self.group.mul(g, h) for h in H)
            m = min(c)
            seen[m] = c
        return [seen[m] for m in sorted(seen)]

    def compose(self, m1, m2):
        """Composite of m1: G/H -> G/K and m2: G/K -> G/L, as a stored triple."""
        H1, K1, g1 = m1
        K2, L2, g2 = m2
        if K1 != K2:
            raise AssertionError(f"cannot compose {m1} with {m2}")
        g = self.group.mul(g1, g2)
        coset = frozenset(self.group.mul(g, l) for l in L2)
        triple = (H1, L2, min(coset))
        if triple not in self._morph_set:
            raise AssertionError(f"composite {triple} is not a stored morphism")
        return triple


def orbit_category(G):
    return OrbitCategory(G)


class GroupAction:
    """Action of a finite group on a Leibniz algebra by one matrix per element.

    ``integral[g]`` is psi_g as int rows over their common denominator, as
    ``clear_denominators`` makes them, cleared once here for the action
    check, the fixed subalgebras and the restriction maps.
    """

    def __init__(self, group, algebra, matrices):
        if len(matrices) != group.order:
            raise ValueError(f"{len(matrices)} matrices for a group of "
                             f"order {group.order}")
        self.group = group
        self.algebra = algebra
        self.matrices = matrices
        self.integral = [clear_denominators(m.entries) for m in matrices]

    def psi(self, g):
        return self.matrices[g]


def validate_action(action):
    """The action axioms, checked on the int rows of the psi_g: psi_0 = I,
    p psi_g1 psi_g2 = p1 p2 psi_(g1 g2) on the ints P/p of each, row by
    row as one ``int_combination`` (row r of psi_g1 psi_g2 is the sum of
    P1[r][k] times row k of P2), full rank, and each psi_g an algebra
    map."""
    G, alg = action.group, action.algebra
    f = alg.field
    violations = []
    if action.psi(0) != Matrix.identity(f, alg.dim):
        violations.append(("identity", 0, None))
    for g1 in range(G.order):
        P1, p1 = action.integral[g1]
        for g2 in range(G.order):
            P2, p2 = action.integral[g2]
            P, p = action.integral[G.mul(g1, g2)]
            residual = f.reduce_ints([
                int_combination([(-p1 * p2, row)]
                                + [(p * x, P2[k]) for k, x in row1.items()])
                for row1, row in zip(P1, P)])
            if any(residual):
                violations.append(("homomorphism", (g1, g2), None))
    for g in range(G.order):
        P, _ = action.integral[g]
        if len(reduce_int_rows(f, f.reduce_ints(P), alg.dim)) != alg.dim:
            violations.append(("invertibility", g, None))
    for g in range(G.order):
        v = check_morphism(AlgebraMorphism(alg, alg, action.psi(g)))
        for (i, j), residual in v.violations:
            violations.append(("bracket_equivariance", (g, i, j), residual))
    return Verdict(not violations, violations)


class FixedSubalgebra:
    def __init__(self, subgroup, inclusion, free, ints, algebra):
        self.subgroup = subgroup
        self.inclusion = inclusion     # dim(g) x dim(g^H), columns = basis
        self.free = free               # the free column of each basis vector
        self.ints = ints               # (rows, e): the basis as int rows / e
        self.algebra = algebra         # induced Leibniz algebra on g^H

    @property
    def dim(self):
        return self.algebra.dim


def fixed_subalgebra(action, H):
    """Basis and induced bracket of g^H = common kernel of psi_h - I.

    The kernel is taken from the int rows p_h psi_h - p_h I of every
    h != 0.  With the basis as int rows b_i over e and the structure
    constants as int rows s over d, e^2 d [b_i, b_j] is the
    ``int_combination`` sum_ab b_i[a] b_j[b] s[a][b], whose entries at the
    free columns are the induced structure constants over e^2 d once the
    row is rebuilt from them; closure failure would contradict a validated
    action."""
    alg = action.algebra
    f = alg.field
    m = alg.dim
    rows = []
    for h in sorted(H):
        if h:
            P, p = action.integral[h]
            rows += f.reduce_ints([{**row, i: row.get(i, 0) - p}
                                   for i, row in enumerate(P)])
    cleared, free = int_kernel_basis(f, rows, m)
    ints, e = cleared
    inclusion = Matrix.from_entries(f, len(ints), m,
                                    f.divide_ints(ints, e)).transpose()
    s, d = alg.integral
    brackets = f.reduce_ints([
        int_combination([(x * y, s[a][b]) for a, x in u.items()
                         for b, y in v.items()])
        for u in ints for v in ints])
    coords = int_free_coordinates(f, cleared, free, brackets)
    if coords is None:
        w = next(w for w in brackets
                 if int_free_coordinates(f, cleared, free, [w]) is None)
        w = dense_vector(f, f.divide_ints([w], e * e * d)[0], m)
        raise AssertionError(
            f"fixed-point set not closed under bracket, witness {w}")
    k = len(ints)
    coords = [dense_vector(f, x, k) for x in f.divide_ints(coords, e * e * d)]
    structure = [coords[i * k:(i + 1) * k] for i in range(k)]
    return FixedSubalgebra(H, inclusion, free, cleared,
                           LeibnizAlgebra(f, k, structure))


def restriction_map(action, morphism, fixed):
    """psi_g restricted to g^K -> g^H, in the chosen fixed-subalgebra bases.

    ``fixed`` maps each subgroup to its FixedSubalgebra.  Returns an
    AlgebraMorphism from fixed[K].algebra to fixed[H].algebra whose
    ``integral`` columns are read in ints: psi_g's int rows P over p
    applied to the int basis of g^K over e, then read at the free columns
    of g^H, over p e.
    """
    H, K, g = morphism
    fH, fK = fixed[H], fixed[K]
    f = action.algebra.field
    P, p = action.integral[g]
    basis, e = fK.ints
    images = f.reduce_ints([
        {i: sum(x * b[k] for k, x in row.items() if k in b)
         for i, row in enumerate(P)} for b in basis])
    columns = int_free_coordinates(f, fH.ints, fH.free, images)
    if columns is None:
        raise AssertionError(
            f"psi_{g} does not map the {sorted(K)}-fixed set into the "
            f"{sorted(H)}-fixed set; invalid morphism triple")
    mat = Matrix.from_entries(f, fK.dim, fH.dim,
                              f.divide_ints(columns, p * e)).transpose()
    phi = AlgebraMorphism(fK.algebra, fH.algebra, mat, (columns, p * e))
    verdict = check_morphism(phi)
    if not verdict.ok:
        raise AssertionError(
            f"psi_{g} restricted to the {sorted(K)}-fixed set breaks the "
            f"bracket at {verdict.violations[0][0]}")
    return phi
