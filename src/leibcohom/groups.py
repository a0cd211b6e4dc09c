"""Finite groups, actions on Leibniz algebras, and the orbit category.

Groups are multiplication tables on 0..n-1 with 0 the identity.  Desk
scale (|G| <= 24) keeps brute-force subgroup enumeration cheap.
"""

from __future__ import annotations

from itertools import permutations

from .linalg import (Matrix, clear_denominators, dense_vector,
                     int_free_coordinates, kernel_basis, rank, sparse_vector)
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
    elems = {0}
    frontier = set(gens) | {0}
    while frontier:
        new = set()
        for a in frontier:
            for b in elems | frontier:
                new.add(G.mul(a, b))
                new.add(G.mul(b, a))
            new.add(G.inv(a))
        elems |= frontier
        frontier = new - elems
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
        self.morphisms = []
        for H in self.subgroups:
            for K in self.subgroups:
                seen = set()
                for g in range(group.order):
                    if not all(group.mul(group.mul(group.inv(g), h), g) in K
                               for h in H):
                        continue
                    coset = frozenset(group.mul(g, k) for k in K)
                    if coset in seen:
                        continue
                    seen.add(coset)
                    self.morphisms.append((H, K, min(coset)))
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
    """Action of a finite group on a Leibniz algebra by one matrix per element."""

    def __init__(self, group, algebra, matrices):
        if len(matrices) != group.order:
            raise ValueError(f"{len(matrices)} matrices for a group of "
                             f"order {group.order}")
        self.group = group
        self.algebra = algebra
        self.matrices = matrices

    def psi(self, g):
        return self.matrices[g]


def validate_action(action):
    G, alg = action.group, action.algebra
    f = alg.field
    violations = []
    if action.psi(0) != Matrix.identity(f, alg.dim):
        violations.append(("identity", 0, None))
    for g1 in range(G.order):
        for g2 in range(G.order):
            if action.psi(g1).mul(action.psi(g2)) != action.psi(G.mul(g1, g2)):
                violations.append(("homomorphism", (g1, g2), None))
    for g in range(G.order):
        if rank(action.psi(g)) != alg.dim:
            violations.append(("invertibility", g, None))
    for g in range(G.order):
        v = check_morphism(AlgebraMorphism(alg, alg, action.psi(g)))
        for (i, j), residual in v.violations:
            violations.append(("bracket_equivariance", (g, i, j), residual))
    return Verdict(not violations, violations)


class FixedSubalgebra:
    def __init__(self, subgroup, inclusion, free, algebra):
        self.subgroup = subgroup
        self.inclusion = inclusion     # dim(g) x dim(g^H), columns = basis
        self.free = free               # the free column of each basis vector
        self.algebra = algebra         # induced Leibniz algebra on g^H

    @property
    def dim(self):
        return self.algebra.dim


def fixed_subalgebra(action, H):
    """Basis and induced bracket of g^H = common kernel of psi_h - I."""
    alg = action.algebra
    f = alg.field
    m = alg.dim
    ident = Matrix.identity(f, m)
    stacked = [action.psi(h).sub(ident) for h in sorted(H) if h != 0]
    basis, free = kernel_basis(Matrix.vstack(f, stacked, cols=m))
    inclusion = Matrix.from_entries(f, len(basis), m, basis).transpose()
    # induced structure constants: brackets of basis columns, expressed in
    # the basis; closure failure would contradict a validated action
    vectors = [dense_vector(f, b, m) for b in basis]
    brackets = [alg.bracket(u, v) for u in vectors for v in vectors]
    rows, d = clear_denominators([sparse_vector(w) for w in brackets])
    ints = clear_denominators(basis)
    coords = int_free_coordinates(f, ints, free, rows)
    if coords is None:
        w = next(w for w, row in zip(brackets, rows)
                 if int_free_coordinates(f, ints, free, [row]) is None)
        raise AssertionError(
            f"fixed-point set not closed under bracket, witness {w}")
    k = len(basis)
    coords = [dense_vector(f, x, k) for x in f.divide_ints(coords, d)]
    structure = [coords[i * k:(i + 1) * k] for i in range(k)]
    return FixedSubalgebra(H, inclusion, free, LeibnizAlgebra(f, k, structure))


def restriction_map(action, morphism, fixed):
    """psi_g restricted to g^K -> g^H, in the chosen fixed-subalgebra bases.

    ``fixed`` maps each subgroup to its FixedSubalgebra.  Returns an
    AlgebraMorphism from fixed[K].algebra to fixed[H].algebra.
    """
    H, K, g = morphism
    fH, fK = fixed[H], fixed[K]
    f = action.algebra.field
    images, d = clear_denominators(
        action.psi(g).mul(fK.inclusion).transpose().entries)
    basis = clear_denominators(fH.inclusion.transpose().entries)
    columns = int_free_coordinates(f, basis, fH.free, images)
    if columns is None:
        raise AssertionError(
            f"psi_{g} does not map the {sorted(K)}-fixed set into the "
            f"{sorted(H)}-fixed set; invalid morphism triple")
    mat = Matrix.from_entries(f, fK.dim, fH.dim,
                              f.divide_ints(columns, d)).transpose()
    phi = AlgebraMorphism(fK.algebra, fH.algebra, mat)
    verdict = check_morphism(phi)
    if not verdict.ok:
        raise AssertionError(
            f"psi_{g} restricted to the {sorted(K)}-fixed set breaks the "
            f"bracket at {verdict.violations[0][0]}")
    return phi
