"""Coefficient systems on the orbit category and the invariant-cochain complex.

A coefficient system assigns a commutative algebra A(G/H) to every
subgroup and a unital algebra map A(g-hat): A(G/K) -> A(G/H) to every
orbit-category morphism, contravariantly.  An invariant n-cochain is a
family {c_H} with c_H o (psi_g)^(x)n = A(g-hat) o c_K for every morphism;
these form the complex whose cohomology is the equivariant Leibniz
cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, free_coordinates, kernel_basis
from .complexes import (CoefficientAlgebra, CohomologyResult, coboundary_matrix,
                        image_basis, _quotient_data)
from .groups import fixed_subalgebra, restriction_map
from .shuffles import rho_sum
from .verdict import Verdict


class CoefficientSystem:
    def __init__(self, category, field, algebras, maps):
        self.category = category
        self.field = field
        self.algebras = algebras    # subgroup -> CoefficientAlgebra
        self.maps = maps            # (H, K, g) -> Matrix  A(G/K) -> A(G/H)


def constant_coefficients(category, field):
    """A(G/H) = K for every H, all maps the identity."""
    algebras = {H: CoefficientAlgebra.scalar(field)
                for H in category.subgroups}
    maps = {m: Matrix.identity(field, 1) for m in category.morphisms}
    return CoefficientSystem(category, field, algebras, maps)


def coset_function_coefficients(category, field):
    """A(G/H) = functions on G/H with pointwise product, maps = pullbacks."""
    G = category.group
    cosets = {H: category.cosets(H) for H in category.subgroups}
    algebras = {H: CoefficientAlgebra.pointwise_functions(field, len(cosets[H]))
                for H in category.subgroups}
    maps = {}
    for (H, K, g) in category.morphisms:
        ch, ck = cosets[H], cosets[K]
        mat = Matrix.zero(field, len(ch), len(ck))
        for i, c in enumerate(ch):
            x = min(c)
            xg = G.mul(x, g)
            j = next(jj for jj, ckos in enumerate(ck) if xg in ckos)
            mat.data[i][j] = field.one()
        maps[(H, K, g)] = mat
    return CoefficientSystem(category, field, algebras, maps)


def check_coefficient_system(A):
    cat = A.category
    field = A.field
    violations = []
    for m in cat.morphisms:
        H, K, g = m
        mat = A.maps[m]
        aH, aK = A.algebras[H], A.algebras[K]
        if mat.rows != aH.dim or mat.cols != aK.dim:
            violations.append(("shape", m))
            continue
        if mat.apply(aK.unit) != aH.unit:
            violations.append(("unit", m))
        lhs = aH.product_matrix().mul(mat.kron(mat))
        rhs = mat.mul(aK.product_matrix())
        if lhs != rhs:
            violations.append(("algebra_map", m))
        if H == K and g == 0 and mat != Matrix.identity(field, aH.dim):
            violations.append(("identity_morphism", m))
    if any(kind == "shape" for kind, _ in violations):
        return Verdict(False, violations)   # composites need matching shapes
    for m1 in cat.morphisms:
        for m2 in cat.morphisms:
            if m1[1] != m2[0]:
                continue
            comp = cat.compose(m1, m2)
            if A.maps[comp] != A.maps[m1].mul(A.maps[m2]):
                violations.append(("functoriality", (m1, m2)))
    return Verdict(not violations, violations)


@dataclass
class InvariantCochainSpace:
    degree: int
    ambient_dim: int
    basis: list            # vectors in ambient coordinates
    free: list             # the free column of each basis vector
    layout: list           # (subgroup, fixed_dim, coeff_dim, offset)

    @property
    def dim(self):
        return len(self.basis)


class EquivariantCochain:
    """Family {c_H}, each c_H a (dim A(G/H)) x (dim g^H)^n matrix."""

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    @classmethod
    def from_ambient(cls, setup, n, vec):
        comps = {}
        for (H, h, a, off) in setup.layout(n):
            mat = Matrix.zero(setup.field, a, h ** n)
            for t in range(h ** n):
                for al in range(a):
                    mat.data[al][t] = vec[off + t * a + al]
            comps[H] = mat
        return cls(n, comps)

    def to_ambient(self, setup):
        out = []
        for (H, h, a, off) in setup.layout(self.degree):
            mat = self.components[H]
            for t in range(h ** self.degree):
                for al in range(a):
                    out.append(mat.data[al][t])
        return out


class EquivariantSetup:
    """Precomputed fixed subalgebras, restriction maps, and invariant bases.

    Ties one validated group action to one coefficient system; all the
    per-degree data is cached here.
    """

    def __init__(self, action, category, coefficients):
        self.action = action
        self.group = action.group
        self.category = category
        self.field = action.algebra.field
        self.coefficients = coefficients
        self.fixed = {H: fixed_subalgebra(action, H)
                      for H in category.subgroups}
        self.restrictions = {m: restriction_map(action, m, self.fixed)
                             for m in category.morphisms}
        self._spaces = {}
        self._coboundaries = {}
        self._ambient_deltas = {}
        self._restriction_powers = {}
        self._rho_matrices = {}

    def layout(self, n):
        out = []
        off = 0
        for H in self.category.subgroups:
            h = self.fixed[H].dim
            a = self.coefficients.algebras[H].dim
            out.append((H, h, a, off))
            off += (h ** n) * a
        return out

    def ambient_dim(self, n):
        lay = self.layout(n)
        H, h, a, off = lay[-1]
        return off + (h ** n) * a

    def restriction_power(self, morphism, n):
        """R^{(x)n} for the restriction map of one orbit-category morphism."""
        key = (morphism, n)
        if key not in self._restriction_powers:
            if n == 0:
                Rn = Matrix.identity(self.field, 1)
            else:
                R = self.restrictions[morphism].matrix
                Rn = self.restriction_power(morphism, n - 1).kron(R)
            self._restriction_powers[key] = Rn
        return self._restriction_powers[key]

    def rho_matrix(self, p, q, h):
        """rho_{p,q} on the tensor words of an h-letter alphabet."""
        key = (p, q, h)
        if key not in self._rho_matrices:
            self._rho_matrices[key] = rho_sum(p, q).matrix(h, self.field)
        return self._rho_matrices[key]

    def invariant_space(self, n):
        if n in self._spaces:
            return self._spaces[n]
        lay = self.layout(n)
        offsets = {H: (h, a, off) for (H, h, a, off) in lay}
        total = self.ambient_dim(n)
        f = self.field
        z = f.zero()
        rows = []
        for m in self.category.morphisms:
            H, K, g = m
            hH, aH, offH = offsets[H]
            hK, aK, offK = offsets[K]
            Rn = self.restriction_power(m, n)     # hH^n x hK^n
            Amap = self.coefficients.maps[m]      # aH x aK
            for tK in range(hK ** n):
                for al in range(aH):
                    row = [z] * total
                    for tH in range(hH ** n):
                        c = Rn.data[tH][tK]
                        if c:
                            row[offH + tH * aH + al] = f.add(
                                row[offH + tH * aH + al], c)
                    for aj in range(aK):
                        c = Amap.data[al][aj]
                        if c:
                            row[offK + tK * aK + aj] = f.sub(
                                row[offK + tK * aK + aj], c)
                    rows.append(row)
        basis, free = kernel_basis(Matrix(f, len(rows), total, rows))
        space = InvariantCochainSpace(n, total, basis, free, lay)
        self._spaces[n] = space
        return space

    def ambient_coboundary(self, n):
        """Block-diagonal (+)_H delta_H on the ambient sum, degree n -> n+1."""
        if n in self._ambient_deltas:
            return self._ambient_deltas[n]
        blocks = [coboundary_matrix(self.fixed[H].algebra,
                                    self.coefficients.algebras[H], n)
                  for H in self.category.subgroups]
        D = Matrix.block_diag(self.field, blocks)
        self._ambient_deltas[n] = D
        return D

    def equivariant_coboundary(self, n):
        """delta on invariant coordinates S^n_G -> S^{n+1}_G."""
        if n in self._coboundaries:
            return self._coboundaries[n]
        sn = self.invariant_space(n)
        sn1 = self.invariant_space(n + 1)
        D = self.ambient_coboundary(n)
        columns = [free_coordinates(self.field, sn1.basis, sn1.free, D.apply(v))
                   for v in sn.basis]
        if None in columns:
            raise AssertionError(
                f"delta image leaves the invariant subspace in degree {n}")
        X = Matrix.from_columns(self.field, columns, nrows=sn1.dim)
        self._coboundaries[n] = X
        return X

    def check_invariance(self, cochain):
        """Residuals of all invariance constraints for a cochain family."""
        n = cochain.degree
        violations = []
        for m in self.category.morphisms:
            H, K, g = m
            lhs = cochain.components[H].mul(self.restriction_power(m, n))
            rhs = self.coefficients.maps[m].mul(cochain.components[K])
            if lhs != rhs:
                violations.append((m, lhs.sub(rhs)))
        return Verdict(not violations, violations)

    def cohomology(self, n):
        """HL^n_G in invariant coordinates of degree n."""
        if n < 0:
            raise ValueError("degree must be >= 0")
        sn = self.invariant_space(n)
        cocycles = kernel_basis(self.equivariant_coboundary(n))[0] if sn.dim else []
        if n == 0:
            coboundaries = []
        else:
            coboundaries = image_basis(self.equivariant_coboundary(n - 1))
        reps = _quotient_data(self.field, cocycles, coboundaries, sn.dim)
        return CohomologyResult(n, sn.dim, cocycles, coboundaries,
                                len(cocycles) - len(coboundaries), reps)

    def invariant_to_ambient(self, n, coords):
        """Expand invariant-basis coordinates into an ambient vector."""
        f = self.field
        sn = self.invariant_space(n)
        out = [f.zero()] * sn.ambient_dim
        for c, v in zip(coords, sn.basis):
            if not c:
                continue
            for i, x in enumerate(v):
                if x:
                    out[i] = f.add(out[i], f.mul(c, x))
        return out

    def cochain_from_invariant(self, n, coords):
        return EquivariantCochain.from_ambient(
            self, n, self.invariant_to_ambient(n, coords))


def invariant_cochain_basis(action, category, coefficients, n):
    """Basis of S^n_G; convenience wrapper over EquivariantSetup."""
    return EquivariantSetup(action, category, coefficients).invariant_space(n)


def equivariant_cohomology(action, category, coefficients, n):
    return EquivariantSetup(action, category, coefficients).cohomology(n)
