"""Coefficient systems on the orbit category and the invariant-cochain complex.

A coefficient system assigns a commutative algebra A(G/H) to every
subgroup and a unital algebra map A(g-hat): A(G/K) -> A(G/H) to every
orbit-category morphism, contravariantly.  An invariant n-cochain is a
family {c_H} with c_H o (psi_g)^(x)n = A(g-hat) o c_K for every morphism;
these form the complex whose cohomology is the equivariant Leibniz
cohomology.

``invariant_space`` eliminates only the binding constraints.  A morphism
(H, H, g) whose restriction map and coefficient map are both identity
matrices asks c_H = c_H at every degree, so it adds no row; the test is
on the maps, not on the label g, so a coefficient system whose identity
morphism is not sent to the identity is still constrained by it.
``check_invariance`` still evaluates every morphism.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .linalg import (Matrix, combination, dense_vector, free_coordinates,
                     kernel_basis, sparse_vector)
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
        rows = []
        for c in ch:
            xg = G.mul(min(c), g)
            rows.append({next(j for j, ckos in enumerate(ck) if xg in ckos):
                         field.one()})
        maps[(H, K, g)] = Matrix.from_entries(field, len(ch), len(ck), rows)
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


def _is_identity(mat):
    return mat == Matrix.identity(mat.field, mat.rows)


@dataclass
class InvariantCochainSpace:
    field: object
    degree: int
    ambient_dim: int
    vectors: list          # sparse basis vectors in ambient coordinates
    free: list             # the free column of each basis vector
    layout: list           # (subgroup, fixed_dim, coeff_dim, offset)

    @property
    def dim(self):
        return len(self.vectors)

    @property
    def basis(self):
        """The basis as dense ambient vectors, built on each access."""
        return [dense_vector(self.field, v, self.ambient_dim)
                for v in self.vectors]


class EquivariantCochain:
    """Family {c_H}, each c_H a (dim A(G/H)) x (dim g^H)^n matrix.

    In ambient coordinates c_H[al][t] sits at offset_H + t * dim A(G/H) + al.
    """

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    @classmethod
    def from_ambient(cls, setup, n, vec):
        """From a dense ambient vector."""
        return cls.from_sparse(setup, n, sparse_vector(vec))

    @classmethod
    def from_sparse(cls, setup, n, vec):
        """From a sparse ambient vector."""
        lay = setup.layout(n)
        starts = [off for (_, _, _, off) in lay]
        rows = [[{} for _ in range(a)] for (_, _, a, _) in lay]
        for i, x in vec.items():
            b = bisect_right(starts, i) - 1       # skips empty blocks
            t, al = divmod(i - starts[b], lay[b][2])
            rows[b][al][t] = x
        return cls(n, {H: Matrix.from_entries(setup.field, a, h ** n, r)
                       for (H, h, a, _), r in zip(lay, rows)})

    def to_ambient(self, setup):
        """As a dense ambient vector."""
        return dense_vector(setup.field, self.to_sparse(setup),
                            setup.ambient_dim(self.degree))

    def to_sparse(self, setup):
        """As a sparse ambient vector."""
        out = {}
        for (H, h, a, off) in setup.layout(self.degree):
            for al, row in enumerate(self.components[H].entries):
                for t, x in row.items():
                    out[off + t * a + al] = x
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
        self._images = {}
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
        rows = []
        for m in self.category.morphisms:
            H, K, g = m
            if H == K and _is_identity(self.restrictions[m].matrix) \
                    and _is_identity(self.coefficients.maps[m]):
                continue                    # c_H = c_H at every degree
            hH, aH, offH = offsets[H]
            hK, aK, offK = offsets[K]
            # row (tK, al) of c_H R^{(x)n} - A(g-hat) c_K, in ambient indices
            Rn_columns = self.restriction_power(m, n).transpose().entries
            minus_A = [{aj: f.neg(c) for aj, c in row.items()}
                       for row in self.coefficients.maps[m].entries]
            for tK, column in enumerate(Rn_columns):
                for al in range(aH):
                    row = {offH + tH * aH + al: c for tH, c in column.items()}
                    for aj, c in minus_A[al].items():
                        k = offK + tK * aK + aj      # may meet row when H == K
                        x = f.add(row[k], c) if k in row else c
                        if x:
                            row[k] = x
                        else:
                            del row[k]
                    rows.append(row)
        basis, free = kernel_basis(Matrix.from_entries(f, len(rows), total, rows))
        space = InvariantCochainSpace(f, n, total, basis, free, lay)
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
        f = self.field
        sn = self.invariant_space(n)
        sn1 = self.invariant_space(n + 1)
        # row i of B D^T is delta of basis vector i, for B the basis as rows
        B = Matrix.from_entries(f, sn.dim, sn.ambient_dim, sn.vectors)
        images = B.mul(self.ambient_coboundary(n).transpose()).entries
        columns = [free_coordinates(f, sn1.vectors, sn1.free, w) for w in images]
        if None in columns:
            raise AssertionError(
                f"delta image leaves the invariant subspace in degree {n}")
        X = Matrix.from_entries(f, sn.dim, sn1.dim, columns).transpose()
        self._coboundaries[n] = X
        return X

    def coboundary_image(self, n):
        """Reduced-echelon basis of the image of delta: S^{n-1}_G -> S^n_G
        for n >= 1, as sparse rows in invariant coordinates, and its pivot
        columns."""
        if n not in self._images:
            red, pivots = self.equivariant_coboundary(n - 1).transpose().rref()
            self._images[n] = (red.entries[:len(pivots)], pivots)
        return self._images[n]

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
        return CohomologyResult(self.field, n, sn.dim, cocycles, coboundaries,
                                len(cocycles) - len(coboundaries), reps)

    def invariant_to_ambient(self, n, coords):
        """Expand a list of invariant-basis coordinates into a sparse
        ambient vector."""
        f = self.field
        return combination(f, zip(map(f.coerce, coords),
                                  self.invariant_space(n).vectors))

    def cochain_from_invariant(self, n, coords):
        return EquivariantCochain.from_sparse(
            self, n, self.invariant_to_ambient(n, coords))

