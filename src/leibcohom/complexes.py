"""Leibniz chain and cochain complexes on tensor powers.

Boundary map on g^{(x)n}:

    d(x_1,...,x_n) = sum_{1<=i<j<=n} (-1)^j
        (x_1,...,x_{i-1},[x_i,x_j],x_{i+1},...,x_j-hat,...,x_n)

Cochains take values in a commutative associative algebra A used as a
trivial module: delta(c) = c o d, so the coboundary matrix is the
transpose of d tensored with the identity on A-coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import Matrix, kernel_basis
from .verdict import Verdict


class TensorSpace:
    """Basis words (i_1,...,i_n) over 0..m-1 in lexicographic order."""

    def __init__(self, m, n):
        self.m = m
        self.n = n
        self.dim = m ** n

    def words(self):
        return product(range(self.m), repeat=self.n)

    def index(self, word):
        idx = 0
        for a in word:
            idx = idx * self.m + a
        return idx


@dataclass
class BoundaryOperator:
    degree: int
    matrix: Matrix   # TensorSpace(n) -> TensorSpace(n-1)


def boundary_matrix(alg, n):
    """Matrix of d on the lexicographic tensor basis, degree n >= 2."""
    if n < 2:
        raise ValueError("boundary map needs degree >= 2")
    f = alg.field
    m = alg.dim
    src = TensorSpace(m, n)
    dst = TensorSpace(m, n - 1)
    mat = Matrix.zero(f, dst.dim, src.dim)
    for col, word in enumerate(src.words()):
        for i in range(n):               # 0-based positions
            for j in range(i + 1, n):    # sign uses the 1-based j
                sign = f.one() if (j + 1) % 2 == 0 else f.neg(f.one())
                br = alg.basis_bracket(word[i], word[j])
                rest = word[:i] + (None,) + word[i + 1:j] + word[j + 1:]
                for k in range(m):
                    if not br[k]:
                        continue
                    new = rest[:i] + (k,) + rest[i + 1:]
                    row = dst.index(new)
                    mat.data[row][col] = f.add(mat.data[row][col],
                                               f.mul(sign, br[k]))
    return BoundaryOperator(n, mat)


class CoefficientAlgebra:
    """Commutative associative unital algebra; the cochain target."""

    def __init__(self, field, dim, product_constants, unit):
        self.field = field
        self.dim = dim
        self.product = [[[field.coerce(x) for x in product_constants[i][j]]
                         for j in range(dim)] for i in range(dim)]
        self.unit = [field.coerce(x) for x in unit]

    @classmethod
    def scalar(cls, field):
        return cls(field, 1, [[[field.one()]]], [field.one()])

    @classmethod
    def pointwise_functions(cls, field, npoints):
        """Functions on an npoints set with pointwise product."""
        z, o = field.zero(), field.one()
        prod = [[[o if (i == j and k == i) else z for k in range(npoints)]
                 for j in range(npoints)] for i in range(npoints)]
        return cls(field, npoints, prod, [o] * npoints)

    def multiply(self, a, b):
        f = self.field
        z = f.zero()
        out = [z] * self.dim
        for i in range(self.dim):
            if not a[i]:
                continue
            for j in range(self.dim):
                if not b[j]:
                    continue
                c = f.mul(a[i], b[j])
                for k, x in enumerate(self.product[i][j]):
                    if x:
                        out[k] = f.add(out[k], f.mul(c, x))
        return out

    def product_matrix(self):
        """mu as a dim x dim^2 matrix on the Kronecker basis of A(x)A."""
        f = self.field
        mat = Matrix.zero(f, self.dim, self.dim * self.dim)
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    mat.data[k][i * self.dim + j] = self.product[i][j][k]
        return mat

    def validate(self):
        f = self.field
        violations = []
        for i in range(self.dim):
            for j in range(self.dim):
                if self.product[i][j] != self.product[j][i]:
                    violations.append(("commutativity", (i, j)))
        basis = [[f.one() if t == i else f.zero() for t in range(self.dim)]
                 for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.multiply(self.multiply(basis[i], basis[j]), basis[k])
                    rhs = self.multiply(basis[i], self.multiply(basis[j], basis[k]))
                    if lhs != rhs:
                        violations.append(("associativity", (i, j, k)))
        for i in range(self.dim):
            if self.multiply(self.unit, basis[i]) != basis[i] or \
               self.multiply(basis[i], self.unit) != basis[i]:
                violations.append(("unit", i))
        return Verdict(not violations, violations)


def coboundary_matrix(alg, A, n):
    """delta: Hom(g^n, A) -> Hom(g^{n+1}, A) as a matrix.

    Hom basis = elementary functionals ordered tensor-index major,
    A-index minor.  delta = d_{n+1}^T (x) Id_A; for n = 0 the sum in the
    boundary formula is empty, so delta^0 = 0.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    m = alg.dim
    f = alg.field
    if n == 0:
        return Matrix.zero(f, m * A.dim, A.dim)
    d = boundary_matrix(alg, n + 1).matrix
    return d.transpose().kron(Matrix.identity(f, A.dim))


@dataclass
class HomologyResult:
    degree: int
    chain_dimension: int
    cycle_basis: list
    boundary_basis: list
    betti: int


@dataclass
class CohomologyResult:
    degree: int
    cochain_dimension: int
    cocycle_basis: list
    coboundary_basis: list
    betti: int
    representatives: list


def image_basis(mat):
    """Independent columns of mat, in column order (deterministic).

    Greedy independence in column order picks exactly the RREF pivots.
    """
    _, pivots = mat.rref()
    return [mat.column(j) for j in pivots]


def _quotient_data(field, cocycles, coboundaries, dim):
    """Representatives completing the coboundaries to a basis of the cocycles.

    A cocycle is kept when it is independent of the vectors before it,
    that is when it sits at a pivot of the columns coboundaries + cocycles.
    """
    nb = len(coboundaries)
    _, pivots = Matrix.from_columns(field, coboundaries + cocycles,
                                    nrows=dim).rref()
    return [cocycles[j - nb] for j in pivots if j >= nb]


def homology(alg, n):
    """Betti number and cycle/boundary bases of HL_n; d_1 := 0."""
    if n < 1:
        raise ValueError("homology degrees start at 1")
    f = alg.field
    m = alg.dim
    dim_n = m ** n
    if n == 1:
        cycles = [row[:] for row in Matrix.identity(f, m).data]
    else:
        cycles, _ = kernel_basis(boundary_matrix(alg, n).matrix)
    boundaries = image_basis(boundary_matrix(alg, n + 1).matrix)
    return HomologyResult(n, dim_n, cycles, boundaries,
                          len(cycles) - len(boundaries))


def cohomology(alg, A, n):
    """Betti number and class representatives of HL^n(g; A); delta^{-1} := 0."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    f = alg.field
    dim_n = (alg.dim ** n) * A.dim
    cocycles, _ = kernel_basis(coboundary_matrix(alg, A, n))
    if n == 0:
        coboundaries = []
    else:
        coboundaries = image_basis(coboundary_matrix(alg, A, n - 1))
    reps = _quotient_data(f, cocycles, coboundaries, dim_n)
    return CohomologyResult(n, dim_n, cocycles, coboundaries,
                            len(cocycles) - len(coboundaries), reps)
