"""Leibniz chain and cochain complexes on tensor powers.

Boundary map on g^{(x)n}:

    d(x_1,...,x_n) = sum_{1<=i<j<=n} (-1)^j
        (x_1,...,x_{i-1},[x_i,x_j],x_{i+1},...,x_j-hat,...,x_n)

Cochains take values in a commutative associative algebra A used as a
trivial module: delta(c) = c o d, so the coboundary matrix is the
transpose of d tensored with the identity on A-coordinates.

d_n is built as the rows of d_n^T, one per source word, as int rows (the
convention in the ``linalg`` module docstring), one degree at a time:
``BoundaryChain`` steps from d_{n-1}^T to d_n^T by the recursion
d_n(w x) = d_{n-1}(w) x + (-1)^n sum_{i<n} (w_1,...,[w_i,x],...,w_{n-1}),
and keeps only the latest degree.  ``betti_numbers`` reads dim HL^n =
dim HL_n = m^n - rank d_n - rank d_{n+1} off one rank per boundary map,
taken on the int rows (``reduce_int_rows``), each d_k^T reduced in place
once d_{k+1}^T is built from it.  ``homology`` reads the cycles and the
boundaries off one chain, eliminating the columns of d_n^T and of
d_{n+1}^T once each.  ``cohomology`` is the equivariant cohomology of the
trivial group, whose one morphism binds nothing, so each basis of
Hom(g^n, A) is eliminated once.  ``boundary_matrix`` and
``coboundary_matrix`` write d and delta out in field elements; only the
tests read them, as the reference routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .linalg import (Matrix, clear_denominators, dense_vector,
                     int_column_reduction, reduce_int_rows, sparse_vector)
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


class BoundaryChain:
    """d_k^T of one algebra as int rows, built one degree at a time.

    ``rows`` is d_k^T for k = ``degree``: one {target word: entry} row per
    source word of degree k, as int rows over ``denominator``, the common
    denominator of the structure constants.  The chain starts at d_1 = 0,
    one empty row per letter.  ``step`` builds d_{k+1}^T from d_k^T by the
    recursion

        d_k(w x) = d_{k-1}(w) x
                   + (-1)^k sum_{i<k} (w_1,...,[w_i,x],...,w_{k-1})

    for a word w of degree k - 1 and a letter x: row w m + x of d_k^T is
    row w of d_{k-1}^T with x appended to each target word, plus (-1)^k
    times one bracket term per slot, so k - 1 terms a row instead of the
    k(k-1)/2 of the defining double sum.  Only the latest degree is kept.
    """

    def __init__(self, alg):
        m = self.m = alg.dim
        self.field = alg.field
        s, self.denominator = alg.integral
        # letter a -> [(x, [(k, entry)])] over the nonzero [e_a, e_x], once
        # with each sign (-1)^k, indexed by k % 2
        self._right = [[[(x, [(k, sign * y) for k, y in s[a][x].items()])
                          for x in range(m) if s[a][x]]
                         for a in range(m)]
                        for sign in (1, -1)]
        self.degree = 1
        self.rows = [{} for _ in range(m)]

    def step(self):
        """Replace d_k^T by d_{k+1}^T; the rows that took bracket terms
        are reduced at the end, in one call."""
        m = self.m
        k = self.degree + 1
        right = self._right[k % 2]
        place = [m ** e for e in range(k - 2, -1, -1)]  # of slot i, degree k-1
        words = list(range(m ** (k - 1)))   # one int object per target word
        rows = []
        sums = []                   # indices of the rows with bracket terms
        for w, (prev, word) in enumerate(zip(self.rows,
                                             product(range(m), repeat=k - 1))):
            block = [{words[t * m + x]: y for t, y in prev.items()}
                     for x in range(m)]
            touched = set()
            for shift, a in zip(place, word):
                base = w - a * shift        # w with slot i emptied
                for x, terms in right[a]:
                    acc = block[x]
                    touched.add(x)
                    for c, y in terms:
                        u = words[base + c * shift]
                        acc[u] = acc.get(u, 0) + y
            wm = w * m
            for x in touched:
                sums.append(wm + x)
            rows.extend(block)
        reduced = self.field.reduce_ints([rows[i] for i in sums])
        for i, row in zip(sums, reduced):
            rows[i] = row
        self.degree, self.rows = k, rows

    def at(self, n):
        """d_n^T for n >= 1: the rows held, stepped up to degree n, or
        built again from d_1 when n is below the degree held."""
        if n < self.degree:
            self.degree, self.rows = 1, [{} for _ in range(self.m)]
        while self.degree < n:
            self.step()
        return self.rows


def _boundary_transpose(alg, n):
    """d_n^T for n >= 2 as a matrix: each nonzero int sum becomes a field
    element once."""
    chain = BoundaryChain(alg)
    rows = alg.field.divide_ints(chain.at(n), chain.denominator)
    return Matrix.from_entries(alg.field, len(rows), alg.dim ** (n - 1), rows)


def boundary_matrix(alg, n):
    """Matrix of d on the lexicographic tensor basis, degree n >= 2: the
    tests' reference route."""
    if n < 2:
        raise ValueError("boundary map needs degree >= 2")
    return BoundaryOperator(n, _boundary_transpose(alg, n).transpose())


def betti_numbers(alg, n_max):
    """dim HL^n(g; K) = dim HL_n(g) for n = 0..n_max, from one rank per
    boundary map: m^n - rank d_n - rank d_{n+1}, with d_0 = d_1 := 0.
    Each rank is taken on the int rows of d_k^T, since dividing them by
    the common denominator does not change it.  The chain walks up in
    degree: d_k^T is reduced in place once d_{k+1}^T is built from it,
    and then dropped."""
    m = alg.dim
    chain = BoundaryChain(alg)
    ranks = [0, 0]
    below = None                # d_{k-1}^T, to be ranked
    for k in range(2, n_max + 2):
        chain.step()
        if below is not None:
            ranks.append(len(reduce_int_rows(alg.field, below, m ** (k - 2))))
        below = chain.rows
    if below is not None:
        ranks.append(len(reduce_int_rows(alg.field, below, m ** n_max)))
    return [m ** n - ranks[n] - ranks[n + 1] for n in range(n_max + 1)]


class CoefficientAlgebra:
    """Commutative associative unital algebra; the cochain target.

    ``mu`` is the product, a dim x dim^2 matrix on the Kronecker basis of
    A (x) A: column i dim + j holds e_i e_j.  ``integral`` is the same
    product in ``LeibnizAlgebra.integral``'s layout, (s, e) with s[i][j]
    the int row of e e_i e_j, cleared from ``mu`` on first use, so that
    ``check_morphism`` checks a coefficient map as an algebra map."""

    def __init__(self, field, dim, product_constants, unit):
        self.field = field
        self.dim = dim
        rows = [{} for _ in range(dim)]
        for i, j in product(range(dim), repeat=2):
            for k, x in enumerate(product_constants[i][j]):
                x = field.coerce(x)
                if x:
                    rows[k][i * dim + j] = x
        self.mu = Matrix.from_entries(field, dim, dim * dim, rows)
        self.unit = [field.coerce(x) for x in unit]

    @cached_property
    def integral(self):
        d = self.dim
        P, e = clear_denominators(self.mu.transpose().entries)
        return [P[i * d:(i + 1) * d] for i in range(d)], e

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

    def validate(self):
        """Commutativity (i, j), associativity (i, j, k) and the unit i on
        the basis, each violation in that order.  The products e_i e_j are
        read in ints from ``integral``, over their common denominator e,
        and the unit is cleared to one int row over u, so both sides of an
        identity are sums of int rows, compared in ints (residues over
        F_p).  A triple where e_i e_j and e_j e_k both vanish holds."""
        d = self.dim
        mod = self.field.characteristic
        P, e = self.integral
        (unit,), u = clear_denominators([sparse_vector(self.unit)])
        rows = [[tuple(row.items()) for row in Pi] for Pi in P]

        def nonzero(terms, target=None):
            """Whether the sum of x e_a e_b over the (x, a, b) in terms,
            less u e at the index ``target``, is nonzero."""
            acc = [0] * d
            for x, a, b in terms:
                for t, y in rows[a][b]:
                    acc[t] += x * y
            if target is not None:
                acc[target] -= u * e
            return any(x % mod for x in acc) if mod else any(acc)

        violations = [("commutativity", (i, j))
                      for i, j in product(range(d), repeat=2)
                      if P[i][j] != P[j][i]]
        violations += [     # (e_i e_j) e_k - e_i (e_j e_k)
            ("associativity", (i, j, k))
            for i, j, k in product(range(d), repeat=3)
            if (rows[i][j] or rows[j][k]) and nonzero(
                [(x, l, k) for l, x in rows[i][j]]
                + [(-x, i, l) for l, x in rows[j][k]])]
        violations += [("unit", i) for i in range(d)
                       if nonzero([(x, a, i) for a, x in unit.items()], i)
                       or nonzero([(x, i, a) for a, x in unit.items()], i)]
        return Verdict(not violations, violations)


def coboundary_matrix(alg, A, n):
    """delta: Hom(g^n, A) -> Hom(g^{n+1}, A) as a matrix: the tests'
    reference route.

    Hom basis = elementary functionals ordered tensor-index major,
    A-index minor.  delta = d_{n+1}^T (x) Id_A, written out by index
    arithmetic: row j*a + al of delta is row j of d_{n+1}^T moved to the
    columns k*a + al.  For n = 0 the sum in the boundary formula is
    empty, so delta^0 = 0.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    m, a = alg.dim, A.dim
    if n == 0:
        return Matrix.zero(alg.field, m * a, a)
    rows = [{k * a + al: x for k, x in row.items()}
            for row in _boundary_transpose(alg, n + 1).entries
            for al in range(a)]
    return Matrix.from_entries(alg.field, len(rows), m ** n * a, rows)


@dataclass
class HomologyResult:
    """Cycles and boundaries as sparse vectors; the ``*_basis``
    properties spell them out as lists."""
    field: object
    degree: int
    chain_dimension: int
    cycles: list
    boundaries: list
    betti: int

    @property
    def cycle_basis(self):
        return _dense(self.field, self.cycles, self.chain_dimension)

    @property
    def boundary_basis(self):
        return _dense(self.field, self.boundaries, self.chain_dimension)


@dataclass
class CohomologyResult:
    """Cocycles, coboundaries and class representatives as sparse
    vectors; the ``*_basis`` and ``representatives`` properties spell
    them out as lists."""
    field: object
    degree: int
    cochain_dimension: int
    cocycles: list
    coboundaries: list
    betti: int
    classes: list

    @property
    def cocycle_basis(self):
        return _dense(self.field, self.cocycles, self.cochain_dimension)

    @property
    def coboundary_basis(self):
        return _dense(self.field, self.coboundaries, self.cochain_dimension)

    @property
    def representatives(self):
        return _dense(self.field, self.classes, self.cochain_dimension)


def _dense(field, vectors, n):
    return [dense_vector(field, v, n) for v in vectors]


def _representatives(cocycles, echelon):
    """The cocycles whose free column is no pivot of the echelon: since a
    reduced-echelon kernel vector is 1 at its free column, its largest
    index, and 0 at the others', these are the cocycles independent of
    the coboundaries and of the cocycles before them."""
    return [z for z in cocycles if max(z) not in echelon]


def homology(alg, n):
    """Betti number and cycle/boundary bases of HL_n; d_1 := 0.  One
    ``BoundaryChain`` gives the null space of d_n and the pivot columns of
    d_{n+1}, each from one elimination of the columns of its int d^T."""
    if n < 1:
        raise ValueError("homology degrees start at 1")
    f = alg.field
    chain = BoundaryChain(alg)
    cycles = int_column_reduction(f, chain.at(n))[0]
    boundaries = f.divide_ints(int_column_reduction(f, chain.at(n + 1))[1],
                               chain.denominator)
    return HomologyResult(f, n, alg.dim ** n, cycles, boundaries,
                          len(cycles) - len(boundaries))


def cohomology(alg, A, n):
    """Betti number and class representatives of HL^n(g; A): the
    equivariant cohomology of the trivial group acting on g."""
    from .equivariant import EquivariantSetup
    return EquivariantSetup.trivial(alg, A).cohomology(n)
