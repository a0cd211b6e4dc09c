"""Leibniz algebras given by structure constants.

The bracket satisfies [x,[y,z]] = [[x,y],z] - [[x,z],y]; no antisymmetry
is assumed.  Indices are 0-based internally (file formats are 1-based).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd

from .linalg import (Matrix, clear_denominators, dense_vector,
                     int_combination, sparse_vector)
from .verdict import Verdict


class LeibnizAlgebra:
    """Finite-dimensional algebra over an exact field.

    ``structure[i][j]`` is the coordinate vector of [e_i, e_j], and
    ``integral`` is (s, d), the constants as int rows s[i][j] over their
    common denominator d (the convention in the ``linalg`` module
    docstring), made once for every integral check and boundary: cleared
    from ``structure`` here, or given as int rows to ``from_ints``, which
    leaves ``structure`` to be divided from them on first read.
    """

    def __init__(self, field, dim, structure):
        if len(structure) != dim or any(len(row) != dim for row in structure):
            raise ValueError(f"structure constants must be {dim}x{dim}")
        self.field = field
        self.dim = dim
        self.structure = [[[field.coerce(x) for x in structure[i][j]]
                           for j in range(dim)] for i in range(dim)]
        rows, d = clear_denominators(
            [sparse_vector(v) for row in self.structure for v in row])
        self.integral = [rows[i * dim:(i + 1) * dim] for i in range(dim)], d

    @classmethod
    def from_ints(cls, field, dim, rows, d):
        """The algebra whose [e_i, e_j] is int row i dim + j of rows over d
        (d = 1 over F_p).  ``integral`` is the rows over d divided by
        gcd(d, entries), which is what the dense constructor clears from
        the constants; ``structure`` is divided from it on first read."""
        rows = field.reduce_ints(rows)
        g = gcd(d, *(x for row in rows for x in row.values()))
        if g != 1:
            rows = [{j: x // g for j, x in row.items()} for row in rows]
            d //= g
        alg = cls.__new__(cls)
        alg.field, alg.dim = field, dim
        alg.integral = [rows[i * dim:(i + 1) * dim] for i in range(dim)], d
        return alg

    @cached_property
    def structure(self):
        """The constants as field elements, divided from ``integral`` (the
        dense constructor sets them instead)."""
        f, n = self.field, self.dim
        s, d = self.integral
        vectors = [dense_vector(f, v, n)
                   for v in f.divide_ints([v for row in s for v in row], d)]
        return [vectors[i * n:(i + 1) * n] for i in range(n)]

    @classmethod
    def zero_bracket(cls, field, dim):
        z = field.zero()
        return cls(field, dim, [[[z] * dim for _ in range(dim)]
                                for _ in range(dim)])

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("dimension mismatch")
        f = self.field
        z = f.zero()
        out = [z] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = f.mul(xi, yj)
                for k, s in enumerate(self.structure[i][j]):
                    if s:
                        out[k] = f.add(out[k], f.mul(c, s))
        return out

    def basis_bracket(self, i, j):
        return list(self.structure[i][j])

    def basis_vector(self, i):
        return dense_vector(self.field, {i: self.field.one()}, self.dim)


def _residuals(field, keys, sums, d, n):
    """(key, residual) for each key whose int row in sums, one per key over
    d, is nonzero in the field: divided by d in one ``divide_ints``, as a
    dense vector of length n."""
    return [(key, dense_vector(field, row, n))
            for key, row in zip(keys, field.divide_ints(sums, d)) if row]


def check_leibniz_identity(alg):
    """Verify [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] - [[e_i,e_k],e_j] on all triples.

    The identity is quadratic in the structure constants, so it is checked
    in ints on the constants s times their common denominator d, d^2 times
    each residual being one ``int_combination``.  Only the nonzero
    constants are visited: each term holds one of [e_j,e_k], [e_i,e_j] and
    [e_i,e_k], so a triple where all three vanish holds, and only the other
    triples are checked, in lexicographic order.
    """
    n = alg.dim
    s, d = alg.integral
    triples = set()
    for a, b in product(range(n), repeat=2):
        if s[a][b]:
            for c in range(n):
                triples.update(((c, a, b), (a, b, c), (a, c, b)))
    triples = sorted(triples)
    sums = (int_combination([(x, s[i][l]) for l, x in s[j][k].items()]
                            + [(-x, s[l][k]) for l, x in s[i][j].items()]
                            + [(x, s[l][j]) for l, x in s[i][k].items()])
            for i, j, k in triples)
    violations = _residuals(alg.field, triples, sums, d * d, n)
    return Verdict(not violations, violations)


class AlgebraMorphism:
    """A linear map of algebras, given by its matrix, whose columns are the
    images of the source basis vectors, or by ``from_ints``.  ``integral``
    is the columns as int rows over one denominator, (P, p), cleared from
    the matrix; ``shape`` is the matrix's (rows, cols)."""

    def __init__(self, source, target, matrix):
        self.source, self.target = source, target
        self.matrix = matrix
        self.shape = matrix.rows, matrix.cols
        self.integral = clear_denominators(matrix.transpose().entries)

    @classmethod
    def from_ints(cls, source, target, columns, p, rows):
        """The map whose column j is int row j of columns over p, with the
        given number of rows; ``matrix`` is divided from them on first
        read."""
        phi = cls.__new__(cls)
        phi.source, phi.target = source, target
        phi.shape = rows, len(columns)
        phi.integral = columns, p
        return phi

    @cached_property
    def matrix(self):
        f = self.target.field
        columns, p = self.integral
        rows, cols = self.shape
        return Matrix.from_entries(f, cols, rows,
                                   f.divide_ints(columns, p)).transpose()

    def apply(self, x):
        return self.matrix.apply(x)

    def compose(self, other):
        """self after other (other.target must be self.source)."""
        if other.target.dim != self.source.dim:
            raise ValueError("cannot compose morphisms of mismatched dimensions")
        return AlgebraMorphism(other.source, self.target,
                               self.matrix.mul(other.matrix))


def check_morphism(phi):
    """phi([e_i,e_j]) = [phi e_i, phi e_j] on all basis pairs.

    Checked in ints, one ``int_combination`` per pair: with phi = P/p and
    structure constants S/s, T/t on source and target, p^2 s t times a
    residual is p t P S_ij - s sum_ab P_ai P_bj T_ab, so a pair where S_ij
    vanishes and so does T, P_i or P_j holds; the others are checked in
    lexicographic order.
    """
    src, tgt = phi.source, phi.target
    if phi.shape != (tgt.dim, src.dim):
        raise ValueError("matrix shape does not match algebra dimensions")
    P, p = phi.integral    # columns
    S, s = src.integral
    T, t = tgt.integral
    bracketed = any(map(any, T))
    pairs = [(i, j) for i, j in product(range(src.dim), repeat=2)
             if S[i][j] or bracketed and P[i] and P[j]]
    sums = (int_combination([(p * t * x, P[l]) for l, x in S[i][j].items()]
                            + [(-s * x * y, T[a][b]) for a, x in P[i].items()
                               for b, y in P[j].items()])
            for i, j in pairs)
    violations = _residuals(tgt.field, pairs, sums, p * p * s * t, tgt.dim)
    return Verdict(not violations, violations)


class DifferentialLieAlgebra:
    """Lie algebra with a square-zero derivation d (``differential``, whose
    column j is d(e_j))."""

    def __init__(self, field, dim, structure, differential):
        self.lie = LeibnizAlgebra(field, dim, structure)
        self.field = field
        self.dim = dim
        self.differential = differential

    def _differential_ints(self):
        """(D, delta): d's columns as int rows, d(e_j) = D[j] / delta."""
        d = self.differential
        if (d.rows, d.cols) != (self.dim, self.dim):
            raise ValueError(f"the differential must be {self.dim}x{self.dim}")
        return clear_denominators(d.transpose().entries)

    def validate(self):
        """Antisymmetry (i, j), Jacobi (i, j, k), d^2 = 0 and the derivation
        rule (i, j), in that order, each with its residual.  Checked in
        ints on the constants s over sigma and d's columns D over delta,
        each residual one ``int_combination``: sigma ([e_i,e_j] +
        [e_j,e_i]); Jacobi as the Leibniz identity (equivalent given
        antisymmetry); delta^2 d^2 e_j = sum_k D[j][k] D[k]; and sigma delta
        (d[e_i,e_j] - [d e_i, e_j] - [e_i, d e_j])."""
        f, n = self.field, self.dim
        s, sigma = self.lie.integral
        D, delta = self._differential_ints()
        pairs = list(product(range(n), repeat=2))
        violations = [("antisymmetry", ij, r) for ij, r in _residuals(
            f, pairs, (int_combination([(1, s[i][j]), (1, s[j][i])])
                       for i, j in pairs), sigma, n)]
        violations += [("jacobi", triple, r) for triple, r
                       in check_leibniz_identity(self.lie).violations]
        d2 = f.reduce_ints([int_combination([(x, D[k]) for k, x in c.items()])
                            for c in D])
        if any(d2):
            violations.append(("d_squared", None, Matrix.from_entries(
                f, n, n, f.divide_ints(d2, delta * delta)).transpose().data))
        rule = (int_combination([(x, D[l]) for l, x in s[i][j].items()]
                                + [(-x, s[a][j]) for a, x in D[i].items()]
                                + [(-x, s[i][a]) for a, x in D[j].items()])
                for i, j in pairs)
        violations += [("derivation", ij, r) for ij, r
                       in _residuals(f, pairs, rule, sigma * delta, n)]
        return Verdict(not violations, violations)


def derived_bracket_algebra(dgla):
    """Leibniz algebra with [x,y]_d := [x, dy]; sigma delta [e_i, e_j]_d is
    the int row sum_b D[j][b] s[i][b] (``DifferentialLieAlgebra.validate``)."""
    verdict = dgla.validate()
    if not verdict.ok:
        raise ValueError(f"invalid differential Lie algebra: {verdict.violations[0]}")
    f, n = dgla.field, dgla.dim
    s, sigma = dgla.lie.integral
    D, delta = dgla._differential_ints()
    return LeibnizAlgebra.from_ints(f, n, [
        int_combination([(y, s[i][b]) for b, y in D[j].items()])
        for i in range(n) for j in range(n)], sigma * delta)


def _word_index_map(dimV, N):
    """Basis words of length 1..N in length-lexicographic order."""
    words = []
    for n in range(1, N + 1):
        level = [()]
        for _ in range(n):
            level = [w + (a,) for w in level for a in range(dimV)]
        words.extend(level)
    return words, {w: i for i, w in enumerate(words)}


def free_leibniz_truncated(dimV, N, field=None):
    """Quotient of the free Leibniz algebra by words of length > N.

    Basis words of length 1..N; a word (a_1,...,a_n) stands for the
    left-iterated bracket [...[[v_{a_1},v_{a_2}],v_{a_3}],...,v_{a_n}].
    Returns (algebra, word list).
    """
    if field is None:
        from .linalg import QQ
        field = QQ
    if dimV < 1 or N < 1:
        raise ValueError("dimV and N must be >= 1")
    words, index = _word_index_map(dimV, N)

    cache = {}

    def wb(x, y):
        """Bracket of basis words as an int-coefficient dict on words."""
        key = (x, y)
        if key in cache:
            return cache[key]
        if len(y) == 1:
            w = x + y
            out = {w: 1} if len(w) <= N else {}
        else:
            head, last = y[:-1], y[-1:]
            # [x, [head, v]] = [[x, head], v] - [[x, v], head]
            out = {}
            for w, c in wb(x, head).items():
                for w2, c2 in wb(w, last).items():
                    out[w2] = out.get(w2, 0) + c * c2
            for w, c in wb(x, last).items():
                for w2, c2 in wb(w, head).items():
                    out[w2] = out.get(w2, 0) - c * c2
            out = {w: c for w, c in out.items() if c != 0}
        cache[key] = out
        return out

    return LeibnizAlgebra.from_ints(field, len(words), [
        {index[w]: c for w, c in wb(wi, wj).items()}
        for wi in words for wj in words], 1), words
