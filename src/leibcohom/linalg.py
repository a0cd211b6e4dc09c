"""Exact linear algebra over Q and F_p.

Everything downstream (boundary maps, invariant-cochain systems, cup
products) is phrased as dense matrices over an exact field, stored as
lists of ``fractions.Fraction`` or residues mod p.  Many of them are
mostly zero (restriction powers are monomial, rho and coboundary
matrices are sparse), so the kernels skip zeros: ``Matrix.mul`` walks
the nonzero entries of each left row against the nonzero entries of the
right rows they select, and ``kron`` and ``apply`` skip zero factors.
``Matrix.rref`` is the only elimination kernel; it eliminates on sparse
rows (dicts of the nonzero entries) and writes the dense result.  Ranks,
kernels, solutions, span tests and image bases all come from it.  Bases
of subspaces come from ``kernel_basis`` in reduced-echelon form, so
``free_coordinates`` reads a vector's coordinates off its entries at the
free columns instead of eliminating again.  Field elements are falsy
exactly when they are zero, and zero tests use that.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """The field Q, with elements represented as ``Fraction``."""

    name = "QQ"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for a prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.coerce(x.numerator) * self.inv(self.coerce(x.denominator)) % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


def GF(p):
    return PrimeField(p)


class Matrix:
    """Dense matrix over an exact field; immutable by convention."""

    def __init__(self, field, rows, cols, data):
        assert len(data) == rows and all(len(r) == cols for r in data)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows_of_entries):
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        data = [[field.coerce(x) for x in r] for r in rows_of_entries]
        return cls(field, rows, cols, data)

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        if not columns:
            if nrows is None:
                raise ValueError("empty column list needs an explicit row count")
            return cls.zero(field, nrows, 0)
        nrows = len(columns[0])
        data = [[field.coerce(columns[j][i]) for j in range(len(columns))]
                for i in range(nrows)]
        return cls(field, nrows, len(columns), data)

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, n, n, [[o if i == j else z for j in range(n)]
                                 for i in range(n)])

    # -- basic ops -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def sub(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [[f.sub(a, b) for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def mul(self, other):
        """Product self * other, touching only nonzero entries.

        Each output row accumulates, for every nonzero entry of the left
        row, that entry times the nonzero entries of one right row; only
        the right rows some left entry needs are scanned, once per call.
        Field elements are falsy exactly when they are zero.
        """
        assert self.field == other.field
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        f = self.field
        z = f.zero()
        sparse_rows = {}
        out = []
        for row in self.data:
            acc = [z] * other.cols
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = sparse_rows.get(k)
                if brow is None:
                    brow = [(j, b) for j, b in enumerate(other.data[k]) if b]
                    sparse_rows[k] = brow
                for j, b in brow:
                    acc[j] = f.add(acc[j], f.mul(a, b))
            out.append(acc)
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product, vector as a plain list."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        f = self.field
        z = f.zero()
        support = [(k, b) for k, b in enumerate(vec) if b]
        out = []
        for row in self.data:
            acc = z
            for k, b in support:
                a = row[k]
                if a:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def kron(self, other):
        """Kronecker product; index order matches lexicographic tensor words."""
        f = self.field
        zero_block = [f.zero()] * other.cols
        data = []
        for i1 in range(self.rows):
            for i2 in range(other.rows):
                row = []
                for j1 in range(self.cols):
                    a = self.data[i1][j1]
                    if a:
                        row.extend(f.mul(a, b) for b in other.data[i2])
                    else:
                        row.extend(zero_block)
                data.append(row)
        return Matrix(f, self.rows * other.rows, self.cols * other.cols, data)

    @classmethod
    def vstack(cls, field, mats, cols=None):
        mats = list(mats)
        if not mats:
            if cols is None:
                raise ValueError("empty vstack needs a column count")
            return cls.zero(field, 0, cols)
        cols = mats[0].cols
        data = []
        for m in mats:
            assert m.cols == cols
            data.extend([row[:] for row in m.data])
        return cls(field, len(data), cols, data)

    @classmethod
    def block_diag(cls, field, mats):
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = cls.zero(field, rows, cols)
        r = c = 0
        for m in mats:
            for i in range(m.rows):
                out.data[r + i][c:c + m.cols] = m.data[i][:]
            r += m.rows
            c += m.cols
        return out

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list).

        Gauss-Jordan elimination on sparse rows, each a {column: entry}
        dict of its nonzero entries.  Every input row in turn is cleared at
        the pivot columns found so far (one pass: each pivot row is 0 at
        the other pivot columns); what is left, scaled to 1 at its first
        column, becomes a new pivot row, and that column is cleared from
        the earlier pivot rows.  A pivot row never gains an entry left of
        its pivot, so the pivot rows in pivot order are the unique RREF.
        """
        f = self.field
        z, one = f.zero(), f.one()
        ncols = self.cols
        pivot_rows = {}                 # pivot column -> sparse pivot row
        for dense in self.data:
            if len(pivot_rows) == ncols:
                break
            row = {j: x for j, x in enumerate(dense) if x}
            for p in [j for j in row if j in pivot_rows]:
                _subtract_multiple(f, row, row[p], pivot_rows[p])
            if not row:
                continue
            pc = min(row)
            lead = row[pc]
            if lead != one:
                inv = f.inv(lead)
                row = {j: f.mul(inv, x) for j, x in row.items()}
            for prow in pivot_rows.values():
                c = prow.get(pc)
                if c:
                    _subtract_multiple(f, prow, c, row)
            pivot_rows[pc] = row
        pivots = sorted(pivot_rows)
        data = []
        for pc in pivots:
            dense = [z] * ncols
            for j, x in pivot_rows[pc].items():
                dense[j] = x
            data.append(dense)
        data.extend([z] * ncols for _ in range(self.rows - len(pivots)))
        return Matrix(f, self.rows, ncols, data), pivots


def _subtract_multiple(f, row, c, other):
    """row -= c * other on sparse rows, dropping the entries that cancel."""
    z = f.zero()
    for j, y in other.items():
        x = f.sub(row.get(j, z), f.mul(c, y))
        if x:
            row[j] = x
        else:
            del row[j]


def rank(m):
    _, pivots = m.rref()
    return len(pivots)


def kernel_basis(m):
    """Reduced-echelon basis of the null space, and its free columns.

    Deterministic: one vector per free column, 1 there and 0 at the others.
    """
    f = m.field
    z, o = f.zero(), f.one()
    red, pivots = m.rref()
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [z] * m.cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.data[r][fc])
        basis.append(v)
    return basis, free


def free_coordinates(field, basis, free, v):
    """Coordinates of v in a basis from ``kernel_basis``, or None off its span.

    They are v's entries at the free columns if their combination rebuilds v.
    """
    coords = [v[c] for c in free]
    rebuilt = [field.zero()] * len(v)
    for c, b in zip(coords, basis):
        if c:
            for i, x in enumerate(b):
                if x:
                    rebuilt[i] = field.add(rebuilt[i], field.mul(c, x))
    return coords if rebuilt == list(v) else None


def in_span(v, basis_vectors, field=None):
    """Is v a linear combination of the given vectors?

    Returns (True, coefficients) or (False, None).  The coefficients
    reconstruct v exactly.
    """
    if field is None:
        field = QQ
    if basis_vectors:
        n = len(basis_vectors[0])
        if len(v) != n:
            raise ValueError("dimension mismatch")
        m = Matrix.from_columns(field, basis_vectors)
    else:
        n = len(v)
        m = Matrix.zero(field, n, 0)
    v = [field.coerce(x) for x in v]
    coeffs = solve(m, v)
    if coeffs is None:
        return False, None
    return True, coeffs


def solve(m, target):
    """One solution x of m x = target, or None if inconsistent."""
    f = m.field
    z = f.zero()
    aug = Matrix(f, m.rows, m.cols + 1,
                 [row[:] + [t] for row, t in zip(m.data, target)])
    red, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [z] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][m.cols]
    return x


def solve_matrix(m, b):
    """One solution X of m X = b, or None if any column is inconsistent.

    A single elimination of the augmented matrix [m | b] serves every
    column; free variables are set to 0, so each column of X is exactly
    what ``solve`` returns for the matching column of b.
    """
    if m.rows != b.rows:
        raise ValueError("dimension mismatch")
    f = m.field
    z = f.zero()
    aug = Matrix(f, m.rows, m.cols + b.cols,
                 [row + brow for row, brow in zip(m.data, b.data)])
    red, pivots = aug.rref()
    if pivots and pivots[-1] >= m.cols:
        return None
    x = [[z] * b.cols for _ in range(m.cols)]
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][m.cols:]
    return Matrix(f, m.cols, b.cols, x)


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]

def vec_is_zero(field, v):
    return not any(v)

def unit_vector(field, n, i):
    v = [field.zero()] * n
    v[i] = field.one()
    return v
