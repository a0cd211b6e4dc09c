"""Exact linear algebra over Q and F_p, on sparse matrices.

Boundary maps, invariant-cochain systems and cup products are matrices
over an exact field (``fractions.Fraction`` or residues mod p), and
mostly zero.  A ``Matrix`` stores one {column: entry} dict of nonzero
entries per row, a sparse vector is one such dict, and every kernel
works on them.  Dense lists appear only at the edges: the dense
constructor, ``data``, ``column``, ``apply`` and the ``solve`` family.
Field elements are falsy exactly when they are zero.

Int rows.  The hot loops of every layer run on sparse rows of Python
ints, which only this module converts.  Over Q a set of int rows stands
for the rows divided by one common denominator d; over F_p the ints are
residues and d = 1.  Field elements become int rows in one way only,
``clear_denominators``, and int rows become field elements in one way
only, the field's ``divide_ints``, one call per list of rows.  Single
entries may be combined with the field's ``add`` and ``mul``, which keep
ints ints over Q and residues residues over F_p; sums of many terms are
taken in plain ints and brought back by the field's ``reduce_ints``
(zeros dropped; over F_p, reduced mod p).

The one elimination loop, ``reduce_int_rows``, runs on int rows:
``Matrix.rref`` and ``kernel_basis`` feed it a matrix's rows, cleared
by one ``clear_denominators`` call, and callers that build a system in
ints feed it theirs directly or through ``int_kernel_basis`` (or
``int_column_reduction``, on columns) and ``last_pivot_echelon``.  Its
step that clears a row at the pivot columns found so far,
``clear_at_pivots``, is also the span test.  Bases of subspaces come
from ``int_kernel_basis`` in reduced-echelon form, read straight off the
int pivot rows as int rows over their least common denominator, so
``int_free_coordinates`` reads coordinates of int rows off the free
columns instead of eliminating again.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

# Miller-Rabin with the first 13 primes as bases is exact below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin; exact for n < PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q, with elements represented as ``Fraction``."""

    name = "QQ"
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
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

    # int rows (module docstring); ``normalise`` serves the elimination
    def normalise(self, row):
        """An int row divided by the gcd of its entries and signed so that
        its first entry is positive."""
        if row:
            g = gcd(*row.values())
            if row[min(row)] < 0:
                g = -g
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        return row

    def reduce_ints(self, rows):
        """Int rows without their zero entries."""
        return [{j: x for j, x in row.items() if x} for row in rows]

    def divide_ints(self, rows, d):
        """Int rows divided by d, as rows of nonzero field elements."""
        return [{j: Fraction(x, d) for j, x in row.items() if x}
                for row in rows]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for a prime p below PRIME_TEST_BOUND; elements are ints in [0, p)."""

    def __init__(self, p):
        if p >= PRIME_TEST_BOUND:
            raise ValueError(f"p has {p.bit_length()} bits; primes must be "
                             f"below {PRIME_TEST_BOUND}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.name = f"GF({p})"

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.coerce(x.numerator) * self.inv(self.coerce(x.denominator)) % self.p
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

    # int rows (module docstring); ``normalise`` serves the elimination
    def normalise(self, row):
        """A row of residues scaled so that its first entry is 1."""
        p = self.p
        if row:
            lead = row[min(row)]
            if lead != 1:
                inv = pow(lead, p - 2, p)
                row = {j: x * inv % p for j, x in row.items()}
        return row

    def reduce_ints(self, rows):
        """Int rows reduced to residues, zeros dropped."""
        p = self.p
        return [{j: y for j, x in row.items() if (y := x % p)}
                for row in rows]

    def divide_ints(self, rows, d):
        """Int rows as rows of nonzero residues; d is 1 over F_p."""
        return self.reduce_ints(rows)

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
    """Sparse matrix over an exact field; immutable by convention.

    ``entries`` holds one {column: entry} dict per row, of the row's
    nonzero entries only; ``__eq__`` and every kernel rely on that, and
    matrices may share row dicts.  The constructor takes dense rows;
    ``data`` is a dense copy, built on each access.
    """

    def __init__(self, field, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"dense rows do not make a {rows}x{cols} matrix")
        self.field, self.rows, self.cols = field, rows, cols
        self.entries = [sparse_vector(r) for r in data]

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        """From sparse rows of nonzero entries, which the matrix keeps."""
        if len(entries) != rows:
            raise ValueError(f"{len(entries)} sparse rows for {rows} rows")
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.entries = field, rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, field, rows_of_entries):
        cols = len(rows_of_entries[0]) if rows_of_entries else 0
        return cls(field, len(rows_of_entries), cols,
                   [[field.coerce(x) for x in r] for r in rows_of_entries])

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        if not columns:
            if nrows is None:
                raise ValueError("empty column list needs an explicit row count")
            return cls.zero(field, nrows, 0)
        return cls.from_rows(field, columns).transpose()

    @classmethod
    def zero(cls, field, rows, cols):
        return cls.from_entries(field, rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        o = field.one()
        return cls.from_entries(field, n, n, [{i: o} for i in range(n)])

    # -- basic ops -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    @property
    def data(self):
        return [dense_vector(self.field, row, self.cols) for row in self.entries]

    def is_zero(self):
        return not any(self.entries)

    def column(self, j):
        z = self.field.zero()
        return [row.get(j, z) for row in self.entries]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row.items():
                out[j][i] = x
        return Matrix.from_entries(self.field, self.cols, self.rows, out)

    def _check(self, other, same_shape):
        if self.field != other.field or not same_shape:
            raise ValueError(f"incompatible matrices {self!r} and {other!r}")

    def sub(self, other):
        self._check(other, (self.rows, self.cols) == (other.rows, other.cols))
        f = self.field
        one, minus = f.one(), f.neg(f.one())
        return Matrix.from_entries(f, self.rows, self.cols, [
            combination(f, [(one, r1), (minus, r2)])
            for r1, r2 in zip(self.entries, other.entries)])

    def mul(self, other):
        """Product self * other: each nonzero entry of a left row meets
        the nonzero entries of one right row."""
        self._check(other, self.cols == other.rows)
        f = self.field
        add, mul = f.add, f.mul
        right = other.entries
        out = []
        for row in self.entries:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    c = mul(a, b)
                    acc[j] = add(acc[j], c) if j in acc else c
            out.append({j: x for j, x in acc.items() if x})
        return Matrix.from_entries(f, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product, vector as a plain list."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        f = self.field
        out = []
        for row in self.entries:
            acc = f.zero()
            for k, a in row.items():
                b = vec[k]
                if b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def kron(self, other):
        """Kronecker product; index order matches lexicographic tensor words."""
        mul = self.field.mul
        w = other.cols
        out = [{j1 * w + j2: mul(a, b) for j1, a in arow.items()
                for j2, b in brow.items()}
               for arow in self.entries for brow in other.entries]
        return Matrix.from_entries(self.field, self.rows * other.rows,
                                   self.cols * other.cols, out)

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Matrix, pivot column list).

        The rows enter as ints through one ``clear_denominators`` call,
        ``reduce_int_rows`` eliminates them, and each pivot row leaves
        through ``divide_ints``, divided by its lead.  The pivot rows in
        pivot order and then empty rows are the unique RREF, so neither the
        row order nor the loop's column index can change the result.
        """
        f = self.field
        pivot_rows = reduce_int_rows(
            f, clear_denominators(self.entries)[0], self.cols)
        pivots = sorted(pivot_rows)
        entries = [f.divide_ints([pivot_rows[pc]], pivot_rows[pc][pc])[0]
                   for pc in pivots]
        entries.extend({} for _ in range(self.rows - len(pivots)))
        return Matrix.from_entries(f, self.rows, self.cols, entries), pivots


def reduce_int_rows(field, rows, ncols):
    """Gauss-Jordan elimination of sparse int rows with columns below ncols:
    {pivot column: reduced pivot row}.  Over Q the rows are any int rows
    and the pivot rows come out primitive with a positive lead; over F_p
    the rows are residues and the pivot rows come out monic.  Both the
    ``rref`` of a matrix and the rank of an integral boundary map are
    taken with it.  Rows may be changed in place, so callers pass rows of
    their own.

    Rows are taken sparsest first, which keeps the pivot rows short.  Each
    row is cleared at the pivot columns found so far (``clear_at_pivots``);
    what is left, normalised, becomes a new pivot row with lead d at its
    first column pc, and pc is cleared fraction-free from the earlier pivot
    rows that hold it: prow <- (d/g) prow - (c/g) row for g = gcd(c, d),
    normalised again.  A pivot row never gains an entry left of its pivot.

    ``holders`` maps each free column to the pivot columns whose rows may
    hold it: a column gains a holder when an entry is written there, and
    leaves the index when it becomes a pivot, so back-substitution visits
    only the rows that can meet pc instead of every pivot row.  Entries
    are reduced mod the characteristic inline, so over Q never.
    """
    mod = field.characteristic
    normalise = field.normalise
    pivot_rows = {}             # pivot column -> normalised int row
    holders = {}                # free column -> pivot columns that may hold it
    for row in sorted(rows, key=len):
        if len(pivot_rows) == ncols:
            break
        row = normalise(clear_at_pivots(row, pivot_rows, mod))
        if not row:
            continue
        pc = min(row)
        d = row[pc]
        held = holders.pop(pc, ())
        rest = []                   # the holder sets of the row's free columns
        for k in row:
            if k != pc:
                h = holders.get(k)
                if h is None:
                    h = holders[k] = set()
                h.add(pc)
                rest.append(h)
        for q in held:
            prow = pivot_rows[q]
            c = prow.get(pc)
            if c:
                g = gcd(c, d)
                s = d // g
                if s != 1:
                    prow = {k: s * x for k, x in prow.items()}
                _eliminate(prow, c // g, row, mod)
                pivot_rows[q] = normalise(prow)
                for h in rest:
                    h.add(q)
        pivot_rows[pc] = row
    return pivot_rows


def clear_at_pivots(row, pivot_rows, mod):
    """The int row cleared at the pivot columns of ``pivot_rows``, all at
    once: scaled by the lcm s of those columns' leads d, it loses
    (s x_j / d) times the pivot row of each column j it meets.  One pass
    suffices, since each pivot row is 0 at the other pivot columns; so the
    row lies in their span exactly when nothing is left.  The row may be
    changed in place."""
    hits = [j for j in row if j in pivot_rows]
    if hits:
        leads = [pivot_rows[j][j] for j in hits]
        s = lcm(*leads)
        if s != 1:
            row = {k: s * x for k, x in row.items()}
        for j, d in zip(hits, leads):
            _eliminate(row, row[j] // d, pivot_rows[j], mod)
    return row


def _eliminate(row, c, other, mod):
    """row -= c * other on int rows, reduced mod ``mod`` unless it is 0;
    entries that cancel are dropped."""
    for k, y in other.items():
        x = row[k] - c * y if k in row else -c * y
        if mod:
            x %= mod
        if x:
            row[k] = x
        else:
            del row[k]


def clear_denominators(rows):
    """Sparse rows of field elements as int rows over their common
    denominator d: (int rows, d); over F_p a copy of the rows, and 1."""
    d = lcm(*(x.denominator for row in rows for x in row.values()))
    if d == 1:
        return [{j: x.numerator for j, x in row.items()} for row in rows], 1
    return [{j: x.numerator * (d // x.denominator) for j, x in row.items()}
            for row in rows], d


def sparse_vector(v):
    """The {index: entry} dict of a dense vector's nonzero entries."""
    return {j: x for j, x in enumerate(v) if x}


def dense_vector(field, v, n):
    """A sparse vector as a list of length n."""
    out = [field.zero()] * n
    for j, x in v.items():
        out[j] = x
    return out


def combination(field, terms):
    """Sum of c * v over the (coefficient, sparse vector) pairs in terms."""
    add, mul = field.add, field.mul
    out = {}
    for c, v in terms:
        if not c:
            continue
        for j, y in v.items():
            if j in out:
                x = add(out[j], mul(c, y))
                if x:
                    out[j] = x
                else:
                    del out[j]
            else:
                out[j] = mul(c, y)
    return out


def rank(m):
    _, pivots = m.rref()
    return len(pivots)


def last_pivot_echelon(field, rows, ncols):
    """``reduce_int_rows`` with each row's pivot at its largest column, run
    on the columns reversed: {pivot column: reduced int row}.  The pivots
    are the columns at which the nonzero vectors of the rows' span end."""
    last = ncols - 1
    pivot_rows = reduce_int_rows(
        field, [{last - j: x for j, x in row.items()} for row in rows], ncols)
    return {last - pc: {last - j: x for j, x in row.items()}
            for pc, row in pivot_rows.items()}


def kernel_basis(m):
    """Reduced-echelon basis of the null space, and its free columns: one
    sparse vector per free column, 1 there and 0 at the other free columns.
    """
    (ints, e), free = int_kernel_basis(
        m.field, clear_denominators(m.entries)[0], m.cols)
    return m.field.divide_ints(ints, e), free


def int_kernel_basis(field, rows, ncols):
    """``kernel_basis`` of the matrix with the given int rows (any
    iterable, empty rows allowed, rows may be changed in place), in int
    rows: ((ints, e), free), where e is the lcm of the pivot rows' leads
    and an entry x of the pivot row with lead d, at a free column, becomes
    -x e/d.  The full power of each prime in e divides some lead, whose
    primitive row has an entry prime to it, so gcd(e, entries) = 1 and
    (ints, e) is what ``clear_denominators`` makes of the field basis;
    over F_p the leads are 1, so e = 1 and the entries are residues."""
    pivot_rows = reduce_int_rows(field, rows, ncols)
    mod = field.characteristic
    e = lcm(*(row[pc] for pc, row in pivot_rows.items()))
    free = [c for c in range(ncols) if c not in pivot_rows]
    basis = {fc: {fc: e} for fc in free}
    for pc in sorted(pivot_rows):
        row = pivot_rows[pc]
        s = -e // row[pc]
        for j, x in row.items():
            if j != pc:         # a free column: the row is 0 at other pivots
                basis[j][pc] = s * x % mod if mod else s * x
    return ([basis[fc] for fc in free], e), free


def int_column_reduction(field, columns):
    """One elimination of the matrix whose columns are the given int rows:
    its ``kernel_basis`` (the basis alone), and the columns at its pivots,
    which greedy independence picks in column order."""
    rows = defaultdict(dict)        # row index -> {column: int entry}
    for j, w in enumerate(columns):
        for k, x in w.items():
            rows[k][j] = x
    (ints, e), free = int_kernel_basis(field, rows.values(), len(columns))
    free = set(free)
    return (field.divide_ints(ints, e),
            [w for j, w in enumerate(columns) if j not in free])


def int_free_coordinates(field, basis, free, rows):
    """Sparse coordinates of int rows over one denominator in a basis
    whose vector i is 1 at column free[i] and 0 at the other listed
    columns (a basis from ``kernel_basis``): the rows' entries at those
    columns, as int rows over the same denominator, if each row is rebuilt
    by its combination of the basis, else None; a row costs its nonzeros.
    The basis is given as ``int_kernel_basis`` returns it, (int rows, e),
    and is checked against e times each row."""
    ints, e = basis
    position = {c: i for i, c in enumerate(free)}
    coords = [{position[c]: x for c, x in w.items() if c in position}
              for w in rows]
    for w, x in zip(rows, coords):
        acc = {}
        for i, y in x.items():
            for k, z in ints[i].items():
                acc[k] = acc.get(k, 0) + y * z
        if e != 1:
            w = {k: e * y for k, y in w.items()}
        if field.reduce_ints([acc])[0] != w:
            return None
    return coords


def in_span(v, basis_vectors, field=QQ):
    """(True, coefficients that rebuild v) if the list v is a combination
    of the listed vectors, else (False, None)."""
    if basis_vectors and len(v) != len(basis_vectors[0]):
        raise ValueError("dimension mismatch")
    coeffs = solve(Matrix.from_columns(field, basis_vectors, nrows=len(v)), v)
    return coeffs is not None, coeffs


def solve(m, target):
    """One solution x of m x = target, or None if inconsistent; lists."""
    x = solve_matrix(m, Matrix.from_columns(m.field, [target]))
    return None if x is None else x.column(0)


def solve_matrix(m, b):
    """One solution X of m X = b, or None if any column is inconsistent.

    A single elimination of the augmented matrix [m | b] serves every
    column; free variables are set to 0, so each column of X is exactly
    what ``solve`` returns for the matching column of b.
    """
    if m.rows != b.rows:
        raise ValueError("dimension mismatch")
    k = m.cols
    aug = [{**row, **{k + j: x for j, x in brow.items()}}
           for row, brow in zip(m.entries, b.entries)]
    red, pivots = Matrix.from_entries(m.field, m.rows, k + b.cols, aug).rref()
    if pivots and pivots[-1] >= k:
        return None
    x = [{} for _ in range(k)]
    for pc, row in zip(pivots, red.entries):
        x[pc] = {j - k: y for j, y in row.items() if j >= k}
    return Matrix.from_entries(m.field, k, b.cols, x)


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]

def vec_is_zero(field, v):
    return not any(v)
