"""Exact arithmetic of the benchmark's own, over Q (p == 0) and F_p.

Scalars are ``Fraction`` over Q and ints in [0, p) over F_p; matrices are
lists of rows.  Nothing here imports the program: the checks and the
input generator use this module so that they stay independent of
``leibcohom.linalg``.
"""

from __future__ import annotations

from fractions import Fraction


def norm(p, x):
    return Fraction(x) if p == 0 else int(x) % p


def _inv(p, x):
    return 1 / x if p == 0 else pow(x, p - 2, p)


def _reduce(p, x):
    return x if p == 0 else x % p


def identity(p, n):
    return [[norm(p, 1 if i == j else 0) for j in range(n)] for i in range(n)]


def columns(m):
    return [list(c) for c in zip(*m)] if m else []


def matmul(p, a, b):
    out = []
    for row in a:
        acc = [0] * (len(b[0]) if b else 0)
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append([norm(p, v) for v in acc])
    return out


def matvec(p, m, v):
    return [norm(p, sum(x * y for x, y in zip(row, v) if x and y)) for row in m]


def vsub(p, u, v):
    return [_reduce(p, a - b) for a, b in zip(u, v)]


def bracket(p, structure, x, y):
    """[x, y] from structure constants structure[i][j] = [e_i, e_j]."""
    dim = len(x)
    out = [0] * dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, s in enumerate(structure[i][j]):
                if s:
                    out[k] += c * s
    return [norm(p, v) for v in out]


def echelon(p, rows, ncols):
    """Reduced row echelon form by Gauss-Jordan; returns (rows, pivots).

    Each row is a dict column -> nonzero value, so sparse inputs cost
    little.  Rows of the result are normalised to a leading 1.
    """
    work = [{j: norm(p, x) for j, x in enumerate(r) if x} for r in rows]
    work = [r for r in work if r]
    pivots = []
    done = []
    for c in range(ncols):
        pr = next((i for i, r in enumerate(work) if c in r), None)
        if pr is None:
            continue
        prow = work.pop(pr)
        inv = _inv(p, prow[c])
        prow = {j: _reduce(p, x * inv) for j, x in prow.items()}
        for group in (work, done):
            for i, r in enumerate(group):
                f = r.get(c)
                if f:
                    new = dict(r)
                    for j, x in prow.items():
                        v = _reduce(p, new.get(j, 0) - f * x)
                        if v:
                            new[j] = v
                        else:
                            new.pop(j, None)
                    group[i] = new
        work = [r for r in work if r]
        done.append(prow)
        pivots.append(c)
        if not work:
            break
    return done, pivots


def rank(p, rows):
    if not rows:
        return 0
    return len(echelon(p, rows, len(rows[0]))[1])


def nullspace(p, rows, ncols):
    """Basis of {x : rows x = 0}, one vector per free column."""
    red, pivots = echelon(p, rows, ncols)
    pset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pset:
            continue
        v = [norm(p, 0)] * ncols
        v[fc] = norm(p, 1)
        for r, pc in zip(red, pivots):
            x = r.get(fc)
            if x:
                v[pc] = _reduce(p, -x)
        basis.append(v)
    return basis


def inverse(p, m):
    n = len(m)
    aug = [list(row) + identity(p, n)[i] for i, row in enumerate(m)]
    red, pivots = echelon(p, aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise ValueError("singular matrix")
    return [[r.get(n + j, norm(p, 0)) for j in range(n)] for r in red[:n]]


def in_span(p, v, vectors):
    """Is v in the span of the given vectors?"""
    if not any(v):
        return True
    return rank(p, list(vectors) + [v]) == rank(p, list(vectors))
