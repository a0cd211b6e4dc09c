"""Word-level cochain arithmetic of the benchmark's own.

A cochain component is a list of rows, one per coordinate of the
coefficient algebra, each holding the values on the basis words of
length n in lexicographic order.  The coefficient algebras the workloads
use (the field, and functions on G/H) multiply coordinate by coordinate,
so mu is the pointwise product of rows unless product constants are
given.

    cup:   (c u d)(x_1..x_{p+q}) = sum over (p-1,q)-shuffles s of {2..p+q}
             sgn(s) c(x_1, x_s(2)..x_s(p)) d(x_s(p+1)..x_s(p+q))
    delta: (delta c)(x_1..x_{n+1}) = c(d(x_1..x_{n+1})),
             d(x_1..x_n) = sum_{i<j} (-1)^j (x_1..[x_i,x_j]..x_j-hat..x_n)

Nothing here calls the program's cup, rho or coboundary code.
"""

from __future__ import annotations

from itertools import combinations, product

import exact


def word_index(word, h):
    """Position of a word over an h-letter alphabet in lexicographic order."""
    idx = 0
    for a in word:
        idx = idx * h + a
    return idx


def _shuffles(p, q):
    """(positions of c, positions of d, sign) for the (p-1,q)-shuffles of 1..p+q-1."""
    n = p + q
    out = []
    for left in combinations(range(1, n), p - 1):
        right = [t for t in range(1, n) if t not in left]
        inversions = sum(1 for s in left for t in right if s > t)
        out.append((left, right, -1 if inversions % 2 else 1))
    return out


def _pointwise(a):
    return [[[1 if i == j == k else 0 for k in range(a)] for j in range(a)]
            for i in range(a)]


def cup(p_field, c, d, p, q, h, mu=None):
    """Cup of one component pair; c, d are rows over h-letter words.

    ``mu`` holds the coefficient algebra's product constants,
    mu(e_i, e_j) = sum_k mu[i][j][k] e_k; without it rows multiply
    pointwise.
    """
    n = p + q
    shuffles = _shuffles(p, q)
    mu = mu or _pointwise(len(c))
    out = [[0] * h ** n for _ in mu]
    for i, crow in enumerate(c):
        for j, drow in enumerate(d):
            terms = [(k, x) for k, x in enumerate(mu[i][j]) if x]
            if not terms:
                continue
            for wi, w in enumerate(product(range(h), repeat=n)):
                acc = 0
                for left, right, sign in shuffles:
                    x = crow[word_index((w[0],) + tuple(w[t] for t in left), h)]
                    if x:
                        y = drow[word_index(tuple(w[t] for t in right), h)]
                        if y:
                            acc += sign * x * y
                if acc:
                    for k, x in terms:
                        out[k][wi] += x * acc
    return [[exact.norm(p_field, x) for x in row] for row in out]


def coboundary(p_field, c, n, structure, h):
    """delta of one degree-n component; structure[i][j] = [e_i, e_j] in g^H."""
    out = []
    for crow in c:
        row = []
        for w in product(range(h), repeat=n + 1):
            acc = 0
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    sign = 1 if (j + 1) % 2 == 0 else -1
                    for k, x in enumerate(structure[w[i]][w[j]]):
                        if x:
                            t = w[:i] + (k,) + w[i + 1:j] + w[j + 1:]
                            v = crow[word_index(t, h)]
                            if v:
                                acc += sign * x * v
            row.append(exact.norm(p_field, acc))
        out.append(row)
    return out


def combine(p_field, terms):
    """sum of coefficient * component over (coefficient, rows) pairs."""
    rows = [[0] * len(terms[0][1][0]) for _ in terms[0][1]]
    for coeff, comp in terms:
        for r, crow in zip(rows, comp):
            for i, x in enumerate(crow):
                if x:
                    r[i] += coeff * x
    return [[exact.norm(p_field, x) for x in r] for r in rows]


def flatten(components):
    """One vector from a list of components (subgroup order fixed by caller)."""
    return [x for comp in components for row in comp for x in row]


def zinbiel_defect(p_field, a, b, c, degrees, dims, sign, mu=None):
    """Components of (a u b) u c - a u (b u c) - sign * a u (c u b).

    a, b, c map a subgroup index to rows; dims gives h per index; ``mu``
    is passed on to every cup.
    """
    p, q, r = degrees
    out = []
    for H, h in enumerate(dims):
        def u(x, y, dx, dy):
            return cup(p_field, x, y, dx, dy, h, mu)
        ab_c = u(u(a[H], b[H], p, q), c[H], p + q, r)
        a_bc = u(a[H], u(b[H], c[H], q, r), p, q + r)
        a_cb = u(a[H], u(c[H], b[H], r, q), p, q + r)
        out.append(combine(p_field, [(1, ab_c), (-1, a_bc), (-sign, a_cb)]))
    return out


def zinbiel_holds(p_field, a, b, c, degrees, dims, coboundaries, flip=False,
                  mu=None):
    """Is the zinbiel defect (with (-1)^{qr}, or its negation if ``flip``)
    in the span of the given degree-(p+q+r) coboundary vectors?"""
    q, r = degrees[1], degrees[2]
    sign = -1 if (q * r) % 2 else 1
    if flip:
        sign = -sign
    defect = flatten(zinbiel_defect(p_field, a, b, c, degrees, dims, sign, mu))
    return exact.in_span(p_field, defect, coboundaries)
