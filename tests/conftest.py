import contextlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import leibcohom as L
from leibcohom.linalg import QQ, Matrix
from leibcohom.verdict import Verdict


# ---------------------------------------------------------------------------
# A reference for plain cohomology that shares no code with the program:
# the coboundary matrices come from a word loop of the defining double sum,
# in field arithmetic, and ranks, reduced echelon forms and greedy
# independence are taken in sympy, over QQ or GF(p).
# ---------------------------------------------------------------------------

def word_boundary(field, structure, m, n):
    """{(target index, source index): entry} of d_n on the words of
    range(m), lexicographic, from the structure constants [e_a, e_b] =
    sum_k structure[a][b][k] e_k (anything ``field.coerce`` takes), in the
    field's arithmetic, written straight from the formula

        d(x_1..x_n) = sum_{i<j} (-1)^j (x_1..[x_i,x_j]..x_j-hat..x_n)

    with its own word order and its own sums.  d_1 = 0."""
    targets = {w: t for t, w in enumerate(product(range(m), repeat=n - 1))}
    one = field.one()
    out = {}
    for s, word in enumerate(product(range(m), repeat=n)):
        for j in range(2, n + 1):              # 1-based, as in the formula
            sign = one if j % 2 == 0 else field.neg(one)
            for i in range(1, j):
                coeffs = structure[word[i - 1]][word[j - 1]]
                for k, c in enumerate(coeffs):
                    c = field.mul(sign, field.coerce(c))
                    if c:
                        new = word[:i - 1] + (k,) + word[i:j - 1] + word[j:]
                        key = (targets[new], s)
                        out[key] = field.add(out.get(key, field.zero()), c)
    return {key: x for key, x in out.items() if x}


def word_coboundary(alg, A, n):
    """delta^n: Hom(g^n, A) -> Hom(g^(n+1), A) as a matrix, d_(n+1)^T (x)
    Id_A on the functionals ordered tensor-index major, A-index minor: row
    s a + al holds d_(n+1)[t][s] at column t a + al, from
    ``word_boundary``.  delta^0 = 0, since d_1 = 0."""
    f, m, a = alg.field, alg.dim, A.dim
    rows = [{} for _ in range(m ** (n + 1) * a)]
    for (t, s), x in word_boundary(f, alg.structure, m, n + 1).items():
        for al in range(a):
            rows[s * a + al][t * a + al] = x
    return Matrix.from_entries(f, len(rows), m ** n * a, rows)


def sympy_rref(field, vectors, dim):
    """The reduced echelon form of the sparse vectors of length dim, as
    rows of field elements, and its pivot columns."""
    rows = [v for v in vectors if v]
    if not rows:
        return [], ()
    if field == QQ:
        domain, entry = sympy.QQ, lambda x: (x.numerator, x.denominator)
    else:
        domain, entry = sympy.GF(field.p), int
    red, pivots = DomainMatrix.from_list(
        [[entry(v.get(k, field.zero())) for k in range(dim)] for v in rows],
        domain).rref()
    if field == QQ:
        back = lambda x: Fraction(int(x.numerator), int(x.denominator))
    else:
        back = lambda x: int(x) % field.p
    return [[back(x) for x in row] for row in red.to_list()], pivots


def sympy_rank(field, vectors, dim):
    return len(sympy_rref(field, vectors, dim)[1])


def sympy_kernel(field, vectors, dim):
    """The null space of the matrix with the sparse vectors as rows: one
    vector per free column of its reduced echelon form, 1 there and 0 at
    the other free columns."""
    red, pivots = sympy_rref(field, vectors, dim)
    basis = []
    for fc in range(dim):
        if fc not in pivots:
            v = {fc: field.one()}
            for row, pc in zip(red, pivots):
                if row[fc]:
                    v[pc] = field.neg(row[fc])
            basis.append(v)
    return basis


def greedy_independent(field, vectors, dim):
    """The indices of the vectors that raise the sympy rank of the ones
    kept before them."""
    kept = []
    for j, v in enumerate(vectors):
        before = [vectors[i] for i in kept]
        if sympy_rank(field, before + [v], dim) > len(kept):
            kept.append(j)
    return kept


def greedy_classes(field, cocycles, coboundaries, dim):
    """The cocycles independent of the coboundaries and the cocycles
    before them."""
    nb = len(coboundaries)
    return [cocycles[j - nb] for j in
            greedy_independent(field, coboundaries + cocycles, dim) if j >= nb]


def reference_cohomology(alg, A, n):
    """(betti, cocycles, coboundaries, classes) of HL^n(g; A) from
    ``word_coboundary`` and sympy alone: the Betti number from two ranks,
    the cocycles the null space of delta^n, the coboundaries the columns
    of delta^(n-1) that greedy independence keeps, and the classes
    ``greedy_classes`` of the two."""
    f = alg.field
    dim = alg.dim ** n * A.dim
    delta = word_coboundary(alg, A, n).entries
    below = []                  # the columns of delta^(n-1)
    if n:
        mat = word_coboundary(alg, A, n - 1)
        below = [{} for _ in range(mat.cols)]
        for i, row in enumerate(mat.entries):
            for j, x in row.items():
                below[j][i] = x
    cocycles = sympy_kernel(f, delta, dim)
    coboundaries = [below[j] for j in greedy_independent(f, below, dim)]
    betti = dim - sympy_rank(f, delta, dim) - sympy_rank(f, below, dim)
    return (betti, cocycles, coboundaries,
            greedy_classes(f, cocycles, coboundaries, dim))


def block_diag(field, mats):
    """The block-diagonal matrix with the given blocks, in order."""
    entries = []
    c = 0
    for m in mats:
        entries.extend({c + j: x for j, x in row.items()} for row in m.entries)
        c += m.cols
    return Matrix.from_entries(field, len(entries), c, entries)


def ambient_coboundary(setup, n):
    """(+)_H delta_H on the ambient cochains, degree n -> n + 1: the
    ``word_coboundary`` of each fixed subalgebra."""
    return block_diag(setup.field, [
        word_coboundary(setup.fixed[H].algebra,
                        setup.coefficients.algebras[H], n)
        for H in setup.category.subgroups])


def catalog_setup(name, coefficients="constant"):
    entry = L.catalog(name)
    assert entry.action is not None
    category = L.orbit_category(entry.action.group)
    field = entry.algebra.field
    if coefficients == "constant":
        cs = L.constant_coefficients(category, field)
    else:
        cs = L.coset_function_coefficients(category, field)
    return L.EquivariantSetup(entry.action, category, cs)


def rebasing(m, seed):
    """A seeded unit lower-triangular integer m x m matrix P (invertible
    over every field) and its inverse, which is integral too."""
    rng = random.Random(seed)
    P = [[1 if a == i else rng.randint(-2, 2) if a > i else 0
          for i in range(m)] for a in range(m)]
    Q = [[int(x) for x in row] for row in sympy.Matrix(P).inv().tolist()]
    return P, Q


def rebased(alg, seed):
    """The algebra in the basis f_i = sum_a P[a][i] e_a, for P from
    ``rebasing(alg.dim, seed)``."""
    m = alg.dim
    P, Q = rebasing(m, seed)
    s = [[[Fraction(x) for x in v] for v in row] for row in alg.structure]
    structure = []
    for i in range(m):
        structure.append([])
        for j in range(m):
            v = [sum(P[a][i] * P[b][j] * s[a][b][k]
                     for a in range(m) for b in range(m)) for k in range(m)]
            structure[i].append([sum(Q[l][k] * v[k] for k in range(m))
                                 for l in range(m)])
    return L.LeibnizAlgebra(alg.field, m, structure)


def rebased_action(action, seed):
    """The same action on ``rebased(action.algebra, seed)``: each psi_g
    becomes P^-1 psi_g P."""
    alg = action.algebra
    f = alg.field
    P, Q = rebasing(alg.dim, seed)
    P, Q = Matrix.from_rows(f, P), Matrix.from_rows(f, Q)
    return L.GroupAction(action.group, rebased(alg, seed),
                         [Q.mul(psi).mul(P) for psi in action.matrices])


@contextlib.contextmanager
def counting_fractions():
    """Yields a list that gains one entry per ``Fraction`` made inside the
    block: ``Fraction.__new__``, and ``Fraction._from_coprime_ints`` where
    the fractions module has it (Python 3.12 on), are replaced by counting
    wrappers and put back on exit."""
    made = []
    saved = {name: Fraction.__dict__[name]
             for name in ("__new__", "_from_coprime_ints")
             if name in Fraction.__dict__}
    new = saved["__new__"].__func__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    Fraction.__new__ = staticmethod(counted_new)
    if "_from_coprime_ints" in saved:
        coprime = saved["_from_coprime_ints"].__func__

        def counted_coprime(cls, n, d):
            made.append((n, d))
            return coprime(cls, n, d)
        Fraction._from_coprime_ints = classmethod(counted_coprime)
    try:
        yield made
    finally:
        for name, attr in saved.items():
            setattr(Fraction, name, attr)


# ---------------------------------------------------------------------------
# Oracles for the shuffle layer, in ints and with test-local shuffles: the
# signed-sum formula for rho_{p,q} on one word, and the free zinbiel algebra
# on words with the half-shuffle product.
# ---------------------------------------------------------------------------

def word_shuffles(p, q):
    """The (p,q)-shuffles of 1..p+q in one-line notation: the images of
    1..p in increasing order, then those of p+1..p+q."""
    n = p + q
    return [first + tuple(x for x in range(1, n + 1) if x not in first)
            for first in combinations(range(1, n + 1), p)]


def inversion_sign(sigma):
    return (-1) ** sum(a > b for a, b in combinations(sigma, 2))


def rho_explicit_word(p, q, word):
    """The signed-sum formula for rho_{p,q} applied to one basis word:

        sum over (p-1,q)-shuffles sigma of sgn(sigma) x_1 x_{sigma(2)} ...
        x_{sigma(p+q)}, with sigma relabeled to act on positions 2..p+q,

    as a dict word -> nonzero int coefficient.  The oracle of
    ``shuffles.rho_sum``."""
    if len(word) != p + q:
        raise ValueError(f"a word of length {len(word)} for rho_{{{p},{q}}}")
    out = {}
    for sigma in word_shuffles(p - 1, q):
        new = (word[0],) + tuple(word[sigma[i]] for i in range(p + q - 1))
        out[new] = out.get(new, 0) + inversion_sign(sigma)
    return {w: c for w, c in out.items() if c}


class FreeZinbielElement:
    """Linear combination of words of length 1..N over a finite alphabet,
    with int coefficients."""

    def __init__(self, alphabet, max_degree, coeffs=None):
        self.alphabet = alphabet
        self.max_degree = max_degree
        self.coeffs = {w: c for w, c in (coeffs or {}).items()
                       if c and len(w) <= max_degree}

    @classmethod
    def word(cls, alphabet, max_degree, w):
        return cls(alphabet, max_degree, {tuple(w): 1})

    def __eq__(self, other):
        return (isinstance(other, FreeZinbielElement)
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return FreeZinbielElement(self.alphabet, self.max_degree, out)

    def __repr__(self):
        return f"FreeZinbielElement({self.coeffs})"


def free_zinbiel_product(x, y, N=None):
    """Bilinear extension of the half-shuffle product, truncated past N."""
    return _half_shuffle_product(x, y, x.max_degree if N is None else N,
                                 word_shuffles)


def _half_shuffle_product(x, y, N, shuffle_set):
    """Bilinear extension, truncated past N, of the product of words u, w
    that keeps the first letter of u and moves the rest of u and w by
    every shuffle of ``shuffle_set(len(u) - 1, len(w))``."""
    out = {}
    for u, cu in x.coeffs.items():
        for w, cw in y.coeffs.items():
            if len(u) + len(w) > N:
                continue
            p, q = len(u) - 1, len(w)
            tail = u[1:] + w
            for sigma in shuffle_set(p, q):
                new = [None] * (p + q)      # slot j of tail goes to sigma(j)
                for j, s in enumerate(sigma):
                    new[s - 1] = tail[j]
                new = (u[0],) + tuple(new)
                out[new] = out.get(new, 0) + cu * cw
    return FreeZinbielElement(x.alphabet, N, out)


def check_zinbiel_axiom(alphabet, N, swap_shuffle=False):
    """((rs)t) = (r(st)) + (r(ts)) on all word triples of total length <= N.

    ``swap_shuffle`` replaces the half-shuffle by its (q,p)-swapped
    variant (negative control)."""
    if N < 3:
        raise ValueError("need N >= 3 to see the axiom")
    if swap_shuffle:
        def shuffle_set(p, q):
            return word_shuffles(q, p)
    else:
        shuffle_set = word_shuffles

    def prod(x, y):
        return _half_shuffle_product(x, y, N, shuffle_set)

    words = []
    for n in range(1, N - 1):
        words.extend(product(range(alphabet), repeat=n))
    violations = []
    for wr in words:
        for ws in words:
            for wt in words:
                if len(wr) + len(ws) + len(wt) > N:
                    continue
                r = FreeZinbielElement.word(alphabet, N, wr)
                s = FreeZinbielElement.word(alphabet, N, ws)
                t = FreeZinbielElement.word(alphabet, N, wt)
                lhs = prod(prod(r, s), t)
                rhs = prod(r, prod(s, t)) + prod(r, prod(t, s))
                if lhs != rhs:
                    violations.append((wr, ws, wt))
    return Verdict(not violations, violations)


@pytest.fixture(scope="session")
def lambda6():
    return L.catalog("lambda6").algebra


@pytest.fixture(scope="session")
def lambda6_z2_setup():
    return catalog_setup("lambda6_z2")


@pytest.fixture(scope="session")
def derived2_setup():
    return catalog_setup("derived2_f2_z2")
