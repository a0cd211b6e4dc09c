"""Shuffle combinatorics, the cup product, and the zinbiel machinery.

Permutations are 1-based tuples: sigma[i-1] = sigma(i).  A permutation
acts on tensor words by moving the content of slot j to slot sigma(j),
i.e. sigma(v_1...v_n) has v_{sigma^{-1}(i)} in slot i.  Operator
composition then matches the group-algebra product, so identities among
the operators rho, tau can be decided exactly in K[S_n] regardless of
the alphabet size (the action is faithful for alphabets >= n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .linalg import (Matrix, clear_denominators, combination, dense_vector,
                     int_free_coordinates)
from .complexes import TensorSpace
from .verdict import Verdict, VerdictError


# -- permutations -------------------------------------------------------

def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_inverse(sigma):
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def perm_compose(s, t):
    """(s o t)(i) = s(t(i))."""
    return tuple(s[t[i] - 1] for i in range(len(t)))


def perm_sign(sigma):
    n = len(sigma)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                     if sigma[i] > sigma[j])
    return -1 if inversions % 2 else 1


def shuffles(p, q):
    """All (p,q)-shuffles of {1..p+q}: increasing on 1..p and on p+1..p+q."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be >= 0")
    n = p + q
    out = []
    for first_images in combinations(range(1, n + 1), p):
        rest = [x for x in range(1, n + 1) if x not in first_images]
        out.append(tuple(first_images) + tuple(rest))
    return out


class PermutationSum:
    """Element of the group algebra K[S_n], coefficients as Fractions."""

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for sigma, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[sigma] = c

    @classmethod
    def single(cls, sigma, coeff=1):
        return cls(len(sigma), {sigma: coeff})

    def __eq__(self, other):
        return (isinstance(other, PermutationSum)
                and self.n == other.n and self.terms == other.terms)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"elements of S_{self.n} and S_{other.n}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for sigma, c in other.terms.items():
            out[sigma] = out.get(sigma, Fraction(0)) + c
        return PermutationSum(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return PermutationSum(self.n, {s: cc * c for s, cc in self.terms.items()})

    def __mul__(self, other):
        """Group-algebra product; matches composition of tensor operators."""
        self._check(other)
        out = {}
        for s, cs in self.terms.items():
            for t, ct in other.terms.items():
                st = perm_compose(s, t)
                out[st] = out.get(st, Fraction(0)) + cs * ct
        return PermutationSum(self.n, out)

    def embed(self, n_total, offset=0):
        """View each permutation as acting on slots offset+1..offset+n."""
        if offset + self.n > n_total:
            raise ValueError(f"S_{self.n} at offset {offset} exceeds S_{n_total}")
        out = {}
        for sigma, c in self.terms.items():
            big = list(range(1, n_total + 1))
            for i, s in enumerate(sigma):
                big[offset + i] = offset + s
            out[tuple(big)] = c
        return PermutationSum(n_total, out)

    def apply_word(self, word):
        """Image of a basis word: dict word -> coefficient."""
        n = self.n
        if len(word) != n:
            raise ValueError(f"a word of length {len(word)} for S_{n}")
        out = {}
        for sigma, c in self.terms.items():
            new = [None] * n
            for j in range(n):
                new[sigma[j] - 1] = word[j]
            new = tuple(new)
            out[new] = out.get(new, Fraction(0)) + c
        return {w: c for w, c in out.items() if c != 0}

    def matrix(self, m, field):
        """Matrix on TensorSpace(m, n) over the given field."""
        space = TensorSpace(m, self.n)
        rows = [{} for _ in range(space.dim)]
        for col, word in enumerate(space.words()):
            for new, c in self.apply_word(word).items():
                x = field.coerce(c)
                if x:
                    rows[space.index(new)][col] = x
        return Matrix.from_entries(field, space.dim, space.dim, rows)


def shuffle_sum(p, q):
    """sh_{p,q} = sum of all (p,q)-shuffles, coefficients 1."""
    return PermutationSum(p + q, {s: 1 for s in shuffles(p, q)})


def tilde(s):
    """The anti-homomorphism induced by sigma -> sgn(sigma) sigma^{-1}."""
    out = {}
    for sigma, c in s.terms.items():
        inv = perm_inverse(sigma)
        out[inv] = out.get(inv, Fraction(0)) + perm_sign(sigma) * c
    return PermutationSum(s.n, out)


def rho_sum(p, q):
    """rho_{p,q} = Id_1 (x) tilde(sh_{p-1,q}), as an element of K[S_{p+q}]."""
    if p < 1 or q < 0:
        raise ValueError("rho requires p >= 1, q >= 0")
    return tilde(shuffle_sum(p - 1, q)).embed(p + q, offset=1)


def tau_perm(p, q):
    """Block swap (v_1..v_p v_{p+1}..v_{p+q}) -> (v_{p+1}..v_{p+q} v_1..v_p)."""
    n = p + q
    sigma = [0] * n
    for j in range(1, p + 1):
        sigma[j - 1] = q + j
    for j in range(1, q + 1):
        sigma[p + j - 1] = j
    return tuple(sigma)


def tau_sum(p, q):
    return PermutationSum.single(tau_perm(p, q))


def rho_explicit_word(p, q, word):
    """The signed-sum formula for rho_{p,q} applied to one basis word.

    sum over (p-1,q)-shuffles sigma of sgn(sigma) x_1 x_{sigma(2)} ...
    x_{sigma(p+q)}, with sigma relabeled to act on positions 2..p+q.
    Independent cross-check of rho_sum().
    """
    if len(word) != p + q:
        raise ValueError(f"a word of length {len(word)} for rho_{{{p},{q}}}")
    out = {}
    for sigma in shuffles(p - 1, q):
        sign = perm_sign(sigma)
        new = (word[0],) + tuple(word[sigma[i] + 1 - 1] for i in range(p + q - 1))
        out[new] = out.get(new, Fraction(0)) + sign
    return {w: c for w, c in out.items() if c != 0}


def check_rho_identity(p, q, r, flip_sign=False):
    """Exact check of the composition identity for rho and tau:

        (rho_{p,q} (x) Id_r) o rho_{p+q,r}
          = (Id_p (x) rho_{q,r}) o rho_{p,q+r}
          + (-1)^{rq} (Id_p (x) (tau_{r,q} o rho_{r,q})) o rho_{p,q+r}

    Decided in the group algebra K[S_{p+q+r}], which is equivalent to the
    matrix identity on any alphabet of size >= p+q+r.  ``flip_sign``
    negates the (-1)^{rq} factor (negative control).
    """
    if p < 1 or q < 1 or r < 1:
        raise ValueError("p, q, r must be >= 1")
    n = p + q + r
    lhs = rho_sum(p, q).embed(n, 0) * rho_sum(p + q, r)
    sign = (-1) ** (r * q)
    if flip_sign:
        sign = -sign
    second = (tau_sum(r, q) * rho_sum(r, q)).embed(n, p)
    rhs = (rho_sum(q, r).embed(n, p) + second.scale(sign)) * rho_sum(p, q + r)
    diff = lhs - rhs
    if not diff.terms:
        return Verdict.passed()
    witness_word = tuple(range(1, n + 1))
    residual = diff.apply_word(witness_word)
    return Verdict.failed([(witness_word, residual)])


# -- cup products --------------------------------------------------------

def cup(c, d, setup, check_invariance=True):
    """Equivariant cup product {mu_H o (c_H (x) d_H) o rho_{p,q}}, degrees
    positive; plain cochains are cupped on ``EquivariantSetup.trivial``.

    The product's invariance is always checked; a violation raises
    ``VerdictError`` carrying the verdict.  ``check_invariance`` also
    checks the factors first (a violation there is a ``ValueError``).
    """
    from .equivariant import EquivariantCochain
    p, q = c.degree, d.degree
    if p < 1 or q < 1:
        raise ValueError("cup product requires strictly positive degrees")
    if check_invariance:
        for name, x in (("left", c), ("right", d)):
            verdict = setup.check_invariance(x)
            if not verdict.ok:
                raise ValueError(
                    f"{name} cup factor is not invariant; violated "
                    f"constraint {verdict.violations[0][0]}")
    comps = {}
    for H in setup.category.subgroups:
        cd = c.components[H].kron(d.components[H])
        rho = setup.rho_matrix(p, q, setup.fixed[H].dim)
        comps[H] = setup.coefficients.algebras[H].mu.mul(cd).mul(rho)
    out = EquivariantCochain(p + q, comps)
    verdict = setup.check_invariance(out)
    if not verdict.ok:
        raise VerdictError(f"cup product is not invariant; violated "
                           f"constraint {verdict.violations[0][0]}", verdict)
    return out


def zinbiel_check_on_cohomology(a, b, c, setup):
    """Check ([a][b])[c] = [a]([b][c]) + (-1)^{qr} [a]([c][b]) in cohomology.

    a, b, c are EquivariantCochain cocycle representatives of degrees
    p, q, r.  The cochain-level defect is cleared to an int row, its
    coordinates in S^{p+q+r}_G are read in ints, and the setup's span test
    against the echelon of the coboundaries of that degree decides whether
    it is a coboundary.
    """
    p, q, r = a.degree, b.degree, c.degree
    f = setup.field
    lhs = cup(cup(a, b, setup, check_invariance=False), c, setup,
              check_invariance=False)
    rhs1 = cup(a, cup(b, c, setup, check_invariance=False), setup,
               check_invariance=False)
    rhs2 = cup(a, cup(c, b, setup, check_invariance=False), setup,
               check_invariance=False)
    one = f.one()
    minus = f.neg(one)
    w = combination(f, [(one, lhs.to_sparse(setup)),
                        (minus, rhs1.to_sparse(setup)),
                        (minus if (q * r) % 2 == 0 else one,
                         rhs2.to_sparse(setup))])
    n = p + q + r
    sn = setup.invariant_space(n)
    coords = int_free_coordinates(f, sn.ints, sn.free,
                                  clear_denominators([w])[0])
    if coords is None:
        raise AssertionError(f"zinbiel defect leaves S^{n}_G, witness {w}")
    if setup.is_coboundary(n, coords[0]):
        return Verdict.passed()
    return Verdict.failed([("defect_not_a_coboundary",
                             dense_vector(f, w, sn.ambient_dim))])


# -- free zinbiel algebra -------------------------------------------------

class FreeZinbielElement:
    """Linear combination of words of length 1..N over a finite alphabet."""

    def __init__(self, alphabet, max_degree, coeffs=None):
        self.alphabet = alphabet
        self.max_degree = max_degree
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                c = Fraction(c)
                if c != 0 and len(w) <= max_degree:
                    self.coeffs[w] = c

    @classmethod
    def word(cls, alphabet, max_degree, w):
        return cls(alphabet, max_degree, {tuple(w): 1})

    def __eq__(self, other):
        return (isinstance(other, FreeZinbielElement)
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return FreeZinbielElement(self.alphabet, self.max_degree, out)

    def __repr__(self):
        return f"FreeZinbielElement({self.coeffs})"


def free_zinbiel_product(x, y, N=None):
    """Bilinear extension of the half-shuffle product, truncated past N."""
    return _half_shuffle_product(x, y, x.max_degree if N is None else N,
                                 shuffles)


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
                inv = perm_inverse(sigma)
                new = (u[0],) + tuple(tail[inv[i] - 1] for i in range(p + q))
                out[new] = out.get(new, Fraction(0)) + cu * cw
    return FreeZinbielElement(x.alphabet, N, out)


def check_zinbiel_axiom(alphabet, N, swap_shuffle=False):
    """((rs)t) = (r(st)) + (r(ts)) on all word triples of total length <= N.

    ``swap_shuffle`` replaces the half-shuffle by its (q,p)-swapped
    variant (negative control).
    """
    if N < 3:
        raise ValueError("need N >= 3 to see the axiom")
    shuffle_set = (lambda p, q: shuffles(q, p)) if swap_shuffle else shuffles

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
