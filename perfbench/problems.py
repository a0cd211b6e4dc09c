"""Problem data and the seeded input generator.

The base problems are written out here from their definitions, not read
from ``leibcohom.catalog``, so the program only ever receives inputs the
benchmark made.  A problem is a plain dict:

    name, p          field: p == 0 is Q, otherwise F_p
    dim, structure   structure[i][j] = coordinate vector of [e_i, e_j]
    table            group multiplication table, 0 the identity
    action           one dim x dim matrix per group element (columns = images)

Re-based copies conjugate everything by a seeded invertible matrix P
(new basis f_i = P e_i): [f_i, f_j] = P^{-1}[P e_i, P e_j] and
psi'_g = P^{-1} psi_g P.  ``verify_problem`` checks the result with the
arithmetic of ``exact`` alone: the Leibniz identity of the structure
constants, and that the action is a homomorphism into the invertible
matrices that preserves the bracket.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import exact


def _zero_structure(dim, p):
    return [[[exact.norm(p, 0)] * dim for _ in range(dim)] for _ in range(dim)]


def _trivial(dim, p):
    return [[0]], [exact.identity(p, dim)]


def _lambda6(p=0):
    s = _zero_structure(3, p)
    s[0][2] = [0, 1, 0]          # [e1, e3] = e2
    s[2][2] = [1, 0, 0]          # [e3, e3] = e1
    return [[[exact.norm(p, x) for x in v] for v in row] for row in s]


def symmetric_group(m):
    """S_m on lexicographically sorted permutations; product applies q first."""
    elems = sorted(permutations(range(m)))
    idx = {g: i for i, g in enumerate(elems)}
    table = [[idx[tuple(g[h[i]] for i in range(m))] for h in elems]
             for g in elems]
    return elems, table


def _permutation_action(m, p=0):
    elems, table = symmetric_group(m)
    mats = []
    for g in elems:
        mat = [[exact.norm(p, 0)] * m for _ in range(m)]
        for a in range(m):
            mat[g[a]][a] = exact.norm(p, 1)
        mats.append(mat)
    return table, mats


def base_problem(name):
    """The benchmark's copy of one catalog problem, in its own basis."""
    if name == "lambda6":
        table, action = _trivial(3, 0)
        return dict(name=name, p=0, dim=3, structure=_lambda6(), table=table,
                    action=action)
    if name == "lambda6_z2":
        minus = exact.norm(0, -1)
        flip = [[1, 0, 0], [0, minus, 0], [0, 0, minus]]
        return dict(name=name, p=0, dim=3, structure=_lambda6(),
                    table=[[0, 1], [1, 0]],
                    action=[exact.identity(0, 3),
                            [[exact.norm(0, x) for x in r] for r in flip]])
    if name.startswith("abelian_"):
        dim = int(name.split("_")[1])
        table, action = _trivial(dim, 0)
        return dict(name=name, p=0, dim=dim, structure=_zero_structure(dim, 0),
                    table=table, action=action)
    if name in ("free_leib(2,1)_perm", "free_leib(3,1)_perm"):
        # the truncation at word length 1 leaves the abelian algebra on the
        # letters, with S_m permuting them
        m = int(name[len("free_leib(")])
        table, action = _permutation_action(m)
        return dict(name=name, p=0, dim=m, structure=_zero_structure(m, 0),
                    table=table, action=action)
    if name == "derived2_f2_z2":
        # derived bracket [x, y]_d = [x, dy] of [x,y] = y, d x = y over F_2:
        # only [e1, e1] = e2 survives; Z/2 acts by x -> x + y, y -> y
        s = _zero_structure(2, 2)
        s[0][0] = [0, 1]
        return dict(name=name, p=2, dim=2, structure=s, table=[[0, 1], [1, 0]],
                    action=[exact.identity(2, 2), [[1, 0], [1, 1]]])
    raise KeyError(name)


# -- change of basis ------------------------------------------------------

def random_basis_change(rng, dim, p):
    """A seeded invertible matrix with small entries and no zero entry.

    P = P0 D, where P0 = L U is the product of the unit lower and unit
    upper triangular matrices whose entries below (above) the diagonal are
    all 1, so P0 is unimodular with entries up to dim, and D is a seeded
    diagonal matrix of signs.  The copies of one problem made from
    different seeds differ in the signs of their basis vectors, so their
    structure constants and action matrices have the same zero pattern
    and the same entry sizes, and a tower costs the same on each.  Over
    F_2 every sign is 1 and all copies agree.
    """
    one = exact.norm(p, 1)
    low = [[one if j <= i else exact.norm(p, 0) for j in range(dim)]
           for i in range(dim)]
    up = [[one if j >= i else exact.norm(p, 0) for j in range(dim)]
          for i in range(dim)]
    P0 = exact.matmul(p, low, up)
    signs = [exact.norm(p, rng.choice((-1, 1))) for _ in range(dim)]
    return [[P0[i][j] * signs[j] for j in range(dim)] for i in range(dim)]


def rebase(problem, P, suffix):
    p, dim = problem["p"], problem["dim"]
    Pinv = exact.inverse(p, P)
    cols = exact.columns(P)
    s = problem["structure"]
    structure = []
    for i in range(dim):
        row = []
        for j in range(dim):
            image = exact.bracket(p, s, cols[i], cols[j])
            row.append(exact.matvec(p, Pinv, image))
        structure.append(row)
    action = [exact.matmul(p, Pinv, exact.matmul(p, psi, P))
              for psi in problem["action"]]
    return dict(problem, name=f"{problem['name']}@{suffix}",
                structure=structure, action=action)


def verify_problem(problem):
    """Raise ValueError unless the problem is a valid Leibniz algebra with a
    bracket-preserving group action; uses only ``exact``."""
    p, dim, s = problem["p"], problem["dim"], problem["structure"]
    basis = exact.identity(p, dim)
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = exact.bracket(p, s, x, exact.bracket(p, s, y, z))
                rhs = exact.vsub(p, exact.bracket(p, s, exact.bracket(p, s, x, y), z),
                                 exact.bracket(p, s, exact.bracket(p, s, x, z), y))
                if lhs != rhs:
                    raise ValueError(f"{problem['name']}: Leibniz identity fails")
    table, action = problem["table"], problem["action"]
    n = len(table)
    if action[0] != exact.identity(p, dim):
        raise ValueError(f"{problem['name']}: identity does not act trivially")
    for g in range(n):
        if exact.rank(p, action[g]) != dim:
            raise ValueError(f"{problem['name']}: psi_{g} is singular")
        for h in range(n):
            if exact.matmul(p, action[g], action[h]) != action[table[g][h]]:
                raise ValueError(f"{problem['name']}: not a homomorphism")
        cols = exact.columns(action[g])
        for i in range(dim):
            for j in range(dim):
                if exact.matvec(p, action[g], s[i][j]) != \
                        exact.bracket(p, s, cols[i], cols[j]):
                    raise ValueError(
                        f"{problem['name']}: psi_{g} does not preserve the bracket")


def rebased_copies(name, count, seed):
    """``count`` verified re-based copies of one base problem."""
    base = base_problem(name)
    rng = random.Random(f"{seed}:{name}")
    out = []
    for k in range(count):
        P = random_basis_change(rng, base["dim"], base["p"])
        copy = rebase(base, P, f"{seed}.{k}")
        verify_problem(copy)
        out.append(copy)
    return out


# -- problem documents for the command line --------------------------------

def _scalar(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def to_document(problem, coefficients, max_degree):
    """The JSON problem-file form (1-based indices) the README documents."""
    p, dim, s = problem["p"], problem["dim"], problem["structure"]
    brackets = [{"i": i + 1, "j": j + 1, "value": [_scalar(x) for x in s[i][j]]}
                for i in range(dim) for j in range(dim) if any(s[i][j])]
    doc = {"field": {"type": "rational"} if p == 0 else {"type": "prime", "p": p},
           "algebra": {"dim": dim, "brackets": brackets},
           "group": {"order": len(problem["table"]), "table": problem["table"]},
           "action": {"matrices": [[[_scalar(x) for x in row] for row in m]
                                   for m in problem["action"]]},
           "coefficients": coefficients,
           "max_degree": max_degree}
    return doc
