"""Reference Betti numbers from the benchmark's own construction.

The invariant cochain complex is built here from the problem data alone:
subgroups and orbit-category morphisms from the multiplication table,
fixed subspaces g^H and restriction maps from the action matrices, the
coefficient system (constant, or functions on G/H pulled back along
xH -> xgK), the invariance constraints

    c_H o (psi_g|)^{(x)n} = A(g) o c_K      for every morphism (H, K, g),

and the coboundary (delta c)(x_1..x_{n+1}) = c(d(x_1..x_{n+1})) with
d(x_1..x_n) = sum_{i<j} (-1)^j (x_1..[x_i,x_j]..x_j-hat..x_n).  Then

    betti_n = dim S^n - rank(delta_n on S^n) - rank(delta_{n-1} on S^{n-1}).

Ranks and null spaces of the invariance constraints and the coboundary
come from sympy over Q and from ``exact`` over F_2.  sympy is imported
only when the table is built; the benchmark's runs only load the stored
table.  Nothing here imports the program.

Regenerate the stored table with

    python3 perfbench/reference.py

which rewrites perfbench/reference_betti.json.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks                     # noqa: E402
import exact                      # noqa: E402
from problems import base_problem  # noqa: E402

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference_betti.json")


# -- ranks and null spaces --------------------------------------------------

def _qq(rows, ncols):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    data = [[QQ(x.numerator, x.denominator) for x in r] for r in rows]
    return DomainMatrix(data, (len(rows), ncols), QQ)


def rank(p, rows, ncols):
    if not rows:
        return 0
    return exact.rank(p, rows) if p else _qq(rows, ncols).rank()


def nullspace(p, rows, ncols):
    if not rows:
        return exact.identity(p, ncols)
    if p:
        return exact.nullspace(p, rows, ncols)
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in v]
            for v in _qq(rows, ncols).nullspace().to_list()]


# -- groups and the orbit category ----------------------------------------

def subgroups(table):
    n = len(table)
    found = set()
    for mask in range(1 << n):
        H = frozenset(i for i in range(n) if mask >> i & 1)
        if 0 in H and all(table[a][b] in H for a in H for b in H):
            found.add(H)
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def inverse_of(table, a):
    return next(b for b in range(len(table)) if table[a][b] == 0)


def left_cosets(table, H):
    seen = {}
    for g in range(len(table)):
        c = frozenset(table[g][h] for h in H)
        seen[min(c)] = c
    return [seen[m] for m in sorted(seen)]


def morphisms(table, subs):
    """G-maps G/H -> G/K, xH -> xgK, one per coset gK with g^-1 H g <= K."""
    out = []
    for H in subs:
        for K in subs:
            seen = set()
            for g in range(len(table)):
                gi = inverse_of(table, g)
                if not all(table[table[gi][h]][g] in K for h in H):
                    continue
                coset = frozenset(table[g][k] for k in K)
                if coset not in seen:
                    seen.add(coset)
                    out.append((H, K, g))
    return out


# -- the invariant cochain complex ----------------------------------------

class InvariantComplex:
    def __init__(self, problem, coefficients):
        p = problem["p"]
        self.p = p
        table, action = problem["table"], problem["action"]
        dim, s = problem["dim"], problem["structure"]
        self.subgroups = subgroups(table)
        self.morphisms = morphisms(table, self.subgroups)
        one = exact.norm(p, 1)
        # g^H: the nullspace basis has a 1 in its free column and 0 in the
        # others, so coordinates of a fixed vector are its free entries
        self.fixed = {}
        for H in self.subgroups:
            rows = []
            for h in sorted(H - {0}):
                for i in range(dim):
                    rows.append([exact.norm(p, action[h][i][j] - (1 if i == j else 0))
                                 for j in range(dim)])
            basis = exact.nullspace(p, rows, dim) if rows else exact.identity(p, dim)
            free = [next(j for j, x in enumerate(v) if x == one and
                         all(not w[j] for w in basis if w is not v))
                    for v in basis]
            struct = [[[exact.bracket(p, s, u, v)[f] for f in free] for v in basis]
                      for u in basis]
            self.fixed[H] = (basis, free, struct)
        self.restriction = {}
        for m in self.morphisms:
            H, K, g = m
            bH, freeH, _ = self.fixed[H]
            bK, _, _ = self.fixed[K]
            images = [exact.matvec(p, action[g], u) for u in bK]
            self.restriction[m] = [[img[f] for img in images] for f in freeH]
        if coefficients == "constant":
            self.coeff_dim = {H: 1 for H in self.subgroups}
            self.coeff_map = {m: [[one]] for m in self.morphisms}
        elif coefficients == "coset-functions":
            cos = {H: left_cosets(table, H) for H in self.subgroups}
            self.coeff_dim = {H: len(cos[H]) for H in self.subgroups}
            self.coeff_map = {}
            for m in self.morphisms:
                H, K, g = m
                mat = [[exact.norm(p, 0)] * len(cos[K]) for _ in cos[H]]
                for i, c in enumerate(cos[H]):
                    xg = table[min(c)][g]
                    mat[i][next(j for j, d in enumerate(cos[K]) if xg in d)] = one
                self.coeff_map[m] = mat
        else:
            raise ValueError(coefficients)
        self._spaces = {}

    def fixed_dims(self):
        return {",".join(map(str, sorted(H))): len(self.fixed[H][0])
                for H in self.subgroups}

    def layout(self, n):
        off, out = 0, {}
        for H in self.subgroups:
            h, a = len(self.fixed[H][0]), self.coeff_dim[H]
            out[H] = (h, a, off)
            off += h ** n * a
        return out, off

    def space(self, n):
        """Basis of the invariant n-cochains, in ambient coordinates."""
        if n in self._spaces:
            return self._spaces[n]
        p = self.p
        lay, total = self.layout(n)
        rows = []
        for m in self.morphisms:
            H, K, g = m
            hH, aH, offH = lay[H]
            hK, aK, offK = lay[K]
            R, A = self.restriction[m], self.coeff_map[m]
            for tK in product(range(hK), repeat=n):
                for al in range(aH):
                    row = {}
                    for tH in product(range(hH), repeat=n):
                        c = exact.norm(p, 1)
                        for a, b in zip(tH, tK):
                            c *= R[a][b]
                            if not c:
                                break
                        if c:
                            idx = offH + checks.word_index(tH, hH) * aH + al
                            row[idx] = row.get(idx, 0) + c
                    ti = checks.word_index(tK, hK)
                    for be in range(aK):
                        if A[al][be]:
                            idx = offK + ti * aK + be
                            row[idx] = row.get(idx, 0) - A[al][be]
                    dense = [exact.norm(p, 0)] * total
                    for idx, v in row.items():
                        dense[idx] = exact.norm(p, v)
                    if any(dense):
                        rows.append(dense)
        basis = nullspace(p, rows, total)
        self._spaces[n] = basis
        return basis

    def coboundary(self, n, vec):
        """delta of an ambient degree-n cochain, as an ambient vector."""
        lay, _ = self.layout(n)
        lay1, total1 = self.layout(n + 1)
        out = [exact.norm(self.p, 0)] * total1
        for H in self.subgroups:
            h, a, off = lay[H]
            off1 = lay1[H][2]
            rows = [[vec[off + wi * a + al] for wi in range(h ** n)]
                    for al in range(a)]
            image = checks.coboundary(self.p, rows, n, self.fixed[H][2], h)
            for al, row in enumerate(image):
                for wi, x in enumerate(row):
                    out[off1 + wi * a + al] = x
        return out

    def tower(self, N):
        """(invariant_dims, betti) for degrees 0..N."""
        dims, ranks = [], []
        for n in range(N + 1):
            basis = self.space(n)
            dims.append(len(basis))
            images = [self.coboundary(n, v) for v in basis]
            ncols = len(images[0]) if images else 0
            ranks.append(rank(self.p, images, ncols))
        betti = [dims[n] - ranks[n] - (ranks[n - 1] if n else 0)
                 for n in range(N + 1)]
        return dims, betti


def trivial_group(problem):
    """The same algebra with the trivial group: plain Leibniz cohomology."""
    return dict(problem, table=[[0]], action=[exact.identity(problem["p"],
                                                             problem["dim"])])


# -- the stored table ------------------------------------------------------

# (problem, coefficient system, top degree) for every equivariant tower a
# workload or a request reads, and (problem, top degree) for plain
# cohomology and homology requests
EQUIVARIANT = [
    ("lambda6_z2", "constant", 4), ("lambda6_z2", "coset-functions", 3),
    ("abelian_2", "constant", 4), ("abelian_2", "coset-functions", 3),
    ("abelian_3", "constant", 4), ("abelian_3", "coset-functions", 3),
    ("lambda6", "constant", 4), ("lambda6", "coset-functions", 3),
    ("derived2_f2_z2", "constant", 6), ("derived2_f2_z2", "coset-functions", 6),
    ("free_leib(3,1)_perm", "constant", 4),
    ("free_leib(3,1)_perm", "coset-functions", 2),
    ("free_leib(2,1)_perm", "constant", 4),
    ("free_leib(2,1)_perm", "coset-functions", 5),
]
PLAIN = [("lambda6", 4), ("lambda6_z2", 4), ("abelian_2", 4), ("abelian_3", 3),
         ("derived2_f2_z2", 5), ("free_leib(2,1)_perm", 4),
         ("free_leib(3,1)_perm", 3)]


def build_table():
    table = {"equivariant": {}, "cohomology": {}, "homology": {}}
    for name, coeffs, N in EQUIVARIANT:
        cx = InvariantComplex(base_problem(name), coeffs)
        dims, betti = cx.tower(N)
        table["equivariant"][f"{name}|{coeffs}"] = {
            "fixed_dims": cx.fixed_dims(), "invariant_dims": dims,
            "betti": betti}
        print(f"{name:22} {coeffs:16} dims {dims} betti {betti}", flush=True)
    for name, N in PLAIN:
        _, betti = InvariantComplex(trivial_group(base_problem(name)),
                                    "constant").tower(N)
        table["cohomology"][name] = betti
        # on the dual bases of words d_{n+1}: C_{n+1} -> C_n is the
        # transpose of delta_n: C^n -> C^{n+1}, so HL_n has the dimension
        # of HL^n (with d_1 = 0 and delta_0 = 0)
        table["homology"][name] = betti[1:]
        print(f"{name:22} plain cohomology {betti} homology "
              f"{table['homology'][name]}", flush=True)
    return table


def load_table():
    with open(TABLE_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    result = build_table()
    with open(TABLE_PATH, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {TABLE_PATH}")
