"""Named example algebras and bundled actions used throughout the tests.

Entries:
  lambda6            the 3-dim nilpotent algebra with [e1,e3]=e2, [e3,e3]=e1
  lambda6_z2         lambda6 with Z/2 acting by diag(1,-1,-1)
  abelian_M          zero bracket in dimension M
  free_leib(D,N)_perm  truncated free Leibniz algebra on D letters up to
                     degree N, with S_D permuting the letters
  derived2_f2_z2     the 2-dim derived-bracket algebra over F_2 with Z/2
                     acting by x -> x+y, y -> y
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .linalg import QQ, GF, Matrix
from .leibniz import (LeibnizAlgebra, DifferentialLieAlgebra,
                      derived_bracket_algebra, free_leibniz_truncated)
from .groups import FiniteGroup, GroupAction


@dataclass
class CatalogEntry:
    name: str
    algebra: LeibnizAlgebra
    action: GroupAction | None = None
    words: list | None = None     # degree labeling for free algebras


def lambda6(field=QQ):
    z = field.zero()
    structure = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    structure[0][2] = [z, field.one(), z]        # [e1, e3] = e2
    structure[2][2] = [field.one(), z, z]        # [e3, e3] = e1
    return LeibnizAlgebra(field, 3, structure)


def _diag_action(alg, diag_entries):
    f = alg.field
    z = f.zero()
    mat = Matrix(f, alg.dim, alg.dim,
                 [[f.coerce(diag_entries[i]) if i == j else z
                   for j in range(alg.dim)] for i in range(alg.dim)])
    group = FiniteGroup.cyclic(2)
    return GroupAction(group, alg, [Matrix.identity(f, alg.dim), mat])


def _letter_permutation_action(alg, words, dimV):
    """S_dimV permuting letters, extended letterwise to the word basis."""
    group, perms = FiniteGroup.symmetric(dimV)
    f = alg.field
    index = {w: i for i, w in enumerate(words)}
    mats = []
    for perm in perms:
        rows = [{} for _ in words]
        for j, w in enumerate(words):
            rows[index[tuple(perm[a] for a in w)]][j] = f.one()
        mats.append(Matrix.from_entries(f, alg.dim, alg.dim, rows))
    return GroupAction(group, alg, mats)


def derived2_f2():
    """Derived bracket of the 2-dim Lie algebra [x,y]=y, d(x)=y over F_2."""
    f2 = GF(2)
    z, o = 0, 1
    structure = [[[z, z] for _ in range(2)] for _ in range(2)]
    structure[0][1] = [z, o]     # [x, y] = y
    structure[1][0] = [z, o]     # = -y = y over F_2
    d = Matrix.from_rows(f2, [[0, 0], [1, 0]])   # d(x) = y, d(y) = 0
    dgla = DifferentialLieAlgebra(f2, 2, structure, d)
    return derived_bracket_algebra(dgla)


def catalog(name):
    if name == "lambda6":
        return CatalogEntry(name, lambda6())
    if name == "lambda6_z2":
        alg = lambda6()
        return CatalogEntry(name, alg, _diag_action(alg, [1, -1, -1]))
    m = re.fullmatch(r"abelian_(\d+)", name)
    if m:
        dim = int(m.group(1))
        if dim < 1:
            raise KeyError(name)
        return CatalogEntry(name, LeibnizAlgebra.zero_bracket(QQ, dim))
    m = re.fullmatch(r"free_leib\((\d+),(\d+)\)_perm", name)
    if m:
        dimV, N = int(m.group(1)), int(m.group(2))
        alg, words = free_leibniz_truncated(dimV, N)
        action = _letter_permutation_action(alg, words, dimV)
        return CatalogEntry(name, alg, action, words)
    if name == "derived2_f2_z2":
        alg = derived2_f2()
        f2 = GF(2)
        psi = Matrix.from_rows(f2, [[1, 0], [1, 1]])  # x -> x+y, y -> y
        group = FiniteGroup.cyclic(2)
        action = GroupAction(group, alg, [Matrix.identity(f2, 2), psi])
        return CatalogEntry(name, alg, action)
    raise KeyError(f"unknown catalog entry {name!r}")
