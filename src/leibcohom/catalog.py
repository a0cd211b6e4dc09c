"""Named example algebras and bundled actions used throughout the tests.

Entries:
  lambda6            the 3-dim nilpotent algebra with [e1,e3]=e2, [e3,e3]=e1
  lambda6_z2         lambda6 with Z/2 acting by diag(1,-1,-1)
  abelian_M          zero bracket in dimension M
  free_leib(D,N)_perm  truncated free Leibniz algebra on D letters up to
                     degree N, with S_D permuting the letters
  derived2_f2_z2     the 2-dim derived-bracket algebra over F_2 with Z/2
                     acting by x -> x+y, y -> y

The sizes M, D and N are at least 1; a name with a size 0 is no entry.
``catalog_dimension`` reads an entry's dimension off its name, so that a
caller can refuse a large entry before it is built.
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


_ABELIAN = re.compile(r"abelian_(\d+)")
_FREE_LEIB = re.compile(r"free_leib\((\d+),(\d+)\)_perm")


def _sizes(pattern, name):
    """The sizes a sized entry's name gives, as ints, or None when the name
    does not match; KeyError when one of them is 0."""
    m = pattern.fullmatch(name)
    if m is None:
        return None
    sizes = [int(x) for x in m.groups()]
    if min(sizes) < 1:
        raise KeyError(f"degenerate catalog entry {name!r}")
    return sizes


def catalog_dimension(name, limit):
    """The dimension of the algebra ``catalog(name)`` builds, or None when
    it is over limit, read off the name: a sized entry is not built, and
    its dimension is summed only up to limit.  KeyError for a name
    ``catalog`` does not know."""
    sizes = _sizes(_ABELIAN, name)
    if sizes:
        dim = sizes[0]
    elif sizes := _sizes(_FREE_LEIB, name):
        dimV, N = sizes
        dim, words = 0, 1
        for _ in range(N):          # the words of length 1..N
            words *= dimV
            dim += words
            if dim > limit:
                break
    else:
        dim = catalog(name).algebra.dim
    return dim if dim <= limit else None


def catalog(name):
    if name == "lambda6":
        return CatalogEntry(name, lambda6())
    if name == "lambda6_z2":
        alg = lambda6()
        return CatalogEntry(name, alg, _diag_action(alg, [1, -1, -1]))
    sizes = _sizes(_ABELIAN, name)
    if sizes:
        return CatalogEntry(name, LeibnizAlgebra.zero_bracket(QQ, sizes[0]))
    sizes = _sizes(_FREE_LEIB, name)
    if sizes:
        dimV, N = sizes
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
