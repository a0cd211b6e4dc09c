"""Coefficient systems on the orbit category and the invariant-cochain complex.

A coefficient system assigns a commutative algebra A(G/H) to every
subgroup and a unital algebra map A(g-hat): A(G/K) -> A(G/H) to every
orbit-category morphism, contravariantly.  An invariant n-cochain is a
family {c_H} with c_H o (psi_g)^(x)n = A(g-hat) o c_K for every morphism;
these form the complex whose cohomology is the equivariant Leibniz
cohomology.

The fixed subalgebras and restriction maps are built in int rows by
``groups``, and each restriction map keeps its int columns and its shape;
its bracket is checked here, once per binding morphism (below).  The
set-up reads only those int rows and shapes, so building a setup and its
invariant spaces makes no field element; the restriction matrices and the
induced structure constants are divided only when something reads them.
The per-degree data is built on demand and kept on the
``EquivariantSetup``, except the constraint rows, which are streamed (int
rows follow the convention in the ``linalg`` module docstring):

* ``invariant_space(n)`` is S^n_G, the null space of the invariance
  constraints.  R^(x)n is built once per (morphism, n) as int columns,
  from the restriction map's int columns in plain int products with one
  ``reduce_ints`` per power; the constraint rows are built from it as int
  rows and go straight to the elimination loop, whose int basis is kept
  and divided into field vectors only when they are read.
  Only the binding constraints are built: a morphism (H, H, g) whose
  restriction map and coefficient map are both identity matrices asks
  c_H = c_H at every degree, so it adds no row.  The test is on the maps'
  int rows, not on the label g, so a coefficient system whose identity
  morphism is not sent to the identity is still constrained by it.  Which
  morphisms bind, and the int rows of their -A(g-hat), are found once per
  setup, and each binding restriction map is checked there to be a bracket
  morphism: that keeps delta's images invariant at every degree.
  ``check_invariance`` still evaluates every morphism, on
  ``restriction_power``, the one conversion of R^(x)n to field entries.
* ``cohomology(n)`` needs S^n_G only, and takes each degree through one
  pass of int rows; field elements are made only for what the
  ``CohomologyResult`` holds.
  - The images delta(b_i) of the basis of S^n_G are summed as int rows
    over one denominator, on the block of each subgroup H over the int
    rows of d_{n+1}^T of g^H: each H keeps a ``BoundaryChain`` with its
    latest d^T, stepped up one degree as a tower climbs (and built again
    from d_2 when a lower degree is asked for).
  - One elimination of their columns, fed the sums directly, gives both
    the cocycles (its null space, the same reduced basis the coboundary
    matrix X_n would give) and the pivot columns.  Only the cocycles, the
    pivot images and their denominator are kept.
  - The coboundaries of degree n are the pivot images of degree n - 1
    (the columns greedy independence picks from X_(n-1)), read in ints at
    the free columns of S^n_G against the int basis ``invariant_space``
    keeps from the kernel.  So a tower up to N never builds S^(N+1)_G, and
    R^(x)n only for n <= N.
  - Their one elimination per degree, each row's pivot at its largest
    column (``last_pivot_echelon``), picks the classes, the cocycles whose
    free column is no pivot, and is kept as int rows: ``is_coboundary(n,
    row)``, the zinbiel span test, clears a row at its pivots.
* ``equivariant_coboundary(n)`` builds X_n, which needs S^(n+1)_G, and
  sums the delta images again on each call; only the tests read it, as
  the reference route.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .linalg import (Matrix, clear_at_pivots, clear_denominators,
                     combination, dense_vector, int_column_reduction,
                     int_combination, int_free_coordinates, int_kernel_basis,
                     last_pivot_echelon, sparse_vector)
from .complexes import (BoundaryChain, CoefficientAlgebra, CohomologyResult,
                        _representatives)
from .groups import (FiniteGroup, GroupAction, fixed_subalgebra,
                     orbit_category, restriction_map)
from .leibniz import AlgebraMorphism, check_morphism
from .shuffles import rho_sum
from .verdict import Verdict


class CoefficientSystem:
    def __init__(self, category, field, algebras, maps):
        self.category = category
        self.field = field
        self.algebras = algebras    # subgroup -> CoefficientAlgebra
        self.maps = maps            # (H, K, g) -> Matrix  A(G/K) -> A(G/H)


def constant_coefficients(category, field):
    """A(G/H) = K for every H, all maps the identity; one algebra and one
    matrix serve every subgroup and morphism."""
    algebras = dict.fromkeys(category.subgroups,
                             CoefficientAlgebra.scalar(field))
    maps = dict.fromkeys(category.morphisms, Matrix.identity(field, 1))
    return CoefficientSystem(category, field, algebras, maps)


def coset_function_coefficients(category, field):
    """A(G/H) = functions on G/H with pointwise product, maps = pullbacks."""
    G = category.group
    cosets = {H: category.cosets(H) for H in category.subgroups}
    algebras = {H: CoefficientAlgebra.pointwise_functions(field, len(cosets[H]))
                for H in category.subgroups}
    maps = {}
    for (H, K, g) in category.morphisms:
        ch, ck = cosets[H], cosets[K]
        rows = []
        for c in ch:
            xg = G.mul(min(c), g)
            rows.append({next(j for j, ckos in enumerate(ck) if xg in ckos):
                         field.one()})
        maps[(H, K, g)] = Matrix.from_entries(field, len(ch), len(ck), rows)
    return CoefficientSystem(category, field, algebras, maps)


def check_coefficient_system(A):
    """The axioms of a coefficient system, as a verdict.  The violations
    of each algebra's ``validate`` come first, as ("algebra", (H, kind,
    indices)).  Each map M: A(G/K) -> A(G/H) is cleared once, to int
    columns (``AlgebraMorphism.integral``), and checked in ints to be
    unital, an algebra map (``check_morphism``) and functorial, M_(m1 m2)
    = M_m1 M_m2, each residual column one ``int_combination``."""
    cat = A.category
    reduce = A.field.reduce_ints
    violations = [("algebra", (H, kind, where)) for H in cat.subgroups
                  for kind, where in A.algebras[H].validate().violations]
    units = {H: clear_denominators([sparse_vector(a.unit)])
             for H, a in A.algebras.items()}
    columns = {}
    for m in cat.morphisms:
        H, K, g = m
        mat = A.maps[m]
        aH, aK = A.algebras[H], A.algebras[K]
        if mat.rows != aH.dim or mat.cols != aK.dim:
            violations.append(("shape", m))
            continue
        phi = AlgebraMorphism(aK, aH, mat)
        C, c = columns[m] = phi.integral
        ((uK,), u), ((uH,), v) = units[K], units[H]
        if reduce([int_combination([(-c * u, uH)] + [
                (v * x, C[j]) for j, x in uK.items()])])[0]:
            violations.append(("unit", m))
        if not check_morphism(phi).ok:
            violations.append(("algebra_map", m))
        if H == K and g == 0 and not _is_identity(phi.integral, phi.shape):
            violations.append(("identity_morphism", m))
    if any(kind == "shape" for kind, _ in violations):
        return Verdict(False, violations)   # composites need matching shapes
    for m1 in cat.morphisms:
        C1, c1 = columns[m1]
        for m2 in cat.morphisms:
            if m1[1] != m2[0]:
                continue
            C2, c2 = columns[m2]
            C, c = columns[cat.compose(m1, m2)]
            if any(reduce([int_combination([(-c1 * c2, col)] + [
                    (c * x, C1[k]) for k, x in col2.items()])
                    for col2, col in zip(C2, C)])):
                violations.append(("functoriality", (m1, m2)))
    return Verdict(not violations, violations)


def _is_identity(ints, shape):
    """Whether a matrix of the given shape, as int rows or columns over any
    one denominator d, is an identity matrix: row i is d at i alone."""
    rows, d = ints
    return shape[0] == shape[1] and all(row == {i: d}
                                        for i, row in enumerate(rows))


@dataclass
class InvariantCochainSpace:
    """S^n_G as the kernel returned it; its field vectors are divided from
    the int rows on first read only, and a tower reads none."""
    field: object
    ambient_dim: int
    free: list             # the free column of each basis vector
    ints: tuple            # the basis as int rows over one denominator

    @property
    def dim(self):
        return len(self.free)

    @cached_property
    def vectors(self):
        """The sparse basis vectors in ambient coordinates."""
        return self.field.divide_ints(*self.ints)

    @property
    def basis(self):
        """The basis as dense ambient vectors, built on each access."""
        return [dense_vector(self.field, v, self.ambient_dim)
                for v in self.vectors]


class EquivariantCochain:
    """Family {c_H}, each c_H a (dim A(G/H)) x (dim g^H)^n matrix.

    In ambient coordinates c_H[al][t] sits at offset_H + t * dim A(G/H) + al.
    """

    def __init__(self, degree, components):
        self.degree = degree
        self.components = components

    @classmethod
    def from_ambient(cls, setup, n, vec):
        """From a dense ambient vector."""
        return cls.from_sparse(setup, n, sparse_vector(vec))

    @classmethod
    def from_sparse(cls, setup, n, vec):
        """From a sparse ambient vector."""
        lay = setup.layout(n)
        starts = [off for (_, _, _, off) in lay]
        rows = [[{} for _ in range(a)] for (_, _, a, _) in lay]
        for i, x in vec.items():
            b = bisect_right(starts, i) - 1       # skips empty blocks
            t, al = divmod(i - starts[b], lay[b][2])
            rows[b][al][t] = x
        return cls(n, {H: Matrix.from_entries(setup.field, a, h ** n, r)
                       for (H, h, a, _), r in zip(lay, rows)})

    def to_ambient(self, setup):
        """As a dense ambient vector."""
        return dense_vector(setup.field, self.to_sparse(setup),
                            setup.ambient_dim(self.degree))

    def to_sparse(self, setup):
        """As a sparse ambient vector."""
        out = {}
        for (H, h, a, off) in setup.layout(self.degree):
            for al, row in enumerate(self.components[H].entries):
                for t, x in row.items():
                    out[off + t * a + al] = x
        return out


class EquivariantSetup:
    """Precomputed fixed subalgebras, restriction maps, and invariant bases.

    Ties one validated group action to one coefficient system; all the
    per-degree data is cached here.
    """

    def __init__(self, action, category, coefficients):
        self.action = action
        self.group = action.group
        self.category = category
        self.field = action.algebra.field
        self.coefficients = coefficients
        self.fixed = {H: fixed_subalgebra(action, H)
                      for H in category.subgroups}
        self.restrictions = {m: restriction_map(action, m, self.fixed)
                             for m in category.morphisms}
        self._spaces = {}
        self._chains = {}
        self._reductions = {}
        self._echelons = {}
        self._int_powers = {}
        self._restriction_powers = {}
        self._rho_matrices = {}

    @classmethod
    def trivial(cls, algebra, A):
        """The trivial group acting on ``algebra``, with coefficients A and
        the identity on A: its cohomology is the plain HL^*(g; A)."""
        f = algebra.field
        group = FiniteGroup.trivial()
        category = orbit_category(group)
        coefficients = CoefficientSystem(
            category, f, dict.fromkeys(category.subgroups, A),
            dict.fromkeys(category.morphisms, Matrix.identity(f, A.dim)))
        action = GroupAction(group, algebra, [Matrix.identity(f, algebra.dim)])
        return cls(action, category, coefficients)

    def layout(self, n):
        out = []
        off = 0
        for H in self.category.subgroups:
            h = self.fixed[H].dim
            a = self.coefficients.algebras[H].dim
            out.append((H, h, a, off))
            off += (h ** n) * a
        return out

    def ambient_dim(self, n):
        lay = self.layout(n)
        H, h, a, off = lay[-1]
        return off + (h ** n) * a

    def _restriction_ints(self, morphism, n):
        """R^{(x)n} for the restriction map of one orbit-category morphism,
        as int columns over a common denominator: (columns, d) with
        R^{(x)n}[tH][tK] = columns[tK].get(tH, 0) / d.  R^{(x)1} is the
        restriction map's ``integral``; each higher power is built once per
        (morphism, n), as R^{(x)(n-1)} (x) R in plain int products brought
        back by one ``reduce_ints``."""
        key = (morphism, n)
        if key not in self._int_powers:
            if n == 0:
                self._int_powers[key] = [{0: 1}], 1
            elif n == 1:
                self._int_powers[key] = self.restrictions[morphism].integral
            else:
                prev, d = self._restriction_ints(morphism, n - 1)
                base, e = self._restriction_ints(morphism, 1)
                h = self.restrictions[morphism].shape[0]
                self._int_powers[key] = self.field.reduce_ints([
                    {i * h + j: x * y for i, x in u.items()
                     for j, y in v.items()}
                    for u in prev for v in base]), d * e
        return self._int_powers[key]

    def restriction_power(self, morphism, n):
        """R^{(x)n} for the restriction map of one orbit-category morphism,
        as a matrix: the one conversion of its int columns to field
        entries."""
        key = (morphism, n)
        if key not in self._restriction_powers:
            f = self.field
            columns = f.divide_ints(*self._restriction_ints(morphism, n))
            nrows = self.restrictions[morphism].shape[0] ** n
            self._restriction_powers[key] = Matrix.from_entries(
                f, len(columns), nrows, columns).transpose()
        return self._restriction_powers[key]

    def rho_matrix(self, p, q, h):
        """rho_{p,q} on the tensor words of an h-letter alphabet."""
        key = (p, q, h)
        if key not in self._rho_matrices:
            self._rho_matrices[key] = rho_sum(p, q).matrix(h, self.field)
        return self._rho_matrices[key]

    @cached_property
    def _binding(self):
        """The degree-independent part of the binding constraints, checked
        and built on first use: (morphism, minus_A, e) for each binding
        morphism, with minus_A the int rows of -A(g-hat) over their
        denominator e.  A morphism (H, H, g) whose restriction map and
        coefficient map are both identity matrices asks c_H = c_H at every
        degree, so it binds nothing.

        The restriction map R: g^K -> g^H of each binding morphism must be
        a bracket morphism, and is checked once here, on the map the setup
        holds at first use.  That one check keeps delta invariant at every
        degree: R[x, y] = [Rx, Ry] gives d_H R^(x)(n+1) = R^(x)n d_K, so a
        constraint C of the morphism takes C(delta b) = C(b) d_K = 0 for b
        in S^n_G, whatever the coefficient map."""
        neg = self.field.neg
        out = []
        for m in self.category.morphisms:
            H, K, g = m
            R, A = self.restrictions[m], self.coefficients.maps[m]
            rows, e = clear_denominators(A.entries)
            if (H == K and _is_identity(R.integral, R.shape)
                    and _is_identity((rows, e), (A.rows, A.cols))):
                continue
            if not check_morphism(R).ok:
                raise AssertionError(
                    f"the restriction map of ({sorted(H)}, {sorted(K)}, {g}) "
                    f"breaks the bracket: delta leaves the invariant subspace")
            out.append((m, [{aj: neg(x) for aj, x in row.items()}
                            for row in rows], e))
        return out

    def _constraint_rows(self, n):
        """The invariance constraints of degree n as int rows in ambient
        indices, yielded one by one and kept nowhere.  Each binding
        morphism (H, K, g) gives one row (tK, al) of c_H R^{(x)n} -
        A(g-hat) c_K per tK and al, over a common denominator of R^{(x)n}
        and A(g-hat): r times column tK of R^{(x)n}'s int columns at the
        indices offH + tH aH + al, plus row al of minus_A, brought to the
        same denominator, at the indices offK + tK aK + aj."""
        add = self.field.add
        offsets = {H: (a, off) for (H, _, a, off) in self.layout(n)}
        for m, minus_A, e in self._binding:
            H, K, _ = m
            (aH, offH), (aK, offK) = offsets[H], offsets[K]
            columns, d = self._restriction_ints(m, n)
            s = lcm(d, e)
            r, k = s // d, s // e           # both 1 over F_p, where d = e = 1
            if k != 1:
                minus_A = [{aj: k * x for aj, x in row.items()}
                           for row in minus_A]
            for tK, column in enumerate(columns):
                for al in range(aH):
                    row = {offH + tH * aH + al: r * x
                           for tH, x in column.items()}
                    for aj, c in minus_A[al].items():
                        k = offK + tK * aK + aj      # may meet row when H == K
                        x = add(row[k], c) if k in row else c
                        if x:
                            row[k] = x
                        else:
                            del row[k]
                    yield row

    def invariant_space(self, n):
        if n in self._spaces:
            return self._spaces[n]
        f, total = self.field, self.ambient_dim(n)
        ints, free = int_kernel_basis(f, self._constraint_rows(n), total)
        self._spaces[n] = InvariantCochainSpace(f, total, free, ints)
        return self._spaces[n]

    def _delta_sums(self, n):
        """delta of each basis vector b of S^n_G, as int rows in ambient
        indices of degree n + 1 over one denominator: (sums, D).  On the
        block of H,

            delta(b)[s a + al] = sum_t d_{n+1}^T[s][t] b[t a + al]

        over the int rows of d_{n+1}^T of g^H, brought to the lcm c of the
        subgroups' denominators, and the basis as int rows over their
        common denominator e, so D = c e.  Each entry of b is visited once,
        through the columns of d_{n+1}^T.  Each subgroup keeps only its
        latest d^T, stepped up one degree as the tower climbs; the sums
        are built on each call."""
        lay = self.layout(n)
        starts = [off for (_, _, _, off) in lay]
        for H in self.category.subgroups:
            if H not in self._chains:
                self._chains[H] = BoundaryChain(self.fixed[H].algebra)
        c = lcm(*(chain.denominator for chain in self._chains.values()))
        # each block: the columns of c d^T, as {s a: entry}, dim A(G/H),
        # and the ambient indices of degree n + 1, one int object each
        # for all the images to share
        blocks = []
        for (H, h, a, _), (_, _, _, off1) in zip(lay, self.layout(n + 1)):
            chain = self._chains[H]
            r = c // chain.denominator
            columns = [{} for _ in range(h ** n)]
            for s, row in enumerate(chain.at(n + 1)):
                for t, x in row.items():
                    columns[t][s * a] = r * x
            blocks.append((columns, a,
                           list(range(off1, off1 + h ** (n + 1) * a))))
        sums = []
        basis, e = self.invariant_space(n).ints
        for v in basis:
            acc = {}
            for i, y in v.items():
                j = bisect_right(starts, i) - 1       # skips empty blocks
                columns, a, index = blocks[j]
                t, al = divmod(i - starts[j], a)
                for sa, z in columns[t].items():
                    k = index[sa + al]
                    acc[k] = acc.get(k, 0) + z * y
            sums.append(acc)
        return self.field.reduce_ints(sums), c * e

    def _delta_reduction(self, n):
        """(cocycles, images, D) of delta on S^n_G, from one elimination of
        the columns of its int images: the reduced-echelon basis of their
        null space, the cocycles in invariant coordinates, and the images at
        its pivot columns, which span the coboundaries of degree n + 1, as
        int rows over D.  No constraint of degree n + 1 is read: the images
        are invariant because ``_binding`` checked every binding
        restriction map, and ``_coordinates`` reads them at the free
        columns of S^(n+1)_G when that degree is asked for."""
        if n not in self._reductions:
            sums, d = self._delta_sums(n)
            cocycles, images = int_column_reduction(self.field, sums)
            self._reductions[n] = cocycles, images, d
        return self._reductions[n]

    def _coordinates(self, n, images):
        """The coordinates in S^n_G of delta images of degree n - 1, int
        rows over one denominator: their entries at its free columns, read
        and checked in ints."""
        sn = self.invariant_space(n)
        coords = int_free_coordinates(self.field, sn.ints, sn.free, images)
        if coords is None:
            raise AssertionError(f"delta image leaves the invariant "
                                 f"subspace in degree {n - 1}")
        return coords

    def _coboundary_echelon(self, n):
        """B^n_G from degree-n data alone: (coords, d, echelon), the
        ``_coordinates`` of the pivot images of degree n - 1 as int rows
        over d, and their ``last_pivot_echelon``.  B^0_G = 0."""
        if n == 0:
            return [], 1, {}
        if n not in self._echelons:
            _, images, d = self._delta_reduction(n - 1)
            coords = self._coordinates(n, images)
            echelon = last_pivot_echelon(self.field, coords,
                                         self.invariant_space(n).dim)
            self._echelons[n] = coords, d, echelon
        return self._echelons[n]

    def equivariant_coboundary(self, n):
        """X_n, delta on invariant coordinates S^n_G -> S^{n+1}_G, built from
        delta sums of its own on each call: the reference route for the
        reduction of ``cohomology``."""
        f = self.field
        sums, d = self._delta_sums(n)
        return Matrix.from_entries(
            f, len(sums), self.invariant_space(n + 1).dim,
            f.divide_ints(self._coordinates(n + 1, sums), d)).transpose()

    def is_coboundary(self, n, row):
        """Whether an int row in coordinates of S^n_G, over any denominator
        (residues over F_p), lies in B^n_G: whether nothing is left of it
        once it is cleared at the pivots of the echelon of degree n."""
        return not clear_at_pivots(dict(row), self._coboundary_echelon(n)[2],
                                   self.field.characteristic)

    def check_invariance(self, cochain):
        """Residuals of all invariance constraints for a cochain family."""
        n = cochain.degree
        violations = []
        for m in self.category.morphisms:
            H, K, g = m
            lhs = cochain.components[H].mul(self.restriction_power(m, n))
            rhs = self.coefficients.maps[m].mul(cochain.components[K])
            if lhs != rhs:
                violations.append((m, lhs.sub(rhs)))
        return Verdict(not violations, violations)

    def cohomology(self, n):
        """HL^n_G in invariant coordinates of degree n, from S^n_G alone:
        the coboundaries and the classes from the echelon of degree n,
        then the cocycles from the reduction of delta's images in degree
        n, so that each chain steps on from d_n^T to d_{n+1}^T."""
        if n < 0:
            raise ValueError("degree must be >= 0")
        f = self.field
        coords, d, echelon = self._coboundary_echelon(n)
        cocycles = self._delta_reduction(n)[0]
        return CohomologyResult(f, n, self.invariant_space(n).dim, cocycles,
                                f.divide_ints(coords, d),
                                len(cocycles) - len(coords),
                                _representatives(cocycles, echelon))

    def invariant_to_ambient(self, n, coords):
        """Expand a list of invariant-basis coordinates into a sparse
        ambient vector."""
        f = self.field
        return combination(f, zip(map(f.coerce, coords),
                                  self.invariant_space(n).vectors))

    def cochain_from_invariant(self, n, coords):
        return EquivariantCochain.from_sparse(
            self, n, self.invariant_to_ambient(n, coords))

