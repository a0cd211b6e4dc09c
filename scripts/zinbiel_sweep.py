"""Sweep the built-in catalog and verify the zinbiel relation in cohomology.

For every chosen catalog entry and coefficient system, this computes the
equivariant cohomology classes up to a degree bound and checks, triple by
triple, that ([a][b])[c] = [a]([b][c]) + (-1)^{qr} [a]([c][b]) holds, i.e.
that the cochain-level defect is a coboundary.  Everything is exact.

Usage:
    python scripts/zinbiel_sweep.py [--max-total-degree N] [--entries ...]
"""

import argparse
import itertools
import sys
import time

import leibcohom as L
from leibcohom.shuffles import zinbiel_check_on_cohomology


def setup_for(name, coefficients):
    """The catalog entry's setup; for an entry without an action, the
    trivial group's, where both coefficient systems are K."""
    entry = L.catalog(name)
    field = entry.algebra.field
    if entry.action is None:
        return L.EquivariantSetup.trivial(entry.algebra,
                                          L.CoefficientAlgebra.scalar(field))
    category = L.orbit_category(entry.action.group)
    if coefficients == "constant":
        cs = L.constant_coefficients(category, field)
    else:
        cs = L.coset_function_coefficients(category, field)
    return L.EquivariantSetup(entry.action, category, cs)


def sweep(name, coefficients, max_total):
    setup = setup_for(name, coefficients)
    max_single = max_total - 2
    reps = {}
    for n in range(1, max_single + 1):
        reps[n] = [setup.cochain_from_invariant(n, coords)
                   for coords in setup.cohomology(n).representatives]
    triples = failures = 0
    start = time.monotonic()
    degree_tuples = [t for t in itertools.product(
        range(1, max_single + 1), repeat=3) if sum(t) <= max_total]
    for p, q, r in degree_tuples:
        for a in reps[p]:
            for b in reps[q]:
                for c in reps[r]:
                    triples += 1
                    if not zinbiel_check_on_cohomology(a, b, c, setup).ok:
                        failures += 1
    elapsed = time.monotonic() - start
    classes = {n: len(v) for n, v in reps.items()}
    print(f"{name:<22} {coefficients:<16} classes={classes} "
          f"triples={triples} failures={failures} ({elapsed:.2f}s)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-total-degree", type=int, default=4)
    parser.add_argument("--entries", nargs="*",
                        default=["abelian_2", "abelian_3", "lambda6_z2",
                                 "derived2_f2_z2"])
    parser.add_argument("--coefficients", nargs="*",
                        default=["constant", "coset-functions"])
    args = parser.parse_args()
    failures = 0
    for name in args.entries:
        for coeffs in args.coefficients:
            failures += sweep(name, coeffs, args.max_total_degree)
    if failures:
        print(f"TOTAL FAILURES: {failures}")
        return 2
    print("all zinbiel triples verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
