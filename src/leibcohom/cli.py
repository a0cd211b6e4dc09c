"""Command-line front end: problem files in, deterministic reports out.

Exit codes: 0 success, 1 parse failure, 2 validation/check failure.
Reports are plain text; --json emits a JSON document instead.  The only
non-deterministic content (timestamp, runtime) is isolated to one header
line (one "timestamp" key in JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from .linalg import QQ, GF, Matrix
from .leibniz import LeibnizAlgebra, check_leibniz_identity
from .groups import FiniteGroup, GroupAction, orbit_category, validate_action
from .complexes import CoefficientAlgebra, cohomology, homology
from .equivariant import (CoefficientSystem, EquivariantSetup,
                          constant_coefficients, coset_function_coefficients,
                          check_coefficient_system)
from .shuffles import check_rho_identity, cup, zinbiel_check_on_cohomology
from .catalog import catalog


class ProblemParseError(Exception):
    pass


class ProblemValidationError(Exception):
    pass


class Problem:
    def __init__(self, field, algebra, group=None, action=None,
                 coefficients="constant", max_degree=4):
        self.field = field
        self.algebra = algebra
        self.group = group
        self.action = action
        self.coefficients = coefficients
        self.max_degree = max_degree


def _scalar(field, x):
    try:
        return field.coerce(Fraction(x) if isinstance(x, str) else x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ProblemParseError(f"bad scalar {x!r}: {exc}") from None


def parse_problem(doc):
    """Build a Problem from a decoded JSON document; any document of the
    wrong shape raises ProblemParseError."""
    try:
        return _parse_problem(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProblemParseError(f"{type(exc).__name__}: {exc}") from None


def _parse_problem(doc):
    if not isinstance(doc, dict):
        raise ProblemParseError("top level must be an object")
    fspec = doc.get("field", {"type": "rational"})
    if fspec.get("type") == "rational":
        field = QQ
    elif fspec.get("type") == "prime":
        field = GF(int(fspec["p"]))
    else:
        raise ProblemParseError(f"field: unknown type {fspec.get('type')!r}")

    aspec = doc.get("algebra")
    if not isinstance(aspec, dict) or "dim" not in aspec:
        raise ProblemParseError("algebra: need an object with 'dim'")
    dim = int(aspec["dim"])
    if dim < 0:
        raise ProblemParseError(f"algebra: negative dimension {dim}")
    z = field.zero()
    structure = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for ent in aspec.get("brackets", []):
        i, j = int(ent["i"]) - 1, int(ent["j"]) - 1
        value = [_scalar(field, x) for x in ent["value"]]
        if not (0 <= i < dim and 0 <= j < dim) or len(value) != dim:
            raise ProblemParseError(
                f"algebra.brackets: index or vector out of range in {ent}")
        structure[i][j] = value
    algebra = LeibnizAlgebra(field, dim, structure)

    group = action = None
    if "group" in doc:
        gspec = doc["group"]
        order = int(gspec["order"])
        table = [[int(x) for x in row] for row in gspec["table"]]
        if order < 1 or len(table) != order or \
           any(len(r) != order for r in table) or \
           any(x < 0 or x >= order for r in table for x in r):
            raise ProblemParseError("group: malformed multiplication table")
        group = FiniteGroup(table)
    if "action" in doc:
        if group is None:
            raise ProblemParseError("action given without a group")
        mats = doc["action"].get("matrices")
        if not isinstance(mats, list) or len(mats) != group.order:
            raise ProblemParseError("action: need one matrix per group element")
        matrices = []
        for m in mats:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise ProblemParseError("action: matrices must be dim x dim")
            matrices.append(Matrix.from_rows(
                field, [[_scalar(field, x) for x in r] for r in m]))
        action = GroupAction(group, algebra, matrices)

    coefficients = doc.get("coefficients", "constant")
    max_degree = int(doc.get("max_degree", 4))
    return Problem(field, algebra, group, action, coefficients, max_degree)


def load_problem(args):
    if args.catalog:
        entry = catalog(args.catalog)
        return Problem(entry.algebra.field, entry.algebra,
                       entry.action.group if entry.action else None,
                       entry.action, "constant", 4)
    if not args.file:
        raise ProblemParseError("need a problem file or --catalog NAME")
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemParseError(f"cannot read {args.file}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemParseError(f"{args.file}: invalid JSON: {exc}") from None
    return parse_problem(doc)


def build_coefficient_system(problem, category):
    spec = problem.coefficients
    field = problem.field
    if spec == "constant":
        return constant_coefficients(category, field)
    if spec == "coset-functions":
        return coset_function_coefficients(category, field)
    if isinstance(spec, dict):
        try:
            algebras = {}
            for s in spec["systems"]:
                H = frozenset(int(x) for x in s["subgroup"])
                d = int(s["dim"])
                z = field.zero()
                prod = [[[z] * d for _ in range(d)] for _ in range(d)]
                for ent in s.get("products", []):
                    prod[int(ent["i"]) - 1][int(ent["j"]) - 1] = \
                        [_scalar(field, x) for x in ent["value"]]
                unit = [_scalar(field, x) for x in s["unit"]]
                if len(unit) != d or any(len(v) != d for r in prod for v in r):
                    raise ProblemParseError(
                        f"coefficients: vectors of subgroup {sorted(H)} "
                        f"must have length {d}")
                algebras[H] = CoefficientAlgebra(field, d, prod, unit)
            maps = {}
            for ent in spec["maps"]:
                key = (frozenset(int(x) for x in ent["H"]),
                       frozenset(int(x) for x in ent["K"]), int(ent["g"]))
                maps[key] = Matrix.from_rows(
                    field, [[_scalar(field, x) for x in r]
                            for r in ent["matrix"]])
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise ProblemParseError(f"coefficients: {exc}") from None
        missing = [m for m in category.morphisms if m not in maps]
        if missing or set(algebras) != set(category.subgroups):
            raise ProblemParseError(
                "coefficients: must cover every subgroup and every morphism")
        return CoefficientSystem(category, field, algebras, maps)
    raise ProblemParseError(f"coefficients: unknown spec {spec!r}")


def check_problem(problem):
    """Raise ProblemValidationError unless the algebra is Leibniz and the
    group and action, when given, satisfy their axioms."""
    for name, check, obj in [
            ("Leibniz identity", check_leibniz_identity, problem.algebra),
            ("group axioms", FiniteGroup.validate, problem.group),
            ("action axioms", validate_action, problem.action)]:
        if obj is None:
            continue
        v = check(obj)
        if not v.ok:
            raise ProblemValidationError(f"{name} violated: {v.violations[0]}")


def make_setup(problem):
    if problem.action is None:
        raise ProblemParseError("this command needs a group action")
    check_problem(problem)
    category = orbit_category(problem.group)
    coeffs = build_coefficient_system(problem, category)
    # the named systems are coefficient systems by construction
    if isinstance(problem.coefficients, dict):
        v = check_coefficient_system(coeffs)
        if not v.ok:
            raise ProblemValidationError(
                f"coefficient system axioms violated: {v.violations[0]}")
    return EquivariantSetup(problem.action, category, coeffs)


class Report:
    def __init__(self, command):
        self.command = command
        self.start = time.monotonic()
        self.entries = []

    def add(self, key, value):
        self.entries.append((key, value))

    def emit(self, as_json):
        elapsed = time.monotonic() - self.start
        stamp = datetime.now(timezone.utc).isoformat()
        if as_json:
            doc = {"command": self.command,
                   "timestamp": f"{stamp} elapsed={elapsed:.3f}s"}
            for k, v in self.entries:
                doc[k] = v
            print(json.dumps(doc, indent=2, sort_keys=False))
        else:
            print(f"# generated {stamp} elapsed={elapsed:.3f}s")
            print(f"command: {self.command}")
            for k, v in self.entries:
                print(f"{k}: {v}")


def _fmt_subgroup(H):
    return "{" + ",".join(str(x) for x in sorted(H)) + "}"


def cmd_validate(args):
    problem = load_problem(args)
    report = Report("validate")
    status = 0
    v = check_leibniz_identity(problem.algebra)
    report.add("leibniz_identity", "ok" if v.ok else
               f"violations at triples {[t for t, _ in v.violations]}")
    if not v.ok:
        status = 2
    group_ok = True
    if problem.group is not None:
        gv = problem.group.validate()
        report.add("group_axioms", "ok" if gv.ok else f"violations {gv.violations}")
        if not gv.ok:
            status = 2
            group_ok = False
    # the action and coefficient checks presuppose a group
    if problem.action is not None and group_ok:
        av = validate_action(problem.action)
        report.add("action_axioms", "ok" if av.ok else
                   f"violations {[x[:2] for x in av.violations]}")
        if not av.ok:
            status = 2
        if av.ok:
            category = orbit_category(problem.group)
            cs = build_coefficient_system(problem, category)
            cv = check_coefficient_system(cs)
            report.add("coefficient_system", "ok" if cv.ok else
                       f"violations {cv.violations}")
            if not cv.ok:
                status = 2
    report.emit(args.json)
    return status


def cmd_cohomology(args):
    problem = load_problem(args)
    n_max = args.max_degree if args.max_degree is not None else problem.max_degree
    report = Report("cohomology")
    if args.equivariant:
        setup = make_setup(problem)
        for H in setup.category.subgroups:
            report.add(f"fixed_dim_{_fmt_subgroup(H)}", setup.fixed[H].dim)
        for n in range(n_max + 1):
            report.add(f"invariant_dim_{n}", setup.invariant_space(n).dim)
        for n in range(n_max + 1):
            report.add(f"betti_{n}", setup.cohomology(n).betti)
    else:
        check_problem(problem)
        A = CoefficientAlgebra.scalar(problem.field)
        for n in range(n_max + 1):
            report.add(f"betti_{n}", cohomology(problem.algebra, A, n).betti)
    report.emit(args.json)
    return 0


def cmd_homology(args):
    problem = load_problem(args)
    n_max = args.max_degree if args.max_degree is not None else problem.max_degree
    check_problem(problem)
    report = Report("homology")
    for n in range(1, n_max + 1):
        report.add(f"betti_{n}", homology(problem.algebra, n).betti)
    report.emit(args.json)
    return 0


def cmd_cup(args):
    problem = load_problem(args)
    p, q = args.p, args.q
    if p < 1 or q < 1:
        print("cup product needs strictly positive degrees", file=sys.stderr)
        return 2
    setup = make_setup(problem)
    report = Report("cup")
    hp = setup.cohomology(p)
    hq = setup.cohomology(q)
    report.add(f"classes_degree_{p}", len(hp.representatives))
    report.add(f"classes_degree_{q}", len(hq.representatives))
    count = 0
    for i, ra in enumerate(hp.representatives):
        for j, rb in enumerate(hq.representatives):
            a = setup.cochain_from_invariant(p, ra)
            b = setup.cochain_from_invariant(q, rb)
            ab = cup(a, b, setup, check_invariance=False)
            inv = setup.check_invariance(ab)
            report.add(f"cup_{i}_{j}_invariant", "ok" if inv.ok else "FAIL")
            count += 1
    report.add("pairs_checked", count)
    report.emit(args.json)
    return 0


def cmd_zinbiel_check(args):
    problem = load_problem(args)
    p, q, r = args.degrees
    if min(p, q, r) < 1:
        print("zinbiel check needs strictly positive degrees", file=sys.stderr)
        return 2
    if p + q + r > problem.max_degree + 2:
        print("degree overflow beyond configured max", file=sys.stderr)
        return 2
    setup = make_setup(problem)
    report = Report("zinbiel-check")
    reps = {n: setup.cohomology(n).representatives for n in {p, q, r}}
    status = 0
    triples = 0
    failures = 0
    for i, ra in enumerate(reps[p]):
        for j, rb in enumerate(reps[q]):
            for k, rc in enumerate(reps[r]):
                a = setup.cochain_from_invariant(p, ra)
                b = setup.cochain_from_invariant(q, rb)
                c = setup.cochain_from_invariant(r, rc)
                v = zinbiel_check_on_cohomology(a, b, c, setup)
                report.add(f"triple_{i}_{j}_{k}", "ok" if v.ok else "FAIL")
                triples += 1
                if not v.ok:
                    failures += 1
                    status = 2
    report.add("triples_checked", triples)
    report.add("failures", failures)
    report.emit(args.json)
    return status


def cmd_rho_identity(args):
    p, q, r = args.p, args.q, args.r
    if min(p, q, r) < 1 or p + q + r > 9:
        print("require 1 <= p,q,r and p+q+r <= 9", file=sys.stderr)
        return 2
    report = Report("rho-identity")
    v = check_rho_identity(p, q, r)
    report.add("degrees", [p, q, r])
    report.add("identity", "ok" if v.ok else f"FAIL witness {v.violations[0]}")
    report.emit(args.json)
    return 0 if v.ok else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibcohom",
        description="Exact (equivariant) Leibniz cohomology computations.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of plain text")
    parser.add_argument("--catalog", metavar="NAME",
                        help="use a built-in catalog entry instead of a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if needs_file:
            sp.add_argument("file", nargs="?", help="problem file (JSON)")
        return sp

    add("validate", cmd_validate)
    sp = add("cohomology", cmd_cohomology)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--equivariant", action="store_true")
    sp = add("homology", cmd_homology)
    sp.add_argument("--max-degree", type=int, default=None)
    sp = add("cup", cmd_cup)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp = add("zinbiel-check", cmd_zinbiel_check)
    sp.add_argument("--degrees", type=int, nargs=3, required=True,
                    metavar=("P", "Q", "R"))
    sp = add("rho-identity", cmd_rho_identity, needs_file=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "file"):
        args.file = None
    try:
        return args.fn(args)
    except ProblemParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ProblemValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
