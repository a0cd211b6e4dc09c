"""Command-line front end: problem files in, deterministic reports out.

Exit codes: 0 success, 1 parse failure, 2 validation/check failure, an
algebra over the dimension bound (``MAX_ALGEBRA_DIM``) or a degree over
the size budget (``COCHAIN_BUDGET``).
Reports are plain text; --json emits a JSON document instead.  The only
non-deterministic content (timestamp, runtime) is isolated to one header
line (one "timestamp" key in JSON).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from .linalg import QQ, GF, Matrix
from .leibniz import LeibnizAlgebra, check_leibniz_identity
from .groups import FiniteGroup, GroupAction, orbit_category, validate_action
from .complexes import CoefficientAlgebra, betti_numbers
from .equivariant import (CoefficientSystem, EquivariantCochain,
                          EquivariantSetup, constant_coefficients,
                          coset_function_coefficients, check_coefficient_system)
from .shuffles import check_rho_identity, cup, zinbiel_check_on_cohomology
from .verdict import VerdictError
from .catalog import catalog, catalog_dimension


class ProblemParseError(Exception):
    pass


class ProblemValidationError(Exception):
    pass


class ProblemSizeError(Exception):
    pass


# The size budget: the cochain spaces of degrees 0..n that a command may
# build, each counted as at least 1, add up to at most this dimension; n is
# the highest degree the command reaches (N+1 for cohomology and homology
# up to N, p+q for cup, p+q+r for zinbiel-check).  A cochain space has
# dimension m^n on the plain paths and EquivariantSetup.ambient_dim(n) on
# the equivariant ones.  Over the budget a command exits 2 before it builds
# any cochain matrix.  Plain cohomology of the 3-dimensional lambda6 up to
# degree 8 (3^9 cochains on top, 29524 in all) fits, and takes under a
# second.
COCHAIN_BUDGET = 30000

# The largest algebra a problem may give, checked before its structure
# table (dim^3 entries) is built.  The Leibniz check visits the nonzero
# structure constants only, so its worst case is a dense table: at
# dimension 24 a random dense table takes about 3 s in ``validate`` (10 s
# at 32, 35 s at 40), and an empty one 0.2 s.  Every catalog entry in use
# fits (the largest, free_leib(2,3)_perm, has dimension 14).  A coefficient
# algebra has the same bound; a dense system on Z/2 at it checks in 4-5 s.
MAX_ALGEBRA_DIM = 24


def check_size(degree, dim_at):
    """Raise ProblemSizeError unless the cochain spaces of degrees
    0..degree, of dimension dim_at(n), fit COCHAIN_BUDGET.  Counting each
    degree as at least 1 also bounds the number of degrees when the
    spaces stay small (an algebra of dimension 0 or 1), and stops the
    loop before a power of a huge degree is computed."""
    total = 0
    for n in range(degree + 1):
        total += max(1, dim_at(n))
        if total > COCHAIN_BUDGET:
            raise ProblemSizeError(
                f"degree {degree} is over the size budget: the cochain "
                f"spaces of degrees 0..{n} already have dimension {total} "
                f"in all, more than {COCHAIN_BUDGET}")


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
    """A JSON integer (not a boolean), or a string that ``Fraction`` reads
    whose decimal exponent is within the digit limit that the JSON reader
    puts on integers, so that no longer power of ten is ever built."""
    try:
        if isinstance(x, bool):
            raise TypeError("a boolean is not a scalar")
        if isinstance(x, str):
            _, e, exponent = x.lower().rpartition("e")
            limit = sys.get_int_max_str_digits()
            if e and limit and abs(int(exponent)) > limit:
                raise ValueError(f"decimal exponent over {limit}")
            x = Fraction(x)
        return field.coerce(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ProblemParseError(f"bad scalar {x!r}: {exc}") from None


def _integer(x, what, least=None):
    """A count, index or degree of the document: a JSON integer, or a
    string that spells one.  Floats and booleans are refused rather than
    truncated, and so is a value below ``least``."""
    try:
        if isinstance(x, (bool, float)):
            raise TypeError
        n = int(x)
    except (TypeError, ValueError):
        raise ProblemParseError(f"{what}: {x!r} is not an integer") from None
    if least is not None and n < least:
        raise ProblemParseError(f"{what}: {n} is below {least}")
    return n


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
        field = GF(_integer(fspec["p"], "p"))
    else:
        raise ProblemParseError(f"field: unknown type {fspec.get('type')!r}")

    aspec = doc.get("algebra")
    if not isinstance(aspec, dict) or "dim" not in aspec:
        raise ProblemParseError("algebra: need an object with 'dim'")
    dim = _integer(aspec["dim"], "algebra: dim", 0)
    if dim > MAX_ALGEBRA_DIM:
        raise ProblemSizeError(f"algebra: dimension {dim} is over the bound "
                               f"of {MAX_ALGEBRA_DIM}")
    z = field.zero()
    structure = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for ent in aspec.get("brackets", []):
        i, j = _integer(ent["i"], "i") - 1, _integer(ent["j"], "j") - 1
        value = [_scalar(field, x) for x in ent["value"]]
        if not (0 <= i < dim and 0 <= j < dim) or len(value) != dim:
            raise ProblemParseError(
                f"algebra.brackets: index or vector out of range in {ent}")
        structure[i][j] = value
    algebra = LeibnizAlgebra(field, dim, structure)

    group = action = None
    if "group" in doc:
        gspec = doc["group"]
        order = _integer(gspec["order"], "group: order")
        table = [[_integer(x, "group: table") for x in row]
                 for row in gspec["table"]]
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
    max_degree = _integer(doc.get("max_degree", 4), "max_degree", 0)
    return Problem(field, algebra, group, action, coefficients, max_degree)


def load_problem(args):
    if args.catalog:
        try:
            dim = catalog_dimension(args.catalog, MAX_ALGEBRA_DIM)
        except (KeyError, ValueError) as exc:   # ValueError: too many digits
            raise ProblemParseError(f"--catalog: {exc.args[0]}") from None
        if dim is None:
            raise ProblemSizeError(
                f"--catalog: the algebra of {args.catalog!r} has dimension "
                f"over the bound of {MAX_ALGEBRA_DIM}")
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
    except ValueError as exc:   # bad JSON, or an integer too long to read
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
                H = frozenset(_integer(x, "subgroup") for x in s["subgroup"])
                d = _integer(s["dim"], "coefficients: dim", 0)
                if d > MAX_ALGEBRA_DIM:
                    raise ProblemSizeError(
                        f"coefficients: dimension {d} of subgroup {sorted(H)} "
                        f"is over the bound of {MAX_ALGEBRA_DIM}")
                z = field.zero()
                prod = [[[z] * d for _ in range(d)] for _ in range(d)]
                for ent in s.get("products", []):
                    i = _integer(ent["i"], "i") - 1
                    j = _integer(ent["j"], "j") - 1
                    if not (0 <= i < d and 0 <= j < d):
                        raise ProblemParseError(
                            f"coefficients: product index out of range in "
                            f"{ent} for subgroup {sorted(H)} of dimension {d}")
                    prod[i][j] = [_scalar(field, x) for x in ent["value"]]
                unit = [_scalar(field, x) for x in s["unit"]]
                if len(unit) != d or any(len(v) != d for r in prod for v in r):
                    raise ProblemParseError(
                        f"coefficients: vectors of subgroup {sorted(H)} "
                        f"must have length {d}")
                algebras[H] = CoefficientAlgebra(field, d, prod, unit)
            maps = {}
            for ent in spec["maps"]:
                key = (frozenset(_integer(x, "H") for x in ent["H"]),
                       frozenset(_integer(x, "K") for x in ent["K"]),
                       _integer(ent["g"], "g"))
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
    group and action, when given, satisfy their axioms.  The message names
    the check and the indices of its first violation only, as ``validate``
    reports them: a residual may hold scalars too long to print."""
    for name, check, obj, where in [
            ("Leibniz identity", check_leibniz_identity, problem.algebra,
             lambda x: x[0]),
            ("group axioms", FiniteGroup.validate, problem.group,
             lambda x: x),
            ("action axioms", validate_action, problem.action,
             lambda x: x[:2])]:
        if obj is None:
            continue
        v = check(obj)
        if not v.ok:
            raise ProblemValidationError(
                f"{name} violated: {where(v.violations[0])}")


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
        """Print the report.  A reader gone early (``| head -1``) leaves
        stdout on devnull, so the exit flush is quiet and the code kept."""
        stamp = (f"{datetime.now(timezone.utc).isoformat()} "
                 f"elapsed={time.monotonic() - self.start:.3f}s")
        if as_json:
            text = json.dumps({"command": self.command, "timestamp": stamp,
                               **dict(self.entries)}, indent=2)
        else:
            text = "\n".join([f"# generated {stamp}",
                              f"command: {self.command}"]
                             + [f"{k}: {v}" for k, v in self.entries])
        try:
            print(text, flush=True)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _fmt_subgroup(H):
    return "{" + ",".join(str(x) for x in sorted(H)) + "}"


def _nonzero_entries(setup, n, vec):
    """The nonzero entries of a dense ambient vector of degree n, as
    "[(subgroup, A-index, word), ...]"."""
    cochain = EquivariantCochain.from_ambient(setup, n, vec)
    return "[" + ", ".join(
        f"({_fmt_subgroup(H)}, {al}, {t})" for H in setup.category.subgroups
        for al, row in enumerate(cochain.components[H].entries)
        for t in sorted(row)) + "]"


def _listed(prefix, violations):
    """The prefix, the first 10 violations and, if there are more, their
    total, so that a dense table's report stays readable."""
    more = f" ({len(violations)} in all)" if len(violations) > 10 else ""
    return f"{prefix} {violations[:10]}{more}"


def cmd_validate(args):
    problem = load_problem(args)
    report = Report("validate")
    status = 0
    v = check_leibniz_identity(problem.algebra)
    report.add("leibniz_identity", "ok" if v.ok else _listed(
        "violations at triples", [t for t, _ in v.violations]))
    if not v.ok:
        status = 2
    group_ok = True
    if problem.group is not None:
        gv = problem.group.validate()
        report.add("group_axioms", "ok" if gv.ok else
                   _listed("violations", gv.violations))
        if not gv.ok:
            status = 2
            group_ok = False
    # the action and coefficient checks presuppose a group
    if problem.action is not None and group_ok:
        av = validate_action(problem.action)
        report.add("action_axioms", "ok" if av.ok else
                   _listed("violations", [x[:2] for x in av.violations]))
        if not av.ok:
            status = 2
        if av.ok:
            category = orbit_category(problem.group)
            cs = build_coefficient_system(problem, category)
            cv = check_coefficient_system(cs)
            report.add("coefficient_system", "ok" if cv.ok else
                       _listed("violations", cv.violations))
            if not cv.ok:
                status = 2
    report.emit(args.json)
    return status


def cmd_cohomology(args):
    problem = load_problem(args)
    n_max = problem.max_degree if args.max_degree is None else \
        _integer(args.max_degree, "--max-degree", 0)
    report = Report("cohomology")
    if args.equivariant:
        setup = make_setup(problem)
        check_size(n_max + 1, setup.ambient_dim)
        for H in setup.category.subgroups:
            report.add(f"fixed_dim_{_fmt_subgroup(H)}", setup.fixed[H].dim)
        for n in range(n_max + 1):
            report.add(f"invariant_dim_{n}", setup.invariant_space(n).dim)
        for n in range(n_max + 1):
            report.add(f"betti_{n}", setup.cohomology(n).betti)
    else:
        check_problem(problem)
        check_size(n_max + 1, lambda n: problem.algebra.dim ** n)
        for n, b in enumerate(betti_numbers(problem.algebra, n_max)):
            report.add(f"betti_{n}", b)
    report.emit(args.json)
    return 0


def cmd_homology(args):
    problem = load_problem(args)
    n_max = problem.max_degree if args.max_degree is None else \
        _integer(args.max_degree, "--max-degree", 0)
    check_problem(problem)
    check_size(n_max + 1, lambda n: problem.algebra.dim ** n)
    report = Report("homology")
    for n, b in enumerate(betti_numbers(problem.algebra, n_max)[1:], 1):
        report.add(f"betti_{n}", b)
    report.emit(args.json)
    return 0


def cmd_cup(args):
    problem = load_problem(args)
    p, q = _integer(args.p, "--p", 1), _integer(args.q, "--q", 1)
    setup = make_setup(problem)
    check_size(p + q, setup.ambient_dim)
    report = Report("cup")
    hp = setup.cohomology(p)
    hq = setup.cohomology(q)
    report.add(f"classes_degree_{p}", len(hp.representatives))
    report.add(f"classes_degree_{q}", len(hq.representatives))
    count = 0
    status = 0
    for i, ra in enumerate(hp.representatives):
        for j, rb in enumerate(hq.representatives):
            a = setup.cochain_from_invariant(p, ra)
            b = setup.cochain_from_invariant(q, rb)
            try:
                cup(a, b, setup, check_invariance=False)
                verdict = "ok"
            except VerdictError as exc:     # cup's own check of the product
                (H, K, g), residual = exc.verdict.violations[0]
                nonzero = [(al, t) for al, row in enumerate(residual.entries)
                           for t in sorted(row)]
                verdict = (f"FAIL constraint ({_fmt_subgroup(H)}, "
                           f"{_fmt_subgroup(K)}, {g}) residual nonzero at "
                           f"{nonzero}")
                status = 2
            report.add(f"cup_{i}_{j}_invariant", verdict)
            count += 1
    report.add("pairs_checked", count)
    report.emit(args.json)
    return status


def cmd_zinbiel_check(args):
    problem = load_problem(args)
    p, q, r = (_integer(x, "--degrees", 1) for x in args.degrees)
    if p + q + r > problem.max_degree + 2:
        print("degree overflow beyond configured max", file=sys.stderr)
        return 2
    setup = make_setup(problem)
    check_size(p + q + r, setup.ambient_dim)
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
                triples += 1
                if v.ok:
                    report.add(f"triple_{i}_{j}_{k}", "ok")
                    continue
                kind, defect = v.violations[0]
                report.add(f"triple_{i}_{j}_{k}",
                           f"FAIL {kind} nonzero at "
                           f"{_nonzero_entries(setup, p + q + r, defect)}")
                failures += 1
                status = 2
    report.add("triples_checked", triples)
    report.add("failures", failures)
    report.emit(args.json)
    return status


def cmd_rho_identity(args):
    p, q, r = (_integer(getattr(args, x), f"--{x}", 1) for x in "pqr")
    if p + q + r > 9:
        print("require p+q+r <= 9", file=sys.stderr)
        return 2
    report = Report("rho-identity")
    v = check_rho_identity(p, q, r)
    report.add("degrees", [p, q, r])
    report.add("identity", "ok" if v.ok else f"FAIL witness {v.violations[0]}")
    report.emit(args.json)
    return 0 if v.ok else 2


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` keeps
    no state between calls."""
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
    args = build_parser().parse_args(argv)
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
    except ProblemSizeError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
