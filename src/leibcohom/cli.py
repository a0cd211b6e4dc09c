"""Command-line front end: problem files in, deterministic reports out.

``parse_problem`` reads the whole document, coefficients included, with
one reader per kind of value (``_table``, ``_dimension``, ``_matrix``),
and refuses a key given twice as it reads it.  ``_checks`` is the one
check sequence: the Leibniz identity; the group axioms; the action
axioms, once the group passes; the coefficient system, once the action
passes (a given one in every command, a named one in ``validate`` only).
``validate`` reports each check it reaches; the other commands refuse at
the first failure.

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
    """A problem document, read.  ``coefficients`` is the name of a
    system, or the (algebras, maps) of a given one; ``system`` is the
    coefficient system on the orbit category, built on first use."""

    def __init__(self, field, algebra, group=None, action=None,
                 coefficients="constant", max_degree=4):
        self.field = field
        self.algebra = algebra
        self.group = group
        self.action = action
        self.coefficients = coefficients
        self.max_degree = max_degree

    @functools.cached_property
    def system(self):
        return build_coefficient_system(self, orbit_category(self.group))


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


def _dimension(x, what, where=""):
    """The dimension of an algebra, refused over ``MAX_ALGEBRA_DIM``
    before any table of it is built."""
    dim = _integer(x, f"{what}: dim", 0)
    if dim > MAX_ALGEBRA_DIM:
        raise ProblemSizeError(f"{what}: dimension {dim}{where} is over the "
                               f"bound of {MAX_ALGEBRA_DIM}")
    return dim


def _vector(field, xs, dim, what):
    v = [_scalar(field, x) for x in xs]
    if len(v) != dim:
        raise ProblemParseError(f"{what} must have length {dim}")
    return v


def _table(field, entries, dim, what, where=""):
    """The dim x dim table of vectors of a list of {i, j, value} entries:
    1-based (i, j), each at most once; the pairs not listed are zero."""
    given = {}
    for ent in entries:
        i, j = _integer(ent["i"], "i"), _integer(ent["j"], "j")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ProblemParseError(f"{what} index out of range in {ent}"
                                    f"{where} of dimension {dim}")
        if (i, j) in given:
            raise ProblemParseError(f"{what} (i, j) = ({i}, {j}) given "
                                    f"twice{where}")
        given[i, j] = _vector(field, ent["value"], dim,
                              f"{what} value in {ent}{where}")
    z = field.zero()
    return [[given.get((i, j), [z] * dim) for j in range(1, dim + 1)]
            for i in range(1, dim + 1)]


def _matrix(field, rows):
    """A matrix given as its list of rows of scalars."""
    return Matrix.from_rows(field, [[_scalar(field, x) for x in r]
                                    for r in rows])


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
    dim = _dimension(aspec["dim"], "algebra")
    algebra = LeibnizAlgebra(field, dim, _table(
        field, aspec.get("brackets", []), dim, "algebra: bracket"))

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
        if any(len(m) != dim or any(len(r) != dim for r in m) for m in mats):
            raise ProblemParseError("action: matrices must be dim x dim")
        action = GroupAction(group, algebra, [_matrix(field, m) for m in mats])

    coefficients = _coefficients(field, doc.get("coefficients", "constant"))
    max_degree = _integer(doc.get("max_degree", 4), "max_degree", 0)
    return Problem(field, algebra, group, action, coefficients, max_degree)


def _coefficients(field, spec):
    """A system's name, or the (algebras, maps) of a given system: one
    algebra per subgroup and one map per (H, K, g), each at most once."""
    if spec in ("constant", "coset-functions"):
        return spec
    if not isinstance(spec, dict):
        raise ProblemParseError(f"coefficients: unknown spec {spec!r}")
    algebras = {}
    for s in spec["systems"]:
        H = frozenset(_integer(x, "subgroup") for x in s["subgroup"])
        if H in algebras:
            raise ProblemParseError(
                f"coefficients: subgroup {sorted(H)} given twice in systems")
        where = f" for subgroup {sorted(H)}"
        d = _dimension(s["dim"], "coefficients", where)
        products = _table(field, s.get("products", []), d,
                          "coefficients: product", where)
        unit = _vector(field, s["unit"], d, f"coefficients: unit{where}")
        algebras[H] = CoefficientAlgebra(field, d, products, unit)
    maps = {}
    for ent in spec["maps"]:
        m = (frozenset(_integer(x, "H") for x in ent["H"]),
             frozenset(_integer(x, "K") for x in ent["K"]),
             _integer(ent["g"], "g"))
        if m in maps:
            raise ProblemParseError(
                f"coefficients: the map of {_fmt_morphism(m)} given twice")
        maps[m] = _matrix(field, ent["matrix"])
    return algebras, maps


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
    """The named system on the category, or the given one once it has a
    map for every morphism of the category and for no other triple, and
    an algebra for every subgroup."""
    spec, field = problem.coefficients, problem.field
    if spec == "constant":
        return constant_coefficients(category, field)
    if spec == "coset-functions":
        return coset_function_coefficients(category, field)
    algebras, maps = spec
    morphisms = set(category.morphisms)
    for m in maps:
        if m not in morphisms:
            raise ProblemParseError(
                f"coefficients: the map of {_fmt_morphism(m)} is not a "
                f"morphism of the orbit category")
    if len(maps) != len(morphisms) or set(algebras) != set(category.subgroups):
        raise ProblemParseError(
            "coefficients: must cover every subgroup and every morphism")
    return CoefficientSystem(category, field, algebras, maps)


def _checks(problem, every_system):
    """The checks of a problem in order, each drawn as (report key, name,
    label of its violations, witness of one violation, verdict): the
    Leibniz identity; the group axioms; the action axioms, once the group
    passes; the coefficient system, once the action passes.  A given
    system is always checked, a named one (a coefficient system by
    construction) only with ``every_system``.  A check runs only when it
    is drawn."""
    yield ("leibniz_identity", "Leibniz identity", "violations at triples",
           lambda x: x[0], check_leibniz_identity(problem.algebra))
    if problem.group is None:
        return
    v = problem.group.validate()
    yield "group_axioms", "group axioms", "violations", lambda x: x, v
    if not v.ok or problem.action is None:
        return
    v = validate_action(problem.action)
    yield "action_axioms", "action axioms", "violations", lambda x: x[:2], v
    if v.ok and (every_system or not isinstance(problem.coefficients, str)):
        yield ("coefficient_system", "coefficient system axioms", "violations",
               lambda x: x, check_coefficient_system(problem.system))


def check_problem(problem):
    """Raise ProblemValidationError at the first of the problem's checks
    that fails.  The message names the check and the indices of its first
    violation only, as ``validate`` reports them: a residual may hold
    scalars too long to print."""
    for _, name, _, witness, v in _checks(problem, every_system=False):
        if not v.ok:
            raise ProblemValidationError(
                f"{name} violated: {witness(v.violations[0])}")


def make_setup(problem):
    if problem.action is None:
        raise ProblemParseError("this command needs a group action")
    check_problem(problem)
    return EquivariantSetup(problem.action, problem.system.category,
                            problem.system)


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


def _fmt_morphism(m):
    H, K, g = m
    return f"({_fmt_subgroup(H)}, {_fmt_subgroup(K)}, {g})"


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
    ok = True
    for key, _, label, witness, v in _checks(problem, every_system=True):
        report.add(key, "ok" if v.ok else
                   _listed(label, [witness(x) for x in v.violations]))
        ok = ok and v.ok
    report.emit(args.json)
    return 0 if ok else 2


def _tower(args):
    """The problem of a cohomology or homology command and its top degree
    N, from --max-degree or the document."""
    problem = load_problem(args)
    return problem, problem.max_degree if args.max_degree is None else \
        _integer(args.max_degree, "--max-degree", 0)


def _plain_betti_numbers(problem, n_max):
    """The plain Betti numbers of degrees 0..n_max, once the problem
    passes its checks and the size budget."""
    check_problem(problem)
    check_size(n_max + 1, lambda n: problem.algebra.dim ** n)
    return betti_numbers(problem.algebra, n_max)


def _setup(problem, degree):
    """The problem's setup, once its cochain spaces of degrees 0..degree
    fit the size budget."""
    setup = make_setup(problem)
    check_size(degree, setup.ambient_dim)
    return setup


def _classes(problem, degrees):
    """The setup for a product of classes of the given degrees, and {n: the
    cochain of each class of HL^n_G}, one entry per degree."""
    setup = _setup(problem, sum(degrees))
    return setup, {n: [setup.cochain_from_invariant(n, rep)
                       for rep in setup.cohomology(n).representatives]
                   for n in dict.fromkeys(degrees)}


def cmd_cohomology(args):
    problem, n_max = _tower(args)
    report = Report("cohomology")
    if args.equivariant:
        setup = _setup(problem, n_max + 1)
        for H in setup.category.subgroups:
            report.add(f"fixed_dim_{_fmt_subgroup(H)}", setup.fixed[H].dim)
        for n in range(n_max + 1):
            report.add(f"invariant_dim_{n}", setup.invariant_space(n).dim)
        for n in range(n_max + 1):
            report.add(f"betti_{n}", setup.cohomology(n).betti)
    else:
        for n, b in enumerate(_plain_betti_numbers(problem, n_max)):
            report.add(f"betti_{n}", b)
    report.emit(args.json)
    return 0


def cmd_homology(args):
    problem, n_max = _tower(args)
    report = Report("homology")
    for n, b in enumerate(_plain_betti_numbers(problem, n_max)[1:], 1):
        report.add(f"betti_{n}", b)
    report.emit(args.json)
    return 0


def cmd_cup(args):
    problem = load_problem(args)
    p, q = _integer(args.p, "--p", 1), _integer(args.q, "--q", 1)
    setup, classes = _classes(problem, (p, q))
    report = Report("cup")
    for n, cochains in classes.items():
        report.add(f"classes_degree_{n}", len(cochains))
    status = 0
    for i, a in enumerate(classes[p]):
        for j, b in enumerate(classes[q]):
            try:
                cup(a, b, setup, check_invariance=False)
                verdict = "ok"
            except VerdictError as exc:     # cup's own check of the product
                m, residual = exc.verdict.violations[0]
                nonzero = [(al, t) for al, row in enumerate(residual.entries)
                           for t in sorted(row)]
                verdict = (f"FAIL constraint {_fmt_morphism(m)} residual "
                           f"nonzero at {nonzero}")
                status = 2
            report.add(f"cup_{i}_{j}_invariant", verdict)
    report.add("pairs_checked", len(classes[p]) * len(classes[q]))
    report.emit(args.json)
    return status


def cmd_zinbiel_check(args):
    problem = load_problem(args)
    p, q, r = (_integer(x, "--degrees", 1) for x in args.degrees)
    if p + q + r > problem.max_degree + 2:
        print("degree overflow beyond configured max", file=sys.stderr)
        return 2
    setup, classes = _classes(problem, (p, q, r))
    report = Report("zinbiel-check")
    failures = 0
    for i, a in enumerate(classes[p]):
        for j, b in enumerate(classes[q]):
            for k, c in enumerate(classes[r]):
                v = zinbiel_check_on_cohomology(a, b, c, setup)
                if v.ok:
                    report.add(f"triple_{i}_{j}_{k}", "ok")
                    continue
                kind, defect = v.violations[0]
                report.add(f"triple_{i}_{j}_{k}",
                           f"FAIL {kind} nonzero at "
                           f"{_nonzero_entries(setup, p + q + r, defect)}")
                failures += 1
    report.add("triples_checked",
               len(classes[p]) * len(classes[q]) * len(classes[r]))
    report.add("failures", failures)
    report.emit(args.json)
    return 2 if failures else 0


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
