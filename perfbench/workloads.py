"""The four workloads: inputs, set-up, one round of operations, and checks.

Each workload is made from its seed alone.  ``setup`` is what ``setup_s``
times: the program building what the operations start from.  ``round``
lists the operations of one round; the runner repeats whole rounds.
``check`` compares the recorded outputs with the benchmark's own
computations and returns a list of error messages.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from itertools import product

import checks
import exact
import problems
import reference


class Op:
    """One operation: ``run()`` returns what ``check`` later inspects."""

    def __init__(self, label, run, expect=None, fault=None):
        self.label = label
        self.run = run
        self.expect = expect      # what the checks compare the output with
        self.fault = fault        # the named program fault this op hits


def _module(name):
    """A program module by name; the package re-exports some functions
    under their modules' names, so attribute access would find those."""
    return sys.modules[f"leibcohom.{name}"]


def field_of(L, p):
    return L.QQ if p == 0 else L.GF(p)


def build_setup(L, problem, coefficients):
    """The program's EquivariantSetup for a generated problem."""
    f = field_of(L, problem["p"])
    alg = L.LeibnizAlgebra(f, problem["dim"], problem["structure"])
    group = L.FiniteGroup(problem["table"])
    action = L.GroupAction(group, alg,
                           [L.Matrix.from_rows(f, m) for m in problem["action"]])
    category = L.orbit_category(group)
    if coefficients == "constant":
        cs = L.constant_coefficients(category, f)
    else:
        cs = L.coset_function_coefficients(category, f)
    return L.EquivariantSetup(action, category, cs)


def partitions_at_most(n, m):
    """Number of partitions of an n-set into at most m blocks."""
    # Stirling numbers of the second kind, row by row
    row = [1]
    for k in range(1, n + 1):
        row = [0] + [row[j - 1] + (j * row[j] if j < len(row) else 0)
                     for j in range(1, k + 1)]
    return sum(row[:m + 1])


CLOSED_FORMS = {
    # HL^n of abelian_m with the trivial group and constant coefficients
    "abelian_2|constant": lambda n: 2 ** n,
    "abelian_3|constant": lambda n: 3 ** n,
    # abelian algebra whose basis S_m permutes: partitions into <= m blocks
    "free_leib(2,1)_perm|constant": lambda n: partitions_at_most(n, 2),
    "free_leib(3,1)_perm|constant": lambda n: partitions_at_most(n, 3),
}


def tower_errors(table, key, dims, betti):
    """Disagreements of a computed tower with the reference table and the
    closed forms; empty when the tower is right."""
    ref = table["equivariant"][key]
    n = len(betti)
    errors = []
    if n > len(ref["betti"]):
        errors.append(f"{key}: no reference beyond degree {len(ref['betti']) - 1}")
    if dims != ref["invariant_dims"][:n]:
        errors.append(f"{key}: invariant dims {dims} != {ref['invariant_dims'][:n]}")
    if betti != ref["betti"][:n]:
        errors.append(f"{key}: betti {betti} != {ref['betti'][:n]}")
    form = CLOSED_FORMS.get(key)
    if form and betti != [form(k) for k in range(n)]:
        errors.append(f"{key}: betti {betti} break the closed form")
    return errors


# -- towers ------------------------------------------------------------------

class Tower:
    """HL^0_G .. HL^N_G from a fresh EquivariantSetup, one problem per op."""

    # (problem, coefficients, N): each tower takes about 0.5-1 s here
    SPECS = [("lambda6_z2", "constant", 4), ("abelian_3", "constant", 4),
             ("derived2_f2_z2", "coset-functions", 6),
             ("free_leib(3,1)_perm", "constant", 2),
             ("free_leib(2,1)_perm", "coset-functions", 5)]

    def __init__(self, L, seed, workdir):
        self.L = L
        self.table = reference.load_table()
        self.problems = [(problems.base_problem(name), coeffs, N)
                         for name, coeffs, N in self.SPECS]
        self.order = list(range(len(self.problems)))
        random.Random(seed).shuffle(self.order)

    def setup(self):
        return [(build_setup(self.L, prob, coeffs), coeffs, N)
                for prob, coeffs, N in self.problems]

    def round(self, state):
        ops = []
        for i in self.order:
            setup, coeffs, N = state[i]
            name = self.problems[i][0]["name"]
            key = f"{name}|{coeffs}"

            def run(s=setup, N=N):
                fresh = self.L.EquivariantSetup(s.action, s.category, s.coefficients)
                return [(fresh.invariant_space(n).dim, fresh.cohomology(n).betti)
                        for n in range(N + 1)]
            ops.append(Op(name, run, expect=key))
        return ops

    def check(self, state, records):
        errors = []
        for op, out in records:
            errors += tower_errors(self.table, op.expect,
                                   [d for d, _ in out], [b for _, b in out])
        return errors


# -- zinbiel -------------------------------------------------------------------

class Zinbiel:
    """One op checks the zinbiel relation on one class triple."""

    # (problem, total-degree bound); both coefficient systems each.  The
    # total-degree-4 triples of abelian_3 are 486 of the 576 operations;
    # the bounds of the others keep the median inside that class, near
    # its middle, and the 90th percentile near its top
    SPECS = [("abelian_2", 3), ("abelian_3", 4), ("lambda6", 4),
             ("lambda6_z2", 4), ("derived2_f2_z2", 4)]
    COEFFS = ("constant", "coset-functions")
    SAMPLE = 6

    def __init__(self, L, seed, workdir):
        self.L = L
        self.table = reference.load_table()
        self.seed = seed
        self.specs = [(problems.base_problem(name), coeffs, T)
                      for name, T in self.SPECS for coeffs in self.COEFFS]

    def setup(self):
        state = []
        for prob, coeffs, T in self.specs:
            s = build_setup(self.L, prob, coeffs)
            reps = {n: [s.cochain_from_invariant(n, c)
                        for c in s.cohomology(n).representatives]
                    for n in range(1, T - 1)}
            # the coboundaries up to degree T that the relation is tested in
            s.equivariant_coboundary(T - 1)
            state.append((prob, coeffs, T, s, reps))
        return state

    def triples(self, state):
        out = []
        for idx, (_, _, T, _, reps) in enumerate(state):
            for degs in product(range(1, T - 1), repeat=3):
                if sum(degs) > T:
                    continue
                for ijk in product(*(range(len(reps[d])) for d in degs)):
                    out.append((idx, degs, ijk))
        random.Random(self.seed).shuffle(out)
        return out

    def round(self, state):
        shuffles = _module('shuffles')
        ops = []
        for idx, degs, ijk in self.triples(state):
            prob, coeffs, _, s, reps = state[idx]
            a, b, c = (reps[d][i] for d, i in zip(degs, ijk))

            def run(a=a, b=b, c=c, s=s):
                return shuffles.zinbiel_check_on_cohomology(a, b, c, s).ok
            ops.append(Op(f"{prob['name']}|{coeffs}", run, expect=(idx, degs, ijk)))
        return ops

    def check(self, state, records):
        errors = [f"{op.label} {op.expect[1:]}: relation fails"
                  for op, ok in records if ok is not True]
        for prob, coeffs, T, s, reps in state:
            key = f"{prob['name']}|{coeffs}"
            ref = self.table["equivariant"][key]["betti"]
            counts = [len(reps[n]) for n in sorted(reps)]
            if counts != ref[1:T - 1]:
                errors.append(f"{key}: class counts {counts} != betti {ref[1:T - 1]}")
        rng = random.Random(f"{self.seed}:sample")
        trip = self.triples(state)
        sample = [trip[i] for i in sorted(rng.sample(range(len(trip)),
                                                     min(self.SAMPLE, len(trip))))]
        for idx, degs, ijk in sample:
            prob, coeffs, _, s, reps = state[idx]
            cochains = [reps[d][i] for d, i in zip(degs, ijk)]
            # cups of the program against the word-level formula
            for x, y in ((0, 1), (1, 2)):
                errors += cup_errors(s, cochains[x], cochains[y])
            if not own_zinbiel_holds(s, cochains):
                errors.append(f"{prob['name']}|{coeffs} {degs}: own zinbiel check fails")
        for prob, coeffs, T, s, reps in state:
            if prob["p"] == 0 and coeffs == "constant":
                pairs = [(1, 1), (1, 2), (2, 1)]
                if not leibniz_rule_holds(self.L, s, pairs, rng):
                    errors.append(f"{prob['name']}|{coeffs}: graded Leibniz rule fails")
        return errors


def _components(setup, cochain):
    """Rows of each component, in the setup's subgroup order."""
    return [cochain.components[H].data for H in setup.category.subgroups]


def _dims(setup):
    return [setup.fixed[H].dim for H in setup.category.subgroups]


def _p(setup):
    return getattr(setup.field, "p", 0)


def cup_errors(setup, c, d):
    got = _module('shuffles').cup(c, d, setup)
    p_field = _p(setup)
    want = [checks.cup(p_field, cc, dd, c.degree, d.degree, h)
            for cc, dd, h in zip(_components(setup, c), _components(setup, d),
                                 _dims(setup))]
    have = [[[exact.norm(p_field, x) for x in row] for row in comp]
            for comp in _components(setup, got)]
    if have != want:
        return [f"cup of degrees {c.degree},{d.degree} differs from the "
                f"word-level formula"]
    return []


def _structures(setup):
    return [setup.fixed[H].algebra.structure for H in setup.category.subgroups]


def _delta(setup, comps, n):
    p_field = _p(setup)
    return [checks.coboundary(p_field, comp, n, st, h)
            for comp, st, h in zip(comps, _structures(setup), _dims(setup))]


def own_zinbiel_holds(setup, cochains, flip=False):
    """The benchmark's own test of the relation: defect from word-level
    cups, coboundaries from its own delta on the invariant basis."""
    degrees = tuple(c.degree for c in cochains)
    n = sum(degrees)
    prev = setup.invariant_space(n - 1)
    cochain = _module('equivariant').EquivariantCochain
    coboundaries = []
    for v in prev.basis:
        comps = _components(setup, cochain.from_ambient(setup, n - 1, v))
        coboundaries.append(checks.flatten(_delta(setup, comps, n - 1)))
    comps = [dict(enumerate(_components(setup, c))) for c in cochains]
    return checks.zinbiel_holds(_p(setup), *comps, degrees, _dims(setup),
                                coboundaries, flip=flip)


def leibniz_rule_holds(L, setup, pairs, rng, sign_of=lambda p, q: p):
    """delta(c u d) = delta c u d + (-1)^p c u delta d on seeded invariant
    cochains, with the program's cup and the benchmark's delta."""
    p_field = _p(setup)
    for p, q in pairs:
        cd = []
        for n in (p, q):
            dim = setup.invariant_space(n).dim
            coords = [rng.randint(-2, 2) for _ in range(dim)]
            cd.append(setup.cochain_from_invariant(n, coords))
        c, d = cd
        dc, dd = (_as_cochain(L, setup, x.degree + 1,
                              _delta(setup, _components(setup, x), x.degree))
                  for x in (c, d))
        cup = _module('shuffles').cup
        lhs = _delta(setup, _components(setup, cup(c, d, setup, check_invariance=False)),
                     p + q)
        t1 = _components(setup, cup(dc, d, setup, check_invariance=False))
        t2 = _components(setup, cup(c, dd, setup, check_invariance=False))
        s = -1 if sign_of(p, q) % 2 else 1
        rhs = [checks.combine(p_field, [(1, a), (s, b)]) for a, b in zip(t1, t2)]
        lhs = [[[exact.norm(p_field, x) for x in row] for row in comp] for comp in lhs]
        if lhs != rhs:
            return False
    return True


def _as_cochain(L, setup, n, comps):
    f = setup.field
    out = {}
    for H, rows in zip(setup.category.subgroups, comps):
        out[H] = L.Matrix(f, len(rows), len(rows[0]) if rows else 0,
                          [[f.coerce(x) for x in r] for r in rows])
    return _module('equivariant').EquivariantCochain(n, out)


# -- requests ------------------------------------------------------------------

# problem files: (problem, coefficients) -> number of re-based copies
FILES = {("lambda6", "constant"): 4, ("lambda6_z2", "constant"): 5,
         ("lambda6_z2", "coset-functions"): 0, ("abelian_2", "constant"): 0,
         ("derived2_f2_z2", "coset-functions"): 1,
         ("free_leib(2,1)_perm", "constant"): 1,
         ("free_leib(2,1)_perm", "coset-functions"): 1}

L6, L6Z, L6ZC = ("lambda6", "constant"), ("lambda6_z2", "constant"), \
    ("lambda6_z2", "coset-functions")
AB2, D2, F2, F2C = ("abelian_2", "constant"), ("derived2_f2_z2", "coset-functions"), \
    ("free_leib(2,1)_perm", "constant"), ("free_leib(2,1)_perm", "coset-functions")

# one round; a file is (problem, copy) with copy "base" or a re-based index.
# The classes are sized so that the median latency falls inside the
# zinbiel-check class and the 90th percentile inside the top class
# (plain cohomology of re-based lambda6_z2), not between two classes.
MIX = (
    # cheap requests, a few ms each
    [("validate", (), (L6Z, "base")), ("validate", (), (D2, 0)),
     ("validate", (), (F2C, 0)), ("validate", (), (L6, 0)),
     ("homology", ("--max-degree", "3"), (AB2, "base")),
     ("homology", ("--max-degree", "3"), (D2, 0)),
     ("homology", ("--max-degree", "3"), (F2, 0)),
     ("cohomology", ("--max-degree", "3"), (D2, "base")),
     ("cohomology", ("--max-degree", "3"), (F2C, 0)),
     ("cohomology", ("--max-degree", "3"), (AB2, "base")),
     ("cohomology", ("--equivariant", "--max-degree", "2"), (D2, 0)),
     ("cohomology", ("--equivariant", "--max-degree", "2"), (F2C, 0)),
     ("cohomology", ("--equivariant", "--max-degree", "2"), (AB2, "base")),
     ("cohomology", ("--equivariant", "--max-degree", "2"), (L6Z, "base")),
     ("cup", ("--p", "1", "--q", "1"), (D2, 0)),
     ("cup", ("--p", "1", "--q", "1"), (AB2, "base")),
     ("cup", ("--p", "1", "--q", "1"), (L6Z, 0)),
     ("rho-identity", ("--p", "1", "--q", "1", "--r", "1"), None),
     ("rho-identity", ("--p", "1", "--q", "2", "--r", "1"), None),
     ("rho-identity", ("--p", "2", "--q", "2", "--r", "2"), None)]
    # the median class
    + [("zinbiel-check", ("--degrees", "1", "1", "1"), (L6, k))
       for k in range(4) for _ in range(3)]
    # above the median
    + [("cohomology", ("--equivariant", "--max-degree", "3"), (L6Z, "base"))] * 2
    + [("cohomology", ("--equivariant", "--max-degree", "3"), (L6, "base"))] * 2
    + [("homology", ("--max-degree", "3"), (L6, 0))] * 2
    + [("cohomology", ("--equivariant", "--max-degree", "2"), (L6ZC, "base"))] * 2
    # the top class
    + [("cohomology", ("--max-degree", "3"), (L6Z, k)) for k in range(5) for _ in range(2)]
)

_RATIONAL = {"field": {"type": "rational"}, "algebra": {"dim": 1, "brackets": []}}
# documents that hit the two named faults; they do not depend on the seed.
# (name, argv head, document, README exit code)
FAULTS = [
    # parse_problem crashes instead of exiting 1 with "parse error"
    ("field-string", ("validate",), dict(_RATIONAL, field="rational"), 1),
    ("action-list", ("cohomology", "--equivariant"),
     dict(_RATIONAL, group={"order": 1, "table": [[0]]}, action=[]), 1),
    ("max-degree-string", ("homology",), dict(_RATIONAL, max_degree="x"), 1),
    ("negative-dim", ("cohomology",), dict(_RATIONAL, algebra={"dim": -1}), 1),
    # cmd_cohomology computes on input it never validated instead of exiting 2
    ("not-leibniz", ("cohomology",),
     {"field": {"type": "rational"},
      "algebra": {"dim": 1, "brackets": [{"i": 1, "j": 1, "value": [1]}]}}, 2),
    ("not-a-group", ("cohomology", "--equivariant"),
     dict(_RATIONAL, group={"order": 2, "table": [[1, 0], [0, 1]]},
          action={"matrices": [[[1]], [[1]]]}), 2),
    ("action-breaks-bracket", ("cohomology", "--equivariant"),
     {"field": {"type": "rational"},
      "algebra": {"dim": 3, "brackets": [{"i": 1, "j": 3, "value": [0, 1, 0]},
                                         {"i": 3, "j": 3, "value": [1, 0, 0]}]},
      "group": {"order": 2, "table": [[0, 1], [1, 0]]},
      "action": {"matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                              [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]}}, 2),
]


def parse_report(text, as_json):
    """Report entries as strings, without the timestamp line."""
    if as_json:
        doc = json.loads(text)
        doc.pop("timestamp", None)
        return {k: str(v) for k, v in doc.items()}
    out = {}
    for line in text.splitlines():
        if line.startswith("# generated"):
            continue
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def body(text):
    """The report without its timestamp line."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# generated")
                     and not line.lstrip().startswith('"timestamp":'))


class Requests:
    """A closed loop of one client calling ``leibcohom.cli.main`` in-process."""

    def __init__(self, L, seed, workdir):
        self.L = L
        self.table = reference.load_table()
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        self.files = {}
        for (name, coeffs), copies in FILES.items():
            variants = [("base", problems.base_problem(name))]
            variants += list(enumerate(problems.rebased_copies(name, copies, seed)))
            for tag, prob in variants:
                path = os.path.join(workdir, f"{name}-{coeffs}-{tag}.json")
                with open(path, "w") as fh:
                    json.dump(problems.to_document(prob, coeffs, 4), fh)
                self.files[((name, coeffs), tag)] = path
        self.requests = []
        for command, extra, file in MIX:
            as_json = rng.random() < 0.5
            argv = (["--json"] if as_json else []) + [command]
            if file is not None:
                argv.append(self.files[file])
            argv += list(extra)
            self.requests.append((argv, as_json, command, extra, file, None, 0))
        for name, head, doc, code in FAULTS:
            path = os.path.join(workdir, f"fault-{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = [head[0], path] + list(head[1:])
            self.requests.append((argv, False, head[0], (), None, name, code))
        rng.shuffle(self.requests)

    def setup(self):
        cli = _module('cli')
        built = []
        for path in sorted(set(self.files.values())):
            with open(path) as fh:
                doc = json.load(fh)
            built.append(cli.make_setup(cli.parse_problem(doc)))
        return built

    def round(self, state):
        main = _module('cli').main
        ops = []
        for argv, as_json, command, extra, file, fault, code in self.requests:
            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(list(argv))
                return rc, out.getvalue(), err.getvalue()
            ops.append(Op(" ".join(argv), run,
                          expect=(as_json, command, extra, file, code), fault=fault))
        return ops

    def failed(self, op, out):
        return out[0] != op.expect[-1]

    def expected_entries(self, command, extra, file):
        if command == "rho-identity":
            degs = [int(x) for x in extra[1::2]]
            return {"command": command, "degrees": str(degs), "identity": "ok"}
        (name, coeffs), _ = file
        eq = self.table["equivariant"].get(f"{name}|{coeffs}")
        want = {"command": command}
        if command == "validate":
            for k in ("leibniz_identity", "group_axioms", "action_axioms",
                      "coefficient_system"):
                want[k] = "ok"
        elif command == "homology":
            N = int(extra[-1])
            for n in range(1, N + 1):
                want[f"betti_{n}"] = str(self.table["homology"][name][n - 1])
        elif command == "cohomology" and "--equivariant" in extra:
            N = int(extra[-1])
            for H, d in eq["fixed_dims"].items():
                want[f"fixed_dim_{{{H}}}"] = str(d)
            for n in range(N + 1):
                want[f"invariant_dim_{n}"] = str(eq["invariant_dims"][n])
                want[f"betti_{n}"] = str(eq["betti"][n])
        elif command == "cohomology":
            N = int(extra[-1])
            for n in range(N + 1):
                want[f"betti_{n}"] = str(self.table["cohomology"][name][n])
        elif command == "cup":
            p, q = int(extra[1]), int(extra[3])
            bp, bq = eq["betti"][p], eq["betti"][q]
            want[f"classes_degree_{p}"] = str(bp)
            want[f"classes_degree_{q}"] = str(bq)
            want["pairs_checked"] = str(bp * bq)
            for i in range(bp):
                for j in range(bq):
                    want[f"cup_{i}_{j}_invariant"] = "ok"
        elif command == "zinbiel-check":
            b1 = eq["betti"][1]
            want["triples_checked"] = str(b1 ** 3)
            want["failures"] = "0"
            for t in product(range(b1), repeat=3):
                want["triple_%d_%d_%d" % t] = "ok"
        return want

    def check(self, state, records):
        errors = []
        first = {}
        for op, (rc, out, err) in records:
            as_json, command, extra, file, code = op.expect
            if op.fault is not None:
                if code == 1 and "parse error" not in err:
                    errors.append(f"{op.fault}: exit 1 without a parse error message")
                continue
            if op.label in first:
                if body(out) != first[op.label]:
                    errors.append(f"{op.label}: repeated request printed another body")
                continue
            first[op.label] = body(out)
            got = parse_report(out, as_json)
            want = self.expected_entries(command, extra, file)
            if got != want:
                diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                errors.append(f"{op.label}: report differs at {diff[:4]}")
        if len(records) == len({op.label for op, _ in records}):
            errors.append("no request was repeated")
        return errors


WORKLOADS = {"tower": Tower, "zinbiel": Zinbiel, "requests": Requests}


# -- negative controls -----------------------------------------------------------

def negative_controls(L, table):
    """Deliberately wrong statements that the checks must reject.

    Returns {control name: True if rejected}.
    """
    out = {}
    # an off-by-one Betti number
    s = build_setup(L, problems.base_problem("lambda6_z2"), "constant")
    dims = [s.invariant_space(n).dim for n in range(3)]
    betti = [s.cohomology(n).betti for n in range(3)]
    if tower_errors(table, "lambda6_z2|constant", dims, betti):
        raise RuntimeError("the Betti check rejects a right tower")
    betti[2] += 1
    out["betti_off_by_one"] = bool(tower_errors(table, "lambda6_z2|constant",
                                                dims, betti))
    # the zinbiel relation with (-1)^{qr} flipped
    s = build_setup(L, problems.base_problem("abelian_2"), "constant")
    reps = [s.cochain_from_invariant(1, c) for c in s.cohomology(1).representatives]
    triple = [reps[0], reps[1], reps[1]]
    if not own_zinbiel_holds(s, triple):
        raise RuntimeError("the zinbiel check rejects a true relation")
    out["zinbiel_sign_flipped"] = not own_zinbiel_holds(s, triple, flip=True)
    # the program's own zinbiel check on a coefficient algebra that is not
    # associative, where the relation fails on cochains that are cocycles
    out["program_zinbiel_nonassociative"] = not nonassociative_zinbiel_ok(L)
    # the graded Leibniz rule with (-1)^q in place of (-1)^p
    s = build_setup(L, problems.base_problem("lambda6"), "constant")
    pairs = [(1, 2), (2, 1)]
    if not leibniz_rule_holds(L, s, pairs, random.Random(0)):
        raise RuntimeError("the Leibniz-rule check rejects the true rule")
    out["leibniz_rule_sign_q"] = not leibniz_rule_holds(
        L, s, pairs, random.Random(0), sign_of=lambda p, q: q)
    return out


# basis (1, x, y) with x x = y, x y = x, y x = y y = 0: unital, neither
# commutative nor associative: (x x) x = 0 while x (x x) = x
NONASSOCIATIVE_MU = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
                     [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]


def nonassociative_zinbiel_ok(L):
    """The program's zinbiel verdict on abelian_2 (trivial group, so delta
    is 0 and every cochain is a cocycle) with coefficients in the
    non-associative algebra above, on a(e1) = b(e1) = c(e2) = x.  The
    defect on the word (e1, e1, e2) is (x x) x - x (x x) = -x, so the
    relation fails in cohomology; the benchmark's own word-level test must
    say so before the program's verdict counts."""
    prob = problems.base_problem("abelian_2")
    f = L.QQ
    mu = NONASSOCIATIVE_MU
    rows = {"a": [[0, 0], [1, 0], [0, 0]], "c": [[0, 0], [0, 1], [0, 0]]}
    rows["b"] = rows["a"]
    # the benchmark's own test: the coboundaries of all degree-2 cochains
    unit = exact.identity(0, 3 * 4)
    coboundaries = [checks.flatten([checks.coboundary(0, [v[0:4], v[4:8], v[8:12]],
                                                      2, prob["structure"], 2)])
                    for v in unit]
    if checks.zinbiel_holds(0, *({0: rows[k]} for k in "abc"), (1, 1, 1), [2],
                            coboundaries, mu=mu):
        raise RuntimeError("the non-associative control satisfies the relation")
    alg = L.LeibnizAlgebra(f, prob["dim"], prob["structure"])
    group = L.FiniteGroup(prob["table"])
    action = L.GroupAction(group, alg,
                           [L.Matrix.from_rows(f, m) for m in prob["action"]])
    category = L.orbit_category(group)
    algebras = {H: L.CoefficientAlgebra(f, 3, mu, [1, 0, 0])
                for H in category.subgroups}
    maps = {m: L.Matrix.identity(f, 3) for m in category.morphisms}
    setup = L.EquivariantSetup(action, category,
                               L.CoefficientSystem(category, f, algebras, maps))
    H, = category.subgroups
    a, b, c = (L.EquivariantCochain(1, {H: L.Matrix.from_rows(f, rows[k])})
               for k in "abc")
    return _module("shuffles").zinbiel_check_on_cohomology(a, b, c, setup).ok
