"""Checking formula-defined interpretations on finite carriers.

An interpretation of a target structure inside a carrier B consists of a
definable domain D of tuples over B (one formula per arity), a definable
equivalence ~ on D given by complementary positive and negative formula
families, and per target relation a complementary positive/negative family
on tuples of D-tuples.  ``check_interpretation`` extracts everything by
formula evaluation, verifies the logical obligations (complementarity,
equivalence, congruence), builds the quotient and compares it with the
target up to isomorphism.

Two ready-made constructions are included: the integers interpreted in a
finite window of the natural-number semiring via difference pairs, and the
trivial length-based interpretation of any finite binary structure in an
arbitrary nonempty carrier.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .core import (FALSE, TRUE, And, Eq, Evaluator, Exists, Not, Or,
                   PreconditionError, Rel, Structure, iso_check)
from .marker import (base_point_formula, marker_encode, pentagon_formula,
                     square_formula)


def slot_var(j, i):
    """Variable for coordinate i of the j-th tuple slot (both 1-based)."""
    return f"t{j}_{i}"


@dataclass(frozen=True)
class InterpretationSpec:
    """Formula bundle defining (D, ~, relations) over a carrier.

    ``domain``   arity -> formula over x1..xn;
    ``sim_pos``/``sim_neg``   (n1, n2) -> formula over t1_*, t2_*;
    ``rel_pos``/``rel_neg``   name -> {arity tuple -> formula over t1_*, ...};
    ``target_signature``      name -> arity of the target relation.
    Arity pairs absent from the sim families are taken as unrelated.
    """
    domain: dict
    sim_pos: dict
    sim_neg: dict
    rel_pos: dict
    rel_neg: dict
    target_signature: dict


@dataclass
class InterpReport:
    passed: bool
    failures: list
    class_count: int
    domain_size: int
    iso: dict | None
    notes: list = field(default_factory=list)


def check_interpretation(carrier, spec, target, max_arity, seed=0,
                         congruence_samples=200):
    """Verify an interpretation and compare its quotient with the target.

    Domain extraction, ~-equivalence and ~-complementarity are exhaustive.
    Relation complementarity and congruence are checked on every tuple of
    class representatives plus a seeded sample of substitutions by
    equivalent elements; failures carry a concrete witness.
    """
    if max_arity < 1:
        raise PreconditionError("max_arity must be at least 1")
    rng = random.Random(seed)
    failures = []
    notes = []
    ev = Evaluator(carrier)

    dom = []
    for n in sorted(spec.domain):
        if n > max_arity:
            notes.append(f"arity-{n} domain formula beyond max_arity, skipped")
            continue
        phi = spec.domain[n]
        env_vars = [f"x{i + 1}" for i in range(n)]
        for tup in itertools.product(carrier.universe, repeat=n):
            if ev.eval(phi, dict(zip(env_vars, tup))):
                dom.append(tup)
    if not dom and len(target.universe) > 0:
        return InterpReport(False, [("empty-domain", None)], 0, 0, None, notes)

    names = {}

    def holds(fam, tuples, default):
        """Truth of ``fam``'s formula for the arities of ``tuples`` (slot
        variables bound to their entries), ``default`` if it has none."""
        arities = tuple(map(len, tuples))
        phi = fam.get(arities)
        if phi is None:
            return default
        vs = names.get(arities)
        if vs is None:
            vs = names[arities] = [slot_var(j, i)
                                   for j, n in enumerate(arities, start=1)
                                   for i in range(1, n + 1)]
        return ev.eval(phi, dict(zip(vs, itertools.chain(*tuples))))

    # complementarity and equivalence of ~, exhaustively over D x D
    pos = {}
    for x in dom:
        for y in dom:
            p = holds(spec.sim_pos, (x, y), False)
            if p == holds(spec.sim_neg, (x, y), True):
                failures.append(("sim-not-complementary", (x, y)))
            pos[(x, y)] = p
    for x in dom:
        if not pos[(x, x)]:
            failures.append(("sim-not-reflexive", (x,)))
    for x in dom:
        for y in dom:
            if pos[(x, y)] != pos[(y, x)]:
                failures.append(("sim-not-symmetric", (x, y)))
            if pos[(x, y)]:
                for z in dom:
                    if pos[(y, z)] and not pos[(x, z)]:
                        failures.append(("sim-not-transitive", (x, y, z)))
    if failures:
        return InterpReport(False, failures, 0, len(dom), None, notes)

    classes = []
    cls_of = {}
    for x in dom:
        for idx, members in enumerate(classes):
            if pos[(x, members[0])]:
                members.append(x)
                cls_of[x] = idx
                break
        else:
            cls_of[x] = len(classes)
            classes.append([x])
    reps = [members[0] for members in classes]

    quotient_rels = {}
    for name, k in sorted(spec.target_signature.items()):
        fam_pos = spec.rel_pos.get(name, {})
        fam_neg = spec.rel_neg.get(name, {})
        table = set()
        for combo in itertools.product(range(len(classes)), repeat=k):
            args = tuple(reps[c] for c in combo)
            p = holds(fam_pos, args, False)
            if p == holds(fam_neg, args, True):
                failures.append((f"{name}-not-complementary", args))
            if p:
                table.add(combo)
            # congruence sample: substitute equivalent elements slot-wise
            alts = tuple(classes[c][rng.randrange(len(classes[c]))]
                         for c in combo)
            if alts != args and holds(fam_pos, alts, False) != p:
                failures.append((f"{name}-not-congruent", (args, alts)))
        quotient_rels[name] = table
        for _ in range(congruence_samples if classes else 0):
            combo = tuple(rng.randrange(len(classes)) for _ in range(k))
            a = tuple(classes[c][rng.randrange(len(classes[c]))] for c in combo)
            b = tuple(classes[c][rng.randrange(len(classes[c]))] for c in combo)
            if holds(fam_pos, a, False) != holds(fam_pos, b, False):
                failures.append((f"{name}-not-congruent", (a, b)))

    if failures:
        return InterpReport(False, failures, len(classes), len(dom), None, notes)

    quotient = Structure(range(len(classes)), dict(spec.target_signature),
                         quotient_rels)
    iso = iso_check(quotient, target, max_size=None)
    if iso is None:
        failures.append(("quotient-not-isomorphic",
                         (len(classes), len(target.universe))))
    return InterpReport(not failures, failures, len(classes), len(dom),
                        iso, notes)


# ---------------------------------------------------------------------------
# built-in constructions


def builtin_int_in_nat(n):
    """Interpret the integer window [-n, n] in a finite semiring fragment.

    The carrier is {0..n*n+2n} with the graphs of addition and
    multiplication truncated to it; the domain is the set of pairs (a, b)
    with a+b <= n, read as the integer a-b; (a, b) ~ (c, d) iff a+d = c+b.
    The carrier is padded quadratically so that every intermediate sum and
    product appearing in the defining formulas stays inside it, which makes
    each positive/negative pair exactly complementary with no side
    conditions.
    """
    if n < 1:
        raise PreconditionError("window bound must be at least 1")
    m = n * n + 2 * n
    univ = range(m + 1)
    plus = {(a, b, a + b) for a in univ for b in univ if a + b <= m}
    times = {(a, b, a * b) for a in univ for b in univ if a * b <= m}
    carrier = Structure(univ, {"plus": 3, "times": 3},
                        {"plus": plus, "times": times})

    # (x1 + x2) has a square in the window  <=>  x1 + x2 <= n
    domain = {2: Exists(("_s", "_w"), And((
        Rel("plus", ("x1", "x2", "_s")),
        Rel("times", ("_s", "_s", "_w")))))}

    x1, x2 = slot_var(1, 1), slot_var(1, 2)
    y1, y2 = slot_var(2, 1), slot_var(2, 2)
    cross = And((Rel("plus", (x1, y2, "_p")), Rel("plus", (x2, y1, "_q"))))
    sim_pos = {(2, 2): Exists(("_p", "_q"), And((cross, Eq("_p", "_q"))))}
    sim_neg = {(2, 2): Exists(("_p", "_q"), And((cross, Not(Eq("_p", "_q")))))}

    def op_formula(op, negate):
        a1, a2 = slot_var(1, 1), slot_var(1, 2)
        b1, b2 = slot_var(2, 1), slot_var(2, 2)
        c1, c2 = slot_var(3, 1), slot_var(3, 2)
        if op == "plus":
            mk = [Rel("plus", (a1, b1, "_u")), Rel("plus", (a2, b2, "_v"))]
            uv = ("_u", "_v")
        else:
            mk = [Rel("times", (a1, b1, "_w1")), Rel("times", (a2, b2, "_w2")),
                  Rel("times", (a1, b2, "_w3")), Rel("times", (a2, b1, "_w4")),
                  Rel("plus", ("_w1", "_w2", "_u")),
                  Rel("plus", ("_w3", "_w4", "_v"))]
            uv = ("_w1", "_w2", "_w3", "_w4", "_u", "_v")
        # (u, v) ~ (c1, c2)
        tail = [Rel("plus", ("_u", c2, "_p")), Rel("plus", ("_v", c1, "_q")),
                Not(Eq("_p", "_q")) if negate else Eq("_p", "_q")]
        return Exists(uv + ("_p", "_q"), And(tuple(mk + tail)))

    rel_pos = {"plus": {(2, 2, 2): op_formula("plus", False)},
               "times": {(2, 2, 2): op_formula("times", False)}}
    rel_neg = {"plus": {(2, 2, 2): op_formula("plus", True)},
               "times": {(2, 2, 2): op_formula("times", True)}}

    window = range(-n, n + 1)
    tplus = {(a, b, a + b) for a in window for b in window
             if -n <= a + b <= n}
    ttimes = {(a, b, a * b) for a in window for b in window
              if -n <= a * b <= n}
    target = Structure(window, {"plus": 3, "times": 3},
                       {"plus": tplus, "times": ttimes})
    spec = InterpretationSpec(domain, sim_pos, sim_neg, rel_pos, rel_neg,
                              {"plus": 3, "times": 3})
    return carrier, spec, target


def trivial_interp(a, b):
    """Length-based interpretation of a finite binary structure in any carrier.

    The element i of a (with universe {0..n-1}) is represented by all
    tuples of length i+1 over b; two tuples are equivalent iff they have
    the same length, and a target relation holds of two classes iff it
    holds of the corresponding elements of a.  Returns (spec, report).
    """
    n = len(a.universe)
    if set(a.universe) != set(range(n)):
        raise PreconditionError("target universe must be {0..n-1}")
    if len(b.universe) == 0:
        raise PreconditionError("carrier must be nonempty")
    rel_names = sorted(a.signature)
    domain = {k: TRUE for k in range(1, n + 1)}
    sim_pos = {(j, k): (TRUE if j == k else FALSE)
               for j in range(1, n + 1) for k in range(1, n + 1)}
    sim_neg = {(j, k): (FALSE if j == k else TRUE)
               for j in range(1, n + 1) for k in range(1, n + 1)}
    rel_pos, rel_neg = {}, {}
    for name in rel_names:
        ar = a.signature[name]
        rel_pos[name] = {}
        rel_neg[name] = {}
        for lens in itertools.product(range(1, n + 1), repeat=ar):
            holds = a.rel(name, tuple(ln - 1 for ln in lens))
            rel_pos[name][lens] = TRUE if holds else FALSE
            rel_neg[name][lens] = FALSE if holds else TRUE
    spec = InterpretationSpec(domain, sim_pos, sim_neg, rel_pos, rel_neg,
                              dict(a.signature))
    report = check_interpretation(b, spec, a, max_arity=n)
    return spec, report


def marker_interp(g):
    """Interpretation of a loop-free digraph inside its marker encoding.

    The domain is the base points, equivalence is equality, the edge
    relation is the square detector; its negation is the pentagon detector
    together with the diagonal.
    """
    code = marker_encode(g)
    x, y = slot_var(1, 1), slot_var(2, 1)
    domain = {1: base_point_formula("x1")}
    sim_pos = {(1, 1): Eq(x, y)}
    sim_neg = {(1, 1): Not(Eq(x, y))}
    rel_pos = {"E": {(1, 1): square_formula(x, y)}}
    rel_neg = {"E": {(1, 1): Or((pentagon_formula(x, y), Eq(x, y)))}}
    spec = InterpretationSpec(domain, sim_pos, sim_neg, rel_pos, rel_neg,
                              {"E": 2})
    return code.graph, spec, g
