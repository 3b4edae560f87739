"""Interpretation checking: built-in constructions and fault detection."""

import itertools
import random

import pytest

from structcode.core import (FALSE, TRUE, Digraph, Eq, Evaluator,
                             FinLinOrder, Not, Or, PreconditionError, Rel,
                             Structure, iso_check)
from structcode.interp import (InterpReport, InterpretationSpec,
                               builtin_int_in_nat, check_interpretation,
                               marker_interp, slot_var, trivial_interp)


class TestSlotVar:
    def test_naming(self):
        assert slot_var(1, 1) == "t1_1"
        assert slot_var(2, 3) == "t2_3"


class TestIntInNat:
    def test_passes_small(self):
        carrier, spec, target = builtin_int_in_nat(4)
        rep = check_interpretation(carrier, spec, target, max_arity=3, seed=0)
        assert rep.passed
        assert rep.class_count == 9          # classes for -4 .. 4
        assert rep.iso is not None

    def test_class_count_grows_linearly(self):
        carrier, spec, target = builtin_int_in_nat(6)
        rep = check_interpretation(carrier, spec, target, max_arity=3, seed=0)
        assert rep.passed and rep.class_count == 13

    def test_fault_injection_detected(self):
        carrier, spec, target = builtin_int_in_nat(4)
        # drop one pair of the equivalence: complementarity must break
        broken = InterpretationSpec(
            domain=spec.domain,
            sim_pos={k: Or((v, v)) for k, v in spec.sim_pos.items()},
            sim_neg={k: Or(()) for k in spec.sim_neg},   # never negative
            rel_pos=spec.rel_pos, rel_neg=spec.rel_neg,
            target_signature=spec.target_signature)
        rep = check_interpretation(carrier, broken, target, max_arity=3)
        assert not rep.passed
        assert any(kind == "sim-not-complementary" for kind, _ in rep.failures)

    def test_wrong_target_detected(self):
        carrier, spec, _ = builtin_int_in_nat(4)
        wrong = FinLinOrder(range(9))        # same size, different signature
        wrong = Structure(range(8), {"plus": 3, "times": 3}, {})
        rep = check_interpretation(carrier, spec, wrong, max_arity=3)
        assert not rep.passed
        assert any(kind == "quotient-not-isomorphic"
                   for kind, _ in rep.failures)


class TestTrivial:
    def test_round_trip(self):
        a = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        b = FinLinOrder("pq")
        spec, rep = trivial_interp(a, b)
        assert rep.passed
        assert rep.class_count == len(a.universe)
        assert sorted(spec.target_signature) == ["E"]

    def test_empty_carrier_rejected(self):
        a = Digraph([0], [])
        with pytest.raises(PreconditionError):
            trivial_interp(a, Structure([], {}, {}))


class TestMarkerInterp:
    def test_round_trip(self):
        for g in (Digraph([0, 1], [(0, 1)]),
                  Digraph([0, 1, 2], [(0, 1), (2, 1), (1, 0)])):
            carrier, spec, target = marker_interp(g)
            rep = check_interpretation(carrier, spec, target, max_arity=2)
            assert rep.passed
            assert rep.class_count == len(g.universe)

    def test_detects_tampered_carrier(self):
        g = Digraph([0, 1], [(0, 1)])
        carrier, spec, target = marker_interp(g)
        # removing one polygon edge orphans a base pair
        edges = sorted(map(tuple, carrier.undirected_edges()))
        from structcode.core import UGraph
        for i in range(len(edges)):
            smaller = UGraph(carrier.vertices, edges[:i] + edges[i + 1:])
            rep = check_interpretation(smaller, spec, target, max_arity=2)
            if not rep.passed:
                return
        pytest.fail("no single-edge deletion was detected")


class TestPrecondition:
    def test_bad_max_arity(self):
        carrier, spec, target = builtin_int_in_nat(2)
        with pytest.raises(PreconditionError):
            check_interpretation(carrier, spec, target, max_arity=0)

    @pytest.mark.parametrize("call, message", [
        (lambda: builtin_int_in_nat(0), "window bound must be at least 1"),
        (lambda: trivial_interp(Digraph([1, 2], []), FinLinOrder([0])),
         "target universe must be {0..n-1}")])
    def test_rejections(self, call, message):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# check_interpretation against a naive reference: D x D tables, a D^3
# transitivity loop and a first-match class scan


def _reference_check(carrier, spec, target, max_arity, seed=0,
                     congruence_samples=200):
    rng = random.Random(seed)
    failures, notes = [], []
    ev = Evaluator(carrier)
    dom = []
    for n in sorted(spec.domain):
        if n > max_arity:
            notes.append(f"arity-{n} domain formula beyond max_arity, skipped")
            continue
        xs = [f"x{i + 1}" for i in range(n)]
        for tup in itertools.product(carrier.universe, repeat=n):
            if ev.eval(spec.domain[n], dict(zip(xs, tup))):
                dom.append(tup)
    if not dom and len(target.universe) > 0:
        return InterpReport(False, [("empty-domain", None)], 0, 0, None, notes)

    def holds(fam, tuples, default):
        phi = fam.get(tuple(map(len, tuples)))
        if phi is None:
            return default
        return ev.eval(phi, {slot_var(j, i): v
                             for j, t in enumerate(tuples, start=1)
                             for i, v in enumerate(t, start=1)})

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
    for x in dom:
        for members in classes:
            if pos[(x, members[0])]:
                members.append(x)
                break
        else:
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
        return InterpReport(False, failures, len(classes), len(dom), None,
                            notes)
    quotient = Structure(range(len(classes)), dict(spec.target_signature),
                         quotient_rels)
    iso = iso_check(quotient, target)
    if iso is None:
        failures.append(("quotient-not-isomorphic",
                         (len(classes), len(target.universe))))
    return InterpReport(not failures, failures, len(classes), len(dom), iso,
                        notes)


def _random_case(rng):
    """A carrier on 1-6 elements with relations S (an equivalence, now and
    then spoilt), N (about its complement) and R (a relation on its classes,
    now and then spoilt), a spec reading ~ off S and N and E off R, and a
    target that is the quotient or a random digraph."""
    k = rng.randint(1, 6)
    univ = range(k)
    labels = [rng.randrange(k) for _ in univ]
    sim = {(x, y) for x in univ for y in univ if labels[x] == labels[y]}
    non = {(x, y) for x in univ for y in univ} - sim
    lifted = {(a, b) for a in univ for b in univ if rng.random() < 0.4}
    edges = {(x, y) for x in univ for y in univ
             if (labels[x], labels[y]) in lifted}
    for rel in rng.sample((sim, non, edges), rng.randint(0, 2)):
        rel ^= {(rng.randrange(k), rng.randrange(k))}
    carrier = Structure(univ, {"S": 2, "N": 2, "R": 2},
                        {"S": sim, "N": non, "R": edges})
    x, y = slot_var(1, 1), slot_var(2, 1)
    domain = {1: rng.choice([TRUE, TRUE, Rel("S", ("x1", "x1")),
                             Not(Rel("R", ("x1", "x1"))), FALSE])}
    if rng.random() < 0.2:
        domain[2] = Eq("x1", "x2")
    spec = InterpretationSpec(
        domain, {(1, 1): Rel("S", (x, y))},
        {(1, 1): rng.choice([Not(Rel("S", (x, y))), Rel("N", (x, y))])},
        {"E": {(1, 1): Rel("R", (x, y))}},
        {"E": {(1, 1): rng.choice([Not(Rel("R", (x, y))),
                                   Or((Not(Rel("R", (x, y))), Eq(x, y)))])}},
        {"E": 2})
    if rng.random() < 0.5:
        reps = sorted(set(labels))
        target = Structure(range(len(reps)), {"E": 2}, {"E": {
            (i, j) for i, a in enumerate(reps) for j, b in enumerate(reps)
            if (a, b) in lifted}})
    else:
        m = rng.randint(1, 4)
        target = Structure(range(m), {"E": 2}, {"E": {
            (i, j) for i in range(m) for j in range(m) if rng.random() < 0.4}})
    return carrier, spec, target, rng.choice([1, 2])


def test_check_interpretation_matches_reference():
    rng = random.Random(20)
    cases = [_random_case(rng) for _ in range(300)]
    cases += [builtin_int_in_nat(n) + (2,) for n in (3, 4, 5)]
    kinds, passed = set(), 0
    for seed, (carrier, spec, target, max_arity) in enumerate(cases):
        want = _reference_check(carrier, spec, target, max_arity, seed)
        got = check_interpretation(carrier, spec, target, max_arity, seed)
        assert got == want, seed
        kinds.update(kind for kind, _ in want.failures)
        passed += want.passed
    # every failure kind occurs, and the int windows are among the passes
    assert kinds == {"empty-domain", "sim-not-complementary",
                     "sim-not-reflexive", "sim-not-symmetric",
                     "sim-not-transitive", "E-not-complementary",
                     "E-not-congruent", "quotient-not-isomorphic"}
    assert passed > 3 and want.passed
