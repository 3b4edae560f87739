"""Structures, formula evaluation, classification, atomic types, isomorphism."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcode.core import (And, BigAnd, BigOr, Digraph, Eq, EvalError,
                             Evaluator, Exists, FinLinOrder, Forall,
                             LoopedDigraph, Not, Or, PreconditionError, Rel,
                             Structure, UGraph, _conjuncts, _holds,
                             _join_plan, _literal, _literals_hold,
                             atom_places, atomic_type_of, classify, conj,
                             disj, distinct_all, eval_formula, fingerprint,
                             iso_check, tuples_of_type, type_count,
                             type_from_index, type_start_index)
from structcode.backforth import _atoms as atoms_over
from structcode.backforth import _atomic_diagram, _place_facts, phi_tuple
from structcode.formats import formula_to_sexpr, parse_formula
from structcode import marker
from structcode.marker import (base_point_formula, marker_decode,
                               marker_encode, pentagon_formula, square_formula)


def path3():
    return Digraph([0, 1, 2], [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# structures


class TestStructure:
    def test_rel_and_matches(self):
        g = path3()
        assert g.rel("E", (0, 1))
        assert not g.rel("E", (1, 0))
        assert set(g.matches("E", (None, None))) == {(0, 1), (1, 2)}
        assert list(g.matches("E", (0, None))) == [(0, 1)]
        assert list(g.matches("E", (None, 2))) == [(1, 2)]
        assert list(g.matches("E", (0, 2))) == []
        assert list(g.matches("E", (0, 1))) == [(0, 1)]

    def test_matches_uses_every_bound_position(self):
        # exact-pattern queries must not return supersets
        s = Structure(range(5), {"R": 3},
                      {"R": [(a, b, (a + b) % 5)
                             for a in range(5) for b in range(5)]})
        assert list(s.matches("R", (2, 3, 0))) == [(2, 3, 0)]
        assert list(s.matches("R", (2, 3, 1))) == []
        assert len(s.matches("R", (2, None, 0))) == 1

    def test_validation(self):
        with pytest.raises(PreconditionError):
            Structure([0, 0], {}, {})
        with pytest.raises(PreconditionError):
            Structure([0, 1], {"E": 2}, {"E": [(0, 1, 2)]})
        with pytest.raises(PreconditionError):
            Structure([0, 1], {"E": 2}, {"E": [(0, 5)]})
        with pytest.raises(PreconditionError):
            Structure([0, 1], {}, {"E": [(0, 1)]})
        with pytest.raises(PreconditionError):
            Structure([0, 1], {}, {"E": []})

    def test_unknown_relation(self):
        with pytest.raises(EvalError):
            path3().rel("F", (0, 1))
        with pytest.raises(EvalError):
            path3().matches("F", (0, None))
        with pytest.raises(EvalError):
            eval_formula(path3(), Exists(("y",), And((Rel("F", ("x", "y")),))),
                         {"x": 0})
        # checked as a compiled literal, alone or in a clause
        for check in (Rel("F", ("y", "x")), Or((Rel("F", ("y", "x")),
                                               Eq("x", "y")))):
            with pytest.raises(EvalError):
                eval_formula(path3(), Exists(("y",), And((
                    Rel("E", ("x", "y")), check))), {"x": 0})

    def test_key_distinguishes_relations(self):
        g = Digraph([0, 1], [(0, 1)])
        assert g.key() == Digraph([0, 1], [(0, 1)]).key()
        assert g.key() != Digraph([0, 1], [(1, 0)]).key()

    def test_ugraph_symmetric(self):
        g = UGraph([0, 1, 2], [(0, 1), (2, 1)])
        assert g.rel("E", (1, 0)) and g.rel("E", (1, 2))
        assert g.undirected_edges() == {frozenset({0, 1}), frozenset({1, 2})}
        assert set(g.neighbors(1)) == {0, 2}

    def test_looped_digraph_allows_loops(self):
        g = LoopedDigraph([0], [(0, 0)])
        assert g.rel("E", (0, 0))
        with pytest.raises(PreconditionError):
            Digraph([0], [(0, 0)])

    def test_finlinorder(self):
        o = FinLinOrder(["b", "a", "c"])
        assert o.elements == ("b", "a", "c")
        assert o.rel("<", ("b", "a")) and o.rel("<", ("a", "c"))
        assert not o.rel("<", ("a", "b")) and not o.rel("<", ("a", "a"))


# ---------------------------------------------------------------------------
# evaluation


class TestEvaluator:
    def test_atoms_and_connectives(self):
        g = path3()
        assert eval_formula(g, Rel("E", ("x", "y")), {"x": 0, "y": 1})
        assert eval_formula(g, Not(Rel("E", ("x", "y"))), {"x": 1, "y": 0})
        assert eval_formula(g, Eq("x", "y"), {"x": 2, "y": 2})
        assert eval_formula(g, And(()), {})
        assert not eval_formula(g, Or(()), {})
        assert eval_formula(g, BigAnd((Eq("x", "x"), Not(Or(())))), {"x": 0})
        assert eval_formula(g, BigOr((Or(()), Eq("x", "x"))), {"x": 0})

    def test_quantifiers(self):
        g = path3()
        has_succ = Exists(("y",), Rel("E", ("x", "y")))
        assert eval_formula(g, has_succ, {"x": 0})
        assert not eval_formula(g, has_succ, {"x": 2})
        assert eval_formula(g, Forall(("x",), Or((
            Exists(("y",), Rel("E", ("x", "y"))),
            Exists(("y",), Rel("E", ("y", "x")))))))

    def test_exists_conjunction_checks_outer_bound_atoms(self):
        # conjuncts whose variables are all bound outside the Exists must
        # still constrain the search
        g = path3()
        phi = Exists(("y",), And((Rel("E", ("x", "y")), Eq("x", "z"))))
        assert eval_formula(g, phi, {"x": 0, "z": 0})
        assert not eval_formula(g, phi, {"x": 0, "z": 1})

    def test_exists_search_matches_bruteforce(self):
        g = Digraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        phi = Exists(("u", "v"), And((Rel("E", ("x", "u")),
                                      Rel("E", ("u", "v")),
                                      Not(Eq("v", "x")))))
        for x in g.universe:
            expect = any(g.rel("E", (x, u)) and g.rel("E", (u, v)) and v != x
                         for u in g.universe for v in g.universe)
            assert eval_formula(g, phi, {"x": x}) == expect

    def test_unbound_variable_raises(self):
        with pytest.raises(EvalError):
            eval_formula(path3(), Rel("E", ("x", "y")), {"x": 0})

    def test_distinct_all(self):
        g = path3()
        phi = conj(distinct_all(("x", "y")))
        assert eval_formula(g, phi, {"x": 0, "y": 1})
        assert not eval_formula(g, phi, {"x": 0, "y": 0})

    def test_unknown_node_raises(self):
        with pytest.raises(EvalError):
            eval_formula(path3(), And((Eq("x", "x"), "not a node")), {"x": 0})

    # every literal is compiled before anything is checked, so no other
    # conjunct or disjunct decides these formulas before the bad literal
    @pytest.mark.parametrize("phi, message", [
        (And((Not(Eq("x", "x")), Rel("E", ("x", "z")))), "unbound variable 'z'"),
        (Or((Eq("x", "x"), Rel("E", ("x", "z")))), "unbound variable 'z'"),
        (Exists(("y",), And((Not(Eq("x", "x")), Rel("E", ("y", "z"))))),
         "unbound variable 'z'"),
        (And((Not(Eq("x", "x")), "not a node")),
         "not a formula node type: str"),
        (Or((Eq("x", "x"), "not a node")), "not a formula node type: str"),
        ("not a node", "not a formula node type: str"),
        # in a nested quantifier that the search never reaches
        (And((Not(Eq("x", "x")), Exists(("y",), Rel("E", ("y", "z"))))),
         "unbound variable 'z'"),
        (And((Not(Eq("x", "x")), Exists(("y",), Or((Eq("x", "x"),
                                                    Rel("E", ("y", "z"))))))),
         "unbound variable 'z'")])
    def test_unevaluable_raises_whatever_the_data(self, phi, message):
        with pytest.raises(EvalError, match=message):
            eval_formula(path3(), phi, {"x": 0})

    def test_empty_quantifiers(self):
        # a quantifier over no variables is its body, not its own conjunct
        g = path3()
        for phi in (Rel("E", ("x", "y")), And((Rel("E", ("x", "y")),
                                               Not(Eq("x", "y"))))):
            for x, y in itertools.product(g.universe, repeat=2):
                env = {"x": x, "y": y}
                want = g.rel("E", (x, y))
                assert eval_formula(g, Exists((), phi), env) is want
                assert eval_formula(g, Forall((), phi), env) is want
                assert eval_formula(g, Not(Forall((), Exists((), phi))),
                                    env) is not want

    def test_reused_evaluator_over_rebuilt_formulas(self):
        # caches keyed by node identity must not serve a node built later
        # at the address of a discarded one
        rng = random.Random(11)
        pairs = list(itertools.permutations(range(4), 2))
        h = Digraph(range(4), rng.sample(pairs, 5))
        reused = Evaluator(h)
        for _ in range(300):
            g = Digraph(range(4), rng.sample(pairs, rng.randrange(len(pairs))))
            phi = phi_tuple(g, (rng.randrange(4),), 1)
            env = {"x1": rng.randrange(4)}
            assert reused.eval(phi, env) == Evaluator(h).eval(phi, env)
            del phi

    def test_recycled_node_address_gets_no_stale_entry(self):
        # allocate nodes until one lands where a discarded, evaluated node
        # was; it happens at once when the evaluator does not hold the node
        ev = Evaluator(path3())
        phi = Exists(("y",), Rel("E", ("x", "y")))
        assert ev.eval(phi, {"x": 0})
        old, body = id(phi), Rel("E", ("y", "x"))
        del phi
        keep = []
        for _ in range(100):
            keep.append(Exists(("y",), body))
            if id(keep[-1]) == old:
                break
        assert not ev.eval(keep[-1], {"x": 0})


# ---------------------------------------------------------------------------
# differential check against a naive evaluator


def reference_eval(s, phi, env):
    """Textbook semantics; quantifiers range over every tuple of values."""
    t = type(phi)
    if t is Rel:
        return s.rel(phi.name, tuple(env[a] for a in phi.args))
    if t is Eq:
        return env[phi.left] == env[phi.right]
    if t is Not:
        return not reference_eval(s, phi.body, env)
    if t in (And, BigAnd):
        return all(reference_eval(s, p, env) for p in phi.parts)
    if t in (Or, BigOr):
        return any(reference_eval(s, p, env) for p in phi.parts)
    truths = (reference_eval(s, phi.body, {**env, **dict(zip(phi.vars, vals))})
              for vals in itertools.product(s.universe, repeat=len(phi.vars)))
    return any(truths) if t is Exists else all(truths)


VARS = ("x", "y", "z")
_var = st.sampled_from(VARS)
_qvars = st.lists(_var, max_size=3).map(tuple)
_atoms = st.one_of(st.builds(Rel, st.just("E"), st.tuples(_var, _var)),
                   st.builds(Eq, _var, _var))


def _junctions(inner):
    parts = st.lists(inner, max_size=4).map(tuple)
    return [st.builds(kind, parts) for kind in (And, Or, BigAnd, BigOr)]


# quantifier-free junctions, which the evaluator checks at the plan step
# that binds their last variable
_qf = st.recursive(
    _atoms, lambda inner: st.one_of(st.builds(Not, inner), *_junctions(inner)),
    max_leaves=4)
# and nested quantifiers over them
_formulas = st.recursive(
    st.one_of(_atoms, _qf, st.builds(Exists, _qvars, _qf),
              st.builds(Forall, _qvars, _qf)),
    lambda inner: st.one_of(st.builds(Not, inner), *_junctions(inner),
                            st.builds(Exists, _qvars, inner),
                            st.builds(Forall, _qvars, inner)),
    max_leaves=12)
# universal quantifiers over each kind of body the evaluator negates
_foralls = st.builds(Forall, _qvars, st.one_of(
    _atoms, st.builds(Not, _formulas), *_junctions(_formulas)))


def _digraph(n):
    pairs = list(itertools.product(range(n), repeat=2))
    return st.builds(LoopedDigraph, st.just(range(n)),
                     st.lists(st.sampled_from(pairs), unique=True)
                     if pairs else st.just([]))


_digraphs = st.integers(0, 3).flatmap(_digraph)


@settings(max_examples=300, deadline=None)
@given(_digraphs, st.data())
def test_evaluator_matches_reference(s, data):
    phi = data.draw(st.one_of(_formulas, _foralls))
    ev = Evaluator(s)
    # closed forms too, so the empty universe is checked
    cases = [(Exists(VARS, phi), {}), (Forall(VARS, phi), {})]
    cases += [(phi, dict(zip(VARS, vals)))
              for vals in itertools.product(s.universe, repeat=3)]
    for f, env in cases:
        assert ev.eval(f, env) == reference_eval(s, f, env)


def _free(phi):
    t = type(phi)
    if t is Rel:
        return set(phi.args)
    if t is Eq:
        return {phi.left, phi.right}
    if t is Not:
        return _free(phi.body)
    if t in (Exists, Forall):
        return _free(phi.body) - set(phi.vars)
    return set().union(*map(_free, phi.parts))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_formulas, _foralls), st.lists(_digraphs, min_size=2,
                                                max_size=2))
def test_reused_plans_match_reference(phi, structures):
    # one formula, so that the plans compiled on its quantifiers at the
    # first evaluation are reused: on a second structure, and under a
    # second set of bound outer variables ("w" occurs in no formula)
    closed = [(Exists(VARS, phi), {}), (Forall(VARS, phi), {})]
    outers = [VARS, tuple(sorted(_free(phi))) + ("w",)]
    for s in structures:
        cases = closed + [(phi, dict(zip(names, vals))) for names in outers
                          for vals in itertools.product(s.universe,
                                                        repeat=len(names))]
        for f, env in cases:
            assert Evaluator(s).eval(f, env) == reference_eval(s, f, env)


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_str_parses_back(phi):
    assert parse_formula(str(phi)) == phi
    assert formula_to_sexpr(phi) == str(phi)


# ---------------------------------------------------------------------------
# formula nodes and the plans kept on them

NODE_TYPES = (Rel, Eq, Not, And, Or, BigAnd, BigOr, Exists, Forall)


def _every_node_type():
    return Forall(("x",), Or((Not(Eq("x", "y")), BigAnd((
        Exists(("z",), And((Rel("E", ("x", "z")),))),
        BigOr((Eq("x", "x"),)))))))


def _nodes(phi):
    yield phi
    for child in getattr(phi, "parts", ()) + \
            ((phi.body,) if hasattr(phi, "body") else ()):
        yield from _nodes(child)


class TestFormulaNodes:
    def test_plans_do_not_change_node_semantics(self):
        phi = _every_node_type()
        assert eval_formula(path3(), phi, {"y": 2}) is False
        assert phi.plans and phi.body.parts[1].parts[0].plans
        fresh = _every_node_type()
        assert not fresh.plans
        assert phi == fresh and hash(phi) == hash(fresh)
        assert str(phi) == str(fresh) and repr(phi) == repr(fresh)
        assert "plans" not in repr(phi)

    def test_nodes_are_slotted(self):
        nodes = list(_nodes(_every_node_type()))
        assert {type(n) for n in nodes} == set(NODE_TYPES)
        for n in nodes:
            assert not hasattr(n, "__dict__")

    def test_one_plan_per_set_of_bound_variables(self):
        # the plan for a bound x reads x's index; with x unbound the same
        # node must still raise EvalError, not reuse that plan
        phi = Exists(("y",), Rel("E", ("x", "y")))
        for env in ({"x": 0}, {}, {"x": 2}, {"z": 0}):
            if "x" in env:
                assert eval_formula(path3(), phi, env) is (env["x"] == 0)
            else:
                with pytest.raises(EvalError):
                    eval_formula(path3(), phi, env)
        assert set(phi.plans) == {frozenset({"x"})}

    def test_top_level_plans_are_kept(self):
        marker_decode(marker_encode(path3()).graph)
        assert set(marker._SQUARE.plans) == {frozenset({"x", "y"})}
        phi = BigAnd((Rel("E", ("x", "y")), Not(Eq("x", "y"))))
        assert eval_formula(path3(), phi, {"x": 0, "y": 1}) is True
        (plan,) = phi.plans.values()
        assert eval_formula(path3(), phi, {"x": 1, "y": 0}) is False
        (again,) = phi.plans.values()
        assert again is plan

    def test_evaluator_holds_only_its_structure(self):
        s = path3()
        ev = Evaluator(s)
        assert ev.eval(_every_node_type(), {"y": 2}) is False
        assert vars(ev) == {"s": s}


class TestJoinPlan:
    def test_clauses_run_at_the_step_that_decides_them(self):
        def clause(*vs):
            return Or((Not(Rel("E", ("x", "x"))), Rel("E", vs)))
        body = And((clause("x", "x"), clause("y", "x"), clause("z", "y"),
                    Eq("y", "y")))
        pre_holds, pre, (y_step, z_step), leftovers = _join_plan(
            ("y", "z"), _conjuncts(body, True, []), {"x"})
        assert pre_holds is _holds and len(pre[1]) == 1
        for var, step in (("y", y_step), ("z", z_step)):
            assert step[0] == var and step[2] is _holds
            assert len(step[3][1]) == 1
        assert leftovers == ((), (), ())
        # a step with no clause checks its literals alone
        _, _, (step,), _ = _join_plan(("y",), [(Eq("y", "y"), True)], {"x"})
        assert step[2] is _literals_hold and len(step[3]) == 1

    @pytest.mark.parametrize("gamma", [1, 2])
    def test_negated_move_diagrams_skip_implied_distinctness(self, gamma):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        leaf = next(p for p in phi_tuple(g, (0, 1), gamma).parts
                    if type(p) is Forall and p.vars == ("x3",))
        _, _, (step,), leftovers = _join_plan(
            leaf.vars, _conjuncts(leaf.body, False, []), {"x1", "x2"})
        # the plan checks x3 != x1 and x3 != x2 before the move's diagram,
        # which keeps only x1 != x2 of its distinctness prefix
        distinct = {_literal(Eq("x3", "x1"), False),
                    _literal(Eq("x3", "x2"), False)}
        move = _atomic_diagram(g, (0, 1, 2))
        kept = tuple(_literal(a, True) if type(a) is not Not else
                     _literal(a.body, False) for a in move.parts
                     if a not in (Not(Eq("x1", "x3")), Not(Eq("x2", "x3"))))
        assert _literal(Eq("x1", "x2"), False) in kept
        if gamma == 1:
            # a quantifier-free conjunct: checked at the step of x3
            assert step[2] is _holds and leftovers == ((), (), ())
            literals, negated, rest = step[3]
            assert set(literals) == distinct and rest == ()
            assert negated == ((_literals_hold, kept),)
        else:
            # the move's level-1 formula has quantifiers: a leftover, whose
            # diagram is compiled and checked before them
            assert step[2] is _literals_hold and set(step[3]) == distinct
            (sub,) = [p for p in leaf.body.parts if type(p) is BigAnd]
            assert sub.parts[0] == move
            assert leftovers == ((), ((_holds, (kept, (), tuple(
                (p, True) for p in sub.parts[1:]))),), ())


# ---------------------------------------------------------------------------
# growing a structure in place, against building it in one go


class TestAdd:
    def test_updates_built_indexes(self):
        s = Structure([0], {"E": 2}, {})
        assert s.index("E", (0,)) == {}
        s.add([1, 0], [("E", (0, 1)), ("E", [0, 1])])
        s.add(facts=[("E", (0, 1))])
        assert s.universe == (0, 1)
        assert s.index("E", (0,)) == {(0,): [(0, 1)]}
        assert s.matches("E", (None, 1)) == [(0, 1)]

    @pytest.mark.parametrize("elements, facts", [
        ((2,), [("E", (0, 1)), ("F", (0, 1))]),   # unknown relation
        ((2,), [("E", (0, 1, 1))]),               # wrong arity
        ((2,), [("E", (0, 2)), ("E", (0, 3))])])  # element outside
    def test_preconditions(self, elements, facts):
        s = Structure([0, 1], {"E": 2}, {})
        s.matches("E", (0, None))
        with pytest.raises(PreconditionError):
            s.add(elements, facts)
        # a rejected call adds nothing
        assert s.universe == (0, 1)
        assert s.relations == {"E": set()}
        assert s.matches("E", (0, None)) == []


def _all_patterns(s):
    """Every ``matches`` pattern of every relation of ``s``."""
    values = (None,) + s.universe
    return [(name, p) for name, arity in sorted(s.signature.items())
            for p in itertools.product(values, repeat=arity)]


def _grown_equals_batch(data, signature, facts, formulas, envs):
    """Grow a structure fact by fact, querying it midway so that indexes and
    plans exist before later facts arrive, then compare it with the same
    structure built in one go."""
    grown = Structure((), signature, {})
    ev = Evaluator(grown)
    for name, t in facts:
        grown.add(t, [(name, t)])
        if data.draw(st.booleans()):
            grown.matches(*data.draw(st.sampled_from(_all_patterns(grown))))
        if data.draw(st.booleans()):
            env = dict(zip(VARS, data.draw(st.lists(
                st.sampled_from(grown.universe), min_size=3, max_size=3))))
            ev.eval(data.draw(st.sampled_from(formulas)), env)
    batch = Structure(sorted({x for _, t in facts for x in t}), signature,
                      {name: [t for n, t in facts if n == name]
                       for name in signature})
    assert sorted(grown.universe) == list(batch.universe)
    assert grown.relations == batch.relations
    for name, pattern in _all_patterns(batch):
        assert sorted(grown.matches(name, pattern)) == \
            sorted(batch.matches(name, pattern))
    fresh = Evaluator(batch)
    for phi in formulas:
        for env in envs(batch.universe):
            assert ev.eval(phi, env) == fresh.eval(phi, env)


MARKER_FORMULAS = (base_point_formula(), square_formula(), pentagon_formula())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data())
def test_add_matches_batch_build(n, data):
    signature = {"E": 2, "P": 1, "T": 3}
    every = [(name, t) for name, arity in signature.items()
             for t in itertools.product(range(n), repeat=arity)]
    # repeats included: adding a fact again must change nothing
    facts = data.draw(st.lists(st.sampled_from(every), min_size=1,
                               max_size=12))
    formulas = MARKER_FORMULAS + tuple(
        data.draw(st.lists(_formulas, min_size=1, max_size=3)))
    _grown_equals_batch(
        data, signature, facts, formulas,
        lambda u: [dict(zip(VARS, vs)) for vs in itertools.product(u, repeat=3)])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_add_grows_marker_code(data):
    edges = data.draw(st.sets(st.sampled_from([(0, 1), (1, 0)])))
    code = marker_encode(Digraph([0, 1], edges)).graph
    facts = data.draw(st.permutations(
        [("E", t) for t in sorted(code.relations["E"])]))
    _grown_equals_batch(
        data, {"E": 2}, facts, MARKER_FORMULAS,
        lambda u: [{"x": x, "y": y} for x in u for y in u])


# ---------------------------------------------------------------------------
# classification


class TestClassify:
    def test_quantifier_free(self):
        assert classify(Rel("E", ("x", "y"))) == ("qf", 0)
        assert classify(Not(Eq("x", "y"))) == ("qf", 0)

    def test_one_level(self):
        e = Exists(("y",), Rel("E", ("x", "y")))
        a = Forall(("y",), Rel("E", ("x", "y")))
        assert classify(e) == ("sigma", 1)
        assert classify(a) == ("pi", 1)
        assert classify(And((e, a))) == ("pi", 2)

    def test_family_junctions_step_up(self):
        qf = Rel("E", ("x", "y"))
        assert classify(BigAnd((qf,))) == ("pi", 1)
        assert classify(BigOr((qf,))) == ("sigma", 1)
        sig1 = Exists(("y",), qf)
        assert classify(BigAnd((sig1,))) == ("pi", 2)
        assert classify(BigOr((sig1,))) == ("sigma", 1)

    def test_negation_swaps(self):
        e = Exists(("y",), Rel("E", ("x", "y")))
        assert classify(Not(e)) == ("pi", 1)

    def test_conj_disj_helpers(self):
        a, b = Eq("x", "y"), Eq("y", "z")
        assert conj([a]) is a
        assert isinstance(conj([a, b]), And)
        assert disj([a]) is a
        assert isinstance(disj([a, b]), Or)


# ---------------------------------------------------------------------------
# atomic facts of tuples


def mixed():
    """A structure with a binary, a unary and a nullary relation."""
    return Structure("abc", {"E": 2, "P": 1, "Z": 0},
                     {"E": {("a", "c"), ("b", "b"), ("c", "a")},
                      "P": {("c",)}, "Z": {()}})


F, T = False, True


class TestAtomicFacts:
    """Every atomic-facts enumeration follows ``atom_places``: relations in
    name order, the atoms of each in ``itertools.product`` order."""

    SIG = (("E", 2), ("P", 1), ("Z", 0))

    def test_fingerprint_pinned(self):
        s = mixed()
        assert fingerprint(s, ("a", "b", "c")) == (
            (0, 1, 2), (("E", (F, F, T, F, T, F, T, F, F)),
                        ("P", (F, F, T)), ("Z", (T,))))
        assert fingerprint(s, ("c", "a", "c")) == (
            (0, 1, 0), (("E", (F, T, F, T, F, T, F, T, F)),
                        ("P", (T, F, T)), ("Z", (T,))))
        # the empty tuple keeps an entry for every relation
        assert fingerprint(s, ()) == \
            ((), (("E", ()), ("P", ()), ("Z", (T,))))

    def test_atom_places(self):
        assert atom_places(self.SIG, 2) == (
            ("E", ((0, 0), (0, 1), (1, 0), (1, 1))),
            ("P", ((0,), (1,))), ("Z", ((),)))

    def test_atomic_type_facts_are_fingerprint_bits(self):
        g = LoopedDigraph([0, 1, 2], [(0, 0), (0, 2), (2, 1), (1, 0)])
        for n in range(4):
            for t in itertools.permutations(g.universe, n):
                _, ((_, bits),) = fingerprint(g, t)
                facts = atomic_type_of(g, t).facts
                assert facts == bits
                assert facts == tuple(g.rel("E", (a, b)) for a in t for b in t)

    def test_diagram_follows_fingerprint(self):
        s = mixed()
        xs = ["x1", "x2", "x3"]
        for t in itertools.product(s.universe, repeat=3):
            eq, rels = fingerprint(s, t)
            lits = _atomic_diagram(s, t).parts
            atoms = [lit.body if type(lit) is Not else lit for lit in lits]
            assert atoms == list(atoms_over(s.signature, xs))
            assert atoms[3:] == [Rel(name, tuple(xs[p] for p in pos))
                                 for name, places in atom_places(self.SIG, 3)
                                 for pos in places]
            truth = [eq[i] == eq[j]
                     for i, j in itertools.combinations(range(3), 2)]
            truth += [bit for _, bits in rels for bit in bits]
            assert [type(lit) is not Not for lit in lits] == truth

    def test_place_facts_split_atom_places_by_last_place(self):
        places = tuple(range(3))
        for i in places:
            got = [(name, get(places)) for name, get in _place_facts(self.SIG, i)]
            assert got == [(name, pos)
                           for name, ps in atom_places(self.SIG, 3)
                           for pos in ps if pos and max(pos) == i]


# ---------------------------------------------------------------------------
# atomic types of distinct tuples


class TestAtomicTypes:
    def test_counts(self):
        assert type_count(0) == 1
        assert type_count(1) == 2
        assert type_count(2) == 16
        assert type_start_index(1) == 2
        assert type_start_index(2) == 4
        assert type_start_index(3) == 20

    def test_round_trip_indices(self):
        for m in range(1, 40):
            t = type_from_index(m)
            assert 1 <= m
            # each type re-derives its own index by position in its length row
            n = t.length
            offset = m - type_start_index(n)
            assert 0 <= offset < type_count(n)

    def test_needs_one_binary_relation(self):
        for s in (FinLinOrder([0, 1]), mixed()):
            with pytest.raises(PreconditionError):
                atomic_type_of(s, ())

    def test_type_of_tuple(self):
        g = LoopedDigraph([0, 1], [(0, 0), (0, 1)])
        t = atomic_type_of(g, (0, 1))
        assert t.length == 2
        back = tuples_of_type(g, t)
        assert (0, 1) in back and (1, 0) not in back

    def test_tuples_of_type_partition(self):
        g = LoopedDigraph([0, 1, 2], [(0, 1), (1, 2), (2, 2)])
        seen = {}
        for tup in itertools.permutations(g.universe, 2):
            seen.setdefault(atomic_type_of(g, tup), set()).add(tup)
        for atype, tups in seen.items():
            assert set(tuples_of_type(g, atype)) == tups


# ---------------------------------------------------------------------------
# isomorphism


class TestIso:
    def test_isomorphic_cycles(self):
        g = Digraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        h = Digraph("abcd", [("b", "c"), ("c", "d"), ("d", "a"), ("a", "b")])
        f = iso_check(g, h)
        assert f is not None
        for (u, v) in g.matches("E", (None, None)):
            assert h.rel("E", (f[u], f[v]))

    def test_non_isomorphic(self):
        g = Digraph(range(3), [(0, 1), (1, 2)])
        h = Digraph(range(3), [(0, 1), (2, 1)])
        assert iso_check(g, h) is None
        assert iso_check(g, Digraph(range(4), [(0, 1), (1, 2)])) is None

    def test_order_iso_respects_listing(self):
        a = FinLinOrder([2, 0, 1])
        b = FinLinOrder(["x", "y", "z"])
        f = iso_check(a, b)
        assert f == {2: "x", 0: "y", 1: "z"}


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.data())
def test_iso_invariant_under_relabeling(n, data):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = Digraph(range(n), edges)
    perm = data.draw(st.permutations(range(n)))
    h = Digraph(range(n), [(perm[u], perm[v]) for u, v in edges])
    assert iso_check(g, h) is not None
