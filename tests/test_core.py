"""Structures, formula evaluation, classification, atomic types, isomorphism."""

import contextlib
import itertools
import random
import signal
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcode.core import (And, BigAnd, BigOr, Digraph, Eq, EvalError,
                             Evaluator, Exists, FinLinOrder, Forall,
                             LoopedDigraph, Not, Or, PreconditionError, Rel,
                             Structure, UGraph, _literal, _plan,
                             _refine_colors,
                             atom_places, atomic_type_of, classify, conj,
                             disj, distinct_all, eval_formula, fingerprint,
                             iso_check, tuples_of_type, type_count,
                             type_from_index, type_start_index)
from structcode.backforth import _atoms as atoms_over
from structcode.backforth import _atomic_diagram, bf_equiv, phi_tuple
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

    def test_too_deep_to_evaluate_raises_eval_error(self):
        phi = Rel("E", ("x", "x"))
        for _ in range(5000):
            phi = Not(phi)
        with pytest.raises(EvalError, match="nested too deeply to evaluate"
                           ".*recursion"):
            eval_formula(path3(), phi, {"x": 0})

    def test_distinct_all(self):
        g = path3()
        phi = conj(distinct_all(("x", "y")))
        assert eval_formula(g, phi, {"x": 0, "y": 1})
        assert not eval_formula(g, phi, {"x": 0, "y": 0})

    def test_unknown_node_raises(self):
        with pytest.raises(EvalError):
            eval_formula(path3(), And((Eq("x", "x"), "not a node")), {"x": 0})

    # a plan lists its free variables and relations, and they are checked
    # before the search starts, so no other conjunct or disjunct decides
    # these formulas before the bad literal
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
         "unbound variable 'z'"),
        (Or((Eq("x", "x"), Rel("F", ("x",)))), "unknown relation 'F'"),
        (And((Not(Eq("x", "x")), Exists(("y",), Rel("F", ("y",))))),
         "unknown relation 'F'"),
        (And((Not(Eq("x", "x")), Exists(("y",), Or((Eq("x", "x"),
                                                    Rel("F", ("y",))))))),
         "unknown relation 'F'")])
    def test_unevaluable_raises_whatever_the_data(self, phi, message):
        # and where x ranges over an empty universe, so nothing is searched
        for s, f, env in ((path3(), phi, {"x": 0}),
                          (Digraph([], []), Exists(("x",), phi), {})):
            with pytest.raises(EvalError, match=message):
                eval_formula(s, f, env)

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
# the memo of one eval call


def _nested_plans(plan):
    """Every plan that ``plan`` holds, at any depth, once each."""
    seen, stack = {}, [plan]
    while stack:
        plan = stack.pop()
        if id(plan) in seen:
            continue
        seen[id(plan)] = plan
        _, _, _, _, _, pre, steps = plan
        tests = [pre] if pre is not None else []
        tests += [step[3] for step in steps if step[3] is not None]
        while tests:
            _, negated, rest = tests.pop()
            tests += [more for _, more in negated if more is not None]
            stack += [p for p, _ in rest]
    return list(seen.values())


def _memoised(phi):
    return [p for p in _nested_plans(_plan(phi)) if p[4].count > 1]


class TestMemo:
    @pytest.mark.parametrize("n, graphs", [(4, 6), (5, 3)])
    def test_shared_move_formulas_match_bf_equiv(self, n, graphs):
        # the move formulas of each level sit under its Exists and its
        # Forall, so the quantifiers in them are memoised
        rng = random.Random(n)
        pairs = list(itertools.permutations(range(n), 2))
        verdicts = set()
        for _ in range(graphs):
            g = Digraph(range(n), rng.sample(pairs, rng.randrange(n, 2 * n)))
            x = rng.randrange(n)
            phi = phi_tuple(g, (x,), 2)
            assert _memoised(phi)
            perm = rng.sample(range(n), n)
            copy = Digraph(range(n), [(perm[u], perm[v]) for u, v in g.edges])
            other = Digraph(range(n), rng.sample(pairs, len(g.edges)))
            for h, y in ((copy, perm[x]), (copy, rng.randrange(n)),
                         (other, rng.randrange(n))):
                want = bf_equiv(g, (x,), h, (y,), 2)
                assert Evaluator(h).eval(phi, {"x1": y}) == want
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_no_verdict_outlives_its_eval_call(self):
        # a directed 3-cycle and an isolated vertex; a is a 2-path that one
        # more edge closes into such a cycle, which makes a verdict flip
        g = Digraph(range(4), [(0, 2), (2, 3), (3, 0)])
        phi = phi_tuple(g, (3,), 2)
        assert _memoised(phi)
        a = Digraph(range(4), [(0, 3), (3, 2)])
        b = Digraph(range(4), [(1, 3), (3, 0), (0, 1)])
        ev_a, ev_b = Evaluator(a), Evaluator(b)
        answers = []
        for ev, s, facts in ((ev_a, a, ()), (ev_b, b, ()),
                             (ev_a, a, [("E", (2, 0))])):
            s.add(facts=facts)
            fresh = Evaluator(Digraph(s.universe, s.relations["E"]))
            for x in s.universe:
                got = ev.eval(phi, {"x1": x})
                assert got == fresh.eval(phi, {"x1": x})
                assert got == bf_equiv(g, (3,), s, (x,), 2)
                answers.append(got)
        assert answers == [False] * 4 + [True, True, False, True] + \
            [True, False, True, True]

    def test_eval_raising_part_way_leaves_no_state(self):
        # a chain of quantifiers, each held twice by the one above it (once
        # through a double negation), so every level is memoised; compiled
        # from the inside out, so that only the search passes the recursion
        # limit
        depth = 600
        chain = [Exists((f"y{depth}",), Rel("E", (f"y{depth - 1}",
                                                  f"y{depth}")))]
        for k in range(depth - 1, 0, -1):
            y, inner = f"y{k}", chain[-1]
            chain.append(Exists((y,), And((
                Rel("E", ("x" if k == 1 else f"y{k - 1}", y)), inner,
                Not(Not(inner))))))
            _plan(chain[-1])
        top, short = chain[-1], chain[2]
        assert short.vars == (f"y{depth - 2}",) and _memoised(top)
        cycle = Digraph(range(3), [(0, 1), (1, 2), (2, 0)])
        ev = Evaluator(cycle)
        with pytest.raises(EvalError, match="nested too deeply to evaluate"):
            ev.eval(top, {"x": 0})
        assert ev.eval(short, {f"y{depth - 3}": 0}) is True
        path = Digraph(range(3), [(0, 1), (1, 2)])
        assert Evaluator(path).eval(top, {"x": 0}) is False
        assert Evaluator(path).eval(short, {f"y{depth - 3}": 0}) is False
        assert Evaluator(cycle).eval(short, {f"y{depth - 3}": 1}) is True


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
        assert phi.plan and phi.body.parts[1].parts[0].plan
        fresh = _every_node_type()
        assert getattr(fresh, "plan", None) is None
        assert phi == fresh and hash(phi) == hash(fresh)
        assert str(phi) == str(fresh) and repr(phi) == repr(fresh)
        assert "plan" not in repr(phi)

    def test_nodes_are_slotted(self):
        nodes = list(_nodes(_every_node_type()))
        assert {type(n) for n in nodes} == set(NODE_TYPES)
        for n in nodes:
            assert not hasattr(n, "__dict__")

    def test_one_plan_per_node(self):
        # the plan reads x's index, so it lists x as free; with x unbound
        # the same plan must raise EvalError, not run
        phi = Exists(("y",), Rel("E", ("x", "y")))
        plans = []
        for env in ({"x": 0}, {}, {"x": 2}, {"z": 0}):
            if "x" in env:
                assert eval_formula(path3(), phi, env) is (env["x"] == 0)
            else:
                with pytest.raises(EvalError, match="unbound variable 'x'"):
                    eval_formula(path3(), phi, env)
            plans.append(phi.plan)
        assert all(p is plans[0] for p in plans)
        assert plans[0][2:4] == (("x",), ("E",))

    def test_top_level_plans_are_kept(self):
        marker_decode(marker_encode(path3()).graph)
        assert marker._SQUARE.plan[2:4] == (("x", "y"), ("E",))
        phi = BigAnd((Rel("E", ("x", "y")), Not(Eq("x", "y"))))
        assert eval_formula(path3(), phi, {"x": 0, "y": 1}) is True
        plan = phi.plan
        assert eval_formula(path3(), phi, {"x": 1, "y": 0}) is False
        assert phi.plan is plan

    def test_equal_nodes_share_compiled_literals_and_steps(self):
        def build():
            return Exists(("y",), And((Rel("E", ("x", "w")),
                                       Rel("E", ("x", "y")),
                                       Or((Rel("E", ("y", "w")),
                                           Eq("y", "w"))))))
        a, b = build(), build()
        assert a == b and a is not b
        *_, pre_a, steps_a = _plan(a)
        *_, pre_b, steps_b = _plan(b)
        assert a.plan is not b.plan
        (literal_a,), (literal_b,) = pre_a[0], pre_b[0]
        assert literal_a is literal_b
        (step_a,), (step_b,) = steps_a, steps_b
        assert step_a is step_b

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
        _, _, free, _, _, pre, (y_step, z_step) = \
            _plan(Exists(("y", "z"), body))
        assert free == ("x",)
        assert pre[0] == () and len(pre[1]) == 1 and pre[2] == ()
        for var, step in (("y", y_step), ("z", z_step)):
            assert step[0] == var
            literals, negated, rest = step[3]
            assert literals == () and len(negated) == 1 and rest == ()
        # each clause is literals only, all checked in line: nothing more
        for _, more in pre[1] + y_step[3][1] + z_step[3][1]:
            assert more is None
        # a step with no clause checks its literals alone
        *_, (step,) = _plan(Exists(("y",), Eq("y", "y")))
        assert len(step[2]) == 1 and step[3] is None

    @pytest.mark.parametrize("phi, checked", [
        (Exists(("y",), And((Eq("y", "x"), Rel("E", ("y", "y"))))),
         [[Eq("y", "x"), Rel("E", ("y", "y"))]]),
        (Exists(("y", "z"), And((Eq("z", "x"), Eq("y", "z"),
                                 Rel("E", ("y", "z"))))),
         [[], [Eq("z", "x"), Eq("y", "z")]])])
    def test_equalities_on_new_variables_are_literals(self, phi, checked):
        # no step draws from an equality: y scans the universe, z draws
        # from the E index, and each step checks its equalities in line
        *_, steps = _plan(phi)
        assert steps[0][1] is None
        assert [set(step[2]) for step in steps] == \
            [{_literal(a, True) for a in atoms} for atoms in checked]
        rng = random.Random(5)
        for n in range(4):
            pairs = list(itertools.product(range(n), repeat=2))
            for _ in range(10):
                s = LoopedDigraph(range(n), rng.sample(
                    pairs, rng.randrange(len(pairs) + 1)))
                for x in s.universe:
                    assert eval_formula(s, phi, {"x": x}) == \
                        reference_eval(s, phi, {"x": x})

    def test_quantifiers_run_at_the_step_that_decides_them(self):
        g = Digraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        inner = Exists(("w",), Rel("E", ("y", "w")))
        phi = Exists(("y", "z"), And((Rel("E", ("x", "z")), inner,
                                      Not(Eq("y", "z")))))
        *_, (y_step, z_step) = _plan(phi)
        assert y_step[3] == ((), (), ((inner.plan, True),))
        assert len(z_step[2]) == 1 and z_step[3] is None
        for x in g.universe:
            expect = any(g.rel("E", (x, z)) and y != z and
                         any(g.rel("E", (y, w)) for w in g.universe)
                         for y in g.universe for z in g.universe)
            assert eval_formula(g, phi, {"x": x}) == expect

    def test_step_value_lists_never_repeat(self):
        # a step's candidates bind every position but the slot, and a
        # relation is a set, so no value list they read repeats a value
        rng = random.Random(3)
        triples = list(itertools.product(range(4), repeat=3))
        s = Structure(range(4), {"T": 3}, {"T": rng.sample(triples, 40)})
        for args in (("y", "x", "z"), ("x", "y", "z"), ("x", "z", "y"),
                     ("x", "y", "x")):
            phi = Exists(("y",), Rel("T", args))
            *_, (step,) = _plan(phi)
            name, positions, slot, _ = step[1]
            assert slot == args.index("y")
            assert positions == tuple(j for j in range(3) if j != slot)
            lists = s.index(name, positions, slot).values()
            assert all(len(v) == len(set(v)) for v in lists)
            for x, z in itertools.product(s.universe, repeat=2):
                env = {"x": x, "z": z}
                assert eval_formula(s, phi, env) == \
                    reference_eval(s, phi, env)
        # a direct call over fewer positions lists a value once per tuple
        assert any(len(v) > len(set(v))
                   for v in s.index("T", (0,), 2).values())

    @pytest.mark.parametrize("gamma", [1, 2])
    def test_negated_move_diagrams_skip_implied_distinctness(self, gamma):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        leaf = next(p for p in phi_tuple(g, (0, 1), gamma).parts
                    if type(p) is Forall and p.vars == ("x3",))
        _, _, free, _, _, _, (step,) = _plan(leaf)
        assert free == ("x1", "x2")
        # the plan checks x3 != x1 and x3 != x2 before the move's diagram,
        # which keeps only x1 != x2 of its distinctness prefix
        distinct = {_literal(Eq("x3", "x1"), False),
                    _literal(Eq("x3", "x2"), False)}
        move = _atomic_diagram(g, (0, 1, 2))
        kept = tuple(_literal(a, True) if type(a) is not Not else
                     _literal(a.body, False) for a in move.parts
                     if a not in (Not(Eq("x1", "x3")), Not(Eq("x2", "x3"))))
        assert _literal(Eq("x1", "x2"), False) in kept
        assert set(step[2]) == distinct
        if gamma == 1:
            # a quantifier-free conjunct: checked at the step of x3, its
            # literals in line with nothing more
            assert step[3] == ((), ((kept, None),), ())
        else:
            # the move's level-1 formula has quantifiers, and is checked at
            # the step of x3 too: its diagram is compiled and checked before
            # the plans of its quantifiers, which are the plans kept on
            # their nodes
            (sub,) = [p for p in leaf.body.parts if type(p) is BigAnd]
            assert sub.parts[0] == move
            assert step[3][0] == () and step[3][2] == ()
            (literals, (none, negated, rest)), = step[3][1]
            assert literals == kept and none == () and negated == ()
            assert rest and len(rest) == len(sub.parts) - 1
            for (plan, want), p in zip(rest, sub.parts[1:]):
                assert want is True
                assert plan is p.plan


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
        # and the value lists a plan step draws its candidates from: the
        # values at one slot, grouped by the values at the bound positions
        keys = [("E", (0,), 1), ("E", (1,), 0), ("T", (0, 2), 1),
                ("T", (), 2), ("T", (1,), 0)]
        s = Structure([0], {"E": 2, "T": 3}, {"E": [(0, 0)]})
        assert s.index("E", (0,), 1) == {(0,): [0]}
        for key in keys:
            s.index(*key)
        s.add([1, "a", 0], [("E", (0, 1)), ("E", ["a", 0]), ("E", (0, 1)),
                            ("T", (0, "a", 1)), ("T", (0, 1, 1))])
        s.add(["b"], [("T", ("b", "a", 1)), ("E", ("b", "b"))])
        assert s.index("E", (0,), 1)[0,] == [0, 1]
        batch = Structure(s.universe, s.signature, s.relations)
        assert s.relations == batch.relations
        for key in keys:
            grown, built = s.index(*key), batch.index(*key)
            assert {k: Counter(v) for k, v in grown.items()} == \
                {k: Counter(v) for k, v in built.items()}
        # a slot's value repeats once per tuple that has it
        assert sorted(s.index("T", (), 2)[()]) == [1, 1, 1]
        assert s.index("T", (0, 2), 1)[0, 1] in (["a", 1], [1, "a"])

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

    def test_non_node_raises(self):
        with pytest.raises(EvalError) as err:
            classify(And((Eq("x", "y"), "x")))
        assert str(err.value) == "not a formula node: 'x'"

    def test_conj_disj_helpers(self):
        a, b = Eq("x", "y"), Eq("y", "z")
        assert conj([a]) is a
        assert isinstance(conj([a, b]), And)
        assert disj([a]) is a
        assert isinstance(disj([a, b]), Or)


def _reference_ranks(phi, cache):
    """An earlier ``_ranks``, with its special cases for quantifier-free
    parts, kept as the reference for ``classify``."""
    got = cache.get(id(phi))
    if got is not None:
        return got
    if isinstance(phi, (Rel, Eq)):
        out = (0, 0)
    elif isinstance(phi, Not):
        s, p = _reference_ranks(phi.body, cache)
        out = (p, s)
    elif isinstance(phi, (And, Or)):
        rs = [_reference_ranks(p, cache) for p in phi.parts]
        out = (max((r[0] for r in rs), default=0),
               max((r[1] for r in rs), default=0))
    elif isinstance(phi, (BigAnd, BigOr)):
        rs = [_reference_ranks(p, cache) for p in phi.parts]
        nonqf = [r for r in rs if r != (0, 0)]
        if not nonqf:
            out = (2, 1) if isinstance(phi, BigAnd) else (1, 2)
        elif isinstance(phi, BigAnd):
            p = max(r[1] for r in nonqf)
            out = (p + 1, p)
        else:
            s = max(r[0] for r in nonqf)
            out = (s, s + 1)
    elif isinstance(phi, Exists):
        sc, pc = _reference_ranks(phi.body, cache)
        if (sc, pc) == (0, 0):
            out = (1, 2)
        else:
            s = max(1, min(pc + 1, sc if sc >= 1 else pc + 1))
            out = (s, s + 1)
    else:
        sc, pc = _reference_ranks(phi.body, cache)
        if (sc, pc) == (0, 0):
            out = (2, 1)
        else:
            p = max(1, min(sc + 1, pc if pc >= 1 else sc + 1))
            out = (p + 1, p)
    cache[id(phi)] = out
    return out


def _reference_classify(phi):
    s, p = _reference_ranks(phi, {})
    if (s, p) == (0, 0):
        return ("qf", 0)
    return ("sigma", s) if s < p else ("pi", p)


def _random_formula(rng, depth, built):
    """A formula over every node type, empty junctions included; now and
    then a node built earlier is shared, as generated formulas share."""
    if built and rng.random() < 0.1:
        return rng.choice(built)
    if depth == 0 or rng.random() < 0.15:
        phi = rng.choice([Rel("E", ("x", "y")), Eq("x", "y")])
    else:
        kind = rng.choice([Not, And, Or, BigAnd, BigOr, Exists, Forall])
        if kind is Not:
            phi = Not(_random_formula(rng, depth - 1, built))
        elif kind in (Exists, Forall):
            phi = kind(("y",), _random_formula(rng, depth - 1, built))
        else:
            phi = kind(tuple(_random_formula(rng, depth - 1, built)
                             for _ in range(rng.randint(0, 3))))
    built.append(phi)
    return phi


def test_classify_matches_reference():
    rng = random.Random(15)
    seen = set()
    for _ in range(4000):
        phi = _random_formula(rng, rng.randint(0, 7), [])
        got = classify(phi)
        assert got == _reference_classify(phi), phi
        seen.add(got)
    assert {("qf", 0), ("sigma", 1), ("pi", 1), ("sigma", 5),
            ("pi", 5)} <= seen


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

    @pytest.mark.parametrize("call, message", [
        (lambda g: atomic_type_of(g, (0, 0)), "tuple (0, 0) has repeated entries"),
        (lambda g: atomic_type_of(g, (0, 7)), "7 is not a vertex"),
        (lambda g: type_from_index(0), "type indices start at 1")])
    def test_preconditions(self, call, message):
        with pytest.raises(PreconditionError) as err:
            call(LoopedDigraph([0, 1], [(0, 1)]))
        assert str(err.value) == message

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

    def test_fixed_pairs_match_brute_force(self):
        """The mapping is an isomorphism that extends the fixed pairs, and
        None comes back exactly when no permutation is one."""
        rng = random.Random(22)
        found = missed = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            ids, other = _random_ids(rng, n), _random_ids(rng, n)
            edges = [(u, v) for u in ids for v in ids
                     if u != v and rng.random() < 0.4]
            f = dict(zip(ids, other))
            image = [(f[u], f[v]) for u, v in edges]
            if image and rng.random() < 0.3:
                u, v = image.pop()
                image.append((v, u))
            a, b = Digraph(ids, edges), Digraph(other, image)
            fixed = tuple((rng.choice(ids), rng.choice(other))
                          for _ in range(rng.randrange(3)))
            isos = [dict(zip(ids, p)) for p in itertools.permutations(other)
                    if {(p[ids.index(u)], p[ids.index(v)])
                        for u, v in edges} == b.edges]
            want = [m for m in isos if all(m[x] == y for x, y in fixed)]
            got = iso_check(a, b, fixed)
            if got is None:
                missed += 1
                assert not want, (ids, edges, other, image, fixed)
            else:
                found += 1
                assert got in want
        assert found > 100 and missed > 100

    def test_conflicting_fixed_pairs(self):
        g = Digraph(range(3), [])
        assert iso_check(g, g, ((0, 1), (0, 2))) is None
        assert iso_check(g, g, ((0, 1), (2, 1))) is None
        assert iso_check(g, g, ((0, 1), (0, 1)))[0] == 1

    def test_fixed_entry_outside_its_structure(self):
        g, h = Digraph(range(3), []), Digraph(range(4), [])
        for fixed in (((5, 0),), ((0, 5),), ((0, 0), (0, 3))):
            with pytest.raises(PreconditionError, match="outside"):
                iso_check(g, g, fixed)
        # checked before the sizes are compared
        with pytest.raises(PreconditionError, match="outside"):
            iso_check(g, h, ((3, 0),))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.data())
def test_iso_invariant_under_relabeling(n, data):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = Digraph(range(n), edges)
    perm = data.draw(st.permutations(range(n)))
    h = Digraph(range(n), [(perm[u], perm[v]) for u, v in edges])
    assert iso_check(g, h) is not None


def _reference_refine(s):
    """An earlier ``_refine_colors``, kept as the reference: element ->
    colour id."""
    colors = {}
    for e in s.universe:
        profile = []
        for name in sorted(s.signature):
            for pos in range(s.signature[name]):
                profile.append(sum(1 for t in s.relations[name]
                                   if t[pos] == e))
        colors[e] = tuple(profile)
    incident = {e: [] for e in s.universe}
    for name in sorted(s.signature):
        for t in sorted(s.relations[name], key=repr):
            for pos, e in enumerate(t):
                incident[e].append((name, pos, t))
    while True:
        new = {}
        for e in s.universe:
            sig = sorted((name, pos, tuple(colors[x] for x in t))
                         for name, pos, t in incident[e])
            new[e] = (colors[e], tuple(sig))
        ids = {}
        flat = {}
        for e in sorted(s.universe, key=lambda x: (repr(new[x]), repr(x))):
            flat[e] = ids.setdefault(new[e], len(ids))
        if len(set(flat.values())) == len(set(colors.values())):
            return flat
        colors = flat


def _reference_iso(a, b):
    """An earlier ``iso_check``, kept as the reference: the mapping it
    returns, or None."""
    if sorted(a.signature.items()) != sorted(b.signature.items()):
        return None
    if len(a.universe) != len(b.universe):
        return None
    for name in a.signature:
        if len(a.relations[name]) != len(b.relations[name]):
            return None
    ca = _reference_refine(a)
    cb = _reference_refine(b)
    by_color_a = {}
    for e, c in ca.items():
        by_color_a.setdefault(c, []).append(e)
    by_color_b = {}
    for e, c in cb.items():
        by_color_b.setdefault(c, []).append(e)
    if sorted((c, len(v)) for c, v in by_color_a.items()) != \
       sorted((c, len(v)) for c, v in by_color_b.items()):
        return None
    incident_a = {e: [] for e in a.universe}
    for name in a.signature:
        for t in a.relations[name]:
            for e in set(t):
                incident_a[e].append((name, t))
    order = sorted(a.universe, key=lambda e: (len(by_color_a[ca[e]]),
                                              repr(ca[e]), repr(e)))
    mapping = {}
    used = set()

    def consistent(e, img):
        for name, t in incident_a[e]:
            if all(x in mapping or x == e for x in t):
                timg = tuple(mapping.get(x, img) if x != e else img for x in t)
                if timg not in b.relations[name]:
                    return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        e = order[i]
        for img in sorted(by_color_b[ca[e]], key=repr):
            if img in used:
                continue
            if consistent(e, img):
                mapping[e] = img
                used.add(img)
                if backtrack(i + 1):
                    return True
                del mapping[e]
                used.discard(img)
        return False

    if not backtrack(0):
        return None
    for name in a.signature:
        fwd = {tuple(mapping[x] for x in t) for t in a.relations[name]}
        if fwd != b.relations[name]:
            return None
    return dict(mapping)


_ISO_SIGNATURES = [{"E": 2}, {"E": 2, "P": 1}, {"R": 3},
                   {"E": 2, "R": 3, "Z": 0}]


def _random_ids(rng, n):
    kind = rng.choice(["int", "str", "mixed"])
    ids = [i if kind == "int" or kind == "mixed" and i % 2 else f"v{i}"
           for i in range(n)]
    rng.shuffle(ids)
    return ids


def _random_pair(rng):
    """Two structures on one signature: an isomorphic copy with other
    identifiers in another order, that copy with one tuple moved (same
    relation sizes), or an independent structure."""
    signature = rng.choice(_ISO_SIGNATURES)
    n = rng.randint(0, 7)
    ids = _random_ids(rng, n)
    rels = {}
    for name, k in signature.items():
        if name == "E" and n and rng.random() < 0.3:
            # a permutation's graph: refinement leaves one colour class
            perm = ids[:]
            rng.shuffle(perm)
            rels[name] = set(zip(ids, perm))
        else:
            density = rng.choice([0.1, 0.3, 0.5]) / k if k else 0.5
            rels[name] = {t for t in itertools.product(ids, repeat=k)
                          if rng.random() < density}
    a = Structure(ids, signature, rels)
    kind = rng.random()
    if kind < 0.2:
        other = _random_ids(rng, n)
        return a, Structure(other, signature, {
            name: {t for t in itertools.product(other, repeat=k)
                   if rng.random() < 0.3} for name, k in signature.items()})
    other = _random_ids(rng, n)
    f = dict(zip(ids, other))
    rels = {name: {tuple(f[x] for x in t) for t in ts}
            for name, ts in rels.items()}
    name = rng.choice(sorted(signature))
    if kind < 0.5 and rels[name] and signature[name]:
        rels[name].discard(rng.choice(sorted(rels[name], key=repr)))
        rels[name].add(tuple(rng.choice(other)
                             for _ in range(signature[name])))
    rng.shuffle(other)
    return a, Structure(other, signature, rels)


@contextlib.contextmanager
def _deadline(seconds=30):
    """Raise TimeoutError in the body once ``seconds`` have passed, so a
    search that regresses to a hang fails the suite instead of stalling it."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _relabelled(s, rng):
    """A copy of ``s`` on a shuffle of its identifiers, listed shuffled."""
    ids = list(s.universe)
    image = dict(zip(ids, rng.sample(ids, len(ids))))
    return Structure(rng.sample(ids, len(ids)), s.signature,
                     {name: {tuple(image[x] for x in t) for t in ts}
                      for name, ts in s.relations.items()})


def _cycles(*lengths):
    """Disjoint directed cycles of the given lengths on 0, 1, 2, ..."""
    starts = list(itertools.accumulate(lengths, initial=0))
    return Digraph(range(starts[-1]), [(s + i, s + (i + 1) % n)
                                       for s, n in zip(starts, lengths)
                                       for i in range(n)])


def _symmetric_pairs():
    """Pairs with many automorphisms, on which the search backtracks: the
    codes of the empty 2- and 3-vertex digraphs and a union of cycles, each
    against a relabelled copy."""
    rng = random.Random(16)
    codes = [marker_encode(Digraph(range(n), [])).graph for n in (2, 3)]
    return [(s, _relabelled(s, rng)) for s in codes + [_cycles(5, 6, 7)]]


def _hard_pairs():
    """Inputs on which an earlier search hung or overflowed the stack."""
    code = marker_encode(Digraph(range(4), [])).graph
    empty = Structure(range(1100), {"P": 1}, {})
    cycles = _relabelled(_cycles(4, 5, 6, 7), random.Random(1))
    return [(code, _relabelled(code, random.Random(0))),
            (empty, _relabelled(empty, random.Random(0))),
            (cycles, _cycles(7, 6, 5, 4))]


@pytest.mark.parametrize("a, b", _hard_pairs(), ids=[
    "empty-4-vertex-code", "factless-1100", "cycles-4567"])
def test_iso_returns_on_symmetric_inputs(a, b):
    with _deadline():
        f = iso_check(a, b)
    assert f is not None
    for name, ts in a.relations.items():
        assert {tuple(f[x] for x in t) for t in ts} == b.relations[name]


def test_iso_matches_reference():
    rng = random.Random(15)
    found = missed = 0
    pairs = itertools.chain((_random_pair(rng) for _ in range(1500)),
                            _symmetric_pairs())
    for a, b in pairs:
        assert _refine_colors(a)[0] == _reference_refine(a)
        got = iso_check(a, b)
        assert got == _reference_iso(a, b), (a.key(), b.key())
        if got is None:
            missed += 1
        else:
            found += 1
    assert found > 500 and missed > 300
