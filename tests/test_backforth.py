"""Bounded equivalence games, defining formulas, interval reduction, certificates."""

import functools
import itertools
import random

import pytest

from structcode.backforth import (_move_formula, bf_equiv,
                                  distinguishing_move, fingerprint,
                                  interval_equiv, phi_pair, phi_tuple)
from structcode.core import (Digraph, Evaluator, FinLinOrder, LoopedDigraph,
                             PreconditionError, _plan, _values_of,
                             atom_places, classify, eval_formula)
from structcode.denseq import Dyadic
from structcode.fslin import (Certificate, fs_element, fs_enumerate,
                              lg_certify, lg_concat_certify, shape,
                              shift_tuple)

D = Dyadic


def all_digraphs(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        yield Digraph(range(n), [p for p, b in zip(pairs, bits) if b])


class TestGame:
    def test_gamma_zero_is_atomic_type(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        assert bf_equiv(g, (0,), g, (0,), 0)
        # at depth 0 only the atomic facts about the tuples matter
        assert bf_equiv(g, (0,), g, (2,), 0)
        assert not bf_equiv(g, (0, 1), g, (1, 0), 0)

    def test_depth_separates(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        # 0 has an out-edge, 2 has none: one move suffices
        assert not bf_equiv(g, (0,), g, (2,), 1)

    def test_symmetry(self):
        a = Digraph([0, 1], [(0, 1)])
        b = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        for g1, t1, g2, t2 in [(a, (0,), b, (0,)), (a, (), b, ())]:
            for gamma in range(3):
                assert bf_equiv(g1, t1, g2, t2, gamma) == \
                    bf_equiv(g2, t2, g1, t1, gamma)

    def test_empty_tuples_linear_orders(self):
        # moves are whole tuples, so one round separates non-isomorphic
        # finite orders, and depth 0 on empty tuples is trivially equivalent
        a, b = FinLinOrder([0, 1]), FinLinOrder([0, 1, 2])
        assert bf_equiv(a, (), b, (), 0)
        assert not bf_equiv(a, (), b, (), 1)
        assert bf_equiv(a, (), FinLinOrder("xy"), (), 3)

    def test_isomorphic_always_equivalent(self):
        g = Digraph([0, 1, 2], [(0, 1), (2, 0)])
        h = Digraph("abc", [("b", "c"), ("a", "b")])
        assert bf_equiv(g, (0, 1), h, ("b", "c"), 3)

    def test_bound_extension_stable(self):
        rng = random.Random(21)
        for _ in range(15):
            n1, n2 = rng.randrange(2, 4), rng.randrange(2, 4)
            g1 = next(itertools.islice(all_digraphs(n1),
                                       rng.randrange(2 ** (n1 * n1 - n1)), None))
            g2 = next(itertools.islice(all_digraphs(n2),
                                       rng.randrange(2 ** (n2 * n2 - n2)), None))
            gamma = rng.randrange(3)
            base = bf_equiv(g1, (), g2, (), gamma)
            assert bf_equiv(g1, (), g2, (), gamma,
                            bound=n1 + n2 + 2) == base

    def test_fingerprint_invariance(self):
        g = Digraph([0, 1, 2], [(0, 1)])
        h = Digraph("xyz", [("x", "y")])
        assert fingerprint(g, (0, 1)) == fingerprint(h, ("x", "y"))
        assert fingerprint(g, (0, 1)) != fingerprint(g, (1, 0))


def digraph_classes(max_n):
    """One digraph per isomorphism class on 0..max_n vertices."""
    out = []
    for n in range(max_n + 1):
        seen = set()
        for g in all_digraphs(n):
            canon = min(tuple(sorted((p[u], p[v]) for u, v in g.edges))
                        for p in itertools.permutations(range(n)))
            if canon not in seen:
                seen.add(canon)
                out.append(g)
    return out


def spoiler_moves(src, st):
    """Spoiler moves in the documented order: shorter first, then
    combinations of the fresh elements sorted by repr."""
    fresh = sorted(set(src.universe) - set(st), key=repr)
    for ln in range(1, len(fresh) + 1):
        yield from itertools.combinations(fresh, ln)


def answered(a, at, b, bt, side, move, gamma):
    """Some response, over all tuples of the move's length, holds ~gamma."""
    dst = b if side == "a" else a
    for resp in itertools.product(dst.universe, repeat=len(move)):
        if side == "a" and bf_equiv(a, at + move, b, bt + resp, gamma):
            return True
        if side == "b" and bf_equiv(a, at + resp, b, bt + move, gamma):
            return True
    return False


# The reference game's response generator: the backtracking join that
# answered level-1 moves before the evaluator did.

@functools.lru_cache(maxsize=256)
def _place_facts(signature, i):
    """(name, argument getter) for each relation fact that reads place i
    and no later place; ``signature`` is a sorted tuple of (name, arity)."""
    return tuple((name, _values_of(pos))
                 for name, places in atom_places(signature, i + 1)
                 for pos in places if i in pos)


def _matching_extensions(a, atup, ext, b, btup):
    """All tuples d over b with fingerprint(b, btup+d) = fingerprint(a, atup+ext),
    for tuples atup and btup that agree on every atomic fact and a move ext
    of distinct elements outside atup.

    Candidates are distinct elements outside btup, added place by place and
    checked against the facts that read their place last.
    """
    full = atup + ext
    signature = tuple(sorted(a.signature.items()))

    def rec(row):
        i = len(row)
        if i == len(full):
            yield row[len(btup):]
            return
        facts = [(name, get, a.rel(name, get(full)))
                 for name, get in _place_facts(signature, i)]
        for c in b.universe:
            if c in row:
                continue
            ext_row = row + (c,)
            if all(b.rel(name, get(ext_row)) == want
                   for name, get, want in facts):
                yield from rec(ext_row)

    yield from rec(btup)


class _ReferenceGame:
    """An earlier game search, kept as the reference: one memo of decided
    positions (the two tuples played and the level), recursing level by
    level; each spoiler move is answered by a matching extension that holds
    at the level below.  Questions reach it with the move bound covering
    both universes, as ``bf_equiv`` requires."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.memo = {}

    def equiv(self, at, bt, g):
        if g == 0:
            return True
        key = (at, bt, g)
        res = self.memo.get(key)
        if res is None:
            res = self.memo[key] = self.unanswered(at, bt, g) is None
        return res

    def unanswered(self, at, bt, g):
        a, b = self.a, self.b
        for side, src, st, dst, dt in (("a", a, at, b, bt),
                                       ("b", b, bt, a, at)):
            fresh = sorted(src.universe_set.difference(st), key=repr)
            for ln in range(1, len(fresh) + 1):
                for move in itertools.combinations(fresh, ln):
                    mt = st + move
                    answered = (self.equiv(mt, dt + r, g - 1) if side == "a"
                                else self.equiv(dt + r, mt, g - 1)
                                for r in _matching_extensions(src, st, move,
                                                              dst, dt))
                    if not any(answered):
                        return side, move
        return None


def _reference_bf_equiv(a, atup, b, btup, gamma):
    return fingerprint(a, atup) == fingerprint(b, btup) and \
        _ReferenceGame(a, b).equiv(atup, btup, gamma)


def _reference_distinguishing_move(a, atup, b, btup, gamma):
    if _reference_bf_equiv(a, atup, b, btup, gamma):
        return None
    fa, fb = fingerprint(a, atup), fingerprint(b, btup)
    if fa != fb:
        return ("atomic", fa, fb)
    return _ReferenceGame(a, b).unanswered(atup, btup, gamma)


def _random_ids(rng, n):
    kind = rng.choice(["int", "str", "mixed"])
    ids = [i if kind == "int" or kind == "mixed" and i % 2 else f"v{i}"
           for i in range(n)]
    rng.shuffle(ids)
    return ids


def _random_question(rng):
    """(a, atup, b, btup, gamma): finite orders, or digraphs on 1-5 vertices
    with int, string or mixed ids, b a relabelled copy of a (perhaps with
    one edge reversed) or drawn on its own, often of another size; tuples
    of length 0-2 with repeats allowed, btup the image of atup or drawn on
    its own."""
    gamma = rng.randrange(4)
    k = rng.randrange(3)
    if rng.random() < 0.2:
        a = FinLinOrder(_random_ids(rng, rng.randint(1, 5)))
        b = FinLinOrder(_random_ids(rng, len(a.universe) + rng.randrange(2)))
        f = dict(zip(a.elements, b.elements))
    else:
        n = rng.randint(1, 5)
        ids = _random_ids(rng, n)
        edges = [(u, v) for u in ids for v in ids
                 if u != v and rng.random() < 0.35]
        if rng.random() < 0.6:
            other = _random_ids(rng, n)
            f = dict(zip(ids, other))
            image = [(f[u], f[v]) for u, v in edges]
            if image and rng.random() < 0.4:
                u, v = image.pop(rng.randrange(len(image)))
                image.append((v, u))
            b = Digraph(rng.sample(other, n), image)
        else:
            m = rng.randint(1, 5)
            other = _random_ids(rng, m)
            f = None
            b = Digraph(other, [(u, v) for u in other for v in other
                                if u != v and rng.random() < 0.35])
        a = Digraph(ids, edges)
    atup = tuple(rng.choice(a.universe) for _ in range(k))
    if f is not None and all(x in f for x in atup) and rng.random() < 0.7:
        btup = tuple(f[x] for x in atup)
    else:
        btup = tuple(rng.choice(b.universe) for _ in range(k))
    return a, atup, b, btup, gamma


def test_game_matches_reference():
    """Verdicts and witnesses of the isomorphism-based game equal those of
    the level-by-level game search, on seeded random questions."""
    rng = random.Random(22)
    kinds = set()
    for _ in range(1500):
        a, at, b, bt, gamma = _random_question(rng)
        want = _reference_bf_equiv(a, at, b, bt, gamma)
        assert bf_equiv(a, at, b, bt, gamma) == want, (a, at, b, bt, gamma)
        move = distinguishing_move(a, at, b, bt, gamma)
        assert move == _reference_distinguishing_move(a, at, b, bt, gamma)
        kinds.add((want, move and move[0], min(gamma, 2)))
    # positive verdicts at levels 0, 1 and >= 2, atomic witnesses at each,
    # and move witnesses from either side at levels 1 and >= 2
    assert len(kinds) == 10, kinds


class TestMatchingExtensions:
    def test_matches_brute_force(self):
        """Every move of distinct fresh elements is answered by exactly the
        tuples whose fingerprint matches, in ``itertools.product`` order,
        and the evaluator finds ``_move_formula`` true exactly when such a
        tuple exists."""
        rng = random.Random(5)

        def looped_digraph():
            n = rng.randrange(1, 5)
            p = rng.random()
            return LoopedDigraph(range(n), [(i, j) for i in range(n)
                                            for j in range(n)
                                            if rng.random() < p])

        pairs, verdicts, sig = 0, set(), (("E", 2),)
        for _ in range(40):
            a, b = looped_digraph(), looped_digraph()
            if rng.random() < 0.5:
                b = a
            for k in range(3):
                for at in itertools.product(a.universe, repeat=k):
                    bts = [bt for bt in itertools.product(b.universe, repeat=k)
                           if fingerprint(b, bt) == fingerprint(a, at)]
                    if not bts:
                        continue
                    bt = rng.choice(bts)
                    env = {f"x{i + 1}": x for i, x in enumerate(bt)}
                    pairs += 1
                    fresh = [x for x in a.universe if x not in at]
                    for ln in range(1, len(fresh) + 1):
                        for move in itertools.permutations(fresh, ln):
                            want = fingerprint(a, at + move)
                            expect = [r for r in itertools.product(
                                b.universe, repeat=ln)
                                if fingerprint(b, bt + r) == want]
                            assert list(_matching_extensions(
                                a, at, move, b, bt)) == expect
                            phi = _move_formula(sig, k, want)
                            assert Evaluator(b).eval(phi, env) == bool(expect)
                            verdicts.add(bool(expect))
        assert pairs >= 100
        assert verdicts == {False, True}

    def test_equal_fingerprints_share_one_formula(self):
        g = Digraph(range(5), [(0, 1), (1, 2), (3, 4), (0, 3)])
        sig = tuple(sorted(g.signature.items()))
        # at the tuple (0,), the moves 1 and 3 are out-neighbours of 0 and
        # 2 is not
        f1, f2, f3 = [_move_formula(sig, 1, fingerprint(g, (0, m)))
                      for m in (1, 3, 2)]
        assert f1 is f2 and _plan(f1) is _plan(f2)
        assert f3 is not f1
        assert Evaluator(g).eval(f1, {"x1": 3}) and \
            not Evaluator(g).eval(f1, {"x1": 4})


class TestPreconditions:
    def test_negative_gamma(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        o = FinLinOrder(range(3))
        frag = fs_enumerate(Digraph([0, 1], [(0, 1)]), 1, 3)
        calls = [lambda: bf_equiv(g, (0,), g, (2,), -1),
                 lambda: distinguishing_move(g, (0,), g, (2,), -1),
                 lambda: phi_tuple(g, (0,), -1),
                 lambda: phi_pair({"E": 2}, 1, -1, 3),
                 lambda: interval_equiv(o, (1,), o, (1,), -1),
                 lambda: lg_certify(g, (frag[2],), (frag[7],), -1),
                 lambda: lg_concat_certify(
                     g, ((frag[2],), (frag[60],)), ((frag[2],), (frag[60],)),
                     -1)]
        for call in calls:
            with pytest.raises(PreconditionError):
                call()

    @pytest.mark.parametrize("call, message", [
        (lambda g, o: bf_equiv(g, (0,), g, (), 1),
         "tuples must have equal length"),
        (lambda g, o: distinguishing_move(g, (), g, (), 1, 2),
         "move bound 2 below max structure size 3"),
        (lambda g, o: phi_tuple(g, (0,), 1, 2),
         "move bound below structure size"),
        (lambda g, o: interval_equiv(o, (0,), o, (), 1),
         "tuples must have equal length"),
        (lambda g, o: interval_equiv(o, (1, 0), o, (0, 1), 1),
         "tuples must be strictly increasing")])
    def test_lengths_bounds_and_order(self, call, message):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError) as err:
            call(g, FinLinOrder(range(3)))
        assert str(err.value) == message

    def test_negative_pair_length_or_bound(self):
        for n, bound in ((-1, 2), (1, -1)):
            with pytest.raises(PreconditionError):
                phi_pair({"E": 2}, n, 1, bound)

    def test_entries_outside_the_structure(self):
        g = Digraph([0, 1], [(0, 1)])
        calls = [lambda: bf_equiv(g, (5,), g, (0,), 1),
                 lambda: bf_equiv(g, (0,), g, (5,), 1),
                 lambda: distinguishing_move(g, (0, 5), g, (0, 1), 1),
                 lambda: phi_tuple(g, (5,), 1)]
        for call in calls:
            with pytest.raises(PreconditionError, match="outside"):
                call()

    def test_signature_mismatch(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        o = FinLinOrder(range(3))
        for call in (bf_equiv, distinguishing_move):
            with pytest.raises(PreconditionError):
                call(o, (), g, (), 1)
            with pytest.raises(PreconditionError):
                call(g, (0,), o, (0,), 0)


class TestDistinguishingMove:
    def test_first_unanswered_move(self):
        graphs = digraph_classes(3)
        assert len(graphs) == 21
        for a, b in itertools.product(graphs, repeat=2):
            tuples = [((), ())] + [((x,), (y,)) for x in a.universe
                                   for y in b.universe]
            for (at, bt), gamma in itertools.product(tuples, range(3)):
                res = distinguishing_move(a, at, b, bt, gamma)
                if bf_equiv(a, at, b, bt, gamma):
                    assert res is None
                    continue
                if fingerprint(a, at) != fingerprint(b, bt):
                    assert res == ("atomic", fingerprint(a, at),
                                   fingerprint(b, bt))
                    continue
                side, move = res
                assert not answered(a, at, b, bt, side, move, gamma - 1)
                earlier = [("a", m) for m in spoiler_moves(a, at)] + \
                    [("b", m) for m in spoiler_moves(b, bt)]
                for s, m in earlier[:earlier.index((side, move))]:
                    assert answered(a, at, b, bt, s, m, gamma - 1)

    def test_first_move_at_level_two_and_above(self):
        """Past level 1 a response would be an isomorphism extending the
        tuples, so the witness is the first fresh element of a, or of b
        when a has none."""
        rng = random.Random(7)
        seen = set()
        for _ in range(400):
            a, at, b, bt, gamma = _random_question(rng)
            if gamma < 2 or fingerprint(a, at) != fingerprint(b, bt) or \
                    bf_equiv(a, at, b, bt, gamma):
                continue
            fresh_a = sorted(set(a.universe) - set(at), key=repr)
            fresh_b = sorted(set(b.universe) - set(bt), key=repr)
            want = ("a", (fresh_a[0],)) if fresh_a else ("b", (fresh_b[0],))
            assert distinguishing_move(a, at, b, bt, gamma) == want
            seen.add(want[0])
        assert distinguishing_move(FinLinOrder("xy"), ("x", "y"),
                                   FinLinOrder("xyz"), ("x", "y"), 2) == \
            ("b", ("z",))
        assert seen == {"a", "b"}

    @pytest.mark.parametrize("a, at, b, bt, want", [
        (Digraph(range(12), []), (0, 1), Digraph(range(12), []), (5, 7),
         None),
        (Digraph(range(12), [(s + i, s + (i + 1) % 4) for s in (0, 4, 8)
                             for i in range(4)]), (),
         Digraph(range(12), [(s + i, s + (i + 1) % 3) for s in (0, 3, 6, 9)
                             for i in range(3)]), (),
         ("a", (0,)))], ids=["empty-12", "4-cycles-3-cycles"])
    def test_scale_past_the_level_game(self, a, at, b, bt, want):
        """Questions at level 3 that the level-by-level game could not
        finish, answered by one isomorphism search."""
        assert bf_equiv(a, at, b, bt, 3) == (want is None)
        assert distinguishing_move(a, at, b, bt, 3) == want

    def test_none_when_equivalent(self):
        g = Digraph([0, 1], [(0, 1)])
        assert distinguishing_move(g, (0,), g, (0,), 2) is None

    def test_atomic_mismatch(self):
        # E(0, 1) holds on a path and E(0, 2) does not: no move is needed
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        assert distinguishing_move(g, (0, 1), g, (0, 2), 1) == \
            ("atomic", ((0, 1), (("E", (False, True, False, False)),)),
             ((0, 1), (("E", (False, False, False, False)),)))

    def test_move_is_sound(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        res = distinguishing_move(g, (0,), g, (2,), 1)
        assert res is not None
        kind = res[0]
        assert kind in ("atomic", "a", "b")
        if kind != "atomic":
            side, move = res
            # after the stated move, no reply restores depth-0 equivalence
            if side == "a":
                assert all(not bf_equiv(g, (0,) + move, g, (2,) + reply, 0)
                           for reply in itertools.product(g.universe,
                                                          repeat=len(move)))


class TestPhiTuple:
    def test_matches_game_small(self):
        graphs = list(all_digraphs(2))
        for g in graphs:
            for h in graphs:
                for gamma in range(3):
                    f = phi_tuple(g, (0,), gamma)
                    ev = Evaluator(h)
                    for v in h.universe:
                        assert ev.eval(f, {"x1": v}) == \
                            bf_equiv(g, (0,), h, (v,), gamma)

    def test_level(self):
        g = Digraph([0, 1], [(0, 1)])
        for gamma in range(1, 3):
            side, k = classify(phi_tuple(g, (0,), gamma))
            assert (side, k) == ("pi", 2 * gamma)

    def test_self_satisfaction(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        f = phi_tuple(g, (0, 1), 2)
        assert eval_formula(g, f, {"x1": 0, "x2": 1})


class TestPhiPair:
    def test_uniform_in_the_signature(self):
        graphs = list(all_digraphs(2))
        f = phi_pair({"E": 2}, 1, 1, bound=4)
        for g in graphs:
            for h in graphs:
                prod_elems = [(0, x) for x in g.universe] + \
                             [(1, x) for x in h.universe]
                rels = {"E": [((0, a), (0, b)) for a, b in g.matches("E", (None, None))] +
                             [((1, a), (1, b)) for a, b in h.matches("E", (None, None))]}
                from structcode.core import Structure
                prod = Structure(prod_elems, {"E": 2}, rels)
                for x in g.universe:
                    for y in h.universe:
                        assert eval_formula(prod, f,
                                            {"x1": (0, x), "y1": (1, y)}) == \
                            bf_equiv(g, (x,), h, (y,), 1)


class TestIntervalEquiv:
    def test_matches_direct_game(self):
        orders = [FinLinOrder(range(n)) for n in range(2, 6)]
        rng = random.Random(3)
        for _ in range(40):
            a = rng.choice(orders)
            b = rng.choice(orders)
            ta = tuple(sorted(rng.sample(a.elements, 2)))
            tb = tuple(sorted(rng.sample(b.elements, 2)))
            gamma = rng.randrange(3)
            verdict, pieces = interval_equiv(a, ta, b, tb, gamma)
            assert verdict == bf_equiv(a, ta, b, tb, gamma)
            assert len(pieces) == len(ta) + 1

    def test_matches_game_on_each_interval(self):
        # the same per-interval verdicts as bf_equiv on the sub-orders
        orders = [FinLinOrder(range(n)) for n in range(7)]
        rng = random.Random(5)
        for _ in range(300):
            a, b = rng.choice(orders), rng.choice(orders)
            k = rng.randrange(min(len(a.elements), len(b.elements)) + 1)
            ta = tuple(sorted(rng.sample(a.elements, k)))
            tb = tuple(sorted(rng.sample(b.elements, k)))
            gamma = rng.randrange(3)

            def intervals(order, tup):
                cuts = [-1, *tup, len(order.elements)]
                return [FinLinOrder(range(i + 1, j))
                        for i, j in zip(cuts, cuts[1:])]
            want = [bf_equiv(ia, (), ib, (), gamma) for ia, ib in
                    zip(intervals(a, ta), intervals(b, tb))]
            assert interval_equiv(a, ta, b, tb, gamma) == (all(want), want)

    def test_mismatched_tuple_lengths(self):
        a = FinLinOrder(range(3))
        with pytest.raises(PreconditionError):
            interval_equiv(a, (0,), a, (0, 1), 1)

    def test_entry_outside_the_order(self):
        a = FinLinOrder(range(3))
        with pytest.raises(PreconditionError, match="outside"):
            interval_equiv(a, (0,), a, (7,), 1)

    def test_not_an_order(self):
        a, g = FinLinOrder(range(3)), Digraph([0, 1, 2], [(0, 1)])
        with pytest.raises(PreconditionError, match="linear orders"):
            interval_equiv(a, (0,), g, (0,), 1)


class TestCertificates:
    def edge_graph(self):
        return Digraph([0, 1], [(0, 1)])

    def frag(self, g):
        return fs_enumerate(g, 1, 3)

    def test_equivalent_on_shifted_tuple(self):
        g = self.edge_graph()
        frag = self.frag(g)
        elems = (frag[4], frag[9], frag[30])
        res = shift_tuple(g, elems, frag[-1], "right")
        cert = lg_certify(g, elems, res.elements, 2)
        assert isinstance(cert, Certificate)
        assert cert.verdict == "Equivalent"

    def test_distinguished_on_order_mismatch(self):
        g = self.edge_graph()
        frag = self.frag(g)
        a, b = frag[2], frag[7]
        cert = lg_certify(g, (a, b), (b, a), 0)
        assert cert.verdict == "Distinguished"

    def test_distinguished_on_gap_mismatch(self):
        g = self.edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        y0 = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 1])
        z = fs_element(g, [D(3, 2), 0])
        cert = lg_certify(g, (x, y0), (x, z), 1)
        assert cert.verdict == "Distinguished"
        # level 0 does not consult gaps, and the shapes differ
        assert lg_certify(g, (x, y0), (x, z), 0) == Certificate("Unknown")

    def test_concat_rule(self):
        g = self.edge_graph()
        frag = self.frag(g)
        left = (frag[2], frag[5])
        b2 = shift_tuple(g, (frag[60], frag[70]), frag[-1], "right").elements
        from structcode.fslin import sort_elements
        c2 = shift_tuple(g, (frag[60], frag[70]),
                         sort_elements(b2)[-1], "right").elements
        cert = lg_concat_certify(g, (left, b2), (left, c2), 1)
        assert cert.verdict == "Equivalent"
