"""Bounded equivalence games, defining formulas, interval reduction, certificates."""

import itertools
import random

import pytest

from structcode.backforth import (_matching_extensions, bf_equiv,
                                  distinguishing_move, fingerprint,
                                  interval_equiv, phi_pair, phi_tuple)
from structcode.core import (Digraph, Evaluator, FinLinOrder, LoopedDigraph,
                             PreconditionError, classify, eval_formula)
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


class TestMatchingExtensions:
    def test_matches_brute_force(self):
        """Every move of distinct fresh elements is answered by exactly the
        tuples whose fingerprint matches, in ``itertools.product`` order."""
        rng = random.Random(5)

        def looped_digraph():
            n = rng.randrange(1, 5)
            p = rng.random()
            return LoopedDigraph(range(n), [(i, j) for i in range(n)
                                            for j in range(n)
                                            if rng.random() < p])

        pairs = 0
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
        assert pairs >= 100


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
