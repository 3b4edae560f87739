"""Digraph-to-graph gadget coding: round trips, defining formulas, streaming."""

import itertools
import random
from collections import deque

import pytest

from structcode.core import (Digraph, Evaluator, LoopedDigraph,
                             MalformedInputError, PreconditionError, Structure,
                             UGraph, classify, ident_key, iso_check)
from structcode.marker import (MarkerStreamDecoder, base_point_formula,
                               diagram_facts, marker_decode, marker_encode,
                               pentagon_formula, relabel_decoded,
                               square_formula)


def random_digraph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return Digraph(range(n), [p for p in pairs if rng.random() < 0.3])


class TestEncode:
    def test_sizes_two_vertices_one_edge(self):
        g = Digraph([0, 1], [(0, 1)])
        code = marker_encode(g)
        assert len(code.graph.vertices) == 21
        assert len(code.graph.undirected_edges()) == 25
        # 2 base+triangle gadgets, 2 ordered pairs: one square, one pentagon
        tags = [code.provenance[v][0] for v in code.graph.vertices]
        assert tags.count("base") == 2
        assert tags.count("tri") == 6
        assert tags.count("pair") == tags.count("mid") == 2
        assert tags.count("poly") == 4 + 5

    def test_rejects_non_digraph(self):
        with pytest.raises(PreconditionError):
            marker_encode(UGraph([0, 1], [(0, 1)]))

    def test_rejects_looped_digraph(self):
        # a Digraph is a LoopedDigraph, not the other way round
        with pytest.raises(PreconditionError):
            marker_encode(LoopedDigraph([0, 1], [(0, 1)]))

    def test_empty_graph(self):
        code = marker_encode(Digraph([], []))
        assert code.graph.vertices == ()
        decoded = marker_decode(code.graph)
        assert decoded.vertices == ()


class TestDecode:
    def test_round_trip_small(self):
        rng = random.Random(7)
        for n in range(1, 6):
            for _ in range(5):
                g = random_digraph(rng, n)
                code = marker_encode(g)
                back = relabel_decoded(marker_decode(code.graph), code)
                assert back.key() == g.key()

    def test_decode_is_label_invariant(self):
        g = Digraph(range(4), [(0, 1), (1, 2), (3, 0), (2, 0)])
        code = marker_encode(g)
        k = len(code.graph.vertices)
        perm = list(range(k))
        random.Random(3).shuffle(perm)
        h = UGraph([perm[v] for v in code.graph.vertices],
                   [(perm[u], perm[v]) for u, v in
                    map(tuple, code.graph.undirected_edges())])
        assert iso_check(marker_decode(h), g) is not None

    def test_malformed_rejected(self):
        g = Digraph([0, 1], [(0, 1)])
        code = marker_encode(g)
        # break the square into a path: the pair (0, 1) then has no polygon
        poly = sorted(v for v in code.graph.vertices
                      if code.provenance[v][:3] == ("poly", 0, 1))
        edges = [tuple(e) for e in code.graph.undirected_edges()
                 if set(e) != {poly[0], poly[1]}]
        with pytest.raises(MalformedInputError):
            marker_decode(UGraph(code.graph.vertices, edges))


class TestFormulas:
    def test_formulas_are_existential(self):
        assert classify(base_point_formula())[0] == "sigma"
        assert classify(square_formula())[0] == "sigma"
        assert classify(pentagon_formula())[0] == "sigma"

    def test_formulas_match_provenance(self):
        g = Digraph([0, 1, 2], [(0, 1), (2, 1)])
        code = marker_encode(g)
        ev = Evaluator(code.graph)
        bphi = base_point_formula()
        bases = {v for v in code.graph.vertices
                 if ev.eval(bphi, {"x": v})}
        assert bases == {v for v in code.graph.vertices
                         if code.provenance[v][0] == "base"}
        base_of = {code.provenance[v][1]: v for v in bases}
        sq, pent = square_formula(), pentagon_formula()
        for a, b in itertools.permutations(g.vertices, 2):
            env = {"x": base_of[a], "y": base_of[b]}
            assert ev.eval(sq, env) == g.rel("E", (a, b))
            assert ev.eval(pent, env) == (not g.rel("E", (a, b)))


class ReferenceStreamDecoder:
    """The stream decoder's earlier rule, kept as the reference: after an
    edge, every unemitted base pair with an entry within distance five of
    it is tested."""

    BASE, SQUARE = base_point_formula(), square_formula()

    def __init__(self):
        self.g = Structure((), {"E": 2}, {})
        self.bases, self.emitted = {}, set()
        self.ev = Evaluator(self.g)

    def ball(self, seeds, radius):
        seen = set(seeds)
        frontier = deque((s, 0) for s in seeds)
        while frontier:
            v, d = frontier.popleft()
            if d < radius:
                for _, w in self.g.matches("E", (v, None)):
                    if w not in seen:
                        seen.add(w)
                        frontier.append((w, d + 1))
        return seen

    def feed(self, fact):
        if fact[0] == "v":
            self.g.add(fact[1:])
            return []
        _, u, v = fact
        self.g.add((u, v), [("E", (u, v)), ("E", (v, u))])
        new = sorted((x for x in self.ball({u, v}, 2) if x not in self.bases
                      and self.ev.eval(self.BASE, {"x": x})), key=ident_key)
        self.bases.update(dict.fromkeys(new))
        out = [("v", x) for x in new]
        near = self.ball({u, v}, 5)
        for x, y in itertools.permutations(self.bases, 2):
            if (x, y) not in self.emitted and (x in near or y in near) and \
                    self.ev.eval(self.SQUARE, {"x": x, "y": y}):
                self.emitted.add((x, y))
                out.append(("e", x, y))
        return out


class TestStream:
    @pytest.mark.parametrize("name", [lambda v: v,
                                      lambda v: v if v % 3 else f"v{v}"],
                             ids=["int", "int-and-str"])
    def test_feeds_match_reference(self, name):
        # every fact's output, in order, on shuffled streams that may
        # announce a vertex by an edge before its own fact
        rng = random.Random(19)
        for n in range(1, 6):
            for _ in range(4):
                h = marker_encode(random_digraph(rng, n)).graph
                facts = diagram_facts(UGraph(
                    map(name, h.vertices),
                    [tuple(map(name, e)) for e in h.relations["E"]]))
                rng.shuffle(facts)
                dec, ref = MarkerStreamDecoder(), ReferenceStreamDecoder()
                for fact in facts:
                    assert dec.feed(fact) == ref.feed(fact)

    def test_incremental_matches_batch(self):
        rng = random.Random(11)
        g = random_digraph(rng, 3)
        code = marker_encode(g)
        facts = diagram_facts(code.graph)
        rng.shuffle(facts)
        # vertices must be announced before edges touching them
        facts.sort(key=lambda f: f[0] != "v")
        dec = MarkerStreamDecoder()
        announced_v, announced_e = set(), set()
        for fact in facts:
            for out in dec.feed(fact):
                if out[0] == "v":
                    assert out[1] not in announced_v
                    announced_v.add(out[1])
                else:
                    assert out[1:] not in announced_e
                    announced_e.add(out[1:])
        final = dec.result()
        assert set(final.vertices) == announced_v
        assert set(final.edges) == announced_e
        assert relabel_decoded(final, code).key() == g.key()

    def test_unknown_fact_kind(self):
        with pytest.raises(MalformedInputError):
            MarkerStreamDecoder().feed(("q", 1, 2))

    @pytest.mark.parametrize("fact", [
        (), ("v",), ("e", 1), ("v", 1, 2), ("e", 1, 2, 3)])
    def test_wrong_fact_shape(self, fact):
        with pytest.raises(MalformedInputError):
            MarkerStreamDecoder().feed(fact)

    def test_self_loop_rejected_as_in_batch(self):
        with pytest.raises(PreconditionError, match="self-loop at 0"):
            UGraph([0, 1], [(0, 0), (0, 1)])
        dec = MarkerStreamDecoder()
        dec.feed(("v", 0))
        with pytest.raises(MalformedInputError, match="self-loop at 0"):
            dec.feed(("e", 0, 0))
        # the rejected fact left nothing behind
        assert dec.g.relations["E"] == set()

    def test_edge_announces_its_endpoints(self):
        # an edge between vertices never fed as ("v", x) adds them
        dec = MarkerStreamDecoder()
        dec.feed(("e", 0, 1))
        dec.feed(("e", 0, 1))
        assert dec.g.universe == (0, 1)
        assert dec.g.relations["E"] == {(0, 1), (1, 0)}
