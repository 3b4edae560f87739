"""Coding of irreflexive digraphs into undirected graphs with uniform decoding.

Each vertex a of the input gets a base point b_a attached to a fresh
triangle.  Each ordered pair (a, a') of distinct vertices gets a connector
point p adjacent to b_a, a middle point c joining p to b_{a'}, and a
polygon hanging off p: a square when the edge (a, a') is present, a
pentagon when it is absent.  Decoding is uniform: a point is a base point
iff it is adjacent to a triangle it does not belong to, and the edge
relation is read off by existential formulas that look for the attached
square or pentagon.

The decoder is monotone in the input facts (the three formulas are
existential and negation-free), which is what makes the streaming decoder
below sound: facts, once emitted, never have to be retracted.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .core import (And, Digraph, Eq, Evaluator, Exists, MalformedInputError,
                   Not, PreconditionError, Rel, Structure, UGraph,
                   distinct_all, ident_key)


@dataclass
class MarkerCode:
    graph: UGraph
    provenance: dict  # vertex -> role tag


def marker_encode(g):
    """Encode an irreflexive digraph as an undirected graph."""
    if not isinstance(g, Digraph):
        raise PreconditionError("marker_encode expects an irreflexive digraph")
    nxt = itertools.count()
    vertices = []
    edges = []
    prov = {}

    def fresh(tag):
        v = next(nxt)
        vertices.append(v)
        prov[v] = tag
        return v

    order = sorted(g.vertices, key=ident_key)
    base = {}
    for a in order:
        b = fresh(("base", a))
        t1, t2, t3 = (fresh(("tri", a, i)) for i in range(3))
        edges += [(t1, t2), (t2, t3), (t3, t1), (b, t1)]
        base[a] = b
    for a, a2 in itertools.permutations(order, 2):
        p = fresh(("pair", a, a2))
        c = fresh(("mid", a, a2))
        edges += [(p, base[a]), (p, c), (c, base[a2])]
        sides = 4 if g.rel("E", (a, a2)) else 5
        poly = [fresh(("poly", a, a2, i)) for i in range(sides)]
        edges += list(zip(poly, poly[1:] + poly[:1]))
        edges.append((p, poly[0]))
    return MarkerCode(UGraph(vertices, edges), prov)


def base_point_formula(x="x"):
    """x is adjacent to a triangle it does not belong to."""
    ts = ("t1", "t2", "t3")
    conj = [Rel("E", (x, "t1")), Rel("E", ("t1", "t2")),
            Rel("E", ("t2", "t3")), Rel("E", ("t3", "t1"))]
    conj += distinct_all((x,) + ts)
    return Exists(ts, And(tuple(conj)))


def _poly_formula(x, y, sides):
    ss = tuple(f"s{i}" for i in range(1, sides + 1))
    conj = [Rel("E", (x, "p")), Rel("E", ("p", "c")), Rel("E", ("c", y)),
            Rel("E", ("p", "s1"))]
    conj += [Rel("E", (ss[i], ss[(i + 1) % sides])) for i in range(sides)]
    conj += distinct_all((x, y, "p", "c") + ss)
    return And((Not(Eq(x, y)), Exists(("p", "c") + ss, And(tuple(conj)))))


def square_formula(x="x", y="y"):
    """The pair (x, y) carries a square: the coded edge is present."""
    return _poly_formula(x, y, 4)


def pentagon_formula(x="x", y="y"):
    """The pair (x, y) carries a pentagon: the coded edge is absent."""
    return _poly_formula(x, y, 5)


# built once, so that every decode and stream decoder evaluates the same
# nodes and reuses the join plans compiled on them
_BASE_POINT = base_point_formula()
_SQUARE = square_formula()
_PENTAGON = pentagon_formula()


def marker_decode(h):
    """Decode an undirected graph back to the coded digraph.

    Vertices of the result are the base points of ``h``.  Raises
    MalformedInputError when some pair of base points carries neither a
    square nor a pentagon.
    """
    ev = Evaluator(h)
    bases = [v for v in h.universe if ev.eval(_BASE_POINT, {"x": v})]
    edges = []
    for u, v in itertools.permutations(bases, 2):
        env = {"x": u, "y": v}
        if ev.eval(_SQUARE, env):
            edges.append((u, v))
        elif not ev.eval(_PENTAGON, env):
            raise MalformedInputError(
                f"base pair ({u}, {v}) carries neither a square nor a pentagon")
    return Digraph(bases, edges)


def relabel_decoded(decoded, code):
    """Map a decode of code.graph back through the provenance tags."""
    names = {v: code.provenance[v][1] for v in decoded.vertices}
    return Digraph([names[v] for v in decoded.vertices],
                   [(names[u], names[v]) for u, v in decoded.edges])


# ---------------------------------------------------------------------------
# streaming decoder


class MarkerStreamDecoder:
    """Decode an enumerated diagram of an encoded graph, fact by fact.

    ``feed`` takes facts of the form ("v", x) or ("e", x, y) with x != y,
    as the batch decoder's UGraph does (anything else raises
    MalformedInputError), and returns the list of decoded facts, in the
    same two shapes, that become true at this stage.  Because the decoding formulas are positive-existential,
    every emitted fact stays true in every later stage, and once the whole
    diagram has been fed the emitted facts form exactly the batch decode.
    """

    def __init__(self):
        self.g = Structure((), {"E": 2}, {})
        self.bases = {}  # in emission order
        self.emitted_edges = set()
        # the evaluator holds only the growing structure, which keeps its
        # indexes up to date as facts arrive; the join plans live on the
        # module's formulas
        self._ev = Evaluator(self.g)

    def _distances(self, seeds, radius):
        """The distance from ``seeds`` of each vertex within ``radius``."""
        dist = dict.fromkeys(seeds, 0)
        frontier = deque(seeds)
        # the successor lists the evaluator's plans draw from as well
        succ = self.g.index("E", (0,), 1)
        while frontier:
            v = frontier.popleft()
            if dist[v] == radius:
                continue
            for w in succ.get((v,), ()):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    frontier.append(w)
        return dist

    def feed(self, fact):
        if not fact or {"v": 2, "e": 3}.get(fact[0]) != len(fact):
            raise MalformedInputError(f"not a stream fact: {fact!r}")
        if fact[0] == "v":
            self.g.add(fact[1:])
            return []
        _, u, v = fact
        if u == v:
            raise MalformedInputError(f"self-loop at {u!r} not allowed")
        self.g.add((u, v), [("E", (u, v)), ("E", (v, u))])
        dist = self._distances((u, v), 4)
        # a new edge can only create base points within distance two of it
        new = sorted((x for x, d in dist.items() if d <= 2 and
                      x not in self.bases and
                      self._ev.eval(_BASE_POINT, {"x": x})), key=ident_key)
        self.bases.update(dict.fromkeys(new))
        out = [("v", x) for x in new]
        # and new coded edges: those of a new base point, and those whose
        # witness x-p-c-y, p-s1, s1..s4 uses the edge, which puts x within
        # distance three and y within distance four of it
        for x, y in itertools.permutations(self.bases, 2):
            if (x, y) in self.emitted_edges or not (
                    x in new or y in new or dist.get(x, 4) <= 3 and y in dist):
                continue
            if self._ev.eval(_SQUARE, {"x": x, "y": y}):
                self.emitted_edges.add((x, y))
                out.append(("e", x, y))
        return out

    def result(self):
        return Digraph(sorted(self.bases, key=ident_key), self.emitted_edges)


def diagram_facts(h):
    """The diagram of an undirected graph as a list of stream facts: its
    vertices, then each edge once, as ``(u, v)`` with u before v in
    ``ident_key`` order, the edges in that order."""
    order = sorted(h.universe, key=ident_key)
    rank = {v: i for i, v in enumerate(order)}
    edges = sorted((rank[u], rank[v]) for u, v in h.relations["E"]
                   if rank[u] < rank[v])
    return [("v", v) for v in h.universe] + \
        [("e", order[i], order[j]) for i, j in edges]
