"""Reference answers computed apart from structcode.

Everything here works on plain data: a digraph is a list of vertices and a
set of ordered pairs, a decoded answer is the JSON payload or fact list the
program produced.  Nothing imports structcode, so a fault in the program
cannot make its own check pass.
"""

from __future__ import annotations

import itertools


def iso_fixing(va, ea, ta, vb, eb, tb):
    """Is there an isomorphism (va, ea) -> (vb, eb) sending ta[i] to tb[i]?

    Brute force over the bijections that agree with the tuples; fine for
    the six-vertex digraphs the benchmark uses.
    """
    ea, eb = set(ea), set(eb)
    if len(va) != len(vb) or len(ea) != len(eb) or len(ta) != len(tb):
        return False
    fixed = {}
    for x, y in zip(ta, tb):
        if fixed.setdefault(x, y) != y:
            return False
    if len(set(fixed.values())) != len(fixed):
        return False
    rest_a = [v for v in va if v not in fixed]
    rest_b = [v for v in vb if v not in set(fixed.values())]
    for image in itertools.permutations(rest_b):
        f = dict(fixed)
        f.update(zip(rest_a, image))
        # f is a bijection and |ea| == |eb|, so the forward inclusion
        # makes it an isomorphism
        if all((f[u], f[v]) in eb for u, v in ea):
            return True
    return False


def same_atomic_type(ea, ta, eb, tb):
    """Do the tuples satisfy the same equalities and edge facts?"""
    if len(ta) != len(tb):
        return False
    ea, eb = set(ea), set(eb)
    for i, j in itertools.product(range(len(ta)), repeat=2):
        if (ta[i] == ta[j]) != (tb[i] == tb[j]):
            return False
        if ((ta[i], ta[j]) in ea) != ((tb[i], tb[j]) in eb):
            return False
    return True


def game_verdict(va, ea, ta, vb, eb, tb, gamma):
    """The ~gamma verdict for digraph tuples when the move bound covers
    both universes: atomic-type equality at level 0, and from level 1 on
    the existence of an isomorphism fixing the tuples (a spoiler move that
    lists every fresh element forces the duplicator to answer with one).
    """
    if gamma == 0:
        return same_atomic_type(ea, ta, eb, tb)
    return iso_fixing(va, ea, ta, vb, eb, tb)


def order_verdict(m, n, gamma):
    """~gamma for the empty tuples of finite linear orders of sizes m, n."""
    return gamma == 0 or m == n


def automorphism_maps(v, e, xs, ys):
    """Does some automorphism of (v, e) send xs[i] to ys[i]?"""
    return iso_fixing(v, e, xs, v, e, ys)


def base_names(provenance):
    """Vertex of a code -> input vertex it stands for, for base points."""
    return {x: tag[1] for x, tag in provenance.items() if tag[0] == "base"}


def decoded_matches(vertices, edges, provenance, v, e):
    """Does a decoded digraph, renamed through the base tags, equal (v, e)?"""
    names = base_names(provenance)
    if any(x not in names for x in vertices):
        return False
    renamed = [names[x] for x in vertices]
    if len(set(renamed)) != len(renamed) or set(renamed) != set(v):
        return False
    return {(names[x], names[y]) for x, y in edges} == set(e)


def decode_payload_ok(rc, payload, provenance, v, e):
    """Check a `marker decode` result against the digraph that was coded."""
    return rc == 0 and decoded_matches(payload["vertices"],
                                       [tuple(p) for p in payload["edges"]],
                                       provenance, v, e)


def interp_payload_ok(rc, payload, classes):
    """Check an `interp` report: passed, no failures, the expected classes."""
    return (rc == 0 and payload.get("passed") is True
            and payload.get("failures") == []
            and payload.get("classes") == classes)


class StreamCheck:
    """Checks one streaming decode, fact by fact and at its end.

    Every emitted fact must be a fact of the final decode (the base points
    and the coded edges between them) and must not have been emitted
    before; at the end every such fact must have been emitted.
    """

    def __init__(self, provenance, v, e):
        self.provenance = provenance
        self.v, self.e = v, set(e)
        names = base_names(provenance)
        self.expected = {("v", x) for x in names}
        self.expected |= {("e", x, y) for x in names for y in names
                          if (names[x], names[y]) in self.e}
        self.seen = set()

    def step(self, out):
        ok = True
        for fact in out:
            fact = tuple(fact)
            if fact not in self.expected or fact in self.seen:
                ok = False
            self.seen.add(fact)
        return ok

    def finish(self, vertices, edges):
        return self.seen == self.expected and \
            decoded_matches(vertices, edges, self.provenance, self.v, self.e)
