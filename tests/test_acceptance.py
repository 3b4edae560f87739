"""Acceptance gate: one test (or test group) per advertised guarantee.

Numbering follows the package guarantees:
 1  gadget coding round-trip and decoder-formula/tag agreement
 2  coding reflects isomorphism in both directions
 3  streaming decode converges monotonically to the batch decode
 4  structural lemmas of the coded order on enumerated fragments
 5  shape invariance and shape-formula levels
 6  shift move: separator and shape preservation
 7  game/formula/interval oracle agreement
 8  verdict stability under a larger move bound
 9  certificate soundness and reproducibility
10  interpretation checking (arithmetic window, trivial, gadget coding)
11  daisy and shuffle codings round-trip with dense censuses
12  CLI byte-stability

Exhaustive claims over "all digraphs with <= n vertices" are run on one
representative per isomorphism class (the checked properties are
label-invariant); heavier grids are covered exhaustively at one size below
the advertised one plus a seeded sample at the advertised size, because the
full advertised grid is quadratic in the number of 4-element structures and
does not fit any realistic time budget.  Set STRUCTCODE_ACCEPTANCE_FULL=1
to extend test 7/8 sampling.
"""

import itertools
import os
import random
import time

import pytest

from structcode.backforth import bf_equiv, interval_equiv, phi_pair, phi_tuple
from structcode.codings import (OMEGA, census, daisy_decode, daisy_encode,
                                shuffle_decode_set, shuffle_encode_set)
from structcode.core import (Digraph, Evaluator, FinLinOrder, Not, Structure,
                             classify, eval_formula, iso_check)
from structcode.denseq import ColorOrderMap, between, color
from structcode.fslin import (apply_first_coord_map, block_of, fs_compare,
                              fs_element, fs_enumerate, fs_member,
                              lg_certify, lg_concat_certify, mentions,
                              min_length_in_interval, shape, shape_formulas,
                              shift_tuple, sort_elements)
from structcode.interp import (InterpretationSpec, builtin_int_in_nat,
                               check_interpretation, marker_interp,
                               trivial_interp)
from structcode.marker import (MarkerStreamDecoder, diagram_facts,
                               marker_decode, marker_encode, relabel_decoded)

FULL = os.environ.get("STRUCTCODE_ACCEPTANCE_FULL") == "1"


# ---------------------------------------------------------------------------
# helpers


def digraph_classes(n):
    """One representative digraph per isomorphism class on n vertices."""
    verts = tuple(range(n))
    pairs = [(i, j) for i in verts for j in verts if i != j]
    perms = list(itertools.permutations(verts))
    seen = {}
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        edges = frozenset(p for p, b in zip(pairs, bits) if b)
        canon = min(tuple(sorted((pi[u], pi[v]) for u, v in edges))
                    for pi in perms)
        if canon not in seen:
            seen[canon] = Digraph(verts, edges)
    return list(seen.values())


def digraph_canon(g):
    verts = sorted(g.universe)
    ren = {v: i for i, v in enumerate(verts)}
    edges = [(ren[u], ren[v]) for u, v in g.relations["E"]]
    perms = list(itertools.permutations(range(len(verts))))
    return (len(verts),
            min(tuple(sorted((pi[u], pi[v]) for u, v in edges))
                for pi in perms))


def random_digraph(rng, n, p=0.3):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return Digraph(range(n), [q for q in pairs if rng.random() < p])


SMALL_CLASSES = None


def small_classes():
    """Representatives for 1..4 vertices, computed once."""
    global SMALL_CLASSES
    if SMALL_CLASSES is None:
        SMALL_CLASSES = [g for n in range(1, 5) for g in digraph_classes(n)]
    return SMALL_CLASSES


# ---------------------------------------------------------------------------
# 1: coding round-trip


def test_01_marker_round_trip():
    start = time.time()
    reps = small_classes()
    assert len(reps) == 1 + 3 + 16 + 218
    for g in reps:
        code = marker_encode(g)
        decoded = marker_decode(code.graph)
        # the vertex-detector formula picks out exactly the tagged vertices,
        # and the edge detectors reproduce the coded orientation exactly
        assert set(decoded.vertices) == \
            {v for v in code.graph.vertices
             if code.provenance[v][0] == "base"}
        assert relabel_decoded(decoded, code).key() == g.key()
    rng = random.Random(2026)
    for _ in range(200):
        g = random_digraph(rng, rng.randrange(5, 13))
        code = marker_encode(g)
        back = relabel_decoded(marker_decode(code.graph), code)
        assert back.key() == g.key()
    assert time.time() - start < 60


# ---------------------------------------------------------------------------
# 2: coding reflects isomorphism


def test_02_marker_embedding_reflects_iso():
    reps = small_classes()
    rng = random.Random(7)

    # isomorphic inputs give isomorphic codes: an explicit code isomorphism
    # is induced by any graph isomorphism through the provenance tags
    for g in reps:
        perm = list(g.universe)
        rng.shuffle(perm)
        f = dict(zip(sorted(g.universe), perm))
        h = Digraph(g.universe, [(f[u], f[v]) for u, v in g.relations["E"]])
        cg, ch = marker_encode(g), marker_encode(h)
        by_tag = {}
        for v in ch.graph.vertices:
            by_tag[ch.provenance[v]] = v

        def map_tag(tag):
            kind = tag[0]
            if kind == "base":
                return ("base", f[tag[1]])
            if kind == "tri":
                return ("tri", f[tag[1]], tag[2])
            if kind in ("pair", "mid"):
                return (kind, f[tag[1]], f[tag[2]])
            return ("poly", f[tag[1]], f[tag[2]], tag[3])

        iso = {v: by_tag[map_tag(cg.provenance[v])]
               for v in cg.graph.vertices}
        assert len(set(iso.values())) == len(iso)
        want = {frozenset((iso[u], iso[v]))
                for u, v in map(tuple, cg.graph.undirected_edges())}
        assert want == ch.graph.undirected_edges()

    # non-isomorphic inputs give non-isomorphic codes: decoding is defined on
    # the abstract code alone and returns the input up to renaming (test 1),
    # so any code isomorphism would force a graph isomorphism; the canonical
    # forms of all representatives being distinct closes every pair
    canons = [digraph_canon(g) for g in reps]
    assert len(set(canons)) == len(canons)
    # concrete spot checks of the same fact on the codes themselves
    small = [g for g in reps if len(g.universe) <= 3]
    for _ in range(30):
        g1, g2 = rng.sample(small, 2)
        assert iso_check(marker_encode(g1).graph,
                         marker_encode(g2).graph) is None


# ---------------------------------------------------------------------------
# 3: streaming decode


def test_03_stream_decode_monotone_convergence():
    rng = random.Random(31)
    for _ in range(50):
        g = random_digraph(rng, rng.randrange(1, 4), p=0.4)
        code = marker_encode(g)
        batch = marker_decode(code.graph)
        facts = diagram_facts(code.graph)
        vs = [fa for fa in facts if fa[0] == "v"]
        es = [fa for fa in facts if fa[0] == "e"]
        for _ in range(10):
            rng.shuffle(vs)
            rng.shuffle(es)
            dec = MarkerStreamDecoder()
            seen = set()
            for fact in vs + es:
                for out in dec.feed(fact):
                    assert out not in seen          # no duplicate
                    seen.add(out)
                    if out[0] == "v":               # no retraction: every
                        assert out[1] in batch.universe   # emission is final
                    else:
                        assert out[1:] in batch.relations["E"]
            final = dec.result()
            assert set(final.vertices) == set(batch.vertices)
            assert set(final.edges) == set(batch.edges)


# ---------------------------------------------------------------------------
# 4: structural lemmas of the coded order


FRAG_CAPS = (2, 3)      # (max_half_len, max_exponent): exhaustive tier
FRAG_CAPS_WIDE = (1, 5)  # shallow tier at the advertised exponent cap


def _fragment_cases():
    for n in range(1, 4):
        for g in digraph_classes(n):
            for caps in (FRAG_CAPS, FRAG_CAPS_WIDE):
                yield g, fs_enumerate(g, caps[0], caps[1])


def test_04a_members_and_mentions():
    for g, frag in _fragment_cases():
        seen = set()
        for e in frag:
            assert fs_member(g, e.seq())
            ment = mentions(e)
            assert len(set(ment)) == len(ment)
            assert set(ment) <= set(g.universe)
            seen.add(e)
        assert len(seen) == len(frag)


def test_04b_blocks_consecutive_and_sized():
    for g, frag in _fragment_cases():
        runs = {}
        for pos, e in enumerate(frag):
            runs.setdefault((e.rs, e.qs), []).append((pos, e))
        for entries in runs.values():
            m, _ = block_of(g, entries[0][1])
            positions = [p for p, _ in entries]
            tails = [e.tail for _, e in entries]
            assert tails == list(range(m))          # block size = type index
            assert positions == list(range(positions[0], positions[0] + m))
            # nothing sits strictly between consecutive block members


def test_04c_divergence_gap_length_bound():
    rng = random.Random(43)
    for g, frag in _fragment_cases():
        for _ in range(200):
            i, j = sorted(rng.sample(range(len(frag)), 2))
            x, y = frag[i], frag[j]
            sx, sy = x.seq(), y.seq()
            d = next((p for p, (a, b) in enumerate(zip(sx, sy)) if a != b),
                     None)
            if d is None or d % 2:
                continue
            t = d // 2
            for e in frag[i + 1:j]:
                assert e.half_length >= t
            k, _ = min_length_in_interval(g, x, y)
            assert k >= t


def test_04d_minlen_witnesses():
    rng = random.Random(47)
    for g, frag in _fragment_cases():
        for _ in range(200):
            i, j = sorted(rng.sample(range(len(frag)), 2))
            x, y = frag[i], frag[j]
            k, w = min_length_in_interval(g, x, y)
            assert fs_member(g, w.seq())
            assert w.half_length == k
            assert fs_compare(x, w) <= 0 <= fs_compare(y, w)
            assert all(e.half_length >= k for e in frag[i:j + 1])


@pytest.mark.xfail(strict=True, reason=(
    "the universal mention-extension property of minimal-length witnesses "
    "is not attainable: when the endpoints diverge at a vertex coordinate, "
    "the interval contains minimal-length members mentioning each of the "
    "two diverging vertices, and no single witness tuple is extended by "
    "all of them (e.g. two isolated vertices, x=[1/2,1/8,3/4,0], "
    "y=[1/2,3/8,3/4,0]: the interval holds members mentioning (0,) and "
    "members mentioning (1,))"))
def test_04d_mention_extension_unattainable():
    from structcode.denseq import Dyadic as D
    g = Digraph([0, 1], [])
    x = fs_element(g, [D(1, 2), D(1, 3), D(3, 2), 0])
    y = fs_element(g, [D(1, 2), D(3, 3), D(3, 2), 0])
    _, w = min_length_in_interval(g, x, y)
    prefix = mentions(w)
    frag = fs_enumerate(g, 2, 4)
    inside = [e for e in frag
              if fs_compare(x, e) <= 0 <= fs_compare(y, e)]
    assert inside
    for e in inside:
        assert mentions(e)[:len(prefix)] == prefix


# ---------------------------------------------------------------------------
# 5 and 6: shapes and shifts


def _random_tuple(rng, frag, n):
    return tuple(rng.sample(frag, n))


def _random_color_map(rng, elems):
    firsts = sorted({e.rs[0] for e in elems})
    seeds, prev = {}, None
    for u in firsts:
        img = between(prev, None, color(u))
        seeds[u] = img
        prev = img
    return ColorOrderMap(seeds)


def test_05_shape_invariance_and_formula_levels():
    g = Digraph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    frag = fs_enumerate(g, 1, 3)
    rng = random.Random(55)
    for _ in range(200):
        elems = _random_tuple(rng, frag, rng.randrange(1, 4))
        s = shape(g, elems)
        moved = apply_first_coord_map(_random_color_map(rng, elems), elems)
        assert shape(g, moved) == s
        res = shift_tuple(g, elems, rng.choice(frag),
                          rng.choice(["left", "right"]))
        assert shape(g, res.elements) == s
    for _ in range(50):
        elems = _random_tuple(rng, frag, rng.randrange(1, 4))
        fb = shape_formulas(shape(g, elems))
        assert classify(fb.sigma) == ("sigma", 4)
        assert classify(fb.pi) == ("pi", 4)


def test_06_shift_separator_and_shape():
    g = Digraph([0, 1], [(0, 1)])
    frag = fs_enumerate(g, 1, 3)
    rng = random.Random(66)
    for _ in range(200):
        elems = _random_tuple(rng, frag, rng.randrange(1, 4))
        c = rng.choice(frag)
        side = rng.choice(["left", "right"])
        res = shift_tuple(g, elems, c, side)
        sep = res.separator
        assert fs_member(g, sep.seq())
        assert sep.half_length == 0             # length 2
        for e in res.elements:
            if side == "right":
                assert fs_compare(c, sep) < 0 < fs_compare(e, sep)
            else:
                assert fs_compare(sep, c) < 0 > fs_compare(e, sep)
        assert shape(g, res.elements) == shape(g, elems)


# ---------------------------------------------------------------------------
# 7 and 8: oracle agreement and bound stability


_ORACLE_INSTANCES = None


def _oracle_structs():
    structs = [g for n in range(1, 4) for g in digraph_classes(n)]
    structs += [FinLinOrder(range(n)) for n in range(1, 5)]
    return structs


def _tuples(struct, n):
    return list(itertools.product(struct.universe, repeat=n))


def _oracle_instances():
    """(a, ta, b, tb, gamma, verdict) across the covered grid, cached."""
    global _ORACLE_INSTANCES
    if _ORACLE_INSTANCES is not None:
        return _ORACLE_INSTANCES
    out = []
    structs = _oracle_structs()
    rng = random.Random(77)
    pairs = [(a, b) for a in structs for b in structs
             if a.signature == b.signature]
    for a, b in pairs:
        for n in range(0, 3):
            ta_all, tb_all = _tuples(a, n), _tuples(b, n)
            for gamma in range(3):
                for ta in ta_all:
                    for tb in tb_all:
                        if n == 2 and rng.random() > 0.35:
                            continue        # thin the largest layer
                        verdict = bf_equiv(a, ta, b, tb, gamma)
                        out.append((a, ta, b, tb, gamma, verdict))
    # seeded sample at 4 elements
    sample = 60 if not FULL else 600
    for _ in range(sample):
        a = random_digraph(rng, 4, p=0.4)
        b = random_digraph(rng, 4, p=0.4)
        n = rng.randrange(0, 3)
        ta = tuple(rng.choice(a.universe) for _ in range(n))
        tb = tuple(rng.choice(b.universe) for _ in range(n))
        gamma = rng.randrange(3)
        out.append((a, ta, b, tb, gamma, bf_equiv(a, ta, b, tb, gamma)))
    _ORACLE_INSTANCES = out
    return out


def test_07a_phi_tuple_agrees_with_game():
    start = time.time()
    cache = {}
    for a, ta, b, tb, gamma, verdict in _oracle_instances():
        bound = max(len(a.universe), len(b.universe))
        key = (id(a), ta, gamma, bound)
        if key not in cache:
            cache[key] = phi_tuple(a, ta, gamma, bound=bound)
        env = {f"x{i + 1}": v for i, v in enumerate(tb)}
        assert eval_formula(b, cache[key], env) == verdict
    assert time.time() - start < 300


def test_07b_phi_pair_agrees_with_game():
    graphs = [g for n in range(1, 4) for g in digraph_classes(n)]
    rng = random.Random(78)
    checked = 0
    # one uniform formula per (length, level) decides tuple equivalence
    # inside every structure of the signature
    for s in graphs:
        ev = Evaluator(s)
        for n in (1, 2):
            # exhaustive (with thinning at n=2) for levels 0 and 1; level-2
            # evaluations on a positive instance take seconds each, so they
            # get one seeded probe per structure and length
            for gamma in (0, 1):
                f = phi_pair({"E": 2}, n, gamma, bound=len(s.universe))
                for ta in _tuples(s, n):
                    for tb in _tuples(s, n):
                        if n == 2 and rng.random() > 0.25:
                            continue
                        env = {f"x{i + 1}": v for i, v in enumerate(ta)}
                        env.update({f"y{i + 1}": v for i, v in enumerate(tb)})
                        assert ev.eval(f, env) == \
                            bf_equiv(s, ta, s, tb, gamma)
                        checked += 1
            f = phi_pair({"E": 2}, n, 2, bound=len(s.universe))
            ta = tuple(rng.choice(s.universe) for _ in range(n))
            tb = tuple(rng.choice(s.universe) for _ in range(n))
            env = {f"x{i + 1}": v for i, v in enumerate(ta)}
            env.update({f"y{i + 1}": v for i, v in enumerate(tb)})
            assert ev.eval(f, env) == bf_equiv(s, ta, s, tb, 2)
            checked += 1
    # and stays correct on disjoint unions, where the two tuples come from
    # different components
    for k in range(30):
        a, b = rng.sample(graphs, 2)
        prod = Structure(
            [(0, x) for x in a.universe] + [(1, y) for y in b.universe],
            {"E": 2},
            {"E": [((0, u), (0, v)) for u, v in a.relations["E"]] +
                  [((1, u), (1, v)) for u, v in b.relations["E"]]})
        ev = Evaluator(prod)
        n = rng.randrange(1, 3)
        gamma = 2 if k < 3 else rng.randrange(2)
        f = phi_pair({"E": 2}, n, gamma, bound=len(prod.universe))
        ta = tuple((0, rng.choice(a.universe)) for _ in range(n))
        tb = tuple((1, rng.choice(b.universe)) for _ in range(n))
        env = {f"x{i + 1}": v for i, v in enumerate(ta)}
        env.update({f"y{i + 1}": v for i, v in enumerate(tb)})
        assert ev.eval(f, env) == bf_equiv(prod, ta, prod, tb, gamma)
        checked += 1
    assert checked > 500


def test_07c_interval_equiv_exhaustive():
    orders = [FinLinOrder(range(n)) for n in range(1, 7)]
    for a in orders:
        for b in orders:
            for n in range(0, 3):
                for ta in itertools.combinations(a.elements, n):
                    for tb in itertools.combinations(b.elements, n):
                        for gamma in range(3):
                            verdict, _ = interval_equiv(a, ta, b, tb, gamma)
                            assert verdict == bf_equiv(a, ta, b, tb, gamma)


def test_08_verdicts_stable_under_larger_bound():
    for a, ta, b, tb, gamma, verdict in _oracle_instances():
        big = len(a.universe) + len(b.universe) + 2
        assert bf_equiv(a, ta, b, tb, gamma, bound=big) == verdict


# ---------------------------------------------------------------------------
# 9: certificates


def test_09_certificates():
    g = Digraph([0, 1], [(0, 1)])
    frag = fs_enumerate(g, 1, 3)
    rng = random.Random(99)

    for _ in range(100):
        elems = tuple(rng.sample(frag, rng.randrange(1, 4)))
        res = shift_tuple(g, elems, rng.choice(frag),
                          rng.choice(["left", "right"]))
        gamma = rng.randrange(0, 3)
        cert = lg_certify(g, elems, res.elements, gamma)
        assert cert.verdict == "Equivalent"
        assert lg_certify(g, elems, res.elements, gamma).verdict == \
            cert.verdict                        # reproducible

    made = 0
    while made < 100:
        elems = tuple(rng.sample(frag, 2))
        srt = sort_elements(elems)
        if made % 2 == 0:
            # order-pattern mismatch, detected at every level
            cert = lg_certify(g, (srt[0], srt[1]), (srt[1], srt[0]),
                              rng.randrange(0, 3))
        else:
            # block-position mismatch, detected from level 2 on
            x = srt[0]
            m, k = block_of(g, x)
            if m < 2:
                continue
            other = x.__class__(x.rs, x.qs, (k + 1) % m)
            cert = lg_certify(g, (x,), (other,), 2)
        assert cert.verdict == "Distinguished"
        made += 1

    # concatenation rule: positive case, and no Equivalent without a
    # certified pair of halves and witnessed separators
    left = (frag[2], frag[5])
    b2 = shift_tuple(g, (frag[40], frag[50]), frag[-1], "right").elements
    c2 = shift_tuple(g, (frag[40], frag[50]),
                     sort_elements(b2)[-1], "right").elements
    assert lg_concat_certify(g, (left, b2), (left, c2), 1).verdict == \
        "Equivalent"
    # same-block adjacent halves leave no room for a length-2 separator
    from structcode.denseq import Dyadic
    x = fs_element(g, [Dyadic(1, 2), Dyadic(1, 1), Dyadic(3, 2), 0])
    y = fs_element(g, [x.rs[0], x.qs[0], x.rs[1], 1])
    cert = lg_concat_certify(g, ((x,), (y,)), ((x,), (y,)), 1)
    assert cert.verdict != "Equivalent"
    mismatch = lg_concat_certify(g, (left, b2),
                                 ((frag[5], frag[2]), c2), 0)
    assert mismatch.verdict != "Equivalent"


# ---------------------------------------------------------------------------
# 10: interpretation checking


def test_10a_int_window_at_n20():
    carrier, spec, target = builtin_int_in_nat(20)
    rep = check_interpretation(carrier, spec, target, max_arity=3, seed=0)
    assert rep.passed
    assert rep.class_count == 41
    assert rep.iso is not None


def test_10b_congruence_fault_detected():
    from structcode.core import And, Eq, Exists, Rel
    carrier, spec, target = builtin_int_in_nat(5)
    # "sum" of two pairs judged on first components only: complementary but
    # not invariant under the difference equivalence
    bad_pos = Exists(("_s",), And((Rel("plus", ("t1_1", "t2_1", "_s")),
                                   Eq("_s", "t3_1"))))
    faulty = InterpretationSpec(
        domain=spec.domain, sim_pos=spec.sim_pos, sim_neg=spec.sim_neg,
        rel_pos={"plus": {(2, 2, 2): bad_pos}, "times": spec.rel_pos["times"]},
        rel_neg={"plus": {(2, 2, 2): Not(bad_pos)},
                 "times": spec.rel_neg["times"]},
        target_signature=spec.target_signature)
    rep = check_interpretation(carrier, faulty, target, max_arity=3, seed=0)
    assert not rep.passed
    witnesses = [w for kind, w in rep.failures
                 if kind == "plus-not-congruent"]
    assert witnesses
    args, alts = witnesses[0]
    assert args != alts


def test_10c_trivial_interp_random_targets():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randrange(1, 5)
        a = random_digraph(rng, n, p=0.5)
        carrier = FinLinOrder(range(rng.randrange(1, 4)))
        spec, rep = trivial_interp(a, carrier)
        assert rep.passed
        assert rep.class_count == n


def test_10d_marker_spec_checks_out():
    for g in small_classes():
        carrier, spec, target = marker_interp(g)
        rep = check_interpretation(carrier, spec, target, max_arity=2)
        assert rep.passed, (g.key(), rep.failures[:2])
        assert rep.class_count == len(g.universe)


# ---------------------------------------------------------------------------
# 11: daisy and shuffle codings


def test_11_codings_round_trip_and_census():
    rng = random.Random(111)
    for _ in range(100):
        bound = rng.randrange(1, 17)
        s = {n for n in range(bound) if rng.random() < 0.5}
        assert daisy_decode(daisy_encode(s, bound)) == (s, bound)
    for bits in itertools.product([0, 1], repeat=5):
        s = {n for n, b in enumerate(bits) if b}
        frag = shuffle_encode_set(s, 5)
        assert shuffle_decode_set(frag, 5) == s
        expected = set(frag.labels) | {OMEGA}
        for seen in census(frag, scale=1).values():
            assert seen == expected


# ---------------------------------------------------------------------------
# 12: CLI determinism


def test_12_cli_goldens_byte_stable():
    from test_cli import GOLDEN, GOLDEN_CASES, run
    for name, argv in sorted(GOLDEN_CASES.items()):
        runs = [run(list(argv)) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][1] == (GOLDEN / name).read_text()
