"""Members of the coded order, comparison, shapes, defining formulas, shifts."""

import copy
import functools
import hashlib
import itertools
import pickle
import random

import pytest

from structcode.core import (Digraph, FinLinOrder, MalformedInputError,
                             PreconditionError, classify, eval_formula,
                             type_start_index)
from structcode.denseq import Dyadic, color
from structcode.formats import element_items_from_json, parse_formula
from structcode.fslin import (FSElement, Shape, apply_first_coord_map,
                              block_of, fs_compare, fs_element, fs_enumerate,
                              fs_member, in_block_any_position,
                              in_block_formula, lg_certify,
                              lg_concat_certify, mentions,
                              min_length_in_interval, shape, shape_formulas,
                              shift_tuple, sort_elements)

D = Dyadic


def edge_graph():
    return Digraph([0, 1], [(0, 1)])


class TestMembership:
    def test_minimal_member(self):
        g = edge_graph()
        e = fs_element(g, [D(3, 2), 0])
        assert e.half_length == 0 and e.length == 2
        assert mentions(e) == ()
        assert block_of(g, e) == (1, 0)

    def test_member_with_one_vertex(self):
        g = edge_graph()
        e = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 1])
        assert mentions(e) == (0,)
        assert block_of(g, e) == (2, 1)

    def test_rejections(self):
        g = edge_graph()
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(1, 1)])                    # odd length
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(1, 1), -1])                # negative tail
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(3, 2), D(1, 1), D(3, 2), 0])  # r0 has colour 1
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(1, 2), D(1, 1), D(1, 2), 0])  # last r has colour 0
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(1, 2), D(7, 3), D(3, 2), 0])  # colour 2: no vertex
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(1, 2), D(1, 1), D(1, 3), D(5, 3), D(3, 2), 0])
            # two coordinates of colour 0 mention vertex 0 twice
        with pytest.raises(MalformedInputError):
            fs_element(g, [D(1, 1), 1])                 # tail not below index
        with pytest.raises(MalformedInputError) as err:
            fs_element(g, [1, 0])                       # coordinate not dyadic
        assert str(err.value) == "all entries before the tail must be dyadics"

    def test_tail_bound_follows_type_index(self):
        g = edge_graph()
        # mentions (0, 1): the pair is an edge, some type index m > 4
        e = fs_element(g, [D(1, 2), D(1, 1), D(1, 3), D(3, 2), D(11, 4), 3])
        m, k = block_of(g, e)
        assert k == 3 < m
        assert not fs_member(
            g, [D(1, 2), D(1, 1), D(1, 3), D(3, 2), D(11, 4), m])

    def test_fs_member(self):
        g = edge_graph()
        assert fs_member(g, [D(3, 2), 0])
        assert not fs_member(g, [D(3, 2), "x"])


class TestCompare:
    def test_lexicographic(self):
        g = edge_graph()
        a = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        b = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 1])
        c = fs_element(g, [D(3, 2), 0])
        assert fs_compare(a, b) == -1
        assert fs_compare(b, a) == 1
        assert fs_compare(a, a) == 0
        assert fs_compare(a, c) == -1       # 1/4 < 3/4 decides at once
        assert sort_elements([c, b, a]) == [a, b, c]

    def test_incomparable_raises(self):
        g = edge_graph()
        # genuine members cannot diverge tail-against-dyadic, so build raw
        a = FSElement((D(1, 1),), (), 0)
        b = FSElement((D(1, 1), D(3, 2)), (D(1, 2),), 0)
        with pytest.raises(MalformedInputError):
            fs_compare(a, b)

    def test_extension_raises(self):
        a = FSElement._make((D(1, 1), 0))
        with pytest.raises(MalformedInputError) as err:
            fs_compare(a, FSElement._make(a + (0, 0)))
        assert str(err.value) == "one member sequence extends the other"


class TestEnumerate:
    def test_sorted_distinct_members(self):
        g = edge_graph()
        frag = fs_enumerate(g, 1, 3)
        assert len(frag) == 98
        for a, b in zip(frag, frag[1:]):
            assert fs_compare(a, b) == -1
        for e in frag:
            assert fs_member(g, e.seq())

    def test_completeness(self):
        g = edge_graph()
        frag = set(fs_enumerate(g, 1, 2))
        # spot-check: every half-length <= 1 member with exponents <= 2 is there
        assert FSElement((D(3, 2),), (), 0) in frag
        assert FSElement((D(1, 2), D(3, 2)), (D(1, 1),), 1) in frag
        assert FSElement((D(1, 1),), (), 0) not in frag  # colour 0 required

    @pytest.mark.parametrize("caps", [(-1, 3), (1, -3), (-1, -1)])
    def test_negative_caps_raise(self, caps):
        with pytest.raises(PreconditionError):
            fs_enumerate(edge_graph(), *caps)


def naive_enumerate(g, max_half_len, max_exponent):
    """Every sequence within the caps that fs_member accepts, as sorted
    tuples."""
    points = [D(a, k) for k in range(1, max_exponent + 1)
              for a in range(1, 1 << k, 2)]
    out = []
    for n in range(max_half_len + 1):
        for coords in itertools.product(points, repeat=2 * n + 1):
            # the tail bound is at least 1, so no tail fits when 0 does not
            if fs_member(g, coords + (0,)):
                out += [coords + (k,) for k in range(type_start_index(n + 1))
                        if fs_member(g, coords + (k,))]
    return sorted(out)


ENUMERATE_GRAPHS = [
    Digraph([], []), Digraph([0], []), Digraph([0, 1], []),
    Digraph([0, 1], [(0, 1)]),
    Digraph([0, 1], [(0, 1), (1, 0)]), Digraph([0, 1, 2], []),
    Digraph([0, 1, 2], [(0, 1), (1, 2)]),
    Digraph([0, 1, 2], [(0, 1), (1, 2), (2, 0)]),
    Digraph(["a", "b"], [("a", "b")])]


class TestEnumerateDifferential:
    # (3, 1) and (3, 2) cap the half length above the vertex count of every
    # graph here but the 3-vertex ones; exponent 1 gives no colour-1 point,
    # and a zero cap is kept
    @pytest.mark.parametrize("caps", [(2, 3), (1, 4), (3, 1), (3, 2), (0, 3),
                                      (1, 0)])
    @pytest.mark.parametrize("g", ENUMERATE_GRAPHS, ids=lambda g: str(
        (sorted(g.universe), sorted(g.relations["E"]))))
    def test_matches_naive_reference(self, g, caps):
        frag = fs_enumerate(g, *caps)
        assert frag == naive_enumerate(g, *caps)
        for a, b in zip(frag, frag[1:]):
            assert fs_compare(a, b) == -1


class TestElementValue:
    RS, QS = (D(1, 2), D(3, 2)), (D(1, 1),)

    def test_constructor_round_trip(self):
        e = FSElement(self.RS, self.QS, 1)
        assert (e.rs, e.qs, e.tail) == (self.RS, self.QS, 1)
        assert e.seq() == [D(1, 2), D(1, 1), D(3, 2), 1]
        assert str(e) == "[1/4, 1/2, 3/4, 1]"
        assert (e.half_length, e.length) == (1, 4)
        assert eval(repr(e), {"FSElement": FSElement, "Dyadic": D}) == e

    def test_copies_and_pickles_are_equal_elements(self):
        e = FSElement(self.RS, self.QS, 1)
        copies = [copy.copy(e), copy.deepcopy(e)] + [
            pickle.loads(pickle.dumps(e, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is FSElement and c == e
            assert (c.rs, c.qs, c.tail) == (e.rs, e.qs, e.tail)

    def test_sort_agrees_with_fs_compare(self):
        frag = fs_enumerate(Digraph([0, 1, 2], [(0, 1), (1, 2)]), 2, 3)
        rng = random.Random(17)
        for _ in range(50):
            sample = rng.sample(frag, 20)
            assert sort_elements(sample) == sorted(
                sample, key=functools.cmp_to_key(fs_compare))


class TestMinLength:
    def test_equal_endpoints(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        assert min_length_in_interval(g, x, x) == (1, x)

    def test_same_block(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        b = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 1])
        assert min_length_in_interval(g, x, b) == (1, x)

    def test_even_divergence(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        y = fs_element(g, [D(3, 2), 0])
        k, w = min_length_in_interval(g, x, y)
        assert k == 0
        assert w == FSElement((D(3, 3),), (), 0)    # [3/8, 0]

    def test_odd_divergence(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 3), D(3, 2), 0])
        y = fs_element(g, [D(1, 2), D(3, 3), D(3, 2), 0])
        k, w = min_length_in_interval(g, x, y)
        assert k == 1
        # witness [1/4, 1/8, 27/32, 0]
        assert w == FSElement((D(1, 2), D(27, 5)), (D(1, 3),), 0)

    def test_witness_always_in_interval_with_min_length(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        rng = random.Random(5)
        frag = fs_enumerate(g, 1, 3)
        for _ in range(150):
            x, y = sorted(rng.sample(frag, 2), key=lambda e: frag.index(e))
            k, w = min_length_in_interval(g, x, y)
            assert w.half_length == k
            assert fs_member(g, w.seq())
            assert fs_compare(x, w) <= 0 <= fs_compare(y, w)
            # no fragment member of the closed interval is shorter
            lo, hi = frag.index(x), frag.index(y)
            assert all(e.half_length >= k for e in frag[lo:hi + 1])

    def test_out_of_order_raises(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        y = fs_element(g, [D(3, 2), 0])
        with pytest.raises(PreconditionError):
            min_length_in_interval(g, y, x)


class TestShape:
    def test_example(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 0])
        b = fs_element(g, [D(1, 2), D(1, 1), D(3, 2), 1])
        s = shape(g, (b, x))
        assert s == Shape(order=(1, 0), gaps=(0,), blocks=((2, 0), (2, 1)),
                          half_lengths=(1, 1), min_half=(1,))

    def test_infinite_gap(self):
        g = edge_graph()
        x = fs_element(g, [D(1, 2), D(1, 3), D(3, 2), 0])
        y = fs_element(g, [D(1, 2), D(3, 3), D(3, 2), 0])
        s = shape(g, (x, y))
        assert s.gaps == (None,)

    def test_rejects_repeats_and_empty(self):
        g = edge_graph()
        x = fs_element(g, [D(3, 2), 0])
        with pytest.raises(PreconditionError):
            shape(g, (x, x))
        with pytest.raises(PreconditionError):
            shape(g, ())

    def test_invariant_under_first_coordinate_maps(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        rng = random.Random(9)
        frag = fs_enumerate(g, 1, 3)
        for _ in range(40):
            elems = rng.sample(frag, 3)
            s = shape(g, elems)
            anchor = rng.choice(frag)
            res = shift_tuple(g, elems, anchor, rng.choice(["left", "right"]))
            assert shape(g, res.elements) == s


class TestShapeFormulas:
    def test_levels(self):
        g = Digraph([0, 1, 2], [(0, 1), (1, 2)])
        rng = random.Random(13)
        frag = fs_enumerate(g, 1, 3)
        for _ in range(10):
            elems = rng.sample(frag, rng.randrange(1, 4))
            try:
                s = shape(g, elems)
            except PreconditionError:
                continue
            fb = shape_formulas(s)
            assert classify(fb.sigma) == ("sigma", 4)
            assert classify(fb.pi) == ("pi", 4)

    def test_block_formula_levels(self):
        assert classify(in_block_formula("x", 3, 1, "t")) == ("sigma", 3)
        assert classify(in_block_any_position("x", 2, "t")) == ("sigma", 3)

    @pytest.mark.parametrize("tails, gap", [((0, 1), 0), ((0, 3), 2)])
    def test_same_block_gap(self, tails, gap):
        # a block of 8 members: its pairs take the finite-gap branch
        g = edge_graph()
        block = [fs_element(g, element_items_from_json(
                     ["1/8", "1/8", "1/8", "3/8", "3/8", k])) for k in range(8)]
        s = shape(g, [block[k] for k in tails])
        assert s.gaps == (gap,)
        fb = shape_formulas(s)
        assert classify(fb.sigma) == ("sigma", 4)
        assert classify(fb.pi) == ("pi", 4)
        for phi in (fb.sigma, fb.pi):
            assert parse_formula(str(phi)) == phi
        # the Pi bundle's gap conjuncts, read on the block alone
        gap_parts = [p for p in fb.pi.parts if "g0_" in str(p)]
        assert len(gap_parts) == (1 if gap == 0 else 2)
        order = FinLinOrder(block)
        lo, hi = tails

        def holds(x2):
            env = {"x1": block[lo], "x2": block[x2]}
            return all(eval_formula(order, p, env) for p in gap_parts)

        assert holds(hi)
        assert not holds(hi + 1)

    def test_positive_gap_bundles_are_pinned(self):
        # sha256 of str(sigma) and str(pi) for the gap-1 pair of the 8-block,
        # recorded with the separate Sigma and Pi component lists that
        # shape_formulas kept before it built one component list (67,140
        # and 67,221 characters)
        g = edge_graph()
        a, b = (fs_element(g, element_items_from_json(
                    ["1/8", "1/8", "1/8", "3/8", "3/8", k])) for k in (0, 2))
        fb = shape_formulas(shape(g, (a, b)))
        assert [hashlib.sha256(str(phi).encode()).hexdigest()
                for phi in (fb.sigma, fb.pi)] == [
            "3d3463c39fbde11333d9913f7e4cccfd9627029e9da3a7327be0e47e3d125bd6",
            "d4b9e14be15e9e3e96c2a7eeb56175ab4c43ba63ac45ca1734baaf7884ebc379"]


class TestCertifierPreconditions:
    @pytest.mark.parametrize("call, message", [
        (lambda g, f: lg_certify(g, (f[2],), (), 1),
         "tuples must have equal length"),
        (lambda g, f: lg_concat_certify(g, ((f[2],), ()),
                                        ((f[2],), (f[7],)), 1),
         "both parts must be nonempty"),
        (lambda g, f: lg_concat_certify(g, ((f[7],), (f[2],)),
                                        ((f[2],), (f[7],)), 1),
         "first part must lie wholly left of second")])
    def test_rejections(self, call, message):
        g = edge_graph()
        with pytest.raises(PreconditionError) as err:
            call(g, fs_enumerate(g, 1, 3))
        assert str(err.value) == message


class TestShift:
    def test_right_shift(self):
        g = edge_graph()
        frag = fs_enumerate(g, 1, 2)
        elems = (frag[2], frag[10], frag[5])
        c = frag[-1]
        res = shift_tuple(g, elems, c, "right")
        assert fs_member(g, res.separator.seq())
        assert res.separator.half_length == 0      # length-2 separator
        assert fs_compare(c, res.separator) == -1
        for e in res.elements:
            assert fs_member(g, e.seq())
            assert fs_compare(res.separator, e) == -1
        assert shape(g, res.elements) == shape(g, elems)

    def test_left_shift(self):
        g = edge_graph()
        frag = fs_enumerate(g, 1, 2)
        elems = (frag[-1], frag[3])
        c = frag[0]
        res = shift_tuple(g, elems, c, "left")
        assert fs_compare(res.separator, c) == -1
        for e in res.elements:
            assert fs_compare(e, res.separator) == -1
        assert shape(g, res.elements) == shape(g, elems)

    def test_map_preserves_colour(self):
        g = edge_graph()
        frag = fs_enumerate(g, 1, 2)
        res = shift_tuple(g, (frag[4],), frag[8])
        for src, img in res.map.seeds.items():
            assert color(src) == color(img)

    def test_bad_side(self):
        g = edge_graph()
        e = fs_element(g, [D(3, 2), 0])
        with pytest.raises(PreconditionError):
            shift_tuple(g, (e,), e, "up")
