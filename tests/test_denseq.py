"""Dyadic carrier, colour classes, canonical interval points, order maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcode.core import PreconditionError
from structcode.denseq import (ColorOrderMap, ConstraintError, Dyadic,
                               between, color, simplest_between)


def dyadics(max_exp=8):
    return st.integers(1, max_exp).flatmap(
        lambda k: st.integers(0, (1 << (k - 1)) - 1).map(
            lambda i: Dyadic(2 * i + 1, k)))


class TestDyadic:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            Dyadic(2, 2)
        with pytest.raises(PreconditionError):
            Dyadic(5, 2)
        with pytest.raises(PreconditionError):
            Dyadic(1, 0)

    def test_order(self):
        assert Dyadic(1, 2) < Dyadic(1, 1) < Dyadic(3, 2)
        assert Dyadic(1, 1) == Dyadic(1, 1)

    def test_parse_and_str(self):
        assert Dyadic.parse("3/8") == Dyadic(3, 3)
        assert Dyadic.parse("2/4") == Dyadic(1, 1)
        assert str(Dyadic(3, 3)) == "3/8"
        with pytest.raises(PreconditionError):
            Dyadic.parse("1/3")
        with pytest.raises(PreconditionError):
            Dyadic.parse("x")


class TestColor:
    def test_examples(self):
        assert color(Dyadic(1, 1)) == 0
        assert color(Dyadic(3, 2)) == 1
        assert color(Dyadic(7, 3)) == 2
        assert color(Dyadic(5, 3)) == 0
        assert color(Dyadic(11, 4)) == 1

    @given(dyadics())
    def test_color_from_numerator_run(self, d):
        n = color(d)
        assert n >= 0
        assert d.num % (1 << (n + 2)) == (1 << (n + 1)) - 1


class TestBetween:
    @given(dyadics(6), dyadics(6), st.integers(0, 3))
    def test_contract(self, a, b, n):
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        d = between(lo, hi, n)
        assert lo < d < hi
        assert color(d) == n

    @given(dyadics(6), st.integers(0, 3))
    def test_open_ends(self, a, n):
        left = between(None, a, n)
        right = between(a, None, n)
        assert left < a < right
        assert color(left) == n and color(right) == n

    def test_canonical_values(self):
        assert between(None, None, 0) == Dyadic(1, 1)
        assert between(None, None, 1) == Dyadic(3, 2)
        assert between(Dyadic(1, 1), None, 0) == Dyadic(5, 3)
        assert between(None, Dyadic(1, 1), 1) == Dyadic(3, 3)

    def test_minimality(self):
        # least exponent, then least numerator, among colour-n points inside
        lo, hi = Dyadic(1, 2), Dyadic(3, 3)
        d = between(lo, hi, 0)
        for k in range(1, d.exp + 1):
            for a in range(1, 1 << k, 2):
                c = Dyadic(a, k)
                if lo < c < hi and color(c) == 0:
                    assert (k, a) >= (d.exp, d.num)

    def test_empty_interval(self):
        with pytest.raises(PreconditionError):
            between(Dyadic(1, 1), Dyadic(1, 1), 0)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_colour(self, n):
        with pytest.raises(PreconditionError, match="negative"):
            between(None, None, n)

    @given(dyadics(6), dyadics(6))
    def test_simplest_between_contract(self, a, b):
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        d = simplest_between(lo, hi)
        assert lo < d < hi
        for k in range(1, d.exp):
            for num in range(1, 1 << k, 2):
                assert not lo < Dyadic(num, k) < hi
        # and the least numerator at the exponent found
        for num in range(1, d.num, 2):
            assert not lo < Dyadic(num, d.exp) < hi


class TestColorOrderMap:
    def test_seed_validation(self):
        with pytest.raises(ConstraintError):
            ColorOrderMap({Dyadic(1, 1): Dyadic(3, 2)})  # colour change
        with pytest.raises(ConstraintError):
            ColorOrderMap({Dyadic(1, 2): Dyadic(3, 3),
                           Dyadic(3, 2): Dyadic(1, 3)})  # colour change
        with pytest.raises(ConstraintError) as err:
            ColorOrderMap({Dyadic(1, 2): Dyadic(5, 3),
                           Dyadic(3, 2): Dyadic(3, 3)})  # order reversal
        assert str(err.value) == "images of 1/4 and 3/4 are not increasing"

    def test_seeds_are_fixed(self):
        m = ColorOrderMap({Dyadic(1, 2): Dyadic(1, 1)})
        assert m.image(Dyadic(1, 2)) == Dyadic(1, 1)

    def test_empty_map_is_identityish(self):
        # with no seeds the canonical extension fixes the canonical points
        m = ColorOrderMap()
        assert m.image(Dyadic(1, 1)) == Dyadic(1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(dyadics(5), st.integers(0, 2), max_size=3),
           st.lists(dyadics(7), min_size=1, max_size=6))
    def test_extension_monotone_and_color_preserving(self, seed_src, queries):
        # build a valid seed map: sorted sources to fresh increasing images
        srcs = sorted(seed_src)
        seeds = {}
        prev = None
        for s in srcs:
            img = between(prev, None, color(s))
            seeds[s] = img
            prev = img
        m = ColorOrderMap(seeds)
        imgs = [m.image(q) for q in queries]
        for q, i in zip(queries, imgs):
            assert color(i) == color(q)
        for q1, i1 in zip(queries, imgs):
            for q2, i2 in zip(queries, imgs):
                assert (q1 < q2) == (i1 < i2)
                assert (q1 == q2) == (i1 == i2)
            for s in srcs:
                assert (q1 < s) == (i1 < seeds[s])

    def test_query_order_independent(self):
        seeds = {Dyadic(1, 2): Dyadic(1, 1)}
        qs = [Dyadic(3, 2), Dyadic(1, 3), Dyadic(7, 3), Dyadic(5, 4)]
        a = [ColorOrderMap(seeds).image(q) for q in qs]
        b = [ColorOrderMap(seeds).image(q) for q in reversed(qs)]
        assert a == list(reversed(b))
