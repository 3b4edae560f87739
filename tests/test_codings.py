"""Daisy graphs and shuffle fragments: encoding, decoding, censuses."""

import itertools
import random

import pytest

from structcode.codings import (OFFSET, OMEGA, Block, ShuffleFragment, census,
                                daisy_decode, daisy_encode, index_points,
                                min_resolution, shuffle_build, shuffle_decode,
                                shuffle_decode_set, shuffle_encode_set)
from structcode.core import MalformedInputError, PreconditionError, UGraph
from structcode.denseq import Dyadic


class TestDaisy:
    def test_round_trip_all_prefixes(self):
        for bound in range(1, 5):
            for bits in itertools.product([0, 1], repeat=bound):
                s = {n for n, b in enumerate(bits) if b}
                assert daisy_decode(daisy_encode(s, bound)) == (s, bound)

    def test_petal_sizes(self):
        g = daisy_encode({0, 2}, 3)
        # edges: in -> 2n+3, out -> 2n+4 : 3 + 6 + 7
        assert len(g.undirected_edges()) == 16

    def test_round_trip_relabeled(self):
        rng = random.Random(4)
        for _ in range(20):
            bound = rng.randrange(1, 6)
            s = {n for n in range(bound) if rng.random() < 0.5}
            g = daisy_encode(s, bound)
            perm = list(g.vertices)
            rng.shuffle(perm)
            ren = dict(zip(g.vertices, perm))
            h = UGraph(perm, [(ren[u], ren[v]) for u, v in
                              map(tuple, g.undirected_edges())])
            assert daisy_decode(h) == (s, bound)

    def test_single_petal_cycles(self):
        assert daisy_decode(daisy_encode({0}, 1)) == ({0}, 1)
        assert daisy_decode(daisy_encode(set(), 1)) == (set(), 1)

    @pytest.mark.parametrize("edges, message", [
        # a path has no vertex of degree above 2 and is not a cycle
        ([(0, 1), (1, 2)], "not a daisy: no center and not a cycle"),
        # a triangle, a 4-cycle and the dangling path 0-5-6
        ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6)],
         "petal does not close through the center"),
        # petals of 3 and 7 edges code n = 0 and n = 2 but not n = 1
        ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7),
          (7, 8), (8, 0)], "petal indices [0, 2] are not an initial segment")])
    def test_malformed_daisies(self, edges, message):
        vertices = sorted({v for e in edges for v in e})
        with pytest.raises(MalformedInputError) as err:
            daisy_decode(UGraph(vertices, edges))
        assert str(err.value) == message

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            daisy_encode(set(), 0)
        with pytest.raises(MalformedInputError):
            daisy_decode(UGraph([0, 1, 2, 3, 4],
                                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        # two centers: a theta-like multigadget
        with pytest.raises(MalformedInputError):
            daisy_decode(UGraph(range(6), [(0, 1), (1, 2), (2, 0),
                                           (0, 3), (3, 1), (0, 4), (4, 5),
                                           (5, 1)]))


class TestShuffleBuild:
    def test_min_resolution(self):
        assert min_resolution(1) == 2
        assert min_resolution(2) == 3
        assert min_resolution(4) == 4
        assert min_resolution(5) == 5
        with pytest.raises(PreconditionError):
            min_resolution(0)

    def test_min_resolution_is_exact_around_powers_of_two(self):
        # 2 + the least e with 2**e >= n; a float log2 is off from
        # n = 2**53 + 1 on
        for k in range(71):
            cases = [(2 ** k, k), (2 ** k + 1, k + 1)]
            if k >= 2:
                cases.append((2 ** k - 1, k))
            for n, e in cases:
                assert min_resolution(n) == e + 2, n

    def test_index_points_sorted_complete(self):
        pts = index_points(3)
        assert len(pts) == 7
        assert pts == sorted(pts)
        assert Dyadic(3, 3) in pts

    def test_block_sizes_and_marks(self):
        frag = shuffle_build([0, 3], True, 4)
        assert frag.offset == OFFSET
        for blk in frag.blocks:
            if blk.omega_prefix:
                assert blk.label == OMEGA
                assert blk.size == 3 + OFFSET + 4   # longest finite + resolution
            else:
                assert blk.size == blk.label + OFFSET

    def test_rejects_low_resolution(self):
        with pytest.raises(PreconditionError):
            shuffle_build([0, 1, 2], True, 3)

    def test_rejects_bad_labels(self):
        with pytest.raises(PreconditionError):
            shuffle_build([-1], False, 4)

    def test_census_dense(self):
        frag = shuffle_build([0, 1, 4], True, 5)
        want = {0, 1, 4, OMEGA}
        for seen in census(frag, scale=1).values():
            assert seen == want

    def test_census_negative_scale(self):
        with pytest.raises(PreconditionError):
            census(shuffle_build([0], True, 3), scale=-1)

    def test_census_exact_near_midpoint(self):
        # (2**60 - 1) / 2**61 lies below 1/2, but rounds to 1/2 as a float
        blk = Block(Dyadic(2**60 - 1, 61), 0, OFFSET, False)
        frag = ShuffleFragment((0,), False, 61, OFFSET, (blk,))
        assert census(frag, scale=1) == {(0, 1): {0}, (1, 1): set()}

    def test_order_lines_shape(self):
        frag = shuffle_build([1], False, 3)
        lines = frag.order_lines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + len(frag.blocks)
        assert all(line.startswith("o ") for line in lines[1:])


class TestShuffleDecode:
    def test_set_round_trip(self):
        for bound in range(1, 5):
            for bits in itertools.product([0, 1], repeat=bound):
                s = {n for n, b in enumerate(bits) if b}
                frag = shuffle_encode_set(s, bound)
                assert shuffle_decode_set(frag, bound) == s

    def test_report_shape(self):
        rep = shuffle_decode(shuffle_encode_set({1}, 2))
        assert rep[0]["verdict"] == "out"
        assert rep[1]["verdict"] == "in"
        assert all(v["provisional"] for v in rep.values())

    def test_unmarked_refused(self):
        frag = shuffle_encode_set({0}, 1)
        bare = ShuffleFragment(frag.labels, frag.include_omega,
                               frag.resolution, frag.offset, frag.blocks,
                               marked=False)
        with pytest.raises(MalformedInputError):
            shuffle_decode(bare)

    def test_conflicting_labels_refused(self):
        frag = shuffle_build([2, 3], False, 4)   # attests 1 both in and out
        with pytest.raises(MalformedInputError):
            shuffle_decode(frag)

    def test_undersized_block_refused(self):
        blk = Block(Dyadic(1, 1), 0, 1, False)
        frag = ShuffleFragment((0,), False, 2, OFFSET, (blk,))
        with pytest.raises(MalformedInputError):
            shuffle_decode(frag)
