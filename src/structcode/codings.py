"""Two coding gadgets: daisy graphs and finite shuffle-sum fragments.

A daisy codes a finite characteristic prefix of a set of naturals into
cycle lengths: one central vertex with, for each n below the bound, a
cycle through the center of 2n+3 edges when n is in the set and 2n+4
edges when it is not.

A shuffle fragment materializes a finite stage of a dense shuffle of
block orderings indexed by dyadic points: every label is assigned to
densely many index points, blocks of label L have L + 2 elements (the
uniform +2 offset keeps the degenerate empty block out of the coding),
and infinite blocks appear as finite prefixes carrying an explicit
marker.  Decoding block sizes back to set membership is therefore
provisional by construction: it reports what the finite stage shows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import MalformedInputError, PreconditionError, UGraph
from .denseq import Dyadic, index_points

OFFSET = 2          # block size = label + OFFSET
OMEGA = "omega"


# ---------------------------------------------------------------------------
# daisies


def daisy_encode(s, bound):
    """Daisy graph for the prefix s of a set of naturals, below the bound."""
    if bound < 1:
        raise PreconditionError("bound must be at least 1")
    s = set(s)
    center = 0
    vertices = [center]
    edges = []
    fresh = itertools.count(1)
    for n in range(bound):
        length = 2 * n + 3 if n in s else 2 * n + 4
        path = [next(fresh) for _ in range(length - 1)]
        vertices += path
        cycle = [center] + path
        edges += [(cycle[i], cycle[i + 1]) for i in range(len(cycle) - 1)]
        edges.append((cycle[-1], center))
    return UGraph(vertices, edges)


def _petal_components(g, center):
    """Split off the center and return the remaining connected pieces."""
    rest = set(g.universe) - {center}
    comps = []
    while rest:
        seed = rest.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w in rest:
                    rest.discard(w)
                    comp.add(w)
                    frontier.append(w)
        comps.append(comp)
    return comps


def daisy_decode(h):
    """Recover (set prefix, bound) from a daisy graph.

    Works on any isomorphic copy: the center is the unique vertex of
    degree above 2 when there are several petals, and a bare 3- or
    4-cycle is read as the single-petal case.
    """
    degs = {v: len(h.neighbors(v)) for v in h.universe}
    high = [v for v, d in degs.items() if d > 2]
    if not high:
        # a single petal: the whole graph is one cycle
        n_v = len(h.universe)
        if not n_v or any(d != 2 for d in degs.values()):
            raise MalformedInputError("not a daisy: no center and not a cycle")
        if len(h.undirected_edges()) != n_v or n_v not in (3, 4):
            raise MalformedInputError("single cycle is not a petal length for n=0")
        return ({0} if n_v == 3 else set()), 1
    if len(high) != 1:
        raise MalformedInputError("no unique center vertex")
    center = high[0]
    lengths = []
    for comp in _petal_components(h, center):
        ends = [v for v in comp if center in h.neighbors(v)]
        inner_bad = any(len(h.neighbors(v)) != 2 for v in comp)
        if len(ends) != 2 and not (len(comp) == 1 and len(ends) == 1):
            raise MalformedInputError("petal does not close through the center")
        if inner_bad:
            raise MalformedInputError("petal is not a simple cycle")
        edge_count = len(comp) + 1
        lengths.append(edge_count)
    s = set()
    seen = set()
    for length in lengths:
        n = (length - 3) // 2
        if length % 2 == 1:
            s.add(n)
        seen.add(n)
    bound = len(lengths)
    if seen != set(range(bound)):
        raise MalformedInputError(f"petal indices {sorted(seen)} are not an "
                                  f"initial segment")
    return s, bound


# ---------------------------------------------------------------------------
# shuffle fragments


@dataclass(frozen=True)
class Block:
    point: Dyadic          # index point in (0, 1)
    label: object          # natural number or OMEGA
    size: int              # materialized element count
    omega_prefix: bool


@dataclass(frozen=True)
class ShuffleFragment:
    labels: tuple          # finite labels, sorted
    include_omega: bool
    resolution: int
    offset: int
    blocks: tuple          # Block records in index order
    marked: bool = True

    def order_lines(self):
        """The materialized order as annotated text lines."""
        out = [f"# labels={list(self.labels)} omega={self.include_omega} "
               f"resolution={self.resolution} offset={self.offset}"]
        counter = itertools.count()
        for blk in self.blocks:
            ids = [next(counter) for _ in range(blk.size)]
            tag = "w" if blk.omega_prefix else str(blk.label)
            out.append(f"o {' '.join(str(i) for i in ids)}  # {blk.point} {tag}")
        return out


def min_resolution(label_count):
    """Least resolution at which round-robin assignment is dense at scale 1."""
    if label_count < 1:
        raise PreconditionError("at least one label required")
    return (label_count - 1).bit_length() + 2


def shuffle_build(labels, include_omega, resolution):
    """Assign labels round-robin to index points and materialize blocks.

    Within each exponent row the odd numerators are cyclically labeled, so
    any dyadic sub-interval wide enough to hold one full cycle of a row
    contains every label; ``min_resolution`` is the smallest resolution
    making that true for the half-intervals.
    """
    labels = tuple(sorted(set(labels)))
    if any(not isinstance(x, int) or x < 0 for x in labels):
        raise PreconditionError("labels must be naturals")
    seq = list(labels) + ([OMEGA] if include_omega else [])
    if resolution < min_resolution(len(seq)):
        raise PreconditionError(
            f"resolution {resolution} below minimum {min_resolution(len(seq))}")
    max_size = max([ln + OFFSET for ln in labels], default=OFFSET)
    omega_len = max_size + resolution
    blocks = []
    for pt in index_points(resolution):
        lab = seq[((pt.num - 1) // 2) % len(seq)]
        if lab == OMEGA:
            blocks.append(Block(pt, OMEGA, omega_len, True))
        else:
            blocks.append(Block(pt, lab, lab + OFFSET, False))
    return ShuffleFragment(labels, include_omega, resolution, OFFSET,
                           tuple(blocks))


def census(fragment, scale=1):
    """Labels present in each dyadic sub-interval [c, c+1) / 2**scale."""
    if scale < 0:
        raise PreconditionError(f"scale {scale} is negative")
    out = {}
    for c in range(1 << scale):
        seen = set()
        for blk in fragment.blocks:
            num, exp = blk.point.num, blk.point.exp
            # c / 2**scale <= num / 2**exp < (c+1) / 2**scale, in integers
            if c << exp <= num << scale < (c + 1) << exp:
                seen.add(blk.label)
        out[(c, scale)] = seen
    return out


def shuffle_decode(fragment):
    """Provisional membership report from observed block sizes.

    Uses the even/odd label convention: label 2n attests n in, label 2n+1
    attests n out.  Marked prefixes of infinite blocks are skipped; the
    report is flagged provisional because a finite fragment can only show
    what has appeared so far.
    """
    if not fragment.marked:
        raise MalformedInputError("fragment lacks prefix markers")
    observed = set()
    for blk in fragment.blocks:
        if blk.omega_prefix:
            continue
        if blk.size < fragment.offset:
            raise MalformedInputError(f"block of size {blk.size} below offset")
        observed.add(blk.size - fragment.offset)
    report = {}
    top = max(observed, default=-1) // 2
    for n in range(top + 1):
        inn, out = (2 * n) in observed, (2 * n + 1) in observed
        if inn and out:
            raise MalformedInputError(f"labels {2*n} and {2*n+1} both present")
        verdict = "in" if inn else ("out" if out else "unknown")
        report[n] = {"verdict": verdict, "provisional": True}
    return report


def shuffle_encode_set(s, bound, resolution=None):
    """Fragment for the even/odd coding of a set prefix below the bound."""
    s = set(s)
    labels = [2 * n if n in s else 2 * n + 1 for n in range(bound)]
    if resolution is None:
        resolution = min_resolution(len(labels) + 1)
    return shuffle_build(labels, True, resolution)


def shuffle_decode_set(fragment, bound):
    rep = shuffle_decode(fragment)
    return {n for n in range(bound)
            if rep.get(n, {}).get("verdict") == "in"}
