"""Coding of digraphs into linear orderings, with an analysis toolkit.

An element of the order L(G) built from a digraph G is a finite alternating
sequence  r_0 q_1 r_1 ... q_n r_n k  where the r_i and q_i are points of
the dense carrier from ``denseq``, the colours of r_0 .. r_{n-1} are 0, the
colour of r_n is 1, the colours a_1 .. a_n of q_1 .. q_n form a tuple of
pairwise distinct vertices of G, and the final entry k is a natural number
below the index m of the atomic type of (a_1, ..., a_n).  Elements are
compared lexicographically.  An ``FSElement`` is a tuple of exactly those
entries, so tuple order is the order of L(G); ``fs_enumerate`` emits the
members of a bounded fragment in that order.

The toolkit computes the invariants of finite tuples of such elements
(blocks, gap sizes, lengths, minimal lengths over intervals, the full shape
record), emits defining formulas for a shape at the expected syntactic
level, and realizes order automorphisms acting on first coordinates,
including the shift move that relocates a tuple beyond a given element.
The two ``lg_*`` certifiers combine shapes with the back-and-forth game
of ``backforth`` on G into sound (but deliberately incomplete) verdicts
for pairs of tuples of elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (And, Eq, Exists, Forall, MalformedInputError, Not,
                   Or, PreconditionError, Rel, atomic_type_of, conj, disj,
                   type_start_index)
from .backforth import bf_equiv, check_level
from .denseq import ColorOrderMap, Dyadic, between, color, index_points


class FSElement(tuple):
    """One element of L(G) as the tuple r_0 q_1 r_1 ... q_n r_n k, built
    from padding coords rs, vertex coords qs and the tail."""
    __slots__ = ()
    _make = classmethod(tuple.__new__)     # from the sequence itself

    def __new__(cls, rs, qs, tail):
        seq = [tail] * (2 * len(rs))        # the last slot keeps the tail
        seq[0:-1:2] = rs
        seq[1:-1:2] = qs
        return tuple.__new__(cls, seq)

    def __getnewargs__(self):
        return self.rs, self.qs, self.tail

    rs = property(lambda self: self[0:-1:2])
    qs = property(lambda self: self[1:-1:2])
    tail = property(lambda self: self[-1])
    half_length = property(lambda self: len(self) // 2 - 1)
    length = property(len)

    def seq(self):
        """The element as the alternating sequence it abbreviates."""
        return list(self)

    def __repr__(self):
        return f"FSElement(rs={self.rs!r}, qs={self.qs!r}, tail={self.tail!r})"

    def __str__(self):
        return "[" + ", ".join(map(str, self)) + "]"


def mentions(e):
    """The tuple of vertices mentioned by an element (colours of its qs)."""
    return tuple(color(q) for q in e.qs)


def fs_element(g, items):
    """Build an FSElement from a raw sequence, checking membership in L(G)."""
    items = list(items)
    if len(items) < 2 or len(items) % 2:
        raise MalformedInputError("sequence length must be even and at least 2")
    *coords, tail = items
    if not isinstance(tail, int) or isinstance(tail, bool) or tail < 0:
        raise MalformedInputError("final entry must be a natural number")
    if not all(isinstance(c, Dyadic) for c in coords):
        raise MalformedInputError("all entries before the tail must be dyadics")
    rs, qs = coords[0::2], coords[1::2]
    n = len(qs)
    for i, r in enumerate(rs):
        want = 1 if i == n else 0
        if color(r) != want:
            raise MalformedInputError(
                f"padding coordinate {r} has colour {color(r)}, expected {want}")
    ment = tuple(color(q) for q in qs)
    if len(set(ment)) != n:
        raise MalformedInputError(f"mentioned vertices {ment} are not distinct")
    if not g.universe_set.issuperset(ment):
        raise MalformedInputError(f"mentioned vertices {ment} are not all in G")
    m = atomic_type_of(g, ment).index
    if tail >= m:
        raise MalformedInputError(f"tail {tail} is not below the type index {m}")
    return FSElement._make(items)


def fs_member(g, items):
    try:
        fs_element(g, items)
        return True
    except MalformedInputError:
        return False


def fs_compare(x, y):
    """Lexicographic comparison; returns -1, 0 or 1."""
    i = _diverge(x, y)
    if i is None:
        if len(x) != len(y):
            raise MalformedInputError("one member sequence extends the other")
        return 0
    a, b = x[i], y[i]
    if isinstance(a, Dyadic) != isinstance(b, Dyadic):
        # a tail can only face a vertex coordinate after an equal prefix,
        # which the colour discipline rules out for genuine members
        raise MalformedInputError("sequences diverge at incompatible entries")
    return -1 if a < b else 1


def sort_elements(elems):
    return sorted(elems)


def block_of(g, e):
    """(m, k): size of the element's maximal discrete block and its position."""
    return (atomic_type_of(g, mentions(e)).index, e.tail)


def fs_enumerate(g, max_half_len, max_exponent):
    """All members of L(G) with half length and coordinate exponents bounded.

    Returned in increasing order, without sorting: each coordinate runs
    through its candidates in increasing order, a colour-1 padding
    coordinate closing the element with each tail, a colour-0 one going on
    with each coordinate of a vertex not yet mentioned.  A negative cap
    raises PreconditionError.
    """
    if max_half_len < 0 or max_exponent < 0:
        raise PreconditionError("caps must be nonnegative")
    points = index_points(max_exponent)
    pads = [(r, color(r)) for r in points if color(r) < 2]
    coords = [(q, color(q)) for q in points if color(q) in g.universe_set]

    def extend(prefix, ment):
        m = atomic_type_of(g, ment).index
        for r, c in pads:
            if c:
                for k in range(m):
                    yield FSElement._make(prefix + (r, k))
            elif len(ment) < max_half_len:
                for q, v in coords:
                    if v not in ment:
                        yield from extend(prefix + (r, q), ment + (v,))

    return list(extend((), ()))


# ---------------------------------------------------------------------------
# minimal length over an interval


def _diverge(x, y):
    return next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), None)


def min_length_in_interval(g, x, y):
    """Least half length k over the closed interval [x, y], with a witness.

    The witness is a member of [x, y] of length 2k+2, chosen canonically:
    the left endpoint when it already has the minimal length, otherwise a
    point built from canonical colour-1 interpolation at the diverging
    coordinate.
    """
    if fs_compare(x, y) > 0:
        raise PreconditionError("interval endpoints out of order")
    i = _diverge(x, y)
    if i is None:
        return x.half_length, x
    if i % 2 == 0:
        # diverging padding coordinates at position 2t: members of the
        # interval share the first 2t entries, so 2t+2 is the least length,
        # and a colour-1 point strictly between the two coordinates (or the
        # left endpoint itself) realizes it
        t = i // 2
        if x.half_length == t:
            return t, x
        r = between(x[i], y[i], 1)
        return t, FSElement(x.rs[:t] + (r,), x.qs[:t], 0)
    if isinstance(x[i], int):
        # same block, different tails: everything in between is in the block
        return x.half_length, x
    # diverging vertex coordinates at position 2t+1: every member of the
    # interval extends the shared prefix through r_t, whose colour is 0, so
    # lengths are at least 2t+4; lifting the left endpoint's next padding
    # coordinate produces a member of exactly that length
    t = (i - 1) // 2
    r = between(x[2 * t + 2], None, 1)
    return t + 1, FSElement(x.rs[:t + 1] + (r,), x.qs[:t + 1], 0)


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Shape:
    """Invariant record of a tuple of elements, listed in increasing order.

    ``order``      rank of each input element in the sorted tuple;
    ``gaps``       per adjacent sorted pair, the number of elements strictly
                   between them, or None when the interval is infinite;
    ``blocks``     per sorted element, its (block size, position) pair;
    ``half_lengths`` per sorted element, its half length n;
    ``min_half``   per adjacent sorted pair, the least half length over the
                   closed interval.
    """
    order: tuple
    gaps: tuple
    blocks: tuple
    half_lengths: tuple
    min_half: tuple


def shape(g, elems):
    elems = tuple(elems)
    if not elems:
        raise PreconditionError("shape of the empty tuple is not defined")
    srt = sort_elements(elems)
    if any(fs_compare(a, b) == 0 for a, b in zip(srt, srt[1:])):
        raise PreconditionError("tuple entries must be pairwise distinct")
    ranks = tuple(srt.index(e) for e in elems)
    gaps = []
    min_half = []
    for a, b in zip(srt, srt[1:]):
        # a block is the members with the same coordinates
        gaps.append(b.tail - a.tail - 1 if a[:-1] == b[:-1] else None)
        min_half.append(min_length_in_interval(g, a, b)[0])
    return Shape(
        order=ranks,
        gaps=tuple(gaps),
        blocks=tuple(block_of(g, e) for e in srt),
        half_lengths=tuple(e.half_length for e in srt),
        min_half=tuple(min_half),
    )


# --- defining formulas ------------------------------------------------------


def _lt(a, b):
    return Rel("<", (a, b))


def _between(z, a, b):
    return And((_lt(a, z), _lt(z, b)))


def _in_block(m, prefix, placement):
    """Some zs (named from ``prefix``) form a maximal discrete chain of size
    m, in the listed order, and satisfy the conjuncts ``placement(zs)``."""
    zs = tuple(f"{prefix}z{j}" for j in range(m))
    p = "_w"
    v = "_v"
    parts = [_lt(a, b) for a, b in zip(zs, zs[1:])]
    if len(zs) > 1:
        parts.append(Forall((p,), conj([Or((Not(_lt(a, p)), Not(_lt(p, b))))
                                        for a, b in zip(zs, zs[1:])])))
    parts.append(Forall((p,), And((
        Or((Not(_lt(p, zs[0])), Exists((v,), _between(v, p, zs[0])))),
        Or((Not(_lt(zs[-1], p)), Exists((v,), _between(v, zs[-1], p)))),
    ))))
    return Exists(zs, And(tuple(parts + placement(zs))))


def in_block_formula(x, m, k, prefix):
    """x sits at position k of a maximal discrete set of size m (Sigma_3)."""
    return _in_block(m, prefix, lambda zs: [Eq(x, zs[k])])


def in_block_any_position(x, m, prefix):
    return _in_block(m, prefix, lambda zs: [disj([Eq(x, z) for z in zs])])


def _half_length_in(x, lo, hi, prefix):
    """x has half length at least lo and below hi: its block size is the
    index of a type of that many vertices."""
    return disj([in_block_any_position(x, m, f"{prefix}{m}_")
                 for m in range(type_start_index(lo), type_start_index(hi))])


def _pad_pi3():
    # a vacuously true Forall-Exists-Forall conjunct that pins the bundle at
    # the advertised level even when some component families are empty
    w = Rel("<", ("_pu", "_pw"))
    return Forall(("_pu",), Exists(("_pv",), Forall(("_pw",), Or((w, Not(w))))))


@dataclass(frozen=True)
class ShapeFormulas:
    sigma: object
    pi: object


def shape_formulas(s):
    """Defining formulas for a shape: a Sigma_4 and a Pi_4 bundle.

    Both bundles constrain variables x1 .. xn standing for the sorted tuple.
    The Sigma bundle pulls the leading existentials of its components to the
    front; the Pi bundle is the plain conjunction, which mixes both sides at
    level three and therefore reports on the Pi side at level four.
    """
    xs = [f"x{i + 1}" for i in range(len(s.blocks))]
    # components of both bundles; where they differ, a (Sigma component,
    # Pi components) pair
    parts = [_lt(a, b) for a, b in zip(xs, xs[1:])]
    for i, ((m, k), nlen) in enumerate(zip(s.blocks, s.half_lengths)):
        parts.append(in_block_formula(xs[i], m, k, f"b{i}_"))
        parts.append(_half_length_in(xs[i], nlen, nlen + 1, f"l{i}_m"))
    for i, (gap, kmin) in enumerate(zip(s.gaps, s.min_half)):
        a, b = xs[i], xs[i + 1]
        w = f"g{i}_w"
        if gap is None:
            # the endpoints do not share a maximal discrete set
            parts.append(Not(_in_block(s.blocks[i][0], f"g{i}_", lambda zs: [
                disj([Eq(a, z) for z in zs]), disj([Eq(b, z) for z in zs])])))
        elif gap == 0:
            parts.append(Forall((w,), Not(_between(w, a, b))))
        else:
            zs = tuple(f"g{i}_z{j}" for j in range(gap))
            chain = [_between(z, a, b) for z in zs] + \
                [_lt(p, q) for p, q in zip(zs, zs[1:])]
            exact = Forall((w,), Or(tuple(
                [Not(_between(w, a, b))] + [Eq(w, z) for z in zs])))
            more = tuple(f"g{i}_y{j}" for j in range(gap + 1))
            no_more = Forall(more, Or(tuple(
                [Not(_between(z, a, b)) for z in more] +
                [Eq(p, q) for p, q in itertools.combinations(more, 2)])))
            parts.append((Exists(zs, And(tuple(chain + [exact]))),
                          [no_more, Exists(zs, And(tuple(chain)))]))
        # least length over the closed interval is exactly 2*kmin + 2
        z = f"n{i}_z"
        inside = Or((Eq(z, a), Eq(z, b), _between(z, a, b)))
        parts.append(Forall((z,), Or((Not(inside), Not(
            _half_length_in(z, 0, kmin, f"n{i}_s"))))))
        parts.append(Exists((z,), And((
            inside, _half_length_in(z, kmin, kmin + 1, f"n{i}e_m")))))

    sigma = [p[0] if isinstance(p, tuple) else p for p in parts]
    pi = [q for p in parts for q in (p[1] if isinstance(p, tuple) else [p])]
    pulled = tuple(v for phi in sigma if isinstance(phi, Exists)
                   for v in phi.vars)
    matrix = [phi.body if isinstance(phi, Exists) else phi for phi in sigma]
    return ShapeFormulas(sigma=Exists(pulled, And(tuple(matrix) + (_pad_pi3(),))),
                         pi=And(tuple(pi) + (_pad_pi3(),)))


# ---------------------------------------------------------------------------
# first-coordinate maps and the shift move


def apply_first_coord_map(f, elems):
    """Apply an order/colour map to the first coordinate of each element.

    This realizes the restriction to first coordinates of an automorphism of
    L(G), so it preserves order, blocks and shapes of tuples.
    """
    return tuple(FSElement._make((f.image(e[0]),) + e[1:]) for e in elems)


@dataclass(frozen=True)
class ShiftResult:
    elements: tuple     # the relocated tuple, in the input's order
    separator: FSElement  # a length-2 member strictly between c and the tuple
    map: ColorOrderMap


def shift_tuple(g, elems, c, side="right"):
    """Relocate a tuple past the element c by a first-coordinate map.

    All first coordinates of the result lie strictly beyond c's first
    coordinate on the requested side, a length-2 member separates c from the
    relocated tuple, and the shape is unchanged.
    """
    if side not in ("right", "left"):
        raise PreconditionError("side must be 'right' or 'left'")

    def beyond(p, colour):
        return between(p, None, colour) if side == "right" else \
            between(None, p, colour)

    sep = prev = beyond(c.rs[0], 1)
    seeds = {}
    for u in sorted({e.rs[0] for e in elems}, reverse=side == "left"):
        prev = seeds[u] = beyond(prev, color(u))
    f = ColorOrderMap(seeds)
    shifted = apply_first_coord_map(f, elems)
    separator = FSElement((sep,), (), 0)
    return ShiftResult(elements=shifted, separator=separator, map=f)


# ---------------------------------------------------------------------------
# certificates for tuples in L(G)


@dataclass(frozen=True)
class Certificate:
    verdict: str                 # "Equivalent" | "Distinguished" | "Unknown"
    evidence: tuple = ()


def _mention_concat(elems):
    """Concatenated mentions of the sorted tuple, first occurrences only."""
    out = []
    for e in sort_elements(elems):
        for v in mentions(e):
            if v not in out:
                out.append(v)
    return tuple(out)


def lg_certify(g, t1, t2, gamma):
    """Sound, incomplete comparison of two tuples of order elements.

    Equivalent when the shapes agree and the mentioned vertex tuples are
    game-equivalent in G; Distinguished by an atomic order mismatch, by gap
    sizes (level >= 1) or by positional block sizes (level >= 2); Unknown
    otherwise.
    """
    check_level(gamma)
    t1, t2 = tuple(t1), tuple(t2)
    if len(t1) != len(t2):
        raise PreconditionError("tuples must have equal length")
    s1, s2 = shape(g, t1), shape(g, t2)
    if s1.order != s2.order:
        return Certificate("Distinguished", ("order", s1.order, s2.order))
    if gamma >= 1 and s1.gaps != s2.gaps:
        return Certificate("Distinguished", ("gaps", s1.gaps, s2.gaps))
    if gamma >= 2 and s1.blocks != s2.blocks:
        return Certificate("Distinguished", ("blocks", s1.blocks, s2.blocks))
    if s1 == s2:
        m1, m2 = _mention_concat(t1), _mention_concat(t2)
        if len(m1) == len(m2) and bf_equiv(g, m1, g, m2, gamma):
            return Certificate("Equivalent", ("shape+mentions", m1, m2))
    return Certificate("Unknown")


def lg_concat_certify(g, pair1, pair2, gamma):
    """Equivalence of concatenated tuples split by length-2 separators.

    Each argument is a pair of tuples with the first wholly left of the
    second.  The verdict is Equivalent only when both halves certify as
    Equivalent and a length-2 element exists between the halves on both
    sides; it is never Distinguished.
    """
    check_level(gamma)
    (b1, b2), (c1, c2) = pair1, pair2
    for left, right in ((b1, b2), (c1, c2)):
        if not (left and right):
            raise PreconditionError("both parts must be nonempty")
        if any(fs_compare(x, y) >= 0 for x in left for y in right):
            raise PreconditionError("first part must lie wholly left of second")
    first = lg_certify(g, b1, c1, gamma)
    second = lg_certify(g, b2, c2, gamma)
    # a length-2 element lies between the halves exactly when the least
    # half length over the interval from the left's last element to the
    # right's first is 0
    if first.verdict == second.verdict == "Equivalent" and all(
            min_length_in_interval(g, max(left), min(right))[0] == 0
            for left, right in ((b1, b2), (c1, c2))):
        return Certificate("Equivalent", ("parts", first.evidence, second.evidence))
    return Certificate("Unknown")
