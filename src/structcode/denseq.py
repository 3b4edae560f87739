"""A computable dense order with countably many dense colour classes.

The carrier is the set of dyadic points of the open unit interval, written
``a / 2**k`` with ``a`` odd and ``0 < a < 2**k``.  The colour of a point is
the length of the trailing run of 1-bits of its numerator, minus one; every
colour class is dense in (0, 1).  On top of the carrier the module provides

* ``index_points``: the grid of points with exponent up to k, in order;
* ``between``: the canonical colour-n point of an open interval (least
  exponent, then least numerator);
* ``simplest_between``: the canonical point of an interval regardless of
  colour;
* ``ColorOrderMap``: a finitely seeded partial map of the carrier into
  itself that is strictly increasing and colour-preserving, extended to any
  query point by deterministic bisection.  Images depend only on the seed
  constraints and the query point, never on the order of queries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import PreconditionError


class ConstraintError(PreconditionError):
    """Seed constraints do not describe an order/colour-preserving map."""


@functools.total_ordering
@dataclass(frozen=True)
class Dyadic:
    """The point num / 2**exp with num odd and 0 < num < 2**exp."""
    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 1 or self.num % 2 == 0 or not 0 < self.num < (1 << self.exp):
            raise PreconditionError(f"not a reduced dyadic of (0,1): {self.num}/{1 << self.exp}")

    def __lt__(self, other):
        return self.num << other.exp < other.num << self.exp

    def __str__(self):
        return f"{self.num}/{1 << self.exp}"

    @classmethod
    def parse(cls, text):
        try:
            a, b = text.strip().split("/")
            num, den = int(a), int(b)
        except ValueError:
            raise PreconditionError(f"cannot parse dyadic {text!r}")
        if den <= 0 or den & (den - 1):
            raise PreconditionError(f"denominator of {text!r} is not a power of two")
        exp = den.bit_length() - 1
        while num % 2 == 0 and exp > 0:
            num //= 2
            exp -= 1
        return cls(num, exp)


def color(d):
    """Length of the trailing 1-run of the numerator, minus one."""
    a = d.num
    run = 0
    while a & 1:
        run += 1
        a >>= 1
    return run - 1


def index_points(k):
    """The points a / 2**k of (0, 1) in increasing order, in lowest terms."""
    return [Dyadic(a // (a & -a), k + 1 - (a & -a).bit_length())
            for a in range(1, 1 << k)]


def _num_bounds(lo, hi, k):
    """Open numerator range at exponent k for the interval (lo, hi).

    Returns the least and greatest integers a with lo < a/2**k < hi; the
    range may be empty.  Strictness is exact: a/2**k > lo iff
    a * 2**lo.exp > lo.num * 2**k.
    """
    a_min = 1 if lo is None else ((lo.num << k) >> lo.exp) + 1
    a_max = (1 << k) - 1 if hi is None else ((hi.num << k) - 1) >> hi.exp
    return max(a_min, 1), min(a_max, (1 << k) - 1)


def _least(lo, hi, residue, modulus):
    """The dyadic of (lo, hi) with the least exponent and, at that exponent,
    the least numerator congruent to ``residue`` modulo ``modulus``."""
    if lo is not None and hi is not None and not lo < hi:
        raise PreconditionError(f"empty interval ({lo}, {hi})")
    k = 1
    while True:
        a_min, a_max = _num_bounds(lo, hi, k)
        a = a_min + (residue - a_min) % modulus
        if a <= a_max:
            return Dyadic(a, k)
        k += 1


def between(lo, hi, n):
    """Canonical colour-n dyadic strictly inside (lo, hi).

    Either bound may be None, standing for the corresponding end of (0, 1).
    The result has the least possible exponent and, at that exponent, the
    least numerator.  Colour-n numerators are exactly those congruent to
    2**(n+1) - 1 modulo 2**(n+2).
    """
    if n < 0:
        raise PreconditionError(f"colour {n} is negative")
    return _least(lo, hi, (1 << (n + 1)) - 1, 1 << (n + 2))


def simplest_between(lo, hi):
    """Canonical dyadic of (lo, hi): least exponent, then least (odd)
    numerator."""
    return _least(lo, hi, 1, 2)


class ColorOrderMap:
    """Finite-support order- and colour-preserving partial self-map.

    ``seeds`` maps sources to images.  A query point q falling between two
    constraints is sent into the corresponding image gap by repeated
    bisection at canonical points: the gap's simplest point m goes to the
    canonical point of the image gap with m's colour, and the recursion
    descends into the half containing q.  The bisection bottoms out because
    only finitely many points of the gap are simpler than q.
    """

    def __init__(self, seeds=None):
        items = sorted((seeds or {}).items())
        for src, img in items:
            if color(src) != color(img):
                raise ConstraintError(f"{src} -> {img} changes colour")
        for (s1, i1), (s2, i2) in zip(items, items[1:]):
            if not i1 < i2:
                raise ConstraintError(f"images of {s1} and {s2} are not increasing")
        self.seeds = dict(items)
        self._sources = [s for s, _ in items]

    def image(self, q):
        if q in self.seeds:
            return self.seeds[q]
        lo = hi = None
        lo_img = hi_img = None
        for s in self._sources:
            if s < q:
                lo, lo_img = s, self.seeds[s]
            else:
                hi, hi_img = s, self.seeds[s]
                break
        return self._gap_image(lo, lo_img, hi, hi_img, q)

    @staticmethod
    def _gap_image(lo, lo_img, hi, hi_img, q):
        while True:
            m = simplest_between(lo, hi)
            m_img = between(lo_img, hi_img, color(m))
            if m == q:
                return m_img
            if q < m:
                hi, hi_img = m, m_img
            else:
                lo, lo_img = m, m_img
