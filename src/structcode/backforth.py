"""Finite-level back-and-forth equivalence with tuple moves.

``bf_equiv`` decides the symmetric relation ~gamma between tuples of finite
structures.  At level 0 two tuples are equivalent when they satisfy the
same atomic formulas; at level gamma+1, every move tuple on either side
must admit a response on the other at level gamma.  Move tuples range over
distinct elements outside the current tuple — a duplicator mirrors repeats
and previously played elements.  The declared move bound must cover both
universes, so it never cuts a move short.

So at level 1 the spoiler may play every fresh element in one move, and a
response is a bijection that keeps every atomic fact: an isomorphism that
sends one tuple to the other.  Such an isomorphism answers every move at
every level.  For gamma >= 1, ~gamma therefore holds exactly when some
isomorphism sends atup to btup, and ``bf_equiv`` decides it by one
``iso_check`` whose search starts with the tuple pairs.  The levels
collapse only because the structures are finite and the bound covers
them; for infinite structures they do not.  ``distinguishing_move`` names
the first unanswered move; at level 1 that is the first move whose
existential formula fails on the other side, as ``core.Evaluator`` finds.

``phi_tuple`` and ``phi_pair`` generate the level-tagged formulas whose
truth reproduces the game verdict: the tuple formula is specific to one
structure and pinned tuple, the pair formula is uniform in the structure.

``interval_equiv`` checks tuples in finite linear orders interval by
interval.
"""

from __future__ import annotations

import functools
import itertools

from .core import (BigAnd, BigOr, Eq, Evaluator, Exists, FinLinOrder, Forall,
                   Not, Or, PreconditionError, Rel, atom_places, conj, disj,
                   fingerprint, iso_check)


# ---------------------------------------------------------------------------
# game: verdicts by isomorphism, witnesses by the evaluator


def check_level(gamma):
    if gamma < 0:
        raise PreconditionError(f"level {gamma} is negative")


def _check_entries(struct, tup):
    if not struct.universe_set.issuperset(tup):
        raise PreconditionError(f"tuple {tup!r} has entries outside the "
                                "structure")


def bf_equiv(a, atup, b, btup, gamma, bound=None):
    """Decide (a, atup) ~gamma (b, btup): atomic facts at level 0, and an
    isomorphism sending atup to btup at every level >= 1.  A ``bound``
    below either universe's size is rejected."""
    atup, btup = tuple(atup), tuple(btup)
    check_level(gamma)
    if a.signature != b.signature:
        raise PreconditionError("structures must have the same signature")
    if len(atup) != len(btup):
        raise PreconditionError("tuples must have equal length")
    _check_entries(a, atup)
    _check_entries(b, btup)
    need = max(len(a.universe), len(b.universe))
    if bound is not None and bound < need:
        raise PreconditionError(
            f"move bound {bound} below max structure size {need}")
    return fingerprint(a, atup) == fingerprint(b, btup) and \
        (gamma == 0 or iso_check(a, b, tuple(zip(atup, btup))) is not None)


def distinguishing_move(a, atup, b, btup, gamma, bound=None):
    """Evidence for a negative bf_equiv verdict, or None when equivalent.

    Returns ("atomic", fp_a, fp_b) for a level-0 mismatch, otherwise
    ("a"|"b", move) for the first spoiler move with no response at level
    gamma-1.  Moves are tried side a first, shorter moves first, then in
    ``itertools.combinations`` order over the fresh elements sorted by
    ``repr``.  Sorted distinct fresh tuples suffice: permuted moves are
    answered by the permuted response, repeats and old elements are
    mirrored, and a surplus of fresh elements on one side shows as a longer
    move from that side with no response.

    At gamma 1 a response need only match atomic facts: the witness is the
    first move whose ``_move_formula`` the evaluator finds false at the
    other side's tuple.  At gamma >= 2 a response would be an isomorphism
    extending the tuples, which the verdict rules out, so the first move is
    unanswered.  A side without fresh elements has no move; when neither
    has one, atup -> btup is itself an isomorphism, so a negative verdict
    always has a move.
    """
    atup, btup = tuple(atup), tuple(btup)
    if bf_equiv(a, atup, b, btup, gamma, bound):
        return None
    fa, fb = fingerprint(a, atup), fingerprint(b, btup)
    if fa != fb:
        return ("atomic", fa, fb)
    signature, n = tuple(sorted(a.signature.items())), len(atup)
    for side, src, st, dst, dt in (("a", a, atup, b, btup),
                                   ("b", b, btup, a, atup)):
        fresh = sorted(src.universe_set.difference(st), key=repr)
        ev, env = Evaluator(dst), {_var(i): x for i, x in enumerate(dt)}
        for ln in range(1, len(fresh) + 1):
            for move in itertools.combinations(fresh, ln):
                if gamma >= 2 or not ev.eval(_move_formula(
                        signature, n, fingerprint(src, st + move)), env):
                    return side, move


# ---------------------------------------------------------------------------
# formula generators


def _var(i):
    return f"x{i + 1}"


def _atoms(signature, vs):
    """The atomic formulas over the variables vs, in ``fingerprint`` order:
    x_i = x_j for i < j, then the relation atoms of ``atom_places``."""
    for i, j in itertools.combinations(range(len(vs)), 2):
        yield Eq(vs[i], vs[j])
    for name, places in atom_places(tuple(sorted(signature.items())), len(vs)):
        for pos in places:
            yield Rel(name, tuple(vs[p] for p in pos))


@functools.lru_cache(maxsize=256)
def _literals(signature, n):
    """(atom, Not(atom)) for each atom of ``_atoms`` over x1, ..., xn, built
    once; ``signature`` is a sorted tuple of (name, arity)."""
    return tuple((atom, Not(atom)) for atom in
                 _atoms(dict(signature), [_var(i) for i in range(n)]))


def _diagram(signature, fp):
    """Quantifier-free diagram of a fingerprint over variables x1, x2, ...:
    each atom of ``_atoms`` or its negation, as ``fp`` decides."""
    eq, rels = fp
    holds = [x == y for x, y in itertools.combinations(eq, 2)]
    holds += [bit for _, bits in rels for bit in bits]
    lits = _literals(signature, len(eq))
    return conj(lit[not h] for lit, h in zip(lits, holds))


def _atomic_diagram(struct, tup):
    """The diagram of a tuple's fingerprint (see ``_diagram``)."""
    return _diagram(tuple(sorted(struct.signature.items())),
                    fingerprint(struct, tup))


@functools.lru_cache(maxsize=512)
def _move_formula(signature, n, fp):
    """Exists x(n+1) ... x(m). the diagram of ``fp``, the fingerprint of an
    m-tuple: true at the first n entries of a tuple with fingerprint ``fp``.
    Built once per fingerprint, so equal moves share one node and one
    compiled plan."""
    return Exists(tuple(_var(i) for i in range(n, len(fp[0]))),
                  _diagram(signature, fp))


def phi_tuple(struct, tup, gamma, bound=None):
    """The level-2*gamma formula isolating the ~gamma class of a tuple.

    Evaluating it at a tuple of any structure in the same signature agrees
    with ``bf_equiv`` against (struct, tup).
    """
    check_level(gamma)
    tup = tuple(tup)
    _check_entries(struct, tup)
    if bound is None:
        bound = len(struct.universe)
    if bound < len(struct.universe):
        raise PreconditionError("move bound below structure size")
    memo = {}

    def build(t, g):
        key = (t, g)
        if key in memo:
            return memo[key]
        if g == 0:
            out = memo[key] = _atomic_diagram(struct, t)
            return out
        n = len(t)
        fresh = sorted(struct.universe_set.difference(t), key=repr)
        xs = [_var(i) for i in range(n)]
        # the diagram is implied by the nested base cases only when fresh
        # extensions exist; assert it outright so exhausted tuples still
        # carry their atomic constraints
        parts = [build(t, 0)]
        # a length one past the fresh elements has no moves: its Forall
        # says that no further fresh tuple exists
        for ln in range(1, min(bound, len(fresh) + 1) + 1):
            ys = tuple(_var(n + i) for i in range(ln))
            moves = list(itertools.permutations(fresh, ln))
            for move in moves:
                parts.append(Exists(ys, build(t + move, g - 1)))
            stale = disj([Eq(u, v) for u, v in itertools.combinations(ys, 2)] +
                         [Eq(y, x) for y in ys for x in xs])
            parts.append(Forall(ys, BigOr(tuple(
                [stale] + [build(t + move, g - 1) for move in moves]))))
        out = memo[key] = BigAnd(tuple(parts))
        return out

    return build(tup, gamma)


def phi_pair(signature, n, gamma, bound):
    """Uniform formula: a structure satisfies it at (x-tuple, y-tuple) of
    length n each exactly when the two tuples are ~gamma there.
    """
    check_level(gamma)
    if n < 0 or bound < 0:
        raise PreconditionError(f"length {n} or move bound {bound} is negative")

    def xs(length):
        return [_var(i) for i in range(length)]

    def ys(length):
        return [f"y{i + 1}" for i in range(length)]

    def build(length, g):
        if g == 0:
            parts = []
            for px, py in zip(_atoms(signature, xs(length)),
                              _atoms(signature, ys(length))):
                parts.append(Or((Not(px), py)))
                parts.append(Or((Not(py), px)))
            return conj(parts)
        parts = []
        for ln in range(1, bound + 1):
            us = tuple(xs(length + ln)[length:])
            vs = tuple(ys(length + ln)[length:])
            inner = build(length + ln, g - 1)
            parts.append(Forall(us, Exists(vs, inner)))
            parts.append(Forall(vs, Exists(us, inner)))
        return BigAnd(tuple(parts))

    return build(n, gamma)


# ---------------------------------------------------------------------------
# linear orders: interval decomposition


def interval_equiv(a, atup, b, btup, gamma):
    """Tuple equivalence in finite linear orders, interval by interval.

    Returns (verdict, per-interval list of booleans).  Two finite orders
    are ~gamma exactly when gamma is 0 or they have the same size (an
    isomorphism then exists, see ``bf_equiv``), so an interval's verdict
    compares the sizes.
    """
    check_level(gamma)
    atup, btup = tuple(atup), tuple(btup)
    if len(atup) != len(btup):
        raise PreconditionError("tuples must have equal length")
    sizes = []
    for t, s in ((atup, a), (btup, b)):
        if not isinstance(s, FinLinOrder):
            raise PreconditionError("interval_equiv compares finite linear "
                                    "orders")
        _check_entries(s, t)
        idx = [s.elements.index(x) for x in t]
        if any(i >= j for i, j in zip(idx, idx[1:])):
            raise PreconditionError("tuples must be strictly increasing")
        cuts = [-1, *idx, len(s.elements)]
        sizes.append([j - i - 1 for i, j in zip(cuts, cuts[1:])])
    per = [gamma == 0 or m == n for m, n in zip(*sizes)]
    return all(per), per
