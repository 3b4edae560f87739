"""Finite relational structures and the logic toolbox built on them.

This module provides the shared substrate for everything else in the
package: finite structures with named relations, an AST for (bounded
fragments of) infinitary first-order formulas, evaluation by compiled
backtracking joins over relation indexes, a syntactic complexity
classifier, the one table of a tuple's atomic facts (``atom_places``,
read by ``fingerprint`` and atomic types of distinct digraph tuples), and
a backtracking isomorphism search with colour refinement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter


class StructError(ValueError):
    """Base class for errors raised by this package."""


class PreconditionError(StructError):
    """An operation was called on input that violates its contract."""


class EvalError(StructError):
    """A formula could not be evaluated (unbound variable, unknown relation)."""


class MalformedInputError(StructError):
    """Input data does not decode as an image of the expected construction."""


# ---------------------------------------------------------------------------
# structures


class Structure:
    """A finite relational structure.

    ``universe`` is a tuple of hashable elements and ``universe_set`` the
    same elements as a frozenset, ``signature`` maps relation names to
    arities, ``relations`` maps names to sets of tuples.  Only ``add``
    changes a structure: it appends
    elements and facts, never removes them, and keeps every index built by
    ``index`` up to date, so the same structure serves a batch decode and a
    stream fed fact by fact.
    """

    def __init__(self, universe, signature, relations):
        self.universe = tuple(universe)
        self.signature = dict(signature)
        self.universe_set = frozenset(self.universe)
        if len(self.universe_set) != len(self.universe):
            raise PreconditionError("universe has repeated elements")
        extra = sorted(set(relations) - set(self.signature))
        if extra:
            raise PreconditionError(f"relations not in signature: {extra}")
        self.relations = {name: set() for name in self.signature}
        self._index = {}
        self.add(facts=[(name, t) for name, ts in relations.items()
                        for t in ts])

    def add(self, elements=(), facts=()):
        """Append ``elements`` to the universe and add ``facts``, pairs
        (relation name, tuple), updating every index already built.
        Elements and facts already present are skipped.  A fact of an
        unknown relation, of the wrong arity or over elements outside the
        universe raises PreconditionError, and then nothing is added."""
        new = dict.fromkeys(x for x in elements if x not in self.universe_set)
        known = self.universe_set.union(new) if new else self.universe_set
        rows = []
        for name, t in facts:
            t = tuple(t)
            if self.signature.get(name) != len(t):
                raise PreconditionError(f"tuple {t!r} does not fit relation "
                                        f"{name!r} of the signature")
            if not known.issuperset(t):
                raise PreconditionError(
                    f"tuple {t!r} mentions elements outside the universe")
            rows.append((name, t))
        self.universe += tuple(new)
        self.universe_set = known
        for name, t in rows:
            tuples = self.relations[name]
            if t not in tuples:
                tuples.add(t)
                for (n, positions), idx in self._index.items():
                    if n == name:
                        idx.setdefault(tuple([t[i] for i in positions]),
                                       []).append(t)

    def rel(self, name, args):
        try:
            tuples = self.relations[name]
        except KeyError:
            raise EvalError(f"unknown relation {name!r}")
        return tuple(args) in tuples

    def index(self, name, positions):
        """The tuples of relation ``name`` grouped by their values at
        ``positions`` (a tuple): a dict from value tuples to lists of
        tuples, built on first use."""
        idx = self._index.get((name, positions))
        if idx is None:
            try:
                tuples = self.relations[name]
            except KeyError:
                raise EvalError(f"unknown relation {name!r}")
            idx = self._index[name, positions] = {}
            for t in tuples:
                idx.setdefault(tuple([t[i] for i in positions]), []).append(t)
        return idx

    def matches(self, name, pattern):
        """All relation tuples consistent with ``pattern`` (None = free slot)."""
        positions = tuple([i for i, v in enumerate(pattern) if v is not None])
        return self.index(name, positions).get(
            tuple([pattern[i] for i in positions]), [])

    def key(self):
        """Canonical hashable form, for use as a cache key or in comparisons."""
        return (
            tuple(sorted(self.signature.items())),
            self.universe,
            tuple((n, tuple(sorted(self.relations[n])))
                  for n in sorted(self.relations)),
        )

    def __repr__(self):
        sig = ",".join(f"{n}/{a}" for n, a in sorted(self.signature.items()))
        return f"<{type(self).__name__} |U|={len(self.universe)} {sig}>"


class LoopedDigraph(Structure):
    """Directed graph where self-loops are permitted (tuple-type contexts)."""

    def __init__(self, vertices, edges):
        super().__init__(vertices, {"E": 2}, {"E": {tuple(e) for e in edges}})

    @property
    def vertices(self):
        return self.universe

    @property
    def edges(self):
        return self.relations["E"]


class Digraph(LoopedDigraph):
    """Irreflexive directed graph in the language with one binary relation E."""

    def __init__(self, vertices, edges):
        edges = {tuple(e) for e in edges}
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at {u!r} not allowed")
        super().__init__(vertices, edges)


class UGraph(Structure):
    """Undirected graph, stored with E closed under swapping the endpoints."""

    def __init__(self, vertices, edges):
        sym = set()
        for u, v in edges:
            if u == v:
                raise PreconditionError(f"self-loop at {u!r} not allowed")
            sym.add((u, v))
            sym.add((v, u))
        super().__init__(vertices, {"E": 2}, {"E": sym})

    @property
    def vertices(self):
        return self.universe

    def undirected_edges(self):
        return {frozenset(e) for e in self.relations["E"]}

    def neighbors(self, v):
        return sorted(t[1] for t in self.matches("E", (v, None)))


class FinLinOrder(Structure):
    """A finite linear order; elements are listed in increasing order."""

    def __init__(self, elements):
        elements = tuple(elements)
        lt = {(elements[i], elements[j])
              for i in range(len(elements)) for j in range(i + 1, len(elements))}
        super().__init__(elements, {"<": 2}, {"<": lt})

    @property
    def elements(self):
        return self.universe


# ---------------------------------------------------------------------------
# formulas

# Nodes are frozen, slotted dataclasses so formulas can be shared and hashed
# freely, and stay small while long-lived formulas keep the join plans their
# evaluations compiled (``Formula.plans``; see ``Evaluator``).  ``str``
# prints the s-expression that ``formats.parse_formula`` reads back.  And/Or
# are the finitary connectives.  BigAnd/BigOr mark junctions that stand for
# (truncations of) infinite families indexed by tuples; they evaluate
# identically but are classified with the level-raising convention.


class Formula:
    """Base class of the formula nodes.

    ``plans``, outside ``==``, ``hash`` and ``repr``, reads None until an
    evaluation of the node on its own stores the dict of its join plans.
    The slot stays unset until then, so building a node does not pay for
    it.
    """
    __slots__ = ("plans",)

    def __getattr__(self, name):
        if name == "plans":
            return None
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def __str__(self):
        t = type(self)
        if t is Rel:
            items = (self.name, *self.args)
        elif t is Eq:
            items = ("=", self.left, self.right)
        elif t is Not:
            items = ("not", self.body)
        elif t is Exists or t is Forall:
            items = (t.__name__.lower(), f"({' '.join(self.vars)})", self.body)
        else:
            items = (t.__name__.lower(), *self.parts)
        return f"({' '.join(map(str, items))})"


@dataclass(frozen=True, slots=True)
class Rel(Formula):
    name: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: object


@dataclass(frozen=True, slots=True)
class And(Formula):
    parts: tuple


@dataclass(frozen=True, slots=True)
class Or(Formula):
    parts: tuple


@dataclass(frozen=True, slots=True)
class BigAnd(Formula):
    parts: tuple


@dataclass(frozen=True, slots=True)
class BigOr(Formula):
    parts: tuple


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    vars: tuple
    body: object


@dataclass(frozen=True, slots=True)
class Forall(Formula):
    vars: tuple
    body: object


TRUE = And(())
FALSE = Or(())


def conj(parts):
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else And(parts)


def disj(parts):
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else Or(parts)


def distinct_all(names):
    """Pairwise inequality of the listed variables."""
    return [Not(Eq(a, b)) for a, b in itertools.combinations(names, 2)]


_SPLICED = {True: (And, BigAnd), False: (Or, BigOr)}
_JUNCTIONS = _SPLICED[True] + _SPLICED[False]


def _conjuncts(phi, want, out):
    """Append to ``out`` the conjuncts of ``phi`` (of its negation when
    ``want`` is False), as pairs ``(node, wanted truth)``.

    Junctions are flattened: And/BigAnd parts are spliced in when wanted
    true, Or/BigOr parts when wanted false, and ``Not(a)`` stands for ``a``
    with the wanted truth flipped.
    """
    t = type(phi)
    if t is Not:
        _conjuncts(phi.body, not want, out)
    elif t in _SPLICED[want]:
        for p in phi.parts:
            _conjuncts(p, want, out)
    else:
        out.append((phi, want))
    return out


def _literals_hold(literals, env, relations, ev=None):
    """Check compiled literals ``(getter, relation or None for =, want)``
    against a structure's ``relations``.  ``ev`` is unused: it lets a check
    stand where ``_holds`` does."""
    try:
        for getter, name, want in literals:
            vals = getter(env)
            if (vals in relations[name] if name is not None
                    else vals[0] == vals[1]) != want:
                return False
    except KeyError:
        # the getters read bound variables only, so the relation is unknown
        raise EvalError(f"unknown relation {name!r}") from None
    return True


def _holds(test, env, relations, ev=None):
    """Check a compiled conjunction ``(literals, negated, rest)``: every
    literal holds, no check ``holds(n, env, relations, ev)`` of ``negated``
    is true, and each quantifier ``(node, want)`` of ``rest`` has truth
    ``want`` under the evaluator ``ev``."""
    literals, negated, rest = test
    if not _literals_hold(literals, env, relations):
        return False
    for holds, n in negated:
        if holds(n, env, relations, ev):
            return False
    for c, want in rest:
        if ev._quant(c, env) != want:
            return False
    return True


def _checker(test):
    """``(holds, test)`` checking a compiled conjunction: ``_literals_hold``
    on its literals when it has nothing else, else ``_holds``."""
    literals, negated, rest = test
    if negated or rest:
        return _holds, test
    return _literals_hold, literals


@functools.lru_cache(maxsize=1024)
def _values_of(args):
    """A function from an environment to the tuple of values of ``args``,
    shared by every caller that reads the same arguments."""
    if len(args) == 1:
        a, = args
        return lambda env: (env[a],)
    return itemgetter(*args) if args else lambda env: ()


@functools.lru_cache(maxsize=4096)
def _shared(part):
    """One object for equal plan parts (literal tuples, candidates, steps,
    sets of outer variables), so that the plans kept on formula nodes share
    them instead of holding copies."""
    return part


def _args(atom):
    return atom.args if type(atom) is Rel else (atom.left, atom.right)


@functools.lru_cache(maxsize=1024)
def _literal(atom, want):
    """The compiled literal ``(getter, relation name or None for =, want)``
    of a Rel or Eq node, ``getter(env)`` giving its argument values, shared
    by every plan that checks it."""
    return _values_of(_args(atom)), \
        atom.name if type(atom) is Rel else None, want


def _qf_vars(phi, out):
    """Add the variables of ``phi`` to the set ``out``; False when ``phi``
    is not a quantifier-free formula."""
    t = type(phi)
    if t is Rel or t is Eq:
        out.update(_args(phi))
    elif t is Not:
        return _qf_vars(phi.body, out)
    elif t in _JUNCTIONS:
        return all(_qf_vars(p, out) for p in phi.parts)
    else:
        return False
    return True


def _learn(known, literals):
    """Add to ``known`` the literals ``(node, want)``, each = both ways."""
    for c, want in literals:
        known.add((c, want))
        if type(c) is Eq:
            known.add((Eq(c.right, c.left), want))


def _compile(conjuncts, bound, known):
    """The compiled conjunction ``(literals, negated, rest)`` of
    ``conjuncts`` (see ``_holds``), leaving out the literals in ``known``,
    which hold wherever it is checked.

    A literal over ``bound`` variables is compiled by ``_literal``.  A
    junction conjunct holds when the conjunction of its negated parts fails,
    so ``negated`` gets a check (``_checker``) of that conjunction, compiled
    knowing this one's literals.  A quantifier stays a node in ``rest``.  A
    literal with an unbound variable, or anything that is not a formula
    node, raises EvalError.
    """
    literals, junctions, rest = [], [], []
    for c, want in conjuncts:
        t = type(c)
        if (t is Rel or t is Eq) and bound.issuperset(_args(c)):
            if (c, want) not in known:
                literals.append((c, want))
        elif t in _JUNCTIONS:
            junctions.append((c, want))
        elif t is Exists or t is Forall:
            _plan(c, frozenset(bound).difference(c.vars))
            rest.append((c, want))
        elif t is Rel or t is Eq:
            v = next(a for a in _args(c) if a not in bound)
            raise EvalError(f"unbound variable {v!r}")
        else:
            raise EvalError(f"not a formula node type: {t.__name__}")
    if junctions and literals:
        known = set(known)
        _learn(known, literals)
    return (_shared(tuple(_literal(c, w) for c, w in literals)),
            tuple(_checker(_compile(_conjuncts(c, not w, []), bound, known))
                  for c, w in junctions),
            tuple(rest))


def _join_plan(todo, conjuncts, outer):
    """Backtracking plan for finding values of ``todo`` satisfying ``conjuncts``.

    ``outer`` is the set of variables bound outside.  Returns ``(pre_holds,
    pre, steps, leftovers)``: ``pre_holds(pre, env, relations)`` checks the
    conjuncts the outer variables decide; ``steps`` binds the variables of
    ``todo`` in order, each as ``(var, candidates, holds, test)``, where the
    candidates are the whole universe (None), the value of an equal variable
    (``("eq", other)``) or the ``slot`` entries of a relation index lookup
    (``("rel", name, positions, getter, slot)``, ``getter(env)`` giving the
    values at the bound ``positions``), and ``holds(test, env, relations)``
    checks the conjuncts decided once ``var`` is bound; ``leftovers``, a
    compiled conjunction checked by ``_holds`` once every variable is bound,
    holds the conjuncts with a quantifier.

    Each quantifier-free conjunct, literal or not (such as a clause), is
    checked at the step that binds its last variable (selection pushdown),
    and compiled knowing the literals checked before it (``_compile``).  A
    step with only literals to check gets ``_literals_hold`` on them, so it
    does no more work per candidate than its literals.
    """
    level = dict.fromkeys(outer, -1)
    level.update((v, i) for i, v in enumerate(todo))
    unbound = len(todo)
    cands = [None] * unbound
    # the conjuncts decided at each step, then those the outer variables
    # decide (at index -1) and the leftovers (at index ``unbound``)
    placed = [[] for _ in range(unbound + 2)]
    # literals that hold wherever they could be checked
    known = set()
    for c, want in conjuncts:
        t = type(c)
        args = set()
        if not _qf_vars(c, args):
            placed[unbound].append((c, want))
            continue
        i = max((level.get(a, unbound) for a in args), default=-1)
        if 0 <= i < unbound and want and cands[i] is None and \
                (t is Rel or t is Eq) and _args(c).count(todo[i]) == 1:
            # a positive literal on one new variable yields exactly the
            # values that satisfy it, so it need not be checked again
            var, args = todo[i], _args(c)
            if t is Eq:
                cands[i] = ("eq", args[1] if args[0] == var else args[0])
            else:
                slot = args.index(var)
                cands[i] = _shared((
                    "rel", c.name,
                    tuple(j for j in range(len(args)) if j != slot),
                    _values_of(args[:slot] + args[slot + 1:]), slot))
            # it holds wherever a literal over ``var`` can be checked
            _learn(known, [(c, want)])
            continue
        placed[i].append((c, want))
    bound, tests = set(level), []
    for i in range(-1, unbound + 1):
        tests.append(_compile(placed[i], bound, known))
        _learn(known, [(c, w) for c, w in placed[i] if type(c) in (Rel, Eq)])
    leftovers = tests.pop()
    pre, *tests = map(_checker, tests)
    steps = tuple(_shared((var, cand) + test)
                  for var, cand, test in zip(todo, cands, tests))
    return pre + (steps, leftovers)


def _plan(phi, outer):
    """The plan of ``phi`` with the variables of ``outer`` bound outside (a
    node other than a quantifier runs as one over no variables), compiled
    once and kept on the node; see ``_join_plan``."""
    plans = getattr(phi, "plans", None)
    plan = plans and plans.get(outer)
    if not plan:
        t = type(phi)
        quant = t is Exists or t is Forall
        forall = t is Forall
        plan = (forall,) + _join_plan(
            tuple(dict.fromkeys(phi.vars if quant else ())),
            _conjuncts(phi.body if quant else phi, not forall, []), outer)
        if plans is None:
            plans = {}
            object.__setattr__(phi, "plans", plans)
        plans[_shared(outer)] = plan
    return plan


class Evaluator:
    """Truth evaluation of a formula in a finite structure.

    Every quantifier runs as a backtracking search over a conjunction:
    ``Exists(vs, body)`` over the conjuncts of ``body``, and ``Forall(vs,
    body)`` as not-exists-not, over its negated disjuncts, so the ``Eq``
    disjuncts that excuse repeated elements become distinctness checks
    that prune the search.  Variables are bound one at a time, drawing
    values from a relation index or an equality where a positive literal
    allows, and each quantifier-free conjunct is checked as soon as it is
    decided (see ``_join_plan``).

    ``eval`` runs any node this way: a node other than a quantifier as one
    with no variables, over its own conjuncts.  So a formula is evaluated
    only through compiled plans.  The plan of each quantifier in a plan's
    ``leftovers`` is compiled with it, so a literal with an unbound
    variable anywhere in the formula raises EvalError, whatever the data.

    Plans depend on the formula alone, so they are compiled once per node
    and set of bound outer variables and kept on the node (``plans``),
    shared by every evaluator and structure the formula meets.  Every node
    evaluated at the top or as a quantifier keeps its plans; the other
    nodes are compiled into those plans.  An evaluator holds only its
    structure; it keeps no cache.
    """

    def __init__(self, structure):
        self.s = structure

    def eval(self, phi, env=None):
        return self._quant(phi, dict(env or {}))

    def _quant(self, phi, env):
        vs = phi.vars if type(phi) in (Exists, Forall) else ()
        # quantified variables shadow outer bindings of the same name
        saved = None if env.keys().isdisjoint(vs) else \
            {v: env.pop(v) for v in vs if v in env}
        forall, holds, pre, steps, leftovers = _plan(phi, frozenset(env))
        found = holds(pre, env, self.s.relations) and \
            self._run_plan(steps, 0, leftovers, env)
        if saved:
            env.update(saved)
        return found != forall

    def _run_plan(self, steps, i, leftovers, env):
        if i == len(steps):
            return _holds(leftovers, env, self.s.relations, self)
        var, cand, holds, test = steps[i]
        s = self.s
        if cand is None:
            values = s.universe
        elif cand[0] == "eq":
            values = (env[cand[1]],)
        else:
            _, name, positions, getter, slot = cand
            values = [t[slot] for t in
                      s.index(name, positions).get(getter(env), ())]
        relations = s.relations
        for val in values:
            env[var] = val
            if holds(test, env, relations) and \
                    self._run_plan(steps, i + 1, leftovers, env):
                del env[var]
                return True
        env.pop(var, None)
        return False


def eval_formula(structure, phi, env=None):
    """Evaluate ``phi`` in ``structure`` under the given assignment."""
    return Evaluator(structure).eval(phi, env)


# ---------------------------------------------------------------------------
# syntactic complexity

_QF = (0, 0)


def _ranks(phi, cache):
    """Return (s, p): the least levels k with phi in Sigma_k resp. Pi_k.

    (0, 0) means quantifier-free.  And/Or use the finitary closure rules
    (both classes are closed under finite junctions); BigAnd/BigOr use the
    convention for junctions over infinite families, which raises the dual
    level by one.
    """
    got = cache.get(id(phi))
    if got is not None:
        return got
    if isinstance(phi, (Rel, Eq)):
        out = _QF
    elif isinstance(phi, Not):
        s, p = _ranks(phi.body, cache)
        out = (p, s)
    elif isinstance(phi, (And, Or)):
        rs = [_ranks(p, cache) for p in phi.parts]
        out = (max((r[0] for r in rs), default=0),
               max((r[1] for r in rs), default=0))
    elif isinstance(phi, (BigAnd, BigOr)):
        rs = [_ranks(p, cache) for p in phi.parts]
        nonqf = [r for r in rs if r != _QF]
        if not nonqf:
            # a family of quantifier-free members: the conjunction is Pi_1,
            # the disjunction Sigma_1
            out = (2, 1) if isinstance(phi, BigAnd) else (1, 2)
        elif isinstance(phi, BigAnd):
            p = max(r[1] for r in nonqf)
            out = (p + 1, p)
        else:
            s = max(r[0] for r in nonqf)
            out = (s, s + 1)
    elif isinstance(phi, Exists):
        sc, pc = _ranks(phi.body, cache)
        if (sc, pc) == _QF:
            out = (1, 2)
        else:
            s = max(1, min(pc + 1, sc if sc >= 1 else pc + 1))
            out = (s, s + 1)
    elif isinstance(phi, Forall):
        sc, pc = _ranks(phi.body, cache)
        if (sc, pc) == _QF:
            out = (2, 1)
        else:
            p = max(1, min(sc + 1, pc if pc >= 1 else sc + 1))
            out = (p + 1, p)
    else:
        raise EvalError(f"not a formula node: {phi!r}")
    cache[id(phi)] = out
    return out


def classify(phi):
    """Syntactic class of ``phi``: ('qf', 0), ('sigma', k) or ('pi', k).

    When a formula sits at the same level on both sides (for instance a
    finite conjunction mixing Sigma_k and Pi_k parts) it is reported on the
    Pi side.
    """
    s, p = _ranks(phi, {})
    if (s, p) == _QF:
        return ("qf", 0)
    if s < p:
        return ("sigma", s)
    return ("pi", p)


# ---------------------------------------------------------------------------
# atomic facts of tuples; atomic types of distinct tuples in one binary relation


@functools.lru_cache(maxsize=256)
def atom_places(signature, n):
    """The relation atoms over n places, the one order every atomic-facts
    enumeration follows: per relation in name order, (name, the places its
    atoms read in ``itertools.product`` order).  ``signature`` is a sorted
    tuple of (name, arity)."""
    return tuple((name, tuple(itertools.product(range(n), repeat=ar)))
                 for name, ar in signature)


def fingerprint(struct, tup):
    """The atomic facts of a tuple as a hashable value: its equality pattern
    (the first index of each entry), then per relation (name, the truth of
    each atom in ``atom_places`` order)."""
    rel, get = struct.rel, tup.__getitem__
    return (tuple(map(tup.index, tup)),
            tuple((name, tuple([rel(name, tuple(map(get, pos)))
                                for pos in places]))
                  for name, places in atom_places(
                      tuple(sorted(struct.signature.items())), len(tup))))


@dataclass(frozen=True)
class AtomicType:
    """Atomic type of a tuple of distinct elements: its E-facts matrix.

    ``facts`` lists E(x_i, x_j) truth values row-major (i outer, j inner,
    both over the tuple positions).  ``index`` is the position of the type
    in the canonical enumeration: the empty type first, then all types of
    each length in turn, types of one length ordered by reading the facts
    vector as a binary number (first listed fact most significant,
    false < true).  Indices start at 1.
    """
    length: int
    facts: tuple

    @property
    def index(self):
        value = sum(1 << i for i, f in enumerate(reversed(self.facts)) if f)
        return type_start_index(self.length) + value


def type_start_index(n):
    """Index of the first type of tuple length n."""
    return 1 + sum(1 << (j * j) for j in range(n))


def type_count(n):
    return 1 << (n * n)


def atomic_type_of(graph, tuple_):
    """Atomic type of a tuple of *distinct* vertices of a digraph."""
    t = tuple(tuple_)
    if graph.signature != {"E": 2}:
        raise PreconditionError("atomic types are of one binary relation E")
    if len(set(t)) != len(t):
        raise PreconditionError(f"tuple {t!r} has repeated entries")
    for v in t:
        if v not in graph.universe_set:
            raise PreconditionError(f"{v!r} is not a vertex")
    _, ((_, facts),) = fingerprint(graph, t)
    return AtomicType(len(t), facts)


def type_from_index(m):
    """Inverse of ``AtomicType.index``."""
    if m < 1:
        raise PreconditionError("type indices start at 1")
    n = 0
    while type_start_index(n + 1) <= m:
        n += 1
    value = m - type_start_index(n)
    nbits = n * n
    facts = tuple(bool((value >> (nbits - 1 - i)) & 1) for i in range(nbits))
    return AtomicType(n, facts)


def tuples_of_type(graph, atype):
    """All distinct-vertex tuples of ``graph`` realizing the given type."""
    return [t for t in itertools.permutations(graph.universe, atype.length)
            if atomic_type_of(graph, t) == atype]


# ---------------------------------------------------------------------------
# isomorphism


def _refine_colors(s):
    """Colour refinement on a structure; returns element -> colour id."""
    colors = {}
    for e in s.universe:
        profile = []
        for name in sorted(s.signature):
            arity = s.signature[name]
            for pos in range(arity):
                profile.append(sum(1 for t in s.relations[name] if t[pos] == e))
        colors[e] = tuple(profile)
    incident = {e: [] for e in s.universe}
    for name in sorted(s.signature):
        for t in sorted(s.relations[name], key=repr):
            for pos, e in enumerate(t):
                incident[e].append((name, pos, t))
    while True:
        new = {}
        for e in s.universe:
            sig = sorted((name, pos, tuple(colors[x] for x in t))
                         for name, pos, t in incident[e])
            new[e] = (colors[e], tuple(sig))
        # canonicalize to small ids to keep the tuples from growing
        ids = {}
        flat = {}
        for e in sorted(s.universe, key=lambda x: (repr(new[x]), repr(x))):
            flat[e] = ids.setdefault(new[e], len(ids))
        if len(set(flat.values())) == len(set(colors.values())):
            return flat
        colors = flat


def iso_check(a, b, max_size=12):
    """Search for an isomorphism between two structures.

    Returns a dict mapping A's universe onto B's, or None if the structures
    are not isomorphic.  ``max_size`` guards against accidental huge
    searches; pass None to lift the cap.
    """
    if sorted(a.signature.items()) != sorted(b.signature.items()):
        return None
    if len(a.universe) != len(b.universe):
        return None
    if max_size is not None and len(a.universe) > max_size:
        raise PreconditionError(
            f"structures larger than {max_size} elements; pass max_size=None")
    for name in a.signature:
        if len(a.relations[name]) != len(b.relations[name]):
            return None
    ca = _refine_colors(a)
    cb = _refine_colors(b)
    by_color_a = {}
    for e, c in ca.items():
        by_color_a.setdefault(c, []).append(e)
    by_color_b = {}
    for e, c in cb.items():
        by_color_b.setdefault(c, []).append(e)
    if sorted((c, len(v)) for c, v in by_color_a.items()) != \
       sorted((c, len(v)) for c, v in by_color_b.items()):
        return None

    incident_a = {e: [] for e in a.universe}
    for name in a.signature:
        for t in a.relations[name]:
            for e in set(t):
                incident_a[e].append((name, t))

    order = sorted(a.universe, key=lambda e: (len(by_color_a[ca[e]]), repr(ca[e]), repr(e)))
    mapping = {}
    used = set()

    def consistent(e, img):
        for name, t in incident_a[e]:
            if all(x in mapping or x == e for x in t):
                timg = tuple(mapping.get(x, img) if x != e else img for x in t)
                if timg not in b.relations[name]:
                    return False
        # reverse direction: counts per relation among the mapped part must
        # agree, checked fully below once the map is total
        return True

    def backtrack(i):
        if i == len(order):
            return True
        e = order[i]
        for img in sorted(by_color_b[ca[e]], key=repr):
            if img in used:
                continue
            if consistent(e, img):
                mapping[e] = img
                used.add(img)
                if backtrack(i + 1):
                    return True
                del mapping[e]
                used.discard(img)
        return False

    if not backtrack(0):
        return None
    # the forward check plus equal relation sizes makes the map an isomorphism,
    # but verify both directions explicitly
    for name in a.signature:
        fwd = {tuple(mapping[x] for x in t) for t in a.relations[name]}
        if fwd != b.relations[name]:
            return None
    return dict(mapping)
