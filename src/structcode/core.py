"""Finite relational structures and the logic toolbox built on them.

This module provides the shared substrate for everything else in the
package: finite structures with named relations, an AST for (bounded
fragments of) infinitary first-order formulas, evaluation by compiled
backtracking joins over relation indexes, a syntactic complexity
classifier, the one table of a tuple's atomic facts (``atom_places``,
read by ``fingerprint`` and atomic types of distinct digraph tuples), and
an individualise-and-refine isomorphism search.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
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


def ident_key(v):
    """The one sort key for element identifiers, which may mix integers and
    strings: by type, then by value."""
    return (str(type(v)), v)


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
                for (n, positions, slot), idx in self._index.items():
                    if n == name:
                        idx.setdefault(tuple([t[i] for i in positions]), []) \
                            .append(t if slot is None else t[slot])

    def rel(self, name, args):
        try:
            tuples = self.relations[name]
        except KeyError:
            raise EvalError(f"unknown relation {name!r}")
        return tuple(args) in tuples

    def index(self, name, positions, slot=None):
        """The tuples of relation ``name`` grouped by their values at
        ``positions`` (a tuple): a dict from value tuples to lists of
        tuples, or of the tuples' values at ``slot`` when it is given (the
        value lists the evaluator draws candidates from), built on first
        use.  A value list lists a value once per tuple that has it; the
        evaluator's lists are over every position but ``slot``, so they
        never repeat a value."""
        idx = self._index.get((name, positions, slot))
        if idx is None:
            try:
                tuples = self.relations[name]
            except KeyError:
                raise EvalError(f"unknown relation {name!r}")
            idx = self._index[name, positions, slot] = {}
            for t in tuples:
                idx.setdefault(tuple([t[i] for i in positions]), []).append(
                    t if slot is None else t[slot])
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
        return [t[1] for t in self.matches("E", (v, None))]


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
# freely, and stay small while long-lived formulas keep the plans their
# evaluations compiled (``Formula.plan``; see ``Evaluator``).  ``str``
# prints the s-expression that ``formats.parse_formula`` reads back.  And/Or
# are the finitary connectives.  BigAnd/BigOr mark junctions that stand for
# (truncations of) infinite families indexed by tuples; they evaluate
# identically but are classified with the level-raising convention.


class Formula:
    """Base class of the formula nodes.

    ``plan``, outside ``==``, ``hash`` and ``repr``, is unset until the
    node's plan is compiled (see ``_plan``), so building a node does not
    pay for it.
    """
    __slots__ = ("plan",)

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


def _holds(test, env, s, memo):
    """Check a compiled conjunction ``(literals, negated, rest)`` in the
    structure ``s``: every literal ``(getter, relation or None for =,
    want)`` holds, no conjunction ``(literals, more)`` of ``negated`` holds
    (its literals, then ``more``, None or a compiled conjunction without
    literals), and each plan of a quantifier ``(plan, want)`` of ``rest``
    runs to ``want``.  Literals are checked in line, as in ``_search``, so
    a negated conjunction costs a call only once its literals all hold."""
    literals, negated, rest = test
    relations = s.relations
    for getter, name, want in literals:
        vals = getter(env)
        if (vals in relations[name] if name is not None
                else vals[0] == vals[1]) != want:
            return False
    for checks, more in negated:
        for getter, name, want in checks:
            vals = getter(env)
            if (vals in relations[name] if name is not None
                    else vals[0] == vals[1]) != want:
                break
        else:
            if more is None or _holds(more, env, s, memo):
                return False
    for plan, want in rest:
        if _run(plan, env, s, memo) != want:
            return False
    return True


def _run(plan, env, s, memo):
    """The truth in ``s`` of the formula of ``plan`` (see ``_plan``) under
    ``env``, where its quantified variables shadow their outer bindings.

    A plan that two conjunctions hold (see ``_Holders``) keeps its verdict
    for each value of its free variables in ``memo``, the dict of one
    ``eval`` call.  Keying it by ``id(plan)`` is safe because the root plan
    holds every nested plan until that call returns, so no other object
    takes a plan's id while the memo lives."""
    forall, vs, _, _, holders, pre, steps = plan
    values = holders.values
    if values is not None:
        key = (id(plan), values(env))
        found = memo.get(key)
        if found is not None:
            return found
    saved = None if env.keys().isdisjoint(vs) else \
        {v: env.pop(v) for v in vs if v in env}
    found = (pre is None or _holds(pre, env, s, memo)) and \
        _search(steps, 0, env, s, memo)
    if saved:
        env.update(saved)
    found = found != forall
    if values is not None:
        memo[key] = found
    return found


def _search(steps, i, env, s, memo):
    """Whether values for the variables of ``steps[i:]`` satisfy their
    checks; see ``_plan``."""
    if i == len(steps):
        return True
    var, cand, literals, more = steps[i]
    if cand is None:
        values = s.universe
    else:
        rel, positions, slot, args = cand
        values = s.index(rel, positions, slot).get(args(env), ())
    relations = s.relations
    for val in values:
        env[var] = val
        for getter, name, want in literals:
            vals = getter(env)
            if (vals in relations[name] if name is not None
                    else vals[0] == vals[1]) != want:
                break
        else:
            if (more is None or _holds(more, env, s, memo)) and \
                    _search(steps, i + 1, env, s, memo):
                del env[var]
                return True
    env.pop(var, None)
    return False


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
    """The one intern table of the plans: one object for equal compiled
    literals, for equal steps and for equal lists of free variables or
    relations, so that the plans kept on formula nodes share them instead
    of holding copies."""
    return part


def _args(atom):
    return atom.args if type(atom) is Rel else (atom.left, atom.right)


def _literal(atom, want):
    """The compiled literal ``(getter, relation name or None for =, want)``
    of a Rel or Eq node, ``getter(env)`` giving its argument values, shared
    by every plan that checks it."""
    return _shared((_values_of(_args(atom)),
                    atom.name if type(atom) is Rel else None, want))


def _free(phi, out, rels):
    """Add the free variables of ``phi`` to the dict ``out`` and the names
    of the relations it reads to the dict ``rels``, both in order of first
    occurrence, and return ``out``.  A quantifier adds those of its plan,
    which this compiles; anything that is not a formula node raises
    EvalError."""
    t = type(phi)
    if t is Rel or t is Eq:
        out.update(dict.fromkeys(_args(phi)))
        if t is Rel:
            rels[phi.name] = None
    elif t is Not:
        _free(phi.body, out, rels)
    elif t in _JUNCTIONS:
        for p in phi.parts:
            _free(p, out, rels)
    elif t is Exists or t is Forall:
        _, _, free, used, _, _, _ = _plan(phi)
        out.update(dict.fromkeys(free))
        rels.update(dict.fromkeys(used))
    else:
        raise EvalError(f"not a formula node type: {t.__name__}")
    return out


def _learn(known, literals):
    """Add to ``known`` the literals ``(node, want)``, each = both ways."""
    for c, want in literals:
        known.add((c, want))
        if type(c) is Eq:
            known.add((Eq(c.right, c.left), want))


class _Plan(tuple):
    """A compiled plan (see ``_plan``), a tuple that hashes and compares by
    identity: interning a step that holds plans (``_shared``) then reads no
    further than the plans.  By value, a hash walks the plans below once
    per path, which doubles with each level of a chain of quantifiers that
    are each held twice by the one above."""
    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


class _Holders:
    """The number of compiled conjunctions that hold a plan as a nested
    quantifier, counted as they are compiled.  From the second on,
    ``values`` reads the plan's free variables and ``_run`` memoises the
    plan, since its holders can decide it for the same values: a
    ``phi_tuple`` move formula sits under both the Exists and the Forall
    of its level.  A plan with one holder pays nothing for the memo."""
    __slots__ = ("count", "values")

    def __init__(self):
        self.count = 0
        self.values = None


def _compile(conjuncts, known):
    """The compiled conjunction ``(literals, negated, rest)`` of
    ``conjuncts`` (see ``_holds``), leaving out the literals in ``known``,
    which hold wherever it is checked.

    A literal is compiled by ``_literal``.  A junction conjunct holds when
    the conjunction of its negated parts fails, so that conjunction is
    compiled knowing this one's literals, and enters ``negated`` split by
    ``_split``.  A quantifier ``c`` enters ``rest`` as its own plan
    ``_plan(c)``, one more holder of it.
    """
    literals, junctions, rest = [], [], []
    for c, want in conjuncts:
        t = type(c)
        if t is Rel or t is Eq:
            if (c, want) not in known:
                literals.append((c, want))
        elif t in _JUNCTIONS:
            junctions.append((c, want))
        else:
            plan = _plan(c)
            holders = plan[4]
            holders.count += 1
            if holders.count == 2:
                holders.values = _values_of(plan[2])
            rest.append((plan, want))
    if junctions and literals:
        known = set(known)
        _learn(known, literals)
    return (tuple(_literal(c, w) for c, w in literals),
            tuple(_split(_compile(_conjuncts(c, not w, []), known))
                  for c, w in junctions),
            tuple(rest))


def _split(test):
    """A compiled conjunction as ``(literals, more)``: its literals, which
    are checked in line, and None or the conjunction without them."""
    literals, negated, rest = test
    return literals, ((), negated, rest) if negated or rest else None


def _plan(phi):
    """The plan of ``phi``, compiled once and kept on the node (``plan``):
    a backtracking search for values of its quantified variables that
    satisfy the conjuncts of its body.  A node other than a quantifier runs
    as one over no variables, over its own conjuncts; ``_run`` runs it.

    The plan is ``(forall, vars, free, rels, holders, pre, steps)``.
    ``free`` and ``rels`` are the node's free variables and the relations
    it reads, nested quantifiers included, as tuples in order of first
    occurrence.  ``holders`` counts the conjunctions that hold the plan
    (see ``_Holders``).  ``pre`` is None or the compiled conjunction (see
    ``_compile``) of the conjuncts the free variables decide.  ``steps``
    binds the quantified variables in order, each as ``(var, candidates,
    literals, more)``, where the candidates are the whole universe (None)
    or a value list of the structure's (``Structure.index`` with a slot),
    read at ``(name, positions, slot, getter)``, ``getter(env)`` giving the
    values at the bound ``positions``, and ``literals`` and ``more`` (None,
    or a compiled conjunction without literals) the conjuncts decided once
    ``var`` is bound.  An equality is always a literal.

    Every conjunct, literal, clause or quantifier, is checked at the step
    that binds its last free variable (selection pushdown), and compiled
    knowing the literals checked before it.  ``_search`` checks a step's
    literals in line, so a step with nothing more does no more work per
    candidate than its literals.
    """
    plan = getattr(phi, "plan", None)
    if plan is not None:
        return plan
    t = type(phi)
    quant = t is Exists or t is Forall
    forall = t is Forall
    vs = phi.vars if quant else ()
    todo = tuple(dict.fromkeys(vs))
    level = {v: i for i, v in enumerate(todo)}
    unbound = len(todo)
    cands = [None] * unbound
    # the conjuncts decided at each step, then those the free variables
    # decide (at index -1)
    placed = [[] for _ in range(unbound + 1)]
    free, rels = {}, {}
    for c, want in _conjuncts(phi.body if quant else phi, not forall, []):
        args = _free(c, {}, rels)
        free.update((a, None) for a in args if a not in level)
        i = max((level.get(a, -1) for a in args), default=-1)
        if i >= 0 and want and cands[i] is None and type(c) is Rel and \
                c.args.count(todo[i]) == 1:
            # a positive relation literal on one new variable yields exactly
            # the values that satisfy it, so it need not be checked again
            args = c.args
            slot = args.index(todo[i])
            cands[i] = (c.name, tuple(j for j in range(len(args)) if j != slot),
                        slot, _values_of(args[:slot] + args[slot + 1:]))
            continue
        placed[i].append((c, want))
    tests = []
    # the literals checked at the steps compiled so far
    known = set()
    for i in range(-1, unbound):
        tests.append(_compile(placed[i], known))
        _learn(known, [(c, w) for c, w in placed[i] if type(c) in (Rel, Eq)])
    pre, *tests = tests
    steps = tuple(_shared((var, cand, *_split(test)))
                  for var, cand, test in zip(todo, cands, tests))
    plan = _Plan((forall, vs, _shared(tuple(free)), _shared(tuple(rels)),
                  _Holders(), pre if any(pre) else None, steps))
    object.__setattr__(phi, "plan", plan)
    return plan


class Evaluator:
    """Truth evaluation of a formula in a finite structure.

    Every quantifier runs as a backtracking search over a conjunction:
    ``Exists(vs, body)`` over the conjuncts of ``body``, and ``Forall(vs,
    body)`` as not-exists-not, over its negated disjuncts, so the ``Eq``
    disjuncts that excuse repeated elements become distinctness checks
    that prune the search.  Variables are bound one at a time, drawing
    values from a relation index where a positive literal allows, and each
    conjunct is checked as soon as it is decided (see ``_plan``).

    ``eval`` runs any node this way: a node other than a quantifier as one
    with no variables, over its own conjuncts.  A plan is a closed tree
    that holds the plan of each quantifier in it, and lists the free
    variables and relations of the whole tree, so ``eval`` raises
    EvalError for an unbound variable, an unknown relation or a non-node
    anywhere in the formula before the search starts, whatever the data;
    ``_run``, ``_search`` and ``_holds`` run it.  A formula nested past
    Python's recursion limit raises EvalError too.

    A plan depends on its node alone, so it is compiled once and kept on
    the node (``plan``), shared by every evaluator and structure the
    formula meets.  Every node evaluated at the top or as a quantifier
    keeps its plan; the other nodes are compiled into those plans.  An
    evaluator holds only its structure.  Each ``eval`` call keeps one memo
    of the verdicts of the nested quantifiers that two conjunctions hold
    (see ``_Holders``), dropped when the call returns or raises, so no
    verdict outlives the call or sees the structure change.
    """

    def __init__(self, structure):
        self.s = structure

    def eval(self, phi, env=None):
        env = dict(env or {})
        try:
            _, _, free, rels, _, _, _ = plan = _plan(phi)
            for v in free:
                if v not in env:
                    raise EvalError(f"unbound variable {v!r}")
            for name in rels:
                if name not in self.s.relations:
                    raise EvalError(f"unknown relation {name!r}")
            return _run(plan, env, self.s, {})
        except RecursionError as exc:
            raise EvalError(
                f"formula nested too deeply to evaluate: {exc}") from None


def eval_formula(structure, phi, env=None):
    """Evaluate ``phi`` in ``structure`` under the given assignment."""
    return Evaluator(structure).eval(phi, env)


# ---------------------------------------------------------------------------
# syntactic complexity

def _ranks(phi, cache):
    """Return (s, p): the least levels k with phi in Sigma_k resp. Pi_k.

    (0, 0) means quantifier-free.  And/Or use the finitary closure rules
    (both classes are closed under finite junctions); BigAnd/BigOr use the
    convention for junctions over infinite families, which raises the dual
    level by one.  Forall and BigOr are the duals of Exists and BigAnd.
    """
    got = cache.get(id(phi))
    if got is not None:
        return got
    t = type(phi)
    if t is Rel or t is Eq:
        out = (0, 0)
    elif t is Not:
        out = _ranks(phi.body, cache)[::-1]
    elif t is And or t is Or:
        rs = [_ranks(q, cache) for q in phi.parts]
        out = (max((s for s, _ in rs), default=0),
               max((p for _, p in rs), default=0))
    elif t is BigAnd or t is BigOr:
        # the members' largest Pi level for BigAnd, Sigma level for BigOr
        i = 1 if t is BigAnd else 0
        k = max([1, *(_ranks(q, cache)[i] for q in phi.parts)])
        out = (k + 1, k) if i else (k, k + 1)
    elif t is Exists or t is Forall:
        s, p = _ranks(phi.body, cache)
        if t is Forall:
            s, p = p, s
        k = max(1, min(s, p + 1))
        out = (k, k + 1) if t is Exists else (k + 1, k)
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
    if s == p == 0:
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


def _refine(table, colors):
    """Colour refinement of ``colors`` over an incidence table.  Each round's
    distinct colours are numbered in ``repr`` order, so the ids are
    invariant under isomorphism; it stops when no class splits."""
    while True:
        new = {e: (colors[e], tuple(sorted(
            (name, pos, tuple(colors[x] for x in t)) for name, pos, t in entries)))
            for e, entries in table.items()}
        ids = {c: i for i, c in enumerate(sorted(set(new.values()), key=repr))}
        flat = {e: ids[c] for e, c in new.items()}
        if len(ids) == len(set(colors.values())):
            return flat
        colors = flat


def _refine_colors(s):
    """Colour refinement on a structure.  Returns (colours, table): element
    -> colour id, and element -> its incidence entries (relation, position,
    tuple).  An element starts with its entry counts per (relation,
    position), relations in name order."""
    table = {e: [] for e in s.universe}
    for name in s.signature:
        for t in s.relations[name]:
            for pos, e in enumerate(t):
                table[e].append((name, pos, t))
    places = [(name, pos) for name in sorted(s.signature)
              for pos in range(s.signature[name])]
    counts = {e: Counter((name, pos) for name, pos, _ in entries)
              for e, entries in table.items()}
    colors = {e: tuple(c[place] for place in places) for e, c in counts.items()}
    return _refine(table, colors), table


def iso_check(a, b, fixed=()):
    """A dict mapping A's universe onto B's that is an isomorphism sending
    x to y for each pair (x, y) of ``fixed``, or None.

    Individualise and refine, in one loop over an explicit search path: the
    pairs on the path get fresh colours on top of both refined colourings,
    which are refined again, and a node whose class sizes differ is cut.
    The path starts with the ``fixed`` pairs, one candidate each.  Then the
    first element of A (by root class size, colour and ``repr``) whose class
    is not a singleton is tried on B's elements of its colour in ``repr``
    order.  Refinement only cuts branches that no isomorphism extends, so
    the first all-singleton colouring that maps each relation onto B's and
    each fixed entry onto its partner gives the first such isomorphism in
    that order.  The last check is needed: an entry fixed twice keeps only
    its last colour.  A pair entry outside its structure raises
    PreconditionError."""
    if not (a.universe_set.issuperset(x for x, _ in fixed) and
            b.universe_set.issuperset(y for _, y in fixed)):
        raise PreconditionError(f"pairs {tuple(fixed)!r} have entries outside "
                                "the structures")
    if a.signature != b.signature or len(a.universe) != len(b.universe) or \
            any(len(ts) != len(b.relations[n]) for n, ts in a.relations.items()):
        return None
    ca, table_a = _refine_colors(a)
    cb, table_b = _refine_colors(b)
    sizes = Counter(ca.values())
    order = sorted(a.universe,
                   key=lambda x: (sizes[ca[x]], repr(ca[x]), repr(x)))
    last_first = sorted(b.universe, key=repr)[::-1]
    # (x, ys): x is paired with ys[-1], the rest are still to try
    path = [(x, [y]) for x, y in fixed]
    while True:
        pairs = [(x, ys[-1], -1 - i) for i, (x, ys) in enumerate(path)]
        sa = _refine(table_a, {**ca, **{x: c for x, _, c in pairs}})
        sb = _refine(table_b, {**cb, **{y: c for _, y, c in pairs}})
        sizes = Counter(sa.values())
        if sizes == Counter(sb.values()):
            x = next((x for x in order if sizes[sa[x]] > 1), None)
            if x is not None:
                path.append((x, [y for y in last_first if sb[y] == sa[x]]))
                continue
            mapping = dict(zip(sorted(sa, key=sa.get), sorted(sb, key=sb.get)))
            if all(mapping[x] == y for x, y in fixed) and \
                    all(tuple(map(mapping.get, t)) in b.relations[name]
                        for name, ts in a.relations.items() for t in ts):
                return mapping
        while path and len(path[-1][1]) == 1:
            path.pop()
        if not path:
            return None
        path[-1][1].pop()
