"""Text formats: graph/order files, s-expression formulas, JSON elements.

Graph files use one record per line: ``v <id>`` declares a vertex,
``e <u> <v>`` an edge, and ``o <id> <id> ...`` lists the elements of a
linear order in increasing order.  ``#`` starts a comment.  Identifiers
that look like integers are read as integers.

Formulas are s-expressions: ``(exists (y) (E x y))``, with heads
``and or bigand bigor not exists forall =`` and any other head read as a
relation symbol.  A token is a parenthesis or a maximal run of other
non-whitespace characters.  The reader keeps open lists on a stack and
reads any nesting depth; ``sexpr_to_formula`` recurses, so a formula
nested past Python's recursion limit raises ``MalformedInputError``.
"""

from __future__ import annotations

import re

from .core import (And, BigAnd, BigOr, Eq, Exists, Forall, Formula,
                   MalformedInputError, Not, Or, PreconditionError, Rel)
from .denseq import Dyadic
from .interp import InterpretationSpec


def parse_ident(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def parse_struct_text(text):
    """Parse graph/order lines into (vertices, edges, order-or-None)."""
    vertices, edges, order = [], [], None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        if tag == "v":
            if len(args) != 1:
                raise MalformedInputError(f"line {ln}: v takes one identifier")
            vertices.append(parse_ident(args[0]))
        elif tag == "e":
            if len(args) != 2:
                raise MalformedInputError(f"line {ln}: e takes two identifiers")
            edges.append((parse_ident(args[0]), parse_ident(args[1])))
        elif tag == "o":
            if order is not None:
                raise MalformedInputError(f"line {ln}: repeated o line")
            order = [parse_ident(a) for a in args]
        else:
            raise MalformedInputError(f"line {ln}: unknown record {tag!r}")
    return vertices, edges, order


def struct_to_text(vertices, edges, order=None):
    lines = [f"v {v}" for v in vertices]
    lines += [f"e {u} {v}" for u, v in edges]
    if order is not None:
        lines.append("o " + " ".join(str(x) for x in order))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# s-expressions


_TOKEN = re.compile(r"[()]|[^()\s]+")


def parse_sexprs(text):
    """All top-level s-expressions in a text, as nested lists of atoms."""
    stack = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            done = stack.pop()
            stack[-1].append(done)
        else:
            raise MalformedInputError("unexpected ')'")
    if len(stack) > 1:
        raise MalformedInputError("unbalanced parenthesis")
    return stack[0]


def sexpr_to_formula(node):
    try:
        return _formula(node)
    except RecursionError:
        raise MalformedInputError("formula nested too deeply to read")


def _formula(node):
    if isinstance(node, str):
        raise MalformedInputError(f"bare atom {node!r} is not a formula")
    if not node:
        raise MalformedInputError("empty s-expression")
    head, *rest = node
    if not isinstance(head, str):
        raise MalformedInputError("formula head must be a symbol")
    if head in ("and", "or", "bigand", "bigor"):
        ctor = {"and": And, "or": Or, "bigand": BigAnd, "bigor": BigOr}[head]
        return ctor(tuple(_formula(r) for r in rest))
    if head == "not":
        if len(rest) != 1:
            raise MalformedInputError("not takes one argument")
        return Not(_formula(rest[0]))
    if head in ("exists", "forall"):
        if len(rest) != 2 or not isinstance(rest[0], list) or \
                not all(isinstance(v, str) for v in rest[0]):
            raise MalformedInputError(f"{head} takes a variable list and a body")
        ctor = Exists if head == "exists" else Forall
        return ctor(tuple(rest[0]), _formula(rest[1]))
    if head == "=":
        if len(rest) != 2 or not all(isinstance(r, str) for r in rest):
            raise MalformedInputError("= takes two terms")
        return Eq(rest[0], rest[1])
    if not all(isinstance(r, str) for r in rest):
        raise MalformedInputError(f"relation {head!r} takes term arguments")
    return Rel(head, tuple(rest))


def parse_formula(text):
    exprs = parse_sexprs(text)
    if len(exprs) != 1:
        raise MalformedInputError("expected exactly one formula")
    return sexpr_to_formula(exprs[0])


def formula_to_sexpr(phi):
    if not isinstance(phi, Formula):
        raise MalformedInputError(f"not a formula node: {phi!r}")
    return str(phi)


# ---------------------------------------------------------------------------
# interpretation spec files: a sequence of headed s-expressions


def parse_interp_spec(text):
    """Read an interpretation bundle.

    Records: ``(domain N FORMULA)``, ``(sim-pos N1 N2 FORMULA)``,
    ``(sim-neg N1 N2 FORMULA)``, ``(rel-pos NAME N1 .. Nk FORMULA)``,
    ``(rel-neg ...)``, ``(target NAME ARITY)``.
    """
    domain, sim_pos, sim_neg = {}, {}, {}
    rel_pos, rel_neg, target_sig = {}, {}, {}

    def nat(tok):
        if not isinstance(tok, str) or not tok.isdigit():
            raise MalformedInputError(f"expected an arity, got {tok!r}")
        return int(tok)

    for rec in parse_sexprs(text):
        if not isinstance(rec, list) or not rec:
            raise MalformedInputError("spec records must be s-expressions")
        head, *rest = rec
        if head == "domain":
            if len(rest) != 2:
                raise MalformedInputError("domain takes an arity and a formula")
            domain[nat(rest[0])] = sexpr_to_formula(rest[1])
        elif head in ("sim-pos", "sim-neg"):
            if len(rest) != 3:
                raise MalformedInputError(f"{head} takes two arities and a formula")
            key = (nat(rest[0]), nat(rest[1]))
            (sim_pos if head == "sim-pos" else sim_neg)[key] = \
                sexpr_to_formula(rest[2])
        elif head in ("rel-pos", "rel-neg"):
            if len(rest) < 3 or not isinstance(rest[0], str):
                raise MalformedInputError(
                    f"{head} takes a name, slot arities and a formula")
            name = rest[0]
            key = tuple(nat(t) for t in rest[1:-1])
            fam = rel_pos if head == "rel-pos" else rel_neg
            fam.setdefault(name, {})[key] = sexpr_to_formula(rest[-1])
        elif head == "target":
            if len(rest) != 2 or not isinstance(rest[0], str):
                raise MalformedInputError("target takes a name and an arity")
            target_sig[rest[0]] = nat(rest[1])
        else:
            raise MalformedInputError(f"unknown spec record {head!r}")
    return InterpretationSpec(domain, sim_pos, sim_neg, rel_pos, rel_neg,
                              target_sig)


def interp_spec_to_text(spec):
    lines = []
    for n in sorted(spec.domain):
        lines.append(f"(domain {n} {formula_to_sexpr(spec.domain[n])})")
    for fam, head in ((spec.sim_pos, "sim-pos"), (spec.sim_neg, "sim-neg")):
        for (n1, n2) in sorted(fam):
            lines.append(f"({head} {n1} {n2} {formula_to_sexpr(fam[(n1, n2)])})")
    for fam, head in ((spec.rel_pos, "rel-pos"), (spec.rel_neg, "rel-neg")):
        for name in sorted(fam):
            for key in sorted(fam[name]):
                arities = " ".join(str(k) for k in key)
                lines.append(f"({head} {name} {arities} "
                             f"{formula_to_sexpr(fam[name][key])})")
    for name in sorted(spec.target_signature):
        lines.append(f"(target {name} {spec.target_signature[name]})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# order elements as JSON values


def dyadic_from_json(x):
    """\"5/8\" -> Dyadic; anything else is malformed input."""
    if not isinstance(x, str):
        raise MalformedInputError(f"{x!r} is not a dyadic string")
    try:
        return Dyadic.parse(x)
    except PreconditionError as exc:
        raise MalformedInputError(str(exc))


def element_items_from_json(data):
    """[\"1/2\", \"5/8\", \"3/4\", 1] -> [Dyadic, Dyadic, Dyadic, 1], membership
    unchecked; anything but dyadic strings ending in an integer is malformed."""
    if not isinstance(data, list):
        raise MalformedInputError("element must be a JSON list")
    items = [dyadic_from_json(x) for x in data[:-1]]
    if not data or not isinstance(data[-1], int) or isinstance(data[-1], bool):
        raise MalformedInputError("final entry must be an integer")
    return items + [data[-1]]


def element_to_json(e):
    return [str(x) for x in e.seq()[:-1]] + [e.tail]
