"""Text and JSON formats: graph files, s-expression formulas, spec bundles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structcode.core import (And, BigOr, Digraph, Eq, Exists, Forall,
                             MalformedInputError, Not, Or, Rel)
from structcode.denseq import Dyadic
from structcode.formats import (element_items_from_json, element_to_json,
                                formula_to_sexpr, interp_spec_to_text,
                                parse_formula, parse_interp_spec,
                                parse_sexprs, parse_struct_text,
                                sexpr_to_formula, struct_to_text)
from structcode.fslin import fs_element


class TestStructText:
    def test_parse(self):
        text = "# a comment\nv 0\nv 1\ne 0 1   # trailing\no 1 0\n"
        vertices, edges, order = parse_struct_text(text)
        assert vertices == [0, 1]
        assert edges == [(0, 1)]
        assert order == [1, 0]

    def test_symbolic_identifiers(self):
        vertices, edges, order = parse_struct_text("v a\nv b\ne a b\n")
        assert vertices == ["a", "b"] and edges == [("a", "b")]
        assert order is None

    def test_round_trip(self):
        text = struct_to_text([0, 1, 2], [(0, 1), (1, 2)], [2, 1, 0])
        assert parse_struct_text(text) == ([0, 1, 2], [(0, 1), (1, 2)],
                                           [2, 1, 0])

    def test_errors(self):
        for bad in ("v\n", "e 0\n", "q 1\n", "o 0\no 1\n"):
            with pytest.raises(MalformedInputError):
                parse_struct_text(bad)


class TestFormulas:
    def test_parse_examples(self):
        assert parse_formula("(E x y)") == Rel("E", ("x", "y"))
        assert parse_formula("(= x y)") == Eq("x", "y")
        assert parse_formula("(not (E x y))") == Not(Rel("E", ("x", "y")))
        assert parse_formula("(and)") == And(())
        assert parse_formula("(exists (y z) (E x y))") == \
            Exists(("y", "z"), Rel("E", ("x", "y")))
        assert parse_formula("(forall (y) (bigor (E x y)))") == \
            Forall(("y",), BigOr((Rel("E", ("x", "y")),)))

    def test_round_trip(self):
        phis = [
            Exists(("y",), And((Rel("E", ("x", "y")), Not(Eq("x", "y"))))),
            Forall(("u", "v"), Or(())),
            BigOr((Eq("a", "b"),)),
        ]
        for phi in phis:
            assert parse_formula(formula_to_sexpr(phi)) == phi
        with pytest.raises(MalformedInputError):
            formula_to_sexpr("(E x y)")

    def test_errors(self):
        for bad in ("(not)", "(exists y (E x y))", "(= x)", "x",
                    "(E x y) (E y x)", "(E x (y))", "((E x y))", "(and (E x"):
            with pytest.raises(MalformedInputError):
                parse_formula(bad)

    def test_parse_sexprs_multiple(self):
        assert parse_sexprs("(a) (b c)") == [["a"], ["b", "c"]]
        assert sexpr_to_formula(["and"]) == And(())


# ---------------------------------------------------------------------------
# the s-expression reader against the character tokenizer and recursive
# reader it replaced


def _reference_tokenize(text):
    out = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def _reference_read(tokens, pos):
    if pos >= len(tokens):
        raise MalformedInputError("unexpected end of s-expression")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _reference_read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise MalformedInputError("unbalanced parenthesis")
        return items, pos + 1
    if tok == ")":
        raise MalformedInputError("unexpected ')'")
    return tok, pos + 1


def _reference_parse_sexprs(text):
    tokens = _reference_tokenize(text)
    out = []
    pos = 0
    while pos < len(tokens):
        item, pos = _reference_read(tokens, pos)
        out.append(item)
    return out


def _outcome(read, text):
    try:
        return "read", read(text)
    except MalformedInputError as exc:
        return "error", str(exc)


# parentheses, atoms and whitespace, with the separators outside ASCII
# (NEL, ideographic space, file separator) that str.isspace also splits on
_SEXPR_TEXT = st.text(
    st.one_of(st.sampled_from("(()) ab1-\n\t\x85\u3000\x1c\x0c\u2028\xa0"),
              st.characters()), max_size=40)


class TestSexprReader:
    @settings(max_examples=500, deadline=None)
    @given(_SEXPR_TEXT)
    @example("(a\x85b\u3000c\x1cd)")
    def test_matches_reference(self, text):
        assert _outcome(parse_sexprs, text) == \
            _outcome(_reference_parse_sexprs, text)

    def test_messages(self):
        with pytest.raises(MalformedInputError, match="unexpected '\\)'"):
            parse_sexprs("(a)) (b)")
        with pytest.raises(MalformedInputError, match="unbalanced parenthesis"):
            parse_sexprs("(a (b)")
        with pytest.raises(MalformedInputError, match="empty s-expression"):
            parse_formula("()")

    def test_reads_deep_text(self):
        depth = 100_000
        (node,) = parse_sexprs("(" * depth + "x" + ")" * depth)
        for _ in range(depth - 1):
            (node,) = node
        assert node == ["x"]

    @pytest.mark.parametrize("read, text", [
        (parse_formula, "(not " * 5000 + "(E x x)" + ")" * 5000),
        (parse_interp_spec,
         "(domain 1 " + "(not " * 5000 + "(E x1 x1)" + ")" * 5000 + ")")],
        ids=["formula", "spec"])
    def test_formula_too_deep_is_malformed(self, read, text):
        with pytest.raises(MalformedInputError, match="nested too deeply"):
            read(text)


class TestInterpSpec:
    def test_round_trip(self):
        text = (
            "(domain 1 (and))\n"
            "(sim-pos 1 1 (= t1_1 t2_1))\n"
            "(sim-neg 1 1 (not (= t1_1 t2_1)))\n"
            "(rel-pos E 1 1 (E t1_1 t2_1))\n"
            "(rel-neg E 1 1 (not (E t1_1 t2_1)))\n"
            "(target E 2)\n")
        spec = parse_interp_spec(text)
        assert spec.domain[1] == And(())
        assert spec.target_signature == {"E": 2}
        assert spec.rel_pos["E"][(1, 1)] == Rel("E", ("t1_1", "t2_1"))
        assert parse_interp_spec(interp_spec_to_text(spec)).domain == \
            spec.domain

    def test_errors(self):
        for bad in ("(domain x (and))", "(mystery 1)", "(target E x)",
                    "(sim-pos 1 (and))", "bare"):
            with pytest.raises(MalformedInputError):
                parse_interp_spec(bad)

    @pytest.mark.parametrize("text, message", [
        ("(domain 1)", "domain takes an arity and a formula"),
        ("(rel-pos E (and))", "rel-pos takes a name, slot arities and a formula"),
        ("(target E)", "target takes a name and an arity")])
    def test_malformed_records(self, text, message):
        with pytest.raises(MalformedInputError) as err:
            parse_interp_spec(text)
        assert str(err.value) == message


class TestElementJson:
    def test_round_trip(self):
        g = Digraph([0, 1], [(0, 1)])
        data = ["1/4", "1/2", "3/4", 0]
        e = fs_element(g, element_items_from_json(data))
        assert e.rs == (Dyadic(1, 2), Dyadic(3, 2))
        assert element_to_json(e) == data

    def test_errors(self):
        g = Digraph([0, 1], [(0, 1)])
        for bad in ("no", ["1/2", "3/4"], [1, 0], ["1/2", True], []):
            with pytest.raises(MalformedInputError):
                fs_element(g, element_items_from_json(bad))
