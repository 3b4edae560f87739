"""Command-line interface: payloads, exit codes, byte-stable output."""

import argparse
import io
import contextlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structcode
from structcode.cli import build_parser, load_struct, main
from structcode.formats import interp_spec_to_text, parse_formula
from structcode.interp import trivial_interp

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

GOLDEN_CASES = {
    "marker_encode_edge2.json":
        ["marker", "encode", str(DATA / "edge2.graph")],
    "fs_member.json":
        ["fs", "member", "--graph", str(DATA / "edge2.graph"),
         '["1/4","1/2","3/4",0]'],
    "fs_shape.json":
        ["fs", "shape", "--graph", str(DATA / "edge2.graph"),
         '["1/4","1/2","3/4",0]', '["1/4","1/2","3/4",1]'],
    "fs_shape_formulas.json":
        ["fs", "shape", "--formulas", "--graph", str(DATA / "edge2.graph"),
         '["1/4","1/2","3/4",0]', '["1/4","1/2","3/4",1]'],
    "fs_shape_formulas_inf.json":
        ["fs", "shape", "--formulas", "--graph", str(DATA / "edge2.graph"),
         '["1/8","1/8","3/8",0]', '["1/8","1/8","3/4",0]'],
    "fs_shift_left.json":
        ["fs", "shift", "--graph", str(DATA / "edge2.graph"), "--side",
         "left", "--past", '["1/2","1/8","3/8",0]', '["1/8","1/8","3/8",0]',
         '["5/8","1/8","3/8",1]'],
    "fs_minlen.json":
        ["fs", "minlen", "--graph", str(DATA / "edge2.graph"),
         '["1/4","1/8","3/4",0]', '["1/4","3/8","3/4",0]'],
    "bnf_equiv.json":
        ["bnf", "equiv", "--gamma", "2", "--tuple-a", "0", "--tuple-b", "2",
         str(DATA / "path3.graph"), str(DATA / "path3.graph")],
    "bnf_intervals.json":
        ["bnf", "intervals", "--gamma", "1", "--tuple-a", "1",
         "--tuple-b", "b",
         str(DATA / "chain4.order"), str(DATA / "chain3.order")],
    "interp_int4.json":
        ["interp", "int", "--n", "4"],
    "interp_marker_cycle3.json":
        ["interp", "marker", "--graph", str(DATA / "cycle3_isolated.graph")],
    "daisy_encode.json":
        ["daisy", "encode", "--set", "0,2", "--bound", "3"],
    "shuffle_build.json":
        ["shuffle", "build", "--labels", "0,1", "--omega",
         "--resolution", "4"],
}

# specs nested past Python's recursion limit: 5,000 nested nots do not
# convert to a formula, 400 nested existentials convert but do not compile
DEEP_NOT = "(domain 1 " + "(not " * 5000 + "(E x1 x1)" + ")" * 5000 + ")\n"
DEEP_EXISTS = "(domain 1 " + "(exists (y) " * 700 + "(E x1 x1)" + \
    ")" * 700 + ")\n"


def _stdin(data):
    """A strict UTF-8 text stream over the given bytes, like ``sys.stdin``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except RecursionError:
            # reported without its frames, whose formulas are too deep to
            # render
            pytest.fail("RecursionError escaped main", pytrace=False)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_byte_stable(name):
    argv = GOLDEN_CASES[name]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    assert out1 == out2
    assert out1 == (GOLDEN / name).read_text()
    assert code1 == code2


class TestExitCodes:
    def test_true_query_is_zero(self):
        code, out = run(["bnf", "equiv", "--gamma", "2",
                         str(DATA / "path3.graph"), str(DATA / "path3.graph")])
        assert code == 0
        assert json.loads(out)["equivalent"] is True

    def test_checked_false_is_one(self):
        code, out = run(["bnf", "equiv", "--gamma", "2",
                         "--tuple-a", "0", "--tuple-b", "2",
                         str(DATA / "path3.graph"), str(DATA / "path3.graph")])
        assert code == 1
        payload = json.loads(out)
        assert payload["equivalent"] is False
        assert "witness" in payload

    def test_usage_error_is_two(self, capsys, tmp_path):
        missing = tmp_path / "nope.graph"
        code, out = run(["marker", "encode", str(missing)])
        assert code == 2
        assert out == ""
        assert "error" in json.loads(capsys.readouterr().err)

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("z 1\n")
        code, _ = run(["marker", "encode", str(bad)])
        assert code == 2

    def test_precondition_is_three(self):
        code, out = run(["daisy", "encode", "--set", "", "--bound", "0"])
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("argv", [
        # a tuple entry outside the structure
        ["bnf", "equiv", "--gamma", "1", "--tuple-a", "9", "--tuple-b", "0",
         "PATH3", "PATH3"],
        ["bnf", "formula", "--gamma", "1", "--tuple-a", "9", "PATH3"],
        ["bnf", "intervals", "--gamma", "1", "--tuple-a", "9",
         "CHAIN4", "CHAIN3"],
        # intervals are defined on orders only
        ["bnf", "intervals", "--gamma", "1", "PATH3", "PATH3"]])
    def test_library_precondition_is_three(self, argv):
        files = {"PATH3": str(DATA / "path3.graph"),
                 "CHAIN3": str(DATA / "chain3.order"),
                 "CHAIN4": str(DATA / "chain4.order")}
        code, out = run([files.get(a, a) for a in argv])
        assert code == 3
        assert "error" in json.loads(out)

    def test_order_file_with_vertex_line_is_three(self, tmp_path):
        order = tmp_path / "vo.order"
        order.write_text("v 1\no 1 2\n")
        code, out = run(["bnf", "equiv", "--gamma", "1", str(order), str(order)])
        assert code == 3
        assert json.loads(out) == {
            "error": f"{order}: order files take only o lines"}

    def test_certify_tuple_not_a_list_is_two(self, capsys):
        code, out = run(["fs", "certify", "--graph", str(DATA / "edge2.graph"),
                         "--gamma", "1", "--tuple-a", "5", "--tuple-b", "[]"])
        assert (code, out) == (2, "")
        assert json.loads(capsys.readouterr().err) == {
            "error": "tuple must be a JSON list of elements"}

    def test_negative_gamma_is_three(self):
        code, out = run(["bnf", "equiv", "--gamma", "-1",
                         "--tuple-a", "0", "--tuple-b", "2",
                         str(DATA / "path3.graph"), str(DATA / "path3.graph")])
        assert code == 3
        assert "error" in json.loads(out)

    def test_signature_mismatch_is_three(self):
        code, out = run(["bnf", "equiv", "--gamma", "1",
                         str(DATA / "chain3.order"), str(DATA / "path3.graph")])
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("formula", ["(F x1)", "(E x1 y)"])
    def test_unevaluable_spec_is_three(self, tmp_path, formula):
        # a relation the carrier lacks, or a variable left unbound
        spec = tmp_path / "spec.txt"
        spec.write_text(f"(domain 1 {formula})\n")
        code, out = run(["interp", "check", "--carrier",
                         str(DATA / "path3.graph"), "--spec", str(spec),
                         "--target", str(DATA / "path3.graph"),
                         "--max-arity", "1"])
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("length, bound", [("-1", "2"), ("1", "-1")])
    def test_negative_pair_length_or_bound_is_three(self, length, bound):
        code, out = run(["bnf", "pair", "--gamma", "1", "--length", length,
                         "--bound", bound, str(DATA / "path3.graph")])
        assert code == 3
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("caps", [["--half-len", "-1"],
                                      ["--max-exp", "-3"]])
    def test_negative_enumerate_cap_is_three(self, caps):
        code, out = run(["fs", "enumerate", "--graph",
                         str(DATA / "edge2.graph"), *caps])
        assert code == 3
        assert "error" in json.loads(out)

    def test_enumerate_cap_zero_is_kept(self):
        code, out = run(["fs", "enumerate", "--graph",
                         str(DATA / "edge2.graph"), "--max-exp", "0"])
        assert code == 0
        assert json.loads(out) == {"count": 0, "elements": []}

    @pytest.mark.parametrize("value", ["x", "7"])
    def test_seed_environment_variable_is_ignored(self, value):
        # read neither when the module is imported nor when main runs
        argv = ["interp", "int", "--n", "1"]
        env = dict(os.environ, STRUCTCODE_SEED=value, PYTHONPATH=str(
            pathlib.Path(structcode.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "structcode.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == run(argv)

    def test_pair_bound_zero_is_kept(self):
        code, out = run(["bnf", "pair", "--gamma", "1", "--length", "1",
                         "--bound", "0", str(DATA / "path3.graph")])
        assert code == 0
        assert json.loads(out)["formula"] == "(bigand)"

    def test_unparsable_spec_is_two(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("(domain 1 (E x1 x1)\n")
        code, out = run(["interp", "check", "--carrier",
                         str(DATA / "path3.graph"), "--spec", str(spec),
                         "--target", str(DATA / "path3.graph"),
                         "--max-arity", "1"])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("key, value", [
        ("resolution", "four"), ("resolution", 2.5), ("point", 5),
        ("point", "1/3"),
        ("labels", "0,3"), ("labels", [0, 3, -1]), ("labels", [0, 3, 2.5]),
        ("labels", [0, 3, True]),
        ("label", [0]), ("label", 5), ("label", "x"), ("label", True),
        ("omega", False), ("omega", "x"), ("omega", 1),
        ("omega_prefix", None), ("omega_prefix", "x"),
        ("marked", 1), ("marked", "yes")])
    def test_unparsable_fragment_is_two(self, tmp_path, key, value):
        # ("omega", False) leaves the fragment's omega blocks without a label
        code, out = run(["shuffle", "build", "--labels", "0,3", "--omega",
                         "--resolution", "4"])
        data = json.loads(out)
        block_keys = ("point", "label", "omega_prefix")
        (data["blocks"][0] if key in block_keys else data)[key] = value
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps(data))
        code, out = run(["shuffle", "decode", str(frag)])
        assert code == 2
        assert out == ""

    def test_non_utf8_file_is_two(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"v 1\n\xff\xfe\n")
        code, out = run(["marker", "encode", str(bad)])
        assert code == 2
        assert out == ""

    def test_empty_graph_interp_marker_is_zero(self, tmp_path):
        # no domain elements: no congruence samples to draw
        empty = tmp_path / "empty.graph"
        empty.write_text("")
        code, out = run(["interp", "marker", "--graph", str(empty)])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_non_utf8_stdin_is_two(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b"v 1\n\xff\xfe\n"))
        code, _ = run(["marker", "stream-decode"])
        assert code == 2

    @pytest.mark.parametrize("action, elems, want", [
        # a coordinate that is not dyadic, and an element that is not a list
        ("compare", ['["1/3",0]', '["1/2",0]'], 2),
        ("mentions", ["5"], 2),
        # JSON nested past Python's recursion limit does not parse
        ("compare", ["[" * 100_000 + "]" * 100_000, '["1/2",0]'], 2),
        # a well-formed element outside the order is a precondition failure
        ("mentions", ['["1/2",7]'], 3),
        # member answers every element argument that is JSON
        ("member", ["5"], 1)])
    def test_element_argument(self, action, elems, want):
        code, out = run(["fs", action, "--graph", str(DATA / "edge2.graph"),
                         *elems])
        assert code == want
        if want == 2:
            assert out == ""

    def test_stream_self_loop_is_three_as_in_batch(self, monkeypatch,
                                                   tmp_path):
        text = "v 0\nv 1\ne 0 0\ne 0 1\n"
        looped = tmp_path / "looped.graph"
        looped.write_text(text)
        assert run(["marker", "decode", str(looped)])[0] == 3
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(["marker", "stream-decode"])
        assert code == 3
        assert "self-loop at 0" in json.loads(out)["error"]

    @pytest.mark.parametrize("text", ["v 1\nx 1 2\n", "v 1\ne 1\n",
                                      "v 1\no 1\n"])
    def test_unparsable_fact_line_is_two(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _ = run(["marker", "stream-decode"])
        assert code == 2

    def test_spec_too_deep_to_read_is_two(self, tmp_path, capsys):
        spec = tmp_path / "deep.spec"
        spec.write_text(DEEP_NOT)
        path3 = str(DATA / "path3.graph")
        code, out = run(["interp", "check", "--carrier", path3, "--spec",
                         str(spec), "--target", path3, "--max-arity", "1"])
        assert (code, out) == (2, "")
        assert "nested too deeply" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("argv", [
        ["interp", "check", "--carrier", "PATH3", "--spec", "SPEC",
         "--target", "PATH3", "--max-arity", "1"],
        ["bnf", "pair", "--gamma", "100", "--length", "0", "--bound", "1",
         "PATH3"]])
    def test_formula_too_deep_to_compile_or_print_is_three(self, tmp_path,
                                                           argv):
        spec = tmp_path / "deep.spec"
        spec.write_text(DEEP_EXISTS)
        files = {"PATH3": str(DATA / "path3.graph"), "SPEC": str(spec)}
        code, out = run([files.get(a, a) for a in argv])
        assert code == 3
        assert "recursion" in json.loads(out)["error"]

    # a triangle on the identifiers 0, a and 1
    MIXED = "v 0\nv a\nv 1\ne 0 a\ne a 1\ne 1 0\n"

    @pytest.mark.parametrize("argv, want", [
        (["marker", "encode", "--tags"], {"0": ["base", "0"],
                                          "4": ["base", "1"],
                                          "8": ["base", "a"]}),
        (["interp", "marker", "--graph"], {"classes": 3, "passed": True}),
        (["daisy", "decode"], {"set": [0], "bound": 1})])
    def test_mixed_ids_are_zero(self, tmp_path, argv, want):
        mixed = tmp_path / "mixed.graph"
        mixed.write_text(self.MIXED)
        code, out = run([*argv, str(mixed)])
        assert code == 0
        payload = json.loads(out)
        got = payload.get("tags", payload)
        assert {k: got[k] for k in want} == want

    def test_stream_mixed_ids_as_in_batch(self, monkeypatch, tmp_path):
        # the code of a 3-vertex path, one base point renamed to a string
        payload = json.loads(run(["marker", "encode",
                                  str(DATA / "path3.graph")])[1])
        name = {4: "q"}
        text = "".join([f"v {name.get(v, v)}\n" for v in payload["vertices"]] +
                       [f"e {name.get(u, u)} {name.get(v, v)}\n"
                        for u, v in payload["edges"]])
        coded = tmp_path / "coded.graph"
        coded.write_text(text)
        batch = json.loads(run(["marker", "decode", str(coded)])[1])
        assert batch["vertices"] == [0, 8, "q"]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(["marker", "stream-decode"])
        assert code == 0
        facts = [line.split() for line in out.splitlines()]
        assert sorted(v for _, v in (f for f in facts if f[0] == "v")) == \
            sorted(map(str, batch["vertices"]))
        assert sorted(f[1:] for f in facts if f[0] == "e") == \
            sorted([str(u), str(v)] for u, v in batch["edges"])

    def test_stream_bytes_do_not_depend_on_hash_seed(self):
        # one edge completes the triangle and makes d, e and f base points
        facts = "e a d\ne b e\ne c f\ne a b\ne b c\ne c a\n"
        outs = set()
        for seed in ("0", "1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(
                pathlib.Path(structcode.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "structcode.cli", "marker",
                 "stream-decode"], input=facts, env=env, capture_output=True,
                text=True)
            assert proc.returncode == 0
            outs.add(proc.stdout)
        assert outs == {"v d\nv e\nv f\n"}

    def test_non_dyadic_coordinate_is_nonmember(self):
        code, out = run(["fs", "member", "--graph", str(DATA / "edge2.graph"),
                         '["1/3",0]'])
        assert code == 1
        assert json.loads(out)["member"] is False

    def test_nonmember_is_one(self):
        code, out = run(["fs", "member", "--graph", str(DATA / "edge2.graph"),
                         '["1/2",0]'])
        assert code == 1
        payload = json.loads(out)
        assert payload["member"] is False and "reason" in payload


class TestRoundTrips:
    def test_marker_encode_decode(self, tmp_path):
        code, out = run(["marker", "encode", str(DATA / "path3.graph")])
        assert code == 0
        payload = json.loads(out)
        graph_file = tmp_path / "coded.graph"
        lines = [f"v {v}" for v in payload["vertices"]] + \
                [f"e {u} {v}" for u, v in payload["edges"]]
        graph_file.write_text("\n".join(lines) + "\n")
        code, out = run(["marker", "decode", str(graph_file)])
        assert code == 0
        decoded = json.loads(out)
        assert len(decoded["vertices"]) == 3
        assert len(decoded["edges"]) == 2

    def test_daisy_encode_decode(self, tmp_path):
        code, out = run(["daisy", "encode", "--set", "1,3", "--bound", "4"])
        payload = json.loads(out)
        f = tmp_path / "daisy.graph"
        lines = [f"v {v}" for v in payload["vertices"]] + \
                [f"e {u} {v}" for u, v in payload["edges"]]
        f.write_text("\n".join(lines) + "\n")
        code, out = run(["daisy", "decode", str(f)])
        assert code == 0
        assert json.loads(out) == {"set": [1, 3], "bound": 4}

    def test_shuffle_build_decode(self, tmp_path):
        code, out = run(["shuffle", "build", "--labels", "0,3", "--omega",
                         "--resolution", "4"])
        f = tmp_path / "frag.json"
        f.write_text(out)
        code, out = run(["shuffle", "decode", str(f)])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["0"]["verdict"] == "in"
        assert report["1"]["verdict"] == "out"

    def test_fs_shift_output_members(self):
        code, out = run(["fs", "shift", "--graph", str(DATA / "edge2.graph"),
                         "--past", '["3/4",0]',
                         '["1/4","1/2","3/4",0]'])
        assert code == 0
        payload = json.loads(out)
        for elem in payload["elements"] + [payload["separator"]]:
            c2, out2 = run(["fs", "member", "--graph",
                            str(DATA / "edge2.graph"), json.dumps(elem)])
            assert c2 == 0

    def test_pretty_mode(self):
        code, out = run(["--pretty", "interp", "int", "--n", "2"])
        assert code == 0
        assert out.startswith("{\n")
        compact = run(["interp", "int", "--n", "2"])[1]
        assert json.loads(out) == json.loads(compact)

    def test_fs_certify_verdicts(self):
        argv = ["fs", "certify", "--graph", str(DATA / "edge2.graph"),
                "--gamma", "1",
                "--tuple-a", '[["1/4","1/2","3/4",0]]',
                "--tuple-b", '[["1/8","1/2","3/4",0]]']
        code, out = run(argv)
        assert code == 0
        assert json.loads(out)["verdict"] == "Equivalent"


# ---------------------------------------------------------------------------
# fuzzing: random argv, files and stdin never end in a traceback


def _commands(parser, path=()):
    """(subcommand path, its parser) for every leaf of the CLI."""
    for act in parser._actions:
        if isinstance(act, argparse._SubParsersAction):
            for name, sub in act.choices.items():
                yield from _commands(sub, path + (name,))
            return
    yield path, parser


_COMMANDS = sorted(_commands(build_parser()), key=lambda c: c[0])
_NUMBERS = st.integers(-2, 3).map(str)
_FILE_ARGS = {"file", "files", "graph", "carrier", "target", "spec"}
_TEXTS = st.sampled_from(
    ["FILE1", "FILE2", "", "0", "0,1", "1,0,1", "a", "x", "5", "[]", "[[]]",
     '["1/2",0]', '["1/3",0]', '["1/2",7]', '["1/4","1/2","3/4",0]',
     '["1/4","1/2","3/4",1]', '["3/4",0]', '[["1/4","1/2","3/4",0]]',
     '[["1/2",0],["3/4",0]]', "{", "null"])
_GRAPH = st.lists(st.tuples(st.sampled_from("ve"), st.integers(0, 2),
                            st.integers(0, 2)), max_size=6).map(
    lambda recs: "".join(f"v {u}\n" if kind == "v" else f"e {u} {v}\n"
                         for kind, u, v in recs))
_ORDER = st.lists(st.sampled_from("0123ab"), max_size=4, unique=True).map(
    lambda xs: "o " + " ".join(xs) + "\n")
_OTHER = st.sampled_from(
    ["(domain 1 (E x1 x1))\n(target E 2)\n", "(domain 1 (and))\n",
     "(rel-pos E 1 1 (E x1 y1))\n", "(domain 1 (E x1 x1)\n",
     "e 0\n", "z 1\n", "v 1 # c\n", '{"labels": [0]}', "[1]", DEEP_NOT,
     DEEP_EXISTS])
_CONTENTS = st.one_of(st.binary(max_size=24),
                      st.one_of(_GRAPH, _ORDER, _OTHER, st.text(max_size=24))
                      .map(str.encode))


@st.composite
def _argvs(draw):
    """An argv for one subcommand: every required option, some optional
    ones and the positionals, with values from the CLI's own vocabulary."""
    argv = []
    if draw(st.booleans()):
        argv += ["--seed", draw(_NUMBERS)]
    path, parser = draw(st.sampled_from(_COMMANDS))
    argv += list(path)
    for act in parser._actions:
        if isinstance(act, argparse._HelpAction):
            continue
        if act.option_strings:
            if not (act.required or draw(st.booleans())):
                continue
            argv.append(act.option_strings[0])
            if act.nargs == 0:
                continue
        if act.choices:
            values = st.sampled_from(list(act.choices) + ["x"])
        elif act.dest in _FILE_ARGS:
            values = st.one_of(st.sampled_from(["FILE1", "FILE2"]), _TEXTS)
        elif act.type is int:
            values = st.one_of(_NUMBERS, st.just("x"))
        else:
            values = st.one_of(_TEXTS, _NUMBERS)
        count = act.nargs if isinstance(act.nargs, int) else \
            draw(st.integers(1, 3)) if act.nargs == "+" else 1
        argv += [draw(values) for _ in range(count)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_TEXTS))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs(), _CONTENTS, _CONTENTS, _CONTENTS)
def test_fuzz_exit_codes(argv, file1, file2, stdin):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in (("FILE1", file1), ("FILE2", file2)):
            files[name] = pathlib.Path(tmp, name)
            files[name].write_bytes(data)
        argv = [str(files.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", _stdin(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except RecursionError:
                code = "RecursionError"
    assert code in (0, 1, 2, 3), (argv, code)


# ---------------------------------------------------------------------------
# payloads of the commands no other test runs


class TestPayloads:
    def test_stream_decode_lines_skip_blanks_and_comments(self, monkeypatch):
        payload = json.loads(run(["marker", "encode",
                                  str(DATA / "edge2.graph")])[1])
        lines = ["# a coded edge", ""] + \
            [f"v {v}" for v in payload["vertices"]] + ["   "] + \
            [f"e {u} {v}  # fact" for u, v in payload["edges"]]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        code, out = run(["marker", "stream-decode"])
        assert code == 0
        assert out == "v 0\nv 4\ne 0 4\n"

    def test_stream_decode_splits_lines_as_graph_files_do(self, monkeypatch):
        # form feed, NEL and line separator end a record inside one line
        payload = json.loads(run(["marker", "encode",
                                  str(DATA / "edge2.graph")])[1])
        seps = "\x0c\x85\u2028"
        vertices = "".join(f"v {v}{seps[i % 3]}"
                           for i, v in enumerate(payload["vertices"]))
        edges = [f"e {u} {v}" for u, v in payload["edges"]]
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("\n".join([vertices] + edges)))
        code, out = run(["marker", "stream-decode"])
        assert code == 0
        assert out == "v 0\nv 4\ne 0 4\n"

    def test_bnf_equiv_atomic_witness(self):
        path3 = str(DATA / "path3.graph")
        code, out = run(["bnf", "equiv", "--gamma", "1", "--tuple-a", "0,1",
                         "--tuple-b", "0,2", path3, path3])
        assert code == 1
        assert json.loads(out)["witness"] == \
            ["atomic", [[0, 1], [["E", [False, True, False, False]]]],
             [[0, 1], [["E", [False, False, False, False]]]]]

    def test_fs_certify_unknown(self):
        x, y0, z = '["1/4","1/2","3/4",0]', '["1/4","1/2","3/4",1]', '["3/4",0]'
        code, out = run(["fs", "certify", "--graph", str(DATA / "edge2.graph"),
                         "--gamma", "0", "--tuple-a", f"[{x},{y0}]",
                         "--tuple-b", f"[{x},{z}]"])
        assert (code, json.loads(out)) == (0, {"evidence": [],
                                               "verdict": "Unknown"})

    def test_marker_encode_tags(self):
        code, out = run(["marker", "encode", "--tags",
                         str(DATA / "edge2.graph")])
        assert code == 0
        payload = json.loads(out)
        tags = payload["tags"]
        assert len(tags) == len(payload["vertices"]) == 21
        assert tags["0"] == ["base", "0"] and tags["4"] == ["base", "1"]
        assert tags["8"] == ["pair", "0", "1"]
        assert [tags[str(v)][0] for v in range(10, 14)] == ["poly"] * 4

    def test_fs_compare(self):
        a, b = '["1/4","1/2","3/4",0]', '["1/4","1/2","3/4",1]'
        for x, y, want in ((a, b, -1), (b, a, 1), (a, a, 0)):
            code, out = run(["fs", "compare", "--graph",
                             str(DATA / "edge2.graph"), x, y])
            assert (code, json.loads(out)) == (0, {"compare": want})

    def test_fs_block(self):
        code, out = run(["fs", "block", "--graph", str(DATA / "edge2.graph"),
                         '["1/8","1/8","1/8","3/8","3/8",5]'])
        assert (code, json.loads(out)) == (0, {"size": 8, "position": 5})

    def test_fs_shape_formulas(self):
        code, out = run(["fs", "shape", "--formulas", "--graph",
                         str(DATA / "edge2.graph"),
                         '["1/4","1/2","3/4",0]', '["1/4","1/2","3/4",1]'])
        assert code == 0
        payload = json.loads(out)
        assert payload["gaps"] == [0]
        for side in ("sigma", "pi"):
            phi = parse_formula(payload[side]["formula"])
            assert payload[side]["level"] == f"{side} 4"
            assert str(phi) == payload[side]["formula"]

    def test_fs_certify_concatenated(self):
        argv = ["fs", "certify", "--graph", str(DATA / "edge2.graph"),
                "--gamma", "1",
                "--tuple-a", '[["1/4","1/4","3/4",0]]',
                "--tuple-b", '[["1/4","1/4","3/4",0]]',
                "--tuple-a2", '[["1/2","1/4","3/4",0]]']
        code, _ = run(argv)
        assert code == 2
        code, out = run(argv + ["--tuple-b2", '[["1/2","1/2","3/4",0]]'])
        assert code == 0
        assert json.loads(out) == {
            "verdict": "Equivalent",
            "evidence": ["parts", ["shape+mentions", [0], [0]],
                         ["shape+mentions", [0], [0]]]}

    def test_bnf_formula(self):
        code, out = run(["bnf", "formula", "--gamma", "1", "--tuple-a", "0",
                         str(DATA / "path3.graph")])
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == "pi 2"
        assert str(parse_formula(payload["formula"])) == payload["formula"]

    def test_interp_check_and_trivial(self, tmp_path):
        # the trivial interpretation, written out as a spec file, checks
        # the same as the trivial command
        target = load_struct(str(DATA / "path3.graph"))
        carrier = load_struct(str(DATA / "chain3.order"))
        spec = tmp_path / "spec.txt"
        spec.write_text(interp_spec_to_text(trivial_interp(target, carrier)[0]))
        trivial = run(["interp", "trivial", "--target",
                       str(DATA / "path3.graph"), "--carrier",
                       str(DATA / "chain3.order")])
        assert trivial[0] == 0
        assert json.loads(trivial[1]) == {
            "passed": True, "classes": 3, "domain_size": 39, "failures": [],
            "iso": {"0": "0", "1": "1", "2": "2"}, "notes": []}
        argv = ["interp", "check", "--carrier", str(DATA / "chain3.order"),
                "--spec", str(spec), "--max-arity", "3", "--target"]
        assert run(argv + [str(DATA / "path3.graph")]) == trivial
        code, out = run(argv + [str(DATA / "edge2.graph")])
        assert code == 1
        assert json.loads(out)["failures"] == [
            ["quotient-not-isomorphic", [3, 2]]]
