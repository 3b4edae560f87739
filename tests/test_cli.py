"""Command-line interface: payloads, exit codes, byte-stable output."""

import io
import contextlib
import json
import pathlib

import pytest

from structcode.cli import main

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
    "daisy_encode.json":
        ["daisy", "encode", "--set", "0,2", "--bound", "3"],
    "shuffle_build.json":
        ["shuffle", "build", "--labels", "0,1", "--omega",
         "--resolution", "4"],
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
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

    @pytest.mark.parametrize("key, value", [("resolution", "four"),
                                            ("resolution", 2.5),
                                            ("point", 5),
                                            ("point", "1/3")])
    def test_unparsable_fragment_is_two(self, tmp_path, key, value):
        code, out = run(["shuffle", "build", "--labels", "0,1",
                         "--resolution", "4"])
        data = json.loads(out)
        (data["blocks"][0] if key == "point" else data)[key] = value
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps(data))
        code, out = run(["shuffle", "decode", str(frag)])
        assert code == 2
        assert out == ""

    def test_unparsable_fact_line_is_two(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("v 1\nx 1 2\n"))
        code, _ = run(["marker", "stream-decode"])
        assert code == 2

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
