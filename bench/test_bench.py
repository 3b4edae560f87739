"""Tests of the benchmark itself: its oracles, its checks and its inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Formulas, Games  # noqa: E402

sys.path.insert(0, str(run.SRC))

PATH3 = ([0, 1, 2], {(0, 1), (1, 2)})         # 0 -> 1 -> 2
CYCLE3 = ([0, 1, 2], {(0, 1), (1, 2), (2, 0)})


# ---------------------------------------------------------------------------
# oracles on hand-checked cases


def test_iso_fixing():
    v, e = CYCLE3
    assert oracles.iso_fixing(v, e, (), v, {(1, 0), (0, 2), (2, 1)}, ())
    assert oracles.iso_fixing(v, e, (0,), v, e, (2,))
    v, e = PATH3
    assert oracles.iso_fixing(v, e, (), v, {(2, 1), (1, 0)}, ())
    assert not oracles.iso_fixing(v, e, (), v, {(0, 1), (2, 1)}, ())
    assert oracles.iso_fixing(v, e, (0,), v, {(2, 1), (1, 0)}, (2,))
    assert not oracles.iso_fixing(v, e, (0,), v, e, (2,))
    assert not oracles.iso_fixing(v, e, (), [0, 1, 2, 3], e, ())
    # a repeated entry must be answered by a repeated entry
    assert not oracles.iso_fixing(v, e, (0, 0), v, e, (0, 1))


def test_atomic_type_and_game_verdict():
    v, e = PATH3
    assert not oracles.same_atomic_type(e, (0, 1), e, (1, 0))
    assert oracles.same_atomic_type(e, (0, 1), e, (1, 2))
    assert not oracles.same_atomic_type(e, (0, 0), e, (0, 1))
    # single vertices of a loop-free digraph share their atomic type, but
    # the source of a path is not the sink
    assert oracles.game_verdict(v, e, (0,), v, e, (2,), 0)
    assert not oracles.game_verdict(v, e, (0,), v, e, (2,), 1)
    assert not oracles.game_verdict(v, e, (0,), v, e, (2,), 2)


def test_order_verdict():
    assert oracles.order_verdict(4, 4, 1)
    assert not oracles.order_verdict(4, 5, 2)
    assert oracles.order_verdict(4, 5, 0)


def test_automorphism_maps():
    v, e = CYCLE3
    assert oracles.automorphism_maps(v, e, (0,), (1,))
    assert oracles.automorphism_maps(v, e, (0, 1), (1, 2))
    assert not oracles.automorphism_maps(v, e, (0, 1), (1, 0))
    v, e = PATH3
    assert not oracles.automorphism_maps(v, e, (0,), (2,))
    assert oracles.automorphism_maps([0, 1], {(0, 1), (1, 0)}, (0,), (1,))


# ---------------------------------------------------------------------------
# each check rejects a corrupted answer

# a hand-made provenance: code vertices 10, 11 are the base points of input
# vertices 0, 1; 12 belongs to a gadget
PROV = {10: ("base", 0), 11: ("base", 1), 12: ("tri", 0, 0)}
EDGE = ([0, 1], {(0, 1)})


def test_decode_check_rejects_a_dropped_edge():
    good = {"vertices": [10, 11], "edges": [[10, 11]]}
    assert oracles.decode_payload_ok(0, good, PROV, *EDGE)
    assert not oracles.decode_payload_ok(0, dict(good, edges=[]), PROV, *EDGE)
    assert not oracles.decode_payload_ok(
        0, dict(good, edges=[[11, 10]]), PROV, *EDGE)
    assert not oracles.decode_payload_ok(
        0, dict(good, vertices=[10, 11, 12]), PROV, *EDGE)
    assert not oracles.decode_payload_ok(3, good, PROV, *EDGE)


def test_interp_check_rejects_a_wrong_class_count():
    good = {"passed": True, "failures": [], "classes": 7}
    assert oracles.interp_payload_ok(0, good, 7)
    assert not oracles.interp_payload_ok(0, dict(good, classes=6), 7)
    assert not oracles.interp_payload_ok(0, dict(good, passed=False), 7)
    assert not oracles.interp_payload_ok(1, good, 7)


def test_stream_check():
    check = oracles.StreamCheck(PROV, *EDGE)
    assert check.step([])
    assert check.step([("v", 10)])
    assert not check.finish([10], [])            # facts still missing
    assert check.step([("v", 11), ("e", 10, 11)])
    assert check.finish([10, 11], {(10, 11)})
    assert not check.step([("v", 10)])           # emitted twice
    assert not oracles.StreamCheck(PROV, *EDGE).step([("v", 12)])
    assert not oracles.StreamCheck(PROV, *EDGE).step([("e", 11, 10)])


def test_game_check_rejects_a_flipped_verdict():
    equivalent = (None, (), None, (), 1, True)
    distinct = (None, (), None, (), 1, False)
    assert Games._check(equivalent, (True, None))
    assert not Games._check(equivalent, (False, ("a", (0,))))
    assert Games._check(distinct, (False, ("a", (0,))))
    assert not Games._check(distinct, (True, None))
    # a negative verdict needs evidence
    assert not Games._check(distinct, (False, None))


# ---------------------------------------------------------------------------
# inputs and the reported metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name):
    def inputs(seed):
        return {k: v for k, v in vars(WORKLOADS[name](seed)).items()}
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_verdict_mix_is_fixed():
    for seed in (1, 2):
        cases = Games(seed).cases
        assert sum(c[4] for c in cases) == \
            sum(c[0] for c in Games.CELLS.values()) + len(Games.ORDER_SIZES) * 2
    for seed in (1, 2):
        w = Formulas(seed)
        verdicts = [t[2] for *_, targets in w.tuple_specs for t in targets]
        verdicts += [t[3] for _, targets in w.pair_specs for t in targets]
        want_true = sum(c[4] for c in Formulas.TUPLE_CELLS) + \
            sum(c[1] for c in Formulas.PAIR_CELLS)
        want_false = sum(c[5] for c in Formulas.TUPLE_CELLS) + \
            sum(c[2] for c in Formulas.PAIR_CELLS)
        assert verdicts.count(True) == want_true
        assert verdicts.count(False) == want_false


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


# ---------------------------------------------------------------------------
# against the program


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_up_passes(name, tmp_path):
    seconds, ok = run.set_up(WORKLOADS[name](1), str(tmp_path), None)
    assert ok and seconds > 0


def test_games_check_catches_a_flipped_program(tmp_path):
    w = Games(1)
    run.set_up(w, str(tmp_path), None)
    real = w.bf.bf_equiv
    w.bf.bf_equiv = lambda *args, **kw: not real(*args, **kw)
    try:
        assert not w.warm_up()
    finally:
        w.bf.bf_equiv = real


def test_decode_check_catches_a_dropped_edge(tmp_path):
    w = WORKLOADS["decode"](1)
    run.set_up(w, str(tmp_path), None)
    job = next(j for j in w.jobs if j[0] == "decode")
    rc, text = w._run(job)
    assert w._check(job, (rc, text))
    payload = json.loads(text)
    payload["edges"] = payload["edges"][1:]
    assert not w._check(job, (rc, json.dumps(payload)))


def test_traced_layers_are_recorded(tmp_path):
    from tracing import Tracer, op_metrics
    w = Games(1)
    tracer = Tracer()
    run.set_up(w, str(tmp_path), tracer)
    tracer.reset()
    meter = run.Meter(tracer)
    negative = next(q for q in w.questions if not q[5])
    meter.op(lambda: w._ask(negative), lambda out: w._check(negative, out))
    tracer.uninstall()
    got = op_metrics(tracer.spans, tracer.counts, 1)
    assert meter.failed == 0
    assert got["backforth.bf_equiv_calls"] >= 2    # distinguishing_move asks too
    assert got["backforth.fingerprint_calls"] >= 1
    assert got["backforth.distinguishing_move_ms"] > 0
    assert w.bf.bf_equiv.__module__ == "structcode.backforth"
