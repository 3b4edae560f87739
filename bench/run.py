"""Run one benchmark workload against the structcode sources of this checkout.

    python3 bench/run.py --workload games --seed 1 --seconds 20 --trace 0

One process runs one workload as a single closed-loop caller: the next
operation starts when the previous one has returned.  The run sets up
``SETUPS`` times (a fresh import of structcode each time) and reports the
median set-up time, then repeats whole rounds of the workload's operations
until ``--seconds`` have passed and at least ``MIN_OPS`` operations are
done.  Every output is checked against answers computed apart from the
program (``oracles.py``); an operation fails when it raises or its output
is wrong, and a wrong output also makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs untraced and traced rounds in turn, so
the tracing overhead is part of the result, and writes the spans to
``bench/out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 9
MIN_OPS = 100

END_TO_END = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}

# per operation of the traced phase unless the unit says otherwise
PER_LAYER = {
    "core.eval_calls": "1/op",
    "core.eval_ms": "ms/op",
    "core.evaluators_built": "1/op",
    "core.matches_calls": "1/op",
    "core.iso_check_ms": "ms/op",
    "backforth.bf_equiv_calls": "1/op",
    "backforth.bf_equiv_ms": "ms/op",
    "backforth.fingerprint_calls": "1/op",
    "backforth.distinguishing_move_ms": "ms/op",
    "backforth.phi_build_ms": "ms/setup",
    "backforth.formula_dag_nodes": "nodes/setup",
    "marker.decode_ms": "ms/op",
    "marker.encode_ms": "ms/setup",
    "marker.feed_ms": "ms/op",
    "marker.feed_eval_calls": "1/op",
    "marker.feed_useful_ratio": "facts/call",
    "marker.stream_batch_ratio": "ratio",
    "interp.check_ms": "ms/op",
    "interp.check_eval_calls": "1/op",
    "formats.parse_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "trace.untraced_ops_per_s": "ops/s",
    "trace.traced_ops_per_s": "ops/s",
    "trace.overhead_pct": "%",
}


class Clock:
    """Adds up the time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start
        return False


class Meter:
    """Times and checks operations; records which ones failed."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.ok = []
        self.wrong = 0
        self.rounds = 0
        self.tracer = tracer

    def op(self, fn, check):
        if self.tracer is not None:
            self.tracer.op = len(self.latencies)
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.latencies.append(time.perf_counter() - start)
            if all(self.ok):
                traceback.print_exc(file=sys.stderr)
            self.ok.append(False)
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            good = check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            good = False
        self.ok.append(bool(good))
        if not good:
            self.wrong += 1

    def reject(self):
        """A check made after the latest operation found a wrong output."""
        self.wrong += 1
        if self.ok:
            self.ok[-1] = False

    @property
    def failed(self):
        return self.ok.count(False)


def quantile_ms(latencies, q):
    """Nearest-rank quantile of the latencies, in milliseconds."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


def timed_round(workload, meter):
    start = time.perf_counter()
    workload.round(meter)
    meter.rounds += 1
    return time.perf_counter() - start


def measure(workload, seconds):
    """Whole rounds until ``seconds`` have passed and MIN_OPS ops are done."""
    meter, elapsed = Meter(), 0.0
    while elapsed < seconds or len(meter.latencies) < MIN_OPS:
        elapsed += timed_round(workload, meter)
    return meter, elapsed


def measure_traced(workload, seconds, tracer):
    """Untraced and traced rounds in the order U T T U U T ..., so that
    both see the same machine even while its speed drifts.

    Returns (untraced meter, its seconds, traced meter, its seconds).
    """
    plain, traced = Meter(), Meter(tracer)
    spent = {plain: 0.0, traced: 0.0}
    order = (plain, traced)
    while sum(spent.values()) < seconds or len(traced.latencies) < MIN_OPS:
        for meter in order:
            if meter is traced:
                tracer.install()
            spent[meter] += timed_round(workload, meter)
            tracer.uninstall()
        order = order[::-1]
    return plain, spent[plain], traced, spent[traced]


def set_up(workload, workdir, tracer):
    """One set-up from a fresh import: (program seconds, warm-up correct)."""
    for name in [n for n in sys.modules
                 if n == "structcode" or n.startswith("structcode.")]:
        del sys.modules[name]
    if tracer is not None:
        tracer.uninstall()
        tracer.reset()
    clock = Clock()
    with clock:
        mods = {name: importlib.import_module(name) for name in workload.modules}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"{mod.__name__} imported from outside {SRC}")
    if tracer is not None:
        tracer.install()
    workload.setup(mods, clock, workdir)
    with clock:
        ok = workload.warm_up()
    return clock.seconds, ok


def run(args, workload, workdir):
    tracer = None
    if args.trace:
        from tracing import Tracer, op_metrics, setup_metrics
        tracer = Tracer()
    setups, correct = [], True
    for _ in range(SETUPS):
        seconds, ok = set_up(workload, workdir, tracer)
        setups.append(seconds)
        correct = correct and ok
    if not args.trace:
        meter, elapsed = measure(workload, args.seconds)
        lat = meter.latencies
        values = {"ops_per_s": len(lat) / elapsed,
                  "op_p50_ms": quantile_ms(lat, 0.5),
                  "op_p90_ms": quantile_ms(lat, 0.9),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units, meters = END_TO_END, [meter]
    else:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(setup_metrics(tracer.spans))
        tracer.uninstall()
        tracer.reset()
        plain, plain_s, traced, traced_s = \
            measure_traced(workload, args.seconds, tracer)
        values.update(op_metrics(tracer.spans, tracer.counts,
                                 len(traced.latencies)))
        values.update(workload.layer_extras(plain))
        plain_rate = len(plain.latencies) / plain_s
        traced_rate = len(traced.latencies) / traced_s
        values["trace.untraced_ops_per_s"] = plain_rate
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units, meters = PER_LAYER, [plain, traced]
    attempted = sum(len(m.latencies) for m in meters)
    failed = sum(m.failed for m in meters)
    correct = correct and not any(m.wrong for m in meters)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "structcode" / "__init__.py").is_file():
        print(f"no structcode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workload, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
