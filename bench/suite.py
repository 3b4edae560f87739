"""Run every workload, each in its own process, and print the results.

    python3 bench/suite.py --seed 1 --seconds 20            # end-to-end
    python3 bench/suite.py --seed 1 --seconds 20 --trace 1  # per-layer

The end-to-end run prints, per workload, the operations attempted and
failed and every end-to-end metric with its unit.  The traced run prints
the per-layer metrics that apply to each workload, with the tracing
overhead (untraced against traced ops/s), and writes them as JSON to
``bench/out/layers-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

TRACE = ["trace.untraced_ops_per_s", "trace.traced_ops_per_s",
         "trace.overhead_pct"]

# the per-layer metrics each workload exercises
LAYERS = {
    "games": ["backforth.bf_equiv_calls", "backforth.bf_equiv_ms",
              "backforth.fingerprint_calls",
              "backforth.distinguishing_move_ms"],
    "formulas": ["core.eval_calls", "core.eval_ms", "core.evaluators_built",
                 "core.matches_calls", "backforth.phi_build_ms",
                 "backforth.formula_dag_nodes"],
    "decode": ["core.eval_calls", "core.eval_ms", "core.evaluators_built",
               "core.matches_calls", "core.iso_check_ms", "marker.decode_ms",
               "marker.encode_ms", "interp.check_ms",
               "interp.check_eval_calls", "formats.parse_ms", "cli.self_ms"],
    "stream": ["core.eval_calls", "core.eval_ms", "core.evaluators_built",
               "marker.encode_ms", "marker.feed_ms", "marker.feed_eval_calls",
               "marker.feed_useful_ratio", "marker.stream_batch_ratio"],
}


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    report = {}
    for workload, names in LAYERS.items():
        result = run_one(workload, args.seed, args.seconds, args.trace)
        metrics = result["metrics"]
        if args.trace:
            metrics = {n: metrics[n] for n in names + TRACE}
        report[workload] = dict(result, metrics=metrics)
        print(f"{workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for name, m in metrics.items():
            print(f"  {name:34} {m['value']:14.4f} {m['unit']}")
        sys.stdout.flush()
    if args.trace:
        out = HERE / "out" / f"layers-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out.relative_to(HERE.parent)}")
    return 0 if all(r["correct"] and not r["failed"]
                    for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
