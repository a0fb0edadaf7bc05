#!/usr/bin/env python3
"""Run one benchmark workload and report its metrics.

From the repository root::

    python3 perfbench/run.py --workload whynot-cold --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced over the same inputs and reports the
per-layer metrics (spans are written to
``.bench_build/perfbench/trace-<workload>-<seed>.jsonl``).  Every answer is
checked against the brute-force oracle; a wrong answer makes
``correct`` false and the exit code 1.  ``--plant-wrong-answer`` corrupts
one answer before it is checked, to prove the check trips.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("whynot-cold", "serve-open", "merchant-churn")
PERCENTILE = re.compile(r"(?:^|[._])p(\d\d)(?:_|$)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-answer", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the repro package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench import merchant_churn, serve_open, whynot_cold
    from perfbench.common import supports
    from perfbench.trace import Tracer

    module = {
        "whynot-cold": whynot_cold,
        "serve-open": serve_open,
        "merchant-churn": merchant_churn,
    }[args.workload]
    tracer = Tracer() if args.trace else None
    outcome = module.run(
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        plant_wrong=args.plant_wrong_answer,
        tracer=tracer,
    )
    if outcome.discarded:
        print(f"run discarded: {outcome.discarded}", file=sys.stderr)
        return 3
    metrics = dict(outcome.metrics)
    if not args.trace:
        share = (outcome.attempted - outcome.failed) / max(1, outcome.attempted)
        metrics["ok_share"] = (share, "share", outcome.attempted)

    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    correct = outcome.verifier.wrong == 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for prefix, table in (("", metrics), ("detail ", outcome.details)):
        for name, (value, unit, samples) in sorted(table.items()):
            match = PERCENTILE.search(name)
            short = (
                "  (fewer than 10 samples beyond this percentile)"
                if match and not supports(samples, int(match.group(1)))
                else ""
            )
            label = prefix + name
            print(f"  {label:49s} {value:14.4f} {unit:6s} n={samples}{short}")
    for note in outcome.notes:
        print(f"  note: {note}")
    print(
        f"  checks: {outcome.verifier.checked} made, {outcome.verifier.wrong} wrong;"
        f" {outcome.failed} of {outcome.attempted} operations failed"
    )
    for problem in outcome.verifier.problems:
        print(f"  WRONG: {problem}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
