"""distill-lab benchmark: four seeded closed-loop workloads, end to end or traced.

    python3 perfbench/run.py --workload rank4-certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; the library is imported from its
``src/``.  One client in one process starts each operation when the
previous one has finished, with BLAS pinned to one thread and
``DISTILL_LAB_THREADS`` unset.  Every operation's output is checked; a
failed check counts as a failed operation and the run goes on.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` wraps the
library's public functions and reports per-layer metrics instead.  Times
are scaled to a reference machine speed (see ``measure.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A fuller record,
with the environment, the wall-clock values, the output digest and the
exact-count fingerprint, goes to ``perfbench/results/``, beside the
per-operation latencies or the spans.  ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bootstrap

# the keys of workloads.WORKLOADS, repeated so that arguments parse before numpy loads
WORKLOAD_NAMES = ("rank4-certify", "rank5-edge", "multicopy-n2", "verify-all")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")


def run_one(args: argparse.Namespace, launcher: dict) -> int:
    import measure  # loads numpy: only after bootstrap.prepare()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = bootstrap.RESULTS / f"{stem}.spans.npy"
        result = measure.traced(workload, args.seed, args.seconds, spans)
    else:
        ops = bootstrap.RESULTS / f"{stem}.ops.npz"
        result = measure.end_to_end(workload, args.seed, args.seconds, ops)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": measure.environment(launcher),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        **result["details"],
    }
    bootstrap.RESULTS.mkdir(exist_ok=True)
    (bootstrap.RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    details = result["details"]
    print(f"  fail_frac {result['failed']}/{result['attempted']}")
    if args.trace:
        print(f"  op_p50_ms untraced {details['untraced_op_p50_ms']:.6g}"
              f" traced {details['traced_op_p50_ms']:.6g}")
        print(f"  fingerprint of the first {details['fingerprint_ops']} operations:"
              f" sha256 {details['fingerprint_sha256']}")
    else:
        print(f"  op_tail_ms is p{details['op_tail_percentile']:g} of {details['samples']}"
              f" operations, {details['op_tail_samples_beyond']} beyond it")
    print(f"  output digest of the first {workload.window} operations: {details['output_digest']}")
    for problem in details["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one table and one summary file."""
    summary = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                              cwd=bootstrap.ROOT, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
        print(done.stdout.rsplit("\n", 2)[0])
    bootstrap.RESULTS.mkdir(exist_ok=True)
    out = bootstrap.RESULTS / f"summary-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}/{k}": m for w, r in summary.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    launcher = bootstrap.prepare()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, launcher)


if __name__ == "__main__":
    sys.exit(main())
