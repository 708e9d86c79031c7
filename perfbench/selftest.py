"""Self-test of the benchmark at a tiny size (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json declares,
each with its unit; that the traced run puts every wrapped name back;
that the exact-count fingerprint and the output digest repeat; and that a
tampered certificate counts as a failed operation instead of ending the
run.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import bootstrap


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_printed_metrics(bench: dict) -> None:
    run = str(bootstrap.ROOT / "perfbench" / "run.py")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            argv = [sys.executable, run, "--workload", workload, "--seed", "0",
                    "--seconds", "0.5", "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=180,
                                  cwd=bootstrap.ROOT, check=False)
            where = f"{workload} --trace {trace}"
            check(done.returncode == 0, f"{where} exited with {done.returncode}: {done.stderr}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where} keys")
            check(result["correct"] and result["failed"] == 0, f"{where} not correct")
            check(result["attempted"] >= 1, f"{where} attempted nothing")
            names = [m["name"] for m in declared]
            check(list(result["metrics"]) == names, f"{where} metric names differ from BENCHMARK.json")
            table = lines[:-1]
            for m in declared:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{where} {m['name']} unit {got['unit']!r}")
                check(isinstance(got["value"], (int, float)), f"{where} {m['name']} not a number")
                check(any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                          for line in table), f"{where} did not print {m['name']} with its unit")
        print(f"ok  {workload}: every metric printed with its unit")


def _moved(before: dict) -> list:
    """Names bound to another object than in ``before``, or added or removed since."""
    import tracer

    after = tracer.bindings()
    return sorted(k for k in before.keys() | after.keys() if after.get(k) is not before.get(k))


def check_traced_run_restores_names() -> None:
    import measure
    import tracer
    import workloads

    before = tracer.bindings()
    runs = [measure.traced(workloads.WORKLOADS[name], 0, 0.2, None)
            for name in ("rank4-certify", "rank4-certify", "verify-all")]
    check(not _moved(before), f"traced run left wrappers bound: {_moved(before)[:5]}")
    check(runs[0]["details"]["fingerprint"]["witness.certify_1_distillable.calls"] == 200,
          "traced run recorded no calls")
    check(runs[2]["details"]["fingerprint"]["cli.main.calls"] == 3, "cli.main was not traced")
    check(runs[0]["details"]["fingerprint"] == runs[1]["details"]["fingerprint"],
          "exact-count fingerprint differs between two runs of one seed")
    check(runs[0]["details"]["output_digest"] == runs[1]["details"]["output_digest"],
          "output digest differs between two runs of one seed")

    t = tracer.Tracer(window=1)
    try:
        with t.installed():
            raise KeyError("abandon the traced block")
    except KeyError:
        pass
    check(not _moved(before), "names not restored after an exception")
    print("ok  traced runs restore every name; fingerprint and digest repeat")


def check_tampered_certificate_is_a_failure() -> None:
    import measure
    import workloads
    from distill_lab import serialize

    def tampered(text: str):
        doc = json.loads(text)
        doc["value"] += 1e-3  # the stored value no longer matches the witness
        return parse(json.dumps(doc))

    parse = serialize.certificate_from_json
    serialize.certificate_from_json = tampered
    try:
        workload = dataclasses.replace(workloads.WORKLOADS["rank4-certify"], window=3)
        loop = measure.closed_loop(workload, 0, 0.05)
    finally:
        serialize.certificate_from_json = parse
    check(len(loop.latencies) >= 3, "tampered loop stopped early")
    check(len(loop.failures) == len(loop.latencies), "a tampered certificate was accepted")
    check(all("CheckFailed" in f for f in loop.failures), f"unexpected failure: {loop.failures[0]}")
    print("ok  tampered certificates count as failed operations")


def main() -> int:
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(bench)
    bootstrap.prepare()
    check_traced_run_restores_names()
    check_tampered_certificate_is_a_failure()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
