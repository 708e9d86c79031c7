"""Closed-loop measurement of one workload, untraced (end to end) or traced (per layer).

Operation timings are scaled to a reference machine speed.  On a shared
two-core 2.1 GHz Xeon virtual machine the same operation on the same
input ran up to 1.8 times slower for seconds to minutes at a time, which
no run length averages away.  So a fixed speed probe, which uses no
library code, runs between operations, and each operation's latency is
divided by the probe's slowdown around it.  A change to the library
cannot move the probe; the raw wall-clock values are kept in the run's
record.

Import only after ``bootstrap.prepare()``: this module loads numpy and
the library.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bootstrap
import distill_lab
import workloads
from tracer import Tracer, declared_metrics, predictions
from workloads import Workload

bootstrap.check_import_origin(distill_lab)

# fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 5
# seconds of operations between two speed probes, and probes used on each side of one
PROBE_EVERY_S = 0.05
PROBE_SPAN = 4
# the probe's three parts on a quiet 2.1 GHz Xeon, OpenBLAS 0.3.31 on one thread
PROBE_REFERENCE_S = (2.4e-4, 4.5e-4, 1.75e-3)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "werner_n2_min_ratio": "ratio",
    "rho_n2_min_ratio": "ratio",
}


def _hermitian(n: int) -> np.ndarray:
    g = np.random.default_rng(n)
    m = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    return m + m.conj().T


_PROBE_SMALL = _hermitian(9)
_PROBE_LARGE = _hermitian(81)


def _interpreter_loop() -> None:
    acc = 0
    for k in range(2000):
        acc = (acc * 31 + k) % 1000003


def _small_lapack() -> None:
    for _ in range(5):
        np.linalg.eigh(_PROBE_SMALL)
        np.linalg.svd(_PROBE_SMALL)


def _large_lapack() -> None:
    np.linalg.eigh(_PROBE_LARGE)


def speed_probe() -> float:
    """How much slower the machine runs now than the reference: 1.0 at reference speed.

    The mean slowdown of three parts that mirror what the library spends
    its time on: interpreted Python, 9x9 LAPACK calls and an 81x81
    eigensolve.
    """
    slowdown = 0.0
    for part, reference in zip((_interpreter_loop, _small_lapack, _large_lapack),
                               PROBE_REFERENCE_S):
        t0 = time.perf_counter()
        part()
        slowdown += (time.perf_counter() - t0) / reference
    return slowdown / len(PROBE_REFERENCE_S)


@dataclass
class Loop:
    """What one closed loop measured; ``latencies`` are wall-clock seconds."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    # number of probes taken before each operation started
    probes_before: list[int] = field(default_factory=list)
    elapsed: float = 0.0
    digest: str = ""

    def slowdowns(self) -> list[float]:
        """Each operation's slowdown: the median of the probes nearest to it, four on each side."""
        p = self.probes
        return [statistics.median(p[max(k - PROBE_SPAN, 0):k + PROBE_SPAN])
                for k in self.probes_before]

    def save(self, path: Path) -> None:
        """Per-operation wall-clock latencies and the probes, for analysis after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, latencies=self.latencies, probes=self.probes,
                 probes_before=self.probes_before)

    def scaled(self) -> list[float]:
        """Latencies at the reference speed."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns())]


def closed_loop(
    workload: Workload,
    seed: int,
    seconds: float,
    tracer: Tracer | None = None,
    quality: dict | None = None,
) -> Loop:
    """Run operations 0, 1, ... one after another until ``seconds`` have passed.

    The loop also runs until the workload's digest window is full.  A
    failed operation is recorded and the loop goes on.  Ratios carried
    by an outcome are stored in ``quality`` by operation index.
    """
    loop = Loop()
    digest = hashlib.sha256()
    loop.probes.append(speed_probe())
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start + PROBE_EVERY_S
    probe_time = 0.0
    i = 0
    while time.perf_counter() < deadline or i < workload.window:
        if tracer is not None:
            tracer.op = i
        loop.probes_before.append(len(loop.probes))
        t0 = time.perf_counter()
        try:
            outcome = workload.op(seed, i)
        except Exception as exc:  # failures are counted, not fatal
            outcome = None
            loop.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        loop.latencies.append(t1 - t0)
        if i < workload.window:
            out = b"<failed>" if outcome is None else outcome.output
            digest.update(len(out).to_bytes(8, "little") + out)
        if outcome is not None and outcome.quality is not None and quality is not None:
            quality[i] = outcome.quality
        i += 1
        if t1 >= next_probe:
            loop.probes.append(speed_probe())
            probe_time += time.perf_counter() - t1
            next_probe = time.perf_counter() + PROBE_EVERY_S
    loop.elapsed = time.perf_counter() - start - probe_time
    loop.probes.append(speed_probe())
    if tracer is not None:
        tracer.op = -1
    loop.digest = digest.hexdigest()
    return loop


def tail(latencies: list[float], q: float) -> tuple[float, int]:
    """(the ``q`` quantile, the number of samples above it)."""
    xs = sorted(latencies)
    k = max(math.ceil(q * len(xs)) - 1, 0)
    return xs[k], len(xs) - k - 1


def setup_once(name: str) -> float:
    """Wall seconds from spawning a fresh interpreter to the end of its warm-up operation."""
    probe = Path(__file__).with_name("setup_probe.py")
    spawned_at = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(probe), name, repr(spawned_at)],
        capture_output=True, text=True, timeout=120, cwd=bootstrap.ROOT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exited with {done.returncode}: {done.stderr[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def environment(launcher: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "DISTILL_LAB_THREADS_was_set": launcher["DISTILL_LAB_THREADS_was_set"],
        "DISTILL_LAB_THREADS_set": "DISTILL_LAB_THREADS" in os.environ,
    }


def end_to_end(workload: Workload, seed: int, seconds: float, ops_path: Path | None) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    workloads.warm_up(workload)
    quality: dict[int, tuple[float, float]] = {}
    loop = closed_loop(workload, seed, seconds, quality=quality)
    if ops_path is not None:
        loop.save(ops_path)
    problems = list(loop.failures)
    try:
        ratios = workloads.quality_ratios(seed, quality)
    except Exception as exc:  # a failed quality probe makes the run incorrect
        problems.append(f"quality probe: {type(exc).__name__}: {exc}")
        ratios = [(0.0, 0.0)]
    setups = [setup_once(workload.name) for _ in range(SETUP_REPEATS)]
    scaled = loop.scaled()
    value, beyond = tail(scaled, workload.tail)
    raw_tail, _ = tail(loop.latencies, workload.tail)
    completed = len(loop.latencies) - len(loop.failures)
    metrics = {
        "ops_per_s": completed / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * value,
        # not scaled: the probe, run in this process, does not track process start-up
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "werner_n2_min_ratio": statistics.median(r[0] for r in ratios),
        "rho_n2_min_ratio": statistics.median(r[1] for r in ratios),
    }
    return {
        "correct": not problems,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "details": {
            "fail_frac": len(loop.failures) / len(loop.latencies),
            "problems": problems[:20],
            "op_tail_percentile": 100 * workload.tail,
            "op_tail_samples_beyond": beyond,
            "samples": len(loop.latencies),
            "slowdown_median": statistics.median(loop.probes),
            "slowdown_probes": len(loop.probes),
            "wall_clock": {
                "ops_per_s": completed / loop.elapsed,
                "op_p50_ms": 1e3 * statistics.median(loop.latencies),
                "op_tail_ms": 1e3 * raw_tail,
            },
            "setup_samples": setups,
            "quality_ratios": ratios,
            "digest_ops": workload.window,
            "output_digest": loop.digest,
        },
    }


def traced(workload: Workload, seed: int, seconds: float, spans_path: Path | None) -> dict:
    """The traced run: half the time untraced, then the same inputs traced.

    Both halves start at operation 0, so the tracing overhead compares
    the median latency over the same inputs.
    """
    workloads.warm_up(workload)
    plain = closed_loop(workload, seed, seconds / 2)
    tracer = Tracer(workload.window)
    with tracer.installed():
        loop = closed_loop(workload, seed, seconds / 2, tracer=tracer)
    common = min(len(plain.latencies), len(loop.latencies))
    untraced_p50 = statistics.median(plain.scaled()[:common])
    traced_p50 = statistics.median(loop.scaled()[:common])
    slowdowns = loop.slowdowns()
    times = tracer.times(slowdowns)
    metrics = tracer.metrics(times, len(slowdowns), traced_p50 / untraced_p50)
    units = {m["name"]: m["unit"] for m in declared_metrics()}
    counts = dict(sorted(tracer.counts.items()))
    problems = plain.failures + loop.failures
    if plain.digest != loop.digest:
        problems.append("traced outputs differ from untraced outputs")
    op_time = sum(loop.scaled())
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        np.save(spans_path, tracer.span_table())
    return {
        "correct": not problems,
        "attempted": len(plain.latencies) + len(loop.latencies),
        "failed": len(plain.failures) + len(loop.failures),
        "metrics": {k: (v, units[k]) for k, v in metrics.items()},
        "details": {
            "problems": problems[:20],
            "traced_ops": len(loop.latencies),
            "untraced_op_p50_ms": 1e3 * untraced_p50,
            "traced_op_p50_ms": 1e3 * traced_p50,
            "busy_share": {n: b / op_time for n, (b, _) in sorted(times.items())},
            "self_share": {n: s / op_time for n, (_, s) in sorted(times.items())},
            "layer_predictions": predictions(),
            "fingerprint_ops": workload.window,
            "fingerprint": counts,
            "fingerprint_sha256": hashlib.sha256(json.dumps(counts).encode()).hexdigest(),
            "output_digest": loop.digest,
            "span_names": tracer.names(),
        },
    }
