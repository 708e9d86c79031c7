"""The benchmark's workloads: seeded inputs, one operation each, and its output checks.

Every operation is called through the library's module attributes
(``witness.certify_1_distillable``, never a name bound here), so that the
traced run, which swaps those attributes, sees the calls the benchmark
makes.  An operation returns an ``Outcome`` or raises; ``CheckFailed``
means it returned but its output was wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import distill_lab
from distill_lab import cli, edgestate, harness, multicopy, serialize, witness

# the edge-family point whose n = 2 undistillability the multicopy reports probe
N2_EDGE_POINT = (1.0, math.pi / 6)
# (1/2) * 12^-2, the conjectured Werner n = 2 minimum, is 1/288
WERNER_N2_CONJECTURE_SCALE = 288.0
# optimizer seeds whose median gives the two n = 2 quality ratios
QUALITY_SEEDS = 12


class CheckFailed(Exception):
    """An operation returned, but its output failed the benchmark's check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Outcome:
    """What one operation produced: bytes for the output digest, and the n = 2 ratios."""

    output: bytes
    quality: Optional[tuple[float, float]] = None


def op_seed(workload: str, seed: int, index: int) -> int:
    """Library seed of operation ``index`` of a run."""
    return random.Random(f"{workload}/{seed}/{index}").getrandbits(32)


# additive recurrence in three dimensions (the R3 sequence): consecutive
# points cover the unit cube evenly, so every run sees the same mix of
# easy and hard (b, theta) however short it is
_R3 = 1.2207440846057596  # the real root of x^4 = x + 1
_R3_STEPS = (1 / _R3, 1 / _R3**2, 1 / _R3**3)


def edge_point(seed: int, index: int) -> tuple[float, float]:
    """(b, theta) of operation ``index``: b log-uniform on [1/2, 2], pi/12 <= |theta| <= pi/4.

    Each point is uniform on the region, because the sequence is shifted
    by a uniform offset drawn from ``seed``.
    """
    shift = random.Random(f"rank5-edge/{seed}")
    u_b, u_theta, u_sign = ((shift.random() + index * a) % 1.0 for a in _R3_STEPS)
    sign = 1.0 if u_sign < 0.5 else -1.0
    return 2.0 ** (2.0 * u_b - 1.0), sign * (math.pi / 12 + u_theta * math.pi / 6)


def rank4_certify(seed: int, index: int) -> Outcome:
    """Sample one rank-4 NPT two-qutrit state, certify it, round-trip and re-verify."""
    s = op_seed("rank4-certify", seed, index)
    spec = harness.EnsembleSpec(rank=4, count=1, filter="NPT", seed=s)
    states, _ = harness.sample_ensemble(spec)
    state = states[0]
    cert = witness.certify_1_distillable(state)
    _require(cert is not None, "no certificate for a rank-4 NPT state")
    text = serialize.certificate_to_json(cert)
    parsed = serialize.certificate_from_json(text)
    _require(parsed.route == cert.route, "route lost in the JSON round trip")
    _require(witness.verify_certificate(parsed, state), "certificate failed verification")
    return Outcome(text.encode())


def rank5_edge(seed: int, index: int) -> Outcome:
    """An edge state inside the admissible region: no witness, positive margin."""
    b, theta = edge_point(seed, index)
    bundle = edgestate.build_edge_bundle(distill_lab.EdgeParams(b, theta))
    cert = witness.certify_1_distillable(bundle.npt_state)
    _require(cert is None, f"rank-5 edge state at b={b!r}, theta={theta!r} got a witness")
    margin = edgestate.undistillability_margin(bundle)
    _require(margin > 0, f"margin {margin!r} is not positive")
    return Outcome(repr((b, theta, bundle.eps, margin)).encode())


def multicopy_n2(seed: int, index: int) -> Outcome:
    """The two n = 2 reports with a fresh optimizer seed; carries the quality ratios."""
    cfg = distill_lab.ToleranceConfig(seed=op_seed("multicopy-n2", seed, index))
    werner = multicopy.extremal_rank2_tensor_power(2, cfg)
    rho = multicopy.verify_n_undistillable(distill_lab.EdgeParams(*N2_EDGE_POINT), 2, cfg)
    _require(abs(werner.max_value - 1.0 / 64.0) <= 1e-6, "Werner n=2 maximum misses 1/64")
    _require(werner.min_value >= werner.bound_lower - 1e-8, "Werner n=2 minimum undercuts 1/576")
    _require(rho.min_value > 0.0, "rho n=2 minimum is not positive")
    _require(rho.min_value >= rho.bound_lower, "rho n=2 minimum is below its analytic bound")
    values = (werner.min_value, werner.max_value, rho.min_value, rho.max_value, rho.bound_lower)
    quality = (werner.min_value * WERNER_N2_CONJECTURE_SCALE, rho.min_value / rho.bound_lower)
    return Outcome(repr(values).encode(), quality)


def _without(doc, key: str):
    if isinstance(doc, dict):
        return {k: _without(v, key) for k, v in doc.items() if k != key}
    if isinstance(doc, list):
        return [_without(v, key) for v in doc]
    return doc


def verify_all(seed: int, index: int) -> Outcome:
    """``distill-lab verify --suite all --json`` in process, stdout captured."""
    out = io.StringIO()
    s = op_seed("verify-all", seed, index)
    argv = ["verify", "--suite", "all", "--json", "--trials", "100", "--seed", str(s)]
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    _require(code == 0, f"verify exited with {code}")
    doc = json.loads(out.getvalue())
    _require(not doc["failures"], f"{len(doc['failures'])} suite failures")
    _require(doc["passes"] == doc["trials"], "suite passes do not equal trials")
    return Outcome(json.dumps(_without(doc, "wall_time_s")).encode())


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[int, int], Outcome]  # (run seed, operation index)
    # the first ``window`` operations form the output digest and the exact counts
    window: int
    # percentile of op_tail_ms, fixed so that a faster commit is not judged at a
    # higher one: at most p95, past which the rank-4 tail measures interpreter and
    # host hiccups, and low enough that 20 s runs leave 10 to 20 samples beyond it
    tail: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank4-certify", rank4_certify, window=200, tail=0.95),
        Workload("rank5-edge", rank5_edge, window=10, tail=0.85),
        Workload("multicopy-n2", multicopy_n2, window=QUALITY_SEEDS, tail=0.75),
        Workload("verify-all", verify_all, window=3, tail=0.65),
    )
}


def warm_up(workload: Workload) -> None:
    """The untimed first operation; one fixed input, so set-up does the same work in every run."""
    workload.op(0, -1)


def quality_ratios(seed: int, known: dict[int, tuple[float, float]]) -> list[tuple[float, float]]:
    """(Werner, rho) n = 2 ratios for the first ``QUALITY_SEEDS`` multicopy-n2 seeds.

    ``known`` holds ratios the timed loop already produced, by operation
    index; the rest are computed here, untimed.
    """
    ratios = []
    for i in range(QUALITY_SEEDS):
        if i not in known:
            known[i] = multicopy_n2(seed, i).quality
        ratios.append(known[i])
    return ratios
