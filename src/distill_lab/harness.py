"""Reproducible random-state ensembles and the claim-verification suites.

States are Ginibre-style ``G G*`` draws with ``G`` filled from the
portable SplitMix64/Box-Muller stream, so a (seed, trial) pair pins every
sample bit-for-bit.  An ensemble draws its attempts in blocks, each block
as one stack of streams and products, which equal the one-at-a-time draws
bit for bit; ``random_state`` is the one-seed case.

A suite runs from its name, a trial count and a seed, which pick only the
sampled states: the routes and checks inside every suite run at the
library seed 2024.  Within one ``run_suite("all")`` call the ensemble
suites that draw the same (dims, rank) share the states they draw, so
``lemma-2x2`` judges the states ``theorem-rank4`` drew; the store lives
only as long as that call.

Every suite is a list of trials and a judge, which returns ``None`` for a
pass, ``_SKIP`` for a trial outside the claim, or the trial's failure
document; one tally builds every suite's report.  Suites never abort on a
failed trial, because a tolerance miss is diagnostic data: a
``NumericalFailureError``, ``InvariantViolationError``,
``DimensionMismatchError`` or ``AssertionError`` fails its trial with the
error text as the reason, and any other exception is a bug and propagates.
Only a stalled rejection filter (10000 consecutive rejections) aborts a
suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .edgestate import (
    DEFAULT_GRID,
    _MES,
    EdgeParams,
    build_edge_bundle,
    edge_state,
    edge_state_pt,
    min_positive_pt_eigenvalue,
)
from .multicopy import _n_copy_claim, extremal_rank2_tensor_power, werner_projector
from .qcore import (
    PSD_TOL,
    RANK_REL_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    InvariantViolationError,
    NumericalFailureError,
    _pt_power,
    _rank_cut,
    _two_nonpositive_pt,
    is_ppt,
    regroup_tensor_power,
)
from .rng import _complex_normals, derive_seed
from .serialize import matrix_document
from .witness import (
    WitnessCertificate,
    _RESTARTS,
    certify_1_distillable,
    submatrix_2x2_scan,
    two_nonpositive_witness,
    verify_certificate,
)

FILTERS = ("any", "NPT", "twoNonpositivePT")

_MAX_CONSECUTIVE_REJECTS = 10_000

# most attempts ``sample_ensemble`` draws as one stack; it bounds the stack's
# memory, and a block never reaches past the states still needed
_BLOCK = 64

# what the code under test raises when a trial fails; anything else is a bug
_TRIAL_ERRORS = (
    NumericalFailureError, InvariantViolationError, DimensionMismatchError, AssertionError
)

_SKIP = object()  # a judge's verdict on a trial the suite's claim does not cover


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: dimensions, rank, how many, an acceptance filter, a seed."""

    dims: Dims = Dims(3, 3)
    rank: int = 4
    count: int = 100
    filter: str = "any"
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.rank < 1 or self.rank > self.dims.total:
            raise ValueError(f"rank must lie in 1..{self.dims.total}")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r}; choose from {FILTERS}")


@dataclass
class SuiteReport:
    """Outcome of one verification suite; failures carry counterexamples."""

    suite: str
    trials: int
    passes: int
    failures: list[dict] = field(default_factory=list)
    skipped: int = 0
    wall_time_s: float = 0.0
    config: dict = field(default_factory=dict)
    acceptance_rate: Optional[float] = None
    sub_reports: list["SuiteReport"] = field(default_factory=list)

    def to_document(self) -> dict:
        doc = {
            "suite": self.suite,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "skipped": self.skipped,
            "wall_time_s": self.wall_time_s,
            "config": self.config,
        }
        if self.acceptance_rate is not None:
            doc["acceptance_rate"] = self.acceptance_rate
        if self.sub_reports:
            doc["sub_reports"] = [r.to_document() for r in self.sub_reports]
        return doc


def random_state(dims: Dims, rank: int, seed: int) -> BipartiteState:
    """Trace-normalized ``G G*`` with G a (dims.total x rank) complex Gaussian.

    G fills row-major from the stream ``seed``, as
    ``SplitMix64(seed).complex_matrix(dims.total, rank)``.  The one-seed
    case of ``sample_ensemble``'s stacked draw, and equal to it bit for bit.
    Raises ``NumericalFailureError`` if the state's numeric rank is not
    ``rank``.
    """
    if not 1 <= rank <= dims.total:
        raise ValueError(f"rank must lie in 1..{dims.total}, got {rank}")
    return next(_draws(dims, rank, [seed], {}))


def _draws(dims: Dims, rank: int, seeds: list[int], drawn: dict) -> Iterator[BipartiteState]:
    """The states ``random_state(dims, rank, s)`` for ``s`` in ``seeds``, in order.

    Seeds whose state ``drawn`` holds, keyed by (dims, rank, seed), reuse
    it; the others are drawn as one stack: one ``_complex_normals`` call
    and one stacked ``G G*``, which give the per-seed values bit for bit.
    Each new state is stored in ``drawn`` once its kept rank is checked.
    """
    new = [s for s in seeds if (dims, rank, s) not in drawn]
    fresh = iter(())
    if new:
        g = _complex_normals(new, dims.total * rank)[0].reshape(len(new), dims.total, rank)
        mats = g @ g.conj().transpose(0, 2, 1)
        mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
        fresh = iter(mats)
    for s in seeds:
        key = (dims, rank, s)
        if key not in drawn:
            state = BipartiteState(next(fresh), dims)
            if state._rank != rank:
                raise NumericalFailureError(
                    f"sampled state has numeric rank {state._rank}, expected {rank}"
                )
            drawn[key] = state
        yield drawn[key]


def _passes_filter(state: BipartiteState, name: str) -> bool:
    if name == "any":
        return True
    if name == "NPT":
        return not is_ppt(state)
    if name == "twoNonpositivePT":
        return _two_nonpositive_pt(state)
    raise ValueError(f"unknown filter {name!r}")


def sample_ensemble(spec: EnsembleSpec) -> tuple[list[BipartiteState], float]:
    """Rejection-sample the ensemble ``spec``; returns (states, acceptance rate).

    Attempt ``i`` draws ``random_state(spec.dims, spec.rank,
    derive_seed(spec.seed, i))``, so the spec alone pins every state.  The
    attempts are drawn in blocks, each as one stack, and filtered in order;
    a block holds as many attempts as states are still needed, at most
    ``_BLOCK``, so no attempt past the last accepted state is drawn.
    Aborts with a numerical-failure signal after 10000 consecutive
    rejections, which indicates an unsatisfiable filter.
    """
    return _sample(spec, None)


def _sample(spec: EnsembleSpec, drawn: Optional[dict]) -> tuple[list[BipartiteState], float]:
    """``sample_ensemble(spec)``, reusing and adding to the states in ``drawn``, if any."""
    states: list[BipartiteState] = []
    attempt = 0
    consecutive = 0
    while len(states) < spec.count:
        block = range(attempt, attempt + min(spec.count - len(states), _BLOCK))
        seeds = [derive_seed(spec.seed, i) for i in block]
        for state in _draws(spec.dims, spec.rank, seeds, {} if drawn is None else drawn):
            attempt += 1
            if _passes_filter(state, spec.filter):
                states.append(state)
                consecutive = 0
            else:
                consecutive += 1
                if consecutive >= _MAX_CONSECUTIVE_REJECTS:
                    raise NumericalFailureError(
                        f"filter {spec.filter!r} rejected {consecutive} consecutive samples"
                    )
    return states, len(states) / attempt


def _counterexample(trial: int, state: BipartiteState, reason: str, **extra) -> dict:
    doc = {
        "trial": trial,
        "reason": reason,
        "state": matrix_document(state.mat, state.dims),
    }
    doc.update(extra)
    return doc


def _sampled(spec: EnsembleSpec, drawn: Optional[dict]):
    """Trials of an ensemble suite: sampled states; the config echoes spec and the constants."""
    states, rate = _sample(spec, drawn)
    config = {
        "dims": [spec.dims.dim_a, spec.dims.dim_b],
        "rank": spec.rank,
        "count": spec.count,
        "filter": spec.filter,
        "seed": spec.seed,
        "psd_tol": PSD_TOL,
        "rank_rel_tol": RANK_REL_TOL,
        "opt_restarts": _RESTARTS,
    }
    return states, config, rate


def _judge_route(
    idx: int,
    state: BipartiteState,
    route: Callable[[BipartiteState], Optional[WitnessCertificate]],
    empty_reason: str,
) -> Optional[dict]:
    """Certify the state through ``route`` and re-check the certificate."""
    try:
        cert = route(state)
    except _TRIAL_ERRORS as exc:
        return _counterexample(idx, state, str(exc))
    if cert is None:
        return _counterexample(idx, state, empty_reason)
    if not verify_certificate(cert, state):
        return _counterexample(idx, state, "certificate failed verification", value=cert.value)
    return None


def _judge_2x2(idx: int, state: BipartiteState):
    """Skip a state with no qualifying minor; otherwise re-check its certificate."""
    hit = submatrix_2x2_scan(state)
    if hit is None:
        return _SKIP
    if verify_certificate(hit.certificate, state):
        return None
    return _counterexample(
        idx,
        state,
        "negative minor did not yield a verified certificate",
        determinant=hit.determinant,
        value=hit.certificate.value,
    )


def _edge_points(spec: EnsembleSpec, drawn: Optional[dict]):
    return DEFAULT_GRID, {"grid": [[b, th] for b, th in DEFAULT_GRID], "seed": spec.seed}, None


def _judge_edge_point(idx: int, point: tuple[float, float]):
    b, theta = point
    problems: list[str] = []
    params = EdgeParams(b, theta)
    sigma = edge_state(params)
    closed = edge_state_pt(params)
    pt = sigma._pt

    if abs(sigma.trace - 1.0) > 1e-12:
        problems.append(f"trace {sigma.trace} != 1")
    if sigma._rank != 5:
        problems.append("edge state rank != 5")
    evals = sigma._pt_spectrum.eigenvalues  # ranked as a state ranks itself
    if _rank_cut(np.sort(np.abs(evals))[::-1]) != 8:
        problems.append("edge-state PT rank != 8")
    if float(np.abs(pt - closed).max()) > 1e-15:
        problems.append("closed-form PT disagrees with the permutation PT")
    if float(np.abs(pt @ _MES).max()) > 1e-12:
        problems.append("MES not in the PT kernel")

    gap = min_positive_pt_eigenvalue(params)
    positive = evals[evals > RANK_REL_TOL * evals[-1]]
    if abs(gap - float(positive[0])) > 1e-10:
        problems.append("closed-form gap disagrees with eigendecomposition")
    bound_op = pt - gap * (np.eye(9) - np.outer(_MES, _MES.conj()))
    if float(np.linalg.eigvalsh(bound_op)[0]) < -PSD_TOL:
        problems.append("operator lower bound violated at n=1")

    # the bundle finds the range product vector with its membership checks
    try:
        bundle = build_edge_bundle(params)
        if abs(np.linalg.norm(np.outer(bundle.factor_a, bundle.factor_b).ravel()) - 1.0) > 1e-12:
            problems.append("range product vector is not normalized")
        pt_evals = bundle.npt_state._pt_spectrum.eigenvalues
        if int(np.sum(pt_evals < -PSD_TOL)) != 1:
            problems.append("perturbed state does not have exactly one negative PT eigenvalue")
        if int(np.sum(pt_evals > PSD_TOL)) != 8:
            problems.append("perturbed state does not have eight positive PT eigenvalues")
        if not bundle.margin > 0:
            problems.append("margin is not positive at the default noise")
    except _TRIAL_ERRORS as exc:
        problems.append(f"bundle construction failed: {exc}")
    return {"b": b, "theta": theta, "problems": problems} if problems else None


def _multicopy_checks(spec: EnsembleSpec, drawn: Optional[dict]):
    params = EdgeParams(1.0, math.pi / 6)

    def check_extremal(n: int) -> None:
        report = extremal_rank2_tensor_power(n)
        if abs(report.max_value - 1.0 / 8.0**n) > 1e-6:
            raise AssertionError(f"n={n} max {report.max_value} misses 1/8^n")
        if n == 1 and abs(report.min_value - 1.0 / 24.0) > 1e-6:
            raise AssertionError(f"n=1 min {report.min_value} misses 1/24")

    def check_operator_bound() -> None:
        gap = min_positive_pt_eigenvalue(params)
        ws = werner_projector()
        sigma = edge_state(params)
        for n in (1, 2):
            lhs, _ = _pt_power(sigma, n)
            rhs, _ = regroup_tensor_power(ws.mat, Dims(3, 3), n)
            diff = lhs - (8 * gap) ** n * rhs
            if float(np.linalg.eigvalsh(diff)[0]) < -PSD_TOL:
                raise AssertionError(f"operator bound fails at n={n}")

    def check_undistillable(n: int) -> None:
        min_value = _n_copy_claim(params, n)[0]
        if not min_value > 0:
            raise AssertionError(f"n={n} minimum is not positive")

    checks = [
        ("extremal n=1", lambda: check_extremal(1)),
        ("extremal n=2", lambda: check_extremal(2)),
        ("operator bound n=1,2", check_operator_bound),
        ("undistillable n=1", lambda: check_undistillable(1)),
        ("undistillable n=2", lambda: check_undistillable(2)),
    ]
    return checks, {"b": params.b, "theta": params.theta, "seed": spec.seed}, None


def _judge_check(idx: int, trial: tuple[str, Callable[[], None]]):
    name, check = trial
    try:
        check()
    except _TRIAL_ERRORS as exc:
        return {"check": name, "reason": str(exc)}
    return None


# suite name -> (trials, judge, default ensemble), in the order "all" runs and reports
# them; ``trials(spec, drawn)`` gives (trials, config, acceptance rate) and
# ``judge(idx, trial)`` a verdict.  Only ``_sampled`` reads the spec's ensemble and the
# store ``drawn`` of states already drawn; ``_edge_points`` and ``_multicopy_checks``
# read only the spec's seed, for the config.  The routes are looked up
# by name at call time, so a patched module global takes effect.
_SUITES = {
    "theorem-rank4": (
        _sampled,
        lambda i, s: _judge_route(i, s, certify_1_distillable, "no certificate found"),
        EnsembleSpec(rank=4, filter="NPT"),
    ),
    "theorem-two-eigs": (
        _sampled,
        lambda i, s: _judge_route(
            i, s, two_nonpositive_witness, "two-nonpositive route returned empty"
        ),
        EnsembleSpec(rank=5, filter="twoNonpositivePT"),
    ),
    "lemma-2x2": (_sampled, _judge_2x2, EnsembleSpec(rank=4, filter="any")),
    "edge-family": (_edge_points, _judge_edge_point, EnsembleSpec(count=1)),
    "multicopy": (_multicopy_checks, _judge_check, EnsembleSpec(count=1)),
}

SUITE_NAMES = tuple(_SUITES)


def _tally(name: str, count: int, seed: int, drawn: Optional[dict]) -> SuiteReport:
    """Judge every trial of suite ``name``: the one place a suite's report is built.

    ``count`` and ``seed`` replace those of the suite's default ensemble,
    and sampled states come from, and go to, the store ``drawn`` if one is given.
    """
    start = time.perf_counter()
    trials_of, judge, base = _SUITES[name]
    trials, config, rate = trials_of(replace(base, count=count, seed=seed), drawn)
    verdicts = [judge(idx, trial) for idx, trial in enumerate(trials)]
    failures = [v for v in verdicts if v is not None and v is not _SKIP]
    skipped = verdicts.count(_SKIP)
    judged = len(verdicts) - skipped
    return SuiteReport(
        suite=name,
        trials=judged,
        passes=judged - len(failures),
        failures=failures,
        skipped=skipped,
        wall_time_s=time.perf_counter() - start,
        config=config,
        acceptance_rate=rate,
    )


def run_suite(name: str, count: int = 100, seed: int = 2024) -> SuiteReport:
    """Run one named verification suite (or ``"all"``) and report.

    ``count`` and ``seed`` replace those of the suite's default ensemble,
    whose dimensions, rank and filter are fixed.  They choose the sampled
    states of ``theorem-rank4``, ``theorem-two-eigs`` and ``lemma-2x2``;
    ``edge-family`` and ``multicopy`` run the same trials at any count and
    seed.  The routes and checks run at the library seed.  Within ``"all"``
    the ensemble suites that draw the same (dims, rank) share the states
    they draw, so ``lemma-2x2`` judges the draws of ``theorem-rank4``, and
    no store keeps the rank-5 draws of ``theorem-two-eigs``; each suite's
    report equals the one it gives alone, but for ``wall_time_s``.
    """
    if name == "all":
        start = time.perf_counter()
        keys = [
            (base.dims, base.rank) if trials_of is _sampled else None
            for trials_of, _, base in _SUITES.values()
        ]
        # (dims, rank) of two or more suites -> {(dims, rank, seed): state}, for this call only
        stores: dict = {k: {} for k in keys if k is not None and keys.count(k) > 1}
        subs = [_tally(s, count, seed, stores.get(k)) for s, k in zip(SUITE_NAMES, keys)]
        report = SuiteReport(
            suite="all",
            trials=sum(r.trials for r in subs),
            passes=sum(r.passes for r in subs),
            failures=[f for r in subs for f in r.failures],
            skipped=sum(r.skipped for r in subs),
            config={"suites": list(SUITE_NAMES)},
            sub_reports=subs,
        )
        report.wall_time_s = time.perf_counter() - start
        return report
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _tally(name, count, seed, None)
