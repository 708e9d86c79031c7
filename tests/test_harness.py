"""Ensembles, reproducibility, and the verification suites."""

import json
import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import distill_lab.edgestate as edgestate
import distill_lab.harness as harness
import distill_lab.multicopy as multicopy
import distill_lab.witness as witness
from distill_lab.edgestate import DEFAULT_GRID, EdgeParams
from distill_lab.harness import (
    EnsembleSpec,
    random_state,
    run_suite,
    sample_ensemble,
)
from distill_lab.qcore import (
    BipartiteState,
    DimensionMismatchError,
    Dims,
    InvariantViolationError,
    NumericalFailureError,
    _numeric_rank,
    _pt_power,
    partial_transpose,
    rank_kernel_range,
)
from distill_lab.rng import SplitMix64, _complex_normals, derive_seed
from distill_lab.serialize import dumps, state_from_json
from distill_lab.witness import (
    certify_1_distillable,
    kernel_product_witness,
    submatrix_2x2_scan,
)

D33 = Dims(3, 3)


class TestSplitMix:
    def test_reference_sequence(self):
        # canonical SplitMix64 outputs; anchors cross-implementation portability
        gen = SplitMix64(1234567)
        assert [gen.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]
        gen = SplitMix64(0)
        assert gen.next_u64() == 16294208416658607535

    def test_reference_gaussians(self):
        # Box-Muller on the words above, exact to the last bit
        gen = SplitMix64(1234567)
        assert [gen.complex_normal() for _ in range(3)] == [
            complex(float.fromhex("0x1.e43887b48e981p-2"), float.fromhex("0x1.d15340fbdac83p-1")),
            complex(float.fromhex("0x1.448465880ef33p-8"), float.fromhex("0x1.969cc3a87ca78p-1")),
            complex(float.fromhex("-0x1.363c5a4ab6f09p-2"), float.fromhex("0x1.459802e8e4b2bp-3")),
        ]

    def test_uniform_range(self):
        gen = SplitMix64(9)
        for _ in range(1000):
            u = gen.uniform()
            assert 0.0 <= u < 1.0

    def test_gaussian_moments(self):
        gen = SplitMix64(10)
        zs = np.array([gen.complex_normal() for _ in range(20000)])
        assert abs(np.mean(zs)) < 0.02
        assert abs(np.mean(np.abs(zs) ** 2) - 1.0) < 0.02

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestRandomState:
    def test_requested_ranks(self):
        for rank in (1, 4, 9):
            state = random_state(D33, rank, 2024)
            assert rank_kernel_range(state.mat)[0] == rank
            assert abs(state.trace - 1.0) < 1e-12

    def test_bit_identical_for_fixed_seed(self):
        a = random_state(D33, 4, 77)
        b = random_state(D33, 4, 77)
        assert np.array_equal(a.mat, b.mat)

    def test_different_seeds_differ(self):
        a = random_state(D33, 4, 1)
        b = random_state(D33, 4, 2)
        assert not np.allclose(a.mat, b.mat)


# ---- reference oracle: the one-state-at-a-time sampler, verbatim ---------------


def _random_state_one(dims: Dims, rank: int, seed: int):
    """``random_state`` as it stood before the stacked draw."""
    if not 1 <= rank <= dims.total:
        raise ValueError(f"rank must lie in 1..{dims.total}, got {rank}")
    g = _complex_normals([seed], dims.total * rank)[0].reshape(dims.total, rank)
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    state = BipartiteState(mat, dims)
    got = _numeric_rank(mat)
    if got != rank:
        raise NumericalFailureError(f"sampled state has numeric rank {got}, expected {rank}")
    return state


def _sample_one_at_a_time(spec: EnsembleSpec, max_rejects: int):
    """``sample_ensemble`` as it stood before the stacked draw; also returns the attempts."""
    states = []
    attempt = 0
    consecutive = 0
    while len(states) < spec.count:
        state = _random_state_one(spec.dims, spec.rank, derive_seed(spec.seed, attempt))
        attempt += 1
        if harness._passes_filter(state, spec.filter):
            states.append(state)
            consecutive = 0
        else:
            consecutive += 1
            if consecutive >= max_rejects:
                raise NumericalFailureError(
                    f"filter {spec.filter!r} rejected {consecutive} consecutive samples"
                )
    return states, len(states) / attempt, attempt


@pytest.fixture
def drawn_rows(monkeypatch):
    """(count, seeds) of each ``_complex_normals`` call the sampler makes."""
    calls = []
    real = harness._complex_normals

    def counted(states, count):
        calls.append((count, list(states)))
        return real(states, count)

    monkeypatch.setattr(harness, "_complex_normals", counted)
    return calls


class TestEnsemble:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(rank=10)
        with pytest.raises(ValueError):
            EnsembleSpec(count=0)
        with pytest.raises(ValueError):
            EnsembleSpec(filter="bogus")

    def test_npt_filter(self):
        spec = EnsembleSpec(rank=4, count=5, filter="NPT", seed=5)
        states, rate = sample_ensemble(spec)
        assert len(states) == 5
        assert 0 < rate <= 1.0

    @pytest.mark.parametrize("name", ["PPT", "kernelHasProduct"])
    def test_removed_filters_are_unknown(self, name):
        with pytest.raises(ValueError, match="unknown filter"):
            EnsembleSpec(filter=name)

    def test_pt_spectrum_computed_once_per_state(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(np.array(a, copy=True))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        spec = EnsembleSpec(rank=4, count=3, filter="NPT", seed=21)
        states, _ = sample_ensemble(spec)
        for state in states:
            assert certify_1_distillable(state) is not None
            kernel_product_witness(state)
        for state in states:
            pt = partial_transpose(state.mat, state.dims)
            assert sum(np.array_equal(a, pt) for a in seen) == 1

    def test_rejection_abort(self, monkeypatch, drawn_rows):
        # every 1xN state is PPT, so an NPT filter on them stalls
        monkeypatch.setattr(harness, "_MAX_CONSECUTIVE_REJECTS", 40)
        spec = EnsembleSpec(dims=Dims(1, 3), rank=2, count=1, filter="NPT", seed=8)
        with pytest.raises(NumericalFailureError, match="rejected 40 consecutive"):
            sample_ensemble(spec)
        # at the oracle's attempt: 40 draws, none past it
        assert sum(len(seeds) for _, seeds in drawn_rows) == 40
        with pytest.raises(NumericalFailureError, match="rejected 40 consecutive"):
            _sample_one_at_a_time(spec, 40)


class TestStackedSampling:
    """The block sampler against the one-state-at-a-time oracle, byte for byte."""

    @pytest.mark.parametrize("dims", [Dims(2, 4), D33, Dims(3, 4), Dims(4, 4)])
    def test_matches_the_oracle(self, monkeypatch, drawn_rows, dims):
        # blocks of at most 3 attempts, so that rejections straddle blocks
        monkeypatch.setattr(harness, "_BLOCK", 3)
        rejected = 0
        for rank in range(1, dims.total + 1):
            for filt in harness.FILTERS:
                spec = EnsembleSpec(dims=dims, rank=rank, count=5, filter=filt, seed=rank)
                drawn_rows.clear()
                states, rate = sample_ensemble(spec)
                ref, ref_rate, attempts = _sample_one_at_a_time(spec, 10_000)
                assert rate == ref_rate
                assert [len(seeds) for _, seeds in drawn_rows][0] == 3
                # nothing drawn past the last accepted state
                assert sum(len(seeds) for _, seeds in drawn_rows) == attempts
                assert [s.mat.tobytes() for s in states] == [s.mat.tobytes() for s in ref]
                rejected += attempts - spec.count
        if dims.dim_a == 2 or dims == D33:
            assert rejected > 0  # the two-nonpositive filter rejects above rank 4

    def test_counts_above_the_block_cap(self, drawn_rows):
        spec = EnsembleSpec(rank=5, count=harness._BLOCK + 40, filter="twoNonpositivePT", seed=8)
        states, rate = sample_ensemble(spec)
        ref, ref_rate, attempts = _sample_one_at_a_time(spec, harness._MAX_CONSECUTIVE_REJECTS)
        assert rate == ref_rate < 1.0  # the filter rejects some draws
        assert [s.mat.tobytes() for s in states] == [s.mat.tobytes() for s in ref]
        sizes = [len(seeds) for _, seeds in drawn_rows]
        assert sizes[0] == harness._BLOCK and max(sizes) == harness._BLOCK
        assert sum(sizes) == attempts
        assert [s for _, seeds in drawn_rows for s in seeds] == [
            derive_seed(spec.seed, i) for i in range(attempts)
        ]

    def test_random_state_is_the_one_seed_draw(self, drawn_rows):
        for dims, rank, seed in [(Dims(2, 4), 3, 1), (D33, 4, 5), (Dims(4, 4), 16, 9)]:
            got = random_state(dims, rank, seed)
            assert got.mat.tobytes() == _random_state_one(dims, rank, seed).mat.tobytes()
        assert [len(seeds) for _, seeds in drawn_rows] == [1, 1, 1]

    def test_bad_rank_is_refused_before_any_draw(self, drawn_rows):
        for rank in (0, 10):
            with pytest.raises(ValueError, match="rank must lie in 1..9"):
                random_state(D33, rank, 1)
        assert drawn_rows == []

    def test_rank_miss_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(harness, "_rank_cut", lambda s: 3)
        with pytest.raises(NumericalFailureError, match="numeric rank 3, expected 4"):
            random_state(D33, 4, 1)
        with pytest.raises(NumericalFailureError, match="numeric rank 3, expected 4"):
            sample_ensemble(EnsembleSpec(count=3))


def _strip_wall_time(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("wall_time_s", None)
    if "sub_reports" in doc:
        doc["sub_reports"] = [_strip_wall_time(d) for d in doc["sub_reports"]]
    return doc


class TestSuites:
    def test_rank4_suite_passes(self):
        report = run_suite("theorem-rank4", 25, 1234)
        assert report.trials == 25
        assert report.passes == 25
        assert report.failures == []
        assert report.passes + len(report.failures) == report.trials

    @pytest.mark.parametrize(
        "suite, rate",
        # the rank-4 sampler keeps every draw; the two-eigs one rejects 1 of 101
        [("theorem-rank4", 1.0), ("theorem-two-eigs", 100 / 101)],
    )
    def test_report_carries_the_acceptance_rate(self, suite, rate):
        doc = run_suite(suite, 100, 2024).to_document()
        assert doc["acceptance_rate"] == rate
        assert "rejection_rate" not in doc

    def test_two_eigs_suite_passes(self):
        report = run_suite("theorem-two-eigs", 25, 1234)
        assert report.passes == 25

    def test_lemma_2x2_suite(self):
        report = run_suite("lemma-2x2", 30, 99)
        assert report.trials + report.skipped == 30
        assert report.passes == report.trials
        assert report.failures == []

    def test_edge_family_suite(self):
        report = run_suite("edge-family")
        assert report.trials == 12
        assert report.passes == 12

    def test_edge_point_builds_the_edge_state_twice(self, monkeypatch):
        # the trial's own state, then the bundle's, which its range-membership check reuses
        calls = []
        real = edgestate.edge_state

        def counted(params, *rest):
            calls.append(params)
            return real(params, *rest)

        monkeypatch.setattr(harness, "edge_state", counted)
        monkeypatch.setattr(edgestate, "edge_state", counted)
        assert harness._judge_edge_point(0, DEFAULT_GRID[0]) is None
        assert len(calls) == 2

    def test_multicopy_counts_library_errors(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalFailureError("solver gave up")

        monkeypatch.setattr(harness, "_n_copy_claim", fail)
        report = run_suite("multicopy")
        assert report.trials == 5
        assert report.passes == 3
        assert [f["reason"] for f in report.failures] == ["solver gave up"] * 2

    def test_multicopy_runs_no_rho_maximum(self, monkeypatch):
        # the undistillability trials read only the n-copy minimum: the suite minimizes
        # +-X of the Werner power and +PT of rho at n = 1, 2, and never -PT of rho;
        # at n = 2 each 81x81 minimization lifts a 9x9 one-copy minimization
        params = EdgeParams(1.0, math.pi / 6)
        claims = [multicopy._n_copy_claim(params, n) for n in (1, 2)]
        rho_pts = [claims[0][2].npt_state._pt, claims[1][2].npt_state._pt]
        rho_pts.append(_pt_power(claims[1][2].npt_state, 2)[0])
        real, lifted, calls = witness.min_rank2_expectation, witness._lifted_minimum, []

        def spy(x, dims, seed=2024):
            calls.append(np.array(x))
            return real(x, dims, seed)

        def lifted_spy(x, p, dims, one_copy, seed, sign):
            calls.append(np.array(x))
            return lifted(x, p, dims, one_copy, seed, sign)

        for name, module in list(sys.modules.items()):
            if not name.startswith("distill_lab"):
                continue
            for attr, original, fake in (
                ("min_rank2_expectation", real, spy),
                ("_lifted_minimum", lifted, lifted_spy),
            ):
                if vars(module).get(attr) is original:
                    monkeypatch.setattr(module, attr, fake)
        report = run_suite("multicopy")
        assert (report.trials, report.passes) == (5, 5)
        assert Counter(len(x) for x in calls) == {9: 6, 81: 3}
        for pt in rho_pts:
            assert sum(np.array_equal(x, pt) for x in calls) == 1
            assert not any(np.array_equal(x, -pt) for x in calls)

    @pytest.mark.parametrize(
        "error",
        [NumericalFailureError, InvariantViolationError, DimensionMismatchError, AssertionError],
    )
    def test_edge_family_counts_library_errors(self, monkeypatch, error):
        real, calls = harness.build_edge_bundle, []

        def fails_on_point_1(params):
            calls.append(params)
            if len(calls) == 2:
                raise error("bundle gave up")
            return real(params)

        monkeypatch.setattr(harness, "build_edge_bundle", fails_on_point_1)
        report = run_suite("edge-family")
        assert len(calls) == 12
        assert report.trials == 12
        assert report.passes == 11
        assert report.failures == [
            {
                "b": DEFAULT_GRID[1][0],
                "theta": DEFAULT_GRID[1][1],
                "problems": ["bundle construction failed: bundle gave up"],
            }
        ]

    def test_edge_family_propagates_programming_errors(self, monkeypatch):
        def broken(params):
            raise TypeError("shape bug")

        monkeypatch.setattr(harness, "build_edge_bundle", broken)
        with pytest.raises(TypeError, match="shape bug"):
            run_suite("edge-family")

    def test_multicopy_propagates_programming_errors(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("shape bug")

        monkeypatch.setattr(harness, "extremal_rank2_tensor_power", broken)
        with pytest.raises(TypeError, match="shape bug"):
            run_suite("multicopy")

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_count_and_seed_replace_those_of_the_default_ensemble(self):
        config = run_suite("theorem-two-eigs", 3, 7).config
        assert config["rank"] == 5
        assert config["filter"] == "twoNonpositivePT"
        assert (config["count"], config["seed"]) == (3, 7)

    def test_an_ensemble_is_not_a_trial_count(self):
        # the suite's dims, rank and filter are fixed; an ensemble cannot pose as a count
        with pytest.raises(TypeError):
            run_suite("theorem-rank4", EnsembleSpec(rank=5))

    def test_reports_deterministic_modulo_wall_time(self):
        a = run_suite("theorem-rank4", 8, 31).to_document()
        b = run_suite("theorem-rank4", 8, 31).to_document()
        assert dumps(_strip_wall_time(a)) == dumps(_strip_wall_time(b))

    def test_counterexamples_round_trip(self):
        # force failures by running the scan suite on PPT-looking input:
        # fabricate a report entry through the serializer instead
        spec = EnsembleSpec(count=4, seed=3)
        states, _ = sample_ensemble(spec)
        doc = harness._counterexample(0, states[0], "synthetic failure")
        text = dumps(doc)
        loaded = json.loads(text)
        state = state_from_json(dumps(loaded["state"]))
        assert np.array_equal(state.mat, states[0].mat)


class TestSharedDraws:
    """Within one ``run_suite("all")`` call the ensemble suites share their draws."""

    def test_each_rank4_draw_is_made_once(self, drawn_rows):
        for _ in range(2):  # and the next call draws afresh: nothing outlives a call
            drawn_rows.clear()
            report = run_suite("all", 30, 7)
            rank4 = [s for count, seeds in drawn_rows if count == 9 * 4 for s in seeds]
            assert [r.acceptance_rate for r in report.sub_reports[:3]] == [1.0, 1.0, 1.0]
            assert rank4 == [derive_seed(7, i) for i in range(30)]

    def test_lemma_judges_the_theorem_draws(self, monkeypatch):
        certified, scanned = [], []
        certify, scan = harness.certify_1_distillable, harness.submatrix_2x2_scan

        def certify_spy(state):
            certified.append(state)
            return certify(state)

        def scan_spy(state):
            scanned.append(state)
            return scan(state)

        monkeypatch.setattr(harness, "certify_1_distillable", certify_spy)
        monkeypatch.setattr(harness, "submatrix_2x2_scan", scan_spy)
        run_suite("all", 12, 2024)
        assert len(certified) == len(scanned) == 12
        assert all(a is b for a, b in zip(certified, scanned))

    def test_rank5_draws_are_not_kept(self, monkeypatch):
        # only theorem-rank4 and lemma-2x2 draw the same (dims, rank); the rank-5
        # states of theorem-two-eigs go to no store, so none outlives its suite
        real, stores = harness._tally, {}

        def spy(name, count, seed, drawn):
            report = real(name, count, seed, drawn)
            stores[name] = drawn
            return report

        monkeypatch.setattr(harness, "_tally", spy)
        run_suite("all", 12, 7)
        assert stores["theorem-rank4"] is stores["lemma-2x2"]
        assert stores["theorem-two-eigs"] is None
        assert stores["edge-family"] is None and stores["multicopy"] is None
        assert {rank for _, rank, _ in stores["theorem-rank4"]} == {4}
        assert len(stores["theorem-rank4"]) == 12

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_sub_reports_equal_the_single_suites(self, seed):
        report = run_suite("all", 25, seed)
        assert [r.suite for r in report.sub_reports] == list(harness.SUITE_NAMES)
        for sub in report.sub_reports:
            alone = run_suite(sub.suite, 25, seed)
            assert dumps(_strip_wall_time(sub.to_document())) == dumps(
                _strip_wall_time(alone.to_document())
            )


# each theorem suite, the route it checks, and the reason it gives when that route is empty
THEOREM_ROUTES = [
    ("theorem-rank4", "certify_1_distillable", "no certificate found"),
    ("theorem-two-eigs", "two_nonpositive_witness", "two-nonpositive route returned empty"),
]


class TestTheoremSuiteFailures:
    @pytest.mark.parametrize("suite, route, reason", THEOREM_ROUTES)
    def test_empty_route_is_counted(self, monkeypatch, suite, route, reason):
        real = getattr(harness, route)
        calls = []

        def every_other_empty(state):
            calls.append(state)
            return None if len(calls) % 2 == 0 else real(state)

        monkeypatch.setattr(harness, route, every_other_empty)
        report = run_suite(suite, 4, 5)
        assert len(calls) == 4
        assert report.trials == 4
        assert report.passes == 2
        assert [f["trial"] for f in report.failures] == [1, 3]
        assert [f["reason"] for f in report.failures] == [reason] * 2
        assert all("value" not in f for f in report.failures)

    @pytest.mark.parametrize("suite, route, reason", THEOREM_ROUTES)
    def test_tampered_certificate_is_counted(self, monkeypatch, suite, route, reason):
        real = getattr(harness, route)
        stored = []

        def value_off(state):
            cert = real(state)
            cert = replace(cert, value=cert.value + 1e-6)
            stored.append(cert.value)
            return cert

        monkeypatch.setattr(harness, route, value_off)
        report = run_suite(suite, 3, 5)
        assert report.trials == 3
        assert report.passes == 0
        assert [f["trial"] for f in report.failures] == [0, 1, 2]
        assert [f["reason"] for f in report.failures] == [
            "certificate failed verification"
        ] * 3
        assert [f["value"] for f in report.failures] == stored

    @pytest.mark.parametrize("suite, route, reason", THEOREM_ROUTES)
    @pytest.mark.parametrize(
        "error",
        [NumericalFailureError, InvariantViolationError, DimensionMismatchError, AssertionError],
    )
    def test_library_error_is_counted(self, monkeypatch, suite, route, reason, error):
        real = getattr(harness, route)
        calls = []

        def fails_on_trial_1(state):
            calls.append(state)
            if len(calls) == 2:
                raise error("route gave up")
            return real(state)

        monkeypatch.setattr(harness, route, fails_on_trial_1)
        report = run_suite(suite, 4, 5)
        assert len(calls) == 4
        assert report.trials == 4
        assert report.passes == 3
        assert [f["trial"] for f in report.failures] == [1]
        assert [f["reason"] for f in report.failures] == ["route gave up"]

    @pytest.mark.parametrize("suite, route, reason", THEOREM_ROUTES)
    def test_programming_error_propagates(self, monkeypatch, suite, route, reason):
        def broken(state):
            raise TypeError("shape bug")

        monkeypatch.setattr(harness, route, broken)
        with pytest.raises(TypeError, match="shape bug"):
            run_suite(suite, 4, 5)


class TestFailureDocuments:
    def test_lemma_2x2_failures(self, monkeypatch):
        spec = EnsembleSpec(rank=4, count=12, filter="any", seed=99)
        states, _ = sample_ensemble(spec)
        hits = [submatrix_2x2_scan(state) for state in states]
        qualifying = [i for i, hit in enumerate(hits) if hit is not None]
        assert 0 < len(qualifying) < len(states)

        monkeypatch.setattr(harness, "verify_certificate", lambda *args, **kwargs: False)
        report = run_suite("lemma-2x2", spec.count, spec.seed)
        assert report.trials + report.skipped == spec.count
        assert report.trials == len(qualifying)
        assert report.passes == 0
        assert [f["trial"] for f in report.failures] == qualifying
        for doc in report.failures:
            hit = hits[doc["trial"]]
            assert doc["reason"] == "negative minor did not yield a verified certificate"
            assert doc["determinant"] == hit.determinant
            assert doc["value"] == hit.certificate.value

    def test_edge_family_failures(self, monkeypatch):
        real = harness.edge_state_pt
        monkeypatch.setattr(harness, "edge_state_pt", lambda params: real(params) + 1e-12)
        report = run_suite("edge-family")
        assert report.trials == 12
        assert report.passes == 0
        assert [(f["b"], f["theta"]) for f in report.failures] == list(DEFAULT_GRID)
        for doc in report.failures:
            assert set(doc) == {"b", "theta", "problems"}
            assert doc["problems"] == ["closed-form PT disagrees with the permutation PT"]
