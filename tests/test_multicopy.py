"""Many-copy bounds for the Werner projector and the edge perturbation."""

import math
from dataclasses import replace

import numpy as np
import pytest

import distill_lab.multicopy as multicopy
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    edge_state_pt,
    maximally_entangled_qutrits,
    min_positive_pt_eigenvalue,
)
from distill_lab.harness import EnsembleSpec, sample_ensemble
from distill_lab.multicopy import (
    eps_threshold_for_copies,
    extremal_rank2_tensor_power,
    max_rank2_overlap_with_mes,
    undistillability_bound,
    verify_n_undistillable,
    werner_projector,
)
from distill_lab.qcore import (
    DEFAULT_TOL,
    MAX_COPIES,
    Dims,
    is_ppt,
    partial_transpose,
    regroup_tensor_power,
    schmidt_rank,
    tensor_power_bipartite,
)
from distill_lab.rng import SplitMix64
from distill_lab.witness import best_rank2_witness, min_rank2_expectation, pt_quadratic_form

D33 = Dims(3, 3)
PARAMS = EdgeParams(1.0, math.pi / 6)


class TestWernerProjector:
    def test_spectrum(self):
        evals = np.sort(np.linalg.eigvalsh(werner_projector().mat))
        expected = np.array([0.0] + [1 / 8] * 8)
        assert np.allclose(evals, expected, atol=1e-15)

    def test_trace_and_mes_kernel(self):
        ws = werner_projector()
        assert abs(ws.trace - 1.0) < 1e-14
        mes = maximally_entangled_qutrits().vec
        assert float(np.abs(ws.mat @ mes).max()) < 1e-15

    def test_ppt(self):
        # separable, hence PPT: check via the eigendecomposition oracle
        ws = werner_projector()
        pt = partial_transpose(ws.mat, D33)
        assert float(np.linalg.eigvalsh(pt)[0]) >= -1e-14
        assert is_ppt(ws)

    def test_two_copy_power_is_rank_64_projector(self):
        ws = werner_projector()
        mat, _ = regroup_tensor_power(ws.mat, D33, 2)
        evals = np.sort(np.linalg.eigvalsh(mat))
        assert int(np.sum(evals > 1e-12)) == 64
        assert np.allclose(evals[evals > 1e-12], 1 / 64, atol=1e-15)


class TestOverlap:
    def test_best_rank2_overlap_is_two_thirds(self):
        assert max_rank2_overlap_with_mes() == pytest.approx(2 / 3, abs=1e-6)

    def test_bell_vector_achieves_it(self):
        mes = maximally_entangled_qutrits().vec
        bell = np.zeros(9, dtype=complex)
        bell[0] = bell[4] = 1 / math.sqrt(2)
        assert abs(mes.conj() @ bell) ** 2 == pytest.approx(2 / 3, abs=1e-15)

    def test_product_vector_reaches_only_one_third(self):
        mes = maximally_entangled_qutrits().vec
        e00 = np.zeros(9, dtype=complex)
        e00[0] = 1.0
        assert abs(mes.conj() @ e00) ** 2 == pytest.approx(1 / 3, abs=1e-15)


class TestExtremalTensorPower:
    def test_single_copy_bracket(self):
        report = extremal_rank2_tensor_power(1)
        assert report.min_value == pytest.approx(1 / 24, abs=1e-6)
        assert report.max_value == pytest.approx(1 / 8, abs=1e-10)
        assert report.bound_lower == pytest.approx(1 / 24, abs=1e-18)
        assert report.conjecture_value == pytest.approx(1 / 24, abs=1e-18)
        assert schmidt_rank(report.min_witness.vec, D33) <= 2

    def test_two_copy_bracket(self):
        report = extremal_rank2_tensor_power(2)
        assert report.max_value == pytest.approx(1 / 64, abs=1e-6)
        assert report.product_maximizer_value == pytest.approx(1 / 64, abs=1e-15)
        assert report.min_value >= 1 / 576 - 1e-8
        assert report.min_value <= 1 / 64
        assert report.conjecture_value == pytest.approx(1 / 288, abs=1e-18)
        # the distance to the conjectured minimum is reported, not asserted
        assert report.margin_estimate == report.min_value - report.bound_lower
        big = Dims(9, 9)
        assert schmidt_rank(report.min_witness.vec, big) <= 2
        assert schmidt_rank(report.max_witness.vec, big) <= 2

    @pytest.mark.parametrize("seed", range(12))
    def test_two_copy_minimum_agrees_with_the_conjecture(self, seed):
        # numerical agreement with (1/2) 12^-2 at every seed, not a proof
        report = extremal_rank2_tensor_power(2, replace(DEFAULT_TOL, seed=seed))
        assert report.min_value == pytest.approx(1 / 288, rel=1e-9)

    def test_copy_cap(self):
        with pytest.raises(ValueError):
            extremal_rank2_tensor_power(3)

    def test_product_witness_values_factorize(self):
        ws = werner_projector()
        mat, _ = regroup_tensor_power(ws.mat, D33, 2)
        gen = SplitMix64(5150)
        for _ in range(10):
            psi1 = np.kron(gen.unit_vector(3), gen.unit_vector(3))
            psi2 = np.kron(gen.unit_vector(3), gen.unit_vector(3))
            v1 = float(np.real(psi1.conj() @ ws.mat @ psi1))
            v2 = float(np.real(psi2.conj() @ ws.mat @ psi2))
            # regrouped (A1A2:B1B2) indexing of psi1 (x) psi2
            joint = np.kron(psi1, psi2).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(81)
            got = float(np.real(joint.conj() @ mat @ joint))
            assert got == pytest.approx(v1 * v2, abs=1e-12)


class TestCopyCap:
    @pytest.mark.parametrize("n", [0, MAX_COPIES + 1])
    def test_every_n_copy_entry_point_rejects(self, n):
        ws = werner_projector()
        psi = np.ones(ws.dims.total, dtype=complex) / 3
        calls = [
            lambda: regroup_tensor_power(ws.mat, ws.dims, n),
            lambda: tensor_power_bipartite(ws, n),
            lambda: pt_quadratic_form(psi, ws, n),
            lambda: best_rank2_witness(ws, n),
            lambda: extremal_rank2_tensor_power(n),
            lambda: verify_n_undistillable(PARAMS, n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="copy count"):
                call()

    @pytest.mark.parametrize("n", [0, MAX_COPIES + 1])
    def test_rejects_before_any_work(self, n, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("work done before the copy count was checked")

        for name in ("eps_threshold_for_copies", "build_edge_bundle", "werner_projector"):
            monkeypatch.setattr(multicopy, name, unreachable)
        for call in (
            lambda: extremal_rank2_tensor_power(n),
            lambda: verify_n_undistillable(PARAMS, n),
        ):
            with pytest.raises(ValueError, match="copy count"):
                call()


class TestOperatorBound:
    @pytest.mark.parametrize("n", [1, 2])
    def test_pt_power_dominates_scaled_werner_power(self, n):
        pt = edge_state_pt(PARAMS)
        gap = min_positive_pt_eigenvalue(PARAMS)
        lhs, _ = regroup_tensor_power(pt, D33, n)
        rhs, _ = regroup_tensor_power(werner_projector().mat, D33, n)
        diff = lhs - (8 * gap) ** n * rhs
        assert float(np.linalg.eigvalsh(diff)[0]) >= -1e-9


class TestEpsThreshold:
    def test_single_copy_just_below_budget(self):
        gap = min_positive_pt_eigenvalue(PARAMS)
        thr = eps_threshold_for_copies(PARAMS, 1)
        assert 0 < thr <= gap / 3
        assert thr >= gap / 3 * (1 - 1e-12)
        assert undistillability_bound(PARAMS, 1, thr) > 0

    def test_two_copies_positive(self):
        thr = eps_threshold_for_copies(PARAMS, 2)
        assert thr > 0
        assert undistillability_bound(PARAMS, 2, thr) > 0

    def test_nonincreasing_in_copies(self):
        for b, theta in ((1.0, math.pi / 6), (0.5, math.pi / 4), (2.0, -math.pi / 6)):
            params = EdgeParams(b, theta)
            t1 = eps_threshold_for_copies(params, 1)
            t2 = eps_threshold_for_copies(params, 2)
            t3 = eps_threshold_for_copies(params, 3)
            assert t1 >= t2 >= t3 > 0

    # thresholds of the bisection that recomputed its constants at every step, to the last bit
    PINNED = [
        (0, 1, "0x1.671d98b933ad8p-9"),
        (0, 2, "0x1.cd925ac5f4612p-17"),
        (7, 1, "0x1.3856c15603bbdp-7"),
        (7, 2, "0x1.2390f7a4fd590p-13"),
    ]

    @pytest.mark.parametrize("point, n, expected", PINNED)
    def test_pinned_thresholds(self, point, n, expected):
        params = EdgeParams(*DEFAULT_GRID[point])
        assert eps_threshold_for_copies(params, n) == float.fromhex(expected)

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_pt_built_once_per_threshold(self, monkeypatch, n):
        calls = []

        def counted(params):
            calls.append(params)
            return edge_state_pt(params)

        monkeypatch.setattr(multicopy, "edge_state_pt", counted)
        eps_threshold_for_copies(PARAMS, n)
        assert len(calls) == 1

    def test_single_copy_bound_is_linear(self):
        gap = min_positive_pt_eigenvalue(PARAMS)
        for eps in (0.0, 1e-4, 1e-3):
            assert undistillability_bound(PARAMS, 1, eps) == pytest.approx(
                gap / 3 - eps, abs=1e-18
            )


class TestVerifyUndistillable:
    def test_single_copy(self):
        report = verify_n_undistillable(PARAMS, 1)
        assert report.min_value > 0
        assert report.min_value >= report.bound_lower - 1e-8
        assert report.npt_min_pt_eigenvalue < -1e-9
        assert report.engineering_bound

    def test_two_copies(self):
        report = verify_n_undistillable(PARAMS, 2)
        assert report.min_value > 0
        assert report.min_value >= report.bound_lower - 1e-8
        assert report.eps_threshold > 0
        assert report.eps_used <= report.eps_threshold / 2

    @pytest.mark.parametrize("seed", range(12))
    def test_two_copy_minimum_at_every_seed(self, seed):
        report = verify_n_undistillable(PARAMS, 2, replace(DEFAULT_TOL, seed=seed))
        assert report.bound_lower < report.min_value <= 3.2e-5

    def test_rank4_control_state_fails_the_same_check(self):
        # sanity: a distillable state drives the same minimum negative
        spec = EnsembleSpec(dims=D33, rank=4, count=1, filter="NPT", seed=616)
        state = sample_ensemble(spec)[0][0]
        pt = partial_transpose(state.mat, D33)
        value, _ = min_rank2_expectation(pt, D33)
        assert value < -1e-9
