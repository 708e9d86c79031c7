"""Many-copy bounds for the Werner projector and the edge perturbation."""

import math
from fractions import Fraction

import numpy as np
import pytest

import distill_lab.multicopy as multicopy
import distill_lab.witness as witness
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    build_edge_bundle,
    edge_state,
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
    MAX_COPIES,
    Dims,
    is_ppt,
    partial_transpose,
    regroup_tensor_power,
    schmidt_rank,
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
        big = Dims(9, 9)
        assert schmidt_rank(report.min_witness.vec, big) <= 2
        assert schmidt_rank(report.max_witness.vec, big) <= 2

    @pytest.mark.parametrize("seed", range(12))
    def test_two_copy_minimum_agrees_with_the_conjecture(self, seed):
        # numerical agreement with (1/2) 12^-2 at every seed, not a proof
        report = extremal_rank2_tensor_power(2, seed)
        assert report.min_value == pytest.approx(1 / 288, rel=1e-9)

    def test_copy_cap(self):
        with pytest.raises(ValueError):
            extremal_rank2_tensor_power(3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_minimizes_the_werner_pre_image(self, n, monkeypatch):
        # both extrema minimize the PPT state whose partial transpose is W, bit for bit;
        # that state is W^Gamma = (I - F/3)/8, with eigenvalues 1/12 (six) and 1/6 (three)
        calls, real = [], multicopy._rank2_minimum

        def spy(state, copies, sign=1):
            calls.append((state, copies, sign))
            return real(state, copies, sign)

        monkeypatch.setattr(multicopy, "_rank2_minimum", spy)
        extremal_rank2_tensor_power(n)
        assert [(copies, sign) for _, copies, sign in calls] == [(n, 1), (n, -1)]
        pre = calls[0][0]
        assert calls[1][0] is pre
        assert pre._pt.tobytes() == werner_projector().mat.tobytes()
        evals = np.linalg.eigvalsh(pre.mat)
        assert np.allclose(evals, [1 / 12] * 6 + [1 / 6] * 3, rtol=0, atol=1e-15)

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

        for name in ("eps_threshold_for_copies", "edge_state", "_edge_bundle", "werner_projector"):
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
    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_single_copy_is_the_budget(self, b, theta):
        # at n = 1 the bound is gap/3 - eps, whose root is the budget itself
        params = EdgeParams(b, theta)
        gap = min_positive_pt_eigenvalue(params)
        assert eps_threshold_for_copies(params, 1) == gap / 3

    def test_nonincreasing_in_copies(self):
        # strictly decreasing and positive far past the copy cap, at every grid point
        for b, theta in DEFAULT_GRID:
            params = EdgeParams(b, theta)
            thresholds = [eps_threshold_for_copies(params, n) for n in range(1, 41)]
            assert thresholds[-1] > 0
            assert all(x > y for x, y in zip(thresholds, thresholds[1:])), (b, theta)

    # the root of (gap/3)^n = (N + eps)^n - N^n, N the PT operator norm, in the
    # float constants gap and N, computed once with 60-digit mpmath and rounded
    PINNED_ROOTS = {
        0: ["0x1.671d98b933ad5p-9", "0x1.cd925ac5f460ep-17", "0x1.8b868aa52bbc3p-24",
            "0x1.7d496cbed71e8p-31", "0x1.8810886371d40p-38", "0x1.a3f1ddc07c940p-45",
            "0x1.cea8c4087e884p-52", "0x1.042b3343927fbp-58", "0x1.293f6693c7a8ep-65",
            "0x1.57db2c1965475p-72", "0x1.91ca6e9317820p-79", "0x1.d9661b97ea7c0p-86"],
        4: ["0x1.0567708d284c9p-8", "0x1.af55cb6a320b3p-16", "0x1.da872c17b057cp-23",
            "0x1.25a3a054e0784p-29", "0x1.83a2e95048dfdp-36", "0x1.0a85c08890d26p-42",
            "0x1.78f87f4845a3ep-49", "0x1.10260e492eb06p-55", "0x1.8f2f5c811533ap-62",
            "0x1.286b7b3abdf86p-68", "0x1.bcaad0f2e4ab3p-75", "0x1.504ed600d1e04p-81"],
        7: ["0x1.3856c15603bbep-7", "0x1.2390f7a4fd593p-13", "0x1.6b0d3c69f989ap-19",
            "0x1.fc78c6927a58bp-25", "0x1.7bce0fc1f5258p-30", "0x1.2784716e38cd5p-35",
            "0x1.d9026cc352864p-41", "0x1.82708425e371cp-46", "0x1.40b99184bf51ep-51",
            "0x1.0d832e70eaa18p-56", "0x1.c987b9c9e0ca5p-62", "0x1.8797c92b89c0ep-67"],
    }

    @pytest.mark.parametrize(
        "point, n, expected",
        [(point, n + 1, root) for point, roots in PINNED_ROOTS.items()
         for n, root in enumerate(roots)],
    )
    def test_pinned_roots(self, point, n, expected):
        params = EdgeParams(*DEFAULT_GRID[point])
        root = float.fromhex(expected)
        assert abs(eps_threshold_for_copies(params, n) - root) <= 1e-15 * root

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_root_is_two_sided(self, b, theta):
        # the bound changes sign at the threshold, not merely stays positive below it
        params = EdgeParams(b, theta)
        for n in range(2, 11):
            thr = eps_threshold_for_copies(params, n)
            below = undistillability_bound(params, n, thr * (1 - 1e-9))
            above = undistillability_bound(params, n, thr * (1 + 1e-9))
            assert below > 0 > above, (n, thr, below, above)

    def test_huge_copy_count_stays_finite(self):
        # no binomial coefficient is formed, so nothing overflows; both underflow to 0
        thr1 = eps_threshold_for_copies(PARAMS, 1)
        assert math.isfinite(eps_threshold_for_copies(PARAMS, 2000))
        assert math.isfinite(undistillability_bound(PARAMS, 2000, thr1 / 2))

    @staticmethod
    def _exact_bound(n: int, eps: float) -> Fraction:
        """(gap/3)^n - ((N + eps)^n - N^n) in exact rationals, from the float constants."""
        gap, pt_norm = (Fraction(c) for c in multicopy._gap_and_pt_norm(PARAMS, edge_state(PARAMS)))
        return (gap / 3) ** n - ((pt_norm + Fraction(eps)) ** n - pt_norm**n)

    @pytest.mark.parametrize("n,eps", [(700, 1.0), (700, 0.1656), (40, 1.0), (40, 0.5)])
    def test_far_above_the_budget_the_difference_is_taken_directly(self, n, eps):
        # expm1 overflowed at (700, 1.0); at (700, 0.1656) N^700 underflows to 0
        # while expm1 stays finite, so the expm1 form gave 0 for about -1e-227;
        # (40, 0.5) sits just past the switch
        exact = self._exact_bound(n, eps)
        pt_norm = multicopy._gap_and_pt_norm(PARAMS, edge_state(PARAMS))[1]
        assert n * math.log1p(eps / pt_norm) > 53 * math.log(2)
        assert undistillability_bound(PARAMS, n, eps) == pytest.approx(float(exact), rel=1e-12, abs=0)
        assert exact < 0

    def test_value_at_700_copies_and_unit_noise(self):
        assert undistillability_bound(PARAMS, 700, 1.0) == pytest.approx(-8.9307021e81, rel=1e-7, abs=0)

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_inside_the_budget_the_bound_keeps_the_expm1_form(self, b, theta):
        params = EdgeParams(b, theta)
        gap, pt_norm = multicopy._gap_and_pt_norm(params, edge_state(params))
        for n in (1, 2, 3, 10, 100, 1000):
            for eps in (gap / 3, gap / 6, 1e-9):
                expm1_form = (gap / 3.0) ** n - pt_norm**n * math.expm1(n * math.log1p(eps / pt_norm))
                assert undistillability_bound(params, n, eps) == expm1_form

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_bound_at_the_budget_is_not_positive(self, b, theta):
        # the k = n noise term alone is (gap/3)^n, so the bound's root is never
        # above the budget gap/3
        params = EdgeParams(b, theta)
        gap = min_positive_pt_eigenvalue(params)
        for n in (1, 2, 3):
            assert undistillability_bound(params, n, gap / 3) <= 0.0

    @pytest.fixture
    def edge_builds(self, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params)
            return edge_state(params)

        monkeypatch.setattr(multicopy, "edge_state", counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_pt_built_once_per_threshold(self, edge_builds, n):
        # the PT norm is read from the edge state's cached spectrum, so the
        # state is built once per threshold
        eps_threshold_for_copies(PARAMS, n)
        assert len(edge_builds) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_report_reads_bound_constants_once(self, edge_builds, n):
        # one PT-norm read serves both the threshold and the analytic bound
        verify_n_undistillable(PARAMS, n)
        assert len(edge_builds) == 1

    def test_single_copy_bound_is_linear(self):
        gap = min_positive_pt_eigenvalue(PARAMS)
        for eps in (0.0, 1e-4, 1e-3):
            assert undistillability_bound(PARAMS, 1, eps) == pytest.approx(
                gap / 3 - eps, abs=1e-18
            )

    @pytest.mark.parametrize("eps", [math.nan, -1.0])
    def test_bound_rejects_noise_outside_its_domain(self, eps):
        # NaN gave NaN, and -1.0 gave a "lower bound" above the eps = 0 value
        with pytest.raises(ValueError, match="eps"):
            undistillability_bound(PARAMS, 1, eps)

    def test_bound_rejects_zero_copies(self):
        with pytest.raises(ValueError, match="copy count"):
            undistillability_bound(PARAMS, 0, 0.0)


class TestVerifyUndistillable:
    def test_single_copy(self):
        report = verify_n_undistillable(PARAMS, 1)
        assert report.min_value > 0
        assert report.min_value >= report.bound_lower - 1e-8
        assert report.npt_min_pt_eigenvalue < -1e-9

    def test_two_copies(self):
        report = verify_n_undistillable(PARAMS, 2)
        assert report.min_value > 0
        assert report.min_value >= report.bound_lower - 1e-8
        assert report.eps_threshold > 0
        assert report.eps_used <= report.eps_threshold / 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_noise_is_an_argument_capped_at_half_the_threshold(self, n):
        gap = min_positive_pt_eigenvalue(PARAMS)
        half = eps_threshold_for_copies(PARAMS, n) / 2
        for eps, used in ((1e-6, min(1e-6, half)), (0.0, min(0.9 * gap / 3, half))):
            assert verify_n_undistillable(PARAMS, n, eps=eps).eps_used == used

    @pytest.mark.parametrize("eps", [math.nan, -1e-4])
    def test_rejects_noise_outside_its_domain(self, eps):
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            verify_n_undistillable(PARAMS, 1, eps=eps)

    @pytest.mark.parametrize("n", [1, 2])
    def test_report_adds_the_maximum_to_the_claim(self, n):
        # the claim runs no maximum; the report's is -min(-PT), rebuilt here by hand along
        # the report's path, to the last bit: at n = 1 the five starts on -PT, at n = 2 the
        # lifted starts on -X from the five-start minimum of -PT, their first frame built
        # from the top |eigenvalue| eigenvector of PT, sign -1
        for params in [EdgeParams(*DEFAULT_GRID[i]) for i in (0, 4, 8)] + [PARAMS]:
            min_value = multicopy._n_copy_claim(params, n)[0]
            report = verify_n_undistillable(params, n)
            state = build_edge_bundle(params, report.eps_used).npt_state
            p = partial_transpose(state.mat, D33)
            one_copy = min_rank2_expectation(-p, D33)
            if n == 1:
                neg_max, max_at = one_copy
            else:
                x, _ = regroup_tensor_power(p, D33, 2)
                neg_max, max_at = witness._lifted_minimum(-x, state, one_copy, -1)
            assert report.max_value.hex() == (-neg_max).hex()
            assert report.max_witness.vec.tobytes() == max_at.vector().astype(complex).tobytes()
            assert report.min_value == min_value

    @pytest.mark.parametrize("seed", range(12))
    def test_two_copy_minimum_at_every_seed(self, seed):
        report = verify_n_undistillable(PARAMS, 2, seed)
        assert report.bound_lower < report.min_value <= 3.2e-5

    def test_each_state_decomposes_its_pt_once(self, monkeypatch):
        # both n = 2 reports decompose three 9x9 matrices, each once: the PTs of the
        # Werner pre-image (W itself), of sigma (its norm N) and of the NPT state (its
        # NPT check, both signs' one-copy starts and both lifted minima)
        seen, eigh = [], np.linalg.eigh

        def spied(a, *args, **kwargs):
            if np.shape(a) == (9, 9):
                seen.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spied)
        extremal_rank2_tensor_power(2)
        report = verify_n_undistillable(PARAMS, 2)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        npt = build_edge_bundle(PARAMS, report.eps_used).npt_state
        expected = [werner_projector().mat, edge_state_pt(PARAMS), npt._pt]
        assert len(seen) == 3
        assert all(np.array_equal(got, want) for got, want in zip(seen, expected))

    def test_rank4_control_state_fails_the_same_check(self):
        # sanity: a distillable state drives the same minimum negative
        spec = EnsembleSpec(dims=D33, rank=4, count=1, filter="NPT", seed=616)
        state = sample_ensemble(spec)[0][0]
        pt = partial_transpose(state.mat, D33)
        value, _ = min_rank2_expectation(pt, D33)
        assert value < -1e-9
