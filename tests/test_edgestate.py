"""Edge-family structure: spectra, product vectors, and the rank-5 NPT state."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distill_lab.edgestate as edgestate
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    build_edge_bundle,
    edge_state,
    edge_state_pt,
    maximally_entangled_qutrits,
    min_positive_pt_eigenvalue,
    range_product_vector,
    undistillability_margin,
)
from distill_lab.qcore import (
    PSD_TOL,
    RANK_REL_TOL,
    Dims,
    NumericalFailureError,
    partial_transpose,
    rank_kernel_range,
    schmidt_rank,
)
from distill_lab.witness import product_vector_in_subspace

D33 = Dims(3, 3)

# frozen from the eigendecomposition oracle (exact value (7 - 4*sqrt(3))/6)
P1_AT_1_PI6 = 0.011966128287415142
P1_AT_1_PI4 = 0.02859547920896831


class TestParams:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EdgeParams(0.0, math.pi / 6)
        with pytest.raises(ValueError):
            EdgeParams(-1.0, math.pi / 6)
        with pytest.raises(ValueError):
            EdgeParams(1.0, 0.0)
        with pytest.raises(ValueError):
            EdgeParams(1.0, math.pi / 3)
        with pytest.raises(ValueError):
            EdgeParams(1.0, -math.pi / 3)
        with pytest.raises(ValueError):
            build_edge_bundle(EdgeParams(1.0, math.pi / 6), -0.1)

    def test_rejects_nan_noise(self):
        # nan < 0 is false, so the check must be written as "not eps >= 0"
        with pytest.raises(ValueError, match="eps"):
            build_edge_bundle(EdgeParams(1.0, 0.5), math.nan)

    def test_params_carry_no_noise(self):
        # the noise is an argument of the builders that read it, not a field
        with pytest.raises(TypeError):
            EdgeParams(1.0, 0.5, 1e-3)

    def test_boundary_interior_accepted(self):
        EdgeParams(1.0, math.pi / 3 - 1e-9)
        EdgeParams(0.01, -1e-9)


class TestEdgeState:
    def test_entry_value_oracle(self):
        # top-left entry is 2cos(t) / (3 (2cos(t) + b + 1/b))
        sigma = edge_state(EdgeParams(1.0, math.pi / 6))
        expected = math.sqrt(3) / (3 * (math.sqrt(3) + 2))
        assert sigma.mat[0, 0].real == pytest.approx(expected, abs=1e-15)
        assert sigma.mat[0, 0].real == pytest.approx(0.15470053837925155, abs=1e-12)

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_grid_structure(self, b, theta):
        params = EdgeParams(b, theta)
        sigma = edge_state(params)
        assert abs(sigma.trace - 1.0) <= 1e-12
        assert rank_kernel_range(sigma.mat)[0] == 5
        pt = partial_transpose(sigma.mat, D33)
        assert rank_kernel_range(pt)[0] == 8
        mes = maximally_entangled_qutrits().vec
        assert float(np.abs(pt @ mes).max()) <= 1e-12

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_closed_form_pt_matches_permutation(self, b, theta):
        params = EdgeParams(b, theta)
        pt = partial_transpose(edge_state(params).mat, D33)
        closed = edge_state_pt(params)
        assert float(np.abs(pt - closed).max()) <= 1e-15

    def test_specific_pt_entry(self):
        params = EdgeParams(1.3, math.pi / 5)
        closed = edge_state_pt(params)
        pref = 1.0 / (3 * (2 * math.cos(params.theta) + params.b + 1 / params.b))
        expected = -pref * complex(math.cos(params.theta), math.sin(params.theta))
        assert closed[0, 4] == pytest.approx(expected, abs=1e-16)

    def test_pt_spectrum_signature(self):
        evals = np.linalg.eigvalsh(edge_state_pt(EdgeParams(1.0, math.pi / 6)))
        assert int(np.sum(evals > 1e-12)) == 8
        assert int(np.sum(np.abs(evals) <= 1e-12)) == 1


class TestGapFormula:
    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_matches_eigendecomposition(self, b, theta):
        params = EdgeParams(b, theta)
        evals = np.linalg.eigvalsh(edge_state_pt(params))
        smallest_positive = float(evals[evals > 1e-12][0])
        assert abs(min_positive_pt_eigenvalue(params) - smallest_positive) <= 1e-10

    def test_frozen_values(self):
        assert min_positive_pt_eigenvalue(EdgeParams(1.0, math.pi / 6)) == pytest.approx(
            P1_AT_1_PI6, abs=1e-12
        )
        assert min_positive_pt_eigenvalue(EdgeParams(1.0, math.pi / 4)) == pytest.approx(
            P1_AT_1_PI4, abs=1e-12
        )

    def test_symmetric_in_theta(self):
        for b in (0.5, 1.0, 2.0):
            for theta in (0.3, 0.7, 1.0):
                plus = min_positive_pt_eigenvalue(EdgeParams(b, theta))
                minus = min_positive_pt_eigenvalue(EdgeParams(b, -theta))
                assert plus == pytest.approx(minus, abs=1e-16)

    def test_nonnegative_where_the_difference_form_cancels(self):
        # here the difference form 1 + b^2 - sqrt(1 + b^4 + 2 b^2 cos 2theta) cancels to -3.7e-17
        assert min_positive_pt_eigenvalue(EdgeParams(0.001, 1e-300)) >= 0

    def test_small_theta_keeps_its_digits(self):
        # at b = 1 the gap is sin^2(theta) / (1 + cos theta) / 12, about 1e-18 / 24,
        # where the difference form cancels to 0
        value = min_positive_pt_eigenvalue(EdgeParams(1.0, 1e-9))
        assert value == pytest.approx(4.166666666666667e-20, rel=1e-12)

    @pytest.mark.parametrize(
        "d,pinned",
        [
            (1e-6, "0x1.9d487ea030035p-22"),
            (1e-9, "0x1.a733ca572541fp-32"),
            (1e-12, "0x1.b17286acd7791p-42"),
            (1e-14, "0x1.18502853ea508p-48"),
        ],
    )
    def test_near_pi_over_3_keeps_its_digits(self, d, pinned):
        # 3c - sqrt(3)|sin theta| cancels as |theta| -> pi/3; the pinned values are
        # the gap at b = 1 and theta = math.pi/3 - d, from 60-digit arithmetic
        value = min_positive_pt_eigenvalue(EdgeParams(1.0, math.pi / 3 - d))
        expected = float.fromhex(pinned)
        assert abs(value - expected) <= 1e-15 * expected

    def test_huge_b_does_not_overflow(self):
        # b**4 overflows a float near b = 1e77; the second term is the same at b and 1/b
        huge = min_positive_pt_eigenvalue(EdgeParams(1e80, 0.5))
        tiny = min_positive_pt_eigenvalue(EdgeParams(1e-80, 0.5))
        assert huge == tiny == 7.661628235531006e-162


class TestRandomParameterSweep:
    def test_closed_forms_hold_off_grid(self):
        # draw admissible parameters far beyond the default grid; the closed
        # forms must agree with the permutation PT (exactly) and with the
        # eigensolver; biranks are asserted wherever the gap is resolvable
        # above the relative rank threshold
        from distill_lab.rng import SplitMix64

        gen = SplitMix64(314159)
        for _ in range(60):
            b = math.exp(gen.uniform() * (math.log(50) - math.log(0.02)) + math.log(0.02))
            theta = (gen.uniform() * (math.pi / 3 - 0.002) + 0.001) * (
                1 if gen.uniform() < 0.5 else -1
            )
            params = EdgeParams(b, theta)
            sigma = edge_state(params)
            pt = partial_transpose(sigma.mat, D33)
            closed = edge_state_pt(params)
            assert np.array_equal(pt, closed)
            assert abs(sigma.trace - 1.0) <= 1e-12
            evals = np.linalg.eigvalsh(closed)
            smallest_positive = float(evals[evals > 1e-13][0])
            gap = min_positive_pt_eigenvalue(params)
            assert abs(gap - smallest_positive) <= 1e-10
            if gap > 10 * RANK_REL_TOL * float(evals[-1]):
                assert rank_kernel_range(sigma.mat)[0] == 5
                assert rank_kernel_range(pt)[0] == 8


class TestMaximallyEntangled:
    def test_normalized_rank_three(self):
        mes = maximally_entangled_qutrits()
        assert abs(np.linalg.norm(mes.vec) - 1.0) < 1e-15
        assert schmidt_rank(mes.vec, D33) == 3

    def test_spans_pt_kernel(self):
        pt = edge_state_pt(EdgeParams(2.0, -math.pi / 4))
        assert float(np.abs(pt @ maximally_entangled_qutrits().vec).max()) < 1e-12


class TestRangeProductVector:
    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_unit_norm_on_grid(self, b, theta):
        f, g = range_product_vector(EdgeParams(b, theta))
        assert abs(np.linalg.norm(np.kron(f, g)) - 1.0) <= 1e-12

    def test_conjugate_overlap_with_mes(self):
        # <MES|f*,g> = (1 - exp(-i theta)) / (sqrt(3) (sqrt(b) + 1/sqrt(b)))
        for b, theta in ((1.0, math.pi / 6), (2.0, -math.pi / 4), (0.5, math.pi / 5)):
            f, g = range_product_vector(EdgeParams(b, theta))
            mes = maximally_entangled_qutrits().vec
            got = complex(mes.conj() @ np.kron(f.conj(), g))
            rb = math.sqrt(b)
            expected = (1 - complex(math.cos(theta), -math.sin(theta))) / (
                math.sqrt(3) * (rb + 1 / rb)
            )
            assert got == pytest.approx(expected, abs=1e-15)

    def test_membership_in_range(self):
        params = EdgeParams(0.5, -math.pi / 6)
        f, g = range_product_vector(params)
        _, kernel, _ = rank_kernel_range(edge_state(params).mat)
        assert float(np.linalg.norm(kernel.conj().T @ np.kron(f, g))) < 1e-10


def _pin_points() -> list[tuple[float, float]]:
    """The 12 grid points, then 100 seeded ones over b in [1/2, 2], pi/12 <= |theta| <= pi/4."""
    rng = random.Random(38)
    points = list(DEFAULT_GRID)
    for _ in range(100):
        b = 2.0 ** rng.uniform(-1.0, 1.0)
        points.append((b, rng.choice((-1, 1)) * rng.uniform(math.pi / 12, math.pi / 4)))
    return points


class TestBundle:
    def test_npt_state_matches_the_kron_reference_bit_for_bit(self):
        # the bundle forms f (x) g as an outer product; each entry is the one
        # product f_i g_j, so the state equals the kron-built reference exactly
        points = _pin_points()
        assert len(points) == 112
        for b, theta in points:
            params = EdgeParams(b, theta)
            bundle = build_edge_bundle(params)
            f, g = range_product_vector(params)
            assert np.array_equal(f, bundle.factor_a) and np.array_equal(g, bundle.factor_b)
            fg = np.kron(f, g)
            reference = edge_state(params).mat - bundle.eps * np.outer(fg, fg.conj())
            assert np.array_equal(bundle.npt_state.mat, reference)

    def test_membership_check_rejects_another_edge_state(self):
        # the product vector of one point is not in the range of another's edge state
        for p, q in (
            ((1.0, math.pi / 6), (2.0, -math.pi / 4)),
            ((0.5, -math.pi / 6), (0.5, math.pi / 6)),
        ):
            with pytest.raises(NumericalFailureError, match="range membership"):
                range_product_vector(EdgeParams(*p), edge_state(EdgeParams(*q)))

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_boundary_eps_allowed(self, b, theta):
        gap = min_positive_pt_eigenvalue(EdgeParams(b, theta))
        bundle = build_edge_bundle(EdgeParams(b, theta), gap / 3)
        assert bundle.margin == pytest.approx(0.0, abs=1e-15)
        assert rank_kernel_range(bundle.npt_state.mat)[0] == 5

    def test_default_noise_and_margin(self):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert bundle.eps == pytest.approx(0.9 * bundle.p1 / 3, abs=1e-18)
        assert bundle.margin == pytest.approx(0.1 * bundle.p1 / 3, abs=1e-12)
        assert bundle.margin == pytest.approx(3.988709429138377e-4, abs=1e-12)

    @pytest.mark.parametrize("b,theta,eps", [(0.005, 0.5, 0.0), (1.0, 0.5, 1e-8)])
    def test_unresolvable_npt_is_a_numerical_failure(self, b, theta, eps):
        # NPT in exact arithmetic, but the PT's negative eigenvalue,
        # about -eps |<MES|conj(f) x g>|^2, lies above -PSD_TOL
        with pytest.raises(NumericalFailureError, match="smallest PT eigenvalue .*PSD_TOL"):
            build_edge_bundle(EdgeParams(b, theta), eps)

    @settings(max_examples=200, deadline=None)
    @given(
        log_b=st.floats(-3.0, 3.0),
        theta=st.floats(-math.pi / 3, math.pi / 3, exclude_min=True, exclude_max=True).filter(
            lambda t: t != 0.0
        ),
    )
    def test_noise_budget_leaves_the_perturbation_psd(self, log_b, theta):
        # sigma's positive eigenvalues are 3c (twice) and b + 1/b (three times)
        # over 3 (2c + b + 1/b), c = cos(theta); the smallest is at least gap, so
        # subtracting at most gap/3 of a unit range projector keeps rho PSD
        params = EdgeParams(10.0**log_b, theta)
        b, c = params.b, math.cos(theta)
        evals = np.linalg.eigvalsh(edge_state(params).mat)
        closed = min(3 * c, b + 1 / b) / (3 * (2 * c + b + 1 / b))
        # a backward-stable 9x9 eigensolver on once-rounded entries: n^2 u ||sigma||
        bound = 81 * np.finfo(float).eps * float(evals[-1])
        assert abs(float(evals[4]) - closed) <= bound
        assert float(evals[4]) >= min_positive_pt_eigenvalue(params)

    def test_eps_above_budget_rejected(self):
        gap = min_positive_pt_eigenvalue(EdgeParams(1.0, math.pi / 6))
        with pytest.raises(ValueError):
            build_edge_bundle(EdgeParams(1.0, math.pi / 6), 1.5 * gap)

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_one_ulp_above_budget_rejected(self, b, theta):
        # an admitted noise above gap/3 would report a negative proven margin
        params = EdgeParams(b, theta)
        eps = math.nextafter(min_positive_pt_eigenvalue(params) / 3, math.inf)
        with pytest.raises(ValueError, match="exceeds the undistillability budget"):
            build_edge_bundle(params, eps)

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_pt_signature_one_negative_eight_positive(self, b, theta):
        bundle = build_edge_bundle(EdgeParams(b, theta))
        evals = np.linalg.eigvalsh(
            partial_transpose(bundle.npt_state.mat, D33)
        )
        assert int(np.sum(evals < -PSD_TOL)) == 1
        assert int(np.sum(evals > PSD_TOL)) == 8

    def test_bundle_builds_the_edge_state_once(self, monkeypatch):
        # the range-membership check reuses the bundle's own edge state
        calls = []
        real = edgestate.edge_state

        def counted(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(edgestate, "edge_state", counted)
        params = EdgeParams(1.0, math.pi / 6)
        build_edge_bundle(params)
        assert calls == [params]

    def test_kernel_is_completely_entangled(self):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        _, kernel, _ = rank_kernel_range(bundle.npt_state.mat)
        assert kernel.shape[1] == 4
        assert product_vector_in_subspace(kernel, D33) is None


class TestMargin:
    def test_margin_certified_by_minimizer(self):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        bound = undistillability_margin(bundle)
        assert bound == pytest.approx(0.1 * bundle.p1 / 3, abs=1e-15)

    def test_zero_noise_bound_is_gap_over_three(self):
        from distill_lab.multicopy import undistillability_bound

        params = EdgeParams(1.0, math.pi / 6)
        gap = min_positive_pt_eigenvalue(params)
        assert undistillability_bound(params, 1, 0.0) == pytest.approx(gap / 3, abs=1e-18)

