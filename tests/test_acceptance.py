"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

import distill_lab as dl
import distill_lab.witness as witness
from distill_lab.qcore import PSD_TOL, Dims, partial_transpose, rank_kernel_range
from distill_lab.rng import SplitMix64, derive_seed, random_unitary

D33 = Dims(3, 3)
GRID = dl.DEFAULT_GRID
PARAMS = dl.EdgeParams(1.0, math.pi / 6)

# frozen oracle value: smallest positive PT eigenvalue at (b, theta) = (1, pi/6),
# computed by eigendecomposition; exact value (7 - 4 sqrt(3)) / 6
P1_REF = 0.011966128287415142


class _Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"[PASS] criterion {self.number}: {self.label} ({elapsed:.2f}s)")
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
        )


def test_criterion_1_edge_family_structure():
    crit = _Criterion(1, "edge-family structure over the (b, theta) grid", 1.0)
    mes = dl.maximally_entangled_qutrits().vec
    for b, theta in GRID:
        params = dl.EdgeParams(b, theta)
        sigma = dl.edge_state(params)
        assert abs(sigma.trace - 1.0) <= 1e-12
        pt = partial_transpose(sigma.mat, D33)
        assert rank_kernel_range(sigma.mat)[0] == 5
        assert rank_kernel_range(pt)[0] == 8
        assert float(np.abs(pt @ mes).max()) <= 1e-12
        assert float(np.abs(dl.edge_state_pt(params) - pt).max()) <= 1e-15
    crit.done()


def test_criterion_2_gap_formula_consistency():
    crit = _Criterion(2, "closed-form smallest positive PT eigenvalue", 1.0)
    for b, theta in GRID:
        params = dl.EdgeParams(b, theta)
        evals = np.linalg.eigvalsh(dl.edge_state_pt(params))
        smallest_positive = float(evals[evals > 1e-12][0])
        assert abs(dl.min_positive_pt_eigenvalue(params) - smallest_positive) <= 1e-10
    assert dl.min_positive_pt_eigenvalue(PARAMS) == pytest.approx(P1_REF, abs=1e-12)
    crit.done()


def test_criterion_3_rank4_states_are_distillable():
    crit = _Criterion(3, "100 random rank-4 NPT states all certify 1-distillable", 30.0)
    spec = dl.EnsembleSpec(dims=D33, rank=4, count=100, filter="NPT", seed=20240)
    states, _ = dl.sample_ensemble(spec)
    for state in states:
        cert = dl.certify_1_distillable(state)
        assert cert is not None
        assert cert.value < -1e-9
        assert dl.verify_certificate(cert, state)
    crit.done()


def test_criterion_4_two_nonpositive_route():
    crit = _Criterion(4, "100 states with two nonpositive PT eigenvalues certify", 30.0)
    spec = dl.EnsembleSpec(
        dims=D33, rank=5, count=100, filter="twoNonpositivePT", seed=20241
    )
    states, _ = dl.sample_ensemble(spec)
    for state in states:
        cert = dl.two_nonpositive_witness(state)
        assert cert is not None
        assert dl.verify_certificate(cert, state)
    mes_state = dl.BipartiteState(dl.maximally_entangled_qutrits().projector(), D33)
    cert = dl.two_nonpositive_witness(mes_state)
    assert cert is not None
    assert cert.value == pytest.approx(-1 / 3, abs=1e-8)
    crit.done()


def test_criterion_5_rank5_state_admits_no_witness():
    crit = _Criterion(5, "rank-5 NPT state is 1-undistillable with positive margin", 60.0)
    bundle = dl.build_edge_bundle(PARAMS)
    assert bundle.eps == pytest.approx(0.9 * bundle.p1 / 3, abs=1e-18)

    evals = np.linalg.eigvalsh(bundle.npt_state.mat)
    assert evals[0] >= -PSD_TOL
    assert rank_kernel_range(bundle.npt_state.mat)[0] == 5
    pt_evals = np.linalg.eigvalsh(partial_transpose(bundle.npt_state.mat, D33))
    assert int(np.sum(pt_evals < -PSD_TOL)) == 1
    assert int(np.sum(pt_evals > PSD_TOL)) == 8

    assert witness._RESTARTS >= 64
    assert dl.certify_1_distillable(bundle.npt_state) is None

    margin = bundle.p1 / 3 - bundle.eps
    assert margin == pytest.approx(3.988709429138377e-4, abs=1e-12)
    pt = partial_transpose(bundle.npt_state.mat, D33)
    best, _ = dl.min_rank2_expectation(pt, D33)
    assert best >= margin - 1e-8
    crit.done()


def test_criterion_6_overlap_bound():
    crit = _Criterion(6, "best rank-2 overlap with the MES is 2/3", 10.0)
    assert dl.max_rank2_overlap_with_mes() == pytest.approx(2 / 3, abs=1e-6)
    crit.done()


def test_criterion_7_werner_extremal_values():
    crit = _Criterion(7, "Werner-projector extremal rank-2 values at n = 1, 2", 300.0)
    rep1 = dl.extremal_rank2_tensor_power(1)
    assert rep1.min_value == pytest.approx(1 / 24, abs=1e-6)
    assert rep1.max_value == pytest.approx(1 / 8, abs=1e-10)

    rep2 = dl.extremal_rank2_tensor_power(2)
    assert rep2.max_value == pytest.approx(1 / 64, abs=1e-6)
    assert rep2.product_maximizer_value == pytest.approx(1 / 64, abs=1e-15)
    assert rep2.min_value >= 1 / 576 - 1e-8
    assert rep2.min_value <= 1 / 64
    print(
        f"  n=2 minimum found: {rep2.min_value:.8f}; distance to the conjectured "
        f"1/288 = {rep2.conjecture_value:.8f}: {rep2.min_value - rep2.conjecture_value:+.2e}"
        " (property-based: the true minimum is open, not asserted)"
    )
    crit.done()


def test_criterion_8_operator_bound():
    crit = _Criterion(8, "PT powers dominate the scaled Werner powers (n = 1, 2)", 120.0)
    gap = dl.min_positive_pt_eigenvalue(PARAMS)
    pt = dl.edge_state_pt(PARAMS)
    ws = dl.werner_projector()
    for n in (1, 2):
        lhs, _ = dl.regroup_tensor_power(pt, D33, n)
        rhs, _ = dl.regroup_tensor_power(ws.mat, D33, n)
        assert float(np.linalg.eigvalsh(lhs - (8 * gap) ** n * rhs)[0]) >= -1e-9
    crit.done()


def test_criterion_9_two_copy_undistillability():
    crit = _Criterion(9, "explicit eps(2) > 0 and the 2-copy minimum clears it", 600.0)
    threshold = dl.eps_threshold_for_copies(PARAMS, 2)
    assert threshold > 0
    report = dl.verify_n_undistillable(PARAMS, 2)
    assert report.min_value > 0
    assert report.min_value >= report.bound_lower - 1e-8
    crit.done()


def test_criterion_10_core_invariants():
    crit = _Criterion(10, "PT involution, PT-power factorization, product-vector "
                          "nonnegativity, Schmidt invariance", 30.0)
    gen = SplitMix64(515151)

    # partial transpose is a bit-exact involution
    for _ in range(20):
        m = gen.complex_matrix(9, 9)
        assert np.array_equal(partial_transpose(partial_transpose(m, D33), D33), m)

    # PT commutes with the regrouped tensor power
    state = dl.random_state(D33, 5, 999331)
    powered, big = dl.regroup_tensor_power(state.mat, D33, 2)
    lhs = partial_transpose(powered, big)
    rhs, _ = dl.regroup_tensor_power(partial_transpose(state.mat, D33), D33, 2)
    assert float(np.abs(lhs - rhs).max()) <= 1e-14

    # product vectors can never witness: 1000 random draws
    for i in range(25):
        st = dl.random_state(D33, 4 + (i % 6), derive_seed(616161, i))
        pt = partial_transpose(st.mat, D33)
        for _ in range(40):
            fg = np.kron(gen.unit_vector(3), gen.unit_vector(3))
            val = float(np.real(fg.conj() @ pt @ fg))
            assert val >= -PSD_TOL

    # Schmidt coefficients are invariant under local unitaries
    v = gen.unit_vector(9)
    s0, _, _ = dl.schmidt_decompose(v, D33)
    for _ in range(20):
        u = random_unitary(gen, 3)
        w = random_unitary(gen, 3)
        s1, _, _ = dl.schmidt_decompose(np.kron(u, w) @ v, D33)
        assert np.allclose(s0, s1, atol=1e-10)
    crit.done()
