"""The MES dual bound: a proven lower bound on every Schmidt-rank-2 value at 3x3."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distill_lab.witness as witness
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    build_edge_bundle,
    maximally_entangled_qutrits,
    undistillability_margin,
)
from distill_lab.qcore import BipartiteState, Dims, InvariantViolationError, hermitian_eig
from distill_lab.rng import SplitMix64, derive_seed, random_unitary
from distill_lab.witness import (
    _DUAL_SLACK,
    _mes_dual,
    _mes_dual_bound,
    certify_1_distillable,
    min_rank2_expectation,
)

D33 = Dims(3, 3)
PHI = maximally_entangled_qutrits().vec
Z = np.eye(9) - 1.5 * np.outer(PHI, PHI.conj())

# the bisection reference at grid points 0, 2, 4 and 6
GRID_REFERENCE = {0: 2.6975234828e-3, 2: 5.9747281838e-3, 4: 3.9342054168e-3, 6: 9.2353064018e-3}
# the rank-2 minimum of the (1, pi/6) state, which a local unitary keeps
MIN_AT_1_PI6 = 3.934243e-3


def bisection_dual(x: np.ndarray, steps: int = 60) -> tuple[float, float]:
    """Reference (L, t): bisection over t on the sign of L's slope (3/2)|<Phi|v>|^2 - 1.

    L(t) = lambda_min(X - tZ) is concave; each step takes one ``eigh``.
    """

    def rising(t: float) -> bool:
        v = np.linalg.eigh(x - t * Z)[1][:, 0]
        return 1.5 * abs(complex(PHI.conj() @ v)) ** 2 > 1

    lo, hi = 0.0, 1.0
    if not rising(lo):
        return float(np.linalg.eigvalsh(x)[0]), 0.0
    while rising(hi):
        hi *= 2
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    t = (lo + hi) / 2
    return float(np.linalg.eigvalsh(x - t * Z)[0]), t


def dual_bound(x: np.ndarray) -> tuple[float, float]:
    """``_mes_dual_bound`` of a bare operator, from its checked decomposition."""
    return _mes_dual_bound(x, hermitian_eig(x))


def allowance(x: np.ndarray, t: float) -> float:
    """L's rounding allowance, as ``_mes_dual_bound`` subtracts it."""
    return _DUAL_SLACK * (float(np.abs(np.linalg.eigvalsh(x)).max()) + t)


def random_hermitian(seed: int) -> np.ndarray:
    """A seeded 9x9 Hermitian operator of either sign, often leaning on Phi so that t > 0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    x = (a + a.conj().T) / 2
    x = x + rng.normal(0, 3) * np.eye(9) - rng.uniform(0, 12) * np.outer(PHI, PHI.conj())
    return x


def random_rank2(gen: SplitMix64) -> np.ndarray:
    """A unit vector of Schmidt rank 2: two orthonormal pairs with random weights."""
    ua, ub = random_unitary(gen, 3), random_unitary(gen, 3)
    c = gen.uniform() * math.pi / 2
    return math.cos(c) * np.kron(ua[:, 0], ub[:, 0]) + math.sin(c) * np.kron(ua[:, 1], ub[:, 1])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-6.0, 6.0))
    def test_never_above_the_minimizer_or_a_rank2_value(self, seed, log_c):
        x = 10.0**log_c * random_hermitian(seed)
        bound, t = dual_bound(x)
        assert t >= 0
        slack = allowance(x, t)
        assert bound <= min_rank2_expectation(x, D33)[0] + slack
        gen = SplitMix64(derive_seed(seed, 0))
        for _ in range(8):
            psi = random_rank2(gen)
            assert bound <= float(np.real(psi.conj() @ x @ psi)) + slack

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-6.0, 6.0))
    def test_scales_with_the_operator(self, seed, log_c):
        x, c = random_hermitian(seed), 10.0**log_c
        bound, t = dual_bound(x)
        scaled, t_scaled = dual_bound(c * x)
        assert scaled == pytest.approx(c * bound, abs=c * allowance(x, t))
        assert t_scaled == pytest.approx(c * t, rel=1e-6, abs=c * allowance(x, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_u_conj_u(self, seed):
        # U (x) conj(U) fixes Phi, so it maps the problem onto itself
        x = random_hermitian(seed)
        u = random_unitary(SplitMix64(derive_seed(seed, 1)), 3)
        uu = np.kron(u, u.conj())
        bound, t = dual_bound(x)
        assert dual_bound(uu @ x @ uu.conj().T)[0] == pytest.approx(bound, abs=allowance(x, t))

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
    def test_exact_on_a_phi_and_its_complement(self, a, b):
        # X = a|Phi><Phi| + b(I - |Phi><Phi|): every rank-2 value is b + (a - b)|<Phi|psi>|^2,
        # least at overlap 2/3 when a < b and at overlap 0 otherwise.  For a < b
        # the best t is the kink at the eightfold eigenvalue b, which Phi misses
        x = b * np.eye(9) + (a - b) * np.outer(PHI, PHI.conj())
        bound, t = dual_bound(x)
        exact = (2 * a + b) / 3 if a < b else b
        assert exact - 4 * allowance(x, t) <= bound <= exact

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_meets_the_bisection(self, seed):
        x = random_hermitian(seed)
        bound, t = dual_bound(x)
        reference, _ = bisection_dual(x)
        assert bound <= reference
        assert bound == pytest.approx(reference, abs=2 * allowance(x, t))


class TestEdgeFamily:
    @pytest.mark.parametrize("index", range(len(DEFAULT_GRID)))
    def test_grid_meets_the_bisection(self, index):
        bundle = build_edge_bundle(EdgeParams(*DEFAULT_GRID[index]))
        bound, _ = _mes_dual(bundle.npt_state)
        reference, _ = bisection_dual(bundle.npt_state._pt)
        assert bound == pytest.approx(reference, rel=1e-9)
        if index in GRID_REFERENCE:
            assert reference == pytest.approx(GRID_REFERENCE[index], rel=1e-10)
        assert bound >= 9 * bundle.margin

    def test_reach_over_the_region(self):
        # b log-uniform on [1/2, 2], pi/12 <= |theta| <= pi/4, and the corners; over
        # 2012 such points the smallest L/margin measured was 9.5976
        gen = random.Random(37)
        points = [(b, s * th) for b in (0.5, 1.0, 2.0) for th in (math.pi / 12, math.pi / 4)
                  for s in (1, -1)]
        for _ in range(100):
            b, theta = 2.0 ** gen.uniform(-1, 1), gen.uniform(math.pi / 12, math.pi / 4)
            points.append((b, gen.choice((1, -1)) * theta))
        for b, theta in points:
            bundle = build_edge_bundle(EdgeParams(b, theta))
            bound, _ = _mes_dual(bundle.npt_state)
            assert bound >= 9.5 * bundle.margin > 0, (b, theta)


class TestChecks:
    def test_kept_on_the_state(self, monkeypatch):
        calls = []
        real = witness._mes_dual_bound

        def counted(x, spec):
            calls.append(x)
            return real(x, spec)

        monkeypatch.setattr(witness, "_mes_dual_bound", counted)
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert certify_1_distillable(bundle.npt_state) is None
        assert undistillability_margin(bundle) == bundle.margin
        assert len(calls) == 1
        state = bundle.npt_state
        assert state._mes_dual == [real(state._pt, state._pt_spectrum)]

    @pytest.fixture
    def rotated(self):
        """The (1, pi/6) bundle with its state turned by U (x) V, V != conj(U): Phi moves."""
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        gen = SplitMix64(37)
        uv = np.kron(random_unitary(gen, 3), random_unitary(gen, 3))
        state = BipartiteState(uv @ bundle.npt_state.mat @ uv.conj().T, D33)
        return replace(bundle, npt_state=state)

    @pytest.fixture
    def minimizations(self, monkeypatch):
        calls = []
        real = witness._one_copy_minimum

        def counted(x, dims, spec, seed):
            calls.append(tuple(dims))
            return real(x, dims, spec, seed)

        monkeypatch.setattr(witness, "_one_copy_minimum", counted)
        return calls

    def test_rotation_falls_back_to_the_minimizer(self, rotated, minimizations):
        state = rotated.npt_state
        bound, _ = _mes_dual(state)
        assert bound < 0
        assert certify_1_distillable(state) is None
        assert minimizations == [(3, 3)]
        assert undistillability_margin(rotated) == rotated.margin
        # the margin's check reads the kept minimum
        assert minimizations == [(3, 3)]
        # a local unitary keeps the rank-2 minimum; the minimizer, stopped at
        # tau = 1e-7 max|eig X|, reaches it from other starts within the tests' 4 tau
        value, _ = state._rank2_minima[(1, 2024, 1)]
        unrotated_pt = build_edge_bundle(EdgeParams(1.0, math.pi / 6)).npt_state._pt
        unrotated, _ = min_rank2_expectation(unrotated_pt, D33)
        tau = witness._RANK2_REL_STOP * float(np.abs(state._pt_spectrum.eigenvalues).max())
        assert abs(value - unrotated) <= 4 * tau
        assert value == pytest.approx(MIN_AT_1_PI6, rel=1e-6)

    def test_margin_check_catches_a_minimum_below_the_dual(self, rotated):
        # a minimum below L can only be a bookkeeping bug: plant one through a kept L
        # above the minimum, with a margin above L that the minimum still meets
        state = rotated.npt_state
        value = witness._rank2_minimum(state, 1, 2024)[0]
        state._mes_dual.append((value + 5e-9, 0.0))
        with pytest.raises(InvariantViolationError, match="MES dual"):
            undistillability_margin(replace(rotated, margin=value + 9e-9))
