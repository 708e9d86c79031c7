"""The rank-2 minimizer against an independent method, and under scaling.

The reference is scipy's L-BFGS over the same factorization psi = vec(A B^T)
(A of shape dA x 2, B of shape dB x 2), minimizing the Rayleigh quotient
<psi|X|psi> / <psi|psi> with its exact gradient from several random starts.
It shares no code with the block ALS in ``witness``: no eigensolver, no
frames, no stop rule and another random generator.

Tolerance.  A row of the ALS stops once a sweep gains at most
tau = 1e-6 * max|eig X| (``witness._RANK2_REL_STOP``).  If the sweeps
converge linearly at rate q, the gap left at that stop is at most
tau * q / (1 - q); allowing q <= 0.8 bounds it by 4 tau.  L-BFGS runs to
its own convergence, far below tau, so the two minima must agree to 4 tau.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from distill_lab import witness
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    build_edge_bundle,
    maximally_entangled_qutrits,
)
from distill_lab.harness import random_state
from distill_lab.multicopy import werner_projector
from distill_lab.qcore import Dims, partial_transpose, regroup_tensor_power
from distill_lab.witness import min_rank2_expectation

D33 = Dims(3, 3)
D24 = Dims(2, 4)
# the gap the stop rule can leave, in units of tau (see the module docstring)
_GAP_IN_TAU = 4.0


def _tau(m: np.ndarray) -> float:
    return witness._RANK2_REL_STOP * float(np.abs(np.linalg.eigvalsh(m)).max())


def lbfgs_min_rank2(m: np.ndarray, dims: Dims, starts: int = 8, seed: int = 0) -> float:
    """Best L-BFGS minimum of the Rayleigh quotient over vec(A B^T)."""
    ma, mb = dims

    def value_and_grad(x):
        z = x.view(complex)
        a, b = z[: 2 * ma].reshape(ma, 2), z[2 * ma :].reshape(mb, 2)
        psi = (a @ b.T).reshape(-1)
        norm2 = float(np.real(psi.conj() @ psi))
        m_psi = m @ psi
        value = float(np.real(psi.conj() @ m_psi)) / norm2
        # d value / d conj(psi), then through psi = vec(A B^T) to A and B
        g = ((m_psi - value * psi) / norm2).reshape(ma, mb)
        grad = np.concatenate([(g @ b.conj()).reshape(-1), (g.T @ a.conj()).reshape(-1)])
        return value, 2 * grad.view(float)

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(starts):
        x0 = rng.standard_normal(4 * (ma + mb))
        res = minimize(
            value_and_grad, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best


def _werner(n: int) -> tuple[np.ndarray, Dims]:
    ws = werner_projector()
    return regroup_tensor_power(ws.mat, ws.dims, n)


def _mes_overlap() -> tuple[np.ndarray, Dims]:
    mes = maximally_entangled_qutrits().vec
    return -np.outer(mes, mes.conj()), D33


def _rank5_pt(point: int) -> tuple[np.ndarray, Dims]:
    bundle = build_edge_bundle(EdgeParams(*DEFAULT_GRID[point]))
    return partial_transpose(bundle.npt_state.mat, D33), D33


def _random_pt(dims: Dims, rank: int) -> tuple[np.ndarray, Dims]:
    state = random_state(dims, rank, 7000 + 100 * dims.dim_a + rank)
    return partial_transpose(state.mat, dims), dims


CASES = {
    "werner-n1": lambda: _werner(1),
    "mes-overlap": _mes_overlap,
    **{f"rank5-grid{i}": functools.partial(_rank5_pt, i) for i in range(len(DEFAULT_GRID))},
    **{f"random-3x3-rank{r}": functools.partial(_random_pt, D33, r) for r in range(1, 10)},
    **{f"random-2x4-rank{r}": functools.partial(_random_pt, D24, r) for r in range(1, 9)},
    "werner-n2": lambda: _werner(2),
}


@pytest.mark.parametrize("case", list(CASES))
def test_agrees_with_lbfgs(case):
    m, dims = CASES[case]()
    value, _ = min_rank2_expectation(m, dims)
    reference = lbfgs_min_rank2(m, dims)
    assert abs(value - reference) <= _GAP_IN_TAU * _tau(m)


def test_known_minima():
    assert min_rank2_expectation(*_werner(1))[0] == pytest.approx(1 / 24, abs=1e-12)
    assert -min_rank2_expectation(*_mes_overlap())[0] == pytest.approx(2 / 3, abs=1e-12)
    assert min_rank2_expectation(*_werner(2))[0] == pytest.approx(1 / 288, rel=1e-9)


# ---- scaling ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _scale_case(case: str) -> tuple[np.ndarray, Dims, float, float]:
    m, dims = CASES[case]()
    value, _ = min_rank2_expectation(m, dims)
    return m, dims, value, _tau(m)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["rank5-grid4", "random-3x3-rank5", "random-2x4-rank3", "werner-n1"]),
    c=st.floats(min_value=1e-6, max_value=1e6),
)
def test_property_minimum_scales_with_the_matrix(case, c):
    # the stop is relative, so c*X takes the sweeps X takes; a stop decided
    # differently on a rounding tie moves the value by at most one sweep's
    # gain, tau(c*X) = c * tau(X)
    m, dims, value, tau = _scale_case(case)
    scaled, _ = min_rank2_expectation(c * m, dims)
    assert abs(scaled - c * value) <= c * tau
