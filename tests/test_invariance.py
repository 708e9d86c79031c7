"""Certify outcomes and rank-2 minima under local unitaries, conjugation and the swap.

The certifier takes no seed, so its robustness is judged by invariance, not
by agreement across seeds.  Each map below keeps a state's rank, its NPT
test and the rank-2 minimum of its partial transpose:

* U (x) V: the transpose becomes (conj(U) (x) V) rho^Gamma (conj(U) (x) V)^H;
* complex conjugation: it becomes conj(rho^Gamma);
* the A <-> B swap S: it becomes S (rho^Gamma)^T S.

Each sends Schmidt-rank-2 vectors to Schmidt-rank-2 vectors and keeps the
spectrum, so a constructive certificate must exist on the mapped state, and
a minimum must come back within the minimizer's 4 tau, tau = 1e-7 *
max|eig X| as in ``test_rank2_crosscheck.py``: both stop within 4 tau
above the one true minimum.  U and V are Haar draws from a seeded stream.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distill_lab import witness
from distill_lab.edgestate import DEFAULT_GRID, EdgeParams, build_edge_bundle
from distill_lab.harness import random_state
from distill_lab.qcore import BipartiteState, Dims, is_ppt
from distill_lab.rng import SplitMix64, derive_seed, random_unitary
from distill_lab.witness import (
    ROUTE_KERNEL_PRODUCT,
    ROUTE_SUBMATRIX,
    ROUTE_TWO_NONPOSITIVE,
    certify_1_distillable,
    verify_certificate,
)

D33 = Dims(3, 3)
_GAP_IN_TAU = 4.0
# the swap |ij> -> |ji> of two qutrits, as a permutation matrix
_SWAP = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
_MAPS = dict(seed=st.integers(0, 2**32 - 1), conj=st.booleans(), swap=st.booleans())


def _mapped(state: BipartiteState, seed: int, conj: bool, swap: bool) -> BipartiteState:
    """``state`` turned by a seeded U (x) V, then conjugated and swapped as asked."""
    gen = SplitMix64(derive_seed(seed, 1))
    uv = np.kron(random_unitary(gen, 3), random_unitary(gen, 3))
    mat = uv @ state.mat @ uv.conj().T
    if conj:
        mat = mat.conj()
    if swap:
        mat = _SWAP @ mat @ _SWAP.T
    return BipartiteState(mat, D33)


def _grid_state(point: int) -> BipartiteState:
    return build_edge_bundle(EdgeParams(*DEFAULT_GRID[point])).npt_state


def test_swap_is_the_qutrit_exchange():
    a, b = np.arange(3.0), np.array([1.0, 2j, -1.0])
    assert np.array_equal(_SWAP @ np.kron(a, b), np.kron(b, a))


@settings(max_examples=60, deadline=None)
@given(draw=st.integers(0, 2**32 - 1), **_MAPS)
def test_rank4_npt_states_certify_constructively_after_any_map(draw, seed, conj, swap):
    state = random_state(D33, 4, draw)
    assume(not is_ppt(state))
    mapped = _mapped(state, seed, conj, swap)
    assert mapped._rank == 4 and not is_ppt(mapped)
    cert = certify_1_distillable(mapped)
    assert cert.route in (ROUTE_SUBMATRIX, ROUTE_TWO_NONPOSITIVE, ROUTE_KERNEL_PRODUCT)
    assert verify_certificate(cert, mapped)


@pytest.mark.parametrize("point", range(len(DEFAULT_GRID)))
@settings(max_examples=10, deadline=None)
@given(**_MAPS)
def test_grid_states_keep_their_verdict_and_minimum_after_any_map(point, seed, conj, swap):
    state = _grid_state(point)
    mapped = _mapped(state, seed, conj, swap)
    assert certify_1_distillable(mapped) is None
    tau = witness._RANK2_REL_STOP * float(np.abs(state._pt_spectrum.eigenvalues).max())
    value = witness._rank2_minimum(mapped, 1)[0]
    assert abs(value - witness._rank2_minimum(state, 1)[0]) <= _GAP_IN_TAU * tau
