"""Lockstep multistart search against the one-restart-at-a-time loops it replaced.

The reference functions below are the sequential implementations of
``min_rank2_expectation`` and ``product_vector_in_subspace``, kept verbatim
as an oracle, except that the search zero-pads its constraint matrix to at
least dB rows, as the library does.  The stacked versions must
reproduce them byte for byte: values, frames, coefficients, returned
vectors and found versus ``None``.
"""

import math
import warnings
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from distill_lab.edgestate import EdgeParams, build_edge_bundle
from distill_lab.harness import random_state
from distill_lab.multicopy import werner_projector
from distill_lab.qcore import (
    DEFAULT_TOL,
    Dims,
    ToleranceConfig,
    hermitian_eig,
    partial_transpose,
    rank_kernel_range,
    regroup_tensor_power,
    schmidt_decompose,
)
from distill_lab.rng import SplitMix64, derive_seed, random_isometry
from distill_lab.witness import Rank2Ansatz, min_rank2_expectation, product_vector_in_subspace

D33 = Dims(3, 3)
D24 = Dims(2, 4)


# ---- reference oracle: the sequential loops, verbatim -----------------------


def _frames_from_vector(vec: np.ndarray, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Local 2-frames spanning the two leading Schmidt directions of ``vec``."""
    _, left, right = schmidt_decompose(vec, dims)
    return left[:, :2], right[:, :2]


def _complete_to_frame(gen: SplitMix64, a: np.ndarray) -> np.ndarray:
    """Extend a unit vector to a 2-column isometry with a seeded second column."""
    d = a.size
    while True:
        extra = gen.complex_vector(d)
        extra -= a * (a.conj() @ extra)
        nrm = float(np.linalg.norm(extra))
        if nrm > 1e-8:
            return np.column_stack([a, extra / nrm])


def _product_descent(
    x4: np.ndarray, dims: Dims, a: np.ndarray, b: np.ndarray, iters: int, tol: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Alternating bottom-eigenvector descent over product vectors a (x) b."""
    val_prev = np.inf
    val = np.inf
    for _ in range(iters):
        mb = np.einsum("injm,n,m->ij", x4, b.conj(), b)
        mb = (mb + mb.conj().T) / 2
        _, vecs = np.linalg.eigh(mb)
        a = vecs[:, 0]
        ma = np.einsum("injm,i,j->nm", x4, a.conj(), a)
        ma = (ma + ma.conj().T) / 2
        w, vecs = np.linalg.eigh(ma)
        b = vecs[:, 0]
        val = float(w[0])
        if val_prev - val <= tol:
            break
        val_prev = val
    return val, a, b


def reference_min_rank2_expectation(
    x: np.ndarray, dims: Dims, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, Rank2Ansatz]:
    m = np.asarray(x, dtype=complex)
    ma, mb = dims
    spec = hermitian_eig(m, cfg)
    evals, evecs = spec.eigenvalues, spec.eigenvectors
    scale = max(float(np.abs(evals).max()), 1e-300)
    span = int(np.sum(evals <= evals[0] + 1e-10 * scale))
    span = min(max(span, 2), dims.total)
    x4 = m.reshape(ma, mb, ma, mb)

    def run(frame_a: np.ndarray, frame_b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        val_prev = np.inf
        coeff = None
        for _ in range(cfg.opt_max_iters):
            w_op = np.kron(frame_a, frame_b)
            comp = w_op.conj().T @ m @ w_op
            comp = (comp + comp.conj().T) / 2
            w4, v4 = np.linalg.eigh(comp)
            val = float(w4[0])
            coeff = v4[:, 0]
            psi = w_op @ coeff
            if val_prev - val <= cfg.opt_step_tol:
                break
            val_prev = val
            frame_a, frame_b = _frames_from_vector(psi, dims)
        return val, frame_a, frame_b

    starts: list[tuple[np.ndarray, np.ndarray]] = [_frames_from_vector(evecs[:, 0], dims)]
    for r in range(cfg.opt_restarts):
        gen = SplitMix64(derive_seed(cfg.seed, r))
        kind = r % 3
        if kind == 0:
            starts.append((random_isometry(gen, ma, 2), random_isometry(gen, mb, 2)))
        elif kind == 1:
            c = gen.unit_vector(span)
            starts.append(_frames_from_vector(evecs[:, :span] @ c, dims))
        else:
            a0 = gen.unit_vector(ma)
            b0 = gen.unit_vector(mb)
            _, a1, b1 = _product_descent(x4, dims, a0, b0, cfg.opt_max_iters, cfg.opt_step_tol)
            starts.append((_complete_to_frame(gen, a1), _complete_to_frame(gen, b1)))

    best_val = np.inf
    best_frames: Optional[tuple[np.ndarray, np.ndarray]] = None
    for frame_a, frame_b in starts:
        val, fa, fb = run(frame_a, frame_b)
        if val < best_val:
            best_val = val
            best_frames = (fa, fb)
    assert best_frames is not None
    fa, fb = best_frames
    w_op = np.kron(fa, fb)
    comp = w_op.conj().T @ m @ w_op
    comp = (comp + comp.conj().T) / 2
    w4, v4 = np.linalg.eigh(comp)
    ansatz = Rank2Ansatz(fa, fb, v4[:, 0].reshape(2, 2))
    psi = ansatz.vector()
    value = float(np.real(psi.conj() @ m @ psi))
    return value, ansatz


def reference_product_vector_in_subspace(
    basis: np.ndarray, dims: Dims, cfg: ToleranceConfig = DEFAULT_TOL
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    ma, mb = dims
    b_mat = np.asarray(basis, dtype=complex)
    k = b_mat.shape[1]
    u_full, _, _ = np.linalg.svd(b_mat)
    comp = np.pad(u_full[:, k:], ((0, 0), (0, max(0, mb - (dims.total - k)))))
    # constraint tensor: <k_i | a (x) b> = a^T conj(K_i) b
    ck = comp.conj().T.reshape(comp.shape[1], ma, mb)

    for r in range(cfg.opt_restarts):
        gen = SplitMix64(derive_seed(cfg.seed, 2_000_000 + r))
        a = gen.unit_vector(ma)
        b = gen.unit_vector(mb)
        smin_prev = np.inf
        for _ in range(cfg.opt_max_iters):
            c_of_a = np.einsum("dmn,m->dn", ck, a)
            _, s, vh = np.linalg.svd(c_of_a)
            b = vh[-1, :].conj()
            d_of_b = np.einsum("dmn,n->dm", ck, b)
            _, s, vh = np.linalg.svd(d_of_b)
            a = vh[-1, :].conj()
            smin = float(s[-1])
            if smin < 1e-9 or smin_prev - smin <= cfg.opt_step_tol:
                break
            smin_prev = smin
        c_of_a = np.einsum("dmn,m->dn", ck, a)
        residual = float(np.linalg.norm(c_of_a @ b))
        if residual < 1e-7 and float(np.linalg.svd(c_of_a, compute_uv=False)[-1]) < 1e-8:
            return a, b
    return None


# ---- byte comparisons -------------------------------------------------------


def _bytes(x) -> tuple:
    arr = np.asarray(x)
    return arr.dtype.str, arr.shape, arr.tobytes()


def assert_same_minimum(mat: np.ndarray, dims: Dims, cfg: ToleranceConfig) -> None:
    got_value, got = min_rank2_expectation(mat, dims, cfg)
    want_value, want = reference_min_rank2_expectation(mat, dims, cfg)
    assert float(got_value).hex() == float(want_value).hex()
    for name in ("frame_a", "frame_b", "coeff"):
        assert _bytes(getattr(got, name)) == _bytes(getattr(want, name)), name


def assert_same_search(basis: np.ndarray, dims: Dims, cfg: ToleranceConfig) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = product_vector_in_subspace(basis, dims, cfg)
    want = reference_product_vector_in_subspace(basis, dims, cfg)
    assert (got is None) == (want is None)
    if want is not None:
        assert _bytes(got[0]) == _bytes(want[0])
        assert _bytes(got[1]) == _bytes(want[1])
    return want is not None


def _cfg(restarts: int, seed: int, **kw) -> ToleranceConfig:
    return replace(DEFAULT_TOL, opt_restarts=restarts, seed=seed, **kw)


# ---- rank-2 minimizer -------------------------------------------------------


@pytest.mark.parametrize("rank", range(1, 10))
def test_minimizer_3x3_partial_transposes(rank):
    for restarts in range(1, 14):
        state = random_state(D33, rank, derive_seed(9100 + rank, restarts))
        pt = partial_transpose(state.mat, D33)
        sign = 1 if restarts % 2 else -1
        assert_same_minimum(sign * pt, D33, _cfg(restarts, seed=rank * 100 + restarts))


def test_minimizer_2x4_states():
    for rank in range(1, 9):
        state = random_state(D24, rank, derive_seed(9200, rank))
        pt = partial_transpose(state.mat, D24)
        assert_same_minimum(pt, D24, _cfg(rank + 3, seed=rank))
        assert_same_minimum(-state.mat, D24, _cfg(7, seed=rank))


def test_minimizer_degenerate_inputs():
    # a wide bottom eigenspace and a one-iteration budget
    assert_same_minimum(np.eye(9), D33, _cfg(5, seed=1))
    state = random_state(D33, 5, 77)
    assert_same_minimum(state.mat, D33, _cfg(8, seed=3, opt_max_iters=1))
    assert_same_minimum(state.mat, D33, _cfg(8, seed=3, opt_max_iters=2))


def test_minimizer_werner_n2():
    ws = werner_projector()
    mat, dims = regroup_tensor_power(ws.mat, ws.dims, 2)
    for seed in (0, 1):
        cfg = _cfg(DEFAULT_TOL.opt_restarts, seed=seed)
        assert_same_minimum(mat, dims, cfg)
        assert_same_minimum(-mat, dims, cfg)


def test_minimizer_rho_n2():
    bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
    pt = partial_transpose(bundle.npt_state.mat, D33)
    mat, dims = regroup_tensor_power(pt, D33, 2)
    assert_same_minimum(mat, dims, DEFAULT_TOL)
    assert_same_minimum(-mat, dims, DEFAULT_TOL)


# ---- product-vector search --------------------------------------------------


def test_search_rank4_kernels_found_at_first_restart():
    for i in range(40):
        state = random_state(D33, 4, derive_seed(9300, i))
        _, kernel, _ = rank_kernel_range(state.mat)
        assert kernel.shape[1] == 5
        assert assert_same_search(kernel, D33, _cfg(64, seed=i))
        # the first restart alone already succeeds
        assert reference_product_vector_in_subspace(kernel, D33, _cfg(1, seed=i)) is not None


def test_search_rank5_kernels_exhaust_restarts():
    for i in range(14):
        state = random_state(D33, 5, derive_seed(9400, i))
        _, kernel, _ = rank_kernel_range(state.mat)
        assert kernel.shape[1] == 4
        assert not assert_same_search(kernel, D33, _cfg(i + 1, seed=i))
    for b, theta in ((1.0, math.pi / 6), (0.7, -math.pi / 5), (1.6, math.pi / 9)):
        bundle = build_edge_bundle(EdgeParams(b, theta))
        _, kernel, _ = rank_kernel_range(bundle.npt_state.mat)
        assert kernel.shape[1] == 4
        assert not assert_same_search(kernel, D33, DEFAULT_TOL)


def test_search_success_after_first_restart():
    """A short iteration budget makes early restarts fail and later ones succeed."""
    late = 0
    for dims in (D33, D24):
        for i in range(12):
            state = random_state(dims, 4, derive_seed(9500, i))
            _, kernel, _ = rank_kernel_range(state.mat)
            cfg = _cfg(13, seed=i, opt_max_iters=10)
            found = assert_same_search(kernel, dims, cfg)
            first_only = replace(cfg, opt_restarts=1)
            first = reference_product_vector_in_subspace(kernel, dims, first_only)
            late += found and first is None
    assert late >= 4


def test_search_2x4_kernels():
    for rank in range(1, 8):
        for seed in range(3):
            state = random_state(D24, rank, derive_seed(9600 + rank, seed))
            _, kernel, _ = rank_kernel_range(state.mat)
            assert_same_search(kernel, D24, _cfg(9, seed=seed))
