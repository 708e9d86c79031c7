"""Lockstep product-vector search against the one-restart-at-a-time loop it replaced.

The reference function below is the sequential implementation of
``product_vector_in_subspace``, kept verbatim as an oracle, except that
it zero-pads its constraint matrix to at least dB rows, as the library
does.  The stacked version must reproduce it byte for byte: returned
vectors and found versus ``None``.
"""

import math
import warnings
from dataclasses import replace
from typing import Optional

import numpy as np

from distill_lab.edgestate import EdgeParams, build_edge_bundle
from distill_lab.harness import random_state
from distill_lab.qcore import DEFAULT_TOL, Dims, ToleranceConfig, rank_kernel_range
from distill_lab.rng import SplitMix64, derive_seed
from distill_lab.witness import product_vector_in_subspace

D33 = Dims(3, 3)
D24 = Dims(2, 4)


# ---- reference oracle: the sequential loop, verbatim ------------------------


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
