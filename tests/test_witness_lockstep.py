"""Lockstep product-vector search against the one-restart-at-a-time loop it replaced.

The reference function below is the sequential implementation of
``product_vector_in_subspace``, kept verbatim as an oracle, except that
it zero-pads its constraint matrix to at least dB rows, as the library
does, and reads the library's restart budget, iteration cap and stop
rule at call time.  Its step follows the library's: each half-step forms
C as a 1 x dA (or 1 x dB) product and takes the bottom eigenvector of the
Gram matrix C^H C, and the step's value is the row-wise residual norm
|C(b) a|; the SVD step it replaced is kept in
``tests/test_product_step_reference.py``.  Tests set the budget by
patching ``witness._RESTARTS``.
The stacked version must reproduce it byte for byte: returned vectors
and found versus ``None``.
"""

import math
import warnings
from typing import Optional

import numpy as np

import distill_lab.witness as witness
from distill_lab.edgestate import EdgeParams, build_edge_bundle
from distill_lab.harness import random_state
from distill_lab.qcore import Dims, rank_kernel_range
from distill_lab.rng import SplitMix64, derive_seed
from distill_lab.witness import product_vector_in_subspace

D33 = Dims(3, 3)
D24 = Dims(2, 4)


# ---- reference oracle: the sequential loop, verbatim ------------------------


def _gram_bottom(c: np.ndarray) -> np.ndarray:
    """Bottom eigenvector of the Gram matrix C^H C."""
    return np.linalg.eigh(c.conj().T @ c)[1][:, 0]


def reference_product_vector_in_subspace(
    basis: np.ndarray, dims: Dims, seed: int = 2024
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    ma, mb = dims
    b_mat = np.asarray(basis, dtype=complex)
    k = b_mat.shape[1]
    u_full, _, _ = np.linalg.svd(b_mat)
    comp = np.pad(u_full[:, k:], ((0, 0), (0, max(0, mb - (dims.total - k)))))
    # constraint tensor: <k_i | a (x) b> = a^T conj(K_i) b
    ck = comp.conj().T.reshape(comp.shape[1], ma, mb)

    for r in range(witness._RESTARTS):
        gen = SplitMix64(derive_seed(seed, 2_000_000 + r))
        a = gen.unit_vector(ma)
        b = gen.unit_vector(mb)
        smin_prev = np.inf
        for _ in range(witness._OPT_MAX_ITERS):
            c_of_a = (a[None] @ ck.transpose(1, 0, 2).reshape(ma, -1)).reshape(-1, mb)
            b = _gram_bottom(c_of_a)
            d_of_b = (b[None] @ ck.transpose(2, 0, 1).reshape(mb, -1)).reshape(-1, ma)
            a = _gram_bottom(d_of_b)
            # the residual norm as the library takes it, row-wise
            smin = float(np.linalg.norm((d_of_b @ a)[None], axis=1)[0])
            if smin < 1e-9 or smin_prev - smin <= witness._PRODUCT_STEP_TOL:
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


def assert_same_search(basis: np.ndarray, dims: Dims, seed: int) -> bool:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = product_vector_in_subspace(basis, dims, seed)
    want = reference_product_vector_in_subspace(basis, dims, seed)
    assert (got is None) == (want is None)
    if want is not None:
        assert _bytes(got[0]) == _bytes(want[0])
        assert _bytes(got[1]) == _bytes(want[1])
    return want is not None


def _seed(monkeypatch, restarts: int, seed: int) -> int:
    """The seed of one search, after patching the restart budget constant."""
    monkeypatch.setattr(witness, "_RESTARTS", restarts)
    return seed


# ---- product-vector search --------------------------------------------------


def test_search_rank4_kernels_found_at_first_restart(monkeypatch):
    for i in range(40):
        state = random_state(D33, 4, derive_seed(9300, i))
        _, kernel, _ = rank_kernel_range(state.mat)
        assert kernel.shape[1] == 5
        assert assert_same_search(kernel, D33, _seed(monkeypatch, 64, seed=i))
        # the first restart alone already succeeds
        first_only = _seed(monkeypatch, 1, seed=i)
        assert reference_product_vector_in_subspace(kernel, D33, first_only) is not None


def test_search_rank5_kernels_exhaust_restarts(monkeypatch):
    for i in range(14):
        state = random_state(D33, 5, derive_seed(9400, i))
        _, kernel, _ = rank_kernel_range(state.mat)
        assert kernel.shape[1] == 4
        assert not assert_same_search(kernel, D33, _seed(monkeypatch, i + 1, seed=i))
    monkeypatch.undo()
    for b, theta in ((1.0, math.pi / 6), (0.7, -math.pi / 5), (1.6, math.pi / 9)):
        bundle = build_edge_bundle(EdgeParams(b, theta))
        _, kernel, _ = rank_kernel_range(bundle.npt_state.mat)
        assert kernel.shape[1] == 4
        assert not assert_same_search(kernel, D33, 2024)


def test_search_success_after_first_restart(monkeypatch):
    """A short iteration budget makes early restarts fail and later ones succeed."""
    monkeypatch.setattr(witness, "_OPT_MAX_ITERS", 10)
    late = 0
    for dims in (D33, D24):
        for i in range(12):
            state = random_state(dims, 4, derive_seed(9500, i))
            _, kernel, _ = rank_kernel_range(state.mat)
            found = assert_same_search(kernel, dims, _seed(monkeypatch, 13, seed=i))
            first_only = _seed(monkeypatch, 1, seed=i)
            first = reference_product_vector_in_subspace(kernel, dims, first_only)
            late += found and first is None
    assert late >= 4


def test_search_2x4_kernels(monkeypatch):
    for rank in range(1, 8):
        for seed in range(3):
            state = random_state(D24, rank, derive_seed(9600 + rank, seed))
            _, kernel, _ = rank_kernel_range(state.mat)
            assert_same_search(kernel, D24, _seed(monkeypatch, 9, seed=seed))
