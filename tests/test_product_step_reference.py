"""The Gram-eigenproblem product step against the SVD step it replaced.

``witness._product_step`` takes each half-step's vector from the bottom
eigenvector of the small Gram matrix C^H C and reports the residual
|C(b) a|.  The reference below is the earlier step, kept verbatim: two
full SVDs of the stacked constraint matrices, reporting the smallest
singular value.  Both compute the same minimizers in exact arithmetic, but
eigh and SVD round differently and fix phases differently, so the two
cannot agree bit for bit.  Each search runs inside the library's
``product_vector_in_subspace``, once with each descent, so the restarts,
the lockstep stop rule and the final SVD success check are shared.

Inputs: the kernels of seeded 3x3 states of rank 1-8 and 2x4 states of
rank 1-7, the kernels of the rank-5 edge states at the 12 ``DEFAULT_GRID``
points, 40 more 3x3 rank-4 kernels (dimension 5), and 3x3 and 2x4 rank-4
kernels under a 10-step budget, where later restarts succeed first.

Tolerances, fixed before running.  The constraint rows are orthonormal,
so sigma_1(C) <= 1 for unit vectors.  Forming C^H C and the Hermitian
eigensolver's backward error together leave an absolute error of at most
c * eps in the Gram matrix, with c = 64 ample for at most 9 rows and 4
columns; the Rayleigh quotient of its bottom eigenvector then exceeds
sigma_min^2 by at most 2c * eps, so the residual differs from the SVD's
smallest singular value by at most sqrt(2c * eps), about 1.7e-7, on the
same C(b).  The first half-step's b differs between the two steps beyond
a phase only where the smallest singular value of C(a) is repeated; where
it is repeated at zero, as with padded constraints, C(b) a = C(a) b = 0
makes both values zero up to rounding.  On 3x3 kernels of dimension 5 the
product ray is unique, so the returned rays must overlap to within 1e-10:
|<a(x)b|a'(x)b'>| >= 1 - 1e-10.  Found versus ``None`` and the first
successful restart must be equal.  The floor test at the end guards the
residual value: a step valued by the root of the bottom eigenvalue fails it.
"""

import math
import warnings

import numpy as np
import pytest

import distill_lab.witness as witness
from distill_lab.edgestate import DEFAULT_GRID, EdgeParams, build_edge_bundle
from distill_lab.harness import random_state
from distill_lab.qcore import Dims, rank_kernel_range
from distill_lab.rng import _complex_normals, _unit_rows, derive_seed
from distill_lab.witness import product_vector_in_subspace

D33 = Dims(3, 3)
D24 = Dims(2, 4)

_EPS = np.finfo(float).eps
_STEP_VALUE_TOL = math.sqrt(2 * 64 * _EPS)
_RAY_TOL = 1e-10


# ---- reference: the SVD step, verbatim -------------------------------------


def reference_product_step(ck, a, b):
    """The step of the earlier ``_product_search_descent``, verbatim."""
    b = np.linalg.svd(np.einsum("dmn,rm->rdn", ck, a))[2][:, -1, :].conj()
    _, s, vh = np.linalg.svd(np.einsum("dmn,rn->rdm", ck, b))
    return s[:, -1], (vh[:, -1, :].conj(), b)


def reference_descent(step_gaps: list):
    """The earlier descent; every step also runs the library's step on the same rows.

    The library step's values are only compared, never used: the largest
    gap to the reference values goes to ``step_gaps``.
    """

    def descent(ck, a, b):
        def step(a, b):
            values, rows = reference_product_step(ck, a, b)
            got = witness._product_step(ck, a, b)[0]
            step_gaps.append(float(np.abs(got - values).max()))
            return values, rows

        return witness._lockstep(
            step, (a, b), witness._OPT_MAX_ITERS, witness._PRODUCT_STEP_TOL, floor=1e-9
        )[1:]

    return descent


# ---- one search with either descent -----------------------------------------


def _search(descent, basis: np.ndarray, dims: Dims, seed: int):
    """``product_vector_in_subspace`` with ``descent`` in place of the library's.

    Returns the result and the restart it came from (``None`` if none).
    """
    blocks = []

    def recorded(ck, a, b):
        out = descent(ck, a, b)
        blocks.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(witness, "_product_search_descent", recorded)
        warnings.simplefilter("ignore", RuntimeWarning)
        found = product_vector_in_subspace(basis, dims, seed)
    if found is None:
        return None, None
    # the success check returns a row of the last block's a, unchanged
    row = next(j for j, a in enumerate(blocks[-1]) if a.tobytes() == found[0].tobytes())
    return found, sum(len(block) for block in blocks[:-1]) + row


def _compare(basis: np.ndarray, dims: Dims, seed: int):
    """Both searches on one subspace; asserts the shared outcome and step values.

    Returns both results and the first successful restart.
    """
    gaps: list = []
    got, got_restart = _search(witness._product_search_descent, basis, dims, seed)
    want, want_restart = _search(reference_descent(gaps), basis, dims, seed)
    assert (got is None) == (want is None)
    assert got_restart == want_restart
    assert gaps and max(gaps) <= _STEP_VALUE_TOL
    return got, want, want_restart


def _kernel(state) -> np.ndarray:
    return rank_kernel_range(state.mat)[1]


def _ray_overlap(got, want) -> float:
    return float(abs(np.vdot(np.kron(*got), np.kron(*want))))


# ---- the seeded inputs ------------------------------------------------------


def test_3x3_kernels_of_every_rank():
    for rank in range(1, 9):
        for seed in range(4):
            kernel = _kernel(random_state(D33, rank, derive_seed(9900 + rank, seed)))
            got, want, _ = _compare(kernel, D33, seed)
            # a product vector provably exists from dimension 5 on
            assert (got is not None) == (kernel.shape[1] >= 5)
            if kernel.shape[1] == 5:
                assert _ray_overlap(got, want) >= 1 - _RAY_TOL


def test_2x4_kernels_of_every_rank():
    for rank in range(1, 8):
        for seed in range(4):
            kernel = _kernel(random_state(D24, rank, derive_seed(9950 + rank, seed)))
            _compare(kernel, D24, seed)


def test_edge_bundle_kernels():
    for point in DEFAULT_GRID:
        kernel = _kernel(build_edge_bundle(EdgeParams(*point)).npt_state)
        assert kernel.shape[1] == 4
        got, _, _ = _compare(kernel, D33, 2024)
        assert got is None


def test_dimension_5_kernels_give_the_same_product_ray():
    for i in range(40):
        kernel = _kernel(random_state(D33, 4, derive_seed(9990, i)))
        got, want, _ = _compare(kernel, D33, i)
        assert _ray_overlap(got, want) >= 1 - _RAY_TOL


def test_late_first_successes(monkeypatch):
    """A short iteration budget makes early restarts fail and later ones succeed."""
    monkeypatch.setattr(witness, "_OPT_MAX_ITERS", 10)
    late = 0
    for dims in (D33, D24):
        for i in range(12):
            kernel = _kernel(random_state(dims, 4, derive_seed(9500, i)))
            late += bool(_compare(kernel, dims, i)[2])
    assert late >= 4


# ---- the floor stays reachable ----------------------------------------------


def test_residual_reaches_the_floor_on_planted_product_vectors():
    """On 4-dimensional 3x3 subspaces holding a product vector, some row ends below 1e-9.

    The square root of the Gram matrix's bottom eigenvalue could not get
    there: that eigenvalue carries an error near eps, so its root stays
    near 1e-8.
    """
    seeds = [derive_seed(2024, 2_000_000 + r) for r in range(witness._RESTARTS)]
    starts = _complex_normals(seeds, 6)[0]
    for i in range(20):
        g = _complex_normals([derive_seed(9995, i)], 3 + 3 + 9 * 3)[0][0]
        planted = np.kron(g[:3], g[3:6])
        basis = np.linalg.qr(np.column_stack([planted, g[6:].reshape(9, 3)]))[0]
        # the constraint tensor as product_vector_in_subspace forms it (no padding at k = 4)
        comp = np.linalg.svd(basis)[0][:, 4:]
        ck = comp.conj().T.reshape(5, 3, 3)
        a, b = witness._product_search_descent(
            ck, _unit_rows(starts[:, :3]), _unit_rows(starts[:, 3:])
        )
        residual = np.linalg.norm(np.einsum("dmn,rm,rn->rd", ck, a, b), axis=1)
        assert residual.min() < 1e-9
