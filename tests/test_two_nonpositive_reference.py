"""The nearest-root two-nonpositive route against the best-of-all-roots route it replaced.

``witness.two_nonpositive_witness`` returns the first ``alpha + t*beta``
that passes the witness rule, trying the roots of det(A + tB) nearest
first.  The reference below is the earlier route, kept verbatim: it scores
every root, keeps the most negative candidate, and judges beta again on
alpha and on every nudge.  For unit alpha orthogonal to beta the value of
the normalized alpha + t*beta is (lambda_0 + |t|^2 lambda_1) / (1 + |t|^2),
which rises with |t|, so on alpha the nearest passing root is the best one.
Both routes build the candidates with the same operations, so on the sets
below their certificates must agree bit for bit.
"""

from typing import Optional

import numpy as np
import pytest

from distill_lab.harness import EnsembleSpec, sample_ensemble
from distill_lab.qcore import (
    RANK_REL_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    _numeric_rank,
    _two_nonpositive_pt,
    hermitian_eig,
    schmidt_rank,
)
from distill_lab.rng import SplitMix64, derive_seed
from distill_lab.witness import (
    ROUTE_TWO_NONPOSITIVE,
    WitnessCertificate,
    _RESTARTS,
    _accepts,
    _make_certificate,
    two_nonpositive_witness,
)
from test_witness import _natural_nudge_input

D33 = Dims(3, 3)


# ---- reference: the best-of-all-roots route, verbatim ------------------------


def reference_two_nonpositive_witness(
    state: BipartiteState, seed: int = 2024
) -> Optional[WitnessCertificate]:
    if tuple(state.dims) != (3, 3):
        raise DimensionMismatchError("two-nonpositive route applies to 3x3 systems")
    if not _two_nonpositive_pt(state):
        return None
    pt = state._pt
    alpha, beta = hermitian_eig(pt).eigenvectors[:, :2].T
    mat_b = beta.reshape(3, 3)

    def construct(vec: np.ndarray) -> Optional[np.ndarray]:
        mat_v = vec.reshape(3, 3)
        rank = _numeric_rank(mat_v)
        if rank <= 2:
            return vec if _accepts(float(np.real(vec.conj() @ pt @ vec)), rank) else None
        if _accepts(state._pt_eigenvalues[1], _numeric_rank(mat_b)):
            return beta
        n_mat = np.linalg.solve(mat_v, mat_b)
        eigs = np.linalg.eigvals(n_mat)
        n_norm = float(np.linalg.norm(n_mat, 2))
        usable = [s for s in eigs if abs(s) > RANK_REL_TOL * max(n_norm, 1e-300)]
        best: Optional[tuple[float, np.ndarray]] = None
        for s in sorted(usable, key=abs, reverse=True):
            t = -1.0 / s
            phi = vec + t * beta
            phi = phi / np.linalg.norm(phi)
            val = float(np.real(phi.conj() @ pt @ phi))
            if not _accepts(val, schmidt_rank(phi, state.dims)):
                continue
            if best is None or val < best[0]:
                best = (val, phi)
        return None if best is None else best[1]

    found = construct(alpha)
    if found is not None:
        return _make_certificate(found, state, ROUTE_TWO_NONPOSITIVE, seed)
    for attempt in range(_RESTARTS):
        delta = 10.0 ** (-2 - (attempt % 5))
        eta = SplitMix64(derive_seed(seed, 1_000_000 + attempt)).unit_vector(9)
        nudged = alpha + delta * eta
        found = construct(nudged / np.linalg.norm(nudged))
        if found is not None:
            return _make_certificate(found, state, ROUTE_TWO_NONPOSITIVE, seed, delta=delta)
    return None


# ---- bit-for-bit agreement ---------------------------------------------------


def _bits(cert: Optional[WitnessCertificate]):
    if cert is None:
        return None
    return (
        cert.psi.vec.tobytes(),
        cert.value.hex(),
        cert.route,
        cert.schmidt_rank,
        cert.seed,
        cert.delta,
    )


def _assert_same(state: BipartiteState, seed: int = 2024) -> bool:
    got = two_nonpositive_witness(state, seed)
    assert _bits(got) == _bits(reference_two_nonpositive_witness(state, seed))
    return got is not None


@pytest.mark.parametrize("rank", range(4, 10))
def test_filtered_ensembles_match(rank):
    spec = EnsembleSpec(dims=D33, rank=rank, count=100, filter="twoNonpositivePT",
                        seed=9000 + rank)
    states, _ = sample_ensemble(spec)
    assert len(states) == 100
    certified = [_assert_same(state) for state in states]
    assert all(certified)


@pytest.mark.parametrize("mu", [1e-6, 1e-4, 1e-2])
def test_natural_nudge_input_matches(mu):
    state = _natural_nudge_input(mu)
    certified = [_assert_same(state, seed) for seed in range(6)]
    assert all(certified)


def test_forced_nilpotent_set_matches(monkeypatch):
    # the set of test_nudge_certifies_when_the_combination_is_nilpotent: the
    # first A^-1 B of each route call reports only zero eigenvalues
    spec = EnsembleSpec(dims=D33, rank=5, count=20, filter="twoNonpositivePT", seed=2024)
    states, _ = sample_ensemble(spec)
    eigvals, calls = np.linalg.eigvals, []

    def nilpotent_first(mat):
        calls.append(mat)
        return np.zeros(len(mat), dtype=complex) if len(calls) == 1 else eigvals(mat)

    monkeypatch.setattr(np.linalg, "eigvals", nilpotent_first)
    for state in states:
        calls.clear()
        got = two_nonpositive_witness(state)
        calls.clear()
        want = reference_two_nonpositive_witness(state)
        assert got is not None and got.delta == 0.01
        assert _bits(got) == _bits(want)
