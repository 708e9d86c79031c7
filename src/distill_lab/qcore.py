"""Dense complex linear algebra for bipartite quantum states.

Everything here is a pure function of numpy arrays plus an explicit
dimension split ``Dims(dim_a, dim_b)``.  States are *not* assumed to be
trace-normalized; rank decisions therefore use relative singular-value
thresholds.  Each threshold is one module constant: ``PSD_TOL`` for sign
decisions and ``RANK_REL_TOL`` for ranks, which the other modules share,
and the private Hermiticity and reconstruction gates.  The partial
transpose is implemented as an exact entry permutation (no floating-point
arithmetic), so applying it twice returns the input bit-for-bit; a
``BipartiteState`` forms its own once and caches it.  ``_pt_power``
gives every n-copy witness operator, n = 1 included: that cached
transpose, or its n-th power regrouped to (A..A : B..B), formed once per
state and copy count and never decomposed.  The library's one setting
is the ``seed`` argument (default 2024) of its randomized routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class Dims(NamedTuple):
    """Dimension split of a bipartite space: side A times side B."""

    dim_a: int
    dim_b: int

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b


# sign decisions: the PSD check of ``BipartiteState``, the NPT rule ``is_ppt``,
# the two-nonpositive rule ``_two_nonpositive_pt``, the witness values that
# routes and ``verify_certificate`` accept (below ``-PSD_TOL``), and the
# suites' spectrum checks
PSD_TOL = 1e-9
# relative singular-value cutoff of every rank decision (``_rank_cut``)
RANK_REL_TOL = 1e-8
# Hermiticity gate of ``BipartiteState`` and ``hermitian_eig``
_HERM_TOL = 1e-10
# reconstruction gate of ``hermitian_eig``
_SPEC_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Matrix shape inconsistent with the declared dimension split."""


class NumericalFailureError(RuntimeError):
    """A numerical routine failed to converge or a repair loop was exhausted."""


class InvariantViolationError(RuntimeError):
    """A provable bound was violated numerically; indicates an implementation bug."""


def _as_square(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_sides(dims: Dims) -> None:
    """Refuse a side below 1, which a product of the split alone lets through."""
    if min(dims) < 1:
        raise DimensionMismatchError(f"dims {tuple(dims)} must both be at least 1")


def _check_dims(mat: np.ndarray, dims: Dims) -> np.ndarray:
    _check_sides(dims)
    m = _as_square(mat)
    if m.shape[0] != dims.total:
        raise DimensionMismatchError(
            f"matrix of order {m.shape[0]} does not match dims {tuple(dims)}"
        )
    return m


@dataclass(frozen=True)
class BipartiteState:
    """A positive-semidefinite operator on an ``dim_a x dim_b`` product space.

    Hermiticity, positivity and a positive trace are checked at
    construction; normalization is deliberately not required.  The matrix
    is stored read-only, so its partial transpose ``_pt`` and that
    transpose's ascending spectrum are each formed at most once, on first
    use, and shared by every route, check, NPT filter and n-copy build.
    Likewise ``_pt_powers`` keeps the read-only n-copy transposes that
    ``_pt_power`` builds, n >= 2, ``_rank2_minima`` the rank-2 minima
    that ``witness._rank2_minimum`` finds, one per copy count, seed and
    sign, ``_mes_dual`` the one-copy MES dual bound (L, t) that
    ``witness._mes_dual`` finds, once it has, and ``_rank`` the numeric
    rank (``_numeric_rank``), ranked once.  No n-copy transpose is
    decomposed: the n-copy minimizer's starts come from the one-copy
    transpose's eigenvectors.  The checks use the module's ``_HERM_TOL``
    and ``PSD_TOL``.
    """

    mat: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        m = _check_dims(self.mat, self.dims).copy()
        if not np.isfinite(m).all():
            raise ValueError("state entries must be finite")
        herm_err = float(np.abs(m - m.conj().T).max())
        if herm_err > _HERM_TOL:
            raise ValueError(f"state is not Hermitian: max deviation {herm_err:.3e}")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -PSD_TOL:
            raise ValueError(f"state is not PSD: min eigenvalue {evals[0]:.3e}")
        if float(np.trace(m).real) <= 0.0:
            raise ValueError("state must have positive trace")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @cached_property
    def _pt(self) -> np.ndarray:
        pt = partial_transpose(self.mat, self.dims)
        pt.setflags(write=False)  # shared by every caller, like ``mat``
        return pt

    @cached_property
    def _pt_eigenvalues(self) -> np.ndarray:
        ev = np.linalg.eigvalsh(self._pt)
        ev.setflags(write=False)
        return ev

    @cached_property
    def _rank(self) -> int:
        return _numeric_rank(self.mat)

    @cached_property
    def _pt_powers(self) -> dict:  # copies -> (read-only n-copy transpose, its split)
        return {}

    @cached_property
    def _rank2_minima(self) -> dict:  # (copies, seed, sign) -> (value, read-only ansatz)
        return {}

    @cached_property
    def _mes_dual(self) -> list:  # [] until ``witness._mes_dual`` keeps its (L, t) here
        return []

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def normalized(self) -> "BipartiteState":
        return BipartiteState(self.mat / self.trace, self.dims)


@dataclass(frozen=True)
class PureState:
    """A unit vector on a bipartite product space (norm within 1e-10 of 1)."""

    vec: np.ndarray
    dims: Dims

    def __post_init__(self) -> None:
        _check_sides(self.dims)
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.size != self.dims.total:
            raise DimensionMismatchError(
                f"vector of length {v.size} does not match dims {tuple(self.dims)}"
            )
        if not np.isfinite(v).all():
            raise ValueError("state entries must be finite")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"vector norm {n} differs from 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (or vectors)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_transpose(mat: np.ndarray, dims: Dims) -> np.ndarray:
    """Transpose the A factor of a bipartite operator.

    Pure index permutation: block (i, j) of the result is block (j, i) of
    the input, where blocks are the ``dim_b x dim_b`` tiles indexed by A.
    Exact (bit-for-bit involutive), Hermiticity- and trace-preserving.
    """
    m = _check_dims(mat, dims)
    ma, mb = dims
    return m.reshape(ma, mb, ma, mb).transpose(2, 1, 0, 3).reshape(ma * mb, ma * mb)


def partial_trace(mat: np.ndarray, dims: Dims, keep: str = "A") -> np.ndarray:
    """Trace out one side; ``keep`` selects the surviving factor (``"A"`` or ``"B"``)."""
    m = _check_dims(mat, dims)
    ma, mb = dims
    t = m.reshape(ma, mb, ma, mb)
    if keep == "A":
        return np.einsum("injn->ij", t)
    if keep == "B":
        return np.einsum("mkml->kl", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eig(mat: np.ndarray) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix with quality checks.

    Raises ``DimensionMismatchError``/``ValueError`` for invalid input,
    non-finite entries included, and ``NumericalFailureError`` if the
    solver does not converge or the reconstruction drifts beyond
    ``_SPEC_TOL``, both gates scaled by ``max(max|m|, 1)``.
    """
    m = _as_square(mat)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    herm_err = float(np.abs(m - m.conj().T).max())
    scale = max(float(np.abs(m).max()), 1.0)
    if herm_err > _HERM_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max deviation {herm_err:.3e}")
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    recon = (evecs * evals) @ evecs.conj().T
    if float(np.abs(recon - m).max()) > _SPEC_TOL * scale:
        raise NumericalFailureError("eigendecomposition reconstruction off tolerance")
    return SpectralData(eigenvalues=evals, eigenvectors=evecs)


def _matricize(vec: np.ndarray, dims: Dims) -> np.ndarray:
    """The ``dim_a x dim_b`` coefficient matrix of a nonzero bipartite vector."""
    _check_sides(dims)
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size != dims.total:
        raise DimensionMismatchError(
            f"vector of length {v.size} does not match dims {tuple(dims)}"
        )
    if not np.any(v):
        raise ValueError("cannot Schmidt-decompose the zero vector")
    return v.reshape(dims.dim_a, dims.dim_b)


def schmidt_decompose(vec: np.ndarray, dims: Dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a bipartite vector.

    Returns ``(coeffs, left, right)`` with descending nonnegative
    coefficients and orthonormal local vectors as columns, so that
    ``vec = sum_k coeffs[k] * kron(left[:, k], right[:, k])``.
    """
    u, s, vh = np.linalg.svd(_matricize(vec, dims), full_matrices=False)
    # right Schmidt vectors are the rows of vh, unconjugated
    return s, u, vh.T


def _rank_cut(s: np.ndarray) -> int:
    """The one rank rule: descending singular values above ``RANK_REL_TOL``
    times the largest; 0 for a zero or empty matrix."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def _numeric_rank(mat: np.ndarray) -> int:
    """Rank of a matrix by ``_rank_cut``, from its singular values alone."""
    return _rank_cut(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False))


def schmidt_rank(vec: np.ndarray, dims: Dims) -> int:
    """Number of Schmidt coefficients above ``RANK_REL_TOL`` times the largest.

    The Schmidt coefficients are the singular values of the ``dim_a x
    dim_b`` matricization, so this is the rank rule of
    ``rank_kernel_range`` applied to that matrix, computed without the
    local Schmidt vectors.  Raises like ``schmidt_decompose`` on a vector
    of the wrong length or the zero vector.
    """
    return _numeric_rank(_matricize(vec, dims))


def rank_kernel_range(mat: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Numeric rank plus orthonormal kernel and range bases (as columns).

    Rank counts singular values above ``RANK_REL_TOL * sigma_max`` (0 for a
    zero matrix), the same rule ``schmidt_rank`` applies; a caller that
    needs the rank alone gets it from the singular values without the
    vectors.  The kernel has ``cols - rank`` columns so the rank-nullity
    identity holds exactly.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    u, s, vh = np.linalg.svd(m)
    rank = _rank_cut(s)
    kernel = vh[rank:, :].conj().T
    range_basis = u[:, :rank]
    return rank, kernel, range_basis


# most copies any tensor power takes, and so any n-copy witness search or bracket
MAX_COPIES = 2

# largest admissible tensor-power order (a 6561 x 6561 matrix); with the copy cap
# this still guards input from outside, e.g. a 10x10 state at n = 2
_POWER_DIM_CAP = 6561


def _check_copy_count(n: int, name: str = "copy count") -> int:
    if not 1 <= n <= MAX_COPIES:
        raise ValueError(f"{name} must lie in 1..{MAX_COPIES}, got {n}")
    return n


def regroup_tensor_power(mat: np.ndarray, dims: Dims, n: int) -> tuple[np.ndarray, Dims]:
    """n-fold tensor power of a bipartite operator, regrouped to (A..A : B..B).

    The Kronecker power orders indices (a1 b1 a2 b2 ...); the result is
    reindexed so all A factors come first.  The reindexing is an exact
    permutation of entries.  The copy count must lie in ``1..MAX_COPIES``.
    """
    m = _check_dims(mat, dims)
    _check_copy_count(n)
    if dims.total**n > _POWER_DIM_CAP:
        raise ValueError(
            f"tensor power of order {dims.total}^{n} exceeds the dimension cap"
            f" {_POWER_DIM_CAP}"
        )
    if n == 1:
        return m.copy(), dims
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    axes_one_side = list(dims) * n
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    full_perm = perm + [p + 2 * n for p in perm]
    out = out.reshape(axes_one_side + axes_one_side).transpose(full_perm)
    big = _power_dims(dims, n)
    return out.reshape(big.total, big.total), big


def _power_dims(dims: Dims, n: int) -> Dims:
    """The (A..A : B..B) split of an n-copy operator on ``dims``."""
    return Dims(dims.dim_a**n, dims.dim_b**n)


def _pt_power(state: BipartiteState, n: int) -> tuple[np.ndarray, Dims]:
    """Partial transpose of the state's regrouped n-th power, and its split.

    The one source of every n-copy witness operator, read-only and formed
    at most once per state and copy count: at n = 1 the state's cached
    ``_pt``, and at n >= 2 the regrouped power of ``_pt``, which equals the
    transpose of the regrouped power bit for bit, kept in ``_pt_powers``.
    """
    if n == 1:
        return state._pt, state.dims
    powers = state._pt_powers
    if n not in powers:
        pt, dims = regroup_tensor_power(state._pt, state.dims, n)
        pt.setflags(write=False)
        powers[n] = pt, dims
    return powers[n]


def min_pt_eigenvalue(state: BipartiteState) -> float:
    """Smallest eigenvalue of the partial transpose (the state's cached spectrum)."""
    return float(state._pt_eigenvalues[0])


def is_ppt(state: BipartiteState) -> bool:
    """True when the partial transpose has no eigenvalue below ``-PSD_TOL``.

    The one NPT rule: every filter, route and build that asks whether a
    state is NPT asks this, on the state's cached spectrum.
    """
    return min_pt_eigenvalue(state) >= -PSD_TOL


def _two_nonpositive_pt(state: BipartiteState) -> bool:
    """The two-qutrit theorem's hypothesis, on the state's cached PT spectrum.

    The smallest eigenvalue lies below ``-PSD_TOL`` (the state is NPT, as
    ``is_ppt`` decides) and the second smallest is at most ``PSD_TOL``.
    """
    ev = state._pt_eigenvalues
    return bool(ev[0] < -PSD_TOL and ev[1] <= PSD_TOL)
