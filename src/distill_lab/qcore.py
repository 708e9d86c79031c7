"""Dense complex linear algebra for bipartite quantum states.

Everything here is a pure function of numpy arrays plus an explicit
dimension split ``Dims(dim_a, dim_b)``.  States are *not* assumed to be
trace-normalized; rank decisions therefore use relative singular-value
thresholds.  The partial transpose is implemented as an exact entry
permutation (no floating-point arithmetic), so applying it twice returns
the input bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds and optimizer budget shared across the library.

    ``herm_tol``/``psd_tol`` gate state validation, ``spec_tol`` gates
    eigendecomposition quality, and ``rank_rel_tol`` is the relative
    singular-value cutoff for rank decisions.  ``opt_restarts`` budgets
    the product-vector search, the nudges of the two-nonpositive route and
    the draws of the rank-raising construction; ``opt_step_tol`` is the
    product-vector search's stop rule, and ``opt_max_iters`` caps its
    iterations and the sweeps of the rank-2 minimizer, whose five starts
    and relative stop are fixed.  ``seed`` makes every randomized routine
    reproducible.
    """

    herm_tol: float = 1e-10
    psd_tol: float = 1e-9
    spec_tol: float = 1e-10
    rank_rel_tol: float = 1e-8
    opt_restarts: int = 64
    opt_max_iters: int = 500
    opt_step_tol: float = 1e-12
    seed: int = 2024

    def __post_init__(self) -> None:
        for name in ("herm_tol", "psd_tol", "spec_tol", "rank_rel_tol", "opt_step_tol"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if self.opt_restarts < 1 or self.opt_max_iters < 1:
            raise ValueError("optimizer budget must be positive")
        # restart r of each route seeds from derive_seed(seed, k * 1_000_000 + r),
        # k = 0..3, so a larger budget would make the routes share streams
        if self.opt_restarts >= 1_000_000:
            raise ValueError(f"opt_restarts must be below 1000000, got {self.opt_restarts}")


DEFAULT_TOL = ToleranceConfig()


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


def _check_dims(mat: np.ndarray, dims: Dims) -> np.ndarray:
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
    is stored read-only, so the ascending spectrum of its partial
    transpose is computed at most once per state, on first use, and shared
    by ``min_pt_eigenvalue``, ``is_ppt`` and every NPT filter or check.
    """

    mat: np.ndarray
    dims: Dims
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = _check_dims(self.mat, self.dims).copy()
        if not np.isfinite(m).all():
            raise ValueError("state entries must be finite")
        herm_err = float(np.abs(m - m.conj().T).max())
        if herm_err > self.tol.herm_tol:
            raise ValueError(f"state is not Hermitian: max deviation {herm_err:.3e}")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -self.tol.psd_tol:
            raise ValueError(f"state is not PSD: min eigenvalue {evals[0]:.3e}")
        if float(np.trace(m).real) <= 0.0:
            raise ValueError("state must have positive trace")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @cached_property
    def _pt_eigenvalues(self) -> np.ndarray:
        ev = np.linalg.eigvalsh(partial_transpose(self.mat, self.dims))
        ev.setflags(write=False)  # shared by every caller, like ``mat``
        return ev

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def normalized(self) -> "BipartiteState":
        return BipartiteState(self.mat / self.trace, self.dims, self.tol)


@dataclass(frozen=True)
class PureState:
    """A vector on a bipartite product space, unit norm unless flagged."""

    vec: np.ndarray
    dims: Dims
    unnormalized: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.size != self.dims.total:
            raise DimensionMismatchError(
                f"vector of length {v.size} does not match dims {tuple(self.dims)}"
            )
        if not np.isfinite(v).all():
            raise ValueError("state entries must be finite")
        n = float(np.linalg.norm(v))
        if n == 0.0:
            raise ValueError("zero vector is not a state")
        if not self.unnormalized and abs(n - 1.0) > 1e-10:
            raise ValueError(f"vector norm {n} differs from 1; flag unnormalized=True")
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


def hermitian_eig(mat: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix with quality checks.

    Raises ``DimensionMismatchError``/``ValueError`` for invalid input and
    ``NumericalFailureError`` if the solver does not converge or the
    reconstruction drifts beyond ``spec_tol``.
    """
    m = _as_square(mat)
    herm_err = float(np.abs(m - m.conj().T).max())
    scale = max(float(np.abs(m).max()), 1e-300)
    if herm_err > cfg.herm_tol * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian: max deviation {herm_err:.3e}")
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    recon = (evecs * evals) @ evecs.conj().T
    if float(np.abs(recon - m).max()) > cfg.spec_tol * max(scale, 1.0):
        raise NumericalFailureError("eigendecomposition reconstruction off tolerance")
    return SpectralData(eigenvalues=evals, eigenvectors=evecs)


def _matricize(vec: np.ndarray, dims: Dims) -> np.ndarray:
    """The ``dim_a x dim_b`` coefficient matrix of a nonzero bipartite vector."""
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


def _rank_cut(s: np.ndarray, cfg: ToleranceConfig) -> int:
    """The one rank rule: descending singular values above ``rank_rel_tol``
    times the largest; 0 for a zero or empty matrix."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_rel_tol * s[0]))


def _numeric_rank(mat: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of a matrix by ``_rank_cut``, from its singular values alone."""
    return _rank_cut(np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False), cfg)


def schmidt_rank(vec: np.ndarray, dims: Dims, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of Schmidt coefficients above ``rank_rel_tol`` times the largest.

    The Schmidt coefficients are the singular values of the ``dim_a x
    dim_b`` matricization, so this is the rank rule of
    ``rank_kernel_range`` applied to that matrix, computed without the
    local Schmidt vectors.  Raises like ``schmidt_decompose`` on a vector
    of the wrong length or the zero vector.
    """
    return _numeric_rank(_matricize(vec, dims), cfg)


def rank_kernel_range(
    mat: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[int, np.ndarray, np.ndarray]:
    """Numeric rank plus orthonormal kernel and range bases (as columns).

    Rank counts singular values above ``rank_rel_tol * sigma_max`` (0 for a
    zero matrix), the same rule ``schmidt_rank`` applies; a caller that
    needs the rank alone gets it from the singular values without the
    vectors.  The kernel has ``cols - rank`` columns so the rank-nullity
    identity holds exactly.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    u, s, vh = np.linalg.svd(m)
    rank = _rank_cut(s, cfg)
    kernel = vh[rank:, :].conj().T
    range_basis = u[:, :rank]
    return rank, kernel, range_basis


# most copies any tensor power takes, and so any n-copy witness search or bracket
MAX_COPIES = 2

# largest admissible tensor-power order (a 6561 x 6561 matrix); with the copy cap
# this still guards input from outside, e.g. a 10x10 state at n = 2
_POWER_DIM_CAP = 6561


def _check_copy_count(n: int) -> None:
    if not 1 <= n <= MAX_COPIES:
        raise ValueError(f"copy count must lie in 1..{MAX_COPIES}, got {n}")


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
    ma, mb = dims
    axes_one_side = [ma, mb] * n
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    full_perm = perm + [p + 2 * n for p in perm]
    out = out.reshape(axes_one_side + axes_one_side).transpose(full_perm)
    big = Dims(ma**n, mb**n)
    return out.reshape(big.total, big.total), big


def tensor_power_bipartite(
    state: BipartiteState, n: int, cfg: ToleranceConfig = DEFAULT_TOL
) -> BipartiteState:
    """``state^(x n)`` as a bipartite state with parties grouped A..A : B..B."""
    mat, big = regroup_tensor_power(state.mat, state.dims, n)
    return BipartiteState(mat, big, cfg)


def min_pt_eigenvalue(state: BipartiteState) -> float:
    """Smallest eigenvalue of the partial transpose (the state's cached spectrum)."""
    return float(state._pt_eigenvalues[0])


def is_ppt(state: BipartiteState, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the partial transpose has no eigenvalue below ``-psd_tol``."""
    return min_pt_eigenvalue(state) >= -cfg.psd_tol
