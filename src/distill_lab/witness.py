"""Construction and verification of 1-distillability certificates.

A certificate is a Schmidt-rank-at-most-2 vector whose quadratic form
against the n-copy partial transpose of a state, n = 1 included, is strictly
negative; ``qcore._pt_power`` builds it from the state's cached ``_pt``.
Three constructive routes (n = 1 only) are implemented besides the
generic rank-2 minimizer:

* ``submatrix2x2``   -- a principal 2x2 minor of the partial transpose
  with negative determinant pins an NPT 2xN cut; its bottom eigenvector
  is a witness.
* ``twoNonpositive`` -- two nonpositive eigenvalues of the partial
  transpose of a two-qutrit state combine into a witness with a singular
  3x3 matricization.
* ``kernelProduct``  -- a product vector in the kernel reduces, after a
  local rotation, to one of the two routes above; the product search
  (``product_vector_in_subspace``) runs seeded restarts of alternating SVD
  steps one after another.

Every route returns ``None`` when its hypothesis is not met.  On a
two-qutrit NPT state of rank at most 4, whose kernel provably holds a
product vector, the three routes always yield a witness, so there
``certify_1_distillable`` raises ``NumericalFailureError`` if all decline.

Every n-copy rank-2 minimum, here and in ``multicopy``, is
``_rank2_minimum``'s, which picks the starts by copy count and keeps it.
At one copy and 3x3, ``_mes_dual_bound`` gives a proven lower bound on that
minimum, which lets ``certify_1_distillable`` prove a ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qcore import (
    PSD_TOL,
    RANK_REL_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    NumericalFailureError,
    PureState,
    SpectralData,
    _numeric_rank,
    _power_dims,
    _pt_power,
    _two_nonpositive_pt,
    hermitian_eig,
    is_ppt,
    rank_kernel_range,
    schmidt_rank,
)
from .rng import SplitMix64, _complex_normals, _phase_fixed_qr, derive_seed

ROUTE_SUBMATRIX = "submatrix2x2"
ROUTE_TWO_NONPOSITIVE = "twoNonpositive"
ROUTE_KERNEL_PRODUCT = "kernelProduct"
ROUTE_OPTIMIZER = "optimizer"
ROUTE_BOTTOM_EIGENVECTOR = "bottomEigenvector"
# every route a certificate can name
_ROUTES = (ROUTE_SUBMATRIX, ROUTE_TWO_NONPOSITIVE, ROUTE_KERNEL_PRODUCT, ROUTE_OPTIMIZER,
           ROUTE_BOTTOM_EIGENVECTOR)

# determinants more negative than this qualify in the 2x2 scan; far above
# float noise on exactly-PSD inputs, far below any usable violation
_DET_TOL = 1e-16
# restarts of the product-vector search and nudges of the two-nonpositive route.
# Restart r of a routine called with ``seed`` draws from
# derive_seed(seed, k * 1_000_000 + r): k = 0 for the rank-2 minimizer's Haar
# starts (none at 3x3), 1 for the nudges, 2 for the product search and 4 for
# the product search behind the n = 2 minimizer's lifted starts (none at 3x3;
# 3 is retired), so no two routines share a stream while this stays below 1_000_000
_RESTARTS = 64


@dataclass(frozen=True)
class Rank2Ansatz:
    """A Schmidt-rank-<=2 vector as local 2-frames plus 2x2 coefficients."""

    frame_a: np.ndarray
    frame_b: np.ndarray
    coeff: np.ndarray

    def __post_init__(self) -> None:
        fa = np.asarray(self.frame_a, dtype=complex)
        fb = np.asarray(self.frame_b, dtype=complex)
        c = np.asarray(self.coeff, dtype=complex)
        if fa.ndim != 2 or fa.shape[1] != 2 or fb.ndim != 2 or fb.shape[1] != 2:
            raise DimensionMismatchError("frames must have two columns")
        if c.shape != (2, 2):
            raise DimensionMismatchError("coeff must be 2x2")
        for name, f in (("frame_a", fa), ("frame_b", fb)):
            err = float(np.abs(f.conj().T @ f - np.eye(2)).max())
            if err > 1e-10:
                raise ValueError(f"{name} is not an isometry (deviation {err:.3e})")
        if abs(np.linalg.norm(c) - 1.0) > 1e-10:
            raise ValueError("coeff must have unit Frobenius norm")
        # read-only copies: one ansatz may be handed to several callers
        for name, arr in (("frame_a", fa), ("frame_b", fb), ("coeff", c)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def vector(self) -> np.ndarray:
        """The represented unit vector sum_ij coeff[i,j] a_i (x) b_j."""
        return np.kron(self.frame_a, self.frame_b) @ self.coeff.reshape(-1)


@dataclass(frozen=True)
class WitnessCertificate:
    """A verified Schmidt-rank-<=2 witness and the route that produced it."""

    psi: PureState
    value: float
    copies: int
    route: str
    schmidt_rank: int
    seed: int
    delta: Optional[float] = None


@dataclass(frozen=True)
class ScanHit:
    """Result of the 2x2 principal-minor scan."""

    blocks: tuple[int, int]
    indices: tuple[int, int]
    determinant: float
    certificate: WitnessCertificate


def pt_quadratic_form(
    psi: np.ndarray, state: BipartiteState, copies: int = 1
) -> float:
    """Value of the witness form <psi| (state^(x n))^Gamma |psi>."""
    pt, _ = _pt_power(state, copies)
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != pt.shape[0]:
        raise DimensionMismatchError(
            f"witness length {v.size} does not match {copies}-copy dimension {pt.shape[0]}"
        )
    return float(np.real(v.conj() @ pt @ v))


# starts of the rank-2 minimizer on a bare matrix: the bottom eigenvector's
# Schmidt frames and four more, fixed at 3x3 and Haar elsewhere; at two
# copies ``_rank2_minimum`` runs three lifted starts instead (``_lifted_minimum``)
_RANK2_STARTS = 5
# the four fixed frames at 3x3: orthonormal bases of the complements of e0, e1,
# e2 and (1,1,1)/sqrt3.  The coordinate complements alone miss the minimum's
# basin on 20 of the 24 rho +-PT grid operators; the last frame reaches it
_QUTRIT_FRAMES = np.array(
    [
        [[0, 0], [1, 0], [0, 1]],
        [[1, 0], [0, 0], [0, 1]],
        [[1, 0], [0, 1], [0, 0]],
        [[1 / math.sqrt(2), 1 / math.sqrt(6)], [-1 / math.sqrt(2), 1 / math.sqrt(6)],
         [0, -2 / math.sqrt(6)]],
    ],
    dtype=complex,
)
# y starts of the width-1 product search behind the lifted starts: at 3x3 the
# basis vectors and (1, w^i, w^(i^2))/sqrt3, w = exp(2 pi i/3), i = 0, 1, 2;
# the basis and (1,1,1)/sqrt3 alone miss the n = 2 minimum's basin on 4 of 212
# seeded and grid states.  Elsewhere ``_PRODUCT_STARTS`` seeded ones
_QUTRIT_PRODUCT_STARTS = np.vstack([
    np.eye(3),
    np.exp(2j * math.pi / 3 * np.array([[0, 0, 0], [0, 1, 1], [0, 2, 1]])) / math.sqrt(3),
])[:, :, None]
_PRODUCT_STARTS = 8
# a rank-2 start stops once a sweep gains at most this fraction of max|eig X|;
# relative, so that minimizing c*X takes the same sweeps as minimizing X
_RANK2_REL_STOP = 1e-7
# most sweeps of a rank-2 start, and most steps of a product-search restart
_OPT_MAX_ITERS = 500
# a product-search restart stops once a step gains at most this much
_PRODUCT_STEP_TOL = 1e-12


def _bottom(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpair of each row's hermitized compression ``comp``."""
    w, v = np.linalg.eigh((comp + comp.conj().transpose(0, 2, 1)) / 2)
    return w[:, 0], v[:, :, 0]


def _als_sweep(
    m: np.ndarray, dims: Dims, fb: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One block ALS sweep over psi = vec(A B^T) for each row's frame ``fb``.

    The frames have width w = ``fb.shape[2]``: 2 for the rank-2 minimizer,
    1 for the product search.  With B an isometry, psi = (I (x) B) vec(A)
    has the norm of A, so the best A is the bottom eigenvector of the
    w*dA x w*dA compression (I (x) B)^H X (I (x) B); its QR factor is the
    new frame ``fa``, and B is updated the same way against A (x) I.  Both
    compressions are contracted from X read as a (dA, dB, dA, dB) tensor;
    no I (x) B or A (x) I is formed.  Returns the value after the sweep,
    which never exceeds the value before it, and the new frames.
    """
    ma, mb = dims
    rows, w = len(fb), fb.shape[2]
    # sum_jl conj(B[j,p]) X[ij,kl] B[l,q] at row ip, column kq: over j for each i, then l
    t = fb.conj().transpose(0, 2, 1).reshape(-1, mb) @ m.reshape(ma, mb, -1)
    comp = (t.reshape(ma, rows, w * ma, mb) @ fb).reshape(ma, rows, w, w * ma)
    a = _bottom(comp.transpose(1, 0, 2, 3).reshape(rows, w * ma, w * ma))[1]
    fa = np.linalg.qr(a.reshape(rows, ma, w))[0]
    # sum_ik conj(A[i,p]) X[ij,kl] A[k,q] at row pj, column ql: over i, then over k
    t = fa.conj().transpose(0, 2, 1).reshape(-1, ma) @ m.reshape(ma, -1)
    t = t.reshape(rows, w * mb, ma, mb).transpose(0, 1, 3, 2).reshape(rows, -1, ma)
    comp = (t @ fa).reshape(rows, w * mb, mb, w)
    values, b = _bottom(comp.transpose(0, 1, 3, 2).reshape(rows, w * mb, w * mb))
    fb = np.linalg.qr(b.reshape(rows, w, mb).transpose(0, 2, 1))[0]
    return values, (fa, fb)


def _descend(
    m: np.ndarray, dims: Dims, fb: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run stacked ALS starts from the frames ``fb`` until each one stops.

    Each sweep advances every start still running.  A start leaves the
    stack, keeping its last frames, after its first sweep that gains at
    most ``tol``, or after ``_OPT_MAX_ITERS`` sweeps.  From the second
    sweep on, every start still running then tries one extrapolated frame
    (Rajih, Comon & Harshman, SIAM J. Matrix Anal. Appl. 30, 1128 (2008)):
    its frame B before the sweep is aligned to its frame B' after it by
    the polar factor U of B^H B', and the trial qr(B' + beta (B' - B U))
    gets a sweep of its own.  That sweep replaces the plain one only if
    its value is lower, and then beta grows by 1.5, up to 8; otherwise
    beta halves, down to 1/4.  beta starts at 1 for every start.  So no
    start's value rises beyond rounding, and a start that stops never
    pays for a trial.  Returns each start's last value and its frames
    ``fa`` and ``fb``.
    """
    starts, ma, w = len(fb), dims.dim_a, fb.shape[2]
    # each sweep computes fa from fb alone; fa only keeps the frames of stopped starts
    fa = np.empty((starts, ma, w), dtype=complex)
    fb = fb.copy()
    vals = np.empty(starts)
    rows, prev, beta = np.arange(starts), np.inf, np.ones(starts)
    b_in = fb  # the running starts' frames, in start order
    for sweep in range(_OPT_MAX_ITERS):
        values, (a, b) = _als_sweep(m, dims, b_in)
        # a NaN gain compares false, so that start keeps running
        go_on = ~(prev - values <= tol)
        # written back by start index only when a start leaves, or at the last
        # sweep: indexing the full arrays on every sweep was a few percent slower
        if not go_on.all() or sweep == _OPT_MAX_ITERS - 1:
            vals[rows], fa[rows], fb[rows] = values, a, b
            rows, values, a, b = rows[go_on], values[go_on], a[go_on], b[go_on]
            b_in, beta = b_in[go_on], beta[go_on]
            if not rows.size:
                break
        if 0 < sweep < _OPT_MAX_ITERS - 1:
            # the polar factor of B^H B' aligns the old frames B to the new B'
            left, _, right = np.linalg.svd(b_in.conj().transpose(0, 2, 1) @ b)
            trial = np.linalg.qr(b + beta[:, None, None] * (b - b_in @ (left @ right)))[0]
            t_values, (t_a, t_b) = _als_sweep(m, dims, trial)
            keep = t_values < values
            values = np.where(keep, t_values, values)
            a, b = (np.where(keep[:, None, None], t, f) for t, f in ((t_a, a), (t_b, b)))
            beta = np.where(keep, np.minimum(1.5 * beta, 8.0), np.maximum(beta / 2, 0.25))
        prev, b_in = values, b
    return vals, fa, fb


def _schmidt_frame(mat: np.ndarray) -> np.ndarray:
    """The two leading right Schmidt vectors, as columns, of the vector of coefficients ``mat``."""
    # rows of vh, unconjugated
    return np.linalg.svd(mat)[2][:2].T


def _rank2_from_starts(
    m: np.ndarray, dims: Dims, fb: np.ndarray, scale: float
) -> tuple[float, Rank2Ansatz]:
    """The best of the width-2 starts ``fb``, each stopped relative to ``scale``.

    The value is recomputed from the 4x4 compression onto the best start's
    frames, the earliest start winning ties.
    """
    vals, fa, fb = _descend(m, dims, fb, _RANK2_REL_STOP * scale)
    best = int(np.argmin(vals))
    w_op = np.kron(fa[best], fb[best])
    v4 = _bottom((w_op.conj().T @ m @ w_op)[None])[1][0]
    ansatz = Rank2Ansatz(fa[best], fb[best], v4.reshape(2, 2))
    psi = ansatz.vector()
    value = float(np.real(psi.conj() @ m @ psi))
    return value, ansatz


def min_rank2_expectation(x: np.ndarray, dims: Dims, seed: int = 2024) -> tuple[float, Rank2Ansatz]:
    """Minimize <psi|X|psi> over unit vectors of Schmidt rank at most two.

    Block alternating least squares over psi = vec(A B^T), A of shape
    dA x 2 and B of shape dB x 2: with B an isometry the best A is the
    bottom eigenvector of a 2dA x 2dA compression of X, and B is updated
    the same way, so no sweep raises the value.  Each compression is
    contracted straight from X; no I (x) B is formed.  Five starts run as
    one stack, each sweep advancing every start still running: B from the
    two leading Schmidt frames of the bottom eigenvector of X, and four
    more.  At 3x3 these are ``_QUTRIT_FRAMES``, spanning the complements of
    e0, e1, e2 and (1,1,1)/sqrt3, so ``seed`` is not read; elsewhere they
    are Haar-random frames drawn from ``derive_seed(seed, r)``, r = 0..3.
    A start leaves the stack, keeping its last frames, after its first
    sweep that gains at most 1e-7 * max|eig X|, or after
    ``_OPT_MAX_ITERS`` sweeps; the restart budget ``_RESTARTS`` does not
    apply here.  From the second sweep on, each start still running tries
    one extrapolated frame, kept only if its sweep is lower
    (``_descend``).  The stack gives the values of running the starts one
    after another, in about half the time at 9x9.  The value is
    recomputed from the 4x4 compression onto the best start's frames, the
    earliest start winning ties.  The result never undercuts the true
    minimum over all unit vectors, and no global-optimality claim is made.

    Every call computes; ``_rank2_minimum`` keeps a state's minima.
    """
    m = np.asarray(x, dtype=complex)
    ma, mb = dims
    if m.shape != (dims.total, dims.total):
        raise DimensionMismatchError(
            f"matrix of shape {m.shape} does not match dims {tuple(dims)}"
        )
    if min(ma, mb) < 2:
        raise DimensionMismatchError("rank-2 ansatz needs both local dimensions >= 2")
    spec = hermitian_eig(m)
    fb = np.empty((_RANK2_STARTS, mb, 2), dtype=complex)
    fb[0] = _schmidt_frame(spec.eigenvectors[:, 0].reshape(ma, mb))
    if (ma, mb) == (3, 3):
        fb[1:] = _QUTRIT_FRAMES
    else:
        seeds = [derive_seed(seed, r) for r in range(_RANK2_STARTS - 1)]
        fb[1:] = _phase_fixed_qr(_complex_normals(seeds, 2 * mb)[0].reshape(-1, mb, 2))
    return _rank2_from_starts(m, dims, fb, float(np.abs(spec.eigenvalues).max()))


def _product_minimum(
    p: np.ndarray, dims: Dims, seed: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unit x and y whose product x (x) y has the smallest <xy|P|xy> found.

    The ALS loop of ``_descend`` at frame width 1, extrapolated sweeps
    included.  At 3x3 the y starts are ``_QUTRIT_PRODUCT_STARTS``, so
    ``seed`` is not read; elsewhere ``_PRODUCT_STARTS`` of them, start r
    drawn from ``derive_seed(seed, 4_000_000 + r)``.  Each stops after a
    sweep that gains at most ``tol``.  The best start wins, the earliest on
    ties.
    """
    if tuple(dims) == (3, 3):
        y0 = _QUTRIT_PRODUCT_STARTS
    else:
        seeds = [derive_seed(seed, 4_000_000 + r) for r in range(_PRODUCT_STARTS)]
        y0 = _phase_fixed_qr(_complex_normals(seeds, dims.dim_b)[0].reshape(-1, dims.dim_b, 1))
    vals, fa, fb = _descend(p, dims, y0, tol)
    best = int(np.argmin(vals))
    return fa[best, :, 0], fb[best, :, 0]


def _two_copy_frame(spec: SpectralData, dims: Dims, sign: int) -> np.ndarray:
    """The eigenvector start frame of X = sign * P^(x 2), regrouped, from the spectrum of P.

    With u and w P's bottom and top eigenvectors, the frame for sign +1 is
    the Schmidt frame of u (x) w - w (x) u, regrouped, whose value
    lambda_min * lambda_max is X's bottom eigenvalue when P is NPT.  For
    sign -1, X's bottom eigenvector is t (x) t, t P's eigenvector of
    largest |eigenvalue|; with v1, v2 the leading right Schmidt vectors of
    t, the frame is [v1 (x) v1, (v1 (x) v2 + v2 (x) v1)/sqrt2], whose
    symmetric second column settles t (x) t's equal Schmidt values
    s1 s2 = s2 s1.
    """
    if sign > 0:
        u, w = (spec.eigenvectors[:, k].reshape(dims) for k in (0, -1))
        # kron of the coefficient matrices is the regrouped kron of the vectors
        return _schmidt_frame(np.kron(u, w) - np.kron(w, u))
    t = spec.eigenvectors[:, int(np.argmax(np.abs(spec.eigenvalues)))]
    v1, v2 = _schmidt_frame(t.reshape(dims)).T
    return np.column_stack([np.kron(v1, v1), (np.kron(v1, v2) + np.kron(v2, v1)) / math.sqrt(2)])


def _lifted_minimum(
    x: np.ndarray,
    p: np.ndarray,
    dims: Dims,
    one_copy: tuple[float, Rank2Ansatz],
    seed: int,
    sign: int,
) -> tuple[float, Rank2Ansatz]:
    """Rank-2 minimum of X = sign * P^(x 2), regrouped, from the lifted one-copy minimum.

    ``one_copy`` = (v, ansatz) is the rank-2 minimum of sign * P, P on
    ``dims`` and sign = +-1.  For the product x (x) y with p = <xy|P|xy>,
    the vector psi (x) xy has the value v * p, so the product search
    (``_product_minimum``) minimizes P when v >= 0 and -P when v < 0.  Three
    starts run through the same stacked loop as ``min_rank2_expectation``:
    ``_two_copy_frame``, kron(B, y) and kron(y, B), B the one-copy
    ``frame_b``.  All come from P alone, 9x9 at 3x3, whose one
    ``hermitian_eig`` also gives the stop scale max|eig P|^2 = max|eig X|;
    X is never decomposed, and at 3x3 no draw is made.  The first sweep
    against kron(B, y) finds A at least as good as kron(A1, x), so the
    result never exceeds v * p beyond rounding.  ``_rank2_minimum`` is the
    one caller.
    """
    v, ansatz = one_copy
    spec = hermitian_eig(p)
    scale = float(np.abs(spec.eigenvalues).max())
    target = p if v >= 0 else -p
    y = _product_minimum(target, dims, seed, _RANK2_REL_STOP * scale)[1][:, None]
    b = ansatz.frame_b
    fb = np.stack([_two_copy_frame(spec, dims, sign), np.kron(b, y), np.kron(y, b)])
    return _rank2_from_starts(np.asarray(x, dtype=complex), _power_dims(dims, 2), fb, scale**2)


# the MES dual's operator Z = I - (3/2)|Phi><Phi|, Phi = (|00> + |11> + |22>)/sqrt3
_MES_Z = np.eye(9) - 0.5 * np.kron(np.eye(3).reshape(9, 1), np.eye(3).reshape(1, 9))
# a weight |<Phi|u>|^2 at or below this means Phi misses the eigenvector u: rounding
# leaves about 1e-30 where Phi is orthogonal to u (at b = 1), and treating a true
# weight w as missed moves L by about sqrt(w) times the eigenvalue gap.  At b = 1
# this finds the kink in one step; kept as a pole, it took about 50 Illinois steps
_UNSEEN = 1e-24
# two eigenvalues of X/max|eig X| closer than this count as one
_TIE = 1e-15
# L's rounding allowance, relative to max|eig X| + t, the norm bound of X - tZ (|Z| = 1):
# eigvalsh's computed bottom eigenvalue is exact for a matrix within about 9u|X - tZ|,
# 2e-15 relative, of the X - tZ it was given; 1e-13 also covers forming X - tZ and a
# minimizer's rounding in <psi|X|psi>
_DUAL_SLACK = 1e-13
# Illinois steps of the secular solve, which stops once its bracket is this narrow
# relative to the gap between X's two bottom eigenvalues
_SECULAR_STEPS = 100
_SECULAR_TOL = 1e-14


def _mes_dual_bound(x: np.ndarray) -> tuple[float, float]:
    """A proven lower bound L, and its t, on <psi|X|psi> over unit psi of Schmidt rank <= 2 at 3x3.

    A unit psi of Schmidt rank <= 2 has |<Phi|psi>|^2 <= 2/3 for the
    maximally entangled Phi, so Z = I - (3/2)|Phi><Phi| has <psi|Z|psi> >= 0
    (Terhal & P. Horodecki, PRA 61, 040301(R) (2000)), and <psi|X|psi> >=
    lambda_min(X - tZ) for every t >= 0.  That bound is concave in t, with
    slope (3/2)|<Phi|v>|^2 - 1 at the bottom eigenvector v of X - tZ.  Since
    X - tZ = X - tI + s|Phi><Phi|, s = 3t/2, is a rank-one update, one
    ``hermitian_eig`` of X = sum_i d_i u_i u_i^H gives the best t (Bunch,
    Nielsen & Sorensen, Numer. Math. 31, 31 (1978)).  With w_i =
    |<Phi|u_i>|^2, g(mu) = sum_i w_i / (d_i - mu) and d_0 <= d_1 <= ... , the
    update's bottom eigenvalue is the mu in (d_0, d_1) with 1 + s g(mu) = 0,
    its eigenvector has overlap g^2/g' with Phi, and the best t solves
    g^2 = (2/3) g' there, t = -2/(3 g).  If w_0 <= 2/3 the slope starts
    nonpositive and t = 0.  An eigenvalue that Phi misses (w_i at most
    ``_UNSEEN``) stays an eigenvalue of the update, so when d_1 is one the
    bottom eigenvalue stops at d_1, and if the overlap still exceeds 2/3
    there the best t is that kink's (every ``DEFAULT_GRID`` point at b = 1).
    The root is taken by Illinois steps on the secular condition times the
    squared distances to the poles at d_0 and at a seen d_1, smooth on the
    bracket; a naive secant fails at b = 1.  The tests' 60-step bisection
    over t is the reference.

    Any t >= 0 gives a valid bound, so the solve needs no proof: L is the
    bottom eigenvalue of X - tZ less the rounding allowance ``_DUAL_SLACK`` *
    (max|eig X| + t).
    """
    spec = hermitian_eig(x)
    scale = float(np.abs(spec.eigenvalues).max())
    u = spec.eigenvectors
    w = (np.abs(u[0] + u[4] + u[8]) ** 2 / 3).tolist()
    # in units of max|eig X|, so that the solve reads c*X as it reads X
    d = (spec.eigenvalues / (scale or 1.0)).tolist()
    delta, t = d[1] - d[0], 0.0
    if w[0] > 2 / 3 and delta > _TIE:
        # mu = d_1 - tau, tau in [0, delta]; the weight at d_1, ties included, is its pole
        w0, w1, rest = w[0], 0.0, []
        for di, wi in zip(d[1:], w[1:]):
            if di - d[1] <= _TIE:
                w1 += wi
            elif wi > _UNSEEN:
                rest.append((di - d[1], wi))
        pole = w1 > _UNSEEN
        w1 = w1 if pole else 0.0

        def secular(tau: float) -> float:
            """(g^2 - (2/3) g') (tau - delta)^2, times tau^2 at a pole: < 0 above the root in mu."""
            s1 = s2 = 0.0
            for e, wi in rest:
                q = e + tau
                s1 += wi / q
                s2 += wi / (q * q)
            a, p = tau - delta, tau if pole else 1.0
            g = w0 * p + w1 * a + a * p * s1
            return g * g - 2 / 3 * (w0 * p * p + w1 * a * a + (a * p) ** 2 * s2)

        lo, hi, f_lo, f_hi, side = 0.0, delta, secular(0.0), secular(delta), 0
        tau = 0.0
        # f_lo < 0 at a pole; without one, f_lo >= 0 puts the best t at the kink mu = d_1
        if f_lo < 0:
            for _ in range(_SECULAR_STEPS):
                tau = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
                if not lo < tau < hi:
                    tau = (lo + hi) / 2
                f = secular(tau)
                if f == 0:
                    break
                # Illinois: a side kept twice in a row has its value halved
                if f < 0:
                    lo, f_lo = tau, f
                    f_hi, side = (f_hi / 2 if side < 0 else f_hi), -1
                else:
                    hi, f_hi = tau, f
                    f_lo, side = (f_lo / 2 if side > 0 else f_lo), 1
                if hi - lo <= _SECULAR_TOL * delta:
                    break
        g = w0 / (tau - delta) + sum(wi / (e + tau) for e, wi in rest) + (w1 / tau if pole else 0.0)
        if g < 0:
            t = -2 / (3 * g) * scale
    bottom = float(np.linalg.eigvalsh(x - t * _MES_Z)[0])
    return bottom - _DUAL_SLACK * (scale + t), t


def _accepts(value: float, rank: int) -> bool:
    """The one witness rule: Schmidt rank at most 2 and a form below ``-PSD_TOL``."""
    return bool(rank <= 2 and value < -PSD_TOL)


def _usable(cert: Optional[WitnessCertificate]) -> bool:
    return cert is not None and _accepts(cert.value, cert.schmidt_rank)


def _make_certificate(
    psi: np.ndarray,
    state: BipartiteState,
    route: str,
    seed: int,
    copies: int = 1,
    delta: Optional[float] = None,
) -> WitnessCertificate:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    value = pt_quadratic_form(v, state, copies)
    dims = _power_dims(state.dims, copies)
    rank = schmidt_rank(v, dims)
    return WitnessCertificate(
        psi=PureState(v, dims),
        value=value,
        copies=copies,
        route=route,
        schmidt_rank=rank,
        seed=seed,
        delta=delta,
    )


def submatrix_2x2_scan(state: BipartiteState, seed: int = 2024) -> Optional[ScanHit]:
    """Scan the partial transpose for a negative-determinant 2x2 principal minor.

    Only minors whose diagonal entries sit in different A-blocks can be
    negative (the diagonal blocks are PSD).  The deepest violation wins;
    the witness is the bottom eigenvector of the corresponding 2xN
    principal cut, which has Schmidt rank at most 2 by construction.
    Returns ``None`` when no qualifying minor exists (e.g. PPT input).
    The determinants are taken in Python floats, which round as numpy's
    float64 scalars do, so the scan gives their indices and bits.
    """
    n, mb = state.dims.total, state.dims.dim_b
    pt = state._pt
    rows_pt = pt.tolist()
    diag = pt.diagonal().real.tolist()
    scale = max(float(np.abs(pt).max()), 1.0)
    best_det = -_DET_TOL * scale * scale
    best: Optional[tuple[int, int]] = None
    for r in range(n):
        d_r, row = diag[r], rows_pt[r]
        # columns from the next A-block on: same-block minors cannot be negative
        for s in range((r // mb + 1) * mb, n):
            det = d_r * diag[s] - abs(row[s]) ** 2
            if det < best_det:
                best_det = det
                best = (r, s)
    if best is None:
        return None
    r, s = best
    k, l = r // mb, s // mb
    rows = list(range(k * mb, (k + 1) * mb)) + list(range(l * mb, (l + 1) * mb))
    psi = np.zeros(n, dtype=complex)
    psi[rows] = _bottom(pt[np.ix_(rows, rows)][None])[1][0]
    cert = _make_certificate(psi, state, ROUTE_SUBMATRIX, seed)
    return ScanHit(blocks=(k, l), indices=(r, s), determinant=best_det, certificate=cert)


def two_nonpositive_witness(
    state: BipartiteState, seed: int = 2024
) -> Optional[WitnessCertificate]:
    """Witness from two nonpositive eigenvalues of a two-qutrit partial transpose.

    Requires the smallest eigenvalue below ``-PSD_TOL`` and the second
    smallest at most ``PSD_TOL``, as ``_two_nonpositive_pt`` decides from
    the state's cached spectrum; returns ``None`` otherwise, before any
    eigenvectors are computed.  With alpha, beta the bottom two
    eigenvectors and A, B their 3x3 matricizations, one construction runs
    on alpha: alpha if A is singular, else beta (judged once per call),
    else the first ``alpha + t*beta`` to pass ``_accepts``, t = -1/s over
    the nonzero eigenvalues s of ``A^-1 B`` (the roots of det(A + tB)),
    nearest root first.  Normalized, its value (lambda_0 + |t|^2 lambda_1)
    / (1 + |t|^2) rises with |t|, so on alpha the nearest root is the most
    negative; on a nudged alpha that holds only approximately.  It fails
    when ``A^-1 B`` has no usable eigenvalue, as when nilpotent; then det B
    = 0, so beta failed only because lambda_1 is within ``PSD_TOL`` of 0.
    Full-rank states do that (the tests pin one), so the construction then
    reruns on alpha nudged by ``_RESTARTS`` seeded vectors of shrinking
    size ``delta``.  If no nudge yields a witness, as when the negative
    eigenvalue is too small for any nudged value to pass the rule, the
    route declines with ``None`` like any other route.
    """
    if tuple(state.dims) != (3, 3):
        raise DimensionMismatchError("two-nonpositive route applies to 3x3 systems")
    if not _two_nonpositive_pt(state):
        return None
    pt = state._pt
    alpha, beta = hermitian_eig(pt).eigenvectors[:, :2].T
    mat_b = beta.reshape(3, 3)
    beta_accepted = _accepts(state._pt_eigenvalues[1], _numeric_rank(mat_b))

    def construct(vec: np.ndarray) -> Optional[np.ndarray]:
        """The witness built from ``vec`` (alpha or a nudge of it) and beta, if any."""
        mat_v = vec.reshape(3, 3)
        rank = _numeric_rank(mat_v)
        if rank <= 2:
            return vec if _accepts(float(np.real(vec.conj() @ pt @ vec)), rank) else None
        if beta_accepted:
            return beta
        n_mat = np.linalg.solve(mat_v, mat_b)
        eigs = np.linalg.eigvals(n_mat)
        n_norm = float(np.linalg.norm(n_mat, 2))
        usable = [s for s in eigs if abs(s) > RANK_REL_TOL * max(n_norm, 1e-300)]
        for s in sorted(usable, key=abs, reverse=True):
            t = -1.0 / s
            phi = vec + t * beta
            phi = phi / np.linalg.norm(phi)
            if _accepts(float(np.real(phi.conj() @ pt @ phi)), schmidt_rank(phi, state.dims)):
                return phi
        return None

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


def _holds_product_vector(dims: Dims, k: int) -> bool:
    """Whether every k-dimensional subspace of a 3x3 system holds a product vector.

    The product vectors of a dA x dB system form the Segre variety, of
    dimension dA + dB - 2 in the projective space of dimension dA*dB - 1,
    so every subspace of dimension at least (dA - 1)(dB - 1) + 1 meets it;
    below that, a subspace meets it only on a set of measure zero.  Only
    3x3 relies on the count, where it reads k >= 5.
    """
    ma, mb = dims
    return (ma, mb) == (3, 3) and k >= (ma - 1) * (mb - 1) + 1


def product_vector_in_subspace(
    basis: np.ndarray, dims: Dims, seed: int = 2024
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Search a subspace (orthonormal basis columns) for a product vector.

    Minimizes the violation of the orthogonal-complement constraints over
    local unit vectors by alternating closed-form singular-vector steps:
    b becomes the last right singular vector of C(a), then a that of C(b).
    Restart r draws a as a unit vector from
    ``SplitMix64(derive_seed(seed, 2_000_000 + r))`` and stops once the
    smallest singular value of C(b) drops below 1e-9 or improves by at
    most ``_PRODUCT_STEP_TOL``, or after ``_OPT_MAX_ITERS`` steps.  A
    solution must pass an SVD check: the smallest singular value of C(a)
    below 1e-8 and the residual |C(a) b| below 1e-7.  The restarts run one
    after another, r = 0 .. ``_RESTARTS - 1``, and the first success is
    returned, else ``None``.  Whether a miss is a failure is for the
    caller to decide: ``certify_1_distillable`` searches only subspaces that
    provably hold a product vector (``_holds_product_vector``).
    """
    ma, mb = dims
    if max(ma, mb) > 4:
        raise DimensionMismatchError("product-vector search supports local dims <= 4")
    b_mat = np.asarray(basis, dtype=complex)
    if b_mat.ndim != 2 or b_mat.shape[0] != dims.total:
        raise DimensionMismatchError("basis must have one column per spanning vector")
    k = b_mat.shape[1]
    if k == 0:
        return None
    if k == dims.total:
        a = np.zeros(ma, dtype=complex)
        a[0] = 1.0
        b = np.zeros(mb, dtype=complex)
        b[0] = 1.0
        return a, b
    u_full, _, _ = np.linalg.svd(b_mat)
    # zero columns pad the complement to at least mb constraints, so that a
    # null vector b of C(a) shows as a zero among the singular values
    comp = np.pad(u_full[:, k:], ((0, 0), (0, max(0, mb - (dims.total - k)))))
    # constraint tensor: <k_i | a (x) b> = a^T conj(K_i) b
    ck = comp.conj().T.reshape(comp.shape[1], ma, mb)

    for r in range(_RESTARTS):
        gen = SplitMix64(derive_seed(seed, 2_000_000 + r))
        a = gen.unit_vector(ma)
        smin_prev = np.inf
        for _ in range(_OPT_MAX_ITERS):
            b = np.linalg.svd(np.einsum("dmn,m->dn", ck, a))[2][-1].conj()
            _, s, vh = np.linalg.svd(np.einsum("dmn,n->dm", ck, b))
            a = vh[-1].conj()
            smin = float(s[-1])
            if smin < 1e-9 or smin_prev - smin <= _PRODUCT_STEP_TOL:
                break
            smin_prev = smin
        c_of_a = np.einsum("dmn,m->dn", ck, a)
        if (
            float(np.linalg.svd(c_of_a, compute_uv=False)[-1]) < 1e-8
            and float(np.linalg.norm(c_of_a @ b)) < 1e-7
        ):
            return a, b
    return None


def kernel_product_witness(state: BipartiteState, seed: int = 2024) -> Optional[WitnessCertificate]:
    """Witness for a two-qutrit NPT state whose kernel contains a product vector.

    Local unitaries move the product vector to |0,0>, after which either
    the 2x2-minor scan fires on the first column of the rotated partial
    transpose, or |0,0> also lies in its kernel and the two-nonpositive
    route applies.  The certificate is mapped back to the original basis.
    """
    if tuple(state.dims) != (3, 3):
        raise DimensionMismatchError("kernel-product route applies to 3x3 systems")
    if is_ppt(state):
        return None
    _, kernel, _ = rank_kernel_range(state.mat)
    if kernel.shape[1] == 0:
        return None
    found = product_vector_in_subspace(kernel, state.dims, seed)
    if found is None:
        return None
    # Q^H from a QR of [x | I] sends x to a unimodular multiple of |0>
    u, v = (np.linalg.qr(np.column_stack([x, np.eye(3)]))[0].conj().T for x in found)
    uv = np.kron(u, v)
    rotated = BipartiteState(uv @ state.mat @ uv.conj().T, state.dims)
    pullback = np.kron(u.T, v.conj().T)

    cert_rotated = _spectral_routes(rotated, seed)
    if cert_rotated is None:
        return None
    psi = pullback @ cert_rotated.psi.vec
    cert = _make_certificate(psi, state, ROUTE_KERNEL_PRODUCT, seed)
    return cert if _usable(cert) else None


def _spectral_routes(state: BipartiteState, seed: int) -> Optional[WitnessCertificate]:
    """The 2x2 scan's witness, else (3x3 only) the two-nonpositive route's, if usable."""
    hit = submatrix_2x2_scan(state, seed)
    if hit is not None and _usable(hit.certificate):
        return hit.certificate
    if tuple(state.dims) == (3, 3):
        cert = two_nonpositive_witness(state, seed)
        if _usable(cert):
            return cert
    return None


def certify_1_distillable(state: BipartiteState, seed: int = 2024) -> Optional[WitnessCertificate]:
    """Try the constructive routes, then, off the rank-4 theorem, the generic minimizer.

    A 2xN state is certified by the bottom eigenvector of its partial
    transpose (``bottomEigenvector``).  Otherwise the 2x2 scan runs, then
    (3x3 only) the two-nonpositive route.  On a 3x3 state of numeric rank
    at most 4 the kernel route ends the chain: its kernel, of dimension at
    least 5, provably holds a product vector (``_holds_product_vector``),
    so one of the three routes must fire, and ``NumericalFailureError``
    naming the rank and kernel dimension is raised if none does.  Other
    states go on to the rank-2 minimizer, except a 3x3 state whose MES dual
    bound L (``_mes_dual``, kept on the state) is positive: L > 0 proves
    that no Schmidt-rank-2 vector has a negative value, so ``None`` returns
    without a search.

    Returns the first verifiable certificate, or ``None`` when no witness
    with value below ``-PSD_TOL`` was found.  At 3x3 a ``None`` reached
    through L > 0 is a proof of 1-undistillability; any other ``None`` is
    not: it says only that the minimizer found no witness.
    """
    if is_ppt(state):
        return None
    if min(state.dims) == 2:
        vec = hermitian_eig(state._pt).eigenvectors[:, 0]
        cert = _make_certificate(vec, state, ROUTE_BOTTOM_EIGENVECTOR, seed)
        return cert if _usable(cert) else None
    cert = _spectral_routes(state, seed)
    if cert is not None:
        return cert
    rank = state._rank
    if not _holds_product_vector(state.dims, state.dims.total - rank):
        # a positive MES dual bound proves that no rank-2 vector has a negative value
        if tuple(state.dims) == (3, 3) and _mes_dual(state)[0] > 0:
            return None
        return best_rank2_witness(state, 1, seed)[1]
    cert = kernel_product_witness(state, seed)
    if cert is None:
        raise NumericalFailureError(
            f"rank-4 construction failed: on a 3x3 NPT state of rank {rank} (kernel dimension "
            f"{9 - rank}) the 2x2 scan, the two-nonpositive route and the kernel route declined"
        )
    return cert


def _mes_dual(state: BipartiteState) -> tuple[float, float]:
    """``_mes_dual_bound`` of a 3x3 state's partial transpose, kept in its ``_mes_dual``."""
    kept = state._mes_dual
    if not kept:
        kept.append(_mes_dual_bound(state._pt))
    return kept[0]


def _rank2_minimum(
    state: BipartiteState, copies: int, seed: int, sign: int = 1
) -> tuple[float, Rank2Ansatz]:
    """Rank-2 minimum of sign * (state^(x copies))^Gamma, sign = +-1, kept on the state.

    The witness search, both Werner extrema and the rho claim and maximum
    all ask here.  ``_pt_power`` checks the copy count before any work.  The
    minimum is kept in ``_rank2_minima`` under ``(copies, seed, sign)``, so
    a rank-5 check, which may ask in ``certify_1_distillable`` and again in
    ``undistillability_margin``, minimizes at most once; where the state's
    MES dual bound settles both (``_mes_dual``), as on the edge family at
    the default noise, it minimizes not at all.  At one copy it is the
    five-start ``min_rank2_expectation`` of sign * PT; at two, the lifted
    starts' (``_lifted_minimum``) from the kept one-copy minimum v of the
    same sign and seed, so a negative v gives a negative two-copy value.
    Those starts decompose only the one-copy PT, never the two-copy one,
    and at 3x3 neither copy count reads ``seed``.
    """
    pt, _ = _pt_power(state, copies)
    minima, key = state._rank2_minima, (copies, seed, sign)
    if key not in minima:
        x = pt if sign > 0 else -pt
        if copies == 1:
            minima[key] = min_rank2_expectation(x, state.dims, seed)
        else:
            one_copy = _rank2_minimum(state, 1, seed, sign)
            minima[key] = _lifted_minimum(x, state._pt, state.dims, one_copy, seed, sign)
    return minima[key]


def best_rank2_witness(
    state: BipartiteState, copies: int = 1, seed: int = 2024
) -> tuple[float, Optional[WitnessCertificate]]:
    """Best rank-2 value of the n-copy partial transpose, plus a certificate.

    The certificate is present exactly when the minimizer's vector passes
    ``_accepts``; the value itself is always reported.  A positive best
    value is evidence, not proof, of undistillability: the minimizer's five
    starts (three at two copies) make no global-optimality claim.  At one
    copy and 3x3 the proof is the MES dual bound (``_mes_dual``).  The value
    is ``_rank2_minimum(state, copies, seed)``, kept on the state.
    """
    value, ansatz = _rank2_minimum(state, copies, seed)
    # an ansatz has Schmidt rank at most 2, so only its value can fail the rule
    if not _accepts(value, 2):
        return value, None
    cert = _make_certificate(ansatz.vector(), state, ROUTE_OPTIMIZER, seed, copies=copies)
    return value, cert if _usable(cert) else None


def verify_certificate(cert: WitnessCertificate, state: BipartiteState) -> bool:
    """Recompute a certificate from raw data and check it end to end.

    The witness is checked at the copy count the certificate states.  True
    iff its stored split is the n-copy bipartition, its stored Schmidt rank
    is the recomputed one, the witness passes ``_accepts`` on that rank and
    its recomputed value, and the stored value matches the recomputation to
    1e-10.
    """
    dims = _power_dims(state.dims, cert.copies)
    psi = cert.psi.vec
    # a witness of the wrong length raises DimensionMismatchError here
    rank = schmidt_rank(psi, dims)
    value = pt_quadratic_form(psi, state, cert.copies)
    return (
        cert.psi.dims == dims
        and cert.schmidt_rank == rank
        and _accepts(value, rank)
        and abs(value - cert.value) <= 1e-10
    )
