"""Construction and verification of 1-distillability certificates.

A certificate is a Schmidt-rank-at-most-2 vector whose quadratic form
against the partial transpose of a state (or of its n-fold tensor power)
is strictly negative.  Three constructive routes are implemented besides
the generic multistart minimizer:

* ``submatrix2x2``   -- a principal 2x2 minor of the partial transpose
  with negative determinant pins an NPT 2xN cut; its bottom eigenvector
  is a witness.
* ``twoNonpositive`` -- two nonpositive eigenvalues of the partial
  transpose of a two-qutrit state combine into a witness with a singular
  3x3 matricization.
* ``kernelProduct``  -- a product vector in the kernel reduces, after a
  local rotation, to one of the two routes above.

Failure to find a witness is data, never an error: all routes return
``None`` when their hypothesis is not met.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qcore import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    NumericalFailureError,
    PureState,
    ToleranceConfig,
    _numeric_rank,
    hermitian_eig,
    is_ppt,
    partial_transpose,
    rank_kernel_range,
    regroup_tensor_power,
    schmidt_rank,
)
from .rng import SplitMix64, _complex_normals, _phase_fixed_qr, _unit_rows, derive_seed

ROUTE_SUBMATRIX = "submatrix2x2"
ROUTE_TWO_NONPOSITIVE = "twoNonpositive"
ROUTE_KERNEL_PRODUCT = "kernelProduct"
ROUTE_OPTIMIZER = "optimizer"
# every route a certificate can name
_ROUTES = (ROUTE_SUBMATRIX, ROUTE_TWO_NONPOSITIVE, ROUTE_KERNEL_PRODUCT, ROUTE_OPTIMIZER)

# determinants more negative than this qualify in the 2x2 scan; far above
# float noise on exactly-PSD inputs, far below any usable violation
_DET_TOL = 1e-16


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
    restarts: int
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
    if copies == 1:
        mat, dims = state.mat, state.dims
    else:
        mat, dims = regroup_tensor_power(state.mat, state.dims, copies)
    pt = partial_transpose(mat, dims)
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != pt.shape[0]:
        raise DimensionMismatchError(
            f"witness length {v.size} does not match {copies}-copy dimension {pt.shape[0]}"
        )
    return float(np.real(v.conj() @ pt @ v))


def _lockstep(
    step: Callable, state: tuple[np.ndarray, ...], iters: int, tol: float, floor: float = -np.inf
) -> tuple[np.ndarray, ...]:
    """Advance stacked restarts together, each row until its own stop rule fires.

    ``state`` holds arrays with one row per restart.  ``step(*state)``
    advances the active rows once and returns ``(values, state)``: one
    value per row and the arrays each row continues from.

    A row stops at the first iteration where its value drops below
    ``floor`` or improves on its previous value by at most ``tol``, or
    when ``iters`` run out, and keeps the arrays of its last step.
    Returns each row's final value followed by its final arrays, in the
    original row order, equal to running the rows one after another.
    """
    n = len(state[0])
    rows, prev = np.arange(n), [np.inf] * n
    parts = []  # (rows, values, *arrays) of each group of rows that leaves
    for _ in range(iters):
        values, state = step(*state)
        vals = values.tolist()
        # plain floats: on a handful of rows this beats numpy's per-call overhead
        stop = [x < floor or p - x <= tol for p, x in zip(prev, vals)]
        prev = vals
        if any(stop):
            stop = np.array(stop)
            parts.append((rows[stop], values[stop], *(k[stop] for k in state)))
            go_on = ~stop
            rows, values = rows[go_on], values[go_on]
            if not rows.size:
                break
            prev = values.tolist()
            state = tuple(k[go_on] for k in state)
    else:
        parts.append((rows, values, *state))
    order = np.argsort(np.concatenate([part[0] for part in parts]))
    return tuple(np.concatenate(col)[order] for col in list(zip(*parts))[1:])


# starts of the rank-2 minimizer: the bottom eigenvector's Schmidt frames and
# four Haar frames; on the n = 2 reports 65 starts reach the same Werner
# minimum and lower the rho minimum by under 0.2%, at 12 times the cost
_RANK2_STARTS = 5
# a rank-2 row stops once a sweep gains at most this fraction of max|eig X|;
# relative, so that minimizing c*X takes the same sweeps as minimizing X
_RANK2_REL_STOP = 1e-6


def _kron_rows(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """``np.kron(fa[r], fb[r])`` for every row ``r``."""
    rows, ma, ka = fa.shape
    mb, kb = fb.shape[1:]
    return (fa[:, :, None, :, None] * fb[:, None, :, None, :]).reshape(rows, ma * mb, ka * kb)


def _compressed_bottom(m: np.ndarray, w_op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpair of each row's compression ``w_op^H m w_op``."""
    comp = w_op.conj().transpose(0, 2, 1) @ m @ w_op
    w, v = np.linalg.eigh((comp + comp.conj().transpose(0, 2, 1)) / 2)
    return w[:, 0], v[:, :, 0]


def _als_sweep(
    m: np.ndarray, dims: Dims, fa: np.ndarray, fb: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One block ALS sweep over psi = vec(A B^T) for each row's frame ``fb``.

    With B an isometry, psi = (I (x) B) vec(A) has the norm of A, so the
    best A is the bottom eigenvector of the 2dA x 2dA compression onto
    I (x) B; its QR factor is the new frame ``fa``, and B is updated the
    same way against A (x) I.  The incoming ``fa`` is not read.  Returns
    the value after the sweep, which never exceeds the value before it,
    and the new frames.
    """
    ma, mb = dims
    rows = len(fb)
    eye_a = np.broadcast_to(np.eye(ma), (rows, ma, ma))
    a = _compressed_bottom(m, _kron_rows(eye_a, fb))[1].reshape(rows, ma, 2)
    fa = np.linalg.qr(a)[0]
    eye_b = np.broadcast_to(np.eye(mb), (rows, mb, mb))
    values, b = _compressed_bottom(m, _kron_rows(fa, eye_b))
    fb = np.linalg.qr(b.reshape(rows, 2, mb).transpose(0, 2, 1))[0]
    return values, (fa, fb)


# key and result of the last min_rank2_expectation call; a rank-5 check
# minimizes one partial transpose twice (certify_1_distillable, then
# undistillability_margin)
_last_minimum: Optional[tuple[tuple, tuple[float, Rank2Ansatz]]] = None


def min_rank2_expectation(
    x: np.ndarray, dims: Dims, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, Rank2Ansatz]:
    """Minimize <psi|X|psi> over unit vectors of Schmidt rank at most two.

    Block alternating least squares over psi = vec(A B^T), A of shape
    dA x 2 and B of shape dB x 2: with B an isometry the best A is the
    bottom eigenvector of a 2dA x 2dA compression of X, and B is updated
    the same way, so no sweep raises the value.  Five starts run in
    lockstep: B from the two leading Schmidt frames of the bottom
    eigenvector of X, and four Haar-random frames drawn from
    ``derive_seed(cfg.seed, r)``, r = 0..3.  A start stops once a sweep
    gains at most 1e-6 * max|eig X|, or after ``cfg.opt_max_iters``
    sweeps; ``opt_restarts`` and ``opt_step_tol`` do not apply here.  The
    value is recomputed from the 4x4 compression onto the best start's
    frames, the earliest start winning ties.  The result never undercuts
    the true minimum over all unit vectors, and no global-optimality claim
    is made.

    The last call is remembered: a call whose matrix (shape and bytes after
    conversion to complex), ``dims`` and ``cfg`` all equal the previous
    call's returns the same value and the same read-only ansatz without
    recomputing.  A call that raises is not remembered.
    """
    global _last_minimum
    m = np.asarray(x, dtype=complex)
    key = (m.shape, m.tobytes(), tuple(dims), cfg)
    if _last_minimum is not None and _last_minimum[0] == key:
        return _last_minimum[1]
    ma, mb = dims
    if m.shape != (dims.total, dims.total):
        raise DimensionMismatchError(
            f"matrix of shape {m.shape} does not match dims {tuple(dims)}"
        )
    if min(ma, mb) < 2:
        raise DimensionMismatchError("rank-2 ansatz needs both local dimensions >= 2")
    spec = hermitian_eig(m, cfg)
    scale = float(np.abs(spec.eigenvalues).max())

    fb = np.empty((_RANK2_STARTS, mb, 2), dtype=complex)
    # the bottom eigenvector's two leading right Schmidt vectors: rows of vh, unconjugated
    fb[0] = np.linalg.svd(spec.eigenvectors[:, 0].reshape(ma, mb))[2][:2].T
    seeds = [derive_seed(cfg.seed, r) for r in range(_RANK2_STARTS - 1)]
    fb[1:] = _phase_fixed_qr(_complex_normals(seeds, 2 * mb)[0].reshape(-1, mb, 2))
    # the first sweep computes fa from fb alone
    fa = np.zeros((_RANK2_STARTS, ma, 2), dtype=complex)
    vals, fa, fb = _lockstep(
        lambda fa, fb: _als_sweep(m, dims, fa, fb),
        (fa, fb), cfg.opt_max_iters, _RANK2_REL_STOP * scale,
    )
    best = int(np.argmin(vals))
    w_op = np.kron(fa[best], fb[best])
    comp = w_op.conj().T @ m @ w_op
    comp = (comp + comp.conj().T) / 2
    w4, v4 = np.linalg.eigh(comp)
    ansatz = Rank2Ansatz(fa[best], fb[best], v4[:, 0].reshape(2, 2))
    psi = ansatz.vector()
    value = float(np.real(psi.conj() @ m @ psi))
    _last_minimum = (key, (value, ansatz))
    return value, ansatz


def _make_certificate(
    psi: np.ndarray,
    state: BipartiteState,
    route: str,
    cfg: ToleranceConfig,
    copies: int = 1,
    delta: Optional[float] = None,
) -> WitnessCertificate:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    value = pt_quadratic_form(v, state, copies)
    if copies == 1:
        dims = state.dims
    else:
        dims = Dims(state.dims.dim_a**copies, state.dims.dim_b**copies)
    rank = schmidt_rank(v, dims, cfg)
    return WitnessCertificate(
        psi=PureState(v, dims),
        value=value,
        copies=copies,
        route=route,
        schmidt_rank=rank,
        seed=cfg.seed,
        restarts=cfg.opt_restarts,
        delta=delta,
    )


def submatrix_2x2_scan(
    state: BipartiteState, cfg: ToleranceConfig = DEFAULT_TOL
) -> Optional[ScanHit]:
    """Scan the partial transpose for a negative-determinant 2x2 principal minor.

    Only minors whose diagonal entries sit in different A-blocks can be
    negative (the diagonal blocks are PSD).  The deepest violation wins;
    the witness is the bottom eigenvector of the corresponding 2xN
    principal cut, which has Schmidt rank at most 2 by construction.
    Returns ``None`` when no qualifying minor exists (e.g. PPT input).
    """
    ma, mb = state.dims
    pt = partial_transpose(state.mat, state.dims)
    diag = pt.diagonal().real
    scale = max(float(np.abs(pt).max()), 1.0)
    best_det = -_DET_TOL * scale * scale
    best: Optional[tuple[int, int]] = None
    for r in range(state.dims.total):
        kr = r // mb
        for s in range(r + 1, state.dims.total):
            if s // mb == kr:
                continue
            det = diag[r] * diag[s] - abs(pt[r, s]) ** 2
            if det < best_det:
                best_det = det
                best = (r, s)
    if best is None:
        return None
    r, s = best
    k, l = r // mb, s // mb
    rows = list(range(k * mb, (k + 1) * mb)) + list(range(l * mb, (l + 1) * mb))
    block = pt[np.ix_(rows, rows)]
    block = (block + block.conj().T) / 2
    w, v = np.linalg.eigh(block)
    psi = np.zeros(state.dims.total, dtype=complex)
    psi[rows] = v[:, 0]
    cert = _make_certificate(psi, state, ROUTE_SUBMATRIX, cfg)
    return ScanHit(blocks=(k, l), indices=(r, s), determinant=float(best_det), certificate=cert)


def two_nonpositive_witness(
    state: BipartiteState, cfg: ToleranceConfig = DEFAULT_TOL
) -> Optional[WitnessCertificate]:
    """Witness from two nonpositive eigenvalues of a two-qutrit partial transpose.

    Requires the smallest eigenvalue below ``-psd_tol`` and the second
    smallest at most ``psd_tol``; returns ``None`` otherwise.  If the
    bottom eigenvector has a singular 3x3 matricization it is itself a
    witness; otherwise a combination ``alpha + t*beta`` with singular
    matricization is built from a nonzero eigenvalue of ``A^-1 B``.  When
    that matrix is nilpotent, the bottom eigenvector is perturbed with
    shrinking magnitudes until the construction goes through.
    """
    if tuple(state.dims) != (3, 3):
        raise DimensionMismatchError("two-nonpositive route applies to 3x3 systems")
    pt = partial_transpose(state.mat, state.dims)
    spec = hermitian_eig(pt, cfg)
    lam, mu = float(spec.eigenvalues[0]), float(spec.eigenvalues[1])
    if lam >= -cfg.psd_tol or mu > cfg.psd_tol:
        return None
    alpha = spec.eigenvectors[:, 0]
    beta = spec.eigenvectors[:, 1]
    mat_a = alpha.reshape(3, 3)
    mat_b = beta.reshape(3, 3)
    if _numeric_rank(mat_a, cfg) <= 2:
        return _make_certificate(alpha, state, ROUTE_TWO_NONPOSITIVE, cfg)
    if mu < -cfg.psd_tol and _numeric_rank(mat_b, cfg) <= 2:
        return _make_certificate(beta, state, ROUTE_TWO_NONPOSITIVE, cfg)

    def combine(vec: np.ndarray, mat_v: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
        """Best usable witness alpha' + t*beta with det(A' + tB) = 0, if any."""
        n_mat = np.linalg.solve(mat_v, mat_b)
        eigs = np.linalg.eigvals(n_mat)
        n_norm = float(np.linalg.norm(n_mat, 2))
        usable = [s for s in eigs if abs(s) > cfg.rank_rel_tol * max(n_norm, 1e-300)]
        best: Optional[tuple[float, np.ndarray]] = None
        for s in sorted(usable, key=abs, reverse=True):
            t = -1.0 / s
            phi = vec + t * beta
            phi = phi / np.linalg.norm(phi)
            val = float(np.real(phi.conj() @ pt @ phi))
            if val >= -cfg.psd_tol or schmidt_rank(phi, state.dims, cfg) > 2:
                continue
            if best is None or val < best[0]:
                best = (val, phi)
        return best

    cand = combine(alpha, mat_a)
    if cand is not None:
        return _make_certificate(cand[1], state, ROUTE_TWO_NONPOSITIVE, cfg)

    # nilpotent (or numerically unusable) A^-1 B: nudge the bottom eigenvector
    for attempt in range(cfg.opt_restarts):
        delta = 10.0 ** (-2 - (attempt % 5))
        gen = SplitMix64(derive_seed(cfg.seed, 1_000_000 + attempt))
        eta = gen.unit_vector(9)
        alpha_p = alpha + delta * eta
        alpha_p = alpha_p / np.linalg.norm(alpha_p)
        if float(np.real(alpha_p.conj() @ pt @ alpha_p)) >= -cfg.psd_tol:
            continue
        mat_ap = alpha_p.reshape(3, 3)
        if _numeric_rank(mat_ap, cfg) <= 2:
            return _make_certificate(
                alpha_p, state, ROUTE_TWO_NONPOSITIVE, cfg, delta=delta
            )
        cand = combine(alpha_p, mat_ap)
        if cand is not None:
            return _make_certificate(
                cand[1], state, ROUTE_TWO_NONPOSITIVE, cfg, delta=delta
            )
    raise NumericalFailureError(
        "perturbation schedule exhausted without breaking nilpotency"
    )


def _product_search_descent(
    ck: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating smallest-singular-vector steps, one start per row of ``a``, ``b``.

    A row stops once the smallest singular value drops below 1e-9 or
    improves by at most ``opt_step_tol``; returns the final rows.
    """

    def step(a, b):
        b = np.linalg.svd(np.einsum("dmn,rm->rdn", ck, a))[2][:, -1, :].conj()
        _, s, vh = np.linalg.svd(np.einsum("dmn,rn->rdm", ck, b))
        return s[:, -1], (vh[:, -1, :].conj(), b)

    return _lockstep(step, (a, b), cfg.opt_max_iters, cfg.opt_step_tol, floor=1e-9)[1:]


def product_vector_in_subspace(
    basis: np.ndarray, dims: Dims, cfg: ToleranceConfig = DEFAULT_TOL
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Search a subspace (orthonormal basis columns) for a product vector.

    Minimizes the violation of the orthogonal-complement constraints over
    local unit vectors by alternating closed-form singular-vector steps;
    a solution must drive the smallest singular value of the constraint
    matrix below 1e-8.  Restart 0 runs alone, then the rest run as one
    block whose members advance together, each with its own stop rule; the
    first success in restart order is returned, exactly as if the restarts
    ran one after another.  ``None`` after restart exhaustion is a legitimate
    "no product vector found" outcome, except for subspaces of dimension
    at least 5 in a 3x3 system, where a product vector provably exists
    and emptiness is flagged as an optimizer failure.
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

    # a search that succeeds almost always does so at restart 0
    for restarts in (range(1), range(1, cfg.opt_restarts)):
        if not restarts:
            break
        seeds = [derive_seed(cfg.seed, 2_000_000 + r) for r in restarts]
        g = _complex_normals(seeds, ma + mb)[0]
        a, b = _product_search_descent(ck, _unit_rows(g[:, :ma]), _unit_rows(g[:, ma:]), cfg)
        c_of_a = np.einsum("dmn,rm->rdn", ck, a)
        smallest = np.linalg.svd(c_of_a, compute_uv=False)[:, -1]
        for j in np.flatnonzero(smallest < 1e-8):
            if float(np.linalg.norm(c_of_a[j] @ b[j])) < 1e-7:
                return a[j], b[j]
    if (ma, mb) == (3, 3) and k >= (ma - 1) * (mb - 1) + 1:
        warnings.warn(
            "no product vector found in a subspace where one provably exists; "
            "optimizer failure",
            RuntimeWarning,
            stacklevel=2,
        )
    return None


def _rotate_to_first(vec: np.ndarray) -> np.ndarray:
    """Unitary sending ``vec`` to the first basis vector."""
    d = vec.size
    cols = [vec / np.linalg.norm(vec)]
    for i in range(d):
        e = np.zeros(d, dtype=complex)
        e[i] = 1.0
        for c in cols:
            e = e - c * (c.conj() @ e)
        nrm = float(np.linalg.norm(e))
        if nrm > 1e-10:
            cols.append(e / nrm)
        if len(cols) == d:
            break
    q = np.column_stack(cols)
    return q.conj().T


def kernel_product_witness(
    state: BipartiteState, cfg: ToleranceConfig = DEFAULT_TOL
) -> Optional[WitnessCertificate]:
    """Witness for a two-qutrit NPT state whose kernel contains a product vector.

    Local unitaries move the product vector to |0,0>, after which either
    the 2x2-minor scan fires on the first column of the rotated partial
    transpose, or |0,0> also lies in its kernel and the two-nonpositive
    route applies.  The certificate is mapped back to the original basis.
    """
    if tuple(state.dims) != (3, 3):
        raise DimensionMismatchError("kernel-product route applies to 3x3 systems")
    if is_ppt(state, cfg):
        return None
    rank, kernel, _ = rank_kernel_range(state.mat, cfg)
    if kernel.shape[1] == 0:
        return None
    found = product_vector_in_subspace(kernel, state.dims, cfg)
    if found is None:
        return None
    a, b = found
    u = _rotate_to_first(a)
    v = _rotate_to_first(b)
    uv = np.kron(u, v)
    rotated = BipartiteState(uv @ state.mat @ uv.conj().T, state.dims, cfg)
    pullback = np.kron(u.T, v.conj().T)

    hit = submatrix_2x2_scan(rotated, cfg)
    cert_rotated: Optional[WitnessCertificate] = None
    if hit is not None and _usable(hit.certificate, cfg):
        cert_rotated = hit.certificate
    if cert_rotated is None:
        cert_rotated = two_nonpositive_witness(rotated, cfg)
    if cert_rotated is None:
        return None
    psi = pullback @ cert_rotated.psi.vec
    cert = _make_certificate(psi, state, ROUTE_KERNEL_PRODUCT, cfg)
    if not _usable(cert, cfg):
        return None
    return cert


def _usable(cert: Optional[WitnessCertificate], cfg: ToleranceConfig) -> bool:
    return cert is not None and cert.schmidt_rank <= 2 and cert.value < -cfg.psd_tol


def certify_1_distillable(
    state: BipartiteState, cfg: ToleranceConfig = DEFAULT_TOL
) -> Optional[WitnessCertificate]:
    """Try every constructive route, then the generic minimizer.

    Returns the first verifiable certificate, or ``None`` when no witness
    with value below ``-psd_tol`` was found.  ``None`` on its own is not a
    proof of undistillability.
    """
    if is_ppt(state, cfg):
        return None
    ma, mb = state.dims
    if min(ma, mb) == 2:
        pt = partial_transpose(state.mat, state.dims)
        spec = hermitian_eig(pt, cfg)
        return _make_certificate(spec.eigenvectors[:, 0], state, ROUTE_OPTIMIZER, cfg)
    hit = submatrix_2x2_scan(state, cfg)
    if hit is not None and _usable(hit.certificate, cfg):
        return hit.certificate
    if (ma, mb) == (3, 3):
        cert = two_nonpositive_witness(state, cfg)
        if _usable(cert, cfg):
            return cert
        cert = kernel_product_witness(state, cfg)
        if _usable(cert, cfg):
            return cert
    _, cert = best_rank2_witness(state, 1, cfg)
    return cert


def best_rank2_witness(
    state: BipartiteState, copies: int = 1, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, Optional[WitnessCertificate]]:
    """Best rank-2 value of the n-copy partial transpose, plus a certificate.

    The certificate is present exactly when the best value found drops
    below ``-psd_tol``; the value itself is always reported (a positive
    best value over many restarts is evidence, not proof, of
    undistillability).
    """
    if copies == 1:
        mat, dims = state.mat, state.dims
    else:
        mat, dims = regroup_tensor_power(state.mat, state.dims, copies)
    pt = partial_transpose(mat, dims)
    value, ansatz = min_rank2_expectation(pt, dims, cfg)
    if value < -cfg.psd_tol:
        cert = _make_certificate(
            ansatz.vector(), state, ROUTE_OPTIMIZER, cfg, copies=copies
        )
        if _usable(cert, cfg):
            return value, cert
    return value, None


def verify_certificate(
    cert: WitnessCertificate,
    state: BipartiteState,
    copies: Optional[int] = None,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Recompute a certificate from raw data and check it end to end.

    True iff the witness has Schmidt rank at most 2 across the n-copy
    bipartition, its recomputed value is below ``-psd_tol``, and the
    stored value matches the recomputation to 1e-10.
    """
    n = cert.copies if copies is None else copies
    psi = cert.psi.vec
    dims = Dims(state.dims.dim_a**n, state.dims.dim_b**n)
    if psi.size != dims.total:
        raise DimensionMismatchError("certificate dimension does not match state/copies")
    rank = schmidt_rank(psi, dims, cfg)
    value = pt_quadratic_form(psi, state, n)
    return bool(rank <= 2 and value < -cfg.psd_tol and abs(value - cert.value) <= 1e-10)
