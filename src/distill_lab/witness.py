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
  local rotation, to one of the two routes above.  ``certify_1_distillable``
  tries it only on two-qutrit states of rank at most 4, whose kernel has
  dimension at least 5 and so provably holds a product vector.  The
  product search (``product_vector_in_subspace``) runs its seeded restarts
  one after another, each a plain loop of alternating SVD steps.

Failure to find a witness is data, never an error: all routes return
``None`` when their hypothesis is not met.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .qcore import (
    PSD_TOL,
    RANK_REL_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    PureState,
    _RESTARTS,
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


def _lockstep(
    step: Callable, state: tuple[np.ndarray, ...], iters: int, tol: float
) -> tuple[np.ndarray, ...]:
    """Advance the rank-2 minimizer's stacked starts together, each row on its own stop rule.

    ``state`` holds arrays with one row per start.  ``step(*state)``
    advances the active rows once and returns ``(values, state)``: one
    value per row and the arrays each row continues from.

    A row stops at the first iteration where its value improves on its
    previous value by at most ``tol``, or when ``iters`` run out, and
    keeps the arrays of its last step.  Returns each row's final value
    followed by its final arrays, in the original row order, equal to
    running the rows one after another.
    """
    n = len(state[0])
    rows, prev = np.arange(n), [np.inf] * n
    parts = []  # (rows, values, *arrays) of each group of rows that leaves
    for _ in range(iters):
        values, state = step(*state)
        vals = values.tolist()
        # plain floats: on a handful of rows this beats numpy's per-call overhead
        stop = [p - x <= tol for p, x in zip(prev, vals)]
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
# most sweeps of a rank-2 start, and most steps of a product-search restart
_OPT_MAX_ITERS = 500
# a product-search restart stops once a step gains at most this much
_PRODUCT_STEP_TOL = 1e-12


def _bottom(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpair of each row's hermitized compression ``comp``."""
    w, v = np.linalg.eigh((comp + comp.conj().transpose(0, 2, 1)) / 2)
    return w[:, 0], v[:, :, 0]


def _als_sweep(
    m: np.ndarray, dims: Dims, fa: np.ndarray, fb: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One block ALS sweep over psi = vec(A B^T) for each row's frame ``fb``.

    With B an isometry, psi = (I (x) B) vec(A) has the norm of A, so the
    best A is the bottom eigenvector of the 2dA x 2dA compression
    (I (x) B)^H X (I (x) B); its QR factor is the new frame ``fa``, and B is
    updated the same way against A (x) I.  Both compressions are contracted
    from X read as a (dA, dB, dA, dB) tensor; no I (x) B or A (x) I is
    formed.  The incoming ``fa`` is not read.  Returns the value after the
    sweep, which never exceeds the value before it, and the new frames.
    """
    ma, mb = dims
    rows = len(fb)
    # sum_jl conj(B[j,p]) X[ij,kl] B[l,q] at row ip, column kq: over j for each i, then l
    t = fb.conj().transpose(0, 2, 1).reshape(-1, mb) @ m.reshape(ma, mb, -1)
    comp = (t.reshape(ma, rows, 2 * ma, mb) @ fb).reshape(ma, rows, 2, 2 * ma)
    a = _bottom(comp.transpose(1, 0, 2, 3).reshape(rows, 2 * ma, 2 * ma))[1]
    fa = np.linalg.qr(a.reshape(rows, ma, 2))[0]
    # sum_ik conj(A[i,p]) X[ij,kl] A[k,q] at row pj, column ql: over i, then over k
    t = fa.conj().transpose(0, 2, 1).reshape(-1, ma) @ m.reshape(ma, -1)
    t = t.reshape(rows, 2 * mb, ma, mb).transpose(0, 1, 3, 2).reshape(rows, -1, ma)
    comp = (t @ fa).reshape(rows, 2 * mb, mb, 2)
    values, b = _bottom(comp.transpose(0, 1, 3, 2).reshape(rows, 2 * mb, 2 * mb))
    fb = np.linalg.qr(b.reshape(rows, 2, mb).transpose(0, 2, 1))[0]
    return values, (fa, fb)


def min_rank2_expectation(x: np.ndarray, dims: Dims, seed: int = 2024) -> tuple[float, Rank2Ansatz]:
    """Minimize <psi|X|psi> over unit vectors of Schmidt rank at most two.

    Block alternating least squares over psi = vec(A B^T), A of shape
    dA x 2 and B of shape dB x 2: with B an isometry the best A is the
    bottom eigenvector of a 2dA x 2dA compression of X, and B is updated
    the same way, so no sweep raises the value.  Each compression is
    contracted straight from X; no I (x) B is formed.  Five starts run in
    lockstep: B from the two leading Schmidt frames of the bottom
    eigenvector of X, and four Haar-random frames drawn from
    ``derive_seed(seed, r)``, r = 0..3.  A start stops once a sweep
    gains at most 1e-6 * max|eig X|, or after ``_OPT_MAX_ITERS`` sweeps;
    the restart budget ``_RESTARTS`` does not apply here.  The value is
    recomputed from the 4x4 compression onto the best start's frames, the
    earliest start winning ties.  The result never undercuts the true
    minimum over all unit vectors, and no global-optimality claim is made.

    Every call computes; ``best_rank2_witness`` keeps a state's minima.
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
    scale = float(np.abs(spec.eigenvalues).max())

    fb = np.empty((_RANK2_STARTS, mb, 2), dtype=complex)
    # the bottom eigenvector's two leading right Schmidt vectors: rows of vh, unconjugated
    fb[0] = np.linalg.svd(spec.eigenvectors[:, 0].reshape(ma, mb))[2][:2].T
    seeds = [derive_seed(seed, r) for r in range(_RANK2_STARTS - 1)]
    fb[1:] = _phase_fixed_qr(_complex_normals(seeds, 2 * mb)[0].reshape(-1, mb, 2))
    # the first sweep computes fa from fb alone
    fa = np.zeros((_RANK2_STARTS, ma, 2), dtype=complex)
    vals, fa, fb = _lockstep(
        lambda fa, fb: _als_sweep(m, dims, fa, fb),
        (fa, fb), _OPT_MAX_ITERS, _RANK2_REL_STOP * scale,
    )
    best = int(np.argmin(vals))
    w_op = np.kron(fa[best], fb[best])
    v4 = _bottom((w_op.conj().T @ m @ w_op)[None])[1][0]
    ansatz = Rank2Ansatz(fa[best], fb[best], v4.reshape(2, 2))
    psi = ansatz.vector()
    value = float(np.real(psi.conj() @ m @ psi))
    return value, ansatz


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
    """
    ma, mb = state.dims
    pt = state._pt
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
    psi = np.zeros(state.dims.total, dtype=complex)
    psi[rows] = _bottom(pt[np.ix_(rows, rows)][None])[1][0]
    cert = _make_certificate(psi, state, ROUTE_SUBMATRIX, seed)
    return ScanHit(blocks=(k, l), indices=(r, s), determinant=float(best_det), certificate=cert)


def two_nonpositive_witness(
    state: BipartiteState, seed: int = 2024
) -> Optional[WitnessCertificate]:
    """Witness from two nonpositive eigenvalues of a two-qutrit partial transpose.

    Requires the smallest eigenvalue below ``-PSD_TOL`` and the second
    smallest at most ``PSD_TOL``, as ``_two_nonpositive_pt`` decides from
    the state's cached spectrum; returns ``None`` otherwise, before any
    eigenvectors are computed.  With alpha, beta the bottom two
    eigenvectors and A, B their 3x3 matricizations, one construction runs
    on alpha: alpha if A is singular, else beta, else the best ``alpha +
    t*beta`` with det(A + tB) = 0 from a nonzero eigenvalue of ``A^-1 B``;
    each candidate must pass ``_accepts``.  It fails when ``A^-1 B`` has no
    usable eigenvalue, as when nilpotent; then det B = 0, so beta failed
    only because lambda_1 lies within ``PSD_TOL`` of 0.  Full-rank states
    do that (the tests pin one), so the construction then reruns on alpha
    nudged by ``_RESTARTS`` seeded vectors of shrinking size ``delta``.
    If no nudge yields a witness, as when the negative eigenvalue is too
    small for any nudged value to pass the rule, the route declines with
    ``None`` like any other route.
    """
    if tuple(state.dims) != (3, 3):
        raise DimensionMismatchError("two-nonpositive route applies to 3x3 systems")
    if not _two_nonpositive_pt(state):
        return None
    pt = state._pt
    alpha, beta = hermitian_eig(pt).eigenvectors[:, :2].T
    mat_b = beta.reshape(3, 3)

    def construct(vec: np.ndarray) -> Optional[np.ndarray]:
        """The witness built from ``vec`` (alpha or a nudge of it) and beta, if any."""
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
    Restart r draws a, then b, as unit vectors from
    ``SplitMix64(derive_seed(seed, 2_000_000 + r))`` and stops once the
    smallest singular value of C(b) drops below 1e-9 or improves by at
    most ``_PRODUCT_STEP_TOL``, or after ``_OPT_MAX_ITERS`` steps.  A
    solution must pass an SVD check: the smallest singular value of C(a)
    below 1e-8 and the residual |C(a) b| below 1e-7.  The restarts run one
    after another, r = 0 .. ``_RESTARTS - 1``, and the first success is
    returned.  ``None`` after restart exhaustion is a legitimate "no
    product vector found" outcome, except for subspaces of dimension at
    least 5 in a 3x3 system, where a product vector provably exists and
    emptiness is flagged as an optimizer failure.
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
        b = gen.unit_vector(mb)
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
    if _holds_product_vector(dims, k):
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
    a, b = found
    u = _rotate_to_first(a)
    v = _rotate_to_first(b)
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
    """Try the constructive routes, then the generic minimizer.

    A 2xN state is certified by the bottom eigenvector of its partial
    transpose.  Otherwise the 2x2 scan runs, then (3x3 only) the
    two-nonpositive route, then the kernel route, then the rank-2
    minimizer.  The kernel route runs only on 3x3 states of numeric rank at
    most 4: their kernel has dimension at least (3 - 1)(3 - 1) + 1 = 5, so it
    provably holds a product vector (``_holds_product_vector``).  A smaller
    kernel holds one only on a set of measure zero, and searching it would
    spend every restart of the product search for nothing.

    Returns the first verifiable certificate, or ``None`` when no witness
    with value below ``-PSD_TOL`` was found.  ``None`` on its own is not a
    proof of undistillability.
    """
    if is_ppt(state):
        return None
    ma, mb = state.dims
    if min(ma, mb) == 2:
        spec = hermitian_eig(state._pt)
        return _make_certificate(spec.eigenvectors[:, 0], state, ROUTE_OPTIMIZER, seed)
    cert = _spectral_routes(state, seed)
    if cert is None:
        kernel_dim = state.dims.total - _numeric_rank(state.mat)
        if _holds_product_vector(state.dims, kernel_dim):
            cert = kernel_product_witness(state, seed)
    if cert is None:
        _, cert = best_rank2_witness(state, 1, seed)
    return cert


def best_rank2_witness(
    state: BipartiteState, copies: int = 1, seed: int = 2024
) -> tuple[float, Optional[WitnessCertificate]]:
    """Best rank-2 value of the n-copy partial transpose, plus a certificate.

    The certificate is present exactly when the minimizer's vector passes
    ``_accepts``; the value itself is always reported (a positive best
    value over many restarts is evidence, not proof, of undistillability).
    The minimum is kept on the state per copy count and ``seed``, so a
    rank-5 check, which asks for it in ``certify_1_distillable`` and again
    in ``undistillability_margin``, minimizes once.
    """
    minima = state._rank2_minima
    if (copies, seed) not in minima:
        pt, dims = _pt_power(state, copies)
        minima[copies, seed] = min_rank2_expectation(pt, dims, seed)
    value, ansatz = minima[copies, seed]
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
