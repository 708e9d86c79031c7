"""The two-parameter family of two-qutrit PPT edge states and its NPT offspring.

``edge_state(EdgeParams(b, theta))`` is entangled, PPT, trace one, of rank 5,
and its partial transpose has rank 8, with kernel spanned by the maximally
entangled state (MES).  Subtracting ``eps`` times the projector onto the
product vector in its range gives an NPT rank-5 state with no 1-copy
witness: its best rank-2 PT value is at least ``gap/3 - eps``, where ``gap``
is the edge state's smallest positive PT eigenvalue.  A second proven bound,
the MES dual bound L of ``witness._mes_dual_bound``, measured 9.60 to 9.97
times that margin at the default noise over b in [1/2, 2] and pi/12 <=
|theta| <= pi/4, and it is what proves the verdict at run time:
``certify_1_distillable`` returns ``None`` and ``undistillability_margin``
returns the margin, neither with a rank-2 search.  The noise ``eps`` is an
argument of the builders that read it, not a field of ``EdgeParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qcore import (
    PSD_TOL,
    BipartiteState,
    Dims,
    InvariantViolationError,
    NumericalFailureError,
    PureState,
    is_ppt,
    min_pt_eigenvalue,
    rank_kernel_range,
)
from .witness import _DUAL_SLACK, _mes_dual, best_rank2_witness

QUTRIT_PAIR = Dims(3, 3)

# pi/3 = _PI_3_HI + _PI_3_LO to about twice double precision
_PI_3_HI = math.pi / 3
_PI_3_LO = float.fromhex("0x1.08cb7665c1eadp-53")

#: representative interior points of the admissible (b, theta) region
DEFAULT_GRID: tuple[tuple[float, float], ...] = tuple(
    (b, th)
    for b in (0.5, 1.0, 2.0)
    for th in (math.pi / 6, -math.pi / 6, math.pi / 4, -math.pi / 4)
)


@dataclass(frozen=True)
class EdgeParams:
    """A point of the family: scale ``b > 0`` and phase ``0 < |theta| < pi/3``."""

    b: float
    theta: float

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if not 0.0 < abs(self.theta) < math.pi / 3:
            raise ValueError(
                f"theta must satisfy 0 < |theta| < pi/3, got {self.theta}"
            )


@dataclass(frozen=True)
class EdgeBundle:
    """An edge state together with everything derived from it."""

    params: EdgeParams
    edge: BipartiteState
    p1: float
    factor_a: np.ndarray
    factor_b: np.ndarray
    eps: float
    npt_state: BipartiteState
    margin: float


def maximally_entangled_qutrits() -> PureState:
    """(|00> + |11> + |22>) / sqrt(3)."""
    v = np.zeros(9, dtype=complex)
    v[0] = v[4] = v[8] = 1.0 / math.sqrt(3.0)
    return PureState(v, QUTRIT_PAIR)


# the MES as one read-only vector, shared by every module that reads it
_MES = maximally_entangled_qutrits().vec


def edge_state(params: EdgeParams) -> BipartiteState:
    """The 9x9 edge-family density matrix; Hermitian, PSD, trace 1, rank 5."""
    b, th = params.b, params.theta
    c = math.cos(th)
    ep = complex(math.cos(th), math.sin(th))
    em = ep.conjugate()
    s = np.zeros((9, 9), dtype=complex)
    s[0, 0] = 2 * c
    s[0, 4] = s[0, 8] = -c
    s[1, 1] = 1 / b
    s[1, 3] = -em
    s[2, 2] = b
    s[2, 6] = -ep
    s[3, 1] = -ep
    s[3, 3] = b
    s[4, 0] = -c
    s[4, 4] = 2 * c
    s[4, 8] = -c
    s[5, 5] = 1 / b
    s[5, 7] = -em
    s[6, 2] = -em
    s[6, 6] = 1 / b
    s[7, 5] = -ep
    s[7, 7] = b
    s[8, 0] = s[8, 4] = -c
    s[8, 8] = 2 * c
    s /= 3 * (2 * c + b + 1 / b)
    return BipartiteState(s, QUTRIT_PAIR)


def edge_state_pt(params: EdgeParams) -> np.ndarray:
    """Closed form of the edge state's partial transpose.

    Entrywise identical (exactly, both being assembled from the same
    scalars) to ``partial_transpose(edge_state(params))``.  The library
    reads the state's cached ``_pt``; this is the reference that the
    edge-family suite and the tests check it against.
    """
    b, th = params.b, params.theta
    c = math.cos(th)
    ep = complex(math.cos(th), math.sin(th))
    em = ep.conjugate()
    g = np.zeros((9, 9), dtype=complex)
    g[0, 0] = 2 * c
    g[0, 4] = -ep
    g[0, 8] = -em
    g[1, 1] = 1 / b
    g[1, 3] = -c
    g[2, 2] = b
    g[2, 6] = -c
    g[3, 1] = -c
    g[3, 3] = b
    g[4, 0] = -em
    g[4, 4] = 2 * c
    g[4, 8] = -ep
    g[5, 5] = 1 / b
    g[5, 7] = -c
    g[6, 2] = -c
    g[6, 6] = 1 / b
    g[7, 5] = -c
    g[7, 7] = b
    g[8, 0] = -ep
    g[8, 4] = -em
    g[8, 8] = 2 * c
    g /= 3 * (2 * c + b + 1 / b)
    return g


def min_positive_pt_eigenvalue(params: EdgeParams) -> float:
    """Smallest positive eigenvalue of the edge state's partial transpose.

    Closed form; cross-checked against the eigendecomposition in the test
    suite.  Symmetric under theta -> -theta.
    """
    b, th = params.b, params.theta
    c = math.cos(th)
    # 3c - sqrt(3)|sin theta| = 2 sqrt(3) sin(pi/3 - |theta|), with pi/3 split into
    # hi + lo so that the difference does not cancel as |theta| -> pi/3
    first = 2 * math.sqrt(3.0) * math.sin((_PI_3_HI - abs(th)) + _PI_3_LO)
    # (1 + m^2 - root) / (2m), rationalized so that small |theta| does not cancel;
    # unchanged under b -> 1/b, so taken at m = min(b, 1/b), whose m^4 cannot overflow
    m = min(b, 1 / b)
    root = math.sqrt(1 + m**4 + 2 * m * m * math.cos(2 * th))
    second = 2 * m * math.sin(th) ** 2 / (1 + m * m + root)
    return min(first, second) / (6 * c + 3 * b + 3 / b)


def range_product_vector(
    params: EdgeParams, sigma: Optional[BipartiteState] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The product vector in the edge state's range, phase convention fixed.

    Returns local factors ``(f, g)`` with the joint normalization
    ``1/(sqrt(b) + 1/sqrt(b))`` folded into ``f``, so ``kron(f, g)`` is the
    unit vector
    ``(|0> + sqrt(b) e^{i theta/2} |1>)(|0> - e^{-i theta/2}/sqrt(b) |1>)``
    up to that prefactor.  Verifies membership in the range of ``sigma``,
    which must be ``edge_state(params)`` and is built when not given, and
    that the conjugated version leaves the range of the partial transpose.
    """
    if sigma is None:
        sigma = edge_state(params)
    b, th = params.b, params.theta
    rb = math.sqrt(b)
    phase = complex(math.cos(th / 2), math.sin(th / 2))
    f = np.array([1.0, rb * phase, 0.0], dtype=complex) / (rb + 1 / rb)
    g = np.array([1.0, -phase.conjugate() / rb, 0.0], dtype=complex)

    fg = np.outer(f, g).ravel()
    _, kernel, _ = rank_kernel_range(sigma.mat)
    residual = float(np.linalg.norm(kernel.conj().T @ fg))
    if residual > 1e-10:
        raise NumericalFailureError(
            f"product vector failed range membership (residual {residual:.3e})"
        )
    overlap = abs(complex(_MES.conj() @ np.outer(f.conj(), g).ravel()))
    if overlap <= 1e-6:
        raise NumericalFailureError(
            f"conjugated product vector unexpectedly orthogonal to the"
            f" PT kernel (overlap {overlap:.3e})"
        )
    return f, g


def _noise(eps: float, gap: float) -> float:
    """The noise rule: ``eps`` must be nonnegative (so NaN fails), and 0 means 0.9 * gap/3."""
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return eps if eps > 0 else 0.9 * gap / 3


def build_edge_bundle(params: EdgeParams, eps: float = 0.0) -> EdgeBundle:
    """Assemble the edge state, its NPT rank-5 perturbation at noise ``eps``, and the margin.

    ``eps = 0`` asks for 0.9 * gap/3; a negative, NaN or above-budget (> gap/3)
    noise raises ``ValueError``.  Every admitted noise keeps the perturbation
    PSD: the edge state's smallest positive eigenvalue, min(3c, b + 1/b) /
    (3 (2c + b + 1/b)) with c = cos(theta), is at least gap, and the product
    vector is a unit vector in its range.  The rank-5 NPT check is a tolerance
    decision and raises ``NumericalFailureError``, as when the PT's negative
    eigenvalue, about -eps |<MES|conj(f) g>|^2, lies above ``-PSD_TOL``.
    """
    gap = min_positive_pt_eigenvalue(params)
    eps = _noise(eps, gap)
    if eps > gap / 3:
        raise ValueError(f"eps={eps} exceeds the undistillability budget {gap / 3}")
    sigma = edge_state(params)
    f, g = range_product_vector(params, sigma)
    fg = np.outer(f, g).ravel()
    npt_state = BipartiteState(sigma.mat - eps * np.outer(fg, fg.conj()), QUTRIT_PAIR)

    rank = npt_state._rank
    if rank != 5 or is_ppt(npt_state):
        raise NumericalFailureError(
            f"perturbed edge state fails its rank-5 NPT check: rank {rank}, smallest PT"
            f" eigenvalue {min_pt_eigenvalue(npt_state):.3e} (NPT needs < -PSD_TOL = {-PSD_TOL:g})"
        )

    return EdgeBundle(
        params=params,
        edge=sigma,
        p1=gap,
        factor_a=f,
        factor_b=g,
        eps=eps,
        npt_state=npt_state,
        margin=gap / 3 - eps,
    )


def undistillability_margin(bundle: EdgeBundle, seed: int = 2024) -> float:
    """Proven lower bound ``bundle.margin`` = gap/3 - eps on the best rank-2 PT value.

    A second proven bound, the state's MES dual bound L
    (``witness._mes_dual``, kept on the state), settles it where L >=
    margin, which proves min >= L >= margin; then nothing more runs.  At
    the default noise L measured about 9.60 to 9.97 times the margin for b
    in [1/2, 2] and pi/12 <= |theta| <= pi/4.  Where L < margin (a state
    turned by a local unitary that moves the MES, say), the numeric
    minimizer runs, and its value must undercut neither bound: not the
    margin beyond 1e-8, nor L beyond L's rounding allowance on the scale L
    read from ``_pt_spectrum``.  A violation would be a bookkeeping bug, not
    new physics.  The minimum is the one ``witness._rank2_minimum`` keeps.
    """
    state = bundle.npt_state
    dual, t = _mes_dual(state)
    if dual >= bundle.margin:
        return bundle.margin
    value, _ = best_rank2_witness(state, 1, seed)
    if value < bundle.margin - 1e-8:
        raise InvariantViolationError(
            f"rank-2 minimum {value} violates the proven bound {bundle.margin}"
        )
    if value < dual - _DUAL_SLACK * (float(np.abs(state._pt_spectrum.eigenvalues).max()) + t):
        raise InvariantViolationError(
            f"rank-2 minimum {value} violates the proven MES dual bound {dual}"
        )
    return bundle.margin
