"""Many-copy bounds: the separable Werner projector and copy-count thresholds.

The projector onto the complement of the maximally entangled two-qutrit
state (normalized to trace one) is separable, so its tensor powers admit
no witness; the extremal rank-2 values of those powers are pinned to
``1/8^n`` from above and ``1/24^n`` from below.  The open question whether
the true minimum equals ``(1/2) * 12^-n`` is probed numerically and
reported, never asserted: at n = 2 the lifted vector psi (x) (x (x) y)
attains it, one-copy minimum 1/24 times product minimum 1/12, and the
question is whether anything beats that.  Combining the lower bound with
an operator-norm expansion gives an analytic n-copy bound for the rank-5
NPT edge perturbation; its noise terms sum to (N + eps)^n - N^n, N the PT
operator norm, so the bound's root ``eps(n)`` has a closed form, and below
it the state stays n-undistillable.
Every rank-2 extremum is ``witness._rank2_minimum`` of a state: the rank-5
NPT state, or the Werner projector's PPT pre-image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .edgestate import (
    QUTRIT_PAIR,
    _MES,
    EdgeBundle,
    EdgeParams,
    _noise,
    build_edge_bundle,
    edge_state,
    min_positive_pt_eigenvalue,
)
from .qcore import (
    BipartiteState,
    InvariantViolationError,
    PureState,
    _check_copy_count,
    _power_dims,
    _pt_power,
    min_pt_eigenvalue,
    partial_transpose,
)
from .witness import _rank2_minimum, min_rank2_expectation


@dataclass(frozen=True)
class MulticopyReport:
    """Extremal rank-2 values of an n-copy operator plus the relevant bounds.

    ``bound_lower`` is proven; ``conjecture_value`` (Werner target only) is
    the open conjecture ``(1/2) * 12^-n``, reported for distance only.
    ``eps_threshold`` (edge target only) is the root of the analytic n-copy
    bound, capped at gap/3: an explicit noise below which the state is
    n-undistillable, stronger than the bare existence claim.  ``eps_used``
    is the noise the claim ran at, at most half of it.
    """

    n: int
    target: str
    max_value: float
    max_witness: PureState
    min_value: float
    min_witness: PureState
    bound_lower: float
    conjecture_value: Optional[float]
    eps_threshold: Optional[float]
    product_maximizer_value: Optional[float] = None
    eps_used: Optional[float] = None
    npt_min_pt_eigenvalue: Optional[float] = None


def werner_projector() -> BipartiteState:
    """(identity - MES projector) / 8: separable, trace one, rank eight, PPT."""
    mat = (np.eye(9, dtype=complex) - np.outer(_MES, _MES.conj())) / 8
    return BipartiteState(mat, QUTRIT_PAIR)


def max_rank2_overlap_with_mes(seed: int = 2024) -> float:
    """Largest squared overlap of a Schmidt-rank-<=2 unit vector with the MES.

    Computed by minimizing the expectation of minus the MES projector;
    the exact answer is 2/3.
    """
    value, _ = min_rank2_expectation(-np.outer(_MES, _MES.conj()), QUTRIT_PAIR, seed)
    return -value


def extremal_rank2_tensor_power(n: int, seed: int = 2024) -> MulticopyReport:
    """Extremal rank-2 expectations of the n-fold Werner-projector power.

    The bipartition groups all A factors against all B factors, exactly
    the cut across which witness Schmidt ranks are counted.  Enforces the
    proven bracket [1/24^n, 1/8^n]; reports the distance of the found
    minimum to the conjectured (1/2) * 12^-n.  Both extrema are
    ``witness._rank2_minimum`` of the projector W's PPT pre-image W^Gamma =
    (I - F/3)/8 (F the swap; eigenvalues 1/12 and 1/6), whose ``_pt`` is W
    bit for bit, as the partial transpose is an exact permutation.
    """
    _check_copy_count(n)
    pre = BipartiteState(partial_transpose(werner_projector().mat, QUTRIT_PAIR), QUTRIT_PAIR)
    mat, dims = _pt_power(pre, n)
    min_value, min_at = _rank2_minimum(pre, n, seed)
    neg_max, max_at = _rank2_minimum(pre, n, seed, -1)
    max_value = -neg_max
    # the product |0..0>_A |1..1>_B is basis vector 0 * 3^n + (11..1 in base 3)
    ones = (3**n - 1) // 2
    product_value = float(mat[ones, ones].real)

    bound_lower = 1.0 / 24.0**n
    bound_upper = 1.0 / 8.0**n
    if min_value < bound_lower - 1e-8:
        raise InvariantViolationError(
            f"rank-2 minimum {min_value} undercuts the proven bound {bound_lower};"
            " Schmidt-rank bookkeeping is broken"
        )
    if max_value > bound_upper + 1e-10:
        raise InvariantViolationError(
            f"rank-2 maximum {max_value} exceeds the projector ceiling {bound_upper}"
        )
    return MulticopyReport(
        n=n,
        target="werner",
        max_value=max_value,
        max_witness=PureState(max_at.vector(), dims),
        min_value=min_value,
        min_witness=PureState(min_at.vector(), dims),
        bound_lower=bound_lower,
        conjecture_value=0.5 / 12.0**n,
        eps_threshold=None,
        product_maximizer_value=product_value,
    )


def undistillability_bound(params: EdgeParams, n: int, eps: float) -> float:
    """Closed-form lower bound on the n-copy rank-2 value at noise ``eps``.

    The leading term is (gap/3)^n.  Every cross term with k noise factors
    is controlled by operator norms, C(n,k) eps^k N^(n-k) with N the PT
    operator norm, and by the binomial theorem these terms sum to
    (N + eps)^n - N^n = N^n expm1(n log1p(eps/N)), a form that does not
    cancel at small ``eps``.  Where n log1p(eps/N) exceeds 53 ln 2 (at the
    budget gap/3 on ``DEFAULT_GRID``, not below n = 1277), N^n is below half
    an ulp of (N + eps)^n, and the difference is taken as it stands: there
    N^n can underflow to 0 while the expm1 form overflows.  Raises
    ``ValueError`` unless ``n >= 1`` and ``eps >= 0`` (so NaN fails), and
    ``OverflowError`` only where the bound lies below -1.8e308.
    """
    if n < 1:
        raise ValueError("copy count must be positive")
    if not eps >= 0:
        raise ValueError(f"noise eps must be nonnegative, got {eps}")
    return _series_bound(*_gap_and_pt_norm(params), n, eps)


def _gap_and_pt_norm(params: EdgeParams) -> tuple[float, float]:
    """The bound's two constants: the PT gap and the PT operator norm (from ``_pt_spectrum``)."""
    gap = min_positive_pt_eigenvalue(params)
    return gap, float(edge_state(params)._pt_spectrum.eigenvalues[-1])


# past this exponent x = n log1p(eps/N), e^-x is below 2^-53: N^n is under half an
# ulp of (N + eps)^n, so their difference cannot cancel, while N^n may underflow
# to 0 and expm1(x) overflow
_DIRECT_NOISE_EXPONENT = 53 * math.log(2.0)


def _series_bound(gap: float, pt_norm: float, n: int, eps: float) -> float:
    growth = n * math.log1p(eps / pt_norm)
    if growth > _DIRECT_NOISE_EXPONENT:
        noise = (pt_norm + eps) ** n - pt_norm**n
    else:
        noise = pt_norm**n * math.expm1(growth)
    return (gap / 3.0) ** n - noise


def eps_threshold_for_copies(params: EdgeParams, n: int) -> float:
    """The noise at which the n-copy bound reaches zero, capped at the budget gap/3.

    Setting (gap/3)^n = (N + eps)^n - N^n gives the root in closed form,
    eps(n) = N ((1 + (gap/3N)^n)^(1/n) - 1), evaluated as
    N expm1(log1p((gap/3N)^n) / n).  The bound is positive below eps(n);
    eps(1) = gap/3, and eps(n) decreases in the copy count.
    """
    if n < 1:
        raise ValueError("copy count must be positive")
    return _eps_threshold(*_gap_and_pt_norm(params), n)


def _eps_threshold(gap: float, pt_norm: float, n: int) -> float:
    """The root of ``_series_bound`` in eps, capped at gap/3, on the bound's two constants."""
    root = pt_norm * math.expm1(math.log1p((gap / (3.0 * pt_norm)) ** n) / n)
    return min(root, gap / 3.0)


def _n_copy_claim(
    params: EdgeParams, n: int, seed: int = 2024, eps: float = 0.0
) -> tuple[float, PureState, EdgeBundle, float, float]:
    """The checked claim of ``verify_n_undistillable``, without its report-only maximum.

    The bound's two constants are computed once and serve the threshold and
    the bound.  The minimum is ``witness._rank2_minimum`` of the bundle's NPT
    state, which keeps it.  Returns ``(min_value, min_witness, bundle,
    threshold, bound)``.
    """
    _check_copy_count(n)
    gap, pt_norm = _gap_and_pt_norm(params)
    threshold = _eps_threshold(gap, pt_norm, n)
    bundle = build_edge_bundle(params, min(_noise(eps, gap), threshold / 2))

    min_value, min_at = _rank2_minimum(bundle.npt_state, n, seed)
    min_witness = PureState(min_at.vector(), _power_dims(QUTRIT_PAIR, n))

    bound = _series_bound(gap, pt_norm, n, bundle.eps)
    if min_value <= 0.0 or min_value < bound - 1e-8:
        raise InvariantViolationError(
            f"n={n} rank-2 minimum {min_value} fell below the analytic bound {bound}"
        )
    return min_value, min_witness, bundle, threshold, bound


def verify_n_undistillable(
    params: EdgeParams, n: int, seed: int = 2024, eps: float = 0.0
) -> MulticopyReport:
    """Numerically confirm n-copy undistillability of the edge perturbation.

    The claim comes first: the NPT rank-5 state is built at noise
    ``min(eps, eps_threshold/2)``, with ``eps`` read as ``build_edge_bundle``
    reads it (0 asks for 0.9 * gap/3, and any ``eps`` at or above the cap,
    ``inf`` included, runs at the cap), and the rank-2 minimum of its n-copy
    partial transpose must stay positive and above the analytic bound.  A
    violation raises ``InvariantViolationError``; it would mean a bug, not a
    distillation protocol.  Only then is the rank-2 maximum, -min(-PT), added
    to the report; no check reads it, and the multicopy suite runs the claim
    alone.  Both come from ``witness._rank2_minimum`` on the NPT state: the
    claim's minimum is kept there, and the maximum asks for sign -1.  On
    this two-qutrit state neither reads ``seed`` at n <= 2.
    """
    min_value, min_witness, bundle, threshold, bound = _n_copy_claim(params, n, seed, eps)
    neg_max, max_at = _rank2_minimum(bundle.npt_state, n, seed, -1)
    npt_min = min_pt_eigenvalue(bundle.npt_state)
    return MulticopyReport(
        n=n,
        target="rho",
        max_value=-neg_max,
        max_witness=PureState(max_at.vector(), min_witness.dims),
        min_value=min_value,
        min_witness=min_witness,
        bound_lower=bound,
        conjecture_value=None,
        eps_threshold=threshold,
        eps_used=bundle.eps,
        npt_min_pt_eigenvalue=npt_min,
    )
