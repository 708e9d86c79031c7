"""The n = 2 rank-2 minimizer's lifted starts, and the width-generic ALS sweep.

At n = 2 the minimizer of X = s * P^(x 2) starts from a frame built from
P's own eigenvectors (``witness._two_copy_frame``), and from kron(B, y) and
kron(y, B), where B is the one-copy minimizer's ``frame_b`` and x (x) y the
product vector of best value p.  The start psi (x) xy has the value v * p,
v the one-copy minimum, so the n = 2 minimum never exceeds it.  At 3x3 no
start reads the seed.  The oracle is the earlier per-sign path, verbatim:
the Schmidt frames of the bottom eigenvector of ``hermitian_eig(s * X)``
and a product search from eight seeded starts.  Neither sign may end more
than 4 tau above it.

Tolerances.  tau = 1e-7 * max|eig X| is the minimizer's stop
(``witness._RANK2_REL_STOP``); as in ``test_rank2_crosscheck.py``, a
linear rate q <= 0.8 leaves a gap of at most 4 tau at that stop, so two
minima of the same operator agree to 4 tau.  Points of one orbit of the
edge family give operators with one spectrum and one rank-2 minimum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distill_lab.multicopy as multicopy
import distill_lab.witness as witness
from distill_lab.edgestate import DEFAULT_GRID, EdgeParams, build_edge_bundle
from distill_lab.harness import EnsembleSpec, random_state, sample_ensemble
from distill_lab.multicopy import extremal_rank2_tensor_power, werner_projector
from distill_lab.qcore import (
    PSD_TOL,
    BipartiteState,
    Dims,
    _power_dims,
    _pt_power,
    hermitian_eig,
    partial_transpose,
    regroup_tensor_power,
)
from distill_lab.rng import _complex_normals, _phase_fixed_qr, derive_seed
from distill_lab.witness import best_rank2_witness, min_rank2_expectation, verify_certificate

D33 = Dims(3, 3)
D81 = Dims(9, 9)
_GAP_IN_TAU = 4.0
SEEDS = list(range(12)) + [2024]
_EPS = np.finfo(float).eps


def _tau(m: np.ndarray) -> float:
    return witness._RANK2_REL_STOP * float(np.abs(np.linalg.eigvalsh(m)).max())


# ---- oracle: the width-2 sweep before it became width-generic, verbatim ------


def width2_als_sweep(m, dims, fb):
    ma, mb = dims
    rows = len(fb)
    # sum_jl conj(B[j,p]) X[ij,kl] B[l,q] at row ip, column kq: over j for each i, then l
    t = fb.conj().transpose(0, 2, 1).reshape(-1, mb) @ m.reshape(ma, mb, -1)
    comp = (t.reshape(ma, rows, 2 * ma, mb) @ fb).reshape(ma, rows, 2, 2 * ma)
    a = witness._bottom(comp.transpose(1, 0, 2, 3).reshape(rows, 2 * ma, 2 * ma))[1]
    fa = np.linalg.qr(a.reshape(rows, ma, 2))[0]
    # sum_ik conj(A[i,p]) X[ij,kl] A[k,q] at row pj, column ql: over i, then over k
    t = fa.conj().transpose(0, 2, 1).reshape(-1, ma) @ m.reshape(ma, -1)
    t = t.reshape(rows, 2 * mb, ma, mb).transpose(0, 1, 3, 2).reshape(rows, -1, ma)
    comp = (t @ fa).reshape(rows, 2 * mb, mb, 2)
    values, b = witness._bottom(comp.transpose(0, 1, 3, 2).reshape(rows, 2 * mb, 2 * mb))
    fb = np.linalg.qr(b.reshape(rows, 2, mb).transpose(0, 2, 1))[0]
    return values, (fa, fb)


@pytest.mark.parametrize("dims", [D33, D81], ids=["9x9", "81x81"])
@pytest.mark.parametrize("case", range(48))
def test_width2_sweep_is_bit_equal_to_the_oracle(dims, case):
    rng = np.random.default_rng(100 * dims.total + case)
    n, rows = dims.total, 1 + case % 5
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g + g.conj().T
    fb = np.linalg.qr(rng.normal(size=(rows, dims.dim_b, 2)) + 1j * rng.normal(size=(rows, dims.dim_b, 2)))[0]
    values, (fa, fb_new) = witness._als_sweep(m, dims, fb)
    want_values, (want_fa, want_fb) = width2_als_sweep(m, dims, fb)
    assert values.tobytes() == want_values.tobytes()
    assert fa.tobytes() == want_fa.tobytes()
    assert fb_new.tobytes() == want_fb.tobytes()


def test_width1_sweep_gives_the_product_value():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    m = g + g.conj().T
    y = np.linalg.qr(rng.normal(size=(4, 3, 1)) + 1j * rng.normal(size=(4, 3, 1)))[0]
    values, (fa, fb) = witness._als_sweep(m, D33, y)
    assert fa.shape == fb.shape == (4, 3, 1)
    for value, x, yy in zip(values, fa[:, :, 0], fb[:, :, 0]):
        xy = np.kron(x, yy)
        assert abs(np.linalg.norm(xy) - 1.0) < 1e-14
        assert value == pytest.approx(float(np.real(xy.conj() @ m @ xy)), abs=1e-13)


# ---- the lifted starts -------------------------------------------------------


def _werner_pre_image() -> BipartiteState:
    return BipartiteState(partial_transpose(werner_projector().mat, D33), D33)


@pytest.fixture
def draws(monkeypatch):
    """(seeds, count) of each ``_complex_normals`` call; any ``SplitMix64`` call fails."""
    calls = []
    real = witness._complex_normals

    def spy(seeds, count):
        calls.append((list(seeds), count))
        return real(seeds, count)

    monkeypatch.setattr(witness, "_complex_normals", spy)
    monkeypatch.setattr(witness, "SplitMix64", None)
    return calls


def test_lifted_minimum_makes_no_haar_draw(draws):
    # at 3x3 neither the one-copy minimizer nor the product search draws anything
    p = werner_projector().mat
    for seed in (0, 7, 2024):
        for x in (p, -p):
            min_rank2_expectation(x, D33, seed)
        for point in (0, 5):
            state = build_edge_bundle(EdgeParams(*DEFAULT_GRID[point])).npt_state
            for sign in (1, -1):
                witness._rank2_minimum(state, 2, seed, sign)
        for sign in (1, -1):
            witness._rank2_minimum(_werner_pre_image(), 2, seed, sign)
    assert draws == []


def test_lifted_minimum_draws_on_stream_4_off_3x3(draws):
    # off 3x3 the one-copy minimizer draws its four Haar frames on stream 0, and the
    # product search its eight y starts on stream 4, one unit vector per start
    dims, seed = Dims(2, 3), 7
    state = random_state(dims, 4, 11)
    witness._rank2_minimum(state, 2, seed)
    assert draws == [
        ([derive_seed(seed, r) for r in range(witness._RANK2_STARTS - 1)], 2 * dims.dim_b),
        ([derive_seed(seed, 4_000_000 + r) for r in range(witness._PRODUCT_STARTS)], dims.dim_b),
    ]


def test_qutrit_product_starts_are_the_basis_and_three_fourier_vectors():
    omega = np.exp(2j * np.pi / 3)
    want = [np.eye(3)[i] for i in range(3)]
    want += [np.array([1, omega**i, omega ** (i * i)]) / math.sqrt(3) for i in range(3)]
    assert witness._QUTRIT_PRODUCT_STARTS.shape == (6, 3, 1)
    assert np.allclose(witness._QUTRIT_PRODUCT_STARTS[:, :, 0], want, rtol=0, atol=1e-15)


def _named_state(name: str) -> BipartiteState:
    """A fresh "werner" pre-image, "grid<i>" rho state or "npt<i>" of ``_npt_states(40)``."""
    if name == "werner":
        return _werner_pre_image()
    if name.startswith("grid"):
        return build_edge_bundle(EdgeParams(*DEFAULT_GRID[int(name[4:])])).npt_state
    return _npt_states(40)[int(name[3:])]


# npt7 and npt11 are rank 5 #7 and rank 6 #3, where the earlier starts missed the basin
@pytest.mark.parametrize("name", ["grid0", "grid5", "werner", "npt7", "npt11"])
def test_two_copy_minimum_reads_no_seed_at_3x3(name):
    for sign in (1, -1):
        value, ansatz = witness._rank2_minimum(_named_state(name), 2, SEEDS[0], sign)
        for seed in SEEDS[1:]:
            other_value, other = witness._rank2_minimum(_named_state(name), 2, seed, sign)
            assert other_value.hex() == value.hex()
            for part in ("frame_a", "frame_b", "coeff"):
                assert getattr(other, part).tobytes() == getattr(ansatz, part).tobytes()


@pytest.fixture
def lifts(monkeypatch):
    """The one-copy value v, P and the product x (x) y of each lifted minimization."""
    calls = []
    lifted, search = witness._lifted_minimum, witness._product_minimum

    def lifted_spy(x, p, dims, one_copy, seed, sign):
        calls.append({"v": one_copy[0], "p_mat": p})
        return lifted(x, p, dims, one_copy, seed, sign)

    def search_spy(p, dims, seed, tol):
        found = search(p, dims, seed, tol)
        calls[-1]["xy"] = np.kron(*found)
        return found

    monkeypatch.setattr(witness, "_lifted_minimum", lifted_spy)
    monkeypatch.setattr(witness, "_product_minimum", search_spy)
    return calls


def _lifted_value(call: dict) -> float:
    """v * p of the lifted start psi (x) xy."""
    xy = call["xy"]
    return call["v"] * float(np.real(xy.conj() @ call["p_mat"] @ xy))


def _rounding(p: np.ndarray) -> float:
    """1000 eps times max|X|, for X = +-P^(x 2), whose largest entry is max|P|^2."""
    return 1e3 * _EPS * float(np.abs(p).max()) ** 2


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_werner_values_stay_at_most_the_lifted_product(lifts, seed):
    report = extremal_rank2_tensor_power(2, seed)
    assert len(lifts) == 2
    lift_min, lift_max = (_lifted_value(c) for c in lifts)
    # v * p = (1/24)(1/12) = 1/288 and (-1/8)(1/8) = -1/64
    assert lift_min == pytest.approx(1 / 288, rel=1e-9)
    assert lift_max == pytest.approx(-1 / 64, rel=1e-9)
    assert report.min_value <= lift_min + _rounding(lifts[0]["p_mat"])
    assert -report.max_value <= lift_max + _rounding(lifts[0]["p_mat"])


@pytest.mark.parametrize("point", range(len(DEFAULT_GRID)))
def test_rho_values_stay_at_most_the_lifted_product(lifts, point):
    report = multicopy.verify_n_undistillable(EdgeParams(*DEFAULT_GRID[point]), 2)
    assert len(lifts) == 2
    lift_min, lift_max = (_lifted_value(c) for c in lifts)
    assert report.min_value <= lift_min + _rounding(lifts[0]["p_mat"])
    assert -report.max_value <= lift_max + _rounding(lifts[0]["p_mat"])


def _npt_states(count: int) -> list:
    states = []
    for rank in range(5, 10):
        spec = EnsembleSpec(dims=D33, rank=rank, count=count // 5, filter="NPT", seed=2900 + rank)
        states += sample_ensemble(spec)[0]
    return states


def test_negative_one_copy_minima_lift_to_two_copy_witnesses():
    checked = 0
    for state in _npt_states(60):
        v1, _ = best_rank2_witness(state, 1)
        if not v1 < -PSD_TOL:
            continue
        v2, cert = best_rank2_witness(state, 2)
        assert cert is not None and verify_certificate(cert, state)
        assert cert.copies == 2 and cert.value == pytest.approx(v2, rel=1e-12) and v2 < 0
        checked += 1
    assert checked >= 50


# ---- the eigenvector frame, from P's spectrum alone ----------------------------


def _captured(mat: np.ndarray, frame: np.ndarray) -> float:
    """Squared norm of the vector with coefficient matrix ``mat`` on the B-span of ``frame``."""
    return float(np.linalg.norm(mat @ frame.conj()) ** 2)


def _check_frames(p: np.ndarray, at_bottom: bool) -> None:
    spec = hermitian_eig(p)
    lam, vecs = spec.eigenvalues, spec.eigenvectors
    x, _ = regroup_tensor_power(p, D33, 2)
    x_eigs = np.linalg.eigvalsh(x)
    rounding = 1e3 * _EPS * max(float(np.abs(lam).max()) ** 2, 1e-300)
    plus, minus = (witness._two_copy_frame(spec, D33, sign) for sign in (1, -1))
    for frame in (plus, minus):
        assert np.abs(frame.conj().T @ frame - np.eye(2)).max() < 1e-13
    # s = +1: (u (x) w - w (x) u)/sqrt2, regrouped, has the value lambda_min * lambda_max,
    # X's bottom eigenvalue when P is NPT, and the frame holds its two leading Schmidt terms
    u, w = (vecs[:, k].reshape(3, 3) for k in (0, -1))
    mat = (np.kron(u, w) - np.kron(w, u)) / math.sqrt(2)
    vec = mat.reshape(-1)
    value = float(np.real(vec.conj() @ x @ vec))
    assert value == pytest.approx(lam[0] * lam[-1], abs=rounding)
    if at_bottom:
        assert value == pytest.approx(x_eigs[0], abs=rounding)
    s = np.linalg.svd(mat, compute_uv=False)
    assert _captured(mat, plus) == pytest.approx(s[0] ** 2 + s[1] ** 2, abs=1e-12)
    # s = -1: t (x) t has the value max|lambda|^2, X's top eigenvalue, and the frame
    # holds its leading Schmidt terms s1^2 and s1 s2
    t = vecs[:, int(np.argmax(np.abs(lam)))].reshape(3, 3)
    tt = np.kron(t, t)
    assert float(np.real(tt.reshape(-1).conj() @ x @ tt.reshape(-1))) == pytest.approx(
        float(np.abs(lam).max()) ** 2, abs=rounding
    )
    assert x_eigs[-1] == pytest.approx(float(np.abs(lam).max()) ** 2, abs=rounding)
    s1, s2 = np.linalg.svd(t, compute_uv=False)[:2]
    assert _captured(tt, minus) == pytest.approx(s1**4 + (s1 * s2) ** 2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    eigenvalues=st.lists(st.floats(min_value=-1, max_value=1), min_size=9, max_size=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_frames_from_the_spectrum_of_p(eigenvalues, seed):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))[0]
    p = (q * np.array(eigenvalues)) @ q.conj().T
    p = (p + p.conj().T) / 2
    # lambda_min * lambda_max is the smallest product lambda_i lambda_j when P is NPT
    _check_frames(p, at_bottom=min(eigenvalues) < 0 < max(eigenvalues))


def test_frames_of_the_werner_pre_image():
    # PSD with the eigenvalues 0 (once) and 1/8: lambda_min * lambda_max = 0 is still
    # X's bottom eigenvalue, and the top |lambda| eigenspace has dimension 8
    _check_frames(np.asarray(_werner_pre_image()._pt), at_bottom=True)


# ---- oracle: the per-sign path, one hermitian_eig(+-X) per call and seeded y, verbatim


def per_sign_eigenvector_start(m: np.ndarray, dims: Dims) -> tuple[float, np.ndarray]:
    """max|eig X|, and the two leading right Schmidt vectors of X's bottom eigenvector."""
    ma, mb = dims
    spec = hermitian_eig(m)
    # rows of vh, unconjugated
    frame = np.linalg.svd(spec.eigenvectors[:, 0].reshape(ma, mb))[2][:2].T
    return float(np.abs(spec.eigenvalues).max()), frame


def seeded_product_minimum(p, dims, seed, tol):
    """The product search from eight y starts drawn from derive_seed(seed, 4_000_000 + r)."""
    seeds = [derive_seed(seed, 4_000_000 + r) for r in range(8)]
    y0 = _phase_fixed_qr(_complex_normals(seeds, dims.dim_b)[0].reshape(-1, dims.dim_b, 1))
    vals, fa, fb = witness._descend(p, dims, y0, tol)
    best = int(np.argmin(vals))
    return fa[best, :, 0], fb[best, :, 0]


def per_sign_lifted_minimum(x, p, dims, one_copy, seed):
    """``witness._lifted_minimum`` when it decomposed its own X = s * P^(x 2)."""
    v, ansatz = one_copy
    m = np.asarray(x, dtype=complex)
    big = _power_dims(dims, 2)
    scale, frame = per_sign_eigenvector_start(m, big)
    # max|eig P| is the square root of max|eig P (x) P|
    target = p if v >= 0 else -p
    y = seeded_product_minimum(target, dims, seed, witness._RANK2_REL_STOP * math.sqrt(scale))[1][:, None]
    b = ansatz.frame_b
    fb = np.stack([frame, np.kron(b, y), np.kron(y, b)])
    return witness._rank2_from_starts(m, big, fb, scale)


def _oracle_states() -> list:
    """The rho state at each grid point, the Werner projector's pre-image, 40 NPT states."""
    grid = [build_edge_bundle(EdgeParams(*pt)).npt_state for pt in DEFAULT_GRID]
    return grid + [_werner_pre_image()] + _npt_states(40)


@pytest.fixture(scope="module")
def oracle_gaps() -> dict:
    """Per sign, (minimum - per-sign oracle minimum) / tau for each oracle state."""
    gaps = {1: [], -1: []}
    for state in _oracle_states():
        p = np.asarray(state._pt)
        x, _ = regroup_tensor_power(p, D33, 2)
        for sign in (1, -1):
            one_copy = min_rank2_expectation(sign * p, D33, 2024)
            want = per_sign_lifted_minimum(sign * x, p, D33, one_copy, 2024)[0]
            got = witness._rank2_minimum(state, 2, 2024, sign)[0]
            gaps[sign].append((got - want) / _tau(x))
    assert [len(g) for g in gaps.values()] == [len(DEFAULT_GRID) + 1 + 40] * 2
    return gaps


@pytest.mark.parametrize("sign", [1, -1], ids=["+X", "-X"])
def test_never_more_than_4_tau_above_the_per_sign_oracle(oracle_gaps, sign):
    # measured: at most 0.005 tau above it for +X and 0.16 tau for -X; below it by
    # up to 95926 tau (+X, rank 6 #3) and 4731 tau (-X, grid point 2)
    assert max(oracle_gaps[sign]) <= _GAP_IN_TAU


# the n = 2 rho minimum of +X at each grid point and on _npt_states(40): the lowest of
# 32 Haar starts, the three starts of the minimizer and the three of the per-sign oracle,
# stopped at 1e-12 * max|eig X|
PINNED_PLUS_REFERENCES = [
    "0x1.f0a1645a05526p-15",  # point 0
    "0x1.f0a16459ce05ep-15",  # point 1
    "0x1.612196fd9971dp-13",  # point 2
    "0x1.612196fd996e3p-13",  # point 3
    "0x1.0661bcb93edb7p-15",  # point 4
    "0x1.0661bcb92f63fp-15",  # point 5
    "0x1.6e7d480f924b5p-13",  # point 6
    "0x1.6e7d480f8f99ep-13",  # point 7
    "0x1.f0a16459c62e9p-15",  # point 8
    "0x1.f0a1645a2c659p-15",  # point 9
    "0x1.612196fd9971fp-13",  # point 10
    "0x1.612196fd996cap-13",  # point 11
    "-0x1.2c7d79c088b2dp-5",  # rank 5 #0
    "-0x1.0651f787f88fap-5",  # rank 5 #1
    "-0x1.84763fa52279ep-5",  # rank 5 #2
    "-0x1.198d887f41143p-5",  # rank 5 #3
    "-0x1.18d7b98b56b69p-5",  # rank 5 #4
    "-0x1.39d6973d6200cp-5",  # rank 5 #5
    "-0x1.87de327cf9456p-5",  # rank 5 #6
    "-0x1.41c290dddc297p-4",  # rank 5 #7
    "-0x1.bdc6d21667818p-6",  # rank 6 #0
    "-0x1.6bd65eb405fd0p-5",  # rank 6 #1
    "-0x1.c3eb60e490b06p-6",  # rank 6 #2
    "-0x1.ecc59f9345f05p-6",  # rank 6 #3
    "-0x1.77d8567c95bfcp-6",  # rank 6 #4
    "-0x1.37a899f25f1d7p-5",  # rank 6 #5
    "-0x1.1a69153f7df10p-5",  # rank 6 #6
    "-0x1.ca34e9ee742afp-6",  # rank 6 #7
    "-0x1.c76f8d394b27ap-6",  # rank 7 #0
    "-0x1.20920bedb4392p-6",  # rank 7 #1
    "-0x1.15f6fa653123fp-5",  # rank 7 #2
    "-0x1.28d18378e58b2p-6",  # rank 7 #3
    "-0x1.2c5dbd2e87665p-6",  # rank 7 #4
    "-0x1.362cc69ac5681p-6",  # rank 7 #5
    "-0x1.4b8d65d3398b9p-6",  # rank 7 #6
    "-0x1.b80bfcde5425bp-6",  # rank 7 #7
    "-0x1.9be4397f28cf4p-6",  # rank 8 #0
    "-0x1.7bbf9201b5c3fp-6",  # rank 8 #1
    "-0x1.b47444150962dp-6",  # rank 8 #2
    "-0x1.240b6a6d2f3b4p-6",  # rank 8 #3
    "-0x1.66745a9041f35p-6",  # rank 8 #4
    "-0x1.e3c4a1c45d928p-7",  # rank 8 #5
    "-0x1.2c106e1c7d15ap-6",  # rank 8 #6
    "-0x1.194ca2cbb8516p-7",  # rank 8 #7
    "-0x1.3f7c0c63372d0p-6",  # rank 9 #0
    "-0x1.7b4844ac80f56p-7",  # rank 9 #1
    "-0x1.92ca3e5398384p-6",  # rank 9 #2
    "-0x1.47f25277eff2cp-6",  # rank 9 #3
    "-0x1.0841916c37bd2p-6",  # rank 9 #4
    "-0x1.13126cc79292bp-6",  # rank 9 #5
    "-0x1.589a6a4a05b11p-6",  # rank 9 #6
    "-0x1.28df2c0a85d91p-6",  # rank 9 #7
]


@pytest.mark.parametrize("index", range(len(DEFAULT_GRID) + 40))
def test_plus_minimum_is_near_the_pinned_many_start_reference(index):
    if index < len(DEFAULT_GRID):
        state = build_edge_bundle(EdgeParams(*DEFAULT_GRID[index])).npt_state
    else:
        state = _npt_states(40)[index - len(DEFAULT_GRID)]
    x = _pt_power(state, 2)[0]
    value = witness._rank2_minimum(state, 2, 2024)[0]
    gap = (value - float.fromhex(PINNED_PLUS_REFERENCES[index])) / _tau(np.asarray(x))
    # the reference's own stop leaves at most 4e-5 tau below a limit it shares
    assert -4e-5 <= gap <= _GAP_IN_TAU


# ---- the rho minimum over orbits, seeds and a pinned reference ---------------


def _orbits() -> list[list[int]]:
    """Grid indices of each orbit {(b, t), (b, -t), (1/b, t), (1/b, -t)}."""
    seen, orbits = set(), []
    for i, (b, theta) in enumerate(DEFAULT_GRID):
        if i in seen:
            continue
        members = {(b, theta), (b, -theta), (1 / b, theta), (1 / b, -theta)}
        orbit = [j for j, pt in enumerate(DEFAULT_GRID) if pt in members]
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def test_grid_has_four_orbits():
    assert _orbits() == [[0, 1, 8, 9], [2, 3, 10, 11], [4, 5], [6, 7]]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("orbit", range(4))
def test_rho_minimum_is_the_same_across_an_orbit_and_seeds(n, orbit):
    points = _orbits()[orbit]
    values, taus = [], []
    for i in points:
        params = EdgeParams(*DEFAULT_GRID[i])
        claim = multicopy._n_copy_claim(params, n, SEEDS[0])
        taus.append(_tau(np.asarray(_pt_power(claim[2].npt_state, n)[0])))
        values.append(claim[0])
        values += [multicopy._n_copy_claim(params, n, seed)[0] for seed in SEEDS[1:]]
    assert max(values) - min(values) <= _GAP_IN_TAU * max(taus)


# the n = 2 rho minimum at each grid point, default noise: the lowest of 64 Haar
# starts stopped at 1e-9 * max|eig X|, the lifted starts at 13 seeds and an
# 8-start L-BFGS over vec(A B^T)
PINNED_N2_MINIMA = [
    "0x1.f728ff80da635p-15",  # point 0
    "0x1.f728ff81113e1p-15",  # point 1
    "0x1.6d0195294dee6p-13",  # point 2
    "0x1.6d01952944b83p-13",  # point 3
    "0x1.0ae7fc35f7b8bp-15",  # point 4
    "0x1.0ae7fc35e0a21p-15",  # point 5
    "0x1.7cf6a0db1cbc2p-13",  # point 6
    "0x1.7cf6a0db2199cp-13",  # point 7
    "0x1.f728ff80aa38ep-15",  # point 8
    "0x1.f728ff80b4b58p-15",  # point 9
    "0x1.6d01952949721p-13",  # point 10
    "0x1.6d01952940dc3p-13",  # point 11
]


@pytest.mark.parametrize("point", range(len(DEFAULT_GRID)))
def test_rho_n2_minimum_matches_the_pinned_reference(point):
    value = multicopy._n_copy_claim(EdgeParams(*DEFAULT_GRID[point]), 2)[0]
    assert value == pytest.approx(float.fromhex(PINNED_N2_MINIMA[point]), rel=1e-3)
