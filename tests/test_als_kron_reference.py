"""The contracted ALS sweep against the explicit-kron sweep it replaced.

``witness._als_sweep`` builds each compression straight from X read as a
(dA, dB, dA, dB) tensor.  The reference below is the earlier sweep, kept
verbatim: it forms I (x) B and A (x) I row by row and multiplies X by
them.  Both compute the same sums, but the kron products also add exact
zeros, so BLAS blocks and rounds them differently, and the two cannot agree
bit for bit.

Tolerances, fixed before running.  A compression entry sums at most
dB^2 <= 81 products, each bounded by max|X|, and each side rounds every
partial sum once; 64 * eps * max|X| covers the accumulated difference with
room to spare.  A full minimization feeds such differences through eigh
and QR at every sweep, and must take the same sweeps and land within
1e-12 relative of the kron minimization.
"""

import math

import numpy as np
import pytest

from distill_lab import witness
from distill_lab.edgestate import EdgeParams, build_edge_bundle
from distill_lab.multicopy import werner_projector
from distill_lab.qcore import Dims, partial_transpose, regroup_tensor_power
from distill_lab.witness import min_rank2_expectation

_EPS = np.finfo(float).eps
_COMPRESSION_TOL = 64 * _EPS  # times max|X|
_VALUE_REL_TOL = 1e-12


# ---- reference: the explicit-kron sweep, verbatim ---------------------------


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


def reference_als_sweep(m, dims, fb):
    ma, mb = dims
    rows = len(fb)
    eye_a = np.broadcast_to(np.eye(ma), (rows, ma, ma))
    a = _compressed_bottom(m, _kron_rows(eye_a, fb))[1].reshape(rows, ma, 2)
    fa = np.linalg.qr(a)[0]
    eye_b = np.broadcast_to(np.eye(mb), (rows, mb, mb))
    values, b = _compressed_bottom(m, _kron_rows(fa, eye_b))
    fb = np.linalg.qr(b.reshape(rows, 2, mb).transpose(0, 2, 1))[0]
    return values, (fa, fb)


# ---- the two compressions of one sweep --------------------------------------


def _kron_compression(m: np.ndarray, w_op: np.ndarray) -> np.ndarray:
    return w_op.conj().transpose(0, 2, 1) @ m @ w_op


@pytest.mark.parametrize("ma,mb", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (9, 9)])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
def test_compressions_match_kron(monkeypatch, ma, mb, rows):
    rng = np.random.default_rng(1000 * ma + 10 * mb + rows)
    n = ma * mb
    # a general complex X: the compressions are linear in X and need no symmetry
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    fb = np.linalg.qr(rng.normal(size=(rows, mb, 2)) + 1j * rng.normal(size=(rows, mb, 2)))[0]
    seen = []
    bottom = witness._bottom

    def recorded(comp):
        seen.append(comp.copy())
        return bottom(comp)

    monkeypatch.setattr(witness, "_bottom", recorded)
    _, (fa, _) = witness._als_sweep(m, Dims(ma, mb), fb)

    assert len(seen) == 2
    tol = _COMPRESSION_TOL * float(np.abs(m).max())
    eye_a = np.broadcast_to(np.eye(ma), (rows, ma, ma))
    eye_b = np.broadcast_to(np.eye(mb), (rows, mb, mb))
    for got, want in (
        (seen[0], _kron_compression(m, _kron_rows(eye_a, fb))),
        (seen[1], _kron_compression(m, _kron_rows(fa, eye_b))),
    ):
        assert got.shape == want.shape
        assert float(np.abs(got - want).max()) <= tol


# ---- full minimizations -----------------------------------------------------


def _werner(n: int) -> tuple[np.ndarray, Dims]:
    ws = werner_projector()
    return regroup_tensor_power(ws.mat, ws.dims, n)


def _rho(n: int) -> tuple[np.ndarray, Dims]:
    state = build_edge_bundle(EdgeParams(1.0, math.pi / 6)).npt_state
    return regroup_tensor_power(partial_transpose(state.mat, state.dims), state.dims, n)


def _counted_minimum(monkeypatch, sweep, m: np.ndarray, dims: Dims) -> tuple[float, int]:
    calls = []

    def counted(*args):
        calls.append(None)
        return sweep(*args)

    monkeypatch.setattr(witness, "_als_sweep", counted)
    value, _ = min_rank2_expectation(m, dims)
    return value, len(calls)


@pytest.mark.parametrize("build", [_werner, _rho], ids=["werner", "rho"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", [1, -1], ids=["min", "max"])
def test_minimization_follows_kron_sweeps(monkeypatch, build, n, sign):
    mat, dims = build(n)
    m = sign * mat
    contracted = _counted_minimum(monkeypatch, witness._als_sweep, m, dims)
    kron = _counted_minimum(monkeypatch, reference_als_sweep, m, dims)
    assert contracted[1] == kron[1]
    assert abs(contracted[0] - kron[0]) <= _VALUE_REL_TOL * abs(kron[0])
