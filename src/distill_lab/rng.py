"""Portable seeded randomness: SplitMix64 uniforms, Box-Muller Gaussians.

Every randomized routine in the library draws from this generator so that
a documented seed reproduces states and witnesses bit-for-bit, including
across reimplementations in other languages.  Conventions:

* SplitMix64 with increment ``0x9E3779B97F4A7C15`` and the standard
  ``(30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)`` finalizer.
* ``uniform()`` maps the top 53 bits of one output word to ``[0, 1)``.
* One complex Gaussian consumes exactly two uniforms ``(u1, u2)`` via
  Box-Muller; a zero ``u1`` is redrawn.  Real and imaginary parts each
  carry variance 1/2 (standard complex normal).
* Matrices fill row by row, left to right.
* Sub-streams derive as ``derive_seed(seed, index)``; derivation is a
  single SplitMix64 step from ``seed XOR mix64(index + 1)``.

The ``SplitMix64`` methods are the specification.  Word ``k`` (from 1) of
the stream whose state is ``s`` is ``mix64(s + k * increment)``, so
``_complex_normals`` draws many streams at once as one uint64 array and
equals the per-stream draws bit for bit.  Its logarithms, cosines and
sines stay in ``math``: numpy's versions may round differently in the last
place (``np.log`` disagrees with ``math.log`` on a fraction of a percent
of draws on some CPUs), while the square root, products and quotients are
correctly rounded either way.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-stream seed for (seed, index)."""
    return mix64((seed & _MASK) ^ mix64((index + 1) & _MASK))


class SplitMix64:
    """Minimal SplitMix64 stream with Gaussian helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal_pair(self) -> tuple[float, float]:
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)

    def complex_normal(self) -> complex:
        re, im = self.normal_pair()
        return complex(re, im) / math.sqrt(2.0)

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of independent standard complex Gaussians, filled row-major."""
        out = np.empty((rows, cols), dtype=complex)
        for r in range(rows):
            for c in range(cols):
                out[r, c] = self.complex_normal()
        return out

    def complex_vector(self, n: int) -> np.ndarray:
        return self.complex_matrix(1, n).reshape(n)

    def unit_vector(self, n: int) -> np.ndarray:
        v = self.complex_vector(n)
        return v / np.linalg.norm(v)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` applied to every entry of ``x`` through Python floats."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _complex_normals(states: Sequence[int], count: int) -> tuple[np.ndarray, list[int]]:
    """``count`` standard complex Gaussians from each of several streams at once.

    Row ``i`` equals ``SplitMix64(states[i]).complex_vector(count)`` bit for
    bit, and end state ``i`` equals that generator's state afterwards.  A
    row with a zero ``u1`` (redrawn, so its later words shift) takes the
    scalar path.
    """
    states = [s & _MASK for s in states]
    start = np.array(states, dtype=np.uint64).reshape(-1, 1)
    # uint64 array arithmetic wraps mod 2**64, as the scalar stream's masks do
    z = start + np.arange(1, 2 * count + 1, dtype=np.uint64) * _GAMMA
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    u = (z >> 11).astype(float) * 2.0**-53
    redraw = None
    if not u[:, 0::2].all():
        redraw = ~u[:, 0::2].all(axis=1)
        u = u[~redraw]
    u1, u2 = u[:, 0::2], u[:, 1::2]
    r = np.sqrt(-2.0 * _elementwise(math.log, u1))
    angle = 2.0 * math.pi * u2
    good = np.empty(u1.shape, dtype=complex)
    good.real = r * _elementwise(math.cos, angle) / math.sqrt(2.0)
    good.imag = r * _elementwise(math.sin, angle) / math.sqrt(2.0)
    step = 2 * count * _GAMMA
    ends = [(s + step) & _MASK for s in states]
    if redraw is None:
        return good, ends
    rows = np.empty((len(ends), count), dtype=complex)
    rows[~redraw] = good
    for i in np.flatnonzero(redraw):
        gen = SplitMix64(states[i])
        rows[i] = gen.complex_vector(count)
        ends[i] = gen._state
    return rows, ends


def _phase_fixed_qr(g: np.ndarray) -> np.ndarray:
    """Q factor of each matrix in ``g`` with the R-diagonal phases moved into Q."""
    q, r = np.linalg.qr(g)
    d = r.diagonal(axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_isometry(gen: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """Haar-ish random isometry via QR with the R-diagonal phase fixed."""
    return _phase_fixed_qr(gen.complex_matrix(rows, cols))


def random_unitary(gen: SplitMix64, dim: int) -> np.ndarray:
    return random_isometry(gen, dim, dim)
