"""The stacked multi-stream Gaussian kernel against the scalar SplitMix64 stream.

``_ScalarStream`` is a verbatim copy of the scalar generator as it stood
before the kernel existed: the oracle the kernel, the stacked QR and the
stacked frame completion must match byte for byte, values and end states.
"""

import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.rng import (
    _GAMMA,
    _MASK,
    SplitMix64,
    _complex_normals,
    _phase_fixed_qr,
    _unit_rows,
    derive_seed,
    random_isometry,
)
from distill_lab import witness

# ---- reference oracle: the scalar stream, verbatim ---------------------------


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class _ScalarStream:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64(self._state)

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


def _isometry_one(g: np.ndarray) -> np.ndarray:
    """The per-matrix phase-fixed QR of ``random_isometry``, verbatim."""
    q, r = np.linalg.qr(g)
    d = r.diagonal().copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _complete_to_frame(gen: _ScalarStream, a: np.ndarray) -> np.ndarray:
    """The seeded frame completion, verbatim."""
    d = a.size
    while True:
        extra = gen.complex_vector(d)
        extra -= a * (a.conj() @ extra)
        nrm = float(np.linalg.norm(extra))
        if nrm > 1e-8:
            return np.column_stack([a, extra / nrm])


def _assert_matches_oracle(states: list[int], count: int) -> None:
    rows, ends = _complex_normals(states, count)
    assert rows.shape == (len(states), count)
    for i, s in enumerate(states):
        ref = _ScalarStream(s)
        assert rows[i].tobytes() == ref.complex_vector(count).tobytes()
        assert ends[i] == ref._state


def _zero_u1_seed(j: int) -> int:
    """A seed whose pair ``j`` draws u1 == 0: word 2j + 1 is mix64(0) == 0."""
    return (-(2 * j + 1) * _GAMMA) & _MASK


# ---- the kernel ----------------------------------------------------------------


class TestComplexNormals:
    def test_matches_scalar_stream(self):
        # 64 streams at every count 1..81: 212544 draws
        states = [derive_seed(4242, i) for i in range(64)]
        for count in range(1, 82):
            _assert_matches_oracle(states, count)

    def test_zero_u1_is_redrawn(self):
        for j in (0, 7):
            seed = _zero_u1_seed(j)
            ref = _ScalarStream(seed)
            words = [ref.uniform() for _ in range(2 * j + 2)]
            assert words[2 * j] == 0.0
            _assert_matches_oracle([derive_seed(1, j), seed, 5, seed], 12)

    def test_edge_shapes_and_seed_masking(self):
        rows, ends = _complex_normals([], 5)
        assert rows.shape == (0, 5) and ends == []
        _assert_matches_oracle([-1, 1 << 70, 0], 3)
        _assert_matches_oracle([3, 4], 0)

    @settings(max_examples=40, deadline=None)
    @given(
        states=st.lists(st.integers(0, _MASK), min_size=1, max_size=6),
        count=st.integers(0, 81),
    )
    def test_property_equals_scalar_stream(self, states, count):
        _assert_matches_oracle(states, count)

    def test_unit_rows_equal_unit_vector(self):
        states = [derive_seed(77, i) for i in range(32)]
        rows = _unit_rows(_complex_normals(states, 9)[0])
        for i, s in enumerate(states):
            assert rows[i].tobytes() == SplitMix64(s).unit_vector(9).tobytes()


# ---- the draw sites' stacked steps --------------------------------------------


class TestStackedSteps:
    def test_stacked_qr_equals_per_matrix_qr(self):
        gen = _ScalarStream(9090)
        mats = np.array([gen.complex_matrix(9, 2) for _ in range(64)])
        stacked = _phase_fixed_qr(mats)
        for g, q in zip(mats, stacked):
            assert q.tobytes() == _isometry_one(g).tobytes()
        for s in (1, 2, 3):
            ref = _isometry_one(_ScalarStream(s).complex_matrix(3, 2))
            assert random_isometry(SplitMix64(s), 3, 2).tobytes() == ref.tobytes()

    @staticmethod
    def _after_starts(seed: int, n: int) -> _ScalarStream:
        gen = _ScalarStream(seed)
        gen.complex_vector(n)  # the start vectors
        return gen

    def _frames_oracle(self, seed, a, b):
        gen = self._after_starts(seed, a.size + b.size)
        return (_complete_to_frame(gen, a), _complete_to_frame(gen, b)), gen._state

    def _assert_matches_oracle(self, seeds, a, b):
        starts = [self._after_starts(s, a.shape[1] + b.shape[1])._state for s in seeds]
        fa, ends = witness._complete_frames(a, starts)
        fb, ends = witness._complete_frames(b, ends)
        for i, seed in enumerate(seeds):
            (ref_a, ref_b), ref_end = self._frames_oracle(seed, a[i], b[i])
            for f, ref in ((fa[i], ref_a), (fb[i], ref_b)):
                assert f.tobytes() == ref.tobytes()
                assert np.allclose(f.conj().T @ f, np.eye(2))
            assert ends[i] == ref_end

    def test_complete_frames_continue_each_stream(self):
        seeds = [11, 12, 13]
        a = _unit_rows(_complex_normals([s + 100 for s in seeds], 3)[0])
        b = _unit_rows(_complex_normals([s + 200 for s in seeds], 2)[0])
        self._assert_matches_oracle(seeds, a, b)

    def test_complete_frames_redraw_a_parallel_draw(self):
        # a vector equal to its stream's next draw, normalized, forces a redraw
        cases = ((21, ""), (22, "a"), (23, "b"), (24, "ab"))
        seeds = [seed for seed, _ in cases]
        a = _unit_rows(_complex_normals([s + 100 for s in seeds], 3)[0])
        b = _unit_rows(_complex_normals([s + 200 for s in seeds], 3)[0])

        def nearly_parallel(v, draw):
            return float(np.linalg.norm(draw - v * (v.conj() @ draw))) <= 1e-8

        for i, (seed, parallel) in enumerate(cases):
            gen = self._after_starts(seed, 6)
            draw = copy.copy(gen).complex_vector(3)  # peek at the next draw
            if "a" in parallel:
                a[i] = draw / np.linalg.norm(draw)
            assert nearly_parallel(a[i], draw) == ("a" in parallel)
            _complete_to_frame(gen, a[i])
            draw = gen.complex_vector(3)
            if "b" in parallel:
                b[i] = draw / np.linalg.norm(draw)
            assert nearly_parallel(b[i], draw) == ("b" in parallel)
        self._assert_matches_oracle(seeds, a, b)
