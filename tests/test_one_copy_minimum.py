"""Quality of the one-copy rank-2 minimum at 3x3: how close, how low, seed-free.

At 3x3 ``min_rank2_expectation`` starts from the bottom eigenvector's
frames and four fixed frames, so it reads no seed.  Its stop leaves a
start once a sweep gains at most 1e-7 * max|eig X|.  What is pinned here:

* on the 24 rho +-PT operators of ``DEFAULT_GRID`` (default noise) the
  minimum lies within 1e-7 * max|eig X| above a reference, and never below
  it by more than the reference's own stop residual;
* the result, value and frames, is bit-identical at seeds 0-11 and 2024;
* no basin is missed, a gap above 1e-4 * max|eig X| counting as a miss, on
  +-PT of 40 seeded NPT states of rank 5-8 and of 30 locally rotated rho.

The references were computed once, before the extrapolated sweeps and the
fixed frames: the eigenvector start and 63 Haar starts drawn at seed 2024,
stopped at 1e-13 * max|eig X| with plain ALS sweeps.  Such a stop leaves a
gap of at most 4e-13 * max|eig X| at a linear rate q <= 0.8 (see
``test_rank2_crosscheck.py``), which is the most a minimum may undercut one.
"""

import numpy as np
import pytest

import distill_lab.witness as witness
from distill_lab.edgestate import DEFAULT_GRID, EdgeParams, build_edge_bundle
from distill_lab.harness import EnsembleSpec, sample_ensemble
from distill_lab.qcore import Dims
from distill_lab.rng import SplitMix64, random_unitary
from distill_lab.witness import min_rank2_expectation

D33 = Dims(3, 3)
SEEDS = list(range(12)) + [2024]
# the minimum may sit this far above the reference, in units of max|eig X|
_NEAR = 1e-7
# the reference's stop residual, in the same units
_UNDERCUT = 4e-13
# a gap above this, in the same units, is a missed basin
_BASIN_MISS = 1e-4

# (+PT, -PT) references at each grid point, as float.hex
REFERENCES = [
    ("0x1.81c725c244556p-9", "-0x1.ea2422fac4770p-3"),  # point 0
    ("0x1.81c725c24415dp-9", "-0x1.ea2422fac3849p-3"),  # point 1
    ("0x1.b9a8e1b8c0c7ep-8", "-0x1.fcee811f71fe4p-3"),  # point 2
    ("0x1.b9a8e1b8c0c26p-8", "-0x1.fcee811f7204bp-3"),  # point 3
    ("0x1.01d59e04639a0p-8", "-0x1.08669e2ae1350p-2"),  # point 4
    ("0x1.01d59e04638d9p-8", "-0x1.08669e2ae1350p-2"),  # point 5
    ("0x1.2eb25eeda556ep-7", "-0x1.128c5811f8718p-2"),  # point 6
    ("0x1.2eb25eeda5564p-7", "-0x1.128c5811f8718p-2"),  # point 7
    ("0x1.81c725c244249p-9", "-0x1.ea2422fac3813p-3"),  # point 8
    ("0x1.81c725c244400p-9", "-0x1.ea2422fac582dp-3"),  # point 9
    ("0x1.b9a8e1b8c0e56p-8", "-0x1.fcee811f7204cp-3"),  # point 10
    ("0x1.b9a8e1b8c0c90p-8", "-0x1.fcee811f71fffp-3"),  # point 11
]
SIGNS = (1, -1)


def _scale(x: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(x)).max())


def _rho_pt(point: int) -> np.ndarray:
    return build_edge_bundle(EdgeParams(*DEFAULT_GRID[point])).npt_state._pt


@pytest.mark.parametrize("sign", SIGNS, ids=["+PT", "-PT"])
@pytest.mark.parametrize("point", range(len(DEFAULT_GRID)))
def test_grid_minimum_is_near_the_reference_and_never_below_it(point, sign):
    x = sign * _rho_pt(point)
    value, _ = min_rank2_expectation(x, D33)
    reference = float.fromhex(REFERENCES[point][SIGNS.index(sign)])
    scale = _scale(x)
    assert value - reference <= _NEAR * scale
    assert value - reference >= -_UNDERCUT * scale


@pytest.mark.parametrize("sign", SIGNS, ids=["+PT", "-PT"])
@pytest.mark.parametrize("point", range(len(DEFAULT_GRID)))
def test_grid_minimum_reads_no_seed(point, sign):
    x = sign * _rho_pt(point)
    value, ansatz = min_rank2_expectation(x, D33, SEEDS[0])
    for seed in SEEDS[1:]:
        other_value, other = min_rank2_expectation(x, D33, seed)
        assert other_value.hex() == value.hex()
        for name in ("frame_a", "frame_b", "coeff"):
            assert getattr(other, name).tobytes() == getattr(ansatz, name).tobytes()


def _many_start_minimum(x: np.ndarray) -> float:
    """The lowest of 32 Haar starts stopped at 1e-10 * max|eig X|: deep enough to judge basins."""
    rng = np.random.default_rng(1729)
    g = rng.standard_normal((32, 3, 2)) + 1j * rng.standard_normal((32, 3, 2))
    vals, _, _ = witness._descend(x, D33, np.linalg.qr(g)[0], 1e-10 * _scale(x))
    return float(vals.min())


def _npt_states() -> list:
    states = []
    for rank in range(5, 9):
        spec = EnsembleSpec(dims=D33, rank=rank, count=10, filter="NPT", seed=3400 + rank)
        states += sample_ensemble(spec)[0]
    return states


def test_no_basin_missed_on_seeded_npt_states():
    states = _npt_states()
    assert len(states) == 40
    for state in states:
        for sign in SIGNS:
            x = sign * state._pt
            value, _ = min_rank2_expectation(x, D33)
            assert value - _many_start_minimum(x) <= _BASIN_MISS * _scale(x)


def test_no_basin_missed_on_locally_rotated_rho():
    # U (x) V rho (U (x) V)^H has the partial transpose (U (x) conj V) rho^Gamma (...)^H,
    # so its rank-2 minima are the grid point's references
    gen = SplitMix64(3434)
    for i in range(30):
        point = i % len(DEFAULT_GRID)
        uv = np.kron(random_unitary(gen, 3), random_unitary(gen, 3).conj())
        rotated = uv @ _rho_pt(point) @ uv.conj().T
        for sign in SIGNS:
            x = sign * rotated
            value, _ = min_rank2_expectation(x, D33)
            reference = float.fromhex(REFERENCES[point][SIGNS.index(sign)])
            assert value - reference <= _BASIN_MISS * _scale(x)
            assert value - reference >= -_UNDERCUT * _scale(x)
