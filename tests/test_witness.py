"""Witness routes: minimizer contracts, constructive routes, soundness."""

import inspect
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import distill_lab.qcore as qcore
import distill_lab.witness as witness
from distill_lab.cli import main
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    build_edge_bundle,
    edge_state,
    maximally_entangled_qutrits,
    range_product_vector,
    undistillability_margin,
)
from distill_lab.harness import (
    EnsembleSpec,
    _passes_filter,
    random_state,
    run_suite,
    sample_ensemble,
)
from distill_lab.multicopy import (
    extremal_rank2_tensor_power,
    verify_n_undistillable,
    werner_projector,
)
from distill_lab.qcore import (
    PSD_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    NumericalFailureError,
    PureState,
    hermitian_eig,
    partial_transpose,
    rank_kernel_range,
    schmidt_rank,
)
from distill_lab.rng import SplitMix64, derive_seed, random_unitary
from distill_lab.serialize import (
    certificate_document,
    certificate_from_json,
    dumps,
    state_from_json,
)
from distill_lab.witness import (
    ROUTE_BOTTOM_EIGENVECTOR,
    ROUTE_KERNEL_PRODUCT,
    ROUTE_OPTIMIZER,
    ROUTE_TWO_NONPOSITIVE,
    Rank2Ansatz,
    best_rank2_witness,
    certify_1_distillable,
    kernel_product_witness,
    min_rank2_expectation,
    product_vector_in_subspace,
    pt_quadratic_form,
    submatrix_2x2_scan,
    two_nonpositive_witness,
    verify_certificate,
)

D33 = Dims(3, 3)
D24 = Dims(2, 4)


def _kernel(state: BipartiteState) -> np.ndarray:
    return rank_kernel_range(state.mat)[1]


def _assert_product_in(found: tuple[np.ndarray, np.ndarray], basis: np.ndarray) -> None:
    """``found`` is a unit product vector a (x) b in the span of ``basis``."""
    prod = np.kron(*found)
    assert abs(np.linalg.norm(prod) - 1.0) < 1e-12
    assert np.linalg.norm(prod - basis @ (basis.conj().T @ prod)) < 1e-7


def _mes_state() -> BipartiteState:
    return BipartiteState(maximally_entangled_qutrits().projector(), D33)


@pytest.fixture
def minimizations(monkeypatch):
    """(dims, seed) of each rank-2 minimization the witness module makes.

    A ``min_rank2_expectation`` call records its dims, a two-copy
    ``_lifted_minimum`` call the two-copy split.
    """
    calls = []
    real, lifted = witness.min_rank2_expectation, witness._lifted_minimum

    def counted(x, dims, seed=2024):
        calls.append((tuple(dims), seed))
        return real(x, dims, seed)

    def counted_lifted(x, p, dims, one_copy, seed, sign):
        calls.append((tuple(qcore._power_dims(dims, 2)), seed))
        return lifted(x, p, dims, one_copy, seed, sign)

    monkeypatch.setattr(witness, "min_rank2_expectation", counted)
    monkeypatch.setattr(witness, "_lifted_minimum", counted_lifted)
    return calls


class TestMinRank2Expectation:
    def test_identity_gives_one(self):
        value, ansatz = min_rank2_expectation(np.eye(9), D33)
        assert abs(value - 1.0) < 1e-10
        assert abs(np.linalg.norm(ansatz.vector()) - 1.0) < 1e-10

    def test_werner_projector_hits_one_twentyfourth(self):
        value, ansatz = min_rank2_expectation(werner_projector().mat, D33)
        assert abs(value - 1 / 24) < 1e-6
        assert schmidt_rank(ansatz.vector(), D33) <= 2

    def test_mes_pt_hits_minus_one_third(self):
        pt = partial_transpose(_mes_state().mat, D33)
        value, ansatz = min_rank2_expectation(pt, D33)
        assert abs(value + 1 / 3) < 1e-8
        assert schmidt_rank(ansatz.vector(), D33) <= 2
        # analytic oracle: any antisymmetric pair attains the same value
        anti = np.zeros(9, dtype=complex)
        anti[1], anti[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)  # |01> - |10>
        assert float(np.real(anti.conj() @ pt @ anti)) == pytest.approx(-1 / 3, abs=1e-15)

    def test_never_undercuts_global_minimum(self):
        # bracket: the global eigen-minimum below, and the best basis product
        # vector (Schmidt rank 1), min(diag h), above
        gen = SplitMix64(101)
        cases = ((D33, 20), (Dims(2, 2), 8), (Dims(2, 3), 8), (Dims(2, 4), 8), (Dims(3, 4), 8))
        for dims, count in cases:
            for _ in range(count):
                g = gen.complex_matrix(dims.total, dims.total)
                h = (g + g.conj().T) / 2
                lam_min = float(np.linalg.eigvalsh(h)[0])
                value, _ = min_rank2_expectation(h, dims)
                assert value >= lam_min - 1e-12
                assert value <= float(h.diagonal().real.min()) + 1e-12

    def test_exact_on_2xn_systems(self):
        gen = SplitMix64(103)
        for dims in (Dims(2, 3), Dims(2, 4), Dims(3, 2)):
            g = gen.complex_matrix(dims.total, dims.total)
            h = (g + g.conj().T) / 2
            lam_min = float(np.linalg.eigvalsh(h)[0])
            value, _ = min_rank2_expectation(h, dims)
            assert abs(value - lam_min) < 1e-8

    def test_deterministic_for_fixed_seed(self):
        pt = partial_transpose(_mes_state().mat, D33)
        v1, a1 = min_rank2_expectation(pt, D33)
        v2, a2 = min_rank2_expectation(pt, D33)
        assert v1 == v2
        assert np.array_equal(a1.vector(), a2.vector())

    def test_rejects_non_hermitian(self):
        m = np.zeros((9, 9), dtype=complex)
        m[0, 3] = 1.0
        with pytest.raises(ValueError):
            min_rank2_expectation(m, D33)

    def test_ansatz_validates_frames(self):
        with pytest.raises(ValueError):
            Rank2Ansatz(np.ones((3, 2)), np.eye(3)[:, :2], np.eye(2) / math.sqrt(2))

    def test_ansatz_arrays_are_read_only_copies(self):
        frame = np.eye(3, 2, dtype=complex)
        coeff = np.eye(2, dtype=complex) / math.sqrt(2)
        ansatz = Rank2Ansatz(frame, frame, coeff)
        frame[0, 0] = 0.0  # the caller's array stays its own
        assert ansatz.frame_a[0, 0] == 1.0
        for name in ("frame_a", "frame_b", "coeff"):
            with pytest.raises(ValueError):
                getattr(ansatz, name)[0, 0] = 0.5


class TestMinimizerMemo:
    """A state keeps the minima ``best_rank2_witness`` finds; the minimizer keeps nothing."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counted(mat):
            calls.append(np.shape(mat))
            return hermitian_eig(mat)

        monkeypatch.setattr(witness, "hermitian_eig", counted)
        return calls

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = witness._als_sweep

        def counted(m, dims, fb):
            calls.append(dims)
            return sweep(m, dims, fb)

        monkeypatch.setattr(witness, "_als_sweep", counted)
        return calls

    @staticmethod
    def _assert_one_minimization(sweeps, mat):
        """``sweeps`` holds exactly the sweeps of one fresh minimization of ``mat``."""
        seen = list(sweeps)
        sweeps.clear()
        min_rank2_expectation(mat, D33)
        assert seen == sweeps and set(seen) == {D33}

    def test_same_state_and_seed_compute_once(self, minimizations):
        state = _mes_state()
        v1, c1 = best_rank2_witness(state)
        v2, c2 = best_rank2_witness(state, 1, 2024)
        assert minimizations == [(D33, 2024)]
        assert v1 == v2 and v1 == pytest.approx(-1 / 3, abs=1e-8)
        assert np.array_equal(c1.psi.vec, c2.psi.vec)

    def test_other_seed_or_copy_count_recomputes(self, minimizations):
        state = _mes_state()
        for _ in range(2):  # the second round finds all three on the state
            best_rank2_witness(state)
            best_rank2_witness(state, 1, 7)
            best_rank2_witness(state, 2)
        assert minimizations == [(D33, 2024), (D33, 7), ((9, 9), 2024)]

    def test_other_state_with_equal_bytes_recomputes(self, minimizations):
        state = _mes_state()
        twin = BipartiteState(state.mat, state.dims)
        assert twin.mat.tobytes() == state.mat.tobytes()
        v1, _ = best_rank2_witness(state)
        v2, _ = best_rank2_witness(twin)
        assert len(minimizations) == 2
        assert v1 == v2

    def test_raising_call_caches_nothing(self, monkeypatch):
        state = _mes_state()
        with pytest.raises(ValueError):
            best_rank2_witness(state, qcore.MAX_COPIES + 1)
        real = witness.min_rank2_expectation

        def fail(x, dims, seed=2024):
            raise NumericalFailureError("solver gave up")

        monkeypatch.setattr(witness, "min_rank2_expectation", fail)
        with pytest.raises(NumericalFailureError):
            best_rank2_witness(state)
        assert state._rank2_minima == {}
        monkeypatch.setattr(witness, "min_rank2_expectation", real)
        _, cert = best_rank2_witness(state)
        assert cert is not None
        assert list(state._rank2_minima) == [(1, 2024, 1)]

    def test_each_sign_keeps_its_own_minima(self, minimizations):
        # a two-copy minimum of -PT lifts the one-copy minimum of -PT, kept apart from +PT's
        state = _mes_state()
        neg, _ = witness._rank2_minimum(state, 2, 2024, -1)
        assert list(state._rank2_minima) == [(1, 2024, -1), (2, 2024, -1)]
        assert minimizations == [(D33, 2024), ((9, 9), 2024)]
        best_rank2_witness(state, 2)
        assert witness._rank2_minimum(state, 2, 2024, -1)[0] == neg
        assert len(minimizations) == 4
        assert list(state._rank2_minima)[2:] == [(1, 2024, 1), (2, 2024, 1)]

    def test_minimizer_computes_every_call(self, eig_calls):
        pt = partial_transpose(_mes_state().mat, D33)
        v1, a1 = min_rank2_expectation(pt, D33)
        v2, a2 = min_rank2_expectation(pt, D33)
        assert len(eig_calls) == 2
        assert v1 == v2
        assert np.array_equal(a1.vector(), a2.vector())

    def test_rank5_check_minimizes_once(self, sweeps):
        # at most once: the edge state's MES dual bound settles both calls with no sweep
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert certify_1_distillable(bundle.npt_state) is None
        assert undistillability_margin(bundle) > 0
        assert sweeps == []

    @pytest.mark.parametrize("b,theta", DEFAULT_GRID)
    def test_rank5_check_ranks_the_npt_state_once(self, monkeypatch, b, theta):
        # the bundle's rank-5 check and certify read the state's one kept rank, so the
        # whole check runs two SVDs: sigma's kernel and that rank
        ranked, svds = [], []
        rank, svd = qcore._numeric_rank, np.linalg.svd

        def spied_rank(mat):
            ranked.append(np.array(mat))
            return rank(mat)

        def spied_svd(*args, **kwargs):
            svds.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("distill_lab") and vars(module).get("_numeric_rank") is rank:
                monkeypatch.setattr(module, "_numeric_rank", spied_rank)
        monkeypatch.setattr(np.linalg, "svd", spied_svd)
        bundle = build_edge_bundle(EdgeParams(b, theta))
        assert certify_1_distillable(bundle.npt_state) is None
        assert undistillability_margin(bundle) == bundle.margin
        assert sum(np.array_equal(m, bundle.npt_state.mat) for m in ranked) == 1
        assert svds == [(9, 9), (9, 9)]

    def test_cli_witness_minimizes_once(self, tmp_path, capsys, sweeps):
        path = tmp_path / "rho.json"
        assert main(["rho", "--b", "1.0", "--theta", str(math.pi / 6), "--out", str(path)]) == 0
        assert main(["witness", "--in", str(path)]) == 0
        assert "no witness found" in capsys.readouterr().out
        state = state_from_json(path.read_text())
        self._assert_one_minimization(sweeps, partial_transpose(state.mat, D33))

    @pytest.fixture
    def decompositions(self, monkeypatch):
        """The order of each ``hermitian_eig`` call, through any module's binding."""
        orders = []

        def counted(mat):
            orders.append(len(mat))
            return hermitian_eig(mat)

        for name, module in list(sys.modules.items()):
            if name.startswith("distill_lab") and vars(module).get("hermitian_eig") is hermitian_eig:
                monkeypatch.setattr(module, "hermitian_eig", counted)
        return orders

    def test_werner_report_decomposes_no_two_copy_pt(self, decompositions):
        # the minimum and the maximum build their starts from the 9x9 projector
        extremal_rank2_tensor_power(2)
        assert decompositions and 81 not in decompositions

    def test_rho_report_decomposes_no_two_copy_pt(self, decompositions):
        verify_n_undistillable(EdgeParams(1.0, math.pi / 6), 2)
        assert decompositions and 81 not in decompositions

    def test_two_copy_search_decomposes_no_two_copy_pt_for_either_sign(self, decompositions):
        spec = EnsembleSpec(dims=D33, rank=6, count=1, filter="NPT", seed=35)
        state = sample_ensemble(spec)[0][0]
        v1, _ = best_rank2_witness(state, 2)
        v2, _ = best_rank2_witness(state, 2)
        witness._rank2_minimum(state, 2, 2024, -1)
        assert v1 == v2 and decompositions and 81 not in decompositions

    def test_rank5_check_decomposes_no_two_copy_pt(self, decompositions):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert certify_1_distillable(bundle.npt_state) is None
        assert decompositions and 81 not in decompositions


class TestRank2Stack:
    """The minimizer's five starts run as one stack that a stopped start leaves."""

    @staticmethod
    def _spy(monkeypatch, report=None):
        """Each sweep's (fb in, values, fa out, fb out); ``report`` replaces the values."""
        calls = []
        sweep = witness._als_sweep

        def spied(m, dims, fb):
            values, (fa_out, fb_out) = sweep(m, dims, fb)
            if report is not None:
                values = report(values)
            calls.append((fb.copy(), values, fa_out, fb_out))
            return values, (fa_out, fb_out)

        monkeypatch.setattr(witness, "_als_sweep", spied)
        return calls

    @staticmethod
    def _rho_pt(n: int) -> tuple[np.ndarray, Dims]:
        return qcore._pt_power(build_edge_bundle(EdgeParams(*DEFAULT_GRID[0])).npt_state, n)

    @staticmethod
    def _replay(calls, frames, tol, max_sweeps, rounding):
        """Each start's exit (value, fa, fb, sweep), replayed from the spied sweeps.

        The rule replayed: every running start gets a plain sweep; a start
        leaves after a sweep that gains at most ``tol`` or after the last
        allowed sweep; from the second sweep on, each start still running
        gets one trial sweep from qr(B' + beta (B' - B U)), U the polar
        factor of B^H B', kept only if its value is lower.
        """
        running = list(range(len(frames)))
        frames, prev = dict(enumerate(frames)), dict.fromkeys(running, np.inf)
        beta = dict.fromkeys(running, 1.0)
        exits, kept = {}, {True: 0, False: 0}
        calls = iter(calls)
        for k in range(max_sweeps):
            fb_in, values, fa_out, fb_out = next(calls)
            # exactly the running starts, in start order, each from its own frames
            assert np.array_equal(fb_in, np.stack([frames[r] for r in running]))
            now = {r: (values[i], fa_out[i], fb_out[i]) for i, r in enumerate(running)}
            for r in list(running):
                # no start's value rises beyond rounding
                assert now[r][0] <= prev[r] + rounding
                if prev[r] - now[r][0] <= tol or k == max_sweeps - 1:
                    running.remove(r)
                    exits[r] = (*now[r], k)
            if not running:
                break
            if k > 0:
                # one trial, for the running starts only
                t_in, t_values, t_fa, t_fb = next(calls)
                assert len(t_in) == len(running)
                for i, r in enumerate(running):
                    old, new = frames[r], now[r][2]
                    aligned = old @ scipy.linalg.polar(old.conj().T @ new)[0]
                    want = np.linalg.svd(new + beta[r] * (new - aligned))[0][:, : new.shape[1]]
                    assert np.allclose(t_in[i].conj().T @ t_in[i], np.eye(new.shape[1]), atol=1e-12)
                    assert np.allclose(t_in[i] @ t_in[i].conj().T, want @ want.conj().T, atol=1e-10)
                    lower = bool(t_values[i] < now[r][0])
                    kept[lower] += 1
                    if lower:
                        now[r] = (t_values[i], t_fa[i], t_fb[i])
                    beta[r] = min(1.5 * beta[r], 8.0) if lower else max(beta[r] / 2, 0.25)
            for r in running:
                prev[r], frames[r] = now[r][0], now[r][2]
        assert next(calls, None) is None and not running
        return exits, kept

    def _replayed_descent(self, monkeypatch, run, report=None):
        """Call ``run``, which makes one ``_descend``, and check that descent's sweeps.

        Returns what ``run`` returned, each start's exit sweep, the counts
        of kept and rejected trials, and the frames ``fa``, ``fb`` of the
        start that must win: the earliest of the lowest.
        """
        descents = []
        descend = witness._descend

        def descend_spy(m, dims, fb, tol):
            out = descend(m, dims, fb, tol)
            descents.append((fb.copy(), tol, out))
            return out

        monkeypatch.setattr(witness, "_descend", descend_spy)
        calls = self._spy(monkeypatch, report)
        result = run()
        (fb0, tol, (vals, fa, fb)), = descents
        # rounding allowance: 1e-12 of the scale the stop is relative to
        rounding = 1e-12 * tol / witness._RANK2_REL_STOP
        exits, kept = self._replay(calls, fb0, tol, witness._OPT_MAX_ITERS, rounding)
        # the stop and the sweep cap both keep each start's last frames
        for r, (value, fa_r, fb_r, _) in exits.items():
            assert vals[r] == value
            assert np.array_equal(fa[r], fa_r) and np.array_equal(fb[r], fb_r)
        best = min(exits, key=lambda r: (exits[r][0], r))
        return result, {r: k for r, (*_, k) in exits.items()}, kept, fa[best], fb[best]

    @pytest.mark.parametrize("n,max_sweeps", [(1, None), (2, None), (1, 5)])
    def test_sweeps_advance_the_running_starts(self, monkeypatch, n, max_sweeps):
        mat, dims = self._rho_pt(n)
        if n == 1:  # every +PT start stops after two sweeps, before any trial
            mat = -mat
        if max_sweeps is not None:  # some starts still running when the sweeps run out
            monkeypatch.setattr(witness, "_OPT_MAX_ITERS", max_sweeps)
        (_, ansatz), left_at, kept, fa, fb = self._replayed_descent(
            monkeypatch, lambda: min_rank2_expectation(mat, dims)
        )
        assert kept[True] and kept[False]
        if max_sweeps is None:  # the stack shrank before it emptied
            assert len(set(left_at.values())) > 1
        else:
            assert max_sweeps - 1 in left_at.values()
        assert np.array_equal(ansatz.frame_a, fa)
        assert np.array_equal(ansatz.frame_b, fb)

    def test_product_search_sweeps_follow_the_same_rule(self, monkeypatch):
        p, dims = self._rho_pt(1)
        tol = witness._RANK2_REL_STOP * float(np.abs(hermitian_eig(p).eigenvalues).max())
        (x, y), _, kept, fa, fb = self._replayed_descent(
            monkeypatch, lambda: witness._product_minimum(p, dims, 7, tol)
        )
        assert kept[True] and kept[False]
        assert fb.shape == (3, 1)
        assert np.array_equal(x, fa[:, 0]) and np.array_equal(y, fb[:, 0])

    def test_rejected_trials_halve_beta_down_to_a_quarter(self, monkeypatch):
        # while any start runs, the sweeps alternate plain, trial from the second
        # on: calls 2, 4, 6, ... are trials, and reporting them 1 higher rejects them
        mat, dims = self._rho_pt(1)
        count = iter(range(10**6))

        def reject_trials(values):
            k = next(count)
            return values + 1.0 if k >= 2 and k % 2 == 0 else values

        _, left_at, kept, _, _ = self._replayed_descent(
            monkeypatch, lambda: min_rank2_expectation(-mat, dims), reject_trials
        )
        # beta reached 1/4 after two rejections and stayed there
        assert not kept[True] and max(left_at.values()) >= 4

    def test_gain_of_tol_stops_and_earliest_lowest_start_wins(self, monkeypatch):
        mat, dims = self._rho_pt(1)
        tol = witness._RANK2_REL_STOP * float(np.abs(hermitian_eig(mat).eigenvalues).max())
        # reported values: every start gains exactly tol on sweep 2, and starts 1, 2, 4 tie
        reports = iter([np.array([tol, 0, 0, tol, 0]), np.array([0, -tol, -tol, 0, -tol])])
        calls = self._spy(monkeypatch, lambda values: next(reports))
        _, ansatz = min_rank2_expectation(mat, dims)
        assert [len(call[1]) for call in calls] == [5, 5]
        _, _, fa_out, fb_out = calls[-1]
        assert not np.array_equal(fb_out[1], fb_out[2])
        assert np.array_equal(ansatz.frame_a, fa_out[1])
        assert np.array_equal(ansatz.frame_b, fb_out[1])


def _scan_numpy_scalars(state: BipartiteState):
    """The scan's determinant loop as it stood in numpy scalars: (indices, determinant)."""
    mb = state.dims.dim_b
    pt = state._pt
    diag = pt.diagonal().real
    scale = max(float(np.abs(pt).max()), 1.0)
    best_det = -witness._DET_TOL * scale * scale
    best = None
    for r in range(state.dims.total):
        kr = r // mb
        for s in range(r + 1, state.dims.total):
            if s // mb == kr:
                continue
            det = diag[r] * diag[s] - abs(pt[r, s]) ** 2
            if det < best_det:
                best_det = det
                best = (r, s)
    return None if best is None else (best, float(best_det))


class TestSubmatrixScan:
    def test_mes_hit_depth(self):
        # the PT links zero diagonal entries via 1/3 off-diagonals
        hit = submatrix_2x2_scan(_mes_state())
        assert hit is not None
        assert hit.determinant == pytest.approx(-1 / 9, abs=1e-12)
        assert hit.certificate.value <= -1 / 3 + 1e-8
        assert hit.certificate.schmidt_rank <= 2
        assert hit.blocks[0] != hit.blocks[1]

    def test_ppt_states_give_nothing(self):
        assert submatrix_2x2_scan(BipartiteState(np.eye(9) / 9, D33)) is None
        assert submatrix_2x2_scan(werner_projector()) is None
        gen = SplitMix64(107)
        mix = np.zeros((9, 9), dtype=complex)
        for _ in range(6):
            v = np.kron(gen.unit_vector(3), gen.unit_vector(3))
            mix += np.outer(v, v.conj())
        mix /= np.trace(mix).real
        assert submatrix_2x2_scan(BipartiteState(mix, D33)) is None

    def test_python_floats_match_the_numpy_scalar_loop(self):
        # 3150 seeded states, every rank of four splits; hits and misses both occur
        seen = {True: 0, False: 0}
        for dims in (D24, D33, Dims(3, 4), Dims(4, 4)):
            for rank in range(1, dims.total + 1):
                spec = EnsembleSpec(dims=dims, rank=rank, count=70, seed=rank)
                for state in sample_ensemble(spec)[0]:
                    hit = submatrix_2x2_scan(state)
                    want = _scan_numpy_scalars(state)
                    seen[hit is not None] += 1
                    if want is None:
                        assert hit is None
                        continue
                    assert hit.indices == want[0]
                    assert float.hex(hit.determinant) == float.hex(want[1])
        assert sum(seen.values()) == 3150 and min(seen.values()) > 100

    def test_certificates_verify_on_random_hits(self):
        count = 0
        for i in range(40):
            state = random_state(D33, 4, derive_seed(911, i))
            hit = submatrix_2x2_scan(state)
            if hit is None:
                continue
            count += 1
            assert verify_certificate(hit.certificate, state)
        assert count > 10


def _natural_nudge_input(mu: float) -> BipartiteState:
    """The full-rank state with rho^Gamma = (I - P_MES - P_beta)/9 - mu*P_MES.

    beta = (|01> + |12>)/sqrt(2).  A ~ I and B ~ a shift, so A^-1 B is
    nilpotent, and beta's eigenvalue is 0.
    """
    mes = maximally_entangled_qutrits().vec
    beta = np.zeros(9, dtype=complex)
    beta[1] = beta[5] = 1 / math.sqrt(2)
    p_mes, p_beta = np.outer(mes, mes.conj()), np.outer(beta, beta.conj())
    pt = (np.eye(9) - p_mes - p_beta) / 9 - mu * p_mes
    return BipartiteState(partial_transpose(pt, D33), D33)


class TestTwoNonpositive:
    def test_mes_direct_antisymmetric_witness(self):
        cert = two_nonpositive_witness(_mes_state())
        assert cert is not None
        assert cert.value == pytest.approx(-1 / 3, abs=1e-8)
        assert cert.schmidt_rank == 2
        assert cert.route == ROUTE_TWO_NONPOSITIVE

    def test_second_eigenvector_is_the_witness_when_it_has_schmidt_rank_two(self):
        # rho = G^Gamma, G = I - 1.2 |Phi><Phi| - 1.1 |psi+><psi+|: the bottom PT
        # eigenvector is the MES (Schmidt rank 3), so the route returns beta = psi+
        mes = maximally_entangled_qutrits().vec
        psi_plus = np.zeros(9, dtype=complex)
        psi_plus[[1, 3]] = 1 / math.sqrt(2)  # (|01> + |10>)/sqrt(2)
        g = np.eye(9) - 1.2 * np.outer(mes, mes.conj()) - 1.1 * np.outer(psi_plus, psi_plus)
        state = BipartiteState(partial_transpose(g, D33), D33)
        assert np.allclose(state._pt_eigenvalues, [-0.2, -0.1] + [1.0] * 7, rtol=0, atol=1e-14)
        assert schmidt_rank(hermitian_eig(state._pt).eigenvectors[:, 0], D33) == 3
        cert = two_nonpositive_witness(state)
        assert cert is not None and cert.delta is None
        assert abs(np.vdot(psi_plus, cert.psi.vec)) == pytest.approx(1.0, abs=1e-12)
        assert cert.value == pytest.approx(-0.1, abs=1e-12)
        assert cert.schmidt_rank == 2
        assert verify_certificate(cert, state)

    def test_ppt_gives_nothing(self):
        assert two_nonpositive_witness(werner_projector()) is None
        assert two_nonpositive_witness(BipartiteState(np.eye(9) / 9, D33)) is None

    def test_wrong_dims_rejected(self):
        state = random_state(Dims(2, 3), 3, 5)
        with pytest.raises(DimensionMismatchError):
            two_nonpositive_witness(state)

    def test_hundred_filtered_states_all_certify(self):
        spec = EnsembleSpec(dims=D33, rank=5, count=100, filter="twoNonpositivePT", seed=4242)
        states, _ = sample_ensemble(spec)
        for state in states:
            cert = two_nonpositive_witness(state)
            assert cert is not None
            assert verify_certificate(cert, state)

    def test_declines_exactly_where_the_filter_rejects(self):
        admitted = rejected = 0
        for rank in (4, 5, 6, 7):
            for i in range(30):
                state = random_state(D33, rank, derive_seed(4747, 100 * rank + i))
                passes = _passes_filter(state, "twoNonpositivePT")
                assert (two_nonpositive_witness(state) is None) == (not passes)
                admitted += passes
                rejected += not passes
        assert admitted > 0 and rejected > 0

    def test_rank5_decline_computes_no_eigenvectors(self, monkeypatch):
        bundle = build_edge_bundle(EdgeParams(*DEFAULT_GRID[0]))
        calls = []

        def counted(mat):
            calls.append(np.shape(mat))
            return hermitian_eig(mat)

        monkeypatch.setattr(witness, "hermitian_eig", counted)
        assert two_nonpositive_witness(bundle.npt_state) is None
        assert calls == []

    def test_nudge_certifies_when_the_combination_is_nilpotent(self, monkeypatch):
        # forced: the first A^-1 B reports only zero eigenvalues, as a
        # nilpotent one would, so the bottom eigenvector is nudged
        spec = EnsembleSpec(dims=D33, rank=5, count=20, filter="twoNonpositivePT", seed=2024)
        states, _ = sample_ensemble(spec)
        eigvals, calls = np.linalg.eigvals, []

        def nilpotent_first(mat):
            calls.append(mat)
            return np.zeros(len(mat), dtype=complex) if len(calls) == 1 else eigvals(mat)

        monkeypatch.setattr(np.linalg, "eigvals", nilpotent_first)
        for state in states:
            calls.clear()
            cert = two_nonpositive_witness(state)
            assert len(calls) == 2  # the nudged vector went through the combination
            assert cert is not None and cert.route == ROUTE_TWO_NONPOSITIVE
            assert cert.delta == 0.01
            assert verify_certificate(cert, state)

    @pytest.mark.parametrize("mu", [1e-4, 1e-2])
    def test_natural_input_reaches_the_nudge(self, mu):
        state = _natural_nudge_input(mu)
        assert rank_kernel_range(state.mat)[0] == 9
        assert np.allclose(state._pt_eigenvalues, [-mu, 0.0] + [1 / 9] * 7, rtol=0, atol=1e-15)
        assert submatrix_2x2_scan(state) is None
        for seed in range(6):
            cert = certify_1_distillable(state, seed)
            assert cert is not None and cert.route == ROUTE_TWO_NONPOSITIVE
            assert cert.delta == 0.01
            assert verify_certificate(cert, state)

    def test_beta_is_judged_once(self, monkeypatch):
        # at mu = 1e-7 the route tries alpha and all 64 nudges, then declines;
        # beta's matricization is ranked once for all 65 constructions
        state = _natural_nudge_input(1e-7)
        mat_b = hermitian_eig(state._pt).eigenvectors[:, 1].reshape(3, 3)
        ranked = []

        def spied(mat):
            ranked.append(np.array_equal(mat, mat_b))
            return qcore._numeric_rank(mat)

        monkeypatch.setattr(witness, "_numeric_rank", spied)
        assert two_nonpositive_witness(state) is None
        assert len(ranked) == 66 and sum(ranked) == 1

    @pytest.mark.parametrize("mu", [1e-12, 1e-10, 1e-8, 1e-7, 3e-7, 1e-6, 1e-4, 1e-2])
    def test_small_violation_declines_instead_of_raising(self, mu):
        # the natural nudge input: at mu <= 3e-7 no nudged value passes the rule,
        # and the route declines so that certify moves on to the other routes
        state = _natural_nudge_input(mu)
        for seed in range(4):
            route = two_nonpositive_witness(state, seed)
            cert = certify_1_distillable(state, seed)
            if mu <= 1e-10:  # PPT by the rule
                assert qcore.is_ppt(state) and route is None and cert is None
            elif mu <= 3e-7:
                # the minimizer's value does not pass the rule either
                assert route is None and cert is None
                assert best_rank2_witness(state, 1, seed)[0] >= -PSD_TOL
            else:
                assert route is not None and route.route == ROUTE_TWO_NONPOSITIVE
                assert cert is not None and cert.route == ROUTE_TWO_NONPOSITIVE
                assert verify_certificate(route, state) and verify_certificate(cert, state)

    def test_combination_obeys_spectral_chain(self):
        # for invertible bottom matricization, the witness comes from a root t
        # of det(A + tB) with value (lam + |t|^2 mu) / (1 + |t|^2)
        found = 0
        for i in range(60):
            state = random_state(D33, 5, derive_seed(313, i))
            pt = partial_transpose(state.mat, D33)
            evals, evecs = np.linalg.eigh(pt)
            if not (evals[0] < -1e-6 and evals[1] <= PSD_TOL):
                continue
            mat_a = evecs[:, 0].reshape(3, 3)
            mat_b = evecs[:, 1].reshape(3, 3)
            if rank_kernel_range(mat_a)[0] <= 2 or rank_kernel_range(mat_b)[0] <= 2:
                continue
            found += 1
            cert = two_nonpositive_witness(state)
            assert cert is not None
            roots = np.linalg.eigvals(np.linalg.solve(mat_a, mat_b))
            predictions = [
                (evals[0] + abs(1 / s) ** 2 * evals[1]) / (1 + abs(1 / s) ** 2)
                for s in roots
                if abs(s) > 1e-8
            ]
            assert cert.value <= min(predictions) + 1e-10
        assert found > 5


class TestProductVectorSearch:
    def test_full_product_slice(self):
        basis = np.zeros((9, 5), dtype=complex)
        for col, idx in enumerate((0, 1, 2, 3, 4)):  # |00>,|01>,|02>,|10>,|11>
            basis[idx, col] = 1.0
        found = product_vector_in_subspace(basis, D33)
        assert found is not None
        a, b = found
        prod = np.kron(a, b)
        residual = np.linalg.norm(prod - basis @ (basis.conj().T @ prod))
        assert residual < 1e-7

    def test_edge_kernel_is_completely_entangled(self):
        sigma = edge_state(EdgeParams(1.0, math.pi / 6))
        _, kernel, _ = rank_kernel_range(sigma.mat)
        assert kernel.shape[1] == 4
        assert product_vector_in_subspace(kernel, D33) is None

    def test_edge_range_contains_product_vector(self):
        params = EdgeParams(1.0, math.pi / 6)
        sigma = edge_state(params)
        _, _, rng_basis = rank_kernel_range(sigma.mat)
        found = product_vector_in_subspace(rng_basis, D33)
        assert found is not None
        a, b = found
        prod = np.kron(a, b)
        residual = np.linalg.norm(prod - rng_basis @ (rng_basis.conj().T @ prod))
        assert residual < 1e-7
        # the analytic product vector must itself live in the range
        f, g = range_product_vector(params)
        fg = np.kron(f, g)
        assert np.linalg.norm(fg - rng_basis @ (rng_basis.conj().T @ fg)) < 1e-10

    # ten steps may leave every restart of a search short of a solution
    def test_first_success_in_restart_order(self, monkeypatch):
        """With 10 steps per restart, restart 0 fails on some kernels and a later one succeeds.

        The search must draw restarts 0..r in order, stop at the first
        success r, and return what a budget of r + 1 restarts returns.
        """
        monkeypatch.setattr(witness, "_OPT_MAX_ITERS", 10)
        drawn = []

        def recorded(seed, index):
            drawn.append(index)
            return derive_seed(seed, index)

        monkeypatch.setattr(witness, "derive_seed", recorded)
        late = 0
        for dims in (D33, D24):
            for i in range(12):
                kernel = _kernel(random_state(dims, 4, derive_seed(9500, i)))
                drawn.clear()
                found = product_vector_in_subspace(kernel, dims, i)
                first = drawn[-1] - 2_000_000
                assert drawn == [2_000_000 + r for r in range(first + 1)]
                if found is None:
                    assert first == witness._RESTARTS - 1
                    continue
                _assert_product_in(found, kernel)
                if first == 0:
                    continue
                late += 1
                with pytest.MonkeyPatch.context() as budget:
                    budget.setattr(witness, "_RESTARTS", first)
                    assert product_vector_in_subspace(kernel, dims, i) is None
                    budget.setattr(witness, "_RESTARTS", first + 1)
                    again = product_vector_in_subspace(kernel, dims, i)
                assert again[0].tobytes() == found[0].tobytes()
                assert again[1].tobytes() == found[1].tobytes()
        assert late >= 4

    def test_rank4_kernels_found_at_first_restart(self, monkeypatch):
        monkeypatch.setattr(witness, "_RESTARTS", 1)
        for i in range(40):
            kernel = _kernel(random_state(D33, 4, derive_seed(9300, i)))
            assert kernel.shape[1] == 5
            found = product_vector_in_subspace(kernel, D33, i)
            assert found is not None
            _assert_product_in(found, kernel)

    def test_rank5_kernels_exhaust_every_restart(self, monkeypatch):
        for i in range(14):
            kernel = _kernel(random_state(D33, 5, derive_seed(9400, i)))
            assert kernel.shape[1] == 4
            monkeypatch.setattr(witness, "_RESTARTS", i + 1)
            with warnings.catch_warnings():
                # a 4-dimensional kernel need not hold a product vector: no warning
                warnings.simplefilter("error", RuntimeWarning)
                assert product_vector_in_subspace(kernel, D33, i) is None

    def test_edge_kernels_exhaust_every_restart(self):
        for b, theta in ((1.0, math.pi / 6), (0.7, -math.pi / 5), (1.6, math.pi / 9)):
            kernel = _kernel(build_edge_bundle(EdgeParams(b, theta)).npt_state)
            assert kernel.shape[1] == 4
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert product_vector_in_subspace(kernel, D33) is None

    def test_planted_product_vector_in_4d_subspace(self):
        # a generic 4-dimensional 3x3 subspace holds no product vector; one
        # spanned by a product vector and three random vectors must yield it
        for i in range(20):
            g = SplitMix64(derive_seed(9995, i)).complex_vector(3 + 3 + 9 * 3)
            planted = np.kron(g[:3], g[3:6])
            basis = np.linalg.qr(np.column_stack([planted, g[6:].reshape(9, 3)]))[0]
            found = product_vector_in_subspace(basis, D33, i)
            assert found is not None
            _assert_product_in(found, basis)
            overlap = abs(np.vdot(np.kron(*found), planted)) / np.linalg.norm(planted)
            assert overlap == pytest.approx(1.0, abs=1e-7)

    def test_2x4_kernels(self, monkeypatch):
        # a 2x4 subspace of dimension at least (2 - 1)(4 - 1) + 1 = 4 holds a
        # product vector; these smaller kernels hold none the search can find
        monkeypatch.setattr(witness, "_RESTARTS", 9)
        for rank in range(1, 8):
            for seed in range(3):
                kernel = _kernel(random_state(D24, rank, derive_seed(9600 + rank, seed)))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    found = product_vector_in_subspace(kernel, D24, seed)
                assert (found is not None) == (kernel.shape[1] >= 4)
                if found is not None:
                    _assert_product_in(found, kernel)

    def test_mes_line_has_none(self):
        basis = maximally_entangled_qutrits().vec.reshape(9, 1)
        assert product_vector_in_subspace(basis, D33) is None

    @pytest.mark.parametrize(
        "dim_a, dim_b, rank", [(3, 3, 1), (3, 3, 2), (2, 4, 1), (2, 4, 2), (2, 4, 3)]
    )
    def test_fewer_constraints_than_dim_b(self, dim_a, dim_b, rank):
        # kernels of dimension 8, 7 (3x3) and 7, 6, 5 (2x4): fewer than dB
        # complement rows, where a product vector always exists
        dims = Dims(dim_a, dim_b)
        for seed in range(3):
            state = random_state(dims, rank, derive_seed(9700 + rank, seed))
            _, kernel, _ = rank_kernel_range(state.mat)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                found = product_vector_in_subspace(kernel, dims)
            assert found is not None
            prod = np.kron(*found)
            residual = np.linalg.norm(prod - kernel @ (kernel.conj().T @ prod))
            assert residual < 1e-7


class TestKernelProductWitness:
    def test_random_rank4_states_certify(self):
        for i in range(10):
            state = random_state(D33, 4, derive_seed(51, i))
            cert = kernel_product_witness(state)
            assert cert is not None
            assert cert.route == ROUTE_KERNEL_PRODUCT
            assert verify_certificate(cert, state)

    def test_seed_3404_certificate_value(self):
        # `distill-lab random --rank 4 --npt --seed 3404`: both spectral routes
        # decline, so certify takes the kernel route
        spec = EnsembleSpec(dims=D33, rank=4, count=1, filter="NPT", seed=3404)
        state = sample_ensemble(spec)[0][0]
        cert = kernel_product_witness(state)
        assert cert is not None and verify_certificate(cert, state)
        assert abs(cert.value - -0.16288601691787674) <= 1e-12
        assert certify_1_distillable(state).route == ROUTE_KERNEL_PRODUCT

    def test_falls_back_to_two_nonpositive_when_the_scan_declines(self, monkeypatch):
        # forced: the scan declines on the rotated state, so its witness comes
        # from the two-nonpositive route, and the pullback keeps its value
        spec = EnsembleSpec(dims=D33, rank=4, count=12, filter="twoNonpositivePT", seed=2024)
        states, _ = sample_ensemble(spec)
        route, rotated = witness.two_nonpositive_witness, []

        def spy(state, seed=2024):
            rotated.append(route(state, seed))
            return rotated[-1]

        monkeypatch.setattr(witness, "submatrix_2x2_scan", lambda state, seed=2024: None)
        monkeypatch.setattr(witness, "two_nonpositive_witness", spy)
        for state in states:
            rotated.clear()
            cert = kernel_product_witness(state)
            assert len(rotated) == 1 and rotated[0] is not None
            assert cert is not None and cert.route == ROUTE_KERNEL_PRODUCT
            assert verify_certificate(cert, state)
            assert cert.value == pytest.approx(rotated[0].value, rel=1e-9, abs=1e-14)

    def test_natural_input_falls_back_to_two_nonpositive(self, monkeypatch):
        # rho = sum_k |v_k><v_k|, four v_k on indices {1,2,4,5,7,8} and four on
        # {3,4,5,6,7,8}: |00> is in ker rho, and <i0|rho|0j> = 0 for i, j = 1, 2,
        # so |00> is in the kernel of the partial transpose as well
        gen = SplitMix64(0)
        mat = np.zeros((9, 9), dtype=complex)
        for support in [[1, 2, 4, 5, 7, 8]] * 4 + [[3, 4, 5, 6, 7, 8]] * 4:
            v = np.zeros(9, dtype=complex)
            v[support] = gen.complex_vector(6)
            mat += np.outer(v, v.conj())
        state = BipartiteState(mat, D33)
        assert not np.any(mat[0]) and not np.any(partial_transpose(mat, D33)[0])
        # the PT spectrum does not see local unitaries: certify stops at the same route
        assert certify_1_distillable(state).route == ROUTE_TWO_NONPOSITIVE

        route, rotated = witness.two_nonpositive_witness, []

        def spy(state, seed=2024):
            rotated.append(route(state, seed))
            return rotated[-1]

        monkeypatch.setattr(witness, "two_nonpositive_witness", spy)
        cert = kernel_product_witness(state)
        assert len(rotated) == 1 and rotated[0] is not None
        assert cert is not None and cert.route == ROUTE_KERNEL_PRODUCT
        assert cert.value < -PSD_TOL
        assert verify_certificate(cert, state)

    def test_edge_perturbation_returns_empty(self):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert kernel_product_witness(bundle.npt_state) is None

    def test_ppt_diagonal_with_kernel_product_returns_empty(self):
        mat = np.diag([0.0, 1, 1, 1, 1, 1, 1, 1, 1]).astype(complex) / 8
        state = BipartiteState(mat, D33)
        assert kernel_product_witness(state) is None


class TestCertify:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        real = witness.product_vector_in_subspace

        def counted(basis, dims, seed=2024):
            calls.append(basis.shape[1])
            return real(basis, dims, seed)

        monkeypatch.setattr(witness, "product_vector_in_subspace", counted)
        return calls

    @staticmethod
    def _npt_state(rank: int, seed: int) -> BipartiteState:
        """The state of ``random --dimA 3 --dimB 3 --rank RANK --npt --seed SEED``."""
        spec = EnsembleSpec(dims=D33, rank=rank, count=1, filter="NPT", seed=seed)
        return sample_ensemble(spec)[0][0]

    @pytest.mark.parametrize("b, theta", DEFAULT_GRID)
    def test_rank5_edge_runs_no_product_search(self, b, theta, searches, minimizations):
        # a 4-dimensional kernel holds a product vector only on a null set; the
        # positive MES dual bound then proves the verdict with no minimization
        bundle = build_edge_bundle(EdgeParams(b, theta))
        assert certify_1_distillable(bundle.npt_state) is None
        assert searches == []
        assert minimizations == []

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_rank_at_most_4_reaches_the_kernel_route(self, rank, searches, monkeypatch):
        # the spectral routes decline on the input alone; the rotated state
        # inside the kernel route still runs them
        real = witness._spectral_routes
        for i in range(3):
            state = self._npt_state(rank, derive_seed(4400 + rank, i))
            monkeypatch.setattr(
                witness, "_spectral_routes", lambda s, seed: None if s is state else real(s, seed)
            )
            searches.clear()
            cert = certify_1_distillable(state)
            assert searches == [9 - rank]
            assert cert is not None and cert.route == ROUTE_KERNEL_PRODUCT
            assert verify_certificate(cert, state)

    @pytest.mark.parametrize("rank, seed", [(6, 23), (7, 3), (8, 2), (9, 0)])
    def test_rank_above_4_skips_the_kernel_route(self, rank, seed, searches):
        # the spectral routes decline on these inputs, so certify reaches the gate
        state = self._npt_state(rank, seed)
        assert witness._spectral_routes(state, 2024) is None
        cert = certify_1_distillable(state)
        assert searches == []
        assert cert is not None and cert.route == ROUTE_OPTIMIZER
        assert verify_certificate(cert, state)

    def test_2x3_npt_state(self):
        for i in range(5):
            spec = EnsembleSpec(dims=Dims(2, 3), rank=3, count=1, filter="NPT", seed=derive_seed(77, i))
            state = sample_ensemble(spec)[0][0]
            cert = certify_1_distillable(state)
            assert cert is not None
            assert cert.schmidt_rank <= 2
            assert verify_certificate(cert, state)

    def test_rank4_states_certify(self):
        spec = EnsembleSpec(dims=D33, rank=4, count=20, filter="NPT", seed=808)
        states, _ = sample_ensemble(spec)
        for state in states:
            cert = certify_1_distillable(state)
            assert cert is not None
            assert verify_certificate(cert, state)

    def test_edge_perturbation_not_certified(self):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert certify_1_distillable(bundle.npt_state) is None

    def test_ppt_returns_immediately(self):
        assert certify_1_distillable(werner_projector()) is None

    def test_route_invariance_under_local_unitaries(self):
        state = random_state(D33, 4, 999)
        base = certify_1_distillable(state)
        assert base is not None
        gen = SplitMix64(1001)
        for _ in range(20):
            u = random_unitary(gen, 3)
            w = random_unitary(gen, 3)
            uv = np.kron(u, w)
            rotated = BipartiteState(uv @ state.mat @ uv.conj().T, D33)
            cert = certify_1_distillable(rotated)
            assert cert is not None
            assert cert.value < -PSD_TOL
            assert verify_certificate(cert, rotated)


class TestRank4Chain:
    """On a 3x3 state of rank <= 4 certify runs the paper's three routes and nothing else."""

    MISS = "rank-4 construction failed"

    @pytest.fixture
    def all_routes_decline(self, monkeypatch):
        monkeypatch.setattr(witness, "_spectral_routes", lambda state, seed: None)
        monkeypatch.setattr(
            witness, "product_vector_in_subspace", lambda basis, dims, seed=2024: None
        )

    def test_a_miss_raises_and_never_minimizes(self, all_routes_decline, minimizations):
        spec = EnsembleSpec(rank=4, count=3, filter="NPT", seed=515)
        for state in sample_ensemble(spec)[0]:
            with pytest.raises(NumericalFailureError, match=self.MISS) as info:
                certify_1_distillable(state)
            assert "rank 4 (kernel dimension 5)" in str(info.value)
        assert minimizations == []

    def test_a_miss_fails_the_rank4_suite(self, all_routes_decline):
        report = run_suite("theorem-rank4", 3, 7)
        assert report.trials == 3 and report.passes == 0
        assert [f["trial"] for f in report.failures] == [0, 1, 2]
        assert all(self.MISS in f["reason"] for f in report.failures)

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_miss_exits_3_from_certify_rank4(self, all_routes_decline, tmp_path, capsys, flags):
        path = str(tmp_path / "s.json")
        argv = ["random", "--dimA", "3", "--dimB", "3", "--rank", "4", "--npt", "--seed", "5"]
        assert main(argv + ["--out", path]) == 0
        capsys.readouterr()
        assert main(["certify-rank4", "--in", path, *flags]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"numerical failure: {self.MISS}" in err

    def test_other_dimensions_still_reach_the_minimizer(self, all_routes_decline, minimizations):
        # no theorem guarantees a constructive witness at 3x4, so a miss there is no error
        state = sample_ensemble(EnsembleSpec(dims=Dims(3, 4), rank=4, count=1, filter="NPT"))[0][0]
        certify_1_distillable(state)
        assert minimizations == [((3, 4), 2024)]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_seeded_ensembles_never_minimize(self, rank, minimizations):
        spec = EnsembleSpec(rank=rank, count=50, filter="NPT", seed=derive_seed(2600, rank))
        for state in sample_ensemble(spec)[0]:
            cert = certify_1_distillable(state)
            assert cert is not None and verify_certificate(cert, state)
        assert minimizations == []


class TestBottomEigenvector:
    """A 2xN state's certificate is its bottom PT eigenvector, under its own route name."""

    @staticmethod
    def _state(dims: Dims, i: int) -> BipartiteState:
        spec = EnsembleSpec(dims=dims, rank=3, count=1, filter="NPT", seed=derive_seed(2601, i))
        return sample_ensemble(spec)[0][0]

    @pytest.mark.parametrize("dims", [Dims(2, 3), Dims(3, 2), D24])
    def test_route_name_and_round_trip(self, dims, minimizations):
        for i in range(3):
            state = self._state(dims, i)
            cert = certify_1_distillable(state)
            assert cert.route == ROUTE_BOTTOM_EIGENVECTOR
            assert verify_certificate(cert, state)
            loaded = certificate_from_json(dumps(certificate_document(cert)))
            assert (loaded.route, loaded.value) == (cert.route, cert.value)
            assert loaded.psi.vec.tobytes() == cert.psi.vec.tobytes()
        assert minimizations == []

    def test_unusable_eigenvector_is_no_certificate(self, monkeypatch):
        # the rule every certificate passes: a form not below -PSD_TOL is refused
        real = witness._make_certificate
        monkeypatch.setattr(
            witness, "_make_certificate", lambda *args: replace(real(*args), value=0.0)
        )
        assert certify_1_distillable(self._state(Dims(2, 3), 0)) is None


class TestOnePartialTranspose:
    """A state forms its partial transpose once; routes, checks and builds read it."""

    @pytest.fixture
    def pt_calls(self, monkeypatch):
        calls = []
        real = qcore.partial_transpose

        def counted(mat, dims):
            calls.append(tuple(dims))
            return real(mat, dims)

        monkeypatch.setattr(qcore, "partial_transpose", counted)
        return calls

    def test_rank4_certify_and_verify(self, pt_calls):
        spec = EnsembleSpec(rank=4, count=1, filter="NPT", seed=515)
        sampled = sample_ensemble(spec)[0][0]
        state = BipartiteState(sampled.mat, sampled.dims)  # nothing cached yet
        pt_calls.clear()
        cert = certify_1_distillable(state)
        assert cert is not None and verify_certificate(cert, state)
        assert pt_calls == [D33]

    @pytest.fixture
    def power_builds(self, monkeypatch):
        """The copy count of each n-copy power that ``_pt_power`` builds."""
        builds = []
        real = qcore.regroup_tensor_power

        def counted(mat, dims, n):
            builds.append(n)
            return real(mat, dims, n)

        monkeypatch.setattr(qcore, "regroup_tensor_power", counted)
        return builds

    def test_n_copy_certify_and_verify(self, power_builds):
        state = random_state(D33, 4, 5)
        _, cert = best_rank2_witness(state, 2)
        assert cert is not None and verify_certificate(cert, state)
        assert power_builds == [2]
        assert certify_1_distillable(state) is not None
        assert power_builds == [2]  # the single-copy operator is the cached ``_pt``
        assert qcore._pt_power(state, 1)[0] is state._pt
        for n in (1, 2):
            pt, dims = qcore._pt_power(state, n)
            assert not pt.flags.writeable
            assert dims == Dims(3**n, 3**n)

    def test_cached_powers_leave_the_witness_report_unchanged(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "state.json"
        main(["random", "--dimA", "3", "--dimB", "3", "--rank", "4", "--seed", "5",
              "--out", str(path)])
        capsys.readouterr()

        def report() -> str:
            assert main(["witness", "--in", str(path), "--copies", "2", "--json"]) == 0
            return capsys.readouterr().out

        cached = report()
        # the oracle: a fresh transpose and power at every call, as before the cache
        monkeypatch.setattr(
            witness,
            "_pt_power",
            lambda state, n: qcore.regroup_tensor_power(
                partial_transpose(state.mat, state.dims), state.dims, n
            ),
        )
        assert '"copies":2' in cached
        assert cached == report()

    def test_rank5_certify_and_margin(self, pt_calls):
        # counted from the build on, which forms the NPT state's PT for its NPT check
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert certify_1_distillable(bundle.npt_state) is None
        assert undistillability_margin(bundle) > 0
        assert pt_calls == [D33]


class TestVerifyCertificate:
    def test_valid_certificate(self):
        state = _mes_state()
        cert = two_nonpositive_witness(state)
        assert verify_certificate(cert, state)

    def test_rank3_substitution_fails(self):
        state = _mes_state()
        cert = two_nonpositive_witness(state)
        fake = replace(cert, psi=maximally_entangled_qutrits())
        assert not verify_certificate(fake, state)

    def test_value_perturbation_fails(self):
        state = _mes_state()
        cert = two_nonpositive_witness(state)
        fake = replace(cert, value=cert.value + 1e-6)
        assert not verify_certificate(fake, state)

    def test_wrong_copy_count_raises(self):
        # a 1-copy witness stated as 2-copy is checked against the 2-copy split,
        # which it does not fit
        state = _mes_state()
        cert = two_nonpositive_witness(state)
        with pytest.raises(DimensionMismatchError):
            verify_certificate(replace(cert, copies=2), state)

    def test_checked_at_the_stated_copy_count(self):
        # no override: a certificate is checked at the copy count it states
        assert list(inspect.signature(verify_certificate).parameters) == ["cert", "state"]

    def _rank4_certificate(self):
        state = random_state(D33, 4, 7)
        cert = certify_1_distillable(state)
        assert cert.schmidt_rank == 2 and verify_certificate(cert, state)
        return state, cert

    def test_stored_rank_must_match(self):
        state, cert = self._rank4_certificate()
        for rank in (1, 3):
            assert not verify_certificate(replace(cert, schmidt_rank=rank), state)

    def test_stored_split_must_match(self):
        state, cert = self._rank4_certificate()
        relabelled = replace(cert, psi=PureState(cert.psi.vec, Dims(1, 9)))
        assert not verify_certificate(relabelled, state)

    def test_scaled_witness_fails_to_load(self):
        # psi doubled and the value scaled to match: the form alone would pass
        _, cert = self._rank4_certificate()
        doc = certificate_document(cert)
        doc["psi"]["data"] = [[2 * re, 2 * im] for re, im in doc["psi"]["data"]]
        doc["value"] = 4 * cert.value
        with pytest.raises(ValueError, match="norm"):
            certificate_from_json(dumps(doc))


class TestLemmaOneProperty:
    def test_product_vectors_cannot_witness(self):
        # <f,g|rho^PT|f,g> = <f*,g|rho|f*,g> >= 0 for every product vector
        gen = SplitMix64(1303)
        for i in range(25):
            state = random_state(D33, 4 + (i % 6), derive_seed(1307, i))
            pt = partial_transpose(state.mat, D33)
            for _ in range(40):
                f = gen.unit_vector(3)
                g = gen.unit_vector(3)
                fg = np.kron(f, g)
                lhs = float(np.real(fg.conj() @ pt @ fg))
                fsg = np.kron(f.conj(), g)
                rhs = float(np.real(fsg.conj() @ state.mat @ fsg))
                assert abs(lhs - rhs) < 1e-12
                assert lhs >= -PSD_TOL

    def test_certified_witnesses_have_rank_exactly_two(self):
        spec = EnsembleSpec(dims=D33, rank=4, count=10, filter="NPT", seed=140)
        states, _ = sample_ensemble(spec)
        for state in states:
            cert = certify_1_distillable(state)
            assert cert is not None
            assert cert.schmidt_rank == 2


class TestQuadraticFormHelper:
    def test_two_copy_value_matches_manual_tensor(self):
        state = random_state(D33, 5, 2222)
        gen = SplitMix64(2223)
        psi = np.kron(gen.unit_vector(9), gen.unit_vector(9))
        # psi here is a product across the A1A2:B1B2 cut in regrouped indexing
        from distill_lab.qcore import regroup_tensor_power

        mat, dims = regroup_tensor_power(state.mat, D33, 2)
        manual = float(np.real(psi.conj() @ partial_transpose(mat, dims) @ psi))
        assert pt_quadratic_form(psi, state, 2) == pytest.approx(manual, abs=1e-15)

    def test_single_copy_value_is_the_plain_form_bit_for_bit(self):
        state = random_state(D33, 5, 2224)
        psi = SplitMix64(2225).unit_vector(9)
        pt = partial_transpose(state.mat, D33)
        assert pt_quadratic_form(psi, state) == float(np.real(psi.conj() @ pt @ psi))
