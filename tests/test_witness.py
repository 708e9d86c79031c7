"""Witness routes: minimizer contracts, constructive routes, soundness."""

import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

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
from distill_lab.harness import EnsembleSpec, _passes_filter, random_state, sample_ensemble
from distill_lab.multicopy import werner_projector
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
    """(dims, seed) of each ``min_rank2_expectation`` call the witness module makes."""
    calls = []
    real = witness.min_rank2_expectation

    def counted(x, dims, seed=2024):
        calls.append((tuple(dims), seed))
        return real(x, dims, seed)

    monkeypatch.setattr(witness, "min_rank2_expectation", counted)
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

        def counted(m, dims, fa, fb):
            calls.append(dims)
            return sweep(m, dims, fa, fb)

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
        assert list(state._rank2_minima) == [(1, 2024)]

    def test_minimizer_computes_every_call(self, eig_calls):
        pt = partial_transpose(_mes_state().mat, D33)
        v1, a1 = min_rank2_expectation(pt, D33)
        v2, a2 = min_rank2_expectation(pt, D33)
        assert len(eig_calls) == 2
        assert v1 == v2
        assert np.array_equal(a1.vector(), a2.vector())

    def test_rank5_check_minimizes_once(self, sweeps):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert certify_1_distillable(bundle.npt_state) is None
        assert undistillability_margin(bundle) > 0
        self._assert_one_minimization(sweeps, partial_transpose(bundle.npt_state.mat, D33))

    def test_cli_witness_minimizes_once(self, tmp_path, capsys, sweeps):
        path = tmp_path / "rho.json"
        assert main(["rho", "--b", "1.0", "--theta", str(math.pi / 6), "--out", str(path)]) == 0
        assert main(["witness", "--in", str(path)]) == 0
        assert "no witness found" in capsys.readouterr().out
        state = state_from_json(path.read_text())
        self._assert_one_minimization(sweeps, partial_transpose(state.mat, D33))


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

    # ten steps may leave every restart of a search short of a solution, and
    # on a 3x3 kernel of dimension 5 that warns of an optimizer failure
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        # a 4-dimensional kernel holds a product vector only on a null set
        bundle = build_edge_bundle(EdgeParams(b, theta))
        assert certify_1_distillable(bundle.npt_state) is None
        assert searches == []
        assert minimizations == [(D33, 2024)]

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

    @pytest.mark.parametrize("rank, seed", [(6, 23), (7, 3), (8, 2)])
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
