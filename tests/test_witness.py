"""Witness routes: minimizer contracts, constructive routes, soundness."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import distill_lab.witness as witness
from distill_lab.cli import main
from distill_lab.edgestate import (
    EdgeParams,
    build_edge_bundle,
    edge_state,
    maximally_entangled_qutrits,
    range_product_vector,
    undistillability_margin,
)
from distill_lab.harness import EnsembleSpec, random_state, sample_ensemble
from distill_lab.multicopy import werner_projector
from distill_lab.qcore import (
    DEFAULT_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    hermitian_eig,
    partial_transpose,
    rank_kernel_range,
    schmidt_rank,
)
from distill_lab.rng import SplitMix64, derive_seed, random_unitary
from distill_lab.serialize import state_from_json
from distill_lab.witness import (
    ROUTE_KERNEL_PRODUCT,
    ROUTE_TWO_NONPOSITIVE,
    Rank2Ansatz,
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


def _mes_state() -> BipartiteState:
    return BipartiteState(maximally_entangled_qutrits().projector(), D33)


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
        # a different matrix in between, so that the second call recomputes
        min_rank2_expectation(werner_projector().mat, D33)
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
    """``min_rank2_expectation`` remembers its last call, and only that."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counted(mat, cfg=DEFAULT_TOL):
            calls.append(np.shape(mat))
            return hermitian_eig(mat, cfg)

        monkeypatch.setattr(witness, "_last_minimum", None)
        monkeypatch.setattr(witness, "hermitian_eig", counted)
        return calls

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = witness._als_sweep

        def counted(m, dims, fa, fb):
            calls.append(dims)
            return sweep(m, dims, fa, fb)

        monkeypatch.setattr(witness, "_last_minimum", None)
        monkeypatch.setattr(witness, "_als_sweep", counted)
        return calls

    @staticmethod
    def _assert_one_minimization(sweeps, mat):
        """``sweeps`` holds exactly the sweeps of one fresh minimization of ``mat``."""
        seen = list(sweeps)
        sweeps.clear()
        witness._last_minimum = None
        min_rank2_expectation(mat, D33)
        assert seen == sweeps and set(seen) == {D33}

    def test_repeat_call_computes_once(self, eig_calls):
        pt = partial_transpose(_mes_state().mat, D33)
        v1, a1 = min_rank2_expectation(pt, D33)
        v2, a2 = min_rank2_expectation(pt.copy(), D33)
        assert len(eig_calls) == 1
        assert v1 == v2
        assert np.array_equal(a1.vector(), a2.vector())

    def test_other_seed_recomputes(self, eig_calls):
        pt = partial_transpose(_mes_state().mat, D33)
        v1, a1 = min_rank2_expectation(pt, D33)
        v2, a2 = min_rank2_expectation(pt, D33, replace(DEFAULT_TOL, seed=7))
        assert len(eig_calls) == 2
        assert abs(v1 - v2) < 1e-8

    def test_other_dims_recompute(self, eig_calls):
        state = random_state(Dims(2, 4), 3, 4321)
        v24, a24 = min_rank2_expectation(state.mat, Dims(2, 4))
        v42, a42 = min_rank2_expectation(state.mat, Dims(4, 2))
        assert len(eig_calls) == 2
        assert a24.frame_a.shape == (2, 2) and a42.frame_a.shape == (4, 2)

    def test_input_changed_in_place_recomputes(self, eig_calls):
        h = partial_transpose(_mes_state().mat, D33)
        v1, _ = min_rank2_expectation(h, D33)
        h += np.eye(9)
        v2, _ = min_rank2_expectation(h, D33)
        assert len(eig_calls) == 2
        assert v2 == pytest.approx(v1 + 1.0, abs=1e-8)

    def test_raising_call_is_not_remembered(self, eig_calls):
        m = np.zeros((9, 9), dtype=complex)
        m[0, 3] = 1.0
        for _ in range(2):
            with pytest.raises(ValueError):
                min_rank2_expectation(m, D33)
        assert len(eig_calls) == 2

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

    def test_combination_obeys_spectral_chain(self):
        # for invertible bottom matricization, the witness comes from a root t
        # of det(A + tB) with value (lam + |t|^2 mu) / (1 + |t|^2)
        found = 0
        for i in range(60):
            state = random_state(D33, 5, derive_seed(313, i))
            pt = partial_transpose(state.mat, D33)
            evals, evecs = np.linalg.eigh(pt)
            if not (evals[0] < -1e-6 and evals[1] <= DEFAULT_TOL.psd_tol):
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

    def test_restart_schedule(self, monkeypatch):
        # restart 0 alone, then every other restart in one block
        blocks = []
        descent = witness._product_search_descent

        def counted(ck, a, b, cfg):
            blocks.append(a.shape[0])
            return descent(ck, a, b, cfg)

        monkeypatch.setattr(witness, "_product_search_descent", counted)
        _, kernel, _ = rank_kernel_range(edge_state(EdgeParams(1.0, math.pi / 6)).mat)
        assert product_vector_in_subspace(kernel, D33) is None
        assert blocks == [1, DEFAULT_TOL.opt_restarts - 1]
        blocks.clear()
        assert product_vector_in_subspace(kernel, D33, replace(DEFAULT_TOL, opt_restarts=1)) is None
        assert blocks == [1]

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

    def test_falls_back_to_two_nonpositive_when_the_scan_declines(self, monkeypatch):
        # forced: the scan declines on the rotated state, so its witness comes
        # from the two-nonpositive route, and the pullback keeps its value
        spec = EnsembleSpec(dims=D33, rank=4, count=12, filter="twoNonpositivePT", seed=2024)
        states, _ = sample_ensemble(spec)
        route, rotated = witness.two_nonpositive_witness, []

        def spy(state, cfg=DEFAULT_TOL):
            rotated.append(route(state, cfg))
            return rotated[-1]

        monkeypatch.setattr(witness, "submatrix_2x2_scan", lambda state, cfg=DEFAULT_TOL: None)
        monkeypatch.setattr(witness, "two_nonpositive_witness", spy)
        for state in states:
            rotated.clear()
            cert = kernel_product_witness(state)
            assert len(rotated) == 1 and rotated[0] is not None
            assert cert is not None and cert.route == ROUTE_KERNEL_PRODUCT
            assert verify_certificate(cert, state)
            assert cert.value == pytest.approx(rotated[0].value, rel=1e-9, abs=1e-14)

    def test_edge_perturbation_returns_empty(self):
        bundle = build_edge_bundle(EdgeParams(1.0, math.pi / 6))
        assert kernel_product_witness(bundle.npt_state) is None

    def test_ppt_diagonal_with_kernel_product_returns_empty(self):
        mat = np.diag([0.0, 1, 1, 1, 1, 1, 1, 1, 1]).astype(complex) / 8
        state = BipartiteState(mat, D33)
        assert kernel_product_witness(state) is None


class TestCertify:
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
            assert cert.value < -DEFAULT_TOL.psd_tol
            assert verify_certificate(cert, rotated)


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
                assert lhs >= -DEFAULT_TOL.psd_tol

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
