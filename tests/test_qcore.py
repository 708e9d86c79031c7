"""Core linear-algebra contracts: exactness, oracles, and invariants."""

import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import distill_lab
import distill_lab.qcore as qcore
from distill_lab.qcore import (
    RANK_REL_TOL,
    BipartiteState,
    DimensionMismatchError,
    Dims,
    PureState,
    _SPEC_TOL,
    _numeric_rank,
    _pt_power,
    hermitian_eig,
    is_ppt,
    min_pt_eigenvalue,
    partial_trace,
    partial_transpose,
    rank_kernel_range,
    regroup_tensor_power,
    schmidt_decompose,
    schmidt_rank,
    tensor,
)
from distill_lab.edgestate import (
    DEFAULT_GRID,
    EdgeParams,
    build_edge_bundle,
    edge_state,
    maximally_entangled_qutrits,
)
from distill_lab.harness import EnsembleSpec, random_state, sample_ensemble
from distill_lab.witness import (
    ROUTE_KERNEL_PRODUCT,
    ROUTE_SUBMATRIX,
    ROUTE_TWO_NONPOSITIVE,
    _RESTARTS,
    certify_1_distillable,
    kernel_product_witness,
    submatrix_2x2_scan,
    two_nonpositive_witness,
)
from distill_lab.rng import SplitMix64, _complex_normals, derive_seed, random_unitary

D33 = Dims(3, 3)


def _complex_matrix(gen: SplitMix64, rows: int, cols: int) -> np.ndarray:
    """``gen.complex_matrix(rows, cols)``, drawn by the stacked kernel (same bits)."""
    (g,), (gen._state,) = _complex_normals([gen._state], rows * cols)
    return g.reshape(rows, cols)


def _random_hermitian(gen: SplitMix64, d: int) -> np.ndarray:
    g = _complex_matrix(gen, d, d)
    return (g + g.conj().T) / 2


def _random_psd_state(gen: SplitMix64, dims: Dims, rank: int) -> BipartiteState:
    g = _complex_matrix(gen, dims.total, rank)
    m = g @ g.conj().T
    return BipartiteState(m / np.trace(m).real, dims)


def _kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct multiplication oracle for the Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        got = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_mes_projector_square_against_direct_oracle(self):
        proj = maximally_entangled_qutrits().projector()
        got = tensor(proj, proj)
        expected = _kron_oracle(proj, proj)
        assert np.array_equal(got, expected)
        assert got.shape == (81, 81)
        assert abs(np.trace(got) - 1.0) < 1e-14
        s = np.linalg.svd(got, compute_uv=False)
        assert int(np.sum(s > 1e-12)) == 1


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        gen = SplitMix64(11)
        a = gen.unit_vector(3)
        b = gen.unit_vector(3)
        rho = np.outer(np.kron(a, b), np.kron(a, b).conj())
        pt = partial_transpose(rho, D33)
        expected = np.outer(np.kron(a.conj(), b), np.kron(a.conj(), b).conj())
        assert np.allclose(pt, expected, atol=1e-15)
        assert np.linalg.eigvalsh(pt)[0] > -1e-14

    def test_mes_spectrum(self):
        # the partially transposed projector is the swap over 3, spectrum +-1/3
        pt = partial_transpose(maximally_entangled_qutrits().projector(), D33)
        evals = np.sort(np.linalg.eigvalsh(pt))
        expected = np.array([-1 / 3] * 3 + [1 / 3] * 6)
        assert np.allclose(evals, expected, atol=1e-14)

    def test_involution_is_bit_exact(self):
        gen = SplitMix64(3)
        for dims in (D33, Dims(2, 3), Dims(2, 4)):
            m = gen.complex_matrix(dims.total, dims.total)
            assert np.array_equal(partial_transpose(partial_transpose(m, dims), dims), m)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(st.integers(2, 4), st.integers(2, 4)), data=st.data())
    def test_property_involution_is_bit_exact(self, dims, data):
        dims = Dims(*dims)
        m = data.draw(arrays(np.complex128, (dims.total, dims.total)))
        assert partial_transpose(partial_transpose(m, dims), dims).tobytes() == m.tobytes()

    def test_preserves_trace_hermiticity_and_eigensum(self):
        gen = SplitMix64(5)
        for _ in range(10):
            h = _random_hermitian(gen, 9)
            pt = partial_transpose(h, D33)
            assert np.array_equal(pt, pt.conj().T)
            assert abs(np.trace(pt) - np.trace(h)) < 1e-14
            s_in = float(np.sum(np.linalg.eigvalsh(h)))
            s_out = float(np.sum(np.linalg.eigvalsh(pt)))
            assert abs(s_in - s_out) <= 1e-12 * max(abs(s_in), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(8), D33)


class TestPartialTrace:
    def test_mes_marginal(self):
        proj = maximally_entangled_qutrits().projector()
        assert np.allclose(partial_trace(proj, D33, "A"), np.eye(3) / 3, atol=1e-15)
        assert np.allclose(partial_trace(proj, D33, "B"), np.eye(3) / 3, atol=1e-15)

    def test_identity(self):
        assert np.allclose(partial_trace(np.eye(9) / 9, D33, "B"), np.eye(3) / 3)

    def test_against_index_loop_oracle(self):
        gen = SplitMix64(17)
        m = _random_hermitian(gen, 6)
        dims = Dims(2, 3)
        keep_a = np.zeros((2, 2), dtype=complex)
        keep_b = np.zeros((3, 3), dtype=complex)
        for i in range(2):
            for j in range(2):
                for n in range(3):
                    keep_a[i, j] += m[i * 3 + n, j * 3 + n]
        for k in range(3):
            for l in range(3):
                for i in range(2):
                    keep_b[k, l] += m[i * 3 + k, i * 3 + l]
        assert np.allclose(partial_trace(m, dims, "A"), keep_a, atol=1e-14)
        assert np.allclose(partial_trace(m, dims, "B"), keep_b, atol=1e-14)

    def test_tensor_factor_consistency(self):
        gen = SplitMix64(23)
        rho1 = _random_psd_state(gen, Dims(2, 2), 4).mat
        rho2 = _random_psd_state(gen, Dims(2, 2), 4).mat
        prod = tensor(rho1, rho2)
        # viewed on (A1B1) x (A2B2): tracing the first factor leaves the second
        got = partial_trace(prod, Dims(4, 4), "B")
        assert np.allclose(got, rho2 * np.trace(rho1).real, atol=1e-14)

    def test_trace_preserved(self):
        gen = SplitMix64(29)
        m = _random_hermitian(gen, 9)
        for keep in ("A", "B"):
            assert np.trace(partial_trace(m, D33, keep)) == pytest.approx(
                np.trace(m), abs=1e-13
            )


class TestHermitianEig:
    def test_sorted_diagonal(self):
        spec = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            hermitian_eig(m)

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_eig(np.full((2, 2), np.nan))

    def test_rejects_inf_entries_without_a_warning(self):
        m = np.eye(3, dtype=complex)
        m[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="finite"):
                hermitian_eig(m)

    def test_edge_pt_zero_eigenvector_is_the_mes(self):
        params = EdgeParams(1.0, math.pi / 6)
        pt = partial_transpose(edge_state(params).mat, D33)
        spec = hermitian_eig(pt)
        assert abs(spec.eigenvalues[0]) < 1e-14
        mes = maximally_entangled_qutrits().vec
        assert abs(abs(mes.conj() @ spec.eigenvectors[:, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim,count", [(9, 100), (81, 100)])
    def test_reconstruction_and_orthonormality(self, dim, count):
        gen = SplitMix64(derive_seed(31, dim))
        for _ in range(count):
            h = _random_hermitian(gen, dim)
            spec = hermitian_eig(h)
            v = spec.eigenvectors
            scale = max(float(np.abs(h).max()), 1.0)
            recon = (v * spec.eigenvalues) @ v.conj().T
            assert float(np.abs(recon - h).max()) <= _SPEC_TOL * scale
            assert float(np.abs(v.conj().T @ v - np.eye(dim)).max()) <= _SPEC_TOL


class TestSchmidt:
    def test_product_vector_rank_one(self):
        v = np.zeros(9, dtype=complex)
        v[0] = 1.0
        assert schmidt_rank(v, D33) == 1

    def test_bell_rank_two(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / math.sqrt(2)
        s, _, _ = schmidt_decompose(v, Dims(2, 2))
        assert np.allclose(s, [1 / math.sqrt(2)] * 2, atol=1e-15)
        assert schmidt_rank(v, Dims(2, 2)) == 2

    def test_mes_rank_three(self):
        mes = maximally_entangled_qutrits()
        s, _, _ = schmidt_decompose(mes.vec, D33)
        assert np.allclose(s, [1 / math.sqrt(3)] * 3, atol=1e-15)
        assert schmidt_rank(mes.vec, D33) == 3

    def test_reconstruction(self):
        gen = SplitMix64(41)
        for dims in (D33, Dims(2, 3)):
            v = gen.unit_vector(dims.total)
            s, left, right = schmidt_decompose(v, dims)
            recon = sum(
                s[k] * np.kron(left[:, k], right[:, k]) for k in range(len(s))
            )
            assert np.allclose(recon, v, atol=1e-12)

    def test_coefficients_invariant_under_local_unitaries(self):
        gen = SplitMix64(43)
        v = gen.unit_vector(9)
        s0, _, _ = schmidt_decompose(v, D33)
        for _ in range(10):
            u = random_unitary(gen, 3)
            w = random_unitary(gen, 3)
            s1, _, _ = schmidt_decompose(np.kron(u, w) @ v, D33)
            assert np.allclose(s0, s1, atol=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.zeros(9), D33)


class TestRankKernelRange:
    def test_edge_state_biranks(self):
        params = EdgeParams(1.0, math.pi / 6)
        sigma = edge_state(params)
        assert rank_kernel_range(sigma.mat)[0] == 5
        assert rank_kernel_range(partial_transpose(sigma.mat, D33))[0] == 8

    def test_zero_matrix(self):
        rank, kernel, rng_basis = rank_kernel_range(np.zeros((4, 4)))
        assert rank == 0
        assert kernel.shape == (4, 4)
        assert rng_basis.shape == (4, 0)

    def test_rank_nullity_and_orthonormality(self):
        gen = SplitMix64(47)
        for rank in (1, 3, 5):
            g = gen.complex_matrix(9, rank)
            m = g @ g.conj().T
            got, kernel, rng_basis = rank_kernel_range(m)
            assert got == rank
            assert got + kernel.shape[1] == 9
            assert np.allclose(kernel.conj().T @ kernel, np.eye(9 - rank), atol=1e-12)
            assert np.allclose(rng_basis.conj().T @ rng_basis, np.eye(rank), atol=1e-12)
            assert float(np.abs(m @ kernel).max()) < 1e-10


def _decomposition_rank(m: np.ndarray) -> int:
    """The rank as counted from a full singular value decomposition, vectors and all."""
    s = np.linalg.svd(np.asarray(m, dtype=complex))[1]
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_REL_TOL * s[0]))


def _decomposition_schmidt_rank(vec: np.ndarray, dims: Dims) -> int:
    s, _, _ = schmidt_decompose(vec, dims)
    return int(np.sum(s > RANK_REL_TOL * s[0]))


class TestKeptRank:
    """A state ranks itself once, by the one rank rule."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.sampled_from([D33, Dims(2, 4)]),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        log_c=st.floats(-6.0, 6.0),
    )
    def test_kept_rank_is_the_rank_rule(self, dims, rank, seed, log_c):
        rho = random_state(dims, min(rank, dims.total), seed)
        for state in (rho, BipartiteState(10.0**log_c * rho.mat, dims)):
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                first = state._rank
                assert state._rank == first and svd.call_count == 1
            assert first == _numeric_rank(state.mat) == rank_kernel_range(state.mat)[0]
        assert rho._rank == min(rank, dims.total)


class TestSingularValueRank:
    """The rank read from singular values alone equals the count from a decomposition."""

    def test_exactly_rank_deficient_gram_matrices(self):
        gen = SplitMix64(59)
        for rank in range(1, 10):
            for _ in range(4):
                g = _complex_matrix(gen, 9, rank)
                m = g @ g.conj().T
                assert _numeric_rank(m) == _decomposition_rank(m) == rank
                assert rank_kernel_range(m)[0] == rank

    def test_zero_matrix(self):
        for m in (np.zeros((4, 4)), np.zeros((3, 5), dtype=complex)):
            assert _numeric_rank(m) == _decomposition_rank(m) == rank_kernel_range(m)[0] == 0

    def test_witnesses_of_every_route(self):
        vectors = []
        for i in range(30):
            hit = submatrix_2x2_scan(random_state(D33, 4, derive_seed(911, i)))
            if hit is not None:
                assert hit.certificate.route == ROUTE_SUBMATRIX
                vectors.append(hit.certificate.psi.vec)
        spec = EnsembleSpec(rank=5, count=20, filter="twoNonpositivePT", seed=4242)
        for state in sample_ensemble(spec)[0]:
            cert = two_nonpositive_witness(state)
            assert cert.route == ROUTE_TWO_NONPOSITIVE
            vectors.append(cert.psi.vec)
            # the matricizations two_nonpositive_witness ranks
            evecs = hermitian_eig(partial_transpose(state.mat, D33)).eigenvectors
            for k in (0, 1):
                mat = evecs[:, k].reshape(3, 3)
                assert _numeric_rank(mat) == _decomposition_rank(mat)
        for i in range(5):
            cert = kernel_product_witness(random_state(D33, 4, derive_seed(51, i)))
            assert cert.route == ROUTE_KERNEL_PRODUCT
            vectors.append(cert.psi.vec)
        assert len(vectors) > 40
        for v in vectors:
            assert schmidt_rank(v, D33) == _decomposition_schmidt_rank(v, D33)
            assert _numeric_rank(v.reshape(3, 3)) == _decomposition_rank(v.reshape(3, 3))

    def test_schmidt_ranks_one_to_three(self):
        gen = SplitMix64(61)
        for dims in (D33, Dims(2, 4)):
            for rank in range(1, min(dims) + 1):
                v = sum(
                    np.kron(gen.unit_vector(dims.dim_a), gen.unit_vector(dims.dim_b))
                    for _ in range(rank)
                )
                assert schmidt_rank(v, dims) == _decomposition_schmidt_rank(v, dims) == rank

    def test_schmidt_rank_rejects_like_the_decomposition(self):
        with pytest.raises(ValueError):
            schmidt_rank(np.zeros(9), D33)
        with pytest.raises(DimensionMismatchError):
            schmidt_rank(np.ones(8), D33)


class TestTensorPower:
    def test_single_copy_is_identity(self):
        gen = SplitMix64(53)
        m = gen.complex_matrix(9, 9)
        out, dims = regroup_tensor_power(m, D33, 1)
        assert np.array_equal(out, m)
        assert dims == D33

    def test_commutes_with_partial_transpose(self):
        # exactly: each entry of either side is the same product of the same factors
        states = [_random_psd_state(SplitMix64(59), D33, 5)] + [
            build_edge_bundle(EdgeParams(b, theta)).npt_state for b, theta in DEFAULT_GRID
        ]
        for state in states:
            powered, big = regroup_tensor_power(state.mat, D33, 2)
            pt_then_power, _ = regroup_tensor_power(
                partial_transpose(state.mat, D33), D33, 2
            )
            power_then_pt = partial_transpose(powered, big)
            assert np.array_equal(pt_then_power, power_then_pt)

    @pytest.mark.parametrize("n", [1, 2])
    def test_pt_power_transposes_the_regrouped_power(self, n):
        state = _random_psd_state(SplitMix64(60), Dims(2, 3), 4)
        pt, big = _pt_power(state, n)
        powered, dims = regroup_tensor_power(state.mat, state.dims, n)
        assert big == dims == Dims(2**n, 3**n)
        assert pt.tobytes() == partial_transpose(powered, dims).tobytes()
        if n == 1:
            assert pt.tobytes() == partial_transpose(state.mat, state.dims).tobytes()

    def test_product_of_distinct_factors(self):
        # regrouped PT of rho1 (x) rho2 equals the product of the individual PTs
        gen = SplitMix64(61)
        rho1 = _random_psd_state(gen, Dims(2, 2), 3).mat
        rho2 = _random_psd_state(gen, Dims(2, 2), 2).mat
        prod = tensor(rho1, rho2).reshape([2] * 8)
        regrouped = prod.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        lhs = partial_transpose(regrouped, Dims(4, 4))
        pt_each = tensor(
            partial_transpose(rho1, Dims(2, 2)), partial_transpose(rho2, Dims(2, 2))
        ).reshape([2] * 8)
        rhs = pt_each.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        assert float(np.abs(lhs - rhs).max()) <= 1e-15

    def test_copy_cap(self):
        state = _random_psd_state(SplitMix64(67), D33, 2)
        with pytest.raises(ValueError):
            regroup_tensor_power(state.mat, state.dims, 3)

    def test_dimension_cap(self):
        gen = SplitMix64(71)
        m = gen.complex_matrix(16, 16)
        with pytest.raises(ValueError):
            regroup_tensor_power(m, Dims(4, 4), 4)

    def test_dimension_cap_within_copy_cap(self):
        # two copies of a 10x10 operator would be 10000 x 10000 (1.6 GB)
        m = np.eye(100, dtype=complex)
        with pytest.raises(ValueError, match="dimension cap"):
            regroup_tensor_power(m, Dims(10, 10), 2)


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(9, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            BipartiteState(m, D33)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BipartiteState(-np.eye(9), D33)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BipartiteState(np.eye(8), D33)

    @pytest.mark.parametrize("dims", [(-3, -3), (0, 0), (-1, -9), (9, 0)])
    def test_rejects_sides_below_one(self, dims):
        # the product of the split alone would let (-3) x (-3) pass as 9
        size = abs(dims[0] * dims[1])
        with pytest.raises(DimensionMismatchError, match="at least 1"):
            BipartiteState(np.eye(size) / max(size, 1), Dims(*dims))
        with pytest.raises(DimensionMismatchError, match="at least 1"):
            partial_transpose(np.eye(size), Dims(*dims))
        vec = np.ones(size) / math.sqrt(max(size, 1))
        with pytest.raises(DimensionMismatchError, match="at least 1"):
            PureState(vec, Dims(*dims))
        with pytest.raises(DimensionMismatchError, match="at least 1"):
            schmidt_rank(vec, Dims(*dims))

    def test_unnormalized_trace_allowed(self):
        st = BipartiteState(3.7 * np.eye(9), D33)
        assert abs(st.trace - 33.3) < 1e-12
        assert abs(st.normalized().trace - 1.0) < 1e-14

    def test_pure_state_norm_flag(self):
        # unit norm is the only rule: no flag lets another norm through
        for scale in (0.0, 3.0, 1 + 2e-10):
            with pytest.raises(ValueError, match="norm"):
                PureState(scale * np.ones(9) / 3, D33)
        with pytest.raises(TypeError):
            PureState(np.ones(9), D33, unnormalized=True)
        assert PureState((1 + 5e-11) * np.ones(9) / 3, D33).vec.shape == (9,)

    def test_rejects_non_finite_entries(self):
        bad = np.eye(9, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            BipartiteState(bad, D33)
        vec = np.zeros(9, dtype=complex)
        vec[0] = np.nan
        with pytest.raises(ValueError):
            PureState(vec, D33)

    def test_accepts_non_contiguous_input(self):
        big = np.zeros((18, 18), dtype=complex)
        big[::2, ::2] = np.eye(9)
        st = BipartiteState(big[::2, ::2], D33)
        assert abs(st.trace - 9.0) < 1e-14

    def test_cached_pt_is_the_permutation_pt(self):
        gen = SplitMix64(68)
        for dims in (D33, Dims(2, 3)):
            st = _random_psd_state(gen, dims, 3)
            assert st._pt.tobytes() == partial_transpose(st.mat, dims).tobytes()
            assert st._pt is st._pt
            with pytest.raises(ValueError):
                st._pt[0, 0] = 0.0

    def test_cached_pt_spectrum_is_the_eigvalsh_spectrum(self):
        gen = SplitMix64(67)
        for dims in (D33, Dims(2, 3)):
            st = _random_psd_state(gen, dims, 3)
            expected = np.linalg.eigvalsh(partial_transpose(st.mat, dims))
            assert st._pt_eigenvalues.tobytes() == expected.tobytes()
            assert st._pt_eigenvalues is st._pt_eigenvalues
            assert min_pt_eigenvalue(st) == float(expected[0])
            with pytest.raises(ValueError):
                st._pt_eigenvalues[0] = 0.0

    def test_ppt_detection(self):
        mes_state = BipartiteState(maximally_entangled_qutrits().projector(), D33)
        assert not is_ppt(mes_state)
        assert is_ppt(BipartiteState(np.eye(9) / 9, D33))


class TestSeedArgument:
    """The seed is a plain argument; the one-field config class that carried it is gone."""

    def test_config_names_are_gone(self):
        assert not hasattr(qcore, "ToleranceConfig") and not hasattr(qcore, "DEFAULT_TOL")
        assert "ToleranceConfig" not in distill_lab.__all__
        assert "DEFAULT_TOL" not in distill_lab.__all__
        # the deprecated name returns the seed it is given
        assert distill_lab.ToleranceConfig(seed=7) == 7
        # the restart budget is the constant witness._RESTARTS, not an argument
        assert _RESTARTS == 64

    def test_config_keyword_is_refused(self):
        state = BipartiteState(maximally_entangled_qutrits().projector(), D33)
        with pytest.raises(TypeError):
            certify_1_distillable(state, cfg=2024)

    def test_public_signatures(self):
        # no public callable takes ``cfg``, and every defaulted ``seed`` defaults to 2024
        seeded = []
        for name in distill_lab.__all__:
            obj = getattr(distill_lab, name)
            if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            params = inspect.signature(obj).parameters
            assert "cfg" not in params, name
            seed = params.get("seed")
            if seed is not None and seed.default is not inspect.Parameter.empty:
                assert seed.default == 2024, name
                seeded.append(name)
        assert "certify_1_distillable" in seeded and "verify_n_undistillable" in seeded
