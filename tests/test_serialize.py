"""JSON round-trip exactness and format determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distill_lab.harness import random_state
from distill_lab.qcore import BipartiteState, Dims, PureState
from distill_lab.serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    matrix_document,
    matrix_from_document,
    pure_state_document,
    pure_state_from_document,
    state_from_json,
    state_to_json,
)
from distill_lab.witness import (
    ROUTE_KERNEL_PRODUCT,
    ROUTE_OPTIMIZER,
    ROUTE_SUBMATRIX,
    ROUTE_TWO_NONPOSITIVE,
    WitnessCertificate,
    certify_1_distillable,
)
from distill_lab.harness import EnsembleSpec, sample_ensemble

D33 = Dims(3, 3)


class TestFloatFormat:
    def test_17_significant_digits(self):
        assert dumps(0.1) == "0.10000000000000001"
        assert dumps(1 / 3) == "0.33333333333333331"
        assert dumps(0.5) == "0.5"
        assert dumps(-0.0) == "-0"

    def test_round_trip_exactness(self):
        values = [1 / 3, math.pi, 1e-300, -2.5e17, 0.1 + 0.2]
        for v in values:
            assert json.loads(dumps(v)) == v

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
        with pytest.raises(ValueError):
            dumps(float("inf"))

    def test_deterministic(self):
        doc = {"a": [1.5, -0.25], "b": {"c": 1e-17}}
        assert dumps(doc) == dumps(doc)

    def test_round_trip_stress(self):
        # 17 significant digits must reproduce arbitrary doubles exactly
        from distill_lab.rng import SplitMix64

        gen = SplitMix64(808)
        for _ in range(10000):
            x = (gen.uniform() - 0.5) * 10.0 ** (int(gen.uniform() * 600) - 300)
            assert json.loads(dumps(x)) == x


class TestMatrixRoundTrip:
    def test_state_exact(self):
        state = random_state(D33, 5, 424242)
        text = state_to_json(state, meta={"note": "round trip"})
        loaded = state_from_json(text)
        assert np.array_equal(loaded.mat, state.mat)
        assert loaded.dims == state.dims

    def test_negative_zero_keeps_its_sign(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat.imag[0, 1] = -0.0
        mat.real[2, 3] = -0.0
        state = BipartiteState(mat, Dims(2, 2))
        text = state_to_json(state)
        assert "[0,-0]" in text and "[-0,0]" in text
        assert state_from_json(text).mat.tobytes() == state.mat.tobytes()

    def test_document_schema(self):
        state = random_state(Dims(2, 3), 2, 7)
        doc = matrix_document(state.mat, state.dims)
        assert doc["dimA"] == 2 and doc["dimB"] == 3
        assert doc["rows"] == doc["cols"] == 6
        assert len(doc["data"]) == 36
        assert all(len(pair) == 2 for pair in doc["data"])

    def test_rejects_malformed_documents(self):
        state = random_state(D33, 3, 9)
        doc = matrix_document(state.mat, state.dims)
        bad = dict(doc)
        del bad["rows"]
        with pytest.raises(ValueError):
            matrix_from_document(bad)
        bad = dict(doc)
        bad["data"] = doc["data"][:-1]
        with pytest.raises(ValueError):
            matrix_from_document(bad)
        bad = dict(doc)
        bad["rows"] = 5
        with pytest.raises(ValueError):
            matrix_from_document(bad)


class TestPureStateAndCertificate:
    def test_pure_state_round_trip(self):
        vec = np.array([1, 1j, 0, 0, -1, 0, 0, 0, 0.5], dtype=complex)
        vec /= np.linalg.norm(vec)
        ps = PureState(vec, D33)
        back = pure_state_from_document(pure_state_document(ps))
        assert np.array_equal(back.vec, ps.vec)

    def test_certificate_round_trip(self):
        spec = EnsembleSpec(rank=4, count=1, filter="NPT", seed=515)
        state = sample_ensemble(spec)[0][0]
        cert = certify_1_distillable(state)
        assert cert is not None
        back = certificate_from_json(certificate_to_json(cert))
        assert back.route == cert.route
        assert back.value == cert.value
        assert back.copies == cert.copies
        assert back.schmidt_rank == cert.schmidt_rank
        assert np.array_equal(back.psi.vec, cert.psi.vec)

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        data=st.data(),
        value=st.floats(allow_nan=False, allow_infinity=False),
        copies=st.integers(1, 2),
        route=st.sampled_from(
            [ROUTE_SUBMATRIX, ROUTE_TWO_NONPOSITIVE, ROUTE_KERNEL_PRODUCT, ROUTE_OPTIMIZER]
        ),
        schmidt_rank=st.integers(1, 4),
        seed=st.integers(0, 2**64 - 1),
        restarts=st.integers(1, 999_999),
        delta=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_property_certificate_reserializes_byte_for_byte(
        self, dims, data, value, copies, route, schmidt_rank, seed, restarts, delta
    ):
        dims = Dims(*dims)
        parts = st.floats(-1.0, 1.0)
        entries = st.lists(
            st.builds(complex, parts, parts), min_size=dims.total, max_size=dims.total
        )
        vec = np.array(data.draw(entries))
        norm = float(np.linalg.norm(vec))
        assume(norm > 1e-100)
        cert = WitnessCertificate(
            psi=PureState(vec / norm, dims),
            value=value,
            copies=copies,
            route=route,
            schmidt_rank=schmidt_rank,
            seed=seed,
            restarts=restarts,
            delta=delta,
        )
        text = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text
