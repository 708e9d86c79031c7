"""JSON round-trip exactness and format determinism."""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distill_lab.harness import random_state
from distill_lab.qcore import MAX_COPIES, BipartiteState, Dims, PureState
from distill_lab.serialize import (
    _pairs_to_complex,
    certificate_document,
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
    ROUTE_BOTTOM_EIGENVECTOR,
    ROUTE_KERNEL_PRODUCT,
    ROUTE_OPTIMIZER,
    ROUTE_SUBMATRIX,
    ROUTE_TWO_NONPOSITIVE,
    WitnessCertificate,
    certify_1_distillable,
    verify_certificate,
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
        # a document that is not an object, or an object without a key
        for loader in (matrix_from_document, pure_state_from_document):
            for bad in (5, None, [1], "dimA", {}):
                with pytest.raises(ValueError):
                    loader(bad)
        for text in ("5", "null", "[1]", '"route"', '{"route": "optimizer", "psi": 5}'):
            with pytest.raises(ValueError):
                certificate_from_json(text)
        spec = EnsembleSpec(rank=4, count=1, filter="NPT", seed=515)
        cert_doc = certificate_document(certify_1_distillable(sample_ensemble(spec)[0][0]))
        for key in ("route", "copies", "value", "psi", "schmidt_rank"):
            bad = {k: v for k, v in cert_doc.items() if k != key}
            with pytest.raises(ValueError, match=key):
                certificate_from_json(dumps(bad))
        bad = dict(cert_doc, psi={"dimA": 3, "dimB": 3})
        with pytest.raises(ValueError, match="data"):
            certificate_from_json(dumps(bad))
        # a copy count outside 1..MAX_COPIES used to load and fail later on its dims
        for copies in (0, -1, MAX_COPIES + 1):
            with pytest.raises(ValueError, match="'copies' must lie in 1.."):
                certificate_from_json(dumps(dict(cert_doc, copies=copies)))


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

    def test_pure_state_loader_refuses_other_norms(self):
        doc = pure_state_document(PureState(np.ones(4) / 2, Dims(2, 2)))
        for scale in (2.0, 0.5, 0.0):
            bad = dict(doc, data=[[scale * re, scale * im] for re, im in doc["data"]])
            with pytest.raises(ValueError, match="norm"):
                pure_state_from_document(bad)

    def test_tampered_certificates_fail_loading_or_verification(self):
        state = random_state(D33, 4, 7)
        cert = certify_1_distillable(state)
        doc = certificate_document(cert)
        assert verify_certificate(certificate_from_json(dumps(doc)), state)
        # a stored Schmidt rank or split that the witness does not have
        for bad in (
            dict(doc, schmidt_rank=3),
            dict(doc, psi=dict(doc["psi"], dimA=1, dimB=9)),
        ):
            assert not verify_certificate(certificate_from_json(dumps(bad)), state)
        # psi doubled and the value scaled to match: not a unit vector
        psi = dict(doc["psi"], data=[[2 * re, 2 * im] for re, im in doc["psi"]["data"]])
        with pytest.raises(ValueError, match="norm"):
            certificate_from_json(dumps(dict(doc, psi=psi, value=4 * cert.value)))

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        data=st.data(),
        value=st.floats(allow_nan=False, allow_infinity=False),
        copies=st.integers(1, 2),
        route=st.sampled_from(
            [ROUTE_SUBMATRIX, ROUTE_TWO_NONPOSITIVE, ROUTE_KERNEL_PRODUCT, ROUTE_OPTIMIZER,
             ROUTE_BOTTOM_EIGENVECTOR]
        ),
        schmidt_rank=st.integers(1, 4),
        delta=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_property_certificate_reserializes_byte_for_byte(
        self, dims, data, value, copies, route, schmidt_rank, delta
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
            delta=delta,
        )
        text = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text


def _old_fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def _old_dumps(obj):
    """``dumps`` as it was before its branches were reordered, kept verbatim as the oracle."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _old_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{_old_dumps(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_old_dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _old_dumps(obj.tolist())
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


class _Tag(str):
    """A str subclass whose ``str()`` differs from its characters."""

    def __str__(self) -> str:
        return "tag:" + super().__str__()


def _outcome(fn, obj):
    try:
        return "ok", fn(obj)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
)
_text = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u2603", "\U0001f600", "/"])
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | _floats
    | _text
    | _floats.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.floats(width=32).map(np.float32)
    | _text.map(_Tag)
    | st.sampled_from([1j, b"x", {1, 2}, object()])
    | st.lists(_floats, max_size=4).map(np.array)
    | st.lists(st.integers(-5, 5), max_size=4).map(lambda v: np.array(v).reshape(-1, 1))
    | st.lists(st.complex_numbers(), min_size=1, max_size=2).map(np.array)
)
_keys = _text | st.integers() | _floats | st.booleans() | st.none() | _text.map(_Tag)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4)
    | st.dictionaries(_keys, inner, max_size=3).map(OrderedDict),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_property_dumps_matches_the_generic_writer(obj):
    assert _outcome(dumps, obj) == _outcome(_old_dumps, obj)


def test_dumps_matches_the_generic_writer_on_documents():
    spec = EnsembleSpec(rank=4, count=1, filter="NPT", seed=515)
    state = sample_ensemble(spec)[0][0]
    cert = certify_1_distillable(state)
    docs = [
        certificate_document(cert),
        matrix_document(state.mat, state.dims, meta={"note": "caf\u00e9 \"quoted\"\n"}),
        {"bad": [1.0, float("nan")]},
        {"bad": {"deep": [float("-inf")]}},
        {"bad": [1.0, {2, 3}]},
    ]
    for doc in docs:
        assert _outcome(dumps, doc) == _outcome(_old_dumps, doc)


class TestStrictDocumentNumbers:
    def test_pairs_accept_json_numbers_bit_for_bit(self):
        out = _pairs_to_complex([[1, -0.0], [0.5, 2], [-0.0, 1e-300]], 3)
        expected = np.array([complex(1, -0.0), complex(0.5, 2), complex(-0.0, 1e-300)])
        assert out.dtype == complex and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "pair", [[True, 2.5], [1.0, False], ["2.5", 1.0], [1.0, "nan"], [None, 0.0], [[1.0], 0.0]]
    )
    def test_pairs_reject_non_numbers(self, pair):
        with pytest.raises(ValueError):
            _pairs_to_complex([[0.0, 0.0], pair], 2)

    @staticmethod
    def _state():
        return sample_ensemble(EnsembleSpec(rank=4, count=1, filter="NPT", seed=515))[0][0]

    def _certificate_doc(self) -> dict:
        return json.loads(certificate_to_json(certify_1_distillable(self._state())))

    @pytest.mark.parametrize("key", ["copies", "schmidt_rank"])
    @pytest.mark.parametrize("bad", [2.7, True, False, "2", None, [2]])
    def test_certificate_rejects_non_integer_fields(self, key, bad):
        doc = self._certificate_doc()
        doc[key] = bad
        with pytest.raises(ValueError, match=key):
            certificate_from_json(dumps(doc))

    @pytest.mark.parametrize(
        "restarts",
        [64, 2.7, True, "2", None, [2], {"x": 1}],
        ids=["int", "float", "bool", "str", "null", "list", "object"],
    )
    def test_certificate_ignores_restarts(self, restarts):
        # certificates written before the field was dropped still load
        doc = self._certificate_doc()
        text = dumps(doc)
        assert "restarts" not in doc
        doc["restarts"] = restarts
        assert certificate_to_json(certificate_from_json(dumps(doc))) == text

    def test_certificate_reads_integral_numbers(self):
        doc = self._certificate_doc()
        text = certificate_to_json(certificate_from_json(dumps(doc)))
        rank = doc["schmidt_rank"]
        doc["copies"] = 1.0
        doc["schmidt_rank"] = float(rank)
        cert = certificate_from_json(dumps(doc))
        assert (cert.copies, cert.schmidt_rank) == (1, rank)
        assert all(type(v) is int for v in (cert.copies, cert.schmidt_rank))
        assert certificate_to_json(cert) == text
        doc["copies"] = -0.0  # written as "-0", read back as -0.0, then refused as 0
        with pytest.raises(ValueError, match="'copies' must lie in 1.."):
            certificate_from_json(dumps(doc))

    @pytest.mark.parametrize("seed", [2024, 9, 2.7, True, "2", None, [2]])
    def test_certificate_ignores_seed(self, seed):
        # documents written while certificates carried a seed, between schmidt_rank and
        # delta, still load and verify; the seed is dropped on the way back out
        state = self._state()
        doc = self._certificate_doc()
        text = dumps(doc)
        assert "seed" not in doc
        old = {k: v for k, v in doc.items() if k != "delta"}
        old["seed"] = seed
        old.update({k: v for k, v in doc.items() if k == "delta"})
        cert = certificate_from_json(dumps(old))
        assert verify_certificate(cert, state)
        assert certificate_to_json(cert) == text

    @pytest.mark.parametrize("key", ["value", "delta"])
    @pytest.mark.parametrize("bad", [True, "-0.5", [0.5]])
    def test_certificate_rejects_non_number_values(self, key, bad):
        doc = self._certificate_doc()
        doc[key] = bad
        with pytest.raises(ValueError, match=key):
            certificate_from_json(dumps(doc))

    @pytest.mark.parametrize(
        "bad", [5, None, ["x"], "bogus", "", "Optimizer", {"route": "optimizer"}]
    )
    def test_certificate_rejects_unknown_routes(self, bad):
        doc = self._certificate_doc()
        doc["route"] = bad
        with pytest.raises(ValueError, match="route"):
            certificate_from_json(dumps(doc))

    @pytest.mark.parametrize(
        "route",
        [ROUTE_SUBMATRIX, ROUTE_TWO_NONPOSITIVE, ROUTE_KERNEL_PRODUCT, ROUTE_OPTIMIZER,
         ROUTE_BOTTOM_EIGENVECTOR],
    )
    def test_certificate_reads_every_route_name(self, route):
        doc = self._certificate_doc()
        doc["route"] = route
        assert certificate_from_json(dumps(doc)).route == route

    @pytest.mark.parametrize("key", ["dimA", "dimB", "rows", "cols"])
    @pytest.mark.parametrize("spoil", [lambda n: n + 0.5, str])
    def test_matrix_document_rejects_non_integer_fields(self, key, spoil):
        state = random_state(Dims(2, 2), 2, 7)
        doc = matrix_document(state.mat, state.dims)
        doc[key] = spoil(doc[key])
        with pytest.raises(ValueError, match=key):
            matrix_from_document(doc)

    @pytest.mark.parametrize("spoil", [lambda n: n + 0.5, str])
    def test_pure_state_document_rejects_non_integer_dims(self, spoil):
        doc = pure_state_document(PureState(np.ones(4) / 2, Dims(2, 2)))
        doc["dimA"] = spoil(doc["dimA"])
        with pytest.raises(ValueError, match="dimA"):
            pure_state_from_document(doc)

    @pytest.mark.parametrize("key", ["dimA", "dimB"])
    @pytest.mark.parametrize("bad", [0, -0.0, -1])
    def test_matrix_document_rejects_non_positive_dims(self, key, bad):
        state = random_state(Dims(3, 3), 2, 7)
        doc = matrix_document(state.mat, state.dims)
        doc[key] = bad
        with pytest.raises(ValueError, match=f"'{key}' must be a positive"):
            matrix_from_document(doc)

    def test_matrix_document_rejects_negative_dims_whose_product_fits(self):
        # (-3) * (-3) == 9 matches rows and cols, so this once loaded as Dims(-3, -3)
        state = random_state(Dims(3, 3), 2, 7)
        doc = matrix_document(state.mat, state.dims)
        doc["dimA"] = doc["dimB"] = -3
        with pytest.raises(ValueError, match="'dimA' must be a positive"):
            matrix_from_document(doc)

    @pytest.mark.parametrize("key", ["dimA", "dimB"])
    @pytest.mark.parametrize("bad", [0, -2])
    def test_pure_state_document_rejects_non_positive_dims(self, key, bad):
        doc = pure_state_document(PureState(np.ones(4) / 2, Dims(2, 2)))
        doc[key] = bad
        with pytest.raises(ValueError, match=f"'{key}' must be a positive"):
            pure_state_from_document(doc)
        doc["dimA"] = doc["dimB"] = -2  # (-2) * (-2) == 4 entries
        with pytest.raises(ValueError, match="'dimA' must be a positive"):
            pure_state_from_document(doc)
