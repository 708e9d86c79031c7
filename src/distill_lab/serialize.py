"""Deterministic JSON round-trip for states, certificates, and reports.

Matrix documents follow one fixed schema: ``{"dimA": M, "dimB": N,
"rows": M*N, "cols": M*N, "data": [[re, im], ...]}`` with entries in
row-major order.  Floats render with 17 significant digits, which
round-trips IEEE-754 doubles exactly and keeps serialized output
byte-identical across runs; extra metadata travels in a ``meta`` block
that loaders ignore.  Loaders take JSON objects where documents belong
and JSON numbers only where numbers belong: a document that is not an
object or lacks a key, a bool or a string as an ``[re, im]`` entry, a
fractional count, a dimension below one, a certificate route that is not
one of the five route names or copies outside 1..MAX_COPIES raise ``ValueError``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

from .qcore import BipartiteState, Dims, PureState, _check_copy_count
from .witness import _ROUTES, WitnessCertificate


# exactly what json.dumps returns for a str, without its per-call set-up
_encode_str = json.encoder.encode_basestring_ascii


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    return format(x, ".17g")


def dumps(obj: Any) -> str:
    """Compact deterministic JSON: dict order preserved, floats at 17 digits.

    Documents are built mostly from floats, lists, dicts and strs, so those
    four are tested first; no other JSON type is an instance of any of them.
    """
    if isinstance(obj, float):
        return _fmt_float(float(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([dumps(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        items = [f"{_encode_str(str(k))}:{dumps(v)}" for k, v in obj.items()]
        return "{" + ",".join(items) + "}"
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


# keeps the sign of a zero, which dumps writes as "-0"
_DECODER = json.JSONDecoder(parse_int=lambda s: -0.0 if s == "-0" else int(s))


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    return flat.view(float).reshape(-1, 2).tolist()


def _pairs_to_complex(pairs: Any, expected: int) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ValueError(f"data must be a list of {expected} [re, im] pairs")
    flat: list = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("each entry must be a two-element [re, im] list")
        flat += pair
    # JSON numbers only: a bool or a string is not a coordinate
    if not set(map(type, flat)) <= {float, int}:
        raise ValueError("[re, im] entries must be JSON numbers")
    return np.array(flat, dtype=float).view(complex)


def _field(doc: Any, key: str) -> Any:
    """``doc[key]``; a document that is not an object, or lacks ``key``, is refused."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"document is missing key {key!r}")
    return doc[key]


def _integer(doc: dict, key: str) -> int:
    """Field ``key`` as an int; a bool, a string or a fractional number is refused."""
    x = _field(doc, key)
    if type(x) is int:
        return x
    if type(x) is float and x.is_integer():  # the decoder reads "-0" as -0.0
        return int(x)
    raise ValueError(f"{key!r} must be an integer, got {x!r}")


def _dimension(doc: dict, key: str) -> int:
    """Field ``key`` as a positive int."""
    n = _integer(doc, key)
    if n < 1:
        raise ValueError(f"{key!r} must be a positive integer, got {n}")
    return n


def _number(doc: dict, key: str) -> float:
    """Field ``key`` as a float; a bool or a string is refused."""
    x = _field(doc, key)
    if type(x) is float or type(x) is int:
        return float(x)
    raise ValueError(f"{key!r} must be a number, got {x!r}")


def matrix_document(
    mat: np.ndarray, dims: Dims, meta: Optional[dict] = None
) -> dict:
    """Schema dict for a square matrix on a bipartite space."""
    m = np.asarray(mat, dtype=complex)
    doc = {
        "dimA": dims.dim_a,
        "dimB": dims.dim_b,
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": _complex_pairs(m),
    }
    if meta:
        doc["meta"] = meta
    return doc


def state_to_json(state: BipartiteState, meta: Optional[dict] = None) -> str:
    return dumps(matrix_document(state.mat, state.dims, meta))


def matrix_from_document(doc: dict) -> tuple[np.ndarray, Dims]:
    dims = Dims(_dimension(doc, "dimA"), _dimension(doc, "dimB"))
    rows, cols = _integer(doc, "rows"), _integer(doc, "cols")
    if rows != dims.total or cols != dims.total:
        raise ValueError(
            f"rows/cols {rows}x{cols} do not match dimA*dimB = {dims.total}"
        )
    data = _pairs_to_complex(_field(doc, "data"), rows * cols)
    return data.reshape(rows, cols), dims


def state_from_json(text: str) -> BipartiteState:
    mat, dims = matrix_from_document(_DECODER.decode(text))
    return BipartiteState(mat, dims)


def pure_state_document(psi: PureState) -> dict:
    return {
        "dimA": psi.dims.dim_a,
        "dimB": psi.dims.dim_b,
        "data": _complex_pairs(psi.vec),
    }


def pure_state_from_document(doc: dict) -> PureState:
    """Unit vector from its document; ``PureState`` refuses any other norm."""
    dims = Dims(_dimension(doc, "dimA"), _dimension(doc, "dimB"))
    vec = _pairs_to_complex(_field(doc, "data"), dims.total)
    return PureState(vec, dims)


def certificate_document(cert: WitnessCertificate) -> dict:
    doc = {
        "route": cert.route,
        "copies": cert.copies,
        "value": cert.value,
        "psi": pure_state_document(cert.psi),
        "schmidt_rank": cert.schmidt_rank,
    }
    if cert.delta is not None:
        doc["delta"] = cert.delta
    return doc


def certificate_to_json(cert: WitnessCertificate) -> str:
    return dumps(certificate_document(cert))


def certificate_from_json(text: str) -> WitnessCertificate:
    """Certificate from its document; a ``seed`` or ``restarts`` key, if present, is ignored."""
    doc = _DECODER.decode(text)
    route = _field(doc, "route")
    if route not in _ROUTES:
        raise ValueError(f"'route' must be one of {', '.join(_ROUTES)}, got {route!r}")
    return WitnessCertificate(
        psi=pure_state_from_document(_field(doc, "psi")),
        value=_number(doc, "value"),
        copies=_check_copy_count(_integer(doc, "copies"), "'copies'"),
        route=route,
        schmidt_rank=_integer(doc, "schmidt_rank"),
        delta=None if doc.get("delta") is None else _number(doc, "delta"),
    )
