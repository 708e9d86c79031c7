"""Deterministic JSON round-trip for states, certificates, and reports.

Matrix documents follow one fixed schema: ``{"dimA": M, "dimB": N,
"rows": M*N, "cols": M*N, "data": [[re, im], ...]}`` with entries in
row-major order.  Floats render with 17 significant digits, which
round-trips IEEE-754 doubles exactly and keeps serialized output
byte-identical across runs; extra metadata travels in a ``meta`` block
that loaders ignore.
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

from .qcore import BipartiteState, Dims, PureState, ToleranceConfig, DEFAULT_TOL
from .witness import WitnessCertificate


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Compact deterministic JSON: dict order preserved, floats at 17 digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


# keeps the sign of a zero, which dumps writes as "-0"
_DECODER = json.JSONDecoder(parse_int=lambda s: -0.0 if s == "-0" else int(s))


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _pairs_to_complex(pairs: Any, expected: int) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != expected:
        raise ValueError(f"data must be a list of {expected} [re, im] pairs")
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("each entry must be a two-element [re, im] list")
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out


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
    for key in ("dimA", "dimB", "rows", "cols", "data"):
        if key not in doc:
            raise ValueError(f"matrix document is missing key {key!r}")
    dims = Dims(int(doc["dimA"]), int(doc["dimB"]))
    rows, cols = int(doc["rows"]), int(doc["cols"])
    if rows != dims.total or cols != dims.total:
        raise ValueError(
            f"rows/cols {rows}x{cols} do not match dimA*dimB = {dims.total}"
        )
    data = _pairs_to_complex(doc["data"], rows * cols)
    return data.reshape(rows, cols), dims


def state_from_json(text: str, cfg: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    mat, dims = matrix_from_document(_DECODER.decode(text))
    return BipartiteState(mat, dims, cfg)


def pure_state_document(psi: PureState) -> dict:
    return {
        "dimA": psi.dims.dim_a,
        "dimB": psi.dims.dim_b,
        "data": _complex_pairs(psi.vec),
    }


def pure_state_from_document(doc: dict) -> PureState:
    dims = Dims(int(doc["dimA"]), int(doc["dimB"]))
    vec = _pairs_to_complex(doc["data"], dims.total)
    return PureState(vec, dims, unnormalized=True)


def certificate_document(cert: WitnessCertificate) -> dict:
    doc = {
        "route": cert.route,
        "copies": cert.copies,
        "value": cert.value,
        "psi": pure_state_document(cert.psi),
        "schmidt_rank": cert.schmidt_rank,
        "seed": cert.seed,
        "restarts": cert.restarts,
    }
    if cert.delta is not None:
        doc["delta"] = cert.delta
    return doc


def certificate_to_json(cert: WitnessCertificate) -> str:
    return dumps(certificate_document(cert))


def certificate_from_json(text: str) -> WitnessCertificate:
    doc = _DECODER.decode(text)
    return WitnessCertificate(
        psi=pure_state_from_document(doc["psi"]),
        value=float(doc["value"]),
        copies=int(doc["copies"]),
        route=str(doc["route"]),
        schmidt_rank=int(doc["schmidt_rank"]),
        seed=int(doc["seed"]),
        restarts=int(doc["restarts"]),
        delta=None if doc.get("delta") is None else float(doc["delta"]),
    )
