"""Spans around the library's public functions, recorded from outside the library.

The traced run swaps each target function for a wrapper in every
``distill_lab`` module namespace that bound it by name, because modules
import one another's functions directly (``harness``, ``edgestate`` and
``multicopy`` each hold their own ``certify_1_distillable`` or
``min_rank2_expectation``).  A wrapper records a span (id, name, start,
end, parent id, operation id) in memory and, for the first ``window``
operations, exact counts such as calls, route hits and Gaussian draws.
Every name is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

ROUTES = ("submatrix2x2", "twoNonpositive", "kernelProduct", "optimizer", "none")


def _hits(counts: Counter, label: str, result: Any) -> None:
    counts[label + ".hits"] += result is not None


def _found(counts: Counter, label: str, result: Any) -> None:
    counts[label + ".found"] += result is not None


def _rejects(counts: Counter, label: str, result: Any) -> None:
    counts[label + ".rejects"] += not result


def _route(counts: Counter, label: str, result: Any) -> None:
    counts["witness.route." + ("none" if result is None else result.route)] += 1


def _acceptance(counts: Counter, label: str, result: Any) -> None:
    states, rate = result
    counts[label + ".accepted"] += len(states)
    counts[label + ".attempted"] += round(len(states) / rate)


def _bytes(counts: Counter, label: str, result: Any) -> None:
    counts[label + ".bytes"] += len(result.encode())


def _draws(counts: Counter, label: str, result: Any) -> None:
    counts["rng.draws"] += result.size


def _by_order(args: tuple, kwargs: dict) -> str:
    mat = args[0] if args else kwargs["mat"]
    return f"n{np.shape(mat)[0]}"


def _by_dims(args: tuple, kwargs: dict) -> str:
    dims = args[1] if len(args) > 1 else kwargs["dims"]
    return f"d{dims[0] * dims[1]}"


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined, its metric label, what it should move."""

    owner: str
    attr: str
    moves: str
    split: Optional[Callable[[tuple, dict], str]] = None
    splits: tuple[str, ...] = ()
    count: Optional[Callable[[Counter, str, Any], None]] = None
    extras: tuple[tuple[str, str, str], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.owner.split('.')[0]}.{self.attr}"

    def labels(self) -> list[str]:
        return [f"{self.label}.{s}" for s in self.splits] if self.splits else [self.label]


_HIT_EXTRAS = (("hits", "count", "higher"), ("hit_ratio", "ratio", "higher"))

TARGETS = (
    Target("rng.SplitMix64", "complex_matrix", "rank4-certify ops_per_s and op_p50_ms;"
           " multicopy-n2 a little (random starts); not rank5-edge", count=_draws),
    Target("rng", "random_isometry", "multicopy-n2 a little (random starts); not rank5-edge"),
    Target("qcore", "partial_transpose", "rank4-certify op_p50_ms; not multicopy-n2"),
    Target("qcore", "hermitian_eig", "rank4-certify op_p50_ms (n9); multicopy-n2 (n81)",
           split=_by_order, splits=("n9", "n81")),
    Target("qcore", "rank_kernel_range", "rank4-certify op_p50_ms; not multicopy-n2"),
    Target("qcore", "schmidt_rank", "rank4-certify op_p50_ms; not multicopy-n2"),
    Target("qcore", "is_ppt", "rank4-certify op_p50_ms; not multicopy-n2"),
    Target("qcore", "regroup_tensor_power", "multicopy-n2 and verify-all, slightly"),
    Target("witness", "submatrix_2x2_scan", "rank4-certify op_p50_ms; not multicopy-n2",
           count=_hits, extras=_HIT_EXTRAS),
    Target("witness", "two_nonpositive_witness", "rank4-certify op_p50_ms; not multicopy-n2",
           count=_hits, extras=_HIT_EXTRAS),
    Target("witness", "kernel_product_witness", "rank5-edge op_p50_ms; not rank4-certify",
           count=_hits, extras=_HIT_EXTRAS),
    Target("witness", "product_vector_in_subspace", "rank5-edge op_p50_ms and op_tail_ms;"
           " not rank4-certify or multicopy-n2", count=_found,
           extras=(("found", "count", "higher"),)),
    Target("witness", "min_rank2_expectation", "d9: rank5-edge op_p50_ms and op_tail_ms;"
           " d81: multicopy-n2 op_p50_ms, both n2 ratios, verify-all; not rank4-certify",
           split=_by_dims, splits=("d9", "d81")),
    Target("witness", "verify_certificate", "rank4-certify op_p50_ms, verify-all",
           count=_rejects, extras=(("rejects", "count", "lower"),)),
    Target("witness", "certify_1_distillable", "rank4-certify and rank5-edge op_p50_ms",
           count=_route),
    Target("edgestate", "build_edge_bundle", "rank5-edge op_p50_ms"),
    Target("edgestate", "undistillability_margin", "rank5-edge op_p50_ms"),
    Target("multicopy", "extremal_rank2_tensor_power", "multicopy-n2 op_p50_ms"),
    Target("multicopy", "verify_n_undistillable", "multicopy-n2 op_p50_ms"),
    Target("harness", "sample_ensemble", "rank4-certify and verify-all op_p50_ms",
           count=_acceptance, extras=(("acceptance", "ratio", "higher"),)),
    Target("harness", "random_state", "rank4-certify and verify-all op_p50_ms"),
    Target("harness", "run_suite", "verify-all op_p50_ms"),
    Target("serialize", "certificate_to_json", "rank4-certify and verify-all op_p50_ms",
           count=_bytes, extras=(("bytes", "bytes", "lower"),)),
    Target("serialize", "dumps", "verify-all op_p50_ms", count=_bytes,
           extras=(("bytes", "bytes", "lower"),)),
    Target("serialize", "certificate_from_json", "rank4-certify op_p50_ms"),
    Target("cli", "main", "verify-all op_p50_ms and setup_s"),
)


def declared_metrics() -> list[dict]:
    """Every per-layer metric a traced run prints, with unit and direction."""
    out = []
    for t in TARGETS:
        for label in t.labels():
            out.append({"name": f"{label}.calls", "unit": "count", "better": "lower"})
            out.append({"name": f"{label}.busy_s", "unit": "s/op", "better": "lower"})
            out.append({"name": f"{label}.self_s", "unit": "s/op", "better": "lower"})
        for suffix, unit, better in t.extras:
            out.append({"name": f"{t.label}.{suffix}", "unit": unit, "better": better})
    out.append({"name": "rng.draws", "unit": "count", "better": "lower"})
    for route in ROUTES:
        better = "higher" if route in ("submatrix2x2", "twoNonpositive") else "lower"
        out.append({"name": f"witness.route.{route}", "unit": "count", "better": better})
    out.append({"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"})
    return out


def predictions() -> dict[str, str]:
    """Which end-to-end metric, on which workload, each traced function should move."""
    return {t.label: t.moves for t in TARGETS}


def _library_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "distill_lab" or n.startswith("distill_lab.")]


def _owner(path: str):
    module, _, cls = path.partition(".")
    mod = importlib.import_module(f"distill_lab.{module}")
    return getattr(mod, cls) if cls else mod


def bindings() -> dict[tuple[str, str], Any]:
    """Every name the traced run may swap, with the object it is bound to now."""
    out = {}
    homes = _library_modules() + [_owner(t.owner) for t in TARGETS if "." in t.owner]
    for home in homes:
        for key, value in vars(home).items():
            out[(home.__name__, key)] = value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span and count recorder; ``op`` is the id of the operation now running."""

    def __init__(self, window: int):
        self.window = window
        self.op = -1
        self.counts: Counter = Counter()
        self._spans = array("d")
        self._names: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = []
        self._next_sid = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        base, split, count = target.label, target.split, target.count
        stack, spans, names, counts = self._stack, self._spans, self._names, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{base}.{split(args, kwargs)}" if split else base
            if stack and stack[-1][1] == label:
                return fn(*args, **kwargs)  # a recursive call; the outer span covers it
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1][0] if stack else -1
            op = self.op
            in_window = 0 <= op < self.window
            if in_window:
                counts[label + ".calls"] += 1
            stack.append((sid, label))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, names.setdefault(label, len(names)), t0, t1, parent, op))
            if count is not None and in_window:
                count(counts, base, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore every name on exit."""
        modules = _library_modules()
        try:
            for t in TARGETS:
                owner = _owner(t.owner)
                original = vars(owner)[t.attr]
                wrapped = self._wrap(original, t)
                for home in [owner] if isinstance(owner, type) else modules:
                    for key, value in list(vars(home).items()):
                        if value is original:
                            setattr(home, key, wrapped)
                            self._patched.append((home, key, original))
            yield self
        finally:
            while self._patched:
                home, key, original = self._patched.pop()
                setattr(home, key, original)

    def span_table(self) -> np.ndarray:
        """Spans as rows (id, name id, start, end, parent id, operation id)."""
        return np.frombuffer(self._spans, dtype=float).reshape(-1, 6).copy()

    def names(self) -> list[str]:
        return sorted(self._names, key=self._names.get)

    def times(self, slowdowns: list[float]) -> dict[str, tuple[float, float]]:
        """Total (busy, self) seconds per span name, at the reference speed.

        ``slowdowns[i]`` scales the spans of operation ``i``; self time
        excludes the time covered by child spans.
        """
        table = self.span_table()
        if table.size == 0:
            return {}
        sid = table[:, 0].astype(int)
        name = table[:, 1].astype(int)
        op = table[:, 5].astype(int)
        dur = (table[:, 3] - table[:, 2]) / np.asarray(slowdowns)[op]
        parent = table[:, 4].astype(int)
        row = np.empty(len(sid), dtype=int)
        row[sid] = np.arange(len(sid))
        children = np.zeros(len(sid))
        has_parent = parent >= 0
        np.add.at(children, row[parent[has_parent]], dur[has_parent])
        busy = np.bincount(name, weights=dur, minlength=len(self._names))
        own = np.bincount(name, weights=dur - children, minlength=len(self._names))
        return {n: (float(busy[i]), float(own[i])) for n, i in self._names.items()}

    def metrics(
        self, times: dict[str, tuple[float, float]], traced_ops: int, overhead_ratio: float
    ) -> dict[str, float]:
        """Per-layer values: exact counts over the window, ``times`` per traced operation."""
        c = self.counts
        out: dict[str, float] = {}
        for t in TARGETS:
            for label in t.labels():
                busy, own = times.get(label, (0.0, 0.0))
                out[f"{label}.calls"] = c[f"{label}.calls"]
                out[f"{label}.busy_s"] = busy / traced_ops
                out[f"{label}.self_s"] = own / traced_ops
            calls = c[f"{t.label}.calls"]
            for suffix, _, _ in t.extras:
                key = f"{t.label}.{suffix}"
                if suffix == "hit_ratio":
                    out[key] = _ratio(c[f"{t.label}.hits"], calls)
                elif suffix == "acceptance":
                    out[key] = _ratio(c[f"{t.label}.accepted"], c[f"{t.label}.attempted"])
                else:
                    out[key] = c[key]
        out["rng.draws"] = c["rng.draws"]
        for route in ROUTES:
            out[f"witness.route.{route}"] = c[f"witness.route.{route}"]
        out["trace.overhead_ratio"] = overhead_ratio
        return out
