"""Span tracing of carleman_lab's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``carleman_lab`` module namespace that holds it (and on the class, for
methods), so calls one layer makes into another are recorded as well as the
benchmark's own calls.  ``uninstall`` puts the originals back.  A recursive
call of a function into itself (``cli.dumps``) stays inside the outer span.

Spans are kept in memory as ``[name, start, end, parent, elems]`` lists and
summarised at the end of a pass: a span's self time is its duration minus
the durations of its direct children, which are nested intervals because the
workload runs on one thread.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(x) -> int:
    """Input length of a weight sequence, series, array or scalar."""
    if hasattr(x, "log_M"):
        return len(x.log_M)
    if hasattr(x, "coeffs"):
        return len(x.coeffs)
    return int(np.size(x))


def _first(x, *args, **kwargs) -> int:
    return _size(x)


def _verdict_counts(counters, v) -> None:
    outcome = getattr(v, "outcome", None) or v.classification
    counters["verdicts"] += 1
    if outcome in ("holds", "fails", "divergent-trend", "convergent-trend"):
        counters["decisive"] += 1


def _hull_vertices(counters, env) -> None:
    counters["envelope.hull_vertices"] += len(env.contact_set)


def _dumps_bytes(counters, text) -> None:
    counters["cli.dumps.bytes"] += len(text)


def _exact_bits(counters, series) -> None:
    if series.is_exact:
        bits = max(abs(getattr(c, "numerator", c)).bit_length() for c in series.coeffs)
        counters["fdb.exact_coeff_bits"] = max(counters["fdb.exact_coeff_bits"], bits)


def _compose_series_name(f, g) -> str:
    return "fdb.compose_series.exact" if f.is_exact and g.is_exact else "fdb.compose_series.float"


def _growth_name(W, mode, *args, **kwargs) -> str:
    kind = "moderate" if mode == "moderate-growth" else "derivation"
    return "predicates.growth_diagnostic." + kind


# (module, attribute, span name or naming function, input size, result observer)
LAYERS = (
    ("seqcore", "log_factorial", "seqcore.log_factorial", _first, None),
    ("seqcore", "tabulate", "seqcore.tabulate",
     lambda spec, k_max, *, k_min=0, **kw: k_max - k_min + 1, None),
    ("seqcore", "fm_membership", "seqcore.fm_membership", _first, None),
    ("seqcore", "DerivedScales.from_weight_sequence", "seqcore.derived_scales", _first, None),
    ("seqcore", "WeightSequence.to_csv", "seqcore.to_csv", _first, None),
    ("families", "make_family", "families.make_family",
     lambda spec, k_max=10_000: k_max + 1, None),
    ("envelope", "lower_convex_envelope", "envelope.lower_convex_envelope", _first, _hull_vertices),
    ("envelope", "check_sequence", "envelope.check_sequence", _first, None),
    ("envelope", "uncheck_sequence", "envelope.uncheck_sequence", _first, None),
    ("envelope", "compose_sequences", "envelope.compose_sequences",
     lambda M, L, k_max_out: k_max_out + 1, None),
    ("predicates", "is_log_convex", "predicates.is_log_convex", _first, _verdict_counts),
    ("predicates", "growth_diagnostic", _growth_name, _first, _verdict_counts),
    ("predicates", "quasianalytic_diagnostic", "predicates.quasianalytic_diagnostic", _first,
     _verdict_counts),
    ("predicates", "inclusion_diagnostic", "predicates.inclusion_diagnostic", _first,
     _verdict_counts),
    ("intersections", "escape_log_coefficients", "intersections.escape_log_coefficients", _first,
     None),
    ("intersections", "separating_majorant", "intersections.separating_majorant", _first, None),
    ("intersections", "separating_majorant_weak", "intersections.separating_majorant_weak",
     _first, None),
    ("intersections", "min_combine", "intersections.min_combine", _first, None),
    ("intersections", "lprime_construction", "intersections.lprime_construction", _first, None),
    ("fdb", "compose_series", _compose_series_name, _first, _exact_bits),
    ("fdb", "multiply_series", "fdb.multiply_series", _first, _exact_bits),
    ("fdb", "verify_composition_bound", "fdb.verify_composition_bound", _first, None),
    ("cli", "dumps", "cli.dumps", _first, _dumps_bytes),
)


class Tracer:
    """Records spans around the functions in ``LAYERS`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, elems: int = 0) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, elems])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, size, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == span_name:
                return fn(*args, **kwargs)
            idx = tracer.open(span_name, size(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer.counters, out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["carleman_lab"]
        namespaces = [pkg] + [
            m for n, m in sys.modules.items() if n.startswith("carleman_lab.") and m is not None
        ]
        for mod_name, attr, name, size, observe in LAYERS:
            module = sys.modules[f"carleman_lab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, lambda c, *a: size(*a),
                                                     observe))
                else:
                    wrapped = self._wrap(raw, name, size, observe)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, size, observe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- summary -----------------------------------------------------------

    def take(self, first: int = 0) -> dict[str, float]:
        """Per-layer totals of the spans recorded since index ``first``.

        Returns ``<name>.ms`` (self time), ``<name>.calls`` and
        ``<name>.elems`` for every span name, plus the result counters, which
        are reset.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, elems), inner in zip(spans, child_time):
            out[name + ".ms"] += (end - start - inner) * 1e3
            out[name + ".calls"] += 1
            out[name + ".elems"] += elems
        out.update(self.counters)
        self.counters = defaultdict(float)
        return dict(out)
