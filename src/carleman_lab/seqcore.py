"""Log-space weight sequences and their derived scales.

A weight sequence M = (M_k) is kept as a finite tabulation of log M_k in
64-bit floats.  All factorials enter through the log-gamma function, so
quantities like k! M_k never overflow even for k in the tens of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lgamma, log
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "WeightSequence",
    "DerivedScales",
    "MembershipCertificate",
    "KNOWN_CLAIMS",
    "tabulate",
    "rescale",
    "fm_membership",
    "log_factorial",
]

KNOWN_CLAIMS = frozenset(
    {
        "log-convex",
        "weakly-log-convex",
        "quasianalytic",
        "non-quasianalytic",
        "moderate-growth",
        "derivation-closed",
    }
)


_LOG_FLOAT_MAX = log(np.finfo(float).max)  # np.exp(x) is finite exactly for x <= this
_LGAMMA_CEIL = 1 << 20  # at most 2^20 table entries (8 MB)
_lgamma_table = np.empty(0)  # lgamma(i + 1.0) at i; grown lazily, an entry is never rewritten


def _lgamma_plus_one(arr: np.ndarray) -> np.ndarray:
    vals = map(lgamma, (arr + 1.0).ravel().tolist())
    return np.fromiter(vals, dtype=float, count=arr.size).reshape(arr.shape)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n: a read-only view of the lgamma table (grown here only, at least
    doubling, to at most 2^20 entries), or from n = 2^20 on a new array."""
    global _lgamma_table
    if n >= _LGAMMA_CEIL:
        return _lgamma_plus_one(np.arange(n + 1.0))
    table = _lgamma_table
    if n >= len(table):
        grown = min(max(2 * len(table), n + 1), _LGAMMA_CEIL)
        table = np.concatenate((table, _lgamma_plus_one(np.arange(len(table), grown, 1.0))))
        table.flags.writeable = False
        _lgamma_table = table
    return table[: n + 1]


def log_factorial(k) -> np.ndarray | float:
    """log k! via log-gamma; accepts scalars or arrays of any shape.

    Arrays of non-negative integers below 2^20 index the table of lgamma(i + 1.0)
    that ``_log_factorials`` grows; other arrays take math.lgamma per element, as
    the table fill does, so both give the same bits.
    """
    if np.isscalar(k):
        return lgamma(k + 1)
    arr = np.asarray(k, dtype=float)
    idx = arr.astype(np.intp) if arr.size and 0 <= arr.min() and arr.max() < _LGAMMA_CEIL else None
    if idx is None or not np.array_equal(idx, arr):
        return _lgamma_plus_one(arr)  # a negative integer raises ValueError here
    return _log_factorials(int(idx.max()))[idx.ravel()].reshape(arr.shape)


class DomainError(ValueError):
    """Raised when an evaluation leaves the domain of a construction."""


@dataclass(frozen=True)
class WeightSequence:
    """Finite log-space tabulation of a positive sequence M_0..M_{k_max}, always from k = 0;
    ``k_min`` is kept for compatibility and must be 0."""

    name: str
    k_min: int
    log_M: np.ndarray
    claims: frozenset = frozenset()

    def __post_init__(self):
        arr = np.asarray(self.log_M, dtype=float)
        if arr.ndim != 1:
            raise DomainError(f"log_M must be one-dimensional, got shape {arr.shape}")
        if arr.size < 3:
            raise DomainError("a weight sequence needs at least 3 tabulated entries")
        if self.k_min != 0:  # also rejects 0.5 and "0", which int() would read as 0
            raise DomainError(f"a weight sequence is tabulated from k = 0, got k_min {self.k_min!r}")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"non-finite log M at k={int(np.argmax(~np.isfinite(arr)))}")
        unknown = set(self.claims) - set(KNOWN_CLAIMS)
        if unknown:
            raise DomainError(f"unknown claims: {sorted(unknown)}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_M", arr)
        object.__setattr__(self, "claims", frozenset(self.claims))

    # -- indexing helpers ---------------------------------------------------

    @property
    def k_max(self) -> int:
        return len(self.log_M) - 1

    @property
    def ks(self) -> np.ndarray:
        return np.arange(len(self.log_M))

    def with_name(self, name: str) -> "WeightSequence":
        return WeightSequence(name, self.k_min, self.log_M, self.claims)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k_min": 0,
            "k_max": int(self.k_max),
            "log_M": self.log_M.tolist(),
            "claims": sorted(self.claims),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSequence":
        """The inverse of ``to_dict``; ``k_max``, when present, must match ``log_M``."""
        missing = [key for key in ("name", "k_min", "log_M") if key not in d]
        if missing:
            raise DomainError(f"weight-sequence document has no {', '.join(missing)}")
        try:
            log_M = np.asarray(d["log_M"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"log_M must be numeric: {exc}") from None
        if not isinstance(d["name"], str):
            raise DomainError(f"name must be a string, got {d['name']!r}")
        claims = d.get("claims", [])
        if not isinstance(claims, list) or not all(isinstance(c, str) for c in claims):
            raise DomainError(f"claims must be a list of strings, got {claims!r}")
        W = cls(d["name"], d["k_min"], log_M, frozenset(claims))
        if d.get("k_max", W.k_max) != W.k_max:
            raise DomainError(f"k_max {d['k_max']!r} disagrees with {W.k_max + 1} log_M entries")
        return W

    def to_csv(self) -> str:
        """CSV with header k,log_M,log_m; log_m is blank for k = 0."""
        log_m = DerivedScales.from_weight_sequence(self).log_m.tolist()
        log_M = self.log_M.tolist()
        rows = chain.from_iterable(zip(range(1, len(log_M)), log_M[1:], log_m))
        head = "k,log_M,log_m\n0,%.17g,\n" % log_M[0]
        return head + ("%d,%.17g,%.17g\n" * len(log_m)) % tuple(rows)


@dataclass(frozen=True)
class DerivedScales:
    """The companion scale m_k = (k! M_k)^{1/k} in log-space; ``log_m[i]`` is at k = i + 1."""

    log_m: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.log_m, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_m", arr)

    @classmethod
    def from_weight_sequence(cls, W: WeightSequence) -> "DerivedScales":
        ks = np.arange(1, W.k_max + 1, dtype=float)
        return cls(log_m=(log_factorial(ks) + W.log_M[1:]) / ks)


def _float_or_nan(x) -> float:
    try:
        return float(x)
    except (OverflowError, TypeError, ValueError):
        return np.nan


@dataclass(frozen=True)
class MembershipCertificate:
    """Witness (C, rho) for |f_k| <= C rho^k k! M_k over a weight sequence."""

    C: float
    rho: float
    seq: WeightSequence

    def __post_init__(self):
        C, rho = _float_or_nan(self.C), _float_or_nan(self.rho)  # past the float range: NaN
        if not (0 < C < np.inf and 0 < rho < np.inf):
            raise DomainError("certificate requires finite C > 0 and rho > 0")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "rho", rho)


# -- operations --------------------------------------------------------------


def tabulate(
    spec: Callable[[int], float] | Sequence[float],
    k_max: int,
    *,
    name: str = "custom",
    claims: Iterable[str] = (),
) -> WeightSequence:
    """Tabulate log M_k for k in [0, k_max].

    ``spec`` is either a callable returning log M_k for an integer k, or an
    explicit list of log values starting at k = 0.
    """
    if k_max < 2:
        raise DomainError("k_max must be at least 2")
    if callable(spec):
        vals = np.array([float(spec(k)) for k in range(k_max + 1)])
    else:
        vals = np.asarray(list(spec), dtype=float)[: k_max + 1]
        if len(vals) != k_max + 1:
            raise DomainError("explicit values shorter than requested range")
    return WeightSequence(name=name, k_min=0, log_M=vals, claims=frozenset(claims))


def rescale(W: WeightSequence, C: float, rho: float) -> WeightSequence:
    """Replace M_k by C rho^k M_k; every claim survives, as the derivation-closed statistic
    (M_{k+1}/M_k)^{1/k} only gains the factor rho^{1/k} <= max(1, rho)."""
    if not (C > 0 and rho > 0):
        raise DomainError("rescale requires C > 0 and rho > 0")
    ks = W.ks
    log_M = np.log(C) + ks * np.log(rho) + W.log_M
    return WeightSequence(name=W.name, k_min=0, log_M=log_M, claims=W.claims)


def _log_abs_one(c) -> float:
    try:
        a = abs(float(c))
    except OverflowError:
        return log(abs(c.numerator)) - log(c.denominator)
    return np.log(a) if a else -np.inf


def _log_abs(coeffs: Sequence) -> np.ndarray:
    """log|c| per coefficient: -inf at 0, NaN at NaN, exact past the float range."""
    try:
        a = np.abs(np.asarray(coeffs, dtype=float))
    except OverflowError:  # log|numerator| - log(denominator) where float(c) overflows
        return np.array([_log_abs_one(c) for c in coeffs])
    if np.count_nonzero(a) == a.size:
        return np.log(a)
    zero = a == 0
    a[zero] = 1.0  # no log(0): silencing its divide warning with np.errstate costs more
    log_a = np.log(a)
    log_a[zero] = -np.inf
    return log_a


def fm_membership(coeffs: Sequence, W: WeightSequence, rho: float) -> float:
    """Smallest C with |f_k| <= C rho^k k! M_k on the stored prefix.

    Exact coefficients past the float range are taken in log space; C may be inf.  A zero
    coefficient's -inf drops out of the max (log M is finite); all zeros give exp(-inf) = 0.
    """
    rho = _float_or_nan(rho)  # an exact rho reaches np.log as a float
    if not 0 < rho < np.inf:
        raise DomainError("rho must be positive and finite")
    log_f = _log_abs(coeffs)
    if log_f.size < 1:
        raise DomainError("need at least one coefficient")
    n = log_f.size - 1
    if W.k_max < n:
        raise DomainError("weight sequence does not cover the coefficient range")
    log_ratio = log_f - np.arange(n + 1.0) * np.log(rho) - _log_factorials(n) - W.log_M[: n + 1]
    top = log_ratio.max()  # inf or NaN only from an inf or NaN coefficient
    if not top < np.inf:
        raise DomainError(f"non-finite coefficient at k={int(np.argmin(log_f < np.inf))}")
    return float(np.exp(top)) if top <= _LOG_FLOAT_MAX else np.inf  # np.exp would warn
