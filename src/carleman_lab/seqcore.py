"""Log-space weight sequences and their derived scales.

A weight sequence M = (M_k) is kept as a finite tabulation of log M_k in
64-bit floats.  All factorials enter through the log-gamma function, so
quantities like k! M_k never overflow even for k in the tens of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma, isfinite
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "WeightSequence",
    "DerivedScales",
    "MembershipCertificate",
    "KNOWN_CLAIMS",
    "tabulate",
    "rescale",
    "normalize",
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

# claims that survive a rescale M_k -> C rho^k M_k
_RESCALE_STABLE_CLAIMS = frozenset(
    {
        "log-convex",
        "weakly-log-convex",
        "quasianalytic",
        "non-quasianalytic",
        "moderate-growth",
    }
)


def log_factorial(k) -> np.ndarray | float:
    """log k! via log-gamma; accepts scalars or integer arrays."""
    if np.isscalar(k):
        return lgamma(k + 1)
    arr = np.asarray(k, dtype=float)
    return np.vectorize(lgamma)(arr + 1.0)


class DomainError(ValueError):
    """Raised when an evaluation leaves the domain of a construction."""


@dataclass(frozen=True)
class WeightSequence:
    """Finite log-space tabulation of a positive sequence M_{k_min..k_max}."""

    name: str
    k_min: int
    log_M: np.ndarray
    claims: frozenset = frozenset()

    def __post_init__(self):
        arr = np.asarray(self.log_M, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise DomainError("a weight sequence needs at least 3 tabulated entries")
        if not np.all(np.isfinite(arr)):
            bad = int(self.k_min + np.argmax(~np.isfinite(arr)))
            raise DomainError(f"non-finite log M at k={bad}")
        if self.k_min < 0:
            raise DomainError("k_min must be >= 0")
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
        return self.k_min + len(self.log_M) - 1

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    def log_at(self, k: int) -> float:
        if not (self.k_min <= k <= self.k_max):
            raise DomainError(f"k={k} outside tabulated range [{self.k_min}, {self.k_max}]")
        return float(self.log_M[k - self.k_min])

    def slice(self, k_lo: int, k_hi: int) -> np.ndarray:
        """log M_k for k in [k_lo, k_hi], inclusive."""
        if k_lo < self.k_min or k_hi > self.k_max:
            raise DomainError("slice outside tabulated range")
        return self.log_M[k_lo - self.k_min : k_hi - self.k_min + 1]

    def with_name(self, name: str) -> "WeightSequence":
        return WeightSequence(name, self.k_min, self.log_M, self.claims)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k_min": int(self.k_min),
            "k_max": int(self.k_max),
            "log_M": [float(v) for v in self.log_M],
            "claims": sorted(self.claims),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSequence":
        return cls(
            name=d["name"],
            k_min=int(d["k_min"]),
            log_M=np.asarray(d["log_M"], dtype=float),
            claims=frozenset(d.get("claims", [])),
        )

    def to_csv(self) -> str:
        """CSV with header k,log_M,log_m; log_m is blank for k = 0."""
        scales = DerivedScales.from_weight_sequence(self)
        lines = ["k,log_M,log_m"]
        for i, k in enumerate(self.ks):
            if k >= scales.k_start:
                lm = f"{scales.log_m[k - scales.k_start]:.17g}"
            else:
                lm = ""
            lines.append(f"{k},{self.log_M[i]:.17g},{lm}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DerivedScales:
    """The companion scales m_k = (k! M_k)^{1/k} and M_k^{1/k}, in log-space."""

    k_start: int
    log_m: np.ndarray
    log_root: np.ndarray

    def __post_init__(self):
        for nm in ("log_m", "log_root"):
            arr = np.asarray(getattr(self, nm), dtype=float)
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, nm, arr)

    @classmethod
    def from_weight_sequence(cls, W: WeightSequence) -> "DerivedScales":
        k_start = max(1, W.k_min)
        ks = np.arange(k_start, W.k_max + 1, dtype=float)
        log_M = W.slice(k_start, W.k_max)
        log_m = (log_factorial(ks) + log_M) / ks
        log_root = log_M / ks
        return cls(k_start=k_start, log_m=log_m, log_root=log_root)


@dataclass(frozen=True)
class MembershipCertificate:
    """Witness (C, rho) for |f_k| <= C rho^k k! M_k over a weight sequence."""

    C: float
    rho: float
    seq: WeightSequence

    def __post_init__(self):
        if not (self.C > 0 and self.rho > 0):
            raise DomainError("certificate requires C > 0 and rho > 0")


# -- operations --------------------------------------------------------------


def tabulate(
    spec: Callable[[int], float] | Sequence[float],
    k_max: int,
    *,
    k_min: int = 0,
    name: str = "custom",
    claims: Iterable[str] = (),
) -> WeightSequence:
    """Tabulate log M_k for k in [k_min, k_max].

    ``spec`` is either a callable returning log M_k for an integer k, or an
    explicit list of log values starting at k_min.
    """
    if k_max < k_min + 2:
        raise DomainError("k_max must be at least k_min + 2")
    if callable(spec):
        vals = np.empty(k_max - k_min + 1)
        for i, k in enumerate(range(k_min, k_max + 1)):
            v = float(spec(k))
            if not isfinite(v):
                raise DomainError(f"non-finite log M at k={k}")
            vals[i] = v
    else:
        vals = np.asarray(list(spec), dtype=float)[: k_max - k_min + 1]
        if len(vals) != k_max - k_min + 1:
            raise DomainError("explicit values shorter than requested range")
    return WeightSequence(name=name, k_min=k_min, log_M=vals, claims=frozenset(claims))


def rescale(W: WeightSequence, C: float, rho: float) -> WeightSequence:
    """Replace M_k by C rho^k M_k; preserves rescale-stable claims."""
    if not (C > 0 and rho > 0):
        raise DomainError("rescale requires C > 0 and rho > 0")
    ks = W.ks
    log_M = np.log(C) + ks * np.log(rho) + W.log_M
    claims = frozenset(W.claims) & _RESCALE_STABLE_CLAIMS
    return WeightSequence(name=W.name, k_min=W.k_min, log_M=log_M, claims=claims)


def normalize(W: WeightSequence) -> tuple[WeightSequence, float, float]:
    """Rescale so that M_0 = 1 and M_1 >= 1; returns (W', C, rho) used.

    For a log-convex input the normalized sequence is increasing.
    """
    if W.k_min != 0:
        raise DomainError("normalize requires a tabulation starting at k = 0")
    log_M0 = float(W.log_M[0])
    log_M1 = float(W.log_M[1])
    C = float(np.exp(-log_M0))
    log_rho = max(0.0, log_M0 - log_M1)
    rho = float(np.exp(log_rho))
    ks = W.ks
    log_M = -log_M0 + ks * log_rho + W.log_M
    log_M[0] = 0.0  # exact by construction
    claims = frozenset(W.claims) & _RESCALE_STABLE_CLAIMS
    out = WeightSequence(name=W.name, k_min=0, log_M=log_M, claims=claims)
    return out, C, rho


def fm_membership(coeffs: Sequence[float], W: WeightSequence, rho: float) -> float:
    """Smallest C with |f_k| <= C rho^k k! M_k on the stored prefix.

    Returns inf when a required M_k lies outside the tabulation.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    f = np.asarray(list(coeffs), dtype=float)
    if f.size < 1:
        raise DomainError("need at least one coefficient")
    n = f.size - 1
    if W.k_min > 0 or W.k_max < n:
        raise DomainError("weight sequence does not cover the coefficient range")
    ks = np.arange(n + 1, dtype=float)
    nz = f != 0.0
    if not np.any(nz):
        return 0.0
    log_ratio = (
        np.log(np.abs(f[nz]))
        - ks[nz] * np.log(rho)
        - log_factorial(ks[nz])
        - W.log_M[: n + 1][nz]
    )
    return float(np.exp(np.max(log_ratio)))
