"""Built-in weight-sequence families.

Covers the constant (real analytic) sequence, Gevrey sequences, the
Q_k = (k log(k+e))^k / k! family with its primed variants, and the
iterated-logarithm families Q^{delta,n} together with their hat / p
companion scales.  Each family is one numpy expression in log-space: a
direct one for analytic, Gevrey and Q'', and M_k = q(idx)^idx / idx! at a
shifted index idx for every other scale q (p_scale builds the companions).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import e as E, isfinite

import numpy as np

from .seqcore import DomainError, WeightSequence, log_factorial
from .envelope import _kahan_cumsum, uncheck_scale

__all__ = [
    "FamilySpec",
    "kappa",
    "make_family",
    "p_scale",
    "q_scale",
    "FAMILY_REGISTRY",
    "parse_family",
    "builtin_sequences",
]

# kappa_n = ceil(e ^^ n); kappa_3 was pinned with an extended-precision
# exponential (the f64 evaluation agrees: exp(exp(e)) = 3814279.104760...)
_KAPPA = {1: 3, 2: 16, 3: 3814280}

MAX_TOWER = 3


def kappa(n: int) -> int:
    """ceil(e ^^ n), the index offset of the n-fold iterated-log families."""
    if not 1 <= n <= MAX_TOWER:
        raise DomainError(f"kappa supported only for 1 <= n <= {MAX_TOWER}")
    return _KAPPA[n]


def q_scale(delta: float, n: int, ks: np.ndarray) -> np.ndarray:
    """q^{delta,n}_k = k log k log^2 k ... (log^n k)^delta for integer indices ks >= kappa_n.

    One pass down the tower: depth d multiplies in log^d k, to the power delta at d = n.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError("delta must be in (0, 1]")
    ks = np.asarray(ks, dtype=float)
    if np.any(ks < kappa(n)):
        raise DomainError(f"q^{{delta,{n}}} defined only for k >= kappa_{n} = {kappa(n)}")
    if n == 1 and delta != 1.0:
        raise DomainError("only delta = 1 is defined at tower depth 1")
    log_d = np.log(ks)
    q = ks * log_d
    for d in range(2, n + 1):
        log_d = np.log(log_d)
        q = q * (log_d**delta if d == n else log_d)
    return q


# Per-kind facts, keyed by FamilySpec.kind: the CLI token (S, D and N stand
# for the parameters s, delta and n), a description, and the properties the
# paper proves for every member of the family.
FAMILY_REGISTRY = {
    "analytic": ("analytic", "constant sequence (real analytic class)",
        frozenset({"log-convex", "quasianalytic", "moderate-growth", "derivation-closed"})),
    "gevrey": ("gevrey:S", "Gevrey sequence M_k = (k!)^s, pass e.g. gevrey:1",
        frozenset({"log-convex", "non-quasianalytic", "moderate-growth", "derivation-closed"})),
    "q18": ("q18", "Q_k = (k log(k+e))^k / k!",
        frozenset({"log-convex", "quasianalytic", "moderate-growth"})),
    "q18_prime": ("q18p", "Q' with check scale exactly k",
        frozenset({"quasianalytic"})),
    "q18_doubleprime": ("q18pp", "Q''_k = (log(k+e))^k",
        frozenset({"log-convex", "quasianalytic"})),
    "q_delta_n": ("q:D:N", "iterated-log family Q^{delta,n}, e.g. q:0.5:2",
        frozenset({"log-convex", "quasianalytic", "moderate-growth"})),
    "qhat_1_n": ("qhat:1:N", "hat companion of Q^{1,n}, e.g. qhat:1:2",
        frozenset({"quasianalytic"})),
    "p_delta_n": ("p:D:N", "slow companion family p^{delta,n}, e.g. p:0.3:2",
        frozenset({"quasianalytic"})),
}

# token placeholder -> (FamilySpec field, parser)
_PARAMS = {"S": ("s", float), "D": ("delta", float), "N": ("n", int)}


@dataclass(frozen=True)
class FamilySpec:
    """kind + parameters of a built-in family."""

    kind: str
    s: float = 0.0      # gevrey exponent
    delta: float = 1.0  # iterated-log exponent
    n: int = 1          # tower depth

    def __post_init__(self):
        if self.kind not in FAMILY_REGISTRY:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.kind == "gevrey" and not (isfinite(self.s) and self.s > 0):
            raise DomainError("gevrey requires a finite s > 0")
        if self.kind in ("q_delta_n", "p_delta_n") and not 0 < self.delta <= 1:
            raise DomainError("delta must be in (0, 1]")
        if self.kind in ("q_delta_n", "qhat_1_n", "p_delta_n") and not 1 <= self.n <= MAX_TOWER:
            raise DomainError(f"tower depth n must be in [1, {MAX_TOWER}]")

    def label(self) -> str:
        fields = FAMILY_REGISTRY[self.kind][0].split(":")
        return ":".join(f"{getattr(self, _PARAMS[f][0]):g}" if f in _PARAMS else f for f in fields)


def make_family(spec: FamilySpec, k_max: int = 10_000) -> WeightSequence:
    """Tabulate a built-in family through k_max (log-space), with M_0 = 1.

    Beyond analytic, Gevrey and Q'': M_k = q(idx)^idx / idx! for the family's scale q.
    """
    if k_max < 2:
        raise DomainError("k_max must be at least 2")
    ks = np.arange(1, k_max + 1, dtype=float)
    if spec.kind == "analytic":
        log_M = np.zeros(k_max)
    elif spec.kind == "gevrey":
        # an overflow surfaces as the non-finite log M error below
        with np.errstate(over="ignore"):
            log_M = spec.s * log_factorial(ks)
    elif spec.kind == "q18_doubleprime":
        log_M = ks * np.log(np.log(ks + E))
    else:
        if spec.kind == "q18":
            idx, log_q = ks, np.log(ks * np.log(ks + E))
        elif spec.kind == "q18_prime":
            # check scale is exactly mck_k = k; Q' recovered by the uncheck map
            idx, log_q = ks, uncheck_scale(np.log(ks))
        elif spec.kind == "q_delta_n":
            idx = ks - 1.0 + kappa(spec.n)
            log_q = np.log(q_scale(spec.delta, spec.n, idx))
        else:  # hat-q^{1,n} = p^{1,n-1}; p^{1,n} starts at kappa_{n+1}, p^{delta,n} at kappa_n
            delta, n = (1.0, spec.n - 1) if spec.kind == "qhat_1_n" else (spec.delta, spec.n)
            idx, scale = p_scale(delta, n, k_max - 1 + kappa(n + 1 if delta == 1.0 else n))
            log_q = np.log(scale)
        log_M = idx * log_q - log_factorial(idx)
    claims = FAMILY_REGISTRY[spec.kind][2]
    return WeightSequence(spec.label(), 0, np.concatenate(([0.0], log_M)), claims)


def p_scale(delta: float, n: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """p^{delta,n}_k = q^{delta,n}_k (1 + sum_{j=kappa_d}^k 1/q^{delta,n}_j), ks = kappa_d .. k_hi.

    d = n for 0 < delta < 1.  For delta = 1, d = n + 1: p^{1,n} is the hat
    companion hat-q^{1,n+1}.  The partial sums are compensated (Kahan).
    """
    if delta == 1.0 and n < 1:
        raise DomainError("hat scale needs tower depth n >= 2")
    d = n + 1 if delta == 1.0 else n
    kap = kappa(d)
    if k_hi < kap:
        raise DomainError(f"k_hi must be >= kappa_{d} = {kap}")
    ks = np.arange(kap, k_hi + 1, dtype=float)
    base = q_scale(delta, n, ks)
    return ks, base * (1.0 + _kahan_cumsum(1.0 / base))


def parse_family(token: str) -> FamilySpec:
    """Parse a CLI family token like 'q18', 'gevrey:1', 'q:0.5:2'."""
    parts = token.split(":")
    for kind, (pattern, _, _) in FAMILY_REGISTRY.items():
        fields = pattern.split(":")
        if len(fields) != len(parts) or fields[0] != parts[0]:
            continue
        params = {}
        try:
            for field, part in zip(fields[1:], parts[1:]):
                if field in _PARAMS:
                    name, convert = _PARAMS[field]
                    params[name] = convert(part)
                elif field != part:
                    break
            else:
                return FamilySpec(kind, **params)
        except ValueError as exc:
            raise DomainError(f"bad family token {token!r}: {exc}") from exc
    raise DomainError(f"unknown family {token!r}")


def builtin_sequences(k_max: int = 10_000) -> dict[str, WeightSequence]:
    """The standard battery used by diagnostics and the test suite."""
    tokens = ("analytic", "gevrey:0.5", "gevrey:1", "gevrey:2", "q18", "q18p", "q18pp",
              "q:1:1", "q:0.5:2", "q:1:2", "q:1:3")
    return {token: make_family(parse_family(token), k_max) for token in tokens}
