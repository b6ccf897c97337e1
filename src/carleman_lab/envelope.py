"""Minorant constructions, the check-sequence bijection, and sequence composition.

Everything operates on log-space tabulations.  The lower convex envelope is
computed with a monotone-chain hull sweep; the O(N^3) two-sided infimum
formula it is equivalent to lives in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seqcore import (
    DerivedScales,
    DomainError,
    WeightSequence,
    log_factorial,
)

__all__ = [
    "EnvelopeResult",
    "increasing_minorant",
    "log_convex_minorant",
    "lower_convex_envelope",
    "check_sequence",
    "check_scale",
    "uncheck_sequence",
    "uncheck_scale",
    "compose_sequences",
]

MAX_COMPOSE_K = 500


@dataclass(frozen=True)
class EnvelopeResult:
    """Lower convex envelope of a log-space sequence.

    ``values`` is the envelope sampled at every tabulated index,
    ``contact_set`` the hull vertices (as positions into ``values``), and
    ``is_edge_sensitive`` is set when the rightmost hull segment spans more
    than one step, i.e. interior values near the right edge would move if the
    tabulation were extended.
    """

    values: np.ndarray
    contact_set: tuple
    is_edge_sensitive: bool

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "contact_set", tuple(np.asarray(self.contact_set).tolist()))

    def to_dict(self) -> dict:
        return {
            "values": [float(v) for v in self.values],
            "contact_set": list(self.contact_set),
            "edge_sensitive": bool(self.is_edge_sensitive),
        }


def lower_convex_envelope(y: np.ndarray) -> EnvelopeResult:
    """Lower convex envelope of the points (i, y_i), by a monotone-chain sweep.

    Index i on hull segment (a, b) gets y_a + (i - a)(y_b - y_a)/(b - a); all
    segments are filled in one array pass.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 3:
        raise DomainError("need at least 3 points for an envelope")
    yl = y.tolist()
    hull = [0]
    for i in range(1, n):
        # pop while the previous vertex lies on or above the new chord
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (yl[b] - yl[a]) * (i - a) >= (yl[i] - yl[a]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(i)
    h = np.asarray(hull)
    reps = np.diff(h)
    reps[-1] += 1  # the last segment also fills its right end
    a, b = np.repeat(h[:-1], reps), np.repeat(h[1:], reps)
    values = y[a] + (np.arange(n) - a) * (y[b] - y[a]) / (b - a)
    # re-collect contact indices: interior points of a segment may coincide
    # with the input when the input is affine there
    contact = np.flatnonzero(values >= y - 1e-12 * np.maximum(1.0, np.abs(y)))
    edge = hull[-1] - hull[-2] > 1
    return EnvelopeResult(values=values, contact_set=contact, is_edge_sensitive=edge)


def increasing_minorant(scales: DerivedScales) -> tuple[np.ndarray, bool]:
    """Largest non-decreasing sequence <= m, via a right-to-left suffix-min scan.

    Returns (log-space values, edge_sensitive); the flag is set when the
    suffix minimum at the second-to-last index is attained only at the last.
    """
    m = np.asarray(scales.log_m, dtype=float)
    out = np.minimum.accumulate(m[::-1])[::-1]
    edge = len(m) >= 2 and m[-1] < m[-2]
    return out, bool(edge)


def log_convex_minorant(W: WeightSequence, weak_basis: bool = False) -> EnvelopeResult:
    """Lower convex envelope of (k, log M_k), or of (k, log(k! M_k)) when weak.

    With the weak basis this is the log-convex minorant M^(b,lc) of k! M_k,
    returned as log(k! . minorant-of-M)_k, i.e. in the k! M_k scale.
    """
    ks = W.ks.astype(float)
    y = W.log_M + log_factorial(ks) if weak_basis else W.log_M.copy()
    return lower_convex_envelope(y)


# -- check sequence bijection -------------------------------------------------


def check_scale(scales: DerivedScales) -> np.ndarray:
    """log m-check from log m by the recursion mck_{k+1} = mck_k (m_{k+1}-1)/m_k.

    Requires m_1 > 1; the recursion starts from mck_1 = m_1 - 1.  Returns
    log mck_k for k >= k_start of the scales (which must be 1).
    """
    if scales.k_start != 1:
        raise DomainError("check sequence needs scales tabulated from k = 1")
    log_m = scales.log_m
    if not log_m[0] > 0.0:
        raise DomainError("check sequence requires m_1 > 1")
    n = len(log_m)
    out = np.empty(n)
    # log(m - 1) = log m + log(1 - 1/m), stable for large m
    log_m_minus_1 = log_m + np.log1p(-np.exp(-log_m))
    out[0] = log_m_minus_1[0]
    for i in range(1, n):
        out[i] = out[i - 1] + log_m_minus_1[i] - log_m[i - 1]
    return out


def check_sequence(W: WeightSequence) -> WeightSequence:
    """The check sequence: log Mck_k = k log mck_k - log k!, Mck_0 = 1."""
    if W.k_min != 0:
        raise DomainError("check sequence needs a tabulation starting at k = 0")
    scales = DerivedScales.from_weight_sequence(W)
    log_mck = check_scale(scales)
    ks = np.arange(1, W.k_max + 1, dtype=float)
    log_Mck = ks * log_mck - log_factorial(ks)
    out = np.concatenate(([0.0], log_Mck))
    return WeightSequence(name=f"check({W.name})", k_min=0, log_M=out)


def uncheck_scale(log_mck: np.ndarray) -> np.ndarray:
    """log m from log m-check via m_k = mck_k (1 + sum_{j<=k} 1/mck_j).

    ``log_mck`` holds log mck_k for k = 1..n.  The partial sums use
    compensated (Kahan) summation.
    """
    log_mck = np.asarray(log_mck, dtype=float)
    partial = []
    s = 0.0
    c = 0.0
    for inv in np.exp(-log_mck).tolist():
        y = inv - c
        t = s + y
        c = (t - s) - y
        s = t
        partial.append(s)
    return log_mck + np.log1p(partial)


def uncheck_sequence(Wc: WeightSequence) -> WeightSequence:
    """Inverse of check_sequence: recovers M from M-check (all mck_k > 0)."""
    if Wc.k_min != 0:
        raise DomainError("uncheck needs a tabulation starting at k = 0")
    scales = DerivedScales.from_weight_sequence(Wc)
    log_m = uncheck_scale(scales.log_m)
    ks = np.arange(1, Wc.k_max + 1, dtype=float)
    log_M = ks * log_m - log_factorial(ks)
    out = np.concatenate(([0.0], log_M))
    name = Wc.name[6:-1] if Wc.name.startswith("check(") and Wc.name.endswith(")") else f"uncheck({Wc.name})"
    return WeightSequence(name=name, k_min=0, log_M=out)


# -- composition of weight sequences ------------------------------------------


def compose_sequences(M: WeightSequence, L: WeightSequence, k_max_out: int) -> WeightSequence:
    """(M o L)_k = max over compositions alpha of k of M_j L_{a_1} ... L_{a_j}.

    Max-plus dynamic program over the number of parts j, O(k^3); capped at
    k_max_out <= 500.  Pass j builds G[k, j] = max_a log L_a + G[k - a, j - 1]
    for every k at once and folds log M_j + G[., j] into a running maximum.
    """
    if k_max_out > MAX_COMPOSE_K:
        raise DomainError(f"k_max_out capped at {MAX_COMPOSE_K} (O(k^3) dynamic program)")
    if M.k_min != 0 or L.k_min != 0:
        raise DomainError("compose needs tabulations starting at k = 0")
    if M.k_max < k_max_out or L.k_max < k_max_out:
        raise DomainError("both sequences must be tabulated through k_max_out")
    n = k_max_out
    logL = L.log_M[: n + 1]
    logM = M.log_M[: n + 1]
    # after pass j, G[k] for k >= j is the max over alpha in N_{>0}^j with
    # sum alpha = k of sum log L_{a_i}
    G = np.full(n + 1, -np.inf)
    G[0] = 0.0
    out = np.full(n + 1, -np.inf)
    out[0] = logM[0]
    for j in range(1, n + 1):
        # row t = k - j pairs G[k - a] of pass j - 1 with log L_a for
        # a = N .. 1, padded with -inf where k - a < j - 1
        N = n - j + 1
        prev = np.concatenate((np.full(N - 1, -np.inf), G[j - 1 : n]))
        G[j:] = np.max(sliding_window_view(prev, N) + logL[N:0:-1], axis=1)
        out[j:] = np.maximum(out[j:], logM[j] + G[j:])
    return WeightSequence(name=f"({M.name} o {L.name})", k_min=0, log_M=out)
