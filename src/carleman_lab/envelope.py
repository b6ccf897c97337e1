"""Minorant constructions, the check-sequence bijection, and sequence composition.

Everything operates on log-space tabulations.  The lower convex envelope is
computed with a monotone-chain hull sweep; the O(N^3) two-sided infimum
formula it is equivalent to lives in the test suite as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# the hull gaps compose_sequences absorbs, per unit of max(1, |(M o L)_k|): DECISIONS.md §7
_COMPOSE_SLACK = 256 * 2.0**-52


@dataclass(frozen=True)
class EnvelopeResult:
    """Lower convex envelope of a log-space sequence.

    ``values`` is the envelope sampled at every tabulated index, ``y`` the input
    it lies under, and ``is_edge_sensitive`` is set when the rightmost hull
    segment spans more than one step, i.e. interior values near the right edge
    would move if the tabulation were extended.
    """

    values: np.ndarray
    y: np.ndarray
    is_edge_sensitive: bool

    def __post_init__(self):
        for name in ("values", "y"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def contact_set(self) -> tuple:
        """Positions where the envelope meets its input: the hull vertices, and interior
        points of a segment where the input is affine.  Built on first read."""
        y = self.y
        return tuple(np.flatnonzero(self.values >= y - 1e-12 * np.maximum(1.0, np.abs(y))).tolist())


def lower_convex_envelope(y: np.ndarray) -> EnvelopeResult:
    """Lower convex envelope of the points (i, y_i), by a monotone-chain sweep.

    Past the last i where it would pop i - 1 off the chain (i - 2, i - 1), nothing is
    popped once i - 2 is the second-to-last vertex, so the rest is appended as one array.
    Index i on hull segment (a, b) gets y_a + (i - a)(y_b - y_a)/(b - a), in one pass.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 3:
        raise DomainError("need at least 3 points for an envelope")
    if not np.all(np.isfinite(y)):
        raise DomainError(f"non-finite envelope input at i={int(np.argmax(~np.isfinite(y)))}")
    # the sweep's own test for a = i - 2, b = i - 1, at i = 2 .. n - 1
    pops = np.flatnonzero((y[1:-1] - y[:-2]) * 2 >= y[2:] - y[:-2])
    hull, i = [0, 1], 2
    if pops.size:  # with nothing to pop, the chain is 0, 1, ..., n - 1
        last, yl = int(pops[-1]) + 2, y.tolist()
        while i < n and (i <= last or hull[-2] != i - 2):
            # pop while the previous vertex lies on or above the new chord
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                if (yl[b] - yl[a]) * (i - a) >= (yl[i] - yl[a]) * (b - a):
                    hull.pop()
                else:
                    break
            hull.append(i)
            i += 1
    h = np.concatenate((hull, np.arange(i, n)))
    reps = np.diff(h)
    reps[-1] += 1  # the last segment also fills its right end
    a, b = np.repeat(h[:-1], reps), np.repeat(h[1:], reps)
    values = y[a] + (np.arange(n) - a) * (y[b] - y[a]) / (b - a)
    return EnvelopeResult(values=values, y=y, is_edge_sensitive=bool(h[-1] - h[-2] > 1))


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
    log mck_k for k = 1..n, as ``scales.log_m`` holds log m_k.
    """
    log_m = scales.log_m
    if not log_m[0] > 0.0:
        raise DomainError("check sequence requires m_1 > 1")
    # log(m - 1) = log m + log(1 - 1/m), stable for large m
    log_m_minus_1 = log_m + np.log1p(-np.exp(-log_m))
    # out_i = (out_{i-1} + log_m_minus_1[i]) - log_m[i-1], rounded in that order:
    # one left-to-right running sum over the interleaved terms, read every other step
    terms = np.empty(2 * len(log_m) - 1)
    terms[0], terms[1::2], terms[2::2] = log_m_minus_1[0], log_m_minus_1[1:], -log_m[:-1]
    np.add.accumulate(terms, out=terms)
    return terms[::2].copy()


def check_sequence(W: WeightSequence) -> WeightSequence:
    """The check sequence: log Mck_k = k log mck_k - log k!, Mck_0 = 1."""
    log_Mck = _log_M_from_scale(check_scale(DerivedScales.from_weight_sequence(W)))
    return WeightSequence(name=f"check({W.name})", k_min=0, log_M=log_Mck)


def _log_M_from_scale(log_s: np.ndarray) -> np.ndarray:
    """log M with M_0 = 1 and M_k = s_k^k / k! for k = 1..n, from log s_1..log s_n."""
    ks = np.arange(1, len(log_s) + 1, dtype=float)
    return np.concatenate(([0.0], ks * log_s - log_factorial(ks)))


def _compensated_cumsum(terms) -> np.ndarray:
    """Running sum with each step's rounding error added back (Sum2 of Ogita, Rump and Oishi).

    s = cumsum(x) rounds once per step; TwoSum recovers each step's error exactly, and
    s + cumsum(err) errs by at most u |S_i| + gamma_i^2 sum_{j<=i} |x_j| from the exact
    prefix sum S_i (u = 2^-53, gamma_i = i u / (1 - i u)): as if summed at twice the precision.
    """
    x = np.asarray(terms, dtype=float)
    s = np.cumsum(x)
    z = s[1:] - s[:-1]
    err = np.zeros_like(s)
    err[1:] = (s[:-1] - (s[1:] - z)) + (x[1:] - z)
    return s + np.cumsum(err)


def uncheck_scale(log_mck: np.ndarray) -> np.ndarray:
    """log m from log m-check via m_k = mck_k (1 + sum_{j<=k} 1/mck_j).

    ``log_mck`` holds log mck_k for k = 1..n.  The partial sums are compensated.
    """
    log_mck = np.asarray(log_mck, dtype=float)
    return log_mck + np.log1p(_compensated_cumsum(np.exp(-log_mck)))


def uncheck_sequence(Wc: WeightSequence) -> WeightSequence:
    """Inverse of check_sequence: recovers M from M-check (all mck_k > 0)."""
    log_M = _log_M_from_scale(uncheck_scale(DerivedScales.from_weight_sequence(Wc).log_m))
    name = Wc.name[6:-1] if Wc.name.startswith("check(") and Wc.name.endswith(")") else f"uncheck({Wc.name})"
    return WeightSequence(name=name, k_min=0, log_M=log_M)


# -- composition of weight sequences ------------------------------------------


def compose_sequences(M: WeightSequence, L: WeightSequence, k_max_out: int) -> WeightSequence:
    """(M o L)_k = max over compositions alpha of k of M_j L_{a_1} ... L_{a_j}, k = 0..n, in O(n).

    lo_k, the larger of the j = 1 and j = k candidates, is a composition, so lo <= M o L.
    Let gap_M and gap_L be how far log M and log L rise above their convex hulls on 1..n.
    On the hull pair the best j parts of k are (k-j+1, 1, ..., 1) (Karamata) and the best j
    is an end, where the hulls are <= lo_k; each part adds at most its gap, so M o L <= lo +
    gap_M + k gap_L.  lo is returned when that width is within _COMPOSE_SLACK max(1, |lo_k|)
    at every k, else DomainError (DECISIONS.md §7).  An exactly convex side builds no hull.
    """
    if k_max_out < 2:
        raise DomainError("k_max_out must be at least 2")
    if M.k_max < k_max_out or L.k_max < k_max_out:
        raise DomainError("both sequences must be tabulated through k_max_out")
    n = k_max_out
    logL = L.log_M[: n + 1]
    logM = M.log_M[: n + 1]
    out = np.empty(n + 1)
    out[0] = logM[0]
    # the j = 1 and j = k candidates, rounded as in the Karamata form
    c = np.concatenate(([0.0], np.add.accumulate(np.full(n - 1, logL[1]))))
    out[1:] = np.maximum((logL[1:] + c[0]) + logM[1], (logL[1] + c) + logM[1:])
    gap_M, gap_L = _hull_gap(logM[1:]), _hull_gap(logL[1:])
    if gap_M or gap_L:
        excess = gap_M + np.arange(1, n + 1) * gap_L - _COMPOSE_SLACK * np.maximum(1.0, np.abs(out[1:]))
        k = int(np.argmax(excess)) + 1
        if excess[k - 1] > 0.0:
            which, gap = ("log M", gap_M) if gap_M >= k * gap_L else ("log L", gap_L)
            raise DomainError(f"{which} is not convex on 1..{n}: it rises {gap:.3g} above its convex hull")
    return WeightSequence(name=f"({M.name} o {L.name})", k_min=0, log_M=out)


def _exactly_convex(y: np.ndarray) -> bool:
    """Every second difference of y, as rounded, is >= 0."""
    return bool(np.all(np.diff(y, 2) >= 0.0))


def _convex_floor(y: np.ndarray) -> np.ndarray:
    """y when every second difference is >= 0 exactly, else its lower convex envelope.

    For a convex h <= y, j -> h_j + h_{t-j} is convex and symmetric about t/2, so
    h_{t//2} + h_{t-t//2} <= min_j (y_j + y_{t-j}): the balanced split bounds every split.
    """
    return y if _exactly_convex(y) else lower_convex_envelope(y).values


def _hull_gap(y: np.ndarray) -> float:
    """max(y - h) over h = _convex_floor(y): 0.0, with no hull built, when y is exactly convex."""
    h = _convex_floor(y)
    return 0.0 if h is y else float(np.max(y - h))
