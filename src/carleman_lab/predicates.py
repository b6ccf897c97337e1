"""Finite-prefix diagnostics for structural properties of weight sequences.

Asymptotic statements (sup finiteness, series divergence) cannot be decided
from a finite tabulation, so every predicate returns a three-valued Verdict:
holds / fails-with-witness / inconclusive-with-trend.  The classifier
thresholds are heuristics of this module, not of the underlying theory;
DECISIONS.md section 3 lists each with its value and meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .seqcore import DerivedScales, DomainError, WeightSequence, log_factorial
from . import envelope

__all__ = [
    "Verdict",
    "QuasiDiagnostic",
    "is_log_convex",
    "growth_diagnostic",
    "quasianalytic_diagnostic",
    "inclusion_diagnostic",
    "CONVEXITY_EPS",
    "PLATEAU_EPS",
    "SLOPE_SLACK",
]

CONVEXITY_EPS = 1e-9      # relative, log-space, for three-term convexity tests
PLATEAU_EPS = 1e-3        # last-decade rise, relative to the whole trace's rise, of a plateau
PLATEAU_MIN_POINTS = 20   # a shorter growth trace is never called a plateau
SLOPE_SLACK = 0.25        # half-width around the -1 log-log divergence boundary
SUM_STALL_REL = 1e-2      # relative last-decade partial-sum growth threshold
SLOPE_WINDOW_FRAC = 0.25  # tail fraction of indices used for the slope fit


@dataclass(frozen=True)
class Verdict:
    """Outcome of a finite-prefix predicate."""

    outcome: str  # holds | fails | inconclusive
    witness_k: Optional[int] = None
    margin: float = 0.0
    statistic_trace: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.outcome not in ("holds", "fails", "inconclusive"):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == "fails" and self.witness_k is None:
            raise ValueError("a failing verdict needs a witness index")
        if self.statistic_trace is not None:
            arr = np.asarray(self.statistic_trace, dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, "statistic_trace", arr)

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    def to_report(self, predicate: str) -> dict:
        """The JSON report; the O(K) ``statistic_trace`` stays on the object."""
        return {"predicate": predicate, "verdict": self.outcome, "margin": float(self.margin),
                "witness_k": None if self.witness_k is None else int(self.witness_k)}


def is_log_convex(W: WeightSequence, weak: bool = False) -> Verdict:
    """Three-term convexity of log M_k (strong) or log(k! M_k) (weak).

    Holds iff y_{k-1} + y_{k+1} - 2 y_k >= -CONVEXITY_EPS (relative) at every interior index;
    a failure reports the first violating interior k.
    """
    y = W.log_M.copy()
    if weak:
        y = y + log_factorial(W.ks.astype(float))
    d2 = y[:-2] + y[2:] - 2.0 * y[1:-1]
    # CONVEXITY_EPS is relative in log-space: scale by the magnitude of the entries
    scale = np.maximum(1.0, np.maximum(np.abs(y[:-2]), np.maximum(np.abs(y[1:-1]), np.abs(y[2:]))))
    slack = d2 / scale
    margin = float(np.min(slack))
    if margin >= -CONVEXITY_EPS:
        return Verdict("holds", margin=margin)
    witness = int(1 + np.argmax(slack < -CONVEXITY_EPS))
    return Verdict("fails", witness_k=witness, margin=margin)


def _last_decade_start(n: int) -> int:
    """Index opening the last decade (factor 10) of an n-point trace."""
    return max(0, n - 1 - 9 * (n - 1) // 10) if n > 1 else 0


def growth_diagnostic(W: WeightSequence, mode: str) -> Verdict:
    """Running prefix supremum of the derivation-closed / moderate-growth statistic.

    derivation-closed: sup_k (log M_{k+1} - log M_k) / k;
    moderate-growth:   sup_{j,k>=1} (log M_{j+k} - log M_j - log M_k) / (j+k).

    The moderate-growth sup over j is bounded above at the balanced split j = s // 2
    over the convex floor h <= log M_1..log M_{n-1} (envelope._convex_floor), with
    equality when log M itself has every second difference >= 0 exactly.

    Holds when the trace has PLATEAU_MIN_POINTS points or more and its last-decade
    rise is at most PLATEAU_EPS of its whole rise, else inconclusive; a finite
    prefix can never refute sup-finiteness, so the outcome is never "fails".
    """
    logM = W.log_M
    n = W.k_max
    if mode == "derivation-closed":
        ks = np.arange(1, n, dtype=float)
        stat = (logM[2:] - logM[1:-1]) / ks
    elif mode == "moderate-growth":
        s = np.arange(2, n + 1)
        h = envelope._convex_floor(logM[1:n])  # h[i] is the floor at k = i + 1
        stat = (logM[s] - h[s // 2 - 1] - h[s - s // 2 - 1]) / s
    else:
        raise DomainError(f"unknown growth mode {mode!r}")
    run_sup = np.maximum.accumulate(stat)
    margin = float(run_sup[-1])
    rise = run_sup[-1] - run_sup[_last_decade_start(len(run_sup))]
    if len(run_sup) >= PLATEAU_MIN_POINTS and rise <= PLATEAU_EPS * (run_sup[-1] - run_sup[0]):
        return Verdict("holds", margin=margin, statistic_trace=run_sup)
    return Verdict("inconclusive", margin=margin, statistic_trace=run_sup)


@dataclass(frozen=True)
class QuasiDiagnostic:
    """Joint trend classification of the four quasianalyticity criterion sums.

    The four summand sequences, in order: 1/m_k (raw Carleman scale),
    1/m^(b,i)_k (increasing minorant), (1/M^(b,lc)_k)^{1/k} (log-convex
    minorant root), and M^(b,lc)_k / M^(b,lc)_{k+1} (minorant ratio).  The
    theorem asserts criteria (2)-(4) are equivalent; the raw-scale sum agrees
    with (2) whenever m is increasing.  A single classification is emitted
    only when all four trends agree.
    """

    partial_sums_final: tuple
    term_slope: tuple
    per_criterion: tuple
    classification: str
    edge_sensitive: bool

    @property
    def outcome(self) -> str:
        return self.classification

    def to_report(self, predicate: str) -> dict:
        return {**self.to_dict(), "predicate": predicate}

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "per_criterion": list(self.per_criterion),
            "term_slope": [float(s) for s in self.term_slope],
            "partial_sums_final": [float(p) for p in self.partial_sums_final],
            "edge_sensitive": bool(self.edge_sensitive),
            "heuristic": "slope/plateau thresholds are finite-sample heuristics",
        }


def quasianalytic_diagnostic(W: WeightSequence) -> QuasiDiagnostic:
    """Evaluate the four quasianalyticity criterion sums on the prefix in one pass.

    A criterion is ``inconclusive`` when the least-squares slope of log term vs log k
    over the last SLOPE_WINDOW_FRAC of the indices is NaN or the last decade is one
    term (k_max <= 2; one term never rises), ``divergent-trend`` when its partial sums
    still rise over the last decade (by more than SUM_STALL_REL of the total) and that
    slope is >= -1 - SLOPE_SLACK, and ``convergent-trend`` otherwise.  The summands
    underflow f64 for strongly shifted families (terms like exp(-1e7/k)), so the
    partial sums are accumulated as log S_N by a running logaddexp.
    """
    scales = DerivedScales.from_weight_sequence(W)
    n = W.k_max
    ks = np.arange(1, n + 1, dtype=float)
    log_minc, edge_inc = envelope.increasing_minorant(scales)
    env = envelope.log_convex_minorant(W, weak_basis=True)
    log_blc = env.values  # log of M^(b,lc) in the k! M_k scale, index 0..k_max
    # log terms: (i) 1/m_k, (ii) 1/m^(b,i)_k, (iii) (1/M^blc_k)^{1/k}, each at k = 1..k_max,
    # and (iv) M^blc_k / M^blc_{k+1} at k = 0..k_max-1, fitted against the same k = 1..k_max
    terms = (-scales.log_m, -log_minc, -log_blc[1:] / ks, log_blc[:-1] - log_blc[1:])
    log_S = [np.logaddexp.accumulate(t) for t in terms]

    i0 = min(int(n * (1.0 - SLOPE_WINDOW_FRAC)), n - 2)
    x = np.log(ks[i0:])
    x = x - x.mean()
    tails = np.stack([t[i0:] for t in terms])
    slopes = np.sum(x * (tails - tails.mean(axis=1, keepdims=True)), axis=1) / np.sum(x**2)

    i = _last_decade_start(n)
    rising = [-np.expm1(s[i] - s[-1]) > SUM_STALL_REL for s in log_S]  # (S_N - S_i) / S_N
    bound = -1.0 - SLOPE_SLACK
    classes = tuple(
        "inconclusive" if np.isnan(slope) or i == n - 1  # overflowed fit, or one-term decade
        else "divergent-trend" if r and slope >= bound
        else "convergent-trend"
        for r, slope in zip(rising, slopes)
    )
    agreed = classes[0] if len(set(classes)) == 1 else "inconclusive"
    return QuasiDiagnostic(
        partial_sums_final=tuple(np.exp([s[-1] for s in log_S]).tolist()),
        term_slope=tuple(slopes.tolist()),
        per_criterion=classes,
        classification=agreed,
        edge_sensitive=bool(edge_inc or env.is_edge_sensitive),
    )


def inclusion_diagnostic(W1: WeightSequence, W2: WeightSequence) -> Verdict:
    """Prefix evidence for F^{M1} subseteq F^{M2}: exists rho with M1_k <= rho^{k+1} M2_k.

    Computes s_k = (log M1_k - log M2_k)/(k+1); holds if the sup is attained
    away from the right edge or the tail is non-increasing, inconclusive if
    s_k is still rising at the edge.  The margin reports log rho = sup s_k.
    A finite prefix cannot refute existence, so the verdict never fails.
    """
    k_hi = min(W1.k_max, W2.k_max)
    ks = np.arange(k_hi + 1, dtype=float)
    s = (W1.log_M[: k_hi + 1] - W2.log_M[: k_hi + 1]) / (ks + 1.0)
    i_max = int(np.argmax(s))
    log_rho = float(s[i_max])
    n = len(s)
    away_from_edge = i_max < 0.9 * (n - 1)
    i_dec = _last_decade_start(n)
    tail = s[i_dec:]
    tail_nonincreasing = bool(np.all(np.diff(tail) <= 1e-12))
    if away_from_edge or tail_nonincreasing:
        return Verdict("holds", margin=log_rho, statistic_trace=s)
    # still rising at the edge: a bounded limit is still possible when the
    # increments are clearly summable (log-log slope well below -1)
    d = np.diff(s[n // 2 :])
    pos = d > 0.0
    if np.count_nonzero(pos) >= 10:
        kk = np.log(np.arange(n // 2 + 1, n, dtype=float)[pos])
        yy = np.log(d[pos])
        slope = float(np.polyfit(kk, yy, 1)[0])
        if slope < -1.5:
            return Verdict("holds", margin=log_rho, statistic_trace=s)
    return Verdict("inconclusive", margin=log_rho, statistic_trace=s)
