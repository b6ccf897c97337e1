"""Constructive separating majorants and the splitting constructions.

Given a quasianalytic weight sequence Q and a coefficient sequence f that
escapes the class F^Q along a subsequence, a separating majorant is a
non-quasianalytic weight sequence L >= Q whose class still excludes f.  The
construction here is a piecewise-affine perturbation of the check sequence of
Q, driven by the escape indices of f.  The module also provides the pointwise
min-combine of two majorants and the moderate-growth splitting L'.

Witness series with astronomically large coefficients cannot be stored as
f64 values, so every operation taking a witness accepts either a
TruncatedSeries or an array of log|f_k| directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Optional, Sequence, Union

import numpy as np

from .seqcore import (
    DerivedScales,
    DomainError,
    WeightSequence,
    log_factorial,
    rescale,
)
from . import envelope
from .predicates import _min_plus_splits, growth_diagnostic, is_log_convex

__all__ = [
    "MajorantTrace",
    "separating_majorant",
    "separating_majorant_weak",
    "min_combine",
    "lprime_construction",
    "escape_log_coefficients",
]

_MIN_BLOCKS = 3
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class MajorantTrace:
    """Record of a separating-majorant construction.

    ``k_j`` are the escape indices, ``a_j``/``b_j`` the selection schedule,
    ``beta_j`` the block levels, ``phi_knots`` the vertices of the
    piecewise-affine exponent (empty on the weak path).  ``output`` is the raw
    constructed sequence; ``output_rescaled`` has the recorded rescale
    ``rescale_rho`` applied so that it dominates the input pointwise.
    ``report`` carries the per-block non-quasianalyticity sums, their
    schedule bounds, and the domination statistic sup_k q_k/l_k.
    """

    k_j: tuple
    a_j: tuple
    b_j: tuple
    beta_j: tuple
    phi_knots: tuple
    output: WeightSequence
    report: dict
    rescale_rho: float
    output_rescaled: WeightSequence

    def __post_init__(self):
        kj = tuple(int(k) for k in self.k_j)
        if any(k2 <= k1 for k1, k2 in zip(kj, kj[1:])):
            raise DomainError("escape indices must be strictly increasing")
        beta = tuple(float(b) for b in self.beta_j)
        if any(b <= 1.0 for b in beta):
            raise DomainError("block levels beta_j must exceed 1")
        if any(b2 <= b1 for b1, b2 in zip(beta, beta[1:])):
            raise DomainError("block levels beta_j must be strictly increasing")
        object.__setattr__(self, "k_j", kj)
        object.__setattr__(self, "a_j", tuple(float(a) for a in self.a_j))
        object.__setattr__(self, "b_j", tuple(float(b) for b in self.b_j))
        object.__setattr__(self, "beta_j", beta)
        object.__setattr__(
            self, "phi_knots", tuple((int(k), float(v)) for k, v in self.phi_knots)
        )

    @property
    def n_blocks(self) -> int:
        return len(self.k_j)

    def to_dict(self) -> dict:
        return {
            "k_j": list(self.k_j),
            "a_j": list(self.a_j),
            "b_j": list(self.b_j),
            "beta_j": list(self.beta_j),
            "phi_knots": [[k, v] for k, v in self.phi_knots],
            "output": self.output.to_dict(),
            "report": self.report,
            "rescale_rho": float(self.rescale_rho),
            "output_rescaled": self.output_rescaled.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def escape_log_coefficients(
    Q: WeightSequence, marked: Sequence[int], factor: float = 2.0
) -> np.ndarray:
    """log|f_k| for the canonical escaping witness over Q.

    f_k = k! (factor * q_k)^k at the marked indices and f_k = k! qck_k^k
    elsewhere, where q is the scale of Q and qck its check scale.  Returned
    as an array indexed by k = 0..k_max of Q (entry 0 is 0).
    """
    if Q.k_min != 0:
        raise DomainError("witness construction needs a tabulation from k = 0")
    if not (isfinite(factor) and factor > 0):
        raise DomainError(f"escape factor must be finite and positive, got {factor}")
    scales = DerivedScales.from_weight_sequence(Q)
    log_q = scales.log_m
    log_qck = envelope.check_scale(scales)
    ks = np.arange(1, Q.k_max + 1, dtype=float)
    out = log_factorial(ks) + ks * log_qck
    for k in marked:
        if not 1 <= k <= Q.k_max:
            raise DomainError(f"marked index {k} outside tabulated range")
        out[k - 1] = log_factorial(float(k)) + k * (np.log(factor) + log_q[k - 1])
    return np.concatenate(([0.0], out))


def _witness_log_g(f, k_max: int) -> np.ndarray:
    """log g_k = log|f_k|^{1/k} for k = 1..n from a series or log-coefficient array."""
    if hasattr(f, "coeffs"):
        logs = []
        for c in f.coeffs[1:]:
            fc = float(c)
            logs.append(np.log(abs(fc)) if fc != 0.0 else -np.inf)
        log_abs = np.asarray(logs)
    else:
        log_abs = np.asarray(f, dtype=float)[1:]
    n = min(len(log_abs), k_max)
    ks = np.arange(1, n + 1, dtype=float)
    return log_abs[:n] / ks


def _greedy_escape_indices(log_ratio: np.ndarray) -> tuple[list, list]:
    """Escape indices k_j = min{k > k_{j-1} : g_k/q_k >= a_j}, a_j = 4^j.

    ``log_ratio[i]`` is log(g_k/q_k) at k = i + 1.  Returns (k_j, log_a_j).
    """
    k_j: list[int] = []
    log_a: list[float] = []
    log4 = np.log(4.0)
    j = 0
    start = 0
    n = len(log_ratio)
    while True:
        thr = j * log4
        idx = None
        for i in range(start, n):
            if log_ratio[i] >= thr:
                idx = i
                break
        if idx is None:
            break
        k_j.append(idx + 1)
        log_a.append(thr)
        start = idx + 1
        j += 1
    return k_j, log_a


def _beta_ladder(k_j: Sequence[int], log_G: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Block levels with equality in the tower condition beta_{j+1} = beta_j^{k_j}.

    ``log_G[j]`` is log(g_{k_j} / qck_{k_j}).  The free base level
    s = log beta_0 is set to 90% of the largest value keeping
    b_j = beta_j * qck_{k_j} / g_{k_j} strictly decreasing; the schedule
    b_j is derived from the ladder rather than fixed a priori, which keeps
    the tower condition satisfiable inside a finite tabulation.
    Returns (log_beta_j, log_b_j).
    """
    log_G = np.asarray(log_G, dtype=float)
    m = len(k_j)
    t = np.empty(m)  # log beta_j in units of s
    t[0] = 1.0
    for j in range(1, m):
        t[j] = k_j[j - 1] * t[j - 1]
    dG = np.diff(log_G)
    if np.any(dG <= 0.0):
        raise DomainError("escape ratios g/q-check not increasing along the trace")
    # a step with k_j = 1 leaves t flat and puts no bound on s
    dt = np.diff(t)
    rising = dt > 0.0
    s = 0.9 * float(np.min(dG[rising] / dt[rising]))
    if not s > 0.0:
        raise DomainError("no positive base level keeps the schedule decreasing")
    log_beta = s * t
    log_b = log_beta - log_G
    return log_beta, log_b


def _prepare(Q: WeightSequence, f) -> dict:
    """Shared setup: scales, check data, greedy indices, and the beta ladder."""
    if Q.k_min != 0:
        raise DomainError("separating constructions need a tabulation from k = 0")
    scales = DerivedScales.from_weight_sequence(Q)
    log_q = scales.log_m
    log_qck = envelope.check_scale(scales)
    Qck = envelope.check_sequence(Q)
    log_g = _witness_log_g(f, Q.k_max)
    n = len(log_g)
    log_ratio = log_g - log_q[:n]
    k_j, log_a = _greedy_escape_indices(log_ratio)
    if len(k_j) < _MIN_BLOCKS:
        raise DomainError("f not separably outside F^Q on this prefix")
    log_G = [log_g[k - 1] - log_qck[k - 1] for k in k_j]
    log_beta, log_b = _beta_ladder(k_j, log_G)
    if np.any(-(np.asarray(log_a) + log_b) > _LOG_FLOAT_MAX):
        raise DomainError("escape too large: a bound 1/(a_j b_j) exceeds the float range")
    return {
        "scales": scales,
        "log_q": log_q,
        "log_qck": log_qck,
        "Qck": Qck,
        "log_g": log_g,
        "k_j": k_j,
        "log_a": np.asarray(log_a),
        "log_beta": log_beta,
        "log_b": log_b,
    }


def _domination_rescale(Q: WeightSequence, L: WeightSequence) -> tuple[float, WeightSequence]:
    """rho >= max{1/L_1, sup_k (Q_k/L_k)^{1/k}} and the rescaled L~ >= Q."""
    ks = np.arange(1, L.k_max + 1, dtype=float)
    diff = (Q.log_M[1 : L.k_max + 1] - L.log_M[1:]) / ks
    log_rho = max(0.0, -float(L.log_M[1]), float(np.max(diff)))
    rho = float(np.exp(log_rho))
    Lt = rescale(L, 1.0, rho)
    return rho, Lt


def separating_majorant(Q: WeightSequence, f) -> MajorantTrace:
    """Log-convex majorant L >= Q (after the recorded rescale) excluding f.

    Requires the check sequence of Q to be log-convex and positive.  The
    witness ``f`` is a TruncatedSeries or an array of log|f_k|; it must
    satisfy g_k/q_k >= 4^j at three or more indices within the tabulation.
    L_k = e^{phi(k)} Qck_k for a convex piecewise-affine phi with knots at
    the escape indices; beyond the last knot phi continues with its final
    slope.
    """
    data = _prepare(Q, f)
    Qck = data["Qck"]
    conv = is_log_convex(Qck)
    if not conv.holds:
        raise DomainError(
            f"check sequence of {Q.name!r} is not log-convex (witness k={conv.witness_k})"
        )
    k_j = data["k_j"]
    log_beta = data["log_beta"]
    log_b = data["log_b"]

    # knots (k_j, k_j log beta_j); block 0 is the ray phi(k) = k log beta_0
    m = len(k_j)
    c = np.empty(m)
    d = np.empty(m)
    c[0], d[0] = 0.0, log_beta[0]
    for j in range(1, m):
        d[j] = (k_j[j] * log_beta[j] - k_j[j - 1] * log_beta[j - 1]) / (
            k_j[j] - k_j[j - 1]
        )
        c[j] = k_j[j] * (log_beta[j] - d[j])
    if np.any(np.diff(d) < 0.0):
        raise DomainError("slopes d_j failed to be non-decreasing")
    if np.any(c > 1e-12):
        raise DomainError("intercepts c_j failed to be non-positive")

    ks = np.arange(0, Q.k_max + 1, dtype=float)
    phi = np.empty(Q.k_max + 1)
    block = 0
    for k in range(Q.k_max + 1):
        while block < m and k > k_j[block]:
            block += 1
        jj = min(block, m - 1)  # past the last knot: continue with final slope
        phi[k] = c[jj] + d[jj] * k
    phi[0] = 0.0

    log_L = phi + Qck.log_M
    L = WeightSequence(name=f"sep({Q.name})", k_min=0, log_M=log_L)

    # l_k = e^{phi(k)/k} qck_k; at the knots phi(k_j)/k_j = log beta_j exactly
    log_l = phi[1:] / ks[1:] + data["log_qck"]
    log_q = data["log_q"]
    sup_q_over_l = float(np.exp(np.max(log_q - log_l)))
    ratio_trace = [
        float(np.exp(log_beta[j] + data["log_qck"][k - 1] - data["log_g"][k - 1]))
        for j, k in enumerate(k_j)
    ]

    # per-block sums sum_{k_{j-1}}^{k_j - 1} L_k / ((k+1) L_{k+1})
    log_term = log_L[:-1] - np.log(ks[1:]) - log_L[1:]
    block_sums = []
    for j in range(1, m):
        seg = log_term[k_j[j - 1] : k_j[j]]
        block_sums.append(float(np.exp(np.logaddexp.reduce(seg))))
    bounds = [float(np.exp(-(data["log_a"][j] + log_b[j]))) for j in range(1, m)]

    rho, Lt = _domination_rescale(Q, L)
    report = {
        "block_sums": block_sums,
        "bound_1_over_ab": bounds,
        "sup_q_over_l": sup_q_over_l,
        "l_over_g_at_kj": ratio_trace,
        "base_block_choice": "c_0 = 0, d_0 = log beta_0",
    }
    return MajorantTrace(
        k_j=tuple(k_j),
        a_j=tuple(np.exp(data["log_a"])),
        b_j=tuple(np.exp(log_b)),
        beta_j=tuple(np.exp(log_beta)),
        phi_knots=tuple([(0, 0.0)] + [(k, k * lb) for k, lb in zip(k_j, log_beta)]),
        output=L,
        report=report,
        rescale_rho=rho,
        output_rescaled=Lt,
    )


def separating_majorant_weak(Q: WeightSequence, f) -> MajorantTrace:
    """Weakly log-convex majorant >= Q excluding f (blockwise-constant path).

    Only weak log-convexity of Q is needed.  When the check scale of Q is
    not increasing, Q is first rescaled by e^k (recorded in the report).
    l_k = beta_j qck_k blockwise, L_k = l_k^k / k!, then the C^k rescale and
    a weak log-convex minorant repair.
    """
    if Q.k_min != 0:
        raise DomainError("separating constructions need a tabulation from k = 0")
    wconv = is_log_convex(Q, weak=True)
    if not wconv.holds:
        raise DomainError(
            f"{Q.name!r} is not weakly log-convex (witness k={wconv.witness_k})"
        )
    Q_eff = Q
    pre_rescaled = False
    log_qck = envelope.check_scale(DerivedScales.from_weight_sequence(Q))
    if np.any(np.diff(log_qck) < 0.0):
        Q_eff = rescale(Q, 1.0, float(np.e)).with_name(Q.name)
        pre_rescaled = True

    data = _prepare(Q_eff, f)
    k_j = data["k_j"]
    log_beta = data["log_beta"]
    log_b = data["log_b"]
    log_qck = data["log_qck"]
    m = len(k_j)
    k_hi = k_j[-1]

    # l_k = beta_j qck_k for the minimal j with k <= k_j
    log_l = np.empty(k_hi)
    lo = 0
    for j in range(m):
        log_l[lo : k_j[j]] = log_beta[j] + log_qck[lo : k_j[j]]
        lo = k_j[j]
    ks = np.arange(1, k_hi + 1, dtype=float)
    log_L = np.concatenate(([0.0], ks * log_l - log_factorial(ks)))
    L = WeightSequence(name=f"sepw({Q_eff.name})", k_min=0, log_M=log_L)

    log_q = data["log_q"][:k_hi]
    log_C = max(float(log_L[0] - log_L[1]), float(np.max(log_q - log_l)))
    C = float(np.exp(max(0.0, log_C)))
    L_scaled = rescale(L, 1.0, C)
    env = envelope.log_convex_minorant(L_scaled, weak_basis=True)
    ks_all = np.arange(0, k_hi + 1, dtype=float)
    log_under = env.values - log_factorial(ks_all)
    under = WeightSequence(name=f"sepw({Q_eff.name})", k_min=0, log_M=log_under)

    dom_gap = float(np.min(log_under - Q_eff.log_M[: k_hi + 1]))
    if dom_gap < -1e-9:
        raise DomainError("repaired majorant failed to dominate the input")

    sup_q_over_l = float(np.exp(np.max(log_q - log_l)))
    ratio_trace = [
        float(np.exp(log_beta[j] + log_qck[k - 1] - data["log_g"][k - 1]))
        for j, k in enumerate(k_j)
    ]
    # block sums sum_{k_{j-1}+1}^{k_j} 1/l_k (block 0 starts at k = 1)
    block_sums = []
    lo = 0
    for j in range(m):
        seg = -log_l[lo : k_j[j]]
        block_sums.append(float(np.exp(np.logaddexp.reduce(seg))))
        lo = k_j[j]
    bounds = [float(np.exp(-(data["log_a"][j] + log_b[j]))) for j in range(m)]

    report = {
        "block_sums": block_sums,
        "bound_1_over_ab": bounds,
        "sup_q_over_l": sup_q_over_l,
        "l_over_g_at_kj": ratio_trace,
        "pre_rescaled_by_e": pre_rescaled,
        "rescale_C": C,
        "domination_gap": dom_gap,
    }
    return MajorantTrace(
        k_j=tuple(k_j),
        a_j=tuple(np.exp(data["log_a"])),
        b_j=tuple(np.exp(log_b)),
        beta_j=tuple(np.exp(log_beta)),
        phi_knots=(),
        output=L,
        report=report,
        rescale_rho=C,
        output_rescaled=under,
    )


def min_combine(
    L1: WeightSequence, L2: WeightSequence, Q: WeightSequence
) -> WeightSequence:
    """Greatest weakly log-convex sequence below min(L1, L2), still above Q."""
    k_hi = min(L1.k_max, L2.k_max, Q.k_max)
    if L1.k_min != 0 or L2.k_min != 0 or Q.k_min != 0:
        raise DomainError("min_combine needs tabulations starting at k = 0")
    for L in (L1, L2):
        gap = L.log_M[: k_hi + 1] - Q.log_M[: k_hi + 1]
        if np.any(gap < -1e-12):
            k = int(np.argmax(gap < -1e-12))
            raise DomainError(f"{L.name!r} does not dominate {Q.name!r} at k={k}")
        v = is_log_convex(L, weak=True)
        if not v.holds:
            raise DomainError(
                f"{L.name!r} is not weakly log-convex (witness k={v.witness_k})"
            )
    log_bar = np.minimum(L1.log_M[: k_hi + 1], L2.log_M[: k_hi + 1])
    bar = WeightSequence(name="min", k_min=0, log_M=log_bar)
    env = envelope.log_convex_minorant(bar, weak_basis=True)
    ks = np.arange(0, k_hi + 1, dtype=float)
    out = env.values - log_factorial(ks)
    gap = out - Q.log_M[: k_hi + 1]
    if np.any(gap < -1e-9):
        k = int(np.argmax(gap < -1e-9))
        raise DomainError(f"combined majorant dropped below {Q.name!r} at k={k}")
    return WeightSequence(name=f"minc({L1.name},{L2.name})", k_min=0, log_M=out)


def lprime_construction(Q: WeightSequence, L: WeightSequence) -> WeightSequence:
    """Splitting majorant L' with L'_{j+k} <= C^{j+k} L_j L_k, L' >= Q.

    C is estimated as twice the plateaued prefix supremum of the
    moderate-growth statistic of Q (the factor 2 absorbs the binomial
    weights of the k!-rescaled statistic).  L must be weakly log-convex,
    dominate Q, and have L_0 = 1.  The min over j of log(j! L_j) +
    log((k-j)! L_{k-j}) is taken at the balanced split j = k // 2 when
    log(k! L_k) has every second difference >= 0 exactly; the weak
    log-convexity check allows an eps, and inside it a row search runs.
    """
    if Q.k_min != 0 or L.k_min != 0:
        raise DomainError("lprime needs tabulations starting at k = 0")
    mg = growth_diagnostic(Q, "moderate-growth")
    if not mg.holds:
        raise DomainError(
            "moderate-growth statistic of the base sequence has not plateaued "
            "on this prefix; the splitting constant is inconclusive"
        )
    if abs(float(L.log_M[0])) > 1e-12:
        raise DomainError("lprime requires L_0 = 1")
    wconv = is_log_convex(L, weak=True)
    if not wconv.holds:
        raise DomainError(
            f"{L.name!r} is not weakly log-convex (witness k={wconv.witness_k})"
        )
    k_hi = min(Q.k_max, L.k_max)
    gap = L.log_M[: k_hi + 1] - Q.log_M[: k_hi + 1]
    if np.any(gap < -1e-12):
        k = int(np.argmax(gap < -1e-12))
        raise DomainError(f"{L.name!r} does not dominate {Q.name!r} at k={k}")

    log_C = np.log(2.0) + float(mg.margin)
    ks = np.arange(0, k_hi + 1)
    log_Lt = L.log_M[: k_hi + 1] + log_factorial(ks)
    js = _min_plus_splits(log_Lt)
    out = ks * log_C + (log_Lt[js] + log_Lt[ks - js])
    out[0] = 0.0
    log_out = out - log_factorial(ks)
    gap = log_out - Q.log_M[: k_hi + 1]
    if np.any(gap < -1e-9):
        k = int(np.argmax(gap < -1e-9))
        raise DomainError(f"splitting majorant dropped below {Q.name!r} at k={k}")
    return WeightSequence(name=f"split({L.name})", k_min=0, log_M=log_out)
