"""Constructive separating majorants and the splitting constructions.

Given a quasianalytic weight sequence Q and a coefficient sequence f that
escapes the class F^Q along a subsequence, a separating majorant is a
non-quasianalytic weight sequence L >= Q whose class still excludes f.  Both
constructions run on one escape schedule: the greedy escape indices k_j of f
at the thresholds a_j = 4^j and the beta ladder over them.  The strong
construction perturbs the check sequence of Q by a convex piecewise-affine
exponent with knots at the k_j; the weak one puts blockwise-constant levels
beta_j on the check scale.  One function turns either into a MajorantTrace.
The module also provides the pointwise min-combine of two majorants and the
moderate-growth splitting L'.

Witness series with astronomically large coefficients cannot be stored as
f64 values, so every operation taking a witness accepts either a
TruncatedSeries (exact coefficients beyond the float range are logged
exactly) or an array of log|f_k| directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple, Sequence

import numpy as np

from .seqcore import (
    DerivedScales,
    DomainError,
    WeightSequence,
    _LOG_FLOAT_MAX,
    _log_abs,
    _log_factorials,
    _log_sum_exp,
    rescale,
)
from . import envelope
from .predicates import growth_diagnostic, is_log_convex

__all__ = [
    "MajorantTrace",
    "separating_majorant",
    "separating_majorant_weak",
    "min_combine",
    "lprime_construction",
    "escape_log_coefficients",
]

_MIN_BLOCKS = 3


@dataclass(frozen=True)
class MajorantTrace:
    """Record of a separating-majorant construction.

    ``k_j`` are the escape indices, ``a_j``/``b_j`` the selection schedule,
    ``beta_j`` the block levels, ``phi_knots`` the vertices of the
    piecewise-affine exponent (empty on the weak path).  ``output_rescaled``, the
    raw ``output`` after ``rescale_rho`` (weak path: and a minorant repair), dominates
    the input pointwise; ``to_dict`` writes it, while ``output`` stays on the object.
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
            "report": self.report,
            "rescale_rho": float(self.rescale_rho),
            "output_rescaled": self.output_rescaled.to_dict(),
        }


def escape_log_coefficients(
    Q: WeightSequence, marked: Sequence[int], factor: float = 2.0
) -> np.ndarray:
    """log|f_k| for the canonical escaping witness over Q.

    f_k = k! (factor * q_k)^k at the marked indices and f_k = k! qck_k^k
    elsewhere, where q is the scale of Q and qck its check scale.  Returned
    as an array indexed by k = 0..k_max of Q (entry 0 is 0).
    """
    if not (isfinite(factor) and factor > 0):
        raise DomainError(f"escape factor must be finite and positive, got {factor}")
    scales = DerivedScales.from_weight_sequence(Q)
    ks = np.arange(1, Q.k_max + 1, dtype=float)
    log_fact = _log_factorials(Q.k_max)
    out = log_fact[1:] + ks * envelope.check_scale(scales)
    for k in marked:
        if not 1 <= k <= Q.k_max:
            raise DomainError(f"marked index {k} outside tabulated range")
        out[k - 1] = log_fact[k] + k * (np.log(factor) + scales.log_m[k - 1])
    return np.concatenate(([0.0], out))


def _witness_log_g(f, k_max: int) -> np.ndarray:
    """log g_k = log|f_k|^{1/k} for k = 1..n from a series or log-coefficient array."""
    if hasattr(f, "coeffs"):
        log_abs = _log_abs(f.coeffs[1:])  # a zero coefficient has log -inf
    else:
        log_abs = np.asarray(f, dtype=float)[1:]
    n = min(len(log_abs), k_max)
    return log_abs[:n] / np.arange(1, n + 1, dtype=float)


def _greedy_escape_indices(log_ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Escape indices k_j = min{k > k_{j-1} : g_k/q_k >= a_j}, a_j = 4^j, from k_0 >= 2.

    ``log_ratio[i]`` is log(g_k/q_k) at k = i + 1.  The search starts at k = 2:
    k_0 = 1 would leave beta_1 = beta_0^1, never a tower step.  Returns (k_j, log_a_j).
    """
    k_j: list[int] = []
    log_a: list[float] = []
    log4 = np.log(4.0)
    while True:
        thr = len(k_j) * log4
        start = k_j[-1] if k_j else 1
        hits = np.flatnonzero(log_ratio[start:] >= thr)
        if not hits.size:
            return np.array(k_j, dtype=int), np.array(log_a, dtype=float)
        k_j.append(start + int(hits[0]) + 1)
        log_a.append(thr)


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
    t = np.cumprod(np.concatenate(([1.0], k_j[:-1])))  # log beta_j in units of s
    dG = np.diff(log_G)
    if np.any(dG <= 0.0):
        raise DomainError("escape ratios g/q-check not increasing along the trace")
    s = 0.9 * float(np.min(dG / np.diff(t)))
    if not s > 0.0:
        raise DomainError("no positive base level keeps the schedule decreasing")
    log_beta = s * t
    return log_beta, log_beta - log_G


class _Schedule(NamedTuple):
    """The escape schedule of a witness f over Q, computed once per construction.

    ``log_q``, ``log_qck`` and ``log_g`` are the scale of Q, its check scale
    and log|f_k|^{1/k} over k = 1, 2, ...; ``k_j``, ``log_a``, ``log_beta``
    and ``log_b`` hold one entry per block.
    """

    log_q: np.ndarray
    log_qck: np.ndarray
    log_g: np.ndarray
    k_j: np.ndarray
    log_a: np.ndarray
    log_beta: np.ndarray
    log_b: np.ndarray


def _schedule(Q: WeightSequence, f) -> _Schedule:
    """The schedule of witness f over Q, or a DomainError when f does not separably escape."""
    scales = DerivedScales.from_weight_sequence(Q)
    log_qck = envelope.check_scale(scales)
    log_g = _witness_log_g(f, Q.k_max)
    k_j, log_a = _greedy_escape_indices(log_g - scales.log_m[: len(log_g)])
    if len(k_j) < _MIN_BLOCKS:
        raise DomainError("f not separably outside F^Q on this prefix")
    log_beta, log_b = _beta_ladder(k_j, log_g[k_j - 1] - log_qck[k_j - 1])
    if np.any(-(log_a + log_b) > _LOG_FLOAT_MAX):
        raise DomainError("escape too large: a bound 1/(a_j b_j) exceeds the float range")
    return _Schedule(scales.log_m, log_qck, log_g, k_j, log_a, log_beta, log_b)


def _trace(s: _Schedule, log_l, log_terms, edges, output, rescale_rho, output_rescaled,
           phi_knots=(), **extra) -> MajorantTrace:
    """The MajorantTrace of a construction with scale l_k (k = 1..len(log_l)).

    Block i of ``block_sums`` adds exp(log_terms) over edges[i] <= k < edges[i + 1] in
    one max-shifted pass (seqcore._log_sum_exp), which overwrites ``log_terms``; its bound
    1/(a_j b_j) is that of the block's last escape index.  ``extra`` holds the
    construction's own report keys.
    """
    m = len(s.k_j)
    first = m - (len(edges) - 1)  # the schedule block of the first summed block
    report = {
        "block_sums": [
            float(np.exp(_log_sum_exp(log_terms[lo:hi])[0])) for lo, hi in zip(edges, edges[1:])
        ],
        "bound_1_over_ab": [float(np.exp(-(s.log_a[j] + s.log_b[j]))) for j in range(first, m)],
        "sup_q_over_l": float(np.exp(np.max(s.log_q[: len(log_l)] - log_l))),
        "l_over_g_at_kj": [
            float(np.exp(s.log_beta[j] + s.log_qck[k - 1] - s.log_g[k - 1]))
            for j, k in enumerate(s.k_j)
        ],
        **extra,
    }
    return MajorantTrace(
        k_j=tuple(s.k_j),
        a_j=tuple(np.exp(s.log_a)),
        b_j=tuple(np.exp(s.log_b)),
        beta_j=tuple(np.exp(s.log_beta)),
        phi_knots=phi_knots,
        output=output,
        report=report,
        rescale_rho=rescale_rho,
        output_rescaled=output_rescaled,
    )


def _domination_rescale(Q: WeightSequence, L: WeightSequence) -> tuple[float, WeightSequence]:
    """rho >= max{1/L_1, sup_k (Q_k/L_k)^{1/k}} and the rescaled L~ >= Q."""
    ks = np.arange(1, L.k_max + 1, dtype=float)
    diff = (Q.log_M[1 : L.k_max + 1] - L.log_M[1:]) / ks
    rho = float(np.exp(max(0.0, -float(L.log_M[1]), float(np.max(diff)))))
    return rho, rescale(L, 1.0, rho)


def _require_weakly_log_convex(W: WeightSequence) -> None:
    v = is_log_convex(W, weak=True)
    if not v.holds:
        raise DomainError(f"{W.name!r} is not weakly log-convex (witness k={v.witness_k})")


def _require_dominates(log_upper: np.ndarray, Q: WeightSequence, what: str, tol: float) -> None:
    """Raise '<what> <Q> at k=<first k>' where log_upper_k < log Q_k - tol."""
    below = np.flatnonzero(log_upper - Q.log_M[: len(log_upper)] < -tol)
    if below.size:
        raise DomainError(f"{what} {Q.name!r} at k={int(below[0])}")


def _phi(k_j: np.ndarray, log_beta: np.ndarray, k_max: int) -> np.ndarray:
    """Convex piecewise-affine exponent through (0, 0) and the knots (k_j, k_j log beta_j).

    Block 0 is the ray phi(k) = k log beta_0; block j covers k_{j-1} < k <= k_j,
    and past the last knot phi continues with its final slope.
    """
    d = np.concatenate((log_beta[:1], np.diff(k_j * log_beta) / np.diff(k_j)))
    c = k_j * (log_beta - d)
    if np.any(np.diff(d) < 0.0):
        raise DomainError("slopes d_j failed to be non-decreasing")
    if np.any(c > 1e-12):
        raise DomainError("intercepts c_j failed to be non-positive")
    ks = np.arange(0, k_max + 1, dtype=float)
    jj = np.minimum(np.searchsorted(k_j, ks), len(k_j) - 1)
    phi = c[jj] + d[jj] * ks
    phi[0] = 0.0
    return phi


def separating_majorant(Q: WeightSequence, f) -> MajorantTrace:
    """Log-convex majorant L >= Q (after the recorded rescale) excluding f.

    Requires the check sequence of Q to be log-convex and positive.  The
    witness ``f`` is a TruncatedSeries or an array of log|f_k|; it must
    satisfy g_k/q_k >= 4^j at three or more indices within the tabulation.
    L_k = e^{phi(k)} Qck_k for a convex piecewise-affine phi with knots at
    the escape indices; beyond the last knot phi continues with its final
    slope.
    """
    s = _schedule(Q, f)
    Qck = WeightSequence(f"check({Q.name})", 0, envelope._log_M_from_scale(s.log_qck))
    conv = is_log_convex(Qck)
    if not conv.holds:
        raise DomainError(
            f"check sequence of {Q.name!r} is not log-convex (witness k={conv.witness_k})"
        )
    phi = _phi(s.k_j, s.log_beta, Q.k_max)
    log_L = phi + Qck.log_M
    L = WeightSequence(name=f"sep({Q.name})", k_min=0, log_M=log_L)
    ks = np.arange(1, Q.k_max + 1, dtype=float)
    # l_k = e^{phi(k)/k} qck_k; at the knots phi(k_j)/k_j = log beta_j exactly;
    # block sums run over L_k / ((k+1) L_{k+1}) for k_{j-1} <= k < k_j
    log_l = phi[1:] / ks + s.log_qck
    log_terms = log_L[:-1] - np.log(ks) - log_L[1:]
    rho, Lt = _domination_rescale(Q, L)
    knots = tuple([(0, 0.0)] + [(k, k * lb) for k, lb in zip(s.k_j, s.log_beta)])
    return _trace(s, log_l, log_terms, s.k_j, L, rho, Lt, knots,
                  base_block_choice="c_0 = 0, d_0 = log beta_0")


def separating_majorant_weak(Q: WeightSequence, f) -> MajorantTrace:
    """Weakly log-convex majorant >= Q excluding f (blockwise-constant path).

    Only weak log-convexity of Q is needed.  When the check scale of Q is
    not increasing, Q is first rescaled by e^k (recorded in the report).
    l_k = beta_j qck_k blockwise, L_k = l_k^k / k!, then the C^k rescale and
    a weak log-convex minorant repair.
    """
    _require_weakly_log_convex(Q)
    log_qck = envelope.check_scale(DerivedScales.from_weight_sequence(Q))
    pre_rescaled = bool(np.any(np.diff(log_qck) < 0.0))
    Q_eff = rescale(Q, 1.0, float(np.e)) if pre_rescaled else Q

    s = _schedule(Q_eff, f)
    k_hi = int(s.k_j[-1])
    # l_k = beta_j qck_k for the minimal j with k <= k_j
    log_l = s.log_beta[np.searchsorted(s.k_j, np.arange(1, k_hi + 1))] + s.log_qck[:k_hi]
    log_L = envelope._log_M_from_scale(log_l)
    L = WeightSequence(name=f"sepw({Q_eff.name})", k_min=0, log_M=log_L)

    log_C = max(float(log_L[0] - log_L[1]), float(np.max(s.log_q[:k_hi] - log_l)))
    C = float(np.exp(max(0.0, log_C)))
    env = envelope.log_convex_minorant(rescale(L, 1.0, C), weak_basis=True)
    log_under = env.values - _log_factorials(k_hi)
    under = WeightSequence(name=f"sepw({Q_eff.name})", k_min=0, log_M=log_under)
    dom_gap = float(np.min(log_under - Q_eff.log_M[: k_hi + 1]))
    if dom_gap < -1e-9:
        raise DomainError("repaired majorant failed to dominate the input")

    # block sums sum_{k_{j-1}+1}^{k_j} 1/l_k (block 0 starts at k = 1)
    return _trace(s, log_l, -log_l, np.concatenate(([0], s.k_j)), L, C, under,
                  pre_rescaled_by_e=pre_rescaled, rescale_C=C, domination_gap=dom_gap)


def min_combine(
    L1: WeightSequence, L2: WeightSequence, Q: WeightSequence
) -> WeightSequence:
    """Greatest weakly log-convex sequence below min(L1, L2), still above Q."""
    k_hi = min(L1.k_max, L2.k_max, Q.k_max)
    for L in (L1, L2):
        _require_dominates(L.log_M[: k_hi + 1], Q, f"{L.name!r} does not dominate", 1e-12)
        _require_weakly_log_convex(L)
    log_bar = np.minimum(L1.log_M[: k_hi + 1], L2.log_M[: k_hi + 1])
    bar = WeightSequence(name="min", k_min=0, log_M=log_bar)
    env = envelope.log_convex_minorant(bar, weak_basis=True)
    out = env.values - _log_factorials(k_hi)
    _require_dominates(out, Q, "combined majorant dropped below", 1e-9)
    return WeightSequence(name=f"minc({L1.name},{L2.name})", k_min=0, log_M=out)


def lprime_construction(Q: WeightSequence, L: WeightSequence) -> WeightSequence:
    """Splitting majorant L' with L'_{j+k} <= C^{j+k} L_j L_k, L' >= Q.

    C is estimated as twice the plateaued prefix supremum of the
    moderate-growth statistic of Q (the factor 2 absorbs the binomial
    weights of the k!-rescaled statistic).  L must be weakly log-convex,
    dominate Q, and have L_0 = 1.  The min over j of log(j! L_j) +
    log((k-j)! L_{k-j}) is bounded below at the balanced split j = k // 2 over the
    convex floor of log(k! L_k) (envelope._convex_floor), equal when it is exactly convex.
    """
    mg = growth_diagnostic(Q, "moderate-growth")
    if not mg.holds:
        raise DomainError(
            "moderate-growth statistic of the base sequence has not plateaued "
            "on this prefix; the splitting constant is inconclusive"
        )
    if abs(float(L.log_M[0])) > 1e-12:
        raise DomainError("lprime requires L_0 = 1")
    _require_weakly_log_convex(L)
    k_hi = min(Q.k_max, L.k_max)
    _require_dominates(L.log_M[: k_hi + 1], Q, f"{L.name!r} does not dominate", 1e-12)

    log_C = np.log(2.0) + float(mg.margin)
    ks = np.arange(0, k_hi + 1)
    log_Lt = L.log_M[: k_hi + 1] + _log_factorials(k_hi)
    h = envelope._convex_floor(log_Lt)
    out = ks * log_C + (h[ks // 2] + h[ks - ks // 2])
    out[0] = 0.0
    log_out = out - _log_factorials(k_hi)
    _require_dominates(log_out, Q, "splitting majorant dropped below", 1e-9)
    return WeightSequence(name=f"split({L.name})", k_min=0, log_M=log_out)
