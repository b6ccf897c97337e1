"""Truncated formal-power-series arithmetic with growth certificates.

Coefficients follow the derivative normalization: the stored f_k corresponds
to the k-th derivative, so the Taylor coefficient is f_k / k!.  Composition
is one partial Bell polynomial recurrence (Comtet, Advanced Combinatorics,
section 3.3), which needs no factorials.  The coefficient type is chosen once
per call: when every input coefficient is an int or Fraction the inputs are
used as stored, so int inputs stay in the integers (Bell numbers stay exact
far past the 2^53 threshold where f64 integer arithmetic silently rounds);
otherwise both inputs are converted to float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite, lgamma
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .seqcore import DomainError, MembershipCertificate, WeightSequence, fm_membership
from .envelope import compose_sequences

__all__ = [
    "TruncatedSeries",
    "compose_series",
    "multiply_series",
    "verify_composition_bound",
    "certificate_grid",
]


def _simplify(c):
    """Collapse integral Fractions back to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients f_0..f_N in derivative normalization, plus an optional
    (C, rho, M) growth certificate asserting |f_k| <= C rho^k k! M_k."""

    coeffs: tuple
    certificate: Optional[MembershipCertificate] = None

    def __post_init__(self):
        cs = tuple(_simplify(c) for c in self.coeffs)
        if len(cs) < 2:
            raise DomainError("a truncated series needs at least 2 coefficients (N >= 1)")
        for c in cs:
            if isinstance(c, float) and not isfinite(c):
                raise DomainError("non-finite coefficient")
        object.__setattr__(self, "coeffs", cs)
        if self.certificate is not None:
            cert = self.certificate
            got = fm_membership([float(c) for c in cs], cert.seq, cert.rho)
            if got > cert.C * (1.0 + 1e-12):
                raise DomainError(
                    f"certificate violated on stored prefix: needs C >= {got}, has {cert.C}"
                )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs)

    def to_dict(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = {
                "C": float(self.certificate.C),
                "rho": float(self.certificate.rho),
                "seq": self.certificate.seq.name,
            }
        return {"coeffs": [float(c) for c in self.coeffs], "certificate": cert}


def _common_coeffs(f: TruncatedSeries, g: TruncatedSeries) -> tuple:
    """Both coefficient tuples as stored when both series are exact, else as floats."""
    if f.is_exact and g.is_exact:
        return f.coeffs, g.coeffs
    return tuple(map(float, f.coeffs)), tuple(map(float, g.coeffs))


def compose_series(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of f(g(x)); requires g_0 = 0.

    Output indices run 0 .. min(N_f, N_g) - 1.  (f o g)_m is
    sum_k f_k B_{m,k}(g), with the partial Bell polynomials built column by
    column from B_{m,k} = sum_i C(m-1, i-1) g_i B_{m-i,k-1}, O(N^3).
    """
    if g.coeffs[0] != 0:
        raise DomainError("composition requires g_0 = 0")
    n = min(f.order, g.order) - 1
    if n < 1:
        raise DomainError("series too short to compose")
    fc, gc = _common_coeffs(f, g)
    # w[m][j] = C(m-1, j) g_{m-j}, the weight of B_{j,k-1} in B_{m,k}
    w = [[comb(m - 1, j) * gc[m - j] for j in range(m)] for m in range(n + 1)]
    out = [fc[0]] + [0] * n
    col = [1] + [0] * n  # B_{m,0}
    for k in range(1, n + 1):
        # B_{j,k-1} = 0 for j < k - 1, so the sums start at j = k - 1
        col = [0] * k + [sum(map(mul, w[m][k - 1 :], col[k - 1 : m])) for m in range(k, n + 1)]
        for m in range(k, n + 1):
            out[m] += fc[k] * col[m]
    return TruncatedSeries(tuple(out))


def multiply_series(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """(fg)_k = sum_i binom(k, i) f_i g_{k-i} on the common prefix.

    When both factors carry certificates over the same weakly log-convex
    weight sequence, the product gets the combined certificate
    (C_f C_g M_0, rho_f + rho_g), re-verified on the stored prefix.
    """
    n_out = min(f.order, g.order)
    fc, gc = _common_coeffs(f, g)
    out = []
    for k in range(n_out + 1):
        s = 0
        for i in range(k + 1):
            s += comb(k, i) * fc[i] * gc[k - i]
        out.append(s)
    cert = None
    if (
        f.certificate is not None
        and g.certificate is not None
        and f.certificate.seq is g.certificate.seq
    ):
        W = f.certificate.seq
        M0 = float(np.exp(W.log_M[0]))
        cert = MembershipCertificate(
            C=f.certificate.C * g.certificate.C * M0,
            rho=f.certificate.rho + g.certificate.rho,
            seq=W,
        )
    return TruncatedSeries(tuple(out), certificate=cert)


def verify_composition_bound(f: TruncatedSeries, g: TruncatedSeries) -> dict:
    """Check |(f o g)_k| <= C* tau^k k! (M o L)_k for 1 <= k <= N.

    tau = rho_g (1 + rho_f C_g) and C* = rho_f C_f C_g / (1 + rho_f C_g) are
    the constants produced by the composition estimate; the bound is asserted
    for k >= 1 (the k = 0 coefficient is not covered by the estimate).
    Returns a report with per-k log-space slack.
    """
    if f.certificate is None or g.certificate is None:
        raise DomainError("both series need growth certificates")
    if g.coeffs[0] != 0:
        raise DomainError("composition requires g_0 = 0")
    M = f.certificate.seq
    L = g.certificate.seq
    fg = compose_series(f, g)
    n = fg.order
    ML = compose_sequences(M, L, n)
    rho_f, C_f = f.certificate.rho, f.certificate.C
    rho_g, C_g = g.certificate.rho, g.certificate.C
    tau = rho_g * (1.0 + rho_f * C_g)
    C_star = rho_f * C_f * C_g / (1.0 + rho_f * C_g)
    slack = []
    violations = []
    lossy = False
    for k in range(1, n + 1):
        ck = fg.coeffs[k]
        if isinstance(ck, float) and abs(ck) > 2.0**53:
            lossy = True
        log_bound = (
            np.log(C_star) + k * np.log(tau) + lgamma(k + 1) + ML.log_M[k]
        )
        if ck == 0:
            sl = float("inf")
        else:
            sl = float(log_bound - np.log(abs(float(ck))))
        slack.append(sl)
        if sl < -1e-9:
            violations.append(k)
    return {
        "tau": tau,
        "C_star": C_star,
        "order": n,
        "log_slack": slack,  # slack[i] is for k = i + 1
        "violations": violations,
        "ok": not violations,
        "lossy_float_coefficients": lossy,
    }


def certificate_grid(coeffs: Sequence[float], W: WeightSequence) -> list[tuple[float, float]]:
    """(rho, smallest C) pairs over the dyadic grid rho = 2^i, -8 <= i <= 8."""
    out = []
    fl = [float(c) for c in coeffs]
    for i in range(-8, 9):
        rho = 2.0**i
        out.append((rho, fm_membership(fl, W, rho)))
    return out
