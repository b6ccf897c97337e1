"""Truncated formal-power-series arithmetic with growth certificates.

Coefficients follow the derivative normalization: the stored f_k corresponds
to the k-th derivative, so the Taylor coefficient is f_k / k!.  Composition
is one partial Bell polynomial recurrence (Comtet, Advanced Combinatorics,
section 3.3), O(N^3) and free of factorials.  Exact (int, Fraction) factors of
a composition or a product have their denominators cleared once and run on
Python ints, so they stay exact far past 2^53; other inputs run in float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import isfinite, lcm, log
from operator import add, mul
from typing import Optional

import numpy as np

from .seqcore import (DomainError, MembershipCertificate, _LOG_FLOAT_MAX, _log_abs,
                      _log_factorials, fm_membership)
from .envelope import compose_sequences
from .predicates import is_log_convex

__all__ = [
    "TruncatedSeries",
    "compose_series",
    "multiply_series",
    "verify_composition_bound",
]

_last_compose = (None, None, 0, None)  # (M, L, n, M o L) of verify_composition_bound's last miss
_binomials = np.zeros((1, 1))  # float C(m-1, j) at [m, j < m]; read-only, replaced whole to grow


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients f_0..f_N in derivative normalization, plus an optional
    (C, rho, M) growth certificate asserting |f_k| <= C rho^k k! M_k."""

    coeffs: tuple
    certificate: Optional[MembershipCertificate] = None

    def __post_init__(self):
        cs, finite = [], True
        for c in self.coeffs:  # float and int are tested before the costlier Fraction ABC
            if isinstance(c, float):
                finite = finite and isfinite(c)
            elif not isinstance(c, int) and isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)  # an integral Fraction collapses to int
            cs.append(c)
        if len(cs) < 2:
            raise DomainError("a truncated series needs at least 2 coefficients (N >= 1)")
        if not finite:
            raise DomainError("non-finite coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))
        if self.certificate is not None:
            cert = self.certificate
            got = fm_membership(self.coeffs, cert.seq, cert.rho)
            if got > cert.C * (1.0 + 1e-12):
                raise DomainError(
                    f"certificate violated on stored prefix: needs C >= {got}, has {cert.C}"
                )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return all(not isinstance(c, float) and isinstance(c, (int, Fraction)) for c in self.coeffs)


def compose_series(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficients of f(g(x)); requires g_0 = 0.

    Output indices run 0 .. n = min(N_f, N_g) - 1.  (f o g)_m =
    sum_k f_k B_{m,k}(g), and each row of partial Bell polynomials is one
    matrix-vector product: B_{m,k} = sum_j C(m-1, j) g_{m-j} B_{j,k-1}.  Exact
    inputs are g = g'/D, f = f'/E with int g', f'; as B_{m,k}(g) =
    B_{m,k}(g')/D^k, the products run on object-dtype ints with outer weights
    f'_k D^(n-k), and each output is one Fraction over E D^n.
    """
    if g.coeffs[0] != 0:
        raise DomainError("composition requires g_0 = 0")
    n = min(f.order, g.order) - 1
    if n < 1:
        raise DomainError("series too short to compose")
    fc, gc = f.coeffs[: n + 1], g.coeffs[: n + 1]
    if f.is_exact and g.is_exact:
        (gc, D), (fc, E) = _cleared(gc), _cleared(fc)
        fc = [c * D ** (n - k) for k, c in enumerate(fc)]
        dtype, den = object, E * D**n
    else:
        fc, gc = _floats(fc), _floats(gc)
        dtype, den = float, 1
    r = np.arange(n + 1)
    bell = np.zeros((n + 1, n + 1), dtype)  # bell[k, m] = B_{m,k}: row 0, then one product a row
    bell[0, 0] = 1
    with np.errstate(over="ignore", invalid="ignore"):  # TruncatedSeries rejects inf and NaN
        W = np.array(gc, dtype)[r[:, None] - r]  # g_{m-j}; the wrapped j > m meet zero weights
        W *= _binomial_weights(n, dtype)  # W[m, j] = g_{m-j} C(m-1, j), one array fewer alive
        for k in range(1, n + 1):
            np.matmul(W[k:, k - 1 :], bell[k - 1, k - 1 :], out=bell[k, k:])
        out = (np.array(fc, dtype) @ bell).tolist()
    out[0] = fc[0]  # f_0 as stored: f_0 + 0 + ... would lose a -0.0
    if den != 1:
        out = [Fraction(c, den) for c in out]
    return TruncatedSeries(tuple(out))


def _cleared(coeffs) -> tuple[list, int]:
    """Int numerators c' and the least common denominator E of exact coefficients c = c'/E."""
    E = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (E // c.denominator) for c in coeffs], E


def _pascal_rows(n: int):
    """The exact int rows C(r, 0..r) for r = 0..n."""
    row = [1]
    for _ in range(n + 1):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _binomial_weights(n: int, dtype) -> np.ndarray:
    """C(m-1, j) at [m, j < m], else 0, for m, j <= n, from exact Pascal rows.  Float weights view
    one read-only table, replaced whole by one of order n when n passes it; exact ones are new."""
    global _binomials
    W = _binomials  # read once, so that a table another thread publishes is not mixed in
    if dtype is object or n >= len(W):
        W = np.zeros((n + 1, n + 1), dtype)
        try:
            for m, row in enumerate(_pascal_rows(n - 1), 1):
                W[m, :m] = row
        except OverflowError:
            raise DomainError(f"a binomial weight C({m - 1}, j) passed the float range at order "
                              f"{n}; exact coefficients compose at any order") from None
        if dtype is float:
            W.flags.writeable = False
            _binomials = W
    return W[: n + 1, : n + 1]


def _floats(coeffs) -> list:
    try:
        return list(map(float, coeffs))
    except OverflowError:
        raise DomainError("an exact coefficient passed the float range of a float series") from None


def multiply_series(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """(fg)_k = sum_i binom(k, i) f_i g_{k-i} on the common prefix; exact factors as cleared ints.

    When both factors carry certificates over the same weakly log-convex
    weight sequence, the product gets the combined certificate
    (C_f C_g M_0, rho_f + rho_g), re-verified on the stored prefix.
    """
    n_out = min(f.order, g.order)
    if f.is_exact and g.is_exact:
        (fc, E), (gc, D) = _cleared(f.coeffs[: n_out + 1]), _cleared(g.coeffs[: n_out + 1])
        out = []
        for k, row in enumerate(_pascal_rows(n_out)):
            h, tail = (k + 1) // 2, slice(k, k // 2, -1)  # the pairs (i, k - i), i < h
            c = sum(map(mul, row[:h], map(add, map(mul, fc[:h], gc[tail]), map(mul, fc[tail], gc[:h]))))
            out.append(c if k % 2 else c + row[h] * fc[h] * gc[h])  # and the middle term
        out = [Fraction(c, E * D) for c in out] if E * D != 1 else out
    else:  # reduce keeps the loop's sum order (sum compensates floats from 3.12)
        fc, gc = _floats(f.coeffs), _floats(g.coeffs)
        out = [reduce(add, map(mul, map(mul, row, fc), reversed(gc[: k + 1])), 0)
               for k, row in enumerate(_pascal_rows(n_out))]
    cert = None
    if (
        f.certificate is not None
        and g.certificate is not None
        and f.certificate.seq is g.certificate.seq
        and is_log_convex(f.certificate.seq, weak=True).holds
    ):
        W = f.certificate.seq
        log_C = log(f.certificate.C) + log(g.certificate.C) + W.log_M[0]  # M_0 alone may overflow
        C = float(np.exp(log_C)) if log_C <= _LOG_FLOAT_MAX else np.inf  # np.exp would warn
        if not 0 < C < np.inf:
            raise DomainError(f"certificate requires finite C > 0 and rho > 0: C_f C_g M_0 = e^{log_C:.6g}")
        cert = MembershipCertificate(C=C, rho=f.certificate.rho + g.certificate.rho, seq=W)
    return TruncatedSeries(tuple(out), certificate=cert)


def verify_composition_bound(f: TruncatedSeries, g: TruncatedSeries) -> dict:
    """Check |(f o g)_k| <= C* tau^k k! (M o L)_k for 1 <= k <= N.

    tau = rho_g (1 + rho_f C_g) and C* = rho_f C_f C_g / (1 + rho_f C_g) are
    the constants produced by the composition estimate; the bound is asserted
    for k >= 1 (the k = 0 coefficient is not covered by the estimate).
    log M and log L must be convex on 1..N to within compose_sequences' rounding
    slack; otherwise its DomainError is raised.
    Returns a report with per-k log-space slack.  The last M o L is reused
    while both certificate sequences are the same (frozen) objects at the same
    n (one entry, which keeps M, L and M o L alive): a loop like acceptance
    criterion 8 certifies many pairs over one class.
    """
    if f.certificate is None or g.certificate is None:
        raise DomainError("both series need growth certificates")
    if g.coeffs[0] != 0:
        raise DomainError("composition requires g_0 = 0")
    M = f.certificate.seq
    L = g.certificate.seq
    n = min(f.order, g.order) - 1  # the order of f o g
    if n < 2:
        raise DomainError(f"the composition bound needs series of order >= 3, got {n + 1}")
    rho_f, C_f = f.certificate.rho, f.certificate.C
    rho_g, C_g = g.certificate.rho, g.certificate.C
    tau = rho_g * (1.0 + rho_f * C_g)
    C_star = rho_f * C_f * C_g / (1.0 + rho_f * C_g)
    if not (0 < tau < np.inf and 0 < C_star < np.inf):  # an inf or NaN bound certifies nothing
        raise DomainError(f"composition constants tau = {tau}, C* = {C_star} not finite and > 0")
    global _last_compose
    last = _last_compose  # read once, so that an entry another thread stores is not mixed in
    if not (last[0] is M and last[1] is L and last[2] == n):
        last = _last_compose = (M, L, n, compose_sequences(M, L, n))
    ML = last[3]
    fg = compose_series(f, g)
    log_bound = np.arange(1.0, n + 1) * np.log(tau)  # + log C* + log k! + log (M o L)_k in place
    log_bound += np.log(C_star)
    log_bound += _log_factorials(n)[1:]
    log_bound += ML.log_M[1:]
    log_c = _log_abs(fg.coeffs[1:])
    slack = np.where(log_c == -np.inf, np.inf, log_bound - log_c).tolist()  # inf at (f o g)_k = 0
    violations = [k for k, sl in enumerate(slack, 1) if sl < -1e-9]
    lossy = any(isinstance(c, float) and abs(c) > 2.0**53 for c in fg.coeffs[1:])
    return {
        "tau": tau,
        "C_star": C_star,
        "order": n,
        "log_slack": slack,  # slack[i] is for k = i + 1
        "violations": violations,
        "ok": not violations,
        "lossy_float_coefficients": lossy,
    }

