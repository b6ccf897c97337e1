import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.fdb import (
    TruncatedSeries,
    certificate_grid,
    compose_series,
    multiply_series,
    verify_composition_bound,
)
from carleman_lab.seqcore import (
    DomainError,
    MembershipCertificate,
    log_factorial,
    tabulate,
)


def bell_numbers(n):
    """Bell triangle (exact integers)."""
    out = [1]
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        out.append(row[0])
    return out


def horner_compose(f, g):
    """Composition by Horner's scheme over powers of g in Taylor normalisation.

    The Fraction algorithm compose_series used before the Bell recurrence,
    O(N^3) and exact; float inputs are read as the rationals they represent.
    Returns a TruncatedSeries, so integral results collapse to int.
    """
    n = min(f.order, g.order) - 1
    a = [Fraction(f.coeffs[k]) / math.factorial(k) for k in range(n + 1)]
    b = [Fraction(g.coeffs[k]) / math.factorial(k) for k in range(n + 1)]
    c = [Fraction(0)] * (n + 1)
    c[0] = a[n]
    for j in range(n - 1, -1, -1):
        new = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            if c[i] == 0:
                continue
            for m in range(1, n + 1 - i):
                new[i + m] += c[i] * b[m]
        new[0] += a[j]
        c = new
    return TruncatedSeries(tuple(c[k] * math.factorial(k) for k in range(n + 1)))


def _series(draw_coeff, inner):
    """Strategy for a series of order 2..12; an inner series gets g_0 = 0."""
    coeffs = st.lists(draw_coeff, min_size=3, max_size=13)
    if inner:
        coeffs = coeffs.map(lambda cs: [0 * cs[0]] + cs[1:])
    return coeffs.map(lambda cs: TruncatedSeries(tuple(cs)))


INTS = st.integers(-50, 50)
EXACT = st.one_of(INTS, st.fractions(-5, 5, max_denominator=12))
# no magnitudes below 1e-3, whose products would underflow
FLOATS = st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


def oracle_compose(f, g, n):
    """Composition coefficients by enumerating integer compositions (exact)."""
    a = [Fraction(f[k], math.factorial(k)) for k in range(n + 1)]
    b = [Fraction(g[k], math.factorial(k)) for k in range(n + 1)]
    out = [a[0]]
    for k in range(1, n + 1):
        total = Fraction(0)

        def rec(remaining, prod, j):
            nonlocal total
            if remaining == 0:
                total += a[j] * prod
                return
            for part in range(1, remaining + 1):
                rec(remaining - part, prod * b[part], j + 1)

        rec(k, Fraction(1), 0)
        out.append(total)
    return [c * math.factorial(k) for k, c in enumerate(out)]


class TestTruncatedSeries:
    def test_exactness_detection(self):
        assert TruncatedSeries((1, 2, Fraction(1, 3))).is_exact
        assert not TruncatedSeries((1.0, 2, 3)).is_exact

    def test_integral_fractions_collapse(self):
        s = TruncatedSeries((Fraction(4, 2), 1))
        assert s.coeffs[0] == 2 and isinstance(s.coeffs[0], int)

    def test_rejects_short_and_non_finite(self):
        with pytest.raises(DomainError):
            TruncatedSeries((1,))
        with pytest.raises(DomainError):
            TruncatedSeries((1.0, float("inf")))

    def test_certificate_checked_on_prefix(self):
        W = tabulate(lambda k: 0.0, 10, name="analytic")
        cert = MembershipCertificate(C=1.0, rho=1.0, seq=W)
        TruncatedSeries((1, 1, 2), certificate=cert)  # |f_k| <= k!: fine
        with pytest.raises(DomainError):
            TruncatedSeries((1, 1, 100), certificate=cert)


class TestCompose:
    def test_bell_numbers_exact(self):
        n = 26
        f = TruncatedSeries(tuple([1] * (n + 1)))
        g = TruncatedSeries(tuple([0] + [1] * n))
        out = compose_series(f, g)
        oracle = bell_numbers(out.order)
        assert list(out.coeffs) == oracle[: out.order + 1]
        assert out.is_exact

    def test_bell_overflow_regime_stays_exact(self):
        # Bell_24 = 445958869294805289 > 2^53: only the exact path gets it
        n = 26
        f = TruncatedSeries(tuple([1] * (n + 1)))
        g = TruncatedSeries(tuple([0] + [1] * n))
        out = compose_series(f, g)
        assert out.coeffs[24] == 445_958_869_294_805_289
        assert out.coeffs[24] != int(float(out.coeffs[24]))  # not f64-representable

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_against_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        f = [int(v) for v in rng.integers(-3, 4, size=n + 2)]
        g = [0] + [int(v) for v in rng.integers(-3, 4, size=n + 1)]
        out = compose_series(TruncatedSeries(tuple(f)), TruncatedSeries(tuple(g)))
        oracle = oracle_compose(f, g, out.order)
        assert [Fraction(c) for c in out.coeffs] == [Fraction(c) for c in oracle]

    def test_float_path_close_to_exact(self):
        # order 200 is past k = 170, where k! no longer fits a float
        for n in (14, 201):
            f = TruncatedSeries(tuple([1.0] * (n + 1)))
            g = TruncatedSeries(tuple([0.0] + [1.0] * n))
            out = compose_series(f, g)
            oracle = bell_numbers(out.order)
            got = np.array([float(c) for c in out.coeffs])
            np.testing.assert_allclose(got, [float(b) for b in oracle[: out.order + 1]], rtol=1e-12)

    @given(f=_series(INTS, False), g=_series(INTS, True))
    @settings(max_examples=60, deadline=None)
    def test_int_matches_horner_in_value_and_type(self, f, g):
        out, oracle = compose_series(f, g), horner_compose(f, g)
        assert out.coeffs == oracle.coeffs
        assert [type(c) for c in out.coeffs] == [type(c) for c in oracle.coeffs] == [int] * len(out.coeffs)

    @given(f=_series(EXACT, False), g=_series(EXACT, True))
    @settings(max_examples=60, deadline=None)
    def test_fraction_matches_horner_in_value_and_type(self, f, g):
        out, oracle = compose_series(f, g), horner_compose(f, g)
        assert out.coeffs == oracle.coeffs
        assert [type(c) for c in out.coeffs] == [type(c) for c in oracle.coeffs]

    @given(f=_series(FLOATS, False), g=_series(FLOATS, True))
    @settings(max_examples=60, deadline=None)
    def test_float_within_1e12_of_horner(self, f, g):
        # error relative to |f| o |g|, the sum of the magnitudes of all terms,
        # which is the plain relative error when no term cancels
        out, oracle = compose_series(f, g), horner_compose(f, g)
        scale = horner_compose(
            TruncatedSeries(tuple(abs(c) for c in f.coeffs)),
            TruncatedSeries(tuple(abs(c) for c in g.coeffs)),
        )
        assert all(isinstance(c, float) for c in out.coeffs)
        for got, want, mag in zip(out.coeffs, oracle.coeffs, scale.coeffs):
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * mag

    def test_requires_zero_constant_term(self):
        f = TruncatedSeries((1, 1, 1))
        with pytest.raises(DomainError):
            compose_series(f, TruncatedSeries((1, 1, 1)))

    def test_linear_inner_is_rescale(self):
        # g(x) = c x: (f o g)_k = c^k f_k
        f = TruncatedSeries((3, 1, 4, 1, 5, 9, 2, 6))
        g = TruncatedSeries((0, 2, 0, 0, 0, 0, 0, 0))
        out = compose_series(f, g)
        assert list(out.coeffs) == [3 * 1, 1 * 2, 4 * 4, 1 * 8, 5 * 16, 9 * 32, 2 * 64]


class TestMultiply:
    def test_binomial_convolution(self):
        f = TruncatedSeries((1, 2, 3))
        g = TruncatedSeries((4, 5, 6))
        out = multiply_series(f, g)
        # (fg)_2 = C(2,0) 1*6 + C(2,1) 2*5 + C(2,2) 3*4 = 6 + 20 + 12
        assert list(out.coeffs) == [4, 13, 38]

    def test_exp_times_exp(self):
        # e^x * e^x = e^{2x}: derivative coefficients 2^k
        n = 10
        e = TruncatedSeries(tuple([1] * (n + 1)))
        out = multiply_series(e, e)
        assert list(out.coeffs) == [2**k for k in range(n + 1)]

    def test_certificate_combination(self):
        W = tabulate(lambda k: 0.0, 12, name="analytic")
        cf = MembershipCertificate(C=2.0, rho=1.0, seq=W)
        cg = MembershipCertificate(C=3.0, rho=2.0, seq=W)
        f = TruncatedSeries((1, 1, 1), certificate=cf)
        g = TruncatedSeries((1, 2, 4), certificate=cg)
        out = multiply_series(f, g)
        assert out.certificate is not None
        assert out.certificate.C == pytest.approx(6.0)
        assert out.certificate.rho == pytest.approx(3.0)

    def test_no_certificate_when_bases_differ(self):
        W1 = tabulate(lambda k: 0.0, 12, name="a")
        W2 = tabulate(lambda k: 0.1 * k, 12, name="b")
        f = TruncatedSeries((1, 1), certificate=MembershipCertificate(1.0, 1.0, W1))
        g = TruncatedSeries((1, 1), certificate=MembershipCertificate(1.0, 1.0, W2))
        assert multiply_series(f, g).certificate is None


class TestCompositionBound:
    def _analytic_pair(self, n=16):
        W = tabulate(lambda k: 0.0, n + 2, name="analytic", claims={"log-convex"})
        cert = MembershipCertificate(C=1.0, rho=1.0, seq=W)
        f = TruncatedSeries(tuple([1] * (n + 1)), certificate=cert)
        g = TruncatedSeries(tuple([0] + [1] * n), certificate=cert)
        return f, g

    def test_bell_pair_within_bound(self):
        f, g = self._analytic_pair()
        rep = verify_composition_bound(f, g)
        assert rep["ok"]
        assert rep["violations"] == []
        assert rep["tau"] == pytest.approx(2.0)
        assert rep["C_star"] == pytest.approx(0.5)
        # the bound is sharp at k = 1: slack exactly 0
        assert rep["log_slack"][0] == pytest.approx(0.0, abs=1e-12)

    def test_requires_certificates(self):
        f = TruncatedSeries((1, 1, 1))
        g = TruncatedSeries((0, 1, 1))
        with pytest.raises(DomainError):
            verify_composition_bound(f, g)

    def test_random_certified_pairs(self):
        rng = np.random.default_rng(2024)
        ks = np.arange(0, 14, dtype=float)
        W = tabulate(list(0.3 * ks * np.log(ks + 1.0)), 13, name="w", claims={"log-convex"})
        for _ in range(40):
            fc = rng.normal(size=13) * np.exp(log_factorial(np.arange(13, dtype=float)) * 0.3)
            gc = rng.normal(size=13)
            gc[0] = 0.0
            rho_f = rho_g = 2.0
            from carleman_lab.seqcore import fm_membership

            cf = MembershipCertificate(
                C=max(fm_membership(list(fc), W, rho_f), 1e-6), rho=rho_f, seq=W
            )
            cg = MembershipCertificate(
                C=max(fm_membership(list(gc), W, rho_g), 1e-6), rho=rho_g, seq=W
            )
            f = TruncatedSeries(tuple(fc), certificate=cf)
            g = TruncatedSeries(tuple(gc), certificate=cg)
            rep = verify_composition_bound(f, g)
            assert rep["violations"] == []


class TestCertificateGrid:
    def test_monotone_in_rho(self):
        W = tabulate(lambda k: 0.0, 8, name="analytic")
        grid = certificate_grid([1.0, 2.0, 6.0, 24.0], W)
        cs = [c for _, c in grid]
        assert all(c2 <= c1 for c1, c2 in zip(cs, cs[1:]))
