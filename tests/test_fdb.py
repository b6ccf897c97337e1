import math
import re
import warnings
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab import fdb
from carleman_lab.envelope import compose_sequences
from carleman_lab.fdb import (
    TruncatedSeries,
    compose_series,
    multiply_series,
    verify_composition_bound,
)
from carleman_lab.seqcore import (
    DomainError,
    MembershipCertificate,
    fm_membership,
    log_factorial,
    rescale,
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


def loop_float_compose(f, g):
    """The per-entry Python Bell loop compose_series ran on float inputs before
    each Bell column became one matrix-vector product."""
    n = min(f.order, g.order) - 1
    fc, gc = tuple(map(float, f.coeffs)), tuple(map(float, g.coeffs))
    w = [[math.comb(m - 1, j) * gc[m - j] for j in range(m)] for m in range(n + 1)]
    out = [fc[0]] + [0] * n
    col = [1] + [0] * n
    for k in range(1, n + 1):
        col = [0] * k + [sum(map(mul, w[m][k - 1 :], col[k - 1 : m])) for m in range(k, n + 1)]
        for m in range(k, n + 1):
            out[m] += fc[k] * col[m]
    return out


def per_call_float_compose(f, g):
    """Float compose_series as it filled its binomial weights W[m, :m] on every call, one
    exact Pascal row at a time, before the weights came from one module table."""
    n = min(f.order, g.order) - 1
    fc, gc = list(map(float, f.coeffs[: n + 1])), list(map(float, g.coeffs[: n + 1]))
    W = np.zeros((n + 1, n + 1))
    for m, row in enumerate(fdb._pascal_rows(n - 1), 1):
        W[m, :m] = row
    r = np.arange(n + 1)
    bell = np.eye(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        W *= np.array(gc)[r[:, None] - r]
        for k in range(1, n + 1):
            bell[k, k:] = W[k:, k - 1 :] @ bell[k - 1, k - 1 :]
        out = (np.array(fc) @ bell).tolist()
    out[0] = fc[0]
    return tuple(out)


def float_pair(n, seed=0):
    """Normal f and g_k 16^-k times normal, so that f o g stays in the float range to order 500;
    f o g has order n."""
    rng = np.random.default_rng(seed)
    f = TruncatedSeries(tuple(rng.normal(size=n + 2)))
    g = TruncatedSeries((0.0,) + tuple(rng.normal(size=n + 1) * 2.0 ** (-4.0 * np.arange(1, n + 2))))
    return f, g


def loop_exact_compose(f, g):
    """The per-entry Python Bell loop compose_series ran on int and Fraction
    inputs before their denominators were cleared for the matrix-vector rows.
    Returns a TruncatedSeries, so integral results collapse to int."""
    n = min(f.order, g.order) - 1
    fc, gc = f.coeffs, g.coeffs
    w = [[math.comb(m - 1, j) * gc[m - j] for j in range(m)] for m in range(n + 1)]
    out = [fc[0]] + [0] * n
    col = [1] + [0] * n
    for k in range(1, n + 1):
        col = [0] * k + [sum(map(mul, w[m][k - 1 :], col[k - 1 : m])) for m in range(k, n + 1)]
        for m in range(k, n + 1):
            out[m] += fc[k] * col[m]
    return TruncatedSeries(tuple(out))


def double_loop_multiply(f, g):
    """multiply_series as a double loop with one math.comb per term."""
    n_out = min(f.order, g.order)
    fc, gc = f.coeffs, g.coeffs
    if not (f.is_exact and g.is_exact):
        fc, gc = tuple(map(float, fc)), tuple(map(float, gc))
    out = []
    for k in range(n_out + 1):
        s = 0
        for i in range(k + 1):
            s += math.comb(k, i) * fc[i] * gc[k - i]
        out.append(s)
    return TruncatedSeries(tuple(out))


def scalar_log_abs(c):
    """log|c| one coefficient at a time; exact coefficients past the float range exactly."""
    try:
        return np.log(abs(float(c)))
    except OverflowError:
        if isinstance(c, Fraction):
            return math.log(abs(c.numerator)) - math.log(c.denominator)
        return math.log(abs(c))


def loop_bound_report(f, g, fg=None):
    """verify_composition_bound with the per-k slack loop (lgamma, scalar logs)."""
    n = min(f.order, g.order) - 1
    ML = compose_sequences(f.certificate.seq, g.certificate.seq, n)
    fg = compose_series(f, g) if fg is None else fg
    rho_f, C_f = f.certificate.rho, f.certificate.C
    rho_g, C_g = g.certificate.rho, g.certificate.C
    tau = rho_g * (1.0 + rho_f * C_g)
    C_star = rho_f * C_f * C_g / (1.0 + rho_f * C_g)
    slack, violations, lossy = [], [], False
    for k in range(1, n + 1):
        ck = fg.coeffs[k]
        if isinstance(ck, float) and abs(ck) > 2.0**53:
            lossy = True
        log_bound = np.log(C_star) + k * np.log(tau) + math.lgamma(k + 1) + ML.log_M[k]
        sl = float("inf") if ck == 0 else float(log_bound - scalar_log_abs(ck))
        slack.append(sl)
        if sl < -1e-9:
            violations.append(k)
    return {
        "tau": tau,
        "C_star": C_star,
        "order": n,
        "log_slack": slack,
        "violations": violations,
        "ok": not violations,
        "lossy_float_coefficients": lossy,
    }


def float_fm_membership(coeffs, W, rho):
    """fm_membership as it read every coefficient: through float."""
    f = np.array([float(c) for c in coeffs])
    ks = np.arange(len(f), dtype=float)
    nz = f != 0.0
    if not np.any(nz):
        return 0.0
    log_ratio = (
        np.log(np.abs(f[nz])) - ks[nz] * np.log(rho) - log_factorial(ks[nz]) - W.log_M[: len(f)][nz]
    )
    return float(np.exp(np.max(log_ratio)))


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
MIXED = st.one_of(INTS, EXACT, FLOATS)


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

    @pytest.mark.parametrize("C, rho", [(3, 2), (Fraction(7, 2), Fraction(1, 2))])
    def test_exact_constants_in_float_range(self, C, rho):
        W = tabulate(lambda k: 0.0, 10, name="analytic")
        cert = MembershipCertificate(C=C, rho=rho, seq=W)
        assert (cert.C, cert.rho) == (float(C), float(rho))
        TruncatedSeries((1, 1, 1), certificate=cert)  # rho reaches np.log as a float


class TestCertificateMagnitudes:
    """Certificate checks take log|c| of exact coefficients without float()."""

    W0 = tabulate(lambda k: 0.0, 10, name="analytic")
    W1000 = tabulate(lambda k: 1000.0, 10, name="huge")

    @pytest.mark.parametrize("big", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_exact_past_float_range(self, big):
        with pytest.raises(DomainError, match="certificate violated"):
            TruncatedSeries((big, 1, 1), certificate=MembershipCertificate(1.0, 1.0, self.W0))
        # log 10^400 = 921.03 < log M_0 = 1000
        s = TruncatedSeries((big, 1, 1), certificate=MembershipCertificate(1.0, 1.0, self.W1000))
        assert s.coeffs[0] == big and type(s.coeffs[0]) is type(big)
        denominator = big.denominator if isinstance(big, Fraction) else 1
        want = math.exp(math.log(10**400) - math.log(denominator) - 1000.0)
        assert fm_membership(s.coeffs, self.W1000, 1.0) == pytest.approx(want, rel=1e-12)

    @given(cs=st.lists(MIXED, min_size=2, max_size=11), rho=st.floats(0.25, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_in_float_range_as_through_float(self, cs, rho):
        W = tabulate(lambda k: 0.3 * k * math.log(k + 1.0), 10, name="w")
        got, want = fm_membership(cs, W, rho), float_fm_membership(cs, W, rho)
        assert repr(got) == repr(want)
        C = want / 2 if want > 0 else 1.0
        if want > C * (1.0 + 1e-12):
            with pytest.raises(DomainError, match=re.escape(f"needs C >= {want}, has {C}") + "$"):
                TruncatedSeries(tuple(cs), certificate=MembershipCertificate(C, rho, W))


    def test_exact_rho_is_read_as_float(self):
        cs = (1, Fraction(-2, 3), 5.0, 10**20)
        W = tabulate(lambda k: 0.3 * k, 10, name="w")
        assert repr(fm_membership(cs, W, Fraction(1, 3))) == repr(fm_membership(cs, W, 1 / 3))


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

    @given(f=_series(MIXED, False), g=_series(FLOATS, True))
    @settings(max_examples=80, deadline=None)
    def test_float_within_1e12_of_the_loop(self, f, g):
        # error relative to |f| o |g|, as above
        out, loop = compose_series(f, g), loop_float_compose(f, g)
        scale = horner_compose(
            TruncatedSeries(tuple(abs(c) for c in f.coeffs)),
            TruncatedSeries(tuple(abs(c) for c in g.coeffs)),
        )
        for got, want, mag in zip(out.coeffs, loop, scale.coeffs):
            assert abs(Fraction(got) - Fraction(want)) <= Fraction(1e-12) * mag

    def test_float_keeps_f0_as_stored(self):
        f, g = TruncatedSeries((-0.0, 1.0, 2.0, 3.0)), TruncatedSeries((0.0, 1.0, -1.0, 1.0))
        assert repr(compose_series(f, g).coeffs) == repr(tuple(loop_float_compose(f, g)))

    @pytest.mark.parametrize("n", [60, 160, 200])
    def test_float_bell_columns_within_1e12_of_the_loop(self, n):
        # |f| o |g| = f o g here: the Bell numbers
        f = TruncatedSeries(tuple([1.0] * (n + 2)))
        g = TruncatedSeries(tuple([0.0] + [1.0] * (n + 1)))
        bell = np.array([float(b) for b in bell_numbers(n)])
        got = np.array(compose_series(f, g).coeffs)
        np.testing.assert_allclose(got, loop_float_compose(f, g), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, bell, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "n, g_big", [(300, None), (40, 20), (40, 40)], ids=["bell-300", "g20-big", "g40-big"]
    )
    def test_float_overflow_raises_non_finite(self, n, g_big):
        # 2 e^x o (e^x - 1) at order 300 passes the float range (S(300, k) > 1.8e308), as
        # does C(m-1, j) g_{m-j} or 2 g_{m-j} once g_{m-j} = 1.7e308 (g_40 is the last one used)
        f = TruncatedSeries(tuple([2.0] * (n + 2)))
        gc = [0.0] + [1.0] * (n + 1)
        if g_big is not None:
            gc[g_big] = 1.7e308
        g = TruncatedSeries(tuple(gc))
        loop = loop_float_compose(f, g)
        assert not all(map(math.isfinite, loop))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite coefficient"):
                compose_series(f, g)

    def test_float_binomial_weight_past_float_range(self):
        # e^x o 2^-40 (e^x - 1) stays small, but C(1030, 515) > 1.8e308 is a weight of order 1100
        compose_series(*float_pair(200))
        table = fdb._binomials
        n = 1100
        f = TruncatedSeries(tuple([1.0] * (n + 2)))
        g = TruncatedSeries(tuple([0.0] + [2.0**-40] * (n + 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="binomial weight .* passed the float range"):
                compose_series(f, g)
        # the failed growth publishes nothing
        assert fdb._binomials is table and not table.flags.writeable
        f, g = float_pair(200, seed=1)
        assert repr(compose_series(f, g).coeffs) == repr(per_call_float_compose(f, g))

    def test_float_binomial_table_grows_to_the_largest_order(self, monkeypatch):
        monkeypatch.setattr(fdb, "_binomials", np.zeros((1, 1)))
        tables = []
        for n in (200, 11, 300, 160):
            compose_series(*float_pair(n))
            tables.append(fdb._binomials)
        assert [t.shape for t in tables] == [(201, 201)] * 2 + [(301, 301)] * 2
        assert tables[0] is tables[1] and tables[2] is tables[3]
        assert not any(t.flags.writeable for t in tables)
        for n in [*range(2, 13), 60, 160, 200, 500]:
            f, g = float_pair(n, seed=n)
            assert repr(compose_series(f, g).coeffs) == repr(per_call_float_compose(f, g)), n
        assert fdb._binomials.shape == (501, 501)

    def test_exact_coefficient_past_float_range_in_a_float_series(self):
        f, g = TruncatedSeries((10**400, 1, 1, 1)), TruncatedSeries((0.0, 1.0, 1.0, 1.0))
        for op in (compose_series, multiply_series):
            with pytest.raises(DomainError, match="exact coefficient passed the float range"):
                op(f, g)

    @pytest.mark.parametrize("n", [48, 200])
    @pytest.mark.parametrize(
        "f_one, g_one",
        [(1, 1), (Fraction(1, 3), Fraction(1, 3)), (Fraction(5, 7), Fraction(-7, 12))],
        ids=["int", "third", "mixed-7-12"],
    )
    def test_exact_as_the_loop_in_value_and_type(self, n, f_one, g_one):
        # D^n and E D^n at n = 200, far past the orders the Horner tests draw
        f = TruncatedSeries(tuple(f_one * (k % 3 + 1) for k in range(n + 2)))
        g = TruncatedSeries((0,) + tuple(g_one * (-1) ** k for k in range(n + 1)))
        assert repr(compose_series(f, g).coeffs) == repr(loop_exact_compose(f, g).coeffs)

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

    @pytest.mark.parametrize(
        "coeff", [INTS, EXACT, FLOATS, MIXED], ids=["int", "fraction", "float", "mixed"]
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_double_loop_bit_for_bit(self, coeff, data):
        f = data.draw(_series(coeff, False))
        g = data.draw(_series(coeff, False))
        out, want = multiply_series(f, g), double_loop_multiply(f, g)
        assert repr(out.coeffs) == repr(want.coeffs)  # value and type

    @pytest.mark.parametrize("one", [1, 1.0, Fraction(1, 3)])
    def test_double_loop_bit_for_bit_at_order_300(self, one):
        rng = np.random.default_rng(5)
        f = TruncatedSeries(tuple(one * int(v) for v in rng.integers(-9, 10, size=301)))
        g = TruncatedSeries(tuple(one * float(v) if isinstance(one, float) else one * int(v)
                                  for v in rng.normal(size=301) * 7))
        assert repr(multiply_series(f, g).coeffs) == repr(double_loop_multiply(f, g).coeffs)

    def test_exact_mixed_denominators_at_order_200(self):
        # E D = 84 over the cleared products; some outputs are integral and collapse to int
        n = 200
        f = TruncatedSeries(tuple(Fraction(5, 7) * (k % 3 + 1) for k in range(n + 1)))
        g = TruncatedSeries(tuple(Fraction(-7, 12) * (-1) ** k * (k % 5 + 1) for k in range(n + 1)))
        assert repr(multiply_series(f, g).coeffs) == repr(double_loop_multiply(f, g).coeffs)

    @pytest.mark.parametrize("big", [2**53 + 1, 10**400, Fraction(10**400 + 1, 3)],
                             ids=["past-2^53", "past-float-range", "fraction-past-float-range"])
    def test_exact_past_float_in_value_and_type(self, big):
        rng = np.random.default_rng(11)
        f = TruncatedSeries(tuple(big + int(v) for v in rng.integers(-(10**6), 10**6, size=41)))
        g = TruncatedSeries(tuple(int(v) * big for v in rng.integers(-9, 10, size=37)))
        out = multiply_series(f, g)
        assert repr(out.coeffs) == repr(double_loop_multiply(f, g).coeffs)
        assert out.order == 36 and all(out.coeffs)  # repr: the same value and type

    @pytest.mark.parametrize("exact", ["int", "fraction"])
    def test_every_output_index_to_14_on_distinct_primes(self, exact):
        # every f_i g_j is a distinct product of primes, so a term paired with the wrong
        # partner or a middle term counted twice changes the sum; odd and even k alike
        primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]  # 62 primes
        for n in range(1, 15):
            fc, gc = primes[: n + 1], primes[15:30]
            if exact == "fraction":
                fc = [Fraction(p, q) for p, q in zip(fc, primes[30:])]
                gc = [Fraction(p, q) for p, q in zip(gc, primes[45:])]
            f, g = TruncatedSeries(tuple(fc)), TruncatedSeries(tuple(gc))
            for a, b in ((f, g), (g, f)):
                out = multiply_series(a, b)
                assert out.order == n
                assert repr(out.coeffs) == repr(double_loop_multiply(a, b).coeffs), n

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

    def test_combined_constant_past_float_range_raises(self):
        # C_f C_g M_0 = 1e400 would be an inf constant, whose composition bound is NaN
        W = tabulate(lambda k: 0.0, 12, name="analytic")
        f = TruncatedSeries((1, 1), certificate=MembershipCertificate(1e200, 1.0, W))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite C > 0 and rho > 0"):
                multiply_series(f, f)

    def test_combined_constant_from_logs(self):
        # M_0 = e^800 is past the float range; C_f C_g M_0 is taken from logs and raises only
        # when it leaves (0, float max) itself, naming the combined constant, without a warning
        W = tabulate(lambda k: 800.0 + k, 12, name="huge")
        W0 = tabulate(lambda k: 0.0, 12, name="analytic")
        cases = [(1.0, W, (1, 1), "e^800"), (1e-200, W0, (1e-200, 1e-200), "e^-921.034")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for C, basis, coeffs, constant in cases:
                f = TruncatedSeries(coeffs, certificate=MembershipCertificate(C, 1.0, basis))
                with pytest.raises(DomainError, match=re.escape(f": C_f C_g M_0 = {constant}") + "$"):
                    multiply_series(f, f)
            f = TruncatedSeries((1, 1), certificate=MembershipCertificate(1e-200, 1.0, W))
            out = multiply_series(f, f)
        assert out.coeffs == (1, 2) and out.certificate.rho == 2.0
        assert out.certificate.C == pytest.approx(math.exp(800.0 + 2 * math.log(1e-200)), rel=1e-13)

    def test_no_certificate_when_bases_differ(self):
        W1 = tabulate(lambda k: 0.0, 12, name="a")
        W2 = tabulate(lambda k: 0.1 * k, 12, name="b")
        f = TruncatedSeries((1, 1), certificate=MembershipCertificate(1.0, 1.0, W1))
        g = TruncatedSeries((1, 1), certificate=MembershipCertificate(1.0, 1.0, W2))
        assert multiply_series(f, g).certificate is None

    def test_no_certificate_when_the_basis_is_not_weakly_log_convex(self):
        # log(k! M_k) is concave at k = 1, so (C^2 M_0, 2) does not bound f^2:
        # the product is returned without a certificate instead of raising
        W = tabulate([0, 5, -20, 5, 0, 0, 0, 0], 7)
        fc = tuple(math.factorial(k) * math.exp(W.log_M[k]) for k in range(8))
        f = TruncatedSeries(fc, certificate=MembershipCertificate(fm_membership(fc, W, 1.0), 1.0, W))
        out = multiply_series(f, f)
        assert out.certificate is None
        assert repr(out.coeffs) == repr(double_loop_multiply(f, f).coeffs)


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

    def test_exact_coefficients_past_float_range(self):
        # (f o g)_k = B_k and B_k / 3 pass 1.8e308 near k = 220; their logs are taken exactly
        f, g = self._analytic_pair(230)
        third = TruncatedSeries(tuple(Fraction(1, 3) for _ in f.coeffs), certificate=f.certificate)
        rep, rep3 = verify_composition_bound(f, g), verify_composition_bound(third, g)
        assert rep["ok"] and rep3["ok"]
        with pytest.raises(OverflowError):
            float(compose_series(f, g).coeffs[-1])
        np.testing.assert_allclose(
            np.subtract(rep3["log_slack"], rep["log_slack"]), math.log(3.0), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("order", [1, 2])
    def test_short_series_rejected_before_composing(self, order):
        f, g = self._analytic_pair(order)
        with pytest.raises(DomainError, match="series of order >= 3, got " + str(order)):
            verify_composition_bound(f, g)

    def test_order_three_is_the_shortest_bound(self):
        rep = verify_composition_bound(*self._analytic_pair(3))
        assert rep["order"] == 2 and rep["ok"]

    @pytest.mark.parametrize(
        "n, one", [(16, 1), (48, 1), (200, 1), (230, 1), (230, Fraction(1, 3)), (40, 1.0)]
    )
    def test_slack_loop_bit_for_bit(self, n, one):
        # orders 200 and 230 are the exact Bell bound inside and past the float
        # range; float order 40 has coefficients past 2^53
        f, g = self._analytic_pair(n)
        f = TruncatedSeries(tuple(one * c for c in f.coeffs), certificate=f.certificate)
        g = TruncatedSeries(tuple(one * 0 + c for c in g.coeffs), certificate=g.certificate)
        rep = verify_composition_bound(f, g)
        assert repr(rep) == repr(loop_bound_report(f, g))
        assert rep["lossy_float_coefficients"] == isinstance(one, float)

    def test_slack_loop_bit_for_bit_on_zero_coefficients(self):
        # f(x) = x + x^3 / 3! and g(x) = x: (f o g)_k = 0 at every even k
        W = tabulate(lambda k: 0.0, 14, name="analytic", claims={"log-convex"})
        cert = MembershipCertificate(C=1.0, rho=1.0, seq=W)
        for one in (1, 1.0):
            f = TruncatedSeries(tuple(one * c for c in (0, 1, 0, 1) + (0,) * 6), certificate=cert)
            g = TruncatedSeries(tuple(one * c for c in (0, 1) + (0,) * 8), certificate=cert)
            rep = verify_composition_bound(f, g)
            assert rep["log_slack"][1] == math.inf
            assert repr(rep) == repr(loop_bound_report(f, g))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_slack_loop_bit_for_bit_on_random_certified_pairs(self, seed):
        # the compose benchmark's recipe for its 200 criterion-8 pairs, copied
        rng = np.random.default_rng(seed)
        ks = np.arange(0, 14, dtype=float)
        log_fact13 = np.array([math.lgamma(k + 1.0) for k in range(13)])
        pairs = []
        for _ in range(200):
            fc = rng.normal(size=13) * np.exp(rng.uniform(0.0, 0.5) * log_fact13)
            gc = rng.normal(size=13)
            gc[0] = 0.0
            rho_f, rho_g = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
            pairs.append((tuple(fc), tuple(gc), rho_f, rho_g))
        W = tabulate(list(0.4 * ks * np.log(ks + 1.0)), 13, name="w", claims={"log-convex"})
        for fc, gc, rho_f, rho_g in pairs:
            f = TruncatedSeries(fc, certificate=MembershipCertificate(
                max(fm_membership(fc, W, rho_f), 1e-9), rho_f, W))
            g = TruncatedSeries(gc, certificate=MembershipCertificate(
                max(fm_membership(gc, W, rho_g), 1e-9), rho_g, W))
            report = verify_composition_bound(f, g)
            assert repr(report) == repr(loop_bound_report(f, g)) and report["ok"]

    @pytest.mark.parametrize("big", [10**400, -(10**400), Fraction(10**400, 3), 1e300])
    def test_reports_a_violation(self, monkeypatch, big):
        # a (f o g)_5 past the bound, exact past the float range or a float inside it
        f, g = self._analytic_pair(12)
        fg = compose_series(f, g)
        fg = TruncatedSeries(fg.coeffs[:5] + (big,) + fg.coeffs[6:])
        monkeypatch.setattr(fdb, "compose_series", lambda f, g: fg)
        rep = verify_composition_bound(f, g)
        assert rep["violations"] == [5] and not rep["ok"]
        assert rep["lossy_float_coefficients"] == isinstance(big, float)
        assert repr(rep) == repr(loop_bound_report(f, g, fg))

    @staticmethod
    def _certified_pair(W, n, seed):
        rng = np.random.default_rng(seed)
        fc = tuple(rng.normal(size=n + 1))
        gc = (0.0,) + tuple(rng.normal(size=n))
        return (TruncatedSeries(fc, certificate=MembershipCertificate(
                    max(fm_membership(fc, W, 1.5), 1e-9), 1.5, W)),
                TruncatedSeries(gc, certificate=MembershipCertificate(
                    max(fm_membership(gc, W, 2.0), 1e-9), 2.0, W)))

    def _counting(self, monkeypatch):
        calls = []

        def spy(M, L, n):
            calls.append(n)
            return compose_sequences(M, L, n)

        monkeypatch.setattr(fdb, "compose_sequences", spy)
        return calls

    def test_consecutive_calls_over_one_basis_compose_once(self, monkeypatch):
        calls = self._counting(monkeypatch)
        W = tabulate(lambda k: 0.3 * k * math.log(k + 1.0), 13, name="w")
        for seed in range(3):
            f, g = self._certified_pair(W, 13, seed)
            assert repr(verify_composition_bound(f, g)) == repr(loop_bound_report(f, g))
        assert calls == [12]

    def test_same_name_and_length_other_values_recompose(self, monkeypatch):
        calls = self._counting(monkeypatch)
        W1 = tabulate(lambda k: 0.3 * k * math.log(k + 1.0), 13, name="w")
        W2 = tabulate(lambda k: 0.5 * k * math.log(k + 1.0), 13, name="w")
        reports = []
        for W in (W1, W2, W1):
            f, g = self._certified_pair(W, 13, 0)
            reports.append(repr(verify_composition_bound(f, g)))
            assert reports[-1] == repr(loop_bound_report(f, g))
        assert reports[0] != reports[1] and reports[0] == reports[2]
        assert calls == [12, 12, 12]

    def test_same_sequences_at_another_order_recompose(self, monkeypatch):
        calls = self._counting(monkeypatch)
        W = tabulate(lambda k: 0.3 * k * math.log(k + 1.0), 13, name="w")
        for n in (13, 8, 13):
            f, g = self._certified_pair(W, n, n)
            assert repr(verify_composition_bound(f, g)) == repr(loop_bound_report(f, g))
        assert calls == [12, 7, 12]

    def test_a_raising_composition_leaves_no_entry(self, monkeypatch):
        W = tabulate(lambda k: 0.3 * k * math.log(k + 1.0), 13, name="w")
        f, g = self._certified_pair(W, 13, 0)

        def boom(M, L, n):
            raise DomainError("composition failed")

        monkeypatch.setattr(fdb, "compose_sequences", boom)
        with pytest.raises(DomainError, match="composition failed"):
            verify_composition_bound(f, g)
        calls = self._counting(monkeypatch)
        assert repr(verify_composition_bound(f, g)) == repr(loop_bound_report(f, g))
        assert calls == [12]

    def test_non_convex_weight_raises_and_keeps_the_entry(self):
        # a random walk rises far above its hull, so compose_sequences raises, and the
        # entry of the last composition stays as it was
        W = tabulate(lambda k: 0.3 * k * math.log(k + 1.0), 13, name="w")
        verify_composition_bound(*self._certified_pair(W, 13, 0))
        entry = fdb._last_compose
        walk = tabulate(list(np.cumsum(np.random.default_rng(5).normal(size=14))), 13, name="walk")
        with pytest.raises(DomainError, match=r"^log [ML] is not convex on 1\.\.12: it rises "):
            verify_composition_bound(*self._certified_pair(walk, 13, 1))
        assert fdb._last_compose is entry and entry[0] is W

    def test_constants_past_float_range_raise(self):
        # tau = 1e300 (1 + 1e600) = inf and C* = inf / inf = NaN would make every slack NaN
        cert = MembershipCertificate(1e300, 1e300, tabulate([0.0] * 5, 4))
        f = TruncatedSeries((1.0, 1.0, 1.0, 1.0), certificate=cert)
        g = TruncatedSeries((0.0, 1.0, 1.0, 1.0), certificate=cert)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"tau = inf, C\* = nan not finite"):
                verify_composition_bound(f, g)

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


_W = tabulate(lambda k: 0.0, 5, name="analytic")
_CERTIFIED_ONES = TruncatedSeries((1, 1, 1, 1), certificate=MembershipCertificate(1.0, 1.0, _W))


@pytest.mark.parametrize("call, message", [
    (lambda: fm_membership([], _W, 1.0), "need at least one coefficient"),
    (lambda: fm_membership([1.0] * 7, _W, 1.0), "does not cover the coefficient range"),
    (lambda: compose_series(TruncatedSeries((1, 1)), TruncatedSeries((0, 1, 1, 1))),
     "series too short to compose"),
    (lambda: verify_composition_bound(_CERTIFIED_ONES, _CERTIFIED_ONES),
     "composition requires g_0 = 0"),
    (lambda: rescale(_W, 0.0, 1.0), "rescale requires C > 0 and rho > 0"),
    (lambda: fm_membership([1.0, math.nan, 1.0], _W, 1.0), "non-finite coefficient at k=1"),
    (lambda: fm_membership([1.0, 1.0, -math.inf], _W, 1.0), "non-finite coefficient at k=2"),
    (lambda: fm_membership([1.0, 1.0], _W, 10**400), "rho must be positive and finite"),
], ids=["no coefficients", "past the prefix", "order-1 outer series", "certified g_0 != 0",
        "zero rescale constant", "NaN coefficient", "inf coefficient", "int rho past float"])
def test_input_guard_raises_domain_error(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
