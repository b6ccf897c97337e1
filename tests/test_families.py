import math

import numpy as np
import pytest

from carleman_lab.envelope import check_scale, check_sequence
from carleman_lab.families import (
    FamilySpec,
    builtin_sequences,
    kappa,
    make_family,
    p_scale,
    parse_family,
    q_scale,
)
from carleman_lab import cli
from carleman_lab.envelope import _compensated_cumsum, uncheck_scale
from carleman_lab.seqcore import DerivedScales, DomainError, WeightSequence, log_factorial, tabulate


class TestKappa:
    def test_tower_values(self):
        # ceil(e) = 3, ceil(e^e) = ceil(15.154...) = 16,
        # ceil(e^(e^e)) = ceil(3814279.104...) = 3814280
        assert kappa(1) == 3
        assert kappa(2) == 16
        assert kappa(3) == 3_814_280

    def test_kappa_just_clears_the_log_tower(self):
        # log^n is positive at kappa_n and the tower argument of depth n+1
        # would not be: e^(e^e) < kappa_3 <= e^(e^e) + 1
        assert math.exp(math.exp(math.e)) < kappa(3) <= math.exp(math.exp(math.e)) + 1
        assert math.log(math.log(math.log(kappa(3)))) > 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            kappa(4)


class TestQScale:
    def test_depth_one_formula(self):
        ks = np.array([3.0, 10.0, 100.0])
        np.testing.assert_allclose(q_scale(1.0, 1, ks), ks * np.log(ks), rtol=1e-15)

    def test_recursive_formula_depth_two(self):
        ks = np.array([16.0, 50.0, 1000.0])
        expect = ks * np.log(ks) * np.log(np.log(ks)) ** 0.5
        np.testing.assert_allclose(q_scale(0.5, 2, ks), expect, rtol=1e-14)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            q_scale(1.0, 2, np.array([10.0]))  # below kappa_2 = 16
        with pytest.raises(DomainError):
            q_scale(0.5, 1, np.array([5.0]))  # delta < 1 needs depth >= 2


class TestMakeFamily:
    def test_all_start_at_one(self):
        for name, W in builtin_sequences(k_max=50).items():
            assert W.log_M[0] == 0.0, name
            assert W.k_min == 0, name

    def test_q18_first_value(self):
        W = make_family(FamilySpec("q18"), k_max=10)
        # Q_1 = 1 * log(1 + e) / 1! > 1
        assert W.log_M[1] == pytest.approx(math.log(math.log(1 + math.e)), rel=1e-15)
        assert W.log_M[1] > 0.0

    def test_q18_prime_check_scale_is_k(self):
        W = make_family(FamilySpec("q18_prime"), k_max=300)
        sc = DerivedScales.from_weight_sequence(W)
        got = check_scale(sc)
        ks = np.arange(1, 301, dtype=float)
        np.testing.assert_allclose(got, np.log(ks), rtol=1e-10, atol=1e-10)

    def test_q18_prime_sandwich(self):
        # q'_k is comparable to k log(k + e) on the whole tabulated range
        W = make_family(FamilySpec("q18_prime"), k_max=5000)
        sc = DerivedScales.from_weight_sequence(W)
        ks = np.arange(1, 5001, dtype=float)
        ratio = np.exp(sc.log_m) / (ks * np.log(ks + math.e))
        window = ratio[9:]
        assert np.all(window >= 0.5) and np.all(window <= 3.0)

    def test_q18pp_value(self):
        W = make_family(FamilySpec("q18_doubleprime"), k_max=10)
        assert W.log_M[4] == pytest.approx(4 * math.log(math.log(4 + math.e)), rel=1e-15)

    def test_shifted_families_match_scale(self):
        # Q^{delta,n}_k = q(k-1+kappa)^{k-1+kappa} / (k-1+kappa)!
        W = make_family(FamilySpec("q_delta_n", delta=0.5, n=2), k_max=20)
        kap = kappa(2)
        for k in (1, 7, 20):
            idx = k - 1 + kap
            q = float(q_scale(0.5, 2, np.array([float(idx)]))[0])
            expect = idx * math.log(q) - math.lgamma(idx + 1)
            assert W.log_M[k] == pytest.approx(expect, rel=1e-13)

    def test_parse_round_trip(self):
        for token in ("analytic", "gevrey:1.5", "q18", "q18p", "q18pp", "q:0.5:2", "qhat:1:2", "p:0.3:2"):
            spec = parse_family(token)
            assert parse_family(spec.label()) == spec

    def test_parse_rejects_garbage(self):
        for bad in ("", "q18:1", "gevrey", "q:2:2", "q:0.5:9", "qhat:2:2", "frob"):
            with pytest.raises(DomainError):
                parse_family(bad)


class TestHatAndPScales:
    def test_hat_defining_identity(self):
        ks, hat = p_scale(1.0, 1, 500)  # hat-q^{1,2} = p^{1,1}
        base = q_scale(1.0, 1, ks)
        rhs = base * (1.0 + np.cumsum(1.0 / base))
        np.testing.assert_allclose(hat, rhs, rtol=1e-12)

    def test_hat_tracks_plain_scale_depth_two(self):
        # hat-q^{1,2} and q^{1,2} agree to within a slowly-varying factor
        ks, hat = p_scale(1.0, 1, 100_000)
        ratio = hat / q_scale(1.0, 2, ks)
        assert 0.9 < ratio.min() and ratio.max() < 1.1

    def test_p_scale_ordering(self):
        # smaller delta gives the smaller scale: p^{0.3,2} <= p^{0.7,2}
        k_hi = 20_000
        _, p3 = p_scale(0.3, 2, k_hi)
        _, p7 = p_scale(0.7, 2, k_hi)
        ratio = p3 / p7
        assert np.all(ratio <= 1.0)
        assert ratio[-1] < 0.85  # separation is visible well inside the range

    # every DomainError message of the companion-scale builders, pinned verbatim
    @pytest.mark.parametrize("call, message", [
        (lambda: p_scale(1.0, 0, 100), "hat scale needs tower depth n >= 2"),
        (lambda: p_scale(1.0, 3, 10**6), "kappa supported only for 1 <= n <= 3"),
        (lambda: p_scale(1.0, 1, 10), "k_hi must be >= kappa_2 = 16"),
        (lambda: p_scale(1.0, 2, 100), "k_hi must be >= kappa_3 = 3814280"),
        (lambda: p_scale(0.5, 2, 10), "k_hi must be >= kappa_2 = 16"),
        (lambda: p_scale(0.5, 1, 100), "only delta = 1 is defined at tower depth 1"),
        (lambda: p_scale(0.0, 2, 100), "delta must be in (0, 1]"),
        (lambda: p_scale(0.5, 0, 100), "kappa supported only for 1 <= n <= 3"),
        (lambda: make_family(parse_family("qhat:1:1"), 50), "hat scale needs tower depth n >= 2"),
        (lambda: make_family(parse_family("p:1:3"), 50), "kappa supported only for 1 <= n <= 3"),
    ], ids=[
        "p(1,0)", "p(1,3)", "p(1,1)-short", "p(1,2)-short", "p(0.5,2)-short", "p(0.5,1)",
        "p(0,2)", "p(0.5,0)", "qhat:1:1", "p:1:3",
    ])
    def test_scale_builder_messages(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


class TestKappaOracle:
    def test_tower_values_against_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        x = mpmath.mpf(1)
        for n in (1, 2, 3):
            x = mpmath.exp(x)
            assert kappa(n) == int(mpmath.ceil(x))


# -- per-k oracles: the tabulation formulas the vectorised path replaced ------


def recursive_q_scale(delta, n, ks):
    """The former q^{delta,n}: q^{1,n-1} times the n-fold iterated log of k, to the delta."""
    ks = np.asarray(ks, dtype=float)
    if n == 1:
        return ks * np.log(ks)
    log_n = ks
    for _ in range(n):
        log_n = np.log(log_n)
    return recursive_q_scale(1.0, n - 1, ks) * log_n**delta


def oracle_family(token, k_max):
    """log M_0..k_max by the former per-family code paths."""
    spec = parse_family(token)
    if spec.kind == "analytic":
        return tabulate(lambda k: 0.0, k_max).log_M
    if spec.kind == "gevrey":
        return tabulate(lambda k: spec.s * math.lgamma(k + 1), k_max).log_M
    if spec.kind == "q18":
        def logq18(k):
            if k == 0:
                return 0.0
            return k * math.log(k * math.log(k + math.e)) - math.lgamma(k + 1)
        return tabulate(logq18, k_max).log_M
    if spec.kind == "q18_doubleprime":
        return tabulate(lambda k: k * math.log(math.log(k + math.e)), k_max).log_M
    if spec.kind == "q18_prime":
        ks = np.arange(1, k_max + 1, dtype=float)
        log_m = uncheck_scale(np.log(ks))
        return np.concatenate(([0.0], ks * log_m - log_factorial(ks)))
    if spec.kind == "q_delta_n":
        idx = np.arange(1, k_max + 1, dtype=float) - 1.0 + kappa(spec.n)
        log_scale = np.log(recursive_q_scale(spec.delta, spec.n, idx))
        return np.concatenate(([0.0], idx * log_scale - log_factorial(idx)))
    # qhat / p: the scale at idx = kappa .. k_max - 1 + kappa, numpy-scalar Kahan sums
    if spec.kind == "p_delta_n" and spec.delta == 1.0:
        return oracle_family(f"qhat:1:{spec.n + 1}", k_max)
    if spec.kind == "qhat_1_n":
        ks, scale = oracle_hat_scale(spec.n, k_max - 1 + kappa(spec.n))
    else:
        ks, scale = oracle_p_scale(spec.delta, spec.n, k_max - 1 + kappa(spec.n))
    return np.concatenate(([0.0], (ks * np.log(scale) - log_factorial(ks))[:k_max]))


def oracle_kahan_cumsum(terms):
    out = np.empty_like(terms)
    s = 0.0
    c = 0.0
    for i, t in enumerate(terms):
        y = t - c
        u = s + y
        c = (u - s) - y
        s = u
        out[i] = s
    return out


def oracle_hat_scale(n, k_hi):
    ks = np.arange(kappa(n), k_hi + 1, dtype=float)
    base = recursive_q_scale(1.0, n - 1, ks)
    return ks, base * (1.0 + oracle_kahan_cumsum(1.0 / base))


def oracle_p_scale(delta, n, k_hi):
    if delta == 1.0:
        return oracle_hat_scale(n + 1, k_hi)
    ks = np.arange(kappa(n), k_hi + 1, dtype=float)
    base = recursive_q_scale(delta, n, ks)
    return ks, base * (1.0 + oracle_kahan_cumsum(1.0 / base))


class TestTabulationOracles:
    def test_bit_identical_at_1e4(self):
        # q18 and q18pp take their inner log from np.log instead of math.log,
        # which may differ in the last bit; they are compared below
        tokens = [t for t in builtin_sequences(k_max=8) if t not in ("q18", "q18pp")]
        for token in tokens + ["qhat:1:2", "p:0.5:2", "p:1:1"]:
            W = make_family(parse_family(token), k_max=10_000)
            np.testing.assert_array_equal(W.log_M, oracle_family(token, 10_000), err_msg=token)

    def test_q18_and_q18pp_within_4_ulp_at_1e5(self):
        for token in ("q18", "q18pp"):
            W = make_family(parse_family(token), k_max=100_000)
            np.testing.assert_allclose(W.log_M, oracle_family(token, 100_000), rtol=1e-15, atol=0)

    def test_names_and_claims_unchanged(self):
        lc_qa_mg = {"log-convex", "quasianalytic", "moderate-growth"}
        claims = {
            "analytic": lc_qa_mg | {"derivation-closed"},
            "gevrey:1": {"log-convex", "non-quasianalytic", "moderate-growth", "derivation-closed"},
            "q18": lc_qa_mg,
            "q18p": {"quasianalytic"},
            "q18pp": {"log-convex", "quasianalytic"},
            "q:0.5:2": lc_qa_mg,
            "qhat:1:2": {"quasianalytic"},
            "p:0.5:2": {"quasianalytic"},
            "p:1:1": {"quasianalytic"},
        }
        for token, want in claims.items():
            W = make_family(parse_family(token), k_max=8)
            assert (W.name, W.claims) == (token, want)

    @pytest.mark.parametrize("delta, n", [(1.0, 1)] + [
        (delta, n) for n in (2, 3) for delta in (1.0, 0.999, 0.5, 0.3, 0.1, 0.001)
    ])
    def test_depth_loop_bit_identical_to_recursion(self, delta, n):
        ks = np.arange(kappa(n), kappa(n) + 200_000, dtype=float)
        np.testing.assert_array_equal(q_scale(delta, n, ks), recursive_q_scale(delta, n, ks))

    def test_kahan_scales_bit_identical_at_1e5(self):
        k_hi = 100_000
        for got, want in (
            (p_scale(1.0, 2, kappa(3) + k_hi), oracle_hat_scale(3, kappa(3) + k_hi)),
            (p_scale(0.5, 2, k_hi), oracle_p_scale(0.5, 2, k_hi)),
            (p_scale(1.0, 1, k_hi), oracle_p_scale(1.0, 1, k_hi)),
        ):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("delta, n", [(None, 0), (1.0, 2), (0.3, 2), (0.5, 3)])
    def test_compensated_sum_bit_identical_to_kahan_at_1e5(self, delta, n):
        # the terms the q18p tabulation (1/k) and the p scales (1/q^{delta,n}_k) sum
        ks = np.arange(kappa(n) if n else 1, 100_001, dtype=float)
        terms = np.exp(-np.log(ks)) if delta is None else 1.0 / q_scale(delta, n, ks)
        assert _compensated_cumsum(terms).tobytes() == oracle_kahan_cumsum(terms).tobytes()


class TestBadParameters:
    @pytest.mark.parametrize("token", ["gevrey:inf", "gevrey:1e308", "gevrey:nan", "gevrey:-1"])
    def test_gevrey_exits_3_without_warning(self, token, capsys):
        # the suite turns a RuntimeWarning into an error
        assert cli.run(["seq", "--family", token, "--kmax", "50"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_gevrey_overflow_is_a_non_finite_entry(self):
        with pytest.raises(DomainError, match="non-finite log M at k=4"):
            make_family(parse_family("gevrey:1e308"), k_max=50)

    def test_spec_rejects_an_unknown_kind(self):
        with pytest.raises(DomainError) as info:
            FamilySpec("bogus")
        assert str(info.value) == "unknown family kind 'bogus'"

    def test_spec_rejects_non_finite_s(self):
        for s in (math.inf, math.nan, 0.0):
            with pytest.raises(DomainError):
                FamilySpec("gevrey", s=s)
