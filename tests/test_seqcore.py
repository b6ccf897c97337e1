import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab import seqcore
from carleman_lab.cli import dumps
from carleman_lab.families import builtin_sequences, kappa, make_family, parse_family
from carleman_lab.seqcore import (
    KNOWN_CLAIMS,
    DerivedScales,
    DomainError,
    MembershipCertificate,
    WeightSequence,
    fm_membership,
    log_factorial,
    rescale,
    tabulate,
)


def gevrey(s, k_max, name="gevrey"):
    ks = np.arange(0, k_max + 1, dtype=float)
    return WeightSequence(name=name, k_min=0, log_M=s * log_factorial(ks))


class TestWeightSequence:
    def test_basic_properties(self):
        W = tabulate(lambda k: float(k), 10, name="lin")
        assert W.k_max == 10
        assert list(W.ks) == list(range(11))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            WeightSequence("bad", 0, np.array([0.0, np.inf, 1.0]))
        with pytest.raises(DomainError):
            WeightSequence("bad", 0, np.array([0.0, np.nan, 1.0]))

    def test_rejects_short_and_negative_kmin(self):
        with pytest.raises(DomainError):
            WeightSequence("short", 0, np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            WeightSequence("neg", -1, np.zeros(5))

    def test_rejects_a_two_dimensional_log_M(self):
        # its own message, not "needs at least 3 tabulated entries"
        with pytest.raises(DomainError) as info:
            WeightSequence("x", 0, [[0, 1], [2, 3], [4, 5]])
        assert str(info.value) == "log_M must be one-dimensional, got shape (3, 2)"

    def test_rejects_unknown_claims(self):
        with pytest.raises(DomainError):
            WeightSequence("c", 0, np.zeros(4), claims=frozenset({"sparkly"}))

    def test_immutable_storage(self):
        W = tabulate(lambda k: float(k), 5)
        with pytest.raises(ValueError):
            W.log_M[0] = 7.0

    @pytest.mark.parametrize("k_min", [-1, 1, 2])
    def test_out_of_range_access(self, k_min):
        with pytest.raises(DomainError, match="tabulated from k = 0"):
            WeightSequence("offset", k_min, np.zeros(5))


class TestDerivedScales:
    def test_matches_direct_formula(self):
        W = gevrey(1.0, 40)
        sc = DerivedScales.from_weight_sequence(W)
        for k in (1, 5, 17, 40):
            expect = (2 * math.lgamma(k + 1)) / k
            assert sc.log_m[k - 1] == pytest.approx(expect, rel=1e-14)

    def test_skips_k_zero(self):
        W = tabulate(lambda k: 0.0, 6)
        sc = DerivedScales.from_weight_sequence(W)
        assert len(sc.log_m) == 6


class TestTabulate:
    def test_callable_and_list_agree(self):
        a = tabulate(lambda k: 0.5 * k * k, 8)
        b = tabulate([0.5 * k * k for k in range(9)], 8)
        np.testing.assert_array_equal(a.log_M, b.log_M)

    def test_short_list_rejected(self):
        with pytest.raises(DomainError):
            tabulate([0.0, 1.0], 5)

    @pytest.mark.parametrize("k_max", [0, 1])
    def test_k_max_below_two_rejected(self, k_max):
        with pytest.raises(DomainError) as info:
            tabulate(lambda k: 0.0, k_max)
        assert str(info.value) == "k_max must be at least 2"

    def test_non_finite_callable_rejected(self):
        with pytest.raises(DomainError):
            tabulate(lambda k: math.inf if k == 3 else 0.0, 5)


class TestRescaleNormalize:
    @given(
        logC=st.floats(-3, 3),
        logrho=st.floats(-2, 2),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_rescale_is_affine_in_log(self, logC, logrho, seed):
        rng = np.random.default_rng(seed)
        W = WeightSequence("r", 0, np.cumsum(rng.normal(size=12)))
        V = rescale(W, math.exp(logC), math.exp(logrho))
        np.testing.assert_allclose(V.log_M, W.log_M + logC + logrho * W.ks, atol=1e-9)

    @pytest.mark.parametrize("rho", [0.25, 1.0, 3.0])
    def test_rescale_keeps_every_claim(self, rho):
        # (M_{k+1}/M_k)^{1/k} gains only rho^{1/k} <= max(1, rho): derivation-closed survives too
        W = tabulate(lambda k: 0.0, 5, claims=KNOWN_CLAIMS)
        assert rescale(W, 2.0, rho).claims == KNOWN_CLAIMS


class TestMembership:
    def test_known_supremum(self):
        W = gevrey(0.0, 10, "analytic")  # M_k = 1
        # |f_k| = 2 k! at k = 3 dominates with rho = 1: C = 2
        coeffs = [0.0, 0.0, 0.0, 2 * math.factorial(3)]
        assert fm_membership(coeffs, W, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_rho_rescaling(self):
        W = gevrey(0.0, 10, "analytic")
        coeffs = [1.0, 2.0, 8.0]
        c1 = fm_membership(coeffs, W, 1.0)
        c2 = fm_membership(coeffs, W, 2.0)
        assert c2 <= c1

    def test_zero_series(self):
        W = gevrey(1.0, 5)
        assert fm_membership([0.0, 0.0, 0.0], W, 1.0) == 0.0

    def test_certificate_validation(self):
        W = gevrey(0.0, 5, "analytic")
        with pytest.raises(DomainError):
            MembershipCertificate(C=-1.0, rho=1.0, seq=W)

    @pytest.mark.parametrize(
        "C, rho", [(1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0),
                   (1.0, math.nan), (10**400, 1.0), (1.0, 10**400), (Fraction(10**400, 3), 1.0),
                   (1.0, Fraction(10**400, 3))])
    def test_certificate_rejects_non_finite(self, C, rho):
        W = gevrey(0.0, 5, "analytic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite C > 0 and rho > 0"):
                MembershipCertificate(C=C, rho=rho, seq=W)

    @pytest.mark.parametrize("rho", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("coeffs", [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [5, 0, 1]])
    def test_membership_rejects_non_finite_rho(self, rho, coeffs):
        W = gevrey(1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="rho must be positive and finite"):
                fm_membership(coeffs, W, rho)


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        W = WeightSequence("rt", 0, np.cumsum(rng.normal(size=50)), claims=frozenset({"log-convex"}))
        V = WeightSequence.from_dict(json.loads(dumps(W.to_dict())))
        assert V.name == W.name
        assert V.claims == W.claims
        np.testing.assert_array_equal(V.log_M, W.log_M)

    def test_json_round_trip_builtins(self):
        for token, W in builtin_sequences(2000).items():
            d = W.to_dict()
            assert d["k_min"] == 0, token
            V = WeightSequence.from_dict(json.loads(dumps(d)))
            assert V.log_M.tobytes() == W.log_M.tobytes(), token
            assert (V.name, V.claims) == (W.name, W.claims), token

    def test_from_dict_rejects_offset_tabulation(self):
        d = tabulate(lambda k: float(k), 5).to_dict()
        d["k_min"] = 3
        with pytest.raises(DomainError, match="tabulated from k = 0"):
            WeightSequence.from_dict(d)

    @pytest.mark.parametrize("key", ["name", "k_min", "log_M"])
    def test_from_dict_names_a_missing_key(self, key):
        d = tabulate(lambda k: float(k), 4).to_dict()
        del d[key]
        with pytest.raises(DomainError) as info:
            WeightSequence.from_dict(d)
        assert str(info.value) == f"weight-sequence document has no {key}"

    def test_from_dict_rejects_non_numeric_log_M(self):
        d = tabulate(lambda k: float(k), 4).to_dict()
        d["log_M"][2] = "two"
        with pytest.raises(DomainError, match=r"^log_M must be numeric: .*'two'"):
            WeightSequence.from_dict(d)

    @pytest.mark.parametrize("k_min", [0.5, "0", -0.25, 1, True, None, float("nan")])
    def test_from_dict_rejects_a_k_min_that_is_not_zero(self, k_min):
        # int() would read 0.5 and "0" as 0 and accept the document
        d = tabulate(lambda k: float(k), 4).to_dict()
        d["k_min"] = k_min
        with pytest.raises(DomainError) as info:
            WeightSequence.from_dict(d)
        assert str(info.value) == f"a weight sequence is tabulated from k = 0, got k_min {k_min!r}"

    @pytest.mark.parametrize("k_min", [0.0, np.int64(0), np.float64(0.0)])
    def test_from_dict_reads_a_zero_k_min(self, k_min):
        d = tabulate(lambda k: float(k), 4).to_dict()
        d["k_min"] = k_min
        W = WeightSequence.from_dict(d)
        assert W.k_min == 0 and W.to_dict()["k_min"] == 0

    def test_from_dict_rejects_a_two_dimensional_log_M(self):
        d = tabulate(lambda k: float(k), 4).to_dict()
        del d["k_max"]
        d["log_M"] = [[0, 1], [2, 3], [4, 5]]
        with pytest.raises(DomainError) as info:
            WeightSequence.from_dict(d)
        assert str(info.value) == "log_M must be one-dimensional, got shape (3, 2)"

    def test_from_dict_rejects_a_k_max_that_disagrees_with_log_M(self):
        d = tabulate(lambda k: float(k), 4).to_dict()
        d["k_max"] = 99
        with pytest.raises(DomainError) as info:
            WeightSequence.from_dict(d)
        assert str(info.value) == "k_max 99 disagrees with 5 log_M entries"

    def test_from_dict_rejects_claims_that_are_not_a_list(self):
        d = tabulate(lambda k: float(k), 4).to_dict()
        d["claims"] = "log-convex"  # a string would be read one character at a time
        with pytest.raises(DomainError) as info:
            WeightSequence.from_dict(d)
        assert str(info.value) == "claims must be a list of strings, got 'log-convex'"

    def test_from_dict_rejects_a_name_that_is_not_a_string(self):
        d = tabulate(lambda k: float(k), 4).to_dict()
        d["name"] = 5
        with pytest.raises(DomainError) as info:
            WeightSequence.from_dict(d)
        assert str(info.value) == "name must be a string, got 5"

    def test_json_keys_sorted(self):
        W = tabulate(lambda k: float(k), 4, name="s")
        keys = list(json.loads(dumps(W.to_dict())).keys())
        assert keys == sorted(keys)

    def test_csv_header_and_shape(self):
        W = tabulate(lambda k: float(k), 4, name="c")
        lines = W.to_csv().splitlines()
        assert lines[0] == "k,log_M,log_m"
        assert len(lines) == 6
        assert lines[1].endswith(",")  # no scale at k = 0


# -- the former element-by-element code, kept as oracles -----------------------


def log_factorial_oracle(k):
    # otypes lets it take an empty array, which the former code refused
    return np.vectorize(math.lgamma, otypes=[float])(np.asarray(k, dtype=float) + 1.0)


def masked_fm_membership(coeffs, W, rho):
    """fm_membership as it masked out the zero coefficients before the max."""
    log_f = seqcore._log_abs(coeffs)
    ks = np.arange(log_f.size, dtype=float)
    nz = log_f != -np.inf
    if not np.any(nz):
        return 0.0
    log_ratio = log_f[nz] - ks[nz] * np.log(rho) - log_factorial(ks[nz]) - W.log_M[: log_f.size][nz]
    with np.errstate(over="ignore"):
        return float(np.exp(np.max(log_ratio)))


def to_csv_oracle(W):
    scales = DerivedScales.from_weight_sequence(W)
    lines = ["k,log_M,log_m"]
    for i, k in enumerate(W.ks):
        if k >= 1:
            lm = f"{scales.log_m[k - 1]:.17g}"
        else:
            lm = ""
        lines.append(f"{k},{W.log_M[i]:.17g},{lm}")
    return "\n".join(lines) + "\n"


class TestLogFactorialTable:
    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(seqcore, "_lgamma_table", np.empty(0))

    def same(self, k):
        got, want = log_factorial(k), log_factorial_oracle(k)
        assert type(got) is np.ndarray and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    def test_growth_steps_keep_every_entry(self):
        before = np.empty(0)
        for hi in (1, 10, 11, 25, 3_000, 50_000, 200_001):
            self.same(np.arange(hi))
            table = seqcore._lgamma_table
            assert len(table) >= hi and np.array_equal(table[: len(before)], before)
            before = table.copy()
        assert len(before) < 2 * 200_001  # grown to the largest index asked for, not beyond

    def test_growth_at_least_doubles(self):
        log_factorial(np.arange(100))
        log_factorial(np.array([100]))
        assert len(seqcore._lgamma_table) == 200

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.float64, np.float32])
    def test_dtypes(self, dtype):
        self.same(np.arange(0, 3000, 7).astype(dtype)[::-1])

    def test_shapes(self):
        for k in (np.asarray(5), np.asarray(5.0), np.asarray(0), np.arange(24).reshape(4, 6),
                  np.arange(12.0).reshape(3, 1, 4), np.array([], dtype=float).reshape(0, 3)):
            self.same(k)
        assert log_factorial(np.asarray(7)).ndim == 0

    def test_values_off_the_table(self):
        rng = np.random.default_rng(3)
        self.same(rng.uniform(0, 5000, size=2000))  # non-integer
        self.same(np.array([0.5, 2.0, 2.5, 1e-300, 5e-324]))
        self.same(np.array([-0.5, -1.5, 3.0]))  # negative, not an integer
        self.same(np.array([np.nan, np.inf, 4.0]))
        self.same(np.arange(kappa(3) - 1.0, kappa(3) + 3000.0))  # the q:D:3 index range
        self.same(np.array([2.0**53, 1e300]))
        assert len(seqcore._lgamma_table) == 0  # none of these fills the table

    def test_ceiling(self):
        self.same(np.arange(2**20 - 50, 2**20))
        assert len(seqcore._lgamma_table) == 2**20
        self.same(np.arange(2**20 - 50, 2**20 + 50))  # across the ceiling
        self.same(np.array([float(2**20)]))
        assert len(seqcore._lgamma_table) == 2**20

    def test_scalars_unchanged(self):
        for k in (0, 5, 170, 2.5, np.int64(9), np.float64(9.0)):
            assert log_factorial(k) == math.lgamma(k + 1)
        assert len(seqcore._lgamma_table) == 0  # the scalar branch never fills the table

    @pytest.mark.parametrize("k", [np.array([3, -1]), np.array([-2.0]), np.arange(-1, 5)])
    def test_negative_integer_raises(self, k):
        with pytest.raises(ValueError):
            log_factorial_oracle(k)
        with pytest.raises(ValueError):
            log_factorial(k)

    def test_results_are_private_copies(self):
        out = log_factorial(np.arange(10))
        out[:] = 0.0
        self.same(np.arange(10))


    @pytest.mark.parametrize("ns", [(0, 1, 2, 3), (12, 13, 13, 5, 100, 199, 200, 201, 4000)])
    def test_slices_across_growth(self, ns):
        for n in ns:
            got = seqcore._log_factorials(n)
            assert got.shape == (n + 1,) and not got.flags.writeable
            assert np.shares_memory(got, seqcore._lgamma_table)
            assert np.array_equal(got, log_factorial(np.arange(n + 1.0)))
            assert np.array_equal(got, log_factorial_oracle(np.arange(n + 1.0)))
        assert len(seqcore._lgamma_table) < 2 * (max(ns) + 1)

    def test_slices_past_the_ceiling(self):
        for n in (2**20 - 1, 2**20, 2**20 + 3):
            got = seqcore._log_factorials(n)
            assert got.shape == (n + 1,)
            assert np.shares_memory(got, seqcore._lgamma_table) == (n < 2**20)
            assert np.array_equal(got, log_factorial(np.arange(n + 1.0)))
        assert len(seqcore._lgamma_table) == 2**20
        assert np.array_equal(got[-100:], log_factorial_oracle(np.arange(n - 99.0, n + 1.0)))


class TestMembershipAgainstMaskedOracle:
    W = WeightSequence("w", 0, 0.3 * np.arange(14.0) * np.log(np.arange(14.0) + 1.0))
    COEFF = st.one_of(
        st.sampled_from([0, 0.0, -0.0, Fraction(0)]),
        st.integers(-(10**6), 10**6),
        st.integers(10**300, 10**400),  # past the float range from 1.8e308
        st.floats(allow_nan=False, allow_infinity=False),
        st.fractions(-5, 5, max_denominator=12),
        st.builds(Fraction, st.integers(10**330, 10**400), st.integers(1, 10**20)),
    )

    @given(cs=st.lists(COEFF, min_size=1, max_size=14), rho=st.floats(1e-3, 1e3),
           zeros=st.sets(st.integers(0, 13)))
    @settings(max_examples=300, deadline=None)
    def test_repr_equal(self, cs, rho, zeros):
        cs = [0 if k in zeros else c for k, c in enumerate(cs)]  # leading and interior zeros
        assert repr(fm_membership(cs, self.W, rho)) == repr(masked_fm_membership(cs, self.W, rho))

    @pytest.mark.parametrize("cs", [[0], [0.0] * 14, [0, Fraction(0), -0.0], [0, 0, 3], [2, 0, 0],
                                    [0, 10**400, 0, 1.5], [1e308, 0.0, -1e308]])
    @pytest.mark.parametrize("rho", [1e-3, 1.0, 1e3])
    def test_repr_equal_at_zeros_and_extremes(self, cs, rho):
        assert repr(fm_membership(cs, self.W, rho)) == repr(masked_fm_membership(cs, self.W, rho))


class TestCsvAgainstOracle:
    @pytest.mark.parametrize("token", ["q18", "gevrey:1", "q:1:3"])
    def test_families_from_zero(self, token):
        W = make_family(parse_family(token), k_max=10_000)
        assert W.k_min == 0
        assert W.to_csv() == to_csv_oracle(W)

    @pytest.mark.parametrize("seed", [0, 1, 2, 37])
    def test_random_values(self, seed):
        rng = np.random.default_rng(seed)
        log_M = rng.normal(size=10_001) * 10.0 ** rng.integers(-30, 30, size=10_001)
        W = WeightSequence("random", 0, log_M)
        assert W.to_csv() == to_csv_oracle(W)

    def test_short_sequences(self):
        for W in (WeightSequence("z", 0, np.array([-0.0, 0.0, 5e-324])),
                  WeightSequence("t", 0, np.array([0.1 + 0.2, 1 / 3, -2 / 3])),  # 17 digits
                  WeightSequence("z", 0, np.array([-0.0, 1e-310, 1e300]))):
            assert W.to_csv() == to_csv_oracle(W)
