import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.cli import dumps
from carleman_lab.seqcore import (
    DerivedScales,
    DomainError,
    MembershipCertificate,
    WeightSequence,
    fm_membership,
    log_factorial,
    normalize,
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
        assert W.log_at(3) == 3.0
        assert list(W.ks) == list(range(11))
        np.testing.assert_allclose(W.slice(2, 4), [2.0, 3.0, 4.0])

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

    def test_rejects_unknown_claims(self):
        with pytest.raises(DomainError):
            WeightSequence("c", 0, np.zeros(4), claims=frozenset({"sparkly"}))

    def test_immutable_storage(self):
        W = tabulate(lambda k: float(k), 5)
        with pytest.raises(ValueError):
            W.log_M[0] = 7.0

    def test_out_of_range_access(self):
        W = tabulate(lambda k: float(k), 5, k_min=2)
        with pytest.raises(DomainError):
            W.log_at(1)
        with pytest.raises(DomainError):
            W.slice(0, 4)


class TestDerivedScales:
    def test_matches_direct_formula(self):
        W = gevrey(1.0, 40)
        sc = DerivedScales.from_weight_sequence(W)
        assert sc.k_start == 1
        for k in (1, 5, 17, 40):
            expect = (2 * math.lgamma(k + 1)) / k
            assert sc.log_m[k - 1] == pytest.approx(expect, rel=1e-14)
            assert sc.log_root[k - 1] == pytest.approx(math.lgamma(k + 1) / k, rel=1e-14)

    def test_skips_k_zero(self):
        W = tabulate(lambda k: 0.0, 6, k_min=0)
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

    def test_rescale_drops_derivation_closed_claim(self):
        W = tabulate(lambda k: 0.0, 5, claims={"log-convex", "derivation-closed"})
        V = rescale(W, 2.0, 3.0)
        assert "log-convex" in V.claims
        assert "derivation-closed" not in V.claims

    def test_normalize_pins_first_two_entries(self):
        W = WeightSequence("n", 0, np.array([1.3, 0.2, 0.9, 2.4]))
        V, C, rho = normalize(W)
        assert V.log_M[0] == 0.0
        assert V.log_M[1] >= -1e-15
        # the recorded constants reproduce the normalized values
        np.testing.assert_allclose(
            V.log_M, np.log(C) + V.ks * np.log(rho) + W.log_M, atol=1e-12
        )

    def test_normalize_keeps_increasing_when_log_convex(self):
        W = WeightSequence("lc", 0, np.array([2.0, 1.0, 1.5, 3.0, 5.5]))
        V, _, _ = normalize(W)
        assert np.all(np.diff(V.log_M) >= -1e-12)


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


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        W = WeightSequence("rt", 0, np.cumsum(rng.normal(size=50)), claims=frozenset({"log-convex"}))
        V = WeightSequence.from_dict(json.loads(dumps(W.to_dict())))
        assert V.name == W.name
        assert V.claims == W.claims
        np.testing.assert_array_equal(V.log_M, W.log_M)

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
