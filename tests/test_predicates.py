import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab import envelope
from carleman_lab.cli import dumps
from carleman_lab.envelope import check_sequence
from carleman_lab.families import FamilySpec, builtin_sequences, make_family, parse_family
from carleman_lab.predicates import (
    SLOPE_SLACK,
    SLOPE_WINDOW_FRAC,
    SUM_STALL_REL,
    QuasiDiagnostic,
    Verdict,
    _last_decade_start,
    growth_diagnostic,
    inclusion_diagnostic,
    is_log_convex,
    quasianalytic_diagnostic,
)
from carleman_lab.seqcore import DerivedScales, DomainError, WeightSequence, rescale, tabulate


def fam(token_kind, k_max=2000, **kw):
    return make_family(FamilySpec(kind=token_kind, **kw), k_max=k_max)


def row_loop_moderate_trace(W):
    """O(K^2) oracle: running sup over s of max_{1<=j<=s/2} (log M_s - log M_j - log M_{s-j})/s."""
    logM = W.log_M
    n = W.k_max
    stat = np.full(n - 1, -np.inf)
    for s in range(2, n + 1):
        js = np.arange(1, s // 2 + 1)
        stat[s - 2] = np.max((logM[s] - logM[js] - logM[s - js]) / s)
    return np.maximum.accumulate(stat)


def _trace_vs_row_loop(W) -> bool:
    """Check the moderate-growth trace of W against the row-search oracle.

    Bit equality when every second difference of log M_1..log M_{K-1} is >= 0, else
    trace >= oracle - 1e-14 max(1, |oracle|): the balanced split over the lower convex
    envelope bounds the statistic from above.  Returns whether that input was convex.
    """
    trace = growth_diagnostic(W, "moderate-growth").statistic_trace
    oracle = row_loop_moderate_trace(W)
    if np.all(np.diff(W.log_M[1:-1], 2) >= 0.0):
        assert np.array_equal(trace, oracle), W.name
        return True
    assert np.all(trace >= oracle - 1e-14 * np.maximum(1.0, np.abs(oracle))), W.name
    return False


class TestVerdict:
    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            Verdict("maybe")
        with pytest.raises(ValueError):
            Verdict("fails")  # needs a witness

    def test_report_schema(self):
        v = Verdict("holds", margin=0.5, statistic_trace=np.array([1.0, 2.0]))
        rep = v.to_report("log-convex")
        assert set(rep) == {"predicate", "verdict", "witness_k", "margin"}
        assert rep["verdict"] == "holds"
        assert v.statistic_trace.tolist() == [1.0, 2.0]  # on the object, not in the report


class TestLogConvexity:
    def test_gevrey_holds(self):
        assert is_log_convex(fam("gevrey", s=1.0, k_max=300)).holds

    def test_strict_violation_detected_with_witness(self):
        W = WeightSequence("v", 0, np.array([0.0, 1.0, 1.5, 3.0]))
        v = is_log_convex(W)
        assert v.outcome == "fails"
        assert v.witness_k == 1
        assert v.margin < 0

    def test_weak_variant_is_weaker(self):
        # log M concave but log(k! M_k) convex
        ks = np.arange(0, 30, dtype=float)
        W = WeightSequence("w", 0, -0.4 * ks * np.log(ks + 1.0))
        assert not is_log_convex(W).holds
        assert is_log_convex(W, weak=True).holds

    def test_relative_eps_on_large_values(self):
        # affine log-sequence shifted to huge magnitude: float noise in the
        # second difference must not produce a failure
        ks = np.arange(0, 500, dtype=float)
        W = WeightSequence("big", 0, 1.0e7 + 1234.56789 * ks)
        assert is_log_convex(W).holds

    def test_rescale_invariance(self):
        W = fam("q18", k_max=400)
        V = rescale(W, 3.7, 0.2)
        assert is_log_convex(V).outcome == is_log_convex(W).outcome


class TestGrowthDiagnostics:
    def test_gevrey_derivation_closed_plateaus(self):
        v = growth_diagnostic(fam("gevrey", s=1.0), "derivation-closed")
        assert v.holds

    def test_gevrey_moderate_growth_statistic(self):
        # the statistic creeps up to log 2 at rate log(k)/k, too slowly to
        # plateau on a short prefix; the sup value itself is the contract
        v = growth_diagnostic(fam("gevrey", s=1.0), "moderate-growth")
        assert v.outcome in ("holds", "inconclusive")
        assert v.margin == pytest.approx(math.log(2.0), rel=0.01)
        assert np.all(np.diff(v.statistic_trace) >= 0.0)

    def test_statistic_value_for_analytic(self):
        v = growth_diagnostic(fam("analytic"), "moderate-growth")
        assert v.holds
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_never_fails(self):
        for mode in ("derivation-closed", "moderate-growth"):
            v = growth_diagnostic(fam("q18", k_max=500), mode)
            assert v.outcome in ("holds", "inconclusive")

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            growth_diagnostic(fam("analytic"), "bounded")

    def test_moderate_statistic_against_brute_force(self):
        W = fam("q18", k_max=60)
        v = growth_diagnostic(W, "moderate-growth")
        logM = W.log_M
        brute = max(
            (logM[j + k] - logM[j] - logM[k]) / (j + k)
            for j in range(1, 60)
            for k in range(1, 61 - j)
        )
        assert v.margin == pytest.approx(brute, rel=1e-12)

    def test_moderate_trace_against_row_loop_on_builtins(self):
        # exactly convex log M_1..log M_{K-1} matches the row search bit for bit;
        # q:1:3 is not convex on k >= 1 and gets the upper bound over its hull
        convex = {name for name, W in builtin_sequences(3000).items() if _trace_vs_row_loop(W)}
        assert set(builtin_sequences(3)) - convex == {"q:1:3"}

    def test_moderate_trace_bounds_row_loop_on_non_convex_inputs(self):
        rng = np.random.default_rng(2024)
        walk = WeightSequence("walk", 0, np.concatenate(([0.0], np.cumsum(rng.normal(size=600)))))
        qcheck = check_sequence(fam("q_delta_n", k_max=3000, delta=1.0, n=3))
        for W in (walk, qcheck):
            assert not _trace_vs_row_loop(W), W.name

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300), sort=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_moderate_trace_against_row_loop_on_walks(self, seed, n, sort):
        # sorted steps make a convex walk, and unsorted ones mostly do not
        steps = np.random.default_rng(seed).normal(size=n - 1)
        if sort:
            steps.sort()
        _trace_vs_row_loop(WeightSequence("walk", 0, np.concatenate(([0.0], np.cumsum(steps)))))


class TestQuasianalyticClassifier:
    @pytest.mark.parametrize(
        "kind,kw,expect",
        [
            ("analytic", {}, "divergent-trend"),
            ("q18", {}, "divergent-trend"),
            ("q18_prime", {}, "divergent-trend"),
            ("q18_doubleprime", {}, "divergent-trend"),
            ("gevrey", {"s": 0.5}, "convergent-trend"),
            ("gevrey", {"s": 1.0}, "convergent-trend"),
            ("gevrey", {"s": 2.0}, "convergent-trend"),
        ],
    )
    def test_battery(self, kind, kw, expect):
        diag = quasianalytic_diagnostic(fam(kind, k_max=4000, **kw))
        assert diag.classification == expect

    def test_four_criteria_agree_on_clean_inputs(self):
        diag = quasianalytic_diagnostic(fam("q18", k_max=4000))
        assert len(set(diag.per_criterion)) == 1

    def test_report_shape(self):
        d = quasianalytic_diagnostic(fam("gevrey", s=1.0, k_max=500)).to_dict()
        assert len(d["per_criterion"]) == 4
        assert len(d["partial_sums_final"]) == 4

    def test_underflowing_summands_handled(self):
        # strongly shifted family: raw summands underflow f64 but the
        # classification must still come out divergent
        diag = quasianalytic_diagnostic(fam("q_delta_n", delta=1.0, n=2, k_max=4000))
        assert diag.classification == "divergent-trend"


# -- the former per-criterion classifier, kept as an oracle ---------------------


def _fit_tail_slope_oracle(log_summand, ks):
    """Least-squares slope of log summand vs log k over the tail window."""
    n = len(log_summand)
    i0 = int(n * (1.0 - SLOPE_WINDOW_FRAC))
    i0 = min(max(i0, 0), n - 2)
    x = np.log(ks[i0:])
    y = log_summand[i0:]
    xm, ym = x.mean(), y.mean()
    denom = np.sum((x - xm) ** 2)
    if denom == 0.0:
        return 0.0
    return float(np.sum((x - xm) * (y - ym)) / denom)


def _classify_oracle(log_summand, ks):
    log_S = np.logaddexp.accumulate(log_summand)
    slope = _fit_tail_slope_oracle(log_summand, ks)
    i = _last_decade_start(len(log_S))
    rel_inc = -np.expm1(log_S[i] - log_S[-1])
    still_increasing = rel_inc > SUM_STALL_REL
    near_boundary = slope >= -1.0 - SLOPE_SLACK
    if i == len(log_S) - 1:  # a last decade of one term cannot rise: no evidence
        cls = "inconclusive"
    elif near_boundary and still_increasing:
        cls = "divergent-trend"
    elif (not still_increasing) or slope < -1.0 - SLOPE_SLACK:
        cls = "convergent-trend"
    else:
        cls = "inconclusive"
    return cls, slope, np.exp(log_S)


def quasianalytic_oracle(W):
    scales = DerivedScales.from_weight_sequence(W)
    ks = np.arange(1, W.k_max + 1, dtype=float)
    s_raw = -scales.log_m
    log_minc, edge_inc = envelope.increasing_minorant(scales)
    s_inc = -log_minc
    env = envelope.log_convex_minorant(W, weak_basis=True)
    log_blc = env.values
    s_lc = -log_blc[1:] / ks
    s_ratio = log_blc[:-1] - log_blc[1:]
    results = []
    for summand, kk in (
        (s_raw, ks),
        (s_inc, ks),
        (s_lc, ks),
        (s_ratio, np.arange(1, W.k_max + 1, dtype=float)),
    ):
        results.append(_classify_oracle(summand, kk))
    classes = tuple(r[0] for r in results)
    agreed = classes[0] if len(set(classes)) == 1 else "inconclusive"
    return QuasiDiagnostic(
        partial_sums_final=tuple(float(r[2][-1]) for r in results),
        term_slope=tuple(r[1] for r in results),
        per_criterion=classes,
        classification=agreed,
        edge_sensitive=bool(edge_inc or env.is_edge_sensitive),
    )


ORACLE_TOKENS = list(builtin_sequences(2)) + ["gevrey:0.05", "qhat:1:2", "p:0.3:2", "p:1:1"]


class TestQuasianalyticAgainstOracle:
    @pytest.mark.parametrize("k_max", [2, 3, 5, 10, 20, 100, 1000, 10_000])
    @pytest.mark.parametrize("token", ORACLE_TOKENS)
    def test_report_bytes_match_per_criterion_oracle(self, token, k_max):
        W = make_family(parse_family(token), k_max=k_max)
        got = dumps(quasianalytic_diagnostic(W).to_dict())
        assert got == dumps(quasianalytic_oracle(W).to_dict())

    def test_nan_slope_of_a_rising_sum_is_inconclusive(self):
        # log M jumping to near the float maximum overflows the tail fit of
        # criterion (iii): its slope is NaN while its partial sums still rise
        W = WeightSequence("jump", 0, np.array([0.0] * 4 + [1.7e308] * 2))
        with np.errstate(over="ignore", invalid="ignore"):
            diag = quasianalytic_diagnostic(W)
            assert dumps(diag.to_dict()) == dumps(quasianalytic_oracle(W).to_dict())
        assert math.isnan(diag.term_slope[2])
        assert diag.per_criterion[2] == "inconclusive"

    def test_nan_slope_of_a_stalled_sum_is_inconclusive(self):
        # the sums of criteria (iii) and (iv) stop rising while their tail fits
        # overflow: a NaN slope is no evidence either way
        W = WeightSequence("jump", 0, np.array([0.0, 1e308, 1.7e308, 1.7e308, 1.7e308]))
        with np.errstate(over="ignore", invalid="ignore"):
            diag = quasianalytic_diagnostic(W)
        assert diag.term_slope[:2] == (pytest.approx(4.9e307, rel=0.01), 0.0)
        assert all(math.isnan(s) for s in diag.term_slope[2:])
        assert diag.per_criterion == (
            "divergent-trend", "convergent-trend", "inconclusive", "inconclusive")
        assert diag.classification == "inconclusive"


class TestInclusion:
    def test_reflexive(self):
        W = fam("q18", k_max=1000)
        v = inclusion_diagnostic(W, W)
        assert v.holds
        assert v.margin == pytest.approx(0.0, abs=1e-15)

    def test_gevrey_scale_ladder(self):
        g1 = fam("gevrey", s=1.0, k_max=2000)
        g2 = fam("gevrey", s=2.0, k_max=2000)
        assert inclusion_diagnostic(g1, g2).holds
        assert inclusion_diagnostic(g2, g1).outcome == "inconclusive"

    def test_q18_into_gevrey(self):
        q = fam("q18", k_max=2000)
        g1 = fam("gevrey", s=1.0, k_max=2000)
        assert inclusion_diagnostic(q, g1).holds

    def test_bounded_rising_edge(self):
        # sup still rising at the edge but with summable increments
        q = fam("q18", k_max=5000)
        qpp = fam("q18_doubleprime", k_max=5000)
        assert inclusion_diagnostic(q, qpp).holds
        assert inclusion_diagnostic(qpp, q).holds

    def test_genuinely_unbounded_stays_inconclusive(self):
        q = fam("q18", k_max=5000)
        om = fam("analytic", k_max=5000)
        assert inclusion_diagnostic(om, q).holds
        assert inclusion_diagnostic(q, om).outcome == "inconclusive"


class TestCheckSequenceConvexity:
    def test_q18_check_is_log_convex(self):
        assert is_log_convex(check_sequence(fam("q18", k_max=2000))).holds

    def test_q18pp_check_fails_at_one(self):
        v = is_log_convex(check_sequence(fam("q18_doubleprime", k_max=2000)))
        assert v.outcome == "fails"
        assert v.witness_k == 1
