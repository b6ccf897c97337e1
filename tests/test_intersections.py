import json
import math
import warnings

import numpy as np
import pytest

from carleman_lab.envelope import check_scale, log_convex_minorant
from carleman_lab.families import FamilySpec, make_family
from carleman_lab.intersections import (
    _beta_ladder,
    MajorantTrace,
    escape_log_coefficients,
    lprime_construction,
    min_combine,
    separating_majorant,
    separating_majorant_weak,
)
from carleman_lab.predicates import growth_diagnostic, is_log_convex
from carleman_lab.seqcore import (
    DerivedScales,
    DomainError,
    WeightSequence,
    log_factorial,
    rescale,
)

MARKED = [10, 40, 160, 640, 2560]


@pytest.fixture(scope="module")
def q18():
    return make_family(FamilySpec("q18"), k_max=10_000)


@pytest.fixture(scope="module")
def witness(q18):
    return escape_log_coefficients(q18, MARKED)


@pytest.fixture(scope="module")
def trace(q18, witness):
    return separating_majorant(q18, witness)


@pytest.fixture(scope="module")
def weak_trace(q18, witness):
    return separating_majorant_weak(q18, witness)


class TestWitness:
    def test_unmarked_entries_sit_on_the_check_scale(self, q18, witness):
        sc = DerivedScales.from_weight_sequence(q18)
        log_qck = check_scale(sc)
        ks = np.arange(1, q18.k_max + 1, dtype=float)
        base = log_factorial(ks) + ks * log_qck
        idx = np.setdiff1d(np.arange(1, q18.k_max + 1), MARKED)
        np.testing.assert_array_equal(witness[idx], base[idx - 1])

    def test_marked_entries_escape(self, q18, witness):
        sc = DerivedScales.from_weight_sequence(q18)
        for k in MARKED:
            expect = math.lgamma(k + 1) + k * (math.log(2.0) + sc.log_m[k - 1])
            assert witness[k] == pytest.approx(expect, rel=1e-15)

    def test_bad_marked_index(self, q18):
        with pytest.raises(DomainError):
            escape_log_coefficients(q18, [0])
        with pytest.raises(DomainError):
            escape_log_coefficients(q18, [q18.k_max + 1])


class TestSeparatingMajorant:
    def test_escape_indices_hit_the_marks(self, trace):
        assert list(trace.k_j) == MARKED
        assert trace.n_blocks >= 3

    def test_schedule_shape(self, trace):
        np.testing.assert_allclose(trace.a_j, [4.0**j for j in range(5)], rtol=1e-12)
        assert all(b2 < b1 for b1, b2 in zip(trace.b_j, trace.b_j[1:]))
        assert all(b > 1.0 for b in trace.beta_j)
        assert all(b2 > b1 for b1, b2 in zip(trace.beta_j, trace.beta_j[1:]))

    def test_tower_condition(self, trace):
        lb = np.log(trace.beta_j)
        for j in range(len(lb) - 1):
            assert lb[j + 1] >= trace.k_j[j] * lb[j] * (1 - 1e-9)

    def test_l_over_g_equals_b_exactly(self, trace):
        got = trace.report["l_over_g_at_kj"]
        for r, b in zip(got, trace.b_j):
            assert abs(math.log(r) - math.log(b)) <= 1e-12

    def test_block_sums_within_bounds(self, trace):
        for s, bound in zip(trace.report["block_sums"], trace.report["bound_1_over_ab"]):
            assert s <= bound * (1 + 1e-12)

    def test_output_log_convex_with_unit_start(self, trace):
        assert trace.output.log_M[0] == 0.0
        assert is_log_convex(trace.output).holds

    def test_phi_convex_and_slope_increasing(self, trace):
        ks = np.array([k for k, _ in trace.phi_knots], dtype=float)
        vs = np.array([v for _, v in trace.phi_knots])
        slopes = np.diff(vs) / np.diff(ks)
        assert np.all(np.diff(slopes) >= -1e-12)
        assert np.all(np.diff(vs[1:] / ks[1:]) >= -1e-15)

    def test_rescaled_output_dominates(self, trace, q18):
        gap = trace.output_rescaled.log_M - q18.log_M
        assert gap.min() >= -1e-9

    def test_domination_chain(self, trace, q18):
        # q_k / l_k = (qck_k / l_k) (1 + sum_{j<=k} 1/qck_j), both sides computed
        sc = DerivedScales.from_weight_sequence(q18)
        log_qck = check_scale(sc)
        ks = np.arange(1, q18.k_max + 1, dtype=float)
        log_l = (trace.output.log_M[1:] + log_factorial(ks)) / ks
        lhs = np.exp(sc.log_m - log_l)
        rhs = np.exp(log_qck - log_l) * (1.0 + np.cumsum(np.exp(-log_qck)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)
        assert trace.report["sup_q_over_l"] == pytest.approx(lhs.max(), rel=1e-12)

    def test_member_series_rejected(self, q18):
        # f_k = k! Q_k sits on the membership boundary: the ratio never
        # clears the second threshold, so no separating trace exists
        ks = np.arange(0, q18.k_max + 1, dtype=float)
        logf = log_factorial(ks) + q18.log_M
        with pytest.raises(DomainError):
            separating_majorant(q18, logf)

    def test_sparse_marks_still_build_a_trace(self, q18):
        # the unmarked part of the witness escapes on its own further out,
        # so two marks still yield enough blocks
        logf = escape_log_coefficients(q18, [10, 40])
        tr = separating_majorant(q18, logf)
        assert tr.k_j[:2] == (10, 40)
        assert tr.n_blocks >= 3

    def test_non_log_convex_check_rejected(self, witness):
        qpp = make_family(FamilySpec("q18_doubleprime"), k_max=10_000)
        logf = escape_log_coefficients(qpp, MARKED)
        with pytest.raises(DomainError):
            separating_majorant(qpp, logf)

    def test_json_schema(self, trace):
        d = json.loads(trace.to_json())
        for key in ("k_j", "a_j", "b_j", "beta_j", "phi_knots", "output", "report",
                    "rescale_rho", "output_rescaled"):
            assert key in d
        rep = d["report"]
        assert len(rep["block_sums"]) == len(rep["bound_1_over_ab"])
        assert "sup_q_over_l" in rep


class TestWeakSeparatingMajorant:
    def test_same_escape_indices(self, weak_trace):
        assert list(weak_trace.k_j) == MARKED

    def test_blockwise_constant_levels(self, weak_trace, q18):
        # l_k / qck_k = beta_j within each block, exactly
        sc = DerivedScales.from_weight_sequence(q18)
        log_qck = check_scale(sc)
        L = weak_trace.output
        ks = np.arange(1, L.k_max + 1, dtype=float)
        log_l = (L.log_M[1:] + log_factorial(ks)) / ks
        lo = 0
        for j, kj in enumerate(weak_trace.k_j):
            seg = log_l[lo:kj] - log_qck[lo:kj]
            np.testing.assert_allclose(seg, math.log(weak_trace.beta_j[j]), rtol=0, atol=1e-9)
            lo = kj

    def test_l_over_g_equals_b(self, weak_trace):
        for r, b in zip(weak_trace.report["l_over_g_at_kj"], weak_trace.b_j):
            assert abs(math.log(r) - math.log(b)) <= 1e-12

    def test_block_sums_within_bounds(self, weak_trace):
        for s, bound in zip(
            weak_trace.report["block_sums"], weak_trace.report["bound_1_over_ab"]
        ):
            assert s <= bound * (1 + 1e-12)

    def test_repaired_output_weakly_log_convex_and_dominating(self, weak_trace, q18):
        out = weak_trace.output_rescaled
        assert is_log_convex(out, weak=True).holds
        gap = out.log_M - q18.log_M[: out.k_max + 1]
        assert gap.min() >= -1e-9

    def test_works_without_log_convex_check_sequence(self):
        # q18pp has a non-log-convex check sequence; the weak path still runs
        qpp = make_family(FamilySpec("q18_doubleprime"), k_max=10_000)
        logf = escape_log_coefficients(qpp, MARKED)
        tr = separating_majorant_weak(qpp, logf)
        assert tr.n_blocks >= 3


class TestMinCombine:
    @pytest.fixture()
    def setup(self):
        Q = make_family(FamilySpec("q18"), k_max=2000)
        g1 = make_family(FamilySpec("gevrey", s=1.0), k_max=2000)
        L1 = rescale(g1, 1.0, 2.0).with_name("L1")
        L2 = rescale(g1, 1.0, 3.0).with_name("L2")
        return Q, L1, L2

    def test_idempotent(self, setup):
        Q, L1, _ = setup
        out = min_combine(L1, L1, Q)
        np.testing.assert_allclose(out.log_M, L1.log_M, atol=1e-8)

    def test_sandwich(self, setup):
        Q, L1, L2 = setup
        out = min_combine(L1, L2, Q)
        bar = np.minimum(L1.log_M, L2.log_M)
        scale = np.maximum(1.0, np.abs(bar))
        assert np.all((out.log_M - bar) / scale <= 1e-12)
        assert np.all(out.log_M - Q.log_M >= -1e-9)
        assert is_log_convex(out, weak=True).holds

    def test_greatest_weak_log_convex_minorant(self, setup):
        Q, L1, L2 = setup
        out = min_combine(L1, L2, Q)
        # oracle: weak log-convex minorant of the pointwise min
        bar = WeightSequence("bar", 0, np.minimum(L1.log_M, L2.log_M))
        env = log_convex_minorant(bar, weak_basis=True)
        ks = np.arange(0, 2001, dtype=float)
        np.testing.assert_allclose(out.log_M, env.values - log_factorial(ks), atol=1e-9)

    def test_partial_sum_inequality(self, setup):
        # sum 1/(k! Lbar_k)^{1/k} <= sum 1/(k! L1_k)^{1/k} + sum 1/(k! L2_k)^{1/k}
        Q, L1, L2 = setup
        ks = np.arange(1, 2001, dtype=float)
        lf = log_factorial(ks)

        def inv_scale_sum(W):
            return np.sum(np.exp(-(lf + W.log_M[1:]) / ks))

        bar = WeightSequence("bar", 0, np.minimum(L1.log_M, L2.log_M))
        assert inv_scale_sum(bar) <= inv_scale_sum(L1) + inv_scale_sum(L2) + 1e-12

    def test_domination_precondition(self, setup):
        Q, L1, _ = setup
        low = rescale(Q, 1.0, 0.5).with_name("low")
        with pytest.raises(DomainError):
            min_combine(L1, low, Q)


def row_loop_lprime(Q, L):
    """O(K^2) oracle: k log C + min_{j<=k/2} log(j! L_j) + log((k-j)! L_{k-j})."""
    k_hi = min(Q.k_max, L.k_max)
    log_C = np.log(2.0) + float(growth_diagnostic(Q, "moderate-growth").margin)
    ks = np.arange(0, k_hi + 1, dtype=float)
    log_Lt = L.log_M[: k_hi + 1] + log_factorial(ks)
    out = np.empty(k_hi + 1)
    out[0] = 0.0
    for k in range(1, k_hi + 1):
        js = np.arange(0, k // 2 + 1)
        out[k] = k * log_C + np.min(log_Lt[js] + log_Lt[k - js])
    return out - log_factorial(ks)


class TestLPrime:
    @pytest.fixture()
    def setup(self):
        Q = make_family(FamilySpec("q18"), k_max=5000)
        L = rescale(make_family(FamilySpec("gevrey", s=1.0), k_max=5000), 1.0, 2.0)
        return Q, L.with_name("L")

    def test_matches_row_loop(self, setup, trace, weak_trace):
        Q, L = setup
        # 2 gevrey:1 and the strong majorant are exactly convex in the k!
        # basis (balanced split); the weak majorant is a hull whose collinear
        # runs round to negative second differences (row search)
        for M in (L, trace.output_rescaled, weak_trace.output_rescaled):
            lp = lprime_construction(Q, M)
            assert np.array_equal(lp.log_M, row_loop_lprime(Q, M)), M.name

    def test_even_odd_closed_forms(self, setup):
        Q, L = setup
        lp = lprime_construction(Q, L)
        n = lp.k_max
        ks = np.arange(0, n + 1, dtype=float)
        lt = L.log_M[: n + 1] + log_factorial(ks)
        lpt = lp.log_M + log_factorial(ks)
        logC = float(lpt[1] - lt[0] - lt[1])
        scale = np.maximum(1.0, np.abs(lpt))
        for k in range(1, min(2500, n // 2) + 1):
            even = 2 * k * logC + 2 * lt[k]
            assert abs(lpt[2 * k] - even) / scale[2 * k] <= 1e-12
            if 2 * k + 1 <= n:
                odd = (2 * k + 1) * logC + lt[k] + lt[k + 1]
                assert abs(lpt[2 * k + 1] - odd) / scale[2 * k + 1] <= 1e-12

    def test_splitting_bound(self, setup):
        Q, L = setup
        lp = lprime_construction(Q, L)
        n = lp.k_max
        lt1 = L.log_M[: n + 1]
        logC = float(lp.log_M[1] - lt1[0] - lt1[1]) + float(log_factorial(1.0))
        sup = -np.inf
        for j in range(1, n):
            ks = np.arange(1, n - j + 1)
            sup = max(
                sup,
                float(np.max((lp.log_M[j + ks] - lt1[j] - lt1[ks]) / (j + ks))),
            )
        assert sup <= logC + 1e-9

    def test_dominates_base(self, setup):
        Q, L = setup
        lp = lprime_construction(Q, L)
        assert np.min(lp.log_M - Q.log_M) >= -1e-9
        assert is_log_convex(lp, weak=True).holds

    def test_requires_unit_start(self, setup):
        Q, L = setup
        bad = rescale(L, 2.0, 1.0)
        with pytest.raises(DomainError):
            lprime_construction(Q, bad)

    def test_requires_plateaued_constant(self):
        # gevrey-1 moderate statistic has not plateaued at short lengths
        Q = make_family(FamilySpec("gevrey", s=1.0), k_max=800)
        L = rescale(Q, 1.0, 2.0)
        with pytest.raises(DomainError):
            lprime_construction(Q, L)


class TestBetaLadder:
    def test_flat_step_puts_no_bound_on_the_base_level(self):
        # k_1 = 1 gives t = (1, 1, 2); only the rising step bounds s
        log_beta, log_b = _beta_ladder([1, 2, 4], [0.0, 1.0, 3.0])
        np.testing.assert_array_equal(log_beta, 0.9 * 2.0 * np.array([1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(log_b, log_beta - [0.0, 1.0, 3.0])

    def test_unit_first_escape_index_raises_without_warning(self):
        Q = make_family(FamilySpec("q_delta_n", delta=1.0, n=3), k_max=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not log-convex"):
                separating_majorant(Q, escape_log_coefficients(Q, MARKED))


class TestMajorantTraceValidation:
    def test_rejects_non_increasing_beta(self, trace):
        with pytest.raises(DomainError):
            MajorantTrace(
                k_j=(2, 5),
                a_j=(1.0, 4.0),
                b_j=(0.5, 0.25),
                beta_j=(2.0, 2.0),
                phi_knots=(),
                output=trace.output,
                report={},
                rescale_rho=1.0,
                output_rescaled=trace.output,
            )
