import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab import cli
from carleman_lab.envelope import check_scale, check_sequence, log_convex_minorant
from carleman_lab.families import FamilySpec, make_family
from carleman_lab.fdb import TruncatedSeries
from carleman_lab.intersections import (
    _greedy_escape_indices,
    _phi,
    _schedule,
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

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.inf, math.nan])
    def test_factor_must_be_finite_and_positive(self, q18, factor):
        with pytest.raises(DomainError, match="escape factor"):
            escape_log_coefficients(q18, MARKED, factor=factor)

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
        d = json.loads(cli.dumps(trace.to_dict()))
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

    def test_blockwise_levels_match_the_former_block_loop(self, q18, witness, weak_trace):
        assert weak_trace.report["pre_rescaled_by_e"] is False
        s = _schedule(q18, witness)
        log_l = np.empty(s.k_j[-1])
        lo = 0
        for j, kj in enumerate(s.k_j):
            log_l[lo:kj] = s.log_beta[j] + s.log_qck[lo:kj]
            lo = kj
        ks = np.arange(1, len(log_l) + 1, dtype=float)
        expect = np.concatenate(([0.0], ks * log_l - log_factorial(ks)))
        assert np.array_equal(weak_trace.output.log_M, expect)

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
    @pytest.mark.parametrize("weak", [[], ["--weak"]], ids=["strong", "weak"])
    def test_marked_unit_index_is_not_an_escape_index(self, weak, capsys):
        # k_0 = 1 would leave beta_1 = beta_0^1; the escape search starts at k = 2
        runs = []
        for marked in ("1,10,40,160,640", "10,40,160,640"):
            argv = ["majorant", "--family", "q18", "--kmax", "3000", "--marked", marked, *weak]
            runs.append((cli.run(argv), *capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_q13_default_witness_raises_without_warning(self):
        # exp(-log m_1) underflows on q:1:3, so the unmarked k = 1 sits exactly
        # on the threshold a_0 = 1; the escape search starts past it, at k_0 = 2
        Q = make_family(FamilySpec("q_delta_n", delta=1.0, n=3), k_max=5000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not log-convex"):
                separating_majorant(Q, escape_log_coefficients(Q, MARKED))

    @pytest.mark.parametrize("build", [separating_majorant, separating_majorant_weak])
    def test_bound_past_float_range(self, build):
        # b_j ~ 1e-308^k_j: 1/(a_j b_j) would overflow (a RuntimeWarning here)
        Q = make_family(FamilySpec("q18"), k_max=400)
        with pytest.raises(DomainError, match="float range"):
            build(Q, escape_log_coefficients(Q, [10, 40, 160], factor=1e308))


def exact_coefficient(log_c):
    """An int near e^log_c from a 53-bit mantissa; it may lie far past the float range."""
    e = max(int(log_c / math.log(2.0)) - 52, 0)
    return round(math.exp(log_c - e * math.log(2.0))) << e


class TestExactWitness:
    @pytest.mark.parametrize("build", [separating_majorant, separating_majorant_weak])
    def test_series_past_float_range_matches_its_log_coefficients(self, build):
        Q = make_family(FamilySpec("q18"), k_max=400)
        logf = escape_log_coefficients(Q, [10, 40, 160])
        coeffs = [0] + [exact_coefficient(x) for x in logf[1:]]
        coeffs[7] = 0  # a zero coefficient has log -inf (no RuntimeWarning)
        assert max(coeffs) > 10**400
        # log|c| as fdb takes it: in float when c fits, exactly when it does not
        logs = [-math.inf if c == 0 else math.log(c) if c > 2.0**1000 else np.log(float(c))
                for c in coeffs]
        got = build(Q, TruncatedSeries(tuple(coeffs)))
        expect = build(Q, np.array(logs))
        assert cli.dumps(got.to_dict()) == cli.dumps(expect.to_dict())
        assert got.k_j[:3] == (10, 40, 160)


def double_loop_escape_indices(log_ratio):
    """The greedy search from k = 2, one Python scan per threshold (oracle)."""
    k_j, log_a = [], []
    log4 = np.log(4.0)
    j, start = 0, 1
    while True:
        thr = j * log4
        idx = None
        for i in range(start, len(log_ratio)):
            if log_ratio[i] >= thr:
                idx = i
                break
        if idx is None:
            return k_j, log_a
        k_j.append(idx + 1)
        log_a.append(thr)
        start = idx + 1
        j += 1


def per_k_phi(k_j, log_beta, k_max):
    """The former knot loop and per-k exponent loop of the strong majorant (oracle)."""
    m = len(k_j)
    c, d = np.empty(m), np.empty(m)
    c[0], d[0] = 0.0, log_beta[0]
    for j in range(1, m):
        d[j] = (k_j[j] * log_beta[j] - k_j[j - 1] * log_beta[j - 1]) / (k_j[j] - k_j[j - 1])
        c[j] = k_j[j] * (log_beta[j] - d[j])
    if np.any(np.diff(d) < 0.0):
        raise DomainError("slopes d_j failed to be non-decreasing")
    if np.any(c > 1e-12):
        raise DomainError("intercepts c_j failed to be non-positive")
    phi = np.empty(k_max + 1)
    block = 0
    for k in range(k_max + 1):
        while block < m and k > k_j[block]:
            block += 1
        jj = min(block, m - 1)
        phi[k] = c[jj] + d[jj] * k
    phi[0] = 0.0
    return phi


RATIOS = st.lists(
    st.one_of(
        st.floats(-2.0, 12.0),
        st.integers(0, 8).map(lambda j: j * np.log(4.0)),  # exactly on a threshold
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
    max_size=300,
)
KNOTS = st.lists(st.integers(1, 400), min_size=3, max_size=8, unique=True).map(sorted)


class TestVectorisedLoopsAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(RATIOS)
    def test_greedy_escape_indices(self, ratios):
        log_ratio = np.array(ratios, dtype=float)
        k_j, log_a = _greedy_escape_indices(log_ratio)
        ok_j, ok_a = double_loop_escape_indices(log_ratio)
        assert np.array_equal(k_j, ok_j) and np.array_equal(log_a, ok_a)
        assert k_j.dtype.kind == "i" and log_a.dtype == float

    @settings(max_examples=300, deadline=None)
    @given(KNOTS, st.floats(1e-6, 2.0), st.integers(0, 60), st.booleans(), st.data())
    def test_phi(self, k_j, s, extra, ladder, data):
        # on the beta ladder phi is well defined; random levels also reach its guards
        if ladder:
            log_beta = s * np.cumprod([1.0] + k_j[:-1])
        else:
            log_beta = np.array(data.draw(st.lists(
                st.floats(-5.0, 50.0), min_size=len(k_j), max_size=len(k_j))))
        k_max = k_j[-1] + extra

        def outcome(fn, *args):
            try:
                return fn(*args)
            except DomainError as e:
                return str(e)

        got = outcome(_phi, np.array(k_j), log_beta, k_max)
        expect = outcome(per_k_phi, k_j, log_beta, k_max)
        if isinstance(expect, str):
            assert got == expect
        else:
            assert np.array_equal(got, expect)

    def test_strong_majorant_is_the_oracle_phi_over_the_check_sequence(self, q18, witness, trace):
        s = _schedule(q18, witness)
        phi = per_k_phi(list(s.k_j), s.log_beta, q18.k_max)
        assert np.array_equal(trace.output.log_M, phi + check_sequence(q18).log_M)


class TestGuards:
    @pytest.fixture(scope="class")
    def q18_5000(self):
        return make_family(FamilySpec("q18"), k_max=5000)

    def test_min_combine_needs_weakly_log_convex_inputs(self, q18_5000):
        Q = q18_5000
        bumpy = WeightSequence("bumpy", 0, Q.log_M + 10.0 + 5.0 * (Q.ks % 2))
        with pytest.raises(DomainError, match=r"^'bumpy' is not weakly log-convex \(witness k=\d+\)$"):
            min_combine(bumpy, bumpy, Q)

    def test_lprime_needs_a_dominating_input(self, q18_5000):
        low = rescale(q18_5000, 1.0, 0.5).with_name("low")
        with pytest.raises(DomainError, match=r"^'low' does not dominate 'q18' at k=1$"):
            lprime_construction(q18_5000, low)

    def test_min_combine_names_the_first_undominated_index(self, q18_5000):
        Q = q18_5000
        L = rescale(make_family(FamilySpec("gevrey", s=1.0), k_max=5000), 1.0, 2.0)
        dip = WeightSequence("dip", 0, np.minimum(L.log_M, Q.log_M - 1.0 * (Q.ks >= 3)))
        with pytest.raises(DomainError, match=r"^'dip' does not dominate 'q18' at k=3$"):
            min_combine(L, dip, Q)


class TestMajorantTraceValidation:
    @pytest.mark.parametrize("k_j, beta_j, message", [
        ((5, 5), (2.0, 3.0), "escape indices must be strictly increasing"),
        ((2, 5), (1.0, 3.0), "block levels beta_j must exceed 1"),
        ((2, 5), (2.0, 2.0), "block levels beta_j must be strictly increasing"),
    ], ids=["k_j-repeat", "beta-at-1", "beta-flat"])
    def test_rejects_bad_schedule(self, trace, k_j, beta_j, message):
        with pytest.raises(DomainError) as info:
            MajorantTrace(
                k_j=k_j,
                a_j=(1.0, 4.0),
                b_j=(0.5, 0.25),
                beta_j=beta_j,
                phi_knots=(),
                output=trace.output,
                report={},
                rescale_rho=1.0,
                output_rescaled=trace.output,
            )
        assert str(info.value) == message
