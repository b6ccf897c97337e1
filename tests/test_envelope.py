import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab import envelope
from carleman_lab.envelope import (
    check_scale,
    check_sequence,
    compose_sequences,
    increasing_minorant,
    log_convex_minorant,
    lower_convex_envelope,
    uncheck_scale,
    uncheck_sequence,
)
from carleman_lab.families import FamilySpec, make_family, parse_family
from carleman_lab.seqcore import (
    DerivedScales,
    DomainError,
    WeightSequence,
    log_factorial,
    rescale,
    tabulate,
)


def brute_force_envelope(y):
    """O(N^3) two-sided infimum: env_k = min over i <= k <= j of the chord value."""
    n = len(y)
    out = np.array(y, dtype=float)
    for k in range(n):
        best = y[k]
        for i in range(k + 1):
            for j in range(k, n):
                if i == j:
                    continue
                v = y[i] + (y[j] - y[i]) * (k - i) / (j - i)
                best = min(best, v)
        out[k] = best
    return out


def segment_fill_envelope(y):
    """Monotone-chain sweep with a per-segment fill and a per-index contact scan."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    hull = [0]
    for i in range(1, n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (i - a) >= (y[i] - y[a]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(i)
    values = np.empty(n)
    for a, b in zip(hull[:-1], hull[1:]):
        t = np.arange(a, b + 1) - a
        values[a : b + 1] = y[a] + t * (y[b] - y[a]) / (b - a)
    contact = tuple(i for i in range(n) if values[i] >= y[i] - 1e-12 * max(1.0, abs(y[i])))
    return values, contact, hull[-1] - hull[-2] > 1


@st.composite
def hull_inputs(draw):
    """Arrays with pops anywhere: random, integer, convex with spikes, near-parabolic, affine."""
    n = draw(st.integers(3, 80))
    kind = draw(st.sampled_from(["floats", "integers", "spikes", "parabola", "affine"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    if kind == "integers":
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    ks = np.arange(n, dtype=float)
    if kind == "affine":
        return draw(st.floats(-5, 5)) * ks + draw(st.floats(-5, 5))
    y = draw(st.floats(1e-3, 1.0)) * (ks - draw(st.integers(0, n))) ** 2
    at = draw(st.lists(st.integers(0, n - 1), max_size=4))
    bump = draw(st.lists(st.floats(-10, 10), min_size=len(at), max_size=len(at)))
    y[at] += bump if kind == "spikes" else np.array(bump) * 1e-9
    return y


def _hull_fill_inputs():
    rng = np.random.default_rng(17)
    affine = np.concatenate(
        [np.arange(200) * -0.75, -150.0 + np.arange(300) * 0.1, -120.0 + np.arange(250) * 1.5]
    )
    q12 = make_family(FamilySpec("q_delta_n", delta=1.0, n=2), k_max=10_000)
    weak = {}
    for token in ("q18", "q18p", "q18pp", "gevrey:1", "q:1:3", "analytic"):
        W = make_family(parse_family(token), k_max=10_000)
        weak[f"{token} weak"] = W.log_M + log_factorial(W.ks.astype(float))
    return {
        "affine pieces": affine,
        "random walk": np.cumsum(rng.normal(size=5000)),
        "q:1:2 strong": q12.log_M,
        "q:1:2 weak": q12.log_M + log_factorial(q12.ks.astype(float)),
        **weak,
    }


HULL_FILL_INPUTS = _hull_fill_inputs()


class TestLowerConvexEnvelope:
    @pytest.mark.parametrize("y", HULL_FILL_INPUTS.values(), ids=HULL_FILL_INPUTS.keys())
    def test_matches_segment_fill_bit_for_bit(self, y):
        env = lower_convex_envelope(y)
        values, contact, edge = segment_fill_envelope(y)
        assert np.array_equal(env.values, values)
        assert env.contact_set == contact
        assert {type(i) for i in env.contact_set} == {int}
        assert env.is_edge_sensitive == edge

    @given(y=hull_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_segment_fill_on_drawn_arrays(self, y):
        env = lower_convex_envelope(y)
        values, contact, edge = segment_fill_envelope(y)
        assert np.array_equal(env.values, values)
        assert env.contact_set == contact and env.is_edge_sensitive == edge

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            y = np.cumsum(rng.normal(size=30))
            env = lower_convex_envelope(y)
            oracle = brute_force_envelope(y)
            np.testing.assert_allclose(env.values, oracle, atol=1e-10)

    def test_convex_input_is_fixed_point(self):
        y = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        env = lower_convex_envelope(y)
        np.testing.assert_allclose(env.values, y, atol=1e-12)
        assert env.contact_set == tuple(range(5))

    def test_envelope_below_input_and_convex(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40)
        env = lower_convex_envelope(y)
        assert np.all(env.values <= y + 1e-12)
        d2 = np.diff(env.values, 2)
        assert np.all(d2 >= -1e-10)

    def test_edge_sensitivity_flag(self):
        # last hull segment spans several indices -> edge sensitive
        y = np.array([0.0, 5.0, 5.0, 5.0, 0.0])
        assert lower_convex_envelope(y).is_edge_sensitive
        # strictly convex input: every point is a vertex
        y = np.array([0.0, 1.0, 3.0, 6.0])
        assert not lower_convex_envelope(y).is_edge_sensitive

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            lower_convex_envelope(np.array([0.0, 1.0]))

    @given(seed=st.integers(0, 10_000), n=st.integers(5, 25))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        y = np.cumsum(rng.normal(size=n))
        once = lower_convex_envelope(y).values
        twice = lower_convex_envelope(once).values
        np.testing.assert_allclose(once, twice, atol=1e-10)


class TestIncreasingMinorant:
    def test_suffix_minimum(self):
        W = tabulate([0.0, 2.0, 1.0, 3.0, 0.5, 4.0], 5, name="w")
        sc = DerivedScales.from_weight_sequence(W)
        out, edge = increasing_minorant(sc)
        # largest non-decreasing minorant == suffix minima
        oracle = np.array([min(sc.log_m[i:]) for i in range(len(sc.log_m))])
        np.testing.assert_array_equal(out, oracle)
        assert not edge

    def test_edge_flag_when_tail_drops(self):
        W = tabulate([0.0, 1.0, 5.0, 2.0], 3, name="drop")
        sc = DerivedScales.from_weight_sequence(W)
        _, edge = increasing_minorant(sc)
        assert edge


class TestCheckBijection:
    def q18(self, k_max):
        return tabulate(
            lambda k: 0.0 if k == 0 else k * math.log(k * math.log(k + math.e)) - math.lgamma(k + 1),
            k_max,
            name="q18",
        )

    def test_round_trip_scale(self):
        W = self.q18(2000)
        sc = DerivedScales.from_weight_sequence(W)
        back = uncheck_scale(check_scale(sc))
        np.testing.assert_allclose(back, sc.log_m, rtol=1e-10, atol=1e-10)

    def test_round_trip_sequences_both_ways(self):
        W = self.q18(500)
        V = uncheck_sequence(check_sequence(W))
        np.testing.assert_allclose(V.log_M, W.log_M, rtol=1e-10, atol=1e-10)
        Wc = check_sequence(W)
        Vc = check_sequence(uncheck_sequence(Wc))
        np.testing.assert_allclose(Vc.log_M, Wc.log_M, rtol=1e-10, atol=1e-10)

    def test_check_against_product_oracle(self):
        # mck_k = mck_1 * prod_{j=2}^{k} (m_j - 1)/m_{j-1}
        W = self.q18(60)
        sc = DerivedScales.from_weight_sequence(W)
        got = check_scale(sc)
        m = np.exp(sc.log_m)
        acc = m[0] - 1.0
        oracle = [math.log(acc)]
        for j in range(1, len(m)):
            acc *= (m[j] - 1.0) / m[j - 1]
            oracle.append(math.log(acc))
        np.testing.assert_allclose(got, oracle, rtol=1e-10)

    def test_defining_identity(self):
        # m_k = mck_k (1 + sum_{j<=k} 1/mck_j)
        W = self.q18(300)
        sc = DerivedScales.from_weight_sequence(W)
        mck = np.exp(check_scale(sc))
        lhs = np.exp(sc.log_m)
        rhs = mck * (1.0 + np.cumsum(1.0 / mck))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    @pytest.mark.parametrize("token", [
        "q18", "q18p", "q18pp", "q:1:1", "q:0.5:2", "q:1:2", "q:1:3", "qhat:1:2", "p:0.5:2",
        "analytic", "gevrey:1", "gevrey:0.5",
    ])
    def test_check_scale_matches_per_element_loop(self, token):
        # the former recursion over numpy scalars, as an oracle; analytic and
        # Gevrey sequences are rescaled by 3^k so that m_1 > 1
        for k_max in (3, 60, 5000):
            W = make_family(parse_family(token), k_max=k_max)
            if token.startswith(("analytic", "gevrey")):
                W = rescale(W, 1.0, 3.0)
            sc = DerivedScales.from_weight_sequence(W)
            log_m = sc.log_m
            log_m_minus_1 = log_m + np.log1p(-np.exp(-log_m))
            oracle = np.empty(len(log_m))
            oracle[0] = log_m_minus_1[0]
            for i in range(1, len(log_m)):
                oracle[i] = oracle[i - 1] + log_m_minus_1[i] - log_m[i - 1]
            assert np.array_equal(check_scale(sc), oracle), (token, k_max)

    def test_uncheck_scale_matches_per_element_loop(self):
        log_mck = check_scale(DerivedScales.from_weight_sequence(self.q18(10_000)))
        inv = np.exp(-log_mck)
        oracle = np.empty_like(log_mck)
        s = c = 0.0
        for i in range(len(log_mck)):
            y = inv[i] - c
            t = s + y
            c = (t - s) - y
            s = t
            oracle[i] = log_mck[i] + np.log1p(s)
        assert np.array_equal(uncheck_scale(log_mck), oracle)

    def test_requires_m1_greater_one(self):
        W = tabulate(lambda k: 0.0, 10, name="analytic")  # m_1 = 1
        sc = DerivedScales.from_weight_sequence(W)
        with pytest.raises(DomainError):
            check_scale(sc)

    def test_check_normalization(self):
        Wc = check_sequence(self.q18(50))
        assert Wc.log_M[0] == 0.0
        assert Wc.name == "check(q18)"


def brute_force_compose(log_M, log_L, k):
    """Enumerate all integer compositions of k."""
    best = -np.inf

    def rec(remaining, parts_log, j):
        nonlocal best
        if remaining == 0:
            best = max(best, log_M[j] + parts_log)
            return
        for a in range(1, remaining + 1):
            rec(remaining - a, parts_log + log_L[a], j + 1)

    rec(k, 0.0, 0)
    return best


def double_loop_compose(M, L, n):
    """The max-plus DP with a Python loop over (j, k): one np.max per entry."""
    logL, logM = L.log_M[: n + 1], M.log_M[: n + 1]
    G = np.full((n + 1, n + 1), -np.inf)
    G[0, 0] = 0.0
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            a_hi = k - j + 1
            G[k, j] = np.max(logL[1 : a_hi + 1] + G[k - 1 : j - 2 if j >= 2 else None : -1, j - 1])
    out = np.empty(n + 1)
    out[0] = logM[0]
    for k in range(1, n + 1):
        out[k] = np.max(logM[1 : k + 1] + G[k, 1 : k + 1])
    return out


class TestCompose:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_matches_double_loop_on_random_walks(self, seed, n):
        rng = np.random.default_rng(seed)
        M = WeightSequence("M", 0, np.cumsum(rng.normal(size=n + 3)))
        L = WeightSequence("L", 0, np.cumsum(rng.normal(size=n + 3)))
        assert np.array_equal(compose_sequences(M, L, n).log_M, double_loop_compose(M, L, n))

    @pytest.mark.parametrize("outer, inner, n", [("q:1:3", "p:1:2", 120), ("q18", "gevrey:1", 300)])
    def test_matches_double_loop_on_families(self, outer, inner, n):
        M = make_family(parse_family(outer), k_max=n)
        L = make_family(parse_family(inner), k_max=n)
        assert np.array_equal(compose_sequences(M, L, n).log_M, double_loop_compose(M, L, n))

    def test_against_enumeration(self):
        rng = np.random.default_rng(11)
        log_M = np.cumsum(np.abs(rng.normal(size=13)))
        log_L = np.cumsum(np.abs(rng.normal(size=13)))
        log_M[0] = log_L[0] = 0.0
        M = WeightSequence("M", 0, log_M)
        L = WeightSequence("L", 0, log_L)
        got = compose_sequences(M, L, 9)
        for k in range(1, 10):
            assert got.log_M[k] == pytest.approx(
                brute_force_compose(log_M, log_L, k), abs=1e-10
            )

    def test_identity_like_inner(self):
        # L_k = L_1^k makes every composition of k contribute L_1^k
        log_L = np.arange(0, 13, dtype=float) * 0.7
        log_M = np.cumsum(np.abs(np.random.default_rng(0).normal(size=13)))
        log_M[0] = 0.0
        got = compose_sequences(
            WeightSequence("M", 0, log_M), WeightSequence("L", 0, log_L), 10
        )
        expect = [max(log_M[j] for j in range(1, k + 1)) + 0.7 * k for k in range(1, 11)]
        np.testing.assert_allclose(got.log_M[1:], expect, atol=1e-10)

    def test_cap_enforced(self):
        W = tabulate(lambda k: 0.0, 600)
        with pytest.raises(DomainError):
            compose_sequences(W, W, 501)

    def test_short_input_rejected(self):
        W, short = tabulate(lambda k: 0.0, 20), tabulate(lambda k: 0.0, 9)
        for M, L in ((short, W), (W, short)):
            with pytest.raises(DomainError) as info:
                compose_sequences(M, L, 10)
            assert str(info.value) == "both sequences must be tabulated through k_max_out"


@st.composite
def log_convex_compose_inputs(draw):
    """(M, L, n) with log L_1..log L_n convex: a strictly convex walk, a dyadic
    affine line (exact zero second differences), or either under an affine
    stretch log L_k + a + b k; log L_0 and log L_1 are arbitrary."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    curvature = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    if curvature == 0.0:
        ks = np.arange(n + 3, dtype=float)
        log_L = draw(st.integers(-40, 40)) / 8 + ks * draw(st.integers(-40, 40)) / 8
    else:
        d2 = curvature * np.abs(rng.normal(size=n + 3))
        log_L = np.cumsum(rng.normal() + np.cumsum(d2))
    if draw(st.booleans()):
        log_L = log_L + rng.normal() * 10 + np.arange(n + 3) * rng.normal() * 10
    log_L[0] = rng.normal() * 10
    log_M = np.cumsum(rng.normal(size=n + 3))
    return WeightSequence("M", 0, log_M), WeightSequence("L", 0, log_L), n


class TestComposeClosedForm:
    """The Karamata closed form that compose_sequences takes for log-convex L."""

    @given(log_convex_compose_inputs())
    @settings(max_examples=150, deadline=None)
    def test_within_1e14_of_double_loop(self, inputs):
        M, L, n = inputs
        got, want = compose_sequences(M, L, n).log_M, double_loop_compose(M, L, n)
        if np.all(np.diff(L.log_M[1 : n + 1], 2) >= 0.0):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        else:  # a stretch rounded some second difference below 0: the DP ran
            assert np.array_equal(got, want)

    @given(log_convex_compose_inputs().filter(lambda t: t[2] <= 9))
    @settings(max_examples=60, deadline=None)
    def test_within_1e14_of_enumeration(self, inputs):
        M, L, n = inputs
        got = compose_sequences(M, L, n).log_M
        want = [brute_force_compose(M.log_M, L.log_M, k) for k in range(1, n + 1)]
        np.testing.assert_allclose(got[1:], want, rtol=1e-14, atol=1e-14)

    def test_one_ulp_concavity_takes_the_dynamic_program(self, monkeypatch):
        # a dyadic line has exact zero second differences; one ulp off its top
        # entry makes the last one -1 ulp, and the DP (one window per pass) must run
        n = 40
        log_L = 0.5 + 0.25 * np.arange(n + 1)
        log_M = np.cumsum(np.random.default_rng(3).normal(size=n + 1))
        M = WeightSequence("M", 0, log_M)
        windows = []
        real = envelope.sliding_window_view
        monkeypatch.setattr(envelope, "sliding_window_view",
                            lambda *a: windows.append(1) or real(*a))
        compose_sequences(M, WeightSequence("L", 0, log_L), n)
        assert len(windows) == 1  # the closed form
        log_L[n] = np.nextafter(log_L[n], -np.inf)
        d2 = np.diff(log_L[1:], 2)
        assert np.count_nonzero(d2) == 1 and d2[-1] == -np.spacing(log_L[n])
        L = WeightSequence("L", 0, log_L)
        windows.clear()
        got = compose_sequences(M, L, n).log_M
        assert len(windows) == n
        assert np.array_equal(got, double_loop_compose(M, L, n))

    @pytest.mark.parametrize("k_max_out", [0, 1])
    def test_too_short_output_rejected(self, k_max_out):
        W = tabulate(lambda k: 0.0, 10)
        with pytest.raises(DomainError, match="at least 2"):
            compose_sequences(W, W, k_max_out)


class TestLogConvexMinorant:
    def test_weak_basis_shifts_by_factorial(self):
        rng = np.random.default_rng(5)
        log_M = rng.normal(size=20)
        W = WeightSequence("w", 0, log_M)
        strong = log_convex_minorant(W, weak_basis=False)
        weak = log_convex_minorant(W, weak_basis=True)
        ks = np.arange(20, dtype=float)
        oracle = brute_force_envelope(log_M + log_factorial(ks))
        np.testing.assert_allclose(weak.values, oracle, atol=1e-9)
        np.testing.assert_allclose(
            strong.values, brute_force_envelope(log_M), atol=1e-9
        )
