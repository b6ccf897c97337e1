import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

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
from carleman_lab.families import FamilySpec, builtin_sequences, make_family, parse_family
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for i in (0, 1, 3):
            y = np.array([0.0, 1.0, 1.5, 2.0, 3.0])
            y[i] = bad
            y[4] = bad  # the message names the first non-finite index
            with pytest.raises(DomainError) as info:
                lower_convex_envelope(y)
            assert str(info.value) == f"non-finite envelope input at i={i}"

    @given(seed=st.integers(0, 10_000), n=st.integers(5, 25))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        y = np.cumsum(rng.normal(size=n))
        once = lower_convex_envelope(y).values
        twice = lower_convex_envelope(once).values
        np.testing.assert_allclose(once, twice, atol=1e-10)

    def test_contact_set_is_built_on_first_read_from_a_copy_of_the_input(self):
        y = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        env = lower_convex_envelope(y)
        assert "contact_set" not in vars(env)
        y[2] = 100.0  # the caller's array may change; the result keeps its own copy
        assert env.contact_set == (0, 1, 2, 3, 4) and "contact_set" in vars(env)
        assert env.y.tobytes() == np.array([0.0, 1.0, 3.0, 6.0, 10.0]).tobytes()


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


class TestCompensatedCumsum:
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_error_bound_against_exact_prefix_sums(self, xs):
        # Sum2 (Ogita, Rump and Oishi 2005, Prop. 4.5) on the first i + 1 terms:
        # |s_i - S_i| <= u |S_i| + gamma_i^2 sum |x_j|, u = 2^-53, gamma_i = i u / (1 - i u)
        got = envelope._compensated_cumsum(xs).tolist()
        u, exact, mass = Fraction(1, 2**53), Fraction(0), Fraction(0)
        for i, (x, s) in enumerate(zip(xs, got)):
            exact += Fraction(x)
            mass += abs(Fraction(x))
            gamma = i * u / (1 - i * u)
            assert abs(Fraction(s) - exact) <= u * abs(exact) + gamma**2 * mass, i

    def test_exact_where_plain_cumsum_is_not(self):
        # 1 + 2^-53 + 2^-53 + ...: cumsum drops every small term, the compensation keeps them
        xs = np.array([1.0] + [2.0**-53] * 1000)
        assert np.cumsum(xs)[-1] == 1.0
        assert envelope._compensated_cumsum(xs)[-1] == 1.0 + 1000 * 2.0**-53


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


def window_dp_compose(M, L, n):
    """The O(n^3) max-plus DP with one loop over the number of parts j: pass j folds
    log M_j + G_j[k] into a running maximum, G_j[k] = max_a log L_a + G_{j-1}[k - a]."""
    logL = L.log_M[: n + 1]
    logM = M.log_M[: n + 1]
    out = np.full(n + 1, -np.inf)
    out[0] = logM[0]
    # after pass j, G[k] for k >= j is the max over alpha in N_{>0}^j with
    # sum alpha = k of sum log L_{a_i}
    G = np.full(n + 1, -np.inf)
    G[0] = 0.0
    for j in range(1, n + 1):
        N = n - j + 1
        # row t = k - j pairs G[k - a] of pass j - 1 with log L_a for
        # a = N .. 1, padded with -inf where k - a < j - 1
        prev = np.concatenate((np.full(N - 1, -np.inf), G[j - 1 : n]))
        G[j:] = np.max(sliding_window_view(prev, N) + logL[N:0:-1], axis=1)
        out[j:] = np.maximum(out[j:], logM[j] + G[j:])
    return out


def karamata_compose(M, L, n):
    """The O(n^2) Karamata form for log-convex L: every candidate j of every k in one array."""
    logL, logM = L.log_M[: n + 1], M.log_M[: n + 1]
    c = np.concatenate(([0.0], np.add.accumulate(np.full(n - 1, logL[1]))))
    # row j - 1, column k - 1 holds log L_{k-j+1}, or -inf where k < j
    parts = sliding_window_view(np.concatenate((np.full(n - 1, -np.inf), logL[1:])), n)[::-1]
    cand = parts + c[:, None]
    cand += logM[1:, None]
    return np.concatenate(([logM[0]], cand.max(axis=0)))


def exactly_convex(y):
    return bool(np.all(np.diff(y, 2) >= 0.0))


def hull_gap(y):
    """max(y - h) over the lower convex envelope h of y; 0 when y is exactly convex."""
    return 0.0 if exactly_convex(y) else float(np.max(y - lower_convex_envelope(y).values))


def assert_bounds_or_names_a_side(M, L, n, want):
    """compose_sequences returns lo with lo <= want <= lo + gap_M + k gap_L + rounding, where
    want is an oracle's M o L; or it raises DomainError naming a side whose hull gap is > 0.

    lo's two candidates are summed exactly as the oracles sum the same compositions, so
    lo <= want holds as rounded.  Each side of the upper bound is a sum of at most k + 2
    terms no larger than mass_k = max |log M| + k max |log L|, so each rounds by at most
    (k + 2) eps mass_k: the rounding allowance is twice that.  Returns whether lo came back.
    """
    gaps = {"log M": hull_gap(M.log_M[1 : n + 1]), "log L": hull_gap(L.log_M[1 : n + 1])}
    try:
        lo = compose_sequences(M, L, n).log_M
    except DomainError as e:
        named = re.fullmatch(rf"(log [ML]) is not convex on 1\.\.{n}: it rises (\S+) above its convex hull",
                             str(e))
        assert named and gaps[named[1]] > 0.0, str(e)
        assert float(named[2]) == pytest.approx(gaps[named[1]], rel=1e-2)
        return False
    k = np.arange(n + 1)
    mass = np.max(np.abs(M.log_M[: n + 1])) + k * np.max(np.abs(L.log_M[: n + 1]))
    rounding = 2 * (k + 2) * 2.0**-52 * mass
    assert lo[0] == want[0] and np.all(lo <= want)
    assert np.all(want[1:] <= (lo + gaps["log M"] + k * gaps["log L"] + rounding)[1:])
    # and lo is returned only where that bound is within the slack
    assert np.all(want <= lo + envelope._COMPOSE_SLACK * np.maximum(1.0, np.abs(lo)) + rounding)
    return True


ENDPOINT_TOKENS = tuple(builtin_sequences(k_max=3)) + ("qhat:1:2", "qhat:1:3", "p:0.3:2",
                                                       "p:0.5:2", "p:1:1", "p:1:2", "p:0.5:3")
NON_CONVEX_TOKENS = ["p:0.5:3", "p:1:2", "q:1:3", "qhat:1:3"]


def convex_random_walk(seed, size):
    """y_0 = 0 and y_1.. a cumulative sum of cumulative sums of |normal|, convex as rounded."""
    y = np.cumsum(np.cumsum(np.abs(np.random.default_rng(seed).normal(size=size))))
    y[0] = 0.0
    assert exactly_convex(y[1:])
    return y


class TestCompose:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_random_walks_raise_or_bound_the_double_loop(self, seed, n):
        # the window DP, the fast oracle, is itself checked bit for bit against the double loop
        rng = np.random.default_rng(seed)
        M = WeightSequence("M", 0, np.cumsum(rng.normal(size=n + 3)))
        L = WeightSequence("L", 0, np.cumsum(rng.normal(size=n + 3)))
        want = double_loop_compose(M, L, n)
        assert np.array_equal(window_dp_compose(M, L, n), want)
        assert_bounds_or_names_a_side(M, L, n, want)

    @pytest.mark.parametrize("outer, inner, n", [("q:1:3", "p:1:2", 120), ("q18", "gevrey:1", 300)])
    def test_matches_double_loop_on_families(self, outer, inner, n):
        M = make_family(parse_family(outer), k_max=n)
        L = make_family(parse_family(inner), k_max=n)
        assert np.array_equal(compose_sequences(M, L, n).log_M, double_loop_compose(M, L, n))

    def test_against_enumeration(self):
        log_M, log_L = convex_random_walk(11, 13), convex_random_walk(12, 13)
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
        log_M = convex_random_walk(0, 13)
        got = compose_sequences(
            WeightSequence("M", 0, log_M), WeightSequence("L", 0, log_L), 10
        )
        expect = [max(log_M[j] for j in range(1, k + 1)) + 0.7 * k for k in range(1, 11)]
        np.testing.assert_allclose(got.log_M[1:], expect, atol=1e-10)

    @pytest.mark.parametrize("n", [40, 600])
    def test_random_walk_raises_on_either_side(self, n):
        # a walk rises far above its hull, as M under a convex L and as L under a convex M;
        # the all-zero pair is exactly convex and composes to zeros at any n
        walk = WeightSequence("walk", 0, np.cumsum(np.random.default_rng(4).normal(size=n + 1)))
        zero = tabulate(lambda k: 0.0, n)
        gap = hull_gap(walk.log_M[1:])
        for M, L, which in ((walk, zero, "log M"), (zero, walk, "log L")):
            with pytest.raises(DomainError) as info:
                compose_sequences(M, L, n)
            assert str(info.value) == (
                f"{which} is not convex on 1..{n}: it rises {gap:.3g} above its convex hull")
        assert np.array_equal(compose_sequences(zero, zero, n).log_M, np.zeros(n + 1))

    def test_gap_of_log_L_counts_once_per_part(self):
        # one bump of 1e-14 (about 45 eps) at L_2: the composition into k/2 parts of 2
        # gains k/2 bumps, so lo = 0 is M o L to within 256 eps only while k <= 5
        zero = tabulate(lambda k: 0.0, 40)
        bumped = tabulate(lambda k: 1e-14 if k == 2 else 0.0, 40)
        assert_bounds_or_names_a_side(zero, bumped, 5, double_loop_compose(zero, bumped, 5))
        assert np.array_equal(compose_sequences(zero, bumped, 5).log_M, [0, 0, 1e-14, 0, 0, 0])
        with pytest.raises(DomainError, match=r"^log L is not convex on 1\.\.40: it rises 1e-14 above"):
            compose_sequences(zero, bumped, 40)

    def test_short_input_rejected(self):
        W, short = tabulate(lambda k: 0.0, 20), tabulate(lambda k: 0.0, 9)
        for M, L in ((short, W), (W, short)):
            with pytest.raises(DomainError) as info:
                compose_sequences(M, L, 10)
            assert str(info.value) == "both sequences must be tabulated through k_max_out"


@st.composite
def convex_walks(draw, size):
    """y_0..y_{size-1} with y_1.. convex: a strictly convex walk, a dyadic affine line
    (exact zero second differences), or either under an affine stretch y_k + a + b k,
    which may round a second difference below 0; y_0 is arbitrary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    curvature = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    if curvature == 0.0:
        y = draw(st.integers(-40, 40)) / 8 + np.arange(size) * draw(st.integers(-40, 40)) / 8
    else:
        y = np.cumsum(rng.normal() + np.cumsum(curvature * np.abs(rng.normal(size=size))))
    if draw(st.booleans()):
        y = y + rng.normal() * 10 + np.arange(size) * rng.normal() * 10
    y[0] = rng.normal() * 10
    return y


@st.composite
def log_convex_compose_inputs(draw):
    """(M, L, n) with log L a convex walk, and log M a convex walk too or a random walk."""
    n = draw(st.integers(2, 60))
    log_L = draw(convex_walks(n + 3))
    if draw(st.booleans()):
        log_M = draw(convex_walks(n + 3))
    else:
        log_M = np.cumsum(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n + 3))
    return WeightSequence("M", 0, log_M), WeightSequence("L", 0, log_L), n


class TestComposeEndpoints:
    """compose_sequences on exactly convex pairs, bit-identical to the O(n^2) Karamata form,
    and on the built-in pairs, bit-identical to the O(n^3) DP."""

    @given(log_convex_compose_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_karamata_form(self, inputs):
        M, L, n = inputs
        assume(exactly_convex(L.log_M[1 : n + 1]) and exactly_convex(M.log_M[1 : n + 1]))
        assert compose_sequences(M, L, n).log_M.tobytes() == karamata_compose(M, L, n).tobytes()

    @pytest.mark.parametrize("n", [300, 500])
    def test_builtin_pairs_keep_their_bytes(self, n):
        # the DP takes about 12 s on the 128 pairs with a non-convex side at 500, so 500
        # checks those four tokens against gevrey:1 each way, and the rest by the Karamata form
        seqs = {t: make_family(parse_family(t), k_max=n) for t in ENDPOINT_TOKENS}
        convex = [t for t, W in seqs.items() if exactly_convex(W.log_M[1:])]
        assert sorted(set(seqs) - set(convex)) == NON_CONVEX_TOKENS
        for outer, inner in itertools.product(convex, convex):
            M, L = seqs[outer], seqs[inner]
            got = compose_sequences(M, L, n).log_M
            assert got.tobytes() == karamata_compose(M, L, n).tobytes(), (outer, inner)
        if n == 300:
            pairs = itertools.product(seqs, seqs)
        else:
            pairs = [p for t in NON_CONVEX_TOKENS for p in ((t, "gevrey:1"), ("gevrey:1", t))]
        for outer, inner in pairs:
            M, L = seqs[outer], seqs[inner]
            got = compose_sequences(M, L, n).log_M
            assert got.tobytes() == window_dp_compose(M, L, n).tobytes(), (outer, inner)

    def test_every_builtin_pair_composes_at_1e5(self):
        # a slack too tight for the hull gaps of the four non-convex tokens would raise here
        n = 100_000
        seqs = [make_family(parse_family(t), k_max=n) for t in ENDPOINT_TOKENS]
        for M, L in itertools.product(seqs, seqs):
            got = compose_sequences(M, L, n).log_M
            assert len(got) == n + 1 and np.all(np.isfinite(got)), (M.name, L.name)

    def test_uncapped_and_prefix_stable(self):
        M, L = (make_family(parse_family(t), k_max=100_000) for t in ("q:1:3", "gevrey:1"))
        short = compose_sequences(M, L, 300).log_M
        got = compose_sequences(M, L, 100_000).log_M
        assert len(got) == 100_001 and np.all(np.isfinite(got))
        assert got[:301].tobytes() == short.tobytes()


class TestComposeBound:
    """Convex L under a convex or random-walk M: lo <= M o L <= lo + gap_M + k gap_L against
    the double loop and enumeration, or a DomainError naming the non-convex side."""

    @given(log_convex_compose_inputs())
    @settings(max_examples=150, deadline=None)
    def test_bounds_the_double_loop(self, inputs):
        M, L, n = inputs
        returned = assert_bounds_or_names_a_side(M, L, n, double_loop_compose(M, L, n))
        if exactly_convex(M.log_M[1 : n + 1]) and exactly_convex(L.log_M[1 : n + 1]):
            assert returned

    @given(log_convex_compose_inputs().filter(lambda t: t[2] <= 9))
    @settings(max_examples=60, deadline=None)
    def test_bounds_enumeration(self, inputs):
        M, L, n = inputs
        want = [M.log_M[0]] + [brute_force_compose(M.log_M, L.log_M, k) for k in range(1, n + 1)]
        assert_bounds_or_names_a_side(M, L, n, np.array(want))

    def test_one_ulp_concavity_returns_within_the_bound(self, monkeypatch):
        # a dyadic line has exact zero second differences and builds no hull; one ulp off
        # its top entry makes the last one -1 ulp, and the hull of log L puts that in the gap
        n = 40
        log_L = 0.5 + 0.25 * np.arange(n + 1)
        convex_M = WeightSequence("M", 0, 0.125 * np.arange(n + 1) ** 2)
        walk_M = WeightSequence("walk", 0, np.cumsum(np.random.default_rng(3).normal(size=n + 1)))
        hulls = []
        monkeypatch.setattr(envelope, "lower_convex_envelope",
                            lambda y: hulls.append(len(y)) or lower_convex_envelope(y))
        dyadic = WeightSequence("L", 0, log_L)
        got = compose_sequences(convex_M, dyadic, n).log_M
        assert hulls == [] and np.array_equal(got, double_loop_compose(convex_M, dyadic, n))
        with pytest.raises(DomainError, match=rf"^log M is not convex on 1\.\.{n}: "):
            compose_sequences(walk_M, dyadic, n)
        log_L[n] = np.nextafter(log_L[n], -np.inf)
        d2 = np.diff(log_L[1:], 2)
        assert np.count_nonzero(d2) == 1 and d2[-1] == -np.spacing(log_L[n])
        L = WeightSequence("L", 0, log_L)
        hulls.clear()
        assert assert_bounds_or_names_a_side(convex_M, L, n, double_loop_compose(convex_M, L, n))
        assert hulls == [n] and 0.0 < hull_gap(log_L[1:]) <= np.spacing(log_L[n])

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
