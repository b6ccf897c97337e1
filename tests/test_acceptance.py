"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line on the real stdout (bypassing
capture) so the battery can be read off a plain pytest run.  Criteria that
are genuinely unattainable on finite prefixes are implemented faithfully,
marked xfail, and analyzed in the project decisions ledger.
"""

import math
import sys
import time

import numpy as np
import pytest

from carleman_lab.envelope import (
    check_scale,
    check_sequence,
    log_convex_minorant,
    uncheck_scale,
    uncheck_sequence,
)
from carleman_lab.families import (
    FamilySpec,
    builtin_sequences,
    make_family,
    p_scale,
    q_scale,
)
from carleman_lab.fdb import TruncatedSeries, compose_series, verify_composition_bound
from carleman_lab.intersections import (
    escape_log_coefficients,
    lprime_construction,
    separating_majorant,
)
from carleman_lab.predicates import (
    growth_diagnostic,
    inclusion_diagnostic,
    is_log_convex,
    quasianalytic_diagnostic,
)
from carleman_lab.seqcore import (
    DerivedScales,
    MembershipCertificate,
    WeightSequence,
    fm_membership,
    log_factorial,
    rescale,
    tabulate,
)


CRITERION_LINES = []


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion}: {status} — {detail}"
    CRITERION_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _decade_increase(trace: np.ndarray) -> float:
    n = len(trace)
    i = max(0, n - 1 - 9 * (n - 1) // 10)
    return float(trace[-1] - trace[i])


def test_criterion_01_round_trip_bijection():
    battery = builtin_sequences(k_max=5000)
    eligible = {name: W for name, W in battery.items() if W.log_M[1] > 0.0}
    assert eligible, "battery must contain sequences with m_1 > 1"
    t0 = time.perf_counter()
    worst = 0.0
    for name, W in eligible.items():
        sc = DerivedScales.from_weight_sequence(W)
        back = uncheck_scale(check_scale(sc))
        rel = np.max(np.abs(back - sc.log_m) / np.maximum(1.0, np.abs(sc.log_m)))
        worst = max(worst, float(rel))
        V = uncheck_sequence(check_sequence(W))
        np.testing.assert_allclose(V.log_M, W.log_M, rtol=1e-10, atol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(
        "1",
        ok,
        f"check/uncheck round-trip on {len(eligible)} built-ins, k<=5000: "
        f"max rel err {worst:.3e}, {elapsed:.2f}s",
    )
    assert ok


def _oracle_envelope(y: np.ndarray) -> np.ndarray:
    """Two-sided infimum formula, vectorized per index."""
    n = len(y)
    out = np.empty(n)
    for k in range(n):
        i = np.arange(0, k + 1, dtype=float)
        j = np.arange(k, n, dtype=float)
        denom = j[None, :] - i[:, None]
        degenerate = denom == 0.0  # the i = j = k cell, handled by y[k] itself
        denom[degenerate] = 1.0
        chords = (
            (j[None, :] - k) * y[: k + 1, None] + (k - i[:, None]) * y[None, k:]
        ) / denom
        chords[degenerate] = np.inf
        out[k] = min(float(chords.min()), y[k])
    return out


def test_criterion_02_minorant_oracle_equivalence():
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        y = np.cumsum(rng.normal(size=60)) * rng.uniform(0.5, 3.0)
        W = WeightSequence("r", 0, y)
        got = log_convex_minorant(W).values
        oracle = _oracle_envelope(y)
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        "2",
        ok,
        f"hull vs two-sided-inf oracle on 100 random length-60 inputs: "
        f"max abs err {worst:.3e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_sandwich():
    t0 = time.perf_counter()
    k_hi = 100_000
    ks = np.arange(1, k_hi + 1, dtype=float)
    log_m = uncheck_scale(np.log(ks))
    ratio = np.exp(log_m) / (ks * np.log(ks + math.e))
    window = ratio[9:]
    osc = float(np.ptp(window[len(window) - len(window) // 10 :]))
    elapsed = time.perf_counter() - t0
    ok = (
        bool(np.all(window >= 0.5))
        and bool(np.all(window <= 3.0))
        and osc < 0.05
        and elapsed < 1.0
    )
    _report(
        "3",
        ok,
        f"q' sandwich on [10, 1e5]: ratio in [{window.min():.4f}, {window.max():.4f}], "
        f"last-decade oscillation {osc:.4f}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_04_classifications():
    t0 = time.perf_counter()
    q18 = make_family(FamilySpec("q18"), k_max=10_000)
    parts = []
    parts.append(("q18 log-convex", is_log_convex(q18).holds))
    parts.append(
        ("q18 moderate plateau", growth_diagnostic(q18, "moderate-growth").holds)
    )
    parts.append(
        (
            "q18 quasianalytic divergent",
            quasianalytic_diagnostic(q18).classification == "divergent-trend",
        )
    )
    parts.append(("q18 Q_1 > 1", q18.log_M[1] > 0.0))
    for s in (0.5, 1.0, 2.0):
        g = make_family(FamilySpec("gevrey", s=s), k_max=10_000)
        parts.append(
            (
                f"gevrey:{s:g} convergent",
                quasianalytic_diagnostic(g).classification == "convergent-trend",
            )
        )
    qpp = make_family(FamilySpec("q18_doubleprime"), k_max=10_000)
    v = is_log_convex(check_sequence(qpp))
    parts.append(("check(q18pp) fails finitely", v.outcome == "fails" and v.witness_k is not None))
    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag in parts) and elapsed < 10.0
    bad = [name for name, flag in parts if not flag]
    _report(
        "4",
        ok,
        f"classification battery at k_max 1e4 in {elapsed:.1f}s"
        + (f"; failing: {bad}" if bad else ""),
    )
    assert ok


def test_criterion_05_alpha_law():
    q18 = make_family(FamilySpec("q18"), k_max=10_000)
    details = []
    ok = True
    for s in (0.5, 1.0, 2.0):
        L = make_family(FamilySpec("gevrey", s=s), k_max=10_000)
        sc = DerivedScales.from_weight_sequence(L)
        ks = np.arange(2, L.k_max + 1, dtype=float)
        log_alpha = np.log(ks) + np.log(np.log(ks)) - sc.log_m[1:]
        run_sup = np.maximum.accumulate(log_alpha)
        inc = _decade_increase(run_sup)
        incl = inclusion_diagnostic(q18, L)
        ok = ok and inc < 1e-3 and incl.holds
        details.append(f"s={s:g}: sup={math.exp(run_sup[-1]):.4f} inc={inc:.1e} incl={incl.outcome}")
    _report("5", ok, "; ".join(details))
    assert ok


def test_criterion_06_separating_majorant():
    q18 = make_family(FamilySpec("q18"), k_max=10_000)
    marked = [10, 40, 160, 640, 2560]
    trace = separating_majorant(q18, escape_log_coefficients(q18, marked))
    checks = {
        "blocks >= 3": trace.n_blocks >= 3,
        "l/g == b exactly": all(
            abs(math.log(r) - math.log(b)) <= 1e-12
            for r, b in zip(trace.report["l_over_g_at_kj"], trace.b_j)
        ),
        "block sums bounded": all(
            s <= bound * (1 + 1e-12)
            for s, bound in zip(
                trace.report["block_sums"], trace.report["bound_1_over_ab"]
            )
        ),
        "L log-convex, L_0 = 1": trace.output.log_M[0] == 0.0
        and is_log_convex(trace.output).holds,
    }
    ks = np.array([k for k, _ in trace.phi_knots], dtype=float)
    vs = np.array([v for _, v in trace.phi_knots])
    slopes = np.diff(vs) / np.diff(ks)
    checks["phi convex, d_j nondecreasing"] = bool(np.all(np.diff(slopes) >= -1e-12))
    ok = all(checks.values())
    bad = [name for name, flag in checks.items() if not flag]
    _report(
        "6",
        ok,
        f"escape trace k_j={list(trace.k_j)}"
        + (f"; failing: {bad}" if bad else ""),
    )
    assert ok


def test_criterion_07_splitting_identities():
    Q = make_family(FamilySpec("q18"), k_max=5000)
    L = rescale(make_family(FamilySpec("gevrey", s=1.0), k_max=5000), 1.0, 2.0)
    lp = lprime_construction(Q, L)
    n = lp.k_max
    ks = np.arange(0, n + 1, dtype=float)
    lt = L.log_M[: n + 1] + log_factorial(ks)
    lpt = lp.log_M + log_factorial(ks)
    log_C = math.log(2.0) + growth_diagnostic(Q, "moderate-growth").margin
    scale = np.maximum(1.0, np.abs(lpt))
    worst = 0.0
    for k in range(1, 2501):
        if 2 * k <= n:
            worst = max(worst, abs(lpt[2 * k] - (2 * k * log_C + 2 * lt[k])) / scale[2 * k])
        if 2 * k + 1 <= n:
            worst = max(
                worst,
                abs(lpt[2 * k + 1] - ((2 * k + 1) * log_C + lt[k] + lt[k + 1]))
                / scale[2 * k + 1],
            )
    sup = -np.inf
    for j in range(1, n):
        kk = np.arange(1, n - j + 1)
        sup = max(sup, float(np.max((lp.log_M[j + kk] - L.log_M[j] - L.log_M[kk]) / (j + kk))))
    ok = worst <= 1e-12 and sup <= log_C + 1e-9
    _report(
        "7",
        ok,
        f"even/odd identities rel err {worst:.2e} (k<=2500); "
        f"splitting sup {sup:.6f} <= log C = {log_C:.6f}",
    )
    assert ok


def _bell_by_set_partitions(n):
    """Bell triangle: B_{k+1} = sum_i C(k, i) B_i, counting set partitions."""
    out = [1]
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        out.append(row[0])
    return out


def test_criterion_08_composition_numerics():
    n = 26
    f = TruncatedSeries(tuple([1] * (n + 1)))
    g = TruncatedSeries(tuple([0] + [1] * n))
    out = compose_series(f, g)
    oracle = _bell_by_set_partitions(24)
    bell_ok = all(out.coeffs[k] == oracle[k] for k in range(25))

    rng = np.random.default_rng(1806)
    ks = np.arange(0, 14, dtype=float)
    W = tabulate(list(0.4 * ks * np.log(ks + 1.0)), 13, name="w", claims={"log-convex"})
    violations = 0
    for _ in range(200):
        fc = rng.normal(size=13) * np.exp(rng.uniform(0.0, 0.5) * log_factorial(ks[:13]))
        gc = rng.normal(size=13)
        gc[0] = 0.0
        rho_f = float(rng.uniform(0.5, 3.0))
        rho_g = float(rng.uniform(0.5, 3.0))
        cf = MembershipCertificate(
            C=max(fm_membership(list(fc), W, rho_f), 1e-9), rho=rho_f, seq=W
        )
        cg = MembershipCertificate(
            C=max(fm_membership(list(gc), W, rho_g), 1e-9), rho=rho_g, seq=W
        )
        rep = verify_composition_bound(
            TruncatedSeries(tuple(fc), certificate=cf),
            TruncatedSeries(tuple(gc), certificate=cg),
        )
        violations += len(rep["violations"])
    ok = bell_ok and violations == 0
    _report(
        "8",
        ok,
        f"Bell exact k<=24: {bell_ok}; composition-bound violations over "
        f"200 certified pairs: {violations}",
    )
    assert ok


def test_criterion_09_iterated_log_families():
    # (a) hat ratio bracket for n = 2 over [kappa_2, 1e5]
    ks, hat = p_scale(1.0, 1, 100_000)
    r = hat / q_scale(1.0, 2, ks)
    bracket_ok = bool(np.all(r >= 0.95)) and bool(np.all(r <= 1.05))
    # (b) p^{0.3,2} / p^{0.7,2} bracketed
    _, p3 = p_scale(0.3, 2, 100_000)
    _, p7 = p_scale(0.7, 2, 100_000)
    pr = p3 / p7
    p_ok = bool(np.all(pr > 0.4)) and bool(np.all(pr <= 1.0))
    # (c) attainable part of the property suite for every Q^{delta,n}
    suite_ok = True
    for delta, n in ((1.0, 1), (0.5, 2), (1.0, 2), (1.0, 3)):
        W = make_family(FamilySpec("q_delta_n", delta=delta, n=n), k_max=10_000)
        interior = WeightSequence("i", 0, W.log_M[1:])
        suite_ok = suite_ok and is_log_convex(interior).holds
        suite_ok = suite_ok and quasianalytic_diagnostic(W).classification == "divergent-trend"
        suite_ok = suite_ok and W.log_M[1] > 0.0
    ok = bracket_ok and p_ok and suite_ok
    _report(
        "9",
        ok,
        f"hat ratio in [{r.min():.4f}, {r.max():.4f}]; p-ratio in "
        f"[{pr.min():.4f}, {pr.max():.4f}]; interior suite all families: {suite_ok}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="prepending Q_0 = 1 to the shifted iterated-log families breaks "
    "log-convexity at the k = 1 junction for n >= 2, and the depth-3 "
    "moderate-growth statistic cannot plateau on any feasible prefix; "
    "see the decisions ledger",
)
def test_criterion_09_full_suite_literal():
    ok = True
    detail = []
    for delta, n in ((1.0, 1), (0.5, 2), (1.0, 2), (1.0, 3)):
        W = make_family(FamilySpec("q_delta_n", delta=delta, n=n), k_max=10_000)
        lc = is_log_convex(W)
        mg = growth_diagnostic(W, "moderate-growth")
        this = lc.holds and mg.holds
        ok = ok and this
        if not this:
            detail.append(f"q:{delta:g}:{n} (lc={lc.outcome}, mg={mg.outcome})")
    _report(
        "9-literal",
        ok,
        "full property suite incl. junction convexity and moderate plateau"
        + (f"; failing: {detail} (expected, see ledger)" if detail else ""),
    )
    assert ok


def test_criterion_10_structural_properties():
    rng = np.random.default_rng(99)
    battery = builtin_sequences(k_max=2000)
    worst = 0.0
    checked = 0
    for name, W in battery.items():
        if not is_log_convex(W).holds:
            continue
        checked += 1
        logM = W.log_M
        n = W.k_max
        # (1): M_l M_k <= M_0 M_{l+k}
        l = rng.integers(0, n, size=1000)
        k = rng.integers(0, n, size=1000)
        mask = l + k <= n
        slack1 = (logM[0] + logM[(l + k)[mask]]) - (logM[l[mask]] + logM[k[mask]])
        worst = min(worst, float(slack1.min())) if len(slack1) else worst
        assert np.all(slack1 >= -1e-9), name
        # (2): M_1^j M_k >= M_j prod M_{alpha_i} over random compositions
        for _ in range(1000):
            kk = int(rng.integers(2, min(n, 60)))
            j = int(rng.integers(1, kk + 1))
            cuts = np.sort(rng.choice(np.arange(1, kk), size=j - 1, replace=False)) if j > 1 else np.array([], dtype=int)
            parts = np.diff(np.concatenate(([0], cuts, [kk])))
            lhs = j * logM[1] + logM[kk]
            rhs = logM[j] + float(np.sum(logM[parts]))
            worst = min(worst, lhs - rhs)
            assert lhs - rhs >= -1e-9, name
    # moderate-growth holds implies derivation-closed holds
    implication_ok = True
    for name, W in builtin_sequences(k_max=10_000).items():
        if growth_diagnostic(W, "moderate-growth").holds:
            implication_ok = implication_ok and growth_diagnostic(W, "derivation-closed").holds
    ok = worst >= -1e-9 and implication_ok and checked >= 3
    _report(
        "10",
        ok,
        f"structural inequalities on {checked} log-convex built-ins, worst slack "
        f"{worst:.2e}; moderate=>derivation-closed: {implication_ok}",
    )
    assert ok
