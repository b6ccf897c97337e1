"""Claims-calibration ratchet: the decisive verdicts that contradict the known truth, pinned.

Grid: 19 family tokens and 7 synthetic inputs, each at the 10 prefix lengths of ``KS``,
under the five ``check`` predicates (1300 verdicts).  A verdict asserts a property
(``holds``, ``divergent-trend``) or its negation (``fails``, ``convergent-trend``);
``inconclusive`` asserts nothing and never contradicts.

Truth for a family: its ``claims``, closed under moderate growth => derivation-closed and
log-convex => weakly log-convex, with ``non-quasianalytic`` the negation of
``quasianalytic``.  A property the claims do not settle has no truth either way.

Synthetic inputs, with l(k) = log(k + e) so that every log M_k is finite (M_0 = 1):

- m_k = k^1.05, k l(k)^1.1, k l(k)^1.5 and k l(k) (log l(k))^2 as the companion scale
  m_k = (k! M_k)^(1/k), i.e. log M_k = k log m_k - log k!.  Sum 1/m_k converges for each,
  so none is quasianalytic.
- log M_k = 1e-7 k^2 and 1e-8 k^2.  Neither has moderate growth.
- log M_k = 1e-8 k^3.  It is not derivation-closed.

The ratchet: the set of (input, K, predicate, verdict) tuples that contradict the truth
must equal ``PINNED``.  A new contradiction fails the test, and so does a pinned one that
no longer occurs: the change that mends a verdict deletes its line here.
"""

import numpy as np

from carleman_lab.cli import _PREDICATES
from carleman_lab.families import builtin_sequences, make_family, parse_family
from carleman_lab.seqcore import WeightSequence, log_factorial

FAMILY_TOKENS = tuple(builtin_sequences(k_max=3)) + (
    "qhat:1:2", "p:0.3:2", "gevrey:0.01", "gevrey:0.05", "gevrey:0.1", "gevrey:0.2",
    "gevrey:0.3", "q:0.1:2")
KS = (2, 3, 5, 10, 20, 40, 100, 1000, 10_000, 30_000)

# the property each decisive verdict asserts (True) or denies (False)
ASSERTS = {"holds": True, "fails": False, "divergent-trend": True, "convergent-trend": False}


def _from_scale(log_m):
    """log M_0..log M_K from log m_1..log m_K, m_k = (k! M_k)^(1/k)."""
    ks = np.arange(1, len(log_m) + 1, dtype=float)
    return np.concatenate(([0.0], ks * log_m - log_factorial(ks)))


def _log_l(ks):
    return np.log(np.log(ks + np.e))


def _power(c, p):
    return lambda ks: c * np.concatenate(([0.0], ks)) ** p


# name -> (log M_0..log M_K from ks = 1..K, truth)
SYNTHETIC = {
    "m=k^1.05": (lambda ks: _from_scale(1.05 * np.log(ks)), {"quasianalytic": False}),
    "m=k*l^1.1": (lambda ks: _from_scale(np.log(ks) + 1.1 * _log_l(ks)), {"quasianalytic": False}),
    "m=k*l^1.5": (lambda ks: _from_scale(np.log(ks) + 1.5 * _log_l(ks)), {"quasianalytic": False}),
    "m=k*l*(log l)^2": (lambda ks: _from_scale(np.log(ks) + _log_l(ks) + 2 * np.log(_log_l(ks))),
                        {"quasianalytic": False}),
    "log M=1e-7*k^2": (_power(1e-7, 2), {"moderate-growth": False}),
    "log M=1e-8*k^2": (_power(1e-8, 2), {"moderate-growth": False}),
    "log M=1e-8*k^3": (_power(1e-8, 3), {"derivation-closed": False}),
}


def family_truth(claims) -> dict:
    """predicate -> truth, from a family's claims and the two implications."""
    claims = set(claims)
    if "moderate-growth" in claims:
        claims.add("derivation-closed")
    if "log-convex" in claims:
        claims.add("weakly-log-convex")
    truth = {p: True for p in _PREDICATES if p in claims}
    if "non-quasianalytic" in claims:
        truth["quasianalytic"] = False
    return truth


def grid():
    """(name, K, sequence, truth) for every input of the grid."""
    for K in KS:
        for token in FAMILY_TOKENS:
            W = make_family(parse_family(token), k_max=K)
            yield token, K, W, family_truth(W.claims)
        ks = np.arange(1, K + 1, dtype=float)
        for name, (log_M, truth) in SYNTHETIC.items():
            yield name, K, WeightSequence(name, 0, log_M(ks)), truth


PINNED = {
    ('gevrey:0.01', 3, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 5, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 10, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 20, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 40, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 100, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 1000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 10000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.01', 30000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 3, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 5, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 10, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 20, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 40, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 100, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 1000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 10000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.05', 30000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 3, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 5, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 10, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 20, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 40, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 100, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 1000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 10000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.1', 30000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 3, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 5, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 10, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 20, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 40, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 100, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 1000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 10000, 'quasianalytic', 'divergent-trend'),
    ('gevrey:0.2', 30000, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.1', 100, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.1', 1000, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.1', 10000, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.1', 30000, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.5', 1000, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.5', 10000, 'quasianalytic', 'divergent-trend'),
    ('m=k*l^1.5', 30000, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 5, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 10, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 20, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 40, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 100, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 1000, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 10000, 'quasianalytic', 'divergent-trend'),
    ('m=k^1.05', 30000, 'quasianalytic', 'divergent-trend'),
    ('q18', 3, 'quasianalytic', 'convergent-trend'),
    ('q18', 5, 'quasianalytic', 'convergent-trend'),
    ('q18', 10, 'quasianalytic', 'convergent-trend'),
    ('q18', 20, 'quasianalytic', 'convergent-trend'),
    ('q18p', 3, 'quasianalytic', 'convergent-trend'),
    ('q18p', 5, 'quasianalytic', 'convergent-trend'),
    ('q:0.1:2', 2, 'log-convex', 'fails'),
    ('q:0.1:2', 3, 'log-convex', 'fails'),
    ('q:0.1:2', 5, 'log-convex', 'fails'),
    ('q:0.1:2', 10, 'log-convex', 'fails'),
    ('q:0.1:2', 20, 'log-convex', 'fails'),
    ('q:0.1:2', 40, 'log-convex', 'fails'),
    ('q:0.1:2', 100, 'log-convex', 'fails'),
    ('q:0.1:2', 1000, 'log-convex', 'fails'),
    ('q:0.1:2', 10000, 'log-convex', 'fails'),
    ('q:0.1:2', 30000, 'log-convex', 'fails'),
    ('q:0.1:2', 2, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 3, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 5, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 10, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 20, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 40, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 100, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 1000, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 10000, 'weakly-log-convex', 'fails'),
    ('q:0.1:2', 30000, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 2, 'log-convex', 'fails'),
    ('q:0.5:2', 3, 'log-convex', 'fails'),
    ('q:0.5:2', 5, 'log-convex', 'fails'),
    ('q:0.5:2', 10, 'log-convex', 'fails'),
    ('q:0.5:2', 20, 'log-convex', 'fails'),
    ('q:0.5:2', 40, 'log-convex', 'fails'),
    ('q:0.5:2', 100, 'log-convex', 'fails'),
    ('q:0.5:2', 1000, 'log-convex', 'fails'),
    ('q:0.5:2', 10000, 'log-convex', 'fails'),
    ('q:0.5:2', 30000, 'log-convex', 'fails'),
    ('q:0.5:2', 2, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 3, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 5, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 10, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 20, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 40, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 100, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 1000, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 10000, 'weakly-log-convex', 'fails'),
    ('q:0.5:2', 30000, 'weakly-log-convex', 'fails'),
    ('q:1:2', 2, 'log-convex', 'fails'),
    ('q:1:2', 3, 'log-convex', 'fails'),
    ('q:1:2', 5, 'log-convex', 'fails'),
    ('q:1:2', 10, 'log-convex', 'fails'),
    ('q:1:2', 20, 'log-convex', 'fails'),
    ('q:1:2', 40, 'log-convex', 'fails'),
    ('q:1:2', 100, 'log-convex', 'fails'),
    ('q:1:2', 1000, 'log-convex', 'fails'),
    ('q:1:2', 10000, 'log-convex', 'fails'),
    ('q:1:2', 30000, 'log-convex', 'fails'),
    ('q:1:2', 2, 'weakly-log-convex', 'fails'),
    ('q:1:2', 3, 'weakly-log-convex', 'fails'),
    ('q:1:2', 5, 'weakly-log-convex', 'fails'),
    ('q:1:2', 10, 'weakly-log-convex', 'fails'),
    ('q:1:2', 20, 'weakly-log-convex', 'fails'),
    ('q:1:2', 40, 'weakly-log-convex', 'fails'),
    ('q:1:2', 100, 'weakly-log-convex', 'fails'),
    ('q:1:2', 1000, 'weakly-log-convex', 'fails'),
    ('q:1:2', 10000, 'weakly-log-convex', 'fails'),
    ('q:1:2', 30000, 'weakly-log-convex', 'fails'),
    ('q:1:3', 2, 'log-convex', 'fails'),
    ('q:1:3', 3, 'log-convex', 'fails'),
    ('q:1:3', 5, 'log-convex', 'fails'),
    ('q:1:3', 10, 'log-convex', 'fails'),
    ('q:1:3', 20, 'log-convex', 'fails'),
    ('q:1:3', 40, 'log-convex', 'fails'),
    ('q:1:3', 100, 'log-convex', 'fails'),
    ('q:1:3', 1000, 'log-convex', 'fails'),
    ('q:1:3', 10000, 'log-convex', 'fails'),
    ('q:1:3', 30000, 'log-convex', 'fails'),
    ('q:1:3', 2, 'weakly-log-convex', 'fails'),
    ('q:1:3', 3, 'weakly-log-convex', 'fails'),
    ('q:1:3', 5, 'weakly-log-convex', 'fails'),
    ('q:1:3', 10, 'weakly-log-convex', 'fails'),
    ('q:1:3', 20, 'weakly-log-convex', 'fails'),
    ('q:1:3', 40, 'weakly-log-convex', 'fails'),
    ('q:1:3', 100, 'weakly-log-convex', 'fails'),
    ('q:1:3', 1000, 'weakly-log-convex', 'fails'),
    ('q:1:3', 10000, 'weakly-log-convex', 'fails'),
    ('q:1:3', 30000, 'weakly-log-convex', 'fails'),
}


def test_contradictions_match_the_pinned_list():
    verdicts, found = 0, set()
    for name, K, W, truth in grid():
        for predicate, run in _PREDICATES.items():
            outcome = run(W).outcome
            verdicts += 1
            if predicate in truth and outcome in ASSERTS and ASSERTS[outcome] != truth[predicate]:
                found.add((name, K, predicate, outcome))
    assert verdicts == len(KS) * (len(FAMILY_TOKENS) + len(SYNTHETIC)) * 5 == 1300
    assert sorted(found - PINNED) == [], "new contradictions"
    assert sorted(PINNED - found) == [], "mended: delete these lines from PINNED"
