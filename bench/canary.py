"""Host-speed canary: a fixed mix of interpreter work that runs no carleman_lab code.

The CPUs of a shared host change speed every few seconds, by up to 2x, and
can stay slow or fast for a whole run.  The benchmark times this canary next
to every timed interval and scales the interval's wall time by
``REF_S / canary time``, so a timing reads as it would on the reference host
at the speed where the canary takes ``REF_S``; the raw wall times are printed
beside the scaled ones.  The mix (integer loop, sorting and formatting
Python objects, big-integer products) tracked the host's slow phases on all
three workloads better than a plain integer loop or a numpy kernel did.

It imports nothing but ``time``, so it can run in a fresh interpreter before
``import carleman_lab`` without loading a module that import would load.
"""

from time import perf_counter

# About the median canary time on the reference host (2-CPU x86_64 Xeon, Python 3.11.7).
REF_S = 0.004


def canary_s() -> float:
    """Wall time of one fixed canary run."""
    t0 = perf_counter()
    acc = 0
    for i in range(6_000):
        acc = (acc * 31 + i) % 1_000_003
    rows = sorted(((i * 7919) % 3001, i, str(i)) for i in range(2_000))
    table = {key: value / 7 for value, _, key in rows}
    text = ",".join(f"{value:.6f}" for value in table.values())
    big = len(text)
    for k in range(1, 200):
        big = big * (k + acc) + k
    return perf_counter() - t0
