#!/usr/bin/env python3
"""Benchmark of carleman-lab: end-to-end metrics of one workload, or its traced per-layer run.

Run from the repository root; it needs only numpy and the package sources in
``src/``.  Every job's output is checked.

    python3 bench/run.py --workload split --seed 0 --seconds 30
    python3 bench/run.py --workload split --seed 0 --seconds 30 --trace 1

The workload runs single-threaded in its own worker process (BLAS threads
set to 1).  The worker makes one warm-up pass over the job list, whose time
is not used, then timed passes until ``--seconds`` have gone by (at least
five).

Timings are scaled to the reference host speed.  The CPUs of a shared host
change speed every few seconds by up to 2x and can stay at one level for a
whole run, so raw wall times of the same code spread by more than a useful
bound between runs.  The fixed canary in ``canary.py``, which runs no
carleman_lab code, is therefore timed on either side of every job and of
every import, and each interval's wall time ``t`` is reported as
``t * canary.REF_S / c``, with ``c`` the mean of the two canary times around
it.  A change to the program moves the scaled time as it moves the raw time;
the host's speed moves the canary as well and cancels.  The raw wall-time
median is printed in the summary line.

End-to-end metrics, from untraced passes (``--trace 0``):

- ``setup_s``: wall time of ``import carleman_lab`` in a fresh interpreter,
  scaled; the median over the run's interpreters (five at the start, then
  one before every third pass);
- ``pass_s``: wall time of one warm pass over the job list, scaled; the
  median over the timed passes;
- ``ok_share``: jobs that neither raised nor failed their output check,
  divided by jobs attempted (1 - fail_share, which is 0 on some workloads);
- ``peak_rss_mb``: peak resident memory of the worker process.

The summary line gives each timing's median, the highest percentile with at
least ten samples above it, and the sample count.

With ``--trace 1``, untraced and traced passes alternate and the per-layer
metrics listed in ``BENCHMARK.json`` are reported instead (medians over the
traced passes; self times are raw wall times); ``bench.trace_overhead`` is
the median scaled difference between a traced pass and the untraced pass
just before it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the summary with sample counts, the seed and host facts.  A job that
fails exactly as ``workloads.KNOWN_DEFECTS`` says a known library defect
makes it fail is counted in ``failed``; any other failure sets ``correct``
to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("long-prefix", "split", "compose")
MIN_PASSES = 5
SETUP_START = 5
SETUP_EVERY = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "ok_share": "share", "peak_rss_mb": "MB"}
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from canary import REF_S, canary_s; "
    "from time import perf_counter; canary_s(); c = canary_s(); t = perf_counter(); "
    "import carleman_lab; t = perf_counter() - t; c = (c + canary_s()) / 2; "
    "print(t, t * REF_S / c)"
)
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in SINGLE_THREAD})
    return env


def _per_layer_units() -> dict[str, str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer"]}


class Worker:
    """The workload's process; every request is answered by one JSON line."""

    def __init__(self, workload: str, seed: int, env: dict, deadline: float):
        self.workload = workload
        self.env = env
        self.deadline = deadline
        self.passes: list[dict] = []
        self.setup: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--src", str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def _left(self) -> float:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError(f"{self.workload} did not finish within {TIME_LIMIT_S:g} s")
        return left

    def _ask(self, command: str | None = None) -> dict:
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            code = self.proc.poll()
            raise BenchError(f"{self.workload} worker gave no answer (exit code {code})")
        return json.loads(line)

    def probe_import(self) -> tuple[float, float]:
        """Raw and scaled wall time of ``import carleman_lab`` in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH)], env=self.env, cwd=ROOT,
            capture_output=True, text=True, timeout=self._left(),
        )
        if proc.returncode != 0:
            raise BenchError(f"import carleman_lab failed:\n{proc.stderr}")
        raw, scaled = map(float, proc.stdout.split())
        return raw, scaled

    def run_pass(self, traced: bool, timed: bool = True) -> None:
        msg = self._ask(f"pass {int(traced)}")
        msg["traced"] = traced
        msg["timed"] = timed
        self.passes.append(msg)

    def drive(self, seconds: float, traced: bool) -> None:
        """A warm-up pass, then timed passes (pairs when traced) for ``seconds``."""
        self.ready = self._ask()
        if not traced:
            self.probe_import()  # may compile the package; not counted
            self.setup = [self.probe_import() for _ in range(SETUP_START)]
        self.run_pass(False, timed=False)
        end = monotonic() + seconds
        i = 0
        while i < MIN_PASSES or monotonic() < end:
            if traced:
                self.run_pass(False)
                self.run_pass(True)
            else:
                if i % SETUP_EVERY == 0:
                    self.setup.append(self.probe_import())
                self.run_pass(False)
            i += 1
        self.peak_rss_mb = self._ask("quit")["peak_rss_mb"]
        self.proc.wait(timeout=self._left())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _tail(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it, count."""
    xs = sorted(values)
    n = len(xs)
    tail = "no percentile has 10 samples above it"
    if n >= 11:
        tail = f"p{100 * (n - 10) // n}={xs[n - 11]:.4g}"
    return f"median={statistics.median(xs):.4g} {tail} n={n}"


def _layer_metrics(w: Worker, units: dict[str, str]) -> dict[str, float]:
    timed = [p for p in w.passes if p["timed"]]
    traced = [p for p in timed if p["traced"]]
    plain = [p for p in timed if not p["traced"]]
    out = {}
    for name in units:
        if name == "predicates.decisive_share":
            vals = [p["layers"].get("decisive", 0.0) / p["layers"]["verdicts"]
                    if p["layers"].get("verdicts") else 0.0 for p in traced]
        elif name == "host.canary.ms":
            vals = [p["canary_ms"] for p in timed]
        elif name == "bench.trace_overhead":
            vals = [(t["pass_ref_s"] - u["pass_ref_s"]) * 1e3 for u, t in zip(plain, traced)]
        else:
            vals = [p["layers"].get(name, 0.0) for p in traced]
        out[name] = statistics.median(vals)
    return out


def _report(w: Worker, units: dict[str, str] | None):
    """(metrics with units, jobs attempted, failures, summary line) of the workload."""
    attempted = sum(p["attempted"] for p in w.passes)
    failures = [f for p in w.passes for f in p["failures"]]
    plain = [p for p in w.passes if p["timed"] and not p["traced"]]
    timed = [p["pass_ref_s"] for p in plain]
    fail_share = len(failures) / attempted
    parts = [
        f"pass_s (scaled) {_tail(timed)} s",
        f"raw pass wall time {_tail([p['pass_s'] for p in plain])} s",
        f"fail_share {len(failures)}/{attempted} = {fail_share:.4g}",
        f"peak_rss_mb {w.peak_rss_mb:.4g} MB",
        f"host.canary.ms {_tail([p['canary_ms'] for p in w.passes if p['timed']])}",
    ]
    if units is None:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in w.setup),
            "pass_s": statistics.median(timed),
            "ok_share": 1.0 - fail_share,
            "peak_rss_mb": w.peak_rss_mb,
        }
        units = END_TO_END_UNITS
        parts[:0] = [f"setup_s (scaled) {_tail([scaled for _, scaled in w.setup])} s",
                     f"raw import wall time {_tail([raw for raw, _ in w.setup])} s"]
    else:
        values = _layer_metrics(w, units)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, attempted, failures, f"{w.workload}: " + "; ".join(parts)


def _host() -> str:
    return f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "carleman_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no carleman_lab sources under {SRC}\n")
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    w = None
    try:
        units = _per_layer_units() if args.trace else None
        w = Worker(args.workload, args.seed, _env(), deadline)
        w.drive(args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if w is not None:
            w.stop()

    print(f"carleman-lab benchmark: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"host {_host()}, numpy {w.ready['numpy']}")
    metrics, attempted, failures, summary = _report(w, units)
    print(summary)
    if units is not None:
        top = sorted((k for k in metrics if k.endswith(".ms") and k != "host.canary.ms"),
                     key=lambda k: -metrics[k]["value"])[:6]
        print("  largest self time: "
              + ", ".join(f"{k[:-3]} {metrics[k]['value']:.1f} ms" for k in top))
    for job, error in sorted({(job, error) for job, error, known in failures if known}):
        print(f"known defect, counted as failed: {job}: {error}")
    unexpected = sorted({(job, error) for job, error, known in failures if not known})
    for job, error in unexpected:
        sys.stderr.write(f"OUTPUT CHECK FAILED: {job}: {error}\n")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
