"""Runs one workload in its own process, driven line by line over stdin/stdout by run.py.

Commands:

- ``pass 0``: one untraced pass over the job list, with the host canary
  timed before the first job and after every job;
- ``pass 1``: the same with spans recorded around every traced library call;
- ``quit``: report the peak resident memory of this process and exit.

Each command is answered by one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import carleman_lab
import workloads
from canary import REF_S, canary_s
from spans import Tracer


def run_pass(jobs, tracer: Tracer | None) -> dict:
    """Run every job once.

    Returns the jobs' wall times, the same scaled to the reference host speed
    by the canary runs on either side of each job, the canary times and the
    failures.  Canary runs and checks lie between jobs, outside the timed
    region.  A failure is ``[job id, message, is a known defect]``.
    """
    ctxs: dict[str, dict] = {}
    job_s, ref_s, canary = [], [], [canary_s()]
    failures = []
    for job in jobs:
        ctx = ctxs.setdefault(job.id.rsplit("/", 1)[0], {})
        span = tracer.open("job:" + job.id) if tracer else None  # root of the job's spans
        t0 = perf_counter()
        try:
            out = job.run(ctx)
            error = None
        except Exception as exc:  # a job that raises is counted as failed, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        job_s.append(perf_counter() - t0)
        if tracer:
            tracer.close(span)
        canary.append(canary_s())
        ref_s.append(job_s[-1] * REF_S / ((canary[-2] + canary[-1]) / 2))
        if error is None:
            try:
                error = job.check(out, ctx)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append([job.id, error, workloads.is_known_defect(job.id, error)])
    return {"pass_s": sum(job_s), "pass_ref_s": sum(ref_s), "job_s": job_s,
            "canary_ms": statistics.median(canary) * 1e3, "failures": failures}


def _send(msg: dict) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", required=True, help="source tree the package must be imported from")
    args = p.parse_args()
    if Path(carleman_lab.__file__).resolve().parent.parent != Path(args.src).resolve():
        sys.stderr.write(f"error: carleman_lab imported from {carleman_lab.__file__}\n")
        return 2
    jobs = workloads.build(args.workload, args.seed)
    tracer = Tracer()
    _send({"numpy": np.__version__})
    for line in sys.stdin:
        command = line.split()
        if command == ["quit"]:
            _send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
            return 0
        traced = command == ["pass", "1"]
        first = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            msg = run_pass(jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        msg["attempted"] = len(jobs)
        if traced:
            msg["layers"] = tracer.take(first)
        _send(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
