"""Command-line interface: batch diagnostics over weight sequences.

Every command prints a single JSON document (or CSV for sequence payloads)
on standard output and encodes its verdict in the exit code:

    0  success / predicate holds
    1  predicate fails
    2  predicate inconclusive on this prefix
    3  usage or domain error

Output is deterministic: keys are sorted and floats are rendered with 17
significant digits, so identical invocations yield byte-identical output.
Sequence-valued commands can feed a predicate with ``--then``, e.g.
``carleman-lab checkseq --family q18pp --then check log-convex``. ``check`` and
``compare`` do not print the O(K) statistic trace; it stays on the ``Verdict``.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from math import isfinite

from .seqcore import DomainError, MembershipCertificate, WeightSequence, tabulate
from . import envelope, families, fdb, intersections, predicates

__all__ = ["main", "run"]

DEFAULT_KMAX = 2000
MAX_COMPOSE_K = 500  # the cap of fdb --order: compose_series is O(n^3), whatever the weights

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 3

# each lambda looks its predicate up at call time, so wrappers and patches see the call
_PREDICATES = {
    "log-convex": lambda W: predicates.is_log_convex(W, weak=False),
    "weakly-log-convex": lambda W: predicates.is_log_convex(W, weak=True),
    "derivation-closed": lambda W: predicates.growth_diagnostic(W, "derivation-closed"),
    "moderate-growth": lambda W: predicates.growth_diagnostic(W, "moderate-growth"),
    "quasianalytic": lambda W: predicates.quasianalytic_diagnostic(W),
}
CHECK_PREDICATES = tuple(_PREDICATES)

# every predicate outcome (Verdict.outcome, QuasiDiagnostic.outcome) -> exit code
_EXIT = {"holds": 0, "divergent-trend": 0, "fails": 1, "convergent-trend": 1, "inconclusive": 2}


# -- deterministic JSON -------------------------------------------------------


def dumps(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits; takes only Python JSON values."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        x = float(obj)
        if isfinite(x):
            return format(x, ".17g")
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) == {float} and all(map(isfinite, obj)):
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


# -- argument plumbing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carleman-lab",
        description="computable calculus of Denjoy-Carleman weight sequences",
    )
    p.set_defaults(build=None)  # a sequence-valued command sets build, every other one handler
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, family_required=True):
        sp.add_argument("--family", required=family_required, help="family token, e.g. q18, gevrey:1, q:0.5:2")
        sp.add_argument("--kmax", type=int, default=None, help="tabulation length")

    def out(sp):
        sp.add_argument("--out", default=None, help="write two-column (k, value) plot data")

    def sequence(name, help, build):  # a sequence-valued command: JSON or CSV, and plot data
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(build=build)
        common(sp)
        sp.add_argument("--format", choices=("json", "csv"), default=None)  # None: JSON
        out(sp)
        return sp

    sp = sub.add_parser("families", help="list built-in families")
    sp.set_defaults(handler=_cmd_families)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sequence("seq", help="tabulate a family", build=lambda args, kmax: _family(args.family, kmax))
    sequence("checkseq", help="check sequence of a family",
             build=lambda args, kmax: envelope.check_sequence(_family(args.family, kmax)))
    sp = sequence("minorant", help="log-convex minorant", build=_minorant)
    sp.add_argument("--weak", action="store_true", help="minorant of k! M_k instead of M_k")

    sp = sub.add_parser("check", help="run a predicate")
    sp.set_defaults(handler=_cmd_check)
    sp.add_argument("predicate", choices=CHECK_PREDICATES)
    common(sp, family_required=False)

    sp = sequence("compose", help="compose two families (M o L)", build=_compose)
    sp.add_argument("--with", dest="other", required=True, help="inner family token")

    sp = sub.add_parser("compare", help="inclusion diagnostic F^A subseteq F^B")
    sp.set_defaults(handler=_cmd_compare)
    common(sp)
    sp.add_argument("--with", dest="other", required=True, help="right-hand family token")

    sp = sub.add_parser("majorant", help="separating majorant over a family")
    sp.set_defaults(handler=_cmd_majorant)
    common(sp)
    out(sp)
    sp.add_argument(
        "--marked",
        default="10,40,160,640,2560",
        help="comma-separated escape indices of the canonical witness",
    )
    sp.add_argument("--factor", type=float, default=2.0, help="witness escape factor")
    sp.add_argument("--weak", action="store_true", help="Cor-style blockwise construction")

    sp = sub.add_parser("fdb", help="formal composition demos and bound checks")
    sp.set_defaults(handler=_cmd_fdb)
    sp.add_argument("mode", choices=("bell", "bound"))
    sp.add_argument("--order", type=int, default=24)
    return p


def _write_plot(path: str, W: WeightSequence) -> None:
    rows = tuple(chain.from_iterable(zip(W.ks.tolist(), W.log_M.tolist())))
    with open(path, "w") as fh:
        fh.write(("%d %.17g\n" * len(W.log_M)) % rows)


def _emit_sequence(W: WeightSequence, args) -> None:
    if args.out:
        _write_plot(args.out, W)
    if args.format == "csv":
        sys.stdout.write(W.to_csv())
    else:
        print(dumps(W.to_dict()))


def _report(v, name: str) -> int:
    """Print a predicate's report and return the exit code of its outcome."""
    print(dumps(v.to_report(name)))
    return _EXIT[v.outcome]


def _csv_row(fields) -> str:
    """One CSV line; a field holding a comma, quote or line break is quoted (RFC 4180)."""
    quoted = ('"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\r\n') else f for f in fields)
    return ",".join(quoted)


def _family(token: str, kmax: int) -> WeightSequence:
    return families.make_family(families.parse_family(token), k_max=kmax)


# -- sequence builders and command handlers ------------------------------------


def _minorant(args, kmax: int) -> WeightSequence:
    W = _family(args.family, kmax)
    env = envelope.log_convex_minorant(W, weak_basis=args.weak)
    return WeightSequence(name=f"minorant({W.name})", k_min=W.k_min, log_M=env.values)


def _compose(args, kmax: int) -> WeightSequence:
    W, L = _family(args.family, kmax), _family(args.other, kmax)
    return envelope.compose_sequences(W, L, kmax)


def _cmd_families(args, kmax: int) -> int:
    rows = []
    for token, description, claims in sorted(families.FAMILY_REGISTRY.values()):
        row = {"token": token, "description": description}
        if ":" not in token:  # a parameterless family: its token is its label
            row.update(label=token, claims=sorted(claims))
        rows.append(row)
    if args.format == "csv":
        pairs = [("token", "description")] + [(r["token"], r["description"]) for r in rows]
        print("\n".join(map(_csv_row, pairs)))
    else:
        print(dumps(rows))
    return EXIT_OK


def _cmd_check(args, kmax: int) -> int:
    if args.family is None:
        raise DomainError("check needs --family or a --then pipeline")
    return _report(_PREDICATES[args.predicate](_family(args.family, kmax)), args.predicate)


def _cmd_compare(args, kmax: int) -> int:
    A, B = _family(args.family, kmax), _family(args.other, kmax)
    return _report(predicates.inclusion_diagnostic(A, B), f"inclusion({A.name},{B.name})")


def _cmd_majorant(args, kmax: int) -> int:
    Q = _family(args.family, kmax)
    try:
        marked = [int(t) for t in args.marked.split(",") if t]
    except ValueError:
        raise DomainError(f"bad --marked list {args.marked!r}")
    logf = intersections.escape_log_coefficients(Q, marked, factor=args.factor)
    build = (
        intersections.separating_majorant_weak
        if args.weak
        else intersections.separating_majorant
    )
    trace = build(Q, logf)
    if args.out:
        _write_plot(args.out, trace.output_rescaled)
    print(dumps(trace.to_dict()))
    return EXIT_OK


def _cmd_fdb(args, kmax: int) -> int:
    n = args.order
    if n < 2:
        raise DomainError("--order must be at least 2")
    if n > MAX_COMPOSE_K:
        raise DomainError(f"--order capped at {MAX_COMPOSE_K} (O(n^3) series composition)")
    f = fdb.TruncatedSeries(tuple([1] * (n + 2)))
    g = fdb.TruncatedSeries(tuple([0] + [1] * (n + 1)))
    if args.mode == "bell":
        out = fdb.compose_series(f, g)
        print(dumps({"mode": "bell", "order": out.order, "coeffs": [int(c) for c in out.coeffs]}))
        return EXIT_OK
    W = tabulate(lambda k: 0.0, n + 2, name="analytic", claims={"log-convex"})
    cert = MembershipCertificate(C=1.0, rho=1.0, seq=W)
    fc = fdb.TruncatedSeries(f.coeffs, certificate=cert)
    gc = fdb.TruncatedSeries(g.coeffs, certificate=cert)
    report = fdb.verify_composition_bound(fc, gc)
    print(dumps({"mode": "bound", **report}))
    return EXIT_OK if report["ok"] else EXIT_FAILS


# -- entry points --------------------------------------------------------------


def run(argv: list[str]) -> int:
    """Execute one command line; returns the exit code."""
    if "--then" in argv:
        head = argv[: argv.index("--then")]
        tail = argv[argv.index("--then") + 1 :]
    else:
        head, tail = argv, None

    parser = _build_parser()
    try:
        args = parser.parse_args(head)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE

    try:
        if tail is not None and args.build is None:
            raise DomainError("--then follows only seq, checkseq, minorant or compose")
        if tail is not None and (args.format is not None or args.out is not None):
            raise DomainError("--format and --out do not apply to a --then pipeline")
        kmax = vars(args).get("kmax")  # families and fdb take no --kmax
        if kmax is None:
            kmax = DEFAULT_KMAX
        if args.build is None:
            return args.handler(args, kmax)
        W = args.build(args, kmax)
        if tail is not None:
            try:
                then_args = parser.parse_args(tail)
            except SystemExit:
                return EXIT_USAGE
            if then_args.command != "check":
                raise DomainError("--then only chains into check")
            if then_args.family is not None or then_args.kmax is not None:
                raise DomainError("--family and --kmax must come before --then")
            return _report(_PREDICATES[then_args.predicate](W), then_args.predicate)
        _emit_sequence(W, args)
        return EXIT_OK
    except (DomainError, OSError, MemoryError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
