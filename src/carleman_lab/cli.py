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
``carleman-lab checkseq --family q18pp --then check log-convex``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from math import isfinite

import numpy as np

from .seqcore import DomainError, WeightSequence
from . import envelope, families, fdb, intersections, predicates

__all__ = ["main", "run"]

DEFAULT_KMAX = 2000

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {"holds": EXIT_OK, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}

CHECK_PREDICATES = (
    "log-convex",
    "weakly-log-convex",
    "derivation-closed",
    "moderate-growth",
    "quasianalytic",
)


# -- deterministic JSON -------------------------------------------------------


def dumps(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if isfinite(x):
            return format(x, ".17g")
        return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps(str(k))}: {dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) == {float} and isfinite(sum(obj)):  # all finite floats
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


# -- argument plumbing --------------------------------------------------------


def _default_kmax() -> int:
    env = os.environ.get("CARLEMAN_KMAX")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"CARLEMAN_KMAX must be an integer, got {env!r}")
    return DEFAULT_KMAX


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="carleman-lab",
        description="computable calculus of Denjoy-Carleman weight sequences",
        epilog="environment: CARLEMAN_KMAX overrides the default tabulation length "
        f"({DEFAULT_KMAX})",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, family_required=True):
        sp.add_argument("--family", required=family_required, help="family token, e.g. q18, gevrey:1, q:0.5:2")
        sp.add_argument("--kmax", type=int, default=None, help="tabulation length")

    def out(sp):
        sp.add_argument("--out", default=None, help="write two-column (k, value) plot data")

    def sequence(name, help):  # a sequence-valued command: JSON or CSV, and plot data
        sp = sub.add_parser(name, help=help)
        common(sp)
        sp.add_argument("--format", choices=("json", "csv"), default=None)  # None: JSON
        out(sp)
        return sp

    sp = sub.add_parser("families", help="list built-in families")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sequence("seq", help="tabulate a family")
    sequence("checkseq", help="check sequence of a family")
    sp = sequence("minorant", help="log-convex minorant")
    sp.add_argument("--weak", action="store_true", help="minorant of k! M_k instead of M_k")

    sp = sub.add_parser("check", help="run a predicate")
    sp.add_argument("predicate", choices=CHECK_PREDICATES)
    common(sp, family_required=False)

    sp = sequence("compose", help="compose two families (M o L)")
    sp.add_argument("--with", dest="other", required=True, help="inner family token")

    sp = sub.add_parser("compare", help="inclusion diagnostic F^A subseteq F^B")
    common(sp)
    sp.add_argument("--with", dest="other", required=True, help="right-hand family token")

    sp = sub.add_parser("majorant", help="separating majorant over a family")
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
    sp.add_argument("mode", choices=("bell", "bound"))
    sp.add_argument("--order", type=int, default=24)
    return p


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


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
        _emit(dumps(W.to_dict()))


def _family(token: str, kmax: int) -> WeightSequence:
    return families.make_family(families.parse_family(token), k_max=kmax)


# -- predicate dispatch -------------------------------------------------------


def _run_predicate(predicate: str, W: WeightSequence) -> tuple[dict, int]:
    if predicate in ("log-convex", "weakly-log-convex"):
        v = predicates.is_log_convex(W, weak=predicate == "weakly-log-convex")
        return v.to_report(predicate), _VERDICT_EXIT[v.outcome]
    if predicate in ("derivation-closed", "moderate-growth"):
        v = predicates.growth_diagnostic(W, predicate)
        return v.to_report(predicate), _VERDICT_EXIT[v.outcome]
    if predicate == "quasianalytic":
        diag = predicates.quasianalytic_diagnostic(W)
        report = diag.to_dict()
        report["predicate"] = "quasianalytic"
        code = {
            "divergent-trend": EXIT_OK,
            "convergent-trend": EXIT_FAILS,
            "inconclusive": EXIT_INCONCLUSIVE,
        }[diag.classification]
        return report, code
    raise DomainError(f"unknown predicate {predicate!r}")


# -- command handlers ---------------------------------------------------------


def _cmd_families(args) -> int:
    rows = []
    for token, description, claims in sorted(families.FAMILY_REGISTRY.values()):
        row = {"token": token, "description": description}
        if ":" not in token:  # a parameterless family: its token is its label
            row["label"] = token
            row["claims"] = sorted(claims)
        rows.append(row)
    if args.format == "csv":
        lines = ["token,description"]
        for r in rows:
            lines.append(f"{r['token']},{r['description']}")
        _emit("\n".join(lines))
    else:
        _emit(dumps(rows))
    return EXIT_OK


def _sequence_command(args, kmax: int) -> WeightSequence:
    W = _family(args.family, kmax)
    if args.command == "checkseq":
        return envelope.check_sequence(W)
    if args.command == "minorant":
        env = envelope.log_convex_minorant(W, weak_basis=args.weak)
        name = f"minorant({W.name})"
        return WeightSequence(name=name, k_min=W.k_min, log_M=env.values)
    if args.command == "compose":
        L = _family(args.other, kmax)
        return envelope.compose_sequences(W, L, min(kmax, envelope.MAX_COMPOSE_K))
    return W  # seq


def _cmd_check(args, kmax: int, piped: WeightSequence | None) -> int:
    if piped is None:
        if args.family is None:
            raise DomainError("check needs --family or a --then pipeline")
        W = _family(args.family, kmax)
    else:
        W = piped
    report, code = _run_predicate(args.predicate, W)
    _emit(dumps(report))
    return code


def _cmd_compare(args, kmax: int) -> int:
    A = _family(args.family, kmax)
    B = _family(args.other, kmax)
    v = predicates.inclusion_diagnostic(A, B)
    report = v.to_report(f"inclusion({A.name},{B.name})")
    _emit(dumps(report))
    return _VERDICT_EXIT[v.outcome]


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
    _emit(dumps(trace.to_dict()))
    return EXIT_OK


def _cmd_fdb(args) -> int:
    n = args.order
    if n < 2:
        raise DomainError("--order must be at least 2")
    if args.mode == "bell" and n > envelope.MAX_COMPOSE_K:
        raise DomainError(f"bell --order capped at {envelope.MAX_COMPOSE_K} (O(n^3) composition)")
    f = fdb.TruncatedSeries(tuple([1] * (n + 2)))
    g = fdb.TruncatedSeries(tuple([0] + [1] * (n + 1)))
    if args.mode == "bell":
        out = fdb.compose_series(f, g)
        payload = {"mode": "bell", "order": out.order, "coeffs": [int(c) for c in out.coeffs]}
        _emit(dumps(payload))
        return EXIT_OK
    from .seqcore import MembershipCertificate, tabulate

    W = tabulate(lambda k: 0.0, n + 2, name="analytic", claims={"log-convex"})
    cert = MembershipCertificate(C=1.0, rho=1.0, seq=W)
    fc = fdb.TruncatedSeries(f.coeffs, certificate=cert)
    gc = fdb.TruncatedSeries(g.coeffs, certificate=cert)
    report = fdb.verify_composition_bound(fc, gc)
    _emit(dumps({"mode": "bound", **report}))
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
        if tail is not None and args.command not in ("seq", "checkseq", "minorant", "compose"):
            raise DomainError("--then follows only seq, checkseq, minorant or compose")
        if tail is not None and (args.format is not None or args.out is not None):
            raise DomainError("--format and --out do not apply to a --then pipeline")
        kmax = vars(args).get("kmax", DEFAULT_KMAX)  # families and fdb take no --kmax
        if kmax is None:
            kmax = _default_kmax()
        if args.command == "families":
            return _cmd_families(args)
        if args.command == "check":
            return _cmd_check(args, kmax, piped=None)
        if args.command == "compare":
            return _cmd_compare(args, kmax)
        if args.command == "majorant":
            return _cmd_majorant(args, kmax)
        if args.command == "fdb":
            return _cmd_fdb(args)
        # sequence-valued commands: seq, checkseq, minorant, compose
        W = _sequence_command(args, kmax)
        if tail is not None:
            try:
                then_args = parser.parse_args(tail)
            except SystemExit:
                return EXIT_USAGE
            if then_args.command != "check":
                raise DomainError("--then only chains into check")
            if then_args.family is not None or then_args.kmax is not None:
                raise DomainError("--family and --kmax must come before --then")
            return _cmd_check(then_args, kmax, piped=W)
        _emit_sequence(W, args)
        return EXIT_OK
    except DomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
