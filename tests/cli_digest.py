"""Digest of the carleman-lab CLI over a fixed grid of command lines.

Each command runs through ``cli.run`` in this process; one line is printed per
command:

    <sha256 of stdout> <sha256 of stderr> <exit code> <command line>

Two checkouts give the same CLI bytes on the grid when their digests are equal:

    PYTHONPATH=src python tests/cli_digest.py > digest.txt    # in each checkout
    diff parent/digest.txt change/digest.txt

The grid (2602 commands; ``fdb bound`` at high orders takes most of the run):

- ``compose`` on every pair of the 18 tokens at ``--kmax`` 11, 300 and 500;
- ``seq``, ``seq --format csv``, ``checkseq``, ``minorant`` with and without
  ``--weak``, ``compare --with gevrey:1`` and the five ``check`` predicates on
  each token at ``--kmax`` 11, 300 and 2000;
- ``majorant`` with and without ``--weak`` on each token at ``--kmax`` 3000;
- ``fdb bell`` and ``fdb bound`` at ``--order`` 2 to 501.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import shlex

from carleman_lab import cli

TOKENS = ("analytic", "gevrey:0.5", "gevrey:1", "gevrey:2", "q18", "q18p", "q18pp", "q:1:1",
          "q:0.5:2", "q:1:2", "q:1:3", "qhat:1:2", "qhat:1:3", "p:0.3:2", "p:0.5:2", "p:1:1",
          "p:1:2", "p:0.5:3")
PREDICATES = ("log-convex", "weakly-log-convex", "derivation-closed", "moderate-growth",
              "quasianalytic")


def grid() -> list[list[str]]:
    """The command lines, in a fixed order."""
    cmds = []
    for kmax, (outer, inner) in itertools.product((11, 300, 500), itertools.product(TOKENS, TOKENS)):
        cmds.append(["compose", "--family", outer, "--with", inner, "--kmax", str(kmax)])
    for kmax, token in itertools.product((11, 300, 2000), TOKENS):
        common = ["--family", token, "--kmax", str(kmax)]
        cmds += [["seq", *common], ["seq", *common, "--format", "csv"], ["checkseq", *common],
                 ["minorant", *common], ["minorant", *common, "--weak"],
                 ["compare", *common, "--with", "gevrey:1"]]
        cmds += [["check", predicate, *common] for predicate in PREDICATES]
    for token in TOKENS:
        common = ["--family", token, "--kmax", "3000"]
        cmds += [["majorant", *common], ["majorant", *common, "--weak"]]
    for order, mode in itertools.product(range(2, 502), ("bell", "bound")):
        cmds.append(["fdb", mode, "--order", str(order)])
    return cmds


def digest(argv: list[str]) -> str:
    """One line: sha256 of stdout, sha256 of stderr, exit code and the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{sha[0]} {sha[1]} {code} {shlex.join(argv)}"


if __name__ == "__main__":
    for argv in grid():
        print(digest(argv), flush=True)
