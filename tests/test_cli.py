import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import carleman_lab
import cli_digest
from carleman_lab import cli, families, fdb, predicates
from carleman_lab.families import builtin_sequences, make_family, parse_family
from carleman_lab.predicates import QuasiDiagnostic, Verdict
from carleman_lab.seqcore import WeightSequence

# the subprocess imports the same package tree as this test process
SRC_DIR = os.path.dirname(os.path.dirname(carleman_lab.__file__))


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "carleman_lab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExitCodes:
    def test_holds_is_zero(self):
        r = run_cli("check", "log-convex", "--family", "q18", "--kmax", "500")
        assert r.returncode == 0
        assert json.loads(r.stdout)["verdict"] == "holds"

    @pytest.mark.parametrize("predicate", ["log-convex", "weakly-log-convex"])
    @pytest.mark.parametrize("token, kmax", [("gevrey:1e304", "2000"), ("gevrey:5e304", "400")])
    def test_log_convex_near_the_float_max(self, predicate, token, kmax):
        # |log M| passes 9e307, so y[k-1] + y[k+1] overflows; every Gevrey class is log-convex
        r = run_cli("check", predicate, "--family", token, "--kmax", kmax)
        assert (r.returncode, json.loads(r.stdout)["verdict"], r.stderr) == (0, "holds", "")

    def test_fails_is_one(self):
        r = run_cli("checkseq", "--family", "q18pp", "--kmax", "500",
                    "--then", "check", "log-convex")
        assert r.returncode == 1
        payload = json.loads(r.stdout)
        assert payload["verdict"] == "fails"
        assert payload["witness_k"] == 1

    def test_quasianalytic_convergent_is_one(self):
        r = run_cli("check", "quasianalytic", "--family", "gevrey:1", "--kmax", "3000")
        assert r.returncode == 1
        assert json.loads(r.stdout)["classification"] == "convergent-trend"

    def test_quasianalytic_divergent_is_zero(self):
        r = run_cli("check", "quasianalytic", "--family", "q18", "--kmax", "3000")
        assert r.returncode == 0

    def test_inconclusive_is_two(self):
        r = run_cli("compare", "--family", "q18", "--with", "analytic", "--kmax", "2000")
        assert r.returncode == 2

    @pytest.mark.parametrize("predicate, outcome, code", [
        *[(p, outcome, code) for p in cli.CHECK_PREDICATES if p != "quasianalytic"
          for outcome, code in (("holds", 0), ("fails", 1), ("inconclusive", 2))],
        ("quasianalytic", "divergent-trend", 0),
        ("quasianalytic", "convergent-trend", 1),
        ("quasianalytic", "inconclusive", 2),
    ])
    def test_outcome_exit_code(self, predicate, outcome, code, monkeypatch, capsys):
        # every predicate outcome maps to the code of the exit-code table, for
        # check and for a --then pipeline alike
        if predicate == "quasianalytic":
            fixed = QuasiDiagnostic(
                partial_sums_final=(3.0,) * 4, term_slope=(-1.0,) * 4,
                per_criterion=(outcome,) * 4, classification=outcome, edge_sensitive=False,
            )
            monkeypatch.setattr(predicates, "quasianalytic_diagnostic", lambda W: fixed)
            field = "classification"
        else:
            fixed = Verdict(outcome, witness_k=1 if outcome == "fails" else None)
            monkeypatch.setattr(predicates, "is_log_convex", lambda W, weak=False: fixed)
            monkeypatch.setattr(predicates, "growth_diagnostic", lambda W, mode: fixed)
            field = "verdict"
        family = ["--family", "analytic", "--kmax", "20"]
        for argv in (["check", predicate, *family], ["seq", *family, "--then", "check", predicate]):
            assert cli.run(argv) == code
            report = json.loads(capsys.readouterr().out)
            assert (report[field], report["predicate"]) == (outcome, predicate)

    def test_out_of_memory_is_a_domain_error(self, monkeypatch, capsys):
        # a tabulation too long for memory is a usage error, not a failing predicate
        def make_family(spec, k_max):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(families, "make_family", make_family)
        assert cli.run(["seq", "--family", "analytic", "--kmax", "1000000000"]) == 3
        assert capsys.readouterr() == ("", "error: Unable to allocate 7.45 GiB\n")

    def test_usage_error_is_three(self):
        assert run_cli("frobnicate").returncode == 3
        assert run_cli("seq", "--family", "nosuch").returncode == 3
        assert run_cli("check", "log-convex").returncode == 3  # no family, no pipe

    def test_nonpositive_kmax_is_usage_error(self):
        for kmax in ("0", "-5"):
            r = run_cli("seq", "--family", "q18", "--kmax", kmax)
            assert r.returncode == 3
            assert r.stderr == "error: k_max must be at least 2\n"

    def test_usage_error_message_on_stderr(self):
        r = run_cli("seq", "--family", "nosuch")
        assert r.stdout == ""
        assert "nosuch" in r.stderr


class TestDeterminism:
    def test_byte_identical_reruns(self):
        a = run_cli("seq", "--family", "q:0.5:2", "--kmax", "400")
        b = run_cli("seq", "--family", "q:0.5:2", "--kmax", "400")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_json_keys_sorted(self):
        r = run_cli("seq", "--family", "q18", "--kmax", "50")
        d = json.loads(r.stdout)
        assert list(d) == sorted(d)

    def test_float_rendering_17_digits(self):
        r = run_cli("seq", "--family", "q18", "--kmax", "50")
        # log Q_1 = log(log(1 + e)) printed at full precision
        assert "0.27251388050258341" in r.stdout

    def test_cli_digest_lines(self):
        # tests/cli_digest.py hashes what each command of its grid prints, in process
        grid = cli_digest.grid()
        assert len(grid) == 2602
        for argv in (["compose", "--family", "q:1:3", "--with", "gevrey:1", "--kmax", "11"],
                     ["seq", "--family", "q18", "--kmax", "11", "--format", "csv"],
                     ["fdb", "bound", "--order", "501"]):
            assert argv in grid
            r = run_cli(*argv)
            sha = [hashlib.sha256(s.encode()).hexdigest() for s in (r.stdout, r.stderr)]
            assert cli_digest.digest(argv) == f"{sha[0]} {sha[1]} {r.returncode} {' '.join(argv)}"


class TestFormats:
    def test_csv_header(self):
        r = run_cli("seq", "--family", "gevrey:1", "--kmax", "10", "--format", "csv")
        assert r.stdout.splitlines()[0] == "k,log_M,log_m"

    def test_json_round_trip(self):
        r = run_cli("seq", "--family", "q18", "--kmax", "200")
        W = WeightSequence.from_dict(json.loads(r.stdout))
        assert W.name == "q18"
        assert W.k_max == 200
        np.testing.assert_array_equal(W.log_M, make_family(parse_family("q18"), k_max=200).log_M)

    def test_plot_output(self, tmp_path):
        dest = tmp_path / "plot.txt"
        r = run_cli("seq", "--family", "analytic", "--kmax", "5", "--out", str(dest))
        assert r.returncode == 0
        lines = dest.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].split() == ["0", "0"]

    @pytest.mark.parametrize("argv", [
        ["check", "log-convex", "--family", "q18", "--kmax", "50", "--format", "csv"],
        ["check", "log-convex", "--family", "q18", "--kmax", "50", "--out", "plot.txt"],
        ["compare", "--family", "q18", "--with", "analytic", "--kmax", "50", "--format", "csv"],
        ["compare", "--family", "q18", "--with", "analytic", "--kmax", "50", "--out", "plot.txt"],
        ["fdb", "bell", "--order", "5", "--format", "csv"],
        ["fdb", "bound", "--order", "5", "--out", "plot.txt"],
        ["majorant", "--family", "q18", "--kmax", "400", "--format", "csv"],
        ["families", "--out", "plot.txt"],
        ["seq", "--family", "q18", "--kmax", "50", "--then", "check", "log-convex",
         "--format", "csv"],
        ["seq", "--family", "q18", "--kmax", "50", "--format", "csv", "--out", "plot.txt",
         "--then", "check", "log-convex"],
    ])
    def test_flag_the_command_does_not_take_is_a_usage_error(self, argv, tmp_path, monkeypatch):
        # only the sequence commands take --format csv and --out, and not before --then;
        # majorant takes --out
        monkeypatch.chdir(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(argv) == 3
        assert out.getvalue() == ""
        assert not (tmp_path / "plot.txt").exists()

    def test_majorant_out_writes_the_rescaled_output(self, tmp_path):
        dest = tmp_path / "plot.txt"
        argv = ["majorant", "--family", "q18", "--kmax", "400", "--marked", "10,40,160",
                "--out", str(dest)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.run(argv) == 0
        trace = json.loads(out.getvalue())
        rows = [line.split() for line in dest.read_text().splitlines()]
        assert [int(k) for k, _ in rows] == list(range(401))
        assert [float(v) for _, v in rows] == trace["output_rescaled"]["log_M"]

    def test_families_listing(self):
        r = run_cli("families")
        rows = json.loads(r.stdout)
        tokens = {row["token"] for row in rows}
        assert {"analytic", "q18", "q18p", "q18pp"} <= tokens

    def test_families_csv_is_valid_csv(self, capsys):
        # descriptions with commas are quoted, byte for byte as the csv module writes them
        assert cli.run(["families"]) == 0
        listing = [(r["token"], r["description"]) for r in json.loads(capsys.readouterr().out)]
        assert cli.run(["families", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = [tuple(row) for row in csv.reader(io.StringIO(out))]
        assert rows == [("token", "description")] + listing
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert out == expected.getvalue()

    @pytest.mark.parametrize("field", ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", ""])
    def test_csv_row_round_trips(self, field):
        assert list(csv.reader(io.StringIO(cli._csv_row(["k", field]) + "\n"))) == [["k", field]]


class TestPipelines:
    def test_then_chains_into_check(self):
        r = run_cli("checkseq", "--family", "q18", "--kmax", "800",
                    "--then", "check", "log-convex")
        assert r.returncode == 0

    def test_minorant_then_check(self):
        r = run_cli("minorant", "--family", "q18pp", "--kmax", "300", "--weak",
                    "--then", "check", "weakly-log-convex")
        assert r.returncode == 0

    def test_then_rejects_non_check(self):
        r = run_cli("seq", "--family", "q18", "--kmax", "50", "--then", "seq")
        assert r.returncode == 3

    @pytest.mark.parametrize("head", [
        ["families"],
        ["check", "log-convex", "--family", "q18", "--kmax", "50"],
        ["compare", "--family", "q18", "--with", "gevrey:1", "--kmax", "50"],
        ["majorant", "--family", "q18", "--kmax", "200", "--marked", "10,40"],
        ["fdb", "bell", "--order", "5"],
    ])
    def test_then_follows_only_sequences(self, head, capsys):
        assert cli.run(head + ["--then", "check", "quasianalytic"]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --then follows only seq, checkseq, minorant or compose\n")

    @pytest.mark.parametrize("flag", [["--family", "q:1:2"], ["--kmax", "40"]])
    def test_then_rejects_input_flags(self, flag):
        # the check runs on the piped sequence; a second input would be ignored
        r = run_cli("seq", "--family", "q18", "--kmax", "50",
                    "--then", "check", "log-convex", *flag)
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == "error: --family and --kmax must come before --then\n"


class TestReports:
    """A ``check`` or ``compare`` report holds no O(K) field; the statistic trace stays on the Verdict."""

    @pytest.mark.parametrize("token", ["q18", "q18pp", "gevrey:1", "q:1:2"])
    def test_reports_stay_small_at_1e4(self, token, capsys):
        # at K = 10^4 a statistic trace alone is ~200 KB
        common = ["--family", token, "--kmax", "10000"]
        reports = [["check", p, *common] for p in cli.CHECK_PREDICATES]
        for argv in reports + [["compare", *common, "--with", "gevrey:1"]]:
            cli.run(argv)
            out, err = capsys.readouterr()
            assert err == "" and len(out.encode()) < 2048, argv


class TestSubcommands:
    def test_missing_kmax_means_the_default(self, capsys):
        assert cli.run(["seq", "--family", "analytic"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["k_max"] == cli.DEFAULT_KMAX == 2000 and len(d["log_M"]) == 2001

    def test_compose(self):
        r = run_cli("compose", "--family", "q18", "--with", "analytic", "--kmax", "60")
        d = json.loads(r.stdout)
        assert d["k_max"] == 60

    def test_fdb_bell(self):
        r = run_cli("fdb", "bell", "--order", "10")
        d = json.loads(r.stdout)
        assert d["coeffs"][:7] == [1, 1, 2, 5, 15, 52, 203]

    def test_fdb_bound(self):
        r = run_cli("fdb", "bound", "--order", "12")
        assert r.returncode == 0
        assert json.loads(r.stdout)["violations"] == []

    def test_majorant_trace_schema(self):
        r = run_cli("majorant", "--family", "q18", "--kmax", "4000",
                    "--marked", "10,40,160,640")
        d = json.loads(r.stdout)
        rep = d["report"]
        assert len(rep["block_sums"]) == len(rep["bound_1_over_ab"]) == 3
        assert d["k_j"] == [10, 40, 160, 640]

    @pytest.mark.parametrize("factor", ["0", "-1", "inf", "nan"])
    def test_majorant_bad_factor(self, factor):
        r = run_cli("majorant", "--family", "q18", "--kmax", "200", "--marked", "10,40",
                    "--factor", factor)
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("error: escape factor must be finite and positive")
        assert len(r.stderr.splitlines()) == 1

    def test_fdb_bound_past_float_range(self):
        # exact coefficients pass 1.8e308 from order 200 or so on
        r = run_cli("fdb", "bound", "--order", "230")
        assert (r.returncode, r.stderr) == (0, "")
        d = json.loads(r.stdout)
        assert d["ok"] and d["violations"] == [] and d["order"] == 230
        assert all(np.isfinite(d["log_slack"]))

    def test_compose_convex_pair_past_500(self, capsys):
        assert cli.run(["compose", "--family", "q18", "--with", "gevrey:1", "--kmax", "100000"]) == 0
        out, err = capsys.readouterr()
        d = json.loads(out)
        assert err == "" and d["k_max"] == 100_000 and len(d["log_M"]) == 100_001

    def test_compose_non_convex_pair_past_500(self, capsys):
        # q:1:3 is convex on 1..K only to within rounding, at any K
        argv = ["compose", "--family", "q:1:3", "--with", "gevrey:1", "--kmax"]
        assert cli.run(argv + ["500"]) == 0
        short = json.loads(capsys.readouterr().out)["log_M"]
        assert cli.run(argv + ["100000"]) == 0
        out, err = capsys.readouterr()
        log_M = json.loads(out)["log_M"]
        assert err == "" and len(log_M) == 100_001
        assert np.array(log_M[:501]).tobytes() == np.array(short).tobytes()

    def test_fdb_bound_order_cap_before_composition(self, monkeypatch, capsys):
        class Composed(Exception):
            pass

        def compose_series(f, g):
            raise Composed

        monkeypatch.setattr(fdb, "compose_series", compose_series)
        assert cli.run(["fdb", "bound", "--order", "501"]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --order capped at 500 (O(n^3) series composition)\n")
        with pytest.raises(Composed):  # the cap lets order 500 through
            cli.run(["fdb", "bound", "--order", "500"])

    def test_fdb_bell_order_cap_before_composition(self, monkeypatch, capsys):
        class Composed(Exception):
            pass

        def compose_series(f, g):
            raise Composed

        monkeypatch.setattr(fdb, "compose_series", compose_series)
        assert cli.run(["fdb", "bell", "--order", "501"]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --order capped at 500 (O(n^3) series composition)\n")
        with pytest.raises(Composed):  # the cap lets order 500 through
            cli.run(["fdb", "bell", "--order", "500"])

    def test_check_has_no_weak_flag(self, capsys):
        # weakly-log-convex is the weak check; --weak was accepted and ignored
        assert cli.run(["check", "log-convex", "--weak", "--family", "q:1:2", "--kmax", "50"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --weak" in err

    def test_compare_holds(self):
        r = run_cli("compare", "--family", "q18", "--with", "gevrey:1", "--kmax", "2000")
        assert r.returncode == 0


# -- fuzzing ------------------------------------------------------------------

VALID_TOKENS = [
    "analytic", "gevrey:1", "gevrey:0.5", "q18", "q18p", "q18pp", "q:1:1", "q:0.5:2", "q:1:3",
    "qhat:1:2", "p:0.5:2", "p:1:1",
]
TOKENS = st.one_of(
    st.sampled_from(VALID_TOKENS),
    st.sampled_from([
        "gevrey:inf", "gevrey:1e308", "gevrey:5e304", "gevrey:-1", "gevrey:nan", "gevrey", "q18:1",
        "q:2:2", "q:0.5:9", "q:0.5:x", "qhat:2:2", "qhat:1:3", "p:1:3", "p:0.3:1", "frob", "", ":",
    ]),
    st.text(alphabet="qhatpgevry18:.-0259einf", max_size=10),
)
FACTOR = st.one_of(
    st.sampled_from(["0", "-1", "inf", "-inf", "nan", "2", "1e308", "x"]),
    st.floats().map(repr),
)


def marked(kmax):
    """--marked lists: increasing escape indices inside the prefix, or any list."""
    return st.one_of(
        st.lists(st.integers(1, max(kmax, 3)), min_size=3, max_size=5, unique=True).map(sorted),
        st.lists(st.integers(-2, 450), max_size=5),
    ).map(lambda ks: ",".join(map(str, ks)))


OUT = "<plot file>"  # replaced by a path in a fresh temporary directory


@st.composite
def argvs(draw):
    kmax = draw(st.integers(-3, 400))
    family = ["--family", draw(TOKENS), "--kmax", str(kmax)]
    # every command may draw --format csv and --out; only some of them take each
    fmt = draw(st.sampled_from([[], ["--format", "csv"]]))
    fmt += draw(st.sampled_from([[], ["--out", OUT]]))
    command = draw(st.sampled_from(
        ["families", "seq", "checkseq", "minorant", "check", "compose", "compare", "majorant", "fdb"]
    ))
    if command == "families":
        argv = [command] + fmt
    elif command == "fdb":
        argv = [command, draw(st.sampled_from(["bell", "bound"])), "--order",
                str(draw(st.integers(-2, 40)))] + fmt
    elif command == "check":
        argv = [command, draw(st.sampled_from(cli.CHECK_PREDICATES))] + family + fmt
        argv += draw(st.sampled_from([[], ["--weak"]]))
    elif command in ("compose", "compare"):
        argv = [command, "--with", draw(TOKENS)] + family + fmt
    elif command == "majorant":
        # q18 and q18p have log-convex check sequences, so both constructions run on them
        family[1] = draw(st.one_of(st.sampled_from(["q18", "q18p"]), TOKENS))
        argv = [command] + family + ["--marked", draw(marked(kmax))]
        argv += draw(st.sampled_from([[], ["--factor", draw(FACTOR)]]))
        argv += draw(st.sampled_from([[], ["--weak"]])) + fmt
    else:
        argv = [command] + family + fmt + draw(st.sampled_from([[], ["--weak"]]))
    if draw(st.booleans()):
        argv += ["--then", "check", draw(st.sampled_from(cli.CHECK_PREDICATES))]
        argv += draw(st.sampled_from(
            [[], ["--family", draw(TOKENS)], ["--kmax", str(draw(st.integers(-3, 400)))]]
        ))
    return argv


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argvs())
    def test_run_returns_an_exit_code(self, argv):
        # any exception or RuntimeWarning (an error in this suite) fails the test
        with tempfile.TemporaryDirectory() as tmp:
            argv = [os.path.join(tmp, "plot.txt") if a == OUT else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        assert code in (0, 1, 2, 3)


# -- the former per-element writers, kept as oracles ----------------------------


def _fmt_float_oracle(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def dumps_oracle(obj):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_oracle(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps_oracle(str(k))}: {dumps_oracle(v)}" for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_oracle(v) for v in obj) + "]"
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def write_plot_oracle(W):
    return "\n".join(f"{k} {W.log_M[i]:.17g}" for i, k in enumerate(W.ks)) + "\n"


FLOATS = st.one_of(
    st.floats(),  # NaN, +-inf and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1.7e308])


def runs(values):
    """Lists of long runs of equal values, built from drawn (value, run length) pairs.

    Neighbours are often bit-equal, or 0.0 next to -0.0, which compare equal but print apart.
    """
    return st.lists(st.tuples(values, st.integers(1, 40)), min_size=1, max_size=8).map(
        lambda pairs: [v for v, n in pairs for _ in range(n)])


RUNS = runs(st.one_of(FINITE, EDGES))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8), FLOATS, FLOATS.map(np.float64),
    st.integers(-(2**200), 2**200),
    st.lists(FINITE, max_size=30),  # all finite: one format call for the whole list
    st.lists(FINITE, max_size=30).map(tuple),
    st.lists(FLOATS, max_size=30),  # NaN or infinity: written element by element
    RUNS, RUNS.map(tuple), runs(st.one_of(FLOATS, EDGES)),
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=20,
)


class TestWritersAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_dumps(self, doc):
        assert cli.dumps(doc) == dumps_oracle(doc)

    @pytest.mark.parametrize("vals", [
        [1e308, 1e308], [-1.7e308] * 8 + [1.0] * 8, [0.0] * 8 + [-0.0] * 9 + [0.0] * 8,
        [0.0, -0.0, 0.0], [5e-324] * 9, [2.5, 1.0] + [2.5] * 14, [1.0], [-0.0],
        [1e308, 1e308, float("inf")], [0.0, 0.0, float("nan")],
    ])
    def test_dumps_edges(self, vals, monkeypatch):
        calls, dumps = [], cli.dumps

        def counted(v):
            calls.append(v)
            return dumps(v)

        monkeypatch.setattr(cli, "dumps", counted)  # dumps calls itself through the module name
        # all finite, even where the sum overflows: one format call, not one dumps per element
        per_list = 1 if all(map(np.isfinite, vals)) else 1 + len(vals)
        for doc in (vals, tuple(vals)):
            calls.clear()
            assert cli.dumps(doc) == dumps_oracle(vals)
            assert len(calls) == per_list

    @pytest.mark.parametrize("leaf", [np.int64(1), np.bool_(True), np.array([1.0])])
    def test_dumps_rejects_numpy(self, leaf):
        # report builders cast with float(), int() or .tolist(); np.float64 subclasses float
        with pytest.raises(TypeError):
            cli.dumps(leaf)

    def test_dumps_reports(self):
        W = builtin_sequences(10_000) | {t: make_family(parse_family(t), 10_000)
                                         for t in ("qhat:1:2", "p:0.3:2")}
        for mode in ("derivation-closed", "moderate-growth"):
            for V in W.values():
                v = predicates.growth_diagnostic(V, mode)
                for payload in (v.to_report(mode), {"t": v.statistic_trace.tolist()}):
                    assert cli.dumps(payload) == dumps_oracle(payload)
        v = predicates.inclusion_diagnostic(W["q18"], W["gevrey:1"])
        for payload in (v.to_report("inclusion"), {"t": v.statistic_trace.tolist()}):
            assert cli.dumps(payload) == dumps_oracle(payload)

    def test_dumps_random_bits(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63, size=20_000, dtype=np.uint64) | rng.integers(
            0, 2, size=20_000, dtype=np.uint64) << np.uint64(63)
        vals = bits.view(np.float64)
        vals = vals[np.isfinite(vals)]
        assert cli.dumps(vals.tolist()) == dumps_oracle(vals.tolist())
        W = make_family(parse_family("q18"), k_max=10_000)
        assert cli.dumps(W.to_dict()) == dumps_oracle(W.to_dict())

    @pytest.mark.parametrize("token", ["q18", "analytic", "q:1:3"])
    def test_seq_out(self, token, tmp_path, capsys):
        dest = tmp_path / "plot.txt"
        assert cli.run(["seq", "--family", token, "--kmax", "10000", "--out", str(dest)]) == 0
        W = make_family(parse_family(token), k_max=10_000)
        assert dest.read_text() == write_plot_oracle(W)
        assert capsys.readouterr().out == dumps_oracle(W.to_dict()) + "\n"

    def test_plot_past_zero(self, tmp_path):
        rng = np.random.default_rng(11)
        W = WeightSequence("random", 0, rng.normal(size=10_001) * 1e5)
        cli._write_plot(str(tmp_path / "plot.txt"), W)
        assert (tmp_path / "plot.txt").read_text() == write_plot_oracle(W)
