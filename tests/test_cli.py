import json
import os
import subprocess
import sys

import numpy as np
import pytest

import carleman_lab
from carleman_lab.families import make_family, parse_family
from carleman_lab.seqcore import WeightSequence

# the subprocess imports the same package tree as this test process
SRC_DIR = os.path.dirname(os.path.dirname(carleman_lab.__file__))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CARLEMAN_KMAX", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
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

    def test_families_listing(self):
        r = run_cli("families")
        rows = json.loads(r.stdout)
        tokens = {row["token"] for row in rows}
        assert {"analytic", "q18", "q18p", "q18pp"} <= tokens


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


class TestEnvironment:
    def test_kmax_env_override(self):
        r = run_cli("seq", "--family", "analytic", env_extra={"CARLEMAN_KMAX": "7"})
        assert json.loads(r.stdout)["k_max"] == 7

    def test_flag_beats_env(self):
        r = run_cli("seq", "--family", "analytic", "--kmax", "9",
                    env_extra={"CARLEMAN_KMAX": "7"})
        assert json.loads(r.stdout)["k_max"] == 9

    def test_bad_env_value(self):
        r = run_cli("seq", "--family", "analytic", env_extra={"CARLEMAN_KMAX": "many"})
        assert r.returncode == 3


class TestSubcommands:
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

    def test_compare_holds(self):
        r = run_cli("compare", "--family", "q18", "--with", "gevrey:1", "--kmax", "2000")
        assert r.returncode == 0
