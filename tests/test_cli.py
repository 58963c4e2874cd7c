"""End-to-end tests of the command line interface, run in process."""

import ast
import cmath
import importlib.util
import inspect
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import powfrac
from powfrac import cli, expsum, fraccore, paircount, sieve
from powfrac.cli import main
from powfrac.errors import RangeError, ResourceError
from powfrac.paircount import PairQuery, count_pairs_interval
from powfrac.sieve import SieveProblem, dense_gram_eigenvalue

SUBCOMMANDS = [
    "enumerate", "pairs", "blocks", "window", "measure", "expsum-direct",
    "expsum-vdc", "kusmin", "meanvalue", "sieve-delta", "sieve-l1",
    "sieve-dual", "bounds", "sharpness-study",
]
# The tabular commands, the only ones that take --format.
CSV_COMMANDS = {"expsum-vdc", "bounds", "sharpness-study"}
# One fixed argv per subcommand, the CSV forms and one exit-2 case, with the
# exit code, stdout (JSON with elapsed_ms removed) and stderr each produced.
# Inputs are chosen so that every float comes out exact or from libm alone.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run_cli(capsys, argv):
    """Invoke main() and return (exit_code, stdout, stderr).

    argparse reports its own validation failures via SystemExit; fold
    those into the same exit-code channel.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pairs_json_report(capsys):
    code, out, err = run_cli(capsys, ["pairs", "--k", "2", "--n-max", "2", "--y", "2/1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 21
    assert payload["schema"] == 1
    assert payload["query"]["y"] == "2/1"
    # keys are emitted sorted so reruns are byte-comparable
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert "count=21" in err


def test_reports_byte_identical_across_runs(capsys):
    def grab(argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_ms", None)
        return json.dumps(payload, sort_keys=True)

    argv = ["pairs", "--k", "2", "--n-max", "3", "--y", "9/2", "--metric", "circle"]
    assert grab(argv) == grab(argv)
    argv = ["sieve-l1", "--k", "2", "--n-max", "3", "--m-len", "5",
            "--alpha-mode", "random", "--seed", "7"]
    assert grab(argv) == grab(argv)


def test_enumerate_sorted_starts_at_minimum(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--k", "2", "--n-max", "2", "--sorted"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["tuples"][0] == {"k": 2, "n": 2, "u": 1}  # value 1/4


def test_enumerate_cap_exits_3_before_listing(capsys, monkeypatch):
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "4")
    monkeypatch.setattr("powfrac.cli.enumerate_tuples",
                        lambda spec: pytest.fail("listed tuples past the cap"))
    code, out, err = run_cli(capsys, ["enumerate", "--k", "2", "--n-max", "2", "--limit", "1"])
    assert code == 3
    assert out == "" and "resource limit" in err


@pytest.mark.parametrize("k, n_max", [(0, 3), (2, 0)])
def test_enumerate_bad_range_exits_2_without_listing(capsys, k, n_max):
    code, out, _ = run_cli(capsys, ["enumerate", "--k", str(k), "--n-max", str(n_max),
                                    "--limit", "0"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("extra", [[], ["--metric", "circle"], ["--coprime"]])
def test_pairs_oracle_equals_fast_count(capsys, extra):
    def count(method):
        code, out, _ = run_cli(capsys, ["pairs", "--k", "2", "--n-max", "6", "--y", "50/1",
                                        "--method", method] + extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == method
        return payload["count"]

    assert count("oracle") == count("sweep")


def test_blocks_count(capsys):
    code, out, _ = run_cli(capsys, [
        "blocks", "--k", "2", "--u1", "1", "--n1", "1", "--u2", "1", "--n2", "1",
        "--y", "1/1",
    ])
    assert code == 0
    assert json.loads(out)["count"] >= 1


def test_window_count(capsys):
    code, out, _ = run_cli(capsys, [
        "window", "--k", "1", "--n-max", "3", "--y", "6/1", "--x", "1/2",
    ])
    assert code == 0
    assert json.loads(out)["count"] == 3


@pytest.mark.parametrize("argv", [
    ["window", "--k", "0", "--n-max", "5", "--x", "1/3", "--y", "10/1"],
    ["window", "--k", "-1", "--n-max", "5", "--x", "1/3", "--y", "10/1"],
    ["window", "--k", "2", "--n-max", "0", "--x", "1/3", "--y", "10/1"],
    ["measure", "--k", "0", "--n-max", "1000000000", "--y", "10/1", "--threshold", "1",
     "--no-coprime"],
])
def test_bad_exponent_or_base_range_exits_2_before_counting(capsys, monkeypatch, argv):
    monkeypatch.setattr(fraccore, "_base_counts", lambda *a: pytest.fail("counted tuples"))
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == "" and "must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ["measure", "--k", "2", "--n-max", "40", "--y", "64000/1", "--threshold", "0"],
    ["enumerate", "--k", "1", "--n-max", "300000", "--coprime", "--limit", "-1"],
])
def test_bad_threshold_or_limit_exits_2_before_counting(capsys, monkeypatch, argv):
    monkeypatch.setattr(fraccore, "_base_counts", lambda *a: pytest.fail("counted tuples"))
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == "" and "must be >= " in err


def test_measure_report_and_profile_csv(capsys, tmp_path):
    profile = tmp_path / "profile.csv"
    code, out, _ = run_cli(capsys, [
        "measure", "--k", "1", "--n-max", "2", "--y", "4/1", "--threshold", "1",
        "--profile-csv", str(profile),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["point_count"] == 2  # coprime by default: 1/1 and 1/2
    assert payload["measure"] == "1/1"
    assert payload["integral"] == "1/1"
    lines = profile.read_text().strip().splitlines()
    assert lines[0] == "breakpoint_p,breakpoint_q,depth"
    assert lines[1:] == ["1,4,1", "3,4,1"]


def test_kusmin_report(capsys):
    code, out, _ = run_cli(capsys, [
        "kusmin", "--coef", "0.25", "--a", "0", "--b", "3", "--lam", "0.25",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["magnitude"] <= payload["bound"]


@pytest.mark.parametrize("coef, power, a, b, lam", [
    (0.3, None, 1.0, 3000.0, 0.3),
    (0.8, 0.5, 4.0, 2000.0, 0.008),  # f' falls from 0.2 to 0.0089
    (1e-4, 2.0, 1000.0, 3000.0, 0.2),  # f' rises from 0.2 to 0.6
    (-1.9e7, -1.5, 1000.0, 3000.0, 0.05),  # f' falls from 0.901 to 0.058
    (1e-9, 3.0, -5000.0, -1000.0, 0.002),  # f' falls from 0.075 to 0.003
    (0.3, None, 2.0**53 - 50, 2.0**53 + 50, 0.3),  # float(n) rounds past 2^53
])
def test_kusmin_array_form_equals_the_per_term_loop(capsys, coef, power, a, b, lam):
    argv = ["kusmin", "--coef", repr(coef), "--a", repr(a), "--b", repr(b), "--lam", repr(lam)]
    if power is not None:
        argv += ["--power", repr(power)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    p = 1.0 if power is None else power
    total = 0j
    for n in range(math.ceil(a), math.floor(b) + 1):
        total += cmath.exp(2j * math.pi * math.fmod(coef * n**p, 1.0))
    assert json.loads(out)["magnitude"] == abs(total)


def test_kusmin_violated_hypothesis_exits_2(capsys):
    # f' = 0.1 sits at distance 0.1 < lam from the integers
    code, out, err = run_cli(capsys, [
        "kusmin", "--coef", "0.1", "--a", "1", "--b", "20", "--lam", "0.3",
    ])
    assert code == 2
    assert out == "" and "lam" in err


@pytest.mark.parametrize("argv, message", [
    (["expsum-direct", "--alpha", "0.5", "--y", "1", "--n-scale", "10", "--eta", "inf"], "finite"),
    (["expsum-vdc", "--alpha", "nan", "--y", "1", "--n-scale", "10", "--eta", "2"], "finite"),
    (["kusmin", "--coef", "0.3", "--a", "1", "--b", "inf", "--lam", "0.1"], "finite"),
    (["kusmin", "--coef", "0.3", "--a", "-5", "--b", "5", "--power", "1.5", "--lam", "0.1"],
     "not real"),
    (["kusmin", "--coef", "0.3", "--a", "0", "--b", "5", "--power", "0.5", "--lam", "0.1"],
     "n = 0"),
    (["meanvalue", "--k", "1", "--n-lo", "1", "--n-hi", "2", "--u-lo", "1", "--u-hi", "2",
      "--y-max", "nan"], "finite"),
    # f(20) = 2^2000 / 2000 and f'(10^5) = 3 * 10^310 overflow the float range
    (["expsum-direct", "--alpha", "2000", "--y", "1", "--n-scale", "10", "--eta", "2"],
     "float range"),
    (["kusmin", "--coef", "1e300", "--power", "3", "--a", "1e5", "--b", "1e5", "--lam", "0.1"],
     "float range"),
    # 2 * y_max * (3 - 1/3) overflows the sinc argument
    (["meanvalue", "--k", "1", "--n-lo", "1", "--n-hi", "3", "--u-lo", "1", "--u-hi", "3",
      "--y-max", "1e308"], "float range"),
    # 2 / 3^-646 overflows to inf
    (["meanvalue", "--k", "-646", "--n-lo", "3", "--n-hi", "3", "--u-lo", "1", "--u-hi", "3",
      "--y-max", "2"], "float range"),
    # 2^-1100 underflows to 0.0, so u / n^k divides by 0
    (["meanvalue", "--k", "-1100", "--n-lo", "2", "--n-hi", "3", "--u-lo", "1", "--u-hi", "3",
      "--y-max", "2"], "divides by zero at (2, 1)"),
])
def test_non_finite_or_complex_phase_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["expsum-direct", "--alpha", "0.5", "--y", "1", "--n-scale", "1e30", "--eta", "2"],
    # about 3*10^28 dual terms, past every int a range can measure
    ["expsum-vdc", "--alpha", "0.5", "--y", "1e30", "--n-scale", "10", "--eta", "2"],
    ["kusmin", "--coef", "0.3", "--a", "1", "--b", "1e12", "--lam", "0.1"],
])
def test_sums_past_term_cap_exit_3_before_any_phase(capsys, monkeypatch, argv):
    monkeypatch.setattr(expsum, "_phase_sum", lambda *a: pytest.fail("summed"))
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == "" and "resource limit" in err


def test_meanvalue_matches_library(capsys):
    code, out, _ = run_cli(capsys, [
        "meanvalue", "--k", "1", "--n-lo", "1", "--n-hi", "2",
        "--u-lo", "1", "--u-hi", "2", "--y-max", "8",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0


def test_meanvalue_over_cap_exits_3(capsys):
    # P = 2500 phases: a kernel of P^2 = 6.25e6 entries is past the cap
    code, out, err = run_cli(capsys, [
        "meanvalue", "--k", "1", "--n-lo", "1", "--n-hi", "50",
        "--u-lo", "1", "--u-hi", "50", "--y-max", "8",
    ])
    assert code == 3
    assert out == "" and "resource limit" in err


@pytest.mark.parametrize("k, n_lo, n_hi", [(1, 0, 2), (2, -3, 0), (3, 0, 0)])
def test_meanvalue_zero_base_exits_2_before_any_phase(capsys, monkeypatch, k, n_lo, n_hi):
    monkeypatch.setattr(expsum, "power_phase", lambda k: pytest.fail("built a phase"))
    code, out, err = run_cli(capsys, [
        "meanvalue", "--k", str(k), "--n-lo", str(n_lo), "--n-hi", str(n_hi),
        "--u-lo", "1", "--u-hi", "2", "--y-max", "8",
    ])
    assert code == 2
    assert out == "" and "n = 0" in err


def test_meanvalue_evaluates_each_phase_once(capsys, monkeypatch):
    """The mean value and the pair count share one phase table."""
    calls = []
    power_phase = expsum.power_phase

    def counted_phase(k):
        phi = power_phase(k)
        return lambda n, u: calls.append((n, u)) or phi(n, u)

    monkeypatch.setattr(expsum, "power_phase", counted_phase)
    code, _, _ = run_cli(capsys, [
        "meanvalue", "--k", "2", "--n-lo", "1", "--n-hi", "43",
        "--u-lo", "1", "--u-hi", "52", "--y-max", "100",
    ])
    assert code == 0
    assert len(calls) == 43 * 52


def test_meanvalue_large_y_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, [
        "meanvalue", "--k", "1", "--n-lo", "1", "--n-hi", "30",
        "--u-lo", "1", "--u-hi", "30", "--y-max", "1e7",
    ])
    assert code == 0
    assert time.perf_counter() - start < 10
    payload = json.loads(out)
    # Past the closest phase gap the mean is the coincident pairs, counted twice.
    assert payload["value"] == pytest.approx(2 * payload["pair_count"], rel=0.05)


def test_expsum_vdc_csv_header(capsys):
    code, out, _ = run_cli(capsys, [
        "expsum-vdc", "--alpha", "-1", "--y", "400", "--n-scale", "10",
        "--eta", "2", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("alpha,y,n_scale,eta,direct_re,direct_im,"
                        "transform_re,transform_im,abs_err,budget,ratio")
    fields = lines[1].split(",")
    assert float(fields[8]) <= 10 * float(fields[9])  # abs_err within budget


def test_expsum_direct_report(capsys):
    code, out, _ = run_cli(capsys, [
        "expsum-direct", "--alpha", "0.5", "--y", "0", "--n-scale", "1", "--eta", "10.5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(9.0)
    assert payload["value_im"] == pytest.approx(0.0)


def test_sieve_delta_methods_agree(capsys):
    def delta(method):
        code, out, _ = run_cli(capsys, [
            "sieve-delta", "--k", "2", "--n-max", "2", "--m-len", "3",
            "--method", method,
        ])
        assert code == 0
        return json.loads(out)["delta"]

    fast, slow = delta("power"), delta("dense")
    assert fast == pytest.approx(slow, rel=1e-6)
    assert slow == pytest.approx(dense_gram_eigenvalue(SieveProblem(2, 2, 3)), rel=1e-12)


def test_sieve_delta_past_exact_int64_phases_exits_3(capsys, monkeypatch):
    # k = 2, N = 3, P < M: the row-side kernel's products reach 4 * (3^4)^2
    monkeypatch.setattr(sieve, "_MAX_INT64_PRODUCT", 4 * 3**8)
    code, out, err = run_cli(capsys, ["sieve-delta", "--k", "2", "--n-max", "3", "--m-len", "40"])
    assert code == 3
    assert out == "" and "int64" in err


def test_sieve_l1_basis_mode(capsys):
    code, out, _ = run_cli(capsys, [
        "sieve-l1", "--k", "2", "--n-max", "2", "--m-len", "1",
        "--alpha-mode", "basis",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(3.0)  # P rows, unit window
    assert payload["within_cs"] is True


def test_sieve_dual_ones_single_modulus(capsys):
    code, out, _ = run_cli(capsys, [
        "sieve-dual", "--k", "1", "--n-max", "1", "--m-len", "7",
        "--coeff-mode", "ones",
    ])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(7.0)


def test_sieve_l1_ones_mode(capsys):
    code, out, _ = run_cli(capsys, ["sieve-l1", "--k", "2", "--n-max", "3", "--m-len", "5",
                                    "--alpha-mode", "ones"])
    assert code == 0
    payload = json.loads(out)
    # each row a/n^k with gcd(a, n) = 1 contributes |sum of e(a*m/n^k) over m = 1..5|
    rows = [(a, n**2) for n in range(1, 4) for a in range(1, n**2 + 1) if math.gcd(a, n) == 1]
    expected = sum(abs(sum(cmath.exp(2j * math.pi * a * m / q) for m in range(1, 6)))
                   for a, q in rows)
    assert payload["value"] == pytest.approx(expected, rel=1e-12)
    assert payload["within_cs"] is True


def test_sieve_dual_random_unimodular_is_seeded_and_bounded(capsys):
    def report(seed):
        code, out, _ = run_cli(capsys, ["sieve-dual", "--k", "2", "--n-max", "3", "--m-len", "5",
                                        "--coeff-mode", "random-unimodular", "--seed", seed])
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        return payload

    first = report("5")
    assert first["within_bound"] is True
    assert first["coeff_norm_sq"] == pytest.approx(9.0)  # P = 9 unit coefficients
    assert json.dumps(report("5"), sort_keys=True) == json.dumps(first, sort_keys=True)
    assert report("6")["value"] != first["value"]


def test_bounds_csv_row(capsys):
    code, out, _ = run_cli(capsys, [
        "bounds", "--k", "2", "--n", "10", "--m", "1000", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,n,m,classical_1,classical_2,conjecture,cor2_rhs"
    assert lines[1] == "2,10,1000,11000,11000,2000,2000"


def test_sharpness_study_csv(capsys):
    code, out, _ = run_cli(capsys, [
        "sharpness-study", "--k", "2", "--n-list", "4,6", "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,ratio,log_slope"
    first = lines[1].split(",")
    assert first[:3] == ["4", "56", "0.875"]
    assert first[3] == ""  # no slope for the first row


def test_sharpness_study_coprime_rows(capsys):
    code, out, _ = run_cli(capsys, [
        "sharpness-study", "--k", "2", "--n-list", "3,5,6", "--coprime",
    ])
    assert code == 0
    for row in json.loads(out)["rows"]:
        n = row["n"]
        query = PairQuery(2, n, Fraction(n**3), coprime=True)
        assert row["count"] == count_pairs_interval(query)


def test_sharpness_study_repeated_n_exits_2(capsys):
    code, out, err = run_cli(capsys, ["sharpness-study", "--k", "2", "--n-list", "4,4"])
    assert code == 2
    assert out == "" and "distinct" in err


def test_sharpness_study_empty_list_exits_2(capsys):
    code, out, err = run_cli(capsys, ["sharpness-study", "--k", "2", "--n-list", ","])
    assert code == 2
    assert out == "" and "empty" in err


def test_invalid_rational_exits_2(capsys):
    code, _, err = run_cli(capsys, ["pairs", "--k", "2", "--n-max", "2", "--y", "0.5"])
    assert code == 2
    assert err


def test_zero_y_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["pairs", "--k", "2", "--n-max", "2", "--y", "0/1"])
    assert code == 2


def test_resource_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "3")
    code, _, err = run_cli(capsys, ["pairs", "--k", "2", "--n-max", "2", "--y", "2/1"])
    assert code == 3
    assert "resource" in err.lower()


def test_output_file_keeps_stdout_for_summary(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, [
        "pairs", "--k", "2", "--n-max", "2", "--y", "2/1", "--output", str(target),
    ])
    assert code == 0
    assert json.loads(target.read_text())["count"] == 21
    assert "count=21" in out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_subcommand_has_help(capsys, name):
    with pytest.raises(SystemExit) as exc_info:
        main([name, "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert "--output" in out
    assert ("--format" in out) == (name in CSV_COMMANDS)


def test_format_refused_without_csv_form(capsys):
    code, out, err = run_cli(capsys, ["pairs", "--k", "2", "--n-max", "2", "--y", "2/1",
                                      "--format", "csv"])
    assert code == 2
    assert out == "" and "--format" in err


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_report_matches_golden(capsys, case):
    code, out, err = run_cli(capsys, case["argv"])
    assert code == case["exit_code"]
    if out.startswith("{"):
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True) + "\n"
        payload.pop("elapsed_ms", None)
        out = json.dumps(payload, sort_keys=True) + "\n"
    assert out == case["stdout"]
    assert err == case["stderr"]


def test_every_json_report_carries_elapsed_ms(capsys):
    commands = set()
    for case in GOLDEN:
        if case["stdout"].startswith("{"):
            code, out, _ = run_cli(capsys, case["argv"])
            assert code == 0
            assert json.loads(out)["elapsed_ms"] >= 0
            commands.add(case["argv"][0])
    assert commands == set(SUBCOMMANDS)


@pytest.mark.parametrize("argv", [
    # P ~ 2.4e12 rows: a row coefficient vector of about 35 TiB
    ["sieve-dual", "--k", "3", "--n-max", "2000", "--m-len", "1"],
    # one row, but a window of 10^11: an alpha vector of hundreds of GiB
    ["sieve-l1", "--k", "1", "--n-max", "1", "--m-len", "100000000000"],
])
def test_sieve_vectors_refused_before_allocating(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == "" and "resource limit" in err


@pytest.mark.parametrize("argv, env_cap", [
    (["sieve-delta", "--k", "1", "--n-max", "3000000", "--m-len", "1"], None),
    (["pairs", "--k", "1", "--n-max", "3000000", "--y", "1/1", "--coprime"], None),
    (["enumerate", "--k", "1", "--n-max", "3000000", "--coprime"], "2000000"),
    (["enumerate", "--k", "1", "--n-max", "10000000", "--coprime", "--limit", "1"], None),
])
def test_refusal_stops_counting_at_the_cap(capsys, monkeypatch, argv, env_cap):
    if env_cap:
        monkeypatch.setenv("POWFRAC_MAX_POINTS", env_cap)
    calls = []
    phi = fraccore.euler_phi
    monkeypatch.setattr(fraccore, "euler_phi", lambda n: calls.append(n) or phi(n))
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == "" and "resource limit" in err
    # sum(phi(n)) passes 2*10^6 near n = 2 570 and 5*10^6 near n = 4 060, not at 3*10^6
    assert 0 < len(calls) < 5_000


@pytest.mark.parametrize("argv, work", [
    (["pairs", "--k", "2", "--n-max", "2", "--y", "2/1", "--output"], "count_pairs_interval"),
    (["measure", "--k", "1", "--n-max", "3", "--y", "4/1", "--threshold", "1", "--profile-csv"],
     "coverage_profile"),
])
@pytest.mark.parametrize("bad", ["missing_dir", "directory"])
def test_output_path_refused_before_work(capsys, monkeypatch, tmp_path, argv, work, bad):
    monkeypatch.setattr(paircount, work, lambda *a, **kw: pytest.fail("ran before the path check"))
    path = tmp_path / "missing" / "out" if bad == "missing_dir" else tmp_path
    code, out, err = run_cli(capsys, argv + [str(path)])
    assert code == 2
    assert out == "" and str(path) in err


@pytest.mark.parametrize("argv, passes", [
    (["sieve-dual", "--k", "2", "--n-max", "6", "--m-len", "30"], 3),
    (["sieve-l1", "--k", "2", "--n-max", "6", "--m-len", "30"], 3),
    (["sieve-delta", "--k", "2", "--n-max", "6", "--m-len", "30"], 2),
    (["sieve-delta", "--k", "2", "--n-max", "6", "--m-len", "30", "--method", "dense"], 2),
    (["measure", "--k", "2", "--n-max", "6", "--y", "50/1", "--threshold", "2"], 1),
    (["pairs", "--k", "2", "--n-max", "6", "--y", "50/1", "--coprime"], 1),
])
def test_fraction_set_counted_once_per_cap_check(capsys, monkeypatch, argv, passes):
    """Each call reuses the count its cap check made: one pass over the bases per
    cap check, none to recount the rows."""
    calls = []
    base_counts = fraccore._base_counts
    monkeypatch.setattr(fraccore, "_base_counts", lambda *a: calls.append(a) or base_counts(*a))
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert 1 <= len(calls) <= passes


def test_traced_names_exist():
    """Every function the benchmark's tracer wraps is still defined in its module, and
    enumerate_tuples is still a generator: the tracer counts the tuples it yields."""
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    if not path.exists():
        pytest.skip("bench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names if not hasattr(importlib.import_module(f"powfrac.{module}"), name)]
    assert missing == []
    assert inspect.isgeneratorfunction(fraccore.enumerate_tuples)


def _resolves(dotted: str) -> bool:
    """Whether dotted, "powfrac" then module and attribute names, names a loaded object."""
    target = powfrac
    for name in dotted.split(".")[1:]:
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def test_benchmark_imports_exist():
    """Every powfrac name that a file in bench/ imports still exists, and so does every
    attribute that a bench/ file outside test_*.py reads on a powfrac module, and every
    expsum entry point a query names with call=, which worker._library_call resolves
    with getattr; the files are parsed, not run."""
    bench = Path(__file__).parents[1] / "bench"
    referenced = []
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the dotted powfrac name it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "powfrac":
                for alias in node.names:
                    referenced.append(f"{node.module}.{alias.name}")
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    # `import powfrac.cli` binds powfrac; `import powfrac.cli as cli` binds cli
                    if alias.name.split(".")[0] == "powfrac":
                        local = alias.asname or "powfrac"
                        modules[local] = alias.name if alias.asname else "powfrac"
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "call" \
                    and isinstance(node.value, ast.Constant):
                referenced.append(f"powfrac.expsum.{node.value.value}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                referenced.append(f"{modules[node.value.id]}.{node.attr}")
    if not referenced:
        pytest.skip("bench/ refers to nothing in powfrac")
    assert [dotted for dotted in referenced if not _resolves(dotted)] == []


def test_public_names_are_exported():
    """`from powfrac import *` binds all of __all__, and __all__ lists exactly the
    public names the package imports, so a stale export fails here, not on import."""
    namespace = {}
    exec("from powfrac import *", namespace)
    assert set(powfrac.__all__) <= namespace.keys()
    tree = ast.parse(Path(powfrac.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert set(powfrac.__all__) - {"__version__"} == public


def _private_name(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reaches_into_another_modules_private_names():
    """No file of the package imports a _name from another powfrac module, or reads
    module._name on a powfrac module it imported: each decision stays behind the one
    module that owns it.  And no private module-level function is dead: each is named
    by some other top-level statement of the package."""
    package = Path(powfrac.__file__).parent
    leaks = []
    defs, uses = [], []  # (file, private top-level function); (a statement's def, its names)
    for path in sorted(package.glob("*.py")):
        own = "powfrac" if path.stem == "__init__" else f"powfrac.{path.stem}"
        modules = {}  # local name -> powfrac module it is bound to
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            defined = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if defined and _private_name(defined):
                defs.append((path.name, defined))
            uses.append((defined, {node.id if isinstance(node, ast.Name) else node.attr
                                   for node in ast.walk(stmt)
                                   if isinstance(node, (ast.Name, ast.Attribute))}))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "powfrac":
                        local = alias.asname or alias.name.split(".")[0]
                        modules[local] = alias.name if alias.asname else "powfrac"
            elif isinstance(node, ast.ImportFrom):
                source = ".".join(filter(None, ["powfrac" if node.level else None, node.module]))
                if source.split(".")[0] != "powfrac":
                    continue
                for alias in node.names:
                    target = getattr(importlib.import_module(source), alias.name, None)
                    if inspect.ismodule(target):
                        modules[alias.asname or alias.name] = target.__name__
                    elif _private_name(alias.name) and source != own:
                        leaks.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and _private_name(node.attr)):
                continue
            chain, value = [], node.value
            while isinstance(value, ast.Attribute):
                chain.insert(0, value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in modules:
                module = ".".join([modules[value.id]] + chain)
                if module != own:
                    leaks.append(f"{path.name}:{node.lineno} reads {module}.{node.attr}")
    assert leaks == []
    dead = [f"{file}:{name}" for file, name in defs
            if not any(name in names for defined, names in uses if defined != name)]
    assert dead == []


def test_every_test_import_is_declared():
    """Every third-party module the tests import is a declared dependency or in the
    `test` extra, so `pip install -e '.[test]'` is enough to run them."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    extras = project.get("optional-dependencies", {}).get("test", [])
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + extras}
    imported = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"powfrac"}
    assert third_party - declared == set()


def _reject_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


def test_degenerate_vdc_ratio_is_null(capsys):
    # budget = 0.1/sqrt(0.5) + log(0.5) < 0: no ratio, and no Infinity in the report
    argv = ["expsum-vdc", "--alpha", "0.5", "--y", "0.5", "--n-scale", "0.1", "--eta", "2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["budget"] < 0 and payload["ratio"] is None
    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert header.endswith(",ratio") and row.endswith(",")


def test_bounds_past_float_range_exits_2(capsys):
    code, out, err = run_cli(capsys, ["bounds", "--k", "200", "--n", "40", "--m", "3"])
    assert code == 2
    assert out == "" and "cor2_rhs" in err and "float range" in err


@pytest.mark.parametrize("argv", [
    [command, "--k", "10000000", "--n-max", "2", *rest] for command, rest in [
        ("pairs", ["--y", "1/1"]), ("window", ["--x", "1/2", "--y", "3/1"]),
        ("measure", ["--y", "3/1", "--threshold", "1"]), ("enumerate", []),
        ("sieve-delta", ["--m-len", "3"])]
] + [
    ["pairs", "--k", "1000000000", "--n-max", "3", "--y", "1/1"],
    ["sharpness-study", "--k", "10000000", "--n-list", "2,3"],
    ["bounds", "--k", "10000", "--n", "10", "--m", "10"],
    ["bounds", "--k", "100000000", "--n", "3", "--m", "5"],
])
def test_huge_k_is_refused_before_any_power_is_formed(capsys, monkeypatch, argv):
    """n^k, n^(k+1) and N^(2k) past the cap or the int-to-str digit limit are refused
    from bit lengths, in well under the seconds that forming them would take."""
    monkeypatch.delenv("POWFRAC_MAX_POINTS", raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, ""), err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n_list, code", [("40,80,160,1000", 3), ("40,80,0", 2)])
def test_sharpness_study_refuses_before_first_count(capsys, monkeypatch, n_list, code):
    monkeypatch.setattr(paircount, "count_pairs_interval",
                        lambda q: pytest.fail("counted before the refusal"))
    result, out, err = run_cli(capsys, ["sharpness-study", "--k", "2", "--n-list", n_list])
    assert result == code
    assert out == ""
    if code == 3:
        assert "sharpness_study tuples" in err


@pytest.mark.parametrize("argv, message", [
    (["--alpha-mode", "basis", "--basis-index", "3"], "basis index 3 outside [0, 3)"),
    (["--seed", "-1"], "must be >= 0, got -1"),
])
def test_sieve_l1_bad_basis_index_or_seed_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, ["sieve-l1", "--k", "1", "--n-max", "2", "--m-len", "3"]
                             + argv)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("error, code, prefix", [
    (ResourceError("cap"), 3, "resource limit: cap"),
    (RangeError("range"), 2, "error: range"),
    (ValueError("bug"), 1, "internal error: bug"),
])
def test_exit_code_follows_the_error_type(capsys, monkeypatch, error, code, prefix):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "cmd_bounds", fail)
    result, out, err = run_cli(capsys, ["bounds", "--k", "1", "--n", "1", "--m", "1"])
    assert result == code
    assert out == "" and err == prefix + "\n"


_SIZES = ["-1", "0", "1", "2", "3", "4"]
_INTS = ["1" + "0" * 200, "-7", "-1", "0", "1", "2", "5"]
_REALS = ["1" + "0" * 200, "5e-324", "1e300", "-1e300", "nan", "inf", "-inf", "0", "-1", "-0.5",
          "0.5", "1", "1.5", "3"]
_RATIONALS = ["0/1", "-3/2", "1/3", "1/1", "9/2", "50/1", "1" + "0" * 200 + "/1",
              "1/1" + "0" * 200, "0.5", "2/0"]


def _random_argv(rng: random.Random) -> list[str]:
    """One argv over all 14 subcommands: tiny sizes, extreme scalars.  Values are
    joined to their option by "=", so that argparse reads "-1" as a value."""
    size, integer = (lambda: rng.choice(_SIZES)), (lambda: rng.choice(_INTS))
    real, rational = (lambda: rng.choice(_REALS)), (lambda: rng.choice(_RATIONALS))

    def flag(name):
        return {name: None} if rng.random() < 0.5 else {}

    def fmt():
        return {"format": rng.choice(["json", "csv"])}

    def phase():
        return {"alpha": real(), "y": real(), "n-scale": real(), "eta": real()}

    def window():
        return {"k": size(), "n-max": size(), "m-len": size(), "m-offset": integer()}

    options = {
        "enumerate": lambda: {"k": size(), "n-max": size(), "limit": integer(),
                              **flag("coprime"), **flag("sorted")},
        "pairs": lambda: {"k": size(), "n-max": size(), "y": rational(), **flag("coprime"),
                          "metric": rng.choice(["line", "circle"]),
                          "method": rng.choice(["sweep", "oracle"])},
        "blocks": lambda: {"k": size(), "u1": integer(), "n1": size(), "u2": integer(),
                           "n2": size(), "y": rational(), **flag("closed")},
        "window": lambda: {"k": size(), "n-max": size(), "x": rational(), "y": rational(),
                           **flag("no-coprime")},
        "measure": lambda: {"k": size(), "n-max": size(), "y": rational(),
                            "threshold": integer(), **flag("no-coprime")},
        "expsum-direct": phase,
        "expsum-vdc": lambda: {**phase(), **fmt()},
        "kusmin": lambda: {"coef": real(), "power": real(), "a": real(), "b": real(),
                           "lam": real()},
        "meanvalue": lambda: {"k": integer(), "n-lo": integer(), "n-hi": integer(),
                              "u-lo": integer(), "u-hi": integer(), "y-max": real()},
        "sieve-delta": lambda: {**window(), "method": rng.choice(["power", "dense"])},
        "sieve-l1": lambda: {**window(), "alpha-mode": rng.choice(["random", "ones", "basis"]),
                             "basis-index": integer(), "seed": integer()},
        "sieve-dual": lambda: {**window(),
                               "coeff-mode": rng.choice(["ones", "random-unimodular"]),
                               "seed": integer()},
        "bounds": lambda: {"k": size(), "n": size(), "m": integer(), **fmt()},
        "sharpness-study": lambda: {"k": size(), "n-list": ",".join(
            size() for _ in range(rng.randint(0, 3))), **flag("coprime"), **fmt()},
    }
    name = rng.choice(SUBCOMMANDS)
    return [name] + [f"--{key}" if value is None else f"--{key}={value}"
                     for key, value in options[name]().items()]


_FIXED_ARGV = [
    ["expsum-vdc", "--alpha", "0.5", "--y", "0.5", "--n-scale", "0.1", "--eta", "2"],
    ["bounds", "--k", "200", "--n", "40", "--m", "3"],
    ["sharpness-study", "--k=-2", "--n-list", "0"],  # n^(k+1) would divide by zero
]


def test_random_argv_exit_cleanly(capsys):
    """Every argv either succeeds with a strict JSON (or CSV) report, or is refused
    with exit 2 or 3 and an empty stdout: never an internal error."""
    rng = random.Random(0)
    lines = _FIXED_ARGV + [_random_argv(rng) for _ in range(400)]
    assert {argv[0] for argv in lines} == set(SUBCOMMANDS)
    for argv in lines:
        code, out, err = run_cli(capsys, argv)
        assert code in (0, 2, 3), (argv, err)
        if code != 0:
            assert out == "", argv
        elif "--format=csv" in argv:
            header, *rows = out.splitlines()
            assert rows and all(row.count(",") == header.count(",") for row in rows), argv
        else:
            json.loads(out, parse_constant=_reject_constant)
