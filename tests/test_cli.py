"""End-to-end tests of the command line interface, run in process."""

import ast
import importlib.util
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import powfrac
from powfrac import expsum, fraccore, paircount, sieve
from powfrac.cli import main
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
      "--y-max", "2"], "float range"),
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
    """Every function the benchmark's tracer wraps is still defined in its module."""
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    if not path.exists():
        pytest.skip("bench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names if not hasattr(importlib.import_module(f"powfrac.{module}"), name)]
    assert missing == []


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
