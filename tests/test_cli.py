"""Tests for the command-line front end: reports, exit codes, determinism."""

import json
import time
from decimal import Decimal

import pytest

from jshadow import imj
from jshadow.cli import _emit, parse_place, parse_prime, parse_rational, run
from jshadow.padic import DEFAULT_PRECISION

REPORT_KEYS = {"command", "inputs", "rows", "verdict", "provenance", "version"}


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- parsing --------------------------------------------------------------


def test_rational_grammar():
    assert parse_rational("3/4") == 0.75
    assert parse_rational("-7") == -7
    for bad in ("1.5", "3//4", "a", "", "1/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_prime_and_place_parsing():
    assert parse_prime("13") == 13
    with pytest.raises(ValueError):
        parse_prime("21")
    assert not parse_place("inf").is_finite
    assert parse_place("5").prime == 5


# -- reports ----------------------------------------------------------------


def test_reciprocity_report_shape(capsys):
    code, report = run_json(capsys, ["reciprocity", "--a=-1", "--b=-1"])
    assert code == 0
    assert set(report) == REPORT_KEYS
    table = {row["place"]: row["symbol"] for row in report["rows"] if "place" in row}
    assert table == {"2": -1, "inf": -1}
    assert report["verdict"] == "pass"
    assert report["provenance"][0]["statement_id"] == "hilbert-reciprocity"
    assert report["provenance"][0]["statement"]


def test_reciprocity_places_of_a_strong_pseudoprime(capsys):
    # psi_12 passes Miller-Rabin to bases 2..37 and was listed as a place.
    code, report = run_json(capsys, ["reciprocity", "--a=318665857834031151167461", "--b=5"])
    assert code == 0
    places = [row["place"] for row in report["rows"] if "place" in row]
    assert places == ["2", "5", "399165290221", "798330580441", "inf"]


def test_consecutive_runs_share_no_state(capsys):
    # Each run() starts from its defaults, whatever the run before it was given.
    code, report = run_json(capsys, ["hilbert", "--a=2", "--b=5", "--place=5", "--oracle"])
    assert code == 0 and report["inputs"]["oracle"] is True and "oracle" in report["rows"][0]
    assert run(["hilbert", "--a=2", "--b=5", "--place=5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: hilbert\n") and "oracle = False" in out and "oracle=" not in out
    assert run(["padic", "--p=3", "--op=valuation", "--x=9", "--precision=5"]) == 0
    assert "precision = 5" in capsys.readouterr().out
    code, report = run_json(capsys, ["padic", "--p=3", "--op=valuation", "--x=9"])
    assert report["inputs"]["precision"] == DEFAULT_PRECISION


def test_reports_are_deterministic(capsys):
    run(["--json", "sweep", "pi2-nontriviality"])
    first = capsys.readouterr().out
    run(["--json", "sweep", "pi2-nontriviality"])
    second = capsys.readouterr().out
    assert first == second


def test_hilbert_with_oracle(capsys):
    code, report = run_json(capsys, ["hilbert", "--a=2", "--b=5", "--place=5", "--oracle"])
    assert code == 0
    row = report["rows"][0]
    assert row["symbol"] == -1 and row["oracle"] == -1
    assert report["verdict"] == "pass"


def test_hilbert_oracle_on_a_high_power_of_the_place(capsys):
    # a = 3 * 17**5: before the oracle divided out 17**2 its search ran
    # modulo 17**13 and did not finish within a minute.
    code, report = run_json(capsys, ["hilbert", "--a=4259571", "--b=5", "--place=17", "--oracle"])
    assert code == 0 and report["verdict"] == "pass"
    row = report["rows"][0]
    assert row["oracle"] == row["symbol"] == -1


def test_hilbert_informational_verdict(capsys):
    code, report = run_json(capsys, ["hilbert", "--a=2", "--b=5", "--place=5"])
    assert code == 0
    assert report["verdict"] == "n/a"


def test_zolotarev_single_and_sweep(capsys):
    code, report = run_json(capsys, ["zolotarev", "--a=3", "--p=5"])
    assert code == 0
    assert report["rows"][0]["permutation_sign"] == -1
    code, report = run_json(capsys, ["sweep", "zolotarev", "--p-max=50"])
    assert code == 0
    assert report["verdict"] == "pass"


def test_tame_command(capsys):
    code, report = run_json(capsys, ["tame", "--a=3", "--b=5", "--p=3"])
    assert code == 0
    assert report["rows"][0]["tame_symbol"] == 2
    assert report["verdict"] == "pass"


def test_bernoulli_command(capsys):
    code, report = run_json(capsys, ["bernoulli", "--n=12"])
    assert code == 0
    row = report["rows"][0]
    assert row["value"] == "-691/2730"
    assert row["vsc_product"] == 2730
    assert report["verdict"] == "pass"


def test_imj_order_command(capsys):
    code, report = run_json(capsys, ["imj-order", "--k=2"])
    assert code == 0
    row = report["rows"][0]
    assert row["order"] == 240 and row["odd_part"] == 15 and row["stem"] == 7


def test_k1_sphere_command(capsys):
    code, report = run_json(capsys, ["k1-sphere", "--ell=3", "--k=2"])
    assert code == 0
    row = report["rows"][0]
    assert row["order"] == 3 and row["generator"] == 2
    assert report["verdict"] == "pass"


def test_kff_command(capsys):
    code, report = run_json(capsys, ["kff", "--n=3", "--q=2"])
    assert code == 0
    assert report["rows"][0]["order"] == 3
    assert report["verdict"] == "pass"


def test_rezk_log_command(capsys):
    code, report = run_json(capsys, ["rezk-log", "--ell=3", "--x=4"])
    assert code == 0
    assert report["verdict"] == "pass"


def test_norm_product_command(capsys):
    code, report = run_json(capsys, ["norm-product", "--x=-6"])
    assert code == 0
    assert report["rows"][0]["product"] == "1"
    assert report["verdict"] == "pass"


def test_padic_commands(capsys):
    code, report = run_json(
        capsys, ["padic", "--p=3", "--op=add", "--x=1/2", "--y=1/2", "--precision=5"]
    )
    assert code == 0
    assert report["rows"][0]["value"] == "1 + O(3^5)"
    code, report = run_json(capsys, ["padic", "--p=3", "--op=valuation", "--x=18"])
    assert code == 0
    assert report["rows"][0]["valuation"] == 2
    code, report = run_json(
        capsys, ["padic", "--p=5", "--op=teichmuller", "--residue=2", "--precision=3"]
    )
    assert code == 0
    assert report["rows"][0]["value"] == "57 + O(5^3)"


def test_imj_consistency_command(capsys):
    code, report = run_json(capsys, ["sweep", "imj-consistency", "--ell-max=13", "--k-max=5"])
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["inputs"]["ell_max"] == 13


def test_reciprocity_flags_places_past_the_proven_range(capsys):
    # is_prime proves primality below psi_13 only; a larger place is a BPSW probable prime.
    sympy = pytest.importorskip("sympy")
    psi_13 = 3317044064679887385961981
    below, above = sympy.prevprime(psi_13), sympy.nextprime(psi_13)
    code, report = run_json(capsys, ["reciprocity", f"--a={above}", "--b=3"])
    assert code == 0 and report["verdict"] == "pass"
    assert report["rows"][:4] == [
        {"place": "2", "symbol": -1},
        {"place": "3", "symbol": -1},
        {"place": str(above), "symbol": 1, "bpsw_probable_prime": True},
        {"place": "inf", "symbol": 1},
    ]
    code, report = run_json(capsys, ["reciprocity", f"--a={below}", "--b=3"])
    assert code == 0
    assert not any("bpsw_probable_prime" in row for row in report["rows"])


@pytest.mark.parametrize(
    "argv, row",
    [
        (["hilbert", "--a=2", "--b=3", "--place={p}"], 0),
        (["tame", "--a=2", "--b=3", "--p={p}"], 0),
        (["k1-sphere", "--ell={p}", "--k=1"], 0),
        (["rezk-log", "--ell={p}", "--x=2", "--precision=4"], 0),
        (["padic", "--p={p}", "--op=mul", "--x=2", "--y=3", "--precision=4"], 0),
        (["padic", "--p={p}", "--op=valuation", "--x=6"], 0),
    ],
)
def test_every_prime_argument_flags_primes_past_the_proven_range(capsys, argv, row):
    sympy = pytest.importorskip("sympy")
    psi_13 = 3317044064679887385961981
    for p, marked in ((sympy.nextprime(psi_13), True), (sympy.prevprime(psi_13), False)):
        code, report = run_json(capsys, [arg.format(p=p) for arg in argv])
        assert code == 0 and report["verdict"] in ("pass", "n/a")
        assert ("bpsw_probable_prime" in report["rows"][row]) == marked
        assert sum("bpsw_probable_prime" in r for r in report["rows"]) == marked


def test_sweep_grid_flags(capsys):
    code, report = run_json(capsys, ["sweep", "rezk-log", "--ells=3,5", "--precision=16"])
    assert code == 0 and report["verdict"] == "pass"
    assert report["inputs"] == {"sweep": "rezk-log", "ells": [3, 5], "precision": 16}
    # --seed goes only to the sweeps that take one, so here it changes nothing
    assert run(["--json", "sweep", "zolotarev", "--p-max=50"]) == 0
    unseeded = capsys.readouterr().out
    assert run(["--json", "sweep", "zolotarev", "--seed=7", "--p-max=50"]) == 0
    assert capsys.readouterr().out == unseeded


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "zolotarev", "--bound=3"],  # a keyword of another sweep
        ["sweep", "zolotarev", "--p_max=50"],
        ["sweep", "zolotarev", "--p-max", "50"],  # not --keyword=value
        ["sweep", "zolotarev", "--p-max=fifty"],
        ["sweep", "rezk-log", "--ells=3,x"],
        ["sweep", "all", "--bound=3"],
    ],
)
def test_bad_grid_flags_exit_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_sweep_runs_named_suite(capsys):
    code, report = run_json(capsys, ["sweep", "geometric-series"])
    assert code == 0
    assert report["verdict"] == "pass"
    summary = report["rows"][-1]
    assert summary["failures"] == 0


# -- exit codes ---------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run(["hilbert", "--a=0", "--b=1", "--place=3"]) == 2
    assert run(["hilbert", "--a=1", "--b=1", "--place=4"]) == 2
    assert run(["tame", "--a=1.5", "--b=2", "--p=3"]) == 2
    assert run(["sweep", "no-such-suite"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["rezk-log", "--ell=3", "--x=3"]) == 2  # not a unit
    assert run(["hilbert", "--a=2", "--b=5", "--place=5", "--bound=3"]) == 2  # grid flags are sweep's
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "zolotarev", "--p-max=2"],
        ["sweep", "imj-consistency", "--k-max=0"],
        ["sweep", "imj-consistency", "--ell-max=2"],
    ],
)
def test_empty_sweep_grid_exits_2(capsys, argv):
    # an empty grid used to print "verdict: pass" with 0 checks and exit 0
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "checked nothing" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # each used to exit 1 with an OverflowError traceback
        (["zolotarev", "--a=2", "--p=3317044064679887385962123"], "index-sized integer"),
        (["sweep", "zolotarev", "--p-max=100000000000000000000000"], "index-sized integer"),
        (["sweep", "quillen", "--q-max=100000000000000000000000"], "index-sized integer"),
        # the library's own errors, no longer repeated by the CLI
        (["bernoulli", "--n=-1"], "n must be >= 0"),
        (["imj-order", "--k=0"], "k must be >= 1"),
    ],
)
def test_arguments_the_library_rejects_exit_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["zolotarev", "--a=2", "--p=3317044064679887385962123"], "--p"),
        (["sweep", "zolotarev", "--p-max=100000000000000000000000"], "--p-max"),
        (["sweep", "quillen", "--q-max=100000000000000000000000"], "--q-max"),
        (["sweep", "reciprocity", "--bound=100000000000000000000000"], "--bound"),
    ],
)
def test_an_overflowing_integer_names_its_flag(capsys, argv, flag):
    # the error line used to carry Python's words only, with no parameter name
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ") and captured.err.count("\n") == 1


def _off_by_one_valuation(monkeypatch):
    valuation = imj._vl_power_minus_one
    monkeypatch.setattr(imj, "_vl_power_minus_one", lambda u, k, ell: valuation(u, k, ell) + 1)


def test_k1_sphere_closed_form_disagreement_is_a_failure(monkeypatch, capsys):
    # k1_sphere_order used to raise ArithmeticError here, a traceback
    _off_by_one_valuation(monkeypatch)
    assert run(["k1-sphere", "--ell=3", "--k=2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "order=9  closed_form=3" in captured.out
    assert captured.out.endswith("verdict: fail\n")


def test_imj_consistency_sweep_records_closed_form_disagreements(monkeypatch, capsys):
    _off_by_one_valuation(monkeypatch)
    code, report = run_json(capsys, ["sweep", "imj-consistency", "--ell-max=7", "--k-max=3"])
    assert code == 1 and report["verdict"] == "fail"
    summary = report["rows"][-1]
    assert summary["checked"] == 9 and summary["failures"] == 9
    assert {"failure": True, "ell": 3, "k": 1} in report["rows"]


def test_failing_report_exits_1(capsys):
    # theorems do not fail, so exercise the exit path directly
    report = {
        "command": "demo",
        "inputs": {},
        "rows": [],
        "verdict": "fail",
        "provenance": [],
        "version": "0",
    }
    assert _emit(report, as_json=True) == 1
    assert _emit(report, as_json=False) == 1
    capsys.readouterr()


def test_teichmuller_at_the_largest_precision(capsys):
    # 8210 digits: more than the interpreter prints with str(int), and a
    # minute of work for the fixed-point iteration the lift used to run.
    start = time.perf_counter()
    code, report = run_json(
        capsys, ["padic", "--op=teichmuller", "--p=101", "--precision=4096", "--residue=3"]
    )
    assert time.perf_counter() - start < 10
    assert code == 0
    digits, error = report["rows"][0]["value"].split(" + ")
    assert error == "O(101^4096)"
    x = int(Decimal(digits))
    assert x % 101 == 3 and pow(x, 100, 101**4096) == 1
