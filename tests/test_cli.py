"""Tests for the command-line front end: reports, exit codes, determinism."""

import argparse
import ast
import contextlib
import hashlib
import importlib.util
import inspect
import json
import re
import shlex
import signal
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Annotated, get_args, get_origin

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jshadow import imj, sweeps, symbols
from jshadow.cli import (
    _COMMANDS,
    _canonical_json,
    _emit,
    _exact_args,
    build_parser,
    parse_int,
    parse_place,
    parse_rational,
    run,
)
from jshadow.padic import DEFAULT_PRECISION
from jshadow.sweeps import SWEEPS

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
    assert parse_int("-12") == -12 and parse_int("+7") == 7
    for bad in (" 7", "7 ", "1_009", "0x1f", "\u0663", "", "+-1"):
        with pytest.raises(ValueError):
            parse_int(bad)
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


# Default grids of 1-3 s each; cheaper argvs below build the same parsers.
_SLOW_ARGVS = (
    ["sweep", "all"],
    ["sweep", "all", "--seed=7"],
    ["sweep", "reciprocity"],
    ["sweep", "zolotarev"],
    ["sweep", "zolotarev", "--p-max=500"],
)


def _argvs_in_tests() -> list[list[str]]:
    """Every literal argv in tests/, a list of strings that starts with a
    command, ``-h`` or ``--json``, as written and after ``--json``, and the
    README examples, but those in _SLOW_ARGVS."""
    argvs = _readme_examples()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.List) and node.elts:
                argv = [getattr(item, "value", None) for item in node.elts]
                if argv[0] in (*_COMMANDS, "-h", "--json") and all(isinstance(a, str) for a in argv):
                    argvs += [argv, ["--json", *argv]]
    return [argv for argv in argvs if [a for a in argv if a != "--json"] not in _SLOW_ARGVS]


def _perfbench_inputs(monkeypatch, workload: str, seed: int) -> dict:
    """The inputs of one benchmark pass of ``workload``, from perfbench's generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # where its dataclasses look
    spec.loader.exec_module(workloads)
    return workloads.generate(workload, seed)


def _queries_mixed_argvs(monkeypatch, seed: int) -> list[list[str]]:
    """The argvs of one ``queries-mixed`` benchmark pass, from perfbench's generator."""
    return [query["argv"] for query in _perfbench_inputs(monkeypatch, "queries-mixed", seed)["queries"]]


def test_every_benchmark_call_and_default_grid_fits_inside_the_declared_ranges(monkeypatch):
    # a range that refused one of them would fail the benchmark, not measure it; each call
    # stops where its SweepResult is built, after the ranges are checked and before the body
    calls = [
        (call["sweep"], call["kwargs"])
        for workload in ("sweep-stream", "padic-imj")
        for seed in (1, 2)
        for call in _perfbench_inputs(monkeypatch, workload, seed)["calls"]
    ]
    assert len(calls) == 2 * (103 + 63)

    class Checked(Exception):
        pass

    def build(*args):
        raise Checked

    monkeypatch.setattr(sweeps, "SweepResult", build)
    for name, kwargs in calls + [(name, {}) for name in SWEEPS]:
        with pytest.raises(Checked):
            SWEEPS[name](**kwargs)


@contextlib.contextmanager
def _time_bound(argv: list[str], seconds: float):
    """Fail the test, naming argv, when the block runs past ``seconds``: in
    process, by SIGALRM, so a hang fails one test instead of stopping the
    suite.  No bound where the platform has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"jshadow {shlex.join(argv)} ran past {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_reused_parsers_carry_no_state_between_runs(monkeypatch, capsys):
    # Each command's parser is built once per process; running every argv
    # again in reverse order must give the same exit code, stdout and stderr.
    argvs = _argvs_in_tests() + _queries_mixed_argvs(monkeypatch, seed=1)
    assert len(argvs) > 1100

    def outputs(order):
        seen = {}
        for i in order:
            with _time_bound(argvs[i], seconds=10):
                code = run(list(argvs[i]))
            captured = capsys.readouterr()
            seen[i] = code, captured.out, captured.err
        return seen

    indices = range(len(argvs))
    assert outputs(indices) == outputs(reversed(indices))


def test_one_parser_per_command():
    assert build_parser(["hilbert"]) is build_parser(["--json", "hilbert", "--a=2"])
    # the sweep parser holds every sweep's subparser, so the sweep name is no part of its key
    assert build_parser(["sweep", "zolotarev"]) is build_parser(["sweep", "reciprocity", "-h"])
    assert build_parser([]) is build_parser(["-x", "sweep", "zolotarev"])


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


def test_hilbert_oracle_at_a_large_prime(capsys):
    # killed by a 10 s timeout while the oracle searched the whole box mod p
    code, report = run_json(capsys, ["hilbert", "--a=100003", "--b=2", "--place=100003", "--oracle"])
    assert code == 0 and report["verdict"] == "pass"
    row = report["rows"][0]
    assert row["oracle"] == row["symbol"] == -1


def test_hilbert_oracle_past_its_prime_cap_exits_2(capsys):
    argv = ["hilbert", "--a=2", "--b=3", "--place=131101"]
    assert run(argv + ["--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "131101" in captured.err
    assert run(argv) == 0


def test_oracle_agreement_refuses_a_grid_past_the_oracle_cap_before_its_first_check(monkeypatch, capsys):
    # the grid used to run every prime below the cap first: 2 min 40 s before this error.
    # The grid cap lies below the oracle's, so the grid is refused before it is sieved.
    assert sweeps.GRID_CAP < symbols.ORACLE_PRIME_CAP

    def search(a, b, place):
        raise AssertionError(f"the oracle searched at {place} before the grid was refused")

    def sieve(n):
        raise AssertionError(f"the primes up to {n} were sieved before the grid was refused")

    monkeypatch.setattr(sweeps, "hilbert_oracle", search)
    monkeypatch.setattr(sweeps, "primes_up_to", sieve)
    grid = ["--coeff-bound=1", "--rational-samples=0"]
    assert run(["sweep", "oracle-agreement", "--prime-max=200000", *grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: prime_max must be <= 4096, got 200000\n"
    # a grid at the cap runs (the closed form stands in for the search here):
    # 4 pairs at each of its 564 primes and at infinity
    monkeypatch.undo()
    monkeypatch.setattr(sweeps, "hilbert_oracle", symbols.hilbert_symbol)
    code, report = run_json(capsys, ["sweep", "oracle-agreement", "--prime-max=4096", *grid])
    assert code == 0 and report["rows"][-1]["checked"] == 4 * (564 + 1)


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
        ["sweep", "zolotarev", "--p-max"],  # no value
        ["sweep", "zolotarev", "--p-max=fifty"],
        ["sweep", "rezk-log", "--ells=3,x"],
        ["sweep", "all", "--bound=3"],
    ],
)
def test_bad_grid_flags_exit_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def test_sweep_runs_named_suite(capsys):
    code, report = run_json(capsys, ["sweep", "geometric-series"])
    assert code == 0
    assert report["verdict"] == "pass"
    summary = report["rows"][-1]
    assert summary["failures"] == 0


# sha256 of stdout, as text and with --json, for one argv of each single-shot
# command, recorded from the hand-written handlers the command registry replaced.
# The last four reciprocity rows were recorded while the query still read its
# rows from the sweep's kernel: a place past psi_13, the psi_12 pseudoprime,
# primes shared across numerators and denominators, and symbols at 2 and inf alone.
REPORT_SHA256 = [
    (
        ["hilbert", "--a=2", "--b=5", "--place=5", "--oracle"],
        "84488a77d9f7bc2c334e005fcc789c1cf44167b063fb27cdf040ae648a570327",
        "07e4886462a136def9df3f6e98f3dfd5e4b9b3b39e2683b63a0cb4d1e26b2034",
    ),
    (
        ["reciprocity", "--a=-6/35", "--b=10"],
        "b5868473db489ec2121e89eff97d85494af0492ce9fed654f5b47bee0edec331",
        "193d11de98137d6d1b71de921699675f6933ef032f3af9a7275dbaef18d30dd3",
    ),
    (
        ["zolotarev", "--a=3", "--p=5"],
        "f40094c3894b86c7a662ced783a1d59e56f77a70d0ad722cca25574e95db13fd",
        "8ba7086cba76bbfe136ea2b75e56e2455ccccac1a535b3b1f966f8b4f349931a",
    ),
    (
        ["tame", "--a=12", "--b=-5", "--p=2"],
        "c8a379a6ac2662f65d2213df59ad2db0d77c222c76baa885719409f61892ab23",
        "310d5ba509288edbad305d3ec750401d138a93045f2a86305972b1d03be6b84b",
    ),
    (
        ["bernoulli", "--n=12"],
        "63e57ba74ea00b15d613522f989a3ff30dd540016742714247e9aa097df81675",
        "f896c48fd6ded09893e5701eab272761a40b636b5a77801e973ded2bf0dd0e23",
    ),
    (
        ["imj-order", "--k=3"],
        "5b9fd14c294077d8de15927a903e82ce9ac72d681463bddbe7b05bfa2f99b420",
        "1fb07318f0b860f01ffb32fe910404ec9b29f432dca63b595c3f2fca5e89bd14",
    ),
    (
        ["k1-sphere", "--ell=5", "--k=4"],
        "fb7a9c7094e55c860df04c42ea7dbc5ce79ab0c93838715275ca143d69af213c",
        "27cdfceee450863d58aa905a586d5a8fd5e93a4b6bbaaaab9328b9824fb16648",
    ),
    (
        ["kff", "--n=3", "--q=2"],
        "efefaa01b0032c368d64430ac3fc5eedf6bffa637c9236cc64a7ab52a9c474ab",
        "9093c23cdd516371f5b0f2d05419d84a5dc0624c4b6c8b2bd5a18ea491f6c80c",
    ),
    (
        ["rezk-log", "--ell=7", "--x=8", "--precision=8"],
        "4c08443392bdc21a4e82ba904e05ce127976ab094ba3f1045beb447e98571123",
        "081c08971a66c74ed7a6d1b1803fb48eaca02b23ce86f0cd16dd34bcfa42e41f",
    ),
    (
        ["padic", "--p=3", "--op=add", "--x=4/2", "--y=+3"],
        "f647767da74c1f262345f61eb3a79d8315c9a75c6f9e8f116e97ec8da2115581",
        "0e7a2ba6f23a184cabf829613d1f31152884771f066b6b14ed021e1f03fce119",
    ),
    (
        ["padic", "--p=3", "--op=valuation", "--x=-18/5"],
        "83b492e633a41db6e8ae5696e6ac4c3ff0ae1f2adc0d4dd3d87ed87a67e9eb98",
        "a068490f8e4501d243cfa2c20caade2f9548739ce00cd10c2bd444a5e3ec0b19",
    ),
    (
        ["norm-product", "--x=-6"],
        "c2aa58a4582d66748f5fc6c1ac4f868d4104da0a9428890de2f2bcf2488a6b79",
        "028394ff02ade70224fdd93241483987a73cef18d4f7c16d03824f1031ae9609",
    ),
    (
        ["reciprocity", "--a=3317044064679887385962123", "--b=-3/7"],
        "c7c94a2a4a6917cdfec64074862a564b2a650423eec1c2868963a630e4556d55",
        "8bdcc66529e490762f01c86ad413cf2ad76949d7d7fe4bcea4540faaa348dbed",
    ),
    (
        ["reciprocity", "--a=318665857834031151167461", "--b=5"],
        "3a4e9ad1ddbcdf84ac309ea6ebbaa617994b92165687ac5f7c282d956d5deffc",
        "2d8c3c1ff7ec849706849e3092a039ca32fe052e2b1d40a3284781f096e08ef3",
    ),
    (
        ["reciprocity", "--a=-12/35", "--b=50/21"],
        "dd7192a372189144bf2f468a634b46b21793acdb7b43596d311e3d865e45b286",
        "d708c18a4a2ea0c7b19462d3cec3e81bb32ac876cacc0d58c94ec81a27aa0c7b",
    ),
    (
        ["reciprocity", "--a=-1", "--b=-1"],
        "722f927f53ff815224ca859f1bd67282911829c9f14a61cf76342bcb6e3524ff",
        "cbcb5c06f5c91ba73af7404ef08641fafd0d29e9a4906b2cdc00d559f5186a66",
    ),
]


@pytest.mark.parametrize("argv, text_sha256, json_sha256", REPORT_SHA256, ids=lambda v: v[0])
def test_single_shot_reports_are_byte_identical(capsys, argv, text_sha256, json_sha256):
    assert {argv[0] for argv, _, _ in REPORT_SHA256} == set(_COMMANDS) - {"sweep"}
    for prefix, expected in (([], text_sha256), (["--json"], json_sha256)):
        assert run(prefix + argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


# sha256 of stdout, as text and with --json, for one small-grid argv of each sweep,
# recorded while the sweeps still read their grid flags with a lexer of their own.
SWEEP_REPORT_SHA256 = [
    (
        ["sweep", "reciprocity", "--bound=6", "--rational-samples=40", "--seed=7"],
        "ebce54af889c5560330c36327f1961976f2ee157044223cbbc3df0d7cedb24a0",
        "3a3cad716812b9a0ed102c6b739f82fa5969628259f92b5e52463c9c5eecac00",
    ),
    (
        ["sweep", "oracle-agreement", "--prime-max=7", "--coeff-bound=4", "--rational-samples=10",
         "--seed=7"],
        "1730f83fd0c639ad68ec69dbacadbda23b275552a7b4bb3e1eed063b891228cd",
        "cf815c8f24b8ad889ca75595f7c803de39abf2dd67cc7b13b77c4af41cbe5d60",
    ),
    (
        ["sweep", "zolotarev", "--p-max=50"],
        "74790e47fd8a02f4edb9bf4ae788198c759faa1fe73f7b777313c9d8f5bd3ce9",
        "26cdcf68f498264e7a90a9148b0181ef8df99079877530700f55f8d8991e83aa",
    ),
    (
        ["sweep", "imj-consistency", "--ell-max=13", "--k-max=5"],
        "76359d08d0c86ef1844517126c3dcba624f905dbfd25fc8fc1c9584225d9ae3f",
        "6d39b1f17a5fdf73966af0b8eebb6f2aa31ff348bef97e83e8b14a02845dea93",
    ),
    (
        ["sweep", "bernoulli", "--n-max=20"],
        "c90e53f50c119caa154f2a21e45f21f4fc0c03238b0c2e48ae72cf9d21124103",
        "1088b29625f943a56f2b76be9f8e21413fdb0cd206cad1c815c1c91aaf02f9ec",
    ),
    (
        ["sweep", "rezk-log", "--ells=3,5", "--precision=16"],
        "fe43ba837c573728c4713b2aaa702ad6bbabfac3b098f41496834a624f3a4b7c",
        "b3527f5e96bbd40d1aa9496fd431d2a6ea07a4e82db0d8a5f801ed8bda2e8b57",
    ),
    (
        ["sweep", "surjectivity", "--ell-max=7", "--p-max=11", "--k-max=6"],
        "cb6ca52cdaeade34552ffc22831097da27647ed11d9cc72a99632691127f3f66",
        "e08218b1aa086389aa80a1285b70e4690279d81518925f5e63bf058d8c36c001",
    ),
    (
        ["sweep", "norm-identity", "--ell-max=7", "--d-max=3", "--m-max=4", "--precision=8"],
        "e4bbcf4a23ac042b6982b835db36f473f2ef5ee1194454f7ff2a7e1b59cc35d3",
        "1c4c65d53946fcb950b75ad9a9db0fc03aef4fbea7cfefbf3bd36c1523be7117",
    ),
    (
        ["sweep", "quillen", "--q-max=9", "--i-max=3"],
        "36920d8960b77f94c645bb343fb5d3a8f113d29840e4ccc7a9b9eec71a207f06",
        "3384c7f2de4096cffee4f75212aa542eb78517c49c658157a2bee3eb42d1bc4c",
    ),
    (
        ["sweep", "pi2-nontriviality", "--p-max=20"],
        "9d5f921c2aed14804c3ea6e04b67f623b3f0bf605707416ab0f6c9b02928ba04",
        "bb039d26826921c742192e874d0a362f6e7a821b05bda289e48cb98d43e556f1",
    ),
    (
        ["sweep", "geometric-series", "--depth=16"],
        "60ee6b96b7f68d3d2253361375d9ad701fa3995b1a37afb989c90801b4bfdf89",
        "18ac388270d255058b46bfb620a4f1cb6ff2a1fc7c2ed550f6f9d92410466046",
    ),
    (
        ["sweep", "low-degree-j", "--inversion-samples=10", "--tame-samples=50", "--precision=8",
         "--seed=7"],
        "d5943c44aac997ff235c3c82fc407a1479a1f31d3bf03ea690a77c798ca2e705",
        "2f30ac734668376de7ad72d88445f0a48fd4f06b94cabc246ee1fe73b336b64a",
    ),
]


@pytest.mark.parametrize(
    "argv, text_sha256, json_sha256", SWEEP_REPORT_SHA256, ids=[a[1] for a, _, _ in SWEEP_REPORT_SHA256]
)
def test_sweep_reports_are_byte_identical(capsys, argv, text_sha256, json_sha256):
    assert [argv[1] for argv, _, _ in SWEEP_REPORT_SHA256] == list(SWEEPS)
    for prefix, expected in (([], text_sha256), (["--json"], json_sha256)):
        assert run(prefix + argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


def _json_reference(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1)


# One argv per command, reaching bool, None, long int and str values in its report.
CANONICAL_ARGVS = [
    ["hilbert", "--a=-2/9", "--b=3317044064679887385962123", "--place=3317044064679887385962123"],
    ["reciprocity", "--a=3317044064679887385962123", "--b=-6/35"],
    ["zolotarev", "--a=-3", "--p=101"],
    ["tame", "--a=12", "--b=-5", "--p=7"],
    ["bernoulli", "--n=60"],
    ["imj-order", "--k=12"],
    ["k1-sphere", "--ell=7", "--k=6"],
    ["kff", "--n=0", "--q=9"],
    ["rezk-log", "--ell=5", "--x=-7/3", "--precision=12"],
    ["padic", "--p=7", "--op=teichmuller", "--residue=3", "--precision=10"],
    ["norm-product", "--x=-1000/27"],
    ["sweep", "rezk-log", "--ells=3,5", "--precision=8"],
]


def test_every_command_writes_canonical_json(capsys):
    assert [argv[0] for argv in CANONICAL_ARGVS] == list(_COMMANDS)
    for argv in CANONICAL_ARGVS:
        assert run(["--json"] + argv) == 0
        out = capsys.readouterr().out
        assert out == _json_reference(json.loads(out)) + "\n", argv


_JSON_TEXT = st.text(st.characters(exclude_categories=()))  # surrogates and controls too
_JSON_VALUES = st.recursive(
    _JSON_TEXT | st.integers() | st.integers(2**64, 2**200) | st.booleans() | st.none(),
    lambda inner: st.lists(inner) | st.dictionaries(_JSON_TEXT, inner),
)


@given(_JSON_VALUES)
@example({"b": [True, False, None, -(2**70)], "a": {"z\u00e9\x00\ud800": [], "y": {}}, "": ""})
def test_canonical_json_writer_equals_json_dumps(value):
    assert _canonical_json(value) == _json_reference(value)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), (1, 2), {1: "a"}], ids=repr)
def test_canonical_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _canonical_json({"rows": [value]})


def _readme_examples() -> list[list[str]]:
    """The argv of each ``jshadow`` line in the README's sh blocks, but ``sweep all``,
    which the acceptance suite runs sweep by sweep."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [line for block in blocks for line in block.split("\n") if line.startswith("jshadow ")]
    examples = [shlex.split(line, comments=True)[1:] for line in lines]
    return [argv for argv in examples if argv[:2] != ["sweep", "all"]]


def test_readme_command_examples_run(capsys):
    examples = _readme_examples()
    assert len(examples) >= len(_COMMANDS)
    for argv in examples:
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("command: "), argv


@pytest.mark.parametrize("name", [name for name in _COMMANDS if name != "sweep"])
def test_every_command_answers_help(capsys, name):
    _, handler, _ = _COMMANDS[name]
    assert run([name, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: jshadow {name} ")
    for param in inspect.signature(handler).parameters:
        assert f"--{param.replace('_', '-')}" in out


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_help_lists_the_grid_flags_of_the_named_sweep(capsys, name):
    # with a flag before the command, argv names none and the parser of every command answers
    for prefix in ([], ["-x"], ["--json"]):
        assert run([*prefix, "sweep", name, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.startswith(f"usage: jshadow sweep {name} ")
        for key, param in inspect.signature(SWEEPS[name]).parameters.items():
            value = param.default
            shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
            assert f"--{key.replace('_', '-')} {key.upper()} default: {shown}" in out
        assert "--seed SEED default: 1729" in out


@pytest.mark.parametrize(
    "argv, built",
    [
        (["--json", "hilbert", "--a=2"], {"hilbert"}),
        (["sweep", "zolotarev"], {"sweep"}),
        ([], set(_COMMANDS)),
        (["no-such-command"], set(_COMMANDS)),
        (["-h", "hilbert"], set(_COMMANDS)),  # the top-level help lists every command
    ],
)
def test_only_the_named_command_is_built(argv, built):
    parser = build_parser(argv)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == built


def test_flags_take_prefixes_and_separate_values(capsys):
    assert run(["hilbert", "--a=2", "--b=5", "--place=5"]) == 0
    spelled_out = capsys.readouterr().out
    assert run(["hilbert", "--a", "2", "--b", "5", "--pl=5"]) == 0
    assert capsys.readouterr().out == spelled_out
    # grid flags are read as every other flag is
    assert run(["sweep", "zolotarev", "--p-max=50"]) == 0
    spelled_out = capsys.readouterr().out
    for argv in (["--p-max", "50"], ["--p-m=50"]):
        assert run(["sweep", "zolotarev", *argv]) == 0
        assert capsys.readouterr().out == spelled_out
    # an int flag keeps argparse's own message, a prime one too
    assert run(["zolotarev", "--a=3", "--p=abc"]) == 2
    assert "argument --p: invalid int value: 'abc'" in capsys.readouterr().err


# run() reads an argv of the exact form from the command's flag table and
# hands every other argv to argparse.  These two are of the exact form ...
_EXACT_EDGE_ARGVS = [
    ["padic", "--p=3", "--op=inv", "--x="],  # an empty value
    ["hilbert", "--a=1=2", "--b=5", "--place=5"],  # a value holding "="
]
# ... and these are not.
_FALLBACK_ARGVS = [
    ["hilbert", "--a=2", "--b=5", "--pl=5"],  # a prefix
    ["hilbert", "--a", "2", "--b=5", "--place=5"],  # a separate value
    ["hilbert", "--a=2", "--a=3", "--b=5", "--place=5"],  # a repeated flag
    ["hilbert", "--a=2", "--b=5", "--place=5", "--oracle=1"],  # a switch given a value
    ["-h"],
    ["hilbert", "-h"],
    ["hilbert", "--json", "--a=2", "--b=5", "--place=5"],  # --json after the command
    ["--json", "--json", "hilbert", "--a=2", "--b=5", "--place=5"],
    ["hilbert", "--a=2", "--b=5", "--place=5", "--bound=3"],  # an unknown flag
    ["padic", "--p=3", "--op=frobnicate", "--x=2"],  # a bad choice
    ["zolotarev", "--a=3", "--p=abc"],  # a bad int
    ["zolotarev", "--a=3"],  # a missing required flag
    ["sweep", "zolotarev", "--p-max=11"],
]


def test_exact_args_agree_with_argparse(monkeypatch, capsys):
    queries = [argv for seed in (1, 2) for argv in _queries_mixed_argvs(monkeypatch, seed)]
    corpus = _argvs_in_tests() + [list(argv) for argv in _SLOW_ARGVS] + _EXACT_EDGE_ARGVS
    corpus += _FALLBACK_ARGVS + [argv for argv, _ in _dash_dash_argvs()]  # run refuses these first
    for argv in corpus + queries + [argv[1:] for argv in queries]:
        args = _exact_args(argv)
        assert args is None or vars(args) == vars(build_parser(argv).parse_args(argv)), argv
    # every query of the benchmark argparse accepts is of the exact form
    for argv in queries:
        if _exact_args(argv) is None:
            with pytest.raises(SystemExit):
                build_parser(argv).parse_args(argv)
    capsys.readouterr()


def _dash_dash_argvs() -> list[tuple[list[str], str]]:
    """(argv, flag): for every flag but a switch of every command and sweep subparser, an
    argv giving it the value "--" and each other required flag a value its parser takes."""
    commands = {(name,): handler for name, (_, handler, _) in _COMMANDS.items() if name != "sweep"}
    commands |= {("sweep", name): fn for name, fn in SWEEPS.items()}
    cases = [(["sweep", "all", "--seed=--"], "--seed")]
    for command, fn in commands.items():
        params = inspect.signature(fn).parameters.values()
        notes = {p.name: p.annotation for p in params}
        kinds = {k: get_args(n)[0] if get_origin(n) is Annotated else n for k, n in notes.items()}
        required = {
            p.name: kinds[p.name][0] if isinstance(kinds[p.name], tuple) else "3"
            for p in params
            if p.default is p.empty
        }
        names = [key for key, kind in kinds.items() if kind is not bool]
        for name in dict.fromkeys(names + ["seed"] * (command[0] == "sweep")):
            given = [f"--{k.replace('_', '-')}={v}" for k, v in required.items() if k != name]
            flag = "--" + name.replace("_", "-")
            cases.append(([*command, *given, f"{flag}=--"], flag))
    return cases


def test_the_value_dash_dash_is_a_usage_error_for_every_flag(monkeypatch, capsys):
    # argparse stores [] for it before Python 3.13, which used to reach the handler as a
    # TypeError traceback, and passes "--" to the flag's type from 3.13 on: no parser reads it
    def parsed(*args):
        raise AssertionError(f"a parser read {args}")

    monkeypatch.setattr("jshadow.cli._exact_args", parsed)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parsed)
    cases = _dash_dash_argvs()
    assert len(cases) > 60
    for argv, flag in cases:
        assert run(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {flag}: expected one argument\n"), argv


def test_only_argvs_of_other_forms_reach_argparse(monkeypatch, capsys):
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counting(parser, *args, **kwargs):
        calls.append(args)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    examples = [argv for argv in _readme_examples() if argv[0] != "sweep"]
    assert {argv[0] for argv in examples} == set(_COMMANDS) - {"sweep"}
    for argv in examples + _EXACT_EDGE_ARGVS:
        assert run(argv) in (0, 2) and calls == [], argv
    for argv in _FALLBACK_ARGVS:
        assert run(argv) in (0, 2) and len(calls) == 1, argv
        calls.clear()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--a=2", "--b=5", "--place=1_009"],
        ["zolotarev", "--a=3", "--p= 1_009 "],
        ["sweep", "zolotarev", "--p-max=1_000"],
        ["sweep", "rezk-log", "--ells=3, 5"],
        ["sweep", "reciprocity", "--seed=1_729"],
        ["bernoulli", "--n=1_2"],
    ],
)
def test_integer_flags_take_only_signed_digits(capsys, argv):
    # int() reads each of these values; the grammar of every integer flag is [+-]digits.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--a=\u0663", "--b=5", "--place=5"],  # an Arabic-Indic digit three
        ["hilbert", "--a=3\n", "--b=5", "--place=5"],
        ["norm-product", "--x=\u0663/\u0667"],
    ],
)
def test_rational_flags_take_only_ascii_digits(capsys, argv):
    # \d took any Unicode digit and $ a trailing newline, so each of these exited 0.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed rational" in captured.err


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
        # each used to exit 1 with an OverflowError traceback; the library now caps them
        (["zolotarev", "--a=2", "--p=3317044064679887385962123"], "p must be <= 131072"),
        (["sweep", "zolotarev", "--p-max=100000000000000000000000"], "p_max must be <= 4096"),
        (["sweep", "quillen", "--q-max=100000000000000000000000"], "q_max must be <= 4096"),
        # the library's own errors, no longer repeated by the CLI
        (["bernoulli", "--n=-1"], "n must be >= 0"),
        (["imj-order", "--k=0"], "k must be >= 1"),
        # a prime flag is a plain int: the library's own check refuses it
        (["zolotarev", "--a=3", "--p=4"], "error: 4 is not an odd prime\n"),
        (["tame", "--a=2", "--b=3", "--p=4"], "error: 4 is not prime\n"),
        (["hilbert", "--a=2", "--b=3", "--place=6"], "error: 6 is not prime\n"),
        (["k1-sphere", "--ell=2", "--k=1"], "error: 2 is not an odd prime\n"),
        (["rezk-log", "--ell=4", "--x=3"], "error: 4 is not prime\n"),
        (["rezk-log", "--ell=3", "--x=3"], "error: argument must be a unit of Z_l\n"),
        (["padic", "--p=4", "--op=valuation", "--x=3"], "error: 4 is not prime\n"),
        # 2**128 + 1, a product of two primes, was factored to count its primes: past 10 s
        (["kff", "--n=1", "--q=340282366920938463463374607431768211457"], "is not a prime power"),
        # past 10 s; B_2100 exited 2 after 2 s with the interpreter's 4,300-digit message
        (["bernoulli", "--n=5000"], "error: n must be <= 2048, got 5000\n"),
        (["imj-order", "--k=2500"], "error: k must be <= 1024, got 2500\n"),
        (["bernoulli", "--n=2100"], "error: n must be <= 2048, got 2100\n"),
        # 3^10001 - 1 has 4,772 digits: exited 2 with the interpreter's 4,300-digit message
        (["kff", "--n=20001", "--q=3"], "error: n must make the order q^((n+1)/2) - 1 at most 4300"),
        # 3^100000001 was built first: killed by a 20 s timeout
        (["kff", "--n=200000001", "--q=3"], "digits, got 200000001\n"),
    ],
)
def test_arguments_the_library_rejects_exit_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_an_order_of_at_most_4300_digits_is_reported(capsys):
    # 3^4001 - 1 has 1,909 digits, below the cap on kff's degree
    assert run(["kff", "--n=8001", "--q=3"]) == 0
    assert f"order={3**4001 - 1}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["zolotarev", "--a=2", "--p=3317044064679887385962123"], "--p"),
        (["sweep", "zolotarev", "--p-max=100000000000000000000000"], "--p-max"),
        (["sweep", "quillen", "--q-max=100000000000000000000000"], "--q-max"),
        (["sweep", "reciprocity", "--bound=100000000000000000000000"], "--bound"),
        # below sys.maxsize each of these used to exit 1 with a MemoryError traceback
        (["zolotarev", "--a=2", "--p=1000000000000037"], "--p"),
        (["sweep", "zolotarev", "--p-max=100000000000"], "--p-max"),
        (["sweep", "reciprocity", "--bound=100000000000"], "--bound"),
        (["sweep", "oracle-agreement", "--prime-max=100000000000"], "--prime-max"),
        (["sweep", "oracle-agreement", "--coeff-bound=100000000000"], "--coeff-bound"),
        (["sweep", "surjectivity", "--p-max=100000000000"], "--p-max"),
        (["sweep", "imj-consistency", "--ell-max=100000000000"], "--ell-max"),
        (["sweep", "norm-identity", "--ell-max=100000000000"], "--ell-max"),
        (["sweep", "pi2-nontriviality", "--p-max=100000000000"], "--p-max"),
        # p**precision was built first: killed by a 10 s timeout
        (["sweep", "low-degree-j", "--precision=1000000000"], "--precision"),
        # the Bernoulli recurrence ran to the index first
        (["sweep", "bernoulli", "--n-max=5000"], "--n-max"),
        (["sweep", "imj-consistency", "--k-max=2500"], "--k-max"),
    ],
)
def test_an_overflowing_integer_names_its_flag(monkeypatch, capsys, argv, flag):
    # the error line used to carry Python's words only, with no parameter name;
    # the library's cap now opens it with the flag's parameter, before anything is built
    def built(*args):
        raise AssertionError(f"jshadow {shlex.join(argv)} built a table before refusing it")

    monkeypatch.setattr(sweeps, "primes_up_to", built)
    monkeypatch.setattr(sweeps, "prime_power_base", built)
    monkeypatch.setattr(symbols, "bytearray", built, raising=False)  # the Zolotarev walk's table
    with _time_bound(argv, seconds=1):
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag[2:].replace("-", "_")
    assert captured.err.startswith(f"error: {name} must be <= ") and captured.err.count("\n") == 1


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
