"""Tests for the sweep registry: order, recorded parameters, seeding.

None of these runs a default grid; the acceptance suite does that.
"""

import argparse
import functools
import hashlib
import inspect
import itertools
import json
import random
from fractions import Fraction
from math import gcd, prod
from typing import get_args

import pytest

from jshadow import sweeps, symbols
from jshadow._integers import factorint, primes_up_to, split_unit
from jshadow.cli import build_parser, run
from jshadow.sweeps import DEFAULT_SEED, STATEMENTS, SWEEPS, Range, SweepResult
from jshadow.symbols import hilbert_reciprocity_check, hilbert_symbol
from test_faults import ZOLOTAREV_GRID, _one_cycle_too_many

# The params each sweep reports at its defaults, in signature order, with
# the sweeps in the order `sweep all` runs and reports them.
DEFAULT_PARAMS = {
    "reciprocity": {"bound": 200, "rational_samples": 20000, "seed": DEFAULT_SEED},
    "oracle-agreement": {
        "prime_max": 50,
        "coeff_bound": 30,
        "rational_samples": 2000,
        "seed": DEFAULT_SEED,
    },
    "zolotarev": {"p_max": 500},
    "imj-consistency": {"ell_max": 97, "k_max": 30},
    "bernoulli": {"n_max": 60},
    "rezk-log": {"ells": [3, 5, 7, 11], "precision": 64},
    "surjectivity": {"ell_max": 50, "p_max": 50, "k_max": 40},
    "norm-identity": {"ell_max": 23, "d_max": 6, "m_max": 10, "precision": 20},
    "quillen": {"q_max": 49, "i_max": 10},
    "pi2-nontriviality": {"p_max": 100},
    "geometric-series": {"depth": 64},
    "low-degree-j": {
        "inversion_samples": 1000,
        "tame_samples": 10000,
        "precision": 64,
        "seed": DEFAULT_SEED,
    },
}


def test_registry_order_and_module_names():
    assert tuple(SWEEPS) == tuple(DEFAULT_PARAMS)
    for name, fn in SWEEPS.items():
        assert getattr(sweeps, "sweep_" + name.replace("-", "_")) is fn


class _Built(Exception):
    pass


@pytest.mark.parametrize("name", DEFAULT_PARAMS)
def test_default_params(monkeypatch, name):
    # Stop each sweep as it builds its result, before the grid runs.
    def build(name, statement_id, params):
        assert statement_id in STATEMENTS
        raise _Built(name, params)

    monkeypatch.setattr(sweeps, "SweepResult", build)
    with pytest.raises(_Built) as built:
        SWEEPS[name]()
    assert built.value.args[0] == name
    assert list(built.value.args[1].items()) == list(DEFAULT_PARAMS[name].items())


def test_params_record_the_arguments_used():
    result = SWEEPS["rezk-log"](ells=(3,))
    assert result.params == {"ells": [3], "precision": 64}
    assert result.checked == 3 and result.verdict == "pass"
    assert SWEEPS["zolotarev"](7).params == {"p_max": 7}
    with pytest.raises(TypeError):
        SWEEPS["zolotarev"](p_min=3)
    with pytest.raises(ValueError, match="checked nothing"):
        SWEEPS["zolotarev"](p_max=2)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("reciprocity", {"bound": 0}, "bound must be >= 1, got 0"),
        ("reciprocity", {"bound": -3}, "bound must be >= 1, got -3"),
        ("oracle-agreement", {"coeff_bound": 0}, "coeff_bound must be >= 1"),
        ("low-degree-j", {"precision": 0}, "precision must be >= 1, got 0"),
        ("low-degree-j", {"tame_samples": -1}, "tame_samples must be >= 0"),
        ("bernoulli", {"n_max": -4}, "n_max must be >= 2, got -4"),
        ("bernoulli", {"n_max": 1}, "n_max must be >= 2, got 1"),
        ("geometric-series", {"depth": 0}, "depth must be >= 1"),
        ("quillen", {"i_max": -3, "q_max": 4}, "i_max must be >= 1, got -3"),
        ("quillen", {"i_max": 0}, "i_max must be >= 1, got 0"),
        ("oracle-agreement", {"prime_max": 1}, "prime_max must be >= 2, got 1"),
        # each sieved, listed or tabulated up to its size first: a MemoryError,
        # or for low-degree-j the power p**precision
        ("reciprocity", {"bound": 10**11}, "bound must be <= 4096, got 100000000000$"),
        ("reciprocity", {"bound": 4097}, "bound must be <= 4096, got 4097$"),
        ("oracle-agreement", {"prime_max": 10**11}, "prime_max must be <= 4096"),
        ("oracle-agreement", {"coeff_bound": 10**11}, "coeff_bound must be <= 4096"),
        ("zolotarev", {"p_max": 10**11}, "p_max must be <= 4096"),
        ("imj-consistency", {"ell_max": 10**11}, "ell_max must be <= 4096"),
        ("surjectivity", {"ell_max": 10**11}, "ell_max must be <= 4096"),
        ("surjectivity", {"p_max": 10**11}, "p_max must be <= 4096"),
        ("norm-identity", {"ell_max": 10**11}, "ell_max must be <= 4096"),
        ("quillen", {"q_max": 10**11}, "q_max must be <= 4096"),
        ("pi2-nontriviality", {"p_max": 10**11}, "p_max must be <= 4096"),
        ("low-degree-j", {"precision": 10**9}, "precision must be <= 4096, got 1000000000$"),
    ],
)
def test_out_of_range_parameters_raise_value_error(monkeypatch, name, params, message):
    # These used to raise IndexError or a randrange error, or pass on spot
    # checks alone: bernoulli on B_12, quillen on K_0, oracle-agreement on
    # the infinite place.  Each is refused before anything is built.
    def built(*args):
        raise AssertionError(f"sweep {name} {params} built a table before refusing it")

    monkeypatch.setattr(sweeps, "primes_up_to", built)
    monkeypatch.setattr(sweeps, "prime_power_base", built)
    with pytest.raises(ValueError, match="^" + message):
        SWEEPS[name](**params)


def _declared_ranges() -> list[tuple[str, str, Range]]:
    """(sweep, parameter, range) for every :class:`Range` a sweep's annotation declares."""
    return [
        (name, key, note)
        for name, fn in SWEEPS.items()
        for key, param in inspect.signature(fn).parameters.items()
        for note in get_args(param.annotation)[1:]
        if isinstance(note, Range)
    ]


def test_the_declared_ranges_are_the_bounds_of_each_grid():
    declared = {(name, key): (allowed.low, allowed.high) for name, key, allowed in _declared_ranges()}
    assert declared == {
        ("reciprocity", "bound"): (1, 4096),
        ("reciprocity", "rational_samples"): (0, None),
        ("oracle-agreement", "prime_max"): (2, 4096),
        ("oracle-agreement", "coeff_bound"): (1, 4096),
        ("oracle-agreement", "rational_samples"): (0, None),
        ("zolotarev", "p_max"): (2, 4096),
        ("imj-consistency", "ell_max"): (2, 4096),
        ("imj-consistency", "k_max"): (None, 1024),
        ("bernoulli", "n_max"): (2, 2048),
        ("surjectivity", "ell_max"): (2, 4096),
        ("surjectivity", "p_max"): (2, 4096),
        ("norm-identity", "ell_max"): (2, 4096),
        ("quillen", "q_max"): (2, 4096),
        ("quillen", "i_max"): (1, None),
        ("pi2-nontriviality", "p_max"): (2, 4096),
        ("low-degree-j", "inversion_samples"): (0, None),
        ("low-degree-j", "tame_samples"): (0, None),
        ("low-degree-j", "precision"): (1, 4096),
        ("rezk-log", "precision"): (1, 4096),
        ("norm-identity", "precision"): (1, 4096),
    }


@pytest.mark.parametrize("name, key, allowed", _declared_ranges())
def test_each_declared_range_is_checked_before_anything_is_built(monkeypatch, name, key, allowed):
    # one step past either end is refused with the range's own message; each end
    # itself passes the check and reaches the SweepResult, built before the body runs
    def built(*args):
        raise AssertionError(f"sweep {name} built a table before refusing {key}")

    def build(*args):
        raise _Built(*args)

    monkeypatch.setattr(sweeps, "primes_up_to", built)
    monkeypatch.setattr(sweeps, "prime_power_base", built)
    monkeypatch.setattr(sweeps, "SweepResult", build)
    for value, words in ((allowed.low, ">="), (allowed.high, "<=")):
        if value is None:
            continue
        step = value - 1 if words == ">=" else value + 1
        with pytest.raises(ValueError, match=f"^{key} must be {words} {value}, got {step}$"):
            SWEEPS[name](**{key: step})
        with pytest.raises(_Built):
            SWEEPS[name](**{key: value})


# -- the reciprocity sweep's sieve tables -----------------------------------


def test_sieve_tables_agree_with_the_single_query():
    # The sweep's local data and chi tables drive the kernel.  The single
    # query lists 2, the odd primes dividing a numerator or denominator
    # (found here by trial division) and infinity; each row is
    # hilbert_symbol's, and equals the closed form evaluated on the sieve's
    # local data and chi tables at that place; and the kernel's sign is the
    # product of the rows, +1.
    local, legendre_of = sweeps._sieve_tables(60)
    odd_primes = primes_up_to(60)[1:]
    nonzero = [n for n in range(-60, 61) if n]
    rng = random.Random(60)
    rationals = [
        tuple(Fraction(rng.choice(nonzero), rng.randint(1, 60)) for _ in range(2))
        for _ in range(2000)
    ]
    cases = [(a, local[a], b, local[b]) for a in nonzero for b in nonzero]
    cases += [
        (
            *sweeps._cleared_local_data(local, a.numerator, a.denominator),
            *sweeps._cleared_local_data(local, b.numerator, b.denominator),
        )
        for a, b in rationals
    ]
    pairs = [(a, b) for a in nonzero for b in nonzero] + rationals
    for (a, b), (A, local_A, B, local_B) in zip(pairs, cases):
        single = hilbert_reciprocity_check(a, b)
        cleared = prod(x.numerator * x.denominator for x in (Fraction(a), Fraction(b)))
        places = [2, *(p for p in odd_primes if cleared % p == 0), None]
        assert [v.prime for v, _ in single.local_symbols] == places, (a, b)
        for v, s in single.local_symbols:
            assert s == hilbert_symbol(a, b, v), (a, b, v.prime)
            p = v.prime
            if p == 2:
                sieve = symbols._symbol_at_two(*local_A.get(2, (0, A)), *local_B.get(2, (0, B)))
            elif p is not None:
                sieve = symbols._symbol_at_odd_prime(
                    *local_A.get(p, (0, A)), *local_B.get(p, (0, B)), p, legendre_of
                )
            else:
                sieve = -1 if A < 0 and B < 0 else 1
            assert s == sieve, (a, b, p)
        sign = sweeps.local_symbol_product(A, local_A, B, local_B, legendre_of)
        assert sign == single.product == prod(s for _, s in single.local_symbols) == 1, (a, b)


def test_cleared_local_data_agrees_with_factoring_the_product():
    # every num/den in lowest terms with |num|, den <= 60, from the sieve tables
    local, _ = sweeps._sieve_tables(60)
    pairs = itertools.product(range(-60, 61), range(1, 61))
    cases = [(num, den) for num, den in pairs if num and gcd(num, den) == 1]
    assert len(cases) > 4000
    for num, den in cases:
        X = num * den
        expected = {p: split_unit(X, p) for p in factorint(abs(X))}
        assert sweeps._cleared_local_data(local, num, den) == (X, expected), (num, den)


# -- the failure path: kernels patched as jshadow.sweeps sees them ----------


def test_a_failed_check_lands_in_its_bucket_and_one_row(monkeypatch):
    legendre = sweeps.legendre

    def flipped(a, p):
        return -legendre(a, p) if (a, p) == (2, 7) else legendre(a, p)

    monkeypatch.setattr(sweeps, "legendre", flipped)
    result = SWEEPS["zolotarev"](p_max=13)
    assert result.verdict == "fail" and result.failures == 1
    assert result.checked == 2 + 4 + 6 + 10 + 12
    assert [row for row in result.rows if "failure" in row] == [{"failure": True, "p": 7, "a": 2}]
    buckets = {row["p"]: row["mismatches"] for row in result.rows if "mismatches" in row}
    assert buckets == {3: 0, 5: 0, 7: 1, 11: 0, 13: 0}


def test_failure_rows_hold_rationals_as_strings(monkeypatch):
    # fail exactly the rational sample, whose arguments are Fractions; the
    # 16 integer pairs of bound 2 come first
    calls = itertools.count()

    def product(A, local_A, B, local_B, legendre_of):
        return 1 if next(calls) < 16 else -1

    monkeypatch.setattr(sweeps, "local_symbol_product", product)
    result = SWEEPS["reciprocity"](bound=2, rational_samples=3)
    assert (result.checked, result.failures) == (16 + 3, 3)
    failures = [row for row in result.rows if "failure" in row]
    assert len(failures) == 3
    for row in failures:
        assert set(row) == {"failure", "a", "b"}
        assert isinstance(row["a"], str) and isinstance(row["b"], str)
        assert Fraction(row["a"]) and Fraction(row["b"])
    buckets = {row["kind"]: row["failures"] for row in result.rows if "kind" in row}
    assert buckets == {"integer-grid": 0, "rational-sample": 3}


def test_failure_rows_pin_the_rational_sample_stream(monkeypatch):
    # Every pair fails, so the 32 rows are the 16 integer pairs of bound 2
    # and then the first 16 rational samples, drawn as m/d and n/e in that
    # order from the seed.  A reference loop of Fractions gives their rows.
    monkeypatch.setattr(sweeps, "local_symbol_product", lambda *args: -1)
    result = SWEEPS["reciprocity"](bound=2, rational_samples=40, seed=11)
    assert (result.checked, result.failures) == (16 + 40, 16 + 40)
    rows = [row for row in result.rows if "failure" in row]
    nonzero = [-2, -1, 1, 2]
    assert rows[:16] == [{"failure": True, "a": a, "b": b} for a in nonzero for b in nonzero]
    rng = random.Random(11)
    expected = []
    for _ in range(16):
        a = Fraction(rng.choice(nonzero), rng.randint(1, 2))
        b = Fraction(rng.choice(nonzero), rng.randint(1, 2))
        expected.append({"failure": True, "a": str(a), "b": str(b)})
    assert rows[16:] == expected
    values = [row[k] for row in rows[16:] for k in "ab"]
    assert all(isinstance(v, str) for v in values)
    assert {"-2", "-1", "1", "2"} & set(values) and {"-1/2", "1/2"} & set(values)


def test_passing_rational_samples_build_no_fraction(monkeypatch):
    def built(*args):
        raise AssertionError(f"a passing sample built Fraction{args}")

    monkeypatch.setattr(sweeps, "Fraction", built)
    result = SWEEPS["reciprocity"](bound=12, rational_samples=200)
    assert (result.checked, result.verdict) == (576 + 200, "pass")


def test_failure_rows_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(sweeps, "zolotarev_sign", _one_cycle_too_many)
    result = SWEEPS["zolotarev"](**ZOLOTAREV_GRID)
    odd_primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    assert result.failures == result.checked == sum(p - 1 for p in odd_primes) == 312
    assert len([row for row in result.rows if "failure" in row]) == sweeps._MAX_FAILURE_ROWS == 32
    assert sum(row["mismatches"] for row in result.rows if "mismatches" in row) == result.failures
    # The 32 failure rows and 14 bucket rows, pinned as the driver wrote them
    # before check and fail were split.
    assert result.rows[:2] == [{"failure": True, "p": 3, "a": 1}, {"failure": True, "p": 3, "a": 2}]
    digest = hashlib.sha256(json.dumps(result.rows).encode()).hexdigest()
    assert digest == "6f44f4d98290ea0bb141a65d7ee150612dda47761a4bf425501ba28ade620715"


# One small passing grid per sweep, each well under a second.
SMALL_GRIDS = {
    "reciprocity": {"bound": 5, "rational_samples": 50},
    "oracle-agreement": {"prime_max": 7, "coeff_bound": 5, "rational_samples": 50},
    "zolotarev": {"p_max": 30},
    "imj-consistency": {"ell_max": 13, "k_max": 6},
    "bernoulli": {"n_max": 20},
    "rezk-log": {"ells": (3, 5), "precision": 16},
    "surjectivity": {"ell_max": 7, "p_max": 13, "k_max": 6},
    "norm-identity": {"ell_max": 7, "d_max": 3, "m_max": 3, "precision": 10},
    "quillen": {"q_max": 9, "i_max": 3},
    "pi2-nontriviality": {"p_max": 30},
    "geometric-series": {"depth": 10},
    "low-degree-j": {"inversion_samples": 50, "tame_samples": 100, "precision": 16},
}


@pytest.mark.parametrize("name", SWEEPS)
def test_a_passing_check_builds_no_failure_row(monkeypatch, name):
    def fail(self, **what):
        raise AssertionError(f"a passing check of {name} reached fail({what})")

    monkeypatch.setattr(SweepResult, "fail", fail)
    result = SWEEPS[name](**SMALL_GRIDS[name])
    assert result.verdict == "pass" and result.checked > 0


def test_a_check_takes_no_row_values():
    result = SweepResult("zolotarev", "zolotarev-lemma", {})
    with pytest.raises(TypeError):
        result.check(False, p=3, a=1)


def test_a_failing_sweep_exits_1_with_a_report(monkeypatch, capsys):
    monkeypatch.setattr(sweeps, "zolotarev_sign", lambda a, p: 0)
    assert run(["--json", "sweep", "zolotarev", "--p-max=50"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] == "fail"
    summary = report["rows"][-1]
    assert summary["summary"] and summary["failures"] == summary["checked"] > 0


def test_cli_seeds_exactly_the_sweeps_with_a_seed_parameter(monkeypatch, capsys):
    calls = []
    for name, fn in SWEEPS.items():

        @functools.wraps(fn)
        def stub(*args, _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return SweepResult(_name, "hilbert-reciprocity", {}, checked=1)

        monkeypatch.setitem(SWEEPS, name, stub)
    assert run(["sweep", "all", "--seed=7"]) == 0
    for name in DEFAULT_PARAMS:
        assert run(["sweep", name, "--seed=7"]) == 0
    capsys.readouterr()
    seeded = {"reciprocity", "oracle-agreement", "low-degree-j"}
    expected = [(n, 7 if n in seeded else None) for n in DEFAULT_PARAMS]
    assert [(n, kwargs.get("seed")) for n, _, kwargs in calls] == expected + expected


def test_statements_are_exactly_the_cited_ones(monkeypatch, capsys):
    single_shots = {
        "hilbert": ["--a=2", "--b=5", "--place=5"],
        "reciprocity": ["--a=2", "--b=5"],
        "zolotarev": ["--a=3", "--p=5"],
        "tame": ["--a=3", "--b=5", "--p=3"],
        "bernoulli": ["--n=12"],
        "imj-order": ["--k=2"],
        "k1-sphere": ["--ell=3", "--k=2"],
        "kff": ["--n=3", "--q=2"],
        "rezk-log": ["--ell=3", "--x=4"],
        "padic": ["--p=3", "--op=valuation", "--x=9"],
        "norm-product": ["--x=-6"],
    }
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(single_shots) | {"sweep"}
    cited = set()
    for command, argv in single_shots.items():
        run(["--json", command, *argv])
        cited |= {p["statement_id"] for p in json.loads(capsys.readouterr().out)["provenance"]}

    # Each sweep names its statement as it builds its result, before its grid runs.
    def build(name, statement_id, params):
        raise _Built(statement_id)

    monkeypatch.setattr(sweeps, "SweepResult", build)
    for fn in SWEEPS.values():
        with pytest.raises(_Built) as built:
            fn()
        cited.add(built.value.args[0])
    assert cited == set(STATEMENTS)
