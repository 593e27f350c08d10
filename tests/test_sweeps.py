"""Tests for the sweep registry: recorded parameters, seeding, failure rows.

Most run small grids.  The surjectivity, norm-identity and image-of-J
consistency sweeps are compared with their checked functions at their
default grids too (the ``{}`` of each ``*_GRIDS`` list); the acceptance
suite runs every sweep at its default grid.
"""

import argparse
import functools
import hashlib
import inspect
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from typing import get_args

import pytest

from jshadow import cli, imj, jmaps, padic, sweeps, symbols
from jshadow._integers import factorint, primes_up_to, split_unit
from jshadow.cli import build_parser, run
from jshadow.imj import imj_consistency_check, norm_identity_check, surjectivity_check
from jshadow.padic import smallest_topological_generator
from jshadow.sweeps import STATEMENTS, SWEEPS, Range, SweepResult
from jshadow.symbols import hilbert_reciprocity_check, hilbert_symbol
from test_acceptance import SWEEP_TABLE
from test_faults import (
    ZOLOTAREV_GRID,
    _minus_one_flipped_at_7_mod_8,
    _odd_symbol_without_its_sign,
    _one_cycle_too_many,
    _symbol_at_two_without_beta_omega_u,
    _top_digit_of_a_product_shifted,
    _valuation_plus_one_at_3,
)


def test_registry_order_and_module_names():
    for name, fn in SWEEPS.items():
        assert getattr(sweeps, "sweep_" + name.replace("-", "_")) is fn


class _Built(Exception):
    pass


@pytest.mark.parametrize("name", SWEEP_TABLE)
def test_default_params(monkeypatch, name):
    # Stop each sweep as it builds its result, before the grid runs.
    def build(name, statement_id, params):
        assert statement_id in STATEMENTS
        raise _Built(name, params)

    monkeypatch.setattr(sweeps, "SweepResult", build)
    with pytest.raises(_Built) as built:
        SWEEPS[name]()
    assert built.value.args[0] == name
    assert list(built.value.args[1].items()) == list(SWEEP_TABLE[name].defaults.items())


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
        ("surjectivity", "k_max"): (1, 4096),
        ("norm-identity", "ell_max"): (2, 4096),
        ("norm-identity", "d_max"): (1, 4096),
        ("norm-identity", "m_max"): (1, 4096),
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


def test_sieve_tables_are_keyed_by_the_grid_in_order():
    # The rational samples draw from list(local), so this order is part of every seeded digest.
    for bound in range(1, 61):
        local, _ = sweeps._sieve_tables(bound)
        assert list(local) == [n for n in range(-bound, bound + 1) if n], bound


def test_sieve_tables_hold_each_split_in_ascending_primes():
    local, _ = sweeps._sieve_tables(1000)
    assert len(local) == 2000
    for n, data in local.items():
        assert list(data.items()) == [(p, split_unit(n, p)) for p in factorint(abs(n))], n


def test_legendre_tables_agree_with_eulers_criterion():
    _, legendre_of = sweeps._sieve_tables(200)
    for p in primes_up_to(200)[1:]:
        for x in range(-2 * p, 2 * p):
            euler = pow(x, (p - 1) // 2, p)
            assert legendre_of(x, p) == {0: 0, 1: 1, p - 1: -1}[euler], (x, p)


# -- the reciprocity sweep's integer grid, as bitmasks -----------------------


def _per_pair_grid(bound: int) -> SweepResult:
    # the integer grid as the sweep checked it before its bitmasks: one
    # local_symbol_product per pair, in grid order
    result = SweepResult("reciprocity", "hilbert-reciprocity", {})
    local, legendre_of = sweeps._sieve_tables(bound)
    with result.bucket(kind="integer-grid", pairs=(2 * bound) ** 2):
        for a, local_a in local.items():
            for b, local_b in local.items():
                ok = symbols.local_symbol_product(a, local_a, b, local_b, legendre_of) == 1
                result.check(ok) or result.fail(a=a, b=b)
    return result


CLOSED_FORM_FAULTS = [
    ("jshadow.symbols._symbol_at_odd_prime", _odd_symbol_without_its_sign),
    ("jshadow.symbols._symbol_at_two", _symbol_at_two_without_beta_omega_u),
    ("jshadow.sweeps._jacobi", _minus_one_flipped_at_7_mod_8),
]


@pytest.mark.parametrize(
    "target, fault", [(None, None), *CLOSED_FORM_FAULTS], ids=["exact", *(f.__name__ for _, f in CLOSED_FORM_FAULTS)]
)
def test_the_bitmask_grid_equals_the_per_pair_loop(monkeypatch, target, fault):
    # rows, checks and failures, the 32-row cap included, unpatched and with
    # each closed-form fault of the catalogue
    if target:
        monkeypatch.setattr(target, fault)
    capped = 0
    for bound in [*range(1, 31), 60]:
        expected = _per_pair_grid(bound)
        result = SWEEPS["reciprocity"](bound=bound, rational_samples=0)
        assert result.rows[:-1] == expected.rows, bound
        assert (result.checked, result.failures) == (expected.checked, expected.failures), bound
        capped += result.failures > sweeps._MAX_FAILURE_ROWS
    assert (capped > 0) == (fault is not None)  # a fault fails some grids past the row cap


def test_the_bitmask_grid_keeps_one_byte_of_class_per_prime_and_member():
    # The kernel builds its tables before the first mask, and each later mask
    # takes one slice and a few ints.  The tables are a class byte per (p, n)
    # and at most 8 masks per p; a list of mask references per (p, n) alone
    # would hold 8 bytes a cell.
    bound = 2048
    local, legendre_of = sweeps._sieve_tables(bound)
    tracemalloc.start()
    try:
        first = next(symbols.symbol_product_masks(local, legendre_of))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == 0
    cells = len(primes_up_to(bound)) * 2 * bound
    assert peak < 2 * cells, (peak, cells)


# -- the failure path: kernels patched as jshadow.sweeps sees them ----------


def test_a_failed_check_lands_in_its_bucket_and_one_row(monkeypatch):
    legendre = sweeps._jacobi

    def flipped(a, p):
        return -legendre(a, p) if (a, p) == (2, 7) else legendre(a, p)

    monkeypatch.setattr(sweeps, "_jacobi", flipped)
    result = SWEEPS["zolotarev"](p_max=13)
    assert result.verdict == "fail" and result.failures == 1
    assert result.checked == 2 + 4 + 6 + 10 + 12
    assert [row for row in result.rows if "failure" in row] == [{"failure": True, "p": 7, "a": 2}]
    buckets = {row["p"]: row["mismatches"] for row in result.rows if "mismatches" in row}
    assert buckets == {3: 0, 5: 0, 7: 1, 11: 0, 13: 0}


def test_failure_rows_hold_rationals_as_strings(monkeypatch):
    # fail exactly the rational samples, whose arguments are Fractions; the
    # 16 integer pairs of bound 2, decided by the grid's bitmasks, pass
    monkeypatch.setattr(sweeps, "local_symbol_product", lambda *args: -1)
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
    monkeypatch.setattr(sweeps, "symbol_product_masks", lambda local, _: itertools.repeat(2 ** len(local) - 1))
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
    monkeypatch.setattr(sweeps, "_permutation_sign", _one_cycle_too_many)
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


@pytest.mark.parametrize("name", SWEEP_TABLE)
def test_a_passing_check_builds_no_failure_row(monkeypatch, name):
    def fail(self, **what):
        raise AssertionError(f"a passing check of {name} reached fail({what})")

    monkeypatch.setattr(SweepResult, "fail", fail)
    result = SWEEPS[name](**SWEEP_TABLE[name].small_grid)
    assert result.verdict == "pass" and result.checked > 0


def test_a_check_takes_no_row_values():
    result = SweepResult("zolotarev", "zolotarev-lemma", {})
    with pytest.raises(TypeError):
        result.check(False, p=3, a=1)


def test_a_failing_sweep_exits_1_with_a_report(monkeypatch, capsys):
    monkeypatch.setattr(sweeps, "_permutation_sign", lambda a, p: 0)
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
    for name in SWEEPS:
        assert run(["sweep", name, "--seed=7"]) == 0
    capsys.readouterr()
    seeded = {"reciprocity", "oracle-agreement", "low-degree-j"}
    expected = [(n, 7 if n in seeded else None) for n in SWEEPS]
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


# -- the surjectivity sweep against the checked function ------------------------

# The default grid, then the (ell_max, p_max, k_max) grids of perfbench's padic-imj workload.
SURJECTIVITY_GRIDS = [
    {},
    *(
        {"ell_max": ell, "p_max": p, "k_max": k}
        for ell, p, k in ((61, 139, 5), (97, 199, 3), (139, 97, 4), (43, 251, 6), (199, 61, 5), (31, 331, 8))
    ),
]
_valuation = imj._vl_power_minus_one


def _valuation_plus_one_at_1_mod_4(u: int, k: int, ell: int) -> int:
    # A shift of every valuation cancels between v_l(p^k - 1) and
    # v_l(u^k - 1); one that depends on the base does not.
    return _valuation(u, k, ell) + (u % 4 == 1)


@pytest.mark.parametrize("fault", [None, _valuation_plus_one_at_1_mod_4], ids=["exact", "shifted-at-1-mod-4"])
@pytest.mark.parametrize("grid", SURJECTIVITY_GRIDS, ids=lambda grid: "-".join(map(str, grid.values())) or "default")
def test_the_surjectivity_sweep_fails_where_the_check_does(monkeypatch, grid, fault):
    # The sweep reads the generator once per l and compares through
    # imj._surjects, with no argument checks; surjectivity_check checks
    # every point and compares through the same kernel.  Each bucket row
    # must count the points where the check returns False.
    if fault is not None:
        monkeypatch.setattr(imj, "_vl_power_minus_one", fault)
    result = SWEEPS["surjectivity"](**grid)
    params = result.params
    expected = [
        {
            "ell": ell,
            "failures": sum(
                not surjectivity_check(ell, p, k)
                for p in primes_up_to(params["p_max"])
                if p != ell
                for k in range(1, params["k_max"] + 1)
            ),
        }
        for ell in primes_up_to(params["ell_max"])[1:]
    ]
    assert [row for row in result.rows if "failures" in row] == expected
    assert (result.failures > 0) == (fault is not None)


def test_a_surjectivity_sweep_proves_each_prime_at_most_once_per_ell(monkeypatch):
    # Its primes come from the sieve, so no check needs proving them again.
    # The generator search, cached per l, tries each candidate u with a
    # proof of l; it runs first, so the count is the sweep's own.
    grid = {"ell_max": 31, "p_max": 61, "k_max": 8}
    ells = primes_up_to(grid["ell_max"])[1:]
    for ell in ells:
        smallest_topological_generator(ell)
    proofs = Counter()
    for module in (imj, padic):
        def counting(p, *args, _check_prime=module.check_prime, **kwargs):
            proofs[p] += 1
            return _check_prime(p, *args, **kwargs)

        monkeypatch.setattr(module, "check_prime", counting)
    assert SWEEPS["surjectivity"](**grid).verdict == "pass"
    assert all(count <= len(ells) for count in proofs.values()), proofs


# -- the brute-force sweeps check their grid once -----------------------------


def _count_calls(monkeypatch, modules, name, counts, key=lambda *args: args):
    """Patch ``name`` in each of ``modules`` to count its calls in ``counts`` by ``key``."""
    for module in modules:
        def counting(*args, _original=getattr(module, name), **kwargs):
            counts[key(*args)] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


def test_a_zolotarev_sweep_proves_each_prime_at_most_once(monkeypatch, capsys):
    # Its primes come from the sieve, so the walk and the Jacobi ladder run
    # unchecked: neither zolotarev_sign nor legendre proves p at each a.
    proofs = Counter()
    modules = [m for m in (cli, imj, jmaps, padic, sweeps, symbols) if hasattr(m, "check_prime")]
    _count_calls(monkeypatch, modules, "check_prime", proofs, key=lambda p, *args: p)
    assert run(["sweep", "zolotarev", "--p-max=50"]) == 0
    capsys.readouterr()
    assert all(count <= 1 for count in proofs.values()), proofs


def test_the_oracle_agreement_grid_splits_each_coefficient_once_per_place(monkeypatch):
    # At a finite place each n is split once and the kernels compare the
    # splits; only the infinite place clears its pairs, through the public
    # functions (two coefficients in each of two calls).
    grid = {"prime_max": 13, "coeff_bound": 10, "rational_samples": 0}
    splits, cleared = Counter(), Counter()
    _count_calls(monkeypatch, (sweeps, symbols), "split_unit", splits)
    _count_calls(monkeypatch, (symbols,), "_cleared_int", cleared, key=lambda x, what: what)
    result = SWEEPS["oracle-agreement"](**grid)
    assert result.verdict == "pass"
    nonzero = [n for n in range(-10, 11) if n]
    assert splits == Counter((n, p) for p in primes_up_to(13) for n in nonzero)
    assert cleared == {"a": 2 * len(nonzero) ** 2, "b": 2 * len(nonzero) ** 2}


# -- the image-of-J sweeps against the checked functions ------------------------


def _bucket_failures(result: SweepResult) -> list[dict]:
    return [row for row in result.rows if "failures" in row]


# The default grid, then the largest grid of perfbench's padic-imj workload.
NORM_IDENTITY_GRIDS = [{}, {"ell_max": 31, "d_max": 3, "m_max": 8, "precision": 256}]


@pytest.mark.parametrize("fault", [None, _top_digit_of_a_product_shifted], ids=["exact", "product-top-digit-shifted"])
@pytest.mark.parametrize("grid", NORM_IDENTITY_GRIDS, ids=lambda grid: "-".join(map(str, grid.values())) or "default")
def test_the_norm_identity_sweep_fails_where_the_check_does(monkeypatch, grid, fault):
    # The sweep embeds u and raises it to each d and m once per l, then runs
    # imj._norm_identity on those powers; norm_identity_check checks every
    # point and runs the same kernel.  Each bucket row must count the points
    # where the check returns False.
    if fault is not None:
        monkeypatch.setattr(padic.PadicNumber, "__mul__", fault)
    result = SWEEPS["norm-identity"](**grid)
    params = result.params
    expected = []
    for ell in primes_up_to(params["ell_max"])[1:]:
        u = smallest_topological_generator(ell)
        failures = sum(
            not norm_identity_check(ell, u, d, m, params["precision"])
            for d in range(1, params["d_max"] + 1)
            for m in range(1, params["m_max"] + 1)
        )
        expected.append({"ell": ell, "generator": u, "failures": failures})
    assert _bucket_failures(result) == expected
    assert (result.failures > 0) == (fault is not None)


# The default grid, then the largest grid of perfbench's padic-imj workload.
IMJ_CONSISTENCY_GRIDS = [{}, {"ell_max": 97, "k_max": 120}]


@pytest.mark.parametrize("fault", [None, _valuation_plus_one_at_3], ids=["exact", "shifted-at-3"])
@pytest.mark.parametrize("grid", IMJ_CONSISTENCY_GRIDS, ids=lambda grid: "-".join(map(str, grid.values())) or "default")
def test_the_imj_consistency_sweep_fails_where_the_check_does(monkeypatch, grid, fault):
    # The sweep reads the generator once per l and compares through
    # imj._imj_consistent; imj_consistency_check checks k and l at every
    # point and compares through the same kernel.
    if fault is not None:
        monkeypatch.setattr(imj, "_vl_power_minus_one", fault)
    result = SWEEPS["imj-consistency"](**grid)
    k_max = result.params["k_max"]
    expected = [
        {
            "ell": ell,
            "k_max": k_max,
            "generator": smallest_topological_generator(ell),
            "failures": sum(not imj_consistency_check(ell, k) for k in range(1, k_max + 1)),
        }
        for ell in primes_up_to(result.params["ell_max"])[1:]
    ]
    assert _bucket_failures(result) == expected
    assert (result.failures > 0) == (fault is not None)


def test_a_surjectivity_sweep_takes_each_generator_valuation_once(monkeypatch):
    # v_l(u^k - 1) of the generator does not depend on p: one call per (l, k),
    # and one more per (l, k) as v_l(p^k - 1) where u is itself a prime of the grid.
    grid = {"ell_max": 31, "p_max": 61, "k_max": 8}
    generators = {ell: smallest_topological_generator(ell) for ell in primes_up_to(grid["ell_max"])[1:]}
    primes = primes_up_to(grid["p_max"])
    calls = Counter()
    _count_calls(monkeypatch, (imj,), "_vl_power_minus_one", calls)
    assert SWEEPS["surjectivity"](**grid).verdict == "pass"
    for ell, u in generators.items():
        for k in range(1, grid["k_max"] + 1):
            assert calls[u, k, ell] == 1 + (u in primes), (ell, k)


def test_a_norm_identity_sweep_proves_embeds_and_raises_each_generator_once(monkeypatch):
    # l comes from the sieve and u from the generator search, so the sweep
    # proves neither; it embeds u once per l, raises it to each d and each m
    # once, and raises x^d to the m at each of the d_max * m_max points.
    grid = {"ell_max": 31, "d_max": 3, "m_max": 8, "precision": 64}
    ells = primes_up_to(grid["ell_max"])[1:]
    for ell in ells:
        smallest_topological_generator(ell)  # the cached search runs first, so the counts are the sweep's own
    proofs, embeddings, powers, prime_proofs = Counter(), Counter(), Counter(), Counter()
    _count_calls(monkeypatch, (imj, padic), "is_topological_generator", proofs, key=lambda u, ell: ell)
    modules = [m for m in (imj, padic, sweeps) if hasattr(m, "check_prime")]
    _count_calls(monkeypatch, modules, "check_prime", prime_proofs, key=lambda p, *args: p)
    _count_calls(monkeypatch, (sweeps, padic), "embed", embeddings, key=lambda x, prime, *args: prime)
    power = padic.PadicNumber.__pow__

    def counting_power(self, exponent):
        powers[self.prime] += 1
        return power(self, exponent)

    monkeypatch.setattr(padic.PadicNumber, "__pow__", counting_power)
    assert SWEEPS["norm-identity"](**grid).verdict == "pass"
    assert all(count <= 1 for count in proofs.values()), proofs
    assert all(count <= 1 for count in embeddings.values()), embeddings
    assert not prime_proofs, prime_proofs
    d_max, m_max = grid["d_max"], grid["m_max"]
    assert powers == {ell: d_max + m_max + d_max * m_max for ell in ells}
