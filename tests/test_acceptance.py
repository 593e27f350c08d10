"""Acceptance suite: every verifiable statement at its full stated bounds.

Each test runs one criterion through the shared sweep machinery (the same
code the CLI ``sweep`` subcommand uses), prints a single PASS/FAIL line,
and asserts zero failures.  All arithmetic is exact or carried out at a
certified p-adic precision, so every tolerance is zero.

Every criterion runs at its sweep's default grid and seed, so each result
is also what ``jshadow --json sweep <name>`` reports; the sha256 of that
canonical report is pinned, so a refactor of the sweeps or the report
builder must keep the output byte-identical.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import hashlib
import json

from jshadow.cli import _sweep_report
from jshadow.sweeps import (
    sweep_bernoulli,
    sweep_geometric_series,
    sweep_imj_consistency,
    sweep_low_degree_j,
    sweep_norm_identity,
    sweep_oracle_agreement,
    sweep_pi2_nontriviality,
    sweep_quillen,
    sweep_reciprocity,
    sweep_rezk_log,
    sweep_surjectivity,
    sweep_zolotarev,
)


# sha256 of the output of `jshadow --json sweep <name>` (default grid and seed)
REPORT_SHA256 = {
    "reciprocity": "429c6c21ed2fb62373cf7dd17ef71f554c492da2b9d4df524aaa72e078aa8af5",
    "oracle-agreement": "1ad03c791c35eb2f882edbe17ca6f1a6709d6f67e349f543d63717f169a8508b",
    "zolotarev": "0d4e8b2ea886d78ca35545f5d9190370110707f41e3b92a53f9fc74f391fd126",
    "imj-consistency": "891cc48489fb93b921232461abd251998574f14a054378119804d85629421b45",
    "bernoulli": "9250d452547e2681629c938f7aa20d67361e3d112d5dbf24e6b9311491448648",
    "rezk-log": "ffc27d337eb17ce83874364f21a9d889b62ae172840eaa02accf1db27ef81cd1",
    "surjectivity": "327631f2515f0afbcbbbc9aaf787b5b72ec0e87e80d5d67efddae7bc1a1aceab",
    "norm-identity": "b4fc87cb17098a204d843eaa7748527eed1466a289d45bb196e7e761c9615177",
    "quillen": "a7c1889130640967a793cf48ac977ce242d2171858388ccea17681f78db6cfc3",
    "pi2-nontriviality": "c80aa561d5bad27dbafc8091bc51be8c6234f95b4c7e0ec4ba45b840d27f9de0",
    "geometric-series": "49b586d7373274437bd6d5e84841f9fa68da1601a7f8d6e71308937bb7c1690f",
    "low-degree-j": "5e61874fdd7bab6d9c458134d8fca7edde0d9f59067e1444a11e340a6fe729cc",
}


def _report(number: int, label: str, result) -> None:
    line = (
        f"criterion {number:2d} [{label}]: {result.verdict.upper()} "
        f"({result.checked} checks, {result.failures} failures)"
    )
    print(line)
    assert result.failures == 0, line
    canonical = json.dumps(
        _sweep_report(result), sort_keys=True, separators=(",", ": "), indent=1
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert digest == REPORT_SHA256[result.name], f"{result.name} report changed"


def test_criterion_01_hilbert_reciprocity():
    # all integer pairs with |a|, |b| <= 200, plus a seeded sample of
    # rational pairs with numerator and denominator bounded by 200
    result = sweep_reciprocity(bound=200, rational_samples=20000)
    _report(1, "hilbert reciprocity, bound 200", result)


def test_criterion_02_symbol_equals_solvability_oracle():
    result = sweep_oracle_agreement(prime_max=50, coeff_bound=30, rational_samples=2000)
    _report(2, "closed form = oracle, p <= 50, |a|,|b| <= 30", result)


def test_criterion_03_zolotarev():
    result = sweep_zolotarev(p_max=500)
    _report(3, "zolotarev sign = legendre, p <= 500", result)


def test_criterion_04_image_of_j_consistency():
    result = sweep_imj_consistency(ell_max=97, k_max=30)
    _report(4, "image-of-J order consistency, l <= 97, k <= 30", result)


def test_criterion_05_bernoulli_integrity():
    result = sweep_bernoulli(n_max=60)
    _report(5, "bernoulli denominators = von Staudt-Clausen, n <= 60", result)


def test_criterion_06_rezk_logarithm():
    result = sweep_rezk_log(ells=(3, 5, 7, 11), precision=64)
    _report(6, "degree-zero log: unit at 1+l, kills Teichmuller", result)


def test_criterion_07_surjectivity_inequality():
    result = sweep_surjectivity(ell_max=50, p_max=50, k_max=40)
    _report(7, "v_l(p^k-1) >= v_l(u^k-1), l,p <= 50, k <= 40", result)


def test_criterion_08_norm_identity():
    result = sweep_norm_identity(ell_max=23, d_max=6, m_max=10, precision=20)
    _report(8, "geometric sum identity in Z_l at precision 20", result)


def test_criterion_09_quillen_orders():
    result = sweep_quillen(q_max=49, i_max=10)
    _report(9, "K-groups of F_q, q <= 49, i <= 10", result)


def test_criterion_10_pi2_nontriviality():
    result = sweep_pi2_nontriviality(p_max=100)
    _report(10, "a pair with (a,b)_p = -1 for every p <= 100", result)


def test_criterion_11_geometric_series_witness():
    result = sweep_geometric_series(depth=64)
    _report(11, "2*sum(3^i) + 1 = 3^k for k <= 64", result)


def test_criterion_12_low_degree_j_tables():
    result = sweep_low_degree_j(inversion_samples=1000, tame_samples=10000, precision=64)
    _report(12, "low-degree J tables (identity/degree/tame/wild)", result)
