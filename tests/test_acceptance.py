"""Acceptance suite: every verifiable statement at its full stated bounds.

``SWEEP_TABLE`` holds one row per registered sweep, in ``SWEEPS`` order:
its criterion's number and label, what the sweep is pinned to, and the
small grids the other test files run it on.  ``test_criterion`` runs each
sweep at its default grid and seed, through the same code the CLI ``sweep``
subcommand uses, prints a single PASS/FAIL line, and asserts zero failures.
All arithmetic is exact or carried out at a certified p-adic precision, so
every tolerance is zero.

The sha256 of each default-grid report, which ``jshadow --json sweep <name>``
prints, is pinned, so a refactor of the sweeps or the report builder must
keep the output byte-identical.  A new sweep needs one row here and two
``FAULTS`` rows in ``test_faults.py``.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import hashlib
import json
from typing import NamedTuple

import pytest

from jshadow.cli import _sweep_report
from jshadow.sweeps import DEFAULT_SEED, SWEEPS


class Row(NamedTuple):
    number: int
    label: str
    defaults: dict  # the params the sweep reports at its defaults, in signature order
    small_grid: dict  # a passing library grid, each well under a second
    # a small-grid argv and the sha256 of its stdout as text and with --json, recorded
    # while the sweeps still read their grid flags with a lexer of their own
    argv: list
    text_sha256: str
    json_sha256: str
    report_sha256: str  # of `jshadow --json sweep <name>` at the default grid and seed


SWEEP_TABLE = {
    "reciprocity": Row(
        1, "hilbert reciprocity, bound 200",
        {"bound": 200, "rational_samples": 20000, "seed": DEFAULT_SEED},
        {"bound": 5, "rational_samples": 50},
        ["sweep", "reciprocity", "--bound=6", "--rational-samples=40", "--seed=7"],
        "ebce54af889c5560330c36327f1961976f2ee157044223cbbc3df0d7cedb24a0",
        "3a3cad716812b9a0ed102c6b739f82fa5969628259f92b5e52463c9c5eecac00",
        "429c6c21ed2fb62373cf7dd17ef71f554c492da2b9d4df524aaa72e078aa8af5",
    ),
    "oracle-agreement": Row(
        2, "closed form = oracle, p <= 50, |a|,|b| <= 30",
        {"prime_max": 50, "coeff_bound": 30, "rational_samples": 2000, "seed": DEFAULT_SEED},
        {"prime_max": 7, "coeff_bound": 5, "rational_samples": 50},
        ["sweep", "oracle-agreement", "--prime-max=7", "--coeff-bound=4", "--rational-samples=10",
         "--seed=7"],
        "1730f83fd0c639ad68ec69dbacadbda23b275552a7b4bb3e1eed063b891228cd",
        "cf815c8f24b8ad889ca75595f7c803de39abf2dd67cc7b13b77c4af41cbe5d60",
        "1ad03c791c35eb2f882edbe17ca6f1a6709d6f67e349f543d63717f169a8508b",
    ),
    "zolotarev": Row(
        3, "zolotarev sign = legendre, p <= 500",
        {"p_max": 500},
        {"p_max": 30},
        ["sweep", "zolotarev", "--p-max=50"],
        "74790e47fd8a02f4edb9bf4ae788198c759faa1fe73f7b777313c9d8f5bd3ce9",
        "26cdcf68f498264e7a90a9148b0181ef8df99079877530700f55f8d8991e83aa",
        "0d4e8b2ea886d78ca35545f5d9190370110707f41e3b92a53f9fc74f391fd126",
    ),
    "imj-consistency": Row(
        4, "image-of-J order consistency, l <= 97, k <= 30",
        {"ell_max": 97, "k_max": 30},
        {"ell_max": 13, "k_max": 6},
        ["sweep", "imj-consistency", "--ell-max=13", "--k-max=5"],
        "76359d08d0c86ef1844517126c3dcba624f905dbfd25fc8fc1c9584225d9ae3f",
        "6d39b1f17a5fdf73966af0b8eebb6f2aa31ff348bef97e83e8b14a02845dea93",
        "891cc48489fb93b921232461abd251998574f14a054378119804d85629421b45",
    ),
    "bernoulli": Row(
        5, "bernoulli denominators = von Staudt-Clausen, n <= 60",
        {"n_max": 60},
        {"n_max": 20},
        ["sweep", "bernoulli", "--n-max=20"],
        "c90e53f50c119caa154f2a21e45f21f4fc0c03238b0c2e48ae72cf9d21124103",
        "1088b29625f943a56f2b76be9f8e21413fdb0cd206cad1c815c1c91aaf02f9ec",
        "9250d452547e2681629c938f7aa20d67361e3d112d5dbf24e6b9311491448648",
    ),
    "rezk-log": Row(
        6, "degree-zero log: unit at 1+l, kills Teichmuller",
        {"ells": [3, 5, 7, 11], "precision": 64},
        {"ells": (3, 5), "precision": 16},
        ["sweep", "rezk-log", "--ells=3,5", "--precision=16"],
        "fe43ba837c573728c4713b2aaa702ad6bbabfac3b098f41496834a624f3a4b7c",
        "b3527f5e96bbd40d1aa9496fd431d2a6ea07a4e82db0d8a5f801ed8bda2e8b57",
        "ffc27d337eb17ce83874364f21a9d889b62ae172840eaa02accf1db27ef81cd1",
    ),
    "surjectivity": Row(
        7, "v_l(p^k-1) >= v_l(u^k-1), l,p <= 50, k <= 40",
        {"ell_max": 50, "p_max": 50, "k_max": 40},
        {"ell_max": 7, "p_max": 13, "k_max": 6},
        ["sweep", "surjectivity", "--ell-max=7", "--p-max=11", "--k-max=6"],
        "cb6ca52cdaeade34552ffc22831097da27647ed11d9cc72a99632691127f3f66",
        "e08218b1aa086389aa80a1285b70e4690279d81518925f5e63bf058d8c36c001",
        "327631f2515f0afbcbbbc9aaf787b5b72ec0e87e80d5d67efddae7bc1a1aceab",
    ),
    "norm-identity": Row(
        8, "geometric sum identity in Z_l at precision 20",
        {"ell_max": 23, "d_max": 6, "m_max": 10, "precision": 20},
        {"ell_max": 7, "d_max": 3, "m_max": 3, "precision": 10},
        ["sweep", "norm-identity", "--ell-max=7", "--d-max=3", "--m-max=4", "--precision=8"],
        "e4bbcf4a23ac042b6982b835db36f473f2ef5ee1194454f7ff2a7e1b59cc35d3",
        "1c4c65d53946fcb950b75ad9a9db0fc03aef4fbea7cfefbf3bd36c1523be7117",
        "b4fc87cb17098a204d843eaa7748527eed1466a289d45bb196e7e761c9615177",
    ),
    "quillen": Row(
        9, "K-groups of F_q, q <= 49, i <= 10",
        {"q_max": 49, "i_max": 10},
        {"q_max": 9, "i_max": 3},
        ["sweep", "quillen", "--q-max=9", "--i-max=3"],
        "36920d8960b77f94c645bb343fb5d3a8f113d29840e4ccc7a9b9eec71a207f06",
        "3384c7f2de4096cffee4f75212aa542eb78517c49c658157a2bee3eb42d1bc4c",
        "a7c1889130640967a793cf48ac977ce242d2171858388ccea17681f78db6cfc3",
    ),
    "pi2-nontriviality": Row(
        10, "a pair with (a,b)_p = -1 for every p <= 100",
        {"p_max": 100},
        {"p_max": 30},
        ["sweep", "pi2-nontriviality", "--p-max=20"],
        "9d5f921c2aed14804c3ea6e04b67f623b3f0bf605707416ab0f6c9b02928ba04",
        "bb039d26826921c742192e874d0a362f6e7a821b05bda289e48cb98d43e556f1",
        "c80aa561d5bad27dbafc8091bc51be8c6234f95b4c7e0ec4ba45b840d27f9de0",
    ),
    "geometric-series": Row(
        11, "2*sum(3^i) + 1 = 3^k for k <= 64",
        {"depth": 64},
        {"depth": 10},
        ["sweep", "geometric-series", "--depth=16"],
        "60ee6b96b7f68d3d2253361375d9ad701fa3995b1a37afb989c90801b4bfdf89",
        "18ac388270d255058b46bfb620a4f1cb6ff2a1fc7c2ed550f6f9d92410466046",
        "49b586d7373274437bd6d5e84841f9fa68da1601a7f8d6e71308937bb7c1690f",
    ),
    "low-degree-j": Row(
        12, "low-degree J tables (identity/degree/tame/wild)",
        {"inversion_samples": 1000, "tame_samples": 10000, "precision": 64, "seed": DEFAULT_SEED},
        {"inversion_samples": 50, "tame_samples": 100, "precision": 16},
        ["sweep", "low-degree-j", "--inversion-samples=10", "--tame-samples=50", "--precision=8",
         "--seed=7"],
        "d5943c44aac997ff235c3c82fc407a1479a1f31d3bf03ea690a77c798ca2e705",
        "2f30ac734668376de7ad72d88445f0a48fd4f06b94cabc246ee1fe73b336b64a",
        "5e61874fdd7bab6d9c458134d8fca7edde0d9f59067e1444a11e340a6fe729cc",
    ),
}


def test_the_table_has_one_row_per_sweep_in_order():
    assert list(SWEEP_TABLE) == list(SWEEPS)
    assert [row.number for row in SWEEP_TABLE.values()] == list(range(1, len(SWEEPS) + 1))


@pytest.mark.parametrize("name", SWEEP_TABLE)
def test_criterion(name):
    row, result = SWEEP_TABLE[name], SWEEPS[name]()
    line = (
        f"criterion {row.number:2d} [{row.label}]: {result.verdict.upper()} "
        f"({result.checked} checks, {result.failures} failures)"
    )
    print(line)
    assert result.failures == 0, line
    canonical = json.dumps(
        _sweep_report(result), sort_keys=True, separators=(",", ": "), indent=1
    )
    assert hashlib.sha256(canonical.encode()).hexdigest() == row.report_sha256, f"{name} report changed"
