"""Tests for primality and factorization, with sympy as an out-of-tree oracle."""

import random

import pytest

from jshadow._integers import factorint, is_prime

# Least strong pseudoprime to the prime bases 2..37 (Sorenson-Webster 2017).
PSI_12 = 318665857834031151167461


def test_psi_12_is_composite():
    # Bases 2..37 alone call it prime; base 41 shows it composite.
    assert not is_prime(PSI_12)
    assert factorint(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_is_prime_and_factorint_agree_with_sympy_near_psi_12_and_2_64():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1213)
    for centre in (PSI_12, 2**64):
        near = [centre + d for d in range(-200, 201)]
        spread = [rng.randrange(centre // 2, 2 * centre) for _ in range(200)]
        for n in near + spread:
            assert is_prime(n) == sympy.isprime(n), n
    for _ in range(6):
        n = rng.randrange(2**63, 2**65)
        assert factorint(n) == sympy.factorint(n), n
