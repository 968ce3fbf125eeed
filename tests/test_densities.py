import math
import random

import pytest

from quartic_census.arith import is_squarefree
from quartic_census.densities import (
    PRIME_LIMIT_MAX,
    DensityTable,
    euler_product,
    rho1,
    rho2,
    rho2_prime,
    rho2_zero,
    rho_v4,
)

rng = random.Random(31)


def test_rho1_examples():
    assert rho1(1, 3) == 15
    assert rho1(1, 2) == 8
    assert rho1(1, 1) == 1


def test_rho2_examples():
    assert rho2_zero(1) == 4
    assert rho2(1, 3) == 15
    assert rho2_prime(1, 3) == 60
    assert rho2(1, 2) == 4


def test_rho_v4_examples():
    assert rho_v4(3) == 27
    # the paper displays 9 at p = 2; the computed count is 10 and is backed by
    # the order oracle (see the acceptance suite for the full story)
    assert rho_v4(2) == 10
    assert rho_v4(6) == rho_v4(2) * rho_v4(3)


def test_closed_forms_sampled():
    for a in (-50, -15, -6, -1, 1, 2, 3, 10, 21, 47):
        if not is_squarefree(a):
            continue
        assert rho1(a, 2) == 8 and rho2(a, 2) == 4 and rho2_zero(a) == 4
        for p in (3, 5, 7):
            assert rho1(a, p) == p * (2 * p - 1)
            assert rho2(a, p) == p * (2 * p - 1)
            assert rho2_prime(a, p) == 4 * rho2(a, p)
    for p in (3, 5, 7):
        assert rho_v4(p) == p * (4 * p - 3)


def test_multiplicativity():
    for a in (1, 3, -5):
        assert rho1(a, 6) == rho1(a, 2) * rho1(a, 3)
        assert rho2(a, 10) == rho2(a, 2) * rho2(a, 5)
    assert rho_v4(15) == rho_v4(3) * rho_v4(5)


def test_carefree_factor_link():
    # 1 - rho1(a,p)/p^4 equals the removed Euler factor 1 - (2p-1)/p^3
    for a in (1, 2, -7):
        for p in (3, 5, 7, 11):
            assert rho1(a, p) * p == p * p * (2 * p - 1) * 1
            assert 1 - rho1(a, p) / p**4 == 1 - (2 * p - 1) / p**3


def test_euler_product():
    v, t = euler_product("carefree", 2)
    assert v == 0.625 and t > 0
    v6, t6 = euler_product("carefree", 10**6)
    v7, t7 = euler_product("carefree", 10**7)
    assert abs(v6 - v7) <= t6 + t7
    # the defining product evaluates near 0.42825; scaled by zeta(2) it gives
    # the classical coprime-and-squarefree pair density 0.704442
    assert abs(v7 - 0.4282495) < 2e-6
    assert abs(v7 * math.pi**2 / 6 - 0.7044422) < 2e-6
    vv, tv = euler_product("v4", 10**6)
    assert 0.17 < vv < 0.19 and tv < 1e-5
    # refused before the sieve is allocated
    with pytest.raises(ValueError):
        euler_product("carefree", PRIME_LIMIT_MAX + 1)


def test_density_table_csv():
    row = DensityTable("rho1", 1, 3, 15, 81).csv_row(15)
    assert row == "rho1,1,3,15,81,15,1"
