import random
from math import isqrt

import numpy as np

from quartic_census.arith import (
    PackedSquarefree,
    divisors,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    odd_part,
    prime_divisors,
    primes_upto,
    vec_is_square,
    vec_isqrt,
)

rng = random.Random(9)


def squarefree_sieve(limit: int) -> np.ndarray:
    """Boolean array sf with sf[n] == True iff 1 <= n <= limit is squarefree:
    the unpacked reference for PackedSquarefree."""
    sf = np.ones(limit + 1, dtype=bool)
    sf[0] = False
    for p in primes_upto(isqrt(limit)):
        sf[p * p :: p * p] = False
    return sf


def test_is_square():
    assert is_square(0) and is_square(1) and is_square(144)
    assert not is_square(-4) and not is_square(2)
    for _ in range(200):
        n = rng.randint(0, 10**12)
        assert is_square(n * n)
        assert not is_square(n * n + 1) or n == 0


def test_is_prime():
    small = {p for p in range(2, 200) if all(p % d for d in range(2, p))}
    for n in range(-5, 200):
        assert is_prime(n) == (n in small)
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert is_prime(2**61 - 1)


def test_factorize_and_divisors():
    for _ in range(200):
        n = rng.randint(1, 10**9)
        fs = factorize(n)
        prod = 1
        for p, e in fs.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    assert factorize(-12) == {2: 2, 3: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert prime_divisors(360) == [2, 3, 5]
    # semiprime beyond the trial bound exercises the rho splitter
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q) == {p: 1, q: 1}


def test_squarefree():
    assert is_squarefree(1) and is_squarefree(-15) and not is_squarefree(12)
    assert not is_squarefree(0)
    sf = squarefree_sieve(3000)
    for n in range(1, 3001):
        assert bool(sf[n]) == is_squarefree(n)
    packed = PackedSquarefree(3000)
    idx = np.arange(1, 3001, dtype=np.int64)
    assert (packed.lookup(idx) == sf[1:]).all()
    assert packed[10] and not packed[12]


def test_odd_part():
    assert odd_part(12) == 3 and odd_part(-40) == 5 and odd_part(7) == 7
    assert odd_part(0) == 0


def test_primes_upto():
    ps = primes_upto(100)
    assert list(ps[:5]) == [2, 3, 5, 7, 11] and ps[-1] == 97
    assert len(primes_upto(10**6)) == 78498


def test_vec_isqrt_and_square():
    vals = [0, 1, 2, 3, 4, 10**9, 2**61, 2**62 - 1]
    vals += [rng.randint(0, 2**62 - 1) for _ in range(500)]
    arr = np.array(vals, dtype=np.int64)
    r = vec_isqrt(arr)
    for v, s in zip(vals, r):
        assert int(s) == isqrt(v)
    sq = np.array([n * n for n in range(1, 40)] + [2, 3, 5, -9, -1], dtype=np.int64)
    got = vec_is_square(sq)
    assert got[:39].all() and not got[39:].any()
