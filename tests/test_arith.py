import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from quartic_census.arith import (
    PackedSquarefree,
    det,
    divisors,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    odd_part,
    prime_divisors,
    primes_upto,
    rational_roots,
    vec_is_square,
    vec_isqrt,
)
from quartic_census.forms import poly_mul

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
    # the odd part of |n|, for n of both signs and 2-powers stripped
    n = np.concatenate([-idx, idx, 8 * idx])
    want = [is_squarefree(odd_part(v)) for v in n.tolist()]
    assert packed.odd_squarefree(n).tolist() == want and not all(want)
    # every shift of the strip: 2^k up to 2^62, and odd * 2^k below 2^63
    odd = idx[::2]
    for k in range(63):
        o = odd[odd < 2 ** (63 - k)]
        for sign in (1, -1):
            assert (packed.odd_squarefree(sign * (o << k)) == sf[o]).all(), (k, sign)


def test_odd_part():
    assert odd_part(12) == 3 and odd_part(-40) == 5 and odd_part(7) == 7
    assert odd_part(0) == 0


def test_primes_upto():
    ps = primes_upto(100)
    assert list(ps[:5]) == [2, 3, 5, 7, 11] and ps[-1] == 97
    assert len(primes_upto(10**6)) == 78498


def test_primes_upto_matches_reference():
    # the odd-only sieve against a plain sieve of every integer, at every
    # small limit and at large ones of both parities
    def reference(limit):
        mask = np.ones(max(limit + 1, 2), dtype=bool)
        mask[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        return np.flatnonzero(mask)

    for limit in [*range(2001), 12345, 65536, 999983, 10**6, 10**6 + 1, 4 * 10**6 + 7]:
        got = primes_upto(limit)
        assert got.dtype == np.int64 and np.array_equal(got, reference(limit)), limit


def test_vec_isqrt_and_square():
    big = (2**31 - 1) ** 2  # the largest square below 2^62
    vals = [0, 1, 2, 3, 4, 10**9, 2**61, big - 1, big, big + 1, 2**62 - 1]
    vals += [rng.randint(0, 2**62 - 1) for _ in range(100_000)]
    # the float seed is off by one on either side of a square, so exactness
    # there needs the correction round
    ks = np.array([rng.randrange(2**31) for _ in range(100_000)], dtype=np.int64)
    near = (ks * ks)[:, None] + np.arange(-2, 3)
    vals += [n for n in near.ravel().tolist() if n >= 0]
    r = vec_isqrt(np.array(vals, dtype=np.int64))
    assert r.tolist() == [isqrt(v) for v in vals]
    sq = np.array([n * n for n in range(1, 40)] + [2, 3, 5, -9, -1], dtype=np.int64)
    got = vec_is_square(sq)
    assert got[:39].all() and not got[39:].any()


def _random_poly(deg):
    """An integer polynomial of the given degree, highest coefficient first:
    a product of linear factors q*x - p (repeated and non-integral roots
    included) and a random cofactor, with zero constant terms, negative
    leading coefficients and constants with many divisors among them."""
    n_lin = rng.randint(0, deg)
    co = [rng.choice((1, -1, 2, -3, 6, 12))]
    roots = []
    for _ in range(n_lin):
        if roots and rng.random() < 0.3:
            factor = roots[-1]
        else:
            factor = (rng.randint(1, 4), rng.choice((0, 1, -1, 3, -5, 7, 12, -60)))
        roots.append(factor)
        co = poly_mul(co, factor)
    co = poly_mul(co, [rng.randint(-9, 9) for _ in range(deg - n_lin)] or [1])
    if co[0] == 0:
        co[0] = rng.choice((1, -2))
    return co


def test_rational_roots_vs_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    cases = [
        [2, -3],  # 3/2
        [1, 0, 0],  # a double root 0
        [-4, 0, 9, 0],  # 0 and +-3/2
        [1, -2, 1],  # a double root 1
        [6, 1, -1],  # -1/2, 1/3
        [1, 0, 1],  # none
        [7],  # a nonzero constant
        [1, 0, 0, 0, -720720],  # many divisors, no root
        [2, 561, -1441721, 720720],  # 720, -1001 and 1/2; 240 divisors of 720720
    ]
    cases += [_random_poly(deg) for deg in range(1, 6) for _ in range(80)]
    assert sum(c[-1] == 0 for c in cases) > 20
    for co in cases:
        want = sorted(sp.Poly(co, x).ground_roots())
        got = rational_roots(co)
        assert got == [Fraction(int(r.p), int(r.q)) for r in want], co
        assert rational_roots(tuple(co)) == got
    with pytest.raises(ValueError):
        rational_roots([0, 1, 1])


def test_det_vs_sympy():
    sp = pytest.importorskip("sympy")
    for n in (2, 3, 4, 5):
        for k in range(60):
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if k % 3 == 1:
                # a singular matrix: one row a combination of two others
                i, j, m = rng.sample(range(n), 2) + [rng.randrange(n)]
                M[m] = [2 * a - 3 * b for a, b in zip(M[i], M[j])] if m not in (i, j) else [0] * n
            if k % 3 == 2:
                M[rng.randrange(n)][rng.randrange(n)] = 0
            want = int(sp.Matrix(M).det())
            assert det(M) == want, M
            assert det([tuple(row) for row in M]) == want
            if k % 3 == 1:
                assert want == 0


def _laplace_det(M) -> int:
    """Reference determinant: Laplace expansion along the first row."""
    if len(M) == 2:
        (a, b), (c, d) = M
        return a * d - b * c
    total, sign = 0, 1
    for j, a in enumerate(M[0]):
        if a:
            total += sign * a * _laplace_det([row[:j] + row[j + 1 :] for row in M[1:]])
        sign = -sign
    return total


def test_det_vs_laplace():
    # zero entries, zero pivots, zero columns and repeated rows exercise the
    # row swaps and the early zero of the elimination
    for n in (2, 3, 4, 5):
        for k in range(400):
            M = [[rng.choice((0, 0, 1, -1, rng.randint(-10**6, 10**6))) for _ in range(n)] for _ in range(n)]
            if k % 4 == 1:
                M[rng.randrange(n)] = list(M[rng.randrange(n)])
            if k % 4 == 2:
                for row in M:
                    row[rng.randrange(n)] = 0
            assert det(M) == _laplace_det(M), M
        assert det([[0] * n for _ in range(n)]) == 0
        perm = [[int(j == n - 1 - i) for j in range(n)] for i in range(n)]
        assert det(perm) == _laplace_det(perm) == (-1) ** (n * (n - 1) // 2)


def test_poly_mul_vs_convolve():
    for _ in range(500):
        u = [rng.choice((0, 0, 1, -2, 5)) for _ in range(rng.randint(1, 6))]
        v = [rng.choice((0, 0, 3, -1, 7)) for _ in range(rng.randint(1, 6))]
        assert poly_mul(u, v) == np.convolve(u, v).tolist()
        assert poly_mul(tuple(u), v) == poly_mul(v, u)
