"""Exact integer arithmetic helpers shared across the package.

Scalar routines use Python bigints; the vectorized routines are int64 numpy
and are only safe within the documented bounds (callers enforce caps).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

import numpy as np

TRIAL_DIVISION_BOUND = 1_000_000

# Strong-pseudoprime bases making Miller-Rabin deterministic below 3.317e24
# (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_square(n: int) -> bool:
    """Exact perfect-square test; negative integers are never squares."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def is_prime(n: int) -> bool:
    """Deterministic primality for |n| < 3.3e24 via strong-pseudoprime tests."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise OverflowError(f"primality test not certified for {n}")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Find a nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    import random

    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}; factorize(0) raises."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if d * d > n:
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        f = _pollard_brent(m)
        stack.extend((f, m // f))
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of |n|, sorted."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def rational_roots(coeffs) -> list:
    """The rational roots, as sorted Fractions, of the integer polynomial
    with coefficients coeffs, highest degree first (the leading one nonzero).

    A zero constant term gives the root 0 and leaves coeffs[:-1].  Otherwise
    every root is p/q with q | lead, p | constant and gcd(p, q) = 1, tested
    as q^n * P(p/q) by Horner's rule in integers.
    """
    # not imported with this module, which every census process loads: there
    # it cost 0.08 MB peak RSS, 2-5% perfbench census wall time (2-vCPU VM)
    from fractions import Fraction

    if coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if coeffs[-1] == 0:
        return sorted({Fraction(0), *rational_roots(coeffs[:-1])})
    roots = []
    for q in divisors(coeffs[0]):
        for p_abs in divisors(coeffs[-1]):
            if gcd(p_abs, q) != 1:
                continue
            for p in (p_abs, -p_abs):
                v, qk = coeffs[0], 1
                for c in coeffs[1:]:
                    qk *= q
                    v = v * p + c * qk
                if v == 0:
                    roots.append(Fraction(p, q))
    return sorted(roots)


def det(M) -> int:
    """Determinant of an n x n integer matrix, n >= 2, by fraction-free
    (Bareiss) elimination: every division is exact, so every entry stays an
    integer, a minor of M."""
    A = [list(row) for row in M]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if not A[k][k]:
            p = next((i for i in range(k + 1, n) if A[i][k]), None)
            if p is None:
                return 0
            A[k], A[p] = A[p], A[k]
            sign = -sign
        rk = A[k]
        akk = rk[k]
        for i in range(k + 1, n):
            ri = A[i]
            aik = ri[k]
            # columns up to k are never read again, so they are left stale
            ri[k + 1 :] = [(akk * ri[j] - aik * rk[j]) // prev for j in range(k + 1, n)]
        prev = akk
    return sign * A[-1][-1]


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    n = abs(n)
    return all(e == 1 for e in factorize(n).values())


def odd_part(n: int) -> int:
    n = abs(n)
    return n >> ((n & -n).bit_length() - 1) if n else 0


@lru_cache(maxsize=8)
def primes_upto(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array (vectorized sieve of the odd numbers)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


#: PackedSquarefree sieves this many integers at a time, unpacked.
SIEVE_CHUNK = 1 << 24


class PackedSquarefree:
    """Bit-packed squarefree table supporting vectorized random lookups.

    Memory is limit/8 bytes; built in unpacked chunks of SIEVE_CHUNK so
    construction stays sieve-speed even at limit ~ 4e8.
    """

    def __init__(self, limit: int):
        self.limit = limit
        base = primes_upto(isqrt(limit))
        packed = []
        lo = 0
        while lo <= limit:
            hi = min(lo + SIEVE_CHUNK, limit + 1)
            seg = np.ones(hi - lo, dtype=bool)
            if lo == 0:
                seg[0] = False
            for p in base:
                p2 = int(p) * int(p)
                start = ((lo + p2 - 1) // p2) * p2
                if start < hi:
                    seg[start - lo :: p2] = False
            packed.append(np.packbits(seg, bitorder="little"))
            lo = hi
        self._bits = np.concatenate(packed)

    def lookup(self, n: np.ndarray) -> np.ndarray:
        """Vectorized test; caller guarantees 0 <= n <= limit."""
        return (self._bits[n >> 3] >> (n & 7).astype(np.uint8)) & 1 == 1

    def odd_squarefree(self, n: np.ndarray) -> np.ndarray:
        """Vectorized test of the odd part of |n|; caller guarantees
        0 < |n| <= limit."""
        a = np.abs(n)
        return self.lookup(a >> np.bitwise_count((a & -a) - 1))  # strip the 2-power


def vec_isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor-sqrt on non-negative int64 arrays (float seed + correction).

    Exact for 0 <= n < 2**62: there sqrt(n) < 2**31, and the conversion of
    n to float and the float root each err by a relative 2**-53 at most, so
    the float root is within 2**-21 of sqrt(n) and its integer part within
    1 of isqrt(n), too high or too low.  One round, lowering r by 1 if r^2 > n
    and then raising it by 1 if (r + 1)^2 <= n, fixes either; r + 1 <= 2**31
    keeps both squares within int64.
    """
    r = np.sqrt(n, dtype=np.float64).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def vec_is_square(n: np.ndarray) -> np.ndarray:
    """Vectorized perfect-square test, exact for 0 <= n < 2**62."""
    nonneg = n >= 0
    m = np.where(nonneg, n, 0)
    r = vec_isqrt(m)
    return nonneg & (r * r == m)
