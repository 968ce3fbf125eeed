"""Brute-force local densities of non-maximal residue classes, and the Euler
products with certified tail bounds that feed the leading constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import prime_divisors, primes_upto
from .maximality import vec_is_maximal_at

#: euler_product sieves the primes up to prime_limit: a 100 MB table at this
#: cap.
PRIME_LIMIT_MAX = 10**8


@dataclass(frozen=True)
class DensityTable:
    kind: str
    a: int | None
    m: int
    rho: int
    space: int

    def csv_row(self, closed_form: int | None = None) -> str:
        match = "" if closed_form is None else str(int(self.rho == closed_form))
        cf = "" if closed_form is None else str(closed_form)
        return f"{self.kind},{self.a if self.a is not None else ''},{self.m},{self.rho},{self.space},{cf},{match}"


def _grid(m2: int):
    b = np.arange(m2, dtype=np.int64)[:, None]
    c = np.arange(m2, dtype=np.int64)[None, :]
    return b, c


def _nonmax_all(i: int, A, B, C, m: int):
    mask = None
    for p in prime_divisors(m):
        cur = ~vec_is_maximal_at(i, A, B, C, p)
        mask = cur if mask is None else (mask & cur)
    return mask


def rho1(a: int, m: int) -> int:
    """Count of (b, c) mod m^2 whose family-1 form (a, b, c) fails maximality
    at every prime dividing m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    m2 = m * m
    b, c = _grid(m2)
    return int(_nonmax_all(1, a, b, c, m).sum())


def rho2(a: int, m: int) -> int:
    """Count of (r, s) mod m^2 whose family-2 form (r, s, a-4r+2s) fails
    maximality at every prime dividing m (a = first transform coordinate)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    m2 = m * m
    r, s = _grid(m2)
    return int(_nonmax_all(2, r, s, a - 4 * r + 2 * s, m).sum())


def _descent_mask(a: int):
    """The (b, c) mod 16 for which the family-1 triple (a, b, c) descends to
    integral family-2 coordinates under the quarter-scaling transform."""
    b, c = _grid(16)
    return ((a + b + c) % 16 == 0) & ((-a + c) % 4 == 0) & ((a - b + c) % 4 == 0)


def rho2_zero(a: int) -> int:
    """Count of the (b, c) mod 16 in the descent mask of a."""
    return int(_descent_mask(a).sum())


def rho2_prime(a: int, m: int) -> int:
    """Count of (b, c) mod 16 m^2 satisfying both the integrality condition
    mod 16 and the family-2 non-maximality condition on the descended pair.

    Only the (at most 16^2) residues passing the mod-16 condition can
    contribute, so the enumeration walks their fibers; this is a direct count
    of the defining set, not an application of the 4x identity.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    m2 = m * m
    total = 0
    kb = np.arange(m2, dtype=np.int64)[:, None]
    kc = np.arange(m2, dtype=np.int64)[None, :]
    for b0, c0 in zip(*np.nonzero(_descent_mask(a))):
        if m == 1:
            total += 1
            continue
        b = int(b0) + 16 * kb
        c = int(c0) + 16 * kc
        r = (a + b + c) // 16
        s = (-a + c) // 4
        total += int(_nonmax_all(2, r, s, a - 4 * r + 2 * s, m).sum())
    return total


def rho_v4(m: int) -> int:
    """Count of (a, b) mod m^2 whose symmetric form a x^4 + b x^2 y^2 + a y^4
    fails maximality at every prime dividing m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    m2 = m * m
    a, b = _grid(m2)
    return int(_nonmax_all(1, a, b, a, m).sum())


#: per-prime removed density terms: kind -> (numerator(p), crude bound k with
#: term <= k/p^2)
_EULER_KINDS = {
    "carefree": (lambda p: (2.0 * p - 1.0) / p**3, 2.0),
    "v4": (lambda p: (4.0 * p - 3.0) / p**3, 4.0),
}


def euler_product(kind: str, prime_limit: int) -> tuple[float, float]:
    """Partial Euler product over p <= prime_limit with a rigorous tail bound.

    The product is prod_p (1 - t_p) with t_p = (2p-1)/p^3 ("carefree") or
    (4p-3)/p^3 ("v4").  With t_p <= k/p^2, the omitted factor lies in
    [exp(-(k+1)/L), 1], so |full - partial| <= partial * (k+1)/L.
    """
    if kind not in _EULER_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if prime_limit > PRIME_LIMIT_MAX:
        raise ValueError(f"prime_limit={prime_limit} exceeds the supported bound {PRIME_LIMIT_MAX}")
    term, k = _EULER_KINDS[kind]
    ps = primes_upto(prime_limit)
    if len(ps) == 0:
        return 1.0, 1.0
    pf = ps.astype(np.float64)
    logs = np.log1p(-term(pf))
    value = math.exp(math.fsum(logs.tolist()))
    tail = value * (k + 1.0) / prime_limit
    return value, tail
