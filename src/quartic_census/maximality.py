"""Explicit p-maximality criteria for the three families and the global
maximality decision via discriminant factorization.

All congruences are evaluated on mathematical residues (Python %, or the
low bits at p = 2 in the vectorized form), never on quotients, so negative
coefficients behave correctly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arith import factorize, is_squarefree
from .forms import FamilyCoords, disc_quartic, to_form


@dataclass(frozen=True)
class MaximalityReport:
    is_maximal: bool
    failing_prime: int | None = None
    reason: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "maximal": self.is_maximal,
                "failing_prime": self.failing_prime,
                "clause": self.reason,
            }
        )


def is_maximal_at(c: FamilyCoords, p: int) -> bool:
    """Whether the quartic ring of the family form is maximal at the prime p."""
    return _maximality_clause(c, p) is None


def _maximality_clause(c: FamilyCoords, p: int) -> str | None:
    """None when maximal at p, else a short name of the violated clause."""
    A, B, C = c.A, c.B, c.C
    i = c.family
    if p == 2:
        if A % 2 == 0 and B % 2 == 0 and C % 2 == 0:
            return "all coefficients even"
        if i == 1:
            if A % 4 == 0:
                return "A = 0 mod 4"
            if C % 4 == 0:
                return "C = 0 mod 4"
            if A % 2 and B % 2 and C % 2:
                if (A + B) % 4 and (B + C) % 4:
                    return "all odd: A+B and B+C nonzero mod 4"
            elif (A + B + C) % 4 == 0:
                return "A+B+C = 0 mod 4"
            return None
        if i == 2:
            if (2 * B + C) % 4 == 0:
                return "2B+C = 0 mod 4"
        elif C % 4 == 0:
            return "C = 0 mod 4"
        if C % 2 and B % 2 == 0:
            if A % 4 == 0:
                return "A = 0 mod 4"
            if (A - B + C) % 4 == 0:
                return "A-B+C = 0 mod 4"
        return None
    # odd primes
    if A % p == 0 and B % p == 0 and C % p == 0:
        return "all coefficients divisible by p"
    p2 = p * p
    if (B * B - 4 * A * C) % p2 == 0:
        return "B^2-4AC = 0 mod p^2"
    if i == 1:
        if A % p2 == 0:
            return "A = 0 mod p^2"
        if C % p2 == 0:
            return "C = 0 mod p^2"
        return None
    if i == 2:
        if (4 * A - 2 * B + C) % p2 == 0:
            return "4A-2B+C = 0 mod p^2"
        if (4 * A + 2 * B + C) % p2 == 0:
            return "4A+2B+C = 0 mod p^2"
        return None
    q = (4 * A - C) ** 2 + 4 * B * B
    if (4 * A - C) % p == 0 and B % p == 0:
        if q % p**3 == 0:
            return "(4A-C)^2+4B^2 = 0 mod p^3"
    elif q % p2 == 0:
        return "(4A-C)^2+4B^2 = 0 mod p^2"
    return None


def vec_is_maximal_at(i: int, A, B, C, p: int):
    """Vectorized transcription of is_maximal_at over numpy integer arrays.

    Inputs may mix scalars and arrays (broadcast); residue representatives and
    full values give identical answers since every clause is a congruence.
    """
    import numpy as np

    A, B, C = np.asarray(A), np.asarray(B), np.asarray(C)
    if p == 2:
        # floor-mod by 2^k is the low k bits in two's complement, so the
        # masks & 1 and & 3 are exact residues of signed integers too
        not_all_even = ((A | B | C) & 1) != 0
        if i == 1:
            all_odd = (A & B & C & 1) != 0
            odd_case = (((A + B) & 3) == 0) | (((B + C) & 3) == 0)
            even_case = ((A + B + C) & 3) != 0
            return (
                not_all_even
                & ((A & 3) != 0)
                & ((C & 3) != 0)
                & np.where(all_odd, odd_case, even_case)
            )
        head = (((2 * B + C) if i == 2 else C) & 3) != 0
        sub = (C & ~B & 1) != 0  # C odd, B even
        sub_ok = ((A & 3) != 0) & (((A - B + C) & 3) != 0)
        return not_all_even & head & np.where(sub, sub_ok, True)
    not_all = (A % p != 0) | (B % p != 0) | (C % p != 0)
    p2 = p * p
    dh_ok = (B * B - 4 * A * C) % p2 != 0
    if i == 1:
        return not_all & dh_ok & (A % p2 != 0) & (C % p2 != 0)
    if i == 2:
        return (
            not_all
            & dh_ok
            & ((4 * A - 2 * B + C) % p2 != 0)
            & ((4 * A + 2 * B + C) % p2 != 0)
        )
    q = (4 * A - C) ** 2 + 4 * B * B
    deep = ((4 * A - C) % p == 0) & (B % p == 0)
    return not_all & dh_ok & np.where(deep, q % p**3 != 0, q % p2 != 0)


def is_maximal(c: FamilyCoords) -> MaximalityReport:
    """Global maximality: factor disc(F) and test every prime divisor.

    Primes not dividing the discriminant are automatically maximal, so the
    factorization of disc(F) is the complete prime list to check.
    """
    d = disc_quartic(to_form(c))
    if d == 0:
        raise ValueError("form has zero discriminant")
    for p in sorted(factorize(d)):
        clause = _maximality_clause(c, p)
        if clause is not None:
            return MaximalityReport(False, p, clause)
    return MaximalityReport(True)


def is_fundamental_discriminant(D: int) -> bool:
    """D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree."""
    if D == 0:
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False
