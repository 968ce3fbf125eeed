"""Irreducibility, Galois tagging (V4/C4/D4), real signatures, reducibility
types, and canonical orbit representatives for family coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, isqrt

from .arith import divisors, is_square, rational_roots
from .forms import (
    BinQuadForm,
    BinQuartForm,
    FamilyCoords,
    coords_orbit,
    disc_quartic,
    from_form,
    hessian_seminvariants,
    to_form,
)
from .resolvent import conductor_poly


class GaloisTag(Enum):
    V4 = "v4"
    C4 = "c4"
    D4 = "d4"
    LARGE = "large"
    REDUCIBLE = "reducible"


class ReducibleType(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class RealSignature:
    """r2 complex-conjugate root pairs; F(x,1) has 4 - 2*r2 real roots."""

    r2: int


def is_irreducible(F: BinQuartForm) -> bool:
    """Exact irreducibility of F(x,1) over Q (a4 != 0 required).

    Linear factors via the rational root theorem, quadratic splittings by
    solving the coefficient system over divisors of a4 and a0 (integral
    splittings suffice by Gauss's lemma after stripping the content).
    """
    if F.a4 == 0:
        raise ValueError("a4 must be nonzero")
    cont = F.content()
    co = [v // cont for v in F.coeffs()]
    return not rational_roots(co) and _quadratic_split(*co) is None


def _quadratic_split(a4, a3, a2, a1, a0):
    """An integral splitting (p,q,r),(s,t,u) of a primitive quartic, or None.

    System: ps=a4, qs+pt=a3, pu+qt+rs=a2, qu+rt=a1, ru=a0.  For fixed outer
    coefficients the pair (q,t) solves a 2x2 linear system; in the degenerate
    determinant case t = (a3 - qs)/p turns the a2 equation into the quadratic
    s q^2 - a3 q + p (a2 - pu - rs) = 0.
    """
    for p in divisors(a4):
        s = a4 // p
        for u_abs in divisors(a0):
            for u in (u_abs, -u_abs):
                r = a0 // u
                det = s * r - p * u
                if det != 0:
                    if (a3 * r - p * a1) % det or (s * a1 - u * a3) % det:
                        continue
                    q = (a3 * r - p * a1) // det
                    t = (s * a1 - u * a3) // det
                    if p * u + q * t + r * s == a2:
                        return (p, q, r), (s, t, u)
                else:
                    d = a3 * a3 - 4 * s * p * (a2 - p * u - r * s)
                    if not is_square(d):
                        continue
                    for num in (a3 + isqrt(d), a3 - isqrt(d)):
                        if num % (2 * s) or (a3 - num // (2 * s) * s) % p:
                            continue
                        q = num // (2 * s)
                        t = (a3 - q * s) // p
                        if q * u + t * r == a1 and p * u + q * t + r * s == a2:
                            return (p, q, r), (s, t, u)
    return None


def galois_tag(c: FamilyCoords) -> GaloisTag:
    """Galois tag of a family form: REDUCIBLE, else V4 / C4 / D4.

    V4 iff disc(F) is a square; C4 iff disc non-square but the conductor
    polynomial is a (positive) square; else D4.
    """
    F = to_form(c)
    d = disc_quartic(F)
    if d == 0:
        raise ValueError("form has zero discriminant")
    if not is_irreducible(F):
        return GaloisTag.REDUCIBLE
    if is_square(d):
        return GaloisTag.V4
    if is_square(conductor_poly(c)):
        return GaloisTag.C4
    return GaloisTag.D4


def galois_tag_form(F: BinQuartForm) -> GaloisTag:
    """Tag for an arbitrary quartic form; LARGE when F lies in no family."""
    from .forms import family_membership

    fams = family_membership(F)
    if fams:
        return galois_tag(from_form(F, min(fams)))
    if disc_quartic(F) == 0:
        raise ValueError("form has zero discriminant")
    return GaloisTag.LARGE if is_irreducible(F) else GaloisTag.REDUCIBLE


def real_signature(F: BinQuartForm) -> RealSignature:
    """Number of conjugate root pairs via the disc/H/S sign table."""
    d = disc_quartic(F)
    if d == 0:
        raise ValueError("form has zero discriminant")
    if d < 0:
        return RealSignature(1)
    H, S = hessian_seminvariants(*F.coeffs())
    if S > 0 and H < 0:
        return RealSignature(0)
    return RealSignature(2)


def family_real_signature(c: FamilyCoords) -> RealSignature:
    """The real signature of family coordinates, by the generic rule on the
    embedded form."""
    return real_signature(to_form(c))


def reducible_type(F: BinQuartForm, i: int) -> ReducibleType:
    """Factorization shape of a reducible family form.

    TYPE1: F = m * phi * phi' with phi' the involution image of phi.
    TYPE2: F = phi * psi with both factors anti-fixed by the involution.
    """
    if F.a4 == 0:
        raise ValueError("a4 must be nonzero")
    if disc_quartic(F) == 0:
        raise ValueError("form has zero discriminant")
    if is_irreducible(F):
        return ReducibleType.IRREDUCIBLE
    c = from_form(F, i)
    if type2_witness(c) is not None:
        return ReducibleType.TYPE2
    if type1_witness(c) is not None:
        return ReducibleType.TYPE1
    raise AssertionError(f"reducible family form matched neither type: {F}")


def type2_witness(c: FamilyCoords):
    """Anti-fixed splitting F = phi * psi, or None.

    In every family the anti-fixed shapes multiply to ac = A, bd = C,
    ad + bc = B, so witnesses come from divisor pairs of A and C; when C = 0
    one middle coefficient vanishes and the other is pinned by B.
    """
    A, B, C = c.A, c.B, c.C
    if A == 0:
        return None
    for a in divisors(A):
        for sa in (a, -a):
            ca = A // sa
            if C == 0:
                if B % sa == 0:
                    return _assemble_type2(c, sa, 0, ca, B // sa)
                if B % ca == 0:
                    return _assemble_type2(c, sa, B // ca, ca, 0)
                continue
            for b in divisors(C):
                for sb in (b, -b):
                    d = C // sb
                    if sa * d + sb * ca == B:
                        return _assemble_type2(c, sa, sb, ca, d)
    return None


def _assemble_type2(c, a, b, cc, d):
    if c.family == 1:
        phi, psi = BinQuadForm(a, 0, b), BinQuadForm(cc, 0, d)
    elif c.family == 2:
        phi, psi = BinQuadForm(a, b, a), BinQuadForm(cc, d, cc)
    else:
        phi, psi = BinQuadForm(a, b, -a), BinQuadForm(cc, d, -cc)
    assert phi * psi == to_form(c)
    return (phi, psi)


def type1_witness(c: FamilyCoords):
    """Splitting F = m * phi * phi_involution, or None.

    Per-family coordinate shapes with integral phi:
      i=1: (A,B,C) = (m a^2, m(2ac - b^2), m c^2)
      i=2: (A,B,C) = (m ac,  m b(a+c),    m((a-c)^2 + b^2))
      i=3: (A,B,C) = (m ac,  m b(c-a),    m((a+c)^2 - b^2))
    m is integral after scaling phi primitive except possibly for a factor 2,
    so the search also runs on the doubled coordinates.
    """
    for scale in (1, 2):
        w = _type1_search(c.family, scale * c.A, scale * c.B, scale * c.C, scale)
        if w is not None:
            return w
    return None


def _type1_search(i, A, B, C, scale):
    if A == 0:
        return None
    g = gcd(gcd(A, B), C)
    for m in divisors(g):
        for sm in (m, -m):
            if scale == 2 and sm % 2 == 0:
                continue  # even m on doubled coords duplicates scale-1 hits
            Am, Bm, Cm = A // sm, B // sm, C // sm
            if i == 1:
                if Am < 0 or Cm < 0 or not is_square(Am) or not is_square(Cm):
                    continue
                a, cc = isqrt(Am), isqrt(Cm)
                for sc in (cc, -cc) if cc else (0,):
                    b2 = 2 * a * sc - Bm
                    if is_square(b2):
                        return (sm, scale, BinQuadForm(a, isqrt(b2), sc))
            else:
                for a in divisors(Am):
                    for sa in (a, -a):
                        cc = Am // sa
                        if i == 2:
                            b2 = Cm - (sa - cc) ** 2
                            lin = sa + cc
                        else:
                            b2 = (sa + cc) ** 2 - Cm
                            lin = cc - sa
                        if not is_square(b2):
                            continue
                        b = isqrt(b2)
                        for sb in (b, -b) if b else (0,):
                            if sb * lin == Bm:
                                return (sm, scale, BinQuadForm(sa, sb, cc))
    return None


def canonical_coords(c: FamilyCoords) -> tuple[FamilyCoords, bool]:
    """Orbit representative under the eight stabilizer matrices.

    Families 1: the member with |C| > |A|; families 2/3: the member with the
    dominant side positive (equivalently B > 0 for i=3).  On a tied orbit the
    lexicographically smallest member is returned with the boundary flag set.
    """
    F = to_form(c)
    if disc_quartic(F) == 0:
        raise ValueError("form has zero discriminant")
    orbit = coords_orbit(c)
    if len(orbit) == 1:
        return c, False
    k1, k2 = (_canon_key(x) for x in orbit)
    if k1 == k2:
        pick = min(orbit, key=lambda x: (x.A, x.B, x.C))
        return pick, True
    return (orbit[0] if k1 > k2 else orbit[1]), False


def _canon_key(c: FamilyCoords) -> int:
    if c.family == 1:
        return abs(c.C)
    if c.family == 2:
        return abs(4 * c.A + 2 * c.B + c.C)
    return c.B


def is_canonical(c: FamilyCoords) -> bool:
    canon, _ = canonical_coords(c)
    return canon == c
