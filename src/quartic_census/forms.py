"""Integer binary quadratic/quartic forms, twisted GL2 actions, and the three
symmetric families of quartic forms fixed by an involution.

Conventions: a binary quadratic form is c2*x^2 + c1*xy + c0*y^2, a binary
quartic is a4*x^4 + a3*x^3*y + a2*x^2*y^2 + a1*x*y^3 + a0*y^4.  The twisted
actions divide by det(T) (quadratics) and det(T)^2 (quartics), so unimodular
matrices always act integrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NonIntegralActionError(ValueError):
    """Twisted action produced non-integral coefficients."""


@dataclass(frozen=True)
class BinQuadForm:
    c2: int
    c1: int
    c0: int

    def disc(self) -> int:
        return self.c1 * self.c1 - 4 * self.c2 * self.c0

    def coeffs(self) -> tuple[int, int, int]:
        return (self.c2, self.c1, self.c0)

    def __call__(self, x: int, y: int) -> int:
        return self.c2 * x * x + self.c1 * x * y + self.c0 * y * y

    def is_primitive(self) -> bool:
        return gcd(gcd(self.c2, self.c1), self.c0) == 1

    def __mul__(self, other: "BinQuadForm") -> "BinQuartForm":
        f2, f1, f0 = self.coeffs()
        g2, g1, g0 = other.coeffs()
        return BinQuartForm(
            f2 * g2,
            f2 * g1 + f1 * g2,
            f2 * g0 + f1 * g1 + f0 * g2,
            f1 * g0 + f0 * g1,
            f0 * g0,
        )

    def __neg__(self) -> "BinQuadForm":
        return BinQuadForm(-self.c2, -self.c1, -self.c0)

    def serialize(self) -> str:
        return f"{self.c2},{self.c1},{self.c0}"

    @staticmethod
    def parse(s: str) -> "BinQuadForm":
        parts = [int(t) for t in s.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected 3 coefficients, got {s!r}")
        return BinQuadForm(*parts)


@dataclass(frozen=True)
class BinQuartForm:
    a4: int
    a3: int
    a2: int
    a1: int
    a0: int

    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.a4, self.a3, self.a2, self.a1, self.a0)

    def disc(self) -> int:
        return disc_quartic(self)

    def __call__(self, x: int, y: int) -> int:
        a4, a3, a2, a1, a0 = self.coeffs()
        return (
            a4 * x**4 + a3 * x**3 * y + a2 * x**2 * y**2 + a1 * x * y**3 + a0 * y**4
        )

    def __neg__(self) -> "BinQuartForm":
        return BinQuartForm(-self.a4, -self.a3, -self.a2, -self.a1, -self.a0)

    def content(self) -> int:
        g = 0
        for c in self.coeffs():
            g = gcd(g, c)
        return g

    def serialize(self) -> str:
        return ",".join(str(c) for c in self.coeffs())

    @staticmethod
    def parse(s: str) -> "BinQuartForm":
        parts = [int(t) for t in s.split(",")]
        if len(parts) != 5:
            raise ValueError(f"expected 5 coefficients, got {s!r}")
        return BinQuartForm(*parts)


@dataclass(frozen=True)
class GL2Mat:
    t1: int
    t2: int
    t3: int
    t4: int

    def det(self) -> int:
        return self.t1 * self.t4 - self.t2 * self.t3

    def __matmul__(self, other: "GL2Mat") -> "GL2Mat":
        return GL2Mat(
            self.t1 * other.t1 + self.t2 * other.t3,
            self.t1 * other.t2 + self.t2 * other.t4,
            self.t3 * other.t1 + self.t4 * other.t3,
            self.t3 * other.t2 + self.t4 * other.t4,
        )


#: The eight matrices T with J_T = +-J for each of the three reference
#: quadratic forms; acting on a family they permute coordinates.
STABILIZER_EIGHT = tuple(
    GL2Mat(s * a, s * b, s * c, s * d)
    for s in (1, -1)
    for (a, b, c, d) in ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))
)


@dataclass(frozen=True)
class FamilyCoords:
    """(A, B, C) coordinates of a quartic form inside family 1, 2, or 3."""

    family: int
    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.family not in (1, 2, 3):
            raise ValueError(f"family must be 1, 2 or 3, got {self.family}")

    def disc_h(self) -> int:
        """Discriminant B^2 - 4AC of the quadratic cover h."""
        return self.B * self.B - 4 * self.A * self.C

    def serialize(self) -> str:
        return f"{self.family}:{self.A},{self.B},{self.C}"

    @staticmethod
    def parse(s: str) -> "FamilyCoords":
        fam, _, rest = s.partition(":")
        parts = [int(t) for t in rest.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected i:A,B,C, got {s!r}")
        return FamilyCoords(int(fam), *parts)


#: Reference quadratic forms of discriminant 1, 4, -4.
J1 = BinQuadForm(0, 1, 0)  # xy
J2 = BinQuadForm(1, 0, -1)  # x^2 - y^2
J3 = BinQuadForm(1, 0, 1)  # x^2 + y^2
REFERENCE_J = {1: J1, 2: J2, 3: J3}


def disc_quadratic(phi: BinQuadForm) -> int:
    """c1^2 - 4*c2*c0, exactly."""
    return phi.disc()


def disc_quartic(F: BinQuartForm) -> int:
    """Discriminant of a binary quartic via the I/J invariants: (4I^3 - J^2)/27."""
    a4, a3, a2, a1, a0 = F.coeffs()
    I = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
    J = (
        72 * a4 * a2 * a0
        + 9 * a3 * a2 * a1
        - 27 * a4 * a1 * a1
        - 27 * a3 * a3 * a0
        - 2 * a2**3
    )
    num = 4 * I**3 - J * J
    assert num % 27 == 0
    return num // 27


def hessian_seminvariants(a4, a3, a2, a1, a0):
    """(H, S) sign invariants controlling the number of real roots, of
    integer coefficients or coefficient-wise of int64 arrays."""
    H = 8 * a4 * a2 - 3 * a3 * a3
    S = (
        3 * a3**4
        - 16 * a4 * a3**2 * a2
        + 16 * a4**2 * a2**2
        + 16 * a4**2 * a3 * a1
        - 64 * a4**3 * a0
    )
    return H, S


def substitute_quartic(F: BinQuartForm, T: GL2Mat) -> tuple[int, int, int, int, int]:
    """Coefficients of F(t1 x + t2 y, t3 x + t4 y) without the det normalization."""
    t1, t2, t3, t4 = T.t1, T.t2, T.t3, T.t4
    a4, a3, a2, a1, a0 = F.coeffs()
    b4 = a4 * t1**4 + a3 * t1**3 * t3 + a2 * t1**2 * t3**2 + a1 * t1 * t3**3 + a0 * t3**4
    b3 = (
        4 * a4 * t1**3 * t2
        + a3 * (t1**3 * t4 + 3 * t1**2 * t2 * t3)
        + a2 * (2 * t1 * t2 * t3**2 + 2 * t1**2 * t3 * t4)
        + a1 * (t2 * t3**3 + 3 * t1 * t3**2 * t4)
        + 4 * a0 * t3**3 * t4
    )
    b2 = (
        6 * a4 * t1**2 * t2**2
        + 3 * a3 * (t1**2 * t2 * t4 + t1 * t2**2 * t3)
        + a2 * (t1**2 * t4**2 + 4 * t1 * t2 * t3 * t4 + t2**2 * t3**2)
        + 3 * a1 * (t1 * t3 * t4**2 + t2 * t3**2 * t4)
        + 6 * a0 * t3**2 * t4**2
    )
    b1 = (
        4 * a4 * t1 * t2**3
        + a3 * (3 * t1 * t2**2 * t4 + t2**3 * t3)
        + a2 * (2 * t1 * t2 * t4**2 + 2 * t2**2 * t3 * t4)
        + a1 * (t1 * t4**3 + 3 * t2 * t3 * t4**2)
        + 4 * a0 * t3 * t4**3
    )
    b0 = a4 * t2**4 + a3 * t2**3 * t4 + a2 * t2**2 * t4**2 + a1 * t2 * t4**3 + a0 * t4**4
    return (b4, b3, b2, b1, b0)


def act_quartic(F: BinQuartForm, T: GL2Mat) -> BinQuartForm:
    """Twisted action F_T(x,y) = F(t1 x + t2 y, t3 x + t4 y) / det(T)^2.

    Raises NonIntegralActionError when det(T)^2 does not divide every
    substituted coefficient (cannot happen for unimodular T).
    """
    d = T.det()
    if d == 0:
        raise ValueError("matrix is singular")
    d2 = d * d
    out = []
    for b in substitute_quartic(F, T):
        if b % d2:
            raise NonIntegralActionError(f"det^2={d2} does not divide coefficient {b}")
        out.append(b // d2)
    return BinQuartForm(*out)


def act_quadratic(phi: BinQuadForm, T: GL2Mat) -> BinQuadForm:
    """Twisted action phi_T(x,y) = phi(t1 x + t2 y, t3 x + t4 y) / det(T)."""
    d = T.det()
    if d == 0:
        raise ValueError("matrix is singular")
    t1, t2, t3, t4 = T.t1, T.t2, T.t3, T.t4
    c2, c1, c0 = phi.coeffs()
    b2 = c2 * t1 * t1 + c1 * t1 * t3 + c0 * t3 * t3
    b1 = 2 * c2 * t1 * t2 + c1 * (t1 * t4 + t2 * t3) + 2 * c0 * t3 * t4
    b0 = c2 * t2 * t2 + c1 * t2 * t4 + c0 * t4 * t4
    out = []
    for b in (b2, b1, b0):
        if b % d:
            raise NonIntegralActionError(f"det={d} does not divide coefficient {b}")
        out.append(b // d)
    return BinQuadForm(*out)


def m_matrix(J: BinQuadForm) -> GL2Mat:
    """The involution [[b, 2c], [-2a, -b]] attached to J = a x^2 + b xy + c y^2."""
    if J.disc() == 0:
        raise ValueError("J must have nonzero discriminant")
    a, b, c = J.coeffs()
    return GL2Mat(b, 2 * c, -2 * a, -b)


def n_beta(J: BinQuadForm) -> int:
    """2 when the middle coefficient of J is odd, else 1."""
    return 2 if J.c1 % 2 else 1


def family_membership(F: BinQuartForm) -> set[int]:
    """Which of the three families contain F (fixed-point test under each involution)."""
    out = set()
    for i, J in REFERENCE_J.items():
        if act_quartic(F, m_matrix(J)) == F:
            out.add(i)
    return out


def to_form(c: FamilyCoords) -> BinQuartForm:
    A, B, C = c.A, c.B, c.C
    if c.family == 1:
        return BinQuartForm(A, 0, B, 0, C)
    if c.family == 2:
        return BinQuartForm(A, B, C + 2 * A, B, A)
    return BinQuartForm(A, B, C - 2 * A, -B, A)


def from_form(F: BinQuartForm, i: int) -> FamilyCoords:
    """Inverse of to_form; requires i in family_membership(F)."""
    a4, a3, a2, a1, a0 = F.coeffs()
    if i == 1:
        c = FamilyCoords(1, a4, a2, a0)
    elif i == 2:
        c = FamilyCoords(2, a4, a3, a2 - 2 * a4)
    elif i == 3:
        c = FamilyCoords(3, a4, a3, a2 + 2 * a4)
    else:
        raise ValueError(f"family must be 1, 2 or 3, got {i}")
    if to_form(c) != F:
        raise ValueError(f"form {F.serialize()} is not in family {i}")
    return c


def family2_to_family1(c: FamilyCoords) -> FamilyCoords:
    """Family-2 coords mapped to family-1 coords of the quarter-scaled transform
    under [[1,1],[-1,1]]; the two forms agree over Z_p for every odd p."""
    if c.family != 2:
        raise ValueError("expects family-2 coordinates")
    A, B, C = c.A, c.B, c.C
    return FamilyCoords(1, 4 * A - 2 * B + C, 2 * (4 * A - C), 4 * A + 2 * B + C)


def jacobian_det(f: BinQuadForm, g: BinQuadForm) -> BinQuadForm:
    """Half the Jacobian determinant of the pair (f, g), itself a quadratic form."""
    f2, f1, f0 = f.coeffs()
    g2, g1, g0 = g.coeffs()
    return BinQuadForm(
        f2 * g1 - f1 * g2,
        2 * (f2 * g0 - f0 * g2),
        f1 * g0 - f0 * g1,
    )


def is_primitive_pair(f: BinQuadForm, g: BinQuadForm) -> bool:
    """True iff the pair's Jacobian form J has nonzero discriminant and
    gcd(J_2, J_1/2, J_0) == 1 (the middle coefficient is even by construction)."""
    j = jacobian_det(f, g)
    if j.disc() == 0:
        return False
    assert j.c1 % 2 == 0
    return gcd(gcd(j.c2, j.c1 // 2), j.c0) == 1


def coords_orbit(c: FamilyCoords) -> list[FamilyCoords]:
    """Orbit of family coordinates under the eight stabilizer matrices.

    Families 1: {(A,B,C), (C,B,A)}; families 2 and 3: {(A,B,C), (A,-B,C)}.
    """
    if c.family == 1:
        other = FamilyCoords(1, c.C, c.B, c.A)
    else:
        other = FamilyCoords(c.family, c.A, -c.B, c.C)
    return [c] if other == c else [c, other]
