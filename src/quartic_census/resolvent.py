"""Decomposition F = h(f, g) through the rank-2 lattice of quadratic forms
anti-fixed by the involution of J, conductor polynomials, and the cubic
resolvent apparatus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .arith import det, rational_roots
from .forms import (
    BinQuadForm,
    BinQuartForm,
    FamilyCoords,
    J1,
    J2,
    J3,
    REFERENCE_J,
    disc_quartic,
    is_primitive_pair,
    jacobian_det,
    m_matrix,
    n_beta,
    substitute_quartic,
    to_form,
)


@dataclass(frozen=True)
class WBasis:
    f: BinQuadForm
    g: BinQuadForm


@dataclass(frozen=True)
class Decomposition:
    h: BinQuadForm
    f: BinQuadForm
    g: BinQuadForm
    J: BinQuadForm

    def reconstruct(self) -> BinQuartForm:
        """Expand h(f, g) back into a quartic form."""
        h2, h1, h0 = self.h.coeffs()
        ff, fg, gg = self.f * self.f, self.f * self.g, self.g * self.g
        co = [
            h2 * a + h1 * b + h0 * c
            for a, b, c in zip(ff.coeffs(), fg.coeffs(), gg.coeffs())
        ]
        return BinQuartForm(*co)

    def to_json(self) -> str:
        return json.dumps(
            {
                "h": list(self.h.coeffs()),
                "f": list(self.f.coeffs()),
                "g": list(self.g.coeffs()),
                "J": list(self.J.coeffs()),
            }
        )


_HARDCODED_BASES = {
    J1: (BinQuadForm(1, 0, 0), BinQuadForm(0, 0, 1)),  # x^2, y^2
    J2: (BinQuadForm(1, 0, 1), BinQuadForm(0, 1, 0)),  # x^2 + y^2, xy
    J3: (BinQuadForm(1, 0, -1), BinQuadForm(0, 1, 0)),  # x^2 - y^2, xy
}


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def w_lattice_basis(J: BinQuadForm) -> WBasis:
    """A primitive pair spanning the lattice of forms anti-fixed by the
    involution of J (hard-coded for the three reference forms)."""
    if J.disc() == 0:
        raise ValueError("J must have nonzero discriminant")
    if not J.is_primitive():
        raise ValueError("J must be primitive")
    if J in _HARDCODED_BASES:
        f, g = _HARDCODED_BASES[J]
    else:
        a, b, c = J.coeffs()
        v1, v2 = _integer_kernel([[2 * c, -b, 2 * a]])
        f, g = BinQuadForm(*v1), BinQuadForm(*v2)
    jac = jacobian_det(f, g)
    nb = n_beta(J)
    assert jac in (
        BinQuadForm(nb * J.c2, nb * J.c1, nb * J.c0),
        BinQuadForm(-nb * J.c2, -nb * J.c1, -nb * J.c0),
    ), "basis construction violated the Jacobian normalization"
    assert is_primitive_pair(f, g)
    return WBasis(f, g)


def decompose(F: BinQuartForm, J: BinQuadForm) -> Decomposition:
    """Write F = h(f, g) with (f, g) the lattice basis for J.

    F must be fixed by the involution of J and have nonzero discriminant.
    h comes from the primitive integer kernel vector (h, 1) of the 5x4
    matrix [ff fg gg -F]; an integral h is asserted.
    """
    if disc_quartic(F) == 0:
        raise ValueError("F must have nonzero discriminant")
    # fixed means F(M(x, y)) = det(M)^2 * F; comparing before the division
    # also rejects the forms whose twisted action would not be integral
    M = m_matrix(J)
    d2 = M.det() ** 2
    if substitute_quartic(F, M) != tuple(d2 * a for a in F.coeffs()):
        raise ValueError("F is not fixed by the involution of J")
    basis = w_lattice_basis(J)
    f, g = basis.f, basis.g
    rows = zip((f * f).coeffs(), (f * g).coeffs(), (g * g).coeffs(), F.coeffs())
    kernel = _integer_kernel([[a, b, c, -t] for a, b, c, t in rows])
    if len(kernel) != 1 or kernel[0][3] not in (1, -1):
        raise AssertionError("decomposition system had no integral solution")
    k = kernel[0]
    h = BinQuadForm(k[3] * k[0], k[3] * k[1], k[3] * k[2])
    dec = Decomposition(h, f, g, J)
    assert dec.reconstruct() == F
    return dec


def conductor_poly(c: FamilyCoords) -> int:
    """Conductor polynomial of a family form: disc(F)/disc(h), 0 when disc(F)=0."""
    A, B, C = c.A, c.B, c.C
    dh = B * B - 4 * A * C
    if c.family == 1:
        return 16 * A * C * dh
    if c.family == 2:
        return (4 * A - 2 * B + C) * (4 * A + 2 * B + C) * dh
    return ((4 * A - C) ** 2 + 4 * B * B) * dh


def conductor_of_decomposition(dec: Decomposition) -> int:
    """disc(F)/disc(h) for an arbitrary decomposition (exact division)."""
    dF = disc_quartic(dec.reconstruct())
    dh = dec.h.disc()
    if dF == 0:
        return 0
    assert dh != 0 and dF % dh == 0
    return dF // dh


def resolvent_cubic(F: BinQuartForm) -> tuple[int, int, int, int]:
    """Coefficients (c3, c2, c1, c0) of the cubic resolvent polynomial of F."""
    a4, a3, a2, a1, a0 = F.coeffs()
    return (
        a4**3,
        -(a4**2) * a2,
        a4 * (a3 * a1 - 4 * a4 * a0),
        -(a3**2 * a0 + a4 * a1**2 - 4 * a4 * a2 * a0),
    )


def rational_resolvent_root(F: BinQuartForm, family: int | None = None) -> Fraction:
    """The rational root of the cubic resolvent.

    Family members get the closed forms B/A, 2, -2; other forms fall back to
    a rational-root search (raises when no rational root exists).
    """
    if family is not None:
        from .forms import from_form

        c = from_form(F, family)
        if family == 2:
            return Fraction(2)
        if family == 3:
            return Fraction(-2)
        if c.A != 0:
            return Fraction(c.B, c.A)
    roots = rational_roots(resolvent_cubic(F))
    if not roots:
        raise ValueError("resolvent cubic has no rational root")
    return roots[0]


def theta_invariants(F: BinQuartForm, family: int | None = None) -> tuple[int, int]:
    """The two square-test invariants separating cyclic from dihedral Galois
    action, both scaled by denominator(r)^2 so they stay integral.

    A value is a rational square exactly when the returned integer is a
    perfect square.
    """
    a4, a3, a2, a1, a0 = F.coeffs()
    r = rational_resolvent_root(F, family)
    p, q = r.numerator, r.denominator
    d = disc_quartic(F)
    t1 = (a3 * a3 * q - 4 * a4 * (a2 * q - p * a4)) * q * d
    t2 = a4 * (p * p * a4 - 4 * a0 * q * q) * d
    return (t1, t2)


@dataclass(frozen=True)
class TernaryQuadForm:
    """u11 x^2 + u22 y^2 + u33 z^2 + u12 xy + u13 xz + u23 yz."""

    u11: int
    u22: int
    u33: int
    u12: int
    u13: int
    u23: int


@dataclass(frozen=True)
class TernaryPair:
    U: TernaryQuadForm
    V: TernaryQuadForm


def ternary_pair(F: BinQuartForm) -> TernaryPair:
    """The pair of ternary quadratic forms presenting the quartic ring of F
    together with its monogenic cubic resolvent."""
    a4, a3, a2, a1, a0 = F.coeffs()
    U0 = TernaryQuadForm(0, 0, 1, -1, 0, 0)
    V = TernaryQuadForm(a0, a4, a2, 0, a1, a3)
    return TernaryPair(U0, V)


def _integer_kernel(M: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel of an m x n matrix (column operations)."""
    m, n = len(M), len(M[0])
    A = [row[:] for row in M]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(j, k, s, t, u, v):
        # (col_j, col_k) <- (s*col_j + t*col_k, u*col_j + v*col_k)
        for X in (A, U):
            for row in X:
                row[j], row[k] = s * row[j] + t * row[k], u * row[j] + v * row[k]

    pivot_col = 0
    for row in range(m):
        if pivot_col >= n:
            break
        nz = [j for j in range(pivot_col, n) if A[row][j] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != pivot_col:
            colop(pivot_col, j0, 0, 1, 1, 0)
        for j in range(pivot_col + 1, n):
            if A[row][j] == 0:
                continue
            g, s, t = _ext_gcd(A[row][pivot_col], A[row][j])
            q0, qj = A[row][pivot_col] // g, A[row][j] // g
            colop(pivot_col, j, s, t, -qj, q0)
        pivot_col += 1
    kernel = []
    for j in range(n):
        if all(A[i][j] == 0 for i in range(m)):
            kernel.append([U[i][j] for i in range(n)])
    return kernel


def _v_lattice_basis(J: BinQuadForm) -> list[BinQuartForm]:
    """Basis of the rank-3 lattice of quartic forms fixed by the involution of
    J, computed from first principles as an integer kernel."""
    M = m_matrix(J)
    d2 = M.det() ** 2
    # condition: F(t1 x + t2 y, t3 x + t4 y) - det^2 * F = 0, linear in the a_i
    images = [
        substitute_quartic(BinQuartForm(*(1 if k == i else 0 for k in range(5))), M)
        for i in range(5)
    ]
    rows = [[images[j][i] - (d2 if i == j else 0) for j in range(5)] for i in range(5)]
    kernel = _integer_kernel(rows)
    assert len(kernel) == 3
    return [BinQuartForm(*v) for v in kernel]


def lattice_dets(J: BinQuadForm) -> tuple[int, int]:
    """(det of the anti-fixed rank-2 lattice, det of the fixed rank-3 lattice),
    both computed by direct lattice reduction and asserted against the closed
    forms n_b*alpha (alpha != 0) or n_b*beta/2 (alpha = 0), and their cubes.
    """
    if J.disc() == 0 or not J.is_primitive():
        raise ValueError("J must be primitive with nonzero discriminant")
    alpha, beta, _ = J.coeffs()
    a, b, c = J.coeffs()
    kernel = _integer_kernel([[2 * c, -b, 2 * a]])
    if alpha != 0:
        proj2 = [(v[0], v[1]) for v in kernel]
    else:
        proj2 = [(v[0], v[2]) for v in kernel]
    det_w = abs(det(proj2))

    vbasis = _v_lattice_basis(J)
    if alpha != 0:
        proj3 = [(F.a4, F.a3, F.a2) for F in vbasis]
    else:
        proj3 = [(F.a4, F.a2, F.a0) for F in vbasis]
    det_v = abs(det(proj3))

    nb = 2 if beta % 2 else 1
    expect = abs(nb * alpha) if alpha != 0 else abs(nb * beta // 2)
    assert det_w == expect, (J, det_w, expect)
    assert det_v == expect**3, (J, det_v, expect**3)
    return det_w, det_v


def decompose_family(c: FamilyCoords) -> Decomposition:
    """Decomposition of a family form against its reference J; h = (A, B, C)."""
    return decompose(to_form(c), REFERENCE_J[c.family])
