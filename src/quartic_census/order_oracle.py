"""Independent ground truth for maximality: build the rank-4 ring attached to
a quartic form and decide p-maximality by the radical / multiplier-ring test.

Nothing here knows about the family congruence criteria; agreement between the
two is a theorem, not a construction.

The test, for the order O with basis e0 = 1, e1, e2, e3 and a prime p:

1. The nilradical of O/pO is the kernel of the F_p-linear map x -> x^q with
   q = p^e >= 4 (a nilpotent element of a rank-4 algebra has x^4 = 0).  The
   matrix of that map has columns e_j^q, computed mod p, and column 0 is
   1^q = e_0, so the kernel is zero exactly when the lower-right 3x3 block
   has a nonzero determinant mod p.  The lift R = pO + rad of the kernel is
   the p-radical of O, and O is p-maximal exactly when the multiplier ring
   {x : xR inside R} is O itself.
2. If the nilradical is zero, R = pO.  Then xR inside R means x*pO inside pO,
   i.e. x in O (as 1 is in O), so the multiplier ring is O and the answer is
   True without building R.
3. Otherwise R has the basis B whose row c is the echelon row of rad mod p
   with pivot c, or p*e_c where rad has no pivot.  B is upper triangular with
   diagonal 1 or p, and it spans R: it lies in R and has the same index
   p^(4 - dim rad).
4. Y = p*B^-1 is integral because pO lies in R, so the coordinates of w in B
   are (w*Y)/p.  Every division here is checked exact, which checks that R is
   an O-module.
5. x = y/p with y in O multiplies R into R iff y*B_j lies in pR for each j:
   a linear condition on y mod p, given by the 16x4 matrix of the
   coordinates of e_i*B_j mod p.  Its kernel is zero, i.e. it has rank 4,
   exactly when the multiplier ring is O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import det
from .forms import BinQuartForm, poly_mul


@dataclass(frozen=True)
class QuarticOrderTable:
    """Structure constants for the basis (1, z1, z2, z3): products[(i, j)] for
    1 <= i <= j <= 3 gives z_i*z_j = c0 + c1*z1 + c2*z2 + c3*z3."""

    products: tuple[tuple[int, int, int, int], ...]  # keyed (1,1),(1,2),(1,3),(2,2),(2,3),(3,3)
    # the regular representation: regular[4*i + j] = e_i*e_j for i, j in 0..3,
    # with e_0 = 1 and e_k = z_k; built once from `products`
    regular: tuple[tuple[int, int, int, int], ...] = field(init=False, repr=False, compare=False)

    _KEYS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))

    def __post_init__(self):
        unit = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        # built as a list first: tuple() of a generator grows by resizing,
        # and the freed 16-tuples then pile up in CPython's tuple free list
        regular = [
            unit[i + j] if i == 0 or j == 0 else self.product(i, j)
            for i in range(4)
            for j in range(4)
        ]
        object.__setattr__(self, "regular", tuple(regular))

    def product(self, i: int, j: int) -> tuple[int, int, int, int]:
        if i > j:
            i, j = j, i
        return self.products[self._KEYS.index((i, j))]

    def mult(self, u, v):
        """Product of two elements given as length-4 coefficient sequences."""
        out = [
            u[0] * v[0],
            u[0] * v[1] + u[1] * v[0],
            u[0] * v[2] + u[2] * v[0],
            u[0] * v[3] + u[3] * v[0],
        ]
        reg = self.regular
        for i in (1, 2, 3):
            ui = u[i]
            if ui == 0:
                continue
            for j in (1, 2, 3):
                vj = v[j]
                if vj == 0:
                    continue
                m = ui * vj
                c = reg[4 * i + j]
                out[0] += m * c[0]
                out[1] += m * c[1]
                out[2] += m * c[2]
                out[3] += m * c[3]
        return out

    def validate(self) -> None:
        """Associativity on all basis triples (commutativity is structural)."""
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        for a in basis:
            for b in basis:
                for c in basis:
                    lhs = self.mult(self.mult(a, b), c)
                    rhs = self.mult(a, self.mult(b, c))
                    assert lhs == rhs, (a, b, c, lhs, rhs)


def order_from_form(F: BinQuartForm) -> QuarticOrderTable:
    """Structure constants of Z + Z*z1 + Z*z2 + Z*z3 with z1 = a4*t,
    z2 = a4*t^2 + a3*t, z3 = a4*t^3 + a3*t^2 + a2*t for t a root of F(t,1).

    Products are expanded as polynomials in t and reduced with the exact
    pseudo-remainder a4*t^4 = -(a3 t^3 + a2 t^2 + a1 t + a0); the final change
    of basis divides out the accumulated a4 powers, and every division is
    checked exact (integrality of the table is a theorem, asserted here).
    """
    a4, a3, a2, a1, a0 = F.coeffs()
    if a4 == 0:
        raise ValueError("a4 must be nonzero")
    z = (
        [0, a4, 0, 0],
        [0, a3, a4, 0],
        [0, a2, a3, a4],
    )
    prods = []
    for i in range(3):
        for j in range(i, 3):
            raw = poly_mul(z[i], z[j])  # degree <= 6
            # three pseudo-reduction steps: multiply the tail by a4 and
            # substitute a4 t^k = -(a3 t^{k-1} + ... + a0 t^{k-4})
            scale = 1
            for deg in (6, 5, 4):
                lead = raw[deg]
                if lead == 0:
                    continue
                raw = [a4 * v for v in raw]
                scale *= a4
                raw[deg] = 0
                raw[deg - 1] -= a3 * lead
                raw[deg - 2] -= a2 * lead
                raw[deg - 3] -= a1 * lead
                raw[deg - 4] -= a0 * lead
            # now raw = scale * (z_i z_j) in powers 1, t, t^2, t^3;
            # convert to the z-basis by back substitution
            c3, rem = divmod(raw[3], a4)
            assert rem == 0
            r2 = raw[2] - c3 * a3
            c2, rem = divmod(r2, a4)
            assert rem == 0
            r1 = raw[1] - c3 * a2 - c2 * a3
            c1, rem = divmod(r1, a4)
            assert rem == 0
            c0 = raw[0]
            coeffs = []
            for v in (c0, c1, c2, c3):
                q, rem = divmod(v, scale)
                assert rem == 0, "non-integral structure constant"
                coeffs.append(q)
            prods.append(tuple(coeffs))
    return QuarticOrderTable(tuple(prods))


def order_disc(o: QuarticOrderTable) -> int:
    """Determinant of the 4x4 trace-pairing matrix of the order."""
    reg = o.regular
    # traces of basis elements from the regular representation
    tr = [sum(reg[4 * k + j][j] for j in range(4)) for k in range(4)]
    G = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            col = reg[4 * i + j]
            G[i][j] = G[j][i] = sum(col[k] * tr[k] for k in range(4))
    return det(G)


def _rref(rows, p, ncols):
    """Reduced row echelon form over F_p: (reduced rows, pivot columns); the
    first len(pivots) rows are the nonzero ones, row r with pivot pivots[r]."""
    M = [[x % p for x in row] for row in rows]
    n = len(M)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for pr in range(r, n):
            if M[pr][c]:
                break
        else:
            continue
        piv = M[pr]
        M[pr] = M[r]
        if piv[c] != 1:
            inv = pow(piv[c], p - 2, p)
            piv = [(x * inv) % p for x in piv]
        M[r] = piv
        for i in range(n):
            f = M[i][c]
            if f and i != r:
                M[i] = [(x - f * y) % p for x, y in zip(M[i], piv)]
        pivots.append(c)
        r += 1
    return M, pivots


def _rref_kernel(rows, p, ncols):
    """Kernel basis of a matrix over F_p (rows of length ncols)."""
    M, pivots = _rref(rows, p, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-M[ri][fc]) % p
        basis.append(v)
    return basis


def _p_radical(o: QuarticOrderTable, p: int):
    """Basis of the nilradical of O/pO as the kernel of x -> x^q, q = p^e >= 4."""
    q = p
    while q < 4:
        q *= p
    # the six structure constants mod p: z1z1, z1z2, z1z3, z2z2, z2z3, z3z3
    P = [[x % p for x in c] for c in o.products]
    a0, a1, a2, a3 = P[0]
    b0, b1, b2, b3 = P[1]
    c0, c1, c2, c3 = P[2]
    d0, d1, d2, d3 = P[3]
    f0, f1, f2, f3 = P[4]
    g0, g1, g2, g3 = P[5]

    def mult(u, v):
        u0, u1, u2, u3 = u
        v0, v1, v2, v3 = v
        m11 = u1 * v1
        m12 = u1 * v2 + u2 * v1
        m13 = u1 * v3 + u3 * v1
        m22 = u2 * v2
        m23 = u2 * v3 + u3 * v2
        m33 = u3 * v3
        return (
            (u0 * v0 + m11 * a0 + m12 * b0 + m13 * c0 + m22 * d0 + m23 * f0 + m33 * g0) % p,
            (u0 * v1 + u1 * v0 + m11 * a1 + m12 * b1 + m13 * c1 + m22 * d1 + m23 * f1 + m33 * g1) % p,
            (u0 * v2 + u2 * v0 + m11 * a2 + m12 * b2 + m13 * c2 + m22 * d2 + m23 * f2 + m33 * g2) % p,
            (u0 * v3 + u3 * v0 + m11 * a3 + m12 * b3 + m13 * c3 + m22 * d3 + m23 * f3 + m33 * g3) % p,
        )

    # x -> x^q is F_p-linear, so its matrix has columns e_j^q (and 1^q = e_0);
    # square-and-multiply starts from e_j^2, which is a structure constant
    cols = []
    for b, r in zip(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (P[0], P[3], P[5])):
        for i, bit in enumerate(bin(q)[3:]):
            if i:
                r = mult(r, r)
            if bit == "1":
                r = mult(r, b)
        cols.append(r)
    (_, x1, x2, x3), (_, y1, y2, y3), (_, z1, z2, z3) = cols
    # column 0 is e_0, so the kernel is zero iff the lower-right 3x3 block is
    # invertible mod p
    if (x1 * (y2 * z3 - y3 * z2) - y1 * (x2 * z3 - x3 * z2) + z1 * (x2 * y3 - x3 * y2)) % p:
        return []
    return _rref_kernel(list(zip((1, 0, 0, 0), *cols)), p, 4)


def _hnf_rows(gens):
    """Row HNF basis (4 rows, upper triangular, positive diagonal) of the
    lattice generated by the given length-4 integer rows."""
    M = [list(g) for g in gens]
    r = 0
    for c in range(4):
        while True:
            nz = [i for i in range(r, len(M)) if M[i][c] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(M[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = M[i][c] // M[i0][c]
                M[i] = [a - q * b for a, b in zip(M[i], M[i0])]
        nz = [i for i in range(r, len(M)) if M[i][c] != 0]
        if not nz:
            continue
        M[r], M[nz[0]] = M[nz[0]], M[r]
        if M[r][c] < 0:
            M[r] = [-x for x in M[r]]
        for i in range(r):
            q = M[i][c] // M[r][c]
            M[i] = [a - q * b for a, b in zip(M[i], M[r])]
        r += 1
    assert r == 4, "lattice does not have full rank"
    return M[:4]


def _radical_basis(rad, p):
    """Rows of R = pO + (lift of rad), upper triangular with diagonal 1 or p:
    the echelon row of rad mod p at each of its pivot columns, p*e_c at the
    other columns c."""
    B = [[p if i == j else 0 for j in range(4)] for i in range(4)]
    if rad:
        E, pivots = _rref(rad, p, 4)
        for r, c in enumerate(pivots):
            B[c] = E[r]
    return B


def _multiplier_rows(o: QuarticOrderTable, p: int, rad):
    """The 16x4 matrix over F_p whose kernel is {y in O/pO : y*R inside pR}
    for R = pO + (lift of rad): rows[4*j + k][i] is coordinate k of e_i*B_j
    in the basis B of R, mod p."""
    B = _radical_basis(rad, p)
    # Y = p*B^-1, row i solving y*B = p*e_i; integral because pO is inside R
    Y = []
    for i in range(4):
        w = [p if k == i else 0 for k in range(4)]
        y = [0] * 4
        for c in range(4):
            q, rem = divmod(w[c], B[c][c])
            assert rem == 0
            y[c] = q
            if q:
                for k in range(c + 1, 4):
                    w[k] -= q * B[c][k]
        Y.append(y)
    Y0, Y1, Y2, Y3 = zip(*Y)  # the columns of Y
    reg = o.regular
    rows = [[0] * 4 for _ in range(16)]
    for j in range(4):
        rows[5 * j][0] = 1  # 1*B_j = B_j has coordinates e_j
    for i in (1, 2, 3):
        L0, L1, L2, L3 = reg[4 * i : 4 * i + 4]  # e_i*e_m for m in 0..3
        for j, (b0, b1, b2, b3) in enumerate(B):
            # w = e_i*B_j; its coordinates (w*Y)/p are exact because R is an
            # O-module
            w = [b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 for x0, x1, x2, x3 in zip(L0, L1, L2, L3)]
            for k, Yk in enumerate((Y0, Y1, Y2, Y3)):
                q, rem = divmod(w[0] * Yk[0] + w[1] * Yk[1] + w[2] * Yk[2] + w[3] * Yk[3], p)
                assert rem == 0
                rows[4 * j + k][i] = q % p
    return rows


def p_maximality_oracle(o: QuarticOrderTable, p: int) -> bool:
    """True iff Z_p tensor O is a maximal quartic ring over Z_p.

    Computes the p-radical ideal R (lift of the nilradical of O/pO plus pO)
    and tests whether the multiplier ring {x : x*R inside R} exceeds O; the
    order is p-maximal exactly when it does not.  A zero nilradical gives
    R = pO, whose multiplier ring is O.
    """
    rad = _p_radical(o, p)
    if not rad:
        return True
    # x = y/p multiplies R into R iff y*R is inside p*R; a kernel beyond pO
    # means a strictly larger multiplier ring, i.e. non-maximality
    return len(_rref(_multiplier_rows(o, p, rad), p, 4)[1]) == 4
