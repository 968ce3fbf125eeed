"""Independent ground truth for maximality: build the rank-4 ring attached to
a quartic form and decide p-maximality by the radical / multiplier-ring test
(the Round-2 step of Pohst and Zassenhaus; Cohen, A Course in Computational
Algebraic Number Theory, 6.1).

Nothing here knows about the family congruence criteria; agreement between the
two is a theorem, not a construction.

The test, for the order O with basis e0 = 1, e1, e2, e3 and a prime p:

1. O/pO is reduced exactly when p does not divide disc(O), the determinant
   of the trace form, which each table computes once.  Then the p-radical
   R = pO + rad is pO, and xR inside R means x*pO inside pO, i.e. x in O
   (as 1 is in O): the multiplier ring is O and the answer is True.
2. Otherwise the nilradical rad of O/pO is the kernel of the F_p-linear map
   x -> x^q with q = p^e >= 4 (a nilpotent element of a rank-4 algebra has
   x^4 = 0), whose matrix has columns e_j^q mod p; column 0 is 1^q = e_0.
   The kernel is asserted nonzero, which ties step 1 to this one, and is
   taken in reduced echelon form: d <= 3 rows E_u, each with a leading 1.
3. R has the basis B whose row c is the row E_u leading at c, or p*e_c where
   no row leads.  B is upper triangular with diagonal 1 or p, and it spans
   R: it lies in R and has the same index p^(4 - d).
4. x = y/p with y in O multiplies R into R iff y*B_j lies in pR for each j.
   For B_j = p*e_0 this says y lies in R, so y = sum of l_u*E_u mod pO; R
   being an ideal then settles every row p*e_c, and what is left is
   y*E_s in pR for each radical row E_s.
5. The B-coordinates X_iu of e_i*E_u come from forward substitution on B,
   and every division by a diagonal p is asserted exact, which checks that
   R is an O-module.  Coordinate k of E_s*E_u is sum_i E_s[i]*X_iu[k], and
   O is p-maximal exactly when the (4d) x d matrix of these, mod p, has
   rank d: no l other than 0 mod p passes step 4.
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
    # the determinant of the trace form tr(e_i*e_j), built once from `regular`
    disc: int = field(init=False, repr=False, compare=False)

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
        # traces of basis elements from the regular representation
        tr = [sum(regular[4 * k + j][j] for j in range(4)) for k in range(4)]
        G = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                col = regular[4 * i + j]
                G[i][j] = G[j][i] = col[0] * tr[0] + col[1] * tr[1] + col[2] * tr[2] + col[3] * tr[3]
        object.__setattr__(self, "disc", det(G))

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
    return o.disc


def _rref_kernel(rows, p, ncols):
    """Kernel basis of a matrix over F_p (rows of length ncols) in reduced
    echelon form: one vector per free column c, with 1 at c, 0 before c and
    0 at the other free columns."""
    M = [[x % p for x in row] for row in rows]
    n = len(M)
    pivots = {}  # pivot column -> its row
    # eliminating the columns from the last one down leaves each pivot row
    # nonzero only at its pivot and at free columns before it, so each
    # kernel vector is 0 before its free column
    for c in range(ncols - 1, -1, -1):
        r = len(pivots)
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
        pivots[c] = r
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for pc, ri in pivots.items():
            v[pc] = (-M[ri][fc]) % p
        basis.append(v)
    return basis


def _p_radical(o: QuarticOrderTable, p: int):
    """Basis of the nilradical of O/pO as the kernel of x -> x^q, q = p^e >= 4,
    in reduced echelon form."""
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
    return _rref_kernel(list(zip((1, 0, 0, 0), *cols)), p, 4)


def _radical_basis(rad, p):
    """Rows of R = pO + (lift of rad), upper triangular with diagonal 1 or p:
    for rad in reduced echelon form, each row of rad at its leading column,
    p*e_c at the other columns c."""
    B = [[p if i == j else 0 for j in range(4)] for i in range(4)]
    for v in rad:
        B[v.index(1)] = v  # the leading entry is the first 1
    return B


def p_maximality_oracle(o: QuarticOrderTable, p: int) -> bool:
    """True iff Z_p tensor O is a maximal quartic ring over Z_p.

    Computes the p-radical ideal R (lift of the nilradical of O/pO plus pO)
    and tests whether the multiplier ring {x : x*R inside R} exceeds O; the
    order is p-maximal exactly when it does not.  When p does not divide
    disc(O), O/pO is reduced, R = pO and its multiplier ring is O.
    """
    if o.disc % p:
        return True
    rad = _p_radical(o, p)
    assert rad, "p divides disc(O) but O/pO is reduced"
    B = _radical_basis(rad, p)
    reg = o.regular
    # X[u][i] holds the B-coordinates of e_i*E_u, mod p
    X = []
    for E in rad:
        Xu = []
        for i in range(4):
            L0, L1, L2, L3 = reg[4 * i : 4 * i + 4]  # e_i*e_m for m in 0..3
            w = [E[0] * x0 + E[1] * x1 + E[2] * x2 + E[3] * x3 for x0, x1, x2, x3 in zip(L0, L1, L2, L3)]
            # forward substitution on the upper-triangular B; the division
            # by a diagonal p is exact because R is an O-module
            for c in range(4):
                Bc = B[c]
                if Bc[c] == 1:
                    z = w[c]
                    if z:
                        for k in range(c + 1, 4):
                            w[k] -= z * Bc[k]
                else:
                    z, rem = divmod(w[c], p)
                    assert rem == 0
                w[c] = z % p
            Xu.append(w)
        X.append(Xu)
    # y = sum of l_u*E_u has y*E_s in pR for every s iff l lies in the kernel
    # of the (4d) x d matrix of coordinate k of E_s*E_u; the order is
    # p-maximal iff that kernel is 0
    rows = [
        [(Es[0] * Xu[0][k] + Es[1] * Xu[1][k] + Es[2] * Xu[2][k] + Es[3] * Xu[3][k]) % p for Xu in X]
        for Es in rad
        for k in range(4)
    ]
    return not _rref_kernel(rows, p, len(rad))
