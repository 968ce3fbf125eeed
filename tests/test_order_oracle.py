import hashlib
import random
from fractions import Fraction

import pytest

from quartic_census.arith import is_square
from quartic_census.forms import BinQuartForm, FamilyCoords, disc_quartic, to_form
from quartic_census.order_oracle import (
    QuarticOrderTable,
    _hnf_rows,
    _multiplier_rows,
    _p_radical,
    _radical_basis,
    _rref_kernel,
    order_disc,
    order_from_form,
    p_maximality_oracle,
)

rng = random.Random(1234)


def rand_form(bound=8, r=rng):
    while True:
        co = [r.randint(-bound, bound) for _ in range(5)]
        if co[0] != 0:
            return BinQuartForm(*co)


def test_monic_power_basis():
    # x^4 - 2: generators reduce to powers of the root
    t = order_from_form(BinQuartForm(1, 0, 0, 0, -2))
    assert t.product(1, 1) == (0, 0, 1, 0)  # z1^2 = z2
    assert t.product(1, 2) == (0, 0, 0, 1)  # z1 z2 = z3
    assert t.product(1, 3) == (2, 0, 0, 0)  # z1 z3 = theta^4 = 2
    assert t.product(2, 2) == (2, 0, 0, 0)
    assert t.product(2, 3) == (0, 2, 0, 0)
    assert t.product(3, 3) == (0, 0, 2, 0)


def test_non_monic_integrality_and_associativity():
    for _ in range(150):
        F = rand_form()
        t = order_from_form(F)
        t.validate()  # associativity on all basis triples
        assert t.product(1, 2) == t.product(2, 1)


def test_leading_zero_rejected():
    with pytest.raises(ValueError):
        order_from_form(BinQuartForm(0, 1, 0, 0, 1))


def test_disc_identity_examples():
    F = BinQuartForm(1, 0, 0, 0, -2)
    assert order_disc(order_from_form(F)) == disc_quartic(F) == -2048
    F = to_form(FamilyCoords(1, 1, 1, -1))
    assert order_disc(order_from_form(F)) == -400
    # split diagonal table (Z^4 with componentwise product) has trace det 1
    diag = QuarticOrderTable(
        (
            (0, 1, 0, 0),
            (0, 0, 0, 0),
            (0, 0, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 0),
            (0, 0, 0, 1),
        )
    )
    diag.validate()
    assert order_disc(diag) == 1


def test_disc_identity_random():
    for _ in range(400):
        F = rand_form(50)
        assert order_disc(order_from_form(F)) == disc_quartic(F)


def test_oracle_examples():
    t = order_from_form(BinQuartForm(1, 0, 0, 0, -2))
    assert p_maximality_oracle(t, 5)  # 5 does not divide -2048
    assert not p_maximality_oracle(order_from_form(to_form(FamilyCoords(1, 9, 0, 1))), 3)
    for _ in range(50):
        F = rand_form()
        d = disc_quartic(F)
        if d == 0:
            continue
        t = order_from_form(F)
        for p in (2, 3, 5, 7, 11):
            if d % p:
                assert p_maximality_oracle(t, p), (F, p)


def test_oracle_verdict_digest():
    # one sha256 over the verdict bits of every (family, A, B, C, p) with
    # |A|, |B|, |C| <= 5 and p <= 13, zero discriminants skipped; pinned from
    # the multiplier-ring oracle as it stood before the zero-radical shortcut,
    # the direct radical basis and the rank test, and independent of the
    # family criteria
    bits = bytearray()
    for fam in (1, 2, 3):
        for A in range(-5, 6):
            if A == 0:
                continue
            for B in range(-5, 6):
                for C in range(-5, 6):
                    F = to_form(FamilyCoords(fam, A, B, C))
                    if disc_quartic(F) == 0:
                        continue
                    t = order_from_form(F)
                    for p in (2, 3, 5, 7, 11, 13):
                        bits += b"1" if p_maximality_oracle(t, p) else b"0"
    assert len(bits) == 20472 and bits.count(b"0") == 2216
    digest = hashlib.sha256(bytes(bits)).hexdigest()
    assert digest == "f837cae30c3bd076f90ca4d13dd3f54a9ff0f5696b0e47aaeb08fbf82657409d"


def test_radical_ideal_basis():
    # a zero nilradical means R = pO, whose multiplier rows always have rank 4,
    # so the oracle may answer True at once; p not dividing disc gives a zero
    # nilradical; otherwise the direct basis of R = pO + rad spans the same
    # lattice as the HNF of its generators
    # (its own generator, so the forms the other tests draw stay the same)
    r = random.Random(5)
    zero = nonzero = 0
    for _ in range(150):
        F = rand_form(r=r)
        d = disc_quartic(F)
        if d == 0:
            continue
        t = order_from_form(F)
        for p in (2, 3, 5, 7):
            rad = _p_radical(t, p)
            if d % p:
                assert rad == [], (F, p)
            if not rad:
                zero += 1
                assert _rref_kernel(_multiplier_rows(t, p, []), p, 4) == [], (F, p)
                continue
            nonzero += 1
            gens = [[p if i == j else 0 for j in range(4)] for i in range(4)] + rad
            assert _hnf_rows(_radical_basis(rad, p)) == _hnf_rows(gens), (F, p)
    assert zero > 0 and nonzero > 0


def _p_radical_reference(t, p):
    # the kernel of x -> x^(p^e) by the generic route: x -> x^p by
    # square-and-multiply through t.mult, reduced mod p after each product,
    # then e - 1 more products of that 4x4 matrix
    e = 1
    while p**e < 4:
        e += 1

    def pow_mod(v, n):
        b, r = list(v), None
        while True:
            if n & 1:
                r = b if r is None else [x % p for x in t.mult(r, b)]
            n >>= 1
            if not n:
                return r
            b = [x % p for x in t.mult(b, b)]

    cols = [(1, 0, 0, 0)] + [pow_mod(b, p) for b in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    M = [[cols[j][i] for j in range(4)] for i in range(4)]
    R = M
    for _ in range(e - 1):
        R = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*R)] for row in M]
    return _rref_kernel(R, p, 4)


def _rebased(t, i, j, k):
    # the same ring in the basis with z_i replaced by z_i + k*z_j (z_0 = 1):
    # a product v in the old basis has coordinate j lowered by k*v[i]
    W = [[int(a == b) for b in range(4)] for a in range(4)]
    W[i][j] += k
    prods = []
    for a, b in QuarticOrderTable._KEYS:
        v = t.mult(W[a], W[b])
        v[j] -= k * v[i]
        prods.append(tuple(v))
    return QuarticOrderTable(tuple(prods))


def test_p_radical_matches_reference():
    # the straight-line mod-p powers and the 3x3 determinant give the same
    # kernel basis as the generic route, at every p <= 31, on random
    # (non-monic included) forms with both zero and nonzero kernels; each
    # form's table is also checked in a mixed basis, since 8 of the 24
    # structure constants of a form's own table are always zero
    r = random.Random(31)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    zero = dict.fromkeys(primes, 0)
    nonzero = dict.fromkeys(primes, 0)
    forms = 0
    while forms < 300:
        F = rand_form(50, r)
        if disc_quartic(F) == 0:
            continue
        forms += 1
        t = mixed = order_from_form(F)
        for _ in range(3):
            i = r.randint(1, 3)
            j = r.choice([j for j in range(4) if j != i])
            mixed = _rebased(mixed, i, j, r.choice((-2, -1, 1, 2)))
        mixed.validate()
        for p in primes:
            rad = _p_radical(t, p)
            assert rad == _p_radical_reference(t, p), (F, p)
            assert _p_radical(mixed, p) == _p_radical_reference(mixed, p), (F, p, mixed)
            if rad:
                nonzero[p] += 1
            else:
                zero[p] += 1
    assert all(zero.values()) and all(nonzero.values()), (zero, nonzero)


def test_multiplier_ring_is_a_ring():
    # when the oracle reports non-maximality, the kernel enlarges the order to
    # a genuine ring o' with disc(o) = p^(2k) disc(o'): closure is checked on
    # the enlarged basis, computed with exact rational arithmetic
    from quartic_census.order_oracle import _rref_kernel

    found = 0
    for _ in range(300):
        F = rand_form()
        d = disc_quartic(F)
        if d == 0:
            continue
        t = order_from_form(F)
        for p in (2, 3, 5):
            if p_maximality_oracle(t, p):
                continue
            found += 1
            rad = _p_radical(t, p)
            gens = [[p if i == j else 0 for j in range(4)] for i in range(4)]
            gens.extend(rad)
            B = _hnf_rows(gens)

            def coords(w):
                w = list(w)
                z = [0] * 4
                for c in range(4):
                    q, r = divmod(w[c], B[c][c])
                    assert r == 0
                    z[c] = q
                    for k in range(4):
                        w[k] -= q * B[c][k]
                return z

            basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
            rows = [[0] * 4 for _ in range(16)]
            for i in range(4):
                for j in range(4):
                    z = coords(t.mult(basis[i], B[j]))
                    for k in range(4):
                        rows[4 * j + k][i] = z[k] % p
            ker = _rref_kernel(rows, p, 4)
            assert ker
            # enlarged order: lattice spanned by identity basis and ker/p
            enlarged = [[Fraction(v) for v in b] for b in basis]
            enlarged += [[Fraction(int(v), p) for v in kv] for kv in ker]
            # closure: products of kernel lifts stay in the enlarged lattice
            for kv in ker:
                x = [Fraction(int(v), p) for v in kv]
                for other in enlarged:
                    prod = _frac_mult(t, x, other)
                    assert _in_lattice(prod, enlarged), (F, p)
            if found > 12:
                return
    assert found > 0


def _frac_mult(t, u, v):
    out = [
        u[0] * v[0],
        u[0] * v[1] + u[1] * v[0],
        u[0] * v[2] + u[2] * v[0],
        u[0] * v[3] + u[3] * v[0],
    ]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            m = u[i] * v[j]
            if m:
                c = t.product(i, j)
                for k in range(4):
                    out[k] += m * c[k]
    return out


def _in_lattice(vec, gens):
    # Gaussian elimination over Q restricted to integer combinations
    import itertools

    rows = [list(g) for g in gens]
    target = list(vec)
    # reduce rows to a triangular basis over Q with integer-lattice tracking:
    # use Hermite-style elimination on the common denominator lattice
    den = 1
    for row in rows + [target]:
        for v in row:
            den = den * v.denominator // __import__("math").gcd(den, v.denominator)
    int_rows = [[int(v * den) for v in row] for row in rows]
    int_t = [int(v * den) for v in target]
    # solve: is int_t in the Z-span of int_rows?
    from quartic_census.order_oracle import _hnf_rows as hnf

    B = hnf(int_rows)
    z = list(int_t)
    for c in range(4):
        if z[c] % B[c][c]:
            return False
        q = z[c] // B[c][c]
        for k in range(4):
            z[k] -= q * B[c][k]
    return all(v == 0 for v in z)


def test_vs_external_maximal_order():
    # sympy's round-two maximal order: for monic irreducible F the order is
    # p-maximal exactly when v_p(disc F) = v_p(disc O_L).  A reference is used
    # only when disc F = d_K * k^2, which every true field discriminant
    # satisfies: sympy 1.14 gives d_K = 177 for x^4 + 2x^3 - 5x^2 - 6x - 1,
    # whose discriminant is 14400
    sp = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two

    r = random.Random(1234)
    x = sp.Symbol("x")
    checked = 0
    rejected = []
    while checked < 25:
        co = [1] + [r.randint(-6, 6) for _ in range(4)]
        F = BinQuartForm(*co)
        d = disc_quartic(F)
        if d == 0:
            continue
        poly = sp.Poly(sum(c * x ** (4 - i) for i, c in enumerate(co)), x)
        if not poly.is_irreducible:
            continue
        _, dK = round_two(poly)
        dK = int(dK)
        if d % dK or not is_square(d // dK):
            rejected.append((co, dK))
            continue
        t = order_from_form(F)
        for p in (2, 3, 5, 7, 11, 13):
            assert p_maximality_oracle(t, p) == (_val(d, p) == _val(dK, p)), (co, p)
        checked += 1
    assert len(rejected) <= 2, rejected


def _val(n, p):
    n = abs(n)
    k = 0
    while n and n % p == 0:
        n //= p
        k += 1
    return k
