"""Cross-cutting property tests tying the modules together."""

import random
from math import gcd, isqrt

import numpy as np

from quartic_census.forms import (
    BinQuadForm,
    BinQuartForm,
    FamilyCoords,
    J1,
    J2,
    J3,
    disc_quartic,
    jacobian_det,
    n_beta,
    to_form,
)
from quartic_census.maximality import is_maximal
from quartic_census.resolvent import w_lattice_basis

rng = random.Random(606)


def _sturm_real_roots(coeffs):
    """Exact real-root count of a squarefree integer polynomial via a
    fraction-free Sturm chain (positive pseudo-remainder scaling)."""

    def deriv(p):
        n = len(p) - 1
        return [c * (n - i) for i, c in enumerate(p[:-1])]

    def neg_rem(p, q):
        p = list(p)
        while p and p[0] == 0:
            p.pop(0)
        while len(p) >= len(q):
            lc = q[0]
            scale = abs(lc)
            fac = p[0]
            p = [v * scale for v in p]
            mult = fac * scale // lc
            for i, qc in enumerate(q):
                p[i] -= mult * qc
            assert p[0] == 0
            p.pop(0)
            while p and p[0] == 0:
                p.pop(0)
        return [-v for v in p]

    chain = [list(coeffs), deriv(list(coeffs))]
    while chain[-1] and any(chain[-1]):
        r = neg_rem(chain[-2], chain[-1])
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        chain.append(r)

    def variations(at_plus):
        signs = []
        for p in chain:
            if not p or not any(p):
                continue
            deg = len(p) - 1
            s = p[0] if at_plus else p[0] * (-1) ** deg
            signs.append(1 if s > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    return variations(False) - variations(True)


def test_real_signature_vs_sturm_ten_thousand():
    from quartic_census.classify import real_signature

    n = 0
    while n < 10**4:
        co = [rng.randint(-30, 30) for _ in range(5)]
        F = BinQuartForm(*co)
        if co[0] == 0 or disc_quartic(F) == 0:
            continue
        n += 1
        nreal = _sturm_real_roots(co)
        assert real_signature(F).r2 == (4 - nreal) // 2, co


def test_primitivity_equivalence_chain():
    # for anti-fixed pairs: primitive <=> lattice basis <=> jacobian = +-n_b*J
    for J in (J1, J2, J3, BinQuadForm(3, 1, 1), BinQuadForm(1, 1, -1)):
        wb = w_lattice_basis(J)
        nb = n_beta(J)
        target = {
            BinQuadForm(nb * J.c2, nb * J.c1, nb * J.c0),
            BinQuadForm(-nb * J.c2, -nb * J.c1, -nb * J.c0),
        }
        for _ in range(200):
            # random pair inside the anti-fixed lattice
            m = [rng.randint(-5, 5) for _ in range(4)]
            f = BinQuadForm(
                *(m[0] * a + m[1] * b for a, b in zip(wb.f.coeffs(), wb.g.coeffs()))
            )
            g = BinQuadForm(
                *(m[2] * a + m[3] * b for a, b in zip(wb.f.coeffs(), wb.g.coeffs()))
            )
            det = m[0] * m[3] - m[1] * m[2]
            jac = jacobian_det(f, g)
            if jac == BinQuadForm(0, 0, 0):
                continue
            primitive = (
                jac.disc() != 0
                and gcd(gcd(jac.c2, jac.c1 // 2), jac.c0) == 1
            )
            is_basis = det in (1, -1)  # exactly the unimodular combinations
            assert primitive == is_basis == (jac in target), (J, m)


def test_klein_shape_forced_by_maximality():
    # maximal family forms with square disc embed as the symmetric quartic
    # a x^4 + b x^2 y^2 + a y^4 in every family
    from quartic_census.arith import is_square

    hits = 0
    for fam in (2, 3):
        for A in range(-5, 6):
            if A == 0:
                continue
            for B in range(-8, 9):
                for C in range(-12, 13):
                    c = FamilyCoords(fam, A, B, C)
                    F = to_form(c)
                    d = disc_quartic(F)
                    if d <= 0 or not is_square(d):
                        continue
                    if not is_maximal(c).is_maximal:
                        continue
                    hits += 1
                    a4, a3, a2, a1, a0 = F.coeffs()
                    assert a3 == a1 == 0 and a4 == a0, (fam, c)
    assert hits > 5


def test_family1_alternate_pivot_recount():
    # independent re-enumeration of family-1 canonical records by iterating
    # (A, C) pairs and solving B windows, with the scalar pipeline as filter
    from quartic_census.census import CensusConfig, run_census
    from quartic_census.classify import GaloisTag, family_real_signature, galois_tag

    X = 30000
    counts = [0, 0, 0]
    recs = set()
    Amax = isqrt(X // 16)
    for A in range(1, Amax + 1):
        Cmax = X // (16 * A)
        for Cabs in range(A, Cmax + 1):
            K = X // (16 * A * Cabs)
            for sA in (1, -1):
                for sC in (1, -1):
                    a, cc = sA * A, sA * sC * Cabs
                    if abs(cc) == A and (cc != -a or a > 0):
                        # boundary orbit: keep only the lex-min member (-A,B,A);
                        # the singleton C = A survives untouched
                        if cc == -a:
                            continue
                    prod = 4 * a * cc
                    bmax = isqrt(abs(prod) + K) + 1
                    for b in range(-bmax, bmax + 1):
                        w = b * b - prod
                        if w == 0:
                            continue
                        if not 0 < abs(16 * a * cc * w) < X:
                            continue
                        c = FamilyCoords(1, a, b, cc)
                        if not is_maximal(c).is_maximal:
                            continue
                        if galois_tag(c) != GaloisTag.D4:
                            continue
                        counts[family_real_signature(c).r2] += 1
                        recs.add((a, b, cc))
    cfg = CensusConfig(x=X, mode="conductor", galois="d4", families=(1,), emit=True)
    tal = run_census(cfg)
    assert [tal.total(k) for k in range(3)] == counts
    assert set(map(tuple, tal.records[:, 1:4].tolist())) == recs


def _pair_pivot_recount(fam, X, pairs, coords, mode="conductor"):
    # independent re-enumeration of one family's canonical records: x is
    # solved per cofactor pair (u, v) from 0 < |y w| < X (conductor) or
    # 0 < |y w^2| < X (discriminant) with 4|w| = |x^2 - y|, filtered by the
    # exact conductor_poly or disc_quartic; the scalar pipeline filters and
    # canonical_coords picks the orbit representative
    from quartic_census.census import CensusConfig, run_census
    from quartic_census.classify import (
        GaloisTag,
        canonical_coords,
        family_real_signature,
        galois_tag,
    )
    from quartic_census.resolvent import conductor_poly

    def value(c):
        return conductor_poly(c) if mode == "conductor" else disc_quartic(to_form(c))

    counts, recs, flagged = [0, 0, 0], set(), 0
    for u, v, y in pairs:
        W = (X - 1) // abs(y)
        if mode == "discriminant":
            W = isqrt(W)
        lo, hi = max(y - 4 * W, 0), y + 4 * W
        if hi < 0:
            continue
        for ax in range(isqrt(lo - 1) + 1 if lo else 0, isqrt(hi) + 1):
            for x in {ax, -ax}:
                c = coords(u, v, x)
                if c is None or c.A == 0 or not 0 < abs(value(c)) < X:
                    continue
                canon, flag = canonical_coords(c)
                if canon != c or not is_maximal(c).is_maximal:
                    continue
                if galois_tag(c) != GaloisTag.D4:
                    continue
                counts[family_real_signature(c).r2] += 1
                recs.add((c.A, c.B, c.C))
                flagged += flag
    cfg = CensusConfig(x=X, mode=mode, galois="d4", families=(fam,), emit=True)
    tal = run_census(cfg)
    assert [tal.total(k) for k in range(3)] == counts
    assert set(map(tuple, tal.records[:, 1:4].tolist())) == recs
    assert tal.excluded["boundary_orbits"] == flagged
    return flagged


def _family2_coords(u, v, x):
    # u = 4A-2B+C, v = 4A+2B+C, x = 4A-C; a canonical member has |u| <= |v|
    if (u + v + 2 * x) % 16 or (v - u) % 4:
        return None
    return FamilyCoords(2, (u + v + 2 * x) // 16, (v - u) // 4, (u + v - 2 * x) // 4)


def _family2_pairs(X):
    # |y| < X in both modes, as |w| >= 1
    return (
        (u, v, u * v)
        for a in range(1, isqrt(X - 1) + 1)
        for b in range(a, (X - 1) // a + 1)
        for u in (a, -a)
        for v in (b, -b)
        if (u - v) % 4 == 0
    )


def _family3_coords(u, v, x):
    # u = 4A-C, v = 2B, x = 4A+C, y = u^2+v^2; a canonical member has B >= 0
    if (u + x) % 8:
        return None
    return FamilyCoords(3, (u + x) // 8, v // 2, (x - u) // 2)


def _family3_pairs(X):
    r = isqrt(X)
    return (
        (u, v, u * u + v * v)
        for v in range(0, r + 1, 2)
        for u in range(-r, r + 1)
        if 0 < u * u + v * v < X
    )


def test_family2_alternate_pivot_recount():
    # the tied orbits u = -v are flagged and canonicalised to B < 0
    X = 30000
    assert _pair_pivot_recount(2, X, _family2_pairs(X), _family2_coords) > 0


def test_family3_alternate_pivot_recount():
    X = 30000
    assert _pair_pivot_recount(3, X, _family3_pairs(X), _family3_coords) == 0


def test_family2_disc_pivot_recount():
    X = 150_000
    assert _pair_pivot_recount(2, X, _family2_pairs(X), _family2_coords, "discriminant") > 0


def test_family3_disc_pivot_recount():
    X = 1_000_000
    assert _pair_pivot_recount(3, X, _family3_pairs(X), _family3_coords, "discriminant") == 0


def test_census_excluded_small_relative():
    from quartic_census.census import count_d4_by_conductor

    s, _ = count_d4_by_conductor(10**6)
    excl = s["excluded"]
    assert excl["c4"] + excl["v4"] + excl["reducible"] < 0.15 * s["total"]
    assert excl["boundary_orbits"] < 0.02 * s["total"]
