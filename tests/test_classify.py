import random

import pytest

from quartic_census.classify import (
    GaloisTag,
    ReducibleType,
    canonical_coords,
    family_real_signature,
    galois_tag,
    galois_tag_form,
    is_canonical,
    is_irreducible,
    real_signature,
    reducible_type,
)
from quartic_census.forms import (
    BinQuartForm,
    FamilyCoords,
    disc_quartic,
    to_form,
)
from quartic_census.maximality import is_maximal

rng = random.Random(424242)


def test_irreducible_examples():
    assert is_irreducible(BinQuartForm(1, 0, 0, 0, 1))
    assert not is_irreducible(BinQuartForm(1, 0, 0, 0, -1))
    assert not is_irreducible(BinQuartForm(1, 0, 1, 0, 1))
    with pytest.raises(ValueError):
        is_irreducible(BinQuartForm(0, 1, 0, 0, 1))


def test_irreducible_vs_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    n = 0
    for _ in range(400):
        co = [rng.randint(-8, 8) for _ in range(5)]
        if co[0] == 0:
            continue
        f = sum(c * x ** (4 - i) for i, c in enumerate(co))
        factors = sp.factor_list(f)[1]
        red = not (len(factors) == 1 and factors[0][1] == 1 and sp.degree(factors[0][0]) == 4)
        assert is_irreducible(BinQuartForm(*co)) == (not red), co
        n += 1
    assert n > 300


def test_galois_tag_examples():
    assert galois_tag(FamilyCoords(1, 1, 0, 1)) == GaloisTag.V4
    assert galois_tag(FamilyCoords(1, 1, -4, 2)) == GaloisTag.C4
    assert galois_tag(FamilyCoords(1, 1, 0, -2)) == GaloisTag.D4
    assert galois_tag(FamilyCoords(1, 1, 0, -1)) == GaloisTag.REDUCIBLE
    with pytest.raises(ValueError):
        galois_tag(FamilyCoords(1, 1, 2, 1))
    assert galois_tag_form(BinQuartForm(1, 1, 1, 1, 1)) == GaloisTag.C4  # 5th cyclotomic, palindromic
    assert galois_tag_form(BinQuartForm(1, 0, 0, 1, 1)) == GaloisTag.LARGE
    # (x^2 + x + 1)(x^2 + 2) and (x + 1)^2 (x^2 + 2) lie in no family
    assert galois_tag_form(BinQuartForm(1, 1, 3, 2, 2)) == GaloisTag.REDUCIBLE
    with pytest.raises(ValueError):
        galois_tag_form(BinQuartForm(1, 2, 3, 4, 2))
    with pytest.raises(ValueError):
        galois_tag_form(BinQuartForm(1, 0, 2, 0, 1))  # (x^2 + y^2)^2, family 1
    assert GaloisTag.D4.value == "d4"


def test_galois_tag_orbit_invariance():
    from quartic_census.forms import coords_orbit

    for _ in range(150):
        fam = rng.choice((1, 2, 3))
        A = rng.randint(1, 6) * rng.choice((1, -1))
        c = FamilyCoords(fam, A, rng.randint(-6, 6), rng.randint(-6, 6))
        if disc_quartic(to_form(c)) == 0:
            continue
        tags = {galois_tag(x) for x in coords_orbit(c)}
        assert len(tags) == 1


def test_real_signature_examples():
    assert real_signature(BinQuartForm(1, 0, 0, 0, -2)).r2 == 1
    assert family_real_signature(FamilyCoords(1, 1, -1, 1)).r2 == 2
    assert family_real_signature(FamilyCoords(1, 1, -3, 1)).r2 == 0


def test_real_signature_vs_exact_root_count():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    n = 0
    for _ in range(10**4):
        co = [rng.randint(-20, 20) for _ in range(5)]
        F = BinQuartForm(*co)
        if co[0] == 0 or disc_quartic(F) == 0:
            continue
        n += 1
        if n % 29:  # exact Sturm counting is slow; sample within the stream
            continue
        f = sp.Poly(sum(c * x ** (4 - i) for i, c in enumerate(co)), x)
        nreal = f.count_roots()
        assert real_signature(F).r2 == (4 - nreal) // 2, co
    assert n > 9000


def test_family_signature_agrees_with_generic():
    # the census's vectorised sign tables against the generic rule
    import numpy as np

    from quartic_census.census import _r2_vec

    by_family = {1: [], 2: [], 3: []}
    for _ in range(2000):
        fam = rng.choice((1, 2, 3))
        c = FamilyCoords(fam, *(rng.randint(-9, 9) for _ in range(3)))
        F = to_form(c)
        if F.a4 == 0 or disc_quartic(F) == 0:
            continue
        A, B, C = c.A, c.B, c.C
        # (u, v, x), the coordinates the census classifies in
        u, v, x = {
            1: (4 * A, 4 * C, 2 * B),
            2: (4 * A - 2 * B + C, 4 * A + 2 * B + C, 4 * A - C),
            3: (4 * A - C, 2 * B, 4 * A + C),
        }[fam]
        by_family[fam].append((u, v, x, B * B - 4 * A * C, real_signature(F).r2))
    for fam, rows in by_family.items():
        u, v, x, w, want = np.array(rows, dtype=np.int64).T
        assert len(rows) > 500 and np.array_equal(_r2_vec(fam, u, v, x, w), want), fam


def test_reducible_type_examples():
    assert reducible_type(BinQuartForm(1, 0, 0, 0, -1), 1) == ReducibleType.TYPE2
    assert reducible_type(to_form(FamilyCoords(1, 1, 3, 4)), 1) == ReducibleType.TYPE1
    assert reducible_type(to_form(FamilyCoords(1, 1, 1, -1)), 1) == ReducibleType.IRREDUCIBLE


def test_reducible_classification_complete():
    # every reducible family form lands in a type; TYPE2 forces square cover disc
    from quartic_census.arith import is_square

    seen = {ReducibleType.TYPE1: 0, ReducibleType.TYPE2: 0}
    for fam in (1, 2, 3):
        for A in range(-5, 6):
            if A == 0:
                continue
            for B in range(-5, 6):
                for C in range(-5, 6):
                    c = FamilyCoords(fam, A, B, C)
                    F = to_form(c)
                    if disc_quartic(F) == 0:
                        continue
                    t = reducible_type(F, fam)
                    if t == ReducibleType.TYPE2:
                        assert is_square(c.disc_h()), c
                    if t in seen:
                        seen[t] += 1
    assert seen[ReducibleType.TYPE1] > 30 and seen[ReducibleType.TYPE2] > 30


def test_canonical_coords_examples():
    c, flag = canonical_coords(FamilyCoords(1, 1, 1, 2))
    assert c == FamilyCoords(1, 1, 1, 2) and not flag
    c, flag = canonical_coords(FamilyCoords(1, 2, 1, 1))
    assert c == FamilyCoords(1, 1, 1, 2) and not flag
    c, flag = canonical_coords(FamilyCoords(1, 1, 3, -1))
    assert c == FamilyCoords(1, -1, 3, 1) and flag
    assert is_canonical(FamilyCoords(1, 1, 1, 2))
    assert not is_canonical(FamilyCoords(1, 2, 1, 1))
    with pytest.raises(ValueError):
        canonical_coords(FamilyCoords(1, 1, 2, 1))


def test_canonical_is_orbit_fixed_point():
    for _ in range(300):
        fam = rng.choice((1, 2, 3))
        c = FamilyCoords(fam, *(rng.randint(-8, 8) for _ in range(3)))
        if disc_quartic(to_form(c)) == 0:
            continue
        canon, _ = canonical_coords(c)
        again, _ = canonical_coords(canon)
        assert again == canon


def test_square_disc_shapes():
    # maximal forms with square |disc|: C = +-A (family 1); C = -4A or B = 0
    # (family 2); square disc itself forces the symmetric shape
    from quartic_census.arith import is_square

    hits = 0
    for fam in (1, 2):
        for A in range(-6, 7):
            if A == 0:
                continue
            for B in range(-6, 7):
                for C in range(-10, 11):
                    c = FamilyCoords(fam, A, B, C)
                    F = to_form(c)
                    d = disc_quartic(F)
                    if d == 0 or not is_square(abs(d)):
                        continue
                    if not is_maximal(c).is_maximal:
                        continue
                    hits += 1
                    if fam == 1:
                        assert C == A or C == -A, c
                    else:
                        assert C == -4 * A or B == 0, c
                    if d > 0 and is_square(d) and is_irreducible(F):
                        # Klein forms embed as the symmetric family-1 shape
                        assert galois_tag(c) == GaloisTag.V4
    assert hits > 20


def test_maximal_reducible_forms():
    # families 1, 2: maximal and reducible forces the split cover disc = 1
    hits = 0
    for fam in (1, 2):
        for A in range(-5, 6):
            if A == 0:
                continue
            for B in range(-5, 6):
                for C in range(-8, 9):
                    c = FamilyCoords(fam, A, B, C)
                    F = to_form(c)
                    if disc_quartic(F) == 0 or is_irreducible(F):
                        continue
                    if not is_maximal(c).is_maximal:
                        continue
                    hits += 1
                    assert c.disc_h() == 1, c
                    assert reducible_type(F, fam) == ReducibleType.TYPE2
    assert hits > 10
