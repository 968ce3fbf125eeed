import random

import numpy as np
import pytest

from quartic_census.forms import FamilyCoords, disc_quartic, family2_to_family1, to_form
from quartic_census.maximality import (
    is_fundamental_discriminant,
    is_maximal,
    is_maximal_at,
    vec_is_maximal_at,
)
from quartic_census.order_oracle import order_from_form, p_maximality_oracle

rng = random.Random(5150)


def test_is_maximal_at_examples():
    assert not is_maximal_at(FamilyCoords(1, 4, 0, 1), 2)
    assert is_maximal_at(FamilyCoords(1, 1, 1, -1), 2)
    for p in (2, 3, 5, 7):
        assert not is_maximal_at(FamilyCoords(1, p, p, p), p)


def test_is_maximal_examples():
    rep = is_maximal(FamilyCoords(1, 1, 1, -1))
    assert rep.is_maximal and rep.failing_prime is None
    assert is_maximal(FamilyCoords(1, 1, 0, 1)).is_maximal
    rep = is_maximal(FamilyCoords(1, 9, 0, 1))
    assert not rep.is_maximal and rep.failing_prime == 3
    assert rep.failing_prime is not None
    d = disc_quartic(to_form(FamilyCoords(1, 9, 0, 1)))
    assert d % rep.failing_prime == 0  # failing prime divides the discriminant
    with pytest.raises(ValueError):
        is_maximal(FamilyCoords(1, 1, 2, 1))


def test_report_json():
    import json

    rep = is_maximal(FamilyCoords(1, 9, 0, 1))
    obj = json.loads(rep.to_json())
    assert obj["maximal"] is False and obj["failing_prime"] == 3 and obj["clause"]


def test_fundamental_discriminant():
    assert is_fundamental_discriminant(5)
    assert not is_fundamental_discriminant(4)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(1)
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(8) and is_fundamental_discriminant(-8)
    assert not is_fundamental_discriminant(-9)
    assert is_fundamental_discriminant(12) and not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(16)
    assert not is_fundamental_discriminant(0)


def test_mathematical_residues():
    # negative coefficients must behave as residues, not quotient-rounding
    assert is_maximal_at(FamilyCoords(1, -3, -5, -7), 2) == is_maximal_at(
        FamilyCoords(1, 1, 3, 1), 2
    )
    assert not is_maximal_at(FamilyCoords(1, -9, 1, 1), 3)


def test_vec_matches_scalar():
    for _ in range(200):
        fam = rng.choice((1, 2, 3))
        p = rng.choice((2, 3, 5, 7, 11, 13))
        A = np.array([rng.randint(-60, 60) for _ in range(64)], dtype=np.int64)
        B = np.array([rng.randint(-60, 60) for _ in range(64)], dtype=np.int64)
        C = np.array([rng.randint(-60, 60) for _ in range(64)], dtype=np.int64)
        v = vec_is_maximal_at(fam, A, B, C, p)
        for k in range(0, 64, 7):
            want = is_maximal_at(FamilyCoords(fam, int(A[k]), int(B[k]), int(C[k])), p)
            assert bool(v[k]) == want
    # p = 2 takes residues by bit mask: every A, B, C in [-16, 16), and the
    # same residues shifted by +-2^40, where a mask and a floor-mod part
    # ways if either is wrong for large negatives
    A, B, C = (t.ravel() for t in np.meshgrid(*[np.arange(-16, 16, dtype=np.int64)] * 3, indexing="ij"))
    for fam in (1, 2, 3):
        for shift in (0, 1 << 40, -(1 << 40)):
            As, Bs, Cs = A + shift, B - shift, C + shift
            v = vec_is_maximal_at(fam, As, Bs, Cs, 2).tolist()
            want = [is_maximal_at(FamilyCoords(fam, a, b, c), 2) for a, b, c in zip(As.tolist(), Bs.tolist(), Cs.tolist())]
            assert v == want, (fam, shift)


def test_small_box_oracle_agreement():
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
                    t = order_from_form(F)
                    for p in (2, 3, 5, 7):
                        assert is_maximal_at(c, p) == p_maximality_oracle(t, p), (c, p)


def test_maximal_cover_disc_fundamental():
    # global maximality forces B^2-4AC to be a fundamental discriminant
    hits = 0
    for fam in (1, 2, 3):
        for _ in range(400):
            A = rng.randint(1, 8) * rng.choice((1, -1))
            c = FamilyCoords(fam, A, rng.randint(-8, 8), rng.randint(-8, 8))
            if disc_quartic(to_form(c)) == 0:
                continue
            if is_maximal(c).is_maximal:
                hits += 1
                assert is_fundamental_discriminant(c.disc_h()), c
    assert hits > 100


def test_family2_family1_odd_prime_consistency():
    # the quarter-scaled transform identifies the two local rings away from 2
    for _ in range(500):
        c = FamilyCoords(2, *(rng.randint(-10, 10) for _ in range(3)))
        if disc_quartic(to_form(c)) == 0:
            continue
        img = family2_to_family1(c)
        for p in (3, 5, 7, 11, 13):
            assert is_maximal_at(c, p) == is_maximal_at(img, p), (c, p)
