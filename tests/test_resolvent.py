import random
from math import gcd

import pytest

from quartic_census.forms import (
    BinQuadForm,
    BinQuartForm,
    FamilyCoords,
    J1,
    J2,
    J3,
    REFERENCE_J,
    STABILIZER_EIGHT,
    act_quartic,
    disc_quartic,
    from_form,
    jacobian_det,
    to_form,
)
from quartic_census.maximality import is_fundamental_discriminant, is_maximal
from quartic_census.resolvent import (
    Decomposition,
    TernaryQuadForm,
    conductor_of_decomposition,
    conductor_poly,
    decompose,
    decompose_family,
    lattice_dets,
    rational_resolvent_root,
    resolvent_cubic,
    ternary_pair,
    theta_invariants,
    w_lattice_basis,
)

rng = random.Random(77)


def rand_primitive_j():
    while True:
        J = BinQuadForm(*(rng.randint(-6, 6) for _ in range(3)))
        if J.disc() != 0 and J.is_primitive():
            return J


def test_w_basis_examples():
    assert w_lattice_basis(J1) == w_lattice_basis(J1).__class__(
        BinQuadForm(1, 0, 0), BinQuadForm(0, 0, 1)
    )
    wb = w_lattice_basis(J3)
    assert {wb.f, wb.g} == {BinQuadForm(1, 0, -1), BinQuadForm(0, 1, 0)}
    wb = w_lattice_basis(J2)
    assert {wb.f, wb.g} == {BinQuadForm(1, 0, 1), BinQuadForm(0, 1, 0)}
    with pytest.raises(ValueError):
        w_lattice_basis(BinQuadForm(2, 0, 2))


def test_decompose_examples():
    d = decompose(BinQuartForm(1, 0, 0, 0, -1), J1)
    assert d.h == BinQuadForm(1, 0, -1)
    d = decompose(BinQuartForm(1, 0, 1, 0, 1), J1)
    assert d.h == BinQuadForm(1, 1, 1)
    d = decompose(BinQuartForm(1, 0, -1, 0, 1), J3)
    assert d.h == BinQuadForm(1, 0, 1)
    with pytest.raises(ValueError):
        decompose(BinQuartForm(1, 1, 0, 0, 0), J1)  # not fixed / disc 0


def test_decompose_rejects_unfixed_form_with_own_error():
    # the twisted action of the involution of J = 2x^2 - 2xy - 6y^2 on this F
    # is not integral; decompose must still say that F is not fixed, not
    # pass on the action's divisibility error
    with pytest.raises(ValueError, match="^F is not fixed by the involution of J$"):
        decompose(BinQuartForm(-3, -6, 5, 0, 5), BinQuadForm(2, -2, -6))


def test_decompose_round_trip_and_divisibility():
    for _ in range(300):
        J = rand_primitive_j()
        wb = w_lattice_basis(J)
        h = BinQuadForm(*(rng.randint(-6, 6) for _ in range(3)))
        F = Decomposition(h, wb.f, wb.g, J).reconstruct()
        if disc_quartic(F) == 0:
            continue
        d = decompose(F, J)
        assert d.reconstruct() == F
        dj = jacobian_det(d.f, d.g).disc()
        val = d.h.disc() * dj // 4
        assert disc_quartic(F) % (val * val) == 0


def test_decomposition_uniqueness():
    # two primitive-pair decompositions give equivalent h: check equal disc and
    # equal represented-value sets at small arguments
    for _ in range(60):
        J = rand_primitive_j()
        wb = w_lattice_basis(J)
        h = BinQuadForm(*(rng.randint(-4, 4) for _ in range(3)))
        F = Decomposition(h, wb.f, wb.g, J).reconstruct()
        if disc_quartic(F) == 0:
            continue
        d = decompose(F, J)
        assert d.h.disc() == h.disc()
        vals = lambda q: sorted(
            q(x, y) for x in range(-3, 4) for y in range(-3, 4)
        )
        assert vals(d.h) == vals(h) or vals(d.h) == vals(BinQuadForm(*[-v for v in h.coeffs()]))


def test_conductor_examples():
    assert conductor_poly(FamilyCoords(1, 1, 1, 1)) == -48
    assert conductor_poly(FamilyCoords(1, 1, 0, -1)) == -64
    assert conductor_poly(FamilyCoords(2, 1, 0, 0)) == 0
    # conductor equals disc(F)/disc(h) on decompositions
    for _ in range(100):
        fam = rng.choice((1, 2, 3))
        c = FamilyCoords(fam, *(rng.randint(-6, 6) for _ in range(3)))
        F = to_form(c)
        if disc_quartic(F) == 0:
            continue
        d = decompose_family(c)
        assert conductor_of_decomposition(d) == conductor_poly(c)
        assert disc_quartic(F) == conductor_poly(c) * c.disc_h()


def test_conductor_orbit_invariance():
    for _ in range(200):
        fam = rng.choice((1, 2, 3))
        c = FamilyCoords(fam, *(rng.randint(-7, 7) for _ in range(3)))
        F = to_form(c)
        base = conductor_poly(c)
        for T in STABILIZER_EIGHT:
            img = act_quartic(F, T)
            if fam in {1, 2, 3} and img != F:
                from quartic_census.forms import family_membership

                if fam in family_membership(img):
                    assert conductor_poly(from_form(img, fam)) == base


def test_resolvent_cubic_examples():
    assert resolvent_cubic(BinQuartForm(1, 0, 1, 0, 1)) == (1, -1, -4, 4)
    assert resolvent_cubic(BinQuartForm(1, 0, 0, 0, -2)) == (1, 0, 8, 0)
    for _ in range(100):
        fam = rng.choice((1, 2, 3))
        A = rng.randint(1, 7) * rng.choice((1, -1))
        c = FamilyCoords(fam, A, rng.randint(-7, 7), rng.randint(-7, 7))
        r = rational_resolvent_root(to_form(c), fam)
        c3, c2, c1, c0 = resolvent_cubic(to_form(c))
        p, q = r.numerator, r.denominator
        assert ((c3 * p + c2 * q) * p + c1 * q * q) * p + c0 * q**3 == 0


def test_rational_root_closed_forms():
    assert rational_resolvent_root(to_form(FamilyCoords(1, 1, 1, 1)), 1) == 1
    assert rational_resolvent_root(to_form(FamilyCoords(2, 2, 3, -1)), 2) == 2
    assert rational_resolvent_root(to_form(FamilyCoords(3, 2, 3, -1)), 3) == -2
    with pytest.raises(ValueError):
        rational_resolvent_root(BinQuartForm(1, 0, 0, 1, 1))  # no rational root


def test_theta_invariants():
    assert set(theta_invariants(to_form(FamilyCoords(1, 1, 1, 1)), 1)) == {0, -432}
    assert set(theta_invariants(to_form(FamilyCoords(1, 1, 0, -1)), 1)) == {0, -1024}
    for _ in range(60):
        A = rng.randint(1, 6) * rng.choice((1, -1))
        c = FamilyCoords(2, A, rng.randint(-6, 6), rng.randint(-6, 6))
        F = to_form(c)
        if disc_quartic(F) == 0:
            continue
        ts = theta_invariants(F, 2)
        assert 0 in ts
        assert set(ts) == {0, c.disc_h() * disc_quartic(F)}


def test_ternary_pair():
    tp = ternary_pair(BinQuartForm(1, 0, 0, 0, 1))
    assert tp.U == TernaryQuadForm(0, 0, 1, -1, 0, 0)
    assert tp.V == TernaryQuadForm(1, 1, 0, 0, 0, 0)
    tp = ternary_pair(BinQuartForm(1, 0, 1, 0, 1))
    assert tp.V == TernaryQuadForm(1, 1, 1, 0, 0, 0)
    tp = ternary_pair(BinQuartForm(0, 0, 0, 0, 0))
    assert tp.V == TernaryQuadForm(0, 0, 0, 0, 0, 0)


def test_lattice_dets():
    assert lattice_dets(J1) == (1, 1)
    assert lattice_dets(J2) == (1, 1)
    assert lattice_dets(J3) == (1, 1)
    assert lattice_dets(BinQuadForm(3, 1, 1)) == (6, 216)
    for _ in range(40):
        J = rand_primitive_j()
        dw, dv = lattice_dets(J)
        assert dv == dw**3


def test_maximal_forms_have_fundamental_cover():
    # maximal irreducible family forms: disc(h) fundamental, jacobian disc +-4
    from quartic_census.classify import is_irreducible

    found = 0
    for _ in range(600):
        fam = rng.choice((1, 2, 3))
        A = rng.randint(1, 8) * rng.choice((1, -1))
        c = FamilyCoords(fam, A, rng.randint(-8, 8), rng.randint(-8, 8))
        F = to_form(c)
        if disc_quartic(F) == 0 or not is_maximal(c).is_maximal:
            continue
        if not is_irreducible(F):
            continue
        found += 1
        d = decompose_family(c)
        assert is_fundamental_discriminant(d.h.disc())
        assert jacobian_det(d.f, d.g).disc() in (4, -4)
    assert found > 50


def test_decomposition_json():
    d = decompose(BinQuartForm(1, 0, 0, 0, -1), J1)
    import json

    obj = json.loads(d.to_json())
    assert obj == {"h": [1, 0, -1], "f": [1, 0, 0], "g": [0, 0, 1], "J": [0, 1, 0]}
