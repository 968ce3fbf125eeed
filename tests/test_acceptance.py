"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1, 5 and 6 contain sub-assertions that are faithfully transcribed yet
contradict quadruply-verified computations (the 2-adic symmetric-family
density is 10, not 9, which rescales the Klein leading constant by 6/7, and
the defining Euler product evaluates to 0.42825, whose classical companion
0.70444 is zeta(2) times larger).  Those sub-assertions fail here by design;
the dual-route checks around them pass and pin the computed truth.
"""

import math
import multiprocessing as mp
import random
from math import isqrt

import pytest

from quartic_census.arith import is_squarefree
from quartic_census.forms import (
    BinQuartForm,
    FamilyCoords,
    disc_quartic,
    to_form,
)

BOX = 20
PRIMES = (2, 3, 5, 7, 11, 13)


def _report(k: int, ok: bool, detail: str):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_1_density_closed_forms():
    from quartic_census.densities import rho1, rho2, rho2_prime, rho2_zero, rho_v4

    failures = []
    for a in range(-50, 51):
        if a == 0 or not is_squarefree(a):
            continue
        if rho1(a, 2) != 8:
            failures.append(f"rho1({a},2)={rho1(a, 2)} != 8")
        if rho2(a, 2) != 4:
            failures.append(f"rho2({a},2)={rho2(a, 2)} != 4")
        if rho2_zero(a) != 4:
            failures.append(f"rho2_zero({a})={rho2_zero(a)} != 4")
        for p in (3, 5, 7, 11, 13):
            if rho1(a, p) != p * (2 * p - 1):
                failures.append(f"rho1({a},{p}) != p(2p-1)")
            if rho2(a, p) != p * (2 * p - 1):
                failures.append(f"rho2({a},{p}) != p(2p-1)")
            if rho2_prime(a, p) != 4 * rho2(a, p):
                failures.append(f"rho2_prime({a},{p}) != 4*rho2")
    for p in (3, 5, 7, 11, 13):
        if rho_v4(p) != p * (4 * p - 3):
            failures.append(f"rho_v4({p}) != p(4p-3)")
    if rho_v4(2) != 9:
        failures.append(
            f"rho_v4(2)={rho_v4(2)} != 9 (stated value contradicts the "
            "maximality criteria; computed count 10 is confirmed by the "
            "order oracle, a hand Dedekind check and external round-two)"
        )
    _report(1, not failures, f"{len(failures)} failed sub-assertions: {failures[:3]}")


def _crit2_worker(A):
    from quartic_census.maximality import is_maximal_at
    from quartic_census.order_oracle import order_from_form, p_maximality_oracle

    checked = mismatches = 0
    for fam in (1, 2, 3):
        for B in range(-BOX, BOX + 1):
            for C in range(-BOX, BOX + 1):
                c = FamilyCoords(fam, A, B, C)
                F = to_form(c)
                if disc_quartic(F) == 0:
                    continue
                table = order_from_form(F)
                for p in PRIMES:
                    checked += 1
                    if is_maximal_at(c, p) != p_maximality_oracle(table, p):
                        mismatches += 1
    return checked, mismatches


def test_criterion_2_theorem_vs_oracle_box():
    As = [a for a in range(-BOX, BOX + 1) if a != 0]
    with mp.get_context("fork").Pool(2) as pool:
        res = pool.map(_crit2_worker, As)
    checked = sum(r[0] for r in res)
    mism = sum(r[1] for r in res)
    _report(
        2,
        mism == 0 and checked > 10**6,
        f"{checked} oracle comparisons over the box, {mism} mismatches",
    )


def _crit3_worker(args):
    from quartic_census.order_oracle import order_disc, order_from_form

    kind, payload = args
    bad = 0
    n = 0
    if kind == "box":
        A = payload
        for fam in (1, 2, 3):
            for B in range(-BOX, BOX + 1):
                for C in range(-BOX, BOX + 1):
                    F = to_form(FamilyCoords(fam, A, B, C))
                    n += 1
                    if order_disc(order_from_form(F)) != disc_quartic(F):
                        bad += 1
    else:
        rng = random.Random(payload)
        for _ in range(12500):
            co = [rng.randint(-1000, 1000) for _ in range(5)]
            if co[0] == 0:
                co[0] = 7
            F = BinQuartForm(*co)
            n += 1
            if order_disc(order_from_form(F)) != disc_quartic(F):
                bad += 1
    return n, bad


def test_criterion_3_disc_identity():
    jobs = [("box", a) for a in range(-BOX, BOX + 1) if a != 0]
    jobs += [("random", seed) for seed in range(8)]
    with mp.get_context("fork").Pool(2) as pool:
        res = pool.map(_crit3_worker, jobs)
    n = sum(r[0] for r in res)
    bad = sum(r[1] for r in res)
    _report(3, bad == 0 and n >= 41**2 * 40 * 3 + 10**5, f"{n} disc identities, {bad} failures")


def test_criterion_4_decomposition_suite():
    from quartic_census.classify import is_irreducible
    from quartic_census.forms import STABILIZER_EIGHT, act_quartic, family_membership, from_form, jacobian_det
    from quartic_census.maximality import is_fundamental_discriminant, is_maximal
    from quartic_census.resolvent import conductor_poly, decompose_family

    n = n_max = 0
    for fam in (1, 2, 3):
        for A in range(-6, 7):
            if A == 0:
                continue
            for B in range(-6, 7):
                for C in range(-6, 7):
                    c = FamilyCoords(fam, A, B, C)
                    F = to_form(c)
                    if disc_quartic(F) == 0:
                        continue
                    n += 1
                    d = decompose_family(c)
                    assert d.reconstruct() == F
                    dj = jacobian_det(d.f, d.g).disc()
                    val = d.h.disc() * dj // 4
                    assert disc_quartic(F) % (val * val) == 0
                    base = conductor_poly(c)
                    for T in STABILIZER_EIGHT:
                        img = act_quartic(F, T)
                        if fam in family_membership(img):
                            assert conductor_poly(from_form(img, fam)) == base
                    if is_maximal(c).is_maximal and is_irreducible(F):
                        n_max += 1
                        assert is_fundamental_discriminant(d.h.disc())
                        assert dj in (4, -4)
    _report(4, n > 5000 and n_max > 500, f"{n} decompositions checked, {n_max} maximal irreducible")


def test_criterion_5_constants():
    from quartic_census.asymptotics import SQRT2, elliptic_integrals, iplus_closed_form, r2_proportions
    from quartic_census.densities import euler_product

    failures = []
    ip, im = elliptic_integrals()
    if abs(ip - iplus_closed_form()) >= 1e-9:
        failures.append("elliptic integral vs gamma closed form")
    if abs(im - SQRT2 * ip) >= 1e-9:
        failures.append("sqrt2 ratio of the second integral")
    v6, t6 = euler_product("carefree", 10**6)
    v7, t7 = euler_product("carefree", 10**7)
    if abs(v6 - v7) > t6 + t7:
        failures.append("carefree limits disagree beyond combined tails")
    if abs(v7 - 0.704442) >= 1e-5:
        failures.append(
            f"carefree product = {v7:.6f}, stated 0.704442 is zeta(2) times "
            "the defining product (classical coprime-squarefree pair density)"
        )
    props = r2_proportions()
    exact = (1 / (2 + 2 * SQRT2), SQRT2 / (2 + 2 * SQRT2), 0.5)
    if any(abs(p - e) >= 1e-6 for p, e in zip(props, exact)):
        failures.append("r2 proportions")
    _report(5, not failures, f"failed sub-assertions: {failures or 'none'}")


def test_criterion_6_v4_census_vs_main_term():
    from quartic_census.asymptotics import main_term, v4_density_main_term
    from quartic_census.census import count_v4_by_disc

    X = 10**12
    n = count_v4_by_disc(X)
    mt = main_term("v4_disc", float(X)).value
    ratio = n / mt
    density_ratio = n / v4_density_main_term(float(X))
    ok = abs(ratio - 1) < 0.05
    _report(
        6,
        ok,
        f"N'(10^12)={n}, displayed-constant ratio {ratio:.4f} (needs |r-1|<0.05); "
        f"density-route ratio {density_ratio:.4f} (the 2-adic factor 6/16 vs "
        "displayed 7/16 accounts exactly for the gap)",
    )


def test_criterion_7_d4_conductor_census():
    from quartic_census.asymptotics import SQRT2
    from quartic_census.census import count_d4_by_conductor

    ratios = []
    fam3_shares = []
    split = None
    for X in (10**6, 10**7, 10**8):
        s, _ = count_d4_by_conductor(X, shards=2)
        ratios.append(s["ratio"])
        fam3_shares.append(sum(s["per_family"]["3"]) / s["total"])
        if X == 10**8:
            split = [s["counts"][f"r2_{k}"] / s["total"] for k in (0, 1, 2)]
    in_range = all(0.5 <= r <= 2.0 for r in ratios)
    monotone = abs(ratios[0] - 1) > abs(ratios[1] - 1) > abs(ratios[2] - 1)
    target = (1 / (2 + 2 * SQRT2), SQRT2 / (2 + 2 * SQRT2), 0.5)
    split_dev = [abs(p - t) for p, t in zip(split, target)]
    split_ok = max(split_dev) <= 0.10
    fam3_ok = fam3_shares[0] > fam3_shares[1] > fam3_shares[2]
    _report(
        7,
        in_range and monotone and split_ok and fam3_ok,
        f"ratios {[round(r, 4) for r in ratios]} (range+monotone: {in_range and monotone}); "
        f"split at 1e8 {[round(p, 4) for p in split]} vs {[round(t, 4) for t in target]}, "
        f"max abs dev {max(split_dev):.4f} (<= 0.10), relative dev "
        f"{[round(abs(p / t - 1), 3) for p, t in zip(split, target)]}; "
        f"family-3 share {[round(f, 4) for f in fam3_shares]} decreasing: {fam3_ok}",
    )


def test_criterion_8_pipeline_ground_truth():
    from class_oracle import brute_force_class_oracle

    from quartic_census.census import (
        CensusConfig,
        count_v4_by_disc,
        run_census,
    )
    from quartic_census.classify import canonical_coords
    from quartic_census.resolvent import conductor_poly

    classes = brute_force_class_oracle(8)
    problems = []

    X0 = 60
    cfg = CensusConfig(x=X0, mode="conductor", galois="d4", emit=True)
    tal = run_census(cfg)
    census_set = set(map(tuple, tal.records[:, :4].tolist()))
    for row in census_set:
        assert max(abs(v) for v in to_form(FamilyCoords(*row)).coeffs()) <= 8
    oracle_set = set()
    for c in classes:
        if c["tag"] == "d4" and c["maximal"] and 0 < abs(c["conductor"]) < X0:
            canon = {canonical_coords(co)[0] for co in c["members"]}.pop()
            oracle_set.add((canon.family, canon.A, canon.B, canon.C))
    if census_set != oracle_set:
        problems.append(f"d4 sets differ: {census_set ^ oracle_set}")

    for D0 in (5000, 20000):
        n_oracle = sum(
            1 for c in classes if c["tag"] == "v4" and c["maximal"] and 0 < abs(c["disc"]) < D0
        )
        if n_oracle != count_v4_by_disc(D0):
            problems.append(f"v4 at {D0}: {n_oracle} vs {count_v4_by_disc(D0)}")

    for tag, bound in (("c4", 300), ("reducible", 60)):
        reps = set()
        for c in classes:
            if c["tag"] != tag or not c["maximal"]:
                continue
            for co in c["members"]:
                cp = conductor_poly(co)
                if 0 < abs(cp) < bound:
                    canon, _ = canonical_coords(co)
                    reps.add((canon.family, canon.A, canon.B, canon.C))
        cfgt = CensusConfig(x=bound, mode="conductor", galois="d4")
        talt = run_census(cfgt)
        if len(reps) != talt.excluded[tag]:
            problems.append(f"{tag} at {bound}: {len(reps)} vs {talt.excluded[tag]}")

    _report(
        8,
        not problems,
        f"d4 classes {len(census_set)}, v4/c4/reducible tallies vs oracle: {problems or 'all equal'}",
    )


def test_criterion_9_shard_determinism():
    from quartic_census.census import CensusConfig, output_hash, run_census, summarize

    hashes = []
    for shards in (1, 4, 8):
        cfg = CensusConfig(x=10**5, shards=shards, emit=True)
        tal = run_census(cfg)
        hashes.append(output_hash(summarize(cfg, tal), tal))
    _report(
        9,
        len(set(hashes)) == 1,
        f"output hashes across shards 1/4/8: {hashes[0][:16]}..., identical: {len(set(hashes)) == 1}",
    )
