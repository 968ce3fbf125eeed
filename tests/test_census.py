import os
import random
import signal
from math import isqrt

import pytest

from quartic_census.census import (
    SHARDS_MAX,
    CensusConfig,
    Tallies,
    brute_force_class_oracle,
    count_d4_by_conductor,
    count_d4_by_disc,
    count_v4_by_disc,
    output_hash,
    records_csv,
    run_census,
    summarize,
)
from quartic_census.classify import GaloisTag, canonical_coords, galois_tag
from quartic_census.forms import FamilyCoords, disc_quartic, to_form
from quartic_census.maximality import is_maximal
from quartic_census.resolvent import conductor_poly

rng = random.Random(2)


def _check_windows(bound, square, xlim):
    """The window table at bound against a numpy brute force at every
    |x| <= xlim, and past its xmax every window empty."""
    import numpy as np

    from quartic_census.census import _Windows

    w = _Windows(bound, square)
    e = 2 if square else 1
    for x in range(max(xlim, w.xmax + 1) + 1):
        x2 = x * x
        # y > 0 has y (y - x^2)^e <= bound only within bound // x^2 of x^2,
        # and y < 0 has |y|^(1+e) <= bound
        y = np.arange(-isqrt(bound) - 2, x2 + bound // max(x2, 1) + 3, dtype=np.int64)
        want = (y != 0) & (y != x2) & (np.abs(y) * np.abs(x2 - y) ** e <= bound)
        if x > w.xmax:
            assert not want.any(), (bound, e, x)
            continue
        got = (y < 0) & (-y <= w.neg_hi[x])
        for k in range(3):
            assert w.pos_lo[k, x] >= 1, (bound, e, x)
            got |= (w.pos_lo[k, x] <= y) & (y <= w.pos_hi[k, x])
        assert np.array_equal(got, want), (bound, e, x)
        assert w.reach[x] == np.abs(y[want]).max(initial=0), (bound, e, x)


def test_windows_exhaustive():
    for square in (False, True):
        for bound in (1, 3, 17, 120, 801):
            _check_windows(bound, square, 44)
        # larger bounds, where the peak of y (x^2 - y)^e sits far from both
        # ends of the positive range
        seeded = random.Random(8)
        for _ in range(8):
            _check_windows(seeded.randint(10**4, 3 * 10**5), square, 0)


def _slow_census(X, mode, fams):
    """Independent reference: direct coefficient boxes + scalar pipeline."""
    counts = [0, 0, 0]
    excl = {"c4": 0, "v4": 0, "reducible": 0, "boundary_orbits": 0}
    recs = []
    for fam in fams:
        if fam == 1:
            Am = X // 16 + 1
            Bm = isqrt(X) + 2
            Cm = Am
        elif fam == 2:
            Am = (2 * X + 2 * isqrt(5 * X) + 20) // 16 + 2
            Bm = X // 2 + 2
            Cm = (2 * X + 2 * isqrt(5 * X) + 20) // 4 + 2
        else:
            m = isqrt(X) + 2
            Am, Bm, Cm = 2 * m + 2, m // 2 + 2, 5 * m + 10
        for A in range(-Am, Am + 1):
            if A == 0:
                continue
            for B in range(-Bm, Bm + 1):
                for C in range(-Cm, Cm + 1):
                    c = FamilyCoords(fam, A, B, C)
                    cond = conductor_poly(c)
                    if cond == 0:
                        continue
                    val = abs(cond) if mode == "conductor" else abs(cond * c.disc_h())
                    if not 0 < val < X:
                        continue
                    canon, flag = canonical_coords(c)
                    if canon != c:
                        continue
                    if not is_maximal(c).is_maximal:
                        continue
                    tag = galois_tag(c)
                    if tag != GaloisTag.D4:
                        if tag.value in excl:
                            excl[tag.value] += 1
                        continue
                    if flag:
                        excl["boundary_orbits"] += 1
                    from quartic_census.classify import family_real_signature

                    counts[family_real_signature(c).r2] += 1
                    recs.append((fam, A, B, C))
    return counts, excl, sorted(recs)


@pytest.mark.parametrize("mode,X", [("conductor", 420), ("discriminant", 300)])
def test_engine_matches_slow_reference(mode, X):
    fams = (1, 2, 3)
    counts, excl, recs = _slow_census(X, mode, fams)
    cfg = CensusConfig(x=X, mode=mode, galois="d4", families=fams, emit=True)
    tal = run_census(cfg)
    assert [tal.total(k) for k in range(3)] == counts
    assert tal.excluded == excl
    got = sorted(map(tuple, tal.records[:, :4].tolist()))
    assert got == recs


def test_record_audit():
    # every emitted record passes the scalar pipeline end to end
    s, tal = count_d4_by_conductor(3000, emit=True)
    rows = tal.records.tolist()
    assert len(rows) > 100
    for fam, A, B, C, disc, conductor, r2 in rows[:: max(1, len(rows) // 200)]:
        c = FamilyCoords(fam, A, B, C)
        F = to_form(c)
        assert 0 < abs(conductor) < 3000
        assert conductor == conductor_poly(c)
        assert disc == disc_quartic(F)
        assert is_maximal(c).is_maximal
        assert galois_tag(c) == GaloisTag.D4
        canon, _ = canonical_coords(c)
        assert canon == c
        from quartic_census.classify import family_real_signature

        assert family_real_signature(c).r2 == r2
    # sorted per the documented ordering
    keys = [(abs(cond), fam, A, B, C) for fam, A, B, C, _, cond, _ in rows]
    assert keys == sorted(keys)


def test_strict_bounds_and_empty():
    s, _ = count_d4_by_conductor(1)
    assert s["total"] == 0
    s, _ = count_d4_by_conductor(40)
    # smallest dihedral conductor in range shows up quickly
    assert s["total"] > 0


#: output_hash with emit at X = 2e4, as computed by the per-u enumeration
#: that preceded block enumeration
PINNED_HASH_2E4 = {
    "conductor": "cc7bae1b90c4cf8fda3f5248a62c2612bf1a32f82a8c09ddcc0d3cc74ec0207f",
    "discriminant": "c5aa82878157188f46e03a01217ba251506524e12e54df065a46dc654ae8df93",
}


#: output_hash with emit at conductor X = 1e5, 2 shards, as computed by the
#: per-record emission that preceded column blocks
PINNED_HASH_1E5 = "e8b082bccd3fd33361dcdfde87e4ac1b840ef77b596f39f32f76830da573697b"


def _run_emit(x, mode, shards=1):
    cfg = CensusConfig(x=x, mode=mode, shards=shards, emit=True)
    return cfg, run_census(cfg)


def _hash_2e4(mode, shards=1):
    cfg, tal = _run_emit(20000, mode, shards)
    return output_hash(summarize(cfg, tal), tal)


def test_shard_invariance():
    for mode, pinned in PINNED_HASH_2E4.items():
        for shards in (1, 2, 3, 4):
            assert _hash_2e4(mode, shards) == pinned, (mode, shards)
    cfg, tal = _run_emit(10**5, "conductor", shards=2)
    assert output_hash(summarize(cfg, tal), tal) == PINNED_HASH_1E5


class TwoArgError(Exception):
    """Pickles, but its unpickling calls TwoArgError(message) and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _assert_no_child_left():
    # neither a running child nor a zombie: waitpid has nothing to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def alarm():
    # a hang in the shard path fails the test instead of the whole run
    def hang(signum, frame):
        raise TimeoutError("the shard path hung")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_forked_shard_failures(monkeypatch, alarm):
    # each failure is raised in the parent, and no child outlives run_census;
    # with 3 shards, the second child is still unreaped when the first fails
    from quartic_census import census

    cfg = CensusConfig(x=20000, shards=3, emit=True)
    run_census(cfg)
    _assert_no_child_left()
    parent = os.getpid()
    real = census._run_shard_fork

    class LocalError(Exception):
        pass  # defined in a function, so it cannot be pickled by name

    def shard(units):
        # a child raises the failure of the case, or exits with it if an int
        if os.getpid() != parent:
            if isinstance(failure, int):
                os._exit(failure)
            raise failure
        return real(units)

    monkeypatch.setattr(census, "_run_shard_fork", shard)
    cases = [
        (ValueError("shard failed on purpose"), ValueError, "shard failed on purpose"),
        (3, RuntimeError, "shard 1 exited with status 3 and no result"),
        (LocalError("local failure"), RuntimeError, "(?s)shard child failed.*LocalError: local failure"),
        (TwoArgError("one", "two"), RuntimeError, "(?s)shard child failed.*TwoArgError: one and two"),
    ]
    for failure, exc_type, message in cases:
        with pytest.raises(exc_type, match=message):
            run_census(cfg)
        _assert_no_child_left()
    monkeypatch.setattr(census, "_run_shard_fork", real)

    # an error in the parent's own shard: the children are killed and reaped
    real_run_shard = census._run_shard

    def parent_fails(ctx, units, tal):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_run_shard(ctx, units, tal)

    monkeypatch.setattr(census, "_run_shard", parent_fails)
    with pytest.raises(KeyboardInterrupt):
        run_census(cfg)
    _assert_no_child_left()


def test_records_agree_with_tallies():
    for mode in ("conductor", "discriminant"):
        for shards in (1, 2):
            _, tal = _run_emit(20000, mode, shards)
            rec = tal.records
            assert len(rec) == tal.total() > 0
            for fam in (1, 2, 3):
                for r2 in (0, 1, 2):
                    rows = (rec[:, 0] == fam) & (rec[:, 6] == r2)
                    assert rows.sum() == tal.counts[fam][r2], (mode, shards, fam, r2)


def test_boundary_records_canonical():
    # the flagged boundary pairs are C = -A (family 1) and C = -4A (family 2);
    # their records must be the canonical member of the pair
    for mode in ("conductor", "discriminant"):
        _, tal = _run_emit(20000, mode)
        fam, A, C = tal.records[:, 0], tal.records[:, 1], tal.records[:, 3]
        pair = ((fam == 1) & (C == -A)) | ((fam == 2) & (C == -4 * A))
        rows = tal.records[pair, :4].tolist()
        assert len(rows) == tal.excluded["boundary_orbits"] > 0, mode
        for row in rows:
            c = FamilyCoords(*row)
            assert canonical_coords(c) == (c, True), row


def _force_side(monkeypatch, fam, vside):
    """Send every outer value of family fam to one side, the x-scan or the
    (u, v) pivot; the other families keep their own choice."""
    import numpy as np

    from quartic_census import census

    real = census._vside
    monkeypatch.setattr(
        census, "_vside", lambda ctx, f, us: np.full(len(us), vside) if f == fam else real(ctx, f, us)
    )


@pytest.mark.parametrize("size", [1, 10**9])
def test_block_and_chunk_edges(monkeypatch, size):
    # one outer value per block, one (u, v) pair per v-side piece and one
    # candidate per classification pass, or the whole family in one block and
    # one pass: off-by-ones at edges show here
    from quartic_census import census

    monkeypatch.setattr(census, "BLOCK_XSCAN", size)
    monkeypatch.setattr(census, "CHUNK_CANDIDATES", size)
    for mode, pinned in PINNED_HASH_2E4.items():
        # families 1 and 2 run on both sides here, so the pairs of the v side
        # are split into one-pair pieces or merged into one block as well
        ctx = census._Ctx(CensusConfig(x=20000, mode=mode))
        for fam in (1, 2):
            vside = census._vside(ctx, fam, [u for f, u in ctx.units() if f == fam])
            assert vside.any() and not vside.all(), (mode, fam)
        assert _hash_2e4(mode) == pinned, mode


def test_record_blocks_consolidate(monkeypatch):
    # passes of at most 16 candidates gathered into blocks of 64 rows, so
    # that small X make many blocks of several passes each: no output can
    # change, and a shard keeps full blocks plus at most one partial one
    from quartic_census import census

    monkeypatch.setattr(census, "CHUNK_CANDIDATES", 16)
    monkeypatch.setattr(census, "RECORD_BLOCK_ROWS", 64)
    for mode, pinned in PINNED_HASH_2E4.items():
        assert _hash_2e4(mode) == pinned, mode
    cfg, tal = _run_emit(10**5, "conductor", shards=2)
    assert output_hash(summarize(cfg, tal), tal) == PINNED_HASH_1E5

    ctx = census._Ctx(CensusConfig(x=20000, emit=True))
    tal = census._run_shard(ctx, ctx.units(), Tallies("d4"))
    assert len(tal.blocks) > 10 and all(64 <= len(b) < 64 + 16 for b in tal.blocks)
    assert tal.pending_rows == sum(len(b) for b in tal.pending) < 64
    assert len(tal.records) == tal.total() > 0
    assert len(tal.blocks) == 1 and tal.pending == []

    # merge carries the pending rows of both sides
    units = ctx.units()
    parts = [census._run_shard(ctx, units[k::2], Tallies("d4")) for k in (0, 1)]
    assert parts[0].pending and parts[1].pending
    merged = parts[0].merge(parts[1])
    census._sort_records(tal.records)
    census._sort_records(merged.records)
    assert (merged.records == tal.records).all()


@pytest.mark.parametrize("fam,side", [(1, "x"), (1, "v"), (2, "x"), (2, "v")])
def test_family_side_forced(monkeypatch, fam, side):
    # every outer value of family 1 or 2 from one side, the x-scan or the
    # pairs of the pivot: the per-value choice of side cannot change any output
    _force_side(monkeypatch, fam, side == "v")
    for mode, pinned in PINNED_HASH_2E4.items():
        assert _hash_2e4(mode) == pinned, mode
    cfg, tal = _run_emit(10**5, "conductor", shards=2)
    assert output_hash(summarize(cfg, tal), tal) == PINNED_HASH_1E5


@pytest.mark.parametrize("fam", [1, 2])
def test_family_sides_make_the_same_candidates(monkeypatch, fam):
    # stronger than the hashes, which see only accepted records: the x-scan
    # and the pivot pass the same candidates, multiplicities included, to the
    # filter, and each passes every orbit once, through one member
    import numpy as np

    from quartic_census import census

    def candidates(mode, vside):
        seen = []

        def record(ctx, f, A, B, C, y, w, tal):
            seen.append(np.stack([A, B, C, y, w], axis=1))

        _force_side(monkeypatch, fam, vside)
        monkeypatch.setattr(census, "_classify_and_tally", record)
        run_census(CensusConfig(x=20000, mode=mode, families=(fam,)))
        rows = np.concatenate(seen)
        return rows[np.lexsort(rows.T[::-1])]

    for mode in ("conductor", "discriminant"):
        xs = candidates(mode, False)
        assert len(xs) > 0 and np.array_equal(xs, candidates(mode, True)), mode
        A, B, C = xs[:, 0], xs[:, 1], xs[:, 2]
        # the other member of the orbit: (C, B, A) for family 1, (A, -B, C)
        # for family 2; a tie is its own partner, a boundary pair is not
        partner = np.stack([C, B, A] if fam == 1 else [A, -B, C], axis=1)
        tie = (C == A) if fam == 1 else (B == 0)
        boundary = C == (-A if fam == 1 else -4 * A)
        triples = {tuple(t) for t in xs[:, :3].tolist()}
        assert len(triples) == len(xs), mode
        assert not any(tuple(p) in triples for p in partner[~tie].tolist()), mode
        assert tie.any() and boundary.any(), mode


def test_dropped_filter_tests_stay_implied():
    # the filter tests neither gcd(A, B, C) = 1 nor, for family 1, A and
    # C != 0 mod 4: on any coordinates the 2-adic clauses and a squarefree
    # odd part of w = B^2 - 4AC must imply them.  Seeded triples of both
    # signs up to 2^30, many scaled by a common factor
    import numpy as np

    from quartic_census.arith import is_squarefree, odd_part, primes_upto
    from quartic_census.maximality import vec_is_maximal_at

    seeded = np.random.default_rng(15)
    odd_squares = [int(p) ** 2 for p in primes_upto(1000)[1:]]
    n, scales = 3000, (1, 2, 3, 4, 5, 9, 15, 25, 49, 63)
    for fam in (1, 2, 3):
        shared = 0
        for bits, scaled in ((3, True), (10, True), (24, True), (30, False)):
            g = seeded.choice(scales, size=n) if scaled else 1
            A, B, C = (seeded.integers(-(1 << bits), 1 << bits, size=n) * g for _ in range(3))
            two_adic = vec_is_maximal_at(fam, A, B, C, 2)
            if fam == 1:
                assert not (two_adic & ((A % 4 == 0) | (C % 4 == 0))).any(), bits
            common = np.gcd(np.gcd(A, B), C) != 1
            for a, b, c in zip(*(t[two_adic & common].tolist() for t in (A, B, C))):
                # w has an odd square factor: a small one, or by factoring
                w = b * b - 4 * a * c
                assert any(w % q == 0 for q in odd_squares) or not is_squarefree(odd_part(w)), (fam, a, b, c)
                shared += 1
        assert shared > 1000, fam


def _unpruned_units(ctx):
    """Every outer value of every family, including those ctx.units() skips
    because they cannot pass the filter."""
    out = []
    for fam in ctx.config.families:
        y_eff = ctx.y_eff[fam]
        if fam == 1:
            out.extend((1, a) for a in range(1, isqrt(y_eff // 4 or 1) + 1))
        elif fam == 2:
            out.extend((2, u) for u in range(1, isqrt(y_eff) + 1))
        else:
            out.extend((3, u) for u in range(0, isqrt(y_eff) + 1))
    return out


def test_skipped_outer_values_carry_no_field(monkeypatch):
    # the filter does not test family 1's A or family 2's 4A - 2B + C, the
    # outer value up to sign, so _Ctx.units must leave out exactly the outer
    # values without a maximal form: an unpruned run adds the rows whose
    # outer value fails _outer_ok, none of them maximal, and no other row
    import numpy as np

    from quartic_census import census

    cfg = CensusConfig(x=10**5, shards=2, emit=True)
    ctx = census._Ctx(cfg)
    pruned, full = ctx.units(), _unpruned_units(ctx)
    assert set(pruned) < set(full)
    for fam in (1, 2):
        assert sum(f == fam for f, _ in pruned) < sum(f == fam for f, _ in full), fam
    tal = run_census(cfg)
    monkeypatch.setattr(census._Ctx, "units", _unpruned_units)
    assert census._Ctx(cfg).units() == full
    unpruned = run_census(cfg).records
    fam, A, B, C = unpruned[:, :4].T
    outer = np.abs(np.where(fam == 1, A, 4 * A - 2 * B + C))
    skipped = np.zeros(len(unpruned), dtype=bool)
    for f in (1, 2):
        skipped[fam == f] = ~census._outer_ok(ctx.sf, f, outer[fam == f])
    assert np.array_equal(unpruned[~skipped], tal.records) and len(tal.records) > 0
    extra = unpruned[skipped, :4].tolist()
    assert {row[0] for row in extra} == {1, 2}
    for row in extra:
        assert not is_maximal(FamilyCoords(*row)).is_maximal, row


def test_pruned_xs_keeps_every_row():
    # the x side scans only _pruned_xs at each outer value: every x with a
    # nonempty row of _family1_rows or _family2_rows at any outer value must
    # be among them (x of u's parity for family 2), and some x are pruned
    import numpy as np

    from quartic_census import census

    for mode in ("conductor", "discriminant"):
        ctx = census._Ctx(CensusConfig(x=20000, mode=mode))
        for fam, rows_of in ((1, census._family1_rows), (2, census._family2_rows)):
            w = ctx.windows[fam]
            outers = np.array([u for f, u in _unpruned_units(ctx) if f == fam], dtype=np.int64)
            x = np.arange(-w.xmax, w.xmax + 1, dtype=np.int64)
            u, xs = np.repeat(outers, len(x)), np.tile(x, len(outers))
            if fam == 2:
                u, xs = u[(u - xs) % 2 == 0], xs[(u - xs) % 2 == 0]
            # row columns: the signed outer value, x, start, count, step
            rows = list(rows_of(w, u, xs))
            row_u = np.abs(np.concatenate([r[0] for r in rows]))
            row_x = np.concatenate([r[1] for r in rows])
            scanned = 0
            for a in outers.tolist():
                pruned = census._pruned_xs(w, (4 if fam == 1 else 1) * a * a, None if fam == 1 else a & 1)
                assert np.isin(row_x[row_u == a], pruned).all(), (mode, fam, a)
                scanned += len(pruned)
            assert len(row_x) > 0 and scanned < len(xs), (mode, fam)


def _ragged_reference(starts, counts, step):
    steps = step if isinstance(step, list) else [step] * len(starts)
    return [(k, s + t * j) for k, (s, c, t) in enumerate(zip(starts, counts, steps)) for j in range(c)]


def test_ragged_expansion():
    import numpy as np

    from quartic_census.census import _ragged, _ragged_pieces

    seeded = random.Random(11)
    for trial in range(200):
        n = seeded.randint(0, 12)
        starts = [seeded.randint(-50, 50) for _ in range(n)]
        counts = [seeded.randint(-3, 7) for _ in range(n)]  # zero and negative counts are empty
        step = seeded.choice([seeded.randint(-16, 16), [seeded.randint(-16, 16) for _ in range(n)]])
        want = _ragged_reference(starts, counts, step)
        arr = lambda a: np.array(a, dtype=np.int64)  # noqa: E731
        idx, vals = _ragged(arr(range(n)), arr(starts), arr(counts), arr(step))
        assert list(zip(idx.tolist(), vals.tolist())) == want, trial
        # pieces of one and three values split rows, and join to the whole
        if isinstance(step, list):
            nonneg = [max(c, 0) for c in counts]
            for cap in (1, 3):
                pieces = list(_ragged_pieces(arr(starts), arr(nonneg), arr(step), cap))
                assert all(0 < len(v) <= cap for _, v in pieces), trial
                got = [p for r, v in pieces for p in zip(r.tolist(), v.tolist())]
                assert got == want, (trial, cap)


def deep_check_reference(y_odd: int, g: int) -> bool:
    """The family-3 depth condition by scalar factorisation: the reference
    for census._deep_check."""
    from quartic_census.arith import factorize

    for p, e in factorize(y_odd).items():
        if e >= 2 and (g % p != 0 or e >= 3):
            return False
    return True


def test_deep_check_matches_reference(monkeypatch):
    import numpy as np

    from quartic_census import census
    from quartic_census.arith import factorize

    real, seen = census._deep_check, []

    def recording(ctx, m, g):
        out = real(ctx, m, g)
        seen.append((m.copy(), g.copy(), out))
        return out

    monkeypatch.setattr(census, "_deep_check", recording)
    for X, mode in ((10**5, "conductor"), (10**6, "discriminant")):
        seen.clear()
        run_census(CensusConfig(x=X, mode=mode, families=(3,)))
        m, g, out = (np.concatenate(c) for c in zip(*seen))
        assert len(m) > 1000 and out.any() and not out.all(), mode
        assert out.tolist() == [deep_check_reference(a, b) for a, b in zip(m.tolist(), g.tolist())], mode
    # constructed cases at conductor X = 1e5: y_eff[3] = 99,999, so the
    # tested primes run up to 43 and 47^3 > y_eff[3]
    ctx = census._Ctx(CensusConfig(x=10**5, families=(3,)))
    Y = ctx.y_eff[3]
    assert ctx.deep_primes[-1] == 43 and Y == ctx.sf.limit == 99_999
    r = 313  # the largest prime with r^2 <= Y
    cases = [
        (9 * 5, 3, True),  # p^2 | y with p | g
        (9 * 5, 5, False),  # ... and with p not dividing g
        (27 * 7, 3, False),  # p^3 | y, p | g
        (27 * 7, 0, False),
        (53 * 53, 53, True),  # the square of a prime above the cube root
        (53 * 53, 2 * 53 * 7, True),
        (53 * 53, 1, False),
        (53 * 53 * 9, 3 * 53, True),
        (53 * 53 * 9, 53, False),
        (53 * 59, 1, True),  # two primes above the cube root
        (47 * 53 * 3, 1, True),
        (43 * 43 * 47, 43, True),  # the largest tested prime
        (43 * 43 * 47, 1, False),
        (43**3, 43, False),
        (Y, 3, True),  # y_odd at the limit of the table: 9 * 41 * 271
        (Y, 1, False),
        (r * r, r, True),
        (r * r, 1, False),
        (1, 1, True),
    ]
    m = np.array([c[0] for c in cases], dtype=np.int64)
    g = np.array([c[1] for c in cases], dtype=np.int64)
    got = real(ctx, m, g).tolist()
    assert got == [c[2] for c in cases]
    assert got == [deep_check_reference(a, b) for a, b, _ in cases]
    # every odd y <= Y that is not squarefree, with g = 1, with g the
    # product of y's primes and with a seeded g
    seeded = random.Random(12)
    m = np.arange(1, Y + 1, 2, dtype=np.int64)
    m = m[~ctx.sf.lookup(m)]
    rad = np.array([np.prod(list(factorize(a))) for a in m.tolist()], dtype=np.int64)
    for g in (np.ones_like(m), rad, np.array([seeded.randint(0, 5000) for _ in m], dtype=np.int64)):
        got = real(ctx, m, g).tolist()
        assert got == [deep_check_reference(a, b) for a, b in zip(m.tolist(), g.tolist())]


def _pivot_bounds(X, mode, fam):
    """Python-int bounds on the pivot's intermediates for family fam at X,
    from the bound M and y_eff: M // 4^e for families 2 and 3, M itself for
    family 1, whose pairs y = 4AC have |y| <= |y (x^2 - y)^e| <= M."""
    e = 1 if mode == "conductor" else 2
    if fam == 1:
        M = (X - 1) // 4
        Y = M
    else:
        M = 4**e * X - 1
        Y = M // 4**e  # |u v| and u^2 + v^2 are at most Y; |u| <= isqrt(Y)
    r = isqrt(Y)
    d = max(2 * r + 1, isqrt(M) + 1)  # distance to the nearest square, capped
    bounds = {
        "M // |y|": M,
        "y + s": Y + M,
        "|y - s|": Y + M,
        "x^2": isqrt(Y + M) ** 2,
        "(root + 1)^2": (r + 1) ** 2,
        "d^e |y|": d**e * Y,
        "|x^2 - y|": 2 * Y + M,
    }
    if fam == 1:
        # y < 0 needs |y|^(1+e) <= M, the reach at x = 0
        reach = isqrt(M) if e == 1 else max(t for t in range(int(M ** (1 / 3)) + 2) if t**3 <= M)
        bounds.update({"|4 A C|": Y, "negative reach": reach})
    else:
        bounds.update({"|u v|": Y, "u^2 + v^2": Y, "|u + v + 2x|": r + Y + 2 * isqrt(Y + M)})
    return bounds


def test_pivot_int64_envelope(monkeypatch):
    # at the caps every bound stays below 2^62, where vec_isqrt is exact
    from types import SimpleNamespace

    from quartic_census import census
    from quartic_census.arith import is_prime

    real_isqrt, seen = census.vec_isqrt, []

    def recording_isqrt(n):
        seen.append(int(n.max(initial=0)))
        return real_isqrt(n)

    monkeypatch.setattr(census, "vec_isqrt", recording_isqrt)
    for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
        for fam in (1, 2):
            for name, bound in _pivot_bounds(X, mode, fam).items():
                assert bound < 2**62, (mode, fam, name, bound)
        # the window tables at the cap: every admissible y has |x^2 - y| >= 1,
        # so |y| <= M; the bisection probes y up to x^2 + M at x = xmax + 1
        # and takes square roots of M // |y| <= M
        e = 1 if mode == "conductor" else 2
        tables = {}
        for fam, M in ((1, (X - 1) // 4), (2, 4**e * X - 1)):
            seen.clear()
            w = tables[fam] = census._Windows(M, mode == "discriminant")
            assert w.xmax**2 - 1 <= w.max_abs_y <= M, (mode, fam)
            assert (w.xmax + 1) ** 2 + M < 2**62, (mode, fam)
            assert max(seen, default=0) <= M < 2**62, (mode, fam)
        # the family-1 table stays within its pair bounds
        fam1 = _pivot_bounds(X, mode, 1)
        assert tables[1].max_abs_y <= fam1["|4 A C|"], mode
        assert tables[1].neg_hi[0] == fam1["negative reach"], mode
    # the family-3 depth check at the caps (the squarefree table is not
    # built): the tested primes are the odd p with p^3 <= y_eff[3], so a
    # stripped y_odd is squarefree or the square of a prime r; m only
    # shrinks from y_odd <= y_eff[3], within the table, and r^2 <= m
    for X, mode in ((census.X_MAX_CONDUCTOR, "conductor"), (census.X_MAX_DISC, "discriminant")):
        with monkeypatch.context() as mp:
            mp.setattr(census, "PackedSquarefree", lambda limit: SimpleNamespace(limit=limit))
            ctx = census._Ctx(CensusConfig(x=X, mode=mode, families=(3,)))
        Y, primes = ctx.y_eff[3], ctx.deep_primes.tolist()
        p = primes[-1]
        assert primes == [q for q in range(3, p + 1) if is_prime(q)], mode
        assert next(q for q in range(p + 2, 2 * p) if is_prime(q)) ** 3 > Y, mode
        assert p**3 <= Y == _pivot_bounds(X, mode, 2)["u^2 + v^2"] <= ctx.sf.limit, mode
        assert isqrt(Y) ** 2 <= Y < 2**62, mode
    # and the bounds hold in a run: the largest square-root argument of a
    # census with every family-1 and family-2 outer value on the v side is
    # within its bound
    _force_side(monkeypatch, 1, True)
    _force_side(monkeypatch, 2, True)
    for mode in ("conductor", "discriminant"):
        for fam, fams in ((1, (1,)), (2, (2, 3))):
            seen.clear()
            run_census(CensusConfig(x=20000, mode=mode, families=fams))
            assert 0 < max(seen) <= _pivot_bounds(20000, mode, fam)["y + s"], (mode, fam)


def test_v4_dual_route():
    for X in (10**4, 10**6, 4 * 10**7):
        cfg = CensusConfig(x=X, mode="discriminant", galois="v4", families=(1,))
        tal = run_census(cfg)
        assert tal.total() == count_v4_by_disc(X)


def test_v4_examples():
    # smallest qualifying pairs are (+-1, -+1) at cubic value 12, then
    # (+-1, 0) at value 16
    assert count_v4_by_disc(144) == 0
    assert count_v4_by_disc(145) == 2
    assert count_v4_by_disc(257) == 4
    # hand-checkable box: no values below 12 at all
    assert count_v4_by_disc(100) == 0


def test_v4_count_cap():
    # above the cap the count refuses before allocating its sqrt(X) sieve
    from quartic_census.census import X_MAX_V4_COUNT

    with pytest.raises(ValueError):
        count_v4_by_disc(X_MAX_V4_COUNT + 1)
    with pytest.raises(ValueError):
        count_v4_by_disc(10**40)


def test_d4_disc_growth():
    prev = 0
    for X in (10**4, 4 * 10**4, 16 * 10**4):
        s, _ = count_d4_by_disc(X)
        assert s["total"] > prev
        prev = s["total"]


def test_d4_disc_order_of_magnitude_trend():
    # sandwich between X^(1/2) (log X)^2 and X^(1/2 + 1/loglog X) log X with
    # fitted constants: the lower-normalized ratio sits in a narrow band and
    # the upper-normalized ratio falls
    import math

    lo_ratios, hi_ratios = [], []
    for X in (10**5, 10**6, 10**7):
        s, _ = count_d4_by_disc(X)
        n = s["total"]
        lo_ratios.append(n / (X**0.5 * math.log(X) ** 2))
        hi_ratios.append(n / (X ** (0.5 + 1 / math.log(math.log(X))) * math.log(X)))
    assert all(0.04 < r < 0.08 for r in lo_ratios), lo_ratios
    assert hi_ratios[0] > hi_ratios[1] > hi_ratios[2], hi_ratios


def test_class_oracle_examples():
    classes = brute_force_class_oracle(2)
    by_tag = {}
    for c in classes:
        by_tag.setdefault(c["tag"], []).append(c)
    # x^4 - 2y^4 present with tag d4; x^4 + y^4 with tag v4; no zero-disc
    d4_discs = {c["disc"] for c in by_tag["d4"]}
    assert -2048 in d4_discs
    v4_discs = {c["disc"] for c in by_tag["v4"]}
    assert 256 in v4_discs
    assert all(c["disc"] != 0 for c in classes)


def test_census_agrees_with_class_oracle():
    classes = brute_force_class_oracle(13)
    X0 = 150
    s, tal = count_d4_by_conductor(X0, emit=True)
    census_set = set(map(tuple, tal.records[:, :4].tolist()))
    oracle_set = set()
    for c in classes:
        if c["tag"] != "d4" or not c["maximal"]:
            continue
        if not 0 < abs(c["conductor"]) < X0:
            continue
        reps = {canonical_coords(co)[0] for co in c["members"]}
        assert len(reps) == 1
        canon = reps.pop()
        oracle_set.add((canon.family, canon.A, canon.B, canon.C))
    assert census_set == oracle_set


def test_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(x=0)
    with pytest.raises(ValueError):
        CensusConfig(x=10, mode="nope")
    with pytest.raises(ValueError):
        CensusConfig(x=10, galois="c4")
    with pytest.raises(ValueError):
        CensusConfig(x=10**10)  # beyond the supported vectorized bound
    with pytest.raises(ValueError):
        CensusConfig(x=10, families=(4,))
    with pytest.raises(ValueError, match="nonempty"):
        CensusConfig(x=100, families=())
    with pytest.raises(ValueError, match="shards"):
        CensusConfig(x=10, shards=SHARDS_MAX + 1)


def test_family3_share_decreases():
    shares = []
    for X in (10**5, 10**6):
        s, _ = count_d4_by_conductor(X)
        shares.append(sum(s["per_family"]["3"]) / s["total"])
    assert shares[1] < shares[0]


def test_csv_and_summary_output():
    cfg = CensusConfig(x=600, emit=True)
    tal = run_census(cfg)
    csv = records_csv(tal)
    lines = csv.strip().split("\n")
    assert lines[0] == "family,A,B,C,disc,conductor,galois,r2"
    assert len(lines) == len(tal.records) + 1
    assert all(line.split(",")[6] == "d4" for line in lines[1:])
    # the run's Galois tag is stored once and written on every row
    talv = run_census(CensusConfig(x=10**4, mode="discriminant", galois="v4", families=(1,), emit=True))
    rows = records_csv(talv).strip().split("\n")[1:]
    assert len(rows) == talv.total() > 0
    assert all(row.split(",")[6] == "v4" for row in rows)
    s = summarize(cfg, tal)
    assert set(s["counts"]) == {"r2_0", "r2_1", "r2_2"}
    assert s["ratio"] == s["total"] / s["main_term"]
    assert set(s["excluded"]) == {"c4", "v4", "reducible", "boundary_orbits"}
