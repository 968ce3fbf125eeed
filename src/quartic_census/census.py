"""Exact desk-scale censuses: dihedral-field counts by conductor and by
discriminant, the symmetric-family count by discriminant, and a brute-force
class oracle for tiny bounds.

Enumeration strategy per family: substitute (u, v, x) with y built from
(u, v), so the bound becomes |y(x^2-y)| <= M (conductor) or |y(x^2-y)^2| <= M
(discriminant).  The outer loop runs over the small cofactor (A or u).  The
other two coordinates are enumerated from one of two sides:

* the x side: a numpy x-array, with the cofactor ranges read from a table
  of exact window endpoints per |x| (families 1 and 2 at small A or u,
  where the band of x around each y is wide);
* the v side: (u, v) pairs, (A, C) for family 1, with the x of each pair
  solved from the band (family 3, and families 1 and 2 at the outer values
  where their pairs cost less than their x-scan; see X_PAIR_COST).

Both sides test one exact integer band, |x^2 - y| <= _gap(|y|): the v side
solves it for x, and the table bisects on it for its window endpoints at
all |x| at once.  The table also keeps the largest |y| of each window, so
the x side scans exactly the x whose window reaches the least |y| of the
outer value (4A^2 or u^2), and the choice of side counts that scan exactly.

The outer values where no candidate can be maximal are skipped before
either side runs (see _outer_ok): family-1 A = 0 mod 4 or with an odd part
that is not squarefree, family-2 u with an odd part that is not squarefree.
Every family runs in blocks of the remaining outer values, in increasing
order, that close once their scan reaches BLOCK_XSCAN; a block turns its
pairs into rows of stepped ranges (of C or v on the x side, of x on the v
side), and the rows are expanded into candidates that are classified in
chunks of at most CHUNK_CANDIDATES.  The v side also solves its pairs in
pieces of at most CHUNK_CANDIDATES, so a block's memory stays bounded
whatever its size.  Classification tests maximality cheapest first (see
_classify_and_tally), each test on the survivors of the one before: the
2-adic clauses; the odd-part squarefree lookups of w = B^2 - 4AC and of
family 1's C or family 2's 4A + 2B + C (A and 4A - 2B + C are the outer
value, already passed by _outer_ok); then the family-3 depth condition.

Shards partition the outer values by stride; every aggregate is a
commutative sum, so neither the shard count, the block and chunk sizes nor
the side chosen for an outer value can change any output.  Shard 0 runs in
the calling process and every other shard in a forked child that pickles
its tallies back through a pipe (see _run_forked).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import PackedSquarefree, primes_upto, vec_is_square, vec_isqrt
# factorize is unused here, but perfbench/tracer.py times census.factorize
from .arith import factorize  # noqa: F401
from .forms import BinQuartForm, FamilyCoords, disc_quartic, hessian_seminvariants
from .maximality import vec_is_maximal_at

#: int64 safety caps for the vectorized engines (explicit errors above).
X_MAX_CONDUCTOR = 250_000_000
X_MAX_DISC = 200_000_000
#: count_v4_by_disc sieves up to sqrt(X): a 12.5 MB table at this cap.
X_MAX_V4_COUNT = 10**16
#: Every shard but the first is a forked process; more are refused.
SHARDS_MAX = 64

#: A block of outer values closes once its scan, 2*xmax+1 per value on the
#: x side and its pairs on the v side, reaches this size.  Blocks amortize
#: the per-call numpy overhead; larger ones gain little time and raise the
#: peak RSS.
BLOCK_XSCAN = 1 << 15
#: A family-1 or family-2 outer value is enumerated from the v side when its
#: pairs number at most this many times its x-scan: an x-side (u, x) pair
#: goes through four window pieces and both signs of u, a v-side pair
#: through one square root.  Family-2 enumeration time is flat within
#: noise from 2 to 4 and grows outside it, by conductor and by discriminant
#: at X = 6e5 and 1e7 (2-vCPU Xeon VM); 3 was fastest or tied.
X_PAIR_COST = 3
#: At most this many candidates go through one classification pass, and at
#: most this many (u, v) pairs through one band pass on the v side, which
#: bounds the size of their temporaries (2^15 pairs per band pass raised
#: the peak RSS of a shard at conductor X = 3e5 by 1.2 MB, at equal speed).
CHUNK_CANDIDATES = 1 << 13
#: Records are formatted and hashed this many CSV rows at a time.
CSV_CHUNK_ROWS = 1 << 14
#: Emitted records are kept in blocks of at least this many rows (3.7 MB):
#: glibc maps blocks that large on their own, so joining them returns their
#: memory to the OS, where the small block of each pass would stay on the heap.
RECORD_BLOCK_ROWS = 1 << 16

#: The columns of a record row, in CSV order; the Galois tag, the same for
#: every record of a run, sits between conductor and r2 in the CSV.
RECORD_COLUMNS = ("family", "A", "B", "C", "disc", "conductor", "r2")


@dataclass
class CensusConfig:
    x: int
    mode: str = "conductor"  # or "discriminant"
    galois: str = "d4"  # or "v4"
    r2: int | None = None
    families: tuple[int, ...] = (1, 2, 3)
    shards: int = 1
    emit: bool = False

    def __post_init__(self):
        self.families = tuple(sorted(set(self.families)))
        if self.x < 1:
            raise ValueError("X must be >= 1")
        if self.mode not in ("conductor", "discriminant"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.galois not in ("d4", "v4"):
            raise ValueError(f"unsupported galois filter {self.galois!r}")
        if self.r2 not in (None, 0, 1, 2):
            raise ValueError("r2 filter must be None, 0, 1 or 2")
        if not self.families or any(f not in (1, 2, 3) for f in self.families):
            raise ValueError("families must be a nonempty subset of {1,2,3}")
        if not 1 <= self.shards <= SHARDS_MAX:
            raise ValueError(f"shards must be within [1, {SHARDS_MAX}], got {self.shards}")
        cap = X_MAX_CONDUCTOR if self.mode == "conductor" else X_MAX_DISC
        if self.x > cap:
            raise ValueError(
                f"X={self.x} exceeds the supported bound {cap} for {self.mode} mode"
            )


class Tallies:
    """Order-independent aggregation of census results.

    Emitted records are int64 blocks of rows laid out as RECORD_COLUMNS.
    `add_records` gathers the rows of each pass as pending until they make a
    block of RECORD_BLOCK_ROWS; `records` joins all of them into one array on
    first use."""

    def __init__(self, galois: str):
        self.counts = np.zeros((4, 3), dtype=np.int64)  # [family][r2]
        self.excluded = {"c4": 0, "v4": 0, "reducible": 0, "boundary_orbits": 0}
        self.galois = galois  # the tag of every record
        self.blocks: list[np.ndarray] = []
        self.pending: list[np.ndarray] = []
        self.pending_rows = 0

    def add_records(self, rows: np.ndarray) -> None:
        self.pending.append(rows)
        self.pending_rows += len(rows)
        if self.pending_rows >= RECORD_BLOCK_ROWS:
            self._flush()

    def _flush(self) -> None:
        if self.pending:
            self.blocks.append(np.concatenate(self.pending))
            self.pending = []
            self.pending_rows = 0

    @property
    def records(self) -> np.ndarray:
        self._flush()
        if len(self.blocks) != 1:
            # each block is freed once it is copied, so the blocks and the
            # joined table are not held in full at the same time
            n = sum(len(b) for b in self.blocks)
            rec = np.empty((n, len(RECORD_COLUMNS)), dtype=np.int64)
            while self.blocks:
                block = self.blocks.pop()
                rec[n - len(block) : n] = block
                n -= len(block)
            self.blocks = [rec]
        return self.blocks[0]

    def merge(self, other: "Tallies") -> "Tallies":
        self.counts += other.counts
        for k in self.excluded:
            self.excluded[k] += other.excluded[k]
        self.blocks.extend(other.blocks)
        self.pending.extend(other.pending)
        self.pending_rows += other.pending_rows
        return self

    def total(self, r2: int | None = None) -> int:
        if r2 is None:
            return int(self.counts.sum())
        return int(self.counts[:, r2].sum())


# ---------------------------------------------------------------------------
# exact integer window endpoints


def _gap(bound: int, square: bool, ay):
    """The widest |x^2 - y| the bound M allows at |y| = ay >= 1: M // |y| by
    conductor, isqrt(M // |y|) by discriminant (exact, as x^2 - y is an
    integer)."""
    s = bound // ay
    return vec_isqrt(s) if square else s


def _reach(ok, hi):
    """Elementwise the largest t in [0, hi] with ok(t), for ok true up to some
    t and false past it.  ok is probed within [0, hi] and must accept t = 0,
    which counts as true whatever ok says."""
    a, b = np.zeros_like(hi), hi + 1
    while True:
        live = b - a > 1
        if not live.any():
            return a
        mid = (a + b) >> 1
        good = ok(mid)
        a = np.where(live & good, mid, a)
        b = np.where(live & ~good, mid, b)


class _Windows:
    """Per-|x| exact window endpoints of the y with y != 0, y != x^2 and
    |y (x^2 - y)^e| <= bound: one negative run (y from -neg_hi to -1) and
    three positive runs [pos_lo[k], pos_hi[k]], empty as lo = 1 > hi = 0.

    Each run is monotone in its distance t from where it starts, so its far
    end comes from one vectorised bisection over all |x| on the test
    |x^2 - y| <= _gap(|y|): y = -t; y = t up to the peak of y (x^2 - y)^e at
    x^2 // (e+1); y = x^2 - t down to past that peak; y = x^2 + t."""

    def __init__(self, bound: int, square: bool):
        # beyond xmax every run is empty: the cheapest admissible point is
        # y = x^2 - 1 with value x^2 - 1 for either exponent; row xmax + 1
        # is built as well to check that
        xmax = isqrt(bound + 1)
        x2 = np.arange(xmax + 2, dtype=np.int64) ** 2
        peak = x2 // (3 if square else 2)

        def ok(y):
            return np.abs(x2 - y) <= _gap(bound, square, np.maximum(np.abs(y), 1))

        # the far ends: y = -t needs t^(1+e) <= bound, and y = x^2 + t needs
        # t <= bound // y <= bound // max(x^2, 1)
        neg = _reach(lambda t: ok(-t), np.full_like(x2, isqrt(bound)))
        inner = _reach(ok, peak)
        outer = _reach(lambda t: ok(x2 - t), np.maximum(x2 - peak - 1, 0))
        right = _reach(lambda t: ok(x2 + t), bound // np.maximum(x2, 1))
        lo = np.stack([np.ones_like(x2), x2 - outer, x2 + 1])
        hi = np.stack([inner, x2 - 1, x2 + right])
        empty = np.stack([inner, outer, right]) == 0
        lo[empty], hi[empty] = 1, 0
        assert neg[-1] == 0 and empty[:, -1].all()
        self.xmax = xmax
        self.neg_hi = neg[:-1]
        self.pos_lo = lo[:, :-1].copy()
        self.pos_hi = hi[:, :-1].copy()
        # the largest |y| of the window at each |x| (0 where it is empty)
        self.reach = np.maximum(self.neg_hi, self.pos_hi.max(axis=0))
        self.reach_sorted = np.sort(self.reach)
        self.max_abs_y = int(self.reach.max(initial=0))

    # unused by the engine; perfbench/tracer.py times contains_mask by name
    def contains_mask(self, ax: np.ndarray, y) -> np.ndarray:
        """Vectorized membership of y in the window at each |x|; y is one
        integer or one per |x|, all of one sign."""
        if np.any(y < 0):
            return self.neg_hi[ax] >= -y
        m = np.zeros(len(ax), dtype=bool)
        for k in range(3):
            m |= (self.pos_lo[k, ax] <= y) & (y <= self.pos_hi[k, ax])
        return m


def _ceil_div(a, b):
    return -((-a) // b)


def _ragged(idx, starts, counts, step):
    """Expand stepped ranges: for each k, counts[k] values starts[k]+step*j,
    where step is one integer or one per range.

    Returns (gathered idx entries, values) as flat arrays."""
    counts = np.maximum(counts, 0)
    # value j of range k sits at flat position base[k] + j, so it is
    # starts[k] - step*base[k] + step*position; a zero count repeats nothing
    base = np.cumsum(counts) - counts
    step = np.broadcast_to(step, counts.shape)
    pos = np.arange(int(counts.sum()), dtype=np.int64)
    return np.repeat(idx, counts), np.repeat(starts - step * base, counts) + np.repeat(step, counts) * pos


# ---------------------------------------------------------------------------
# shared candidate classification


class _Ctx:
    """Read-only tables shared by all units of one census run."""

    def __init__(self, config: CensusConfig):
        self.config = config
        X = config.x
        if config.mode == "conductor":
            self.square = False
            self.bounds = {1: (X - 1) // 4, 2: 4 * X - 1, 3: 4 * X - 1}
        else:
            self.square = True
            self.bounds = {1: (X - 1) // 4, 2: 16 * X - 1, 3: 16 * X - 1}
        # family 3 solves x per (u, v) and reads no table; families 1 and 2
        # never share a bound, so no table is built twice
        self.windows = {i: _Windows(self.bounds[i], self.square) for i in config.families if i != 3}
        # families 2 and 3 have x^2 - y = 4(B^2-4AC), so admissible y satisfy
        # |x^2-y| >= 4 and |y| <= bound/4^e; family 1 has no such gain
        div = 4 if config.mode == "conductor" else 16
        self.y_eff = {
            i: self.windows[1].max_abs_y if i == 1 else self.bounds[i] // div
            for i in config.families
        }
        lim = max(max(self.y_eff.values()), 16)
        # one packed table serves cofactors and quadratic-cover discriminants
        self.sf = PackedSquarefree(lim)
        self.deep_primes = _cube_root_primes(self.y_eff.get(3, 0))

    def units(self) -> list[tuple[int, int]]:
        """The (family, outer value) pairs of the run: every family-3 u, and
        the family-1 and family-2 outer values that pass _outer_ok."""
        out = []
        for fam in self.config.families:
            y_eff = self.y_eff[fam]
            if fam == 3:
                out.extend((3, u) for u in range(0, isqrt(y_eff) + 1))
                continue
            top = isqrt((y_eff // 4 or 1) if fam == 1 else y_eff)
            u = np.arange(1, top + 1, dtype=np.int64)
            out.extend((fam, v) for v in u[_outer_ok(self.sf, fam, u)].tolist())
        return out


def _outer_ok(sf: PackedSquarefree, fam: int, u: np.ndarray) -> np.ndarray:
    """Which outer values u > 0 of family 1 or 2 can carry a maximal form:
    those whose odd part is squarefree, and for family 1 also u != 0 mod 4.
    On every candidate of outer value u, family 1's A and family 2's
    4A - 2B + C are +-u, and the filter would reject any other u there."""
    ok = sf.odd_squarefree(u)
    return ok & ((u & 3) != 0) if fam == 1 else ok


def _classify_and_tally(ctx: _Ctx, fam: int, A, B, C, y, w, tal: Tallies):
    """Maximality filter + Galois/r2 classification of candidate coordinate
    arrays, accumulated into the tallies.

    y is the cofactor product (4AC, uv, or u^2+v^2), w = B^2-4AC.  The odd
    primes are handled by squarefree-odd-part tests, p=2 by the clause set;
    jointly these are exactly global maximality.  The tests run cheapest
    first, each on the survivors of the one before: the 2-adic clauses, the
    squarefree lookups, then family 3's depth condition.

    gcd(A, B, C) = 1 needs no test of its own: an odd p dividing A, B and C
    puts p^2 in w, whose odd-part test rejects it, and 2 dividing all three
    fails the 2-adic clauses.  Family 1's A, C != 0 mod 4 are 2-adic clauses
    too.  Family 1's A and family 2's 4A - 2B + C are not looked up either:
    they are +-u at the outer value u of every candidate, and the units hold
    only the u that pass _outer_ok.  So the filter is exact on the
    candidates of those units, not on arbitrary ones.

    The boundary orbits are the pairs C = -A (family 1) and v = -u, that is
    C = -4A (family 2); the enumeration passes only their canonical member,
    A < 0 or B < 0.
    """
    cfg = ctx.config
    A, B, C, y, w = _compact((A != 0) & vec_is_maximal_at(fam, A, B, C, 2), A, B, C, y, w)
    odd_sf = ctx.sf.odd_squarefree
    ok = odd_sf(w)
    if fam == 1:
        ok &= odd_sf(C)
    elif fam == 2:
        ok &= odd_sf(4 * A + 2 * B + C)
    A, B, C, y, w = _compact(ok, A, B, C, y, w)
    if fam == 3:
        A, B, C, y, w = _compact(_fam3_deep_condition(ctx, y, A, B, C), A, B, C, y, w)
    if len(A) == 0:
        return

    conductor = 4 * y * w if fam == 1 else y * w
    disc = conductor * w

    reducible = w == 1
    if fam == 3:
        reducible = reducible | _fam3_type1_pattern(A, B, C)
    v4 = ~reducible & vec_is_square(disc)
    c4 = ~reducible & ~v4 & vec_is_square(conductor)
    d4 = ~(reducible | v4 | c4)

    tal.excluded["reducible"] += int(reducible.sum())
    tal.excluded["c4"] += int(c4.sum())

    keep = v4 if cfg.galois == "v4" else d4
    if cfg.galois == "d4":
        tal.excluded["v4"] += int(v4.sum())
    if fam != 3:
        tal.excluded["boundary_orbits"] += int((keep & (C == (-A if fam == 1 else -4 * A))).sum())

    r2v = _r2_vec(fam, A, B, C)
    if cfg.r2 is not None:
        keep = keep & (r2v == cfg.r2)
    for r2 in (0, 1, 2):
        tal.counts[fam][r2] += int((keep & (r2v == r2)).sum())

    if cfg.emit and keep.any():
        k = np.flatnonzero(keep)
        fams = np.full(len(k), fam, dtype=np.int64)
        tal.add_records(np.stack([fams, A[k], B[k], C[k], disc[k], conductor[k], r2v[k]], axis=1))


def _compact(ok, *cols):
    """The entries of each column where ok holds."""
    keep = np.flatnonzero(ok)
    return [c[keep] for c in cols]


def _r2_vec(fam, A, B, C):
    r2 = np.full(len(A), 2, dtype=np.int64)
    if fam == 1:
        ac = A * C
        r2[ac < 0] = 1
        r2[(ac > 0) & (B * B - 4 * ac > 0) & (A * B < 0)] = 0
        return r2
    if fam == 2:
        u = 4 * A - 2 * B + C
        v = 4 * A + 2 * B + C
        uv = u * v
        r2[uv < 0] = 1
        r2[(uv > 0) & (B * B - 4 * A * C > 0) & (u * (4 * A - C) < 0)] = 0
        return r2
    # family 3: disc > 0 always, so r2 is 0 or 2 via the sign table of the
    # form (A, B, C - 2A, -B, A)
    H, S = hessian_seminvariants(A, B, C - 2 * A, -B, A)
    r2[(S > 0) & (H < 0)] = 0
    return r2


def _fam3_type1_pattern(A, B, C):
    """Vectorized test for the involution-pair split that survives the
    family-3 maximality filters (scale factor forced to |m(a+c)| = 1)."""
    out = np.zeros(len(A), dtype=bool)
    for m in (1, -1):
        s2 = 1 - 4 * m * A
        b2 = 1 - m * C
        out |= vec_is_square(s2) & vec_is_square(b2) & (B * B == s2 * b2)
    return out


def _fam3_deep_condition(ctx: _Ctx, y, A, B, C):
    """Family-3 odd-prime depth condition on y = (4A-C)^2 + 4B^2: nonzero mod
    p^2 in general, but only mod p^3 at primes dividing both 4A-C and B."""
    yo = y // (y & -y)
    out = ctx.sf.lookup(yo)
    tricky = np.flatnonzero(~out)
    if len(tricky):
        A, B, C = A[tricky], B[tricky], C[tricky]
        out[tricky] = _deep_check(ctx, yo[tricky], np.gcd(np.abs(4 * A - C), np.abs(B)))
    return out


def _cube_root_primes(Y: int) -> np.ndarray:
    """The odd primes p with p^3 <= Y."""
    p = primes_upto(int(Y ** (1 / 3)) + 1)
    return p[(p > 2) & (p**3 <= Y)]


def _deep_check(ctx: _Ctx, m, g):
    """The depth condition at odd y = m <= y_eff[3], g = gcd(4A-C, B): no
    odd p with p^2 | m unless p | g and p^3 does not divide m.

    The primes with p^3 <= y_eff[3] are tested at every entry at once and
    divided out, p^2 at most, which is all of p where the entry passes;
    what is left there has at most two prime factors, so it is squarefree
    or the square of a prime r, and r^3 > m leaves only r | g to test."""
    i, j = np.nonzero(m[:, None] % ctx.deep_primes == 0)  # the p | m
    p = ctx.deep_primes[j]
    q = m[i] // p
    twice = q % p == 0
    ok = np.ones(len(m), dtype=bool)
    ok[i[twice & ((g[i] % p != 0) | (q % (p * p) == 0))]] = False
    div = np.ones_like(m)
    np.multiply.at(div, i, np.where(twice, p * p, p))  # divides m
    m = m // div
    square = np.flatnonzero(ok & ~ctx.sf.lookup(m))
    ok[square] = g[square] % vec_isqrt(m[square]) == 0
    return ok


# ---------------------------------------------------------------------------
# per-family units


def _branches(w: _Windows, ax):
    """(sign, lo, hi) absolute-value branch arrays at the given |x| indices."""
    yield -1, np.ones(len(ax), dtype=np.int64), w.neg_hi[ax]
    for k in range(3):
        yield 1, w.pos_lo[k, ax], w.pos_hi[k, ax]


def _pruned_xs(w: _Windows, outer_sq: int, parity: int | None = None):
    """Signed x values whose window holds some |y| >= outer_sq, optionally
    restricted to x = parity mod 2."""
    a = np.flatnonzero(w.reach >= outer_sq)
    xs = np.concatenate([-a[a > 0][::-1], a])
    if parity is not None:
        xs = xs[(xs & 1) == parity]
    return xs


# perfbench/tracer.py times each family by these three names
def _family1_unit(ctx: _Ctx, A: np.ndarray, vside: np.ndarray, tal: Tallies):
    _unit(ctx, 1, A, vside, tal)


def _family2_unit(ctx: _Ctx, u: np.ndarray, vside: np.ndarray, tal: Tallies):
    _unit(ctx, 2, u, vside, tal)


def _family3_unit(ctx: _Ctx, u: np.ndarray, vside: np.ndarray, tal: Tallies):
    _unit(ctx, 3, u, vside, tal)


def _unit(ctx: _Ctx, fam: int, u: np.ndarray, vside: np.ndarray, tal: Tallies):
    """One block of outer values u of family fam, each from the side (v side
    where vside) that _blocks picked for it."""
    if not vside.all():
        _xside(ctx, fam, u[~vside], tal)
    if vside.any():
        _emit_vside(ctx, fam, _VROWS[fam](ctx, u[vside]), tal)


def _vside(ctx: _Ctx, fam: int, us) -> np.ndarray:
    """Which family-1 or family-2 outer values enumerate from the v side:
    those whose pairs number at most X_PAIR_COST times their x-scan, the
    |x| of _pruned_xs at the outer square 4A^2 (family 1, counted for both
    signs of x) or u^2 (family 2, where one parity of signed x is scanned)."""
    w = ctx.windows[fam]
    u = np.asarray(us, dtype=np.int64)
    sq, signs = (4, 2) if fam == 1 else (1, 1)
    xlen = len(w.reach_sorted) - np.searchsorted(w.reach_sorted, sq * u * u)
    return _v_pairs(ctx, fam, u) <= X_PAIR_COST * signs * xlen


def _xside(ctx: _Ctx, fam: int, us: np.ndarray, tal: Tallies):
    """The (outer, x) pairs of a block over their pruned x-ranges (one parity
    of x for family 2), as rows of stepped C or v ranges."""
    w = ctx.windows[fam]
    sq = 4 if fam == 1 else 1
    xs_of = [_pruned_xs(w, sq * u * u, parity=None if fam == 1 else u & 1) for u in us.tolist()]
    u = np.repeat(us, [len(xs) for xs in xs_of])
    xs = np.concatenate(xs_of)
    rows = (_family1_rows if fam == 1 else _family2_rows)(w, u, xs)
    _emit_rows(ctx, _EMIT[fam], rows, tal)


def _family1_rows(w: _Windows, a, xs):
    """Row batches of the (A, x) pairs: each branch and sign of A with C from
    |C| = A on (the C = A ties, the singleton orbits), except that C = -A is
    taken only as (A, C) = (-|A|, |A|), the canonical member of its pair."""
    step = 4 * a
    for sign, lo_a, hi_a in _branches(w, np.abs(xs)):
        lo = _ceil_div(lo_a, step)
        for sA in (1, -1):
            first = np.maximum(lo, a + (sign < 0 and sA > 0))
            yield _rows(sA * a, xs, sA * sign * first, hi_a // step - first + 1, sA * sign)


def _family1_vrows(ctx: _Ctx, a: np.ndarray) -> list[tuple]:
    """v-side rows (A, first C, count, step) at outer values A: for each sign
    of A, C of the same sign from C = A (the tie) while 4AC <= y_eff, then C
    of the other sign while -4AC stays within the negative window piece,
    whose widest reach is at x = 0: from |C| = A for A < 0 (the boundary
    pair (-|A|, |A|)), from |C| > A for A > 0."""
    Y = ctx.y_eff[1]
    N = min(Y, int(ctx.windows[1].neg_hi[0]))
    rows = []
    for sA in (1, -1):
        first = a + (sA > 0)
        rows.append((sA * a, sA * a, Y // (4 * a) - a + 1, sA))
        rows.append((sA * a, -sA * first, N // (4 * a) - first + 1, -sA))
    return rows


def _emit_family1(ctx, A, C, xi, tal):
    y = 4 * A * C
    _classify_and_tally(ctx, 1, A, xi, C, y, xi * xi - y, tal)


def _family2_rows(w: _Windows, u, xs):
    """Row batches of the (u, x) pairs: each branch and sign of u with v from
    |v| = u on (the v = u ties, the B = 0 singletons), except that v = -u is
    taken only for u > 0, where B = -u/2 < 0 is the canonical member of its
    pair.  The residue of v mod 16 puts u + x = 0 mod 8 on a tie and x = 0
    mod 8 on a boundary pair, so u is even there, as x has u's parity."""
    for sign, lo_a, hi_a in _branches(w, np.abs(xs)):
        # a piece is reachable only if it holds some y = u*v with |v| >= u
        live = np.flatnonzero(hi_a >= np.maximum(lo_a, u * u))
        ul, xl = u[live], xs[live]
        lo = _ceil_div(lo_a[live], ul)
        vhi = hi_a[live] // ul
        for su in (1, -1):
            sv = su * sign
            u_v = su * ul
            vlo = np.maximum(lo, ul + (sign < 0 and su < 0))
            res = (sv * (-u_v - 2 * xl)) & 15
            first = vlo + ((res - vlo) & 15)
            yield _rows(u_v, xl, sv * first, ((vhi - first) >> 4) + 1, 16 * sv)


def _family2_vrows(ctx: _Ctx, u: np.ndarray) -> list[tuple]:
    """v-side rows (u_v, first v, count, step) at outer values u, v = u
    mod 4: for each sign of u, v of the same sign from v = u (the B = 0 tie)
    while uv <= y_eff, then v of the other sign while -uv stays within the
    negative window piece, whose widest reach is at x = 0: from |v| >= u for
    u > 0 (v = -u, for even u, is the boundary pair), from |v| > u for
    u < 0."""
    Y = ctx.y_eff[2]
    N = min(Y, int(ctx.windows[2].neg_hi[0]))
    rows = []
    for su in (1, -1):
        lo = u + (su < 0)
        first = lo + ((-u - lo) & 3)  # the least |v| >= lo with v = su*u mod 4
        rows.append((su * u, su * u, (Y // u - u) // 4 + 1, 4 * su))
        rows.append((su * u, -su * first, (N // u - first) // 4 + 1, -4 * su))
    return rows


def _emit_family2(ctx, u_v, v_v, xi, tal):
    y = u_v * v_v
    A = (u_v + v_v + 2 * xi) >> 4
    B = (v_v - u_v) >> 2
    C = (u_v + v_v - 2 * xi) >> 2
    wq = (xi * xi - y) >> 2
    _classify_and_tally(ctx, 2, A, B, C, y, wq, tal)


def _family3_vrows(ctx: _Ctx, u: np.ndarray) -> list[tuple]:
    """v-side rows (u_v, first v, count, step) at outer values u >= 0: both
    signs of u (u = 0 once) and v = 0, 2, 4, ... with u^2 + v^2 <= y_eff;
    v = 0 is the singleton row, and y = 0 is left out."""
    n = vec_isqrt(ctx.y_eff[3] - u * u) // 2 + 1
    z = (u == 0).astype(np.int64)
    return [(u, 2 * z, n - z, 2), (-u, 0, n * (1 - z), 2)]


def _emit_family3(ctx, u_v, v, xi, tal):
    y = u_v * u_v + v * v
    A = (u_v + xi) >> 3
    B = v >> 1
    C = (xi - u_v) >> 1
    wq = (y - xi * xi) >> 2
    _classify_and_tally(ctx, 3, A, B, C, y, wq, tal)


#: per family: the v-side rows at a block's outer values, and the map from
#: (u_v, v, x) to the candidate coordinates
_VROWS = {1: _family1_vrows, 2: _family2_vrows, 3: _family3_vrows}
_EMIT = {1: _emit_family1, 2: _emit_family2, 3: _emit_family3}


def _v_pairs(ctx: _Ctx, fam: int, u: np.ndarray) -> np.ndarray:
    """The number of (u_v, v) pairs the v side enumerates at each outer
    value u."""
    return sum(np.maximum(count, 0) for _, _, count, _ in _VROWS[fam](ctx, u))


def _emit_vside(ctx, fam, vrows, tal):
    """Classify the candidates of v-side rows: the (u_v, v) pairs are
    expanded and tested against their band at most CHUNK_CANDIDATES at a
    time, and the x values of the live ones are solved in batches."""
    u_v, start, count, step = (np.concatenate(c) for c in zip(*(_rows(*r) for r in vrows)))
    pieces = _ragged_pieces(start, count, step, CHUNK_CANDIDATES)
    live = (_live_pairs(ctx, fam, u_v[r], v) for r, v in pieces)
    batches = _batched(live, CHUNK_CANDIDATES, lambda pairs: len(pairs[0]))
    emit = _EMIT[fam]

    def emit_x_rows(ctx, u_v, xi, v, tal):  # the rows range over x
        emit(ctx, u_v, v, xi, tal)

    rows = (rows for pairs in batches for rows in _band_rows(ctx, fam, *pairs))
    _emit_rows(ctx, emit_x_rows, rows, tal)


def _pair_y(fam, u_v, v):
    if fam == 1:
        return 4 * u_v * v
    return u_v * v if fam == 2 else u_v * u_v + v * v


def _live_pairs(ctx: _Ctx, fam: int, u_v, v):
    """The (u_v, v) pairs whose band |x^2 - y| <= s (see _band_rows) holds
    a square, with isqrt(max(y, 0)) at each: the square nearest y, at
    distance d, must lie in the band, that is d |y| <= M, or d^2 |y| <= M by
    discriminant.  For y < 0, d = |y| is capped at isqrt(M) + 1, past which
    the test fails anyway, so d^2 |y| stays within int64."""
    M = ctx.bounds[fam]
    y = _pair_y(fam, u_v, v)
    root = vec_isqrt(np.maximum(y, 0))
    below = y - root * root  # (root + 1)^2 - y = 2 root + 1 - below
    d = np.where(y > 0, np.minimum(below, 2 * root + 1 - below), np.minimum(-y, isqrt(M) + 1))
    if ctx.square:
        d = d * d
    live = np.flatnonzero(d * np.abs(y) <= M)
    return [u_v[live], v[live], root[live]]


def _band_rows(ctx: _Ctx, fam: int, u_v, v, root):
    """Row batches of x at each (u_v, v) pair, root = isqrt(max(y, 0)) from
    _live_pairs: x = the family's residue mod 8 (any x for family 1),
    x^2 != y, and |x^2 - y| <= s = _gap(|y|)."""
    y = _pair_y(fam, u_v, v)
    step = 8
    if fam == 1:
        res, step = 0, 1
    elif fam == 2:
        res = -((u_v + v) >> 1) & 7  # u + v + 2x = 0 mod 16
    else:
        res = -u_v & 7  # x = -u mod 8
    s = _gap(ctx.bounds[fam], ctx.square, np.abs(y))
    hi = vec_isqrt(y + s)
    bot = y - s
    lo = np.where(bot > 0, vec_isqrt(np.maximum(bot - 1, 0)) + 1, 0)  # ceil sqrt
    # |x| runs over [lo, hi] less the root of a square y, where w = 0
    cut = np.where((y > 0) & (root * root == y), root, hi + 1)
    for a, b in ((lo, cut - 1), (cut + 1, hi)):
        first = a + ((res - a) & (step - 1))
        yield _rows(u_v, v, first, (b - first) // step + 1, step)
        first = -b + ((res + b) & (step - 1))  # negative x, from -b up to -max(a, 1)
        yield _rows(u_v, v, first, (-np.maximum(a, 1) - first) // step + 1, step)


def _ragged_pieces(start, count, step, cap):
    """_ragged over all rows, in pieces of at most cap values; a longer row
    is split across pieces.  Yields (row index, value) arrays."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, cap):
        hi = min(lo + cap, total)
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        st, ct = start[a:b].copy(), count[a:b].copy()
        skip = lo - int(ends[a] - count[a])  # values of row a already done
        st[0] += skip * step[a]
        ct[0] -= skip
        ct[-1] -= int(ends[b - 1]) - hi
        yield _ragged(np.arange(a, b), st, ct, step[a:b])


def _rows(*cols):
    """The nonempty rows of stepped ranges: fixed columns, then start, count
    and step; count values start + step*j per row.  Arguments broadcast
    against each other."""
    cols = np.broadcast_arrays(*cols[:-2], np.asarray(cols[-2], dtype=np.int64), cols[-1])
    keep = cols[-2] > 0
    return [c[keep] for c in cols]


def _batched(stream, cap, size):
    """Join a stream of column lists into batches whose sizes sum to at
    least cap (the last batch may hold less; an empty one is dropped)."""
    pending, n = [], 0
    for cols in stream:
        pending.append(cols)
        n += size(cols)
        if n >= cap:
            yield [np.concatenate(c) for c in zip(*pending)]
            pending, n = [], 0
    if n:
        yield [np.concatenate(c) for c in zip(*pending)]


def _emit_rows(ctx, emit, batches, tal):
    """Classify the candidates of a stream of row batches.  Batches are held
    back until they reach CHUNK_CANDIDATES candidates, so one block's rows
    never sit in memory all at once, and expanded at most CHUNK_CANDIDATES
    candidates per classification pass."""
    for u_v, xs, start, count, step in _batched(batches, CHUNK_CANDIDATES, lambda rows: int(rows[3].sum())):
        for r, v in _ragged_pieces(start, count, step, CHUNK_CANDIDATES):
            emit(ctx, u_v[r], v, xs[r], tal)


# ---------------------------------------------------------------------------
# drivers


def _run_shard(ctx: _Ctx, units, tal: Tallies) -> Tallies:
    """Run units into tal, each family in blocks of its outer values."""
    for fam in ctx.config.families:
        outers = [outer for f, outer in units if f == fam]
        unit = (_family1_unit, _family2_unit, _family3_unit)[fam - 1]
        for block, vside in _blocks(ctx, fam, outers):
            unit(ctx, block, vside, tal)
    return tal


def _blocks(ctx: _Ctx, fam: int, outers: list[int]):
    """The outer values in the order given, increasing but not consecutive
    (_Ctx.units leaves out those that cannot pass the filter), in blocks
    that close once their scan reaches BLOCK_XSCAN: its v pairs for a u on
    the v side, 2*xmax+1 on the x side.  Yields (outer values, v-side mask)
    array pairs; the side of every outer value is picked here, once (family
    3 has only the v side)."""
    u = np.asarray(outers, dtype=np.int64)
    size = _v_pairs(ctx, fam, u)
    vside = np.ones(len(u), dtype=bool)
    if fam != 3:
        vside = _vside(ctx, fam, outers)
        size = np.where(vside, size, 2 * ctx.windows[fam].xmax + 1)
    start, n = 0, 0
    for i, k in enumerate(size.tolist()):
        n += k
        if n >= BLOCK_XSCAN:
            yield u[start : i + 1], vside[start : i + 1]
            start, n = i + 1, 0
    if start < len(u):
        yield u[start:], vside[start:]


#: The context of the shards being forked; _run_shard_fork reads it in the
#: children, whose only argument is their units.
_FORK_CTX = None


def _run_shard_fork(units):
    tal = _run_shard(_FORK_CTX, units, Tallies(_FORK_CTX.config.galois))
    # joined here: sent as blocks, the tables stayed on the parent's heap
    # after its join (VmHWM 182 against 154 MB, conductor X = 1e7, 2 shards)
    tal.records
    # a tuple, as perfbench/tracer.py rebuilds the result of this name as one
    return (tal,)


def run_census(config: CensusConfig) -> Tallies:
    """Execute a census; deterministic for any shard count."""
    ctx = _Ctx(config)
    units = ctx.units()
    tal = Tallies(config.galois)
    if config.shards == 1:
        _run_shard(ctx, units, tal)
    else:
        _run_forked(ctx, units, tal)
    _sort_records(tal.records)
    return tal


def _run_forked(ctx: _Ctx, units, tal: Tallies) -> None:
    """Run units by stride on config.shards processes into tal: shard 0 in
    this process, every other shard in a forked child (see _shard_child)
    that pickles its result into a pipe.  The children's results are read,
    the children reaped and the results merged in shard order; a child's
    exception is raised here.  Whatever ends the call, no child outlives it:
    those not yet reaped are killed and reaped on the way out.  The results
    are dropped on return, so tal holds the only reference to each table."""
    import signal  # imported here, as a census on one shard does not need it

    global _FORK_CTX
    shards = ctx.config.shards
    chunks = [units[k::shards] for k in range(shards)]
    live = {}  # pid -> read end of its pipe, for every child not yet reaped
    _FORK_CTX = ctx
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _shard_child(chunk, w, [r, *(fh.fileno() for fh in live.values())])
            os.close(w)
            live[pid] = os.fdopen(r, "rb")
        _run_shard(ctx, chunks[0], tal)
        for k, (pid, fh) in enumerate(list(live.items()), 1):
            try:
                # unpickled from the stream: each table is read straight
                # into its own buffer, with no copy of the pickled bytes
                msg = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                msg = None
            fh.close()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if msg is None:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"shard {k} exited with status {code} and no result")
            ok, value = msg
            if not ok:
                raise value
            tal.merge(value[0])
    finally:
        _FORK_CTX = None
        for pid, fh in live.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _shard_child(units, w: int, inherited: list[int]) -> None:
    """The body of a forked shard child: it runs _run_shard_fork (looked up
    as a module global, so a wrapper of that name runs too) and pickles
    (True, result) or (False, exception) into the pipe w.  An exception that
    does not survive pickling is sent as a RuntimeError with its traceback.
    It first closes the read ends it inherited, its own among them, so that
    if the parent dies a full pipe fails its write instead of blocking it
    for good.  The child always ends in os._exit, so nothing of the
    parent's stack (finally blocks, atexit handlers, buffered output) runs
    in it."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(w, "wb") as out:
            try:
                result = _run_shard_fork(units)
            except BaseException as exc:  # sent to the parent, whatever it is
                out.write(_pickled_error(exc))
            else:
                pickle.dump((True, result), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    import traceback

    try:
        data = pickle.dumps((False, exc))
        pickle.loads(data)
    except Exception:
        text = "".join(traceback.format_exception(exc))
        data = pickle.dumps((False, RuntimeError(f"shard child failed:\n{text}")))
    return data


def _sort_records(rec: np.ndarray) -> None:
    """Put the rows of rec in the output order, by |conductor|, family, A, B,
    C, in place one column at a time, so no second table is built."""
    order = np.lexsort((rec[:, 3], rec[:, 2], rec[:, 1], rec[:, 0], np.abs(rec[:, 5])))
    for c in range(rec.shape[1]):
        rec[:, c] = rec[order, c]


def summarize(config: CensusConfig, tal: Tallies) -> dict:
    """Machine-readable summary in the documented schema."""
    from .asymptotics import main_term

    counts = {f"r2_{k}": tal.total(k) for k in (0, 1, 2)}
    mt = None
    if config.mode == "conductor" and config.galois == "d4":
        mt = main_term("d4_conductor", config.x, config.r2).value
    elif config.mode == "discriminant" and config.galois == "v4":
        mt = main_term("v4_disc", config.x).value
    total = tal.total(config.r2)
    out = {
        "x": config.x,
        "mode": config.mode,
        "galois": config.galois,
        "r2_filter": config.r2,
        "families": list(config.families),
        "counts": counts,
        "total": total,
        "per_family": {
            str(f): [int(v) for v in tal.counts[f]] for f in config.families
        },
        "excluded": dict(tal.excluded),
        "main_term": mt,
        "ratio": (total / mt) if mt else None,
    }
    return out


def count_d4_by_conductor(
    X: int,
    r2: int | None = None,
    families=(1, 2, 3),
    shards: int = 1,
    emit: bool = False,
):
    cfg = CensusConfig(x=X, mode="conductor", galois="d4", r2=r2, families=tuple(families), shards=shards, emit=emit)
    tal = run_census(cfg)
    return summarize(cfg, tal), tal


def count_d4_by_disc(X: int, families=(1, 2, 3), shards: int = 1, emit: bool = False):
    cfg = CensusConfig(x=X, mode="discriminant", galois="d4", families=tuple(families), shards=shards, emit=emit)
    tal = run_census(cfg)
    return summarize(cfg, tal), tal


def count_v4_by_disc(X: int) -> int:
    """Number of symmetric-family pairs (a, b), each its own class, that are
    irreducible with maximal ring and 0 < |4a(b-2a)(b+2a)| < sqrt(X).

    The strict irrational bound is exact over integers: value <= isqrt(X-1).
    Signs: (a,b), (a,-b), (-a,b), (-a,-b) are four distinct classes (two when
    b = 0); negating both coordinates preserves maximality, negating b alone
    does not, so both b signs are tested.
    """
    if X > X_MAX_V4_COUNT:
        raise ValueError(f"X={X} exceeds the supported bound {X_MAX_V4_COUNT} for the V4 count")
    Y = isqrt(X - 1) if X > 1 else 0
    if Y < 12:
        return 0
    total = 0
    sf = PackedSquarefree(max(Y, 4))
    amax = 1
    while 4 * amax * (4 * amax - 1) <= Y:
        amax += 1
    a_all = np.arange(1, amax + 1, dtype=np.int64)
    # (a, b, a) is a family-1 form with outer value A = a
    for a in a_all[_outer_ok(sf, 1, a_all)].tolist():
        K = Y // (4 * a)
        if K < 1:
            continue
        b = np.arange(0, isqrt(4 * a * a + K) + 1, dtype=np.int64)
        t = b * b - 4 * a * a
        keep = (t != 0) & (np.abs(t) <= K)
        b, t = b[keep], t[keep]
        if len(b) == 0:
            continue
        # gcd(a, b) = 1 is implied: an odd p | (a, b) puts p^2 in t, and
        # 2 | (a, b) fails the 2-adic clauses
        base = sf.odd_squarefree(t)
        aA = np.full(len(b), a, dtype=np.int64)
        okp = base & vec_is_maximal_at(1, aA, b, aA, 2)
        okm = base & vec_is_maximal_at(1, aA, -b, aA, 2)
        total += 2 * int(okp.sum()) + 2 * int((okm & (b > 0)).sum())
    return total


# ---------------------------------------------------------------------------
# brute-force class oracle


_GEN_MATRICES = (
    (1, 1, 0, 1),
    (1, -1, 0, 1),
    (0, 1, 1, 0),
    (1, 0, 0, -1),
)


def _act_tuple(co, T):
    from .forms import GL2Mat, act_quartic

    return act_quartic(BinQuartForm(*co), GL2Mat(*T)).coeffs()


def brute_force_class_oracle(height: int) -> list[dict]:
    """Ground-truth class list for tiny boxes: orbits of family forms with
    coefficients bounded by `height`, grouped by generator BFS over forms
    with coefficients bounded by 3 * height.

    Returns one entry per class: representative family coordinates, Galois
    tag, conductor, disc and r2, with cross-member consistency asserted.
    Only classes meeting the three families are produced (the census never
    needs the others); grouping is BFS over GL2(Z) generators, independent of
    the canonical-representative theory.
    """
    from .classify import family_real_signature, galois_tag
    from .forms import family_membership, from_form, to_form
    from .maximality import is_maximal
    from .resolvent import conductor_poly

    cap = 3 * height
    seeds = []
    for fam in (1, 2, 3):
        for A in range(-height, height + 1):
            for B in range(-height, height + 1):
                for C in range(-height, height + 1):
                    co = to_form(FamilyCoords(fam, A, B, C))
                    if max(abs(v) for v in co.coeffs()) > height:
                        continue
                    if A != 0 and disc_quartic(co) != 0:
                        seeds.append(co.coeffs())
    seen: dict[tuple, int] = {}
    classes = []
    for seed in seeds:
        if seed in seen:
            continue
        orbit_id = len(classes)
        stack = [seed]
        members = []
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen[f] = orbit_id
            members.append(f)
            for T in _GEN_MATRICES:
                g = _act_tuple(f, T)
                if max(abs(v) for v in g) <= cap and g not in seen:
                    stack.append(g)
        infos = []
        for f in members:
            F = BinQuartForm(*f)
            for fam in sorted(family_membership(F)):
                c = from_form(F, fam)
                if c.A == 0:
                    continue
                infos.append(
                    {
                        "family": fam,
                        "coords": c,
                        "tag": galois_tag(c).value,
                        "conductor": conductor_poly(c),
                        "disc": disc_quartic(F),
                        "r2": family_real_signature(c).r2,
                        "maximal": is_maximal(c).is_maximal,
                    }
                )
        if not infos:
            classes.append(None)
            continue
        tags = {i["tag"] for i in infos}
        discs = {i["disc"] for i in infos}
        maxs = {i["maximal"] for i in infos}
        assert len(tags) == 1 and len(discs) == 1 and len(maxs) == 1, infos
        conds = {abs(i["conductor"]) for i in infos}
        if infos[0]["tag"] in ("d4", "c4"):
            # the invariant conductor needs the distinguished J, which is
            # unique only outside the Klein case
            assert len(conds) == 1, infos
        classes.append(
            {
                "members": [i["coords"] for i in infos],
                "tag": infos[0]["tag"],
                "conductor": infos[0]["conductor"] if len(conds) == 1 else None,
                "disc": infos[0]["disc"],
                "r2": infos[0]["r2"],
                "maximal": infos[0]["maximal"],
            }
        )
    return [c for c in classes if c is not None]


# ---------------------------------------------------------------------------
# output helpers


def _csv_chunks(tal: Tallies):
    """The records CSV in pieces: the header, then at most CSV_CHUNK_ROWS
    rows per piece."""
    yield "family,A,B,C,disc,conductor,galois,r2\n"
    rec = tal.records
    row = "%d,%d,%d,%d,%d,%d," + tal.galois + ",%d\n"
    for lo in range(0, len(rec), CSV_CHUNK_ROWS):
        chunk = rec[lo : lo + CSV_CHUNK_ROWS]
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def records_csv(tal: Tallies) -> str:
    return "".join(_csv_chunks(tal))


def summary_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


def output_hash(summary: dict, tal: Tallies | None = None, out=None) -> str:
    """sha256 of the summary JSON, followed by the records CSV if there are
    records.  With `out`, a text file, the CSV is written to it in the same
    pass (header included when there are no records)."""
    h = hashlib.sha256(summary_json(summary).encode())
    if tal is not None:
        hashed = len(tal.records) > 0
        for chunk in _csv_chunks(tal):
            if hashed:
                h.update(chunk.encode())
            if out is not None:
                out.write(chunk)
    return h.hexdigest()
