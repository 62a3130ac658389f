"""The two ways of turning extension-field codes into sum-rank codes, plus
the distance-bound formulas that go with them.

Route one stacks q-polynomial coefficient codes: m codes over GF(q^m) of the
same length become a code of t blocks of m x m matrices, each block the
matrix of x -> sum a_i x^(q^i) in a chosen basis.  For q = m = 2 the ranks of
those 2 x 2 matrices depend only on which coefficients vanish, which enables
a pair-enumeration distance routine driven by a 16-entry rank table; the
table is generated at startup from qpoly_matrix rather than hard-coded, and
validated against the zero-pattern rule before the fast path is trusted.

Route two expands each coordinate of a single code over GF(q^m) into a
column of a base-field matrix: coordinate s of chunk i lands in column s of
block i (the index formula is followed where prose and formula disagree).
Both routes share that expansion: the matrix of x -> c x^(q^i) is the
expansion of its images c b^(q^i) of the basis elements b, so route one is
route two applied to the evaluation words (g_j b^(q^i)).  The words of a
construction are built as one array and expanded together
(`Basis.coefficients`), every basis element's multiple at once.

Duality transport for either route is checked constructively: both sides of
the claimed identity are materialized and compared as canonical rrefs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .code import DEFAULT_WORD_BUDGET, LinearCode, f4_selfdual_distance_cap
from .errors import (
    BudgetExceeded,
    DistanceExceedsLength,
    FieldMismatch,
    LengthMismatch,
    MethodUnavailable,
    ProfileMismatch,
)
from .field import Basis, FieldSpec
from .linalg import MatrixGF, _tables
from .sumrank import BlockProfile, SumRankCode
from .wordenum import (_add_two_row_ranks, check_budget, listing_cost, packable_char2, popcount,
                       support_masks)

__all__ = [
    "Bounds",
    "qpoly_matrix",
    "qpoly_rank_table",
    "power_basis",
    "qpoly_code",
    "pair_distance",
    "basis_expand_code",
    "default_expansion_profile",
    "symbol_sum_rank_weight",
    "uniform22_certified_distance",
    "sr_distance_bounds",
    "expansion_distance_bounds",
    "uniform22_distance_bounds",
    "selfdual_sr_distance_cap",
    "duality_transport_qpoly",
    "duality_transport_expansion",
]


@dataclass(frozen=True)
class Bounds:
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} > upper {self.upper}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def contains(self, v: int) -> bool:
        return self.lower <= v <= self.upper


@functools.lru_cache(maxsize=None)
def power_basis(ext: FieldSpec, sub: Optional[FieldSpec] = None) -> Basis:
    """Default basis 1, g, g^2, ... over `sub` (default: the immediate base)
    for the extension's canonical generator g; one shared instance per pair.

    For GF(4)/GF(2) this is {1, w}, the basis the q=m=2 duality proof uses.
    """
    g = ext.primitive_element
    m = ext.degree_over(sub) if sub is not None else ext.degree_over_base
    return Basis(ext, [ext.pow(g, i) for i in range(m)], sub)


def qpoly_matrix(coeffs: Sequence[int], basis: Basis) -> MatrixGF:
    """Matrix over the base field of x -> sum a_i x^(q^i) in `basis`.

    Column j holds the expansion of the image of the j-th basis element.
    """
    ext = basis.field
    m = basis.size
    if len(coeffs) != m:
        raise LengthMismatch(f"need {m} coefficients, got {len(coeffs)}")
    q = basis.sub.order
    images = []
    for t in basis.elements:
        img = 0
        for a in coeffs:
            if a:
                img = ext.add(img, ext.mul(a, t))
            t = ext.pow(t, q)
        images.append(img)
    profile = BlockProfile(basis.sub, [(m, m)])
    return profile.matrices(_expand_words(basis, profile, [images])[0].tolist())[0]


def _expand_words(basis: Basis, profile: BlockProfile, words) -> np.ndarray:
    """The flat words, one row per row of the 2-D array `words`, whose block
    i expands chunk i of the word: coordinate s of the chunk becomes column s
    of the block.  Every block has basis.size rows."""
    coef = basis.coefficients(words)  # (words, coordinates, m)
    out = np.empty((len(coef), profile.total), np.int64)
    pos = 0
    for off, (m, n) in zip(profile.offsets, profile.blocks):
        out[:, off : off + m * n] = coef[:, pos : pos + n].swapaxes(1, 2).reshape(len(coef), m * n)
        pos += n
    return out


def _expanded_code(basis: Basis, profile: BlockProfile, words: np.ndarray) -> SumRankCode:
    """F_q-span of lam * w for every basis element lam and row w of the
    array `words` (`linalg._tables` entries), chunk i of each scaled word
    expanded into block i, keeping `words` as its `symbols`.  The dimension
    m = basis.size per word is asserted, which shows the words independent
    over GF(q^m)."""
    t = _tables(basis.field)
    lams = np.array(basis.elements, t.dtype)
    scaled = t.times(words[:, None, :], lams[:, None])
    scaled = scaled.reshape(len(words) * len(lams), words.shape[1])
    flat = LinearCode.from_rows(profile.field, profile.total, _expand_words(basis, profile, scaled))
    if flat.k != len(lams) * len(words):
        raise AssertionError(f"expanded code dimension {flat.k}, expected {len(lams) * len(words)}")
    return SumRankCode(profile, flat, MatrixGF._from_array(basis.field, words))


def qpoly_rank_table(basis: Basis) -> dict:
    """rank(qpoly_matrix((a0, a1), basis)) for all coefficient pairs.

    q = m = 2 only; 16 entries, built from qpoly_matrix at call time.
    """
    ext = basis.field
    if ext.order != 4 or basis.size != 2:
        raise MethodUnavailable("rank table is a q = m = 2 construct")
    return {
        (a0, a1): qpoly_matrix((a0, a1), basis).rank()
        for a0 in range(4)
        for a1 in range(4)
    }


@functools.lru_cache(maxsize=None)
def _checked_rank_table(ext: FieldSpec) -> None:
    """Checks once per field that the power-basis rank table of GF(4) has
    the zero pattern the pair enumeration relies on: rank 0 at (0, 0), 1
    where both coefficients are nonzero, 2 where exactly one is."""
    for (a0, a1), r in qpoly_rank_table(power_basis(ext)).items():
        if r != (0, 2, 1)[(a0 != 0) + (a1 != 0)]:
            raise AssertionError(f"rank table violates the zero pattern at {(a0, a1)}: {r}")


def qpoly_code(codes: Sequence[LinearCode], basis: Optional[Basis] = None) -> SumRankCode:
    """Sum-rank code built from m coefficient codes over GF(q^m).

    The result lives over the base field with t blocks of size m x m and has
    dimension m * sum(k_i), which is asserted after construction.
    """
    if not codes:
        raise LengthMismatch("need at least one coefficient code")
    ext = codes[0].field
    t = codes[0].n
    for c in codes:
        if c.field is not ext:
            raise FieldMismatch("coefficient codes must share one field")
        if c.n != t:
            raise LengthMismatch("coefficient codes must share one length")
    if basis is None:
        basis = power_basis(ext)
    if basis.field is not ext:
        raise FieldMismatch("basis must belong to the codes' field")
    m = basis.size
    if len(codes) != m:
        raise LengthMismatch(f"need {m} codes for extension degree {m}")
    # generator row g of code i gives the word (g_j * b^(q^i)) for j < t and
    # b in the basis, whose chunks expand into the blocks of its (m, m)^t row
    q = basis.sub.order
    tab = _tables(ext)
    words = []
    for i, c in enumerate(codes):
        powers = np.array([ext.pow(b, q**i) for b in basis.elements], tab.dtype)
        words.append(tab.times(c.generator._array()[:, :, None], powers).reshape(c.k, t * m))
    profile = BlockProfile(basis.sub, [(m, m)] * t)
    return _expanded_code(basis, profile, np.concatenate(words))


def pair_distance(c0: LinearCode, c1: LinearCode, budget: int = DEFAULT_WORD_BUDGET) -> int:
    """Exact distance of the q = m = 2 stacked code by support-class crossing.

    For coefficient pairs over GF(4) the block rank is 1 where both
    codewords are nonzero and 2 where exactly one is, so a pair of supports
    A, B weighs |A & B| + 2 |A ^ B| >= max(|A|, |B|); distinct supports are
    invariant under scalar multiples, so one pair per support-class pair
    gives the minimum.  The block rank of x -> a0 x + a1 x^2 does not
    depend on the basis, so the zero pattern is validated in the power
    basis (once per field).

    One-sided words weigh 2 |A|, so U = 2 min d_H bounds the distance.  The
    support classes are crossed level by level in max(|A|, |B|), from the
    lighter d_H up, which stops once the best weight found is at most the
    level.  Level L needs the classes of weight <= L on each side, and
    nothing heavier: a side's classes (`support_masks`) are listed only when
    L passes the weight its listing is complete through, straight to the
    depth L needs (`listing_windows(L)`) and no heavier than the best
    weight found, so a level the crossing never reaches is never listed.
    Budget counts crossed support-class pairs; past it BudgetExceeded
    carries the lightest pair found (at worst U).  A d_H certificate or
    class listing that would cost more than DEFAULT_WORD_BUDGET words
    raises it too, with the best bound known.  Supports are uint64 masks,
    so the codes may be at most 64 long.
    """
    check_budget(budget)
    ext = c0.field
    if ext.order != 4 or c1.field is not ext:
        raise MethodUnavailable("pair enumeration is specific to GF(4), q = m = 2")
    if c0.n != c1.n:
        raise LengthMismatch("codes must share one length")
    if not packable_char2(ext, c0.n):
        raise MethodUnavailable(f"support masks are 64-bit; length {c0.n} is too long")
    if c0.k == 0 and c1.k == 0:
        raise MethodUnavailable("both codes are zero")
    _checked_rank_table(ext)
    crossed = 0

    def listing(c, weight, cap, bound):
        """Support classes of c of weight <= `cap`, complete through
        `weight` at least, and the weight they are complete through;
        `bound` is the best pair known."""
        gens, depth = c.listing_windows(weight)
        cost = listing_cost(ext, c.k, len(gens), depth)
        if cost > DEFAULT_WORD_BUDGET:
            raise BudgetExceeded(f"a support listing of {cost} words exceeds budget "
                                 f"{DEFAULT_WORD_BUDGET}", best=bound, enumerated=crossed)
        through = cap if depth >= c.k else min(cap, len(gens) * (depth + 1) - 1)
        return support_masks(ext, gens, c.n, depth, cap), through

    def one_sided(c):
        """d_H of c and [classes, their weights, the weight they are
        complete through]: the classes through 2 b - 1 (b the lightest row)
        where the whole code is the cheaper listing, whose lightest is d_H;
        else a certificate's d_H and none yet, none being lighter."""
        b = c.lightest_row()
        if c.listing_windows(b)[1] < c.k:
            try:
                d = c.certified_distance(DEFAULT_WORD_BUDGET)[0]
            except BudgetExceeded as exc:
                raise BudgetExceeded(str(exc), best=2 * exc.best, enumerated=0) from None
            masks, through = np.zeros(0, dtype=np.uint64), d - 1
        else:
            masks, through = listing(c, 2 * b - 1, 2 * b - 1, 2 * b)
            d = int(popcount(masks[0]))
        return d, [masks, popcount(masks), through]

    sides = {c: one_sided(c) for c in dict.fromkeys((c0, c1)) if c.k}
    level = min(d for d, _ in sides.values())
    best = 2 * level
    none = np.zeros(0, dtype=np.uint64)
    while level < best:  # every pair left weighs at least `level`
        for c, (_, classes) in sides.items():
            if classes[2] < level:
                masks, classes[2] = listing(c, level, best - 1, best)
                classes[:2] = masks, popcount(masks)
        (la, wa, _), (lb, wb, _) = (sides[c][1] if c.k else (none, none, None) for c in (c0, c1))
        a0, a1, b0, b1 = (int(np.searchsorted(w, level, side)) for w in (wa, wb)
                          for side in ("left", "right"))
        for a, b in ((la[a0:a1], lb[:b1]), (la[:a0], lb[b0:b1])):
            take = min(len(a) * len(b), budget - crossed)
            found = _cross_min(a, b, take)
            best = best if found is None else min(best, found)
            crossed += take
            if take < len(a) * len(b):
                raise BudgetExceeded(f"support-class pairs exceed budget {budget}",
                                     best=best, enumerated=crossed)
        level += 1
    return best


def _cross_min(a: np.ndarray, b: np.ndarray, take: int) -> Optional[int]:
    """Lightest |A & B| + 2 |A ^ B| over the first `take` pairs of a x b in
    row-major order; None when take is 0."""
    best = None
    full, rest = divmod(take, len(b)) if take else (0, 0)
    rows_per_block = max(1, (1 << 22) // max(1, len(b)))  # bounds the temporaries
    blocks = [(a[lo : min(lo + rows_per_block, full), None], b)
              for lo in range(0, full, rows_per_block)]
    if rest:
        blocks.append((a[full : full + 1, None], b[:rest]))
    for x, y in blocks:
        w = int((popcount(x & y) + 2 * popcount(x ^ y)).min())
        best = w if best is None else min(best, w)
    return best


# -- basis expansion route -----------------------------------------------------


def default_expansion_profile(m: int, total_len: int) -> List[Tuple[int, int]]:
    """Block shapes for expanding a length-N code: one (m, m + N mod m)
    block when N is not a multiple of m, then (m, m) blocks."""
    rem = total_len % m
    if rem == 0:
        return [(m, m)] * (total_len // m)
    first = m + rem
    if total_len < first:
        raise ProfileMismatch(f"length {total_len} too short for m = {m} blocks")
    return [(m, first)] + [(m, m)] * ((total_len - first) // m)


def basis_expand_code(
    code: LinearCode,
    basis: Optional[Basis] = None,
    profile: Optional[BlockProfile] = None,
) -> SumRankCode:
    """Expand a code over GF(q^m) into the matrix space over GF(q).

    Coordinate s of chunk i becomes column s of block i, expanded over the
    basis.  The result has dimension m * k over the base, asserted.
    """
    ext = code.field
    if basis is None:
        basis = power_basis(ext)
    if basis.field is not ext:
        raise FieldMismatch("basis must belong to the code's field")
    m = basis.size
    sub = basis.sub
    if profile is None:
        profile = BlockProfile(sub, default_expansion_profile(m, code.n))
    else:
        if profile.field is not sub:
            raise ProfileMismatch("profile field must be the basis subfield")
        if any(bm != m for bm, _ in profile.blocks):
            raise ProfileMismatch(f"all blocks must have m = {m} rows")
        if sum(n for _, n in profile.blocks) != code.n:
            raise ProfileMismatch("profile column counts must sum to the code length")

    return _expanded_code(basis, profile, code.generator._array())


def symbol_sum_rank_weight(word: Sequence[int], ext: FieldSpec, profile: BlockProfile) -> int:
    """Sum-rank weight of an extension-field word read against a profile:
    per block, the base-field dimension spanned by its coordinates.

    Equals the weight of the basis expansion for any basis choice.
    """
    sub = profile.field
    m = ext.degree_over(sub)
    if any(bm != m for bm, _ in profile.blocks):
        raise ProfileMismatch("profile rows must equal the extension degree")
    if sum(n for _, n in profile.blocks) != len(word):
        raise ProfileMismatch("profile does not cover the word")
    return int(profile.weights(_expand_words(power_basis(ext, sub), profile, [word]))[0])


def _pair_ranks(n: int):
    """The weight `uniform22_certified_distance` scores: a map of the
    packed (lo, hi) planes of GF(4) words of even length n, arrays of any
    shape, to their summed (2,2) block ranks, block i holding coordinates
    2i and 2i + 1.  That is `sr_min_weight_packed`'s kernel of two-row
    blocks of symbols at width 2: first bits every other bit below n, r1
    the lo plane and r2 the hi plane."""
    firsts = np.uint64(sum(1 << i for i in range(0, n, 2)))

    def weight(lo, hi):
        acc = np.zeros(lo.shape, np.uint8)
        temps = [np.empty(lo.shape, np.uint64) for _ in range(3)] + [np.empty(lo.shape, np.uint8)]
        _add_two_row_ranks(acc, lo, 2, firsts, temps, hi)
        return acc
    return weight


def uniform22_certified_distance(code: LinearCode, budget: int = DEFAULT_WORD_BUDGET):
    """(d, witness, r, depth): the sum-rank distance of the GF(4) code's
    expansion into (2,2) blocks, block i holding coordinates 2i and 2i + 1
    (the default profile of `basis_expand_code` at even length), a codeword
    of the GF(4) code of that weight, and the window count and message
    weight of its certificate (`LinearCode.certified_distance`).

    A block's rank is the GF(2) dimension its two coordinates span, in any
    basis, so the GF(4) code's own packed words are scored.  A word of
    sum-rank weight below D has at most D - 1 nonzero blocks, so Hamming
    weight at most 2 (D - 1): the window scan deepens until it lists every
    such word.  Where the next depth's listing would cost more than
    `budget` words, BudgetExceeded carries the lightest weight found.
    """
    check_budget(budget)
    if code.field.order != 4 or code.n % 2 or not packable_char2(code.field, code.n):
        raise MethodUnavailable(f"(2,2) blocks of GF(4) words need an even length <= 64, "
                                f"not GF({code.field.order}) and n = {code.n}")
    return code.certified_distance(budget, _pair_ranks(code.n), lambda d: 2 * (d - 1))


# -- bounds ---------------------------------------------------------------------


def sr_distance_bounds(m: int, distances: Sequence[int]) -> Bounds:
    """Sandwich for the stacked construction from coefficient distances d_i:

    max(min_i (m-i) d_i, min_i (i+1) d_i) <= d_sr <= m * min_i d_i
    """
    ds = list(distances)
    if m < 1 or len(ds) != m or any(d < 1 for d in ds):
        raise LengthMismatch(f"need m >= 1 and m positive distances, got m={m} and {len(ds)}")
    lower = max(
        min((m - i) * d for i, d in enumerate(ds)),
        min((i + 1) * d for i, d in enumerate(ds)),
    )
    return Bounds(lower, m * min(ds))


def expansion_distance_bounds(d: int, profile: BlockProfile) -> Bounds:
    """Sandwich for the expansion route from the Hamming distance d:
    s + 1 <= d_sr <= min(d, m * t), with s counting how many of the largest
    blocks a weight-d support can fill.  Block sizes are sorted descending
    internally; the input profile order is untouched."""
    if d < 1:
        raise DistanceExceedsLength("distance must be positive")
    ns = sorted((n for _, n in profile.blocks), reverse=True)
    if d > sum(ns):
        raise DistanceExceedsLength(f"distance {d} exceeds total length {sum(ns)}")
    acc = 0
    s = 0
    for n_i in ns:
        if acc + n_i >= d:
            break
        acc += n_i
        s += 1
    m = profile.blocks[0][0]
    return Bounds(s + 1, min(d, m * profile.t))


def uniform22_distance_bounds(d: int, t: int) -> Bounds:
    """Specialization to t blocks of 2 x 2: ceil(d/2) <= d_sr <= d."""
    if d < 1 or d > 2 * t:
        raise DistanceExceedsLength(f"distance {d} out of range for 2t = {2 * t}")
    return Bounds((d + 1) // 2, d)


def selfdual_sr_distance_cap(t: int) -> int:
    """Distance cap 8 * (floor(t/12) + 1) for stacked self-dual pairs over GF(4)."""
    return 2 * f4_selfdual_distance_cap(t)


# -- constructive duality checks ---------------------------------------------------


def duality_transport_qpoly(
    c0: LinearCode, c1: LinearCode, basis: Optional[Basis] = None
) -> bool:
    """Is dual_tr(stack(C0, C1)) == stack(C0-perp, C1-perp), canonically?

    Both sides are built independently (kernel route vs construction route).
    q = m = 2 only.
    """
    ext = c0.field
    if ext.order != 4:
        raise MethodUnavailable("transport check is stated for q = m = 2")
    lhs = qpoly_code([c0, c1], basis).dual()
    rhs = qpoly_code([c0.dual(), c1.dual()], basis)
    return lhs == rhs


def duality_transport_expansion(
    code: LinearCode,
    basis: Optional[Basis] = None,
    profile: Optional[BlockProfile] = None,
) -> bool:
    """Is dual_tr(expand_B(C)) == expand_B'(C-perp) for the dual basis B'?"""
    ext = code.field
    if basis is None:
        basis = power_basis(ext)
    lhs = basis_expand_code(code, basis, profile).dual()
    rhs = basis_expand_code(code.dual(), basis.dual(), profile)
    return lhs == rhs
