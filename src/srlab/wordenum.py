"""Bulk codeword enumeration kernels, built from three pieces:

- `_sharded_min`, the packed min-reduce: characteristic-2 codewords of
  length <= 64 live in uint64 bitplanes (one plane for GF(2), low/high for
  GF(4)), walked in prefix shards that each cover a precomputed suffix
  table, scored a cache-sized piece at a time.  A vectorized weight of the
  (lo, hi) planes makes it the Hamming search (a popcount) or the GF(2)
  sum-rank search (two-row blocks bit-sliced with shifts and masks, other
  blocks read from rank tables built once per shape).  Shards share nothing
  and reduce by min, so the result does not depend on how many threads run
  them;
- `_walk_min`, the array walker for everything else: `codeword_chunks`
  yields the codewords as 2-D arrays of entries (uint8 over fields of at
  most 256 elements, Python ints in object arrays above that), each a
  suffix table of every codeword of the last rows plus one prefix codeword
  of the first rows (`all_codewords`), so messages keep the mixed-radix
  order of `itertools.product`; a weight callback scores a whole chunk;
- `low_weight_blocks`, the low-weight lister: the messages of each weight
  in batches of position sets, each word the sum of two words over
  half-size sets built once (meet in the middle), as packed planes where
  the code packs and as arrays of entries (as the walker's) elsewhere.  Run
  under generators systematic on disjoint information sets (windows), it
  lists every light codeword: `low_weight_min_char2` keeps the lightest
  under a vectorized weight of the planes (Hamming by default), and
  `support_masks` reads the light support classes off it (or off the whole
  code, where `listing_cost` says that is no dearer).

Budgets count enumerated codewords.  A search that would exceed its budget
enumerates what fits (whole shards when packed, exactly `budget` codewords
on the walker), then raises BudgetExceeded
carrying the lightest weight seen, an upper bound on the true minimum.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BudgetExceeded, NegativeBudget, ZeroCode
from .linalg import _tables

__all__ = [
    "packable_char2",
    "packable_sum_rank",
    "pack_row_planes",
    "check_budget",
    "all_codewords",
    "codeword_chunks",
    "min_weight_char2",
    "listing_cost",
    "support_masks",
    "min_weight_generic",
    "low_weight_blocks",
    "sr_min_weight_packed",
    "sr_min_weight_generic",
    "popcount",
]

_SUFFIX_CAP = 1 << 18  # suffix-table entries per shard or walker chunk
# words scored at once, as a piece of a shard or a lister batch: their
# temporaries stay in cache, which runs the weight kernels 3-4x faster than
# on a whole shard
_PIECE = 1 << 15
# bits of the largest block shape given a rank table (`block_rank_lut`,
# 2**bits bytes, 0.5-3 ms to build at 16 bits); the packed sum-rank search
# reads it for blocks other than two-row ones and `BlockProfile.weights` for
# every GF(2) block; `weights` eliminates wider blocks as MatrixGFs
_LUT_BITS = 16


if hasattr(np, "bitwise_count"):

    def popcount(arr: np.ndarray) -> np.ndarray:
        return np.bitwise_count(arr)

else:  # pragma: no cover - numpy >= 2.0 in practice
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def popcount(arr: np.ndarray) -> np.ndarray:
        a = arr.astype(np.uint64)
        acc = _POP16[(a & np.uint64(0xFFFF)).astype(np.int64)].astype(np.int64)
        for shift in (16, 32, 48):
            acc += _POP16[((a >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)]
        return acc


def packable_char2(field, n: int) -> bool:
    return field.characteristic == 2 and field.order in (2, 4) and n <= 64


def packable_sum_rank(field, blocks) -> bool:
    """Whether `sr_min_weight_packed` takes a GF(2) code of these block
    shapes: at most 64 flat bits, and each block two-row (bit-sliced) or
    of at most _LUT_BITS bits (read from the shape's rank table, the one
    `BlockProfile.weights` reads too); the walker is exact and budgeted for
    the rest."""
    return (field.order == 2 and sum(m * n for m, n in blocks) <= 64
            and all(m == 2 or m * n <= _LUT_BITS for m, n in blocks))


def check_budget(budget: int) -> None:
    if budget < 0:
        raise NegativeBudget(f"budget must be non-negative, got {budget}")


# -- message -> codeword ------------------------------------------------------


def all_codewords(field, rows, n: int):
    """Every codeword, each a fresh list, messages in the mixed-radix order
    of `itertools.product` (the zero word first, the last digit fastest).

    One prefix sum per digit: base[i] is the word of the digits before i.
    The next message raises one digit i and clears the digits after it, so
    its word is base[i] + d_i * rows[i], one row addition, and it becomes
    base[j] for every j > i.  The digits are an explicit stack, so any k
    runs without recursion, and d * rows[i] is computed when digit i first
    takes the value d, so a budget-cut walk of a long code or over a large
    field stays cheap.
    """
    # characteristic 2 adds by XOR, without a Python call per entry
    add = operator.xor if field.characteristic == 2 else field.add
    mul = field.mul
    q, k = field.order, len(rows)
    table = [{} for _ in range(k)]  # table[i][d] = d * rows[i]
    yield [0] * n
    base = [[0] * n] * k
    digits = [0] * k
    i = k - 1
    while i >= 0:
        d = digits[i] + 1
        if d == q:
            digits[i] = 0
            i -= 1
            continue
        digits[i] = d
        multiple = table[i].get(d)
        if multiple is None:
            multiple = table[i][d] = [mul(d, v) for v in rows[i]]
        word = list(map(add, base[i], multiple))
        if i < k - 1:
            base[i + 1:] = [word] * (k - 1 - i)
            i = k - 1
            word = word[:]  # base keeps its own copy
        yield word


# -- packed bitplanes -----------------------------------------------------------


def pack_row_planes(field, row):
    """(lo, hi) bitplane integers for a GF(2)/GF(4) row; hi is 0 over GF(2)."""
    lo = 0
    hi = 0
    for j, v in enumerate(row):
        lo |= (v & 1) << j
        hi |= ((v >> 1) & 1) << j
    return lo, hi


def _scalar_multiples(field, lo: int, hi: int):
    """Planes of 0, row, w*row, w^2*row (just 0, row over GF(2))."""
    if field.order == 2:
        return [(0, 0), (lo, hi)]
    # canonical GF(4): multiplying by w maps (lo, hi) -> (hi, hi ^ lo)
    return [(0, 0), (lo, hi), (hi, hi ^ lo), (hi ^ lo, lo)]


def _extend_plane(plane, mults, bit: int):
    """Add each multiple's plane `bit` to every word; the multiple's row
    becomes the most significant digit of the word index."""
    return np.concatenate([plane ^ np.uint64(m[bit]) for m in mults])


def _plane_table(field, packed_rows, size=None):
    """Planes of the codewords of the rows, first row least significant
    digit, index 0 = zero; all q**len(rows) of them, or the first `size`."""
    lo = hi = np.zeros(1, dtype=np.uint64)
    for rlo, rhi in packed_rows:
        if size is not None and len(lo) >= size:
            break
        mults = _scalar_multiples(field, rlo, rhi)
        lo = _extend_plane(lo, mults, 0)
        hi = _extend_plane(hi, mults, 1)
    return lo, hi


def _prefix_rows(q: int, k: int) -> int:
    """How many of k rows are prefix digits, so that the suffix table of the
    rest holds at most _SUFFIX_CAP words."""
    k_hi = k
    while k_hi and q ** (k - k_hi + 1) <= _SUFFIX_CAP:
        k_hi -= 1
    return k_hi


def _sharded_min(field, rows, budget: int, jobs: int, weight, worst: int) -> int:
    """Minimum of weight(lo, hi) over every nonzero combination of `rows`.

    `weight` maps the planes of a shard's codewords to an integer array;
    `worst` is the answer for an empty row set.  Up to `jobs` threads, never
    more than the shards or the cores, run the shards.  Raises
    BudgetExceeded past the budget.
    """
    check_budget(budget)
    q = field.order
    packed = [pack_row_planes(field, r) for r in rows]
    k_hi = _prefix_rows(q, len(rows))
    suf_lo, suf_hi = _plane_table(field, packed[k_hi:])
    chunk = len(suf_lo)
    n_prefixes = q**k_hi
    total = n_prefixes * chunk
    limit_prefixes = n_prefixes if total <= budget else budget // chunk
    pre_lo, pre_hi = _plane_table(field, packed[:k_hi], limit_prefixes)

    def shard(pidx: int) -> int:
        plo, phi = pre_lo[pidx], pre_hi[pidx]
        best = worst
        for start in range(0, chunk, _PIECE):
            lo = suf_lo[start : start + _PIECE] ^ plo
            hi = suf_hi[start : start + _PIECE]
            w = weight(lo, hi ^ phi if phi else hi)
            if pidx == 0 and start == 0:
                w = w[1:]  # the zero word
            if len(w):
                best = min(best, int(w.min()))
        return best

    if limit_prefixes == 0:
        raise BudgetExceeded("budget smaller than one shard", best=None, enumerated=0)
    workers = min(jobs, limit_prefixes, os.cpu_count() or 1)
    if workers <= 1:
        best = min(map(shard, range(limit_prefixes)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            best = min(pool.map(shard, range(limit_prefixes)))
    if limit_prefixes < n_prefixes:
        raise BudgetExceeded(
            f"enumerated {limit_prefixes * chunk} of {total} codewords",
            best=best,
            enumerated=limit_prefixes * chunk,
        )
    return best


def min_weight_char2(field, rows, n: int, budget: int, jobs: int = 1) -> int:
    """Exact minimum Hamming weight over all nonzero combinations of `rows`.

    GF(2)/GF(4) only, n <= 64.  Raises BudgetExceeded past the budget.
    """
    return _sharded_min(field, rows, budget, jobs, lambda lo, hi: popcount(lo | hi), n + 1)


def listing_cost(field, k: int, windows: int, depth: int) -> int:
    """Words a listing through message weight `depth` under each of
    `windows` generators of dimension k costs: its messages plus _PIECE
    words per generator; q**k, the whole code under one generator, once
    depth >= k.

    The _PIECE term stands for a window's elimination and the lister's
    set-up.  On random GF(4) [2k, k] codes, k = 6..14, they took 0.2-0.9 ms
    per generator, which is 2**12 to 2**17 words of a whole listing at its
    measured 35-150 million words/s (2-core Intel Xeon, Python 3.11);
    2**15 is the middle of that range."""
    q = field.order
    if depth >= k:
        return q**k
    return windows * (_PIECE + sum(math.comb(k, i) * (q - 1) ** i for i in range(1, depth + 1)))


def support_masks(field, windows, n: int, depth: int, max_weight: int) -> np.ndarray:
    """Distinct supports of weight 1..max_weight of the codewords of the
    messages of weight <= depth under each generator of `windows` (row
    lists), as uint64 masks sorted by weight, then value.

    With generators systematic on r disjoint information sets, these are
    all supports of weight <= min(max_weight, r (depth + 1) - 1).  A depth
    >= k lists the whole code of the first generator instead, in shards of
    at most _SUFFIX_CAP words as `_sharded_min` walks it, which bounds the
    memory.
    """
    k = len(windows[0])
    if depth >= k:
        packed = [pack_row_planes(field, row) for row in windows[0]]
        k_hi = _prefix_rows(field.order, k)
        suf_lo, suf_hi = _plane_table(field, packed[k_hi:])
        pre_lo, pre_hi = _plane_table(field, packed[:k_hi])
        planes = ((suf_lo ^ plo, suf_hi ^ phi) for plo, phi in zip(pre_lo, pre_hi))
    else:
        planes = (words for rows in windows for _, words in low_weight_blocks(field, rows, n, depth))
    parts = [np.zeros(0, dtype=np.uint64)]  # depth 0 lists nothing
    for lo, hi in planes:
        masks = np.bitwise_or(lo, hi).ravel()
        parts.append(masks[popcount(masks) <= max_weight])
    masks = np.unique(np.concatenate(parts))
    masks = masks[masks != np.uint64(0)]
    return masks[np.argsort(popcount(masks), kind="stable")]


# -- array walker ---------------------------------------------------------------


def codeword_chunks(field, rows, n: int, count=None):
    """The first `count` codewords (all by default), messages in the order
    of `all_codewords`, as 2-D arrays of entries (`linalg._tables`: uint8,
    or object past 256 elements) of at most _PIECE rows and _SUFFIX_CAP
    entries.

    The codewords of the last j rows are tabulated once, as large as those
    bounds and `count` allow; each chunk is that table plus one codeword of
    the first k - j rows, in one array addition, and the last is cut at
    `count`.  The prefix digits are the more significant, so the chunks
    follow one another in message order.  A chunk may be the table itself,
    so callers must not write to it.
    """
    t = _tables(field)
    q, k = field.order, len(rows)
    left = q**k if count is None else min(count, q**k)
    j = 0
    while j < k and q ** (j + 1) <= min(_PIECE, left) and q ** (j + 1) * n <= _SUFFIX_CAP:
        j += 1
    scalars = t.array([[d] for d in range(q)], 1)
    table = t.zeros((1, n))
    for row in rows[k - j:]:
        multiples = t.times(scalars, t.array([row], n))  # (q, n): d * row
        table = t.plus(table[:, None, :], multiples[None, :, :]).reshape(-1, n)
    for word in all_codewords(field, rows[:k - j], n):
        if not left:
            return
        chunk = (t.plus(table, t.array([word], n)) if any(word) else table)[:left]
        left -= len(chunk)
        yield chunk


def _walk_min(field, rows, n: int, budget: int, weight):
    """Minimum of weight(chunk) over the nonzero codewords, None without
    any; `weight` maps a 2-D chunk of `codeword_chunks` to one integer per
    row.

    Raises BudgetExceeded, carrying the minimum over the first `budget`
    messages, when the code has more codewords than that.
    """
    check_budget(budget)
    best = None
    for i, chunk in enumerate(codeword_chunks(field, rows, n, budget)):
        w = weight(chunk)[0 if i else 1:]  # message 0 is the only zero message
        if len(w) and (best is None or w.min() < best):
            best = int(w.min())
    total = field.order ** len(rows)
    if budget < total:
        raise BudgetExceeded(f"enumerated {budget} of {total} codewords", best=best, enumerated=budget)
    return best


def min_weight_generic(field, rows, n: int, budget: int) -> int:
    """Minimum Hamming weight through the walker; n + 1 without rows."""
    best = _walk_min(field, rows, n, budget, lambda words: np.count_nonzero(words, axis=1))
    return n + 1 if best is None else best


# -- low-weight lister ----------------------------------------------------------


def _join(first, second, batch: int, add):
    """Unions of a set of `first` with a set of `second` that starts after
    it ends, in lexicographic order, `batch` sets at a time.

    Each side is (sets, planes): a (C, size) array of position sets in
    lexicographic order and a tuple of (C, words, ...) arrays of their
    words (packed lo/hi planes, or one array of entries with a trailing
    axis).  A union's words are every `add` of a `first` word and a
    `second` word, the `first` index the less significant digit.
    """
    sa, planes_a = first
    sb, planes_b = second
    last_a = sa[:, -1] if sa.shape[1] else np.full(len(sa), -1)
    after = np.searchsorted(sb[:, 0], last_a, side="right")  # first b set past a's end
    counts = len(sb) - after
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for start in range(0, total, batch):
        pair = np.arange(start, min(start + batch, total))
        i = np.searchsorted(ends, pair, side="right")
        j = after[i] + pair - (ends[i] - counts[i])
        yield np.concatenate([sa[i], sb[j]], axis=1), tuple(
            add(b[j][:, :, None], a[i][:, None]).reshape(len(pair), -1, *b.shape[2:])
            for a, b in zip(planes_a, planes_b))


def low_weight_blocks(field, rows, n: int, max_msg_weight: int):
    """Yield (sets, words) batches for the messages of Hamming weight
    1..max_msg_weight, by weight, then lexicographically by support.

    `sets` is a (C, w) array of row-position sets; row c of `words` holds
    the (q-1)**w codewords of the messages nonzero exactly on sets[c].  In
    a row, the first position is the least significant base-(q-1) digit of
    the index, digit j standing for the scalar j + 1.  Each row is the sum
    of a row over the first w // 2 positions and one over the rest, and the
    words of the sets of each half size are built once (meet in the
    middle).

    When the code packs, `words` is a pair of fresh (C, (q-1)**w) lo/hi
    plane arrays of at most _PIECE words; else it is a fresh (C, (q-1)**w,
    n) array of entries (`linalg._tables`) of at most _PIECE words and
    _SUFFIX_CAP entries.  A batch holds one set at least.
    """
    q = field.order
    k = len(rows)
    top = min(max_msg_weight, k)
    packed = packable_char2(field, n)
    if packed:
        mults = np.array([_scalar_multiples(field, *pack_row_planes(field, r))[1:] for r in rows],
                         dtype=np.uint64).reshape(k, q - 1, 2)
        zero = np.zeros((1, 1), dtype=np.uint64)
        add, cap = np.bitwise_xor, _PIECE  # words per batch
        planes = (zero, zero), (mults[:, :, 0], mults[:, :, 1])
    else:
        t = _tables(field)
        scalars = t.array([[d] for d in range(1, q)], 1)
        add, cap = t.plus, min(_PIECE, _SUFFIX_CAP // max(n, 1))
        planes = (t.zeros((1, 1, n)),), (t.times(scalars[None], t.array(rows, n)[:, None]),)
    levels = [(np.zeros((1, 0), dtype=np.intp), planes[0]), (np.arange(k)[:, None], planes[1])]
    while len(levels) <= (top + 1) // 2:  # sets of every half size, in one batch each
        levels.append(next(_join(levels[-1], levels[1], len(levels[-1][0]) * k, add)))
    for wt in range(1, top + 1):
        batch = max(1, cap // (q - 1) ** wt)
        for sets, words in _join(levels[wt // 2], levels[wt - wt // 2], batch, add):
            yield sets, words if packed else words[0]


def low_weight_min_char2(field, rows, n: int, max_msg_weight: int, weight=None):
    """Lightest codeword among messages of Hamming weight <= max_msg_weight.

    `weight` maps a batch's (lo, hi) planes to an integer array of the
    same shape; None scores the Hamming weight.  Returns (weight, word),
    the word a list of n field elements, or (None, None) when the cap is 0
    or the code is empty.  The first lightest in lister order wins.  With
    an rref generator this scan is complete for all codewords of Hamming
    weight up to the cap, since such a codeword's message is its
    pivot-column restriction.
    """
    best, word = None, None
    for _, (lo, hi) in low_weight_blocks(field, rows, n, max_msg_weight):
        w = popcount(lo | hi) if weight is None else weight(lo, hi)
        i = int(w.argmin())  # row-major: the first lightest of the batch
        if best is None or int(w.flat[i]) < best:
            best = int(w.flat[i])
            a, b = int(lo.flat[i]), int(hi.flat[i])
            word = [(a >> j & 1) | (b >> j & 1) << 1 for j in range(n)]
    return best, word


# -- sum-rank weight enumeration ----------------------------------------------


def f2_matrix_rank_bits(pattern: int, m: int, n: int) -> int:
    """Rank over GF(2) of an m x n matrix packed row-major into `pattern`."""
    mask = (1 << n) - 1
    basis = []
    for i in range(m):
        row = (pattern >> (i * n)) & mask
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


@functools.lru_cache(maxsize=None)
def block_rank_lut(m: int, n: int) -> np.ndarray:
    """Read-only rank table of every m x n matrix over GF(2), built once
    per shape: `f2_matrix_rank_bits`'s elimination run on every pattern at
    once, a zero row reducing nothing."""
    patterns = np.arange(1 << (m * n), dtype=np.uint32)
    mask = np.uint32((1 << n) - 1)
    lut = np.zeros(len(patterns), dtype=np.uint8)
    basis = []
    for i in range(m):
        row = (patterns >> np.uint32(i * n)) & mask
        for b in basis:
            np.minimum(row, row ^ b, out=row)
        basis.append(row)
        lut[row != 0] += 1
    lut.flags.writeable = False
    return lut


def _fold(x: np.ndarray, n: int, tmp: np.ndarray) -> None:
    """In place: bit j of x becomes the OR of its bits j .. j + n - 1."""
    span = 1
    while span < n:
        step = min(span, n - span)
        np.right_shift(x, np.uint64(step), out=tmp)
        np.bitwise_or(x, tmp, out=x)
        span += step


def _two_row_ranks(words: np.ndarray, n: int, firsts: np.uint64) -> np.ndarray:
    """Summed ranks of the two-row blocks of width n whose first bits are
    set in `firsts`: a block of rows r1, r2 has rank [r1 | r2 != 0] +
    [r1 != 0 and r2 != 0 and r1 != r2], each flag read off the block's
    first bit after OR-folding a row onto its first bit."""
    shift = np.uint64(n)
    tmp = np.right_shift(words, shift)
    differ = np.bitwise_xor(words, tmp)  # row 1 ^ row 2 at row 1's bits
    nonzero = words.copy()
    _fold(nonzero, n, tmp)  # row 1 nonzero at the first bit, row 2 n bits up
    _fold(differ, n, tmp)
    np.right_shift(nonzero, shift, out=tmp)  # row 2 nonzero at the first bit
    np.bitwise_and(differ, nonzero, out=differ)
    np.bitwise_and(differ, tmp, out=differ)  # rank 2
    np.bitwise_or(nonzero, tmp, out=nonzero)  # rank >= 1
    nonzero &= firsts
    differ &= firsts
    acc = popcount(nonzero)
    acc += popcount(differ)
    return acc


def sr_min_weight_packed(field, rows, blocks, budget: int, jobs: int = 1) -> int:
    """Exact minimum sum-rank weight over GF(2) for the `packable_sum_rank` shapes.

    `rows` are flattened generator rows; `blocks` the (m_i, n_i) shapes in
    flattening order.  Two-row blocks are scored bit-sliced, all blocks of
    one width at once; the others through their rank tables.
    """
    firsts = {}  # width -> first bits of the two-row blocks of that width
    tables = []  # (offset, mask, rank table) of the other blocks
    offset = 0
    for m, n in blocks:
        if m == 2:
            firsts[n] = firsts.get(n, 0) | 1 << offset
        else:
            tables.append((np.uint64(offset), np.uint64((1 << m * n) - 1), block_rank_lut(m, n)))
        offset += m * n
    firsts = {n: np.uint64(bits) for n, bits in firsts.items()}

    def weight(words, _hi):
        acc = np.zeros(len(words), dtype=np.uint8)
        for n, bits in firsts.items():
            acc += _two_row_ranks(words, n, bits)
        for off, mask, lut in tables:
            acc += lut[((words >> off) & mask).astype(np.intp)]
        return acc

    return _sharded_min(field, rows, budget, jobs, weight, sum(m for m, _ in blocks) + 1)


def sr_min_weight_generic(field, rows, rank_fn, budget: int) -> int:
    """Fallback for any field or length through the walker: rank_fn maps a
    2-D chunk of flat codewords to their sum-rank weights
    (`BlockProfile.weights`).

    Raises ZeroCode without rows: their length, and so the largest weight,
    is unknown."""
    if not rows:
        raise ZeroCode("the zero code has no nonzero codeword")
    return _walk_min(field, rows, len(rows[0]), budget, rank_fn)
