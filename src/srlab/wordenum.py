"""Bulk codeword enumeration kernels, built from two pieces, each taking a
generator as a 2-D array of entries (`MatrixGF._array()`: uint8 over fields
of at most 256 elements, Python ints in object arrays above that):

- `_walk_min`, the exhaustive min-reduce over `codeword_chunks`: 2-D
  arrays of codewords, each a suffix table of every codeword of the last
  rows plus one prefix codeword of the first rows (the digit stack of
  `all_codewords`, on the same addition), so messages keep the mixed-radix
  order of `itertools.product`; a weight callback scores a whole chunk.
  It walks one word per line (the message whose first nonzero digit is 1),
  so a weight must be invariant under a nonzero scalar, as every one the
  kernels score is.  Where the code packs (GF(2)/GF(4), length <= 64) a
  codeword is its uint64 bitplanes (`planes.pack_planes` of the rows),
  added by XOR: a popcount makes the walk the Hamming search, and two-row
  blocks bit-sliced with shifts and masks (other blocks read from rank
  tables built once per shape) the GF(2) sum-rank search, which also walks
  a GF(4) code's own lines for its expansion over GF(2).  The packed chunks
  after the first share one buffer, and the weight kernels write into
  temporaries made once per walk, so a packed walk allocates once.
  Packed arrays follow one layout rule: a table is plane-major, (planes,
  words), and a chunk is its transpose, so every broadcast runs along the
  words, never along the one or two planes, and each plane of a chunk is
  contiguous.
  Elsewhere it is an array of entries added through `linalg._tables`;
- `low_weight_blocks`, the low-weight lister: the messages of each weight
  in batches of position sets, one word per line (scalar 1 at the first
  position), each word the sum of two words over half-size sets built once
  (meet in the middle), as packed planes where the code packs and as
  arrays of entries (as the walker's) elsewhere; a packed join adds along
  the side with more words.  Run under generators
  systematic on disjoint information sets (windows), it lists a scalar
  multiple of every light codeword: `low_weight_min_char2` keeps the lightest
  under a vectorized weight of the planes (Hamming by default), and
  `support_masks` reads the light support classes off it (or off the whole
  code's chunks, where `listing_cost` says that is no dearer).

Block ranks are read from GF(2) rank tables (`block_rank_lut`) or, over any
field, eliminated for a whole array of blocks at once (`block_ranks`).

Both the walker and the lister score one word per line, a (q-1)-th of
the nonzero messages they cover, and budgets count the messages covered
(`listing_cost` for listings).  A search that would exceed its budget
covers exactly its first `budget` messages, scoring the lines that meet
them, then raises BudgetExceeded carrying the lightest weight seen, an
upper bound on the true minimum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .errors import BudgetExceeded, NegativeBudget, ProfileMismatch, ZeroCode
from .linalg import _tables
from .planes import multiples, on_planes, pack_planes, unpack_planes

__all__ = [
    "packable_char2",
    "packable_sum_rank",
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
    "block_ranks",
    "popcount",
]

_SUFFIX_CAP = 1 << 18  # entries per walker chunk or lister batch
# words scored at once, as a walker chunk or a lister batch: their
# temporaries stay in cache, which runs the packed weight kernels 3-4x
# faster than on 2**18 words
_PIECE = 1 << 15
# bits of the largest block shape given a rank table (`block_rank_lut`,
# 2**bits bytes, 0.5-3 ms to build at 16 bits); the packed sum-rank search
# reads it for blocks other than two-row ones and `BlockProfile.weights` for
# every GF(2) block; `block_ranks` eliminates every other block
_LUT_BITS = 16


if hasattr(np, "bitwise_count"):

    def popcount(arr: np.ndarray, out=None) -> np.ndarray:
        return np.bitwise_count(arr, out=out)

else:  # pragma: no cover - numpy >= 2.0 in practice
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def popcount(arr: np.ndarray, out=None) -> np.ndarray:
        a = arr.astype(np.uint64)
        acc = _POP16[(a & np.uint64(0xFFFF)).astype(np.int64)].astype(np.int64)
        for shift in (16, 32, 48):
            acc += _POP16[((a >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)]
        if out is None:
            return acc
        out[...] = acc
        return out


def packable_char2(field, n: int) -> bool:
    return on_planes(field) and n <= 64


def packable_sum_rank(field, blocks) -> bool:
    """Whether `sr_min_weight_packed` takes a GF(2) code of these block
    shapes: at most 64 flat bits, and each block two-row (bit-sliced) or
    of at most _LUT_BITS bits (read from the shape's rank table, the one
    `BlockProfile.weights` reads too); `sr_min_weight_generic` is exact and
    budgeted for the rest."""
    return (field.order == 2 and sum(m * n for m, n in blocks) <= 64
            and all(m == 2 or m * n <= _LUT_BITS for m, n in blocks))


def check_budget(budget: int) -> None:
    if budget < 0:
        raise NegativeBudget(f"budget must be non-negative, got {budget}")


# -- message -> codeword ------------------------------------------------------


def _message_words(rows, q: int, add, multiple, zero, lines=False):
    """The word of every message of `rows`, in the mixed-radix order of
    `itertools.product` (the zero word first, the last digit fastest);
    `add` adds two words and multiple(d, row) is d * row.  With `lines`,
    only the zero word and each line's representative, the message whose
    first nonzero digit is 1: a leading digit stops at 1.

    One prefix sum per digit: base[i] is the word of the digits before i.
    The next message raises one digit i and clears the digits after it, so
    its word is base[i] + d_i * rows[i], one addition, and it becomes
    base[j] for every j > i.  The digits are an explicit stack, so any k
    runs without recursion, and d * rows[i] is computed when digit i first
    takes the value d, so a budget-cut walk of a long code or over a large
    field stays cheap.  A word may be kept as a base, so callers must not
    write to it.
    """
    k = len(rows)
    table = [{} for _ in range(k)]  # table[i][d] = d * rows[i]
    yield zero
    base = [zero] * k
    digits = [0] * k
    lead = k  # the first nonzero digit, k before the first message
    i = k - 1
    while i >= 0:
        d = digits[i] + 1
        if d == (2 if lines and lead >= i else q):
            digits[i] = 0
            i -= 1
            continue
        digits[i] = d
        lead = min(lead, i)
        m = table[i].get(d)
        if m is None:
            m = table[i][d] = multiple(d, rows[i])
        word = add(base[i], m)
        if i < k - 1:
            base[i + 1:] = [word] * (k - 1 - i)
            i = k - 1
        yield word


def all_codewords(field, rows, n: int):
    """Every codeword, each a fresh list, messages in the mixed-radix order
    of `itertools.product` (the zero word first, the last digit fastest):
    `_message_words` on lists, one word at a time."""
    # characteristic 2 adds by XOR, without a Python call per entry
    add = operator.xor if field.characteristic == 2 else field.add
    mul = field.mul
    words = _message_words(rows, field.order, lambda a, b: list(map(add, a, b)),
                           lambda d, row: [mul(d, v) for v in row], [0] * n)
    return map(list, words)


def codeword_chunks(field, rows, n: int, count=None, packed=False):
    """Each line's representative, the message whose first nonzero digit is
    1, among the first `count` messages (all by default) of the (k, n)
    entry array `rows` in the order of `all_codewords`, as 2-D arrays of at
    most _PIECE rows and _SUFFIX_CAP entries; the zero word is none.  A row
    holds a codeword's entries (`linalg._tables`: uint8, or object past 256
    elements) or, `packed` (GF(2)/GF(4), n <= 64), its uint64 bitplanes: lo
    over GF(2), lo and hi over GF(4) (`pack_planes`).  Packed, the table,
    the first chunk's representatives and the later chunks' buffer are
    plane-major, (planes, words) C-ordered arrays, so every addition runs
    along the words; a chunk is a transpose, F-ordered, each plane one
    contiguous run of words.

    The codewords of the last j rows are tabulated once, as large as those
    bounds and `count` allow; each chunk is that table plus one codeword of
    the first k - j rows (`_message_words` on the same addition), in one
    array addition, and the last is cut at `count`.  The prefix digits are
    the more significant, so the chunks follow one another in message
    order.  The zero prefix takes the table's representatives, its rows
    [q**m, 2 q**m) for m < j (every row but the first over GF(2)), and
    every other prefix is a representative with the whole table.  A chunk
    may be a view of the table, so callers must not write to it; packed,
    the chunks after the first are written into one buffer of the table's
    size, made at the second chunk, so a chunk is valid until the next one
    is drawn.  Over a field past GF(2) the table's representatives are each
    row's 1 plus the table of the rows after it, so the walk does not build
    a table that would be the whole code, and packed it writes them into
    that buffer, made at the first chunk.
    """
    if count is not None:
        check_budget(count)
    q, k = field.order, len(rows)
    if packed:
        width, add = (1 if q == 2 else 2), np.bitwise_xor
        rows = pack_planes(rows).tolist()  # Python ints: the digit stack scales them
        zero = np.zeros(width, dtype=np.uint64)

        def multiple(d, planes):  # d * row; its q multiples for d = slice(None)
            return np.array(multiples(*planes)[:q], dtype=np.uint64)[d, :width]
    else:
        t = _tables(field)
        scalars = t.array([[d] for d in range(q)], 1)
        width, add, zero = n, t.plus, t.zeros(n)

        def multiple(d, row):  # d * row; its q multiples for d = slice(None)
            return t.times(scalars[d], row)
    left = q**k if count is None else min(count, q**k)
    j = 0
    while j < k and q ** (j + 1) <= min(_PIECE, left) and q ** (j + 1) * width <= _SUFFIX_CAP:
        j += 1
    # from the last row up, each row the most significant digit so far; over
    # GF(q > 2) the table's representatives are each row's 1 plus the table
    # before it, and a table of the whole code is not needed.  Packed, the
    # table is plane-major, (width, words), so every addition runs along the
    # words; its transpose hands out the words
    table, firsts = (zero[:, None] if packed else zero[None]), []
    for row in reversed(rows[k - j:]):
        mults = multiple(slice(None), row)
        if packed:  # C-ordered (width, q): a sum takes its operands' memory order
            mults = np.ascontiguousarray(mults.T)
        if q > 2:
            firsts.append(add(table, mults[:, 1:2] if packed else mults[1]))
            if len(firsts) == k:
                break
        if packed:
            table = add(mults[:, :, None], table[:, None]).reshape(width, -1)
        else:
            table = add(mults[:, None], table[None]).reshape(-1, width)
    size = table.shape[1] if packed else len(table)
    buf = None
    if firsts:  # packed, into the buffer of the later chunks, as large as the walk needs
        reps = (q**j - 1) // (q - 1)
        if packed:
            buf = np.empty((width, max(reps, size)), dtype=np.uint64)
            first = np.concatenate(firsts, axis=1, out=buf[:, :reps]).T
        else:
            first = np.concatenate(firsts)
    else:  # over GF(2) every nonzero row is a line; at j = 0 there is none
        first = (table.T if packed else table)[1:]
    del firsts
    if left and len(first):  # the table fits `left`: q**j <= left
        yield first
    del first
    # the representative prefixes after the zero one, each given the index
    # of its first message over the table's size
    prefixes = itertools.chain(*(range(q**m, 2 * q**m) for m in range(k - j)))
    words = _message_words(rows[:k - j], q, add, multiple, zero, lines=True)
    next(words)  # the zero prefix, the first chunk's
    for p, word in zip(prefixes, words):
        start = p * size
        if start >= left:
            return
        if packed:
            buf = np.empty_like(table) if buf is None else buf
            chunk = add(table, word[:, None], out=buf).T
        else:
            chunk = add(table, word)
        yield chunk[:left - start]


# -- exhaustive search ------------------------------------------------------------


def _walk_min(field, rows, n: int, budget: int, weight, packed=False):
    """Minimum of weight(chunk) over the nonzero codewords, None without
    any; `weight` maps a 2-D chunk of `codeword_chunks` (`packed` or not)
    to one integer per row.  Only each line's representative is scored, so
    `weight` must not change under a nonzero scalar, as the Hamming weight
    and block ranks do not.

    Raises BudgetExceeded, carrying the minimum over the first `budget`
    messages, when the code has more codewords than that.  A line's
    representative is its least member in message order, so a walk cut
    there scores every line that meets those messages and finds the same
    minimum as a walk of every message.
    """
    best = None
    for chunk in codeword_chunks(field, rows, n, budget, packed):
        least = int(weight(chunk).min())
        best = least if best is None else min(best, least)
    total = field.order ** len(rows)
    if budget < total:
        raise BudgetExceeded(f"enumerated {budget} of {total} codewords", best=best, enumerated=budget)
    return best


def _temporaries(q: int, *dtypes):
    """A map of a chunk to one array per dtype, one entry per codeword:
    made at the first chunk of a walk over GF(q) and cut to each later one,
    so a weight kernel allocates once per walk.  The first chunk is the
    table's (q**j - 1) / (q - 1) representatives, so the arrays are made
    for (q - 1) times as many entries plus one: the table's q**j rows, the
    most any later chunk holds."""
    made = []

    def cut(chunk):
        if not made:
            made.extend(np.empty((q - 1) * len(chunk) + 1, dtype) for dtype in dtypes)
        return [a[:len(chunk)] for a in made]
    return cut


def _support(chunk: np.ndarray, out=None) -> np.ndarray:
    """The nonzero positions of each packed codeword of a chunk, as bits."""
    return np.bitwise_or(chunk[:, 0], chunk[:, 1], out=out) if chunk.shape[1] == 2 else chunk[:, 0]


def min_weight_char2(field, rows, n: int, budget: int) -> int:
    """Exact minimum Hamming weight over all nonzero combinations of `rows`,
    a popcount of the packed walk of lines; n + 1 without rows.

    GF(2)/GF(4) only, n <= 64.  Raises BudgetExceeded past the budget.
    """
    temps = _temporaries(field.order, np.uint64, np.uint8)

    def weight(chunk):
        support, count = temps(chunk)
        return popcount(_support(chunk, support), out=count)

    best = _walk_min(field, rows, n, budget, weight, packed=True)
    return n + 1 if best is None else best


def min_weight_generic(field, rows, n: int, budget: int) -> int:
    """Minimum Hamming weight through the walker on entry arrays, one word
    per line; n + 1 without rows."""
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
    `second` word, the `first` index the less significant digit; packed,
    each addition runs along the side with more words (`_sums`).
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
            _sums(a[i], b[j], add) for a, b in zip(planes_a, planes_b))


def _sums(a, b, add):
    """The (C, Wb * Wa, ...) array of every `add` of a word of each row of
    `a`, (C, Wa, ...), and one of the same row of `b`, (C, Wb, ...), the
    `a` word the less significant digit.  Packed (2-D) with Wa < Wb, one
    addition per `a` word, written strided into the (C, Wb, Wa) output, so
    each runs along the longer side; otherwise one broadcast."""
    if a.ndim == 2 and a.shape[1] < b.shape[1]:
        out = np.empty(b.shape + a.shape[1:], dtype=a.dtype)
        for x in range(a.shape[1]):
            add(b, a[:, x, None], out=out[:, :, x])
    else:
        out = add(b[:, :, None], a[:, None])
    return out.reshape(len(b), -1, *b.shape[2:])


def low_weight_blocks(field, rows, n: int, max_msg_weight: int, min_msg_weight: int = 1):
    """Yield (sets, words) batches for the messages of Hamming weight
    min_msg_weight..max_msg_weight, by weight, then lexicographically by
    support, one word per line: the messages whose first nonzero digit is 1.
    The others are its nonzero scalar multiples, of the same support,
    Hamming weight and block ranks.  A deepening scan lists each weight
    once by raising `min_msg_weight` step by step.

    `sets` is a (C, w) array of row-position sets; row c of `words` holds
    the (q-1)**(w-1) codewords of the messages nonzero exactly on sets[c]
    with scalar 1 at the first position.  In a row, the second position is
    the least significant base-(q-1) digit of the index, digit j standing
    for the scalar j + 1.  Each row is the sum of a row over the first
    w // 2 positions, its first scalar 1, and one over the rest; the words
    of the sets of each half size are built once (meet in the middle), and
    those with scalar 1 first are every (q-1)-th of them.

    When the code packs, `words` is a pair of fresh (C, (q-1)**(w-1)) lo/hi
    plane arrays of at most _PIECE words; else it is a fresh (C,
    (q-1)**(w-1), n) array of entries (`linalg._tables`) of at most _PIECE
    words and _SUFFIX_CAP entries.  A batch holds one set at least.
    """
    q = field.order
    k = len(rows)
    top = min(max_msg_weight, k)
    packed = packable_char2(field, n)
    if packed:  # (k, q - 1, 2): each row's planes times each nonzero scalar
        mults = np.array(multiples(*pack_planes(rows).T)[1:q], dtype=np.uint64).transpose(2, 0, 1)
        zero = np.zeros((1, 1), dtype=np.uint64)
        add, cap = np.bitwise_xor, _PIECE  # words per batch
        planes = (zero, zero), (mults[:, :, 0], mults[:, :, 1])
    else:
        t = _tables(field)
        scalars = t.array([[d] for d in range(1, q)], 1)
        add, cap = t.plus, min(_PIECE, _SUFFIX_CAP // max(n, 1))
        planes = (t.zeros((1, 1, n)),), (t.times(scalars[None], rows[:, None]),)
    levels = [(np.zeros((1, 0), dtype=np.intp), planes[0]), (np.arange(k)[:, None], planes[1])]
    while len(levels) <= (top + 1) // 2:  # sets of every half size, in one batch each
        levels.append(next(_join(levels[-1], levels[1], len(levels[-1][0]) * k, add)))
    # the first position is a level's least significant digit: scalar 1 at
    # every (q-1)-th word
    ones = [(sets, tuple(p[:, ::q - 1] for p in words)) for sets, words in levels]
    for wt in range(min_msg_weight, top + 1):
        batch = max(1, cap // (q - 1) ** (wt - 1))
        second = ones[1] if wt == 1 else levels[wt - wt // 2]
        for sets, words in _join(ones[wt // 2], second, batch, add):
            yield sets, words if packed else words[0]


def low_weight_min_char2(field, rows, n: int, max_msg_weight: int, weight=None,
                         min_msg_weight: int = 1):
    """Lightest codeword among messages of Hamming weight min_msg_weight..
    max_msg_weight, one per line (`low_weight_blocks`).

    `weight` maps a batch's (lo, hi) planes to an integer array of the
    same shape, and must not change under a nonzero scalar, as the Hamming
    weight and block ranks do not; None scores the Hamming weight.  Returns
    (weight, word), the word a list of n field elements, or (None, None)
    when the range is empty or the code is empty.  The first lightest in
    lister order wins.  With an rref generator this scan from weight 1 is
    complete, up to a scalar, for all codewords of Hamming weight up to the
    cap, since such a codeword's message is its pivot-column restriction.
    """
    best, word = None, None
    for _, (lo, hi) in low_weight_blocks(field, rows, n, max_msg_weight, min_msg_weight):
        w = popcount(lo | hi) if weight is None else weight(lo, hi)
        i = int(w.argmin())  # row-major: the first lightest of the batch
        if best is None or int(w.flat[i]) < best:
            best = int(w.flat[i])
            word = unpack_planes(int(lo.flat[i]), int(hi.flat[i]), n)
    return best, word


def listing_cost(field, k: int, windows: int, depth: int) -> int:
    """Words a listing through message weight `depth` under each of
    `windows` generators of dimension k costs: the messages it covers plus
    _PIECE words per generator; q**k, the whole code under one generator,
    once depth >= k.  The lister and the walker score one word per line, a
    (q-1)-th of the messages they cover, so over GF(4) either does about a
    third of the work this counts, and the two costs compare alike.

    The _PIECE term stands for a window's elimination and the lister's
    set-up.  On random GF(4) [2k, k] codes, k = 6..14, they took 0.2-0.9 ms
    per generator, which is 2**12 to 2**17 words of a whole listing at its
    measured 35-150 million words/s (2-core Intel Xeon, Python 3.11, all
    (q-1)**w multiples of each set scored); 2**15 is the middle of that
    range."""
    q = field.order
    if depth >= k:
        return q**k
    return windows * (_PIECE + sum(math.comb(k, i) * (q - 1) ** i for i in range(1, depth + 1)))


def support_masks(field, windows, n: int, depth: int, max_weight: int) -> np.ndarray:
    """Distinct supports of weight 1..max_weight of the codewords of the
    messages of weight <= depth under each generator of `windows` (entry
    arrays), as uint64 masks sorted by weight, then value.

    With generators systematic on r disjoint information sets, these are
    all supports of weight <= min(max_weight, r (depth + 1) - 1).  A depth
    >= k reads the whole code of the first generator instead, a packed
    chunk of `codeword_chunks` at a time, which bounds the memory.  The
    masks are made distinct by one sort after a zero sentinel: a mask is
    kept where it differs from the one before it.
    """
    k = len(windows[0])
    if depth >= k:
        temps = _temporaries(field.order, np.uint64)
        supports = (_support(chunk, *temps(chunk))
                    for chunk in codeword_chunks(field, windows[0], n, packed=True))
    else:
        supports = (np.bitwise_or(lo, hi).ravel() for rows in windows
                    for _, (lo, hi) in low_weight_blocks(field, rows, n, depth))
    parts = [np.zeros(1, dtype=np.uint64)]  # a zero sentinel; depth 0 lists nothing
    for masks in supports:
        parts.append(masks[popcount(masks) <= max_weight])
    # not numpy's unique, which imports numpy.ma on its first call
    masks = np.sort(np.concatenate(parts))
    masks = masks[1:][masks[1:] != masks[:-1]]
    return masks[np.argsort(popcount(masks), kind="stable")]


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


def block_ranks(field, blocks) -> np.ndarray:
    """Rank of each matrix of an (N, m, n) array of entries (`linalg._tables`).

    Each row is reduced against the kept rows by r <- b[p] r - r[p] b, p a
    kept row's first nonzero column (1 stands in for a zero row's pivot
    entry); the rank counts the rows left nonzero.  It never divides, so uint8
    tables and object arrays run it alike."""
    t = _tables(field)
    blocks = np.asarray(blocks).astype(t.dtype, copy=False)
    at = np.arange(len(blocks))
    kept, ranks = [], np.zeros(len(blocks), dtype=np.intp)
    for i in range(blocks.shape[1]):
        r = blocks[:, i]
        for b, p, lead in kept:
            r = t.plus(t.times(lead, r), t.negate(t.times(r[at, p][:, None], b)))
        nonzero = r != 0
        p, live = nonzero.argmax(axis=1), nonzero.any(axis=1)
        kept.append((r, p, np.where(live, r[at, p], 1)[:, None]))
        ranks += live
    return ranks


def _fold(x: np.ndarray, n: int, tmp: np.ndarray, out: np.ndarray) -> None:
    """out <- x with bit j the OR of x's bits j .. j + n - 1; out may be x."""
    span = 1
    while span < n:
        step = min(span, n - span)
        np.right_shift(x, np.uint64(step), out=tmp)
        np.bitwise_or(x, tmp, out=out)
        x = out
        span += step
    if x is not out:  # n = 1: nothing to fold
        np.copyto(out, x)


def _add_two_row_ranks(acc, words, n: int, firsts: np.uint64, temps, hi=None) -> None:
    """Adds to `acc` the summed ranks of the two-row blocks of width n whose
    first bits are set in `firsts`: a block of rows r1, r2 has rank
    [r2 != 0] + [r1 != 0 and r1 != r2], each flag read off a row's first
    bit after OR-folding the row onto it.  Row r1 lies at the block's bits
    of `words`, and r2 n bits up, where both flags are counted by one
    popcount, or at the same bits of `hi` where given: GF(4) symbols, here
    and in the (2,2) certificate (`construct._pair_ranks`).  `temps` are
    three uint64 arrays and one uint8 array of `acc`'s shape, 1-D for a
    walker's chunk, 2-D for a lister's batch."""
    tmp, differ, nonzero, count = temps
    second = np.right_shift(words, np.uint64(n), out=tmp) if hi is None else hi
    np.bitwise_xor(words, second, out=differ)  # r1 ^ r2 at r1's bits
    _fold(differ, n, tmp, differ)  # r1 != r2 at the first bit
    _fold(words, n, tmp, nonzero)  # r1 != 0 at the first bit, in `words` r2 != 0 n bits up
    differ &= firsts
    if hi is None:
        differ |= firsts << np.uint64(n)
        differ &= nonzero
    else:
        differ &= nonzero
        acc += popcount(differ, out=count)
        _fold(hi, n, tmp, differ)  # r2 != 0 at the first bit
        differ &= firsts
    acc += popcount(differ, out=count)


def sr_min_weight_packed(field, rows, blocks, budget: int) -> int:
    """Exact minimum sum-rank weight over GF(2) for the `packable_sum_rank`
    shapes, through the packed walk of lines; one more than the largest
    weight without rows.

    `rows` are flattened generator rows; `blocks` the (m_i, n_i) shapes in
    flattening order.  Two-row blocks are scored bit-sliced, all blocks of
    one width at once; the others through their rank tables.

    Over GF(4), `rows` instead span a code of at most 64 symbols whose
    expansion over GF(2) is the code searched, and every block is (2, n_i),
    read off the next n_i symbols.  A block's rank is the GF(2) dimension
    its symbols span, in any basis, so its rows are the symbols' lo and hi
    planes, their {1, w} expansion.  A nonzero scalar of GF(4) keeps every
    block's rank, so only the symbol code's lines are walked, and `budget`
    counts the symbol code's messages.
    """
    symbols = field.order == 4
    firsts = {}  # width -> first bits of the two-row blocks of that width
    tables = []  # (offset, mask, rank table) of the other blocks
    offset = 0
    for m, n in blocks:
        if m == 2:
            firsts[n] = firsts.get(n, 0) | 1 << offset
        elif symbols:
            raise ProfileMismatch(f"a block of GF(4) symbols has two rows, not {m}")
        else:
            tables.append((np.uint64(offset), np.uint64((1 << m * n) - 1), block_rank_lut(m, n)))
        offset += n if symbols else m * n
    firsts = {n: np.uint64(bits) for n, bits in firsts.items()}
    temps = _temporaries(field.order, np.uint64, np.uint64, np.uint64, np.uint8, np.uint8)

    def weight(chunk):
        words, hi = chunk[:, 0], (chunk[:, 1] if symbols else None)
        *scratch, acc = temps(chunk)
        acc[:] = 0
        for n, bits in firsts.items():
            _add_two_row_ranks(acc, words, n, bits, scratch, hi)
        index, count = scratch[0], scratch[3]
        for off, mask, lut in tables:
            np.right_shift(words, off, out=index)
            np.bitwise_and(index, mask, out=index)
            acc += np.take(lut, index.view(np.int64), out=count)
        return acc

    best = _walk_min(field, rows, offset, budget, weight, packed=True)
    return sum(m for m, _ in blocks) + 1 if best is None else best


def sr_min_weight_generic(field, rows, rank_fn, budget: int) -> int:
    """Fallback for any field or length through the walker of lines on
    entry arrays: rank_fn maps a 2-D chunk of flat codewords to their
    sum-rank weights (`BlockProfile.weights`).

    Raises ZeroCode without rows: rank_fn gives no largest weight."""
    if not len(rows):
        raise ZeroCode("the zero code has no nonzero codeword")
    return _walk_min(field, rows, rows.shape[1], budget, rank_fn)
