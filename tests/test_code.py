import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from srlab.code import LinearCode, f4_selfdual_distance_cap
from srlab.cyclic import cyclic_code, parse_poly
from srlab.errors import BudgetExceeded, LengthMismatch, NegativeBudget, ZeroCode
from srlab.field import extension, prime_field
from srlab.linalg import MatrixGF
from srlab.sumrank import BlockProfile
from srlab.tables import load_manifest
from srlab import code, construct, wordenum
from srlab.planes import pack_row_planes
from srlab.wordenum import low_weight_blocks, low_weight_min_char2, packable_char2, support_masks
from entries import entries
from subspaces import all_rref_generators

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension(F2, 2)


def _random_code(rnd, field, n, kmax=None):
    k = rnd.randint(0, kmax if kmax is not None else n)
    rows = [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)]
    return LinearCode.from_rows(field, n, rows)


def test_from_rows_examples():
    c = LinearCode.from_rows(F4, 2, [[1, 1]])
    assert c.k == 1 and c.n == 2
    z = LinearCode.from_rows(F4, 3, [])
    assert z.k == 0
    full = LinearCode.from_rows(F2, 2, [[1, 0], [0, 1], [1, 1]])
    assert full.k == 2  # dependent row dropped
    with pytest.raises(LengthMismatch):
        LinearCode.from_rows(F4, 3, [[1, 2]])


def test_dual_examples():
    z = LinearCode.zero(F4, 4)
    assert z.dual() == LinearCode.full(F4, 4)
    rnd = random.Random(2)
    for _ in range(25):
        c = _random_code(rnd, F4, rnd.randint(1, 6))
        d = c.dual()
        assert d.k == c.n - c.k
        assert d.dual() == c  # biduality under canonical equality
        # all cross inner products vanish
        for x in c.generator.rows:
            for y in d.generator.rows:
                acc = 0
                for a, b in zip(x, y):
                    acc = F4.add(acc, F4.mul(a, b))
                assert acc == 0


def test_min_distance_examples():
    c = LinearCode.from_rows(F4, 2, [[1, 1]])
    assert c.min_distance() == 2
    with pytest.raises(ZeroCode):
        LinearCode.zero(F4, 3).min_distance()
    # the lightest row of no rows: ZeroCode, not an empty min()'s ValueError
    for field in (F4, extension(F3, 2)):
        with pytest.raises(ZeroCode):
            LinearCode.zero(field, 5).lightest_row()
    with pytest.raises(ZeroCode):
        LinearCode.zero(F4, 4).lightest_row(construct._pair_ranks(4))


def test_min_distance_matches_bruteforce():
    rnd = random.Random(31)
    for field in (F2, F4, F3):
        for _ in range(20):
            c = _random_code(rnd, field, rnd.randint(1, 7), kmax=4)
            if c.k == 0:
                continue
            brute = min(
                sum(1 for v in word if v)
                for word in c.codewords()
                if any(word)
            )
            assert c.min_distance() == brute


def test_min_distance_budget():
    rnd = random.Random(37)
    c = LinearCode.from_rows(F4, 10, [[rnd.randrange(4) for _ in range(10)] for _ in range(6)])
    with pytest.raises(BudgetExceeded) as exc:
        c.min_distance(budget=1000)
    assert exc.value.best is None or exc.value.best >= c.min_distance()


def test_all_codewords_is_product_order():
    rnd = random.Random(43)
    for field in (F2, F3, F4, extension(F3, 2)):
        for k in range(7):
            if field.order**k > 20000:
                continue
            n = rnd.randint(1, 5)
            rows = [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)]
            want = []
            for msg in itertools.product(range(field.order), repeat=k):
                word = [0] * n
                for d, row in zip(msg, rows):
                    word = [field.add(a, field.mul(d, b)) for a, b in zip(word, row)]
                want.append(word)
            got = []
            for word in wordenum.all_codewords(field, rows, n):
                got.append(list(word))
                word[:] = [field.order] * n  # later words must not see this
            assert got == want, (field.order, k)


_WALK_FIELDS = [F2, F3, F4, prime_field(5), extension(F2, 3), extension(F3, 2),
                extension(prime_field(17), 2)]  # GF(289): object arrays
_SMALL_CHUNKS = [(None, None), (64, 256)]  # (_PIECE, _SUFFIX_CAP)


def _small_chunks(monkeypatch, piece, cap):
    # small caps split even a short code into many chunks, down to one word
    if piece is not None:
        monkeypatch.setattr(wordenum, "_PIECE", piece)
        monkeypatch.setattr(wordenum, "_SUFFIX_CAP", cap)


@pytest.mark.parametrize("piece, cap", _SMALL_CHUNKS)
def test_packed_chunks_after_the_table_share_one_buffer(monkeypatch, piece, cap):
    # the first chunk holds the table's lines; every later one is written
    # into one buffer.  Over GF(2) the first is a view of the table, which no
    # later chunk touches; over GF(4) it is written into that buffer too
    _small_chunks(monkeypatch, piece, cap)
    rnd = random.Random(46)
    for field, k in ((F2, 3), (F2, 18), (F4, 2), (F4, 10)):
        q = field.order
        rows = entries(field, [[rnd.randrange(q) for _ in range(9)] for _ in range(k)], 9)
        chunks = wordenum.codeword_chunks(field, rows, 9, packed=True)
        first = next(chunks)
        rest = list(chunks)  # every array kept alive, though only the last is valid
        assert len(first) == (q**k - 1) // (q - 1) or rest
        assert all(np.shares_memory(rest[0], c) for c in rest[1:])
        if q == 2:
            assert first.base is not None and not any(np.shares_memory(first, c) for c in rest)
        else:
            assert all(np.shares_memory(first, c) for c in rest)


@pytest.mark.parametrize("piece, cap", _SMALL_CHUNKS)
def test_packed_chunks_hold_contiguous_planes(monkeypatch, piece, cap):
    # the table is built plane-major, so each plane of every packed chunk
    # (the first chunk's lines, the table and the later chunks' buffer) is
    # one contiguous run of words; the count cuts vary the table's depth
    _small_chunks(monkeypatch, piece, cap)
    rnd = random.Random(52)
    cases = 0
    for field, k in ((F2, 1), (F2, 6), (F2, 17), (F4, 1), (F4, 4), (F4, 9)):
        q = field.order
        rows = entries(field, [[rnd.randrange(q) for _ in range(33)] for _ in range(k)], 33)
        for count in (None, 1, 2, q, q**2 + 1, q**3 - 1, q**4, q**k // 2 + 1):
            for chunk in wordenum.codeword_chunks(field, rows, 33, count, packed=True):
                assert all(chunk[:, p].flags.c_contiguous for p in range(chunk.shape[1])), \
                    (q, k, count, chunk.strides)
                cases += 1
    assert cases > 60


def _outcome(search):
    try:
        return "exact", search()
    except BudgetExceeded as exc:
        return "cut", exc.best, exc.enumerated


def _reference_outcome(weights, total, budget, empty):
    """What a walk of `budget` messages must report, from the weights of the
    first codewords in message order."""
    if budget < total:
        return "cut", min(weights[1:budget], default=None), budget
    return "exact", min(weights[1:], default=empty)


@pytest.mark.parametrize("piece, cap", _SMALL_CHUNKS)
def test_array_walker_matches_a_per_word_walk(monkeypatch, piece, cap):
    # the reference scores every word of `all_codewords` one at a time; the
    # budgets cut before, inside and after the first chunk's messages and at
    # the end of the code.  The second weight, the nonzero entries of the
    # first half, is 0 on some nonzero words: the walk skips only message 0
    _small_chunks(monkeypatch, piece, cap)
    rnd = random.Random(47)
    cases = 0
    for field in _WALK_FIELDS:
        for k in range(7):
            for n in (1, 7, 70, 300):
                q, total = field.order, field.order**k
                most = 10_000 // n  # words the reference may score
                rows = [[rnd.randrange(q) for _ in range(n)] for _ in range(k)]
                gen = entries(field, rows, n)
                # the messages the first chunk's lines cover
                chunk = (q - 1) * len(next(wordenum.codeword_chunks(field, gen, n, most), ())) + 1
                budgets = {0, 1, chunk // 2 + 1, chunk + chunk // 2 + 1}
                if total + 1 <= most:
                    budgets |= {total - 1, total, total + 1}
                budgets = sorted(b for b in budgets if b <= most)
                words = list(itertools.islice(wordenum.all_codewords(field, rows, n),
                                              min(total, budgets[-1])))
                hamming = [n - w.count(0) for w in words]
                first_half = (n + 1) // 2
                half = [first_half - w[:first_half].count(0) for w in words]
                for budget in budgets:
                    got = _outcome(lambda: wordenum.min_weight_generic(field, gen, n, budget))
                    assert got == _reference_outcome(hamming, total, budget, n + 1), \
                        (q, k, n, budget)
                    got = _outcome(lambda: wordenum._walk_min(
                        field, gen, n, budget, lambda c: np.count_nonzero(c[:, :first_half], axis=1)))
                    assert got == _reference_outcome(half, total, budget, None), \
                        (q, k, n, budget)
                    cases += 1
    assert cases > 500


def _leads_with_one(message):
    """Whether a message is its line's representative: first nonzero digit 1."""
    return next((d for d in message if d), 0) == 1


@pytest.mark.parametrize("piece, cap", _SMALL_CHUNKS)
def test_chunks_of_lines_are_the_representatives(monkeypatch, piece, cap):
    # the reference keeps, among the first `count` messages of
    # itertools.product, those whose first nonzero digit is 1, in order
    _small_chunks(monkeypatch, piece, cap)
    rnd = random.Random(48)
    cases = 0
    for field in _WALK_FIELDS:
        q = field.order
        for k in range(6):
            total = q**k
            if total > 5000:
                continue
            n = rnd.choice([1, 3, 9])
            rows = [[rnd.randrange(q) for _ in range(n)] for _ in range(k)]
            gen = entries(field, rows, n)
            words = list(wordenum.all_codewords(field, rows, n))
            messages = list(itertools.product(range(q), repeat=k))
            # the messages the first chunk's lines cover
            first = (q - 1) * len(next(wordenum.codeword_chunks(field, gen, n), ())) + 1
            for count in sorted({None, 0, 1, 2, q, first // 2 + 1, first, first + 1,
                                 first + first // 2 + 1, total - 1, total, total + 1} - {-1},
                                key=lambda c: -1 if c is None else c):
                cut = total if count is None else min(count, total)
                want = [w for m, w in zip(messages[:cut], words) if _leads_with_one(m)]
                got = []
                for c in wordenum.codeword_chunks(field, gen, n, count):
                    assert 0 < len(c) <= (piece or wordenum._PIECE)
                    got += [list(map(int, w)) for w in c]
                assert got == want, (q, k, count)
                if q in (2, 4):
                    planes = 1 if q == 2 else 2
                    got = []
                    for c in wordenum.codeword_chunks(field, gen, n, count, packed=True):
                        assert c.shape[1] == planes and 0 < len(c) <= (piece or wordenum._PIECE)
                        got += c.tolist()
                    assert got == [list(pack_row_planes(field, w))[:planes] for w in want], \
                        (q, k, count)
                cases += 1
    assert cases > 200


@pytest.mark.parametrize("piece, cap", _SMALL_CHUNKS)
def test_walks_of_lines_cut_like_the_message_walk(monkeypatch, piece, cap):
    # a walk of lines cut at `budget` messages reports what the message walk
    # reports: the lightest of the first `budget` codewords, and `budget`
    _small_chunks(monkeypatch, piece, cap)
    rnd = random.Random(49)
    f3 = prime_field(3)
    profile = BlockProfile(f3, [(2, 2), (1, 2), (2, 3)])
    cases = 0
    for k in range(8):
        for trial in range(3):
            kernels = []
            rows = [[rnd.randrange(4) for _ in range(13)] for _ in range(k)]
            words = list(wordenum.all_codewords(F4, rows, 13))
            kernels.append((F4, [13 - w.count(0) for w in words], 14,
                            lambda b, gen=entries(F4, rows, 13): wordenum.min_weight_char2(F4, gen, 13, b)))
            if 3**k <= 729:
                rows = [[rnd.randrange(3) for _ in range(profile.total)] for _ in range(k)]
                words = list(wordenum.all_codewords(f3, rows, profile.total))
                kernels.append((f3, profile.weights(words).tolist(), None,
                                lambda b, gen=entries(f3, rows, profile.total): wordenum.sr_min_weight_generic(
                                    f3, gen, profile.weights, b)))
            for field, weights, empty, search in kernels:
                total = field.order**k
                if not k:
                    continue  # no rows: the sum-rank kernel raises ZeroCode
                # the messages the first chunk's lines cover
                first = next(wordenum.codeword_chunks(field, entries(field, [[0]] * k, 1), 1))
                chunk = (field.order - 1) * len(first) + 1
                for budget in sorted({0, 1, 2, chunk - 1, chunk, chunk + 1, chunk + chunk // 2 + 1,
                                      total - 1, total, total + 1} - {-1}):
                    assert _outcome(lambda: search(budget)) == \
                        _reference_outcome(weights, total, budget, empty), (field.order, k, budget)
                    cases += 1
    assert cases > 150


def test_every_exhaustive_kernel_scores_one_word_per_line(monkeypatch):
    # the rows each kernel's walk draws: (q**k - 1) / (q - 1), the lines
    drawn = []
    chunks = wordenum.codeword_chunks

    def counted(*args, **kwargs):
        for chunk in chunks(*args, **kwargs):
            drawn.append(len(chunk))
            yield chunk
    monkeypatch.setattr(wordenum, "codeword_chunks", counted)
    rnd = random.Random(51)
    f3 = prime_field(3)
    for field, k in ((F2, 9), (F3, 6), (F4, 6)):
        q, n = field.order, 12
        rows = entries(field, [[rnd.randrange(q) for _ in range(n)] for _ in range(k)], n)
        profile = BlockProfile(field, [(2, 3), (2, 3)])
        searches = [lambda: wordenum.min_weight_generic(field, rows, n, 2**20),
                    lambda: wordenum.sr_min_weight_generic(field, rows, profile.weights, 2**20)]
        if q != 3:
            searches += [lambda: wordenum.min_weight_char2(field, rows, n, 2**20),
                         lambda: wordenum.support_masks(field, [rows], n, k, n),
                         # flat GF(2) rows of two (2,3) blocks, or GF(4) symbols of two (2,6)
                         lambda: wordenum.sr_min_weight_packed(
                             field, rows, [(2, 3 * q // 2)] * 2, 2**20)]
        for search in searches:
            drawn.clear()
            search()
            assert sum(drawn) == (q**k - 1) // (q - 1), (q, search)


def test_walker_budget_cut_of_a_long_code():
    # 2000 digits: the walker keeps its digits on an explicit stack (nested
    # generators would raise RecursionError) and tabulates a row's multiples
    # only once its digit moves
    c = LinearCode.full(F3, 2000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        c.min_distance(budget=1000)
    assert time.perf_counter() - start < 1.0
    assert exc.value.enumerated == 1000 and exc.value.best == 1


def test_low_weight_scan_complete():
    rnd = random.Random(41)
    for _ in range(15):
        c = _random_code(rnd, F4, 8, kmax=5)
        if c.k == 0:
            continue
        d = c.min_distance()
        found, witness = c.low_weight_scan(d)
        assert found == d
        assert sum(1 for v in witness if v) == d
        assert c.contains(witness)


def _assert_windows(c):
    """Each window is an information set, disjoint from the others, and its
    generator, a read-only entry array, spans the code and is the identity
    on it."""
    seen = set()
    for positions, rows in c.windows():
        with pytest.raises(ValueError):
            rows[...] = 0
        assert len(positions) == c.k and not seen & set(positions)
        seen |= set(positions)
        assert LinearCode.from_rows(c.field, c.n, rows) == c
        for i, row in enumerate(rows.tolist()):
            assert [row[p] for p in positions] == [int(i == j) for j in range(c.k)]
    assert c.windows()[0][1] is c.generator._array()


def test_windows_are_disjoint_information_sets():
    rnd = random.Random(53)
    for field in (F2, F4, F3):
        for _ in range(20):
            n = rnd.randint(2, 14)
            c = _random_code(rnd, field, n, kmax=min(n, 6))
            _assert_windows(c)
            if c.k:
                assert len(c.windows()) <= n // c.k
    # the columns left after the first window have rank 1: one window only
    c = LinearCode.from_rows(F4, 4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    assert [positions for positions, _ in c.windows()] == [(0, 1)]
    # in a cyclic code any k consecutive positions are an information set, so
    # every self-dual [2k, k] code of tables 11 and 12 has the windows
    # [0, k) and [k, 2k)
    for tid in (11, 12):
        for row in load_manifest(tid)["rows"]:
            n = row.get("n", row["t"])
            for text in row["generators"]:
                c = cyclic_code(parse_poly(F4, text), n)
                _assert_windows(c)
                assert [positions for positions, _ in c.windows()] == [
                    tuple(range(c.k)), tuple(range(c.k, n))]


def test_certified_distance_equals_min_distance(monkeypatch):
    # a small lister batch makes the windowed listing the cheaper one for
    # these codes, so both the windowed and the whole-code paths run
    monkeypatch.setattr(wordenum, "_PIECE", 8)
    rnd = random.Random(59)
    paths = set()
    for trial in range(60):
        field = (F2, F4)[trial % 2]
        n = rnd.randint(4, 24)
        c = _random_code(rnd, field, n, kmax=min(n, 9))
        if c.k == 0:
            with pytest.raises(ZeroCode):
                c.certified_distance()
            continue
        d, witness, r, depth = c.certified_distance()
        assert d == c.min_distance()
        assert c.contains(witness) and sum(1 for v in witness if v) == d
        assert r == (1 if depth >= c.k else len(c.windows()))
        paths.add("whole" if depth >= c.k else f"{min(r, 2)} windows")
    assert paths == {"whole", "1 windows", "2 windows"}


def _gf4_codewords(c):
    """Every nonzero codeword of a GF(4) code, one uint8 row each (GF(4)
    adds by XOR; the zero message comes first)."""
    words = np.zeros((1, c.n), dtype=np.uint8)
    for row in c.generator.rows:
        mults = np.array([[F4.mul(d, v) for v in row] for d in range(4)], dtype=np.uint8)
        words = (words[None] ^ mults[:, None]).reshape(-1, c.n)
    return words[1:]


def _predicted_certificate(c, weights, cover):
    """(d, r, depth) of the deepening rule, read off every codeword's
    `weights`: a codeword is listed through message weight w once its
    restriction to some window weighs <= w (its message under the window's
    generator).  From depth 1, a step whose r windows would cost no less
    than the whole code (`listing_cost`) lists the whole code, which ends
    the scan at (lightest, 1, k); else the scan stops at the first depth
    whose lightest listed weight D has cover(D) <= r (depth + 1) - 1."""
    words = _gf4_codewords(c)
    w = weights(words)
    msg = np.min([np.count_nonzero(words[:, list(pos)], axis=1) for pos, _ in c.windows()], axis=0)
    r = len(c.windows())
    for depth in range(1, c.k + 1):
        if 4**c.k <= wordenum.listing_cost(F4, c.k, r, depth):
            return int(w.min()), 1, c.k
        d = int(w[msg <= depth].min())
        if cover(d) <= r * (depth + 1) - 1:
            return d, r, depth


def _pair_rank_weights(words):
    """Summed ranks of the (2,2) blocks (x_2i, x_2i+1) of GF(4) words: the
    GF(2) dimension the two symbols span."""
    a, b = words[:, 0::2], words[:, 1::2]
    return ((a | b) != 0).sum(axis=1) + ((a != 0) & (b != 0) & (a != b)).sum(axis=1)


def test_each_certificate_step_lists_one_new_message_weight(monkeypatch):
    listed = []

    def recorded(field, rows, n, max_msg_weight, weight=None, min_msg_weight=1):
        window = tuple(map(tuple, rows.tolist()))
        listed.extend((window, w) for w in range(min_msg_weight, min(max_msg_weight, len(rows)) + 1))
        return wordenum.low_weight_min_char2(field, rows, n, max_msg_weight, weight, min_msg_weight)

    monkeypatch.setattr(code, "low_weight_min_char2", recorded)
    rnd = random.Random(97)
    depths = []
    for trial in range(40):
        n = 2 * rnd.randint(3, 10)
        c = _random_code(rnd, F4, n, kmax=min(n // 2 + 2, 10))
        if c.k == 0:
            continue
        hamming = (None, lambda d: d - 1, lambda words: np.count_nonzero(words, axis=1),
                   c.min_distance, lambda word: sum(1 for v in word if v))
        profile = BlockProfile(F2, [(2, 2)] * (n // 2))
        ranks = (construct._pair_ranks(n), lambda d: 2 * (d - 1), _pair_rank_weights,
                 construct.basis_expand_code(c).min_distance,
                 lambda word: construct.symbol_sum_rank_weight(word, F4, profile))
        for weight, cover, oracle, exhaustive, weigh in (hamming, ranks):
            listed.clear()
            # a small lister batch makes windows the cheaper listing, so the
            # certificates deepen
            with monkeypatch.context() as m:
                m.setattr(wordenum, "_PIECE", 8)
                d, witness, r, depth = c.certified_distance(None, weight, cover)
                assert (d, r, depth) == _predicted_certificate(c, oracle, cover)
            assert len(listed) == len(set(listed)), c.generator.rows
            assert d == exhaustive()
            assert c.contains(witness) and weigh(witness) == d
            depths.append((r > 1, depth))
    assert sum(1 for windowed, depth in depths if windowed and depth > 1) >= 10


def test_support_masks_match_the_codeword_supports(monkeypatch):
    # a 16-entry cap splits every whole listing below into several chunks
    monkeypatch.setattr(wordenum, "_SUFFIX_CAP", 16)
    rnd = random.Random(61)
    for trial in range(40):
        field = (F2, F4)[trial % 2]
        n = rnd.randint(4, 16)
        c = _random_code(rnd, field, n, kmax=min(n, 7))
        if c.k == 0:
            continue
        supports = {sum(1 << j for j, v in enumerate(w) if v) for w in c.codewords()} - {0}
        top = rnd.randint(1, n)
        want = sorted((m for m in supports if bin(m).count("1") <= top),
                      key=lambda m: (bin(m).count("1"), m))
        assert support_masks(field, [c.generator._array()], n, c.k, top).tolist() == want
        # through message weight 1 under r windows: every support of weight
        # <= 2 r - 1, and only supports of codewords
        gens = [rows for _, rows in c.windows()]
        got = set(support_masks(field, gens, n, 1, top).tolist())
        assert got <= supports
        assert {m for m in want if bin(m).count("1") <= 2 * len(gens) - 1} <= got


def test_length_28_table_12_code_certifies_at_message_weight_1():
    # a codeword lighter than d = 4 weighs at most 3, and two windows through
    # message weight 1 list every codeword of weight <= 2 (1 + 1) - 1 = 3
    row = next(r for r in load_manifest(12)["rows"] if r["n"] == 28)
    c = cyclic_code(parse_poly(F4, row["generators"][0]), 28)
    d, witness, r, depth = c.certified_distance()
    assert (d, r, depth) == (4, 2, 1)
    assert c.contains(witness) and sum(1 for v in witness if v) == d
    assert d == c.min_distance()


def test_certificates_start_shallow_where_the_lightest_row_asks_for_the_whole_code(monkeypatch):
    # the cover of the lightest rref row picks the whole listing, yet d shows
    # at a shallow window depth: the (2,2) certificates of table 12 t = 9 and
    # t = 12, and Hamming certificates of random codes under a small lister
    # batch
    for t in (9, 12):
        row = load_manifest(12)["rows"][t - 1]
        c = cyclic_code(parse_poly(F4, row["generators"][0]), row["n"])
        weight = construct._pair_ranks(c.n)
        assert c.listing_windows(2 * (c.lightest_row(weight) - 1))[1] >= c.k
        d, witness, r, depth = construct.uniform22_certified_distance(c)
        assert r > 1 and depth < c.k
        assert d == construct.basis_expand_code(c).min_distance()
    monkeypatch.setattr(wordenum, "_PIECE", 8)
    rnd = random.Random(5)
    shallow = 0
    for trial in range(300):
        n = rnd.randint(6, 18)
        c = _random_code(rnd, F4, n, kmax=n // 2)
        if c.k < 2 or c.listing_windows(c.lightest_row() - 1)[1] < c.k:
            continue
        d, witness, r, depth = c.certified_distance()
        assert d == c.min_distance()
        if r > 1 and depth < c.k:
            shallow += 1
    assert shallow >= 5


def test_the_hamming_certificate_is_kept_and_a_raise_keeps_none(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return wordenum.low_weight_min_char2(*args)

    monkeypatch.setattr(code, "low_weight_min_char2", counted)
    row = next(r for r in load_manifest(12)["rows"] if r["n"] == 28)
    # a fresh object: no other test's certificate is kept on it
    c = LinearCode.from_rows(F4, 28, cyclic_code(parse_poly(F4, row["generators"][0]), 28).generator.rows)
    with pytest.raises(BudgetExceeded):
        c.certified_distance(budget=0)
    assert calls == []
    first = c.certified_distance()
    assert calls
    calls.clear()
    assert c.certified_distance() == first
    assert c.certified_distance(budget=0) == first  # a kept result lists nothing
    assert calls == []
    # the (2,2) certificate passes its own weight and lists again each call
    construct.uniform22_certified_distance(c)
    listed = len(calls)
    construct.uniform22_certified_distance(c)
    assert listed and len(calls) == 2 * listed


def test_certified_distance_budget():
    c = LinearCode.from_rows(F4, 12, [[1] * 12] + [[0] * i + [1, 1] + [0] * (10 - i)
                                                     for i in range(5)])
    with pytest.raises(BudgetExceeded) as exc:
        c.certified_distance(budget=0)
    assert exc.value.best >= c.min_distance()
    assert c.certified_distance(budget=4**c.k)[0] == c.min_distance()


def test_selfdual_and_lcd_examples():
    c = LinearCode.from_rows(F4, 2, [[1, 1]])
    assert c.is_self_dual()
    z = LinearCode.zero(F4, 4)
    assert z.is_lcd() and not z.is_self_dual()
    z0 = LinearCode.zero(F4, 0)
    assert z0.is_self_dual()  # only the n = 0 zero code is self-dual
    full = LinearCode.full(F4, 3)
    assert full.is_lcd()


def test_hull_dimension_gram_vs_intersection():
    rnd = random.Random(47)
    for field in (F2, F4, F3):
        for _ in range(30):
            c = _random_code(rnd, field, rnd.randint(1, 6))
            hull = c.intersection(c.dual())
            assert c.hull_dimension() == hull.k
            assert c.is_lcd() == (hull.k == 0)


def test_hull_dimension_gram_vs_intersection_exhaustive_42():
    # every [4,2] code over GF(4): the Gram criterion equals the explicit one
    for rows in all_rref_generators(F4, 4, 2):
        c = LinearCode.from_rows(F4, 4, rows)
        assert c.hull_dimension() == c.intersection(c.dual()).k


def test_gram_is_built_once_per_code(monkeypatch):
    built = []
    gram = MatrixGF.gram
    monkeypatch.setattr(MatrixGF, "gram", lambda m: built.append(m) or gram(m))
    rnd = random.Random(53)
    for field in (F2, F4, F3):
        for _ in range(20):
            c = _random_code(rnd, field, rnd.randint(1, 6))
            hull = c.intersection(c.dual())
            del built[:]
            # the predicates share one hull dimension and still agree with
            # the explicit row-space intersection
            for _ in range(2):
                assert c.hull_dimension() == hull.k
                assert c.is_lcd() == (hull.k == 0)
                assert c.is_self_dual() == (hull == c and 2 * c.k == c.n)
            assert c._hull == hull.k
            assert len(built) == (1 if c.k else 0)
            twin = LinearCode.from_rows(field, c.n, list(reversed(c.generator.rows)))
            assert twin == c and twin._hull is None
            assert twin.hull_dimension() == hull.k and len(built) == (2 if c.k else 0)


def test_code_stays_immutable():
    c = LinearCode.from_rows(F4, 2, [[1, 1]])
    assert c.hull_dimension() == 1
    for name, value in (("n", 3), ("_hull", 0), ("generator", None)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    assert c.n == 2 and c._hull == 1 and c.is_self_dual() and not c.is_lcd()


def test_self_orthogonal_hull():
    c = LinearCode.from_rows(F4, 2, [[1, 1]])
    assert c.hull_dimension() == c.k  # self-dual implies self-orthogonal


def test_f4_selfdual_distance_cap():
    assert f4_selfdual_distance_cap(12) == 8
    assert f4_selfdual_distance_cap(2) == 4
    assert f4_selfdual_distance_cap(30) == 12


def test_canonical_equality():
    rows_a = [[1, 0, 2], [0, 1, 3]]
    rows_b = [[1, 1, 1], [0, 1, 3]]  # same row space, scrambled
    a = LinearCode.from_rows(F4, 3, rows_a)
    b = LinearCode.from_rows(F4, 3, rows_b)
    assert a == b
    assert hash(a) == hash(b)


def test_all_rref_generators_counts():
    # Gaussian binomial [4 choose 2] over GF(4) = 357
    assert sum(1 for _ in all_rref_generators(F4, 4, 2)) == 357
    seen = {LinearCode.from_rows(F4, 4, rows) for rows in all_rref_generators(F4, 4, 2)}
    assert len(seen) == 357


def _message_words(c, positions):
    """Plain-loop reference: codewords of the messages nonzero exactly on
    `positions` with first digit 1, one per line (the lister lists no other
    scalar multiple), the second position the least significant base-(q-1)
    digit."""
    f = c.field
    base = f.order - 1
    words = []
    for i in range(base ** (len(positions) - 1)):
        word = [0] * c.n
        for j, p in enumerate(positions):
            d = 1 if j == 0 else 1 + i // base ** (j - 1) % base
            word = [f.add(a, f.mul(d, b)) for a, b in zip(word, c.generator.rows[p])]
        words.append(word)
    return words


def _flat_blocks(field, rows, n, depth, lowest=1):
    """The lister's batches flattened back to one (positions, block) pair
    per position set."""
    out = []
    packed = packable_char2(field, n)
    for sets, words in low_weight_blocks(field, rows, n, depth, lowest):
        assert sets.ndim == 2
        assert len(words) == (2 if packed else len(sets))
        if packed:
            assert len(words[0]) == len(words[1]) == len(sets)
        else:
            assert words.shape == (len(sets), (field.order - 1) ** (sets.shape[1] - 1), n)
        for c, positions in enumerate(sets):
            block = (words[0][c], words[1][c]) if packed else words[c].tolist()
            out.append((tuple(int(p) for p in positions), block))
    return out


def test_low_weight_lister_matches_plain_loop(monkeypatch):
    rnd = random.Random(43)
    codes = ((F4, 12, 4, 3), (F2, 20, 4, 3), (F4, 70, 4, 3), (F3, 9, 4, 3), (F4, 16, 7, 3),
             (F2, 24, 9, 3), (prime_field(5), 10, 4, 3), (extension(F3, 2), 8, 4, 3),
             (F2, 70, 8, 3),
             (extension(prime_field(17), 2), 5, 1, 1))  # GF(289): object arrays
    for piece, (field, n, k, depth) in itertools.product(
            (wordenum._PIECE, 8),  # 8 words: several batches per message weight
            codes):
        monkeypatch.setattr(wordenum, "_PIECE", piece)
        c = LinearCode.from_rows(field, n, [[rnd.randrange(field.order) for _ in range(n)]
                                            for _ in range(k)])
        blocks = _flat_blocks(field, c.generator._array(), n, depth)
        sets = [s for w in range(1, depth + 1) for s in itertools.combinations(range(c.k), w)]
        assert [positions for positions, _ in blocks] == sets
        # from a lowest message weight: the same batches of the heavier sets
        for lowest in range(2, depth + 2):
            tail = _flat_blocks(field, c.generator._array(), n, depth, lowest)
            heavy = [(p, b) for p, b in blocks if len(p) >= lowest]
            assert [p for p, _ in tail] == [p for p, _ in heavy]
            assert all(np.array_equal(np.asarray(a, dtype=object), np.asarray(b, dtype=object))
                       for (_, a), (_, b) in zip(tail, heavy))
        for positions, block in blocks:
            words = _message_words(c, positions)
            if packable_char2(field, n):
                lo, hi = block
                assert [int(x) for x in lo] == [sum((v & 1) << j for j, v in enumerate(w)) for w in words]
                assert [int(x) for x in hi] == [sum((v >> 1) << j for j, v in enumerate(w)) for w in words]
            else:
                assert block == words
        # a scan through every message weight sees every codeword
        found, witness = c.low_weight_scan(c.k)
        assert found == c.min_distance() == sum(1 for v in witness if v)
        assert c.contains(witness)


@pytest.mark.parametrize("piece", [None, 8])
def test_packed_lister_batches_keep_the_broadcast_order(monkeypatch, piece):
    # a packed batch adds each first-half word into its strided slot where
    # the first half has fewer words than the second (GF(4) past weight 1),
    # and broadcasts elsewhere (GF(2), the levels, entry arrays); either way
    # its words are those of one broadcast, the first-half word the less
    # significant digit, and each batch is a fresh C-ordered 2-D array
    if piece is not None:
        monkeypatch.setattr(wordenum, "_PIECE", piece)
    sums = wordenum._sums
    taken = set()

    def spied(a, b, add):
        taken.add((a.ndim, a.ndim == 2 and a.shape[1] < b.shape[1]))  # strided
        return sums(a, b, add)

    def broadcast(a, b, add):
        return add(b[:, :, None], a[:, None]).reshape(len(b), -1, *b.shape[2:])
    rnd = random.Random(53)
    for field, n, k, depth in ((F4, 20, 9, 5), (F4, 64, 7, 4), (F2, 24, 10, 5), (F3, 8, 6, 4)):
        rows = entries(field, [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)], n)
        batches = []
        for kernel in (spied, broadcast):
            monkeypatch.setattr(wordenum, "_sums", kernel)
            batches.append(list(low_weight_blocks(field, rows, n, depth)))
        got, want = batches
        assert len(got) == len(want) > 1
        for (sets, words), (want_sets, want_words) in zip(got, want):
            assert np.array_equal(sets, want_sets)
            for w, v in zip(*((words, want_words) if packable_char2(field, n) else ([words], [want_words]))):
                assert w.dtype == v.dtype and np.array_equal(w, v)
                assert w.flags.c_contiguous and w.ndim == (2 if packable_char2(field, n) else 3)
        packed = [words for _, words in got if packable_char2(field, n)]
        assert not any(np.shares_memory(a[0], b[0]) or np.shares_memory(a[1], b[1])
                       for a, b in zip(packed, packed[1:]))
    assert taken == {(2, True), (2, False), (3, False)}


def _plain_low_weight_min(c, depth, lowest=1):
    """Per-set reference: the word of the first lightest message of weight
    lowest..depth with first digit 1 in lister order (rref rows are
    independent, so the word names its message)."""
    best, best_word = None, None
    for w in range(lowest, min(depth, c.k) + 1):
        for positions in itertools.combinations(range(c.k), w):
            for word in _message_words(c, positions):
                wt = sum(1 for v in word if v)
                if best is None or wt < best:
                    best, best_word = wt, word
    return best, best_word


def test_low_weight_min_matches_plain_loop(monkeypatch):
    rnd = random.Random(47)
    piece = wordenum._PIECE
    for trial in range(48):
        # 16 words: several batches per message weight
        monkeypatch.setattr(wordenum, "_PIECE", 16 if trial % 4 < 2 else piece)
        field = (F2, F4)[trial % 2]
        n = rnd.randint(6, 20)
        k = rnd.randint(1, min(n, 8))
        if trial % 3 == 0:  # light rows and repeated supports: many tied minima
            rows = [[rnd.choice((0, 0, 0, 1, field.order - 1)) for _ in range(n)]
                    for _ in range(k)]
        else:
            rows = [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)]
        c = LinearCode.from_rows(field, n, rows)
        if c.k == 0:
            continue
        depth = rnd.randint(1, 4)
        want = _plain_low_weight_min(c, depth)
        assert low_weight_min_char2(field, c.generator._array(), n, depth) == want
        for lowest in range(2, depth + 2):
            want = _plain_low_weight_min(c, depth, lowest)
            got = low_weight_min_char2(field, c.generator._array(), n, depth, min_msg_weight=lowest)
            assert got == want, lowest


@pytest.mark.parametrize("piece", [None, 8])  # 8 words: several batches per message weight
def test_unpacked_scan_keeps_the_first_lightest_word(monkeypatch, piece):
    if piece is not None:
        monkeypatch.setattr(wordenum, "_PIECE", piece)
    rnd = random.Random(53)
    for field, n in ((F3, 9), (prime_field(5), 8), (F2, 70), (F3, 12), (F2, 66)):
        for trial in range(4):
            k = rnd.randint(1, 5)
            if trial % 2:  # light rows and repeated supports: many tied minima
                rows = [[rnd.choice((0, 0, 0, 1, field.order - 1)) for _ in range(n)]
                        for _ in range(k)]
            else:
                rows = [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)]
            c = LinearCode.from_rows(field, n, rows)
            if c.k == 0:
                continue
            assert not packable_char2(field, n)
            assert c.low_weight_scan(c.k) == _plain_low_weight_min(c, c.k)


def test_gf2_lister_batches_are_unchanged(monkeypatch):
    # over GF(2) every line is one word, so the lister's batches (sets,
    # shapes and words) are those it gave when it listed every scalar
    # multiple; the digest was taken from that lister on these codes
    rnd = random.Random(71)
    h = hashlib.sha256()
    piece = wordenum._PIECE
    for cap, (n, k, depth) in itertools.product((piece, 8), ((20, 9, 4), (64, 12, 5), (70, 8, 3))):
        monkeypatch.setattr(wordenum, "_PIECE", cap)
        c = LinearCode.from_rows(F2, n, [[rnd.randrange(2) for _ in range(n)] for _ in range(k)])
        for sets, words in low_weight_blocks(F2, c.generator._array(), n, depth):
            h.update(repr(sets.tolist()).encode())
            for w in (words if isinstance(words, tuple) else (words,)):
                h.update(repr((w.shape, w.tolist())).encode())
    assert h.hexdigest() == "fff574f5787befadea10001bac52eda2becea6f871c7d6a76e4d7ccac1c39e6f"


@pytest.mark.parametrize("piece", [None, 8])  # 8 words: several batches per message weight
def test_scan_through_depth_k_equals_min_distance(monkeypatch, piece):
    if piece is not None:
        monkeypatch.setattr(wordenum, "_PIECE", piece)
    rnd = random.Random(73)
    fields = [(F3, 9), (F4, 10), (F4, 66), (prime_field(5), 7), (extension(F3, 2), 6),
              (extension(prime_field(17), 2), 4)]  # GF(289): object arrays
    for field, n in fields:
        for trial in range(3):
            k = rnd.randint(1, 4 if field.order < 100 else 2)
            c = LinearCode.from_rows(field, n, [[rnd.randrange(field.order) for _ in range(n)]
                                                for _ in range(k)])
            if c.k == 0:
                continue
            found, witness = c.low_weight_scan(c.k)
            assert found == c.min_distance() == sum(1 for v in witness if v), (field.order, n)
            assert c.contains(witness)


def test_every_light_gf4_codeword_has_a_multiple_in_the_listing(monkeypatch):
    # r windows through message weight `depth` list, up to a scalar, every
    # codeword of Hamming weight <= r (depth + 1) - 1
    monkeypatch.setattr(wordenum, "_PIECE", 16)
    rnd = random.Random(79)
    for trial in range(24):
        n = rnd.choice([rnd.randint(6, 16), 66])  # packed planes and entry arrays
        c = _random_code(rnd, F4, n, kmax=min(n // 2, 6 if n < 64 else 4))
        if c.k == 0:
            continue
        gens = [rows for _, rows in c.windows()]
        depth = rnd.randint(1, c.k)
        listed = set()
        for rows in gens:
            for _, words in low_weight_blocks(F4, rows, n, depth):
                if packable_char2(F4, n):
                    listed.update(zip(words[0].ravel().tolist(), words[1].ravel().tolist()))
                else:
                    listed.update(map(tuple, words.reshape(-1, n).tolist()))
        top = len(gens) * (depth + 1) - 1
        for word in c.codewords():
            if 0 < sum(1 for v in word if v) <= top:
                multiples = [[F4.mul(s, v) for v in word] for s in (1, 2, 3)]
                keys = ([pack_row_planes(F4, m) for m in multiples]
                        if packable_char2(F4, n) else [tuple(m) for m in multiples])
                assert any(key in listed for key in keys), (trial, word)


def test_negative_budgets_are_named_errors_in_the_packed_kernels():
    # the budget is checked before a walk sizes any chunk or temporary
    rnd = random.Random(83)
    rows = entries(F2, [[rnd.randrange(2) for _ in range(24)] for _ in range(20)], 24)
    with pytest.raises(NegativeBudget):
        wordenum.sr_min_weight_packed(F2, rows, [(2, 2)] * 6, budget=-1)
    with pytest.raises(NegativeBudget):
        wordenum.min_weight_char2(F2, rows, 24, -1)
    with pytest.raises(NegativeBudget):
        next(wordenum.codeword_chunks(F2, rows, 24, -1, packed=True))


def test_row_planes_equal_the_per_bit_loop():
    # the reference sets bit j of each plane from entry j, one entry at a time
    rnd = random.Random(89)
    for n in list(range(8)) + [31, 63, 64]:
        for q in (2, 4):
            row = tuple(rnd.randrange(q) for _ in range(n))
            lo = sum((v & 1) << j for j, v in enumerate(row))
            hi = sum((v >> 1 & 1) << j for j, v in enumerate(row))
            assert pack_row_planes(F4, row) == pack_row_planes(F4, list(row)) \
                == (lo, hi), (q, row)
