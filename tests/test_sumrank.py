import random
import time

import numpy as np
import pytest

from srlab import sumrank, wordenum
from srlab.errors import (BudgetExceeded, EntryOutOfRange, LengthMismatch, NonUniformProfile, NotSelfDual,
                          ProfileMismatch, ZeroCode)
from srlab.field import extension, prime_field
from srlab.jsonio import sr_code_from_obj, sr_code_to_obj
from srlab.linalg import MatrixGF, _tables
from srlab.sumrank import BlockProfile, SumRankCode
from srlab.wordenum import (block_rank_lut, f2_matrix_rank_bits, packable_sum_rank,
                             sr_min_weight_generic, sr_min_weight_packed)
from entries import entries

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension(F2, 2)
F9 = extension(F3, 2)
F512 = extension(F2, 9)


def _random_word(rnd, profile):
    return [rnd.randrange(profile.field.order) for _ in range(profile.total)]


def _random_code(rnd, profile, kmax=None):
    k = rnd.randint(0, kmax if kmax is not None else profile.total)
    rows = [_random_word(rnd, profile) for _ in range(k)]
    return SumRankCode.from_rows(profile, rows)


def _distance(profile, u, v):
    return profile.weight([profile.field.sub(a, b) for a, b in zip(u, v)])


def test_profile_invariants():
    p = BlockProfile(F2, [(2, 3), (2, 2)])
    assert p.total == 10 and p.t == 2 and p.max_weight == 4
    with pytest.raises(ProfileMismatch):
        BlockProfile(F2, [(3, 2)])  # m > n


def test_weight_examples():
    p = BlockProfile(F2, [(2, 2), (2, 2)])
    assert p.weight([0] * 8) == 0
    assert p.weight([1, 0, 0, 1] + [1, 0, 0, 0]) == 3  # I_2, then a rank-one block
    assert p.weight([1] * 8) == 2  # one per block


def test_matrices_are_row_major():
    p = BlockProfile(F4, [(2, 3), (2, 2)])
    assert p.matrices([0] * 6 + [1, 2, 3, 0])[1] == MatrixGF(F4, [[1, 2], [3, 0]])
    rnd = random.Random(3)
    for _ in range(10):
        w = _random_word(rnd, p)
        mats = p.matrices(w)
        assert [mat.shape for mat in mats] == [(2, 3), (2, 2)]
        assert [e for mat in mats for row in mat.rows for e in row] == w


def test_flat_word_methods_check_their_input():
    p = BlockProfile(F2, [(2, 2)])
    zero = [0] * 4
    for call in (p.weight, p.matrices, p.cyclic_shift,
                 lambda w: p.trace_ip(w, zero), lambda w: p.trace_ip(zero, w)):
        with pytest.raises(LengthMismatch):
            call([0, 0, 0])
        with pytest.raises(EntryOutOfRange):
            call([5, 0, 0, 7])


@pytest.mark.parametrize("field, blocks", [
    (F2, [(1, 1), (1, 7), (1, 20), (1, 3)]),
    (F2, [(2, 9), (2, 12), (2, 3)]),
    (F2, [(4, 4), (3, 5), (2, 2)]),  # 16 bits: ranks kept
    (F2, [(4, 5), (1, 2), (4, 4)]),  # 20 bits: eliminated on every call
    (F3, [(2, 3), (3, 3)]),
    (F4, [(1, 2), (2, 4)]),
], ids=str)
def test_weight_is_the_sum_of_block_ranks(field, blocks):
    p = BlockProfile(field, blocks)
    rnd = random.Random(sum(m * n for m, n in blocks))
    words = [[0] * p.total, [1] * p.total] + [_random_word(rnd, p) for _ in range(60)]
    # sparse words reach every rank, not only full rank
    words += [[v if rnd.random() < 0.15 else 0 for v in w] for w in words[2:]]
    for w in words:
        assert p.weight(w) == sum(mat.rank() for mat in p.matrices(w))
        assert p.weight(tuple(w)) == p.weight(w)
    with pytest.raises(LengthMismatch):
        p.weight([0] * (p.total - 1))
    for bad in (field.order, -1):
        with pytest.raises(EntryOutOfRange):
            p.weight([0] * (p.total - 1) + [bad])


@pytest.mark.parametrize("field, blocks", [
    # (1,17), (4,5), (1,70) and (2,40) are past _LUT_BITS: `block_ranks`
    (F2, [(2, 2), (1, 17), (2, 3), (3, 3), (4, 5), (2, 2), (3, 3), (2, 3)]),
    (F2, [(2, 3), (3, 3), (2, 2), (2, 2)]),
    (F2, [(4, 5), (1, 17)]),
    (F2, [(1, 70), (2, 40), (2, 2)]),
    (F3, [(2, 2), (1, 3), (2, 3), (2, 2)]),
    (F4, [(2, 2), (3, 4), (1, 3)]),
    (F9, [(2, 3), (2, 2)]),
    (F512, [(2, 3), (1, 2), (2, 2)]),  # object arrays
], ids=str)
def test_weights_equal_weight_row_by_row(field, blocks):
    p = BlockProfile(field, blocks)
    rnd = random.Random(len(blocks) * field.order)
    words = [[0] * p.total, [1] * p.total] + [_random_word(rnd, p) for _ in range(80)]
    words += [[v if rnd.random() < 0.15 else 0 for v in w] for w in words[2:]]
    want = [sum(m.rank() for m in p.matrices(w)) for w in words]
    assert [p.weight(w) for w in words] == want
    chunk = np.array(words, dtype=_tables(field).dtype)  # as `codeword_chunks` yields
    got = p.weights(chunk)
    assert got.dtype == np.intp and got.tolist() == want
    assert p.weights(words).tolist() == want  # plain lists of words too
    assert p.weights(chunk[:0]).tolist() == []
    for bad in (chunk[:, 1:], chunk[0]):
        with pytest.raises(LengthMismatch):
            p.weights(bad)
    with pytest.raises(EntryOutOfRange):
        p.weights(np.vstack([chunk[:3], [[field.order] + [0] * (p.total - 1)]]))


def test_weights_sum_past_255_without_wrapping():
    # 150 (2,2) and 3 (3,3) identity blocks: weight 309, past a uint8 sum
    p = BlockProfile(F2, [(2, 2)] * 150 + [(3, 3)] * 3)
    ident = [1, 0, 0, 1] * 150 + [1, 0, 0, 0, 1, 0, 0, 0, 1] * 3
    w = p.weights(np.array([ident, [0] * p.total], dtype=np.uint8))
    assert w.dtype == np.intp and w.tolist() == [309, 0]
    acc = np.zeros(2, dtype=np.int64)
    acc += w  # a NumPy 2 uint64 sum would not cast into int64 here
    assert acc.dtype == np.int64 and acc.tolist() == [309, 0]
    assert type(SumRankCode.from_rows(p, [ident]).min_distance()) is int
    assert SumRankCode.from_rows(p, [ident]).min_distance() == p.weight(ident) == 309


def test_first_weight_builds_each_rank_table_once():
    # a shape's rank table is built vectorised in a few ms; built in Python,
    # one pattern at a time, a 13-16 bit shape took 50-260 ms
    block_rank_lut.cache_clear()
    sumrank._shapes.cache_clear()
    rnd = random.Random(61)
    for blocks in ([(4, 4)], [(2, 8), (3, 5)]):
        p = BlockProfile(F2, blocks)
        w = _random_word(rnd, p)
        t0 = time.perf_counter()
        got = p.weight(w)
        assert time.perf_counter() - t0 < 0.02
        assert got == sum(mat.rank() for mat in p.matrices(w))
    assert block_rank_lut.cache_info().misses == 3
    p = BlockProfile(F2, [(3, 5), (4, 4), (4, 4)])  # a new profile of built shapes
    w = _random_word(rnd, p)
    assert p.weight(w) == sum(mat.rank() for mat in p.matrices(w))
    assert block_rank_lut.cache_info().misses == 3


def test_rank_tables_equal_elimination():
    # every pattern of every shape of at most 12 bits, sampled ones of the
    # 15-16 bit shapes (sparse samples reach the low ranks)
    for m in range(1, 4):
        for n in range(m, 12 // m + 1):
            lut = block_rank_lut(m, n)
            assert lut.tolist() == [f2_matrix_rank_bits(x, m, n) for x in range(1 << m * n)]
    rnd = random.Random(67)
    for m, n in ((4, 4), (2, 8), (3, 5)):
        lut = block_rank_lut(m, n)
        samples = [rnd.getrandbits(m * n) for _ in range(500)]
        samples += [rnd.getrandbits(m * n) & rnd.getrandbits(m * n) & rnd.getrandbits(m * n)
                    for _ in range(500)]
        assert set(int(lut[x]) for x in samples) == set(range(m + 1))
        for x in samples:
            assert lut[x] == f2_matrix_rank_bits(x, m, n)


def test_packed_search_and_weight_share_one_table():
    block_rank_lut.cache_clear()
    sumrank._shapes.cache_clear()
    p = BlockProfile(F2, [(4, 4), (3, 3)])
    rnd = random.Random(71)
    c = SumRankCode.from_rows(p, [_random_word(rnd, p) for _ in range(4)])
    assert packable_sum_rank(F2, p.blocks) and c.dim == 4
    d = c.min_distance()
    info = block_rank_lut.cache_info()
    assert info.misses == 2
    assert d == _brute_min(c)
    assert d == min(filter(None, map(p.weight, c.flat.codewords())))  # every codeword
    assert block_rank_lut.cache_info().misses == 2
    assert block_rank_lut.cache_info().hits == info.hits + 2  # weight() read both tables


def test_generic_search_of_no_rows_is_an_error():
    # no rows: no nonzero codeword, and a weight map gives no max + 1 to return
    with pytest.raises(ZeroCode):
        sr_min_weight_generic(F2, entries(F2, [], 4), BlockProfile(F2, [(2, 2)]).weights, 10)


def test_trace_ip_examples_and_flatten_identity():
    p = BlockProfile(F2, [(2, 2)])
    ident = [1, 0, 0, 1]
    assert p.trace_ip(ident, [0] * 4) == 0
    assert p.trace_ip(ident, ident) == 0  # trace of I_2 in characteristic 2
    rnd = random.Random(5)
    for field in (F2, F4, F3):
        prof = BlockProfile(field, [(2, 3), (1, 2), (2, 2)])
        for _ in range(60):
            u, w = _random_word(rnd, prof), _random_word(rnd, prof)
            dot = 0
            for a, b in zip(u, w):
                dot = field.add(dot, field.mul(a, b))
            assert prof.trace_ip(u, w) == dot


def test_metric_axioms():
    rnd = random.Random(9)
    p = BlockProfile(F4, [(2, 2), (2, 3)])
    for _ in range(40):
        a, b, c = (_random_word(rnd, p) for _ in range(3))
        assert _distance(p, a, b) == _distance(p, b, a)
        assert _distance(p, a, b) + _distance(p, b, c) >= _distance(p, a, c)
        assert (_distance(p, a, b) == 0) == (a == b)


def test_cyclic_shift():
    p = BlockProfile(F2, [(2, 2)] * 3)
    rnd = random.Random(1)
    w = _random_word(rnd, p)
    s = p.cyclic_shift(w)
    m = p.matrices(w)
    assert p.matrices(s) == (m[2], m[0], m[1])
    assert p.cyclic_shift(p.cyclic_shift(s)) == tuple(w)  # t applications = identity
    mixed = BlockProfile(F2, [(2, 3), (2, 2)])
    with pytest.raises(NonUniformProfile):
        mixed.cyclic_shift(_random_word(rnd, mixed))


def test_dual_examples():
    p = BlockProfile(F2, [(2, 2), (2, 2)])
    z = SumRankCode.zero(p)
    assert z.dual() == SumRankCode.full(p)
    rnd = random.Random(11)
    for _ in range(25):
        c = _random_code(rnd, p)
        d = c.dual()
        assert c.dim + d.dim == p.total
        assert d.dual() == c
        for u in c.generator.rows:
            for w in d.generator.rows:
                assert p.trace_ip(u, w) == 0


def test_min_distance_small():
    p = BlockProfile(F2, [(2, 2), (2, 2), (2, 2)])
    v = [1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1]
    c = SumRankCode.from_rows(p, [v])
    assert c.min_distance() == p.weight(v)
    with pytest.raises(ZeroCode):
        SumRankCode.zero(p).min_distance()


def _brute_min(c):
    """The least nonzero sum of `MatrixGF.rank` over a codeword's blocks: an
    elimination independent of `BlockProfile.weights`."""
    ranks = (sum(m.rank() for m in c.profile.matrices(w)) for w in c.flat.codewords())
    return min(w for w in ranks if w > 0)


def test_min_distance_packed_vs_generic():
    rnd = random.Random(21)
    for _ in range(20):
        p = BlockProfile(F2, [(2, 2), (2, 3)])
        c = _random_code(rnd, p, kmax=6)
        if c.dim == 0:
            continue
        brute = _brute_min(c)
        assert c.min_distance() == brute
        rows = entries(F2, c.generator.rows, p.total)
        assert sr_min_weight_generic(F2, rows, p.weights, 2**20) == brute


def test_min_distance_generic_field():
    rnd = random.Random(23)
    for p in (BlockProfile(F3, [(2, 2), (1, 2)]), BlockProfile(F4, [(2, 2), (1, 3)])):
        for _ in range(10):
            c = _random_code(rnd, p, kmax=4)
            if c.dim == 0:
                continue
            assert c.min_distance() == _brute_min(c)


def test_min_distance_over_gf4_scores_chunks_at_once():
    # 4**6 codewords, scored a chunk at a time: about 4 ms on a 2-core Xeon;
    # a MatrixGF elimination per block and word takes 0.3-0.5 s
    rnd = random.Random(5)
    p = BlockProfile(F4, [(2, 2), (2, 3), (3, 3), (1, 3)])
    c = SumRankCode.from_rows(p, [_random_word(rnd, p) for _ in range(6)])
    assert c.dim == 6
    t0 = time.perf_counter()
    d = c.min_distance()
    assert time.perf_counter() - t0 < 0.1
    assert d == _brute_min(c) == 5


def test_blocks_past_16_bits_take_the_walker():
    # the packed kernel would build a 2**20-entry rank table for a (4,5) block
    assert packable_sum_rank(F2, [(4, 4), (3, 3)] * 2)
    assert not packable_sum_rank(F2, [(4, 5)])
    assert not packable_sum_rank(F2, [(4, 4)] * 5)  # 80 flat bits
    assert not packable_sum_rank(F4, [(2, 2)])
    p = BlockProfile(F2, [(4, 5)])
    rnd = random.Random(29)
    c = SumRankCode.from_rows(p, [_random_word(rnd, p) for _ in range(3)])
    assert c.dim == 3
    t0 = time.time()
    d = c.min_distance()
    assert time.time() - t0 < 1.0
    rows = entries(F2, c.generator.rows, p.total)
    assert d == sr_min_weight_generic(F2, rows, p.weights, 2**20) == _brute_min(c)


def _table_weights(blocks, rows):
    """Walker-free reference: the sum-rank weight of every codeword, message
    index order (first row least significant).  Ranks are read from rank
    tables, or for wide two-row blocks from the two rows as integers."""
    words = np.zeros(1, dtype=np.uint64)
    for r in rows:
        words = np.concatenate([words, words ^ np.uint64(sum(v << j for j, v in enumerate(r)))])
    acc = np.zeros(len(words), dtype=np.int64)
    off = 0
    for m, n in blocks:
        block = ((words >> np.uint64(off)) & np.uint64((1 << m * n) - 1)).astype(np.int64)
        if m != 2 or m * n <= 10:
            acc += block_rank_lut(m, n)[block]
        else:
            r1, r2 = block & ((1 << n) - 1), block >> n
            acc += (r1 | r2 != 0).astype(np.int64) + ((r1 != 0) & (r2 != 0) & (r1 != r2))
        off += m * n
    return acc


def _random_blocks(rnd, shapes, most=64):
    blocks, total = [], 0
    while not blocks or rnd.random() < 0.8:
        fits = [b for b in shapes if total + b[0] * b[1] <= most]
        if not fits:
            break
        blocks.append(rnd.choice(fits))
        total += blocks[-1][0] * blocks[-1][1]
    return blocks


_SHAPES = [(2, n) for n in range(2, 9)] + [(1, n) for n in range(1, 7)] + [(3, 3), (4, 4)]


@pytest.mark.parametrize("cap, piece", [(None, None), (16, 4)])
def test_packed_kernel_matches_walker_and_tables(monkeypatch, cap, piece):
    # small caps make every code cross several chunks
    if cap is not None:
        monkeypatch.setattr(wordenum, "_SUFFIX_CAP", cap)
        monkeypatch.setattr(wordenum, "_PIECE", piece)
    rnd = random.Random(51 if cap is None else 53)
    for trial in range(100):
        blocks = _random_blocks(rnd, _SHAPES + [(2, 12)] * (trial % 10 == 0))
        assert packable_sum_rank(F2, blocks)
        p = BlockProfile(F2, blocks)
        k = rnd.randint(1, min(7, p.total))
        rows = [list(r) for r in SumRankCode.from_rows(
            p, [_random_word(rnd, p) for _ in range(k)]).generator.rows]
        if not rows:
            continue
        want = int(_table_weights(blocks, rows)[1:].min())
        gen = entries(F2, rows, p.total)
        assert sr_min_weight_generic(F2, gen, p.weights, 2**20) == want
        assert sr_min_weight_packed(F2, gen, blocks, 2**20) == want


def test_packed_kernel_across_prefix_shards():
    # k = 19..21 over the real chunk size: 16..64 prefix codewords
    rnd = random.Random(57)
    for blocks, k in (([(2, 2)] * 16, 21), ([(2, 12), (2, 3), (3, 3), (2, 5)], 19),
                      ([(4, 4), (2, 7), (1, 5), (2, 2), (2, 8)], 20)):
        p = BlockProfile(F2, blocks)
        rows = [list(r) for r in SumRankCode.from_rows(
            p, [_random_word(rnd, p) for _ in range(k)]).generator.rows]
        assert len(rows) == k
        # the rows reversed put the first row on the most significant digit:
        # message order of `all_codewords`
        weights = _table_weights(blocks, rows[::-1])
        want = int(weights[1:].min())
        gen = entries(F2, rows, p.total)
        assert sr_min_weight_packed(F2, gen, blocks, 2**22) == want
        # over budget: exactly the first `budget` messages, cut inside a chunk
        budget = (3 if k > 19 else 1) * 2**18 + 5
        with pytest.raises(BudgetExceeded) as exc:
            sr_min_weight_packed(F2, gen, blocks, budget)
        assert exc.value.enumerated == budget
        assert exc.value.best == int(weights[1:budget].min())


def test_rank_tables_are_built_once_per_shape():
    p = BlockProfile(F2, [(4, 4)])
    rnd = random.Random(59)
    c = SumRankCode.from_rows(p, [_random_word(rnd, p) for _ in range(3)])
    assert c.dim == 3
    want = _brute_min(c)
    block_rank_lut.cache_clear()
    for _ in range(2):
        assert c.min_distance() == want
        assert block_rank_lut.cache_info().misses == 1
    assert block_rank_lut.cache_info().hits == 1
    assert not block_rank_lut(4, 4).flags.writeable


def test_linear_code_distance_equals_min_weight():
    # min over distinct pairs equals min nonzero weight for linear codes
    rnd = random.Random(15)
    p = BlockProfile(F4, [(2, 2), (1, 2)])
    for _ in range(8):
        c = _random_code(rnd, p, kmax=3)
        if c.dim == 0:
            continue
        words = list(c.flat.codewords())
        pairwise = min(
            _distance(p, u, v) for i, u in enumerate(words) for v in words[i + 1:]
        )
        assert c.min_distance() == pairwise


def test_selfdual_lcd_predicates():
    p = BlockProfile(F2, [(2, 2)])
    full = SumRankCode.full(p)
    assert full.is_lcd() and not full.is_self_dual()
    rnd = random.Random(27)
    prof = BlockProfile(F2, [(2, 2), (2, 2)])
    for _ in range(30):
        c = _random_code(rnd, prof)
        d = c.dual()
        assert c.is_self_dual() == (c == d)
        hull = c.hull_dimension()
        # (C + C-perp)-perp = C meet C-perp, computed without the Gram matrix
        inter = SumRankCode.from_rows(
            prof, list(c.generator.rows) + list(d.generator.rows)
        ).dual()
        assert hull == inter.dim
        assert c.is_lcd() == (hull == 0)


def test_structural_report():
    c = SumRankCode.from_rows(
        BlockProfile(F2, [(2, 2), (2, 2)]),
        [[1, 1, 0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1, 1],
         [1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0, 1]],
    )
    if c.is_self_dual():
        rep = c.structural_report()
        assert rep["dimension_is_half_ambient"]
    with pytest.raises(NotSelfDual):
        SumRankCode.full(BlockProfile(F2, [(2, 2)])).structural_report()


def test_is_cyclic_sr():
    p = BlockProfile(F2, [(2, 2)] * 3)
    rows = [[1, 0, 0, 0] * 3]
    c = SumRankCode.from_rows(p, rows)
    assert c.is_cyclic()
    rows2 = [[1, 0, 0, 0] + [0] * 8]
    assert not SumRankCode.from_rows(p, rows2).is_cyclic()
    # (2, 3) blocks: the rotation moves whole blocks of six coordinates
    p23 = BlockProfile(F2, [(2, 3)] * 3)
    w = [1, 0, 0, 0, 1, 1] + [0, 1, 0, 0, 0, 0] + [0] * 6
    rotations = [w, p23.cyclic_shift(w), p23.cyclic_shift(p23.cyclic_shift(w))]
    assert SumRankCode.from_rows(p23, rotations).is_cyclic()
    assert not SumRankCode.from_rows(p23, [w]).is_cyclic()
    with pytest.raises(NonUniformProfile):
        SumRankCode.zero(BlockProfile(F2, [(2, 3), (2, 2)])).is_cyclic()


def test_json_roundtrip():
    rnd = random.Random(33)
    p = BlockProfile(F4, [(2, 3), (2, 2)])
    c = _random_code(rnd, p, kmax=5)
    obj = sr_code_to_obj(c)
    again = sr_code_from_obj(obj)
    assert again == c
    assert sr_code_to_obj(again) == obj
