import random

import numpy as np
import pytest

from srlab import construct, planes, sumrank, wordenum
from srlab.code import DEFAULT_WORD_BUDGET, LinearCode
from srlab.construct import (
    basis_expand_code,
    default_expansion_profile,
    duality_transport_expansion,
    duality_transport_qpoly,
    expansion_distance_bounds,
    pair_distance,
    power_basis,
    qpoly_code,
    qpoly_matrix,
    qpoly_rank_table,
    selfdual_sr_distance_cap,
    sr_distance_bounds,
    symbol_sum_rank_weight,
    uniform22_certified_distance,
    uniform22_distance_bounds,
)
from srlab.cyclic import bch_generator, cyclic_code, parse_poly
from srlab.errors import (
    BudgetExceeded,
    DistanceExceedsLength,
    LengthMismatch,
    MethodUnavailable,
    ProfileMismatch,
)
from srlab.field import Basis, extension, prime_field, self_dual_basis
from srlab.jsonio import sr_code_from_obj, sr_code_to_obj
from srlab.linalg import MatrixGF
from srlab.sumrank import BlockProfile, SumRankCode
from srlab.tables import load_manifest
from entries import entries

F2 = prime_field(2)
F4 = extension(F2, 2)
F8 = extension(F2, 3)
F9 = extension(prime_field(3), 2)
B_1W = power_basis(F4)
B_SD = Basis(F4, [2, 3])


def _random_basis(rnd, ext):
    while True:
        try:
            return Basis(ext, [rnd.randrange(1, ext.order) for _ in range(ext.degree_over_base)])
        except LengthMismatch:  # dependent draw
            pass


def _rand_code(rnd, field, n, k):
    return LinearCode.from_rows(
        field, n, [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)]
    )


def _expand_word(basis, profile, word):
    """Oracle: the flat word whose block i expands chunk i of `word`, one
    element at a time; coordinate s of the chunk becomes column s of the
    block."""
    flat = []
    pos = 0
    for _, n_i in profile.blocks:
        cols = [basis.expand(v) for v in word[pos : pos + n_i]]
        for r in range(basis.size):
            flat.extend(c[r] for c in cols)
        pos += n_i
    return flat


# -- q-polynomial matrices -------------------------------------------------------


def test_qpoly_matrix_identity():
    for basis in (B_1W, B_SD):
        m = qpoly_matrix((1, 0), basis)
        assert m.rows == ((1, 0), (0, 1))


def test_qpoly_matrix_equal_coeffs_rank_one():
    for a in (1, 2, 3):
        assert qpoly_matrix((a, a), B_1W).rank() == 1


def test_rank_table_oracle():
    # brute-force rule: 0 iff both zero, 1 iff both nonzero, 2 otherwise
    for basis in (B_1W, B_SD):
        table = qpoly_rank_table(basis)
        for a0 in range(4):
            for a1 in range(4):
                expected = 0 if (a0 == 0 == a1) else (1 if (a0 and a1) else 2)
                assert table[(a0, a1)] == expected


def test_qpoly_matrix_is_the_map():
    # apply the matrix to expand(x) and compare with expand(sum a_i x^(q^i))
    rnd = random.Random(2)
    for basis in (B_1W, B_SD, _random_basis(rnd, F8), _random_basis(rnd, F9)):
        ext, sub, m = basis.field, basis.sub, basis.size
        for _ in range(40):
            coeffs = [rnd.randrange(ext.order) for _ in range(m)]
            x = rnd.randrange(ext.order)
            img = 0
            for i, a in enumerate(coeffs):
                img = ext.add(img, ext.mul(a, ext.pow(x, sub.order**i)))
            xc = MatrixGF(sub, [[c] for c in basis.expand(x)], 1)
            prod = qpoly_matrix(coeffs, basis).mat_mul(xc)
            assert tuple(r[0] for r in prod.rows) == basis.expand(img)


@pytest.mark.parametrize("basis", [B_1W, B_SD, power_basis(extension(F4, 2)), power_basis(extension(F2, 9))],
                         ids=["GF(4)/GF(2) power", "GF(4)/GF(2) self-dual", "GF(16)/GF(4)", "GF(512)/GF(2)"])
def test_array_expansion_equals_the_per_word_loop(basis):
    # a mixed (m, m + 1) + (m, m) profile, and codes of dimension 0 and length 0
    rnd = random.Random(29)
    ext, m = basis.field, basis.size
    profile = BlockProfile(basis.sub, [(m, m + 1), (m, m)])
    n = 2 * m + 1
    words = np.array([[rnd.randrange(ext.order) for _ in range(n)] for _ in range(12)])
    got = construct._expand_words(basis, profile, words)
    assert got.tolist() == [_expand_word(basis, profile, w) for w in words.tolist()]
    assert construct._expand_words(basis, profile, words[:0]).shape == (0, profile.total)
    power = power_basis(ext, basis.sub)
    for w in words.tolist():
        assert symbol_sum_rank_weight(w, ext, profile) == profile.weight(_expand_word(power, profile, w))
    for k in (0, 1, 3):
        code = _rand_code(rnd, ext, n, k)
        rows = [_expand_word(basis, profile, [ext.mul(lam, v) for v in row])
                for row in code.generator.rows for lam in basis.elements]
        assert basis_expand_code(code, basis, profile) == SumRankCode.from_rows(profile, rows)
    assert basis_expand_code(LinearCode.zero(ext, 0), basis).dim == 0


def test_qpoly_matrix_length_check():
    with pytest.raises(LengthMismatch):
        qpoly_matrix((1,), B_1W)


# -- stacked construction ----------------------------------------------------------


def test_qpoly_code_dimension_and_blocks():
    rnd = random.Random(7)
    for _ in range(15):
        t = rnd.randint(1, 5)
        c0 = _rand_code(rnd, F4, t, rnd.randint(0, t))
        c1 = _rand_code(rnd, F4, t, rnd.randint(0, t))
        s = qpoly_code([c0, c1])
        assert s.dim == 2 * (c0.k + c1.k)
        assert s.profile.blocks == ((2, 2),) * t


def test_qpoly_code_is_the_per_coordinate_layout():
    # one row per (code i, generator row g, basis element lam); its block j
    # is the matrix of x -> lam * g_j * x^(q^i)
    rnd = random.Random(19)
    for ext in (F8, F9):
        for _ in range(3):
            basis = _random_basis(rnd, ext)
            m, t = basis.size, 3
            codes = [_rand_code(rnd, ext, t, rnd.randint(0, 2)) for _ in range(m)]
            rows = []
            for i, c in enumerate(codes):
                for g in c.generator.rows:
                    for lam in basis.elements:
                        flat = []
                        for gj in g:
                            coeffs = [0] * m
                            coeffs[i] = ext.mul(lam, gj)
                            for r in qpoly_matrix(coeffs, basis).rows:
                                flat.extend(r)
                        rows.append(flat)
            layout = SumRankCode.from_rows(BlockProfile(basis.sub, [(m, m)] * t), rows)
            assert qpoly_code(codes, basis) == layout


def test_qpoly_code_zero_inputs():
    z = LinearCode.zero(F4, 3)
    s = qpoly_code([z, z])
    assert s.dim == 0


def test_pair_distance_equals_exhaustive():
    rnd = random.Random(13)
    for trial in range(30):
        t = rnd.randint(1, 4)
        c0 = _rand_code(rnd, F4, t, rnd.randint(0, 2))
        c1 = _rand_code(rnd, F4, t, rnd.randint(0, 2))
        if c0.k == 0 and c1.k == 0:
            continue
        s = qpoly_code([c0, c1])
        assert pair_distance(c0, c1) == s.min_distance()


def test_pair_distance_budget():
    rnd = random.Random(17)
    c0 = _rand_code(rnd, F4, 12, 6)
    c1 = _rand_code(rnd, F4, 12, 6)
    with pytest.raises(BudgetExceeded) as exc:
        pair_distance(c0, c1, budget=100)
    assert exc.value.best is not None


def _brute_pair_distance(c0, c1):
    """Lightest stacked pair by brute force: every codeword's support mask,
    from all q**k messages, and the pair weight |A & B| + 2 |A ^ B| of each
    pair of supports, the weight of every codeword pair with those supports
    (as perfbench/codes.py's `_pair_weights` sums the block ranks)."""
    def supports(c):
        words = np.zeros((1, c.n), dtype=np.int64)
        for row in c.generator.rows:
            mults = np.array([[F4.mul(d, v) for v in row] for d in range(4)])
            words = (words[None, :, :] ^ mults[:, None, :]).reshape(-1, c.n)
        return np.unique(((words != 0) << np.arange(c.n)).sum(axis=1).astype(np.uint64))

    sa, sb = supports(c0), supports(c1)
    best = None
    for lo in range(0, len(sa), 256):
        a = sa[lo : lo + 256, None]
        w = (np.bitwise_count(a & sb) + 2 * np.bitwise_count(a ^ sb)).astype(np.int64)
        w[(a == 0) & (sb == 0)] = 4 * c0.n  # the zero pair
        best = int(w.min()) if best is None else min(best, int(w.min()))
    return best


def test_pair_distance_matches_brute_force(monkeypatch):
    # a small lister batch makes the windowed support listing the cheaper
    # one at k = 6..8, so the window path runs
    monkeypatch.setattr(wordenum, "_PIECE", 8)
    rnd = random.Random(61)
    windowed = 0
    for k0, k1 in ((6, 6), (7, 5), (8, 4), (6, 2), (8, 0), (7, 7)):
        c0, c1 = _rand_code(rnd, F4, 2 * k0, k0), _rand_code(rnd, F4, 2 * k0, k1)
        bound = 2 * min(c.min_distance() for c in (c0, c1) if c.k)
        windowed += len(c0.listing_windows(bound - 1)[0]) > 1
        assert pair_distance(c0, c1) == _brute_pair_distance(c0, c1), (k0, k1)
    assert windowed >= 4


def test_pair_distance_of_table11_codes_matches_brute_force():
    for row in load_manifest(11)["rows"]:
        t = row["t"]
        if t > 16:
            continue
        codes = [cyclic_code(parse_poly(F4, g), t) for g in row["generators"]]
        c0, c1 = (codes * 2)[:2]
        assert pair_distance(c0, c1) == _brute_pair_distance(c0, c1), t


def test_equal_coefficient_codes_are_listed_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return wordenum.support_masks(*args)

    monkeypatch.setattr(construct, "support_masks", counted)
    c0, c1 = _rand_code(random.Random(67), F4, 8, 4), _rand_code(random.Random(71), F4, 8, 4)
    assert c0 != c1
    want = _brute_pair_distance(c0, c0)
    assert pair_distance(c0, LinearCode.from_rows(F4, 8, c0.generator.rows)) == want
    assert len(calls) == 1
    pair_distance(c0, c1)
    assert len(calls) == 3


def _eager_pair_distance(c0, c1, budget=DEFAULT_WORD_BUDGET):
    """Oracle: the crossing that lists first.  Every support class lighter
    than U = 2 min d_H is listed on each side (`support_masks` under
    `listing_windows(U - 1)`), then the classes are crossed level by level
    in max(|A|, |B|) until the best weight found is at most the level.
    Returns (best, crossed, ends), ends the pairs crossed after each level
    that crossed any; past `budget` raises BudgetExceeded as
    `pair_distance` does."""
    bound = 2 * min(c.certified_distance()[0] for c in (c0, c1) if c.k)

    def light(c):
        if not c.k:
            return np.zeros(0, dtype=np.uint64)
        gens, depth = c.listing_windows(bound - 1)
        return wordenum.support_masks(F4, gens, c.n, depth, bound - 1)

    la, lb = light(c0), light(c1)
    wa, wb = wordenum.popcount(la), wordenum.popcount(lb)
    best, crossed, ends = bound, 0, []
    for level in np.unique(np.concatenate([wa, wb])).tolist():
        if best <= level:
            break
        a0, a1 = np.searchsorted(wa, level, "left"), np.searchsorted(wa, level, "right")
        b0, b1 = np.searchsorted(wb, level, "left"), np.searchsorted(wb, level, "right")
        for a, b in ((la[a0:a1], lb[:b1]), (la[:a0], lb[b0:b1])):
            take = min(len(a) * len(b), budget - crossed)
            found = construct._cross_min(a, b, take)
            best = best if found is None else min(best, found)
            crossed += take
            if take < len(a) * len(b):
                raise BudgetExceeded("over budget", best=best, enumerated=crossed)
        if crossed > (ends[-1] if ends else 0):
            ends.append(crossed)
    return best, crossed, ends


def _check_lazy_crossing(c0, c1):
    """`pair_distance` against the eager oracle: the same distance, the same
    number of crossed pairs, and at budgets cut inside the first, a middle
    and the last level that crosses pairs, the oracle's best and count."""
    best, crossed, ends = _eager_pair_distance(c0, c1)
    assert pair_distance(c0, c1) == best
    assert pair_distance(c0, c1, budget=crossed) == best
    starts = [0] + ends[:-1]
    for i in sorted({0, len(ends) // 2, len(ends) - 1} if ends else ()):
        budget = (starts[i] + ends[i]) // 2
        with pytest.raises(BudgetExceeded) as want:
            _eager_pair_distance(c0, c1, budget)
        with pytest.raises(BudgetExceeded) as got:
            pair_distance(c0, c1, budget)
        assert (got.value.best, got.value.enumerated) == (want.value.best, want.value.enumerated)
        assert got.value.enumerated == budget
    return ends


def test_lazy_crossing_matches_the_eager_oracle(monkeypatch):
    # a small lister batch makes the windowed support listing the cheaper
    # one, so the listings deepen level by level
    monkeypatch.setattr(wordenum, "_PIECE", 8)
    windowed = []

    def recorded(field, windows, n, depth, max_weight):
        windowed.append(len(windows) > 1)
        return wordenum.support_masks(field, windows, n, depth, max_weight)

    monkeypatch.setattr(construct, "support_masks", recorded)
    rnd = random.Random(89)
    levels = []
    for k0, k1 in ((6, 6), (7, 5), (8, 4), (6, 2), (8, 0), (7, 7), (5, 5)):
        n = 2 * max(k0, k1)
        c0, c1 = _rand_code(rnd, F4, n, k0), _rand_code(rnd, F4, n, k1)
        levels.append(len(_check_lazy_crossing(c0, c1)))
    assert max(levels) >= 3  # some crossing goes past its first level
    assert sum(windowed) >= 10


def test_lazy_crossing_of_table11_pairs_matches_the_eager_oracle(monkeypatch):
    depths = {}

    def recorded(field, windows, n, depth, max_weight):
        depths.setdefault(n, []).append(depth)
        return wordenum.support_masks(field, windows, n, depth, max_weight)

    monkeypatch.setattr(construct, "support_masks", recorded)
    for row in load_manifest(11)["rows"]:
        t = row["t"]
        codes = [cyclic_code(parse_poly(F4, g), t) for g in row["generators"]]
        c0, c1 = (codes * 2)[:2]
        _check_lazy_crossing(c0, c1)
    # t = 30: every class lighter than U = 2 d_H = 12 lies at message weight
    # 5 under two windows, but the crossing stops before it needs them
    c = cyclic_code(parse_poly(F4, load_manifest(11)["rows"][-1]["generators"][0]), 30)
    d = c.certified_distance()[0]
    lazy = [depth for depth in depths[30] if depth < c.k]
    assert lazy and max(lazy) < c.listing_windows(2 * d - 1)[1]


def test_rank_table_is_validated_once_per_field(monkeypatch):
    real = construct.qpoly_rank_table
    built = []
    c = _rand_code(random.Random(67), F4, 6, 3)
    construct._checked_rank_table.cache_clear()
    try:
        monkeypatch.setattr(construct, "qpoly_rank_table", lambda b: built.append(b) or real(b))
        assert pair_distance(c, c) == pair_distance(c, c) == c.min_distance()
        assert len(built) == 1
        # a table that breaks the zero pattern is refused before the first use
        construct._checked_rank_table.cache_clear()
        monkeypatch.setattr(construct, "qpoly_rank_table", lambda b: {**real(b), (1, 1): 2})
        with pytest.raises(AssertionError):
            pair_distance(c, c)
    finally:
        construct._checked_rank_table.cache_clear()


def test_pair_distance_requires_f4():
    c = LinearCode.from_rows(F8, 2, [[1, 1]])
    with pytest.raises(MethodUnavailable):
        pair_distance(c, c)


def test_prop33_identity_random():
    rnd = random.Random(19)
    for _ in range(30):
        t = rnd.randint(1, 6)
        c = _rand_code(rnd, F4, t, rnd.randint(1, min(3, t)))
        if c.k == 0:
            continue
        assert pair_distance(c, c) == c.min_distance()


def test_sr_duality_transport_random():
    rnd = random.Random(23)
    for basis in (B_1W, B_SD):
        for _ in range(25):
            t = rnd.randint(1, 4)
            c0 = _rand_code(rnd, F4, t, rnd.randint(0, t))
            c1 = _rand_code(rnd, F4, t, rnd.randint(0, t))
            assert duality_transport_qpoly(c0, c1, basis)


def test_sr_transfer_theorems():
    # self-dual and LCD move through the stacking in both directions
    rnd = random.Random(29)
    sd = cyclic_code(parse_poly(F4, "1+x"), 2)
    for _ in range(20):
        c0 = _rand_code(rnd, F4, 2, rnd.randint(0, 2))
        c1 = _rand_code(rnd, F4, 2, rnd.randint(0, 2))
        s = qpoly_code([c0, c1])
        assert s.is_self_dual() == (c0.is_self_dual() and c1.is_self_dual())
        assert s.is_lcd() == (c0.is_lcd() and c1.is_lcd())
    assert qpoly_code([sd, sd]).is_self_dual()


def test_distance_invariant_under_basis():
    rnd = random.Random(31)
    for _ in range(10):
        t = rnd.randint(1, 3)
        c0 = _rand_code(rnd, F4, t, 1)
        c1 = _rand_code(rnd, F4, t, 1)
        if c0.k == 0 and c1.k == 0:
            continue
        d1 = qpoly_code([c0, c1], B_1W).min_distance()
        d2 = qpoly_code([c0, c1], B_SD).min_distance()
        assert d1 == d2


# -- basis expansion ------------------------------------------------------------------


def test_default_expansion_profile():
    assert default_expansion_profile(2, 13) == [(2, 3)] + [(2, 2)] * 5
    assert default_expansion_profile(2, 8) == [(2, 2)] * 4
    assert default_expansion_profile(3, 8) == [(3, 5), (3, 3)]
    assert default_expansion_profile(3, 7) == [(3, 4), (3, 3)]
    with pytest.raises(ProfileMismatch):
        default_expansion_profile(3, 2)


def test_expansion_dimension_and_zero():
    rnd = random.Random(37)
    for _ in range(15):
        n = rnd.randint(2, 7)
        c = _rand_code(rnd, F4, n, rnd.randint(0, n))
        m = basis_expand_code(c, B_SD)
        assert m.dim == 2 * c.k
    z = basis_expand_code(LinearCode.zero(F4, 4), B_SD)
    assert z.dim == 0


def test_expansion_isometry():
    # weights of expanded words equal the span-based weights of the symbols
    rnd = random.Random(41)
    for basis in (B_1W, B_SD):
        for _ in range(20):
            n = rnd.randint(2, 6)
            prof = BlockProfile(F2, default_expansion_profile(2, n))
            word = [rnd.randrange(4) for _ in range(n)]
            c = LinearCode.from_rows(F4, n, [word])
            if c.k == 0:
                continue
            m = basis_expand_code(c, basis, prof)
            # the generator row is the expansion of some scalar multiple
            assert prof.weight(m.generator.rows[0]) == symbol_sum_rank_weight(word, F4, prof)


def test_power_basis_is_built_once_per_field_pair():
    # symbol_sum_rank_weight reads its basis through the cache, so repeated
    # calls reuse one basis and its coordinate inverse
    assert power_basis(F8, F2) is power_basis(F8, F2)
    assert power_basis(F4) is B_1W
    assert power_basis(F4) is not power_basis(F8)
    prof = BlockProfile(F2, [(3, 3)])
    symbol_sum_rank_weight([1, 2, 0], F8, prof)
    hits = power_basis.cache_info().hits
    assert symbol_sum_rank_weight([1, 2, 0], F8, prof) == 2
    assert power_basis.cache_info().hits == hits + 1


def test_expansion_duality_transport():
    rnd = random.Random(43)
    for ext in (F4, F8):
        for _ in range(15):
            n = rnd.randint(ext.degree_over_base, 7)
            c = _rand_code(rnd, ext, n, rnd.randint(0, n))
            m = ext.degree_over_base
            basis = None
            while basis is None:
                els = [rnd.randrange(1, ext.order) for _ in range(m)]
                try:
                    basis = Basis(ext, els)
                except Exception:
                    basis = None
            assert duality_transport_expansion(c, basis)


def test_expansion_transfer_theorems():
    rnd = random.Random(47)
    sd = cyclic_code(parse_poly(F4, "1+x^2"), 4)
    assert basis_expand_code(sd, B_SD).is_self_dual()
    for _ in range(20):
        n = rnd.randint(2, 6)
        c = _rand_code(rnd, F4, n, rnd.randint(0, n))
        m = basis_expand_code(c, B_SD)
        assert m.is_self_dual() == c.is_self_dual()
        assert m.is_lcd() == c.is_lcd()


def test_expansion_isometry_code_level():
    # the minimum distance survives the expansion, and the symbol-route
    # weights computed on the extension side give the same minimum
    rnd = random.Random(61)
    for _ in range(10):
        n = rnd.randint(2, 5)
        c = _rand_code(rnd, F4, n, rnd.randint(1, 2))
        if c.k == 0:
            continue
        prof = BlockProfile(F2, default_expansion_profile(2, n))
        m = basis_expand_code(c, B_SD, prof)
        symbol_min = min(
            symbol_sum_rank_weight(word, F4, prof)
            for word in c.codewords()
            if any(word)
        )
        assert m.min_distance() == symbol_min


def _without_symbols(M):
    """The same sum-rank code built from its flat rows: the flat walk."""
    return SumRankCode.from_rows(M.profile, M.generator.rows)


def _symbol_walks(monkeypatch):
    """The field of every `sr_min_weight_packed` call `min_distance` makes."""
    seen = []
    kernel = sumrank.sr_min_weight_packed
    monkeypatch.setattr(sumrank, "sr_min_weight_packed",
                        lambda field, *args: seen.append(field.order) or kernel(field, *args))
    return seen


def test_expansions_walk_the_lines_of_their_symbol_code(monkeypatch):
    # random GF(4) codes of every length 2..64, an odd one opening on a
    # (2,3) block, in both bases; length 1 has no block of two rows
    seen = _symbol_walks(monkeypatch)
    rnd = random.Random(97)
    with pytest.raises(ProfileMismatch):
        basis_expand_code(_rand_code(rnd, F4, 1, 1))
    for n in range(2, 65):
        for basis in (B_1W, self_dual_basis(F4)):
            c = _rand_code(rnd, F4, n, rnd.randint(1, min(n, 5)))
            M = basis_expand_code(c, basis)
            flat = _without_symbols(M)
            assert M.symbols.field is F4 and M.symbols.nrows == c.k
            assert flat.symbols is None and flat == M and hash(flat) == hash(M)
            seen.clear()
            d = M.min_distance()
            assert seen == [4], (n, seen)
            assert d == flat.min_distance(), (n, basis.elements)
            if c.k <= 3:
                assert d == min(symbol_sum_rank_weight(w, F4, M.profile)
                                for w in c.codewords() if any(w)), (n, basis.elements)
            assert M.dual().symbols is None


def test_qpoly_codes_walk_the_lines_of_their_symbol_code(monkeypatch):
    seen = _symbol_walks(monkeypatch)
    rnd = random.Random(101)
    for t in list(range(1, 9)) + [16, 31, 32]:
        for basis in (B_1W, B_SD):
            c0, c1 = (_rand_code(rnd, F4, t, rnd.randint(0, min(t, 2))) for _ in range(2))
            if c0.k + c1.k == 0:
                continue
            M = qpoly_code([c0, c1], basis)
            assert M.symbols.nrows == c0.k + c1.k and M.symbols.ncols == 2 * t
            seen.clear()
            d = M.min_distance()
            assert seen == [4]
            assert d == _without_symbols(M).min_distance(), (t, basis.elements)
            if M.dim <= 6:  # every flat codeword, each block eliminated
                assert d == min(sum(b.rank() for b in M.profile.matrices(w))
                                for w in M.flat.codewords() if any(w))


def test_a_budget_cut_of_an_expansion_covers_symbol_messages():
    rnd = random.Random(103)
    c = _rand_code(rnd, F4, 11, 5)
    M = basis_expand_code(c, B_SD)
    words = list(wordenum.all_codewords(F4, M.symbols.rows, 11))
    weights = [symbol_sum_rank_weight(w, F4, M.profile) for w in words]
    for budget in (0, 1, 2, 5, 17, 300, 4**5 - 1):
        with pytest.raises(BudgetExceeded) as exc:
            M.min_distance(budget)
        assert exc.value.enumerated == budget
        assert exc.value.best == min(weights[1:budget], default=None), budget
    assert M.min_distance(4**5) == min(weights[1:])
    # sum-rank codes read from JSON carry no symbols
    assert sr_code_from_obj(sr_code_to_obj(M)).symbols is None
    # a block of GF(4) symbols has two rows
    with pytest.raises(ProfileMismatch):
        wordenum.sr_min_weight_packed(F4, M.symbols._array(), [(1, 11)], 10)


def test_qpoly_code_of_cyclic_codes_is_cyclic():
    c0 = cyclic_code(parse_poly(F4, "1+x"), 4)
    c1 = cyclic_code(bch_generator(F4, 5, 2, 0), 5)
    assert qpoly_code([c0, c0]).is_cyclic()
    assert qpoly_code([c1, c1]).is_cyclic()


def _check_uniform22_certificate(c, basis=B_SD):
    """The (2,2) certificate of c against the exhaustive distance of its
    expansion; its witness, expanded, is a codeword of that weight.
    Returns the certificate."""
    m = basis_expand_code(c, basis)
    assert m.profile.blocks == ((2, 2),) * (c.n // 2)
    cert = d, witness, r, depth = uniform22_certified_distance(c)
    assert d == m.min_distance(), c.generator.rows
    assert c.contains(witness)
    flat = _expand_word(basis, m.profile, witness)
    assert m.contains(flat) and m.profile.weight(flat) == d
    assert symbol_sum_rank_weight(witness, F4, m.profile) == d
    return cert


def test_uniform22_certificate_on_table12_codes():
    # every listed generator of t <= 12, within the word budget: the report
    # takes the certificate for t = 9..12, and the exhaustive walk of the
    # expansion stays its oracle
    got = {}
    for row in load_manifest(12)["rows"][:12]:
        for text in row["generators"]:
            cert = _check_uniform22_certificate(cyclic_code(parse_poly(F4, text), row["n"]))
            got.setdefault(row["t"], cert)
    assert [got[t][0] for t in range(1, 13)] == [1, 2, 2, 2, 2, 4, 3, 2, 4, 2, 5, 4]
    assert all(got[t][2] > 1 for t in range(9, 13))  # these certify through windows


def test_uniform22_certificate_on_random_codes(monkeypatch):
    # a small lister batch makes windows the cheaper listing, so the
    # deepening window scan runs, not only the whole-code listing
    monkeypatch.setattr(wordenum, "_PIECE", 8)
    rnd = random.Random(83)
    paths = []
    for trial in range(60):
        n = 2 * rnd.randint(1, 8)
        # every rate, and rates near 1/2, where windows pay off
        k = rnd.randint(1, min(n, 8)) if trial % 2 else max(1, min(n // 2 + rnd.randint(-1, 1), 8))
        c = _rand_code(rnd, F4, n, k)
        if c.k:
            _, _, r, depth = _check_uniform22_certificate(c, rnd.choice((B_1W, B_SD)))
            paths.append((r > 1, depth < c.k))
    assert sum(w for w, _ in paths) >= 8 and sum(p for _, p in paths) >= 20


def test_pair_ranks_are_the_symbol_kernel_on_22_blocks():
    # the weight the (2,2) certificate scores, on the lister's (C, W) plane
    # arrays and on 1-D ones, against the blocks' ranks in a GF(2) basis
    rnd = random.Random(84)
    for n in range(2, 65, 2):
        profile = BlockProfile(F2, [(2, 2)] * (n // 2))
        weight = construct._pair_ranks(n)
        for shape in ((7,), (3, 5)):
            words = [[rnd.randrange(4) for _ in range(n)] for _ in range(int(np.prod(shape)))]
            lo, hi = planes.pack_planes(entries(F4, words, n)).T
            got = weight(lo.reshape(shape), hi.reshape(shape))
            assert got.shape == shape
            assert got.ravel().tolist() == [symbol_sum_rank_weight(w, F4, profile) for w in words], n


def test_uniform22_certificate_budget_and_shapes():
    c = cyclic_code(parse_poly(F4, load_manifest(12)["rows"][5]["generators"][0]), 12)
    with pytest.raises(BudgetExceeded) as exc:
        uniform22_certified_distance(c, budget=10)
    assert exc.value.best >= uniform22_certified_distance(c)[0]
    for field, n in ((F4, 13), (F8, 4), (F4, 66)):
        with pytest.raises(MethodUnavailable):
            uniform22_certified_distance(LinearCode.from_rows(field, n, [[1] * n]))


def test_table8_row():
    c = cyclic_code(bch_generator(F4, 13, 13, 1), 13)
    m = basis_expand_code(c, B_SD)
    assert m.profile.blocks == ((2, 3),) + ((2, 2),) * 5
    assert m.dim == 2
    assert m.min_distance() == 6


# -- bounds -----------------------------------------------------------------------------


def test_sr_distance_bounds_examples():
    assert sr_distance_bounds(2, [5, 13]) == sr_distance_bounds(2, [5, 13])
    b = sr_distance_bounds(2, [5, 13])
    assert (b.lower, b.upper, b.exact) == (10, 10, True)
    b = sr_distance_bounds(2, [2, 4])
    assert (b.lower, b.upper) == (4, 4)  # max(min(4,4), min(2,8)) = 4 = 2*2
    b = sr_distance_bounds(2, [5, 5])
    assert (b.lower, b.upper) == (5, 10)
    b3 = sr_distance_bounds(3, [2, 2, 2])
    assert (b3.lower, b3.upper) == (2, 6)
    with pytest.raises(LengthMismatch):
        sr_distance_bounds(2, [1])


def test_sr_distance_bounds_need_a_positive_m():
    # m = 0 with no distances once reached min() of an empty sequence
    for m in (0, -1):
        with pytest.raises(LengthMismatch):
            sr_distance_bounds(m, [])
    with pytest.raises(LengthMismatch):
        sr_distance_bounds(0, [3])


def test_bounds_sandwich_random():
    rnd = random.Random(53)
    for _ in range(25):
        t = rnd.randint(1, 4)
        c0 = _rand_code(rnd, F4, t, rnd.randint(1, 2))
        c1 = _rand_code(rnd, F4, t, rnd.randint(1, 2))
        if c0.k == 0 or c1.k == 0:
            continue
        d0, d1 = c0.min_distance(), c1.min_distance()
        b = sr_distance_bounds(2, [d0, d1])
        dsr = qpoly_code([c0, c1]).min_distance()
        assert b.contains(dsr)


def test_expansion_distance_bounds_examples():
    f2 = prime_field(2)
    prof13 = BlockProfile(f2, default_expansion_profile(2, 13))
    b = expansion_distance_bounds(13, prof13)
    assert (b.lower, b.upper) == (6, 12)  # 13 = 3 + 2*4 + 2 fills 5 blocks
    prof205 = BlockProfile(f2, default_expansion_profile(2, 205))
    assert (expansion_distance_bounds(41, prof205).lower,
            expansion_distance_bounds(41, prof205).upper) == (20, 41)
    assert (expansion_distance_bounds(164, prof205).lower,
            expansion_distance_bounds(164, prof205).upper) == (82, 164)
    with pytest.raises(DistanceExceedsLength):
        expansion_distance_bounds(14, prof13)


def test_expansion_bounds_hold_random():
    rnd = random.Random(59)
    for _ in range(20):
        n = rnd.randint(2, 6)
        c = _rand_code(rnd, F4, n, rnd.randint(1, n))
        if c.k == 0:
            continue
        d = c.min_distance()
        prof = BlockProfile(F2, default_expansion_profile(2, n))
        m = basis_expand_code(c, B_SD, prof)
        dsr = m.min_distance()
        assert expansion_distance_bounds(d, prof).contains(dsr)
        if all(b == (2, 2) for b in prof.blocks):
            assert uniform22_distance_bounds(d, prof.t).contains(dsr)


def test_uniform22_bounds():
    b = uniform22_distance_bounds(5, 13)
    assert (b.lower, b.upper) == (3, 5)
    with pytest.raises(DistanceExceedsLength):
        uniform22_distance_bounds(9, 4)


def test_caps():
    assert selfdual_sr_distance_cap(12) == 16
    assert selfdual_sr_distance_cap(2) == 8
    assert selfdual_sr_distance_cap(11) == 8
