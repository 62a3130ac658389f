import functools
import gc
import random

import numpy as np
import pytest

from srlab.construct import symbol_sum_rank_weight
from srlab.errors import (
    DegreeMismatch,
    EntryOutOfRange,
    FieldTooLarge,
    LengthMismatch,
    NotPrime,
    NotSubfield,
    Reducible,
)
from srlab.field import (
    Basis,
    FieldSpec,
    dual_basis,
    extension,
    prime_field,
    self_dual_basis,
    trace_to,
)
from srlab.linalg import MAX_LENGTH, MatrixGF
from srlab.poly import Polynomial
from srlab.sumrank import BlockProfile

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension(F2, 2)


def test_prime_field_basics():
    assert F2.order == 2
    assert F2.primitive_element == 1
    # oracle: 2^1 = 2, 2^2 = 1 mod 3, so 2 generates GF(3)*
    assert pow(2, 1, 3) == 2 and pow(2, 2, 3) == 1
    assert F3.primitive_element == 2


def test_prime_field_rejects_composites():
    with pytest.raises(NotPrime):
        prime_field(4)
    with pytest.raises(NotPrime):
        prime_field(1)


def test_field_order_is_bounded():
    # rejected before trial division or the irreducible search
    with pytest.raises(FieldTooLarge):
        prime_field(2**61 - 1)
    with pytest.raises(FieldTooLarge):
        extension(F2, 33)
    with pytest.raises(FieldTooLarge):
        extension(F4, 100_000)


def test_f4_modulus_and_generator():
    assert F4.modulus.coeffs == (1, 1, 1)  # x^2 + x + 1
    assert F4.mul(2, 2) == 3  # w^2 = w + 1


def test_reducible_modulus_rejected():
    with pytest.raises(Reducible):
        extension(F2, 2, Polynomial(F2, (1, 0, 1)))  # x^2 + 1 = (x+1)^2
    with pytest.raises(DegreeMismatch):
        extension(F2, 3, Polynomial(F2, (1, 1, 1)))


def test_deterministic_modulus_is_irreducible_by_trial_division():
    big = extension(F4, 10)
    f = big.modulus
    assert f.is_monic and f.degree == 10
    # independent oracle: no monic divisor of degree 1..5
    for d in range(1, 6):
        for j in range(4**d):
            digits = []
            v = j
            for _ in range(d):
                digits.append(v % 4)
                v //= 4
            g = Polynomial(F4, digits + [1])
            assert not (f % g).is_zero, f"{f} divisible by {g}"


def test_field_algebra_random():
    rnd = random.Random(11)
    for field in (F4, extension(F2, 3), extension(F3, 2), extension(F4, 3)):
        q = field.order
        for _ in range(200):
            a, b, c = (rnd.randrange(q) for _ in range(3))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            if a:
                assert field.mul(a, field.inv(a)) == 1
        # Frobenius is additive
        p = field.characteristic
        for _ in range(100):
            a, b = rnd.randrange(q), rnd.randrange(q)
            assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p), field.pow(b, p))


def test_canonical_encoding_nests():
    big = extension(F4, 3)
    # subfield elements keep their canonical integer
    for v in range(4):
        assert big.coords(v)[0] == v and all(c == 0 for c in big.coords(v)[1:])
    assert big.from_coords((3, 1, 2)) == 3 + 1 * 4 + 2 * 16


def test_trace_examples():
    assert trace_to(F4, 0, F2) == 0
    assert trace_to(F4, 2, F2) == 1  # w + w^2 = w + (w+1) = 1
    assert trace_to(F4, 1, F2) == 0  # 1 + 1 in characteristic 2
    with pytest.raises(NotSubfield):
        trace_to(F4, 2, F3)


def test_trace_is_linear_and_surjective():
    rnd = random.Random(5)
    for ext_field, sub in ((F4, F2), (extension(F2, 3), F2), (extension(F4, 2), F4),
                           (extension(F4, 2), F2), (extension(F3, 2), F3)):
        hits = set()
        for _ in range(120):
            a, b = rnd.randrange(ext_field.order), rnd.randrange(ext_field.order)
            lam = rnd.randrange(sub.order)
            ta = trace_to(ext_field, a, sub)
            tb = trace_to(ext_field, b, sub)
            tsum = trace_to(ext_field, ext_field.add(a, b), sub)
            assert tsum == sub.add(ta, tb)
            tl = trace_to(ext_field, ext_field.mul(lam, a), sub)
            assert tl == sub.mul(lam, ta)
            hits.add(ta)
        assert hits == set(range(sub.order))


def _delta_matrix(basis_a, basis_b, sub):
    f = basis_a.field
    return [[trace_to(f, f.mul(x, y), sub) for y in basis_b.elements] for x in basis_a.elements]


def test_dual_basis_examples():
    b = Basis(F4, [2, 3])
    assert dual_basis(b).elements == (2, 3)  # self-dual pair

    # derived oracle: search all 16 ordered pairs for the delta condition
    expected = None
    for u in range(4):
        for v in range(4):
            cand = [
                [trace_to(F4, F4.mul(g, h), F2) for h in (u, v)]
                for g in (1, 2)
            ]
            if cand == [[1, 0], [0, 1]]:
                expected = (u, v)
    assert expected == (3, 1)
    assert dual_basis(Basis(F4, [1, 2])).elements == expected


def test_dual_basis_involution_and_delta():
    rnd = random.Random(23)
    for field in (F4, extension(F2, 3), extension(F3, 2)):
        m = field.degree_over_base
        sub = field.base
        for _ in range(20):
            els = [rnd.randrange(1, field.order) for _ in range(m)]
            try:
                b = Basis(field, els)
            except Exception:
                continue
            d = dual_basis(b)
            ident = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
            assert _delta_matrix(b, d, sub) == ident
            assert dual_basis(d).elements == b.elements


def test_self_dual_basis_parity_criterion_exhaustive():
    # every implemented tower with q^m <= 81
    cases = [
        (extension(F2, m), True) for m in (2, 3, 4, 5, 6)
    ] + [
        (extension(F3, 2), False),
        (extension(F3, 3), True),
        (extension(F3, 4), False),
        (extension(F4, 2), True),
        (extension(F4, 3), True),
        (extension(prime_field(5), 2), False),
        (extension(prime_field(7), 2), False),
        (extension(extension(F3, 2), 2), False),
    ]
    for field, exists in cases:
        b = self_dual_basis(field)
        if not exists:
            assert b is None, field
        else:
            assert b is not None and b.is_self_dual(), field


def test_self_dual_basis_f4():
    b = self_dual_basis(F4)
    assert b.elements == (2, 3)


def test_expand_combine_roundtrip():
    rnd = random.Random(9)
    b = Basis(F4, [2, 3])
    assert b.expand(0) == (0, 0)
    assert b.expand(2) == (1, 0)
    assert b.expand(1) == (1, 1)  # 1 = w + w^2
    for field in (F4, extension(F2, 3), extension(F4, 2)):
        m = field.degree_over_base
        for _ in range(20):
            els = [rnd.randrange(1, field.order) for _ in range(m)]
            try:
                basis = Basis(field, els)
            except Exception:
                continue
            for _ in range(10):
                x = rnd.randrange(field.order)
                assert basis.combine(basis.expand(x)) == x
            coords = tuple(rnd.randrange(field.base.order) for _ in range(m))
            assert basis.expand(basis.combine(coords)) == coords


def test_element_operators():
    # elements are canonical ints; w = 2 generates GF(4)*
    assert F4.add(2, 2) == 0
    assert F4.pow(2, 3) == 1
    assert F4.mul(2, F4.inv(2)) == 1
    assert F4.neg(2) == 2  # characteristic 2


@pytest.mark.parametrize("field", [prime_field(5), F4, extension(F4, 10)], ids=["GF(5)", "GF(4)", "GF(4^10)"])
def test_zero_to_a_negative_power_is_a_zero_division(field):
    # 0^-e is (1/0)^e, as inv(0) says; 0^0 = 1 and 0^e = 0 for e > 0
    for e in (-1, -2, -(field.order - 1)):
        with pytest.raises(ZeroDivisionError):
            field.pow(0, e)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    assert field.pow(0, 0) == 1 and field.pow(0, 3) == 0
    assert field.pow(2, -1) == field.inv(2)


def _walk_step(field, i):
    """g^i from g^(i-1) by the table-free product, the oracle of the walk."""
    return field._raw_mul(field._exp[i - 1], field.primitive_element) if i else 1


def _raw_power(field, i):
    """g^i by square and multiply on the table-free product."""
    out, sq = 1, field.primitive_element
    while i:
        if i & 1:
            out = field._raw_mul(out, sq)
        sq = field._raw_mul(sq, sq)
        i >>= 1
    return out


F256 = extension(F2, 8)
# the primitive elements every field had while its table was a walk of _raw_mul
_TABLE_FIELDS = {
    "GF(2^6)": (extension(F2, 6), 2),
    "GF(2^7)": (extension(F2, 7), 2),
    "GF(2^8)": (F256, 3),
    "GF(3^5)": (extension(F3, 5), 3),
    "GF(5^4)": (extension(prime_field(5), 4), 6),
    "GF(9^3)": (extension(extension(F3, 2), 3), 10),
    "GF(16^2)": (extension(extension(F4, 2), 2), 18),
    "GF(4^6)": (extension(F4, 6), 4),
}


@pytest.mark.parametrize("name", list(_TABLE_FIELDS))
def test_log_tables_equal_the_sequential_walk(name):
    field, g = _TABLE_FIELDS[name]
    assert field.primitive_element == g
    walk = [1]
    for _ in range(field.order - 2):
        walk.append(field._raw_mul(walk[-1], g))
    assert field._exp == walk + walk
    assert [field._log[v] for v in walk] == list(range(len(walk)))


@pytest.mark.parametrize("field, g", [(extension(F2, 16), 3), (extension(F256, 2), 264)],
                         ids=["GF(2^16)", "GF(256^2)"])
def test_largest_log_tables_equal_the_walk_at_every_block_boundary(field, g):
    # order 2^16 is the largest with tables; these are built by doubling, so
    # the blocks end at powers of two (the 64-power strides are kept as well)
    assert field.primitive_element == g
    n = field.order - 1
    exp, log = field._exp, field._log
    assert len(exp) == 2 * n and exp[n:] == exp[:n]
    sample = random.Random(16).sample(range(n), 2000)
    doubling = [i for j in range(n.bit_length()) for i in (2**j - 1, 2**j) if i < n]
    for i in list(range(0, n, 64)) + list(range(63, n, 64)) + doubling + sample:
        assert exp[i] == _walk_step(field, i), i
        assert log[exp[i]] == i
    for i in sample[:16]:
        assert exp[i] == _raw_power(field, i), i
    assert sorted(exp[:n]) == list(range(1, field.order))


def _mul_walk(field, x, count):
    """x^0 .. x^(count-1) by `mul`, one product per power."""
    out = [1]
    for _ in range(count - 1):
        out.append(field.mul(out[-1], x))
    return out


_POWER_FIELDS = ([F2, F3, prime_field(5), prime_field(65537)]
                 + [extension(F2, m) for m in range(2, 21)]
                 + [extension(F4, m) for m in range(2, 11)]
                 + [extension(F3, 5), extension(extension(F3, 2), 3)])


@pytest.mark.parametrize("field", _POWER_FIELDS, ids=lambda f: f"{f!r}-{f.degree_over_base}")
def test_powers_equal_a_walk_of_mul(field):
    # fields with log tables read them off; the others double past m + 1
    # powers.  A walk of order - 1 products takes seconds past GF(2^17), so
    # there the longest count is MAX_LENGTH, the longest root table of cyclic.
    m = field.degree_over_base
    g = field.primitive_element
    rnd = random.Random(field.order)
    top = field.order - 1 if field.order <= 1 << 17 else MAX_LENGTH
    for x in [0, 1, g, rnd.randrange(1, field.order), field.order - 1]:
        for count in sorted({1, 2, m, m + 1, 65}):
            assert field.powers(x, count) == _mul_walk(field, x, count), (x, count)
    assert field.powers(g, 0) == []
    longest = field.powers(g, top)
    assert longest == _mul_walk(field, g, top)
    if field.order - 1 == top:
        assert sorted(longest) == list(range(1, field.order))


def test_every_log_table_equals_a_walk_of_the_table_free_product():
    # every field built so far in this interpreter, towers included
    fields = [f for f in gc.get_objects() if isinstance(f, FieldSpec) and f._exp is not None]
    assert len(fields) >= len(_TABLE_FIELDS)
    for field in fields:
        n, g = field.order - 1, field.primitive_element
        mul = field._raw_mul if field.base is not None else lambda a, b: a * b % field.order
        walk = [1]
        for _ in range(n - 1):
            walk.append(mul(walk[-1], g))
        assert field._exp == walk + walk, field
        assert [field._log[v] for v in walk] == list(range(n)), field


def test_outside_ints_are_range_checked():
    with pytest.raises(EntryOutOfRange):
        Basis(F4, [2, 4])
    with pytest.raises(EntryOutOfRange):
        Basis(F4, [2, 3]).expand(4)
    with pytest.raises(EntryOutOfRange):
        trace_to(F4, 4, F2)
    with pytest.raises(EntryOutOfRange):
        symbol_sum_rank_weight([5, 0], F4, BlockProfile(F2, [(2, 2)]))
    # ints past int64 are checked before any conversion
    b = Basis(F4, [2, 3])
    for bad in (-1, F4.order, 2**70, -(2**70)):
        with pytest.raises(EntryOutOfRange):
            b.expand(bad)
        with pytest.raises(EntryOutOfRange):
            b.coefficients([[0, 1], [bad, 2]])
        with pytest.raises(EntryOutOfRange):
            symbol_sum_rank_weight([bad, 0], F4, BlockProfile(F2, [(2, 2)]))


def _per_element_solve(basis):
    """Oracle: x -> its coefficients over `basis`, solved one element at a
    time from x's coordinates over `sub`, read level by level down the
    tower, times the inverse coordinate matrix."""
    sub, m = basis.sub, basis.size

    def sub_coords(v):
        vals, g = [v], basis.field
        while g is not sub:
            vals = [c for u in vals for c in g.coords(u)]
            g = g.base
        return vals

    cols = [sub_coords(e) for e in basis.elements]
    inv = MatrixGF(sub, [[cols[j][i] for j in range(m)] for i in range(m)], m).invert()

    def solve(x):
        s = sub_coords(x)
        return tuple(functools.reduce(sub.add, (sub.mul(inv.rows[i][j], s[j]) for j in range(m)), 0)
                     for i in range(m))

    return solve


F16 = extension(F4, 2)
F512 = extension(F2, 9)


@pytest.mark.parametrize(
    "field, sub",
    [(F4, F2), (extension(F2, 3), F2), (extension(F3, 2), F3), (F16, F4), (F16, F2),
     (F512, F2), (extension(F512, 2), F512)],
    ids=["GF(4)/GF(2)", "GF(8)/GF(2)", "GF(9)/GF(3)", "GF(16)/GF(4)", "GF(16)/GF(2)",
         "GF(512)/GF(2)", "GF(512^2)/GF(512)"])
def test_coefficients_equal_the_per_element_solve(field, sub):
    rnd = random.Random(field.order)
    m = field.degree_over(sub)
    g = field.primitive_element
    bases = [Basis(field, [field.pow(g, i) for i in range(m)], sub)]
    while len(bases) < 2:
        try:
            bases.append(Basis(field, [rnd.randrange(1, field.order) for _ in range(m)], sub))
        except LengthMismatch:  # dependent draw
            pass
    xs = list(range(field.order)) if field.order <= 512 else [rnd.randrange(field.order) for _ in range(64)]
    values = np.array(xs + xs).reshape(2, -1)
    for basis in bases:
        solve = _per_element_solve(basis)
        got = basis.coefficients(values)
        assert got.shape == values.shape + (m,)
        assert [[tuple(c) for c in row] for row in got.tolist()] == \
               [[solve(x) for x in row] for row in values.tolist()]
        assert all(basis.expand(x) == solve(x) for x in xs[:16])


@pytest.mark.parametrize("field, sub", [(F4, F2), (extension(F4, 2), F4), (extension(F4, 2), F2)],
                         ids=["GF(4)/GF(2)", "GF(16)/GF(4)", "GF(16)/GF(2)"])
def test_expand_is_kept_and_equals_a_fresh_solve(field, sub):
    m = field.degree_over(sub)
    g = field.primitive_element
    els = [field.pow(g, i) for i in range(m)]
    # every coordinate vector, combined: the map expand inverts
    coords = [()]
    for _ in range(m):
        coords = [c + (d,) for c in coords for d in range(sub.order)]
    b = Basis(field, els, sub)
    solved = {b.combine(c): c for c in coords}
    assert len(solved) == field.order
    for bad in (field.order, -1):
        with pytest.raises(EntryOutOfRange):
            b.expand(bad)
    first = {x: b.expand(x) for x in range(field.order)}
    for x in range(field.order):
        assert first[x] == solved[x] == Basis(field, els, sub).expand(x)
        again = b.expand(x)
        assert again == first[x] and isinstance(again, tuple)
        with pytest.raises(TypeError):
            again[0] = 1
    for bad in (field.order, -1, field.order + 7):
        with pytest.raises(EntryOutOfRange):
            b.expand(bad)


def test_expand_keeps_nothing_past_the_memo_bound():
    big = extension(F2, 9)  # 512 elements
    g = big.primitive_element
    b = Basis(big, [big.pow(g, i) for i in range(9)])
    for x in range(big.order):
        assert b.combine(b.expand(x)) == x
    with pytest.raises(EntryOutOfRange):
        b.expand(big.order)
