import functools
import random

import numpy as np
import pytest

from srlab.code import LinearCode
from srlab.errors import DimensionMismatch, EntryOutOfRange
from srlab.field import extension, prime_field
from srlab.linalg import MatrixGF, _tables

F2 = prime_field(2)
F4 = extension(F2, 2)
F3 = prime_field(3)
FIELDS = (F2, F3, F4, prime_field(5), extension(F2, 3), extension(F3, 2))


def _random_matrix(rnd, field, r, c):
    return MatrixGF(field, [[rnd.randrange(field.order) for _ in range(c)] for _ in range(r)], c)


def test_rank_examples():
    assert MatrixGF.identity(F4, 5).rank() == 5
    assert MatrixGF(F2, [[0, 1], [0, 1]]).rank() == 1
    assert MatrixGF.zeros(F4, 3, 4).rank() == 0


def test_rank_of_qpoly_proof_matrix():
    # coefficients (a0, a1) = (1, w): a0 = (1,0), a1 = (0,1) over the {1,w} split
    a0, a1 = (1, 0), (0, 1)
    m = [
        [a0[0] ^ a1[0], a0[1] ^ a1[1] ^ a1[0]],
        [a0[1] ^ a1[1], a0[0] ^ a1[0] ^ a0[1]],
    ]
    assert m == [[1, 1], [1, 1]]
    # independent elimination: second row equals the first
    assert MatrixGF(F2, m).rank() == 1


def test_rref_idempotent_and_deterministic():
    rnd = random.Random(4)
    for _ in range(40):
        m = _random_matrix(rnd, F4, rnd.randint(1, 6), rnd.randint(1, 6))
        r = m.rref()
        assert r.rref() == r
        assert r.rank() == m.rank()


def test_rref_preserves_row_space():
    rnd = random.Random(6)
    for _ in range(30):
        m = _random_matrix(rnd, F4, 4, 6)
        r = m.rref()
        for row in m.rows:
            assert r.row_space_contains(row)
        for row in r.rows:
            assert m.rref().row_space_contains(row)


def test_kernel_basis():
    assert MatrixGF.identity(F4, 4).kernel_basis().nrows == 0
    rnd = random.Random(8)
    for _ in range(30):
        m = _random_matrix(rnd, F4, rnd.randint(1, 5), rnd.randint(1, 7))
        k = m.kernel_basis()
        assert k.nrows == m.ncols - m.rank()  # rank-nullity
        if k.nrows:
            prod = m.mat_mul(k.transpose())
            assert prod.is_zero()


def _kernel_then_rref(m):
    """Reference kernel: free-column vectors read off the left-to-right
    rref, put in rref by a second elimination."""
    f = m.field
    rows, pivots = m._echelon()
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [0] * m.ncols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(v)
    return MatrixGF(f, basis, m.ncols).rref()


def _kernel_cases(rnd, field):
    """Zero-row, all-zero, rank-deficient, full-rank, wide and tall matrices."""
    yield MatrixGF(field, [], ncols=rnd.randint(1, 6))
    yield MatrixGF.zeros(field, rnd.randint(1, 4), rnd.randint(1, 6))
    for _ in range(12):
        r, c = rnd.randint(1, 5), rnd.randint(2, 9)
        m = _random_matrix(rnd, field, r, c)
        yield m  # wide
        yield _random_matrix(rnd, field, c, r)  # tall
        # rank-deficient: the last row a combination of the others
        extra = m.rows[0] if r == 1 else [field.add(a, field.mul(2 % field.order, b))
                                          for a, b in zip(m.rows[0], m.rows[-1])]
        yield MatrixGF(field, list(m.rows) + [extra], c)
    yield MatrixGF.identity(field, 4)  # full rank, empty kernel


def test_kernel_basis_is_rref_and_matches_second_elimination():
    rnd = random.Random(21)
    for field in FIELDS:
        for m in _kernel_cases(rnd, field):
            k = m.kernel_basis()
            assert k.ncols == m.ncols
            assert k.nrows == m.ncols - m.rank()
            assert k.rref() == k
            assert k == _kernel_then_rref(m)
            if k.nrows and m.nrows:
                assert m.mat_mul(k.transpose()).is_zero()


def test_dual_is_one_elimination(monkeypatch):
    rnd = random.Random(22)
    c = LinearCode.from_rows(F3, 9, [[rnd.randrange(3) for _ in range(9)] for _ in range(4)])
    calls = []
    eliminate = MatrixGF._eliminate

    def counted(self, *args, **kwargs):
        calls.append(self.shape)
        return eliminate(self, *args, **kwargs)

    monkeypatch.setattr(MatrixGF, "_eliminate", counted)
    d = c.dual()
    assert calls == [(c.k, 9)]
    assert d.k == 9 - c.k


def test_echelon_in_a_column_order_is_the_moved_rref():
    rnd = random.Random(23)
    for field in FIELDS:
        for _ in range(10):
            m = _random_matrix(rnd, field, rnd.randint(1, 4), rnd.randint(1, 7))
            order = list(range(m.ncols))
            rnd.shuffle(order)
            rows, pivots = m._echelon(order)
            moved = MatrixGF(field, [[r[j] for j in order] for r in m.rows], m.ncols).rref()
            assert [[r[j] for j in order] for r in rows] == [list(r) for r in moved.rows]
            assert [order.index(p) for p in pivots] == [
                next(j for j, v in enumerate(r) if v) for r in moved.rows]


def test_rank_equals_transpose_rank():
    rnd = random.Random(13)
    for field in (F2, F4, extension(F2, 3)):
        for _ in range(25):
            m = _random_matrix(rnd, field, rnd.randint(1, 5), rnd.randint(1, 5))
            assert m.rank() == m.transpose().rank()


def test_mat_mul_and_errors():
    a = MatrixGF(F4, [[1, 2], [0, 3]])
    b = MatrixGF(F4, [[2, 0], [1, 1]])
    ab = a.mat_mul(b)
    # (1*2 + 2*1, 1*0 + 2*1) = (2^2=..): check one entry by hand: row0 = (2+2, 0+2) = (0, 2)
    assert ab.rows[0] == (0, 2)
    with pytest.raises(DimensionMismatch):
        a.mat_mul(MatrixGF(F4, [[1, 2, 3]]))
    with pytest.raises(DimensionMismatch):
        MatrixGF(F4, [[1, 2], [1]])


def test_invert():
    rnd = random.Random(17)
    n = 4
    found = 0
    while found < 10:
        m = _random_matrix(rnd, F4, n, n)
        if m.rank() < n:
            continue
        found += 1
        assert m.mat_mul(m.invert()) == MatrixGF.identity(F4, n)
    singular = MatrixGF(F4, [[1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        singular.invert()


def test_empty_matrix():
    e = MatrixGF(F4, [], ncols=3)
    assert e.rank() == 0
    assert e.kernel_basis().nrows == 3


def _reference_echelon(m, order=None):
    """Gauss-Jordan elimination one entry at a time through the field's
    own add/mul/inv, in the pivot search order of `_echelon`."""
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    for c in range(m.ncols) if order is None else order:
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, e) for e in rows[r]]
        for i in range(len(rows)):
            if i != r:
                factor = rows[i][c]
                rows[i] = [f.add(a, f.neg(f.mul(factor, b))) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _echelon_cases(rnd, field):
    """Random, wide, rank-deficient and zero-row matrices, and one without rows."""
    yield MatrixGF(field, [], ncols=4)
    for _ in range(12):
        r, c = rnd.randint(1, 5), rnd.randint(1, 7)
        yield _random_matrix(rnd, field, r, c)
        yield _random_matrix(rnd, field, r, rnd.randint(12, 24))  # wide
        base = _random_matrix(rnd, field, rnd.randint(1, 3), c).rows
        mixed = []  # combinations of a few rows, zero rows among them
        for _ in range(rnd.randint(2, 6)):
            coef = [rnd.randrange(field.order) for _ in base]
            row = [0] * c
            for a, b in zip(coef, base):
                row = [field.add(x, field.mul(a, y)) for x, y in zip(row, b)]
            mixed.append(row)
        mixed.insert(rnd.randint(0, len(mixed)), [0] * c)
        yield MatrixGF(field, mixed, c)


@pytest.mark.parametrize("field", [F2, F3, F4, prime_field(5), extension(F3, 2)], ids=repr)
def test_echelon_matches_per_entry_elimination(field):
    rnd = random.Random(29 + field.order)
    for m in _echelon_cases(rnd, field):
        for order in (None, range(m.ncols - 1, -1, -1), rnd.sample(range(m.ncols), m.ncols)):
            assert m._echelon(order) == _reference_echelon(m, order)
        assert m.rank() == len(_reference_echelon(m)[1])


# GF(512) and GF(17^2) are past the table fields and run on object arrays
ORACLE_FIELDS = (F2, F3, F4, prime_field(5), extension(F2, 3), extension(F3, 2),
                 extension(F2, 4), extension(F2, 9), extension(prime_field(17), 2))


def _reference_mat_mul(a, b):
    f = a.field
    cols = [[b.rows[i][j] for i in range(b.nrows)] for j in range(b.ncols)]
    return [[functools.reduce(f.add, map(f.mul, row, col), 0) for col in cols]
            for row in a.rows]


def _reference_kernel(m):
    """Free-column vectors of the per-entry rref, put in rref per entry."""
    f = m.field
    rows, pivots = _reference_echelon(m)
    basis = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [0] * m.ncols
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(v)
    return _reference_echelon(MatrixGF(f, basis, m.ncols))[0]


def _reference_reduce(m, vec):
    """Rows subtracted one at a time, each scaled by its leading entry."""
    f = m.field
    v = list(vec)
    for row in m.rows:
        p = next(j for j, e in enumerate(row) if e)
        factor = f.mul(v[p], f.inv(row[p]))
        v = [f.sub(a, f.mul(factor, b)) for a, b in zip(v, row)]
    return v


def _oracle_cases(rnd, field):
    """No rows, 1 x 1, zero rows, wide, tall, square and rank-deficient."""
    yield MatrixGF(field, [], ncols=5)
    yield MatrixGF(field, [[0]])
    yield MatrixGF(field, [[rnd.randrange(1, field.order)]])
    yield MatrixGF.zeros(field, 3, 4)
    for _ in range(4):
        r, c = rnd.randint(1, 4), rnd.randint(5, 12)
        wide = _random_matrix(rnd, field, r, c)
        yield wide
        yield _random_matrix(rnd, field, c, r)  # tall
        yield _random_matrix(rnd, field, r, r)  # square
        zero_row = [[0] * c]
        yield MatrixGF(field, zero_row + list(wide.rows) + list(wide.rows[:1]), c)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_linear_algebra_matches_per_entry_oracle(field):
    rnd = random.Random(31 + field.order)
    for m in _oracle_cases(rnd, field):
        rows, pivots = _reference_echelon(m)
        r = m.rref()
        assert [list(row) for row in r.rows] == rows
        assert m.rank() == len(pivots)
        k = m.kernel_basis()
        assert [list(row) for row in k.rows] == _reference_kernel(m)
        if k.nrows:
            assert not any(map(any, _reference_mat_mul(m, k.transpose())))
        other = _random_matrix(rnd, field, m.ncols, rnd.randint(0, 4))
        assert [list(row) for row in m.mat_mul(other).rows] == _reference_mat_mul(m, other)
        words = [[rnd.randrange(field.order) for _ in range(m.ncols)]]
        if m.nrows:  # a codeword: a combination of the rows
            words.append(_reference_mat_mul(MatrixGF(field, [words[0][:m.nrows]]), m)[0])
        for v in words:
            assert r.reduce_vector(v) == _reference_reduce(r, v)
            grown = MatrixGF(field, list(r.rows) + [v], m.ncols)
            assert r.row_space_contains(v) == (len(_reference_echelon(grown)[1]) == r.nrows)
        if m.nrows == m.ncols:
            n = m.nrows
            aug = MatrixGF(field, [list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(m.rows)], 2 * n)
            rows, pivots = _reference_echelon(aug)
            if pivots == list(range(n)):
                assert [list(row) for row in m.invert().rows] == [row[n:] for row in rows]
            else:
                with pytest.raises(DimensionMismatch):
                    m.invert()


def test_results_hold_python_ints():
    rnd = random.Random(37)
    for field in (F2, F3, F4, extension(F2, 9)):
        m = _random_matrix(rnd, field, 4, 7)
        square = _random_matrix(rnd, field, 3, 3)
        while square.rank() < 3:
            square = _random_matrix(rnd, field, 3, 3)
        results = [m.rref(), m.kernel_basis(), m.mat_mul(m.transpose()), square.invert()]
        entries = [e for res in results for row in res.rows for e in row]
        entries += m.rref().reduce_vector(m.rows[0]) + m._echelon()[0][0]
        assert entries and all(type(e) is int for e in entries)


def test_field_tables_are_read_only():
    for field in (F2, F3, F4, prime_field(5), extension(F3, 2)):
        t = _tables(field)
        assert _tables(field) is t
        assert (t.add is None) == (field.characteristic == 2)
        for table in (t.mul, t.neg_mul, t.inv, t.add):
            if table is None:
                continue
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


# fields of every kind of entry array: GF(512) is past the table fields
HELD_FIELDS = (F2, F3, F4, extension(F3, 2), extension(F2, 9))


def _invertible(rnd, field, n):
    while True:
        m = _random_matrix(rnd, field, n, n)
        if m.rank() == n:
            return m


def _held_results(rnd, field):
    """name -> an array-held result of each matrix operation."""
    m = _random_matrix(rnd, field, 4, 7)
    return {"rref": m.rref(), "kernel_basis": m.kernel_basis(),
            "mat_mul": m.mat_mul(_random_matrix(rnd, field, 7, 3)),
            "transpose": m.transpose(), "invert": _invertible(rnd, field, 4).invert(),
            "gram": m.gram(), "identity": MatrixGF.identity(field, 3),
            "zeros": MatrixGF.zeros(field, 2, 3)}


@pytest.mark.parametrize("field", HELD_FIELDS, ids=repr)
def test_row_built_and_array_built_matrices_are_equal(field):
    rnd = random.Random(41 + field.order)
    for res in _held_results(rnd, field).values():
        rows = [list(r) for r in res.rows]
        by_rows = MatrixGF(field, rows, res.ncols)
        by_array = MatrixGF._from_array(field, np.array(rows, np.int64).reshape(res.shape))
        for a, b in ((by_rows, by_array), (by_rows, res), (by_array, res)):
            assert a == b and hash(a) == hash(b)
        assert by_array.rows == by_rows.rows == res.rows
    m = _random_matrix(rnd, field, 3, 5)
    changed = [list(r) for r in m.rows]
    changed[2][4] = (changed[2][4] + 1) % field.order
    assert m != MatrixGF(field, changed, 5)
    assert m != MatrixGF._from_array(field, m._array()[:2])


@pytest.mark.parametrize("field", HELD_FIELDS, ids=repr)
def test_results_hold_read_only_arrays_and_python_ints(field):
    rnd = random.Random(43 + field.order)
    for name, res in _held_results(rnd, field).items():
        a = res._array()
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[...] = 0
        assert a.dtype == _tables(field).dtype, name
        entries = [e for row in res.rows for e in row]
        assert all(type(e) is int for e in entries), name
        assert res[res.nrows - 1, res.ncols - 1] == entries[-1] and type(res[0, 0]) is int


@pytest.mark.parametrize("field", HELD_FIELDS, ids=repr)
def test_from_rows_rejects_entries_outside_the_field(field):
    q = field.order
    for bad in [-1, q, 2**70] + [256] * (q <= 256):
        with pytest.raises(EntryOutOfRange, match=f"^entry {bad} is not an element of GF\\({q}\\)$"):
            LinearCode.from_rows(field, 3, [[1, 0, 1], [0, bad, 1]])
    for bad, shown in ((2.5, "2.5"), (2.0, "2.0"), ("1", "'1'"), (None, "None")):
        with pytest.raises(EntryOutOfRange, match=f"^entry {shown} is not an element of GF\\({q}\\)$"):
            LinearCode.from_rows(field, 2, [[1, bad]])
    with pytest.raises(EntryOutOfRange, match=f"^entry {q} is not"):
        LinearCode.from_rows(field, 2, np.array([[1, q]]))
    with pytest.raises(EntryOutOfRange, match="^entry 1.5 is not"):
        LinearCode.from_rows(field, 2, np.array([[1.5, 1]]))


@pytest.mark.parametrize("field", HELD_FIELDS, ids=repr)
def test_from_rows_takes_bools_numpy_integers_and_arrays(field):
    rows = [[1, 0, field.order - 1], [0, 1, 1]]
    want = LinearCode.from_rows(field, 3, rows)
    same = [[True, False, np.int64(field.order - 1)], [np.uint16(0), np.int8(1), True]]
    for other in (same, np.array(rows), np.array(rows, np.uint16), (tuple(r) for r in rows)):
        c = LinearCode.from_rows(field, 3, other)
        assert c == want and c.generator.rows == want.generator.rows
        assert all(type(e) is int for row in c.generator.rows for e in row)
    assert LinearCode.from_rows(field, 3, np.zeros((0, 3), np.int64)) == LinearCode.zero(field, 3)
