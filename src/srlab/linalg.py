"""Dense matrices over a finite field.

Entries are canonical integers of the owning field (srlab.field encoding).
A matrix holds them as one read-only array (`_tables`); `rows`, a tuple of
int tuples, is built from it on first use.  Every elimination, product,
kernel and inverse returns a matrix that holds its result array, so a chain
of them never converts entries to Python ints and back.  Elimination uses
deterministic pivoting (first nonzero entry scanning columns left to right,
rows top to bottom), so the reduced row-echelon form is identical across
runs and platforms.  Canonical code equality is defined through that rref.

The same elimination can search its pivot columns in another order and keep
the columns in place.  Run right to left it yields the kernel already in rref,
so a dual costs one elimination of the k x n generator (`kernel_basis`).

The arithmetic runs on whole numpy arrays (`_tables`).  Over a field of at
most 256 elements the entries are uint8 and products, negated products,
inverses and sums are read from tables built once per field; addition is XOR
in characteristic 2.  An elimination step scales the pivot row through the
inverse's row of the product table and clears its column in every row with
one gather and one addition.  A product over a prime field is one integer
matrix product reduced mod p; over an extension field each row of the left
factor gathers its multiples of the right factor's rows and sums them.
Larger fields run the same code on object arrays of Python ints through the
field's own `mul`/`add`/`neg`/`inv`.

Entries from outside are checked on their way in (`check_entries`, and
`MatrixGF._checked` for whole matrices): an entry must be an integer (bool
and numpy integers count) v with 0 <= v < q.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import DimensionMismatch, EntryOutOfRange, LengthTooLarge

__all__ = ["MAX_LENGTH", "MatrixGF", "check_entries", "check_length"]

MAX_LENGTH = 4096  # the largest length in the bundled tables is 205


def check_entries(field, rows) -> None:
    """Raise EntryOutOfRange, naming the first offending entry, unless every
    entry is a canonical element: an integer v (bool and numpy integers
    count, floats and strings do not) with 0 <= v < q."""
    q = field.order
    for r in rows:
        for v in r:
            if type(v) is not int or not 0 <= v < q:
                try:
                    if 0 <= operator.index(v) < q:
                        continue
                except TypeError:
                    raise EntryOutOfRange(f"entry {v!r} is not an element of GF({q})") from None
                raise EntryOutOfRange(f"entry {v} is not an element of GF({q})")


def check_length(n: int, what: str = "length") -> None:
    """Raise LengthTooLarge for an outside length above MAX_LENGTH, before any
    work proportional to it is done."""
    if n > MAX_LENGTH:
        raise LengthTooLarge(f"{what} {n} exceeds the bound {MAX_LENGTH}")


# fields of at most this many elements compute on uint8 tables
_TABLE_MAX = 256


class _Tables:
    """The arithmetic of one field of at most _TABLE_MAX elements on uint8
    arrays, by lookups in read-only tables: `mul[a, b]` = a b,
    `neg_mul[a, b]` = -(a b), `inv[a]` = 1/a (`inv[0]` = 0) and the flat
    `add[a q + b]` = a + b, None in characteristic 2, where addition is XOR."""

    dtype = np.uint8

    def __init__(self, field):
        q = field.order
        els = range(q)
        self.mul = np.array([[field.mul(a, b) for b in els] for a in els], np.uint8)
        neg = np.array([field.neg(a) for a in els], np.uint8)
        self.neg_mul = self.mul if field.characteristic == 2 else neg[self.mul]
        self.inv = np.array([0] + [field.inv(a) for a in els[1:]], np.uint8)
        self.add = None
        if field.characteristic != 2:
            self.add = np.array([field.add(a, b) for a in els for b in els], np.uint8)
        for table in (self.mul, self.neg_mul, self.inv, self.add):
            if table is not None:
                table.flags.writeable = False
        self.q = np.uint16(q)  # a q + b without uint8 overflow
        self.p = q if field.base is None else None

    def array(self, rows, ncols):
        """A new (len(rows), ncols) array of the entries."""
        flat = bytearray(b"".join(map(bytes, rows)))
        return np.frombuffer(flat, np.uint8).reshape(len(rows), ncols)

    def zeros(self, shape):
        return np.zeros(shape, self.dtype)

    def divide(self, row, a):
        """row / a for a nonzero scalar a."""
        return self.mul[self.inv[a]].take(row)

    def times(self, x, y):
        """x y entry by entry, broadcast."""
        return self.mul.take(x * self.q + y)

    def negate(self, x):
        return self.neg_mul[1].take(x)

    def neg_outer(self, col, row):
        """-(col[i] row[j]) for every i, j."""
        return self.neg_mul.take(row, axis=1).take(col, axis=0)

    def plus(self, x, y):
        return x ^ y if self.add is None else self.add.take(x * self.q + y)

    def total(self, block):
        """The sum of the rows of a 2-D block."""
        if self.add is None:
            return np.bitwise_xor.reduce(block, axis=0)
        return functools.reduce(self.plus, block, self.zeros(block.shape[1]))

    def product(self, x, y):
        """x @ y: over a prime field one integer product reduced mod p, else
        per row of x one gather of its multiples of y's rows, summed."""
        if self.p is not None:
            # exact: every entry is at most n (p - 1)^2 < 2^63
            return (x.astype(np.int64) @ y.astype(np.int64) % self.p).astype(self.dtype)
        out = self.zeros((x.shape[0], y.shape[1]))
        for i, row in enumerate(x):
            out[i] = self.total(self.times(row[:, None], y))
        return out


class _Objects(_Tables):
    """The same operations for fields past _TABLE_MAX, on object arrays of
    Python ints through the field's own arithmetic."""

    dtype = object

    def __init__(self, field):
        self.mul = np.frompyfunc(field.mul, 2, 1)
        self.neg_mul = np.frompyfunc(lambda a, b: field.neg(field.mul(a, b)), 2, 1)
        self.inv = field.inv
        self.add = np.frompyfunc(field.add, 2, 1)
        self.p = None

    def array(self, rows, ncols):
        out = np.zeros((len(rows), ncols), object)
        if rows:
            out[...] = rows
        return out

    def divide(self, row, a):
        return self.mul(self.inv(a), row)

    def times(self, x, y):
        return self.mul(x, y)

    def negate(self, x):
        return self.neg_mul(1, x)

    def neg_outer(self, col, row):
        return self.neg_mul(col[:, None], row)

    def plus(self, x, y):
        return self.add(x, y)


@functools.lru_cache(maxsize=None)
def _tables(field):
    """The array arithmetic of `field`, built on first use."""
    return _Tables(field) if field.order <= _TABLE_MAX else _Objects(field)


class MatrixGF:
    """Immutable matrix; `field` supplies integer arithmetic.

    The entries are one read-only array (`_tables`), built from the rows on
    first use; a result of elimination or arithmetic holds its array from
    the start and builds `rows` from it on first use.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_entries")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_entries", None)

    @classmethod
    def _from_array(cls, field, a) -> "MatrixGF":
        """The matrix of the 2-D array `a` of field elements, which it keeps
        (converted only if it is not of `_tables(field)`'s dtype) and makes
        read-only; its entries are not checked."""
        a = a.astype(_tables(field).dtype, copy=False)
        a.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", a.shape[0])
        object.__setattr__(m, "ncols", a.shape[1])
        object.__setattr__(m, "_rows", None)
        object.__setattr__(m, "_entries", a)
        return m

    @classmethod
    def _checked(cls, field, rows, ncols) -> "MatrixGF":
        """The matrix of `rows`, int sequences of length ncols or a 2-D
        integer array, each entry checked as `check_entries` checks it.

        On a table field a row has bytes only if every entry is an integer
        in 0..255, so the rows' bytes and their largest entry check them;
        an array is checked by its dtype, minimum and maximum.  Anything
        else, and every failure, goes through `check_entries`, which raises
        naming the entry.
        """
        t, q = _tables(field), field.order
        if isinstance(rows, np.ndarray):
            if rows.dtype.kind in "iu" and not (rows.size and (rows.min() < 0 or rows.max() >= q)):
                return cls._from_array(field, rows.reshape(len(rows), ncols).astype(t.dtype))
            rows = rows.tolist()
        elif t.dtype is not object:
            try:
                flat = b"".join(map(bytes, rows))
            except (TypeError, ValueError):  # an entry that is no integer in 0..255
                pass
            else:
                if not flat or max(flat) < q:
                    return cls._from_array(field, np.frombuffer(bytearray(flat), np.uint8)
                                           .reshape(len(rows), ncols))
        check_entries(field, rows)
        if t.dtype is object:  # Python ints, not bools or numpy integers
            rows = [list(map(operator.index, r)) for r in rows]
        return cls._from_array(field, t.array(rows, ncols))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGF is immutable")

    @classmethod
    def identity(cls, field, n: int) -> "MatrixGF":
        return cls._from_array(field, np.eye(n, dtype=_tables(field).dtype))

    @classmethod
    def zeros(cls, field, r: int, c: int) -> "MatrixGF":
        return cls._from_array(field, _tables(field).zeros((r, c)))

    @property
    def rows(self):
        """The entries as a tuple of row tuples of ints, built on first use."""
        if self._rows is None:
            object.__setattr__(self, "_rows", tuple(map(tuple, self._entries.tolist())))
        return self._rows

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field is other.field
            and self.shape == other.shape
            and np.array_equal(self._array(), other._array())
        )

    def __hash__(self):
        a = self._array()
        return hash((id(self.field), self.shape, self.rows if a.dtype == object else a.tobytes()))

    def __getitem__(self, rc):
        return int(self._array()[rc])

    def is_zero(self) -> bool:
        return not self._array().any()

    def _array(self):
        """The entries as a read-only array (see `_tables`), built from the
        rows on the first call and kept."""
        if self._entries is None:
            a = _tables(self.field).array(self._rows, self.ncols)
            a.flags.writeable = False
            object.__setattr__(self, "_entries", a)
        return self._entries

    # -- elimination ---------------------------------------------------

    def _eliminate(self, order=None):
        """Return (reduced rows as an array, pivot column list).

        Pivot columns are searched in `order` (default: left to right) and the
        rows keep the original column layout, so they are the rref of the
        matrix with its columns in `order`, moved back; pivots are listed in
        the order they were found, row i holding a 1 at pivots[i].

        Each pivot scales its row by the inverse of its pivot entry, clears
        its column in every other row with one table gather and one addition
        over the whole array, and takes its place at row r.
        """
        t = _tables(self.field)
        a = self._array()
        pivots = []
        r = 0
        for c in range(self.ncols) if order is None else order:
            if r == self.nrows:
                break
            hit = a[r:, c].nonzero()[0]
            if not len(hit):
                continue
            s = r + hit[0]
            pivot_row = a[s] if a[s, c] == 1 else t.divide(a[s], a[s, c])
            # plus returns a new array, so the kept `_array` is never written
            # and pivot_row, which may view the old one, survives; row s is 0
            a = t.plus(a, t.neg_outer(a[:, c], pivot_row))
            if s != r:
                a[s] = a[r]  # row r holds 0 in column c
            a[r] = pivot_row
            pivots.append(c)
            r += 1
        return a[:r], pivots

    def _echelon(self, order=None):
        """`_eliminate` with the reduced rows as lists of ints."""
        a, pivots = self._eliminate(order)
        return a.tolist(), pivots

    def rref(self) -> "MatrixGF":
        """Reduced row-echelon form with zero rows dropped."""
        return MatrixGF._from_array(self.field, self._eliminate()[0])

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def kernel_basis(self) -> "MatrixGF":
        """Rows span {x : M x^T = 0}: cols - rank of them, in rref.

        One elimination with pivots searched right to left finds the
        right-greedy information set P, and each reduced row is zero right of
        its pivot, so each free column f is a combination of the pivot
        columns to its right.  The kernel row for f, e_f minus row_p[f] e_p
        over p in P (row_p the reduced row with pivot p), is then zero left
        of f and on every other free column: these rows, by increasing f,
        are the rref of the kernel, whose pivots are the complement of P.
        """
        t = _tables(self.field)
        a, pivots = self._eliminate(range(self.ncols - 1, -1, -1))
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = t.zeros((len(free), self.ncols))
        basis[range(len(free)), free] = 1
        basis[:, pivots] = t.negate(a[:, free]).T
        return MatrixGF._from_array(self.field, basis)

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "MatrixGF":
        return MatrixGF._from_array(self.field, self._array().T)

    def mat_mul(self, other: "MatrixGF") -> "MatrixGF":
        if self.field is not other.field:
            raise DimensionMismatch("fields differ")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        t = _tables(self.field)
        return MatrixGF._from_array(self.field, t.product(self._array(), other._array()))

    def __matmul__(self, other):
        return self.mat_mul(other)

    def gram(self) -> "MatrixGF":
        """G G^T, the matrix of pairwise row inner products."""
        return self.mat_mul(self.transpose())

    def invert(self) -> "MatrixGF":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = _tables(self.field).zeros((n, 2 * n))
        aug[:, :n] = self._array()
        aug[range(n), range(n, 2 * n)] = 1
        a, pivots = MatrixGF._from_array(self.field, aug)._eliminate()
        if pivots != list(range(n)):
            raise DimensionMismatch("matrix is singular")
        return MatrixGF._from_array(self.field, a[:, n:])

    # -- row-space helpers ----------------------------------------------

    def reduce_vector(self, vec):
        """Reduce `vec` against these rows (assumed rref): v - v[pivots] G,
        the residue, as a list."""
        t = _tables(self.field)
        g = self._array()
        v = t.array([vec], self.ncols)
        coef = t.negate(v[:, (g != 0).argmax(axis=1)])
        return t.plus(v, t.product(coef, g))[0].tolist()

    def row_space_contains(self, vec) -> bool:
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        return all(e == 0 for e in self.reduce_vector(vec))

    def __repr__(self):
        return f"MatrixGF({self.nrows}x{self.ncols} over GF({self.field.order}))"
