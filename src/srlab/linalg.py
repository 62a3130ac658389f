"""Dense matrices over a finite field.

Entries are canonical integers of the owning field (srlab.field encoding),
stored row-major as tuples.  Elimination uses deterministic pivoting (first
nonzero entry scanning columns left to right, rows top to bottom), so the
reduced row-echelon form is identical across runs and platforms.  Canonical
code equality is defined through that rref.

The same elimination can search its pivot columns in another order and keep
the columns in place.  Run right to left it yields the kernel already in rref,
so a dual costs one elimination of the k x n generator (`kernel_basis`).
"""

from __future__ import annotations

import operator

from .errors import DimensionMismatch, EntryOutOfRange, LengthTooLarge

__all__ = ["MAX_LENGTH", "MatrixGF", "check_entries", "check_length"]

MAX_LENGTH = 4096  # the largest length in the bundled tables is 205


def check_entries(field, rows) -> None:
    """Raise EntryOutOfRange unless every entry is a canonical element, 0 <= v < q."""
    q = field.order
    for r in rows:
        if r and (min(r) < 0 or max(r) >= q):
            bad = next(v for v in r if not 0 <= v < q)
            raise EntryOutOfRange(f"entry {bad} is not an element of GF({q})")


def check_length(n: int, what: str = "length") -> None:
    """Raise LengthTooLarge for an outside length above MAX_LENGTH, before any
    work proportional to it is done."""
    if n > MAX_LENGTH:
        raise LengthTooLarge(f"{what} {n} exceeds the bound {MAX_LENGTH}")


class MatrixGF:
    """Immutable matrix; `field` supplies integer arithmetic."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGF is immutable")

    @classmethod
    def identity(cls, field, n: int) -> "MatrixGF":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, field, r: int, c: int) -> "MatrixGF":
        return cls(field, [[0] * c for _ in range(r)], c)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field is other.field
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.field), self.shape, self.rows))

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in row) for row in self.rows)

    # -- elimination ---------------------------------------------------

    def _echelon(self, order=None):
        """Return (reduced rows as lists, pivot column list).

        Pivot columns are searched in `order` (default: left to right) and the
        rows keep the original column layout, so they are the rref of the
        matrix with its columns in `order`, moved back; pivots are listed in
        the order they were found, row i holding a 1 at pivots[i].
        """
        f = self.field
        mul = f.mul
        # characteristic 2 subtracts by XOR, without a Python call per entry
        sub = operator.xor if f.characteristic == 2 else f.sub
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols) if order is None else order:
            sel = None
            for i in range(r, len(rows)):
                if rows[i][c] != 0:
                    sel = i
                    break
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = f.inv(rows[r][c])
            if inv != 1:
                rows[r] = [mul(inv, e) for e in rows[r]]
            rr = rows[r]
            for i in range(len(rows)):
                factor = rows[i][c]
                if i != r and factor != 0:
                    scaled = rr if factor == 1 else [mul(factor, e) for e in rr]
                    rows[i] = list(map(sub, rows[i], scaled))
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows[:r], pivots

    def rref(self) -> "MatrixGF":
        """Reduced row-echelon form with zero rows dropped."""
        rows, _ = self._echelon()
        return MatrixGF(self.field, rows, self.ncols)

    def rank(self) -> int:
        return len(self._echelon()[0])

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
        f = self.field
        rows, pivots = self._echelon(range(self.ncols - 1, -1, -1))
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(rows[i][fc])
            basis.append(v)
        return MatrixGF(f, basis, self.ncols)

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "MatrixGF":
        return MatrixGF(
            self.field,
            [[self.rows[r][c] for r in range(self.nrows)] for c in range(self.ncols)],
            self.nrows,
        )

    def mat_mul(self, other: "MatrixGF") -> "MatrixGF":
        if self.field is not other.field:
            raise DimensionMismatch("fields differ")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        f = self.field
        add, mul = f.add, f.mul
        xor = f.characteristic == 2
        ocols = other.ncols
        out = []
        for arow in self.rows:
            acc = [0] * ocols
            for a, brow in zip(arow, other.rows):
                if not a:
                    continue
                if xor:  # one map per row, without a Python call per entry
                    scaled = brow if a == 1 else [mul(a, e) for e in brow]
                    acc = list(map(operator.xor, acc, scaled))
                else:  # a call per entry, so zero entries are skipped
                    for j, e in enumerate(brow):
                        if e:
                            acc[j] = add(acc[j], mul(a, e))
            out.append(acc)
        return MatrixGF(f, out, ocols)

    def __matmul__(self, other):
        return self.mat_mul(other)

    def gram(self) -> "MatrixGF":
        """G G^T, the matrix of pairwise row inner products."""
        return self.mat_mul(self.transpose())

    def invert(self) -> "MatrixGF":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = MatrixGF(
            self.field,
            [list(self.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)],
            2 * n,
        )
        rows, pivots = aug._echelon()
        if pivots != list(range(n)):
            raise DimensionMismatch("matrix is singular")
        return MatrixGF(self.field, [r[n:] for r in rows], n)

    # -- row-space helpers ----------------------------------------------

    def reduce_vector(self, vec):
        """Reduce `vec` against these rows (assumed rref). Returns the residue."""
        f = self.field
        mul = f.mul
        sub = operator.xor if f.characteristic == 2 else f.sub
        v = list(vec)
        for row in self.rows:
            p = next((j for j, e in enumerate(row) if e != 0), None)
            if p is None or v[p] == 0:
                continue
            factor = mul(v[p], f.inv(row[p]))
            v = list(map(sub, v, row if factor == 1 else [mul(factor, e) for e in row]))
        return v

    def row_space_contains(self, vec) -> bool:
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        return all(e == 0 for e in self.reduce_vector(vec))

    def __repr__(self):
        return f"MatrixGF({self.nrows}x{self.ncols} over GF({self.field.order}))"
