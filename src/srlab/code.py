"""Linear codes with Euclidean duality and exact distance search.

A LinearCode is a k-dimensional subspace of F_q^n held as its reduced
row-echelon generator matrix, which doubles as the canonical form: two codes
are equal iff their rref generators are identical.

The LCD test uses the Gram-matrix rank criterion (hull dimension equals
k - rank(G G^T)); the test suite cross-checks it against an explicit
row-space intersection.  Each code computes its hull dimension on first use
and keeps it, so repeated duality predicates share one elimination.
Distance search is exact whenever q**k fits the budget and otherwise raises
BudgetExceeded with the best bound found.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import LengthMismatch, NotF4, NotSelfDual, ZeroCode
from .linalg import MatrixGF, check_entries
from .wordenum import (
    all_codewords,
    combine,
    low_weight_blocks,
    low_weight_min_char2,
    min_weight_char2,
    min_weight_generic,
    packable_char2,
    scaled_rows,
)

__all__ = [
    "LinearCode",
    "DEFAULT_WORD_BUDGET",
    "f4_selfdual_distance_cap",
    "f4_selfdual_bound_holds",
    "all_rref_generators",
]

DEFAULT_WORD_BUDGET = 2**28


class LinearCode:
    """A linear [n, k] code over `field`, canonical rref generator."""

    __slots__ = ("field", "n", "generator", "_hull")

    def __init__(self, field, n: int, generator: MatrixGF):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "_hull", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def from_rows(cls, field, n: int, rows: Sequence[Sequence[int]]) -> "LinearCode":
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != n:
                raise LengthMismatch(f"row length {len(r)} != {n}")
        check_entries(field, rows)
        gen = MatrixGF(field, rows, n).rref()
        return cls(field, n, gen)

    @classmethod
    def zero(cls, field, n: int) -> "LinearCode":
        return cls.from_rows(field, n, [])

    @classmethod
    def full(cls, field, n: int) -> "LinearCode":
        return cls(field, n, MatrixGF.identity(field, n))

    @property
    def k(self) -> int:
        return self.generator.nrows

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field is other.field
            and self.n == other.n
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((id(self.field), self.n, self.generator))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}] over GF({self.field.order})"

    def contains(self, word: Sequence[int]) -> bool:
        return self.generator.row_space_contains(list(word))

    def codeword(self, message: Sequence[int]):
        table = scaled_rows(self.field, self.generator.rows, message)
        return combine(self.field, table, enumerate(message[: self.k]), [0] * self.n)

    def codewords(self) -> Iterator[list]:
        """All q**k codewords; callers are responsible for k being small."""
        return all_codewords(self.field, self.generator.rows, self.n)

    def dual(self) -> "LinearCode":
        """Kernel of the generator; dim n - k, all cross products zero."""
        if self.k == 0:
            return LinearCode.full(self.field, self.n)
        return LinearCode(self.field, self.n, self.generator.kernel_basis().rref())

    def min_distance(self, budget: int = DEFAULT_WORD_BUDGET, jobs: int = 1) -> int:
        """Exact minimum nonzero Hamming weight by exhausting the code.

        Raises ZeroCode for k = 0 and BudgetExceeded (carrying the best
        upper bound found) when q**k exceeds the budget.
        """
        if self.k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        rows = [list(r) for r in self.generator.rows]
        if packable_char2(self.field, self.n):
            return min_weight_char2(self.field, rows, self.n, budget, jobs)
        return min_weight_generic(self.field, rows, self.n, budget)

    def low_weight_scan(self, max_message_weight: int):
        """Lightest codeword among messages of Hamming weight <= w.

        Because the generator is in rref, a codeword's message is its
        restriction to the pivot columns, so every codeword of weight <= w
        comes from a message of weight <= w: the scan is complete for
        codewords up to that weight.  Returns (weight, witness) or
        (None, None) if nothing was found.
        """
        f = self.field
        rows = self.generator.rows
        if packable_char2(f, self.n):
            best, msg = low_weight_min_char2(f, rows, self.n, max_message_weight)
            if best is None:
                return None, None
            return best, self.codeword([msg.get(i, 0) for i in range(self.k)])
        words = (w for _, blocks in low_weight_blocks(f, rows, self.n, max_message_weight)
                 for block in blocks for w in block)
        witness = min(words, key=lambda w: self.n - w.count(0), default=None)
        return (None, None) if witness is None else (self.n - witness.count(0), witness)

    # -- duality predicates -------------------------------------------------

    def is_self_dual(self) -> bool:
        return 2 * self.k == self.n and self.hull_dimension() == self.k

    def hull_dimension(self) -> int:
        """dim(C meet C-perp) = k - rank(G G^T), computed on the first call."""
        if self._hull is None:
            hull = self.k - self.generator.gram().rank() if self.k else 0
            object.__setattr__(self, "_hull", hull)
        return self._hull

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    def intersection(self, other: "LinearCode") -> "LinearCode":
        """Row-space intersection via duals: (C1 + C2)^perp = C1^perp meet C2^perp."""
        if self.field is not other.field or self.n != other.n:
            raise LengthMismatch("codes live in different spaces")
        du = LinearCode.from_rows(
            self.field,
            self.n,
            list(self.dual().generator.rows) + list(other.dual().generator.rows),
        )
        return du.dual()


def _rotation_closed(code: LinearCode, step: int) -> bool:
    """Whether the row space is closed under rotating the coordinates right by `step`."""
    return all(code.contains(row[-step:] + row[:-step]) for row in code.generator.rows)


def f4_selfdual_distance_cap(n: int) -> int:
    """Distance cap 4*floor(n/12) + 4 for self-dual codes over GF(4)."""
    return 4 * (n // 12) + 4


def f4_selfdual_bound_holds(code: LinearCode, distance: int) -> bool:
    """Check the GF(4) self-dual distance cap for a code with known distance.

    A False return signals an upstream bug, not a property of the code.
    """
    if code.field.order != 4:
        raise NotF4("bound applies to codes over GF(4)")
    if not code.is_self_dual():
        raise NotSelfDual("bound applies to self-dual codes")
    return distance <= f4_selfdual_distance_cap(code.n)


def all_rref_generators(field, n: int, k: int):
    """Yield every k-dimensional subspace of F_q^n as rref generator rows.

    Exhaustive by pivot-column pattern; intended for tiny spaces (searches
    and oracle-style tests).
    """
    q = field.order
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j not in pivots and j > pivots[i]
        ]
        for values in itertools.product(range(q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            yield rows
