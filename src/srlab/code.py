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

Past any budget the minimum distance is certified by windows (Brouwer and
Zimmermann; Grassl, "Searching for linear codes with large minimum
distance", 2006): generators systematic on r disjoint information sets.  A
codeword's restriction to a window is its message under that window's
generator, and a word of weight <= H weighs <= H // r on some window, so
listing the messages of weight <= w under every window lists every codeword
of weight <= r (w + 1) - 1.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, LengthMismatch, MethodUnavailable, ZeroCode
from .linalg import MatrixGF
from .wordenum import (
    all_codewords,
    check_budget,
    listing_cost,
    low_weight_blocks,
    low_weight_min_char2,
    min_weight_char2,
    min_weight_generic,
    pack_row_planes,
    packable_char2,
)

__all__ = [
    "LinearCode",
    "DEFAULT_WORD_BUDGET",
    "f4_selfdual_distance_cap",
]

DEFAULT_WORD_BUDGET = 2**28


class LinearCode:
    """A linear [n, k] code over `field`, canonical rref generator."""

    __slots__ = ("field", "n", "generator", "_hull", "_windows", "_certificate")

    def __init__(self, field, n: int, generator: MatrixGF):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "_hull", None)
        object.__setattr__(self, "_windows", None)
        object.__setattr__(self, "_certificate", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def from_rows(cls, field, n: int, rows) -> "LinearCode":
        """The span of `rows`, int sequences or a 2-D integer array, each
        entry checked (`MatrixGF._checked`)."""
        if not isinstance(rows, np.ndarray):
            rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != n:
                raise LengthMismatch(f"row length {len(r)} != {n}")
        return cls(field, n, MatrixGF._checked(field, rows, n).rref())

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

    def codewords(self) -> Iterator[list]:
        """All q**k codewords; callers are responsible for k being small."""
        return all_codewords(self.field, self.generator.rows, self.n)

    def dual(self) -> "LinearCode":
        """Kernel of the generator (already rref); dim n - k, all cross
        products zero."""
        return LinearCode(self.field, self.n, self.generator.kernel_basis())

    def min_distance(self, budget: int = DEFAULT_WORD_BUDGET) -> int:
        """Exact minimum nonzero Hamming weight by exhausting the code.

        Raises ZeroCode for k = 0 and BudgetExceeded (carrying the best
        upper bound found) when q**k exceeds the budget.
        """
        if self.k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        rows = self.generator.rows
        if packable_char2(self.field, self.n):
            return min_weight_char2(self.field, rows, self.n, budget)
        return min_weight_generic(self.field, rows, self.n, budget)

    def windows(self):
        """((positions, rows), ...): generators systematic on disjoint
        information sets, computed on the first call.

        The rref generator (its pivot columns) comes first; each further
        window reduces the generator with pivots searched among the unused
        columns first, kept while those columns still have rank k.
        """
        if self._windows is None:
            gen = self.generator
            wins = [(_pivots(gen.rows), gen.rows)]
            used = set(wins[0][0])
            while self.k and self.n - len(used) >= self.k:
                order = [j for j in range(self.n) if j not in used] + sorted(used)
                rows, pivots = gen._echelon(order)
                if pivots[-1] in used:  # rank < k on the unused columns
                    break
                wins.append((tuple(pivots), tuple(map(tuple, rows))))
                used.update(pivots)
            object.__setattr__(self, "_windows", tuple(wins))
        return self._windows

    def listing_windows(self, weight: int):
        """(generators, depth) to list every codeword of weight <= `weight`:
        the windows' row lists through message weight weight // r, or the
        rref generator's alone through depth k (the whole code) where that is
        no dearer (`listing_cost`).  Windows cost an elimination each, so they
        are found only when some window count could make them cheaper."""
        q, k = self.field.order, self.k

        def whole_wins(r):
            return q**k <= listing_cost(self.field, k, r, weight // r)

        if all(map(whole_wins, range(1, self.n // max(1, k) + 1))) or whole_wins(len(self.windows())):
            return [self.generator.rows], k
        return [rows for _, rows in self.windows()], weight // len(self.windows())

    def lightest_row(self, weight=None) -> int:
        """Weight of the lightest rref generator row, a codeword: Hamming,
        or `weight` (see `low_weight_scan`) of the rows' planes."""
        rows = self.generator.rows
        if weight is None:
            return min(self.n - row.count(0) for row in rows)
        lo, hi = np.array([pack_row_planes(self.field, r) for r in rows], dtype=np.uint64).T
        return int(weight(lo, hi).min())

    def low_weight_scan(self, max_message_weight: int, weight=None, min_message_weight: int = 1):
        """Lightest codeword among the messages of Hamming weight
        min_message_weight..w under every window, w = max_message_weight.

        From weight 1, with r windows the scan is complete for codewords of
        Hamming weight up to r (w + 1) - 1, and for all codewords once
        w >= k (then the rref generator alone lists them); a deepening scan
        lists the weights it has not listed yet.  Codewords are scored by
        their Hamming weight, or by `weight`, a map of packed (lo, hi)
        planes to integer weights, for codes that pack (`packable_char2`).
        Returns (weight, witness) or (None, None) if nothing was found.
        """
        f, n = self.field, self.n
        if weight is not None and not packable_char2(f, n):
            raise MethodUnavailable(f"a weight of packed planes needs GF(2)/GF(4) and n <= 64, "
                                    f"not GF({f.order}) and n = {n}")
        if max_message_weight >= self.k:
            gens = [self.generator.rows]
        else:
            gens = [rows for _, rows in self.windows()]
        best, witness = None, None
        for rows in gens:
            if packable_char2(f, n):
                found, word = low_weight_min_char2(f, rows, n, max_message_weight, weight,
                                                   min_message_weight)
            else:
                found, word = None, None
                for _, words in low_weight_blocks(f, rows, n, max_message_weight,
                                                  min_message_weight):
                    w = np.count_nonzero(words, axis=2)
                    i = int(w.argmin())  # row-major: the first lightest of the batch
                    if found is None or w.flat[i] < found:
                        found, word = int(w.flat[i]), words.reshape(-1, n)[i].tolist()
            if found is not None and (best is None or found < best):
                best, witness = found, word
        return best, witness

    def certified_distance(self, budget: Optional[int] = None, weight=None, cover=None):
        """(d, witness, r, depth): the exact minimum distance, a codeword of
        that weight, how many generators the scan listed, and the message
        weight it reached under each.

        The distance is Hamming, or that of `weight` (see `low_weight_scan`);
        `cover(d)` bounds the Hamming weight of every codeword that weighs
        less than d (by default d - 1, a lighter codeword's Hamming weight
        at most).  The scan deepens the window listing from depth 1 until it
        is complete through Hamming weight cover(best), best the lightest
        weight found.  Step `depth` lists only the messages of weight
        `depth` under each window, the lighter ones being listed already,
        and keeps the lightest word so far (the first in weight-major
        order).  Where the windows through `depth` would cost no less than
        the whole code (`listing_cost`), the step lists the rest of the
        whole code instead (r = 1, depth k), the messages of weight `depth`
        to k under the rref generator, which is window 0.  A step whose
        listing would cost more than `budget` words raises BudgetExceeded
        before it lists anything, carrying the lightest weight found (at
        first the lightest rref row, a codeword), so where the first step
        is the whole code and q**k exceeds the budget it raises at once.

        The Hamming certificate (no `weight`, no `cover`) is kept on the
        code, so a repeat call lists nothing, whatever its budget; a call
        that raised keeps none.
        """
        if budget is not None:
            check_budget(budget)
        if self.k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        hamming = weight is None and cover is None
        if hamming and self._certificate is not None:
            return self._certificate
        cover = cover or (lambda d: d - 1)
        f, k = self.field, self.k
        best = self.lightest_row(weight)
        depth = lowest = 1
        witness = None
        while True:
            # more windows cost more: find them only if one could be cheaper
            if (f.order**k <= listing_cost(f, k, 1, depth)
                    or f.order**k <= listing_cost(f, k, len(self.windows()), depth)):
                r, depth = 1, k
            else:
                r = len(self.windows())
            cost = listing_cost(f, k, r, depth)
            if budget is not None and cost > budget:
                raise BudgetExceeded(f"a listing of {cost} words exceeds budget {budget}",
                                     best=best, enumerated=0)
            found, word = self.low_weight_scan(depth, weight, lowest)
            if witness is None or found < best:
                best, witness = found, word
            if depth >= k or cover(best) <= r * (depth + 1) - 1:
                if hamming:
                    object.__setattr__(self, "_certificate", (best, witness, r, depth))
                return best, witness, r, depth
            lowest = depth = depth + 1

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


def _pivots(rows) -> tuple:
    """Leading columns of rref rows."""
    return tuple(next(j for j, v in enumerate(row) if v) for row in rows)


def _rotation_closed(code: LinearCode, step: int) -> bool:
    """Whether the row space is closed under rotating the coordinates right by
    `step`: a rotation permutes coordinates, so it is iff the rotated rows
    reduce to the same rref."""
    rotated = np.roll(code.generator._array(), step, axis=1)
    return MatrixGF._from_array(code.field, rotated).rref() == code.generator


def f4_selfdual_distance_cap(n: int) -> int:
    """Distance cap 4*floor(n/12) + 4 for self-dual codes over GF(4)."""
    return 4 * (n // 12) + 4

