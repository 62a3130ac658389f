"""Sum-rank ambient spaces, weights, trace duality, and code predicates.

An ambient profile fixes the block shapes (m_i, n_i) of the matrix-tuple
space over F_q.  A sum-rank vector is its flat word: each block row-major,
blocks concatenated.  The profile reads a word as its matrix blocks, and its
weight is the sum of the block ranks.  A code is the LinearCode of its flat
codewords plus the profile.

The trace inner product sum_i Tr(M_i N_i^T) equals the plain dot product of
the flat words, so a code's trace dual is the Euclidean dual of its flat
code and the Hamming layer's duality predicates serve both metrics; the
identity is itself exercised as a test invariant (trace_ip below deliberately
follows the matrix definition rather than the shortcut).
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from .code import DEFAULT_WORD_BUDGET, LinearCode, _rotation_closed
from .errors import LengthMismatch, NonUniformProfile, NotSelfDual, ProfileMismatch, ZeroCode
from .linalg import MatrixGF, check_entries
from .wordenum import (_LUT_BITS, block_rank_lut, block_ranks, packable_sum_rank,
                       sr_min_weight_generic, sr_min_weight_packed)

__all__ = ["BlockProfile", "SumRankCode"]

@functools.lru_cache(maxsize=None)
def _shapes(blocks, f2: bool) -> tuple:
    """The blocks grouped for `BlockProfile.weights`: (shape, columns, bit
    values, rank table) per shape, the columns a row of flat positions per
    block, the table None unless `f2` (GF(2)) and mn <= _LUT_BITS."""
    groups = {}
    offsets = itertools.accumulate((m * n for m, n in blocks), initial=0)
    for off, (m, n) in zip(offsets, blocks):
        groups.setdefault((m, n), []).append(range(off, off + m * n))
    return tuple(((m, n), np.array(cols, dtype=np.intp), 1 << np.arange(m * n, dtype=np.intp),
                  block_rank_lut(m, n) if f2 and m * n <= _LUT_BITS else None)
                 for (m, n), cols in groups.items())


class BlockProfile:
    """The space F_q^{(m_1,n_1),...,(m_t,n_t)}; block order is data and is
    kept exactly as given."""

    __slots__ = ("field", "blocks", "offsets", "total")

    def __init__(self, field, blocks: Sequence[Tuple[int, int]]):
        blocks = tuple((int(m), int(n)) for m, n in blocks)
        for m, n in blocks:
            if not (1 <= m <= n):
                raise ProfileMismatch(f"block ({m},{n}) violates m <= n")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "blocks", blocks)
        *offsets, total = itertools.accumulate((m * n for m, n in blocks), initial=0)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "total", total)

    def __setattr__(self, name, value):
        raise AttributeError("BlockProfile is immutable")

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def max_weight(self) -> int:
        return sum(m for m, _ in self.blocks)

    def is_uniform(self) -> bool:
        return len(set(self.blocks)) <= 1

    def _check(self, word: Sequence[int]) -> None:
        if len(word) != self.total:
            raise LengthMismatch(f"word length {len(word)} != {self.total}")
        check_entries(self.field, [word])

    def matrices(self, word: Sequence[int]) -> Tuple[MatrixGF, ...]:
        """The blocks of a flat word, each read row-major."""
        self._check(word)
        return tuple(
            MatrixGF(self.field, [word[off + r * n : off + (r + 1) * n] for r in range(m)], n)
            for off, (m, n) in zip(self.offsets, self.blocks)
        )

    def weight(self, word: Sequence[int]) -> int:
        """Sum-rank weight: the sum of the block ranks, `weights` of the one
        word."""
        self._check(word)
        return int(self.weights([word])[0])

    def weights(self, words) -> np.ndarray:
        """Sum-rank weight of each row of a 2-D array of flat words (a chunk
        of `wordenum.codeword_chunks`), as an intp array.

        The blocks of each shape are scored together: over GF(2) a shape of
        at most _LUT_BITS bits reads its rank table at each block's bits
        times powers of 2, any other shape is one `wordenum.block_ranks`.
        """
        words = np.asarray(words)
        if words.ndim != 2 or words.shape[1] != self.total:
            raise LengthMismatch(f"words of shape {words.shape} are not rows of length {self.total}")
        if words.size and (words.min() < 0 or words.max() >= self.field.order):
            check_entries(self.field, words.tolist())
        acc = np.zeros(len(words), dtype=np.intp)
        for (m, n), cols, bits, lut in _shapes(self.blocks, self.field.order == 2):
            ranks = (block_ranks(self.field, words[:, cols].reshape(-1, m, n)) if lut is None
                     else lut[words[:, cols] @ bits])
            acc += ranks.reshape(len(words), len(cols)).sum(axis=1, dtype=np.intp)
        return acc

    def trace_ip(self, u: Sequence[int], v: Sequence[int]) -> int:
        """sum_i Tr(M_i N_i^T), computed from the definition."""
        f = self.field
        acc = 0
        for a, b in zip(self.matrices(u), self.matrices(v)):
            prod = a.mat_mul(b.transpose())
            for i in range(prod.nrows):
                acc = f.add(acc, prod.rows[i][i])
        return acc

    def cyclic_shift(self, word: Sequence[int]) -> Tuple[int, ...]:
        """Rotate the blocks right by one; defined for uniform profiles."""
        if not self.is_uniform():
            raise NonUniformProfile("cyclic shift needs equal block shapes")
        self._check(word)
        last = self.offsets[-1] if self.blocks else 0
        return tuple(word[last:]) + tuple(word[:last])

    def __eq__(self, other):
        return (
            isinstance(other, BlockProfile)
            and self.field is other.field
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((id(self.field), self.blocks))

    def __repr__(self):
        return f"BlockProfile({self.blocks} over GF({self.field.order}))"


class SumRankCode:
    """F_q-linear subspace of a block profile, held as its flat LinearCode.

    Codes are equal iff their profiles and flat codes are; the trace dual is
    the Euclidean dual of the flat code.  A code built by expanding a code
    over GF(q^m) keeps that code's independent rows as `symbols` (a
    MatrixGF over GF(q^m), chunk i of a row expanding into block i), which
    equality ignores; every other code has None.
    """

    __slots__ = ("profile", "flat", "symbols")

    def __init__(self, profile: BlockProfile, flat: LinearCode, symbols: Optional[MatrixGF] = None):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "symbols", symbols)

    def __setattr__(self, name, value):
        raise AttributeError("SumRankCode is immutable")

    @classmethod
    def from_rows(cls, profile: BlockProfile, rows: Sequence[Sequence[int]]) -> "SumRankCode":
        return cls(profile, LinearCode.from_rows(profile.field, profile.total, rows))

    @classmethod
    def zero(cls, profile: BlockProfile) -> "SumRankCode":
        return cls(profile, LinearCode.zero(profile.field, profile.total))

    @classmethod
    def full(cls, profile: BlockProfile) -> "SumRankCode":
        return cls(profile, LinearCode.full(profile.field, profile.total))

    @property
    def generator(self) -> MatrixGF:
        return self.flat.generator

    @property
    def dim(self) -> int:
        return self.flat.k

    @property
    def field(self):
        return self.profile.field

    def __eq__(self, other):
        return (
            isinstance(other, SumRankCode)
            and self.profile == other.profile
            and self.flat == other.flat
        )

    def __hash__(self):
        return hash((self.profile, self.flat))

    def __repr__(self):
        return f"SumRankCode(dim={self.dim}, {self.profile.blocks})"

    def contains(self, word: Sequence[int]) -> bool:
        return self.flat.contains(word)

    # -- duality ------------------------------------------------------------

    def dual(self) -> "SumRankCode":
        """Trace-dual via the flatten identity: the flat code's dual."""
        return SumRankCode(self.profile, self.flat.dual())

    def is_self_dual(self) -> bool:
        return self.flat.is_self_dual()

    def hull_dimension(self) -> int:
        return self.flat.hull_dimension()

    def is_lcd(self) -> bool:
        return self.flat.is_lcd()

    # -- metric ---------------------------------------------------------------

    def min_distance(self, budget: int = DEFAULT_WORD_BUDGET) -> int:
        """Exact minimum nonzero sum-rank weight by exhausting the code, one
        word per line.

        The expansion of GF(4) symbols of length at most 64 over GF(2) walks
        the lines of its symbol code (`sr_min_weight_packed`), so a budget
        cut covers the symbol code's messages; 4**K of them are the code's
        2**(2K) codewords.
        """
        if self.dim == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        sym = self.symbols
        if sym is not None and sym.field.order == 4 and self.field.order == 2 and sym.ncols <= 64:
            return sr_min_weight_packed(sym.field, sym.rows, self.profile.blocks, budget)
        rows = self.generator.rows
        if packable_sum_rank(self.field, self.profile.blocks):
            return sr_min_weight_packed(self.field, rows, self.profile.blocks, budget)
        return sr_min_weight_generic(self.field, rows, self.profile.weights, budget)

    # -- structure ---------------------------------------------------------------

    def is_cyclic(self) -> bool:
        """Closure of the row space under the block rotation."""
        if not self.profile.is_uniform():
            raise NonUniformProfile("cyclic test needs equal block shapes")
        return _rotation_closed(self.flat, self.profile.total // max(1, self.profile.t))

    def structural_report(self) -> dict:
        """Checks every self-dual sum-rank code must pass.

        dimension_is_half_ambient always applies; contains_all_ones only
        in characteristic 2 (None otherwise).
        """
        if not self.is_self_dual():
            raise NotSelfDual("structural checks apply to self-dual codes")
        total = self.profile.total
        ones = self.contains([1] * total) if self.field.characteristic == 2 else None
        return {"dimension_is_half_ambient": 2 * self.dim == total, "contains_all_ones": ones}
