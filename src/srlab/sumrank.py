"""Sum-rank ambient spaces, weights, trace duality, and code predicates.

An ambient profile fixes the block shapes (m_i, n_i) of the matrix-tuple
space over F_q; vectors flatten row-major per block with blocks concatenated,
and a code is the LinearCode of its flattened codewords plus the profile.

The trace inner product sum_i Tr(M_i N_i^T) equals the plain dot product of
the flattened vectors, so a code's trace dual is the Euclidean dual of its
flat code and the Hamming layer's duality predicates serve both metrics; the
identity is itself exercised as a test invariant (trace_ip below deliberately
follows the matrix definition rather than the shortcut).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from .code import LinearCode, _rotation_closed
from .errors import LengthMismatch, NonUniformProfile, NotSelfDual, ProfileMismatch, ZeroCode
from .linalg import MatrixGF
from .wordenum import sr_min_weight_generic, sr_min_weight_packed

__all__ = ["BlockProfile", "SumRankVector", "SumRankCode", "DEFAULT_SR_BUDGET"]

DEFAULT_SR_BUDGET = 2**28


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
        sizes = [m * n for m, n in blocks]
        offs = []
        acc = 0
        for s in sizes:
            offs.append(acc)
            acc += s
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "total", acc)

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


class SumRankVector:
    """A tuple of matrices matching a profile."""

    __slots__ = ("profile", "matrices")

    def __init__(self, profile: BlockProfile, matrices: Sequence[MatrixGF]):
        matrices = tuple(matrices)
        if len(matrices) != profile.t:
            raise ProfileMismatch(f"expected {profile.t} blocks, got {len(matrices)}")
        for mat, (m, n) in zip(matrices, profile.blocks):
            if mat.field is not profile.field or mat.shape != (m, n):
                raise ProfileMismatch(f"block shape {mat.shape} != ({m},{n})")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "matrices", matrices)

    def __setattr__(self, name, value):
        raise AttributeError("SumRankVector is immutable")

    @classmethod
    def from_flat(cls, profile: BlockProfile, flat: Sequence[int]) -> "SumRankVector":
        if len(flat) != profile.total:
            raise LengthMismatch(f"flat length {len(flat)} != {profile.total}")
        mats = []
        for off, (m, n) in zip(profile.offsets, profile.blocks):
            rows = [flat[off + r * n : off + (r + 1) * n] for r in range(m)]
            mats.append(MatrixGF(profile.field, rows, n))
        return cls(profile, mats)

    @classmethod
    def zero(cls, profile: BlockProfile) -> "SumRankVector":
        return cls.from_flat(profile, [0] * profile.total)

    def flatten(self) -> Tuple[int, ...]:
        out: List[int] = []
        for mat in self.matrices:
            for row in mat.rows:
                out.extend(row)
        return tuple(out)

    def weight(self) -> int:
        """Sum of the block ranks."""
        return sum(mat.rank() for mat in self.matrices)

    def trace_ip(self, other: "SumRankVector") -> int:
        """sum_i Tr(M_i N_i^T), computed from the definition."""
        if self.profile != other.profile:
            raise ProfileMismatch("profiles differ")
        f = self.profile.field
        acc = 0
        for a, b in zip(self.matrices, other.matrices):
            prod = a.mat_mul(b.transpose())
            for i in range(prod.nrows):
                acc = f.add(acc, prod.rows[i][i])
        return acc

    def cyclic_shift(self) -> "SumRankVector":
        """Rotate the blocks right by one; defined for uniform profiles."""
        if not self.profile.is_uniform():
            raise NonUniformProfile("cyclic shift needs equal block shapes")
        return SumRankVector(self.profile, (self.matrices[-1],) + self.matrices[:-1])

    def __add__(self, other: "SumRankVector") -> "SumRankVector":
        if self.profile != other.profile:
            raise ProfileMismatch("profiles differ")
        f = self.profile.field
        flat_a, flat_b = self.flatten(), other.flatten()
        return SumRankVector.from_flat(
            self.profile, [f.add(x, y) for x, y in zip(flat_a, flat_b)]
        )

    def __sub__(self, other: "SumRankVector") -> "SumRankVector":
        if self.profile != other.profile:
            raise ProfileMismatch("profiles differ")
        f = self.profile.field
        flat_a, flat_b = self.flatten(), other.flatten()
        return SumRankVector.from_flat(
            self.profile, [f.sub(x, y) for x, y in zip(flat_a, flat_b)]
        )

    def distance(self, other: "SumRankVector") -> int:
        return (self - other).weight()

    def __eq__(self, other):
        return (
            isinstance(other, SumRankVector)
            and self.profile == other.profile
            and self.matrices == other.matrices
        )

    def __repr__(self):
        return f"SumRankVector(wt={self.weight()}, {self.profile.blocks})"


class SumRankCode:
    """F_q-linear subspace of a block profile, held as its flat LinearCode.

    Codes are equal iff their profiles and flat codes are; the trace dual is
    the Euclidean dual of the flat code.
    """

    __slots__ = ("profile", "flat")

    def __init__(self, profile: BlockProfile, flat: LinearCode):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "flat", flat)

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

    def contains(self, vector) -> bool:
        word = vector.flatten() if isinstance(vector, SumRankVector) else vector
        return self.flat.contains(word)

    def vectors(self) -> Iterator[SumRankVector]:
        """All q**dim codewords; for small codes only."""
        for flat in self.flat.codewords():
            yield SumRankVector.from_flat(self.profile, flat)

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

    def min_distance(self, budget: int = DEFAULT_SR_BUDGET, jobs: int = 1) -> int:
        """Exact minimum nonzero sum-rank weight by exhausting the code."""
        if self.dim == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        rows = [list(r) for r in self.generator.rows]
        if self.field.order == 2 and self.profile.total <= 64:
            return sr_min_weight_packed(self.field, rows, self.profile.blocks, budget, jobs)

        def rank_of_flat(flat):
            return SumRankVector.from_flat(self.profile, flat).weight()

        return sr_min_weight_generic(self.field, rows, rank_of_flat, budget)

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
        report = {
            "dimension_is_half_ambient": 2 * self.dim == self.profile.total,
        }
        if self.field.characteristic == 2:
            report["contains_all_ones"] = self.contains([1] * self.profile.total)
        else:
            report["contains_all_ones"] = None
        return report
