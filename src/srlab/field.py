"""Finite field towers with canonical integer element encoding.

A field is either a prime field GF(p) or an extension of an explicitly named
base field by a monic irreducible modulus.  Every element is encoded as a
canonical integer: for a prime field the residue itself, for an extension
sum(c_i * B**i) where (c_0, ..., c_{m-1}) are the coordinates over the base
(canonical integers again, B = base order).  The encoding nests, so subfield
elements keep the same integer when lifted up a tower, and "lies in the
subfield" is simply "value < suborder".

Arithmetic on canonical integers lives on the FieldSpec: log/antilog tables
are built for orders up to 2**16, and larger extensions (and table builds)
multiply as polynomials modulo the modulus (`_raw_mul`).  Over a base of
GF(2) or GF(4) that product runs on the two bitplane integers of the
coordinates (srlab.planes), reduced by the modulus kept as one
`planes.Divisor` per field: over GF(2) the canonical integer is its own lo
plane, over GF(4) its even and odd bits are the lo and hi planes.  Other
bases multiply coordinate vectors entry by entry.  Characteristic-2
addition is XOR at every tower level.

The antilog table g^0 .. g^(n-1) (n = order - 1, g the primitive element)
is `powers(g, n)`.  In an extension of degree m past m + 1 powers it is
built by doubling: multiplication by x is linear over the base, so with the
digit columns of x^0 .. x^(k-1) known, the m x m base matrix of x^k times
them gives x^k .. x^(2k-1), and that matrix squared is the one of x^(2k).
The matrix of x costs m `_raw_mul` calls, each step one
`linalg._tables(base).product` for the new columns and one for the square,
so n powers take about log2(n) steps.  Prime fields and shorter counts (GF(4)
among them) walk; the log table inverts the antilog table.  The same
`powers` gives the root tables of srlab.cyclic, in fields past the tables.

Construction is deterministic end to end: unspecified moduli are the
lexicographically smallest monic irreducibles (high-degree coefficients
compared first), and the primitive element is the first generator in
canonical integer order.  This pins down every derived object, e.g. which
n-th root of unity the cyclic machinery uses.
"""

from __future__ import annotations

import functools
import threading
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    FieldMismatch,
    FieldTooLarge,
    LengthMismatch,
    NotPrime,
    NotSubfield,
    Reducible,
    SearchExceeded,
)
from .linalg import MatrixGF, _tables, check_entries
from .planes import Divisor, int_planes, mul, on_planes, pack_row_planes, planes_int
from .poly import Polynomial, is_irreducible, prime_factors, smallest_irreducible

__all__ = [
    "FieldSpec",
    "Basis",
    "prime_field",
    "extension",
    "trace_to",
    "dual_basis",
    "self_dual_basis",
]

_LOG_TABLE_MAX = 1 << 16
_MAX_ORDER_BITS = 32
_MAX_ORDER = 1 << _MAX_ORDER_BITS  # GF(4^10) = 2^20 is the largest field in use


class FieldSpec:
    """One level of a field tower.  Never construct directly; use
    prime_field / extension so instances are cached singletons."""

    def __init__(self, characteristic, degree_over_base, order, base, mod_coeffs):
        self.characteristic = characteristic
        self.degree_over_base = degree_over_base
        self.order = order
        self.base = base  # FieldSpec or None for prime fields
        self._mod = mod_coeffs  # tuple over base, len m+1, monic; None for prime
        # the modulus as a kept plane divisor where the base is GF(2) or GF(4), else None
        self._mod_div = (Divisor(pack_row_planes(base, mod_coeffs))
                         if base is not None and on_planes(base) else None)
        self._xor_add = characteristic == 2
        self._exp = None
        self._log = None
        self.primitive_element = None  # set by the builders

    # -- encoding helpers -------------------------------------------------

    def coords(self, value: int):
        """Coordinate vector over the base, length degree_over_base."""
        if self.base is None:
            return (value,)
        b = self.base.order
        out = []
        for _ in range(self.degree_over_base):
            out.append(value % b)
            value //= b
        return tuple(out)

    def from_coords(self, coords) -> int:
        if self.base is None:
            return coords[0]
        b = self.base.order
        v = 0
        for c in reversed(coords):
            v = v * b + c
        return v

    # -- raw arithmetic on canonical integers ------------------------------

    def add(self, a: int, b: int) -> int:
        if self._xor_add:
            return a ^ b
        if self.base is None:
            return (a + b) % self.order
        base = self.base
        return self.from_coords(
            tuple(base.add(x, y) for x, y in zip(self.coords(a), self.coords(b)))
        )

    def neg(self, a: int) -> int:
        if self._xor_add:
            return a
        if self.base is None:
            return (-a) % self.order
        base = self.base
        return self.from_coords(tuple(base.neg(x) for x in self.coords(a)))

    def sub(self, a: int, b: int) -> int:
        if self._xor_add:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.base is None:
            return (a * b) % self.order
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        if self.base is None:
            return pow(a, self.order - 2, self.order)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        n = self.order - 1
        e %= n
        if e == 0:
            return 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % n]
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def _raw_mul(self, a: int, b: int) -> int:
        base = self.base
        m = self.degree_over_base
        if self._mod_div is not None:
            if base.order == 2:
                return self._mod_div.remainder(mul((a, 0), (b, 0)))[0]
            prod = mul(int_planes(a, m), int_planes(b, m))
            return planes_int(*self._mod_div.remainder(prod), m)
        ca, cb = self.coords(a), self.coords(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x == 0:
                continue
            for j, y in enumerate(cb):
                if y:
                    prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        mod = self._mod
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(m):
                if mod[j]:
                    prod[i - m + j] = base.sub(prod[i - m + j], base.mul(c, mod[j]))
        return self.from_coords(prod[:m])

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.order - 1
        order = n
        for p in prime_factors(n):
            while order % p == 0 and self.pow(a, order // p) == 1:
                order //= p
        return order

    def powers(self, x: int, count: int) -> list:
        """x^0 .. x^(count-1) as canonical integers.

        A field with log tables reads them off.  A prime field, or a count
        of at most m + 1 (m = degree over the base: a walk of no more
        products than the matrix below costs), walks `mul`.  Otherwise by
        doubling: S is the m x m base matrix of y -> x y, column j the digits
        of x X^j (X^j encoded as q^j, q = base order).  With the digit
        columns of x^0 .. x^(k-1) known, S times them are those of
        x^k .. x^(2k-1), and S squared is the matrix of x^(2k): about
        log2(count) pairs of `_tables(base).product`.
        """
        if count < 1:
            return []
        if self._exp is not None:
            if x == 0:
                return [1] + [0] * (count - 1)
            n, step = self.order - 1, self._log[x]
            return [self._exp[step * k % n] for k in range(count)]
        m = self.degree_over_base
        if self.base is None or count <= m + 1:
            out = [1]
            for _ in range(count - 1):
                out.append(self.mul(out[-1], x))
            return out
        q = self.base.order
        t = _tables(self.base)
        places = q ** np.arange(m, dtype=np.int64)
        matrix = (np.array([self.mul(x, q**j) for j in range(m)], np.int64)
                  // places[:, None] % q).astype(t.dtype)
        cols = np.zeros((m, 1), t.dtype)
        cols[0, 0] = 1  # the digits of x^0
        while True:
            block = cols[:, :count - cols.shape[1]]
            cols = np.concatenate([cols, t.product(matrix, block)], axis=1)
            if cols.shape[1] == count:
                return (places @ cols.astype(np.int64)).tolist()
            matrix = t.product(matrix, matrix)

    def _build_tables(self):
        if not (2 < self.order <= _LOG_TABLE_MAX):
            return
        exp = self.powers(self.primitive_element, self.order - 1)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp + exp
        self._log = log

    def _find_primitive(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        primes = prime_factors(n)
        for g in range(2, self.order):
            if all(self.pow(g, n // p) != 1 for p in primes):
                return g
        raise SearchExceeded("no primitive element found (impossible)")

    # -- tower structure ----------------------------------------------------

    @property
    def modulus(self) -> Optional[Polynomial]:
        if self.base is None:
            return None
        return Polynomial(self.base, self._mod)

    def tower(self):
        """Chain from this field down to the prime field."""
        chain = [self]
        f = self
        while f.base is not None:
            f = f.base
            chain.append(f)
        return chain

    def has_substep(self, sub: "FieldSpec") -> bool:
        return any(f is sub for f in self.tower())

    def degree_over(self, sub: "FieldSpec") -> int:
        d = 1
        for f in self.tower():
            if f is sub:
                return d
            d *= f.degree_over_base
        raise NotSubfield(f"GF({sub.order}) is not a step of this tower")

    def __repr__(self):
        return f"GF({self.order})"


_field_cache_lock = threading.Lock()


@functools.lru_cache(maxsize=None)
def _prime_field_cached(p: int) -> FieldSpec:
    f = FieldSpec(p, 1, p, None, None)
    f.primitive_element = f._find_primitive()
    f._build_tables()
    return f


def prime_field(p: int) -> FieldSpec:
    """GF(p).  Primality is checked by trial division, after the order bound."""
    if p > _MAX_ORDER:
        raise FieldTooLarge(f"GF({p}) exceeds the field-order bound 2^{_MAX_ORDER_BITS}")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise NotPrime(f"{p} is not prime")
    with _field_cache_lock:
        return _prime_field_cached(p)


@functools.lru_cache(maxsize=None)
def _extension_cached(base: FieldSpec, m: int, mod_coeffs) -> FieldSpec:
    f = FieldSpec(base.characteristic, m, base.order**m, base, mod_coeffs)
    f.primitive_element = f._find_primitive()
    f._build_tables()
    return f


def extension(base: FieldSpec, m: int, modulus: Optional[Polynomial] = None) -> FieldSpec:
    """Degree-m extension of `base`.

    With no modulus given, the lexicographically smallest monic irreducible
    of degree m over the base is selected, so repeated calls agree.
    """
    if m < 1:
        raise DegreeMismatch("extension degree must be positive")
    # the order is at least 2^m, so m is bounded before base.order**m is formed
    if m > _MAX_ORDER_BITS or base.order**m > _MAX_ORDER:
        raise FieldTooLarge(
            f"GF({base.order}^{m}) exceeds the field-order bound 2^{_MAX_ORDER_BITS}"
        )
    if modulus is None:
        modulus = smallest_irreducible(base, m)
    else:
        if modulus.field is not base:
            raise FieldMismatch("modulus must live over the base field")
        if modulus.degree != m:
            raise DegreeMismatch(f"modulus degree {modulus.degree}, expected {m}")
        if not modulus.is_monic:
            raise Reducible("modulus must be monic")
        if not is_irreducible(modulus):
            raise Reducible(f"{modulus} factors over GF({base.order})")
    with _field_cache_lock:
        return _extension_cached(base, m, modulus.coeffs)


def trace_to(field: FieldSpec, x: int, target: FieldSpec) -> int:
    """Relative trace sum(x**(q**i), i < m) of x in `field` down to `target` (order q)."""
    check_entries(field, [(x,)])
    if not field.has_substep(target):
        raise NotSubfield(f"GF({target.order}) does not appear in the tower of GF({field.order})")
    if field is target:
        return x
    m = field.degree_over(target)
    q = target.order
    acc = 0
    t = x
    for _ in range(m):
        acc = field.add(acc, t)
        t = field.pow(t, q)
    # the trace of the full orbit lands in the subfield by construction
    if acc >= target.order:
        raise AssertionError("trace left the subfield; tower arithmetic is broken")
    return acc


class Basis:
    """Ordered basis of an extension over its immediate-or-deeper base.

    `sub` defaults to the field's immediate base.  The encoding nests, so an
    element's coordinates over `sub` are its m base-|sub| digits,
    little-endian.  The coefficients over the basis are those digits times
    the inverse of the digit matrix (column j the digits of element j), which
    is solved once, when the basis is built; `coefficients` expands a whole
    array in one product.
    """

    def __init__(self, field: FieldSpec, elements: Sequence[int], sub: Optional[FieldSpec] = None):
        sub = sub if sub is not None else field.base
        if sub is None:
            raise NotSubfield("prime fields have no basis over a subfield")
        m = field.degree_over(sub)
        elements = tuple(elements)
        check_entries(field, [elements])
        if len(elements) != m:
            raise LengthMismatch(f"need {m} elements, got {len(elements)}")
        self.field = field
        self.sub = sub
        self.elements = elements
        self._places = sub.order ** np.arange(m, dtype=np.int64)
        digits = np.array(elements, np.int64)[:, None] // self._places % sub.order
        try:
            inverse = MatrixGF._from_array(sub, digits.T).invert()
        except DimensionMismatch:
            raise LengthMismatch("basis elements are linearly dependent") from None
        self._inverse = inverse._array()

    @property
    def size(self) -> int:
        return len(self.elements)

    def coefficients(self, values) -> np.ndarray:
        """Coefficients over this basis of every element of an int array: an
        int64 array of the input's shape with one more axis, of length m.

        The range is checked before the int64 conversion, so an int past
        int64 raises EntryOutOfRange like any other.
        """
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= self.field.order):
            check_entries(self.field, [values.ravel().tolist()])
        digits = values.astype(np.int64)[..., None] // self._places % self.sub.order
        t = _tables(self.sub)
        solved = t.product(self._inverse, digits.reshape(-1, self.size).T.astype(t.dtype))
        return solved.T.astype(np.int64).reshape(digits.shape)

    def expand(self, x: int):
        """Coefficients of x over this basis (tuple of sub-field integers)."""
        return tuple(self.coefficients([x])[0].tolist())

    def combine(self, coords) -> int:
        if len(coords) != self.size:
            raise LengthMismatch(f"need {self.size} coordinates")
        f = self.field
        acc = 0
        for c, g in zip(coords, self.elements):
            if c:
                acc = f.add(acc, f.mul(c, g))  # sub elements lift to the same int
        return acc

    def dual(self) -> "Basis":
        return dual_basis(self)

    def is_self_dual(self) -> bool:
        return self.dual().elements == self.elements

    def __eq__(self, other):
        return (
            isinstance(other, Basis)
            and self.field is other.field
            and self.sub is other.sub
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"Basis({list(self.elements)} of GF({self.field.order})/GF({self.sub.order}))"


def dual_basis(basis: Basis) -> Basis:
    """The unique basis B' with trace(g_i * g'_j) = delta_ij.

    Solved from the trace Gram matrix: if G_ij = Tr(g_i g_j) then the dual
    elements are g'_j = sum_k (G^-1)_kj g_k.
    """
    f = basis.field
    sub = basis.sub
    m = basis.size
    els = basis.elements
    gram = MatrixGF(sub, [[trace_to(f, f.mul(a, b), sub) for b in els] for a in els], m)
    ginv = gram.invert()
    return Basis(f, [basis.combine([ginv.rows[k][j] for k in range(m)]) for j in range(m)], sub)


def self_dual_basis(field: FieldSpec, sub: Optional[FieldSpec] = None, budget: int = 500_000) -> Optional[Basis]:
    """A basis equal to its own trace-dual, or None when none exists.

    Existence criterion: q even, or q and m both odd (q = |sub|, m the
    degree).  The search is a deterministic backtrack over canonical element
    order; orthonormal prefixes are automatically independent, so only the
    delta condition is checked.  `budget` caps visited nodes (SearchExceeded).
    """
    sub = sub if sub is not None else field.base
    if sub is None:
        raise NotSubfield("prime fields have no basis over a subfield")
    q = sub.order
    m = field.degree_over(sub)
    if q % 2 == 1 and m % 2 == 0:
        return None

    tr = lambda v: trace_to(field, v, sub)
    nodes = 0
    chosen = []

    def extendable(v):
        if tr(field.mul(v, v)) != 1:
            return False
        return all(tr(field.mul(v, c)) == 0 for c in chosen)

    def search():
        nonlocal nodes
        if len(chosen) == m:
            return True
        # the delta condition is permutation-invariant, so searching in
        # increasing canonical order loses no solutions
        start = chosen[-1] + 1 if chosen else 1
        for v in range(start, field.order):
            nodes += 1
            if nodes > budget:
                raise SearchExceeded(f"self-dual basis search exceeded {budget} nodes")
            if extendable(v):
                chosen.append(v)
                if search():
                    return True
                chosen.pop()
        return False

    if not search():
        raise SearchExceeded("existence criterion satisfied but search found no basis")
    return Basis(field, chosen, sub)
