"""Cyclic codes: cyclotomic cosets, minimal polynomials, BCH generators.

Root-based constructions need a primitive n-th root of unity.  It is pinned
deterministically: with m the multiplicative order of q mod n, the splitting
field GF(q^m) is built with the library's canonical modulus, and the root is
prim**((q**m - 1) / n) for the canonical primitive element.  Published
generator polynomials that depend on the choice of root are therefore only
reproducible up to conjugation, which callers handle by comparing against
frobenius_coeffs of the expected polynomial as well.

Minimal polynomials come from a linear dependency, not from a product of
linear factors in the splitting field: the coordinates over GF(q) of
alpha^0 .. alpha^d (alpha = beta^i, d the size of its coset) span a space of
dimension d, and the one relation among them, made monic, is the minimal
polynomial of alpha.  The coordinates are read from a table of beta's n
powers as base-q digits (the encoding nests): `FieldSpec.powers`, read off
the log tables or, in a field past them, built by doubling (about log2(n)
base-matrix products instead of n - 1 field products).

The splitting field with its root, the table of the root's powers and each
minimal polynomial are built once per interpreter, and so is each partition
into cyclotomic cosets: all are pure functions of a singleton FieldSpec and
ints, cached by functools.lru_cache.  Errors are raised before anything is
cached.

The expression parser accepts the surface syntax used in printed tables:
sums of terms c*x^k with c in {1, w, w^2} and optional parenthesized factors
multiplied together, e.g. "(x+1)(x^6+wx^5+w^2x^3+wx+1)".

Lengths and exponents above linalg.MAX_LENGTH raise LengthTooLarge before any
work proportional to them is done.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .code import LinearCode, _rotation_closed
from .errors import BadDelta, BadPolynomial, NoNontrivialCoset, NotCoprime, NotDivisor
from .field import FieldSpec, extension
from .linalg import MatrixGF, check_length
from .poly import Polynomial

__all__ = [
    "CosetTable",
    "cyclotomic_cosets",
    "min_nontrivial_coset_size",
    "splitting_root",
    "minimal_polynomial",
    "bch_cosets",
    "bch_generator",
    "cyclic_code",
    "cyclic_dual_generator",
    "is_cyclic",
    "parse_poly",
    "frobenius_coeffs",
]


@dataclass(frozen=True)
class CosetTable:
    """Partition of {0..n-1} into q-cyclotomic cosets, each sorted and keyed
    by its minimal representative."""

    q: int
    n: int
    cosets: Tuple[Tuple[int, ...], ...]

    def coset_of(self, i: int) -> Tuple[int, ...]:
        i %= self.n
        for c in self.cosets:
            if i in c:
                return c
        raise KeyError(i)


@functools.lru_cache(maxsize=None)
def cyclotomic_cosets(q: int, n: int) -> CosetTable:
    if n < 1:
        raise NotCoprime("n must be positive")
    check_length(n)
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    seen = [False] * n
    cosets = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (j * q) % n
        cosets.append(tuple(sorted(orbit)))
    return CosetTable(q, n, tuple(cosets))


def min_nontrivial_coset_size(q: int, n: int) -> int:
    """Smallest size among cosets other than {0}."""
    if n < 2:
        raise NoNontrivialCoset("n must be at least 2")
    table = cyclotomic_cosets(q, n)
    sizes = [len(c) for c in table.cosets if c != (0,)]
    return min(sizes)


def _order_mod(q: int, n: int) -> int:
    if n == 1:
        return 1
    m = 1
    v = q % n
    while v != 1:
        v = (v * q) % n
        m += 1
    return m


@functools.lru_cache(maxsize=None)
def splitting_root(field: FieldSpec, n: int):
    """(splitting field, beta) with beta a primitive n-th root of unity.

    beta = prim**((q^m - 1)/n) in GF(q^m), m the order of q mod n.
    """
    q = field.order
    if n < 1:
        raise NotCoprime("n must be positive")
    check_length(n)
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    m = _order_mod(q, n)
    ext = field if m == 1 else extension(field, m)
    beta = ext.pow(ext.primitive_element, (ext.order - 1) // n)
    return ext, beta


@functools.lru_cache(maxsize=None)
def _root_digits(field: FieldSpec, n: int) -> np.ndarray:
    """The coordinates over `field` of beta^0 .. beta^(n-1), beta the pinned
    n-th root: a read-only (n, m) int64 array, m = [ext : field].

    The encoding nests, so the coordinates of an element are its m base-q
    digits, and over GF(q) itself (m = 1) the element alone.  The powers come
    from `FieldSpec.powers` (read off log tables, or by doubling), once per
    (field, n).
    """
    ext, beta = splitting_root(field, n)
    places = field.order ** np.arange(ext.degree_over(field), dtype=np.int64)
    digits = np.array(ext.powers(beta, n), np.int64)[:, None] // places % field.order
    digits.flags.writeable = False
    return digits


@functools.lru_cache(maxsize=None)
def minimal_polynomial(field: FieldSpec, n: int, i: int) -> Polynomial:
    """Minimal polynomial over `field` of alpha = beta**i, beta the pinned n-th root.

    With d the size of the coset of i, the coordinates over `field` of
    alpha^0 .. alpha^d (alpha^k = beta^(ik mod n)) satisfy exactly one linear
    relation; its coefficients, scaled so that the x^d one is 1, are the
    polynomial's.
    """
    digits = _root_digits(field, n)
    d = len(cyclotomic_cosets(field.order, n).coset_of(i))
    rows = digits[i % n * np.arange(d + 1) % n]
    kernel = MatrixGF._from_array(field, rows.T).kernel_basis()
    if kernel.nrows != 1:
        raise AssertionError("powers of the root have no single relation; tower arithmetic is broken")
    coeffs = kernel._array()[0].tolist()
    top = field.inv(coeffs[-1])
    return Polynomial(field, [field.mul(top, c) for c in coeffs])


def bch_cosets(q: int, n: int, delta: int, b: int) -> List[Tuple[int, ...]]:
    """The defining set of a BCH code: the q-cyclotomic cosets of the
    exponents b .. b+delta-2, in order of first appearance.

    Exponents are reduced mod n, so only the first min(delta - 1, n) give
    distinct residues.
    """
    if delta < 2:
        raise BadDelta("designed distance must be at least 2")
    table = cyclotomic_cosets(q, n)
    return list(dict.fromkeys(table.coset_of(j % n) for j in range(b, b + min(delta - 1, n))))


def bch_generator(field: FieldSpec, n: int, delta: int, b: int) -> Polynomial:
    """lcm of the minimal polynomials of beta^b .. beta^(b+delta-2): the
    product of the distinct cosets' minimal polynomials, which are coprime.
    The result is monic and divides x^n - 1."""
    g = Polynomial.one(field)
    for coset in bch_cosets(field.order, n, delta, b):
        g = g * minimal_polynomial(field, n, coset[0])
    return g


def _cofactor(g: Polynomial, n: int) -> Polynomial:
    """(x^n - 1) / g; raises NotDivisor unless g divides x^n - 1."""
    if n < 1:
        raise NotCoprime("n must be positive")
    check_length(n)
    if g:
        h, r = divmod(Polynomial.x_pow_minus_one(g.field, n), g)
        if r.is_zero:
            return h
    raise NotDivisor(f"{g} does not divide x^{n} - 1")


def cyclic_code(g: Polynomial, n: int) -> LinearCode:
    """The length-n cyclic code generated by g; g must divide x^n - 1."""
    _cofactor(g, n)
    rows = []
    for i in range(n - g.degree):
        row = [0] * n
        for j, c in enumerate(g.coeffs):
            row[i + j] = c
        rows.append(row)
    return LinearCode.from_rows(g.field, n, rows)


def cyclic_dual_generator(g: Polynomial, n: int) -> Polynomial:
    """Generator of the dual cyclic code: monic reciprocal of (x^n - 1)/g."""
    return _cofactor(g, n).reciprocal_monic()


def is_cyclic(code: LinearCode) -> bool:
    """Whether the row space is closed under the one-step cyclic shift."""
    return _rotation_closed(code, 1)


def frobenius_coeffs(p: Polynomial) -> Polynomial:
    """Apply c -> c^q0 to each coefficient (q0 = characteristic); over GF(4)
    this is exactly the w <-> w^2 conjugation."""
    f = p.field
    q0 = f.characteristic
    return p.map_coeffs(lambda c: f.pow(c, q0))


# a longer digit run lies beyond every bound, and int() refuses it past 4300 digits
_LONG_NUMBER = re.compile(r"\d{19}")
_TERM_RE = re.compile(r"^(?:(?P<coef>w(?:\^?(?P<cexp>\d+))?|\d+)\*?)?(?:x(?:\^(?P<xexp>\d+))?)?$")


def _parse_sum(field: FieldSpec, text: str) -> Polynomial:
    w = field.primitive_element
    acc = Polynomial.zero(field)
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise BadPolynomial(f"empty term in {text!r}")
        if _LONG_NUMBER.search(term):
            raise BadPolynomial(f"number of more than 18 digits in term {term[:24]!r}")
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and "x" not in term):
            raise BadPolynomial(f"cannot parse term {term!r}")
        coef = m.group("coef")
        if coef is None:
            c = 1
        elif coef.startswith("w"):
            e = int(m.group("cexp") or 1)
            c = field.pow(w, e)
        else:
            c = int(coef) % field.characteristic
        k = 0
        if "x" in term:
            k = int(m.group("xexp") or 1)
            check_length(k, "exponent")
        mono = [0] * (k + 1)
        mono[k] = c
        acc = acc + Polynomial(field, mono)
    return acc


def parse_poly(field: FieldSpec, text: str) -> Polynomial:
    """Parse table-style polynomial syntax, including products of
    parenthesized sums."""
    text = text.replace(" ", "").replace("{", "").replace("}", "")
    if not text:
        raise BadPolynomial("empty polynomial")
    if "(" not in text:
        return _parse_sum(field, text)
    prod = Polynomial.one(field)
    depth = 0
    start = None
    consumed = 0
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise BadPolynomial(f"unbalanced parentheses in {text!r}")
            if depth == 0:
                prod = prod * _parse_sum(field, text[start:i])
                consumed = i + 1
        elif depth == 0:
            raise BadPolynomial(f"unexpected {ch!r} outside parentheses in {text!r}")
    if depth != 0 or consumed != len(text):
        raise BadPolynomial(f"unbalanced parentheses in {text!r}")
    return prod
