"""Cyclic codes: cyclotomic cosets, minimal polynomials, BCH generators.

Root-based constructions need a primitive n-th root of unity.  It is pinned
deterministically: with m the multiplicative order of q mod n, the splitting
field GF(q^m) is built with the library's canonical modulus, and the root is
prim**((q**m - 1) / n) for the canonical primitive element.  Published
generator polynomials that depend on the choice of root are therefore only
reproducible up to conjugation, which callers handle by comparing against
frobenius_coeffs of the expected polynomial as well.

The expression parser accepts the surface syntax used in printed tables:
sums of terms c*x^k with c in {1, w, w^2} and optional parenthesized factors
multiplied together, e.g. "(x+1)(x^6+wx^5+w^2x^3+wx+1)".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Tuple

from .code import LinearCode, _rotation_closed
from .errors import BadDelta, NoNontrivialCoset, NotCoprime, NotDivisor
from .field import FieldSpec, extension
from .poly import Polynomial, poly_lcm

__all__ = [
    "CosetTable",
    "cyclotomic_cosets",
    "min_nontrivial_coset_size",
    "splitting_root",
    "minimal_polynomial",
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


def cyclotomic_cosets(q: int, n: int) -> CosetTable:
    if n < 1:
        raise NotCoprime("n must be positive")
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


def splitting_root(field: FieldSpec, n: int):
    """(splitting field, beta) with beta a primitive n-th root of unity.

    beta = prim**((q^m - 1)/n) in GF(q^m), m the order of q mod n.
    """
    q = field.order
    if math.gcd(q, n) != 1:
        raise NotCoprime(f"gcd({q}, {n}) != 1")
    m = _order_mod(q, n)
    ext = field if m == 1 else extension(field, m)
    beta = ext.pow(ext.primitive_element, (ext.order - 1) // n)
    return ext, beta


def minimal_polynomial(field: FieldSpec, n: int, i: int) -> Polynomial:
    """Minimal polynomial over `field` of beta**i, beta the pinned n-th root."""
    ext, beta = splitting_root(field, n)
    coset = cyclotomic_cosets(field.order, n).coset_of(i)
    prod = Polynomial.one(ext)
    for j in coset:
        root = ext.pow(beta, j)
        prod = prod * Polynomial(ext, (ext.neg(root), 1))
    coeffs = []
    for c in prod.coeffs:
        if c >= field.order:
            raise AssertionError("minimal polynomial left the base field")
        coeffs.append(c)
    return Polynomial(field, coeffs)


def bch_generator(field: FieldSpec, n: int, delta: int, b: int) -> Polynomial:
    """lcm of the minimal polynomials of beta^b .. beta^(b+delta-2).

    Exponents are reduced mod n, so only the first min(delta - 1, n) give
    distinct residues; the result is monic and divides x^n - 1.
    """
    if delta < 2:
        raise BadDelta("designed distance must be at least 2")
    if math.gcd(field.order, n) != 1:
        raise NotCoprime(f"gcd({field.order}, {n}) != 1")
    table = cyclotomic_cosets(field.order, n)
    reps = []
    for j in range(b, b + min(delta - 1, n)):
        rep = table.coset_of(j % n)[0]
        if rep not in reps:
            reps.append(rep)
    g = Polynomial.one(field)
    for rep in reps:
        g = poly_lcm(g, minimal_polynomial(field, n, rep))
    return g


def cyclic_code(g: Polynomial, n: int) -> LinearCode:
    """The length-n cyclic code generated by g; g must divide x^n - 1."""
    field = g.field
    xn1 = Polynomial.x_pow_minus_one(field, n)
    if g.is_zero or not (xn1 % g).is_zero:
        raise NotDivisor(f"{g} does not divide x^{n} - 1")
    deg = g.degree
    rows = []
    for i in range(n - deg):
        row = [0] * n
        for j, c in enumerate(g.coeffs):
            row[i + j] = c
        rows.append(row)
    return LinearCode.from_rows(field, n, rows)


def cyclic_dual_generator(g: Polynomial, n: int) -> Polynomial:
    """Generator of the dual cyclic code: monic reciprocal of (x^n - 1)/g."""
    field = g.field
    xn1 = Polynomial.x_pow_minus_one(field, n)
    if g.is_zero or not (xn1 % g).is_zero:
        raise NotDivisor(f"{g} does not divide x^{n} - 1")
    h = xn1 // g
    return h.reciprocal_monic()


def is_cyclic(code: LinearCode) -> bool:
    """Whether the row space is closed under the one-step cyclic shift."""
    return _rotation_closed(code, 1)


def frobenius_coeffs(p: Polynomial) -> Polynomial:
    """Apply c -> c^q0 to each coefficient (q0 = characteristic); over GF(4)
    this is exactly the w <-> w^2 conjugation."""
    f = p.field
    q0 = f.characteristic
    return p.map_coeffs(lambda c: f.pow(c, q0))


_TERM_RE = re.compile(r"^(?:(?P<coef>w(?:\^?(?P<cexp>\d+))?|\d+)\*?)?(?:x(?:\^(?P<xexp>\d+))?)?$")


def _parse_sum(field: FieldSpec, text: str) -> Polynomial:
    w = field.primitive_element
    acc = Polynomial.zero(field)
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and "x" not in term):
            raise ValueError(f"cannot parse term {term!r}")
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
        mono = [0] * (k + 1)
        mono[k] = c
        acc = acc + Polynomial(field, mono)
    return acc


def parse_poly(field: FieldSpec, text: str) -> Polynomial:
    """Parse table-style polynomial syntax, including products of
    parenthesized sums."""
    text = text.replace(" ", "").replace("{", "").replace("}", "")
    if not text:
        raise ValueError("empty polynomial")
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
                raise ValueError(f"unbalanced parentheses in {text!r}")
            if depth == 0:
                prod = prod * _parse_sum(field, text[start:i])
                consumed = i + 1
        elif depth == 0:
            raise ValueError(f"unexpected {ch!r} outside parentheses in {text!r}")
    if depth != 0 or consumed != len(text):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return prod
