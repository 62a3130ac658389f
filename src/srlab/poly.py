"""Dense univariate polynomials over a finite field.

Coefficients are stored constant-term first as canonical integers of the
coefficient field (see srlab.field for the encoding).  The zero polynomial
has an empty coefficient tuple and degree -1.  Arithmetic goes through the
field object's integer operations, so the same class serves every level of
a field tower.  Over GF(2) and GF(4), products, divisions and Ben-Or's test
run on the coefficients' two bitplane integers instead (srlab.planes), a
shift and XOR per set bit where the field loops make a call per
coefficient pair.
"""

from __future__ import annotations

import itertools

from . import planes
from .errors import Reducible

__all__ = [
    "Polynomial",
    "poly_gcd",
    "is_irreducible",
    "smallest_irreducible",
]


def _from_planes(field, lo: int, hi: int) -> "Polynomial":
    return Polynomial(field, planes.unpack_planes(lo, hi, (lo | hi).bit_length()))


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    """Immutable polynomial; `field` is the coefficient field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, (0, 1))

    @classmethod
    def x_pow_minus_one(cls, field, n: int) -> "Polynomial":
        coeffs = [0] * (n + 1)
        coeffs[0] = field.neg(1)
        coeffs[n] = 1
        return cls(field, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Polynomial(f, out)

    def __neg__(self):
        f = self.field
        return Polynomial(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(f)
        if planes.on_planes(f):
            prod = planes.mul(planes.pack_row_planes(f, a), planes.pack_row_planes(f, b))
            return _from_planes(f, *prod)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Polynomial(f, out)

    def scale(self, c: int) -> "Polynomial":
        f = self.field
        if c == 0:
            return Polynomial.zero(f)
        return Polynomial(f, [f.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if planes.on_planes(f):
            quo, rem = planes.divmod_planes(planes.pack_row_planes(f, self.coeffs),
                                            planes.pack_row_planes(f, other.coeffs))
            return _from_planes(f, *quo), _from_planes(f, *rem)
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        q = [0] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            factor = f.mul(c, lead_inv)
            q[i - db] = factor
            for j, bj in enumerate(other.coeffs):
                if bj:
                    rem[i - db + j] = f.sub(rem[i - db + j], f.mul(factor, bj))
        return Polynomial(f, q), Polynomial(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def reciprocal_monic(self) -> "Polynomial":
        """Reverse the coefficients and normalize to a monic polynomial.

        Requires a nonzero constant term (true for any divisor of x^n - 1).
        """
        if self.is_zero or self.coeffs[0] == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        return Polynomial(self.field, self.coeffs[::-1]).monic()

    def evaluate(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def map_coeffs(self, fn) -> "Polynomial":
        return Polynomial(self.field, [fn(c) for c in self.coeffs])

    def pow_mod(self, e: int, modulus: "Polynomial") -> "Polynomial":
        result = Polynomial.one(self.field)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def __str__(self):
        if self.is_zero:
            return "0"
        f = self.field
        names = {}
        if f.order == 4:
            names = {2: "w", 3: "w^2"}
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = names.get(c, str(c) if (c != 1 or k == 0) else "")
            if k == 0:
                terms.append(cs if cs else "1")
            elif k == 1:
                terms.append(f"{cs}x")
            else:
                terms.append(f"{cs}x^{k}")
        return "+".join(terms)

    def __repr__(self):
        return f"Polynomial({self!s})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def prime_factors(n: int):
    """The distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Ben-Or verdicts by (field, coefficients); fields are cached singletons
_IRREDUCIBLE: dict = {}


def is_irreducible(f: Polynomial) -> bool:
    """Ben-Or's test over the coefficient field GF(q), run once per
    polynomial in a process (a modulus read again gets the kept verdict).

    f of degree m is irreducible iff gcd(x^(q^i) - x, f) = 1 for every
    i = 1 .. floor(m/2): x^(q^i) - x is the product of the monic
    irreducibles of degree dividing i, and a reducible f has a factor of
    degree at most m/2.  The first shared factor ends the test.
    """
    key = (f.field, f.coeffs)
    if key not in _IRREDUCIBLE:
        _IRREDUCIBLE[key] = _ben_or(f)
    return _IRREDUCIBLE[key]


def _ben_or(f: Polynomial) -> bool:
    m = f.degree
    if m <= 0:
        return False
    field = f.field
    if planes.on_planes(field):
        return _ben_or_planes(planes.pack_row_planes(field, f.coeffs), m, field.order.bit_length() - 1)
    x = Polynomial.x(field)
    t = x
    for _ in range(m // 2):
        t = t.pow_mod(field.order, f)
        if poly_gcd(t - x, f).degree != 0:
            return False
    return True


def _ben_or_planes(f, m: int, e: int) -> bool:
    """Ben-Or's test on the planes f of a degree-m polynomial over GF(2^e),
    e = 1 or 2: t = x^(q^i) mod f by e squarings per step, then the gcd of
    t - x and f by remainders."""
    t = (2, 0)  # x
    for _ in range(m // 2):
        for _ in range(e):
            t = planes.divmod_planes(planes.mul(t, t), f)[1]
        a, b = f, (t[0] ^ 2, t[1])  # t - x
        while b != (0, 0):
            a, b = b, planes.divmod_planes(a, b)[1]
        if (a[0] | a[1]).bit_length() != 1:
            return False
    return True


def smallest_irreducible(field, m: int) -> Polynomial:
    """Lexicographically smallest monic irreducible of degree m.

    Candidates x^m + c_{m-1} x^{m-1} + ... + c_0 are ordered by the tuple
    (c_{m-1}, ..., c_0) with coefficients compared by canonical integer.
    This makes deterministic modulus selection reproducible across runs.
    """
    for digits in itertools.product(range(field.order), repeat=m):
        cand = Polynomial(field, digits[::-1] + (1,))
        if is_irreducible(cand):
            return cand
    raise Reducible(f"no irreducible of degree {m} found (impossible)")
