"""GF(2)/GF(4) vectors as two bitplane integers, and polynomials on them.

An entry of GF(4) is the canonical integer c = c0 + 2 c1, the element
c0 + c1 w (w = 2, w^2 = w + 1 = 3); GF(2) holds 0 and 1.  A vector
(c_0, ..., c_{n-1}) is held as two Python ints, its lo and hi planes: bit j
of lo is bit 0 of c_j and bit j of hi is bit 1 of c_j, so hi is 0 over
GF(2).  Addition is XOR of each plane, and multiplying by w maps
(lo, hi) -> (hi, lo ^ hi).

Read as a polynomial (entry j the coefficient of x^j), a product of two
vectors is carry-less: over GF(2) the XOR of one plane shifted to each set
bit of the other; over GF(4), with m0 = a0 b0, m2 = a1 b1 and
m1 = (a0 ^ a1)(b0 ^ b1) (Karatsuba), the product's planes are m0 ^ m2 and
m1 ^ m0, since w^2 = w + 1.  A remainder XORs in the divisor, shifted and
scaled to cancel the top coefficient.

The canonical integer of an extension of GF(2) is its lo plane over GF(2);
that of an extension of GF(4) holds its lo plane in the even bits and its hi
plane in the odd bits (`int_planes`, `planes_int`).
"""

from __future__ import annotations

__all__ = [
    "on_planes",
    "pack_row_planes",
    "unpack_planes",
    "multiples",
    "mul",
    "divmod_planes",
    "int_planes",
    "planes_int",
]

_LO_DIGIT = bytes.maketrans(bytes(range(4)), b"0101")
_HI_DIGIT = bytes.maketrans(bytes(range(4)), b"0011")
# a hi digit as the bit that lifts an ASCII lo digit "0"/"1" to "2"/"3"
_TWICE = bytes.maketrans(b"01", b"\0\2")
_VALUE = bytes.maketrans(b"0123", bytes(range(4)))


def on_planes(field) -> bool:
    """Whether `field` is GF(2) or GF(4), whose entries planes hold."""
    return field.order in (2, 4)


def pack_row_planes(field, row):
    """(lo, hi) bitplane integers for a GF(2)/GF(4) row; hi is 0 over GF(2).
    Entry j is bit j: the reversed entries, each read as one binary digit of
    either plane, are the planes' numerals."""
    entries = bytes(iter(row))[::-1]
    return int(entries.translate(_LO_DIGIT) or b"0", 2), int(entries.translate(_HI_DIGIT) or b"0", 2)


def _numeral(lo: int, hi: int, n: int) -> bytes:
    """The base-4 numeral of entries n-1 .. 0 of (lo, hi), n >= 1: each
    plane's binary numeral as bytes, the hi one lifted to 0/2, ORed."""
    width = f"0{n}b"
    return (int.from_bytes(format(lo, width).encode(), "big")
            | int.from_bytes(format(hi, width).encode().translate(_TWICE), "big")).to_bytes(n, "big")


def unpack_planes(lo: int, hi: int, n: int) -> list:
    """The entries c_0 .. c_{n-1} of (lo, hi) planes below bit n, as a list
    of canonical integers: the inverse of `pack_row_planes`."""
    return list(_numeral(lo, hi, n)[::-1].translate(_VALUE)) if n else []


def multiples(lo: int, hi: int):
    """Planes of 0, v, w v, w^2 v, indexed by the scalar's canonical integer."""
    return [(0, 0), (lo, hi), (hi, hi ^ lo), (hi ^ lo, lo)]


def _clmul(a: int, b: int) -> int:
    """Carry-less product: b shifted to each set bit of a, XORed; a is made
    the sparser operand."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def mul(a, b):
    """Planes of the polynomial product of planes a and b."""
    a0, a1 = a
    b0, b1 = b
    m0 = _clmul(a0, b0)
    if not (a1 or b1):
        return m0, 0
    m2 = _clmul(a1, b1)
    m1 = _clmul(a0 ^ a1, b0 ^ b1)
    return m0 ^ m2, m1 ^ m0


def divmod_planes(a, b):
    """(quotient, remainder) planes of polynomial a divided by b, b nonzero.

    b is made monic first (the inverse of a GF(4) scalar c is c^2: w and
    w^2 swap), and the quotient is scaled back at the end."""
    b0, b1 = b
    top = (b0 | b1).bit_length() - 1
    lead = (b0 >> top & 1) | (b1 >> top & 1) << 1
    inv = (0, 1, 3, 2)[lead]
    scaled = multiples(*multiples(b0, b1)[inv])
    r0, r1 = a
    q0 = q1 = 0
    while True:
        deg = (r0 | r1).bit_length() - 1
        shift = deg - top
        if shift < 0:
            break
        c = (r0 >> deg & 1) | (r1 >> deg & 1) << 1
        s0, s1 = scaled[c]
        r0 ^= s0 << shift
        r1 ^= s1 << shift
        q0 |= (c & 1) << shift
        q1 |= (c >> 1) << shift
    return multiples(q0, q1)[inv], (r0, r1)


def int_planes(v: int, m: int):
    """Planes of the m >= 1 base-4 digits of the canonical integer
    v < 4**m: its even bits and its odd bits."""
    bits = format(v, f"0{2 * m}b")
    return int(bits[1::2], 2), int(bits[::2], 2)


def planes_int(lo: int, hi: int, m: int) -> int:
    """The canonical integer of entries 0 .. m-1 of (lo, hi), m >= 1: the
    inverse of `int_planes`."""
    return int(_numeral(lo, hi, m), 4)
