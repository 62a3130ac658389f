"""GF(2)/GF(4) arithmetic on bitplanes (srlab.planes) against plain loops:
generator arrays packed against rows, polynomial products and divisions,
extension-field products, Ben-Or's test by Gauss's count of irreducibles,
and no numpy.ma import in a pass."""

import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import srlab
from srlab import planes
from srlab.field import extension, prime_field
from srlab.poly import Polynomial, is_irreducible
from entries import entries

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension(F2, 2)


def _naive_mul(field, a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _naive_divmod(field, a, b):
    """Schoolbook division of coefficient lists, b with a nonzero top."""
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv = field.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = field.mul(rem[i + len(b) - 1], inv)
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = field.sub(rem[i + j], field.mul(c, y))
    return quo, rem


@pytest.mark.parametrize("field", [F2, F4], ids=["GF2", "GF4"])
def test_packed_arrays_equal_the_planes_of_each_row(field):
    rnd = random.Random(7)
    for n, k in itertools.product((0, 1, 7, 8, 9, 63, 64), (0, 1, 5)):
        rows = [[rnd.randrange(field.order) for _ in range(n)] for _ in range(k)]
        got = planes.pack_planes(entries(field, rows, n))
        assert got.dtype == np.uint64 and got.shape == (k, 2)
        assert got.tolist() == [list(planes.pack_row_planes(field, r)) for r in rows], (n, k)


def _random_poly(rnd, field, length, monic=None):
    coeffs = [rnd.randrange(field.order) for _ in range(length)]
    if length and monic is not None:
        coeffs[-1] = 1 if monic else rnd.randrange(1, field.order)
    return Polynomial(field, coeffs)


@pytest.mark.parametrize("field", [F2, F4], ids=["GF2", "GF4"])
def test_polynomial_product_and_division_match_plain_loops(field):
    rnd = random.Random(31 + field.order)
    zero, one = Polynomial.zero(field), Polynomial.one(field)
    polys = [zero, one, Polynomial(field, [field.order - 1]), Polynomial.x(field),
             Polynomial.x_pow_minus_one(field, 13)]
    for _ in range(150):
        polys.append(_random_poly(rnd, field, rnd.randrange(1, 40), monic=rnd.random() < 0.3))
    for a, b in itertools.product(polys[:5] + rnd.sample(polys, 25), repeat=2):
        assert (a * b).coeffs == Polynomial(field, _naive_mul(field, a.coeffs, b.coeffs)).coeffs
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            continue
        q, r = divmod(a, b)
        nq, nr = _naive_divmod(field, a.coeffs, b.coeffs)
        assert (q.coeffs, r.coeffs) == (Polynomial(field, nq).coeffs, Polynomial(field, nr).coeffs)
        assert r.degree < b.degree
        if b.degree > a.degree:  # a divisor longer than the dividend
            assert q.is_zero and r == a
    for a in polys:
        assert a * zero == zero * a == zero
        assert a * one == a
    # kept divisors: one reducing many dividends, leads 1, w and w^2 (GF(4)),
    # and constants, against the plain loops and a fresh divmod_planes
    leads = range(1, field.order)
    divisors = [Polynomial(field, [c]) for c in leads]
    divisors += [Polynomial(field, [rnd.randrange(field.order) for _ in range(deg)] + [c])
                 for c in leads for deg in (1, 6, 10, 19)]
    divisors.append(Polynomial.x_pow_minus_one(field, 13))
    pack = lambda coeffs: planes.pack_row_planes(field, coeffs)
    for b in divisors:
        kept = planes.Divisor(pack(b.coeffs))
        assert kept.top == b.degree
        for a in polys[:5] + rnd.sample(polys, 40):
            nq, nr = _naive_divmod(field, a.coeffs, b.coeffs)
            expect = pack(nq), pack(nr)
            assert kept.divmod(pack(a.coeffs)) == expect, (a, b)
            assert kept.remainder(pack(a.coeffs)) == expect[1], (a, b)
            assert planes.divmod_planes(pack(a.coeffs), pack(b.coeffs)) == expect, (a, b)


def _naive_raw_mul(field, a, b):
    """Product of canonical integers as coordinate polynomials over the
    base, reduced by the modulus, one base operation per coefficient pair."""
    base, m, q = field.base, field.degree_over_base, field.base.order
    ca = [a // q**i % q for i in range(m)]
    cb = [b // q**i % q for i in range(m)]
    prod = _naive_mul(base, ca, cb)
    mod = field._mod
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        for j in range(m + 1):
            prod[i - m + j] = base.sub(prod[i - m + j], base.mul(c, mod[j]))
    return sum(c * q**i for i, c in enumerate(prod[:m]))


@pytest.mark.parametrize("base, m", [(F2, m) for m in range(2, 21)] + [(F4, m) for m in range(2, 11)]
                         + [(F3, 5)])
def test_extension_products_match_coordinate_loops(base, m):
    field = extension(base, m)
    rnd = random.Random(1000 * base.order + m)
    top = field.order - 1
    pairs = [(1, top), (top, top), (base.order, base.order ** (m - 1))]
    pairs += [(rnd.randrange(1, field.order), rnd.randrange(1, field.order)) for _ in range(60)]
    for a, b in pairs:
        assert field._raw_mul(a, b) == _naive_raw_mul(field, a, b), (a, b)


def _monic_irreducibles(field, m):
    return sum(is_irreducible(Polynomial(field, list(digits) + [1]))
               for digits in itertools.product(range(field.order), repeat=m))


def _gauss_count(q, m):
    """(1/m) sum over d | m of mu(d) q^(m/d)."""
    def mu(d):
        out, p = 1, 2
        while d > 1:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                out = -out
            p += 1
        return out
    return sum(mu(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize("field, degrees", [(F2, range(1, 11)), (F4, range(1, 6)), (F3, range(1, 6))],
                         ids=["GF2", "GF4", "GF3"])
def test_irreducible_counts_equal_gauss_formula(field, degrees):
    for m in degrees:
        assert _monic_irreducibles(field, m) == _gauss_count(field.order, m), m


def test_no_pass_imports_numpy_ma():
    """numpy's unique imports numpy.ma on its first call; no pass may."""
    code = ("import sys\n"
            "from srlab.tables import run_tables\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "run_tables([3])\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(srlab.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
