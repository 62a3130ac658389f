import functools
import itertools
import random

import pytest

import srlab.field
from srlab.code import LinearCode
from srlab.cyclic import (
    bch_cosets,
    bch_generator,
    cyclic_code,
    cyclic_dual_generator,
    cyclotomic_cosets,
    frobenius_coeffs,
    is_cyclic,
    min_nontrivial_coset_size,
    minimal_polynomial,
    parse_poly,
    splitting_root,
)
from srlab.cyclic import _root_digits
from srlab.errors import (
    BadDelta,
    BadPolynomial,
    LengthTooLarge,
    NoNontrivialCoset,
    NotCoprime,
    NotDivisor,
)
from srlab.field import extension, prime_field
from srlab.linalg import MAX_LENGTH
from srlab.poly import Polynomial, is_irreducible, poly_gcd, prime_factors, smallest_irreducible
from srlab.tables import load_manifest
from subspaces import all_rref_generators

F2 = prime_field(2)
F4 = extension(F2, 2)


# -- polynomial layer ---------------------------------------------------------


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Oracle: the monic lcm a b / gcd(a, b), zero if either is zero."""
    if a.is_zero or b.is_zero:
        return Polynomial.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def test_poly_arithmetic():
    p = Polynomial(F4, (1, 2))  # 1 + wx
    q = Polynomial(F4, (3, 0, 1))  # w^2 + x^2
    assert (p + p).is_zero
    prod = p * q
    assert divmod(prod, p)[0] == q.monic() or divmod(prod, p)[0] == q
    assert (prod % p).is_zero
    assert (prod % q).is_zero
    assert poly_gcd(prod, p) == p.monic()
    assert poly_lcm(p, q).degree == 3


def test_poly_gcd_lcm_random():
    rnd = random.Random(3)
    for _ in range(40):
        a = Polynomial(F4, [rnd.randrange(4) for _ in range(rnd.randint(1, 6))])
        b = Polynomial(F4, [rnd.randrange(4) for _ in range(rnd.randint(1, 6))])
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero
        l = poly_lcm(a, b)
        assert (l % a.monic()).is_zero and (l % b.monic()).is_zero
        assert g.degree + l.degree == a.degree + b.degree


def test_irreducibility():
    assert is_irreducible(Polynomial(F2, (1, 1, 1)))
    assert not is_irreducible(Polynomial(F2, (1, 0, 1)))  # (x+1)^2
    assert smallest_irreducible(F2, 2).coeffs == (1, 1, 1)


def rabin_is_irreducible(f):
    """Rabin's test, the oracle for Ben-Or's: f of degree m is irreducible iff
    x^(q^m) = x mod f and gcd(x^(q^(m/p)) - x, f) = 1 for each prime p | m."""
    m = f.degree
    if m <= 0:
        return False
    field = f.field
    x = Polynomial.x(field) % f

    def x_q_power(k):
        t = x
        for _ in range(k):
            t = t.pow_mod(field.order, f)
        return t

    if x_q_power(m) != x:
        return False
    return all(poly_gcd(x_q_power(m // p) - x, f).degree == 0 for p in prime_factors(m))


FIELDS = {
    2: F2,
    3: prime_field(3),
    4: F4,
    5: prime_field(5),
    9: extension(prime_field(3), 2),
}


def test_ben_or_matches_rabin():
    rnd = random.Random(23)
    for field in FIELDS.values():
        q = field.order
        for _ in range(200):
            # leading coefficients other than 1 included
            m = rnd.randint(0, 8)
            f = Polynomial(field, [rnd.randrange(q) for _ in range(m)] + [rnd.randrange(1, q)])
            assert is_irreducible(f) == rabin_is_irreducible(f), f


def test_smallest_irreducible_is_the_first_the_oracle_accepts():
    for q, top in ((2, 16), (3, 8), (4, 10)):
        field = FIELDS[q]
        for m in range(1, top + 1):
            for j in itertools.count():
                # c_0 is the least significant base-q digit of j
                cand = Polynomial(field, [j // q**k % q for k in range(m)] + [1])
                if rabin_is_irreducible(cand):
                    break
            assert smallest_irreducible(field, m) == cand, (q, m)


def test_bch_generator_is_the_lcm_of_its_minimal_polynomials():
    manifests = [row["bch"] for tid in (2, 4) for row in load_manifest(tid)["rows"]]
    sweep = [(4, n, delta, b) for n in (13, 63, 205) for delta in range(2, 40) for b in (0, 1)]
    for q, n, delta, b in manifests + sweep:
        mins = [minimal_polynomial(F4, n, coset[0]) for coset in bch_cosets(q, n, delta, b)]
        assert bch_generator(F4, n, delta, b) == functools.reduce(poly_lcm, mins), (n, delta, b)


def test_reciprocal():
    p = Polynomial(F4, (2, 1, 0, 1))
    r = p.reciprocal_monic()
    assert r.is_monic and r.degree == p.degree


# -- cosets -------------------------------------------------------------------


def test_cyclotomic_cosets_examples():
    table = cyclotomic_cosets(4, 13)
    # derived: iterate 1*4^i mod 13 -> 1, 4, 3, 12, 9, 10
    orbit = set()
    j = 1
    while j not in orbit:
        orbit.add(j)
        j = (j * 4) % 13
    assert set(table.coset_of(1)) == orbit == {1, 3, 4, 9, 10, 12}
    assert cyclotomic_cosets(5, 1).cosets == ((0,),)
    assert cyclotomic_cosets(4, 63).coset_of(0) == (0,)
    # partition property
    assert sorted(i for c in table.cosets for i in c) == list(range(13))
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(4, 6)


def test_mu_examples():
    assert min_nontrivial_coset_size(4, 13) == 6
    assert min_nontrivial_coset_size(2, 3) == 2
    assert min_nontrivial_coset_size(4, 5) == 2
    with pytest.raises(NoNontrivialCoset):
        min_nontrivial_coset_size(4, 1)
    with pytest.raises(NotCoprime):
        min_nontrivial_coset_size(2, 4)


# -- minimal polynomials and BCH ------------------------------------------------


def test_splitting_root_order():
    ext, beta = splitting_root(F4, 13)
    assert ext.order == 4**6
    assert ext.multiplicative_order(beta) == 13


def test_splitting_root_is_built_once(monkeypatch):
    # the root and its splitting field GF(4^10) are pinned once per interpreter,
    # so BCH generators of one length share a single modulus search
    assert splitting_root(F4, 205) is splitting_root(F4, 205)
    ext, beta = splitting_root(F4, 205)
    assert ext.order == 4**10 and ext.multiplicative_order(beta) == 205
    searches = []

    def counted(field, m):
        searches.append((field.order, m))
        return smallest_irreducible(field, m)

    monkeypatch.setattr(srlab.field, "smallest_irreducible", counted)
    splitting_root.cache_clear()
    _root_digits.cache_clear()
    minimal_polynomial.cache_clear()
    g3 = bch_generator(F4, 205, 3, 1)
    g5 = bch_generator(F4, 205, 5, 1)
    assert searches == [(4, 10)]
    assert (g5 % g3).is_zero and g3.degree == 20 and g5.degree == 30
    assert splitting_root(F4, 205)[0] is ext  # the field itself was cached already


def test_failures_are_not_cached():
    before = minimal_polynomial.cache_info().currsize
    digits_before = _root_digits.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotCoprime):
            minimal_polynomial(F4, 4, 1)
        with pytest.raises(LengthTooLarge):
            splitting_root(F4, MAX_LENGTH + 1)
        with pytest.raises(LengthTooLarge):
            minimal_polynomial(F4, MAX_LENGTH + 1, 1)
    assert minimal_polynomial.cache_info().currsize == before
    assert _root_digits.cache_info().currsize == digits_before


def test_cyclotomic_cosets_are_kept_and_failures_are_not():
    assert cyclotomic_cosets(4, 205) is cyclotomic_cosets(4, 205)
    before = cyclotomic_cosets.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotCoprime):
            cyclotomic_cosets(4, 6)
        with pytest.raises(NotCoprime):
            cyclotomic_cosets(4, 0)
        with pytest.raises(LengthTooLarge):
            cyclotomic_cosets(4, MAX_LENGTH + 1)
    assert cyclotomic_cosets.cache_info().currsize == before


_ROOT_CASES = [(F4, 3), (F4, 13), (F4, 205), (F4, 511), (F4, 1025), (F2, 3), (F2, 511)]


@pytest.mark.parametrize("field, n", _ROOT_CASES, ids=[f"GF({f.order})-n{n}" for f, n in _ROOT_CASES])
def test_root_digits_equal_a_walk_of_the_root(field, n):
    ext, beta = splitting_root(field, n)
    walk = [1]
    for _ in range(n - 1):
        walk.append(ext.mul(walk[-1], beta))
    m = ext.degree_over(field)
    digits = [[v // field.order**j % field.order for j in range(m)] for v in walk]
    assert _root_digits(field, n).tolist() == digits


def test_minimal_polynomial_examples():
    m0 = minimal_polynomial(F4, 13, 0)
    assert m0 == Polynomial(F4, (1, 1))  # x + 1 over characteristic 2
    m1 = minimal_polynomial(F4, 13, 1)
    printed = parse_poly(F4, "x^6+wx^5+w^2x^3+wx+1")
    assert m1 in (printed, frobenius_coeffs(printed))
    # product over coset representatives reconstructs x^n - 1
    table = cyclotomic_cosets(4, 13)
    prod = Polynomial.one(F4)
    for coset in table.cosets:
        prod = prod * minimal_polynomial(F4, 13, coset[0])
    assert prod == Polynomial.x_pow_minus_one(F4, 13).monic()


def product_of_linear_factors(field, n, i):
    """The oracle for `minimal_polynomial`: the product of x - beta^j over the
    coset of i, formed in the splitting field, whose coefficients lie in `field`."""
    ext, beta = splitting_root(field, n)
    prod = Polynomial.one(ext)
    for j in cyclotomic_cosets(field.order, n).coset_of(i):
        prod = prod * Polynomial(ext, (ext.neg(ext.pow(beta, j)), 1))
    assert all(c < field.order for c in prod.coeffs), (field, n, i)
    return Polynomial(field, prod.coeffs)


F3 = prime_field(3)
F9 = extension(F3, 2)


# m = 1 (n divides q - 1, the root lies in `field` itself) at n = 1, 3 over
# GF(4), 2, 8 over GF(3) and 8 over GF(9)
_ORACLE_CASES = (
    [(F2, n) for n in (1, 3, 7, 15, 21, 63, 205)]
    + [(F4, n) for n in (1, 3, 5, 13, 63, 205)]
    + [(F3, n) for n in (2, 8, 13)]
    + [(F9, n) for n in (8, 10)]
)


@pytest.mark.parametrize("field, n", _ORACLE_CASES, ids=[f"GF({f.order})-n{n}" for f, n in _ORACLE_CASES])
def test_minimal_polynomials_equal_the_product_of_linear_factors(field, n):
    for coset in cyclotomic_cosets(field.order, n).cosets:
        for i in (coset[0], coset[-1]):
            mp = minimal_polynomial(field, n, i)
            assert mp.field is field and mp.is_monic
            assert mp == product_of_linear_factors(field, n, i), (field, n, i)


def test_minimal_polynomial_degree_sum():
    for (q_field, n) in ((F4, 13), (F4, 5), (F2, 7), (F4, 63)):
        table = cyclotomic_cosets(q_field.order, n)
        degs = 0
        for coset in table.cosets:
            mp = minimal_polynomial(q_field, n, coset[0])
            assert mp.degree == len(coset)
            degs += mp.degree
        assert degs == n


def test_bch_examples():
    g = bch_generator(F4, 13, 2, 1)
    assert g.degree == 6
    g2 = bch_generator(F4, 13, 13, 1)
    assert g2.degree == 12
    g3 = bch_generator(F4, 63, 4, 0)
    assert 63 - g3.degree == 56
    with pytest.raises(BadDelta):
        bch_generator(F4, 13, 1, 0)
    with pytest.raises(NotCoprime):
        bch_generator(F4, 6, 2, 0)


def test_bch_designed_distance_floor():
    for n, delta, b in ((13, 2, 1), (13, 3, 0), (5, 2, 0), (15, 3, 1), (15, 4, 0)):
        g = bch_generator(F4, n, delta, b)
        c = cyclic_code(g, n)
        if c.k == 0:
            continue
        assert c.min_distance() >= delta


def test_bch_wraparound_indices():
    # indices reduce mod n, so b = n-1 with delta = 3 covers {n-1, 0, 1}
    g = bch_generator(F4, 13, 3, 12)
    explicit = poly_lcm(
        poly_lcm(minimal_polynomial(F4, 13, 12), minimal_polynomial(F4, 13, 0)),
        minimal_polynomial(F4, 13, 1),
    )
    assert g == explicit
    # only n consecutive exponents are distinct mod n, so a huge delta costs n steps
    assert bch_generator(F4, 13, 10**8, 1) == bch_generator(F4, 13, 14, 1)


# -- cyclic codes ----------------------------------------------------------------


def test_cyclic_code_examples():
    c = cyclic_code(parse_poly(F4, "1+x"), 2)
    assert (c.n, c.k) == (2, 1) and c.is_self_dual() and c.min_distance() == 2
    full = cyclic_code(Polynomial.one(F4), 5)
    assert full.k == 5 and is_cyclic(full)
    t12_3 = cyclic_code(parse_poly(F4, "w^2+w^2x+x^2+x^3"), 6)
    assert t12_3.is_self_dual() and t12_3.min_distance() == 3
    with pytest.raises(NotDivisor):
        cyclic_code(parse_poly(F4, "1+x+x^2"), 4)


def test_nonpositive_lengths_are_refused():
    # x^0 - 1 would be built as 1, so length 0 is refused like any n < 1
    one = Polynomial.one(F4)
    for n in (0, -3):
        with pytest.raises(NotCoprime, match="n must be positive"):
            cyclic_code(one, n)
        with pytest.raises(NotCoprime, match="n must be positive"):
            cyclic_dual_generator(one, n)
        # q^k mod n never reaches 1 for n < 0, so the order loop must not start
        with pytest.raises(NotCoprime, match="n must be positive"):
            splitting_root(F4, n)
        with pytest.raises(NotCoprime, match="n must be positive"):
            minimal_polynomial(F4, n, 1)


def test_cyclic_dual_routes_agree():
    rnd = random.Random(7)
    xs = [(F4, 13), (F4, 5), (F4, 2), (F2, 7), (F4, 6), (F4, 9)]
    for field, n in xs:
        xn1 = Polynomial.x_pow_minus_one(field, n)
        for _ in range(6):
            # gcd with a random polynomial picks a random monic divisor
            g = poly_gcd(xn1, Polynomial(field, [rnd.randrange(field.order) for _ in range(n)] + [1]))
            if g.is_zero or g.degree == n or not (xn1 % g).is_zero:
                continue
            c = cyclic_code(g, n)
            assert is_cyclic(c)
            dual_poly_route = cyclic_code(cyclic_dual_generator(g, n), n)
            assert dual_poly_route == c.dual()
            assert is_cyclic(c.dual())


def test_is_cyclic_rejects_all_but_the_cyclic_codes():
    # x^n - 1 = (x - 1)^n when n is a power of the characteristic, so each
    # space holds one cyclic code of each dimension; no other subspace is
    F3 = prime_field(3)
    for field, n, k, gen in ((F4, 4, 2, "(x+1)(x+1)"), (F3, 3, 1, "(x+2)(x+2)")):
        codes = [LinearCode.from_rows(field, n, rows) for rows in all_rref_generators(field, n, k)]
        cyclic = [c for c in codes if is_cyclic(c)]
        assert cyclic == [cyclic_code(parse_poly(field, gen), n)]
        for c in codes:
            shifted = (row[-1:] + row[:-1] for row in c.generator.rows)
            assert is_cyclic(c) == all(map(c.contains, shifted))


def test_parse_poly():
    assert parse_poly(F4, "1") == Polynomial.one(F4)
    assert parse_poly(F4, "w^2+w^2x+x^2+x^3").coeffs == (3, 3, 1, 1)
    assert parse_poly(F4, "wx+1").coeffs == (1, 2)
    assert parse_poly(F4, "(x+1)(x+1)").coeffs == (1, 0, 1)
    prod = parse_poly(F4, "(x^6+wx^5+w^2x^3+wx+1)(x^6+w^2x^5+wx^3+w^2x+1)")
    assert prod.coeffs == (1,) * 13
    with pytest.raises(ValueError):
        parse_poly(F4, "w^2++x")
    with pytest.raises(ValueError):
        parse_poly(F4, "(x+1")
    for text in ("1+y", "(x+1", "x+1)", "", "w^2++x", "(x)x"):
        with pytest.raises(BadPolynomial):
            parse_poly(F4, text)


def test_lengths_are_bounded():
    # every entry point checks the bound before work proportional to n
    n = 10**9 + 7
    with pytest.raises(LengthTooLarge):
        cyclotomic_cosets(4, n)
    with pytest.raises(LengthTooLarge):
        splitting_root(F4, n)
    with pytest.raises(LengthTooLarge):
        cyclic_code(parse_poly(F4, "1+x"), n)
    with pytest.raises(LengthTooLarge):
        cyclic_dual_generator(parse_poly(F4, "1+x"), n)
    with pytest.raises(LengthTooLarge):
        parse_poly(F4, f"1+x^{MAX_LENGTH + 1}")
    assert parse_poly(F4, f"1+x^{MAX_LENGTH}").degree == MAX_LENGTH
    assert len(cyclotomic_cosets(4, MAX_LENGTH - 1).cosets) > 1


def test_bch_cosets_are_the_defining_set():
    # the cosets of b .. b+delta-2 in order of first appearance
    assert bch_cosets(4, 13, 2, 1) == [cyclotomic_cosets(4, 13).coset_of(1)]
    cosets = bch_cosets(4, 13, 14, 1)
    assert sorted(cosets) == sorted(cyclotomic_cosets(4, 13).cosets)
    assert bch_cosets(4, 13, 10**8, 1) == cosets
    with pytest.raises(BadDelta):
        bch_cosets(4, 13, 1, 0)


def test_frobenius_coeffs():
    p = parse_poly(F4, "w+w^2x+x^2")
    assert frobenius_coeffs(p).coeffs == (3, 2, 1)
    assert frobenius_coeffs(frobenius_coeffs(p)) == p
