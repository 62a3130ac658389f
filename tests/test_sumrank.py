import random

import pytest

from srlab.errors import NonUniformProfile, NotSelfDual, ProfileMismatch, ZeroCode
from srlab.field import extension, prime_field
from srlab.jsonio import sr_code_from_obj, sr_code_to_obj
from srlab.linalg import MatrixGF
from srlab.sumrank import BlockProfile, SumRankCode, SumRankVector

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension(F2, 2)


def _random_vector(rnd, profile):
    return SumRankVector.from_flat(
        profile, [rnd.randrange(profile.field.order) for _ in range(profile.total)]
    )


def _random_code(rnd, profile, kmax=None):
    k = rnd.randint(0, kmax if kmax is not None else profile.total)
    rows = [[rnd.randrange(profile.field.order) for _ in range(profile.total)] for _ in range(k)]
    return SumRankCode.from_rows(profile, rows)


def test_profile_invariants():
    p = BlockProfile(F2, [(2, 3), (2, 2)])
    assert p.total == 10 and p.t == 2 and p.max_weight == 4
    with pytest.raises(ProfileMismatch):
        BlockProfile(F2, [(3, 2)])  # m > n


def test_weight_examples():
    p = BlockProfile(F2, [(2, 2), (2, 2)])
    assert SumRankVector.zero(p).weight() == 0
    v = SumRankVector(p, [MatrixGF.identity(F2, 2), MatrixGF(F2, [[1, 0], [0, 0]])])
    assert v.weight() == 3
    ones = SumRankVector.from_flat(p, [1] * 8)
    assert ones.weight() == 2  # one per block


def test_trace_ip_examples_and_flatten_identity():
    p = BlockProfile(F2, [(2, 2)])
    v = SumRankVector(p, [MatrixGF.identity(F2, 2)])
    assert v.trace_ip(SumRankVector.zero(p)) == 0
    assert v.trace_ip(v) == 0  # trace of I_2 in characteristic 2
    rnd = random.Random(5)
    for field in (F2, F4, F3):
        prof = BlockProfile(field, [(2, 3), (1, 2), (2, 2)])
        for _ in range(60):
            u, w = _random_vector(rnd, prof), _random_vector(rnd, prof)
            dot = 0
            for a, b in zip(u.flatten(), w.flatten()):
                dot = field.add(dot, field.mul(a, b))
            assert u.trace_ip(w) == dot


def test_metric_axioms():
    rnd = random.Random(9)
    p = BlockProfile(F4, [(2, 2), (2, 3)])
    for _ in range(40):
        a, b, c = (_random_vector(rnd, p) for _ in range(3))
        assert a.distance(b) == b.distance(a)
        assert a.distance(b) + b.distance(c) >= a.distance(c)
        assert (a.distance(b) == 0) == (a == b)


def test_flatten_roundtrip():
    rnd = random.Random(3)
    p = BlockProfile(F4, [(2, 3), (2, 2)])
    for _ in range(10):
        v = _random_vector(rnd, p)
        assert SumRankVector.from_flat(p, list(v.flatten())) == v


def test_cyclic_shift():
    p = BlockProfile(F2, [(2, 2)] * 3)
    rnd = random.Random(1)
    v = _random_vector(rnd, p)
    s = v.cyclic_shift()
    assert s.matrices == (v.matrices[2], v.matrices[0], v.matrices[1])
    assert s.cyclic_shift().cyclic_shift() == v  # t applications = identity
    mixed = BlockProfile(F2, [(2, 3), (2, 2)])
    with pytest.raises(NonUniformProfile):
        _random_vector(rnd, mixed).cyclic_shift()


def test_dual_examples():
    p = BlockProfile(F2, [(2, 2), (2, 2)])
    z = SumRankCode.zero(p)
    assert z.dual() == SumRankCode.full(p)
    rnd = random.Random(11)
    for _ in range(25):
        c = _random_code(rnd, p)
        d = c.dual()
        assert c.dim + d.dim == p.total
        assert d.dual() == c
        for u in (c.generator.rows or []):
            uu = SumRankVector.from_flat(p, list(u))
            for w in (d.generator.rows or []):
                assert uu.trace_ip(SumRankVector.from_flat(p, list(w))) == 0


def test_min_distance_small():
    p = BlockProfile(F2, [(2, 2), (2, 2), (2, 2)])
    v = [1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1]
    c = SumRankCode.from_rows(p, [v])
    w = SumRankVector.from_flat(p, v).weight()
    assert c.min_distance() == w
    with pytest.raises(ZeroCode):
        SumRankCode.zero(p).min_distance()


def test_min_distance_packed_vs_generic():
    rnd = random.Random(21)
    for _ in range(20):
        p = BlockProfile(F2, [(2, 2), (2, 3)])
        c = _random_code(rnd, p, kmax=6)
        if c.dim == 0:
            continue
        brute = min(v.weight() for v in c.vectors() if v.weight() > 0)
        assert c.min_distance() == brute
        assert c.min_distance(jobs=2) == brute


def test_min_distance_generic_field():
    rnd = random.Random(23)
    p = BlockProfile(F3, [(2, 2), (1, 2)])
    for _ in range(10):
        c = _random_code(rnd, p, kmax=4)
        if c.dim == 0:
            continue
        brute = min(v.weight() for v in c.vectors() if v.weight() > 0)
        assert c.min_distance() == brute


def test_linear_code_distance_equals_min_weight():
    # min over distinct pairs equals min nonzero weight for linear codes
    rnd = random.Random(15)
    p = BlockProfile(F4, [(2, 2), (1, 2)])
    for _ in range(8):
        c = _random_code(rnd, p, kmax=3)
        if c.dim == 0:
            continue
        vecs = list(c.vectors())
        pairwise = min(
            u.distance(v) for i, u in enumerate(vecs) for v in vecs[i + 1:]
        )
        assert c.min_distance() == pairwise


def test_selfdual_lcd_predicates():
    p = BlockProfile(F2, [(2, 2)])
    full = SumRankCode.full(p)
    assert full.is_lcd() and not full.is_self_dual()
    rnd = random.Random(27)
    prof = BlockProfile(F2, [(2, 2), (2, 2)])
    for _ in range(30):
        c = _random_code(rnd, prof)
        d = c.dual()
        assert c.is_self_dual() == (c == d)
        hull = c.hull_dimension()
        # (C + C-perp)-perp = C meet C-perp, computed without the Gram matrix
        inter = SumRankCode.from_rows(
            prof, list(c.generator.rows) + list(d.generator.rows)
        ).dual()
        assert hull == inter.dim
        assert c.is_lcd() == (hull == 0)


def test_structural_report():
    c = SumRankCode.from_rows(
        BlockProfile(F2, [(2, 2), (2, 2)]),
        [[1, 1, 0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0, 1, 1],
         [1, 0, 1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1, 0, 1]],
    )
    if c.is_self_dual():
        rep = c.structural_report()
        assert rep["dimension_is_half_ambient"]
    with pytest.raises(NotSelfDual):
        SumRankCode.full(BlockProfile(F2, [(2, 2)])).structural_report()


def test_is_cyclic_sr():
    p = BlockProfile(F2, [(2, 2)] * 3)
    rows = [[1, 0, 0, 0] * 3]
    c = SumRankCode.from_rows(p, rows)
    assert c.is_cyclic()
    rows2 = [[1, 0, 0, 0] + [0] * 8]
    assert not SumRankCode.from_rows(p, rows2).is_cyclic()
    # (2, 3) blocks: the rotation moves whole blocks of six coordinates
    p23 = BlockProfile(F2, [(2, 3)] * 3)
    w = [1, 0, 0, 0, 1, 1] + [0, 1, 0, 0, 0, 0] + [0] * 6
    v = SumRankVector.from_flat(p23, w)
    rotations = [v, v.cyclic_shift(), v.cyclic_shift().cyclic_shift()]
    assert SumRankCode.from_rows(p23, [r.flatten() for r in rotations]).is_cyclic()
    assert not SumRankCode.from_rows(p23, [w]).is_cyclic()
    with pytest.raises(NonUniformProfile):
        SumRankCode.zero(BlockProfile(F2, [(2, 3), (2, 2)])).is_cyclic()


def test_json_roundtrip():
    rnd = random.Random(33)
    p = BlockProfile(F4, [(2, 3), (2, 2)])
    c = _random_code(rnd, p, kmax=5)
    obj = sr_code_to_obj(c)
    again = sr_code_from_obj(obj)
    assert again == c
    assert sr_code_to_obj(again) == obj
