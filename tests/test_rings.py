"""Closed-form ring layer: rewriting rules, graded arithmetic, formulas."""

import random

import pytest

from prozero.fields import QQ
from prozero.rings import (CTRL, E1, E2, GS, R_ONLY, GradedPoly,
                           PrecisionElement, RingError, RingId, SystemSpec,
                           alpha_hat, ann_formula, apply_system, mul_index,
                           r_mul, vanishes)

ALL_RINGS = [R_ONLY, GS, E1(2), E1(3), E2, CTRL]


def _gen(ring, name, field=QQ):
    return GradedPoly.gen(ring, name, field)


def test_rewrite_rules_golden():
    # y^a * y^b = y^(a+b); y^m * x_i = x_(i-m) or 0; x_i * x_j = 0
    assert mul_index(R_ONLY, ("y", 2), ("y", 3)) == ("y", 5)
    assert mul_index(R_ONLY, ("y", 2), ("x", 5)) == ("x", 3)
    assert mul_index(R_ONLY, ("y", 4), ("x", 9)) == ("x", 5)
    assert mul_index(R_ONLY, ("x", 9), ("y", 4)) == ("x", 5)
    assert mul_index(R_ONLY, ("y", 3), ("x", 2)) is None
    assert mul_index(R_ONLY, ("y", 1), ("x", 0)) is None
    assert mul_index(R_ONLY, ("x", 0), ("x", 7)) is None
    assert mul_index(CTRL, ("x", 2), ("x", 3)) == ("x", 5)


def test_r_mul_matches_graded_product():
    rng = random.Random(41)
    y = _gen(R_ONLY, "y")
    for _ in range(100):
        def sample():
            out = {}
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    idx = ("x", rng.randint(0, 12))
                else:
                    idx = ("y", rng.randint(0, 6))
                out[idx] = QQ.from_int(rng.randint(-5, 5) or 1)
            return out
        a, b = sample(), sample()
        pa = GradedPoly(R_ONLY, {(0, 0): a}, QQ)
        pb = GradedPoly(R_ONLY, {(0, 0): b}, QQ)
        prod = r_mul(a, b)
        assert (pa * pb).component(0, 0) == prod
    assert r_mul({("y", 2): QQ.one()}, {("x", 5): QQ.one()}) == {("x", 3): QQ.one()}


def _random_element(rng, ring, field=QQ, max_index=40):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        dt = rng.randint(0, 3) if ring.has_t else 0
        du = rng.randint(0, 2) if ring.has_u else 0
        if ring.variant == "CTRL":
            idx = ("x", rng.randint(1, 6)) if rng.random() < 0.7 else ("y", 0)
        elif rng.random() < 0.5:
            idx = ("x", rng.randint(0, max_index))
        else:
            idx = ("y", rng.randint(0, 5))
        c = field.from_fraction(rng.randint(-1000, 1000) or 1,
                                rng.randint(1, 9))
        slot = terms.setdefault((dt, du), {})
        slot[idx] = field.add(slot.get(idx, field.zero()), c)
    terms = {d: {i: c for i, c in s.items() if not field.is_zero(c)}
             for d, s in terms.items()}
    terms = {d: s for d, s in terms.items() if s}
    return GradedPoly(ring, terms, field)


def test_ring_axioms_random_triples():
    # commutative unital ring laws on random elements, all variants
    rng = random.Random(7)
    per_ring = 90                    # 6 rings x 90 > 500 triples overall
    for ring in ALL_RINGS:
        one = GradedPoly.one(ring)
        zero = GradedPoly.zero(ring)
        for _ in range(per_ring):
            a = _random_element(rng, ring)
            b = _random_element(rng, ring)
            c = _random_element(rng, ring)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a
            assert a * zero == zero
            assert a + (-a) == zero
            assert a - b == a + (-b)


def test_normal_form_idempotence():
    # products never contain an index that the rewrite rules would reduce
    rng = random.Random(13)
    for ring in ALL_RINGS:
        for _ in range(60):
            p = _random_element(rng, ring) * _random_element(rng, ring)
            for (dt, du), slot in p.terms.items():
                for idx, coeff in slot.items():
                    assert not QQ.is_zero(coeff)
                    assert not vanishes(ring, idx, dt, du) or ring.variant == "R"
            q = GradedPoly(ring, p.terms, QQ)
            assert p == q


def test_vanishes_golden():
    assert vanishes(E1(2), ("x", 0), 2, 0)
    assert not vanishes(E1(2), ("x", 1), 2, 0)
    assert vanishes(E1(2), ("x", 3), 5, 0)
    assert not vanishes(E1(3), ("x", 0), 2, 0)
    assert vanishes(E1(3), ("x", 0), 3, 0)
    assert vanishes(E2, ("x", 2), 4, 0)
    assert not vanishes(E2, ("x", 2), 3, 0)
    assert not vanishes(E2, ("x", 2), 0, 1)   # du >= 1 needs dt >= index
    assert vanishes(E2, ("x", 2), 2, 1)
    assert vanishes(E2, ("x", 0), 0, 1)
    assert not vanishes(GS, ("x", 40), 100, 0)
    assert not vanishes(CTRL, ("x", 3), 1, 0)
    assert vanishes(CTRL, ("x", 1), 2, 0)
    assert not vanishes(E2, ("y", 4), 9, 9)   # y-powers never die


def test_ann_formula_sound_and_complete():
    # every index in the formula dies under t^dt u^du, no omitted index does
    for ring in (E1(2), E1(3), E2):
        for dt in range(13):
            for du in range(5 if ring.has_u else 1):
                got = set(ann_formula(ring, dt, du))
                for i in range(0, 20):
                    idx = ("x", i)
                    assert (idx in got) == vanishes(ring, idx, dt, du)
                # the formula is a downward-closed prefix of the x-indices
                assert got == {("x", i) for i in range(len(got))}
    assert ann_formula(GS, 7, 0) == []
    assert ann_formula(CTRL, 1, 0) == []
    assert ann_formula(CTRL, 2, 0, mx=4) == [("x", a) for a in range(1, 5)]
    with pytest.raises(RingError):
        ann_formula(CTRL, 2, 0)
    with pytest.raises(RingError):
        ann_formula(R_ONLY, 2, 0)


def test_formula_matches_multiplication():
    # dt <= 12, du <= 4: formula membership == actual product vanishing
    for ring in (E1(2), E1(3), E2):
        for dt in range(13):
            for du in range(5 if ring.has_u else 1):
                got = set(ann_formula(ring, dt, du))
                shift = GradedPoly.monomial(ring, QQ.one(), dt=dt, du=du)
                for i in range(16):
                    xi = _gen(ring, ("x", i))
                    dead = (xi * shift).is_zero()
                    assert dead == (("x", i) in got)


def test_alpha_hat_residues():
    # f1 = (t - y) X has zero windowed residue at every precision up to 64
    sys2 = SystemSpec("f", 2)
    for n in (1, 2, 5, 16, 64):
        ah = alpha_hat(GS, n)
        assert ah.precision == n
        res = apply_system(sys2, ah)
        f1 = dict(res)["f1"]
        assert f1.is_zero()
    # exact residue of f1 on the degree-n truncation is the single tail term
    ah = alpha_hat(GS, 5)
    t = _gen(GS, "t")
    y = _gen(GS, "y")
    exact = (t - y) * ah.body
    assert exact == _gen(GS, ("x", 4)) * t ** 5
    # in E1(2), f2 = t^2 X dies exactly, not just in the window
    ah2 = alpha_hat(E1(2), 8)
    assert (_gen(E1(2), "t") ** 2 * ah2.body).is_zero()
    # in E2, f3 = u X dies exactly
    ah3 = alpha_hat(E2, 8)
    assert (_gen(E2, "u") * ah3.body).is_zero()


def test_precision_element_contract():
    p = _gen(GS, ("x", 0)) + _gen(GS, ("x", 1)) * _gen(GS, "t")
    pe = PrecisionElement.of(p, 2)
    assert pe.body == p
    assert PrecisionElement.of(p, 1).body == _gen(GS, ("x", 0))
    with pytest.raises(RingError):
        PrecisionElement(p, 1)      # degree-1 term at precision 1
    with pytest.raises(RingError):
        PrecisionElement.of(p, 0)


def test_pow_and_truncate():
    t = _gen(GS, "t")
    y = _gen(GS, "y")
    p = t + y
    assert p ** 0 == GradedPoly.one(GS)
    assert p ** 3 == p * p * p
    with pytest.raises(RingError):
        p ** -1
    q = (t + y) ** 4
    assert max((dt for dt, _ in q.truncate(3).terms), default=0) <= 2
    # square-and-multiply agrees with repeated multiplication
    for ring in ALL_RINGS:
        g = GradedPoly.one(ring) + _gen(ring, ("x", 1))
        if ring.has_t:
            g = g + _gen(ring, "t")
        acc = GradedPoly.one(ring)
        for e in range(10):
            assert g ** e == acc
            acc = acc * g
    # a nilpotent base stops at zero instead of running the exponent out
    assert (_gen(GS, ("x", 0)) ** (10 ** 18)).is_zero()


def test_ring_id_validation():
    with pytest.raises(RingError):
        E1(1)
    with pytest.raises(RingError):
        RingId("Q7")
    assert E1(4).describe() == "E1[m=4]"
    assert E2.describe() == "E2"
    assert not R_ONLY.has_t
    assert E2.has_u and not GS.has_u


def test_degree_validation():
    with pytest.raises(RingError):
        _gen(R_ONLY, "t")
    with pytest.raises(RingError):
        _gen(GS, "u")
    with pytest.raises(RingError):
        _gen(CTRL, ("x", 0))        # CTRL x^0 is the identity index
    with pytest.raises(RingError):
        GradedPoly.monomial(GS, QQ.one(), idx=("y", 1), dt=0, du=1)


def test_mutation_leaves_closed_form_alone():
    # omitting a presentation generator never changes closed-form products
    mut = RingId("E1", 2, frozenset({"n0"}))
    x0 = _gen(mut, ("x", 0))
    t = _gen(mut, "t")
    assert (x0 * t ** 2).is_zero()
    assert mul_index(mut, ("y", 1), ("x", 3)) == ("x", 2)
