"""Expression grammar, printing, ring and system spec parsing."""

import random

import pytest

from prozero.fields import QQ, PrimeField
from prozero.parser import (MAX_EXPONENT, ParseError, parse_element,
                            parse_ring, parse_system, print_element)
from prozero.rings import CTRL, E1, E2, GS, R_ONLY, GradedPoly, RingError

RINGS = [R_ONLY, GS, E1(2), E1(3), E2, CTRL]


def _gen(ring, name):
    return GradedPoly.gen(ring, name)


def test_parse_golden():
    assert parse_element("x0*t^2", E1(2)).is_zero()
    assert parse_element("y^2 * x5", R_ONLY) == _gen(R_ONLY, ("x", 3))
    assert parse_element("0", GS).is_zero()
    p = parse_element("1/2*y^3 + x2", GS)
    half = QQ.from_fraction(1, 2)
    want = _gen(GS, "y") ** 3 * GradedPoly.one(GS).scale(half) + _gen(GS, ("x", 2))
    assert p == want
    assert parse_element("(t - y)*(t + y)", GS) == \
        _gen(GS, "t") ** 2 - _gen(GS, "y") ** 2
    # CTRL writes powers positionally: x3 is the cube, x0 the identity
    assert parse_element("x3*t", CTRL) == _gen(CTRL, ("x", 3)) * _gen(CTRL, "t")
    assert parse_element("x0", CTRL) == GradedPoly.one(CTRL)


def test_parse_whitespace_and_parens():
    a = parse_element("y^2*x5+2*x1", R_ONLY)
    b = parse_element("  y ^ 2 * x5 + 2 * x1 ", R_ONLY)
    assert a == b
    assert parse_element("((x0))", GS) == _gen(GS, ("x", 0))


def test_parse_error_offsets():
    with pytest.raises(ParseError) as e:
        parse_element("x0t", E1(2))
    assert e.value.position == 2
    assert "offset 2" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_element("x", GS)
    assert e.value.position == 0
    with pytest.raises(ParseError) as e:
        parse_element("1/0", GS)
    assert e.value.position == 2
    with pytest.raises(ParseError) as e:
        parse_element(")", GS)
    assert e.value.position == 0
    with pytest.raises(ParseError) as e:
        parse_element("x0*", GS)
    assert e.value.position == 3
    with pytest.raises(ParseError) as e:
        parse_element("2y", GS)          # no implicit multiplication
    assert e.value.position == 1
    with pytest.raises(ParseError) as e:
        parse_element("-x0", GS)          # no unary minus
    assert e.value.position == 0
    with pytest.raises(ParseError) as e:
        parse_element("t*(x0 + y)^%d" % (MAX_EXPONENT + 1), GS)
    assert e.value.position == 11         # the exponent's own offset
    assert parse_element("y^%d" % MAX_EXPONENT, GS) == \
        _gen(GS, "y") ** MAX_EXPONENT
    # whitespace is ASCII only: a no-break space is itself the error, so
    # the offset (counted in characters) is also the byte offset
    for text, at in (("x0\u00a0 + x0t", 2), ("x0 + x0t\u00a0", 8)):
        with pytest.raises(ParseError) as e:
            parse_element(text, GS)
        assert e.value.position == at
        assert len(text[:at].encode()) == at


def test_parse_rejects_foreign_generators():
    with pytest.raises(ParseError):
        parse_element("t", R_ONLY)
    with pytest.raises(ParseError):
        parse_element("u", GS)
    with pytest.raises(ParseError):
        parse_element("y^2", CTRL)        # CTRL has no second variable


def test_print_golden():
    assert print_element(GradedPoly.zero(GS)) == "0"
    assert print_element(_gen(E1(2), ("x", 0)) * _gen(E1(2), "t")) == "x0*t"
    p = _gen(GS, "y") ** 2 * _gen(GS, ("x", 5))
    assert print_element(p) == "x3"
    neg = GradedPoly.zero(GS) - _gen(GS, ("x", 1))
    assert print_element(neg) == "0 - x1"
    half = GradedPoly.one(GS).scale(QQ.from_fraction(1, 2))
    assert print_element(half * _gen(GS, "t")) == "1/2*t"


def _random_poly(rng, ring, field=QQ):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        dt = rng.randint(0, 3) if ring.has_t else 0
        du = rng.randint(0, 2) if ring.has_u else 0
        if ring.variant == "CTRL":
            idx = ("x", rng.randint(1, 4)) if rng.random() < 0.7 else ("y", 0)
        elif rng.random() < 0.5:
            idx = ("x", rng.randint(0, 6))
        else:
            idx = ("y", rng.randint(0, 3))
        c = field.from_fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
        slot = terms.setdefault((dt, du), {})
        acc = field.add(slot.get(idx, field.zero()), c)
        if field.is_zero(acc):
            slot.pop(idx, None)
        else:
            slot[idx] = acc
    terms = {d: s for d, s in terms.items() if s}
    return GradedPoly(ring, terms, field)


def test_round_trips_seeded():
    # 1000 print -> parse round trips across every ring variant
    rng = random.Random(2024)
    per_ring = 170
    total = 0
    for ring in RINGS:
        for _ in range(per_ring):
            p = _random_poly(rng, ring)
            text = print_element(p)
            back = parse_element(text, ring)
            assert back == p, "round trip broke on %r" % text
            total += 1
    assert total >= 1000


def test_round_trips_prime_field():
    fp = PrimeField(13)
    rng = random.Random(4)
    for _ in range(50):
        p = _random_poly(rng, GS, fp)
        assert parse_element(print_element(p), GS, fp) == p


def test_parse_ring():
    assert parse_ring("R") == R_ONLY
    assert parse_ring("GS") == GS
    assert parse_ring("E1") == E1(2)
    assert parse_ring("E1[m=4]") == E1(4)
    assert parse_ring("E2") == E2
    assert parse_ring("CTRL") == CTRL
    with pytest.raises((ParseError, RingError)):
        parse_ring("E1[m=1]")
    with pytest.raises(ParseError):
        parse_ring("E3")
    with pytest.raises(ParseError):
        parse_ring("E1[m=]")


def test_parse_system():
    assert parse_system("f").kind == "f"
    assert parse_system("f").n == 2
    assert parse_system("f[n=3]").n == 3
    assert parse_system("H1(t)").kind == "H1(t)"
    assert parse_system("H0(u;H1(t))").kind == "H0(u;H1(t))"
    assert parse_system(" f [ n = 4 ] ").n == 4
    with pytest.raises((ParseError, RingError)):
        parse_system("f[n=1]")
    with pytest.raises((ParseError, RingError)):
        parse_system("f[n=2]", m=3)       # exponent below ring truncation
    with pytest.raises(ParseError):
        parse_system("H2(t)")
