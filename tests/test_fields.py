"""Field arithmetic: axioms, exactness, rendering."""

import random
from fractions import Fraction

import pytest

from prozero.fields import (QQ, FieldError, PrimeField, field_from_spec,
                            is_prime)


def _axiom_loop(field, sample, count=300, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c = sample(rng), sample(rng), sample(rng)
        results = [field.add(a, b), field.sub(a, b), field.mul(a, b),
                   field.neg(a)]
        if not field.is_zero(a):
            results.append(field.inv(a))
        assert not any(isinstance(r, float) for r in results)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        lhs = field.mul(a, field.add(b, c))
        rhs = field.add(field.mul(a, b), field.mul(a, c))
        assert lhs == rhs
        assert field.add(a, field.neg(a)) == field.zero()
        assert field.sub(a, b) == field.add(a, field.neg(b))
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()


def test_qq_axioms():
    def fractions(rng):
        return QQ.from_fraction(rng.randint(-50, 50), rng.randint(1, 30))

    def mixed(rng):
        # integers from from_int take the int fast path; mixing them with
        # Fraction values must stay exact
        if rng.random() < 0.5:
            return QQ.from_int(rng.randint(-5, 5))
        return fractions(rng)
    _axiom_loop(QQ, fractions)
    _axiom_loop(QQ, mixed)
    assert QQ.inv(QQ.from_int(2)) == Fraction(1, 2)
    assert QQ.inv(QQ.from_fraction(-2, 3)) == Fraction(-3, 2)
    # unit integers stay int through inversion and products
    assert type(QQ.inv(QQ.from_int(-1))) is int
    assert type(QQ.mul(QQ.from_int(3), QQ.one())) is int


def test_prime_field_axioms():
    fp = PrimeField(97)

    def sample(rng):
        return fp.from_int(rng.randint(-200, 200))
    _axiom_loop(fp, sample)


def test_qq_exactness():
    # 1/3 has no finite binary expansion; exact arithmetic keeps it closed
    third = QQ.from_fraction(1, 3)
    acc = QQ.zero()
    for _ in range(3):
        acc = QQ.add(acc, third)
    assert acc == QQ.one()


def test_from_fraction_rejects_zero_denominator():
    with pytest.raises(FieldError):
        QQ.from_fraction(1, 0)
    with pytest.raises(FieldError):
        PrimeField(5).from_fraction(1, 5)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)


def test_render_golden():
    assert QQ.render(QQ.from_fraction(3, 2)) == "3/2"
    assert QQ.render(QQ.from_int(-1)) == "-1"
    assert QQ.render(QQ.zero()) == "0"
    fp = PrimeField(7)
    assert fp.render(fp.from_int(10)) == "3"


def test_field_from_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec(" Q ") is QQ
    fp = field_from_spec("fp:97")
    assert fp.mul(fp.from_int(96), fp.from_int(96)) == fp.one()
    with pytest.raises(FieldError):
        field_from_spec("fp:4")
    with pytest.raises(FieldError):
        field_from_spec("fp:x")
    with pytest.raises(FieldError):
        field_from_spec("real")


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if is_prime(n)] == \
        [n for n in range(5000) if trial(n)]


def test_is_prime_beats_pseudoprimes():
    # Carmichael numbers, and strong pseudoprimes to the first few bases
    for n in (561, 1105, 1729, 2047, 3215031751, 341550071728321,
              3825123056546413051):
        assert not is_prime(n)
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59):
        assert is_prime(p)


def test_modulus_bound():
    assert PrimeField(2 ** 64 - 59).p == 2 ** 64 - 59
    with pytest.raises(FieldError, match="below 2\\^64"):
        PrimeField(2 ** 64 + 13)         # prime, but past the bound
    with pytest.raises(FieldError, match="below 2\\^64"):
        field_from_spec("fp:" + "7" * 401)
    with pytest.raises(FieldError, match="below 2\\^64"):
        field_from_spec("fp:" + "9" * 5000)   # past int()'s digit limit
    assert field_from_spec("fp:00097").p == 97
    with pytest.raises(FieldError, match="prime"):
        field_from_spec("fp:561")
