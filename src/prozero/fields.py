"""Exact coefficient fields.

Everything downstream (ring elements, elimination, report rendering) is
parametrized by a Field object so the same code runs over the rationals and
over a prime field. Scalars are plain hashable Python values: small ints in
[0, p) for GF(p); for the rationals, int until a non-unit inverse or a
parsed fraction brings in a Fraction. Elimination over the paper's rings
meets almost only pivots +-1, so most rational work never leaves int
arithmetic (the simplest case of Bareiss' fraction-free elimination).
No floats, ever.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class Rationals:
    """The field of rational numbers.

    Scalars are int until a non-unit inverse or a parsed fraction brings
    in a Fraction; the two compare, hash and render alike.
    """

    name = "q"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def from_fraction(self, num, den):
        if den == 0:
            raise FieldError("zero denominator")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        if a == 1 or a == -1:
            return a
        # Fraction(1, a), never 1 / a: int division makes a float
        return Fraction(1, a)

    def is_zero(self, a):
        return a == 0

    def render(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)


MAX_MODULUS = 2 ** 64


def is_prime(n):
    """Deterministic Miller-Rabin with the prime bases 2..37.

    Exact below 318665857834031151167461 (about 3.2e23), the least strong
    pseudoprime to all twelve bases, so exact on every modulus below 2^64.
    """
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) with int scalars reduced to [0, p), for primes p < 2^64."""

    def __init__(self, p):
        if p >= MAX_MODULUS:
            raise FieldError("fp modulus must be below 2^64")
        if not is_prime(p):
            raise FieldError("fp modulus must be prime, got %r" % (p,))
        self.p = p
        self.name = "fp:%d" % p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den):
        if den % self.p == 0:
            raise FieldError("denominator divisible by modulus")
        return (num * self.inv(den % self.p)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def render(self, a):
        return str(a % self.p)


QQ = Rationals()


def field_from_spec(text):
    """Parse a field spec string: "q" or "fp:<prime>"."""
    t = text.strip().lower()
    if t == "q":
        return QQ
    if t.startswith("fp:"):
        body = t[3:]
        if not (body.isascii() and body.isdigit()):
            raise FieldError("bad prime in field spec %r" % (text,))
        if len(body.lstrip("0")) > len(str(MAX_MODULUS)):
            # checked before int(), which refuses 4,300 digits and more
            raise FieldError("fp modulus must be below 2^64")
        return PrimeField(int(body))
    raise FieldError("unknown field spec %r (want q or fp:<prime>)" % (text,))
