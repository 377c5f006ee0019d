"""Surface syntax for elements, ring specifiers, and system specifiers.

Grammar (stable):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?          (exponent at most MAX_EXPONENT)
    atom   := rational | 'y' | 't' | 'u' | 'x' nat | '(' expr ')'

ASCII whitespace between tokens is ignored; every other character
outside the grammar (a no-break space, say) is a parse error, so the
offset of an error is a byte offset as well. There is no implicit
multiplication ("x0t" is a syntax error, "x0*t" is not) and no unary
minus; the printer renders a leading negative term as "0 - ...", which
stays inside the grammar. Rationals are '/'-notation only, no decimals.

The printer emits the canonical form: terms ascending by (t-degree,
u-degree), within a slice the pure y-powers before the x-generators,
coefficient 1 suppressed, so parse_element(print_element(p)) == p.
"""

from __future__ import annotations

from .fields import QQ
from .rings import (GS, CTRL, E1, E2, R_ONLY, GradedPoly, RingError,
                    SystemSpec)

# Largest exponent accepted after '^'. Larger ones are rejected as parse
# errors rather than computed: nothing in the paper's rings needs them.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    """Syntax or validity error; position is a 0-based byte offset."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self):
        if self.position is None:
            return self.message
        return "%s (at offset %d)" % (self.message, self.position)


# -- tokenizer

_PUNCT = {"+", "-", "*", "^", "/", "(", ")"}

# ASCII only, like the digits, so every error offset is a byte offset
_SPACE = " \t\n\r\f\v"


def _is_nat(s):
    # ASCII only: str.isdigit also accepts digits such as "²" that int()
    # rejects
    return s.isascii() and s.isdigit()


def _nat(text, i, j):
    try:
        return int(text[i:j])
    except ValueError:     # beyond the digit limit of int()
        raise ParseError("number has too many digits", i) from None


def _tokens(text):
    """Yield (kind, value, offset). Kinds: nat, name, punct, end."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in _SPACE:
            i += 1
            continue
        if _is_nat(c):
            j = i
            while j < n and _is_nat(text[j]):
                j += 1
            yield ("nat", _nat(text, i, j), i)
            i = j
            continue
        if c in ("y", "t", "u"):
            yield ("name", c, i)
            i += 1
            continue
        if c == "x":
            j = i + 1
            while j < n and _is_nat(text[j]):
                j += 1
            if j == i + 1:
                raise ParseError("generator x needs a numeric index", i)
            yield ("xgen", _nat(text, i + 1, j), i)
            i = j
            continue
        if c in _PUNCT:
            yield ("punct", c, i)
            i += 1
            continue
        raise ParseError("unexpected character %r" % c, i)
    yield ("end", None, n)


class _Parser:
    def __init__(self, text, ring, field):
        self.text = text
        self.ring = ring
        self.field = field
        self.toks = list(_tokens(text))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, val, off = self.next()
        if kind != "punct" or val != ch:
            raise ParseError("expected %r" % ch, off)

    def parse(self):
        p = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError("trailing input", off)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "punct" and val in ("+", "-"):
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "punct" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "punct" and val == "^":
            self.next()
            kind, e, off = self.next()
            if kind != "nat":
                raise ParseError("exponent must be a natural number", off)
            if e > MAX_EXPONENT:
                raise ParseError("exponent %d exceeds the cap %d"
                                 % (e, MAX_EXPONENT), off)
            return p ** e
        return p

    def atom(self):
        kind, val, off = self.next()
        if kind == "nat":
            num = val
            k2, v2, _ = self.peek()
            if k2 == "punct" and v2 == "/":
                self.next()
                k3, den, off3 = self.next()
                if k3 != "nat":
                    raise ParseError("denominator must be a natural number", off3)
                if den == 0:
                    raise ParseError("zero denominator", off3)
                c = self.field.from_fraction(num, den)
            else:
                c = self.field.from_int(num)
            return GradedPoly.monomial(self.ring, c, field=self.field)
        if kind == "name":
            try:
                return GradedPoly.gen(self.ring, val, self.field)
            except RingError as e:
                raise ParseError(str(e), off) from None
        if kind == "xgen":
            if self.ring.variant == "CTRL" and val == 0:
                return GradedPoly.one(self.ring, self.field)
            try:
                return GradedPoly.gen(self.ring, ("x", val), self.field)
            except RingError as e:
                raise ParseError(str(e), off) from None
        if kind == "punct" and val == "(":
            p = self.expr()
            self.expect_punct(")")
            return p
        raise ParseError("expected a value", off)


def parse_element(text, ring, field=QQ):
    """Parse an element expression into a reduced GradedPoly."""
    return _Parser(text, ring, field).parse()


# -- printer

def _idx_sort_key(idx):
    kind, n = idx
    return (0, n) if kind == "y" else (1, n)


def _power(name, e):
    if e == 0:
        return ""
    if e == 1:
        return name
    return "%s^%d" % (name, e)


def _mono_text(idx, dt, du):
    parts = []
    kind, n = idx
    if kind == "y" and n > 0:
        parts.append(_power("y", n))
    elif kind == "x":
        parts.append("x%d" % n)
    if dt:
        parts.append(_power("t", dt))
    if du:
        parts.append(_power("u", du))
    return "*".join(parts)


def print_element(p):
    """Canonical rendering; parse_element(print_element(p)) == p."""
    items = []
    for (dt, du) in sorted(p.terms):
        slice_ = p.terms[(dt, du)]
        for idx in sorted(slice_, key=_idx_sort_key):
            items.append((dt, du, idx, slice_[idx]))
    return print_terms(items, p.field)


def print_terms(items, field):
    """Render (dt, du, basis index, coefficient) terms, given in print
    order, as `print_element` renders an element with those terms."""
    if not items:
        return "0"
    out = []
    for dt, du, idx, c in items:
        mono = _mono_text(idx, dt, du)
        cr = field.render(c)
        neg = cr.startswith("-")
        if neg:
            cr = cr[1:]
        body = mono if cr == "1" and mono else (cr if not mono else cr + "*" + mono)
        if not out:
            out.append("0 - " + body if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# -- ring and system specifiers

def parse_ring(text):
    """Parse a ring specifier: R | GS | E1 | E1[m=<nat>] | E2 | CTRL."""
    s = text.strip(_SPACE)
    plain = {"R": R_ONLY, "GS": GS, "E2": E2, "CTRL": CTRL}
    if s in plain:
        return plain[s]
    if s == "E1":
        return E1(2)
    if s.startswith("E1[m=") and s.endswith("]"):
        inner = s[5:-1]
        at = text.index("E1[m=") + 5
        if not _is_nat(inner):
            raise ParseError("ring parameter m must be a natural number", at)
        m = _nat(text, at, at + len(inner))
        if m < 2:
            raise ParseError("invalid-parameter: m must be >= 2", at)
        return E1(m)
    raise ParseError("unknown-ring: %r" % s, 0)


def parse_system(text, m=2):
    """Parse a system specifier: f | f[n=<nat>] | H1(t) | H0(u;H1(t)).

    The ring's t-exponent parameter m bounds the approximation system's
    n from below (n >= m)."""
    s = "".join(c for c in text if c not in _SPACE)
    if s == "f":
        n = 2
    elif s.startswith("f[n=") and s.endswith("]"):
        inner = s[4:-1]
        if not _is_nat(inner):
            raise ParseError("system parameter n must be a natural number", 0)
        n = _nat(inner, 0, len(inner))
    elif s == "H1(t)":
        return SystemSpec(kind="H1(t)")
    elif s == "H0(u;H1(t))":
        return SystemSpec(kind="H0(u;H1(t))")
    else:
        raise ParseError("unknown-system: %r" % text.strip(_SPACE), 0)
    if n < m:
        raise ParseError("invalid-parameter: n must be >= m = %d" % m, 0)
    return SystemSpec(kind="f", n=n)
