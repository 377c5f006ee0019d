"""Ring variants and exact element arithmetic.

Five ring variants share one element representation:

  R     base coefficient ring with k-basis {y^a} + {x_i}, where
        y^a * y^b = y^(a+b), y^a * x_i = x_(i-a) for a <= i (else 0),
        and x_i * x_j = 0
  GS    polynomial ring R[t], no relations touching t
  E1(m) R[t] truncated so that x_i t^d = 0 once d >= i + m (m >= 2)
  E2    R[t,u] with the E1(2) truncation in t plus the mixed rule
        x_i t^d u^e = 0 once e >= 1 and d >= i
  CTRL  k[x,t] with x t^2 = 0, a bounded-torsion control; its basis
        indices are powers of x, not indexed generators

Elements are graded polynomials: a finite map (dt, du) -> coefficient
vector over the basis indices, kept in normal form at all times. All
arithmetic is exact over a pluggable field (rationals by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import QQ


class RingError(ValueError):
    pass


# Basis indices: ("y", a) is y^a with ("y", 0) the identity; ("x", i) is x_i.
# In CTRL, ("x", a) means the power x^a and y does not exist (only ("y", 0)).
Y_ONE = ("y", 0)

_VARIANTS = ("R", "GS", "E1", "E2", "CTRL")


@dataclass(frozen=True)
class RingId:
    """Identifies a ring variant plus its structural parameter.

    `omit` drops named truncation generators from the raw presentation used
    by the elimination oracle. Closed-form arithmetic always describes the
    unmutated ring; falsification tests rely on the two layers diverging.
    """

    variant: str
    m: int = 2
    omit: frozenset = dc_field(default_factory=frozenset)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise RingError("unknown ring variant %r" % (self.variant,))
        if self.variant == "E1" and self.m < 2:
            raise RingError("E1 truncation offset must be >= 2, got %d" % self.m)

    @property
    def has_t(self):
        return self.variant != "R"

    @property
    def has_u(self):
        return self.variant == "E2"

    def describe(self):
        if self.variant == "E1":
            return "E1[m=%d]" % self.m
        return self.variant


R_ONLY = RingId("R")
GS = RingId("GS")
E2 = RingId("E2")
CTRL = RingId("CTRL")


def E1(m=2):
    return RingId("E1", m)


def check_index(ring, idx):
    kind, n = idx
    if kind not in ("y", "x") or n < 0:
        raise RingError("bad basis index %r" % (idx,))
    if ring.variant == "CTRL":
        if kind == "y" and n > 0:
            raise RingError("y does not exist in CTRL")
        if kind == "x" and n == 0:
            raise RingError("x^0 must be written as the identity index")


def check_degree(ring, dt, du):
    if dt < 0 or du < 0:
        raise RingError("negative degree")
    if dt > 0 and not ring.has_t:
        raise RingError("t does not exist in ring %s" % ring.describe())
    if du > 0 and not ring.has_u:
        raise RingError("u does not exist in ring %s" % ring.describe())


def mul_index(ring, a, b):
    """Product of two basis indices, or None when it is zero in R.

    Degree-dependent vanishing is not applied here; see `vanishes`.
    """
    (k1, n1), (k2, n2) = a, b
    if ring.variant == "CTRL":
        # powers of a single variable
        if k1 == "y":
            return b
        if k2 == "y":
            return a
        return ("x", n1 + n2)
    if k1 == "y" and k2 == "y":
        return ("y", n1 + n2)
    if k1 == "x" and k2 == "x":
        return None
    # y^a * x_i: shift the index down, dying below zero
    ypow, xi = (n1, n2) if k1 == "y" else (n2, n1)
    if ypow <= xi:
        return ("x", xi - ypow)
    return None


def vanishes(ring, idx, dt, du):
    """Closed-form test: does the monomial idx * t^dt * u^du vanish?"""
    kind, n = idx
    if kind == "y":
        return False
    if ring.variant in ("R", "GS"):
        return False
    if ring.variant == "E1":
        return dt >= n + ring.m
    if ring.variant == "E2":
        return dt >= n + 2 or (du >= 1 and dt >= n)
    # CTRL: x^a t^d = 0 once a >= 1 and d >= 2
    return n >= 1 and dt >= 2


def ann_formula(ring, dt, du=0, mx=None):
    """Closed-form basis of the annihilator of t^dt u^du among the x-indices.

    GS has none. E1(m) gives {x_0 .. x_(dt-m)} for dt >= m. E2 gives
    {x_0 .. x_(dt-2)} for du = 0, dt >= 2 and {x_0 .. x_dt} for du >= 1.
    CTRL kills every positive power of x once dt >= 2, so a bound `mx` on
    the power is required there. Raises for the bare coefficient ring.
    """
    if ring.variant == "R":
        raise RingError("annihilator formula needs a t-graded ring")
    check_degree(ring, dt, du)
    if ring.variant == "GS":
        return []
    if ring.variant == "E1":
        top = dt - ring.m
    elif ring.variant == "E2":
        if du >= 1:
            top = dt
        else:
            top = dt - 2
    else:  # CTRL
        if dt < 2:
            return []
        if mx is None:
            raise RingError("CTRL annihilator is every positive power of x; pass mx")
        return [("x", a) for a in range(1, mx + 1)]
    return [("x", i) for i in range(0, top + 1)]


def r_mul(a, b, field=QQ):
    """Product of two coefficient vectors in the base ring R.

    Inputs and output are maps basis-index -> scalar with no stored zeros.
    No code path here calls it; it stays because tests check it and the
    benchmark counts its calls by name (`bench/run.py`, rings.mul_calls),
    where a missing function stops `bench/run.py --trace 1` with a
    KeyError.
    """
    out = {}
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            idx = mul_index(R_ONLY, i1, i2)
            if idx is None:
                continue
            c = field.mul(c1, c2)
            acc = out.get(idx)
            c = field.add(acc, c) if acc is not None else c
            if field.is_zero(c):
                out.pop(idx, None)
            else:
                out[idx] = c
    return out


class GradedPoly:
    """A reduced element of one of the ring variants.

    terms: map (dt, du) -> (map index -> scalar). Construction reduces
    modulo the closed-form vanishing rules and drops zeros, so normal form
    is an invariant, not an operation.
    """

    __slots__ = ("ring", "field", "terms")

    def __init__(self, ring, terms=None, field=QQ, _validated=False):
        self.ring = ring
        self.field = field
        clean = {}
        for (dt, du), coeffs in (terms or {}).items():
            if not _validated:
                check_degree(ring, dt, du)
            vec = {}
            for idx, c in coeffs.items():
                if not _validated:
                    check_index(ring, idx)
                if field.is_zero(c) or vanishes(ring, idx, dt, du):
                    continue
                vec[idx] = c
            if vec:
                clean[(dt, du)] = vec
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, ring, field=QQ):
        return cls(ring, {}, field)

    @classmethod
    def monomial(cls, ring, coeff, idx=Y_ONE, dt=0, du=0, field=QQ):
        return cls(ring, {(dt, du): {idx: coeff}}, field)

    @classmethod
    def one(cls, ring, field=QQ):
        return cls.monomial(ring, field.one(), field=field)

    @classmethod
    def gen(cls, ring, name, field=QQ):
        """The generator written `name`: "y", "t", "u", or ("x", i)."""
        if name == "y":
            if ring.variant == "CTRL":
                raise RingError("y does not exist in CTRL")
            return cls.monomial(ring, field.one(), ("y", 1), field=field)
        if name == "t":
            return cls.monomial(ring, field.one(), dt=1, field=field)
        if name == "u":
            return cls.monomial(ring, field.one(), du=1, field=field)
        if isinstance(name, tuple) and name[0] == "x":
            return cls.monomial(ring, field.one(), name, field=field)
        raise RingError("unknown generator %r" % (name,))

    # -- structure

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.ring, self.terms) == (other.ring, other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(
            ((d, tuple(sorted(v.items()))) for d, v in self.terms.items())))))

    def component(self, dt, du=0):
        """The coefficient vector at one bidegree (a copy)."""
        return dict(self.terms.get((dt, du), {}))

    def _check_compatible(self, other):
        if self.ring != other.ring:
            raise RingError("ring mismatch: %s vs %s"
                            % (self.ring.describe(), other.ring.describe()))
        if self.field is not other.field and self.field.name != other.field.name:
            raise RingError("field mismatch")

    # -- arithmetic

    def __add__(self, other):
        self._check_compatible(other)
        f = self.field
        terms = {d: dict(v) for d, v in self.terms.items()}
        for d, vec in other.terms.items():
            tgt = terms.setdefault(d, {})
            for idx, c in vec.items():
                acc = tgt.get(idx)
                c = f.add(acc, c) if acc is not None else c
                if f.is_zero(c):
                    tgt.pop(idx, None)
                else:
                    tgt[idx] = c
        return GradedPoly(self.ring, terms, f, _validated=True)

    def __neg__(self):
        f = self.field
        terms = {d: {i: f.neg(c) for i, c in v.items()}
                 for d, v in self.terms.items()}
        return GradedPoly(self.ring, terms, f, _validated=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        f, ring = self.field, self.ring
        terms = {}
        for (dt1, du1), v1 in self.terms.items():
            for (dt2, du2), v2 in other.terms.items():
                d = (dt1 + dt2, du1 + du2)
                tgt = terms.setdefault(d, {})
                for i1, c1 in v1.items():
                    for i2, c2 in v2.items():
                        idx = mul_index(ring, i1, i2)
                        if idx is None:
                            continue
                        c = f.mul(c1, c2)
                        acc = tgt.get(idx)
                        c = f.add(acc, c) if acc is not None else c
                        if f.is_zero(c):
                            tgt.pop(idx, None)
                        else:
                            tgt[idx] = c
        return GradedPoly(ring, terms, f, _validated=True)

    def __pow__(self, e):
        """Square-and-multiply; stops as soon as the running power is zero."""
        if not isinstance(e, int) or e < 0:
            raise RingError("exponent must be a non-negative integer")
        out = GradedPoly.one(self.ring, self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
                if base.is_zero():
                    return base
        return out

    def scale(self, c):
        """self times the scalar c. No code path here calls it; it stays
        because tests use it and the benchmark tracer wraps it by name
        (`bench/tracer.py` METHODS), where a missing method stops
        `bench/run.py --trace 1` with a KeyError."""
        f = self.field
        if f.is_zero(c):
            return GradedPoly.zero(self.ring, f)
        terms = {d: {i: f.mul(c, v) for i, v in vec.items()}
                 for d, vec in self.terms.items()}
        return GradedPoly(self.ring, terms, f, _validated=True)

    def truncate(self, n):
        """Drop every term of total degree >= n."""
        terms = {d: v for d, v in self.terms.items() if d[0] + d[1] < n}
        return GradedPoly(self.ring, terms, self.field, _validated=True)

    def __repr__(self):
        from .parser import print_element
        return "<%s: %s>" % (self.ring.describe(), print_element(self))


# The largest precision a formal solution is built to.
MAX_PRECISION = 1000


@dataclass(frozen=True)
class PrecisionElement:
    """A graded polynomial known modulo total degree `precision`."""

    body: GradedPoly
    precision: int

    def __post_init__(self):
        if self.precision < 1:
            raise RingError("precision must be >= 1")
        for (dt, du) in self.body.terms:
            if dt + du >= self.precision:
                raise RingError("term of degree >= precision in body")

    @classmethod
    def of(cls, poly, precision):
        return cls(poly.truncate(precision), precision)

    def is_zero(self):
        return self.body.is_zero()


def alpha_hat(ring, n, field=QQ):
    """The formal solution x_0 + x_1 t + ... truncated to precision n."""
    if ring.variant not in ("GS", "E1", "E2"):
        raise RingError("formal solution needs a t-graded ring with x-indices")
    if n < 1:
        raise RingError("precision must be >= 1")
    if n > MAX_PRECISION:    # the solution has n terms: refuse, do not hang
        raise RingError("precision must be at most %d, got %d"
                        % (MAX_PRECISION, n))
    terms = {(i, 0): {("x", i): field.one()} for i in range(n)}
    return PrecisionElement(GradedPoly(ring, terms, field), n)


@dataclass(frozen=True)
class SystemSpec:
    """A named system of operators.

    kind "f" is the approximation system: f1 = (t - y) X, f2 = t^n X, and
    in E2 also f3 = u X. The homology-system kinds name inverse systems
    consumed by the pro-zero test.
    """

    kind: str  # "f" | "H1(t)" | "H0(u;H1(t))"
    n: int = 2

    def __post_init__(self):
        if self.kind not in ("f", "H1(t)", "H0(u;H1(t))"):
            raise RingError("unknown system %r" % (self.kind,))
        if self.kind == "f" and self.n < 2:
            raise RingError("system exponent must be >= 2, got %d" % self.n)

    def describe(self):
        if self.kind == "f":
            return "f[n=%d]" % self.n
        return self.kind


def system_operators(system, ring, field=QQ):
    """The multipliers of the approximation system as ring elements."""
    if system.kind != "f":
        raise RingError("%s is not an operator system" % system.describe())
    if ring.variant == "E1" and system.n < ring.m:
        raise RingError("system exponent n=%d below ring truncation m=%d"
                        % (system.n, ring.m))
    t = GradedPoly.gen(ring, "t", field)
    y = GradedPoly.gen(ring, "y", field)
    ops = [("f1", t - y)]
    tn = GradedPoly.monomial(ring, field.one(), dt=system.n, field=field)
    ops.append(("f2", tn))
    if ring.has_u:
        ops.append(("f3", GradedPoly.gen(ring, "u", field)))
    return ops


def apply_system_raw(system, poly):
    """Exact residues of the system on a graded polynomial, untruncated."""
    ops = system_operators(system, poly.ring, poly.field)
    return [(name, op * poly) for name, op in ops]


def apply_system(system, candidate):
    """Residues of the system on a precision element.

    Multiplying by t^d u^e raises attainable precision by d + e, so each
    residue is reported at the precision its operator supports.
    """
    ops = system_operators(system, candidate.body.ring, candidate.body.field)
    out = []
    for name, op in ops:
        gain = 0
        if name == "f2":
            gain = system.n
        elif name == "f3":
            gain = 1
        res = op * candidate.body
        out.append((name, PrecisionElement.of(res, candidate.precision + gain)))
    return out
