"""Independent brute-force verification layer.

Nothing here trusts the closed-form arithmetic in `rings`. Elements are
re-expressed as raw monomials of the free presentation (powers of y, at
most two x-factors, powers of t and u), the defining relators are
multiplied out against window monomials, and every reduction is exact
linear algebra against that relation span.

Two structural facts keep this fast. First, every relator row is
homogeneous in (t, u)-bidegree, so the relation span decomposes slice by
slice and each slice span is tiny. With the slice's (dt, du) stripped
(set to zero), a slice span depends only on the stripped relator rows
that divide the slice and on the caps: every t/u relator strips to a
bare x_l (CTRL's to its power x), whichever ring and tag it came from.
So there is one span per distinct set of stripped relator rows and
caps, shared across the slices and rings of one run through its
Context; a row stripped twice (E2's n_l and np_l) is inserted once. The
bidegree-zero rows divide every slice and come first, so a shape span is
the bidegree-zero span plus its own t/u rows: it is a layer
(`Echelon(field, base)`) holding only those rows, on the (0, 0) span of
the same caps, which is eliminated once per caps and never written to
again.
Second, within one x-factor rewriting only moves monomials downward in
the canonical order (y-exponents and x-indices shrink), so a slice span
whose caps cover the input also covers everything reduction can produce.
A product of two x-factors climbs in x-index before it dies; the caps
that cover that climb, and the argument for each cap, are in
`product_caps`, and a product its caps do not cover is refused where it
is reduced (`_check_reach`).

A linear map's images are reduced slice by slice (`map_images`): the
domain is walked one (dt, du) slice at a time, and each span its images
land in is looked up once for the slice. `mul_map` maps a window's basis
(`window_basis`, a sorted tuple of raw monomials: the bases of its
slices, `slice_basis`, in turn) and `kernel_of` takes the common kernel
of one or more maps as an `Echelon` over that basis: every windowed
kernel (a system's solutions, torsion, annihilators) is one.
`annihilator_oracle` takes it on the (0, 0) slice alone, the one it
reads.

A window is checked once, where a computation takes it, by the one
gate `check_window`, which `kernel_of` and `annihilator_oracle` call
before they build anything; the builders below them check nothing.

Raw monomial shape: (dt, du, nx, ypow, xs) with xs a sorted tuple of
x-indices and nx = len(xs), so plain tuple comparison is the canonical
term order. Every ring uses this one shape. In CTRL = k[x,t]/(x t^2) the
single variable x is a power, so x^a t^d sits in the power slot as
(d, 0, 0, a, ()); its relator x*t^2 is an ordinary slice generator, and
products and reductions need no CTRL case.

Every function that reaches `slice_span` takes a trailing `ctx`, the
Context of the run, and computes over its field: a run has one field,
so no function takes a field beside its context. Leaving ctx out
(ctx=None) gives the call a fresh context over q; passing one context
to many calls lets them share slice spans and annihilators (and, in
`koszul`, stage modules). Nothing is cached at module level. The caches
have two lifetimes: slice spans, large and cheap to rebuild, live until
`Context.drop_spans`, which `claims.run_all` calls before each claim;
annihilators and stage modules, small and costly, live as long as the
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .fields import QQ
from .linalg import Echelon, kernel_basis
from .rings import RingError, system_operators


# What one window may hold, basis monomials and span rows together.
WINDOW_BUDGET = 1_000_000


class OracleError(ValueError):
    pass


class WindowError(OracleError):
    """Raised when a window violates the soundness margin."""


@dataclass(frozen=True)
class Window:
    """Truncation bounds: max t-degree, max u-degree, max x-index/y-exponent.

    Mx is the window's margin in the coefficient direction: Mx >=
    max(Dt, Du) + 2 keeps the x-index of every t/u relator of the
    window's slices (x_l*t^(l+m), x_l*t^l*u) inside the window. The caps
    at which products are reduced are not Mx itself: `product_caps` works
    them out from Mx and the multiplier. `Window.of` is the one place a
    default Mx is decided.
    """

    Dt: int
    Du: int = 0
    Mx: int = 0

    def __post_init__(self):
        if self.Dt < 0 or self.Du < 0 or self.Mx < 0:
            raise WindowError("window-too-small: negative bound")
        if self.Mx < self.least_mx(self.Dt, self.Du):
            raise WindowError(
                "window-too-small: need Mx >= max(Dt, Du) + 2, got "
                "Dt=%d Du=%d Mx=%d" % (self.Dt, self.Du, self.Mx))

    @staticmethod
    def least_mx(dt, du):
        """The smallest Mx the margin allows at (dt, du)."""
        return max(dt, du) + 2

    @classmethod
    def of(cls, dt, du, mx=None, mx_default=12):
        """The window at (dt, du): a given mx is binding, an unset one is
        mx_default raised to the margin."""
        if mx is None:
            mx = max(mx_default, cls.least_mx(dt, du))
        return cls(dt, du, mx)


class Context:
    """The field and the caches of one run: slice spans, annihilators and
    Koszul stage modules.

    `field` is the run's one field (q by default): everything computed
    in the context is over it, so no cache key names a field.
    `shapes` maps a shape key (x-multiplier range, bidegree-zero rows or
    the layer's base, t/u rows, ycap, xcap, pairs) to the Echelon of its
    span over stripped monomials: one span per distinct set of stripped
    relator rows and caps, shared across the slices and rings of one
    run. A key holds no ring, so rings whose slices strip to the same
    rows share one Echelon. `spans` maps a slice key (ring, dt, du, ycap,
    xcap, pairs) to the Echelon of its shape, so a repeated slice skips
    working out its rows. `annihilators` maps (ring, dt, du, Mx) to the
    kernel Echelon of `annihilator_oracle`, which reads no more of the
    window than Mx. `stages` maps (ring, system kind, stage, window,
    (a, c)) to the slice of total bidegree (a, c) of a Koszul stage
    module: a stage is built one slice at a time, and only the slices
    read are built (`koszul`).
    Cached objects are shared, so no consumer may mutate them; a shape
    span is a layer on the (0, 0) span, which it reads and never writes.
    Hashes by identity.

    `shapes` and `spans` live until `drop_spans`; `annihilators` and
    `stages` hold no span and live as long as the context.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.shapes = {}
        self.spans = {}
        self.annihilators = {}
        self.stages = {}

    def drop_spans(self):
        """Forget every slice span; later calls rebuild the spans they
        read. Shapes and spans go together: a layer's shape key names its
        base by id(), which a base dropped alone could hand to a new
        object."""
        self.shapes.clear()
        self.spans.clear()

    @staticmethod
    def of(ctx):
        """ctx itself, or a fresh Context over q when ctx is None."""
        return Context() if ctx is None else ctx


# -- raw monomials ----------------------------------------------------------

def mono_mul(m1, m2):
    dt1, du1, n1, y1, xs1 = m1
    dt2, du2, n2, y2, xs2 = m2
    return (dt1 + dt2, du1 + du2, n1 + n2, y1 + y2,
            tuple(sorted(xs1 + xs2)))


def mono_of_index(idx, dt=0, du=0, ring=None):
    """Raw monomial of a basis index; a CTRL power x^a goes to the power slot."""
    kind, n = idx
    if kind == "y" or (ring is not None and ring.variant == "CTRL"):
        return (dt, du, 0, n, ())
    return (dt, du, 1, 0, (n,))


def index_of_mono(mono, ring=None):
    dt, du, nx, ypow, xs = mono
    if nx == 0:
        if ypow and ring is not None and ring.variant == "CTRL":
            return ("x", ypow)
        return ("y", ypow)
    if nx == 1 and ypow == 0:
        return ("x", xs[0])
    raise OracleError("monomial %r is not a reduced basis element" % (mono,))


def raw_mul(v1, v2, field=QQ):
    """Product of two raw vectors, term by term; cancelled terms dropped."""
    out = {}
    for m1, c1 in v1.items():
        for m2, c2 in v2.items():
            p = mono_mul(m1, m2)
            c = field.mul(c1, c2)
            acc = out.get(p)
            c = field.add(acc, c) if acc is not None else c
            if field.is_zero(c):
                out.pop(p, None)
            else:
                out[p] = c
    return out


# -- per-slice relation spans -----------------------------------------------

def _x_indices(ring, cap):
    """x-generator indices of the ambient up to cap; CTRL has none."""
    return range(0 if ring.variant == "CTRL" else cap + 1)


def _relator_families(ring, dt, du, xtop):
    """The relators of bidegree dividing (dt, du), family by family.

    Each family is (tag prefix, index range, member): member(l) is the
    raw vector of the relator tagged prefix + l. xtop caps the generator
    x-indices. Sizing a family builds nothing, so a window's span rows can
    be estimated before any span exists.
    """
    if ring.variant == "CTRL":   # x^a in the power slot, one relator x*t^2
        return [("n", range(1 if dt >= 2 else 0),
                 lambda l: {(2, 0, 0, 1, ()): 1})]
    fams = [("a", range(xtop + 1),
             lambda i: {(0, 0, 1, 0, (i - 1,)): 1, (0, 0, 1, 1, (i,)): -1}
             if i else {(0, 0, 1, 1, (0,)): 1})]
    if ring.variant == "E1":
        fams.append(("n", range(min(xtop, dt - ring.m) + 1),
                     lambda l: {(l + ring.m, 0, 1, 0, (l,)): 1}))
    elif ring.variant == "E2":
        fams.append(("n", range(min(xtop, dt - 2) + 1),
                     lambda l: {(l + 2, 0, 1, 0, (l,)): 1}))
        fams.append(("np", range(min(xtop, dt) + 1 if du >= 1 else 0),
                     lambda l: {(l, 1, 1, 0, (l,)): 1}))
    return fams


def _slice_generators(ring, dt, du, xtop):
    """Relator polynomials of bidegree dividing (dt, du), as raw vectors.

    The bidegree-zero relators a0..a_xtop always come first. The tags let
    tests mutate the presentation through RingId.omit.
    """
    gens = []
    for prefix, ls, member in _relator_families(ring, dt, du, xtop):
        gens += [("%s%d" % (prefix, l), member(l)) for l in ls]
    return [(tag, vec) for tag, vec in gens if tag not in ring.omit]


def _stripped_rows(ring, dt, du, xcap):
    """The slice's relators with its (dt, du) stripped, each row a tuple
    of (monomial, coefficient) pairs, as (bidegree-zero rows, the slice's
    own t/u rows). A repeated row is dropped and its first occurrence
    kept, in generation order."""
    rows = {}
    for _, vec in _slice_generators(ring, dt, du, xcap):
        rows.setdefault(tuple(((0, 0) + m[2:], c) for m, c in vec.items()),
                        next(iter(vec))[:2] == (0, 0))
    return (tuple(row for row, zero in rows.items() if zero),
            tuple(row for row, zero in rows.items() if not zero))


def slice_span(ring, dt, du, ycap, xcap, pairs=False, ctx=None):
    """Echelon of the relation span of one (dt, du) bidegree slice, over
    stripped monomials: the slice's (dt, du) is zeroed in every row.

    With pairs=False the ambient carries at most one x-factor and relator
    multipliers are x-free. With pairs=True multipliers may carry one
    x-factor, so the span also proves where two-x monomials die.
    One span per distinct set of stripped relator rows and caps, shared
    across the slices and rings of one run: the shape key holds the rows,
    the x-multiplier range, the caps and pairs, and no ring, so
    the same rows are inserted in the same order whichever slice builds
    it. A slice with both bidegree-zero and t/u rows is a layer on the
    (0, 0) span of the same caps, the span of its bidegree-zero rows, and
    holds only its t/u rows; its key names that base by identity in place
    of the base's rows (the base lives in the context as long as the key).
    """
    ctx = Context.of(ctx)
    key = (ring, dt, du, ycap, xcap, pairs)
    ech = ctx.spans.get(key)
    if ech is None:
        xs = _x_indices(ring, xcap)
        zero, own = _stripped_rows(ring, dt, du, xcap)
        base = None
        if zero and own:
            base = slice_span(ring, 0, 0, ycap, xcap, pairs, ctx)
            zero = id(base)     # the base's rows, named by the base
        shape = (xs, zero, own, ycap, xcap, pairs)
        ech = ctx.shapes.get(shape)
        if ech is None:
            rows = own if base is not None else zero + own
            ech = ctx.shapes[shape] = _shape_span(rows, xs, ycap, xcap,
                                                  pairs, ctx.field, base)
        ctx.spans[key] = ech
    return ech


def _shape_span(rows, xs, ycap, xcap, pairs, field, base=None):
    """An Echelon, a layer on base if one is given, of each stripped row
    times every multiplier; xs is the range of multiplier x-indices."""
    ech = Echelon(field, base)
    mults = [(0, 0, 0, a, ()) for a in range(ycap + 1)]
    if pairs:
        mults += [(0, 0, 1, a, (k,)) for a in range(ycap + 1) for k in xs]
    for row in rows:
        terms = [(gm, field.from_int(c)) for gm, c in row]
        for m in mults:
            vec = {}
            for gm, c in terms:
                p = mono_mul(gm, m)
                if p[3] > ycap or (p[4] and p[4][-1] > xcap):
                    break
                vec[p] = c
            else:
                ech.insert(vec)
    return ech


def product_caps(w, g=()):
    """The caps (ycap, xcap, pairs) at which products of the window's
    basis by the raw vector g are reduced: the one caps rule, and the one
    place its margin is decided. With g = () they are the window basis
    caps. With ymax and xmax g's largest y-exponent and x-index:

    - x-free g: (Mx + max(2, ymax), Mx, False), so a g of y-degree at
      most 2 (t, t - y, y^2) shares the window basis caps and its spans;
    - g with an x-factor: (Mx + 2 + ymax, Mx + 2 + max(Mx, xmax), True),
      the two-x (pairs) spans, at x-cap 2*Mx + 2 while xmax <= Mx.

    Why no nonzero image is truncated. A product of a basis monomial
    (y^a or x_i, a, i <= Mx) by a term of g is a monomial whose reduction
    the span must hold. Within one x-factor, rewriting only lowers the
    y-exponent and the x-index (y*x_i -> x_(i-1), y*x_0 -> 0, and the
    t/u rows are monomials), so a span whose y-cap covers the product's
    y-degree, at most Mx + ymax, and whose x-cap covers its x-index holds
    every step. A two-x monomial climbs instead: x_i*x_k = x_(i+1)*x_(k-1)
    = ... = x_(i+k)*x_0 = x_(i+k+1)*(y*x_0), which is 0, so it needs
    x-indices up to i + k + 1 <= Mx + xmax + 1 and one y above its own,
    at most ymax + 1.

    Why a cap too small is an error. A smaller cap only removes span rows
    and never adds a relation, so it can never make a false zero; but it
    can leave a product that is zero looking nonzero, and many verdicts
    rest on a nonzero (a `COUNTER:`, a pro-zero witness). So the argument
    is checked where products are reduced: `map_images` and `reduce_raw`
    refuse, as a WindowError, a product whose reduction reaches past
    their caps by the bounds above (`_check_reach`). With these caps no
    product of the window's basis by g is refused; with any smaller ones
    the claim stops with the error instead of a verdict.
    `tests/test_oracle.py` checks these caps against the older, larger
    ones on every ring, and `tests/test_claims.py` that caps 3 short
    falsify no claim.
    """
    ymax = max((m[3] for m in g), default=0)
    xmax = max((x for m in g for x in m[4]), default=None)
    if xmax is not None:
        return w.Mx + 2 + ymax, w.Mx + 2 + max(w.Mx, xmax), True
    return w.Mx + max(2, ymax), w.Mx, False


def check_ring(ring, w):
    """Refuse a window its ring cannot have, estimating nothing: a
    positive Du on a ring without u, or Dt without t, is a RingError."""
    for var, bound, has in (("u", w.Du, ring.has_u), ("t", w.Dt, ring.has_t)):
        if bound > 0 and not has:
            raise RingError("ring %s has no %s, so the window needs D%s = 0"
                            % (ring.describe(), var, var))


def check_window(ring, w, g=()):
    """The window gate: refuse, before anything is built, a window its
    ring cannot have (`check_ring`), then one too large to compute.

    The estimate is the window's ambient basis plus the rows of the shape
    spans its caller builds: those of the window's own slices at the
    basis caps (`window_basis`), and those at the caps of products by the
    raw vector g (`product_caps`) of every slice up to (Dt, Du) plus g's
    degrees, where the images of a map by g land (`mul_map`). A shape span
    holds at most its relators times the multipliers: the bidegree-zero
    relators it shares with the (0, 0) span plus its own t/u relators. No
    relator has u-degree above 1, so the slices with du <= 1 show every
    shape. Returns the estimate.
    """
    check_ring(ring, w)
    reach = (max((m[0] for m in g), default=0),
             max((m[1] for m in g), default=0))
    # per slice y^0..y^Mx and x_0..x_Mx (CTRL: its powers only), counted
    # without len(range(...)), which overflows on a huge Mx
    basis = ((w.Dt + 1) * (w.Du + 1) * (w.Mx + 1)
             * (1 if ring.variant == "CTRL" else 2))
    need = "~%d basis monomials" % basis
    rows = 0
    if basis <= WINDOW_BUDGET:
        spans = {(yc, xc, pr, tuple(len(ls) for _, ls, _ in
                                    _relator_families(ring, dt, du, xc)))
                 for (yc, xc, pr), dtop, dutop in (
                     (product_caps(w), w.Dt, w.Du),
                     (product_caps(w, g), w.Dt + reach[0], w.Du + reach[1]))
                 for dt in range(dtop + 1) for du in range(min(dutop, 1) + 1)}
        rows = sum(sum(sizes) * (yc + 1)
                   * (1 + len(_x_indices(ring, xc)) if pr else 1)
                   for yc, xc, pr, sizes in spans)
        need += " and ~%d span rows" % rows
    if basis + rows > WINDOW_BUDGET:
        raise WindowError("window-too-large: Dt=%d Du=%d Mx=%d needs %s, "
                          "over the budget of %d"
                          % (w.Dt, w.Du, w.Mx, need, WINDOW_BUDGET))
    return basis + rows


def _check_reach(m, ycap, xcap, pairs):
    """Refuse to reduce the stripped monomial m at caps its reduction
    reaches past (`product_caps`): a WindowError, since a span that does
    not reach as far as m's reduction leaves m looking nonzero. One
    x-factor: m itself, as `_shape_span` bounds its rows. Two: one y above
    m's and x-index i + k + 1, the top of the climb x_i*x_k = ... =
    x_(i+k+1)*y*x_0, in a span with pairs. Allocates nothing."""
    nx = m[2]
    if (m[3] + (nx > 1) > ycap or (nx and sum(m[4]) + nx - 1 > xcap)
            or (nx > 1 and not pairs)):
        raise WindowError("window-too-small: reducing %r reaches past the "
                          "caps ycap=%d xcap=%d pairs=%s"
                          % (m, ycap, xcap, pairs))


def reduce_raw(ring, vec, ycap, xcap, pairs=False, ctx=None):
    """Normal form of a raw vector modulo the relation span, slice by slice.

    Each slice is reduced stripped, against its shape's span, and its
    (dt, du) restored on the way out. A monomial whose reduction reaches
    past the caps is refused (`_check_reach`).
    """
    by_slice = {}
    for (dt, du, nx, y, xs), c in vec.items():
        m = (0, 0, nx, y, xs)
        _check_reach(m, ycap, xcap, pairs)
        by_slice.setdefault((dt, du), {})[m] = c
    out = {}
    for (dt, du), sub in sorted(by_slice.items()):
        ech = slice_span(ring, dt, du, ycap, xcap, pairs, ctx)
        for (_, _, nx, y, xs), c in ech.reduce(sub).items():
            out[(dt, du, nx, y, xs)] = c
    return out


def shift_reduce(ring, vec, dt, du, w, ypow=0, ctx=None):
    """vec * t^dt u^du y^ypow, reduced with the window's one-x caps."""
    ctx = Context.of(ctx)
    g = {(dt, du, 0, ypow, ()): ctx.field.one()}
    return reduce_raw(ring, raw_mul(vec, g, ctx.field), *product_caps(w, g),
                      ctx=ctx)


# -- windowed monomial bases ------------------------------------------------

def window_basis(ring, w, ctx=None):
    """The canonical reduced basis of the window, from the presentation,
    as a sorted tuple of raw monomials: its slices' bases (`slice_basis`)
    in turn, drawn from one ambient, so every slice shares its x-index
    tuples. Checks nothing: its caller has checked w."""
    ambient = _ambient(ring, w.Mx)
    return tuple(m for dt in range(w.Dt + 1) for du in range(w.Du + 1)
                 for m in slice_basis(ring, dt, du, w, ctx, ambient))


def _ambient(ring, mx):
    """The stripped monomials a slice basis is drawn from: y^0..y^mx
    (CTRL: its powers of x) and x_0..x_mx."""
    return ([(0, 0, 0, a, ()) for a in range(mx + 1)]
            + [(0, 0, 1, 0, (i,)) for i in _x_indices(ring, mx)])


def slice_basis(ring, dt, du, w, ctx=None, ambient=None):
    """The canonical reduced basis of the (dt, du) slice of the window's
    ring, as a sorted list of raw monomials: the ambient monomials
    (`_ambient(ring, w.Mx)`, built here unless given) whose stripped form
    is not a pivot of the slice's shape span at the window basis caps.
    Reads w's Mx only and checks nothing: a caller checks its window
    (`check_window`) before its first slice.
    """
    if ambient is None:
        ambient = _ambient(ring, w.Mx)
    ech = slice_span(ring, dt, du, *product_caps(w), ctx=ctx)
    return [(dt, du) + m[2:] for m in ech.non_pivots(ambient)]


# -- elements <-> vectors ----------------------------------------------------

def vectorize(p):
    """Raw vector of a reduced graded polynomial."""
    out = {}
    for (dt, du), coeffs in p.terms.items():
        for idx, c in coeffs.items():
            out[mono_of_index(idx, dt, du, p.ring)] = c
    return out


# -- linear maps and kernels -------------------------------------------------

def mul_map(ring, g, w, ctx=None):
    """Exact multiplication by the raw vector g on the window's reduced
    basis: a dict domain monomial -> reduced image, in basis order.

    Images are computed in the enlarged codomain (`product_caps`: the
    caps grow by g's degrees), then reduced against the relation span, so
    a kernel vector here really multiplies to zero.
    """
    domain = window_basis(ring, w, ctx)
    return map_images(ring, domain, g, *product_caps(w, g), ctx)


def map_images(ring, monos, gvec, ycap, xcap, pairs=False, ctx=None):
    """Reduced image of each domain monomial times the raw vector gvec,
    whose coefficients, ints like a relator's, are read into ctx's field.

    The domain is walked slice by slice, so each span a slice's images
    land in is looked up once for the slice, not once per monomial; sorted
    monomials make each slice one run. Within a slice, the terms of g of
    one bidegree send a monomial to one target slice, where its stripped
    products are reduced against that slice's span, and a product whose
    reduction reaches past the caps is refused (`_check_reach`). Returns a
    dict domain monomial -> reduced raw vector.
    """
    ctx = Context.of(ctx)
    field = ctx.field
    one = field.one()
    by_slice = {}
    for (dt, du, nx, y, xs), c in gvec.items():
        c = field.mul(one, c)
        if not field.is_zero(c):
            by_slice.setdefault((dt, du), []).append(((0, 0, nx, y, xs), c))
    gslices = sorted(by_slice.items())
    images = {}
    for (dt, du), run in groupby(monos, itemgetter(0, 1)):
        targets = [(dt + gdt, du + gdu, terms,
                    slice_span(ring, dt + gdt, du + gdu, ycap, xcap, pairs,
                               ctx))
                   for (gdt, gdu), terms in gslices]
        for m in run:
            stripped = (0, 0) + m[2:]
            out = {}
            for tdt, tdu, terms, ech in targets:
                sub = {mono_mul(stripped, gm): c for gm, c in terms}
                for p in sub:
                    _check_reach(p, ycap, xcap, pairs)
                for (_, _, nx, y, xs), c in ech.reduce(sub).items():
                    out[(tdt, tdu, nx, y, xs)] = c
            images[m] = out
    return images


def kernel_of(ring, gs, w, ctx=None):
    """The window vectors that multiplication by every raw vector of gs
    kills, as an Echelon over the window's basis.

    One map's images go to `kernel_basis` as they are; with several, each
    image column is tagged by its map's position, so the elimination sees
    the maps side by side. Each image is popped from its map as it is
    read, so the elimination can free it once its row is in. Every map's
    window is checked before the first map is built.
    """
    for g in gs:
        check_window(ring, w, g)
    return _kernel_of(ring, gs, w, ctx)


def _kernel_of(ring, gs, w, ctx):
    """`kernel_of` on a window its caller has checked."""
    ctx = Context.of(ctx)
    maps = [mul_map(ring, g, w, ctx) for g in gs]
    domain = list(maps[0])
    if len(maps) == 1:
        image = maps[0].pop
    else:
        def image(m):
            return {(k, mono): c for k, images in enumerate(maps)
                    for mono, c in images.pop(m).items()}
    return Echelon.spanned_by(kernel_basis(domain, image, ctx.field),
                              ctx.field)


def system_kernel(ring, system, w, ctx=None):
    """Windowed solutions of the named operator system."""
    ctx = Context.of(ctx)
    ops = system_operators(system, ring, ctx.field)
    return kernel_of(ring, [vectorize(op) for _, op in ops], w, ctx)


# -- annihilators and torsion -------------------------------------------------

def annihilator_oracle(ring, dt, du, w, ctx=None):
    """Windowed annihilator of t^dt u^du inside the coefficient slice.

    Domain: the (t, u)-degree-zero part of the window basis. A vector is
    kept iff its product with the monomial reduces to zero. It is the
    kernel on the window (0, 0, Mx), whose one slice is mapped at the
    caps of a whole-window `mul_map` (an x-free multiplier), and w is
    checked once, as that map's window, before the shift degree. Computed
    once per context and Mx, the one bound the kernel reads; the Echelon
    is shared, so callers must not mutate it.
    """
    shift = {(dt, du, 0, 0, ()): 1}
    check_window(ring, w, shift)
    if dt < 0 or du < 0:
        raise OracleError("shift degree must be >= 0, got t^%d u^%d"
                          % (dt, du))
    if dt > w.Dt or du > w.Du:
        raise WindowError("window-too-small: shift degree exceeds window")
    ctx = Context.of(ctx)
    key = (ring, dt, du, w.Mx)
    ann = ctx.annihilators.get(key)
    if ann is None:
        ann = ctx.annihilators[key] = _kernel_of(
            ring, [shift], Window(0, 0, w.Mx), ctx)
    return ann


def torsion_subspace(ring, w, K=None, ctx=None):
    """Window vectors killed by t^K (and u^K in E2). Default K = Dt+Du+2."""
    if K is None:
        K = w.Dt + w.Du + 2
    if K < 1:
        raise OracleError("torsion exponent must be >= 1")
    shifts = [{(K, 0, 0, 0, ()): 1}]
    if ring.has_u:
        shifts.append({(0, K, 0, 0, ()): 1})
    return kernel_of(ring, shifts, w, ctx)


# -- window hygiene -----------------------------------------------------------

def boundary_touch(vec, w):
    """True if the vector leans on the coefficient-direction window edge.

    Contact at y-exponent (CTRL: x-power) Mx or x-index Mx means enlarging
    Mx could reveal more of whatever subspace the vector belongs to;
    t-degree support is part of the windowed statement itself and is not
    flagged.
    """
    return any(m[3] >= w.Mx or (m[4] and m[4][-1] >= w.Mx) for m in vec)


def subspace_boundary_touch(sub, w):
    """True if a basis vector of the Echelon sub leans on w's edge."""
    return any(boundary_touch(v, w) for v in sub.basis())
