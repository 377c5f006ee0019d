"""Koszul homology windows, transition maps, and the pro-zero test.

Stage i of the one-variable system is the windowed annihilator of t^i;
stage i of the two-variable system on E2 is the three-term complex of
(t^i, u^i). Windows shrink with the stage: the degree shifts deg = i on
the complex generators make every differential and every transition map
degree-preserving, so images land exactly inside the target stage's
window and "nonzero" verdicts are certified, not truncation artifacts.

Stages are bigraded: every differential and every transition preserves
the total bidegree (a, c), so a stage is the direct sum of its slices,
and each stage object here is one slice. `koszul_pair`, `h0_of_h1` and
`koszul_h1_single` build slice (a, c) of stage i only. A pair slice reads
the raw slices (a - i, c) and (a, c - i) (k1's t- and u-slots),
(a - i, c - i) (k2) and (a, c) (k0); a module slice holds the vectors
of raw bidegree (a - i, c). The RREF of a block-diagonal system is the
union of the blocks' RREFs, so slice bases are the vectors of a
whole-stage build, and a stage's dimensions are sums over its slices.
An entry point checks each stage it builds once, before its first
slice (`_check_stage`); the slice builders check no budget. A stage
outside the window or over budget is a WindowError naming w and stage.

Transitions from stage j to stage i < j are multiplication by t^(j-i)
(identity on the degree-0 part, extended to the quotient modules in the
two-variable case), written once (`_image`) and searched once
(`_transition`) for every system. A transition maps a slice into the
target slice of the same (a, c), so the search builds a slice only when
it reads it. A reported witness is always replayable: its membership in
the source module, its image, and the nonzero-ness of that image in the
target are all recomputed from the relation span.

The row check (`ses_row_check`) walks the pair complex slice by slice
and frees each slice's tables (`KoszulStage`: d1 images, cycles, the
span of the d2 images) before the next. The d2 images of slice (a, c)
are the d1 images on k2's raw slice, which slices (a, c - i) and
(a - i, c) reduced as their own: the walk keeps them until that slice
reads them, so each image is reduced once.

Module slices come from the run's Context (`oracle.Context`), over its
field: each distinct (ring, system kind, stage, window, (a, c)) is built
once per context and then shared by the pro-zero search and the witness
replay, so neither may mutate a module. The functions that take no
context (`QuotientSpace`, `h1_of_h0`) read the field off the Echelons
they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Echelon, kernel_basis, kernel_span
from .oracle import (Context, OracleError, Window, WindowError,
                     check_ring, check_window, map_images, product_caps,
                     shift_reduce, slice_basis)


def _sub_window(w, ddt, ddu=0):
    """w shrunk by (ddt, ddu); a stage that does not fit is a WindowError."""
    if w.Dt < ddt or w.Du < ddu:
        raise WindowError("window-too-small: stage %d needs Dt >= %d and "
                          "Du >= %d, got Dt=%d Du=%d"
                          % (max(ddt, ddu), ddt, ddu, w.Dt, w.Du))
    return Window(w.Dt - ddt, w.Du - ddu, w.Mx)


def _check_stage(ring, kind, i, w):
    """Refuse stage i of an inverse system kind, or of the pair complex
    (kind "pair"), before its first slice: a ring or stage it cannot
    have, a window its ring cannot have (`check_ring`, on w), a stage
    outside w, then its budget. An inverse system maps t^i on w shrunk by
    (i, 0) (H0's u^i map reads less, into the same spans); the pair
    complex reads all of w (k0), its d1 maps landing in w's spans."""
    pair = kind == "pair"
    if kind != "H1(t)" and not ring.has_u:
        raise OracleError("%s needs a two-variable ring" % (
            "pair complex" if pair else "quotient homology"))
    if i < 1:
        raise OracleError("stage must be >= 1")
    check_ring(ring, w)
    fit = _sub_window(w, i, i if pair else 0)
    sub, g = (w, ()) if pair else (fit, {(i, 0, 0, 0, ()): 1})
    try:
        check_window(ring, sub, g)
    except WindowError as e:        # name w and the stage, not sub
        raise WindowError(str(e).replace(
            "Dt=%d Du=%d Mx=%d" % (sub.Dt, sub.Du, sub.Mx),
            "Dt=%d Du=%d Mx=%d at stage %d" % (w.Dt, w.Du, w.Mx, i),
            1)) from None
    if kind == "H0(u;H1(t))":
        _sub_window(w, i, i)


def _degrees(lo, w):
    """The total bidegrees (a, c) of a stage's slices, ascending: a from
    lo (the stage for a module, 0 for the pair complex) to Dt."""
    return [(a, c) for a in range(lo, w.Dt + 1) for c in range(w.Du + 1)]


def _check_degree(i, lo, w, deg):
    """Refuse a stage i below 1, or a bidegree that is no slice of a stage
    of `_degrees(lo, w)`."""
    if i < 1:
        raise OracleError("stage must be >= 1")
    a, c = deg
    if not (lo <= a <= w.Dt and 0 <= c <= w.Du):
        raise OracleError("bidegree %r is no slice of the stage" % (deg,))


def _images(ring, i, slot, dt, du, w, ctx):
    """t^i (slot "et") or u^i ("eu") times each basis monomial of the raw
    slice (dt, du), reduced: monomial -> image, in basis order. Empty for
    a slice below degree 0."""
    if dt < 0 or du < 0:
        return {}
    g = {((i, 0) if slot == "et" else (0, i)) + (0, 0, ()): 1}
    return map_images(ring, slice_basis(ring, dt, du, w, ctx), g,
                      *product_caps(w, g), ctx)


def _apply(vec, images, field):
    """The linear combination sum vec[lab] * images[lab], cancelled terms
    dropped."""
    out = {}
    for lab, c in vec.items():
        for mono, cc in images[lab].items():
            acc = field.add(out.get(mono, field.zero()), field.mul(c, cc))
            if field.is_zero(acc):
                out.pop(mono, None)
            else:
                out[mono] = acc
    return out


def koszul_h1_single(ring, i, w, deg, ctx=None):
    """H1 of the stage-i complex of t^i in total bidegree deg = (a, c):
    the annihilator of t^i on the raw slice (a - i, c), an Echelon."""
    _check_degree(i, i, w, deg)
    ctx = Context.of(ctx)
    a, c = deg
    return kernel_span(_images(ring, i, "et", a - i, c, w, ctx), ctx.field)


def transition_zero(ring, j, i, w, ctx=None):
    """Is the stage-j to stage-i transition of H1(t) the zero map?

    Returns (True, None) or (False, witness_vector), from the same search
    and the same context stage modules as `pro_zero_test`.

    Nothing in the package calls it: the tests keep it as the reference
    for the search's transitions and witnesses.
    """
    if not 0 < i < j:
        raise OracleError("transition needs stage indices 0 < i < j")
    _check_stage(ring, "H1(t)", i, w)
    _check_stage(ring, "H1(t)", j, w)
    return _transition(ring, "H1(t)", j, i, w, Context.of(ctx))


@dataclass(eq=False)
class KoszulStage:
    """Slice deg = (a, c) of stage i of the windowed three-term complex of
    (t^i, u^i): its H1 dimension and the tables the row check reads.

    Equality and hashing are by identity: a stage is an argument of
    `h1_of_h0`, and comparing its tables field by field means nothing.
    """

    ring: object
    i: int
    window: Window
    deg: tuple
    h1_dim: int
    d1: dict              # ("et"|"eu", mono) -> reduced image, on k1
    cycles: list          # basis of ker d1, tagged ("et"|"eu", mono) -> c
    boundaries: Echelon   # the span of the d2 images of the slice's k2
    d_squared_zero: bool


def koszul_pair(ring, i, w, deg, ctx=None):
    """Build slice deg = (a, c) of stage i of the two-variable windowed
    Koszul complex. Called alone, a slice reduces its d2 images itself;
    the row check's walk reads them off earlier slices instead.

    Nothing in the package calls it (the row check calls `_pair`): the
    tests check the closed-form H1 against it, and `bench/tracer.py`
    wraps it by name."""
    _check_stage(ring, "pair", i, w)
    _check_degree(i, 0, w, deg)
    ctx = Context.of(ctx)
    return _pair(ring, i, w, deg, _pair_images(ring, i, w, deg, ctx, {}),
                 ctx)


def _pair_images(ring, i, w, deg, ctx, kept):
    """The d1 images slice deg reads: (t, u, t_below, u_below), the t^i
    images of k1's t-slot, the u^i images of its u-slot, and the t^i and
    u^i images of k2, from which d2 is read.

    k2's images are the t-slot images of slice (a, c - i) and the u-slot
    images of slice (a - i, c): a slice leaves its own in `kept` for the
    slice that reads them, which pops them, and reduces those it does not
    find there.
    """
    a, c = deg

    def half(slot, dt, du):
        got = kept.pop((slot, dt, du), None)
        return _images(ring, i, slot, dt, du, w, ctx) if got is None else got

    t, u = half("et", a - i, c), half("eu", a, c - i)
    if c + i <= w.Du:               # slice (a, c + i) reads t
        kept[("et", a - i, c)] = t
    if a + i <= w.Dt:               # slice (a + i, c) reads u
        kept[("eu", a, c - i)] = u
    return t, u, half("et", a - i, c - i), half("eu", a - i, c - i)


def _pair(ring, i, w, deg, images, ctx):
    """Slice deg of the pair complex from the d1 images it reads."""
    field = ctx.field
    t, u, t_below, u_below = images
    d1 = {("et", m): img for m, img in t.items()}
    d1.update((("eu", m), img) for m, img in u.items())
    cycles = kernel_basis(d1, field)

    boundaries, d_sq_zero = Echelon(field), True
    for m, um in u_below.items():       # k2, in basis order
        # d2 of a k2 generator: (-u^i m, t^i m), read off d1 images
        b = {("et", mono): field.neg(c) for mono, c in um.items()}
        b.update((("eu", mono), c) for mono, c in t_below[m].items())
        if _apply(b, d1, field):
            d_sq_zero = False
        boundaries.insert(b)
    # H1 by rank-nullity: |ker d1| - rank d2
    return KoszulStage(ring, i, w, deg, len(cycles) - boundaries.dim, d1,
                       cycles, boundaries, d_sq_zero)


class QuotientSpace:
    """num / den with a canonical complement: representatives are reduced
    against the denominator's echelon, so equal classes render equally.
    The denominator is over the numerator Echelon's field."""

    def __init__(self, num, den_vectors):
        self.num = num                      # an Echelon
        self.den = Echelon.spanned_by(den_vectors, num.field)
        if not all(num.contains(v) for v in self.den.basis()):
            raise OracleError("denominator escapes numerator")

    @property
    def dim(self):
        return self.num.dim - self.den.dim

    def class_nonzero(self, vec):
        if not self.num.contains(vec):
            raise OracleError("vector outside numerator")
        return not self.den.contains(vec)

    def rep(self, vec):
        return self.den.reduce(vec)


def h0_of_h1(ring, i, w, deg, ctx=None):
    """Windowed Ann(t^i) / u^i Ann(t^i) in total bidegree deg = (a, c) of
    stage i: Ann(t^i) on the raw slice (a - i, c), modulo u^i times
    Ann(t^i) on the raw slice (a - i, c - i)."""
    if not ring.has_u:
        raise OracleError("quotient homology needs a two-variable ring")
    _check_degree(i, i, w, deg)
    _sub_window(w, i, i)
    ctx = Context.of(ctx)
    a, c = deg
    field = ctx.field
    return _quotient(
        kernel_span(_images(ring, i, "et", a - i, c, w, ctx), field),
        kernel_span(_images(ring, i, "et", a - i, c - i, w, ctx), field),
        _images(ring, i, "eu", a - i, c - i, w, ctx), field)


def _quotient(ann, ann_below, u_below, field):
    """H0(u^i; H1(t^i)) of one slice: Ann(t^i) of its raw slice (ann),
    modulo the u^i images (u_below) of Ann(t^i) one u^i-step down."""
    return QuotientSpace(ann, [_apply(v, u_below, field)
                               for v in ann_below.basis()])


def h1_of_h0(stage):
    """Windowed H1 of u^i acting on the quotient by t^i, read off a pair
    slice, over the field of its boundaries.

    Numerator: eu-slot monomials whose d1 image falls inside the image of
    t^i (the et-slot d1 images). Denominator: the eu-slot part of the
    slice's boundaries, the image of t^i one u^i-step down; any spanning
    set of the boundaries gives the same canonical rows.
    """
    field = stage.boundaries.field
    t_image = Echelon.spanned_by(
        (img for (slot, _), img in stage.d1.items() if slot == "et"), field)
    num = kernel_span({m: t_image.reduce(img)
                       for (slot, m), img in stage.d1.items() if slot == "eu"},
                      field)
    den = ({m: c for (slot, m), c in b.items() if slot == "eu"}
           for b in stage.boundaries.basis())
    return QuotientSpace(num, den)


def _rank_gain(base, extra):
    """How far the Echelon base grows when extra goes into a layer on it."""
    span = Echelon(base.field, base)
    return sum(span.insert(v) is not None for v in extra)


def ses_row_check(ring, i, w, ctx=None):
    """Exactness of the windowed row

        0 -> H0(u^i; H1(t^i)) -> H1(t^i, u^i) -> H1(u^i; H0(t^i)) -> 0

    with the left map [z] -> [(z, 0)] and the right map [(v, w)] -> [w].
    Verified by exact dimension accounting plus the two structural facts
    (the composite vanishes, the left map's kernel is the denominator).

    The row is a direct sum over total bidegree, so it is checked slice by
    slice (`_row_slice`), in ascending (a, c): the five dimensions and
    rank gains are summed over the slices and compared at the end, and
    the two structural checks must hold on every slice. A slice's tables
    are freed before the next slice is built; only the d1 images a later
    slice reads as its d2 images are kept until it reads them.
    """
    ctx = Context.of(ctx)
    check_row(ring, i, w)
    kept, sums, ok = {}, [0] * 5, True
    for deg in _degrees(0, w):
        if max(deg) < i:        # k0 alone: no H1, and both modules are 0
            continue
        *counts, slice_ok = _row_slice(ring, i, w, deg, ctx, kept)
        sums = [s + n for s, n in zip(sums, counts)]
        ok = ok and slice_ok
    h1, left, right, inj, surj = sums
    return ok and inj == left and surj == right and h1 == left + right


def check_row(ring, i, w):
    """Refuse the row of stage i (`ses_row_check`) before its first
    slice: it reads only the pair complex's maps."""
    _check_stage(ring, "pair", i, w)


def _row_slice(ring, i, w, deg, ctx, kept):
    """One slice of the row: (dim H1, dim left, dim right, the left map's
    rank gain, the right map's rank gain, both structural checks). The
    left module is read off the slice's d1 images (Ann(t^i) is the kernel
    of its t-slot images, and of k2's one u^i-step down), the right
    module off its d1 table and boundaries, and both ranks extend a span
    already eliminated."""
    images = _pair_images(ring, i, w, deg, ctx, kept)
    stage = _pair(ring, i, w, deg, images, ctx)
    t, _, t_below, u_below = images
    left = _quotient(kernel_span(t, ctx.field),
                     kernel_span(t_below, ctx.field), u_below, ctx.field)
    right = h1_of_h0(stage)
    nums = left.num.basis()
    # left map injectivity: span(boundaries + embedded numerator basis)
    # must grow by exactly dim(left)
    inj = _rank_gain(stage.boundaries,
                     ({("et", m): k for m, k in v.items()} for v in nums))
    # right map: rank of projected cycle classes must equal dim(right)
    surj = _rank_gain(right.den,
                      ({m: k for (slot, m), k in cyc.items() if slot == "eu"}
                       for cyc in stage.cycles))
    # the left map lands in cycles (so the composite with the right map
    # is zero on the nose: the second slot of (z, 0) is empty)
    lands_in_cycles = all(not shift_reduce(ring, v, i, 0, w, ctx=ctx)
                          for v in nums)
    return (stage.h1_dim, left.dim, right.dim, inj, surj,
            lands_in_cycles and stage.d_squared_zero)


@dataclass
class ProZeroRow:
    """One target stage of the pro-zero search.

    A row with no zero transition counts against pro-zero only when the
    window let it test a gap of at least 2: a single nonzero gap-1
    transition is compatible with a gap-2 pro-zero system, so such a row
    is marked window-limited instead of witnessed.
    """

    n: int
    least_zero_m: int = 0                 # 0 when no tested m gives the zero map
    witnesses: list = dc_field(default_factory=list)  # (m, vector) per failing m
    window_limited: bool = False


@dataclass
class ProZeroReport:
    rows: list
    verdict: str  # "pro-zero-up-to-window" | "NOT-pro-zero-witnessed"


def _system_kind(system):
    if system.kind not in ("H1(t)", "H0(u;H1(t))"):
        raise OracleError("%s is not an inverse system" % system.describe())
    return system.kind


def _stage_slice(ring, kind, i, w, deg, ctx):
    """The context's slice deg of stage i of an inverse system, built on
    first use: Ann(t^i) with no denominator, or H0(u^i; H1(t^i)). The
    caller has checked the stage (`_check_stage`)."""
    key = (ring, kind, i, w, deg)
    mod = ctx.stages.get(key)
    if mod is None:
        if kind == "H1(t)":
            mod = QuotientSpace(koszul_h1_single(ring, i, w, deg, ctx), [])
        else:
            mod = h0_of_h1(ring, i, w, deg, ctx)
        ctx.stages[key] = mod
    return mod


def _image(ring, v, m, n, w, ctx):
    """The transition image of a stage-m vector in stage n: t^(m-n) v."""
    return shift_reduce(ring, v, m - n, 0, w, ctx=ctx)


def _transition(ring, kind, m, n, w, ctx):
    """One witness search: is the stage-m to stage-n transition zero?

    Every stage-m representative is mapped by t^(m-n) and reduced modulo
    the stage-n denominator of its slice. Source slices are built as the
    search reaches them: the constant one, of raw bidegree (0, 0) and
    total (m, 0), first, then the others in descending (a, c); a slice's
    basis comes in descending pivot, its largest monomial. A target slice
    is built when the first vector is mapped into it. Returns (True,
    None), or (False, v) with v the first basis vector in that order with
    nonzero image. The caller has checked both stages.
    """
    rest = _degrees(m, w)
    rest.remove((m, 0))
    for deg in [(m, 0)] + rest[::-1]:
        src = _stage_slice(ring, kind, m, w, deg, ctx).num.basis()
        if not src:
            continue
        tgt = _stage_slice(ring, kind, n, w, deg, ctx)
        for v in src:
            if tgt.rep(_image(ring, v, m, n, w, ctx)):
                return False, v
    return True, None


def check_stage_count(max_stage):
    """A pro-zero search needs a target stage n >= 2 and a stage m > n."""
    if max_stage < 3:
        raise OracleError("pro-zero search needs max_stage >= 3")


def stage_degree(max_stage):
    """The default Dt (and Du, on a ring with u) of a pro-zero search up
    to max_stage: the top stage's window, shrunk by max_stage, keeps
    degree 2."""
    return max_stage + 2


def check_search(ring, system, max_stage, w):
    """Refuse a pro-zero search (`pro_zero_test`) before its first slice:
    too few stages, a system that is no inverse system, then each stage,
    in the order the rows first reach them. Returns the system kind."""
    check_stage_count(max_stage)
    kind = _system_kind(system)
    for i in range(2, max_stage + 1):
        _check_stage(ring, kind, i, w)
    return kind


def pro_zero_test(ring, system, max_stage, w, ctx=None):
    """Search each target stage for a later stage with zero transition.

    For n in 2..max_stage-1, try m in n+1..max_stage: the transition
    multiplies representatives by t^(m-n). If some m sends every stage-m
    class to the zero class, record the least such m; otherwise record a
    replayable nonzero witness for every tested m. A verdict needs one
    decisive row, one with a zero transition or not window-limited;
    without one the search is a WindowError.
    """
    kind = check_search(ring, system, max_stage, w)
    ctx = Context.of(ctx)
    rows = []
    for n in range(2, max_stage):
        row = ProZeroRow(n=n)
        for m in range(n + 1, max_stage + 1):
            zero, wit = _transition(ring, kind, m, n, w, ctx)
            if zero:
                row.least_zero_m = m
                break
            row.witnesses.append((m, wit))
        if not row.least_zero_m and max_stage - n < 2:
            row.window_limited = True
        rows.append(row)
    if all(r.window_limited for r in rows):
        raise WindowError("window-too-small: every pro-zero row is "
                          "window-limited at --max-stage %d; need >= %d"
                          % (max_stage, max_stage + 1))
    witnessed = any(not r.least_zero_m and not r.window_limited for r in rows)
    verdict = "NOT-pro-zero-witnessed" if witnessed else "pro-zero-up-to-window"
    return ProZeroReport(rows, verdict)


def transition_witness_replay(ring, system, m, n, w, witness, ctx=None):
    """Re-verify one reported witness against the context's stage modules.

    The module slices are the ones the search used (built once per
    context); the checks are recomputed: each slice part of the witness
    lies in its stage-m slice, its image under t^(m-n) is reduced again
    from the relation span, and that image lies in the stage-n numerator
    with a nonzero class.
    """
    kind = _system_kind(system)
    ctx = Context.of(ctx)
    _check_stage(ring, kind, m, w)
    _check_stage(ring, kind, n, w)
    for (a, c), part in _by_slice(witness, m).items():
        if not (a <= w.Dt and c <= w.Du and _stage_slice(
                ring, kind, m, w, (a, c), ctx).num.contains(part)):
            return False
    image = _by_slice(_image(ring, witness, m, n, w, ctx), n)
    return any(_stage_slice(ring, kind, n, w, deg, ctx).class_nonzero(part)
               for deg, part in image.items())


def _by_slice(vec, i):
    """A stage-i vector split by slice: total bidegree -> its part."""
    parts = {}
    for mono, c in vec.items():
        parts.setdefault((mono[0] + i, mono[1]), {})[mono] = c
    return parts
