"""Koszul homology windows, transition maps, and the pro-zero test.

Stage i of the one-variable system is the windowed annihilator of t^i;
stage i of the two-variable system on E2 is the three-term complex of
(t^i, u^i). Windows shrink with the stage: the degree shifts deg = i on
the complex generators make every differential and every transition map
degree-preserving, so images land exactly inside the target stage's
window and "nonzero" verdicts are certified, not truncation artifacts.

Transitions from stage j to stage i < j are multiplication by t^(j-i)
(identity on the degree-0 part, extended to the quotient modules in the
two-variable case), written once (`_image`) and searched once
(`_transition`) for every system. A reported witness is always
replayable: its membership in the source module, its image, and the
nonzero-ness of that image in the target are all recomputed from the
relation span.

A stage that does not fit inside the window is a WindowError naming it.

A two-variable stage (`KoszulStage`) keeps its d1 table, the reduced
image of every k1 generator, and the span of its d2 images; H0, H2 and
the right module H1(u^i; H0(t^i)) of the short exact row (`h1_of_h0`)
are read off them, so a stage reduces each image once.

Stage modules come from the run's Context (`oracle.Context`): each
distinct (ring, system kind, stage, window, field) is built once per
context and then shared by the pro-zero search, the witness replay and
the short-exact-row check, so none of them may mutate a module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import QQ
from .linalg import Echelon, kernel_basis
from .oracle import (Context, OracleError, Window, WindowError,
                     check_window_ring, kernel_of, map_images, product_caps,
                     shift_reduce, window_basis)


def _sub_window(w, ddt, ddu=0):
    """w shrunk by (ddt, ddu); a stage that does not fit is a WindowError."""
    if w.Dt < ddt or w.Du < ddu:
        raise WindowError("window-too-small: stage %d needs Dt >= %d and "
                          "Du >= %d, got Dt=%d Du=%d"
                          % (max(ddt, ddu), ddt, ddu, w.Dt, w.Du))
    return Window(w.Dt - ddt, w.Du - ddu, w.Mx)


def koszul_h1_single(ring, i, w, field=QQ, ctx=None):
    """Windowed annihilator of t^i over the full window."""
    if i < 1:
        raise OracleError("stage must be >= 1")
    return kernel_of(ring, [{(i, 0, 0, 0, ()): field.one()}], w, field, ctx)


def transition_zero(ring, j, i, w, field=QQ, ctx=None):
    """Is the stage-j to stage-i transition of H1(t) the zero map?

    Returns (True, None) or (False, witness_vector), from the same search
    and the same context stage modules as `pro_zero_test`.
    """
    if not 0 < i < j:
        raise OracleError("transition needs stage indices 0 < i < j")
    return _transition(ring, "H1(t)", j, i, w, field, Context.of(ctx))


@dataclass(eq=False)
class KoszulStage:
    """The windowed three-term complex of (t^i, u^i) with its homology.

    Equality and hashing are by identity: a stage is an argument of
    `h1_of_h0`, and comparing its tables field by field means nothing.
    """

    ring: object
    i: int
    window: Window
    h0_dim: int
    h1_dim: int
    h2_dim: int
    d1: dict              # ("et"|"eu", mono) -> reduced image, over all of k1
    cycles: list          # basis of ker d1, tagged ("et"|"eu", mono) -> c
    boundaries: Echelon   # the span of the d2 images of the k2 basis
    d_squared_zero: bool


def koszul_pair(ring, i, w, field=QQ, ctx=None):
    """Build stage i of the two-variable windowed Koszul complex."""
    if not ring.has_u:
        raise OracleError("pair complex needs a two-variable ring")
    if i < 1:
        raise OracleError("stage must be >= 1")
    ctx = Context.of(ctx)
    k2 = window_basis(ring, _sub_window(w, i, i), field, ctx)
    k1t = window_basis(ring, _sub_window(w, i, 0), field, ctx)
    k1u = window_basis(ring, _sub_window(w, 0, i), field, ctx)
    k0 = window_basis(ring, w, field, ctx)

    d1 = {}                            # each d1 image is reduced once
    for slot, k1, deg in (("et", k1t, (i, 0)), ("eu", k1u, (0, i))):
        g = {deg + (0, 0, ()): field.one()}
        images = map_images(ring, k1, g, *product_caps(w, g), field, ctx)
        d1.update(((slot, m), img) for m, img in images.items())
    domain = list(d1)
    cycles = kernel_basis(domain, d1.__getitem__, field)

    boundaries, d_sq_zero = Echelon(field), True
    for m in k2:
        # k2's window lies inside both k1 windows: d2 reads d1's images
        b = {("et", mono): field.neg(c) for mono, c in d1[("eu", m)].items()}
        b.update((("eu", mono), c) for mono, c in d1[("et", m)].items())
        total = {}
        for lab, c in b.items():
            for mono, cc in d1[lab].items():
                acc = total.get(mono, field.zero())
                acc = field.add(acc, field.mul(c, cc))
                if field.is_zero(acc):
                    total.pop(mono, None)
                else:
                    total[mono] = acc
        if total:
            d_sq_zero = False
        boundaries.insert(b)
    # ranks by rank-nullity: rank d1 = |k1| - |ker d1|, rank d2 = |k2| - |H2|
    h0_dim = len(k0) - (len(domain) - len(cycles))
    h1_dim = len(cycles) - boundaries.dim
    return KoszulStage(ring, i, w, h0_dim, h1_dim, len(k2) - boundaries.dim,
                       d1, cycles, boundaries, d_sq_zero)


class QuotientSpace:
    """num / den with a canonical complement: representatives are reduced
    against the denominator's echelon, so equal classes render equally."""

    def __init__(self, num, den_vectors, field=QQ):
        self.num = num                      # an Echelon
        self.den = Echelon.spanned_by(den_vectors, field)
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


def h0_of_h1(ring, i, w, field=QQ, ctx=None):
    """Windowed Ann(t^i) / u^i Ann(t^i), stage-i window discipline."""
    if not ring.has_u:
        raise OracleError("quotient homology needs a two-variable ring")
    ctx = Context.of(ctx)
    num = koszul_h1_single(ring, i, _sub_window(w, i, 0), field, ctx)
    # Ann(t^i) is (t, u)-graded, so its echelon basis over the window one
    # u^i-step down is the part of num's basis that fits there
    du = _sub_window(w, i, i).Du
    den = [shift_reduce(ring, v, 0, i, w, field, ctx=ctx)
           for v in num.basis() if all(m[1] <= du for m in v)]
    return QuotientSpace(num, den, field)


def h1_of_h0(stage, field):
    """Windowed H1 of u^i acting on the quotient by t^i, read off a stage.

    Numerator: eu-slot monomials whose d1 image falls inside the image of
    t^i (the et-slot d1 images). Denominator: the eu-slot part of the
    stage's boundaries, the image of t^i one u^i-step down; any spanning
    set of the boundaries gives the same canonical rows.
    """
    t_image = Echelon.spanned_by(
        (img for (slot, _), img in stage.d1.items() if slot == "et"), field)
    dom = [m for slot, m in stage.d1 if slot == "eu"]
    num_vecs = kernel_basis(
        dom, lambda m: t_image.reduce(stage.d1[("eu", m)]), field)
    num = Echelon.spanned_by(num_vecs, field)
    den = ({m: c for (slot, m), c in b.items() if slot == "eu"}
           for b in stage.boundaries.basis())
    return QuotientSpace(num, den, field)


def _rank_gain(base, extra, field):
    """How far the Echelon base grows when extra goes into a layer on it."""
    span = Echelon(field, base)
    return sum(span.insert(v) is not None for v in extra)


def ses_row_check(ring, i, w, field=QQ, ctx=None):
    """Exactness of the windowed row

        0 -> H0(u^i; H1(t^i)) -> H1(t^i, u^i) -> H1(u^i; H0(t^i)) -> 0

    with the left map [z] -> [(z, 0)] and the right map [(v, w)] -> [w].
    Verified by exact dimension accounting plus the two structural facts
    (the composite vanishes, the left map's kernel is the denominator).
    The left module is the context's stage module, shared with the
    pro-zero search of the same run; the right module is read off the
    stage's d1 table and boundaries, and both ranks extend a span already
    eliminated. The t^i images of k1t are reduced twice in a run, for
    the left numerator and for d1: sharing one stage between the search
    and the row would keep every stage's d1 table alive for the run, and
    peak memory rose by about 40% when that was tried.
    """
    ctx = Context.of(ctx)
    left = _stage_module(ring, "H0(u;H1(t))", i, w, field, ctx)
    stage = koszul_pair(ring, i, w, field, ctx)
    right = h1_of_h0(stage, field)

    # left map injectivity: span(boundaries + embedded numerator basis)
    # must grow by exactly dim(left)
    inj = _rank_gain(stage.boundaries,
                     ({("et", m): c for m, c in v.items()}
                      for v in left.num.basis()), field) == left.dim
    # right map: rank of projected cycle classes must equal dim(right),
    # and the composite (numerator basis -> second slot) must die
    surj = _rank_gain(right.den,
                      ({m: c for (slot, m), c in cyc.items() if slot == "eu"}
                       for cyc in stage.cycles), field) == right.dim
    # the left map lands in cycles (so the composite with the right map
    # is zero on the nose: the second slot of (z, 0) is empty)
    lands_in_cycles = all(not shift_reduce(ring, v, i, 0, w, field, ctx=ctx)
                          for v in left.num.basis())

    return (inj and surj and lands_in_cycles
            and stage.h1_dim == left.dim + right.dim
            and stage.d_squared_zero)


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
    ring: object
    system: object
    max_stage: int
    window: Window
    rows: list
    verdict: str  # "pro-zero-up-to-window" | "NOT-pro-zero-witnessed"


def _system_kind(system):
    if system.kind not in ("H1(t)", "H0(u;H1(t))"):
        raise OracleError("%s is not an inverse system" % system.describe())
    return system.kind


def _stage_module(ring, kind, i, w, field, ctx):
    """The context's stage-i module of an inverse system, built on first
    use: Ann(t^i) with no denominator, or H0(u^i; H1(t^i))."""
    key = (ring, kind, i, w, field.name)
    mod = ctx.stages.get(key)
    if mod is None:
        if kind == "H1(t)":
            mod = QuotientSpace(koszul_h1_single(
                ring, i, _sub_window(w, i, 0), field, ctx), [], field)
        else:
            mod = h0_of_h1(ring, i, w, field, ctx)
        ctx.stages[key] = mod
    return mod


def _image(ring, v, m, n, w, field, ctx):
    """The transition image of a stage-m vector in stage n: t^(m-n) v."""
    return shift_reduce(ring, v, m - n, 0, w, field, ctx=ctx)


def _transition(ring, kind, m, n, w, field, ctx):
    """One witness search: is the stage-m to stage-n transition zero?

    Every stage-m representative is mapped by t^(m-n) and reduced modulo
    the stage-n denominator. Returns (True, None), or (False, v) with v
    the highest constant-slice basis vector of the stage-m numerator with
    nonzero image (any basis vector when no constant-slice one qualifies).
    """
    tgt = _stage_module(ring, kind, n, w, field, ctx)
    src = _stage_module(ring, kind, m, w, field, ctx)
    const, rest = [], []
    for v in src.num.basis():
        (const if all(mono[0] == 0 and mono[1] == 0 for mono in v)
         else rest).append(v)
    const.sort(key=max, reverse=True)
    for v in const + rest:
        if tgt.rep(_image(ring, v, m, n, w, field, ctx)):
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


def pro_zero_test(ring, system, max_stage, w, field=QQ, ctx=None):
    """Search each target stage for a later stage with zero transition.

    For n in 2..max_stage-1, try m in n+1..max_stage: the transition
    multiplies representatives by t^(m-n). If some m sends every stage-m
    class to the zero class, record the least such m; otherwise record a
    replayable nonzero witness for every tested m. A verdict needs one
    decisive row, one with a zero transition or not window-limited;
    without one the search is a WindowError.
    """
    check_stage_count(max_stage)
    check_window_ring(ring, w)
    kind = _system_kind(system)
    ctx = Context.of(ctx)
    rows = []
    for n in range(2, max_stage):
        row = ProZeroRow(n=n)
        for m in range(n + 1, max_stage + 1):
            zero, wit = _transition(ring, kind, m, n, w, field, ctx)
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
    return ProZeroReport(ring, system, max_stage, w, rows, verdict)


def transition_witness_replay(ring, system, m, n, w, witness, field=QQ,
                              ctx=None):
    """Re-verify one reported witness against the context's stage modules.

    The modules are the ones the search used (built once per context);
    the checks are recomputed: the witness lies in the stage-m module,
    its image under t^(m-n) is reduced again from the relation span, and
    that image lies in the stage-n numerator with a nonzero class.
    """
    kind = _system_kind(system)
    ctx = Context.of(ctx)
    src = _stage_module(ring, kind, m, w, field, ctx)
    tgt = _stage_module(ring, kind, n, w, field, ctx)
    if not src.num.contains(witness):
        return False
    return tgt.class_nonzero(_image(ring, witness, m, n, w, field, ctx))
