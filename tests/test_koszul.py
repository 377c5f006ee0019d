"""Windowed Koszul homology, transition maps, pro-zero verdicts."""

import pytest

import tracemalloc

import pytest

from prozero import koszul
from prozero.claims import run_claim
from prozero.fields import QQ, field_from_spec
from prozero.linalg import Echelon, kernel_basis
from prozero.koszul import (h0_of_h1, h1_of_h0, koszul_h1_single, koszul_pair,
                            pro_zero_test, ses_row_check, transition_witness_replay,
                            transition_zero)
from prozero.oracle import (Context, OracleError, Window, WindowError,
                            annihilator_oracle, kernel_of, shift_reduce,
                            slice_basis, vectorize, window_basis)
from prozero.rings import (CTRL, E1, E2, GS, GradedPoly, SystemSpec,
                           koszul_h1_dim)

from bridge import poly_of_vec

W_PAIR = Window(6, 6, 10)
W_LINE = Window(10, 0, 12)
W_E2 = Window(10, 10, 12)
H0H1 = SystemSpec("H0(u;H1(t))")


def _gen(ring, name):
    return GradedPoly.gen(ring, name)


def _degrees(lo, w):
    # the total bidegrees of a stage's slices: a from lo (the stage for a
    # module, 0 for the pair complex)
    return [(a, c) for a in range(lo, w.Dt + 1) for c in range(w.Du + 1)]


def _pair_slices(i, w, ctx=None):
    ctx = Context() if ctx is None else ctx
    return [koszul_pair(E2, i, w, deg, ctx) for deg in _degrees(0, w)]


def _whole(echelons):
    # the whole-stage span of a stage's slices
    return Echelon.spanned_by(v for ech in echelons for v in ech.basis())


def _by_pivot(vectors):
    # slice bases joined in the order of a whole-stage basis
    return sorted(vectors, key=max, reverse=True)


def _d2_images(st, ctx):
    # d2 of each k2 generator of a slice, reduced here from the relation
    # span, apart from any d1 table
    a, c = st.deg
    i, w = st.i, st.window
    if a < i or c < i:
        return {}
    images = {}
    for m in slice_basis(E2, a - i, c - i, w, ctx):
        um = shift_reduce(E2, {m: QQ.one()}, 0, i, w, ctx=ctx)
        tm = shift_reduce(E2, {m: QQ.one()}, i, 0, w, ctx=ctx)
        img = {("et", mono): QQ.neg(c) for mono, c in um.items()}
        img.update((("eu", mono), c) for mono, c in tm.items())
        images[m] = img
    return images


def test_stage_dims_frozen():
    # whole-stage numbers are sums over the slices
    ctx = Context()
    for i, dims, bdim, ncycles in ((2, (85, 32, 9), 475, 507),
                                   (3, (185, 48, 7), 312, 360)):
        sts = _pair_slices(i, W_PAIR, ctx)
        assert tuple(sum(getattr(st, f) for st in sts)
                     for f in ("h0_dim", "h1_dim", "h2_dim")) == dims
        assert sum(st.boundaries.dim for st in sts) == bdim
        assert sum(len(st.cycles) for st in sts) == ncycles
        assert all(st.d_squared_zero for st in sts)
        # per slice, the ranks come from rank-nullity; a kernel of d2 and
        # an elimination of the d1 images, both made here, agree
        for st in sts:
            k0 = len(slice_basis(E2, *st.deg, W_PAIR, ctx))
            assert st.h0_dim == k0 - Echelon.spanned_by(st.d1.values()).dim
            d2 = _d2_images(st, ctx)
            h2 = kernel_basis(list(d2), d2.__getitem__, QQ)
            assert st.h2_dim == len(h2)
            assert st.boundaries.dim == len(d2) - len(h2)
            assert st.boundaries == Echelon.spanned_by(d2.values())


def _count_images(monkeypatch):
    # images koszul reduces: monomials handed to map_images, and
    # shift_reduce calls
    mapped, shifted = [], []
    real_map, real_shift = koszul.map_images, koszul.shift_reduce

    def mapping(ring, monos, *args, **kwargs):
        mapped.extend(monos)
        return real_map(ring, monos, *args, **kwargs)

    def shifting(*args, **kwargs):
        shifted.append(args)
        return real_shift(*args, **kwargs)

    monkeypatch.setattr(koszul, "map_images", mapping)
    monkeypatch.setattr(koszul, "shift_reduce", shifting)
    return mapped, shifted


def test_koszul_pair_reduces_each_differential_once(monkeypatch):
    # summed over the slices the row walks, one reduced image per d1 image
    # (domain: the t- and u-slots of k1): a slice's d2 images, d^2 = 0
    # check, h0 rank and h2 kernel reuse d1 images, its own or those an
    # earlier slice reduced and kept
    ctx = Context()
    sizes = [len(window_basis(E2, Window(dt, du, W_PAIR.Mx), ctx=ctx))
             for dt, du in ((3, 6), (6, 3))]
    mapped, _ = _count_images(monkeypatch)
    assert ses_row_check(E2, 3, W_PAIR, ctx=ctx)
    assert len(mapped) == sizes[0] + sizes[1]
    sts = _pair_slices(3, W_PAIR, ctx)
    assert (sum(st.h0_dim for st in sts), sum(st.h1_dim for st in sts),
            sum(st.h2_dim for st in sts)) == (185, 48, 7)
    assert all(st.d_squared_zero for st in sts)
    # a slice built alone reduces its k2 images too, once per slot
    del mapped[:]
    st = koszul_pair(E2, 3, W_PAIR, (5, 4), ctx)
    t_slot, u_slot, k2 = (len(slice_basis(E2, dt, du, W_PAIR, ctx))
                          for dt, du in ((2, 4), (5, 1), (2, 1)))
    assert len(mapped) == t_slot + u_slot + 2 * k2
    assert st.d_squared_zero


def test_h1_splits_as_quotient_sum():
    # dim H1 = dim H0(u^i; H1(t^i)) + dim H1(u^i; H0(t^i)) on each slice
    ctx = Context()
    for i in (2, 3):
        for st in _pair_slices(i, W_PAIR, ctx):
            left = (h0_of_h1(E2, i, W_PAIR, st.deg, ctx).dim
                    if st.deg[0] >= i else 0)
            assert st.h1_dim == left + h1_of_h0(st).dim


def test_quotient_dims_frozen():
    ctx = Context()
    for i, left, right in ((2, 29, 3), (3, 43, 5)):
        assert sum(h0_of_h1(E2, i, W_PAIR, deg, ctx).dim
                   for deg in _degrees(i, W_PAIR)) == left
        assert sum(h1_of_h0(st).dim
                   for st in _pair_slices(i, W_PAIR, ctx)) == right


def _scratch_h1_of_h0(ring, i, w, field):
    # H1(u^i; H0(t^i)) built from nothing but the oracle: every image is
    # reduced afresh over the stage's own whole sub-windows, in a context
    # of its own
    ctx = Context(field)

    def sub(ddt, ddu):
        return window_basis(ring, Window(w.Dt - ddt, w.Du - ddu, w.Mx), ctx)

    def times(m, dt, du):
        return shift_reduce(ring, {m: field.one()}, dt, du, w, ctx=ctx)

    t_image = Echelon(field)
    for m in sub(i, 0):
        t_image.insert(times(m, i, 0))
    num = kernel_basis(list(sub(0, i)),
                       lambda m: t_image.reduce(times(m, 0, i)), field)
    den = [times(m, i, 0) for m in sub(i, i)]
    return (Echelon.spanned_by(num, field).basis(),
            Echelon.spanned_by(den, field).basis())


def _scratch_h0_of_h1_den(ring, i, w, field):
    # u^i * Ann(t^i), with Ann(t^i) computed over the whole window one
    # u^i-step down
    ctx = Context(field)
    inner = kernel_of(ring, [{(i, 0, 0, 0, ()): 1}],
                      Window(w.Dt - i, w.Du - i, w.Mx), ctx)
    den = [shift_reduce(ring, v, 0, i, w, ctx=ctx) for v in inner.basis()]
    return Echelon.spanned_by(den, field).basis()


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_quotients_match_a_scratch_build(spec):
    # the right module read off each slice's d1 table, and the left
    # module's denominator read off the d1 images, joined over the
    # slices, equal independent whole-window builds row for row
    field = field_from_spec(spec)
    for i in (2, 3, 4):
        ctx = Context(field)
        rights = [h1_of_h0(st) for st in _pair_slices(i, W_PAIR, ctx)]
        num, den = _scratch_h1_of_h0(E2, i, W_PAIR, field)
        assert _by_pivot(v for r in rights for v in r.num.basis()) == num
        assert _by_pivot(v for r in rights for v in r.den.basis()) == den
        lefts = [h0_of_h1(E2, i, W_PAIR, deg, ctx)
                 for deg in _degrees(i, W_PAIR)]
        assert _by_pivot(v for q in lefts for v in q.den.basis()) == \
            _scratch_h0_of_h1_den(E2, i, W_PAIR, field)


def test_ses_row_reduces_only_d1_and_the_landing_check(monkeypatch):
    # the row reduces each d1 image once and each left numerator vector
    # once (lands_in_cycles); its left module is read off the d1 images,
    # so it builds no stage module, and the right module reduces nothing
    ctx = Context()
    i = 3
    k1 = sum(len(window_basis(E2, Window(dt, du, W_PAIR.Mx), ctx=ctx))
             for dt, du in ((3, 6), (6, 3)))
    left_nums = sum(h0_of_h1(E2, i, W_PAIR, deg, Context()).num.dim
                    for deg in _degrees(i, W_PAIR))
    mapped, shifted = _count_images(monkeypatch)
    assert ses_row_check(E2, i, W_PAIR, ctx=ctx)
    assert len(mapped) + len(shifted) == k1 + left_nums
    assert not ctx.stages


def _slots(vec):
    # the Koszul slots a vector's labels name, read through the (1, label)
    # tag kernel_basis puts on image columns
    slots = set()
    for key in vec:
        if key[0] == 1 and isinstance(key[1], tuple):
            key = key[1]
        if key[0] in ("et", "eu"):
            slots.add(key[0])
    return slots


def test_ses_row_eliminates_the_d2_images_once(monkeypatch):
    # each slice's boundary span is the row's one elimination of its d2
    # images: the rank counts extend it and the right module reads it
    ctx = Context()
    i = 3
    want = sum(len(_slots(img)) == 2
               for st in _pair_slices(i, W_PAIR, ctx)
               for img in _d2_images(st, ctx).values())
    two_slot = []
    real = Echelon.insert

    def spy(self, vec):
        if len(_slots(vec)) == 2:
            two_slot.append(vec)
        return real(self, vec)

    monkeypatch.setattr(Echelon, "insert", spy)
    assert ses_row_check(E2, i, W_PAIR, ctx=ctx)
    assert len(two_slot) == want > 0


def test_ses_rows_exact():
    for i in (2, 3, 4):
        assert ses_row_check(E2, i, W_PAIR)


def test_h1_single_matches_annihilator_oracle():
    # the stage-i line complex has H1 = Ann(t^i) over the same window: its
    # raw (0, 0) slice, total bidegree (i, 0), is the annihilator of t^i
    # in the coefficient slice
    for ring in (E1(2), E2):
        w = Window(6, 2 if ring.has_u else 0, 8)
        for i in (1, 2, 3):
            b = annihilator_oracle(ring, i, 0, w)
            assert koszul_h1_single(ring, i, w, (i, 0)) == b
            a = _whole(koszul_h1_single(ring, i, w, deg)
                       for deg in _degrees(i, w))
            assert a.dim > b.dim
            for v in b.basis():
                assert a.contains(v)


def test_h1_single_validates_input():
    with pytest.raises(OracleError):
        koszul_h1_single(E2, 0, W_PAIR, (0, 0))
    with pytest.raises(OracleError):
        koszul_pair(E1(2), 2, Window(6, 0, 8), (2, 0))
    # a bidegree outside the stage is refused, not built
    with pytest.raises(OracleError, match="no slice"):
        koszul_h1_single(E2, 3, W_PAIR, (2, 0))
    with pytest.raises(OracleError, match="no slice"):
        koszul_pair(E2, 2, W_PAIR, (7, 0))
    with pytest.raises(OracleError, match="no slice"):
        h0_of_h1(E2, 2, W_PAIR, (2, 7))


def test_transition_witnesses_frozen():
    cases = [((5, 2), ("x", 3)), ((3, 1), ("x", 1)),
             ((8, 2), ("x", 6)), ((4, 3), ("x", 2))]
    for (j, i), idx in cases:
        zero, wit = transition_zero(E1(2), j, i, W_LINE)
        assert not zero
        assert poly_of_vec(E1(2), wit) == _gen(E1(2), idx)
        # replay: the witness is nonzero at stage j and survives to stage i
        img = vectorize(_gen(E1(2), idx) * _gen(E1(2), "t") ** (j - i))
        assert img


def test_ctrl_transitions_gap_two():
    w = Window(9, 0, 12)
    assert transition_zero(CTRL, 4, 2, w)[0]
    assert transition_zero(CTRL, 5, 3, w)[0]
    zero, wit = transition_zero(CTRL, 3, 2, w)
    assert not zero and wit


@pytest.mark.parametrize("ring", [E1(2), CTRL], ids=["E1", "CTRL"])
def test_transition_zero_is_the_search_transition(ring):
    # transition_zero runs the pro-zero search's transition on H1(t), on
    # the stage modules the search left in the context
    ctx = Context()
    rep = pro_zero_test(ring, SystemSpec("H1(t)"), 8, W_LINE, ctx=ctx)
    before = list(ctx.stages.items())
    checked = 0
    for row in rep.rows:
        found = dict(row.witnesses)
        for m in range(row.n + 1, (row.least_zero_m or 8) + 1):
            got = transition_zero(ring, m, row.n, W_LINE, ctx=ctx)
            assert got == ((True, None) if m == row.least_zero_m
                           else (False, found[m]))
            checked += 1
    assert checked > len(rep.rows)
    assert list(ctx.stages.items()) == before      # no stage module built


def test_transition_functoriality():
    # going 8 -> 5 -> 2 kills anything 8 -> 2 kills, on every representative
    dom = _whole(koszul_h1_single(E1(2), 8, W_LINE, deg)
                 for deg in _degrees(8, W_LINE))
    mid = _whole(koszul_h1_single(E1(2), 5, W_LINE, deg)
                 for deg in _degrees(5, W_LINE))
    t3 = _gen(E1(2), "t") ** 3
    t6 = _gen(E1(2), "t") ** 6
    for v in dom.basis():
        p = poly_of_vec(E1(2), v)
        step = t3 * p
        assert mid.contains(vectorize(step)) or step.is_zero()
        two_step = t3 * step
        direct = t6 * p
        assert two_step == direct


def test_pro_zero_e2_frozen():
    ctx = Context()
    rep = pro_zero_test(E2, SystemSpec("H0(u;H1(t))"), 8, Window(10, 10, 12),
                        ctx=ctx)
    assert rep.verdict == "NOT-pro-zero-witnessed"
    rows = {r.n: r for r in rep.rows}
    assert sorted(rows) == [2, 3, 4, 5, 6, 7]
    for n in (2, 3, 4, 5, 6):
        assert rows[n].least_zero_m == 0
        assert not rows[n].window_limited
        for m, wit in rows[n].witnesses:
            assert poly_of_vec(E2, wit) == _gen(E2, ("x", m - 2))
            assert transition_witness_replay(
                E2, SystemSpec("H0(u;H1(t))"), m, n, Window(10, 10, 12), wit,
                ctx=ctx)
    # the last row only sees a gap-1 transition: flagged, not witnessed
    assert rows[7].window_limited


def _spy_stage_builders(monkeypatch):
    # the builders `_stage_slice` calls, logged as (ring, stage, slice):
    # h0_of_h1 for H0(u;H1(t)), koszul_h1_single for H1(t)
    quotients, annihilators = [], []
    real_h0, real_h1 = koszul.h0_of_h1, koszul.koszul_h1_single

    def spy_h0(ring, i, w, deg, *args, **kwargs):
        quotients.append((ring.describe(), i, deg))
        return real_h0(ring, i, w, deg, *args, **kwargs)

    def spy_h1(ring, i, w, deg, *args, **kwargs):
        annihilators.append((ring.describe(), i, deg))
        return real_h1(ring, i, w, deg, *args, **kwargs)

    monkeypatch.setattr(koszul, "h0_of_h1", spy_h0)
    monkeypatch.setattr(koszul, "koszul_h1_single", spy_h1)
    return quotients, annihilators


def _e2_search_slices():
    # what the E2 search at max_stage 8 reads: the constant source slice of
    # each stage m (raw bidegree (0, 0), total (m, 0)), where every witness
    # lies, and the slice of stage n < m it maps into, total (m, 0), whose
    # vectors sit at raw bidegree (m - n, 0)
    sources = [(E2.describe(), m, (m, 0)) for m in range(3, 9)]
    targets = [(E2.describe(), n, (m, 0))
               for n in range(2, 8) for m in range(n + 1, 9)]
    return sorted(sources + targets)


def test_pro_zero_builds_each_stage_once(monkeypatch):
    # the default E2 search builds a slice only when it reads it, and once
    quotients, annihilators = _spy_stage_builders(monkeypatch)
    ctx = Context()
    rep = pro_zero_test(E2, H0H1, 8, W_E2, ctx=ctx)
    assert sorted(quotients) == _e2_search_slices()
    assert len(set(quotients)) == len(quotients) and not annihilators
    assert sorted((ring.describe(), i, deg)
                  for ring, _, i, _, deg in ctx.stages) == _e2_search_slices()
    assert rep.verdict == "NOT-pro-zero-witnessed"
    # the witnesses are those of a whole-stage search: x_(m-2), the top
    # vector of the constant slice
    got = [(r.n, r.least_zero_m, r.window_limited,
            [(m, poly_of_vec(E2, v)) for m, v in r.witnesses])
           for r in rep.rows]
    assert got == [(n, 0, n == 7,
                    [(m, _gen(E2, ("x", m - 2))) for m in range(n + 1, 9)])
                   for n in range(2, 8)]


def test_search_order_within_and_across_slices(monkeypatch):
    # a zero transition reads every source slice: the constant one first,
    # then the others in descending bidegree; a target slice is built when
    # a non-empty source slice maps into it (CTRL's Ann(t^4) lives in raw
    # bidegrees (0, 0) and (1, 0) only)
    reads = []
    real = koszul._stage_slice

    def spy(ring, kind, i, w, deg, ctx):
        reads.append((i, deg))
        return real(ring, kind, i, w, deg, ctx)

    monkeypatch.setattr(koszul, "_stage_slice", spy)
    assert transition_zero(CTRL, 4, 2, W_LINE) == (True, None)
    assert reads == ([(4, (4, 0)), (2, (4, 0))]
                     + [(4, (a, 0)) for a in range(10, 5, -1)]
                     + [(4, (5, 0)), (2, (5, 0))])
    # within a slice, the basis comes in descending pivot: the witness of
    # a nonzero transition is the top vector of the first slice with one
    ctx = Context()
    zero, wit = transition_zero(E1(2), 5, 2, W_LINE, ctx=ctx)
    top = koszul_h1_single(E1(2), 5, W_LINE, (5, 0)).basis()
    assert not zero and wit == top[0] == max(top, key=max)


def test_pro_zero_ctrl_gap_two():
    ctx = Context()
    rep = pro_zero_test(CTRL, SystemSpec("H1(t)"), 8, W_LINE, ctx=ctx)
    assert rep.verdict == "pro-zero-up-to-window"
    rows = {r.n: r for r in rep.rows}
    for n in (2, 3, 4, 5, 6):
        assert rows[n].least_zero_m == n + 2
    assert rows[7].window_limited
    # each zero transition read every slice of its source stage
    for n in (2, 3, 4, 5, 6):
        for deg in _degrees(n + 2, W_LINE):
            assert (CTRL, "H1(t)", n + 2, W_LINE, deg) in ctx.stages


def test_pro_zero_gs_gap_one():
    rep = pro_zero_test(GS, SystemSpec("H1(t)"), 6, Window(8, 0, 10))
    assert rep.verdict == "pro-zero-up-to-window"
    assert [(r.n, r.least_zero_m) for r in rep.rows] == \
        [(2, 3), (3, 4), (4, 5), (5, 6)]


def test_pro_zero_validates_stage_count():
    with pytest.raises(OracleError):
        pro_zero_test(E2, SystemSpec("H0(u;H1(t))"), 2, W_PAIR)


def test_pro_zero_needs_a_decisive_row():
    # at three stages the one row sees only a gap-1 transition: on E2 it is
    # window-limited, so no verdict; on GS its zero transition decides
    with pytest.raises(WindowError, match="window-limited"):
        pro_zero_test(E2, SystemSpec("H0(u;H1(t))"), 3, Window(5, 5, 12))
    rep = pro_zero_test(GS, SystemSpec("H1(t)"), 3, Window(5, 0, 12))
    assert [(r.n, r.least_zero_m) for r in rep.rows] == [(2, 3)]
    assert rep.verdict == "pro-zero-up-to-window"


def test_nwkpr_builds_each_stage_once_per_context(monkeypatch):
    # the pro-zero searches build each slice they read once; the witness
    # replay reuses them, and the three-term rows read their left modules
    # off their own d1 images, so neither builds a stage module
    quotients, annihilators = _spy_stage_builders(monkeypatch)
    ctx = Context()
    rep = run_claim("C-nwkpr", ctx=ctx)
    assert rep.status == "verified"
    assert sorted(quotients) == _e2_search_slices()
    ctrl = sorted((CTRL.describe(), i, deg)
                  for ring, _, i, _, deg in ctx.stages if ring == CTRL)
    assert sorted(annihilators) == ctrl and len(ctrl) == 32


def test_replay_rejects_bad_witnesses():
    ctx = Context()
    one = {(0, 0, 0, 0, ()): QQ.one()}          # 1 is not killed by t^3
    assert not transition_witness_replay(E2, H0H1, 3, 2, W_E2, one, ctx=ctx)
    x1 = vectorize(_gen(E2, ("x", 1)))          # the real stage-3 witness
    assert transition_witness_replay(E2, H0H1, 3, 2, W_E2, x1, ctx=ctx)
    # a witness with a part outside the stage window, or a part outside
    # its slice's module, is rejected whatever its other part
    far = dict(x1)
    far[(9, 0, 1, 0, (1,))] = QQ.one()          # raw t-degree 9 > 10 - 3
    assert not transition_witness_replay(E2, H0H1, 3, 2, W_E2, far, ctx=ctx)
    two = dict(x1)
    two[(1, 0, 0, 0, ())] = QQ.one()            # t is not killed by t^3
    assert not transition_witness_replay(E2, H0H1, 3, 2, W_E2, two, ctx=ctx)
    # CTRL is pro-zero with gap 2: a stage-4 class dies at stage 2
    sysT = SystemSpec("H1(t)")
    src = [v for deg in _degrees(4, W_LINE)
           for v in koszul_h1_single(CTRL, 4, W_LINE, deg).basis()]
    assert src
    for v in src:
        assert not transition_witness_replay(CTRL, sysT, 4, 2, W_LINE, v,
                                             ctx=ctx)
    zero, wit = transition_zero(CTRL, 3, 2, W_LINE)
    assert not zero
    assert transition_witness_replay(CTRL, sysT, 3, 2, W_LINE, wit, ctx=ctx)


def test_shared_stage_modules_are_not_mutated():
    ctx = Context()
    pro_zero_test(E2, SystemSpec("H0(u;H1(t))"), 8, Window(10, 10, 12),
                  ctx=ctx)
    pro_zero_test(CTRL, SystemSpec("H1(t)"), 8, W_LINE, ctx=ctx)

    def snapshot():
        return {key: (mod.num.basis(), mod.den.basis())
                for key, mod in ctx.stages.items()}

    before = snapshot()
    first = run_claim("C-nwkpr", ctx=ctx)
    assert snapshot() == before          # no module rebuilt or changed
    second = run_claim("C-nwkpr", ctx=ctx)
    assert snapshot() == before
    assert first.status == "verified"
    assert first.to_dict() == second.to_dict() == \
        run_claim("C-nwkpr").to_dict()


@pytest.mark.parametrize("w, totals", [
    (Window(10, 10, 12), [20, 56, 92, 132, 170]),
    (Window(8, 6, 10), [16, 44, 70, 96, 116]),
])
def test_pair_h1_is_the_closed_form_on_every_slice(w, totals):
    # the oracle's H1 of each slice equals the closed-form count over the
    # summands of the ring (`rings.koszul_h1_dim`), at stages 1..5
    ctx = Context()
    got = []
    for i in range(1, 6):
        h1 = 0
        for deg in _degrees(0, w):
            st = koszul_pair(E2, i, w, deg, ctx)
            assert st.h1_dim == koszul_h1_dim(E2, i, *deg, w.Mx), (i, deg)
            h1 += st.h1_dim
        got.append(h1)
    assert got == totals


def test_ses_row_memory_is_one_slice_at_a_time():
    # after the pro-zero search, as in C-nwkpr, each row holds one slice's
    # tables and the d1 images later slices read, never a whole stage: a
    # row peaked at 4.2 MB under tracemalloc when it built a whole stage,
    # and peaks near 0.4 MB one slice at a time
    ctx = Context()
    pro_zero_test(E2, H0H1, 8, W_E2, ctx=ctx)
    peaks = []
    for i in range(2, 7):
        tracemalloc.start()
        try:
            assert ses_row_check(E2, i, W_E2, ctx=ctx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.0 * 2 ** 20, peaks
