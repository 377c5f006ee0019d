"""Windowed Koszul homology, transition maps, pro-zero verdicts."""

import pytest

from prozero import koszul
from prozero.claims import run_claim
from prozero.fields import QQ, field_from_spec
from prozero.linalg import Echelon, kernel_basis
from prozero.koszul import (h0_of_h1, h1_of_h0, koszul_h1_single, koszul_pair,
                            pro_zero_test, ses_row_check, transition_witness_replay,
                            transition_zero)
from prozero.oracle import (Context, OracleError, Window, WindowError,
                            annihilator_oracle, shift_reduce, vectorize,
                            window_basis)
from prozero.rings import CTRL, E1, E2, GS, GradedPoly, SystemSpec

from bridge import poly_of_vec

W_PAIR = Window(6, 6, 10)
W_LINE = Window(10, 0, 12)


def _gen(ring, name):
    return GradedPoly.gen(ring, name)


def _d2_images(st):
    # d2 of each k2 generator, rebuilt here from the stage's d1 table
    k2 = window_basis(E2, Window(W_PAIR.Dt - st.i, W_PAIR.Du - st.i,
                                 W_PAIR.Mx))
    images = {}
    for m in k2:
        img = {("et", mono): QQ.neg(c) for mono, c in st.d1[("eu", m)].items()}
        img.update((("eu", mono), c) for mono, c in st.d1[("et", m)].items())
        images[m] = img
    return images


def test_stage_dims_frozen():
    st2 = koszul_pair(E2, 2, W_PAIR)
    assert (st2.h0_dim, st2.h1_dim, st2.h2_dim) == (85, 32, 9)
    assert st2.boundaries.dim == 475
    assert len(st2.cycles) == 507
    assert st2.d_squared_zero
    st3 = koszul_pair(E2, 3, W_PAIR)
    assert (st3.h0_dim, st3.h1_dim, st3.h2_dim) == (185, 48, 7)
    assert st3.boundaries.dim == 312
    assert len(st3.cycles) == 360
    assert st3.d_squared_zero
    # the ranks come from rank-nullity; a kernel of d2 and an elimination
    # of the d1 images, both made here, agree
    k0 = len(window_basis(E2, W_PAIR))
    for st in (st2, st3):
        assert st.h0_dim == k0 - Echelon.spanned_by(st.d1.values()).dim
        d2 = _d2_images(st)
        h2 = kernel_basis(list(d2), d2.__getitem__, QQ)
        assert st.h2_dim == len(h2)
        assert st.boundaries.dim == len(d2) - len(h2)
        assert st.boundaries == Echelon.spanned_by(d2.values())


def _count_images(monkeypatch):
    # images koszul reduces: monomials handed to map_images plus
    # shift_reduce calls
    reduced = []
    real_map, real_shift = koszul.map_images, koszul.shift_reduce

    def mapping(ring, monos, *args, **kwargs):
        reduced.extend(monos)
        return real_map(ring, monos, *args, **kwargs)

    def shifting(*args, **kwargs):
        reduced.append(args)
        return real_shift(*args, **kwargs)

    monkeypatch.setattr(koszul, "map_images", mapping)
    monkeypatch.setattr(koszul, "shift_reduce", shifting)
    return reduced


def test_koszul_pair_reduces_each_differential_once(monkeypatch):
    # one reduced image per d1 image (domain: the t- and u-slots of k1);
    # k2's window lies inside both k1 windows, so the d2 images, the
    # d^2 = 0 check, the h0 rank and the h2 kernel all reuse them
    ctx = Context()
    sizes = [len(window_basis(E2, Window(dt, du, W_PAIR.Mx), ctx=ctx))
             for dt, du in ((3, 6), (6, 3), (3, 3))]
    reduced = _count_images(monkeypatch)
    st = koszul_pair(E2, 3, W_PAIR, ctx=ctx)
    assert len(reduced) == sizes[0] + sizes[1]
    assert (st.h0_dim, st.h1_dim, st.h2_dim) == (185, 48, 7)
    assert st.d_squared_zero


def test_h1_splits_as_quotient_sum():
    # dim H1 = dim H0(u^i; H1(t^i)) + dim H1(u^i; H0(t^i)) on each stage
    for i in (2, 3):
        st = koszul_pair(E2, i, W_PAIR)
        left = h0_of_h1(E2, i, W_PAIR)
        right = h1_of_h0(st)
        assert st.h1_dim == left.dim + right.dim


def test_quotient_dims_frozen():
    assert h0_of_h1(E2, 2, W_PAIR).dim == 29
    assert h1_of_h0(koszul_pair(E2, 2, W_PAIR)).dim == 3
    assert h0_of_h1(E2, 3, W_PAIR).dim == 43
    assert h1_of_h0(koszul_pair(E2, 3, W_PAIR)).dim == 5


def _scratch_h1_of_h0(ring, i, w, field):
    # H1(u^i; H0(t^i)) built from nothing but the oracle: every image is
    # reduced afresh over the stage's own sub-windows, in a context of its
    # own
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
    # u^i * Ann(t^i), with Ann(t^i) computed over the window one u^i-step down
    ctx = Context(field)
    inner = koszul_h1_single(ring, i, Window(w.Dt - i, w.Du - i, w.Mx), ctx)
    den = [shift_reduce(ring, v, 0, i, w, ctx=ctx) for v in inner.basis()]
    return Echelon.spanned_by(den, field).basis()


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_quotients_match_a_scratch_build(spec):
    # the right module read off the stage's d1 table, and the left module's
    # denominator read off its numerator, equal independent builds row for
    # row
    field = field_from_spec(spec)
    for i in (2, 3, 4):
        right = h1_of_h0(koszul_pair(E2, i, W_PAIR, Context(field)))
        num, den = _scratch_h1_of_h0(E2, i, W_PAIR, field)
        assert right.num.basis() == num
        assert right.den.basis() == den
        left = h0_of_h1(E2, i, W_PAIR, Context(field))
        assert left.den.basis() == _scratch_h0_of_h1_den(E2, i, W_PAIR, field)


def test_ses_row_reduces_only_d1_and_the_landing_check(monkeypatch):
    # with the left module already in the context (as after the pro-zero
    # search), the row reduces each d1 image once and each left numerator
    # vector once (lands_in_cycles); the right module reduces nothing
    ctx = Context()
    i = 3
    left = koszul._stage_module(E2, "H0(u;H1(t))", i, W_PAIR, ctx)
    k1 = sum(len(window_basis(E2, Window(dt, du, W_PAIR.Mx), ctx=ctx))
             for dt, du in ((3, 6), (6, 3)))
    reduced = _count_images(monkeypatch)
    assert ses_row_check(E2, i, W_PAIR, ctx=ctx)
    assert len(reduced) == k1 + left.num.dim


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
    # the stage's boundary span is the row's one elimination of its d2
    # images: the rank counts extend it and the right module reads it
    ctx = Context()
    i = 3
    koszul._stage_module(E2, "H0(u;H1(t))", i, W_PAIR, ctx)
    d2 = _d2_images(koszul_pair(E2, i, W_PAIR, ctx=ctx))
    want = sum(len(_slots(img)) == 2 for img in d2.values())
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
    # the stage-i line complex has H1 = Ann(t^i) over the same window
    for ring in (E1(2), E2):
        w = Window(6, 2 if ring.has_u else 0, 8)
        for i in (1, 2, 3):
            a = koszul_h1_single(ring, i, w)
            b = annihilator_oracle(ring, i, 0, w)
            # annihilator_oracle fixes one slice; sum it over the window
            assert a.dim >= b.dim
            for v in b.basis():
                assert a.contains(v)


def test_h1_single_validates_input():
    with pytest.raises(OracleError):
        koszul_h1_single(E2, 0, W_PAIR)
    with pytest.raises(OracleError):
        koszul_pair(E1(2), 2, Window(6, 0, 8))


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
    dom = koszul_h1_single(E1(2), 8, Window(2, 0, 12))
    mid = koszul_h1_single(E1(2), 5, Window(5, 0, 12))
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
    # the builders `_stage_module` calls, logged as (ring, stage): h0_of_h1
    # for H0(u;H1(t)); koszul_h1_single for H1(t) and h0_of_h1's numerator
    quotients, annihilators = [], []
    real_h0, real_h1 = koszul.h0_of_h1, koszul.koszul_h1_single

    def spy_h0(ring, i, *args, **kwargs):
        quotients.append((ring.describe(), i))
        return real_h0(ring, i, *args, **kwargs)

    def spy_h1(ring, i, *args, **kwargs):
        annihilators.append((ring.describe(), i))
        return real_h1(ring, i, *args, **kwargs)

    monkeypatch.setattr(koszul, "h0_of_h1", spy_h0)
    monkeypatch.setattr(koszul, "koszul_h1_single", spy_h1)
    return quotients, annihilators


def test_pro_zero_builds_each_stage_once(monkeypatch):
    quotients, annihilators = _spy_stage_builders(monkeypatch)
    rep = pro_zero_test(E2, SystemSpec(kind="H0(u;H1(t))"), 8,
                        Window(10, 10, 12))
    stages = [(E2.describe(), i) for i in range(2, 9)]
    assert sorted(quotients) == sorted(annihilators) == stages
    assert rep.verdict == "NOT-pro-zero-witnessed"
    got = [(r.n, r.least_zero_m, r.window_limited,
            [(m, poly_of_vec(E2, v)) for m, v in r.witnesses])
           for r in rep.rows]
    assert got == [(n, 0, n == 7,
                    [(m, _gen(E2, ("x", m - 2))) for m in range(n + 1, 9)])
                   for n in range(2, 8)]


def test_pro_zero_ctrl_gap_two():
    rep = pro_zero_test(CTRL, SystemSpec("H1(t)"), 8, Window(10, 0, 12))
    assert rep.verdict == "pro-zero-up-to-window"
    rows = {r.n: r for r in rep.rows}
    for n in (2, 3, 4, 5, 6):
        assert rows[n].least_zero_m == n + 2
    assert rows[7].window_limited


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
    # the pro-zero searches build every stage; the witness replay and the
    # three-term rows of the same run reuse them and build none
    quotients, annihilators = _spy_stage_builders(monkeypatch)
    rep = run_claim("C-nwkpr", ctx=Context())
    assert rep.status == "verified"
    e2 = [(E2.describe(), i) for i in range(2, 9)]
    ctrl = [(CTRL.describe(), i) for i in range(2, 9)]
    assert sorted(quotients) == e2
    assert sorted(annihilators) == sorted(e2 + ctrl)


def test_replay_rejects_bad_witnesses():
    ctx = Context()
    sysH = SystemSpec("H0(u;H1(t))")
    w = Window(10, 10, 12)
    one = {(0, 0, 0, 0, ()): QQ.one()}          # 1 is not killed by t^3
    assert not transition_witness_replay(E2, sysH, 3, 2, w, one, ctx=ctx)
    x1 = vectorize(_gen(E2, ("x", 1)))          # the real stage-3 witness
    assert transition_witness_replay(E2, sysH, 3, 2, w, x1, ctx=ctx)
    # CTRL is pro-zero with gap 2: a stage-4 class dies at stage 2
    sysT = SystemSpec("H1(t)")
    src = koszul_h1_single(CTRL, 4, Window(6, 0, 12))
    assert src.dim > 0
    for v in src.basis():
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
