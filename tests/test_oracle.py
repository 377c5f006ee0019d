"""Elimination oracle: windowed bases, kernels, annihilators, torsion."""

import random

import pytest

from prozero import oracle
from prozero.fields import QQ, PrimeField, field_from_spec
from prozero.linalg import Echelon, kernel_basis
from prozero.oracle import (Context, Window, WindowError, _shape_span,
                            _slice_generators, annihilator_oracle,
                            boundary_touch, check_window_budget, kernel_of,
                            map_images, mul_map, product_caps, raw_mul,
                            reduce_raw, slice_span, system_kernel,
                            torsion_subspace, vectorize, window_basis)
from prozero.rings import (CTRL, E1, E2, GS, R_ONLY, GradedPoly, RingId,
                           SystemSpec, ann_formula)

from bridge import poly_of_vec


def _gen(ring, name):
    return GradedPoly.gen(ring, name)


def test_window_margin_enforced():
    with pytest.raises(WindowError):
        Window(8, 0, 9)             # needs Mx >= 10
    with pytest.raises(WindowError):
        Window(2, 6, 7)
    with pytest.raises(WindowError):
        Window(-1, 0, 5)
    w = Window(8, 0, 10)
    assert (w.Dt, w.Du, w.Mx) == (8, 0, 10)


def test_window_of_raises_only_an_unset_mx():
    assert Window.of(8, 8) == Window(8, 8, 12)
    assert Window.of(12, 0) == Window(12, 0, 14)
    assert Window.of(6, 9, mx_default=10) == Window(6, 9, 11)
    assert Window.of(6, 6, mx_default=10) == Window(6, 6, 10)
    assert Window.of(8, 0, 30) == Window(8, 0, 30)
    with pytest.raises(WindowError):
        Window.of(20, 0, 12)        # a given mx binds
    with pytest.raises(WindowError):
        Window.of(-1, 0)


ONE_T = {(1, 0, 0, 0, ()): 1}
X0 = {(0, 0, 1, 0, (0,)): 1}


def test_product_caps_pinned():
    # the caps each call site wrote out before there was one rule
    w = Window(8, 8, 12)
    assert product_caps(w) == (14, 12, False)                 # window basis
    assert product_caps(w, ONE_T) == (14, 12, False)          # shift by t
    assert product_caps(w, {(0, 0, 0, 3, ()): 1}) == (17, 12, False)  # y^3
    assert product_caps(w, X0) == (26, 26, True)              # two-x products
    assert product_caps(w, {(1, 0, 1, 2, (0,)): 1,
                            (0, 0, 0, 1, ()): 1}) == (28, 26, True)


def test_window_budget_estimates_pinned():
    # estimates with the caps and the reach worked out from g
    w = Window(8, 8, 12)
    assert check_window_budget(E2, w) == 6936
    assert check_window_budget(E2, w, X0) == 430296
    assert check_window_budget(E2, w, ONE_T) == 7716
    # C-ann-t's Ann(t^3), C-basis's pair spans, C-kernel-I0 at Mx = 50
    assert check_window_budget(E1(2), Window(10, 0, 12),
                               {(3, 0, 0, 0, ()): 1}) == 3991
    assert check_window_budget(R_ONLY, Window(0, 0, 12), X0) == 20633
    t_minus_y = {(1, 0, 0, 0, ()): 1, (0, 0, 0, 1, ()): -1}
    assert check_window_budget(E2, Window(6, 6, 50), t_minus_y) == 88733


def test_window_basis_counts():
    # base ring window: y^0..y^Mx plus x_0..x_Mx
    assert len(window_basis(R_ONLY, Window(0, 0, 12))) == 26
    assert len(window_basis(E2, Window(3, 2, 6))) == 145
    # each slice of CTRL: 1, x^1..x^Mx
    assert len(window_basis(CTRL, Window(1, 0, 4))) == 10


def test_slice_span_contains_defining_relators():
    # x0*y and x0 - x1*y lie in the degree-zero relation span of R
    # (window Mx = 4, so the one-x caps are ycap 6, xcap 4)
    span = slice_span(R_ONLY, 0, 0, 6, 4)
    one = QQ.one()
    x0y = {(0, 0, 1, 1, (0,)): one}
    step = {(0, 0, 1, 0, (0,)): one, (0, 0, 1, 1, (1,)): QQ.neg(one)}
    assert span.contains(x0y)
    assert span.contains(step)
    # but not the plain basis monomial x0
    assert not span.contains({(0, 0, 1, 0, (0,)): one})


def test_reduce_raw_idempotent_and_linear():
    rng = random.Random(23)
    w = Window(2, 0, 6)
    ctx = Context()
    # basis monomials, and x_i*y monomials that reduction rewrites
    monos = list(window_basis(E1(2), w, ctx=ctx))
    monos += [(dt, 0, 1, 1, (i,)) for dt in range(3) for i in range(6)]

    def red(vec):
        return reduce_raw(E1(2), vec, w.Mx + 2, w.Mx, ctx=ctx)

    for _ in range(40):
        raw = {}
        for _ in range(rng.randint(1, 5)):
            m = rng.choice(monos)
            raw[m] = QQ.from_int(rng.randint(-4, 4) or 1)
        assert red(red(raw)) == red(raw)


def _dividing_rows(ring, dt, du, xcap):
    """The relators dividing (dt, du) with their bidegree zeroed, in
    generation order, each repeated row kept once."""
    rows = []
    for _, vec in _slice_generators(ring, dt, du, xcap):
        row = tuple(((0, 0) + m[2:], c) for m, c in vec.items())
        if all(m[0] <= dt and m[1] <= du for m in vec) and row not in rows:
            rows.append(row)
    return tuple(rows)


def _reference_span(ring, dt, du, ycap, xcap, pairs):
    """The slice span built at (dt, du): every relator times every
    multiplier of the complementary bidegree, inside the caps."""
    ech = Echelon(QQ)
    xs = [] if ring.variant == "CTRL" else range(xcap + 1)
    for _, vec in _slice_generators(ring, dt, du, xcap):
        gdt, gdu = next(iter(vec))[:2]
        mdt, mdu = dt - gdt, du - gdu
        if mdt < 0 or mdu < 0:
            continue
        mults = [(mdt, mdu, 0, a, ()) for a in range(ycap + 1)]
        if pairs:
            mults += [(mdt, mdu, 1, a, (k,))
                      for a in range(ycap + 1) for k in xs]
        for mult in mults:
            row = {}
            for gm, c in vec.items():
                p = (gm[0] + mdt, gm[1] + mdu, gm[2] + mult[2],
                     gm[3] + mult[3], tuple(sorted(gm[4] + mult[4])))
                if p[3] > ycap or (p[4] and p[4][-1] > xcap):
                    break
                row[p] = c
            else:
                ech.insert(row)
    return ech


SPAN_RINGS = [R_ONLY, GS, E1(2), E1(3), E2, CTRL,
              RingId("E2", 2, frozenset({"n1"}))]


def _ring_id(ring):
    return ring.describe() + ("-omit-" + "-".join(sorted(ring.omit))
                              if ring.omit else "")


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=_ring_id)
@pytest.mark.parametrize("pairs, ycap, xcap", [(False, 6, 4), (True, 8, 8)])
def test_shared_span_restores_to_the_slice_span(ring, pairs, ycap, xcap):
    # restored to its slice's (dt, du), each shared Echelon is the span
    # built at that slice, row for row; slices share an Echelon exactly
    # when their deduplicated stripped rows and caps are equal
    ctx = Context()
    by_rows = {}
    for dt in range(7 if ring.has_t else 1):
        for du in range(3 if ring.has_u else 1):
            ech = slice_span(ring, dt, du, ycap, xcap, pairs, ctx)
            restored = [{(dt, du) + m[2:]: c for m, c in row.items()}
                        for row in ech.basis()]
            ref = _reference_span(ring, dt, du, ycap, xcap, pairs)
            assert restored == ref.basis()
            by_rows.setdefault(_dividing_rows(ring, dt, du, xcap),
                               []).append(ech)
    assert all(e is echs[0] for echs in by_rows.values() for e in echs)
    firsts = [echs[0] for echs in by_rows.values()]
    assert len({id(e) for e in firsts}) == len(firsts)
    assert len(ctx.shapes) == len(by_rows)


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=_ring_id)
def test_any_build_order_gives_the_same_spans(ring, monkeypatch):
    # every slice of both pairs modes, built in a shuffled order in one
    # context: each shared Echelon has the pivots and canonical basis of a
    # build from scratch, the bidegree-zero relators are inserted once per
    # caps, into the (0, 0) span, and a layer inserts its own deduplicated
    # rows
    caps = {False: (6, 4), True: (8, 8)}
    slices = [(dt, du, pairs) for dt in range(7 if ring.has_t else 1)
              for du in range(3 if ring.has_u else 1) for pairs in caps]
    random.Random(47).shuffle(slices)
    inserted = []
    real_insert = Echelon.insert

    def spy(self, vec):
        inserted.append((self, dict(vec)))
        return real_insert(self, vec)

    def scratch_inserts(dt, du, pairs):
        # the insert sequence of a build from scratch, and the build
        ycap, xcap = caps[pairs]
        xs = [] if ring.variant == "CTRL" else range(xcap + 1)
        start = len(inserted)
        ech = _shape_span(_dividing_rows(ring, dt, du, xcap), xs, ycap, xcap,
                          pairs, QQ)
        return [vec for _, vec in inserted[start:]], ech

    monkeypatch.setattr(Echelon, "insert", spy)
    ctx = Context()
    spans = {(dt, du, pairs): slice_span(ring, dt, du, *caps[pairs], pairs,
                                         ctx)
             for dt, du, pairs in slices}
    by_echelon = {}
    for ech, vec in inserted:
        by_echelon.setdefault(id(ech), []).append(vec)
    for pairs, (ycap, xcap) in caps.items():
        zero_seq, _ = scratch_inserts(0, 0, pairs)
        zero = spans[(0, 0, pairs)]
        assert by_echelon.get(id(zero), []) == zero_seq
        for (dt, du, p), ech in spans.items():
            if p != pairs:
                continue
            seq, scratch = scratch_inserts(dt, du, pairs)
            assert ech.pivots() == scratch.pivots()
            assert ech.basis() == scratch.basis()
            restored = [{(dt, du) + m[2:]: c for m, c in row.items()}
                        for row in ech.basis()]
            ref = _reference_span(ring, dt, du, ycap, xcap, pairs)
            assert restored == ref.basis()
            if ech is not zero:
                assert seq[:len(zero_seq)] == zero_seq
                assert by_echelon.get(id(ech), []) == seq[len(zero_seq):]
    assert set(by_echelon) <= {id(ech) for ech in ctx.shapes.values()}


@pytest.mark.parametrize("pairs, ycap, xcap", [(False, 6, 4), (True, 8, 8)])
def test_rings_share_spans_with_equal_stripped_rows(pairs, ycap, xcap):
    # one context for the whole family: a span is keyed by its stripped
    # rows and caps, not by the ring that asked for it
    ctx = Context()
    spans = {}
    for ring in SPAN_RINGS:
        for dt in range(9 if ring.has_t else 1):
            for du in range(3 if ring.has_u else 1):
                ech = slice_span(ring, dt, du, ycap, xcap, pairs, ctx)
                restored = [{(dt, du) + m[2:]: c for m, c in row.items()}
                            for row in ech.basis()]
                ref = _reference_span(ring, dt, du, ycap, xcap, pairs)
                assert restored == ref.basis()
                spans[(ring, dt, du)] = ech
    zero = spans[(R_ONLY, 0, 0)]
    assert all(spans[(ring, 0, 0)] is zero
               for ring in (R_ONLY, GS, E1(2), E1(3), E2))
    for dt in range(8):
        assert spans[(E1(2), dt, 0)] is spans[(E2, dt, 0)]
        assert spans[(E1(3), dt + 1, 0)] is spans[(E1(2), dt, 0)]
    # E2's n_l and np_l strip to the same x_l, kept once
    for dt in range(7):
        assert spans[(E2, dt, 1)] is spans[(E1(2), dt + 2, 0)]
    ctrl = {id(ech) for (ring, _, _), ech in spans.items() if ring == CTRL}
    assert ctrl.isdisjoint(id(ech) for (ring, _, _), ech in spans.items()
                           if ring != CTRL)
    assert len(ctx.shapes) == len({id(ech) for ech in spans.values()})


def _deep(ech):
    return ({p: list(row.items()) for p, row in ech.rows.items()},
            {c: set(pivs) for c, pivs in ech._uses.items()})


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=_ring_id)
def test_shapes_share_the_rows_they_leave_alone(ring, monkeypatch):
    # every shape of both pairs modes, built in a shuffled order: no span
    # changes after its build (the (0, 0) span above all, which every
    # other shape is stacked on), and each shape but the (0, 0) one is a
    # layer on the (0, 0) span object itself when that span has relators
    caps = {False: (6, 4), True: (8, 8)}
    slices = [(dt, du, pairs) for dt in range(7 if ring.has_t else 1)
              for du in range(3 if ring.has_u else 1) for pairs in caps]
    random.Random(53).shuffle(slices)
    at_build = {}
    real_build = oracle._shape_span

    def recording(*args, **kwargs):
        ech = real_build(*args, **kwargs)
        at_build[id(ech)] = _deep(ech)
        return ech

    monkeypatch.setattr(oracle, "_shape_span", recording)
    ctx = Context()
    for dt, du, pairs in slices:
        slice_span(ring, dt, du, *caps[pairs], pairs, ctx)
    assert len(at_build) == len(ctx.shapes)
    assert all(_deep(ech) == at_build[id(ech)] for ech in ctx.shapes.values())
    layers = 0
    for pairs, (ycap, xcap) in caps.items():
        zero = slice_span(ring, 0, 0, ycap, xcap, pairs, ctx)
        assert zero.base is None
        stacked = zero if _slice_generators(ring, 0, 0, xcap) else None
        for shape, ech in ctx.shapes.items():
            if shape[5] == pairs and ech is not zero:
                assert ech.base is stacked
                layers += stacked is not None
    # R and GS have one shape per caps; CTRL's (0, 0) span is empty
    assert bool(layers) == (ring.variant in ("E1", "E2"))


def test_vectorize_round_trip():
    rng = random.Random(31)
    for ring in (R_ONLY, GS, E1(2), E2, CTRL):
        for _ in range(30):
            terms = {}
            dt = rng.randint(0, 2) if ring.has_t else 0
            du = rng.randint(0, 1) if ring.has_u else 0
            if ring.variant == "CTRL":
                idx = ("x", rng.randint(1, 4))
            else:
                idx = ("x", rng.randint(0, 5)) if rng.random() < 0.6 \
                    else ("y", rng.randint(0, 3))
            terms[(dt, du)] = {idx: QQ.from_int(rng.randint(1, 5))}
            p = GradedPoly(ring, terms, QQ)
            assert poly_of_vec(ring, vectorize(p)) == p
    # CTRL powers x^a t^d sit in the power slot of the one raw shape
    p = _gen(CTRL, ("x", 3)) * _gen(CTRL, "t") + GradedPoly.one(CTRL)
    assert vectorize(p) == {(1, 0, 0, 3, ()): 1, (0, 0, 0, 0, ()): 1}


def test_annihilator_dims_frozen():
    ctx = Context()

    def ann(ring, dt, du, w):
        return annihilator_oracle(ring, dt, du, w, ctx=ctx)

    w = Window(10, 0, 12)
    assert [ann(E1(2), d, 0, w).dim for d in range(11)] == \
        [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert [ann(E1(3), d, 0, w).dim for d in range(11)] == \
        [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8]
    w2 = Window(8, 3, 12)
    assert [ann(E2, d, 0, w2).dim for d in range(9)] == \
        [0, 0, 1, 2, 3, 4, 5, 6, 7]
    assert [ann(E2, d, 1, w2).dim for d in range(6)] == \
        [1, 2, 3, 4, 5, 6]
    assert all(ann(GS, d, 0, w).dim == 0 for d in range(6))
    wc = Window(8, 0, 10)
    assert [ann(CTRL, d, 0, wc).dim for d in (1, 2, 3)] == \
        [0, 10, 10]


def test_annihilator_matches_formula_everywhere():
    ctx = Context()
    for ring in (E1(2), E1(3), E2, GS):
        w = Window(6, 2 if ring.has_u else 0, 8)
        for dt in range(7):
            for du in range(3 if ring.has_u else 1):
                want = ann_formula(ring, dt, du)
                got = annihilator_oracle(ring, dt, du, w, ctx=ctx)
                assert got.dim == len(want)
                for idx in want:
                    assert got.contains(vectorize(_gen(ring, idx)))


ANN_CASES = [
    (E1(2), Window(6, 0, 8), [(d, 0) for d in range(7)]),
    (E1(3), Window(6, 0, 8), [(d, 0) for d in range(7)]),
    (E2, Window(5, 2, 8), [(0, 0), (1, 0), (3, 0), (0, 1), (2, 1), (4, 2)]),
    (CTRL, Window(6, 0, 8), [(d, 0) for d in range(5)]),
    (RingId("E1", 2, frozenset({"n0"})), Window(6, 0, 8),
     [(d, 0) for d in range(5)]),
]


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
@pytest.mark.parametrize("ring, w, shifts", ANN_CASES,
                         ids=[_ring_id(c[0]) for c in ANN_CASES])
def test_annihilator_is_the_slice0_kernel_of_a_window_map(ring, w, shifts,
                                                          spec):
    # mapping the (0, 0) slice alone gives the kernel of the (0, 0) part
    # of the whole-window map, basis for basis
    field = field_from_spec(spec)
    ctx = Context(field)
    for dt, du in shifts:
        images = mul_map(ring, {(dt, du, 0, 0, ()): field.one()}, w, ctx)
        assert tuple(images) == window_basis(ring, w, ctx)
        slice0 = [m for m in images if m[:2] == (0, 0)]
        want = kernel_basis(slice0, images.__getitem__, field)
        got = annihilator_oracle(ring, dt, du, w, ctx)
        assert got.basis() == Echelon.spanned_by(want, field).basis()


@pytest.mark.parametrize("ring, w, shifts", ANN_CASES[2:4],
                         ids=[_ring_id(c[0]) for c in ANN_CASES[2:4]])
def test_annihilator_maps_only_the_slice0_basis(ring, w, shifts,
                                                monkeypatch):
    # it maps the slice-(0, 0) basis monomials and nothing else, and looks
    # up only spans that the whole-window map looks up
    dt, du = shifts[-1]
    whole = Context()
    images = mul_map(ring, {(dt, du, 0, 0, ()): 1}, w, ctx=whole)
    slice0 = tuple(m for m in images if m[:2] == (0, 0))
    mapped = []
    real = oracle.map_images

    def spy(ring, monos, *args, **kwargs):
        mapped.append(tuple(monos))
        return real(ring, monos, *args, **kwargs)

    monkeypatch.setattr(oracle, "map_images", spy)
    ctx = Context()
    annihilator_oracle(ring, dt, du, w, ctx=ctx)
    assert mapped == [slice0]
    assert set(ctx.spans) < set(whole.spans)


@pytest.mark.parametrize("ring, g", [
    (E1(2), {(2, 0, 0, 0, ()): 1}),
    (E1(2), {(1, 0, 0, 0, ()): 1, (0, 0, 0, 1, ()): -1}),       # t - y
    (E2, {(0, 1, 1, 0, (2,)): 3, (1, 0, 0, 2, ()): 1, (0, 0, 0, 1, ()): -1}),
    (CTRL, {(1, 0, 0, 1, ()): 1, (2, 0, 0, 0, ()): 2}),
])
def test_map_images_match_reduce_raw(ring, g):
    # slice-by-slice images equal each monomial's product reduced whole,
    # in any domain order
    w = Window(4, 2 if ring.has_u else 0, 6)
    monos = window_basis(ring, w)
    for ycap, xcap, pairs in ((w.Mx + 4, w.Mx, False),
                              (2 * w.Mx + 4, 2 * w.Mx + 2, True)):
        ctx = Context()
        want = {m: reduce_raw(ring, raw_mul({m: 1}, g), ycap, xcap, pairs,
                              ctx)
                for m in monos}
        for order in (monos, monos[::-1]):
            assert map_images(ring, order, g, ycap, xcap, pairs, ctx) == want


def test_kernel_dims_frozen():
    assert system_kernel(E1(2), SystemSpec("f", 2), Window(8, 0, 12)).dim == 8
    assert system_kernel(E1(3), SystemSpec("f", 3), Window(8, 0, 12)).dim == 7
    assert system_kernel(GS, SystemSpec("f", 2), Window(8, 0, 16)).dim == 0
    assert system_kernel(E2, SystemSpec("f", 2), Window(6, 6, 10)).dim == 6


def test_kernel_membership_witnesses():
    ker = system_kernel(E1(2), SystemSpec("f", 2), Window(8, 0, 12))
    x0t = _gen(E1(2), ("x", 0)) * _gen(E1(2), "t")
    assert ker.contains(vectorize(x0t))
    assert not ker.contains(vectorize(_gen(E1(2), ("x", 0))))
    ker3 = system_kernel(E1(3), SystemSpec("f", 3), Window(8, 0, 12))
    x0t2 = _gen(E1(3), ("x", 0)) * _gen(E1(3), "t") ** 2
    assert ker3.contains(vectorize(x0t2))


def test_kernel_window_monotone():
    # growing the window never loses kernel vectors
    dims = [system_kernel(E1(2), SystemSpec("f", 2), Window(d, 0, d + 4)).dim
            for d in range(2, 9)]
    assert dims == sorted(dims)
    small = system_kernel(E1(2), SystemSpec("f", 2), Window(4, 0, 10))
    large = system_kernel(E1(2), SystemSpec("f", 2), Window(8, 0, 10))
    for v in small.basis():
        assert large.contains(v)


def test_joint_kernel_equals_system_kernel():
    w = Window(6, 0, 10)
    t = _gen(E1(2), "t")
    y = _gen(E1(2), "y")
    jk = kernel_of(E1(2), [vectorize(t - y), vectorize(t * t)], w)
    sk = system_kernel(E1(2), SystemSpec("f", 2), w)
    assert jk.dim == sk.dim
    for v in sk.basis():
        assert jk.contains(v)


def test_kernel_of_single_map():
    # Ann_R(y) = k x_0 in the degree-zero window
    ker = kernel_of(R_ONLY, [vectorize(_gen(R_ONLY, "y"))], Window(0, 0, 10))
    assert ker.dim == 1
    assert ker.contains(vectorize(_gen(R_ONLY, ("x", 0))))
    # t - y is injective on the GS window
    g = _gen(GS, "t") - _gen(GS, "y")
    assert kernel_of(GS, [vectorize(g)], Window(8, 0, 16)).dim == 0


def test_torsion_frozen():
    T = torsion_subspace(E2, Window(6, 6, 10))
    assert T.dim == 13
    t = _gen(E2, "t")
    u = _gen(E2, "u")
    for v in T.basis():
        p = poly_of_vec(E2, v)
        assert (t * t * p).is_zero()
        assert (t * u * p).is_zero()
        assert (u * u * p).is_zero()
    assert T.contains(vectorize(_gen(E2, ("x", 0))))
    assert not T.contains(vectorize(GradedPoly.one(E2)))
    Tc = torsion_subspace(CTRL, Window(6, 0, 10))
    assert Tc.dim == 20
    assert Tc.contains(vectorize(_gen(CTRL, ("x", 1))))
    assert not Tc.contains(vectorize(_gen(CTRL, "t")))


def test_boundary_touch_flags_coefficient_edge():
    w = Window(4, 0, 6)
    edge = vectorize(_gen(E1(2), ("x", 6)))
    interior = vectorize(_gen(E1(2), ("x", 3)))
    assert boundary_touch(edge, w)
    assert not boundary_touch(interior, w)
    # t-direction saturation alone does not flag
    top_t = vectorize(_gen(E1(2), ("x", 6)) * _gen(E1(2), "t") ** 4)
    low = vectorize(_gen(E1(2), ("x", 2)) * _gen(E1(2), "t") ** 4)
    assert boundary_touch(top_t, w)
    assert not boundary_touch(low, w)
    # CTRL's x-power is the coefficient direction
    wc = Window(4, 0, 10)
    assert boundary_touch(vectorize(_gen(CTRL, ("x", 10)) * _gen(CTRL, "t")),
                          wc)
    assert not boundary_touch(vectorize(_gen(CTRL, ("x", 9))), wc)


def test_mutation_changes_oracle_only():
    # dropping the first truncation relator revives x0*t^2 in the oracle
    mut = RingId("E1", 2, frozenset({"n0"}))
    w = Window(4, 0, 8)
    plain = annihilator_oracle(E1(2), 2, 0, w)
    mutated = annihilator_oracle(mut, 2, 0, w)
    assert plain.dim == 1
    assert mutated.dim == 0
    # formula side is blind to the omission
    assert ann_formula(mut, 2, 0) == ann_formula(E1(2), 2, 0)
    # CTRL's single relator x*t^2 is a slice generator tagged n0 as well
    mut_c = RingId("CTRL", 2, frozenset({"n0"}))
    wc = Window(8, 0, 10)
    assert annihilator_oracle(CTRL, 2, 0, wc).dim == 10
    assert annihilator_oracle(mut_c, 2, 0, wc).dim == 0
    assert torsion_subspace(mut_c, Window(6, 0, 10)).dim == 0
    assert ann_formula(mut_c, 2, 0, mx=10) == ann_formula(CTRL, 2, 0, mx=10)


def test_prime_field_oracle_agrees_on_dims():
    fp = PrimeField(101)
    w = Window(6, 0, 8)
    for d in range(5):
        a = annihilator_oracle(E1(2), d, 0, w)
        b = annihilator_oracle(E1(2), d, 0, w, ctx=Context(fp))
        assert a.dim == b.dim
