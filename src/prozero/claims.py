"""Claim verifiers: one structured, replayable check per mathematical claim.

Each verifier recomputes its claim's content from scratch inside an
explicit finite window and returns a ClaimReport whose status is
"verified", "FALSIFIED" (with a replayable counter-witness), or
"inconclusive-window" (the computation touched the window boundary, so
the window proves nothing either way).

The claim table `CLAIMS` is the one list of claims: each entry holds
the id, the verifier, the window the claim needs and the claim
parameters it takes, with their defaults. `run_claim` is the one way
in. It refuses a parameter the claim does not take and binds the
window: explicit overrides are binding, and an override below the
claim's requirement raises the window-too-small error instead of
silently shrinking the claim. Verifiers are called as
verifier(w, ctx, **params) and never see a default window; the field
is the context's (`ctx.field`), one per run.

Reports are deterministic: fixed ordering everywhere, no timestamps, no
randomness. Timing is attached only on request and lives outside the
comparable body.

Every verifier computes in the run's `oracle.Context`, over its field;
`run_all`, which the `verify` command and the tests both use, passes
one context to the claims it runs, so annihilators and Koszul stage
modules are built once per run, and drops the context's slice spans
before each claim, so a span lives only as long as the claim that built
it. `run_claim` without a context makes a fresh one, over q.
`suite_doc` builds the document of a whole-suite run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import partial

from .koszul import (check_row, check_search, pro_zero_test, ses_row_check,
                     stage_degree, transition_witness_replay)
from .oracle import (Context, Window, WindowError, annihilator_oracle,
                     check_window, index_of_mono, kernel_of,
                     mono_of_index, product_caps, reduce_raw, shift_reduce,
                     subspace_boundary_touch, system_kernel, torsion_subspace,
                     vectorize, window_basis)
from .parser import ParseError, print_element, print_terms
from .rings import (GS, CTRL, E1, E2, R_ONLY, GradedPoly, SystemSpec,
                    RingError, alpha_hat, ann_formula, apply_system,
                    apply_system_raw)

SCHEMA_VERSION = "1"

SCOPE_NOTE = ("conclusions hold at the truncation window over the "
              "degree-zero subring; lifting along the flat completion step "
              "is outside computational scope")


@dataclass
class ClaimReport:
    claim_id: str
    ring: str
    params: dict
    status: str
    witnesses: list = dc_field(default_factory=list)
    inventory: list = dc_field(default_factory=list)
    notes: str = SCOPE_NOTE
    timing_ms: float = None

    def to_dict(self):
        d = {
            "schema_version": SCHEMA_VERSION,
            "claim_id": self.claim_id,
            "ring": self.ring,
            "params": self.params,
            "status": self.status,
            "witnesses": self.witnesses,
            "inventory": self.inventory,
            "notes": self.notes,
        }
        if self.timing_ms is not None:
            d["timing_ms"] = self.timing_ms
        return d


def render_vec(ring, vec, field):
    """An oracle vector printed from its raw monomials, as `print_element`
    prints an element: raw-monomial order is the print order. No element
    is built, so no closed-form rule drops a term the oracle kept."""
    return print_terms([(m[0], m[1], index_of_mono(m, ring), c)
                        for m, c in sorted(vec.items())], field)


def render_basis(ring, sub):
    """The basis of the Echelon sub, over its field, rendered in
    ascending pivot order."""
    rows = [render_vec(ring, v, sub.field) for v in sub.basis()]
    rows.reverse()  # basis() is descending-pivot; render ascending
    return rows


def _params(w, **more):
    """A report's params: the window's bounds and the claim's own."""
    return {"dt": w.Dt, "du": w.Du, "mx": w.Mx, **more}


def _no_constant(vec):
    """True when vec has no monomial of bidegree (0, 0)."""
    return all((m[0], m[1]) != (0, 0) for m in vec)


def _t_slices(vec):
    """Split a window vector into its t-degree slices, t-power stripped."""
    out = {}
    for m, c in vec.items():
        out.setdefault(m[0], {})[(0,) + m[1:]] = c
    return out


def _vsub(field, a, b):
    out = dict(a)
    for m, c in b.items():
        acc = field.sub(out.get(m, field.zero()), c)
        if field.is_zero(acc):
            out.pop(m, None)
        else:
            out[m] = acc
    return out


class _Checks:
    """Accumulates named checks; first failure becomes the counter-witness."""

    def __init__(self):
        self.inventory = []
        self.failure = None

    def expect(self, ok, label, counter=""):
        if ok:
            self.inventory.append(label)
        elif self.failure is None:
            self.failure = (label, counter)
        return ok

    def note(self, label):
        self.inventory.append(label)

    def report(self, ring_desc, params, witnesses,
               inconclusive=False, inconclusive_why=""):
        """The claim's report; `run_claim` stamps the claim id on it."""
        if self.failure is not None:
            label, counter = self.failure
            wit = ["COUNTER: " + counter] if counter else []
            return ClaimReport(None, ring_desc, params, "FALSIFIED",
                               wit, ["FAILED: " + label] + self.inventory)
        if inconclusive:
            return ClaimReport(None, ring_desc, params,
                               "inconclusive-window", [],
                               [inconclusive_why] + self.inventory)
        return ClaimReport(None, ring_desc, params, "verified",
                           witnesses, self.inventory)


# -- C-basis

def verify_basis(w, ctx):
    mxv, field = w.Mx, ctx.field
    ck = _Checks()
    w0 = Window(0, 0, mxv)
    x0 = {(0, 0, 1, 0, (0,)): field.one()}
    for g in ((), x0):      # the basis, then the two-x pair spans
        check_window(R_ONLY, w0, g)
    mb = window_basis(R_ONLY, w0, ctx)
    pure_y = tuple(mono_of_index(("y", a)) for a in range(mxv + 1))
    pure_x = tuple(mono_of_index(("x", i)) for i in range(mxv + 1))
    want = tuple(sorted(pure_y + pure_x))
    ck.expect(mb == want,
              "degree-zero window complement is exactly {y^a} + {x_i}",
              "complement has %d monomials, expected %d" %
              (len(mb), len(want)))

    pair_caps = product_caps(w0, x0)     # two-x products: the pair spans

    def pair_nf(mono):
        return reduce_raw(R_ONLY, {mono: field.one()}, *pair_caps, ctx=ctx)

    bad = next(((i, j) for i in range(mxv + 1) for j in range(i, mxv + 1)
                if pair_nf((0, 0, 2, 0, (i, j)))), None)
    ck.expect(bad is None,
              "every product x_i*x_j dies in the certified region",
              "x%s*x%s has nonzero normal form" % bad if bad else "")
    ok_mixed = all(pair_nf((0, 0, 1, 1, (i,)))
                   == {(0, 0, 1, 0, (i - 1,)): field.one()}
                   for i in range(1, mxv + 1))
    ck.expect(ok_mixed and not pair_nf((0, 0, 1, 1, (0,))),
              "y*x_i normalizes to x_(i-1), y*x_0 to 0", "")

    # independence: a fixed combination of low x-generators is its own
    # normal form, so no relation touches the complement
    comb = {(0, 0, 1, 0, (i,)): field.from_int(i + 1) for i in range(5)}
    got = reduce_raw(R_ONLY, dict(comb), *product_caps(w), ctx=ctx)
    ck.expect(got == comb, "1*x0 + ... + 5*x4 is linearly independent",
              "combination reduced to %r" % (got,))
    ck.expect(reduce_raw(R_ONLY, dict(x0), *product_caps(w), ctx=ctx) == x0,
              "x0 is not in the relation span", "x0 reduced to zero")

    params = {"mx": mxv, "pair_cap": pair_caps[1]}
    return ck.report(R_ONLY.describe(), params, ["x0"])


# -- C-ann-t / C-ann-tu

def _ann_rows(ring, max_dt, max_du, w, ck, ctx):
    for dt in range(max_dt + 1):
        for du in range(max_du + 1):
            got = annihilator_oracle(ring, dt, du, w, ctx)
            want = [{mono_of_index(idx, ring=ring): ctx.field.one()}
                    for idx in ann_formula(ring, dt, du, w.Mx)]
            dim_ok = got.dim == len(want)
            member_ok = all(got.contains(v) for v in want)
            label = "%s ann(t^%d%s) matches closed form (dim %d)" % (
                ring.describe(), dt, ("*u^%d" % du) if du else "", got.dim)
            if not ck.expect(dim_ok and member_ok, label,
                             "at dt=%d du=%d oracle dim %d vs formula dim %d"
                             % (dt, du, got.dim, len(want))):
                return


def verify_ann(w, ctx, ring, table):
    """The annihilator table up to t^table[0] u^table[1]; on E1[m] also
    the GS control and the Ann(t^3) witness."""
    max_dt, max_du = table
    ck = _Checks()
    _ann_rows(ring, max_dt, max_du, w, ck, ctx)
    params = _params(w, table_dt=max_dt, table_du=max_du)
    wit = []
    if ring.variant == "E1":
        controls = (1, 3, 7) if not ring.omit else ()
        for dtv in (d for d in controls if d <= w.Dt):
            g = annihilator_oracle(GS, dtv, 0, Window(w.Dt, 0, w.Mx), ctx)
            ck.expect(g.dim == 0, "control: GS ann(t^%d) is zero" % dtv,
                      "GS ann(t^%d) has dim %d" % (dtv, g.dim))
        if ck.failure is None and w.Dt >= 3:
            a3 = annihilator_oracle(ring, 3, 0, w, ctx)
            wit = [", ".join(render_basis(ring, a3)) or "(trivial)"]
        params["m"] = ring.m
    return ck.report(ring.describe(), params, wit)


# -- C-essential

def _induction_replay(ring, vec, w, ck, tag, ctx):
    """Replay the downward-induction equations on one kernel vector.

    Returns True when every equation holds; a failing equation is
    reported individually with the vector as counter-witness.
    """
    cs = _t_slices(vec)
    n_top = w.Dt
    c = {i: cs.get(i, {}) for i in range(n_top + 1)}
    rendered = render_vec(ring, vec, ctx.field)
    if shift_reduce(ring, c[0], 0, 0, w, 1, ctx):
        ck.expect(False, "%s: c0*y = 0" % tag, "c0*y != 0 for %s" % rendered)
        return False
    for i in range(n_top):
        diff = _vsub(ctx.field, c[i],
                     shift_reduce(ring, c[i + 1], 0, 0, w, 1, ctx))
        if shift_reduce(ring, diff, i + 1, 0, w, ctx=ctx):
            ck.expect(False,
                      "%s: (c%d - c%d*y)*t^%d = 0" % (tag, i, i + 1, i + 1),
                      "induction step %d fails for %s" % (i, rendered))
            return False
    if shift_reduce(ring, c[n_top], n_top + 1, 0, w, ctx=ctx):
        ck.expect(False, "%s: c%d*t^%d = 0" % (tag, n_top, n_top + 1),
                  "top coefficient of %s survives t^%d"
                  % (rendered, n_top + 1))
        return False
    support_ok = all(m[4] and m[4][-1] <= n_top and m[3] == 0
                     for m in c[n_top])
    dz = all(m[4] != (n_top,) for m in c[n_top])
    if not (support_ok and dz):
        ck.expect(False,
                  "%s: c%d expands over x_0..x_%d with zero x_%d part"
                  % (tag, n_top, n_top - 1, n_top),
                  "top coefficient of %s escapes the expansion" % rendered)
        return False
    return True


def verify_essential(w, ctx, ring):
    ck, field = _Checks(), ctx.field
    tmy = (GradedPoly.gen(ring, "t", field)
           - GradedPoly.gen(ring, "y", field))
    ker = kernel_of(ring, [vectorize(tmy)], w, ctx)
    ck.expect(ker.dim > 0, "kernel of (t - y) is nonzero (dim %d)" % ker.dim,
              "kernel is trivial at Dt=%d Mx=%d" % (w.Dt, w.Mx))
    x0t = (GradedPoly.gen(ring, ("x", 0), field)
           * GradedPoly.gen(ring, "t", field) ** (ring.m - 1))
    wit_vec = vectorize(x0t)
    ck.expect(ker.contains(wit_vec) and bool(wit_vec),
              "witness %s lies in the kernel" % print_element(x0t),
              "expected witness is not a kernel vector")
    const_ok = all(_no_constant(v) for v in ker.basis())
    ck.expect(const_ok, "every kernel basis vector has zero constant term",
              next((render_vec(ring, v, field) for v in ker.basis()
                    if not _no_constant(v)), ""))
    replayed = 0
    for k, v in enumerate(ker.basis()):
        if not _induction_replay(ring, v, w, ck, "vector %d" % k, ctx):
            break
        replayed += 1
    if replayed == ker.dim:
        ck.note("induction equations (c0*y = 0, the %d downward steps, "
                "the top kill, and the top expansion) replayed on all %d "
                "kernel vectors" % (w.Dt, ker.dim))
    touched = subspace_boundary_touch(ker, w)
    if not touched:
        ck.note("no kernel vector touches the window boundary")
    params = _params(w, m=ring.m, kernel_dim=ker.dim)
    return ck.report(ring.describe(), params,
                     [print_element(x0t)], inconclusive=touched,
                     inconclusive_why="kernel touches window boundary")


# -- C-kernel-I0

def verify_kernel_I0(w, ctx):
    ck, field = _Checks(), ctx.field
    tmy = GradedPoly.gen(E2, "t", field) - GradedPoly.gen(E2, "y", field)
    ker = kernel_of(E2, [vectorize(tmy)], w, ctx)
    ck.expect(ker.dim > 0, "kernel of (t - y) on E2 is nonzero (dim %d)"
              % ker.dim, "kernel is trivial")
    x0t = GradedPoly.gen(E2, ("x", 0), field) * GradedPoly.gen(E2, "t", field)
    ck.expect(ker.contains(vectorize(x0t)), "witness x0*t lies in the kernel",
              "x0*t is not a kernel vector")
    const_ok = all(_no_constant(v) for v in ker.basis())
    ck.expect(const_ok,
              "every kernel basis vector has zero degree-(0,0) component",
              next((render_vec(E2, v, field) for v in ker.basis()
                    if not _no_constant(v)), ""))
    in_ideal = all(all(m[4] for m in v) for v in ker.basis())
    ck.expect(in_ideal, "every kernel basis vector lies in the x-generator "
              "ideal", "a kernel vector has an x-free monomial")
    touched = subspace_boundary_touch(ker, w)
    params = _params(w, kernel_dim=ker.dim)
    return ck.report(E2.describe(), params,
                     [print_element(x0t)], inconclusive=touched,
                     inconclusive_why="kernel touches window boundary")


# -- C-bounded-E2

def verify_bounded_E2(w, ctx):
    ck, field = _Checks(), ctx.field
    k = w.Dt + w.Du + 2
    T = torsion_subspace(E2, w, k, ctx)
    ck.expect(T.dim > 0, "torsion subspace is nonzero (dim %d)" % T.dim,
              "torsion subspace is trivial")
    for (sdt, sdu, name) in ((2, 0, "t^2"), (1, 1, "t*u"), (0, 2, "u^2")):
        bad = next((v for v in T.basis()
                    if shift_reduce(E2, v, sdt, sdu, w, ctx=ctx)), None)
        ck.expect(bad is None, "%s * T = 0 exactly" % name,
                  "" if bad is None else
                  "%s survives %s" % (render_vec(E2, bad, field), name))
    x0 = {mono_of_index(("x", 0)): field.one()}
    ck.expect(T.contains(x0)
              and not shift_reduce(E2, x0, 0, 1, w, ctx=ctx),
              "x0 is torsion and u*x0 = 0", "x0 fails the torsion witness")
    one = {mono_of_index(("y", 0)): field.one()}
    ck.expect(not T.contains(one), "1 is not torsion", "1 reported torsion")
    params = _params(w, k=k, torsion_dim=T.dim)
    return ck.report(E2.describe(), params, ["x0"])


# -- C-nwkpr

def verify_nwkpr(w, ctx, max_stage):
    ck, field = _Checks(), ctx.field
    sysH = SystemSpec(kind="H0(u;H1(t))")
    rows = range(2, max_stage - 1)
    # every E2 stage the claim builds is refused before the first is
    # built: the search's, then each row's pair complex
    check_search(E2, sysH, max_stage, w)
    for i in rows:
        check_row(E2, i, w)
    rep = pro_zero_test(E2, sysH, max_stage, w, ctx)
    ck.expect(rep.verdict == "NOT-pro-zero-witnessed",
              "inverse system verdict: NOT-pro-zero-witnessed",
              "verdict was %s" % rep.verdict)
    wit_strs = []
    row2 = next((r for r in rep.rows if r.n == 2), None)
    chain_ok = row2 is not None and not row2.least_zero_m
    if chain_ok:
        for m, witv in row2.witnesses:
            expect = {mono_of_index(("x", m - 2)): field.one()}
            if witv != expect:
                chain_ok = False
                break
            if not transition_witness_replay(E2, sysH, m, 2, w, witv, ctx):
                chain_ok = False
                break
            wit_strs.append(render_vec(E2, witv, field))
    ck.expect(chain_ok,
              "witness chain x_(v-2) for v=3..%d, each image replayed nonzero"
              % max_stage, "witness chain broken")
    for i in rows:
        ck.expect(ses_row_check(E2, i, w, ctx),
                  "three-term row exact at stage %d" % i,
                  "row fails exactness at stage %d" % i)
    ctrl = pro_zero_test(CTRL, SystemSpec(kind="H1(t)"), max_stage,
                         Window(w.Dt, 0, w.Mx), ctx)
    ck.expect(ctrl.verdict == "pro-zero-up-to-window",
              "control: CTRL verdict pro-zero-up-to-window",
              "CTRL verdict was %s" % ctrl.verdict)
    params = _params(w, max_stage=max_stage)
    return ck.report(E2.describe(), params, wit_strs)


# -- C-gs-demo

def demo_gs(w, ctx, prec):
    n_ap, field = prec, ctx.field
    ck = _Checks()
    tmy = GradedPoly.gen(GS, "t", field) - GradedPoly.gen(GS, "y", field)
    ker = kernel_of(GS, [vectorize(tmy)], w, ctx)
    ck.expect(ker.dim == 0, "kernel of (t - y) on the window is trivial",
              "kernel dim %d" % ker.dim)
    # backward-substitution ingredients, each recomputed
    anny = kernel_of(R_ONLY, [vectorize(GradedPoly.gen(R_ONLY, "y", field))],
                     Window(0, 0, w.Mx), ctx)
    x0 = {mono_of_index(("x", 0)): field.one()}
    ck.expect(anny.dim == 1 and anny.contains(x0),
              "Ann(y) in the coefficient ring is exactly k*x0",
              "Ann(y) has dim %d" % anny.dim)
    tinj = kernel_of(GS, [vectorize(GradedPoly.gen(GS, "t", field))], w, ctx)
    ck.expect(tinj.dim == 0, "t acts injectively on the window",
              "t has a windowed kernel of dim %d" % tinj.dim)
    ck.note("backward substitution: top coefficient dies, each lower "
            "coefficient is y times the next, so the chain collapses to 0")
    ah = alpha_hat(GS, n_ap, field)
    res = dict(apply_system(SystemSpec(kind="f", n=2), ah))
    f1w = res["f1"]
    ck.expect(f1w.body.is_zero() and f1w.precision == n_ap,
              "f1(formal solution) = 0 at precision %d" % n_ap,
              "windowed residue %s" % print_element(f1w.body))
    exact = dict(apply_system_raw(SystemSpec(kind="f", n=2), ah.body))
    ck.note("exact f1 residue: %s" % print_element(exact["f1"]))
    ck.expect(bool(ah.body.component(0, 0)),
              "formal solution has constant term x0 != 0",
              "formal solution lost its constant term")
    ck.note("no windowed solution matches the formal one in degree 0: "
            "the only windowed solution is 0")
    params = _params(w, n_approx=n_ap)
    return ck.report(GS.describe(), params, ["(trivial)"])


# -- C-approx-fail-E1 / C-approx-fail-E2

def demo_approx_failure(w, ctx, ring, n, prec):
    n_ap, field = prec, ctx.field
    ck = _Checks()
    system = SystemSpec(kind="f", n=n)
    ah = alpha_hat(ring, n_ap, field)
    windowed = dict(apply_system(system, ah))
    f1w = windowed["f1"]
    ck.expect(f1w.body.is_zero(),
              "f1(formal solution) = 0 at precision %d" % n_ap,
              "windowed f1 residue %s" % print_element(f1w.body))
    exact = dict(apply_system_raw(system, ah.body))
    f2res = exact["f2"]
    ck.expect(f2res.is_zero(), "f2 = t^%d * X vanishes exactly" % n,
              "f2 residue %s" % print_element(f2res))
    if ring.has_u:
        f3res = exact["f3"]
        ck.expect(f3res.is_zero(), "f3 = u * X vanishes exactly",
                  "f3 residue %s" % print_element(f3res))
    ck.note("exact f1 residue: %s" % print_element(exact["f1"]))
    ker = system_kernel(ring, system, w, ctx)
    ck.expect(ker.dim > 0,
              "windowed solution space is nonzero (dim %d)" % ker.dim,
              "system has no windowed solutions at all")
    const_ok = all(_no_constant(v) for v in ker.basis())
    ck.expect(const_ok,
              "every windowed solution has zero degree-(0,0) component",
              next((render_vec(ring, v, field) for v in ker.basis()
                    if not _no_constant(v)), ""))
    ck.expect(bool(ah.body.component(0, 0)),
              "formal solution has constant term x0 != 0",
              "formal solution lost its constant term")
    ck.note("approximation fails: no windowed solution is congruent to the "
            "formal solution in degree (0,0)")
    touched = subspace_boundary_touch(ker, w)
    params = _params(w, n=n, n_approx=n_ap, solution_dim=ker.dim)
    if ring.variant == "E1":
        params["m"] = ring.m
    return ck.report(ring.describe(), params,
                     [print_element(ah.body)], inconclusive=touched,
                     inconclusive_why="solution space touches window boundary")


# -- C-xi-witness

def verify_xi_witnesses(w, ctx):
    n_max, field = 6, ctx.field
    ring = E1(2)
    # shift_reduce reaches t^(n_max + 1) before an annihilator checks w
    check_window(ring, w, {(n_max + 1, 0, 0, 0, ()): field.one()})
    ck = _Checks()
    wit = []
    dims = []
    for n in range(1, n_max + 1):
        xi = {mono_of_index(("x", n - 1)): field.one()}
        alive = shift_reduce(ring, xi, n, 0, w, ctx=ctx)
        dead = shift_reduce(ring, xi, n + 1, 0, w, ctx=ctx)
        red_ok = bool(alive) and not dead
        ann_n = annihilator_oracle(ring, n, 0, w, ctx)
        ann_n1 = annihilator_oracle(ring, n + 1, 0, w, ctx)
        orc_ok = (not ann_n.contains(xi)) and ann_n1.contains(xi)
        ck.expect(red_ok and orc_ok,
                  "xi_%d = x%d: t^%d*xi != 0, t^%d*xi = 0 "
                  "(by reduction and by oracle)" % (n, n - 1, n, n + 1),
                  "witness x%d fails at n=%d" % (n - 1, n))
        wit.append("x%d" % (n - 1))
        dims.append(ann_n.dim)
        if ck.failure:
            break
    strict = all(b > a for a, b in zip(dims, dims[1:]))
    ck.expect(strict and len(dims) == n_max,
              "annihilator chain strictly increases: dims %s" % (dims,),
              "chain not strictly increasing: %s" % (dims,))
    ck.note("window torsion of E1[m=2] is unbounded as far as the window "
            "can see")
    params = _params(w, n_max=n_max)
    return ck.report(ring.describe(), params, wit)


# -- C-remark-wpr

def verify_remark_wpr(w, ctx, max_stage):
    ck = _Checks()
    sysT = SystemSpec(kind="H1(t)")
    rows = []

    def torsion_bounded(ring, power):
        T = torsion_subspace(ring, w, w.Mx + 2, ctx)
        if T.dim == 0:
            return "torsion-free"
        for v in T.basis():
            if shift_reduce(ring, v, power, 0, w, ctx=ctx):
                return "unbounded-or-deeper"
        return "bounded(t^%d)" % power

    def chain_strict(ring):
        dims = [annihilator_oracle(ring, n, 0, w, ctx).dim
                for n in range(1, w.Dt + 1)]
        return all(b > a for a, b in zip(dims, dims[1:]))

    # E1(2): unbounded torsion AND not pro-zero
    ring = E1(2)
    unbounded = chain_strict(ring)
    verdict = pro_zero_test(ring, sysT, max_stage, w, ctx).verdict
    rows.append((ring.describe(), "unbounded-torsion", verdict))
    ck.expect(unbounded and verdict == "NOT-pro-zero-witnessed",
              "%s: unbounded torsion and NOT-pro-zero (consistent)"
              % ring.describe(),
              "%s row violates the correspondence" % ring.describe())

    bounded = torsion_bounded(CTRL, 2)
    verdict = pro_zero_test(CTRL, sysT, max_stage, w, ctx).verdict
    rows.append((CTRL.describe(), bounded, verdict))
    ck.expect(bounded.startswith("bounded") and
              verdict == "pro-zero-up-to-window",
              "CTRL: bounded torsion (t^2) and pro-zero (consistent)",
              "CTRL row violates the correspondence")

    gs_t = torsion_subspace(GS, w, w.Mx + 2, ctx)
    verdict = pro_zero_test(GS, sysT, max_stage, w, ctx).verdict
    rows.append((GS.describe(), "torsion-free", verdict))
    ck.expect(gs_t.dim == 0 and verdict == "pro-zero-up-to-window",
              "GS: torsion-free and pro-zero (consistent)",
              "GS row violates the correspondence")

    ck.note("instance table: " + "; ".join(
        "%s [%s, %s]" % r for r in rows))
    params = _params(w, max_stage=max_stage, rows=len(rows))
    return ck.report("R-family", params, [])


# -- the claim table

@dataclass(frozen=True)
class ClaimSpec:
    """One catalogue entry: the claim id, its verifier, its window and
    the claim parameters it accepts, with their defaults.

    `window(params)` gives (Dt, Du, Mx) for the effective parameters:
    Dt and Du are both the default and the minimum, Mx the default, which
    `Window.of` raises to the margin of the effective Dt and Du.
    The verifier is called as verifier(w, ctx, **params) and reads the
    run's field off ctx.
    """

    id: str
    verifier: object
    window: object
    params: dict = dc_field(default_factory=dict)


def _stage_window(p, du):
    # below 4 stages every pro-zero row sees only gap-1 transitions, so
    # each is window-limited and no verdict could be witnessed
    if p["max_stage"] < 4:
        raise WindowError("window-too-small: claim needs --max-stage >= 4, "
                          "got %d" % p["max_stage"])
    need = stage_degree(p["max_stage"])
    return need, need if du else 0, 12


CLAIMS = {spec.id: spec for spec in (
    ClaimSpec("C-basis", verify_basis, lambda p: (0, 0, 12)),
    ClaimSpec("C-ann-t", partial(verify_ann, table=(10, 0)),
              lambda p: (10, 0, 12), {"ring": E1(2)}),
    ClaimSpec("C-essential", verify_essential, lambda p: (8, 0, 12),
              {"ring": E1(2)}),
    ClaimSpec("C-ann-tu", partial(verify_ann, ring=E2, table=(8, 3)),
              lambda p: (8, 3, 12)),
    ClaimSpec("C-kernel-I0", verify_kernel_I0, lambda p: (6, 6, 10)),
    ClaimSpec("C-bounded-E2", verify_bounded_E2, lambda p: (6, 6, 10)),
    ClaimSpec("C-nwkpr", verify_nwkpr, lambda p: _stage_window(p, True),
              {"max_stage": 8}),
    ClaimSpec("C-gs-demo", demo_gs, lambda p: (8, 0, 16), {"prec": 8}),
    ClaimSpec("C-approx-fail-E1", demo_approx_failure, lambda p: (8, 0, 12),
              {"ring": E1(2), "n": 2, "prec": 8}),
    ClaimSpec("C-approx-fail-E2", partial(demo_approx_failure, ring=E2),
              lambda p: (6, 6, 10), {"n": 2, "prec": 6}),
    ClaimSpec("C-xi-witness", verify_xi_witnesses, lambda p: (8, 0, 12)),
    ClaimSpec("C-remark-wpr", verify_remark_wpr,
              lambda p: _stage_window(p, False), {"max_stage": 8}),
)}

CLAIM_IDS = tuple(CLAIMS)


def claim_params(claim_id, **params):
    """The parameters a claim runs with: its defaults, overridden by params.

    None values are dropped. A parameter the claim does not take is a
    ParseError naming its command-line flag. A ring must be an E1[m]
    ring: every claim that takes one is a statement about E1[m].
    """
    if claim_id not in CLAIMS:
        raise KeyError("unknown claim id %r" % claim_id)
    given = {k: v for k, v in params.items() if v is not None}
    for k in given:
        if k not in CLAIMS[claim_id].params:
            raise ParseError("--%s is not accepted by claim %s"
                             % (k.replace("_", "-"), claim_id))
    if "ring" in given and given["ring"].variant != "E1":
        raise RingError("claim %s is about E1[m]; ring %s is out of scope"
                        % (claim_id, given["ring"].describe()))
    return {**CLAIMS[claim_id].params, **given}


def run_claim(claim_id, ctx=None, dt=None, du=None, mx=None, **params):
    """Run one claim: check its parameters, bind its window, verify over
    the context's field (a fresh context is over q).

    dt/du/mx override the claim's window. None keeps its default, and an
    unset mx is the claim's raised to the margin (`Window.of`); a dt or du
    below what the claim needs is a WindowError.
    """
    params = claim_params(claim_id, **params)
    spec = CLAIMS[claim_id]
    need_dt, need_du, mx_default = spec.window(params)
    w = Window.of(need_dt if dt is None else dt,
                  need_du if du is None else du, mx, mx_default)
    if w.Dt < need_dt or w.Du < need_du:
        raise WindowError("window-too-small: claim needs Dt >= %d, Du >= %d"
                          % (need_dt, need_du))
    report = spec.verifier(w, Context.of(ctx), **params)
    report.claim_id = claim_id
    return report


def run_all(ids=CLAIM_IDS, ctx=None, dt=None, du=None, mx=None,
            timing=False, **params):
    """Run claims in one context, reports in the order of ids.

    The claims share the context's annihilators and stage modules; its
    slice spans are dropped before each claim (`Context.drop_spans`), so
    no claim's spans stay live through a later claim.
    Every claim's parameters are checked before any claim runs. With
    timing, each report gets its wall time in timing_ms.
    """
    for cid in ids:        # every claim that runs must take every parameter
        claim_params(cid, **params)
    ctx = Context.of(ctx)
    reports = []
    for cid in ids:
        ctx.drop_spans()
        t0 = time.perf_counter()
        rep = run_claim(cid, ctx=ctx, dt=dt, du=du, mx=mx, **params)
        if timing:
            rep.timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
        reports.append(rep)
    return reports


def suite_doc(reports):
    """The suite document: the reports under the schema version."""
    return {"schema_version": SCHEMA_VERSION,
            "reports": [r.to_dict() for r in reports]}
