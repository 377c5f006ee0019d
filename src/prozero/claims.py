"""Claim verifiers: one structured, replayable check per mathematical claim.

Each verifier recomputes its claim's content from scratch inside an
explicit finite window and returns a ClaimReport whose status is
"verified", "FALSIFIED" (with a replayable counter-witness), or
"inconclusive-window" (the computation touched the window boundary, so
the window proves nothing either way).

Every claim carries default window parameters large enough for its
content. Explicit overrides are binding: an override below the claim's
requirement raises the window-too-small error instead of silently
shrinking the claim.

Reports are deterministic: fixed ordering everywhere, no timestamps, no
randomness. Timing is attached only on request and lives outside the
comparable body.

Every verifier takes a trailing `ctx` (an `oracle.Context`); `run_all`
passes one context to all claims, so slice spans and Koszul stage
modules are built once per run. Leaving it out gives a fresh context.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .fields import QQ
from .koszul import pro_zero_test, ses_row_check, transition_witness_replay
from .oracle import (Context, Window, WindowError, annihilator_oracle,
                     kernel_of, mono_of_index, poly_of_vec, reduce_raw,
                     shift_reduce, subspace_boundary_touch, system_kernel,
                     torsion_subspace, vectorize, window_basis)
from .parser import print_element
from .rings import (GS, CTRL, E1, E2, R_ONLY, GradedPoly, SystemSpec,
                    RingError, alpha_hat, ann_formula, apply_system,
                    apply_system_raw)

SCHEMA_VERSION = "1"

CLAIM_IDS = (
    "C-basis",
    "C-ann-t",
    "C-essential",
    "C-ann-tu",
    "C-kernel-I0",
    "C-bounded-E2",
    "C-nwkpr",
    "C-gs-demo",
    "C-approx-fail-E1",
    "C-approx-fail-E2",
    "C-xi-witness",
    "C-remark-wpr",
)

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

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _render(ring, vec, field):
    return print_element(poly_of_vec(ring, vec, field))


def _render_sub(ring, sub, field):
    rows = [_render(ring, v, field) for v in sub.basis()]
    rows.reverse()  # basis() is descending-pivot; render ascending
    return rows


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

    def report(self, claim_id, ring_desc, params, witnesses,
               inconclusive=False, inconclusive_why=""):
        if self.failure is not None:
            label, counter = self.failure
            wit = ["COUNTER: " + counter] if counter else []
            return ClaimReport(claim_id, ring_desc, params, "FALSIFIED",
                               wit, ["FAILED: " + label] + self.inventory)
        if inconclusive:
            return ClaimReport(claim_id, ring_desc, params,
                               "inconclusive-window", [],
                               [inconclusive_why] + self.inventory)
        return ClaimReport(claim_id, ring_desc, params, "verified",
                           witnesses, self.inventory)


def _win(dt, du, mx, o_dt=None, o_du=None, o_mx=None):
    """Effective window: explicit overrides are binding, else defaults."""
    eff = Window(dt if o_dt is None else o_dt,
                 du if o_du is None else o_du,
                 mx if o_mx is None else o_mx)
    if eff.Dt < dt or eff.Du < du:
        raise WindowError(
            "window-too-small: claim needs Dt >= %d, Du >= %d" % (dt, du))
    return eff


# -- C-basis

def verify_basis(w=None, dt=None, du=None, mx=None, field=QQ, ctx=None):
    eff = _win(0, 0, 12, dt, du, mx) if w is None else w
    mxv = eff.Mx
    ck = _Checks()
    ctx = Context.of(ctx)
    mb = window_basis(R_ONLY, Window(0, 0, mxv), field, ctx)
    pure_y = tuple(mono_of_index(("y", a)) for a in range(mxv + 1))
    pure_x = tuple(mono_of_index(("x", i)) for i in range(mxv + 1))
    want = tuple(sorted(pure_y + pure_x))
    ck.expect(mb.monos == want,
              "degree-zero window complement is exactly {y^a} + {x_i}",
              "complement has %d monomials, expected %d" %
              (len(mb.monos), len(want)))

    cap2 = 2 * mxv + 2
    ok_pairs = True
    bad = None
    for i in range(mxv + 1):
        for j in range(i, mxv + 1):
            v = reduce_raw(R_ONLY, {(0, 0, 2, 0, (i, j)): field.one()},
                           cap2, cap2, True, field, ctx)
            if v:
                ok_pairs = False
                bad = (i, j)
                break
        if not ok_pairs:
            break
    ck.expect(ok_pairs, "every product x_i*x_j dies in the certified region",
              "x%s*x%s has nonzero normal form" % bad if bad else "")

    ok_mixed = True
    for i in range(1, mxv + 1):
        got = reduce_raw(R_ONLY, {(0, 0, 1, 1, (i,)): field.one()},
                         cap2, cap2, True, field, ctx)
        if got != {(0, 0, 1, 0, (i - 1,)): field.one()}:
            ok_mixed = False
    got0 = reduce_raw(R_ONLY, {(0, 0, 1, 1, (0,)): field.one()},
                      cap2, cap2, True, field, ctx)
    ck.expect(ok_mixed and not got0,
              "y*x_i normalizes to x_(i-1), y*x_0 to 0", "")

    # independence: a fixed combination of low x-generators is its own
    # normal form, so no relation touches the complement
    comb = {(0, 0, 1, 0, (i,)): field.from_int(i + 1) for i in range(5)}
    got = reduce_raw(R_ONLY, dict(comb), eff.Mx + 2, eff.Mx, False, field,
                     ctx)
    ck.expect(got == comb, "1*x0 + ... + 5*x4 is linearly independent",
              "combination reduced to %r" % (got,))
    x0 = {(0, 0, 1, 0, (0,)): field.one()}
    ck.expect(reduce_raw(R_ONLY, dict(x0), eff.Mx + 2, eff.Mx, False, field,
                         ctx) == x0,
              "x0 is not in the relation span", "x0 reduced to zero")

    params = {"mx": mxv, "pair_cap": cap2}
    return ck.report("C-basis", R_ONLY.describe(), params, ["x0"])


# -- C-ann-t / C-ann-tu

def _ann_rows(ring, max_dt, max_du, w, ck, field, ctx):
    rows = []
    for dt in range(max_dt + 1):
        for du in range(max_du + 1):
            got = annihilator_oracle(ring, dt, du, w, field, ctx)
            want = [{mono_of_index(idx, ring=ring): field.one()}
                    for idx in ann_formula(ring, dt, du, w.Mx)]
            dim_ok = got.dim == len(want)
            member_ok = all(got.contains(v) for v in want)
            label = "%s ann(t^%d%s) matches closed form (dim %d)" % (
                ring.describe(), dt, ("*u^%d" % du) if du else "", got.dim)
            if not ck.expect(dim_ok and member_ok, label,
                             "at dt=%d du=%d oracle dim %d vs formula dim %d"
                             % (dt, du, got.dim, len(want))):
                return rows
            rows.append((dt, du, got.dim))
    return rows


def verify_ann(ring=None, max_dt=10, max_du=0, w=None,
               dt=None, du=None, mx=None, field=QQ, ctx=None):
    ring = E1(2) if ring is None else ring
    eff = _win(max_dt, max_du, 12, dt, du, mx) if w is None else w
    ck = _Checks()
    ctx = Context.of(ctx)
    _ann_rows(ring, max_dt, max_du, eff, ck, field, ctx)
    if ring.variant == "E1" and not ring.omit:
        for dtv in (1, 3, 7):
            if dtv <= eff.Dt:
                g = annihilator_oracle(GS, dtv, 0, Window(eff.Dt, 0, eff.Mx),
                                       field, ctx)
                ck.expect(g.dim == 0,
                          "control: GS ann(t^%d) is zero" % dtv,
                          "GS ann(t^%d) has dim %d" % (dtv, g.dim))
    claim_id = "C-ann-tu" if ring.variant == "E2" else "C-ann-t"
    wit = []
    if claim_id == "C-ann-t" and ck.failure is None and eff.Dt >= 3:
        a3 = annihilator_oracle(ring, 3, 0, eff, field, ctx)
        wit = [", ".join(_render_sub(ring, a3, field)) or "(trivial)"]
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx,
              "table_dt": max_dt, "table_du": max_du}
    if ring.variant == "E1":
        params["m"] = ring.m
    return ck.report(claim_id, ring.describe(), params, wit)


def verify_ann_tu(w=None, dt=None, du=None, mx=None, field=QQ, ctx=None):
    eff = _win(8, 3, 12, dt, du, mx) if w is None else w
    return verify_ann(E2, 8, 3, eff, field=field, ctx=ctx)


# -- C-essential

def _induction_replay(ring, vec, w, ck, field, tag, ctx):
    """Replay the downward-induction equations on one kernel vector.

    Returns True when every equation holds; a failing equation is
    reported individually with the vector as counter-witness.
    """
    cs = _t_slices(vec)
    n_top = w.Dt
    c = {i: cs.get(i, {}) for i in range(n_top + 1)}
    rendered = _render(ring, vec, field)
    if shift_reduce(ring, c[0], 0, 0, w, field, 1, ctx):
        ck.expect(False, "%s: c0*y = 0" % tag, "c0*y != 0 for %s" % rendered)
        return False
    for i in range(n_top):
        diff = _vsub(field, c[i],
                     shift_reduce(ring, c[i + 1], 0, 0, w, field, 1, ctx))
        if shift_reduce(ring, diff, i + 1, 0, w, field, ctx=ctx):
            ck.expect(False,
                      "%s: (c%d - c%d*y)*t^%d = 0" % (tag, i, i + 1, i + 1),
                      "induction step %d fails for %s" % (i, rendered))
            return False
    if shift_reduce(ring, c[n_top], n_top + 1, 0, w, field, ctx=ctx):
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


def verify_essential(ring=None, w=None, dt=None, du=None, mx=None, field=QQ,
                     ctx=None):
    ring = E1(2) if ring is None else ring
    eff = _win(8, 0, 12, dt, du, mx) if w is None else w
    ck = _Checks()
    ctx = Context.of(ctx)
    tmy = (GradedPoly.gen(ring, "t", field)
           - GradedPoly.gen(ring, "y", field))
    ker = kernel_of(ring, tmy, eff, field, ctx)
    ck.expect(ker.dim > 0, "kernel of (t - y) is nonzero (dim %d)" % ker.dim,
              "kernel is trivial at Dt=%d Mx=%d" % (eff.Dt, eff.Mx))
    x0t = (GradedPoly.gen(ring, ("x", 0), field)
           * GradedPoly.gen(ring, "t", field) ** (ring.m - 1))
    wit_vec = vectorize(x0t)
    ck.expect(ker.contains(wit_vec) and bool(wit_vec),
              "witness %s lies in the kernel" % print_element(x0t),
              "expected witness is not a kernel vector")
    const_ok = all(_no_constant(v) for v in ker.basis())
    ck.expect(const_ok, "every kernel basis vector has zero constant term",
              next((_render(ring, v, field) for v in ker.basis()
                    if not _no_constant(v)), ""))
    replayed = 0
    for k, v in enumerate(ker.basis()):
        if not _induction_replay(ring, v, eff, ck, field, "vector %d" % k,
                                 ctx):
            break
        replayed += 1
    if replayed == ker.dim:
        ck.note("induction equations (c0*y = 0, the %d downward steps, "
                "the top kill, and the top expansion) replayed on all %d "
                "kernel vectors" % (eff.Dt, ker.dim))
    touched = subspace_boundary_touch(ker)
    if not touched:
        ck.note("no kernel vector touches the window boundary")
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx, "m": ring.m,
              "kernel_dim": ker.dim}
    return ck.report("C-essential", ring.describe(), params,
                     [print_element(x0t)], inconclusive=touched,
                     inconclusive_why="kernel touches window boundary")


# -- C-kernel-I0

def verify_kernel_I0(w=None, dt=None, du=None, mx=None, field=QQ, ctx=None):
    eff = _win(6, 6, 10, dt, du, mx) if w is None else w
    ck = _Checks()
    tmy = GradedPoly.gen(E2, "t", field) - GradedPoly.gen(E2, "y", field)
    ker = kernel_of(E2, tmy, eff, field, ctx)
    ck.expect(ker.dim > 0, "kernel of (t - y) on E2 is nonzero (dim %d)"
              % ker.dim, "kernel is trivial")
    x0t = GradedPoly.gen(E2, ("x", 0), field) * GradedPoly.gen(E2, "t", field)
    ck.expect(ker.contains_poly(x0t), "witness x0*t lies in the kernel",
              "x0*t is not a kernel vector")
    const_ok = all(_no_constant(v) for v in ker.basis())
    ck.expect(const_ok,
              "every kernel basis vector has zero degree-(0,0) component",
              next((_render(E2, v, field) for v in ker.basis()
                    if not _no_constant(v)), ""))
    in_ideal = all(all(m[4] for m in v) for v in ker.basis())
    ck.expect(in_ideal, "every kernel basis vector lies in the x-generator "
              "ideal", "a kernel vector has an x-free monomial")
    touched = subspace_boundary_touch(ker)
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx,
              "kernel_dim": ker.dim}
    return ck.report("C-kernel-I0", E2.describe(), params,
                     [print_element(x0t)], inconclusive=touched,
                     inconclusive_why="kernel touches window boundary")


# -- C-bounded-E2

def verify_bounded_E2(w=None, dt=None, du=None, mx=None, k_exp=None, field=QQ,
                      ctx=None):
    eff = _win(6, 6, 10, dt, du, mx) if w is None else w
    ck = _Checks()
    ctx = Context.of(ctx)
    T = torsion_subspace(E2, eff, k_exp, field, ctx)
    keff = k_exp if k_exp is not None else eff.Dt + eff.Du + 2
    ck.expect(T.dim > 0, "torsion subspace is nonzero (dim %d)" % T.dim,
              "torsion subspace is trivial")
    for (sdt, sdu, name) in ((2, 0, "t^2"), (1, 1, "t*u"), (0, 2, "u^2")):
        bad = next((v for v in T.basis()
                    if shift_reduce(E2, v, sdt, sdu, eff, field, ctx=ctx)),
                   None)
        ck.expect(bad is None, "%s * T = 0 exactly" % name,
                  "" if bad is None else
                  "%s survives %s" % (_render(E2, bad, field), name))
    x0 = {mono_of_index(("x", 0)): field.one()}
    ck.expect(T.contains(x0)
              and not shift_reduce(E2, x0, 0, 1, eff, field, ctx=ctx),
              "x0 is torsion and u*x0 = 0", "x0 fails the torsion witness")
    one = {mono_of_index(("y", 0)): field.one()}
    ck.expect(not T.contains(one), "1 is not torsion", "1 reported torsion")
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx, "k": keff,
              "torsion_dim": T.dim}
    return ck.report("C-bounded-E2", E2.describe(), params, ["x0"])


# -- C-nwkpr

def verify_nwkpr(max_stage=8, w=None, dt=None, du=None, mx=None, field=QQ,
                 ctx=None):
    need = max_stage + 2
    eff = _win(need, need, max(12, need + 2), dt, du, mx) if w is None else w
    ck = _Checks()
    ctx = Context.of(ctx)
    sysH = SystemSpec(kind="H0(u;H1(t))")
    rep = pro_zero_test(E2, sysH, max_stage, eff, field, ctx)
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
            if not transition_witness_replay(E2, sysH, m, 2, eff, witv, field,
                                             ctx):
                chain_ok = False
                break
            wit_strs.append(_render(E2, witv, field))
    ck.expect(chain_ok,
              "witness chain x_(v-2) for v=3..%d, each image replayed nonzero"
              % max_stage, "witness chain broken")
    for i in range(2, max_stage - 1):
        ck.expect(ses_row_check(E2, i, eff, field, ctx),
                  "three-term row exact at stage %d" % i,
                  "row fails exactness at stage %d" % i)
    ctrl = pro_zero_test(CTRL, SystemSpec(kind="H1(t)"), max_stage,
                         Window(eff.Dt, 0, eff.Mx), field, ctx)
    ck.expect(ctrl.verdict == "pro-zero-up-to-window",
              "control: CTRL verdict pro-zero-up-to-window",
              "CTRL verdict was %s" % ctrl.verdict)
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx,
              "max_stage": max_stage}
    return ck.report("C-nwkpr", E2.describe(), params, wit_strs)


# -- C-gs-demo

def demo_gs(w=None, prec=8, dt=None, du=None, mx=None, field=QQ, ctx=None):
    eff = _win(8, 0, 16, dt, du, mx) if w is None else w
    n_ap = prec
    ck = _Checks()
    ctx = Context.of(ctx)
    tmy = GradedPoly.gen(GS, "t", field) - GradedPoly.gen(GS, "y", field)
    ker = kernel_of(GS, tmy, eff, field, ctx)
    ck.expect(ker.dim == 0, "kernel of (t - y) on the window is trivial",
              "kernel dim %d" % ker.dim)
    # backward-substitution ingredients, each recomputed
    anny = kernel_of(R_ONLY, GradedPoly.gen(R_ONLY, "y", field),
                     Window(0, 0, eff.Mx), field, ctx)
    x0 = {mono_of_index(("x", 0)): field.one()}
    ck.expect(anny.dim == 1 and anny.contains(x0),
              "Ann(y) in the coefficient ring is exactly k*x0",
              "Ann(y) has dim %d" % anny.dim)
    tinj = kernel_of(GS, GradedPoly.gen(GS, "t", field), eff, field, ctx)
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
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx, "n_approx": n_ap}
    return ck.report("C-gs-demo", GS.describe(), params, ["(trivial)"])


# -- C-approx-fail-E1 / C-approx-fail-E2

def demo_approx_failure(ring=None, n=2, w=None, prec=None,
                        dt=None, du=None, mx=None, field=QQ, ctx=None):
    ring = E1(2) if ring is None else ring
    if ring.variant == "E1":
        eff = _win(8, 0, 12, dt, du, mx) if w is None else w
        n_ap = 8 if prec is None else prec
        claim_id = "C-approx-fail-E1"
    else:
        eff = _win(6, 6, 10, dt, du, mx) if w is None else w
        n_ap = 6 if prec is None else prec
        claim_id = "C-approx-fail-E2"
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
    ker = system_kernel(ring, system, eff, field, ctx)
    ck.expect(ker.dim > 0,
              "windowed solution space is nonzero (dim %d)" % ker.dim,
              "system has no windowed solutions at all")
    const_ok = all(_no_constant(v) for v in ker.basis())
    ck.expect(const_ok,
              "every windowed solution has zero degree-(0,0) component",
              next((_render(ring, v, field) for v in ker.basis()
                    if not _no_constant(v)), ""))
    ck.expect(bool(ah.body.component(0, 0)),
              "formal solution has constant term x0 != 0",
              "formal solution lost its constant term")
    ck.note("approximation fails: no windowed solution is congruent to the "
            "formal solution in degree (0,0)")
    touched = subspace_boundary_touch(ker)
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx, "n": n,
              "n_approx": n_ap, "solution_dim": ker.dim}
    if ring.variant == "E1":
        params["m"] = ring.m
    return ck.report(claim_id, ring.describe(), params,
                     [print_element(ah.body)], inconclusive=touched,
                     inconclusive_why="solution space touches window boundary")


# -- C-xi-witness

def verify_xi_witnesses(n_max=6, w=None, dt=None, du=None, mx=None, field=QQ,
                        ctx=None):
    eff = _win(max(8, n_max + 2), 0, 12, dt, du, mx) if w is None else w
    ring = E1(2)
    ck = _Checks()
    ctx = Context.of(ctx)
    wit = []
    dims = []
    for n in range(1, n_max + 1):
        xi = {mono_of_index(("x", n - 1)): field.one()}
        alive = shift_reduce(ring, xi, n, 0, eff, field, ctx=ctx)
        dead = shift_reduce(ring, xi, n + 1, 0, eff, field, ctx=ctx)
        red_ok = bool(alive) and not dead
        ann_n = annihilator_oracle(ring, n, 0, eff, field, ctx)
        ann_n1 = annihilator_oracle(ring, n + 1, 0, eff, field, ctx)
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
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx, "n_max": n_max}
    return ck.report("C-xi-witness", ring.describe(), params, wit)


# -- C-remark-wpr

def verify_remark_wpr(w=None, max_stage=8, include_e1_variant=False,
                      dt=None, du=None, mx=None, field=QQ, ctx=None):
    need = max_stage + 2
    eff = _win(need, 0, max(12, need + 2), dt, du, mx) if w is None else w
    ck = _Checks()
    ctx = Context.of(ctx)
    sysT = SystemSpec(kind="H1(t)")
    rows = []

    def torsion_bounded(ring, power):
        T = torsion_subspace(ring, eff, eff.Mx + 2, field, ctx)
        if T.dim == 0:
            return "torsion-free"
        for v in T.basis():
            if shift_reduce(ring, v, power, 0, eff, field, ctx=ctx):
                return "unbounded-or-deeper"
        return "bounded(t^%d)" % power

    def chain_strict(ring):
        dims = [annihilator_oracle(ring, n, 0, eff, field, ctx).dim
                for n in range(1, eff.Dt + 1)]
        return all(b > a for a, b in zip(dims, dims[1:]))

    # E1(2): unbounded torsion AND not pro-zero
    rings = [E1(2)]
    if include_e1_variant:
        rings.append(E1(3))
    for ring in rings:
        unbounded = chain_strict(ring)
        verdict = pro_zero_test(ring, sysT, max_stage, eff, field,
                                ctx).verdict
        ok = unbounded and verdict == "NOT-pro-zero-witnessed"
        rows.append((ring.describe(), "unbounded-torsion", verdict))
        ck.expect(ok, "%s: unbounded torsion and NOT-pro-zero (consistent)"
                  % ring.describe(),
                  "%s row violates the correspondence" % ring.describe())

    bounded = torsion_bounded(CTRL, 2)
    verdict = pro_zero_test(CTRL, sysT, max_stage, eff, field, ctx).verdict
    rows.append((CTRL.describe(), bounded, verdict))
    ck.expect(bounded.startswith("bounded") and
              verdict == "pro-zero-up-to-window",
              "CTRL: bounded torsion (t^2) and pro-zero (consistent)",
              "CTRL row violates the correspondence")

    gs_t = torsion_subspace(GS, eff, eff.Mx + 2, field, ctx)
    verdict = pro_zero_test(GS, sysT, max_stage, eff, field, ctx).verdict
    rows.append((GS.describe(), "torsion-free", verdict))
    ck.expect(gs_t.dim == 0 and verdict == "pro-zero-up-to-window",
              "GS: torsion-free and pro-zero (consistent)",
              "GS row violates the correspondence")

    ck.note("instance table: " + "; ".join(
        "%s [%s, %s]" % r for r in rows))
    params = {"dt": eff.Dt, "du": eff.Du, "mx": eff.Mx,
              "max_stage": max_stage,
              "rows": len(rows)}
    return ck.report("C-remark-wpr", "R-family", params, [])


# -- dispatch

_DISPATCH = {
    "C-basis": lambda **kw: verify_basis(**kw),
    "C-ann-t": lambda **kw: verify_ann(**kw),
    "C-essential": lambda **kw: verify_essential(**kw),
    "C-ann-tu": lambda **kw: verify_ann_tu(**kw),
    "C-kernel-I0": lambda **kw: verify_kernel_I0(**kw),
    "C-bounded-E2": lambda **kw: verify_bounded_E2(**kw),
    "C-nwkpr": lambda **kw: verify_nwkpr(**kw),
    "C-gs-demo": lambda **kw: demo_gs(**kw),
    "C-approx-fail-E1": lambda **kw: demo_approx_failure(**kw),
    "C-approx-fail-E2": lambda **kw: demo_approx_failure(ring=E2, **kw),
    "C-xi-witness": lambda **kw: verify_xi_witnesses(**kw),
    "C-remark-wpr": lambda **kw: verify_remark_wpr(**kw),
}

_ACCEPTS = {
    "C-basis": {"dt", "du", "mx", "field"},
    "C-ann-t": {"dt", "du", "mx", "field", "ring"},
    "C-essential": {"dt", "du", "mx", "field", "ring"},
    "C-ann-tu": {"dt", "du", "mx", "field"},
    "C-kernel-I0": {"dt", "du", "mx", "field"},
    "C-bounded-E2": {"dt", "du", "mx", "field", "k_exp"},
    "C-nwkpr": {"dt", "du", "mx", "field", "max_stage"},
    "C-gs-demo": {"dt", "du", "mx", "field", "prec"},
    "C-approx-fail-E1": {"dt", "du", "mx", "field", "ring", "prec", "n"},
    "C-approx-fail-E2": {"dt", "du", "mx", "field", "prec", "n"},
    "C-xi-witness": {"dt", "du", "mx", "field", "n_max"},
    "C-remark-wpr": {"dt", "du", "mx", "field", "max_stage"},
}


def run_claim(claim_id, ctx=None, **kwargs):
    """Run one claim verifier with keyword overrides (None values dropped).

    A ring override must be an E1[m] ring: every claim that accepts one
    is a statement about E1[m], so any other ring is outside its scope.
    """
    if claim_id not in _DISPATCH:
        raise KeyError("unknown claim id %r" % claim_id)
    kw = {k: v for k, v in kwargs.items()
          if v is not None and k in _ACCEPTS[claim_id]}
    if "ring" in kw and kw["ring"].variant != "E1":
        raise RingError("claim %s is about E1[m]; ring %s is out of scope"
                        % (claim_id, kw["ring"].describe()))
    return _DISPATCH[claim_id](ctx=ctx, **kw)


def run_all(field=QQ, ctx=None, **kwargs):
    """Run every claim verifier in one context, reports in fixed order."""
    ctx = Context.of(ctx)
    return [run_claim(cid, ctx, field=field, **kwargs) for cid in CLAIM_IDS]


def suite_json(reports):
    """Deterministic suite document."""
    body = {"schema_version": SCHEMA_VERSION,
            "reports": [r.to_dict() for r in reports]}
    return json.dumps(body, sort_keys=True, indent=2)
