"""Acceptance gate: one test per shipping criterion, one verdict line each.

Each criterion is a separate test named by its number, so a verbose run
prints exactly one pass/fail line per criterion; the body also prints an
explicit verdict line for captured-output readers.
"""

import json
import random
import time

import pytest

from prozero.claims import CLAIM_IDS, run_all, run_claim, suite_doc
from prozero.cli import _random_poly, _raw_product
from prozero.fields import QQ
from prozero.koszul import pro_zero_test, ses_row_check, transition_zero
from prozero.oracle import (Context, Window, system_kernel, torsion_subspace,
                            vectorize)
from prozero.parser import parse_element, print_element
from prozero.rings import (CTRL, E1, E2, GS, R_ONLY, GradedPoly, RingId,
                           SystemSpec, alpha_hat, apply_system)

from bridge import poly_of_vec

SUITE_BUDGET_SECONDS = 60.0


def _ok(n, text):
    print("criterion %02d PASS: %s" % (n, text))


def _gen(ring, name):
    return GradedPoly.gen(ring, name)


@pytest.fixture(scope="module")
def golden_suite():
    t0 = time.perf_counter()
    reports = run_all()
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_01_full_suite_verified_fast_deterministic(golden_suite):
    reports, elapsed = golden_suite
    assert elapsed < SUITE_BUDGET_SECONDS, "suite took %.1fs" % elapsed
    assert [r.claim_id for r in reports] == list(CLAIM_IDS)
    assert all(r.status == "verified" for r in reports)
    again = run_all()
    assert json.dumps(suite_doc(reports), sort_keys=True) == \
        json.dumps(suite_doc(again), sort_keys=True)
    _ok(1, "all %d claims verified in %.1fs, repeat run byte-identical"
        % (len(reports), elapsed))


def test_criterion_02_annihilator_tables_match_formula(golden_suite):
    reports, _ = golden_suite
    by_id = {r.claim_id: r for r in reports}
    assert by_id["C-ann-t"].status == "verified"
    assert by_id["C-ann-tu"].status == "verified"
    # direct spot table on top of the claim verdicts
    from prozero.oracle import annihilator_oracle
    from prozero.rings import ann_formula
    ctx = Context()
    w1 = Window(10, 0, 12)
    for dt in range(11):
        assert annihilator_oracle(E1(2), dt, 0, w1, ctx=ctx).dim == \
            len(ann_formula(E1(2), dt, 0))
    w2 = Window(8, 3, 12)
    for dt in range(9):
        for du in range(4):
            assert annihilator_oracle(E2, dt, du, w2, ctx=ctx).dim == \
                len(ann_formula(E2, dt, du))
    _ok(2, "annihilator tables match the closed formulas on both rings")


def test_criterion_03_approximation_kernel_structure():
    w = Window(8, 0, 12)
    ker = system_kernel(E1(2), SystemSpec("f", 2), w)
    assert ker.dim > 0
    x0t = _gen(E1(2), ("x", 0)) * _gen(E1(2), "t")
    assert ker.contains(vectorize(x0t))
    for v in ker.basis():
        p = poly_of_vec(E1(2), v)
        assert not p.component(0, 0)              # zero constant term
        for m in v:                                # clean interior
            assert m[3] < w.Mx and (not m[4] or m[4][-1] < w.Mx)
    _ok(3, "windowed solution kernel is nonzero, contains x0*t, has zero "
           "constant terms and sits clear of the coefficient boundary")


def test_criterion_04_formal_solution_vs_windowed_solutions():
    # truncated formal solution solves the system...
    for ring, n in ((E1(2), 2), (E2, 2)):
        ah = alpha_hat(ring, 8)
        res = dict(apply_system(SystemSpec("f", n), ah))
        assert res["f1"].is_zero()                 # windowed
        assert (_gen(ring, "t") ** n * ah.body).is_zero()   # exact
        if ring.has_u:
            assert (_gen(ring, "u") * ah.body).is_zero()
        # ...but no windowed solution has its constant term
        w = Window(8, 0, 12) if not ring.has_u else Window(6, 6, 10)
        ker = system_kernel(ring, SystemSpec("f", n), w)
        assert bool(ah.body.component(0, 0))
        for v in ker.basis():
            assert not poly_of_vec(ring, v).component(0, 0)
    _ok(4, "formal solution satisfies the system yet no windowed solution "
           "matches it in degree zero, on both truncated rings")


def test_criterion_05_annihilator_chain_witnesses(golden_suite):
    reports, _ = golden_suite
    rep = {r.claim_id: r for r in reports}["C-xi-witness"]
    assert rep.status == "verified"
    for n in range(1, 7):
        assert any(("x%d" % (n - 1)) in w for w in rep.witnesses)
    # closed form: y^n kills x_(n-1) but y^(n-1) does not
    y = _gen(R_ONLY, "y")
    for n in range(1, 7):
        xi = _gen(R_ONLY, ("x", n - 1))
        assert (y ** n * xi).is_zero()
        assert y ** (n - 1) * xi == _gen(R_ONLY, ("x", 0))
    _ok(5, "chain witnesses x_(n-1) for n=1..6 agree between the oracle "
           "and the closed form")


def test_criterion_06_torsion_bounded():
    T = torsion_subspace(E2, Window(6, 6, 10))
    assert T.dim > 0
    t = _gen(E2, "t")
    u = _gen(E2, "u")
    for v in T.basis():
        p = poly_of_vec(E2, v)
        assert (t * t * p).is_zero()
        assert (t * u * p).is_zero()
        assert (u * u * p).is_zero()
    _ok(6, "every torsion element dies under t^2, t*u and u^2 at the "
           "default window")


def test_criterion_07_not_pro_zero_with_witnesses(golden_suite):
    reports, _ = golden_suite
    rep = {r.claim_id: r for r in reports}["C-nwkpr"]
    assert rep.status == "verified"
    assert rep.witnesses == ["x%d" % (v - 2) for v in range(3, 9)]
    assert any("NOT-pro-zero-witnessed" in line for line in rep.inventory)
    for i in (2, 3, 4, 5, 6):
        assert any(("row exact at stage %d" % i) in line
                   for line in rep.inventory)
    _ok(7, "inverse system is witnessed non-pro-zero with x_(v-2) for "
           "v=3..8 and exact three-term rows at stages 2..6")


def test_criterion_08_control_rings_behave(golden_suite):
    reports, _ = golden_suite
    rep = {r.claim_id: r for r in reports}["C-remark-wpr"]
    assert rep.status == "verified"
    assert any("instance table" in line for line in rep.inventory)
    assert not any("inconsistent" in line for line in rep.inventory)
    # GS: the windowed system has only the zero solution
    assert system_kernel(GS, SystemSpec("f", 2), Window(8, 0, 16)).dim == 0
    # CTRL: pro-zero with transition gap exactly 2
    ctrl = pro_zero_test(CTRL, SystemSpec("H1(t)"), 8, Window(10, 0, 12))
    assert ctrl.verdict == "pro-zero-up-to-window"
    gaps = [r.least_zero_m - r.n for r in ctrl.rows if r.least_zero_m]
    assert gaps and all(g == 2 for g in gaps)
    assert not transition_zero(CTRL, 3, 2, Window(9, 0, 12))[0]
    _ok(8, "GS admits only the zero windowed solution and CTRL is "
           "pro-zero with gap exactly 2")


def test_criterion_09_dual_implementation_fuzz():
    rng = random.Random(0)
    rings = [R_ONLY, GS, E1(2), E1(3), E2, CTRL]
    ctx = Context()
    products = 0
    for ring in rings:
        for _ in range(500):
            p = _random_poly(rng, ring, QQ)
            q = _random_poly(rng, ring, QQ)
            assert vectorize(p * q) == _raw_product(ring, p, q, QQ, ctx), \
                "closed form and raw elimination disagree on %s * %s" \
                % (print_element(p), print_element(q))
            products += 1
    trips = 0
    for ring in rings:
        for _ in range(170):
            p = _random_poly(rng, ring, QQ)
            assert parse_element(print_element(p), ring) == p
            trips += 1
    assert products >= 3000 and trips >= 1000
    _ok(9, "%d dual-implementation products and %d print/parse round "
           "trips agree" % (products, trips))


def test_criterion_10_mutation_flips_a_claim():
    mutated = RingId("E1", 2, frozenset({"n0"}))
    flipped = [r for r in (run_claim("C-ann-t", ring=mutated),
                           run_claim("C-essential", ring=mutated))
               if r.status == "FALSIFIED"]
    assert flipped, "dropping the first truncation relator must falsify " \
                    "at least one claim"
    for r in flipped:
        assert any(w.startswith("COUNTER:") for w in r.witnesses)
    # sanity: the unmutated ring still verifies
    assert run_claim("C-ann-t", ring=E1(2)).status == "verified"
    _ok(10, "omitting the x0*t^2 relator falsifies %d claim(s) with "
            "explicit counter-witnesses" % len(flipped))
