"""Claim verifiers: default verdicts, mutation flips, report discipline."""

import json

import pytest

from prozero.claims import (CLAIM_IDS, SCOPE_NOTE, demo_approx_failure,
                            run_all, run_claim, suite_json, verify_ann,
                            verify_essential)
from prozero.oracle import WindowError
from prozero.rings import E1, GS, RingError, RingId

MUTATED = RingId("E1", 2, frozenset({"n0"}))


@pytest.fixture(scope="module")
def suite():
    return run_all()


def test_all_claims_verified_at_defaults(suite):
    assert [r.claim_id for r in suite] == list(CLAIM_IDS)
    for r in suite:
        assert r.status == "verified", "%s: %s" % (r.claim_id, r.witnesses)


def test_report_shape(suite):
    for r in suite:
        d = r.to_dict()
        assert d["schema_version"] == "1"
        assert isinstance(d["params"], dict)
        assert isinstance(d["witnesses"], list)
        assert isinstance(d["inventory"], list)
        assert "timing_ms" not in d          # timing is opt-in
        assert d["notes"]


def test_scope_note_present(suite):
    # every verdict carries the window-scope caveat
    for r in suite:
        assert SCOPE_NOTE in r.notes


def test_suite_json_deterministic(suite):
    a = suite_json(suite)
    b = suite_json(run_all())
    assert a == b
    doc = json.loads(a)
    assert len(doc["reports"]) == len(CLAIM_IDS)


def test_witness_content(suite):
    by_id = {r.claim_id: r for r in suite}
    ess = by_id["C-essential"]
    assert any("x0*t" in w for w in ess.witnesses)
    ann = by_id["C-ann-t"]
    assert any("x0, x1" in w for w in ann.witnesses)
    xi = by_id["C-xi-witness"]
    assert any("x5" in w for w in xi.witnesses)
    nw = by_id["C-nwkpr"]
    assert nw.ring == "E2"
    wpr = by_id["C-remark-wpr"]
    assert wpr.ring == "R-family"


def test_mutation_flips_annihilator_claim():
    rep = verify_ann(ring=MUTATED)
    assert rep.status == "FALSIFIED"
    assert any(w.startswith("COUNTER:") for w in rep.witnesses)
    assert any("dt=2" in w for w in rep.witnesses)


def test_mutation_flips_essential_claim():
    rep = verify_essential(ring=MUTATED)
    assert rep.status == "FALSIFIED"
    assert any(w.startswith("COUNTER:") for w in rep.witnesses)


def test_unmutated_baseline_still_verifies():
    assert verify_ann(ring=E1(2)).status == "verified"
    assert verify_essential(ring=E1(2)).status == "verified"


def test_essential_variant_m3():
    rep = verify_essential(ring=E1(3))
    assert rep.status == "verified"
    assert any("x0*t^2" in w for w in rep.witnesses)


def test_approx_failure_variant_n3():
    rep = demo_approx_failure(ring=E1(3), n=3)
    assert rep.status == "verified"


def test_window_binding_rejects_small_windows():
    with pytest.raises(WindowError):
        verify_ann(ring=E1(2), w=None, dt=1)
    with pytest.raises(WindowError):
        verify_essential(ring=E1(2), dt=20, mx=12)   # margin violation


def test_run_claim_dispatch():
    rep = run_claim("C-basis")
    assert rep.claim_id == "C-basis"
    with pytest.raises(KeyError):
        run_claim("C-nope")
    # irrelevant overrides are dropped, None values ignored
    rep2 = run_claim("C-basis", dt=None, prec=99)
    assert rep2.status == "verified"
    # a ring outside the claim's E1[m] scope is refused, not run
    with pytest.raises(RingError, match="out of scope"):
        run_claim("C-essential", ring=GS)


def test_json_round_trip(suite):
    for r in suite:
        doc = json.loads(r.to_json())
        assert doc["claim_id"] == r.claim_id
        assert doc["status"] == r.status
