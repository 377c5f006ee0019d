"""Claim verifiers: default verdicts, mutation flips, report discipline."""

import ast
import gc
import json
import pathlib
import random
import re
import sys
import weakref

import pytest

from prozero import claims, koszul, oracle
from prozero.claims import (CLAIM_IDS, SCOPE_NOTE, render_vec, run_all,
                            run_claim, suite_doc)
from prozero.cli import _random_poly
from prozero.fields import QQ, field_from_spec
from prozero.oracle import Context, WindowError, vectorize
from prozero.parser import ParseError, print_element
from prozero.rings import CTRL, E1, E2, GS, R_ONLY, RingError, RingId

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


def _suite_json(reports):
    return json.dumps(suite_doc(reports), sort_keys=True, indent=2)


def test_suite_json_deterministic(suite):
    a = _suite_json(suite)
    b = _suite_json(run_all())
    assert a == b
    doc = json.loads(a)
    assert len(doc["reports"]) == len(CLAIM_IDS)


def test_cli_prints_the_suite_doc(suite, capsys):
    # `verify all` runs the same run_all and suite_doc as the tests
    from prozero.cli import main
    assert main(["verify", "all", "--format", "json"]) == 0
    assert capsys.readouterr().out == _suite_json(suite) + "\n"


def _count_annihilator_work(monkeypatch):
    """Record each annihilator_oracle call the claims make, and each
    annihilator the oracle computes (a call of its inner, unchecked
    kernel made from it)."""
    calls, computed = [], []
    real_ann, real_kernel = claims.annihilator_oracle, oracle._kernel_of

    def ann_spy(ring, dt, du, w, ctx):
        calls.append((ring, dt, du, w.Mx))
        return real_ann(ring, dt, du, w, ctx)

    def kernel_spy(*args):
        if sys._getframe(1).f_code is real_ann.__code__:
            computed.append(calls[-1])
        return real_kernel(*args)

    monkeypatch.setattr(claims, "annihilator_oracle", ann_spy)
    monkeypatch.setattr(oracle, "_kernel_of", kernel_spy)
    return calls, computed


def test_xi_witness_computes_each_annihilator_once(monkeypatch):
    _, computed = _count_annihilator_work(monkeypatch)
    assert run_claim("C-xi-witness").status == "verified"
    assert [key[:3] for key in computed] == [(E1(2), n, 0)
                                             for n in range(1, 8)]


def test_verify_all_computes_each_annihilator_once(suite, monkeypatch):
    # the run's Context hands a repeated annihilator back, so C-remark-wpr
    # reuses C-ann-t's chain and C-ann-t its own Ann(t^3); an annihilator
    # is keyed by the Mx it is computed at, so C-xi-witness's Ann(t^1..7)
    # on the (8, 0, 12) window are C-ann-t's on (10, 0, 12)
    calls, computed = _count_annihilator_work(monkeypatch)
    ctx = Context()
    reports = run_all(ctx=ctx)
    assert _suite_json(reports) == _suite_json(suite)
    assert len(computed) == len(set(calls)) == len(ctx.annihilators) == 50
    assert len(calls) > len(computed)
    assert sorted(map(repr, computed)) == sorted(map(repr, set(calls)))


def test_verify_all_checks_each_window_where_it_is_taken(suite, monkeypatch):
    # the window gate runs at the entry points, never inside a builder
    # whose caller checked the window: not in window_basis, mul_map or
    # the annihilator's inner kernel. 154 checks, one per window an entry
    # point takes: 73 annihilator_oracle calls, 14 kernel_of maps, 64
    # Koszul stages (35 pro-zero, 12 replay, 5 row checks, and C-nwkpr's
    # 7 search and 5 row stages checked again before its search runs),
    # C-basis's basis and pair spans, and C-xi-witness's t^7
    depth, checks = [0], []
    real_check = oracle.check_window

    def check_spy(*args):
        checks.append(depth[0])
        return real_check(*args)

    def builder_spy(real):
        def spy(*args, **kwargs):
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return spy

    for module in (oracle, koszul, claims):
        monkeypatch.setattr(module, "check_window", check_spy)
    for name in ("window_basis", "mul_map", "_kernel_of"):
        spy = builder_spy(getattr(oracle, name))
        for module in (oracle, claims):
            if name in vars(module):
                monkeypatch.setattr(module, name, spy)
    assert _suite_json(run_all()) == _suite_json(suite)
    assert not any(checks)
    assert len(checks) == 154


def test_run_all_scopes_spans_to_the_claim_that_builds_them(suite,
                                                             monkeypatch):
    # C-basis's two-x span of R's (0, 0) slice is gone once the run moves
    # on, while C-remark-wpr still reads C-nwkpr's CTRL stage modules from
    # the run's context
    real_span, real_claim = oracle.slice_span, claims.run_claim
    real_stage = koszul._stage_slice
    pair_spans, alive_at, ctrl_reads, running, from_nwkpr = [], {}, [], [], {}

    def span_spy(ring, dt, du, ycap, xcap, pairs=False, ctx=None):
        ech = real_span(ring, dt, du, ycap, xcap, pairs, ctx)
        if (ring, dt, du, ycap, xcap, pairs) == (R_ONLY, 0, 0, 14, 26, True):
            pair_spans.append(weakref.ref(ech))
        return ech

    def stage_spy(ring, kind, i, w, deg, ctx):
        mod = real_stage(ring, kind, i, w, deg, ctx)
        key = (ring, kind, i, w, deg)
        if running[-1] == "C-remark-wpr" and key in from_nwkpr:
            ctrl_reads.append(mod is from_nwkpr[key])
        return mod

    def live():
        gc.collect()
        return len({id(ref) for ref in pair_spans if ref() is not None})

    def claim_spy(cid, ctx=None, **kwargs):
        alive_at[cid] = live()
        running.append(cid)
        rep = real_claim(cid, ctx=ctx, **kwargs)
        if cid == "C-basis":
            alive_at["C-basis end"] = live()
        if cid == "C-nwkpr":
            from_nwkpr.update((key, mod) for key, mod in ctx.stages.items()
                              if key[0] == CTRL)
        return rep

    monkeypatch.setattr(oracle, "slice_span", span_spy)
    monkeypatch.setattr(koszul, "_stage_slice", stage_spy)
    monkeypatch.setattr(claims, "run_claim", claim_spy)
    assert _suite_json(run_all(ctx=Context())) == _suite_json(suite)
    # one span, read by every C-basis reduction, and dropped before the
    # next claim starts
    assert len(pair_spans) == 104 and len(set(map(id, pair_spans))) == 1
    assert alive_at["C-basis end"] == 1 and alive_at[CLAIM_IDS[1]] == 0
    # one read per source slice the CTRL search reaches and per target
    # slice a non-empty source maps into
    assert from_nwkpr and len(ctrl_reads) == 47 and all(ctrl_reads)


def test_caps_too_small_never_falsify(monkeypatch):
    # with every product cap 3 short, C-basis reported FALSIFIED with
    # "COUNTER: x11*x12 has nonzero normal form", a false proof: the
    # product climbed past the x-cap and came back unreduced. A product
    # whose reduction reaches past its caps is now refused, so no claim
    # reports FALSIFIED; each raises or verifies
    real = oracle.product_caps

    def short(w, g=()):
        ycap, xcap, pairs = real(w, g)
        return ycap - 3, xcap - 3, pairs

    for module in (oracle, claims, koszul):
        monkeypatch.setattr(module, "product_caps", short)
    refused = []
    for cid in CLAIM_IDS:
        try:
            status = run_claim(cid).status
        except WindowError as e:
            assert "reaches past the caps" in str(e)
            refused.append(cid)
        else:
            assert status != "FALSIFIED", cid
    assert "C-basis" in refused


def test_mutation_does_not_leak_through_a_shared_context():
    # the mutated ring's spans and annihilators are its own: a verdict
    # before and after it in the same context is unchanged
    ctx = Context()
    assert run_claim("C-ann-t", ctx=ctx, ring=E1(2)).status == "verified"
    rep = run_claim("C-ann-t", ctx=ctx, ring=MUTATED)
    assert rep.status == "FALSIFIED"
    assert any(w.startswith("COUNTER:") for w in rep.witnesses)
    assert run_claim("C-ann-t", ctx=ctx, ring=E1(2)).status == "verified"


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
    rep = run_claim("C-ann-t", ring=MUTATED)
    assert rep.status == "FALSIFIED"
    assert any(w.startswith("COUNTER:") for w in rep.witnesses)
    assert any("dt=2" in w for w in rep.witnesses)


def test_render_vec_keeps_the_terms_the_oracle_found():
    # omitting n0 revives x0*t^2 in the oracle while the closed-form rule
    # still kills it: a counter-witness prints every term the oracle kept
    x0t, x0t2 = (1, 0, 1, 0, (0,)), (2, 0, 1, 0, (0,))
    assert render_vec(MUTATED, {x0t: 1, x0t2: 1}, QQ) == "x0*t + x0*t^2"
    assert render_vec(MUTATED, {x0t2: 1}, QQ) == "x0*t^2"
    assert render_vec(MUTATED, {}, QQ) == "0"


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_render_vec_prints_as_print_element(spec):
    # on the unmutated rings a vector prints as the element it comes from,
    # for the polynomials selftest draws
    field = field_from_spec(spec)
    rng = random.Random(61)
    for ring in (R_ONLY, GS, E1(2), E1(3), E2, CTRL):
        for _ in range(200):
            p = _random_poly(rng, ring, field)
            assert render_vec(ring, vectorize(p), field) == print_element(p)


def test_mutation_flips_essential_claim():
    rep = run_claim("C-essential", ring=MUTATED)
    assert rep.status == "FALSIFIED"
    assert any(w.startswith("COUNTER:") for w in rep.witnesses)


def test_unmutated_baseline_still_verifies():
    assert run_claim("C-ann-t", ring=E1(2)).status == "verified"
    assert run_claim("C-essential", ring=E1(2)).status == "verified"


def test_essential_variant_m3():
    rep = run_claim("C-essential", ring=E1(3))
    assert rep.status == "verified"
    assert any("x0*t^2" in w for w in rep.witnesses)


def test_approx_failure_variant_n3():
    rep = run_claim("C-approx-fail-E1", ring=E1(3), n=3)
    assert rep.status == "verified"


def test_window_binding_rejects_small_windows():
    with pytest.raises(WindowError):
        run_claim("C-ann-t", ring=E1(2), dt=1)
    with pytest.raises(WindowError):
        run_claim("C-essential", ring=E1(2), dt=20, mx=12)   # margin violation


def test_run_claim_dispatch():
    rep = run_claim("C-basis")
    assert rep.claim_id == "C-basis"
    with pytest.raises(KeyError):
        run_claim("C-nope")
    # None values are ignored; a parameter the claim does not take is
    # refused, naming its command-line flag
    rep2 = run_claim("C-basis", dt=None, prec=None)
    assert rep2.status == "verified"
    with pytest.raises(ParseError, match="--prec is not accepted"):
        run_claim("C-basis", dt=None, prec=99)
    # a ring outside the claim's E1[m] scope is refused, not run
    with pytest.raises(RingError, match="out of scope"):
        run_claim("C-essential", ring=GS)


def test_json_round_trip(suite):
    for r in suite:
        doc = json.loads(json.dumps(r.to_dict(), sort_keys=True, indent=2))
        assert doc["claim_id"] == r.claim_id
        assert doc["status"] == r.status


# -- one list of claims: the table in claims.py

SRC = pathlib.Path(claims.__file__).parent
README = SRC.parents[1] / "README.md"


def test_schema_enum_is_the_table():
    schema = json.loads((SRC / "report_schema.json").read_text())
    enum = schema["definitions"]["report"]["properties"]["claim_id"]["enum"]
    assert tuple(enum) == CLAIM_IDS


def test_readme_catalogue_is_the_table():
    text = README.read_text()
    section = text.split("## Claim catalogue", 1)[1].split("\n## ", 1)[0]
    ids = re.findall(r"^\| `(C-[\w-]+)` \|", section, re.M)
    assert tuple(ids) == CLAIM_IDS


def claim_id_literals(sources):
    """(module, literal) for every string constant shaped like a claim id."""
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"C-[\w-]+", node.value)):
                found.append((module, node.value))
    return found


def package_sources():
    return {p.stem: p.read_text() for p in SRC.glob("*.py")}


def test_claim_ids_are_written_once():
    assert sorted(claim_id_literals(package_sources())) == \
        sorted(("claims", cid) for cid in CLAIM_IDS)


def test_check_sees_a_second_claim_id():
    sources = package_sources()
    sources["cli"] += '\nDEFAULT_CLAIM = "C-nwkpr"\n'
    assert ("cli", "C-nwkpr") in claim_id_literals(sources)
