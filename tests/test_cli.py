"""Command-line interface: exit codes, golden output, report schema."""

import hashlib
import json
import pathlib
import time

import jsonschema
import pytest

import prozero.claims as claims
import prozero.cli as cli
import prozero.oracle as oracle
from prozero.claims import ClaimReport
from prozero.fields import QQ, PrimeField
from prozero.linalg import Echelon
from prozero.oracle import Context

SCHEMA = json.loads(
    (pathlib.Path(cli.__file__).parent / "report_schema.json").read_text())


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:        # argparse usage failures
        return e.code


def test_eval_golden(capsys):
    assert run_cli(["eval", "--ring", "E1", "x0*t^2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_cli(["eval", "--ring", "R", "y^2 * x5"]) == 0
    assert capsys.readouterr().out.strip() == "x3"
    assert run_cli(["eval", "--ring", "GS", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_annihilator_golden(capsys):
    assert run_cli(["annihilator", "--ring", "E1", "--dt", "3"]) == 0
    assert capsys.readouterr().out.strip() == "x0, x1"
    assert run_cli(["annihilator", "--ring", "E2", "--dt", "0", "--du", "1"]) == 0
    assert capsys.readouterr().out.strip() == "x0"


@pytest.mark.parametrize("argv", [
    ["annihilator", "--ring", "E1", "--dt", "-1"],
    ["annihilator", "--ring", "E2", "--dt", "0", "--du", "-1"],
])
def test_negative_shift_is_usage_error(argv, capsys):
    assert run_cli(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("prozero: shift degree must be >= 0")
    assert captured.err.count("\n") == 1


def test_kernel_golden(capsys):
    assert run_cli(["kernel", "--ring", "GS", "t - y"]) == 0
    assert capsys.readouterr().out.strip() == "(trivial)"
    assert run_cli(["kernel", "--ring", "E1", "t - y", "t^2"]) == 0
    out = capsys.readouterr().out
    assert "x0*t" in out


def test_verify_single_claim(capsys):
    assert run_cli(["verify", "C-essential", "--dt", "8", "--mx", "12"]) == 0
    out = capsys.readouterr().out
    assert "C-essential" in out and "verified" in out


def test_verify_rejects_small_window(capsys):
    assert run_cli(["verify", "C-ann-t", "--dt", "1"]) == 65
    err = capsys.readouterr().err
    assert "window-too-small" in err
    assert run_cli(["verify", "C-essential", "--dt", "20", "--mx", "12"]) == 65


def test_usage_errors(capsys):
    assert run_cli(["verify", "C-nope"]) == 64
    capsys.readouterr()
    assert run_cli(["eval", "--ring", "E1", "x0t"]) == 64
    err = capsys.readouterr().err
    assert "offset 2" in err
    assert run_cli(["verify"]) == 64
    capsys.readouterr()
    assert run_cli([]) == 64
    capsys.readouterr()
    assert run_cli(["eval", "--ring", "E9", "x0"]) == 64
    capsys.readouterr()
    assert run_cli(["verify", "C-basis", "--field", "fp:6"]) == 64
    capsys.readouterr()
    assert run_cli(["verify", "C-basis", "--ring", "E1"]) == 64
    err = capsys.readouterr().err
    assert "--ring" in err


@pytest.mark.parametrize("argv, kind", [
    (["eval", "x²"], "parse error"),
    (["eval", "--field", "fp:³", "x0"], "invalid field"),
    (["eval", "--ring", "E1[m=²]", "x0"], "parse error"),
    (["prozero", "--ring", "E1", "--system", "f[n=²]"], "parse error"),
])
def test_non_ascii_digits_are_usage_errors(argv, kind, capsys):
    # str.isdigit accepts "²" and "³", which int() rejects
    assert run_cli(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("prozero: %s:" % kind)
    assert err.count("\n") == 1


@pytest.mark.parametrize("expr", [
    "x0^10000000",                 # hung before the cap
    "x0^1001",
    "x0^" + "9" * 5000,            # more digits than int() converts
])
def test_exponent_over_cap_is_usage_error(expr, capsys):
    assert run_cli(["eval", "--ring", "GS", expr]) == 64
    err = capsys.readouterr().err
    assert err.startswith("prozero: parse error:")
    assert "(at offset 3)" in err
    assert err.count("\n") == 1


def test_eval_power_at_cap(capsys):
    assert run_cli(["eval", "--ring", "GS", "x0^1000", "t^1000"]) == 0
    assert capsys.readouterr().out.split("\n")[:2] == ["0", "t^1000"]


def test_out_write_failure_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run_cli(["eval", "--out", str(target), "x0"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("prozero: cannot write %s:" % target)
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("argv", [["--count", "-5"], ["--round-trips", "-1"],
                                  ["--count", "100001"],
                                  ["--count", "0", "--round-trips",
                                   "1000000000000"]])
def test_selftest_rejects_negative_counts(argv, capsys):
    assert run_cli(["selftest"] + argv) == 64
    captured = capsys.readouterr()
    assert "selftest passed" not in captured.out
    assert captured.err.startswith("prozero: parse error:")
    assert argv[0] in captured.err


def _summed_random_poly(rng, ring, field):
    """The selftest generator as it was: a GradedPoly sum of monomials."""
    from prozero.rings import GradedPoly
    terms = GradedPoly.zero(ring, field)
    for _ in range(rng.randint(1, 4)):
        c = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        dt = rng.randint(0, 3) if ring.has_t else 0
        du = rng.randint(0, 2) if ring.has_u else 0
        if ring.variant == "CTRL":
            idx = ("x", rng.randint(1, 4)) if rng.random() < 0.7 else ("y", 0)
        else:
            idx = (("x", rng.randint(0, 6)) if rng.random() < 0.5
                   else ("y", rng.randint(0, 3)))
        terms = terms + GradedPoly.monomial(ring, c, idx, dt, du, field)
    return terms


@pytest.mark.parametrize("spec", ["q", "fp:32003", "fp:2"])
def test_random_poly_is_the_summed_generator(spec):
    # same draws, same element, same rng state after (term order is not
    # kept, and print_element sorts the terms)
    import random
    from prozero.fields import field_from_spec
    from prozero.rings import CTRL, E1, E2, GS, R_ONLY
    field = field_from_spec(spec)
    for seed in range(5):
        new, old = random.Random(seed), random.Random(seed)
        for ring in (R_ONLY, GS, E1(2), E1(3), E2, CTRL):
            for _ in range(300):
                p = cli._random_poly(new, ring, field)
                q = _summed_random_poly(old, ring, field)
                assert p == q
            assert new.getstate() == old.getstate()


def test_verify_falsified_and_inconclusive_codes(monkeypatch, capsys):
    # the status -> exit code mapping, driven through stub reports
    def fake(claim_id, **kw):
        return ClaimReport(claim_id, "E1[m=2]", {}, fake.status, [], [])
    monkeypatch.setattr(claims, "run_claim", fake)
    fake.status = "FALSIFIED"
    assert run_cli(["verify", "C-ann-t"]) == 2
    assert "FALSIFIED" in capsys.readouterr().out
    fake.status = "inconclusive-window"
    assert run_cli(["verify", "C-ann-t"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_json_reports_validate(capsys):
    assert run_cli(["verify", "C-basis", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["claim_id"] == "C-basis"
    assert run_cli(["verify", "C-xi-witness", "--format", "json"]) == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)


# sha256 of stdout: the byte-identical gate of every change to the engine
GATES = [
    (["verify", "all", "--format", "json"],
     "f06a2b05fce1456f4ee0b3905bf7d0dc0e0b739e0f74e06219debe1b05757f4c"),
    (["verify", "C-kernel-I0", "--mx", "50", "--field", "fp:32003",
      "--format", "json"],
     "bcfb941370d46e33e590e4eb11919cdf48b9125e05be282d1605dcee67bd4a5e"),
    (["verify", "C-nwkpr", "--max-stage", "12", "--mx", "16",
      "--format", "json"],
     "d3d966a002b0be2832f1646899219063d1609e8725c4d71533670d8884291db3"),
]


@pytest.mark.parametrize("argv, digest", GATES,
                         ids=["all", "kernel-wide", "nwkpr-deep"])
def test_gate_reports_are_byte_identical(argv, digest, capsys):
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_deterministic(capsys):
    assert run_cli(["verify", "C-basis", "--format", "json"]) == 0
    a = capsys.readouterr().out
    assert run_cli(["verify", "C-basis", "--format", "json"]) == 0
    b = capsys.readouterr().out
    assert a == b


def test_timing_opt_in(capsys):
    assert run_cli(["verify", "C-basis", "--format", "json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert "timing_ms" not in plain
    assert run_cli(["verify", "C-basis", "--format", "json", "--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert isinstance(timed["timing_ms"], (int, float))
    jsonschema.validate(timed, SCHEMA)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run_cli(["verify", "C-basis", "--format", "json",
                    "--out", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, SCHEMA)


def test_prozero_command(capsys):
    assert run_cli(["prozero", "--ring", "E2", "--system", "H0(u;H1(t))",
                    "--max-stage", "6"]) == 0
    out = capsys.readouterr().out
    assert "NOT-pro-zero-witnessed" in out
    assert "stage" in out
    assert run_cli(["prozero", "--ring", "CTRL", "--system", "H1(t)",
                    "--max-stage", "6"]) == 0
    out = capsys.readouterr().out
    assert "pro-zero-up-to-window" in out
    assert "gap 2" in out


def test_prozero_json(capsys):
    assert run_cli(["prozero", "--ring", "GS", "--system", "H1(t)",
                    "--max-stage", "5", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pro-zero-up-to-window"
    assert all(r["least_zero_m"] == r["n"] + 1 for r in doc["rows"]
               if not r["window_limited"])


def test_selftest_small(capsys):
    assert run_cli(["selftest", "--seed", "3", "--count", "20",
                    "--round-trips", "40"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out


def test_eval_prime_field(capsys):
    assert run_cli(["eval", "--ring", "GS", "--field", "fp:5",
                    "3*x1 + 2*x1"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_remark_wpr_window_grows_with_max_stage(capsys):
    # the default Mx follows the stage count, as in `prozero prozero`
    assert run_cli(["verify", "C-remark-wpr", "--max-stage", "10",
                    "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "verified"
    assert (doc["params"]["dt"], doc["params"]["mx"]) == (12, 14)


@pytest.mark.parametrize("argv, key, window", [
    # an unset --mx is raised to max(Dt, Du) + 2: each exited 65 blaming
    # an Mx the user never set
    (["kernel", "--ring", "E1", "--dt", "12", "t"], "window", (12, 0, 14)),
    (["kernel", "--ring", "E2", "--du", "11", "u"], "window", (8, 11, 13)),
    (["verify", "C-ann-t", "--dt", "12"], "params", (12, 0, 14)),
    (["verify", "C-kernel-I0", "--du", "9"], "params", (6, 9, 11)),
    (["verify", "C-nwkpr", "--dt", "11"], "params", (11, 10, 13)),
    # default windows
    (["kernel", "--ring", "E2", "t"], "window", (8, 8, 12)),
    (["annihilator", "--ring", "E2"], "window", (8, 3, 12)),
    (["prozero", "--ring", "E2", "--system", "H0(u;H1(t))"], "window",
     (10, 10, 12)),
])
def test_unset_mx_is_the_default_raised_to_the_margin(argv, key, window,
                                                      capsys):
    assert run_cli(argv + ["--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)[key]
    assert (got["dt"], got["du"], got["mx"]) == window


@pytest.mark.parametrize("argv, code, window, out", [
    # a given --mx caps annihilator's window floors (Dt 8, Du 3) at Mx - 2:
    # each exited 65 naming Dt=8, a value never set
    (["--ring", "E1", "--dt", "2", "--mx", "4"], 0, (2, 0, 4), "x0"),
    (["--ring", "E2", "--dt", "3", "--du", "1", "--mx", "5"], 0, (3, 3, 5),
     "x0, x1, x2, x3"),
    # the floor never goes below the target degree, so a given Mx too
    # small for the target is still refused, naming the target's Dt
    (["--ring", "E1", "--dt", "2", "--mx", "3"], 65, None, "Dt=2 Du=0 Mx=3"),
    # the same answers at the default window, which a given --mx at the
    # default does not change
    (["--ring", "E1", "--dt", "2"], 0, (8, 0, 12), "x0"),
    (["--ring", "E2", "--dt", "3", "--du", "1"], 0, (8, 3, 12),
     "x0, x1, x2, x3"),
    (["--ring", "E2", "--dt", "3", "--du", "1", "--mx", "12"], 0, (8, 3, 12),
     "x0, x1, x2, x3"),
])
def test_given_mx_caps_the_annihilator_window_floor(argv, code, window, out,
                                                    capsys):
    assert run_cli(["annihilator"] + argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("prozero: window-too-small:")
        assert captured.err.rstrip().endswith(out)
        return
    assert captured.out.strip() == out
    assert run_cli(["annihilator"] + argv + ["--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["window"]
    assert (got["dt"], got["du"], got["mx"]) == window


def _one_line_usage_error(argv, capsys, kind):
    t0 = time.perf_counter()
    assert run_cli(argv) == 64
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("prozero: %s:" % kind)
    assert captured.err.count("\n") == 1


BIG = "9" * 5000      # more digits than int() converts


@pytest.mark.parametrize("argv, kind", [
    (["eval", "--ring", "E1[m=%s]" % BIG, "x0"], "parse error"),
    (["prozero", "--ring", "E1", "--system", "f[n=%s]" % BIG], "parse error"),
    (["eval", "--field", "fp:" + BIG, "x0"], "invalid field"),
    (["eval", "--field", "fp:" + "7" * 401, "x0"], "invalid field"),
    (["eval", "--field", "fp:%d" % (2 ** 64 + 13), "x0"], "invalid field"),
])
def test_oversized_specs_are_usage_errors(argv, kind, capsys):
    _one_line_usage_error(argv, capsys, kind)


def test_large_prime_field_is_fast(capsys):
    # primality used trial division and hung on this modulus
    t0 = time.perf_counter()
    assert run_cli(["eval", "--ring", "GS", "--field",
                    "fp:1000000000000000003", "3*x1 - 5*x1"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out.strip() == "1000000000000000001*x1"


@pytest.mark.parametrize("claim, ring", [
    ("C-essential", "GS"),          # was FALSIFIED (exit 2)
    ("C-approx-fail-E1", "E2"),     # was an E2 computation (exit 0)
    ("C-ann-t", "E2"),              # was a C-ann-tu report
])
def test_ring_outside_claim_scope_is_usage_error(claim, ring, capsys):
    _one_line_usage_error(["verify", claim, "--ring", ring], capsys,
                          "invalid parameter")


@pytest.mark.parametrize("argv, code, out", [
    (["kernel", "--ring", "R", "y"], 0, "x0\n"),
    (["annihilator", "--ring", "R", "--dt", "0"], 0, "(trivial)\n"),
    (["annihilator", "--ring", "R"], 0, "(trivial)\n"),
    (["prozero", "--ring", "R", "--system", "H1(t)"], 64, ""),
    (["verify", "C-ann-t", "--du", "2"], 64, ""),
])
def test_ring_errors_are_not_window_errors(argv, code, out, capsys):
    # each exited 65 (window-too-small): the fault is a window reaching
    # into a variable the ring does not have; `annihilator --ring R` then
    # exited 64 naming Dt, which its default no longer reaches
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if code:
        assert captured.err.startswith("prozero: invalid parameter: ring ")
        assert captured.err.count("\n") == 1


def test_every_echelon_of_a_run_is_over_its_field(monkeypatch, capsys):
    # one field per run: a call that dropped its context would compute in
    # a fresh one over q, silently, so every Echelon built by a suite or
    # a command run over fp:3 must be over fp:3
    fields = []
    real_init = Echelon.__init__

    def spy(self, field=QQ, base=None):
        fields.append(field.name)
        real_init(self, field, base)

    monkeypatch.setattr(Echelon, "__init__", spy)
    reports = claims.run_all(ctx=Context(PrimeField(3)))
    assert all(r.status == "verified" for r in reports)
    for argv in (["kernel", "t - y"], ["annihilator"],
                 ["prozero", "--system", "H0(u;H1(t))"],
                 ["selftest", "--count", "40", "--round-trips", "0"]):
        assert run_cli(argv + ["--field", "fp:3"]) == 0
    capsys.readouterr()
    assert len(fields) > 300 and set(fields) == {"fp:3"}


@pytest.mark.parametrize("argv", [
    ["kernel", "--ring", "E1", "--du", "1", "--mx", "100000", "t"],
    ["annihilator", "--ring", "E1", "--du", "1", "--mx", "100000"],
    ["verify", "C-essential", "--du", "1", "--mx", "100000"],
    # estimated its largest shift before any annihilator checked the ring
    ["verify", "C-xi-witness", "--du", "1", "--mx", "3000"],
])
def test_ring_error_comes_before_the_budget(argv, capsys):
    # each exited 65 (window-too-large): the budget was estimated before
    # the ring was checked, while the same command at the default --mx,
    # and `prozero` at any --mx, exited 64 naming the ring
    assert run_cli(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("prozero: invalid parameter: ring E1[m=2] has "
                            "no u, so the window needs Du = 0\n")


@pytest.mark.parametrize("dt", ["1", "2"])
def test_ring_error_comes_before_the_stage(dt, capsys):
    # exited 65 because stage 2 (or 3) did not fit Dt: a ring without t
    # is refused first, on the caller's window
    assert run_cli(["prozero", "--ring", "R", "--system", "H1(t)",
                    "--dt", dt]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("prozero: invalid parameter: ring R has no t, "
                            "so the window needs Dt = 0\n")


@pytest.mark.parametrize("ring, dt", [
    ("R", 0), ("E1", 2), ("E2", 2), ("CTRL", 2),
])
def test_annihilator_default_degree_is_t2_on_a_ring_with_t(ring, dt, capsys):
    # like the window default, the target t^dt defaults to t^0 on a ring
    # without t, so no flag the user did not set is refused
    assert run_cli(["annihilator", "--ring", ring, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dt"] == dt


@pytest.mark.parametrize("argv, flag", [
    (["verify", "C-basis", "--prec", "4"], "--prec"),
    (["verify", "C-basis", "--dt", "3", "--prec", "4"], "--prec"),
    (["verify", "all", "--max-stage", "10"], "--max-stage"),
])
def test_claim_parameter_not_taken_is_usage_error(argv, flag, capsys):
    # was silently dropped (exit 0); with `all`, every claim must take it,
    # and no claim runs otherwise
    assert run_cli(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("prozero: parse error: %s is not accepted by "
                            "claim C-basis\n" % flag)


@pytest.mark.parametrize("argv, says", [
    # every pro-zero row was window-limited, so these were FALSIFIED (exit 2)
    (["verify", "C-nwkpr", "--max-stage", "3"], "--max-stage >= 4, got 3"),
    (["verify", "C-remark-wpr", "--max-stage", "3"], "--max-stage >= 4, got 3"),
    # a stage window was clamped to Du = 0: "denominator escapes numerator"
    (["prozero", "--ring", "E2", "--system", "H0(u;H1(t))", "--du", "2"],
     "stage 3 needs"),
    # a stage window was clamped to Dt = 0: a witnessed verdict whose
    # images lay outside the target window (exit 0)
    (["prozero", "--ring", "E1", "--system", "H1(t)", "--dt", "3"],
     "stage 4 needs"),
    # the only row was window-limited: "pro-zero-up-to-window" (exit 0) for
    # a system the paper proves is not pro-zero
    (["prozero", "--ring", "E2", "--system", "H0(u;H1(t))", "--max-stage",
      "3"], "every pro-zero row is window-limited at --max-stage 3"),
    # a ring without t whose window has Dt = 0 still has no stage 2
    (["prozero", "--ring", "R", "--system", "H1(t)", "--dt", "0"],
     "stage 2 needs Dt >= 2"),
])
def test_stage_outside_window_is_window_error(argv, says, capsys):
    assert run_cli(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("prozero: window-too-small: ")
    assert says in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("stages", ["-5", "0", "2"])
def test_prozero_stage_count_below_three_is_usage_error(stages, capsys):
    # -5 was refused as a window with a negative bound (exit 65), a bound
    # the user never set: the stage count is checked before the window
    assert run_cli(["prozero", "--system", "H0(u;H1(t))",
                    "--max-stage", stages]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "prozero: pro-zero search needs max_stage >= 3\n"


@pytest.mark.parametrize("argv", [
    ["selftest", "--format", "json"],
    ["selftest", "--out", "report.txt"],
    ["selftest", "--dt", "3"],
    ["selftest", "--du", "3"],
    ["selftest", "--mx", "14"],
    ["eval", "--dt", "3", "x0"],
    ["eval", "--du", "3", "x0"],
    ["eval", "--mx", "14", "x0"],
    ["eval", "--seed", "1", "x0"],
    ["verify", "C-basis", "--seed", "1"],
    ["annihilator", "--seed", "1"],
    ["kernel", "--seed", "1", "t"],
    ["prozero", "--system", "H1(t)", "--seed", "1"],
])
def test_flag_the_command_does_not_read_is_usage_error(argv, capsys,
                                                        tmp_path,
                                                        monkeypatch):
    # each was accepted and ignored (exit 0)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("prozero: error: unrecognized arguments: ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("prec", ["1001", str(10 ** 9)])
def test_precision_over_the_cap_is_usage_error(prec, capsys):
    # the formal solution has one term per degree below the precision:
    # 10**9 ran until killed
    t0 = time.perf_counter()
    assert run_cli(["verify", "C-approx-fail-E1", "--prec", prec]) == 64
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("prozero: invalid parameter: precision must be "
                            "at most 1000, got %s\n" % prec)
    assert run_cli(["verify", "C-gs-demo", "--prec", "1000"]) == 0


@pytest.mark.parametrize("argv, says", [
    # each built its basis and spans unchecked: the first two ran until
    # killed at 20 s, the last two for 35 s or more and about 1 GB or more
    (["kernel", "--ring", "E2", "--mx", "3000", "t"],
     "Dt=8 Du=8 Mx=3000 needs ~486162 basis monomials and ~171609438 "
     "span rows"),
    (["kernel", "--ring", "E2", "--mx", "100000000", "t"],
     "Dt=8 Du=8 Mx=100000000 needs ~16200000162 basis monomials,"),
    # two-x spans: multiplying by x0 needs x-cap 2*Mx + 2; C-basis is
    # accepted up to Mx = 60
    (["kernel", "--ring", "E2", "--mx", "30", "x0"], "~2495988 span rows"),
    (["verify", "C-basis", "--mx", "61"], "~1011968 span rows"),
    # annihilator maps only its (0, 0) slice but is refused as a map of
    # the whole window
    (["annihilator", "--ring", "E2", "--dt", "1", "--mx", "3000"],
     "Dt=8 Du=3 Mx=3000 needs ~216072 basis monomials and ~171609438 "
     "span rows"),
    # an unset --mx grows with --dt, and the budget still refuses it
    (["kernel", "--ring", "E1", "--dt", "100000", "t"],
     "Dt=100000 Du=0 Mx=100002 needs ~20000800006 basis monomials,"),
    # C-xi-witness reduced before any annihilator checked the window:
    # still running when killed at 10 s
    (["verify", "C-xi-witness", "--mx", "3000"],
     "Dt=8 Du=0 Mx=3000 needs ~54018 basis monomials and ~135495360 span "
     "rows"),
    # an x-factor past the window widens the x-cap to Mx + 2 + 3000; with
    # the x-cap at 2*Mx + 2 this printed a wrong "(trivial)"
    (["kernel", "--ring", "E2", "--mx", "12", "x3000"],
     "Dt=8 Du=8 Mx=12 needs ~2106 basis monomials and ~2323350270 span "
     "rows"),
    # a stage's budget error named stage 2's sub-window, Dt=8, a Dt never
    # given: it names the window run on and the stage, with the same
    # estimate
    (["prozero", "--ring", "E2", "--system", "H0(u;H1(t))", "--mx", "3000"],
     "Dt=10 Du=10 Mx=3000 at stage 2 needs ~594198 basis monomials and "
     "~189720531 span rows"),
    (["verify", "C-nwkpr", "--mx", "3000"],
     "Dt=10 Du=10 Mx=3000 at stage 2 needs ~594198 basis monomials and "
     "~189720531 span rows"),
])
def test_window_over_budget_is_window_error(argv, says, capsys):
    t0 = time.perf_counter()
    assert run_cli(argv) == 65
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("prozero: window-too-large: ")
    assert says in captured.err
    assert captured.err.endswith("over the budget of 1000000\n")
    assert captured.err.count("\n") == 1


def test_nwkpr_refuses_a_row_before_the_search(monkeypatch, capsys):
    # every search stage fits at Mx 207 but the row's pair complex of
    # stage 2 does not: it was refused only after the whole pro-zero
    # search had run; now before any slice span is built
    built, real = [], oracle.slice_span

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "slice_span", spy)
    assert run_cli(["verify", "C-nwkpr", "--mx", "207"]) == 65
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "prozero: window-too-large: Dt=10 Du=10 Mx=207 at stage 2 needs "
        "~50336 basis monomials and ~950040 span rows, over the budget of "
        "1000000\n")


@pytest.mark.parametrize("exprs", [
    ["t", "x0"], ["x0", "t"], ["t - y", "x0"],
])
def test_kernel_refuses_every_map_before_building_one(exprs, monkeypatch,
                                                      capsys):
    # `t x0` built 250 slice spans for t before x0 was refused; every
    # map's window is checked before the first is built, in either order
    built, real = [], oracle.slice_span

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "slice_span", spy)
    assert run_cli(["kernel", "--ring", "E2", "--mx", "30"] + exprs) == 65
    assert built == []
    err = capsys.readouterr().err
    assert err.startswith("prozero: window-too-large: Dt=8 Du=8 Mx=30 ")
