"""Seeded command-line fuzz: every input ends in a documented exit code.

Random argv over small windows, in-process on `cli.main` (one process for
every case), plus a few huge values that must be refused at once.
"""

import random
import time

import prozero.cli as cli
from prozero.claims import CLAIM_IDS

EXITS = {0, 2, 3, 64, 65}
RINGS = ["R", "GS", "E1", "E1[m=3]", "E2", "CTRL",
         "E9", "E1[m=0]", "E1[m=x]", "", "r"]
FIELDS = ["q", "fp:7", "fp:32003", "fp:4", "fp:0", "fp:-5", "fp:", "Q"]
ATOMS = ["x0", "x1", "x3", "x5", "y", "t", "u", "x", "1", "2", "0", "7"]
JUNK = ["", "+", "*", "^", "(", ")", "x-1", "t^", "^2", "x0x1", "t^-1",
        "y^1001", "²", "x٠", "t**2", "1/2", " "]
SYSTEMS = ["H1(t)", "H0(u;H1(t))", "H1(u)", "H2(t)", "", "H0(u;H1(t)"]


def _expr(rng, depth=0):
    """A random expression, usually well formed."""
    if rng.random() < 0.08:
        return rng.choice(JUNK)
    if depth > 2 or rng.random() < 0.4:
        atom = rng.choice(ATOMS)
        if rng.random() < 0.3:
            atom += "^%d" % rng.randint(0, 4)
        return atom
    op = rng.choice([" + ", " - ", "*", " * "])
    text = _expr(rng, depth + 1) + op + _expr(rng, depth + 1)
    return "(%s)" % text if rng.random() < 0.2 else text


def _int(rng, lo, hi):
    """Usually a small integer in [lo, hi]; now and then a wild one."""
    if rng.random() < 0.03:
        return str(rng.choice([10 ** 12, -10 ** 12, 2 ** 64, 999999]))
    return str(rng.randint(lo, hi))


def _window(rng, flags):
    for flag, hi in (("--dt", 3), ("--du", 3), ("--mx", 8)):
        if rng.random() < 0.6:
            flags += [flag, _int(rng, -1, hi)]


def _argv(rng):
    # selftest builds the two-x spans of six rings: keep it rare
    cmd = rng.choice(["eval", "annihilator", "kernel", "prozero", "verify"]
                     * 4 + ["selftest"])
    argv = [cmd]
    if cmd != "selftest" and rng.random() < 0.7:
        argv += ["--ring", rng.choice(RINGS)]
    if rng.random() < 0.4:
        argv += ["--field", rng.choice(FIELDS)]
    if cmd in ("eval", "kernel"):
        # no expression at all now and then: a usage error
        argv += [_expr(rng) for _ in range(rng.choice([0, 1, 1, 1, 2, 2]))]
    if cmd in ("annihilator", "kernel", "prozero", "verify"):
        _window(rng, argv)
        # the last --mx given wins: keep the windows small
        argv += ["--mx", _int(rng, 0 if cmd == "kernel" else 2, 8)]
    if cmd == "prozero":
        if rng.random() < 0.9:
            argv += ["--system", rng.choice(SYSTEMS)]
        argv += ["--max-stage", _int(rng, -1, 6)]
    if cmd == "verify":
        argv.insert(1, rng.choice(list(CLAIM_IDS) + ["C-nope", ""]))
        if rng.random() < 0.3:
            argv += ["--max-stage", _int(rng, -1, 6)]
        if rng.random() < 0.2:
            argv += ["--prec", _int(rng, -1, 6)]
    if cmd == "selftest":
        # counts over the cap are among the huge values below
        argv += ["--seed", _int(rng, -5, 10 ** 6),
                 "--count", rng.choice(["0", "1", "-1"]),
                 "--round-trips", str(rng.randint(-1, 9))]
    if cmd != "selftest" and rng.random() < 0.2:
        argv += ["--format", rng.choice(["text", "json", "xml"])]
    if rng.random() < 0.05:
        argv += [rng.choice(["--bogus", "--seed", "--timing", "--dt", "-x"])]
    if rng.random() < 0.05:
        argv += ["--mx", rng.choice(["ten", "1e3", "", "0x10"])]
    return argv


# huge values: windows the budget refuses (65), and a precision and
# selftest counts over their caps (64), each before building anything
HUGE = [
    (["kernel", "--ring", "E2", "--mx", str(10 ** 9), "t"], 65),
    (["kernel", "--ring", "E1", "--dt", "4000", "--mx", "4002", "t - y"], 65),
    (["annihilator", "--ring", "E2", "--dt", "1", "--mx", str(10 ** 7)], 65),
    (["verify", "C-kernel-I0", "--mx", "100000"], 65),
    (["verify", "C-basis", "--mx", "5000"], 65),
    (["prozero", "--ring", "E2", "--system", "H0(u;H1(t))",
      "--max-stage", str(10 ** 6)], 65),
    (["kernel", "--ring", "E1", "--mx", str(2 ** 64), "t"], 65),
    (["verify", "C-approx-fail-E2", "--prec", str(10 ** 9)], 64),
    (["selftest", "--count", "0", "--round-trips", str(10 ** 12)], 64),
    (["selftest", "--count", str(10 ** 9)], 64),
]


def _run(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as e:         # argparse usage failures
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_random_argv_ends_in_a_documented_exit(capsys):
    rng = random.Random(2024)
    cases = [(_argv(rng), None) for _ in range(300)] + HUGE
    t0 = time.perf_counter()
    seen = set()
    for argv, want in cases:
        rc, out, err = _run(argv, capsys)
        assert rc in EXITS and want in (None, rc), (argv, rc, err)
        assert "Traceback" not in err, argv
        if rc in (64, 65):
            assert err.count("\n") == 1 and err.startswith("prozero"), \
                (argv, err)
            assert out == "", argv
        seen.add(rc)
    assert time.perf_counter() - t0 <= 5.0
    assert {0, 64, 65} <= seen
