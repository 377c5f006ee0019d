"""Command-line front end.

Commands:
    verify      run one claim verifier or the whole suite
    eval        evaluate element expressions to canonical form
    annihilator windowed annihilator of t^dt (u^du) in a ring
    kernel      windowed kernel of one or more multiplication maps
    prozero     pro-zero search on an inverse system of homologies
    selftest    seeded randomized cross-implementation properties

Exit codes: 0 success/verified, 2 FALSIFIED (a counter-witness exists),
3 inconclusive-window, 64 usage or parse errors, 65 window-too-small.

Text output is rendered from the same JSON document that --format json
prints, never computed separately, so the two formats cannot drift.

Each command computes in one `oracle.Context` over the field its
--field names, so its slice spans and Koszul stage modules are built
once per command.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .claims import (CLAIM_IDS, SCHEMA_VERSION, render_basis, render_vec,
                     run_all, suite_doc)
from .fields import FieldError, field_from_spec
from .koszul import check_stage_count, pro_zero_test, stage_degree
from .oracle import (Context, Window, WindowError, annihilator_oracle,
                     kernel_of, OracleError, raw_mul, reduce_raw, vectorize)
from .parser import ParseError, parse_element, parse_ring, parse_system, print_element
from .rings import (GS, CTRL, E1, E2, R_ONLY, GradedPoly, RingError)

USAGE_EXIT = 64
WINDOW_EXIT = 65

# The most products per ring, and the most round-trips, one selftest runs.
MAX_SELFTEST = 100_000


class _Cli(argparse.ArgumentParser):
    def error(self, message):
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _build_parser():
    top = _Cli(prog="prozero",
               description="exact windowed verification of counter-example "
                           "ring claims")
    sub = top.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", default="q", help="q | fp:PRIME")

    def common(p, window=True):
        # only the flags the command reads: any other is a usage error
        p.add_argument("--ring", default=None,
                       help="R | GS | E1 | E1[m=N] | E2 | CTRL")
        if window:
            p.add_argument("--dt", type=int, default=None)
            p.add_argument("--du", type=int, default=None)
            p.add_argument("--mx", type=int, default=None,
                           help="unset: the default, raised to fit Dt and Du")
        add_field(p)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)

    pv = sub.add_parser("verify", help="run claim verifiers",
                        formatter_class=argparse.RawDescriptionHelpFormatter,
                        epilog="claim ids:\n  " + "\n  ".join(CLAIM_IDS))
    pv.add_argument("claim", help="a claim id (listed below) or 'all'")
    common(pv)
    pv.add_argument("--prec", type=int, default=None)
    pv.add_argument("--max-stage", type=int, default=None, dest="max_stage")
    pv.add_argument("--timing", action="store_true",
                    help="attach timing_ms (forfeits byte-identical output)")

    pe = sub.add_parser("eval", help="evaluate expressions")
    pe.add_argument("exprs", nargs="+")
    common(pe, window=False)

    pa = sub.add_parser("annihilator", help="windowed annihilator; here "
                        "--dt/--du give the target degree of t^dt*u^du")
    common(pa)

    pk = sub.add_parser("kernel", help="windowed kernel of multiplications")
    pk.add_argument("exprs", nargs="+")
    common(pk)

    pp = sub.add_parser("prozero", help="pro-zero inverse-system search")
    common(pp)
    pp.add_argument("--system", required=True,
                    help='"H1(t)" or "H0(u;H1(t))"')
    pp.add_argument("--max-stage", type=int, default=8, dest="max_stage")

    ps = sub.add_parser("selftest", help="seeded randomized properties")
    add_field(ps)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--count", type=int, default=500,
                    help="products per ring")
    ps.add_argument("--round-trips", type=int, default=1000,
                    dest="round_trips")
    return top


def _emit(doc, args, render_text):
    if args.format == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        payload = render_text(doc)
        if not payload.endswith("\n"):
            payload += "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as e:
            print("prozero: cannot write %s: %s" % (args.out, e.strerror or e),
                  file=sys.stderr)
            sys.exit(USAGE_EXIT)
    else:
        sys.stdout.write(payload)


def _ring_of(args, default):
    if args.ring is None:
        return default
    return parse_ring(args.ring)


def _window_of(args, ring):
    """Default window (8, 8, 12), with Dt or Du 0 on a ring without t or u;
    an unset --mx is raised to the margin (`Window.of`)."""
    dt = args.dt if args.dt is not None else (8 if ring.has_t else 0)
    du = args.du if args.du is not None else (8 if ring.has_u else 0)
    return Window.of(dt, du, args.mx)


# -- verify

def _report_text(doc):
    reports = doc["reports"] if "reports" in doc else [doc]
    lines = []
    counts = {"verified": 0, "FALSIFIED": 0, "inconclusive-window": 0}
    for r in reports:
        counts[r["status"]] += 1
        params = " ".join("%s=%s" % (k, r["params"][k])
                          for k in sorted(r["params"]))
        lines.append("claim %-17s ring %-8s status %s"
                     % (r["claim_id"], r["ring"], r["status"]))
        lines.append("  params: %s" % params)
        if r["witnesses"]:
            lines.append("  witnesses: %s" % "; ".join(r["witnesses"]))
        for item in r["inventory"]:
            lines.append("  - %s" % item)
        if r.get("timing_ms") is not None:
            lines.append("  timing_ms: %s" % r["timing_ms"])
        lines.append("  note: %s" % r["notes"])
    if "reports" in doc:
        lines.append("summary: %d verified, %d FALSIFIED, %d inconclusive"
                     % (counts["verified"], counts["FALSIFIED"],
                        counts["inconclusive-window"]))
    return "\n".join(lines)


def cmd_verify(args):
    ctx = Context(field_from_spec(args.field))
    if args.claim != "all" and args.claim not in CLAIM_IDS:
        raise ParseError("unknown claim id %r (try one of: %s)"
                         % (args.claim, ", ".join(CLAIM_IDS)))
    ids = CLAIM_IDS if args.claim == "all" else (args.claim,)
    ring = None if args.ring is None else parse_ring(args.ring)
    reports = run_all(ids, ctx, dt=args.dt, du=args.du, mx=args.mx,
                      timing=args.timing, prec=args.prec,
                      max_stage=args.max_stage, ring=ring)
    doc = suite_doc(reports) if args.claim == "all" else reports[0].to_dict()
    _emit(doc, args, _report_text)
    statuses = {r.status for r in reports}
    if "FALSIFIED" in statuses:
        return 2
    if "inconclusive-window" in statuses:
        return 3
    return 0


# -- eval

def cmd_eval(args):
    field = field_from_spec(args.field)
    ring = _ring_of(args, E1(2))
    results = []
    for text in args.exprs:
        p = parse_element(text, ring, field)
        results.append({"input": text, "value": print_element(p)})
    doc = {"schema_version": SCHEMA_VERSION, "ring": ring.describe(),
           "results": results}
    _emit(doc, args, lambda d: "\n".join(r["value"] for r in d["results"]))
    return 0


# -- annihilator

def cmd_annihilator(args):
    ctx = Context(field_from_spec(args.field))
    ring = _ring_of(args, E1(2))
    tdt = args.dt if args.dt is not None else (2 if ring.has_t else 0)
    tdu = args.du if args.du is not None else 0
    # the window floors Dt at 8 and Du at 3; a given --mx caps the floors
    # at the largest degree its margin allows, never below the target
    cap = 8 if args.mx is None else args.mx - Window.least_mx(0, 0)
    wdt = max(tdt, min(8, cap) if ring.has_t else 0)
    wdu = max(tdu, min(3, cap) if ring.has_u else 0)
    w = Window.of(wdt, wdu, args.mx)
    sub = annihilator_oracle(ring, tdt, tdu, w, ctx)
    basis = render_basis(ring, sub)
    doc = {"schema_version": SCHEMA_VERSION, "ring": ring.describe(),
           "dt": tdt, "du": tdu,
           "window": {"dt": w.Dt, "du": w.Du, "mx": w.Mx},
           "dim": sub.dim, "basis": basis}
    _emit(doc, args,
          lambda d: ", ".join(d["basis"]) if d["basis"] else "(trivial)")
    return 0


# -- kernel

def cmd_kernel(args):
    ctx = Context(field_from_spec(args.field))
    ring = _ring_of(args, E1(2))
    w = _window_of(args, ring)
    polys = [parse_element(text, ring, ctx.field) for text in args.exprs]
    if any(p.is_zero() for p in polys):
        raise ParseError("kernel of the zero map is the whole window")
    sub = kernel_of(ring, [vectorize(p) for p in polys], w, ctx)
    basis = render_basis(ring, sub)
    doc = {"schema_version": SCHEMA_VERSION, "ring": ring.describe(),
           "maps": [print_element(p) for p in polys],
           "window": {"dt": w.Dt, "du": w.Du, "mx": w.Mx},
           "dim": sub.dim, "basis": basis}
    _emit(doc, args,
          lambda d: "\n".join(d["basis"]) if d["basis"] else "(trivial)")
    return 0


# -- prozero

def cmd_prozero(args):
    ctx = Context(field_from_spec(args.field))
    ring = _ring_of(args, E2)
    system = parse_system(args.system,
                          ring.m if ring.variant == "E1" else 2)
    check_stage_count(args.max_stage)       # before a window is built
    need = stage_degree(args.max_stage)
    dt = args.dt if args.dt is not None else need
    du = args.du if args.du is not None else (need if ring.has_u else 0)
    w = Window.of(dt, du, args.mx)
    rep = pro_zero_test(ring, system, args.max_stage, w, ctx)
    rows = []
    for row in rep.rows:
        rows.append({
            "n": row.n,
            "least_zero_m": row.least_zero_m,
            "window_limited": row.window_limited,
            "witnesses": [{"m": m, "witness": render_vec(ring, v, ctx.field)}
                          for m, v in row.witnesses],
        })
    doc = {"schema_version": SCHEMA_VERSION, "ring": ring.describe(),
           "system": system.describe(), "max_stage": args.max_stage,
           "window": {"dt": w.Dt, "du": w.Du, "mx": w.Mx},
           "verdict": rep.verdict, "rows": rows}

    def text(d):
        lines = ["system %s over %s: %s"
                 % (d["system"], d["ring"], d["verdict"])]
        for r in d["rows"]:
            if r["least_zero_m"]:
                lines.append("  stage %d: zero transition from stage %d "
                             "(gap %d)" % (r["n"], r["least_zero_m"],
                                           r["least_zero_m"] - r["n"]))
            else:
                wits = ", ".join("%d:%s" % (wv["m"], wv["witness"])
                                 for wv in r["witnesses"])
                tail = " [window-limited]" if r["window_limited"] else ""
                lines.append("  stage %d: no zero transition; witnesses %s%s"
                             % (r["n"], wits, tail))
        return "\n".join(lines)

    _emit(doc, args, text)
    return 0


# -- selftest

def _random_poly(rng, ring, field):
    # the sum of up to 4 random monomials, added up in one map: the
    # validating constructor drops the zero and vanishing terms
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        dt = rng.randint(0, 3) if ring.has_t else 0
        du = rng.randint(0, 2) if ring.has_u else 0
        if ring.variant == "CTRL":
            idx = ("x", rng.randint(1, 4)) if rng.random() < 0.7 else ("y", 0)
        else:
            idx = (("x", rng.randint(0, 6)) if rng.random() < 0.5
                   else ("y", rng.randint(0, 3)))
        vec = terms.setdefault((dt, du), {})
        vec[idx] = field.add(vec.get(idx, field.zero()), c)
    return GradedPoly(ring, terms, field)


def _raw_product(ring, p, q, ctx):
    """Multiply without the closed form: raw monomial products reduced
    against the relation span only, over the context's field."""
    # generator indices <= 6 and y-powers <= 3 in _random_poly, so pair
    # kill chains climb to at most 6+6+1 and caps of 16 cover everything
    return reduce_raw(ring, raw_mul(vectorize(p), vectorize(q), ctx.field),
                      16, 16, True, ctx)


def cmd_selftest(args):
    field = field_from_spec(args.field)
    if not (0 <= args.count <= MAX_SELFTEST
            and 0 <= args.round_trips <= MAX_SELFTEST):
        raise ParseError("--count and --round-trips must be from 0 to %d"
                         % MAX_SELFTEST)
    rng = random.Random(args.seed)
    rings = [R_ONLY, GS, E1(2), E1(3), E2, CTRL]
    ctx = Context(field)
    checked = 0
    for ring in rings:
        for _ in range(args.count):
            p = _random_poly(rng, ring, field)
            q = _random_poly(rng, ring, field)
            fast = vectorize(p * q)
            slow = _raw_product(ring, p, q, ctx)
            if fast != slow:
                print("MISMATCH in %s: (%s) * (%s): closed form %s, "
                      "span reduction %s"
                      % (ring.describe(), print_element(p), print_element(q),
                         fast, slow))
                return 2
            checked += 1
    trips = 0
    for _ in range(args.round_trips):
        ring = rng.choice(rings)
        p = _random_poly(rng, ring, field)
        text = print_element(p)
        if parse_element(text, ring, field) != p:
            print("ROUND-TRIP FAILURE in %s: %r" % (ring.describe(), text))
            return 2
        trips += 1
    print("selftest passed: %d dual-implementation products, "
          "%d print/parse round-trips (seed %d)" % (checked, trips, args.seed))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:        # argparse admits only the six commands
        return {"verify": cmd_verify, "eval": cmd_eval,
                "annihilator": cmd_annihilator, "kernel": cmd_kernel,
                "prozero": cmd_prozero,
                "selftest": cmd_selftest}[args.command](args)
    except ParseError as e:
        print("prozero: parse error: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    except RingError as e:
        print("prozero: invalid parameter: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    except FieldError as e:
        print("prozero: invalid field: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    except WindowError as e:
        print("prozero: %s" % e, file=sys.stderr)
        return WINDOW_EXIT
    except OracleError as e:
        print("prozero: %s" % e, file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
