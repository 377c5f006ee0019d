"""prozero benchmark: fresh-process workloads with outside-in layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prozero checkout. Every repetition is a fresh
Python process (bench/child.py) with the checkout's `src` on its path,
one at a time: a closed loop with one client. Processes are fresh because
prozero's span cache is process-global, so every command-line user pays
the cold cost that a warm process would hide.

Workloads (only dual-fuzz consumes --seed; the claim workloads run fixed
windows by design, so their inputs are the same for every seed):

  suite        `verify all --format json` over q, default windows. The
               north-star number; mixed, but C-nwkpr (koszul) is ~65%.
  kernel-wide  `verify C-kernel-I0 --mx 50` over fp:32003. Span builds
               dominate; no koszul, no Fraction, so Q-scalar and stage-memo
               changes should not move it while span-construction ones do.
               It is also the contrast for the unwrapped `fields` layer.
  dual-fuzz    `selftest --seed N --count 2000 --round-trips 1000` over q.
               Build-heavy two-x (pairs=True) spans, and the only workload
               where `rings` and `parser` do measurable work.

With --trace 0 it prints the end-to-end metrics of untraced repetitions
(two at least), each the median over the repetitions of the run:

  run_s        wall time of the call into prozero.cli.main to finished output
  cpu_s        user+sys CPU time of the child process
  setup_s      spawn until `prozero.cli` is imported (plus import-only probes)
  peak_rss_mb  peak resident memory of the child
  ok_frac      share of operations (one claim report, or one selftest run)
               whose output and exit code match the pinned expected value

With --trace 1 it alternates traced and untraced repetitions (at least
two traced, one untraced) and prints
per-layer metrics from the traced ones: self time per module (span
duration minus child coverage), call counts and ratios, and the tracing
overhead. Which end-to-end metric each should move, and where:

  linalg.*     run_s on suite; insert_useful_ratio also on dual-fuzz.
               reduce_calls counts the Echelon.reduce calls made outside
               Echelon.insert, not the reduce inside each insert
  oracle.*     span_builds/span_build_s: run_s on kernel-wide and dual-fuzz;
               span_calls/span_hit_ratio: run_s on suite;
               span_rows: peak_rss_mb everywhere
  koszul.*     run_s on suite (zero elsewhere)
  rings.*, parser.*   run_s on dual-fuzz only
  claims.*     run_s on suite
  cli.self_s   run_s on suite

Every count repeats exactly across traced runs of the same code and seed;
the benchmark checks that within a run and against earlier runs recorded
in bench/out/counts.json (keyed by a hash of the sources), and fails if
one differs. Outputs are checked on every repetition; any mismatch makes
the run fail with a nonzero exit after printing its result.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import operator
import os
import statistics
import subprocess
import sys
import time
from array import array

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src", "prozero")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")
sys.path.insert(0, BENCH)
import tracer  # noqa: E402

SETUP_PROBES_PER_REP = 4
RUN_BUDGET_S = 170.0   # the whole run must end well within 180 s

WORKLOADS = {
    "suite": {
        "argv": ["verify", "all", "--format", "json"],
        "rc": 0,
        "output": "f06a2b05fce1456f4ee0b3905bf7d0dc0e0b739e0f74e06219debe1b05757f4c",
        "reports": {
            "C-basis": "19b8ecbf7830f4371994a3b0d35198874a462d064b410ad3277f48a200c08b2c",
            "C-ann-t": "24220d62428e54d08258b5f34c9e0ceabff65823b664ccd1b4c2aed4f3b49339",
            "C-essential": "d161acfb042ab8b5d90d074d8a792d0ce4543d536f6e293aac6d537dda0677d2",
            "C-ann-tu": "67606dfdb94594a4a0dc8c8060a1463f44b89028761ae868b5139ef52083ccb9",
            "C-kernel-I0": "0dbc2341077338b32d7819d53e1e9c8dab91d2577be57c367254df702d21f4d4",
            "C-bounded-E2": "46e11fb600b9a9afa828930875a797753f0b05882402139bdd23d46fe6431078",
            "C-nwkpr": "b6ebbd33544b916c93041d720310b09e37e70f1c0a3bd758a4a020c1f5fe2d60",
            "C-gs-demo": "fd80815aa011f1bde43f386081e5632ababe70985f0f783336dc1d89312e13a6",
            "C-approx-fail-E1": "d8853257543accfcb2128ce97f83d67e023a019ee202951af0bf0e8fdb23fa50",
            "C-approx-fail-E2": "1d47fb7a3e6b0e75f48ce5952c6e00849904a44b73576a98d6b3c06c9f9e3bff",
            "C-xi-witness": "ae7a392fdbcf51f46097966318f65d86ba85f77fcb7004085d6a3016a24b3e6b",
            "C-remark-wpr": "67d1fd34b2f4b2390f8f2def977a145e4c7ce556272154e4bfd654a7d181eba6",
        },
    },
    "kernel-wide": {
        "argv": ["verify", "C-kernel-I0", "--mx", "50", "--field", "fp:32003",
                 "--format", "json"],
        "rc": 0,
        "output": "bcfb941370d46e33e590e4eb11919cdf48b9125e05be282d1605dcee67bd4a5e",
        "reports": {
            "C-kernel-I0": "1d89bc65b8e03a18f412357c6ed909b84161b810c8a730e516f79000c3e1bb52",
        },
    },
    "dual-fuzz": {
        "argv": ["selftest", "--seed", "{seed}", "--count", "2000",
                 "--round-trips", "1000"],
        "rc": 0,
        "line": ("selftest passed: 12000 dual-implementation products, "
                 "1000 print/parse round-trips (seed {seed})\n"),
    },
}

CLAIM_IDS = tuple(WORKLOADS["suite"]["reports"])

END_TO_END = (
    ("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("linalg.self_s", "s"), ("linalg.insert_calls", "count"),
    ("linalg.insert_pivots", "count"), ("linalg.insert_useful_ratio", "ratio"),
    ("linalg.reduce_calls", "count"), ("linalg.kernel_calls", "count"),
    ("linalg.kernel_domain_sum", "count"),
    ("oracle.self_s", "s"), ("oracle.span_calls", "count"),
    ("oracle.span_builds", "count"), ("oracle.span_hit_ratio", "ratio"),
    ("oracle.span_build_s", "s"), ("oracle.span_rows", "count"),
    ("oracle.reduce_raw_calls", "count"), ("oracle.mul_map_calls", "count"),
    ("oracle.window_basis_calls", "count"),
    ("koszul.self_s", "s"), ("koszul.stage_calls", "count"),
    ("koszul.stage_distinct", "count"), ("koszul.stage_useful_ratio", "ratio"),
    ("rings.self_s", "s"), ("rings.mul_calls", "count"),
    ("parser.self_s", "s"), ("parser.calls", "count"),
    ("claims.self_s", "s"),
) + tuple(("claims.claim_s." + cid, "s") for cid in CLAIM_IDS) + (
    ("cli.self_s", "s"),
    ("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    pass


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(spec, seed, res):
    """(attempted, failed) operations of one repetition."""
    if "line" in spec:
        ok = (res is not None and res["rc"] == spec["rc"]
              and res["out"] == spec["line"].format(seed=seed))
        return 1, 0 if ok else 1
    expected = spec["reports"]
    attempted = len(expected)
    if res is None or res["rc"] != spec["rc"]:
        return attempted, attempted
    try:
        doc = json.loads(res["out"])
    except ValueError:
        return attempted, attempted
    reports = doc.get("reports", [doc]) if isinstance(doc, dict) else []
    got = {r.get("claim_id"): sha256(json.dumps(r, sort_keys=True, indent=2))
           for r in reports if isinstance(r, dict)}
    failed = sum(1 for cid, h in expected.items() if got.get(cid) != h)
    if failed == 0 and sha256(res["out"]) != spec["output"]:
        failed = attempted
    return attempted, failed


def spawn(argv, deadline, span_file=None):
    """Run one child; returns its result dict with setup_s, or None if it
    crashed. Raises BenchError when it outlives the run's budget."""
    cmd = [sys.executable, CHILD, ROOT]
    if span_file:
        cmd += ["--trace", span_file]
    cmd += ["--"] + argv
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition exceeded the %.0f s run budget"
                         % RUN_BUDGET_S)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, wall
    res = json.loads(proc.stdout.splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    return res, wall


def source_key():
    """Hash of the program and of the benchmark code that counts its calls."""
    h = hashlib.sha256()
    for d in (SRC, BENCH):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def layer_metrics(span_file, run_s):
    """Per-layer metrics of one traced repetition, from its span file."""
    header, spans = tracer.load(span_file)
    names = header["names"]
    layer_of = [n.split(".", 1)[0] for n in names]
    name, parent = spans["name"], spans["parent"]
    dur = array("d", map(operator.sub, spans["end"], spans["start"]))
    cover = array("d", bytes(8 * len(dur)))
    for k, p in enumerate(parent):
        if p >= 0:
            cover[p] += dur[k]
    calls = [0] * len(names)
    self_s = dict.fromkeys(tracer.LAYERS, 0.0)
    for k, nid in enumerate(name):
        calls[nid] += 1
        self_s[layer_of[nid]] += dur[k] - cover[k]
    by_name = dict(zip(names, calls))
    claim_s = dict.fromkeys(CLAIM_IDS, 0.0)
    for idx, cid in header["claim_of"]:
        claim_s[cid] += dur[idx]

    def ratio(a, b):
        return a / b if b else 0.0

    inserts = by_name["linalg.Echelon.insert"]
    insert_id = names.index("linalg.Echelon.insert")
    reduce_id = names.index("linalg.Echelon.reduce")
    direct_reduces = sum(1 for k, nid in enumerate(name) if nid == reduce_id
                         and (parent[k] < 0 or name[parent[k]] != insert_id))
    span_calls = by_name["oracle.slice_span"]
    builds = header["span_builds"]
    stage_calls = sum(by_name["koszul." + f] for f in tracer.STAGE_FUNCS)
    m = {
        "linalg.insert_calls": inserts,
        "linalg.insert_pivots": header["insert_pivots"],
        "linalg.insert_useful_ratio": ratio(header["insert_pivots"], inserts),
        "linalg.reduce_calls": direct_reduces,
        "linalg.kernel_calls": by_name["linalg.kernel_basis"],
        "linalg.kernel_domain_sum": header["kernel_domain_sum"],
        "oracle.span_calls": span_calls,
        "oracle.span_builds": len(builds),
        "oracle.span_hit_ratio": ratio(span_calls - len(builds), span_calls),
        "oracle.span_build_s": sum(dur[k] for k in builds),
        "oracle.span_rows": header["span_rows"],
        "oracle.reduce_raw_calls": by_name["oracle.reduce_raw"],
        "oracle.mul_map_calls": by_name["oracle.mul_map"],
        "oracle.window_basis_calls": by_name["oracle.window_basis"],
        "koszul.stage_calls": stage_calls,
        "koszul.stage_distinct": header["stage_distinct"],
        "koszul.stage_useful_ratio": ratio(header["stage_distinct"],
                                           stage_calls),
        "rings.mul_calls": by_name["rings.GradedPoly.__mul__"]
        + by_name["rings.r_mul"],
        "parser.calls": sum(c for n, c in by_name.items()
                            if n.startswith("parser.")),
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(self_s.values()),
        "trace.spans": header["spans"],
    }
    for layer, s in self_s.items():
        m[layer + ".self_s"] = s
    for cid, s in claim_s.items():
        m["claims.claim_s." + cid] = s
    return m


def check_counts(counts_seen, key):
    """Counts must repeat exactly: within this run and across runs of the
    same sources. Returns the names of counts that differ."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path) as fh:
            recorded = json.load(fh)
    except (OSError, ValueError):
        recorded = {}
    ref = recorded.setdefault(key, counts_seen[0])
    differ = sorted({n for c in counts_seen for n in c if c[n] != ref.get(n)})
    if not differ:
        with open(path, "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
    return differ


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seed, seconds, trace):
    """Run repetitions of one workload for about `seconds` seconds.

    Returns the operation counts, the per-repetition samples of every
    metric, the repetition counts and the names of counts that failed the
    determinism check."""
    spec = WORKLOADS[workload]
    cli_argv = [a.format(seed=seed) for a in spec["argv"]]
    t_start = time.monotonic()
    stop = t_start + seconds
    deadline = t_start + RUN_BUDGET_S
    run = {"attempted": 0, "failed": 0, "samples": {}, "differ": [],
           "reps": {False: 0, True: 0}}
    samples = run["samples"]
    walls = {False: [], True: []}
    counts_seen = []

    def add(name, value):
        samples.setdefault(name, []).append(value)

    def repetition(traced):
        res, wall = spawn(cli_argv, deadline, span_file if traced else None)
        walls[traced].append(wall)
        run["reps"][traced] += 1
        a, f = check_output(spec, seed, res)
        run["attempted"] += a
        run["failed"] += f
        return res if res is not None and f == 0 else None

    def fits(traced):
        # start another repetition only if it should end before `stop`
        return (walls[traced]
                and time.monotonic() + statistics.median(walls[traced]) <= stop)

    if not trace:
        span_file = None
        while len(walls[False]) < 2 or fits(False):
            # import-only probes spread over the run, for a steadier setup_s
            for _ in range(SETUP_PROBES_PER_REP):
                res, _ = spawn([], deadline)
                if res is None:
                    raise BenchError("prozero failed to import")
                add("setup_s", res["setup_s"])
            res = repetition(False)
            if res is not None:
                for k in ("run_s", "cpu_s", "setup_s", "peak_rss_mb"):
                    add(k, res[k])
        return run

    # traced, untraced, traced, ...: two traced repetitions at least, so the
    # counts are compared within every run
    span_file = os.path.join(OUT, "%s.spans" % workload)
    traced = True
    while len(walls[True]) < 2 or fits(traced):
        res = repetition(traced)
        if res is not None and traced:
            m = layer_metrics(span_file, res["run_s"])
            counts_seen.append({k: m[k] for k, u in PER_LAYER if u == "count"})
            for k, v in m.items():
                add(k, v)
        elif res is not None:
            add("trace.untraced_run_s", res["run_s"])
        traced = not traced
    if run["failed"] == 0:
        key = "%s:%s" % (source_key(), workload)
        if cli_argv != spec["argv"]:
            key += ":%d" % seed
        run["differ"] = check_counts(counts_seen, key)
        add("trace.overhead_s",
            statistics.median(samples["trace.run_s"])
            - statistics.median(samples["trace.untraced_run_s"]))
    return run


def summarize(run, table):
    """name -> (median, q1, q3, samples) for every metric of the table."""
    out = {}
    for name, unit in table:
        if name == "ok_frac":
            vals = [1.0 - run["failed"] / run["attempted"]]
        else:
            vals = run["samples"].get(name) or [0.0]
        out[name] = (statistics.median(vals),) + quartiles(vals) + (len(vals),)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cli.py")):
        sys.stderr.write("bench: no prozero sources at %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        sys.stderr.write("bench: %s\n" % e)
        return 1
    if run["differ"]:
        sys.stderr.write("bench: counts differ between traced runs of the "
                         "same code: %s\n" % ", ".join(run["differ"]))
    table = PER_LAYER if args.trace else END_TO_END
    summary = summarize(run, table)
    for name, unit in table:
        med, q1, q3, n = summary[name]
        print("%-34s %14.6f %-5s (median of %d; q1 %.6f, q3 %.6f)"
              % (name, med, unit, n, q1, q3))
    print("workload %s seed %d: %d operations, %d failed; %d untraced and "
          "%d traced repetitions" % (args.workload, args.seed,
                                     run["attempted"], run["failed"],
                                     run["reps"][False], run["reps"][True]))
    correct = run["failed"] == 0 and not run["differ"]
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": summary[name][0], "unit": unit}
                    for name, unit in table}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
