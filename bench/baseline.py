"""Measure every workload, untraced and traced, and record the results.

    python3 bench/baseline.py

Runs every workload with seed 0 for the run length in BENCHMARK.json.
Prints every end-to-end metric of every workload by name with its unit,
then the per-layer metrics, and writes them to bench/BENCH_baseline.json
with median, quartiles and sample count,
stamped with the commit, the Python version, the CPU count and the CPU
model. Exits nonzero if any output mismatched or any count was not
repeatable.
"""

import json
import os
import platform
import subprocess
import sys

import run


def stamp():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"commit": commit or "unknown", "sources": run.source_key(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


SEED = 0
OUT_FILE = os.path.join(run.BENCH, "BENCH_baseline.json")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    if not os.path.isfile(os.path.join(run.SRC, "cli.py")):
        sys.stderr.write("baseline: no prozero sources at %s\n" % run.SRC)
        return 2
    os.makedirs(run.OUT, exist_ok=True)
    doc = dict(stamp(), seed=SEED, seconds=seconds, workloads={})
    ok = True
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        for workload in run.WORKLOADS:
            try:
                res = run.measure(workload, SEED, seconds, trace)
            except run.BenchError as e:
                sys.stderr.write("baseline: %s: %s\n" % (workload, e))
                return 1
            summary = run.summarize(res, table)
            ok = ok and res["failed"] == 0 and not res["differ"]
            entry = doc["workloads"].setdefault(workload, {})
            entry["operations" if not trace else "traced_operations"] = [
                res["attempted"], res["failed"]]
            entry["trace%d" % trace] = {
                name: {"unit": unit, "median": summary[name][0],
                       "q1": summary[name][1], "q3": summary[name][2],
                       "samples": summary[name][3]}
                for name, unit in table}
            for name, unit in table:
                med, q1, q3, n = summary[name]
                print("%-11s %-34s %14.6f %-5s (n=%d, q1 %.6f, q3 %.6f)"
                      % (workload, name, med, unit, n, q1, q3), flush=True)
            print("%-11s %d operations, %d failed%s" % (
                workload, res["attempted"], res["failed"],
                "; counts differ: " + ", ".join(res["differ"])
                if res["differ"] else ""), flush=True)
    with open(OUT_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
