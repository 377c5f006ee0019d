"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py ROOT [--trace SPANFILE] [--] [CLI ARGS...]

Imports prozero from ROOT/src, runs `prozero.cli.main(CLI ARGS)` with its
standard output captured, and prints one JSON line: the exit code, the
captured output, the monotonic clock when prozero was ready (the parent
subtracts its spawn time to get set-up time), the wall time of the call,
and this process's CPU time and peak resident memory. Without CLI ARGS it
only reports the ready time. With --trace the tracer is installed after
the ready time is taken and its spans are written to SPANFILE.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(argv):
    root = argv[0]
    argv = argv[1:]
    span_file = None
    if argv[:1] == ["--trace"]:
        span_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import prozero.cli
    ready = time.monotonic()
    result = {"ready": ready}
    if argv:
        tracer = None
        if span_file:
            from tracer import Tracer
            tracer = Tracer("%s:%d" % (os.path.basename(span_file), os.getpid()))
            tracer.install()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = prozero.cli.main(argv)
            run_s = time.perf_counter() - t0
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result.update(rc=rc, out=out.getvalue(), run_s=run_s,
                      cpu_s=ru.ru_utime + ru.ru_stime,
                      peak_rss_mb=ru.ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.dump(span_file)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
