"""One benchmark worker: a fresh process that imports katzexp, signals that
it is ready, runs its requests and writes what they returned.

    python3 perfbench/worker.py READY_FD OUT_PATH JOB_JSON

JOB_JSON is {"requests": [...], "trace": bool}. The worker writes one byte
to READY_FD once katzexp is imported (and traced, if asked), and holds the
descriptor open until it exits, so the harness sees end of file then.
"""

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction


def _series_strings(f):
    return [str(Fraction(c)) for c in f.coeffs]


def _lib_iterate_H(katzexp, n, p, iters, N):
    return [_series_strings(g) for g in katzexp.iterate_H(katzexp.U_POLY, n, p, iters, N)]


def _lib_chain(katzexp, p, n_max):
    """Build the Newton chain, then reduce each scaled image y_n mod p."""
    katzexp.newton_chain(p, n_max)
    images = []
    for n in range(1, n_max + 1):
        reduced = katzexp.sp_to_bivar_mod_p(katzexp.phi_image(n, p), p)
        images.append([[list(k), r] for k, r in reduced.terms])
    return images


LIB_CALLS = {"iterate_H": _lib_iterate_H, "chain": _lib_chain}


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 3
    return rc, buf.getvalue()


def main():
    ready_fd, out_path, job = int(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    import katzexp
    import katzexp.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.write(ready_fd, b"r")
    results = []
    for i, req in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        error = None
        rc, output = 0, None
        try:
            if req["kind"] == "cli":
                rc, output = _run_cli(katzexp.cli, req["argv"])
            else:
                output = LIB_CALLS[req["call"]](katzexp, **req["args"])
        except Exception as exc:  # reported as a failed request, not a crash
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
        results.append({"seconds": seconds, "rc": rc, "output": output, "error": error})
    doc = {"results": results}
    if tracer is not None:
        tracer.request = None
        doc["spans"] = tracer.spans
        doc["counters"] = tracer.counters
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
