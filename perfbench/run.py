"""katzexp benchmark: cold-process certificate workloads, end to end and per
layer.

    python3 perfbench/run.py --workload condition --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; katzexp is imported from ./src. One
closed-loop client sends one request at a time and every worker job is a
fresh process (see workloads.py), so at most two processes are busy. A run
starts with five bare set-up probes, then repeats whole passes over the
workload's requests while the next pass is expected to end within
--seconds of the start. It checks every output and prints the metrics as
JSON on its last line.

--trace 0 reports the end-to-end metrics: trimmed means over passes, and
the median of the set-up samples for setup_s. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics (medians) of
the traced ones, plus the tracing overhead. --workload all runs every
workload in turn. Each run also writes .perfbench/results/*.json with its
raw samples and metadata (backend, Python, CPU count, commit, src/ lines).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from tracer import MAX_COUNTERS, aggregate
from workloads import WORKLOADS, Workload, request_id

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# a request running past this counts as failed; the slowest request
# takes about 1.5 s on a 2-CPU Xeon VM
REQUEST_TIMEOUT_S = 60.0
# a run starts no new pass after RUN_CAP_S, and kills any worker still
# running at HARD_DEADLINE_S, so that it always exits within 180 s
RUN_CAP_S = 120.0
HARD_DEADLINE_S = 165.0
SETUP_PROBES = 5

END_TO_END = (
    ("run_s", "s"),
    ("slowest_request_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics: (name, unit); "calls"/"self_s" come from the spans
SPAN_METRICS = (
    ("series.qs_mul", ("calls", "self_s")),
    ("series.qs_inv", ("self_s",)),
    ("series.qs_pow", ("self_s",)),
    ("series.qs_reduce_mod", ("self_s",)),
    ("classical.bernoulli", ("self_s",)),
    ("classical.eisenstein_series", ("self_s",)),
    ("classical.miller_form", ("calls", "self_s")),
    ("katz.katz_split_classical", ("self_s",)),
    ("katz.katz_split_function", ("self_s",)),
    ("katz.hauptmodul_valuations", ("self_s",)),
    ("family.estar_family", ("self_s",)),
    ("family.gen_bernoulli_tau", ("self_s",)),
    ("hecke.apply_hpoly_twisted", ("calls", "self_s")),
    ("hecke.iterate_H", ("self_s",)),
    ("recurrence.newton_chain", ("self_s",)),
    ("recurrence.phi_image", ("self_s",)),
    ("recurrence.sp_to_bivar_mod_p", ("self_s",)),
)
EXTRA_LAYER = (
    ("series.qs_mul.coef_products", "count"),
    ("series.qs_mul.ns_per_product", "ns"),
    ("series.max_coeff_bits", "bits"),
    ("classical.bernoulli.max_k", "index"),
    ("family.construction_yield", "ratio"),
    ("recurrence.chain_terms", "count"),
    ("reports.self_s", "s"),
    ("reports.report_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace_overhead", "ratio"),
)
PER_LAYER = tuple(
    ("%s.%s" % (fn, field), "count" if field == "calls" else "s")
    for fn, fields in SPAN_METRICS
    for field in fields
) + EXTRA_LAYER


class Worker:
    """One fresh worker process running one job."""

    def __init__(self, root, workdir, seq, requests, trace):
        self.out_path = os.path.join(workdir, "worker-%d.json" % seq)
        self.err_path = os.path.join(workdir, "worker-%d.err" % seq)
        job = json.dumps({"requests": requests, "trace": bool(trace)})
        # workers may cache bytecode in the checkout, as an installed package
        # has it, so set-up time does not depend on the caller's environment
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = os.path.join(root, "src")
        rfd, wfd = os.pipe()
        with open(self.err_path, "wb") as err:
            self.t_spawn = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, WORKER, str(wfd), self.out_path, job],
                pass_fds=(wfd,), env=env, cwd=root,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        os.close(wfd)
        self.rfd = rfd

    def finish(self, timeout):
        """Wait for ready and for exit; reap with wait4 for this worker's
        own rusage. Returns a dict of timings, resources and results."""
        deadline = time.perf_counter() + timeout
        setup = None
        timed_out = False
        try:
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([self.rfd], [], [], left)[0]:
                    timed_out = True
                    self.proc.kill()
                    break
                if not os.read(self.rfd, 1):
                    break  # end of file: the worker has exited
                setup = time.perf_counter() - self.t_spawn
        finally:
            os.close(self.rfd)
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        results = None
        spans, counters = [], {}
        if not timed_out and self.proc.returncode == 0:
            with open(self.out_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            results = doc["results"]
            spans, counters = doc.get("spans", []), doc.get("counters", {})
        with open(self.err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        for path in (self.out_path, self.err_path):
            if os.path.exists(path):
                os.remove(path)
        return {
            "setup_s": setup,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0,
            "exit": self.proc.returncode,
            "timed_out": timed_out,
            "results": results,
            "stderr_tail": stderr[-400:],
            "spans": spans,
            "counters": counters,
        }


class Runner:
    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.seq = 0
        self.deadline = time.perf_counter() + HARD_DEADLINE_S

    def job(self, requests, trace):
        self.seq += 1
        w = Worker(self.root, self.workdir, self.seq, requests, trace)
        left = self.deadline - time.perf_counter()
        return w.finish(max(1.0, min(REQUEST_TIMEOUT_S * max(1, len(requests)), left)))

    def run_pass(self, workload, trace):
        """One pass: every job of the workload, one after another."""
        t0 = time.perf_counter()
        workers, requests = [], []
        for job in workload.jobs():
            out = self.job(job, trace)
            workers.append(out)
            results = out["results"] or [None] * len(job)
            for req, res in zip(job, results):
                if res is None:
                    why = "timed out" if out["timed_out"] else "worker exit %d: %s" % (out["exit"], out["stderr_tail"])
                elif res["error"] is not None:
                    why = res["error"]
                else:
                    try:
                        why = workload.check(req, res["rc"], res["output"])
                    except (ValueError, KeyError, TypeError) as exc:  # malformed output
                        why = "unreadable output: %s: %s" % (type(exc).__name__, exc)
                requests.append({
                    "id": request_id(req),
                    "seconds": res["seconds"] if res else None,
                    "report_bytes": len(res["output"]) if res and isinstance(res["output"], str) else 0,
                    "error": why,
                })
        wall = time.perf_counter() - t0
        times = [r["seconds"] for r in requests if r["seconds"] is not None]
        return {
            "trace": trace,
            "run_s": wall,
            "slowest_request_s": max(times) if times else wall,
            "cpu_s": sum(w["cpu_s"] for w in workers),
            "peak_rss_mb": max(w["rss_mb"] for w in workers),
            "setup_samples": [w["setup_s"] for w in workers if w["setup_s"] is not None],
            "requests": requests,
            "layer": layer_metrics(workers, requests) if trace else None,
        }


def layer_metrics(workers, requests):
    agg = aggregate(s for w in workers for s in w["spans"])
    counters = {}
    for w in workers:
        for k, v in w["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k in MAX_COUNTERS else counters.get(k, 0) + v
    out = {}
    for fn, fields in SPAN_METRICS:
        row = agg.get(fn, {"calls": 0, "self_s": 0.0})
        for field in fields:
            out["%s.%s" % (fn, field)] = row[field]
    out.update(counters)
    products = counters.get("series.qs_mul.coef_products", 0)
    mul_self = agg.get("series.qs_mul", {}).get("self_s", 0.0)
    out["series.qs_mul.ns_per_product"] = mul_self / products * 1e9 if products else 0.0
    attempts = agg.get("family.estar_family_classical", {}).get("calls", 0)
    calls = agg.get("family.estar_family", {}).get("calls", 0)
    out["family.construction_yield"] = calls / attempts if attempts else 0.0
    for layer in ("reports", "cli"):
        out["%s.self_s" % layer] = sum(r["self_s"] for k, r in agg.items() if k.startswith(layer + "."))
    out["reports.report_bytes"] = sum(r["report_bytes"] for r in requests)
    total = sum(r["seconds"] or 0.0 for r in requests) or 1.0
    for field in ("self_s", "incl_s"):
        top = sorted(((r[field] / total, k) for k, r in agg.items()), reverse=True)
        out["_share_" + field] = top[:6]
    return out


def metadata(root):
    import katzexp._rational

    src = os.path.join(root, "src")
    lines = 0
    for dirpath, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "backend": "gmpy2" if katzexp._rational._HAVE_GMPY2 else "fractions",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": lines,
    }


def run_workload(runner, name, seed, seconds, trace):
    t0 = time.perf_counter()
    workload = Workload(name, seed, runner.workdir)
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            out = runner.job([], False)
            if out["setup_s"] is not None:
                setup.append(out["setup_s"])
    # A traced run alternates untraced and traced passes, at least one each.
    # No pass starts that would be expected to end past --seconds.
    passes = []
    limit = min(seconds, RUN_CAP_S)
    while len(passes) < (2 if trace else 1) or (
        time.perf_counter() - t0 + _median([p["run_s"] for p in passes]) <= limit
    ):
        passes.append(runner.run_pass(workload, bool(trace) and len(passes) % 2 == 1))
    return summarize(name, passes, setup, trace)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _trimmed_mean(xs):
    """Mean of the passes without the fastest and slowest tenth. The shared
    host switches between a fast and a slow speed in phases of seconds, so
    the passes of one run come in two clusters; the median then jumps from
    one cluster to the other as their shares change from run to run, while
    the mean moves only in proportion."""
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut]) if xs else 0.0


def summarize(name, passes, setup, trace):
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    attempted = sum(len(p["requests"]) for p in passes)
    failures = [r for p in passes for r in p["requests"] if r["error"] is not None]
    setup = setup + [s for p in plain for s in p["setup_samples"]]
    metrics, counts = {}, {}
    if not trace:
        for key, unit in END_TO_END:
            if key == "setup_s":
                vals, stat = setup, _median
            else:
                vals, stat = [p[key] for p in plain], _trimmed_mean
            metrics[key] = {"value": stat(vals), "unit": unit}
            counts[key] = len(vals)
    else:
        for key, unit in PER_LAYER:
            if key == "trace_overhead":
                base = _median([p["run_s"] for p in plain])
                val = _median([p["run_s"] for p in traced]) / base if base else 0.0
                n = len(traced)
            else:
                vals = [p["layer"][key] for p in traced]
                val, n = _median(vals), len(vals)
            metrics[key] = {"value": val, "unit": unit}
            counts[key] = n
    return {
        "workload": name,
        "trace": bool(trace),
        "attempted": attempted,
        "failed": len(failures),
        "failures": [{"id": r["id"], "error": r["error"]} for r in failures[:20]],
        "metrics": metrics,
        "samples": counts,
        "passes": passes,
    }


def print_summary(summary):
    name = summary["workload"]
    n_fail, n_att = summary["failed"], summary["attempted"]
    print("[%s] fail_frac %.4f (%d failed / %d attempted requests)" % (name, n_fail / n_att if n_att else 1.0, n_fail, n_att))
    for failure in summary["failures"]:
        print("[%s]   FAILED %s: %s" % (name, failure["id"], failure["error"]))
    for key, m in summary["metrics"].items():
        how = "trimmed mean" if not summary["trace"] and key != "setup_s" else "median"
        print("[%s] %-34s %14.6g %-6s (%s of %d)" % (name, key, m["value"], m["unit"], how, summary["samples"][key]))
    if summary["trace"]:
        traced = [p for p in summary["passes"] if p["trace"]]
        for field, label in (("self_s", "self"), ("incl_s", "inclusive")):
            shares = ", ".join("%s %.0f%%" % (k, 100 * s) for s, k in traced[0]["layer"]["_share_" + field])
            print("[%s] %s share of request time: %s" % (name, label, shares))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "katzexp", "__init__.py")):
        print("error: run from a katzexp checkout; ./src/katzexp is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOADS):
        print("error: unknown workload %r; choose from %s or all" % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", "work")
    resdir = os.path.join(root, ".perfbench", "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(resdir, exist_ok=True)
    meta = metadata(root)
    print("meta %s" % json.dumps(meta, sort_keys=True))
    summaries = []
    for name in names:
        summary = run_workload(Runner(root, workdir), name, args.seed, args.seconds, args.trace)
        summary["meta"] = dict(meta, seed=args.seed, seconds=args.seconds)
        path = os.path.join(resdir, "%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        print_summary(summary)
        summaries.append(summary)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {"%s.%s" % (s["workload"], k): v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
