"""Write one BENCH_<pr>.json: the end-to-end perfbench metrics of every
workload, with the machine and the source they were measured on.

Run from the root of a checkout, on a committed tree so that the recorded
commit is the code that was measured:

    python3 tools/bench_snapshot.py --pr 6 --seed 1

It runs `python3 perfbench/run.py --workload all --seed S --seconds T`, with
T the `run_seconds` of BENCHMARK.json, and reads two lines of its output:
the `meta` line (backend, Python version, CPU count, commit, src/ lines) and
the final JSON line (the `<workload>.<metric>` values). It also records the
cold start: `bare_start_s`, the median wall time of 11 fresh `python -c pass`
processes, and `import_s`, that of `python -c "import katzexp, katzexp.cli"`
with PYTHONPATH=src. Beyond perfbench's p = 13, `condition_29_s` is the
median wall time of 3 cold `python -m katzexp.cli check-condition --prime 29`
runs, and `extended_37_jobs2_s` that of 3 cold `check-condition --extended
--prime 37 --jobs 2` runs, the pooled sweep that no perfbench workload runs.
Beyond perfbench's chain to n = 30, `chain_7_60_s` is the median wall time
of 3 cold processes that compute `phi_image(60, 7)`, the Newton chain
behind the Tier-1 scaled-chain test. `src_lines_by_module` splits perfbench's
`src_lines` by file, so the trajectory shows where lines went.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_run_output(text: str) -> dict:
    """The snapshot fields from perfbench/run.py's output: its `meta` line
    and, from its last line, the request counts and each metric's value."""
    lines = [line for line in text.splitlines() if line.strip()]
    metas = [line for line in lines if line.startswith("meta ")]
    if not metas or not lines[-1].startswith("{"):
        raise ValueError("perfbench output lacks its meta line or final JSON line")
    final = json.loads(lines[-1])
    snapshot = json.loads(metas[0][len("meta "):])
    snapshot.update(
        correct=final["correct"],
        attempted=final["attempted"],
        failed=final["failed"],
        metrics={name: m["value"] for name, m in final["metrics"].items()},
    )
    return snapshot


def src_lines_by_module(root: str = "src") -> dict:
    """The newline count of each .py file under root, keyed by its path
    relative to root with / separators, counted as perfbench counts src_lines."""
    counts = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    counts[os.path.relpath(path, root).replace(os.sep, "/")] = fh.read().count(b"\n")
    return dict(sorted(counts.items()))


def median_wall_s(argv, runs: int, env=None) -> float:
    """Median wall time of `runs` fresh processes of argv, output discarded."""
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def median_start_s(code: str, runs: int = 11, env=None) -> float:
    """Median wall time of `runs` fresh `python -c code` processes."""
    return median_wall_s([sys.executable, "-c", code], runs, env)


def _src_env():
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"))


def startup_times(runs: int = 11) -> dict:
    """The bare interpreter's start-up and that plus the package import."""
    return {
        "bare_start_s": median_start_s("pass", runs),
        "import_s": median_start_s("import katzexp, katzexp.cli", runs, _src_env()),
    }


def condition_29_s(runs: int = 3) -> float:
    """Median wall time of cold `check-condition --prime 29` CLI runs."""
    argv = [sys.executable, "-m", "katzexp.cli", "check-condition", "--prime", "29"]
    return median_wall_s(argv, runs, _src_env())


def extended_37_jobs2_s(runs: int = 3) -> float:
    """Median wall time of cold `check-condition --extended --prime 37 --jobs 2`
    CLI runs: every prime 5..37, two worker processes."""
    argv = [sys.executable, "-m", "katzexp.cli", "check-condition", "--extended",
            "--prime", "37", "--jobs", "2"]
    return median_wall_s(argv, runs, _src_env())


def chain_7_60_s(runs: int = 3) -> float:
    """Median wall time of cold processes that build the p = 7 Newton chain
    to n = 60 and scale y_60."""
    return median_start_s("from katzexp import phi_image; phi_image(60, 7)", runs, _src_env())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(args.seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode
    snapshot = dict(pr=args.pr, seed=args.seed, seconds=seconds, **parse_run_output(proc.stdout))
    snapshot.update(startup_times(), src_lines_by_module=src_lines_by_module(),
                    condition_29_s=condition_29_s(),
                    extended_37_jobs2_s=extended_37_jobs2_s(), chain_7_60_s=chain_7_60_s())
    path = os.path.join(os.getcwd(), "BENCH_%d.json" % args.pr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
