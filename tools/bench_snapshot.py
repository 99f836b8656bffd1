"""Write one BENCH_<pr>.json: the end-to-end perfbench metrics of every
workload, with the machine and the source they were measured on.

Run from the root of a checkout, on a committed tree so that the recorded
commit is the code that was measured:

    python3 tools/bench_snapshot.py --pr 6 --seed 1

It runs `python3 perfbench/run.py --workload all --seed S --seconds T`, with
T the `run_seconds` of BENCHMARK.json, and reads two lines of its output:
the `meta` line (backend, Python version, CPU count, commit, src/ lines) and
the final JSON line (the `<workload>.<metric>` values). It also records the
median wall time of the cold processes in COLD_TIMINGS: `bare_start_s`, a
bare `python -c pass`, and `import_s`, `import katzexp, katzexp.cli` with
PYTHONPATH=src (11 runs each); and 3 runs each of work beyond perfbench's:
`condition_29_s`, `check-condition --prime 29` (perfbench stops at
p = 13); `extended_37_jobs2_s`, `check-condition --extended --prime 37
--jobs 2`, the pooled sweep that no perfbench workload runs;
`chain_7_60_s`, `phi_image(60, 7)`, the Newton chain behind the Tier-1
scaled-chain test (perfbench stops at n = 30); and `theorem_f_pprec8_s`,
`verify-theorem --id F --prime 5 --s 1 --max-index 21 --pprec 8`, the family
member at classical-limit weight 1,171,876 (perfbench stops at weight
1,090). `src_lines_by_module` splits perfbench's `src_lines` by file, so
the trajectory shows where lines went.
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


# name -> (python arguments, run count, whether PYTHONPATH=src is set)
COLD_TIMINGS = {
    "bare_start_s": (["-c", "pass"], 11, False),
    "import_s": (["-c", "import katzexp, katzexp.cli"], 11, True),
    "condition_29_s": (["-m", "katzexp.cli", "check-condition", "--prime", "29"], 3, True),
    "extended_37_jobs2_s": (["-m", "katzexp.cli", "check-condition", "--extended",
                             "--prime", "37", "--jobs", "2"], 3, True),
    "chain_7_60_s": (["-c", "from katzexp import phi_image; phi_image(60, 7)"], 3, True),
    "theorem_f_pprec8_s": (["-m", "katzexp.cli", "verify-theorem", "--id", "F", "--prime", "5",
                            "--s", "1", "--max-index", "21", "--pprec", "8"], 3, True),
}


def cold_times() -> dict:
    """The median wall time of each entry of COLD_TIMINGS, by name."""
    src_env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    return {name: median_wall_s([sys.executable, *args], runs, src_env if src else None)
            for name, (args, runs, src) in COLD_TIMINGS.items()}


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
    snapshot.update(cold_times(), src_lines_by_module=src_lines_by_module())
    path = os.path.join(os.getcwd(), "BENCH_%d.json" % args.pr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
