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

With `--parent REV` (say `--parent HEAD^`) it also extracts `git archive
REV` into a temporary directory, byte-compiles the src/ of both trees, and
runs every cold timing alternately there and in the checkout, the two
trees taking turns to go first. Beside each `<name>` it then records `<name>_parent`,
the parent tree's median, and `<name>_ratio`, the checkout's median over
the parent's, and it records `parent_commit`. A ratio compares the two
trees on the host's phase at that moment, which a timing alone cannot.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
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


def wall_s(argv, env=None) -> float:
    """Wall time of one fresh process of argv, output discarded."""
    started = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


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


def cold_times(parent=None) -> dict:
    """The median wall time of each entry of COLD_TIMINGS, by name. Given
    the root of a parent tree, each entry's runs alternate between it and
    the checkout, the parent first on even runs, and <name>_parent and
    <name>_ratio (checkout over parent) join <name>."""
    roots = ["."] if parent is None else [parent, "."]
    times = {}
    for name, (args, runs, src) in COLD_TIMINGS.items():
        envs = {root: dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(root, "src")))
                if src else None for root in roots}
        samples = {root: [] for root in roots}
        for run in range(runs):
            for root in roots if run % 2 == 0 else roots[::-1]:
                samples[root].append(wall_s([sys.executable, *args], envs[root]))
        times[name] = statistics.median(samples["."])
        if parent is not None:
            times[name + "_parent"] = statistics.median(samples[parent])
            times[name + "_ratio"] = times[name] / times[name + "_parent"]
    return times


def extract_tree(rev: str, root: str) -> str:
    """Write the tree of git revision rev into root and return root."""
    tar = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", root], input=tar, check=True)
    return root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", metavar="REV",
                        help="also time each cold command in git archive REV, alternating")
    args = parser.parse_args(argv)
    parent_commit = args.parent and subprocess.run(
        ["git", "rev-parse", "--verify", args.parent + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(args.seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode
    snapshot = dict(pr=args.pr, seed=args.seed, seconds=seconds, **parse_run_output(proc.stdout))
    if parent_commit:
        with tempfile.TemporaryDirectory() as tmp:
            parent = extract_tree(parent_commit, tmp)
            # bytecode in both trees, or a ratio would time compilation
            for root in (parent, "."):
                compileall.compile_dir(os.path.join(root, "src"), quiet=1)
            snapshot.update(cold_times(parent), parent_commit=parent_commit)
    else:
        snapshot.update(cold_times())
    snapshot.update(src_lines_by_module=src_lines_by_module())
    path = os.path.join(os.getcwd(), "BENCH_%d.json" % args.pr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
