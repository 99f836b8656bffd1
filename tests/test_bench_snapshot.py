"""The BENCH snapshot tool: its parser on canned perfbench output (perfbench
itself is never run here), its line count per source file (on a temporary
tree), its timer of fresh processes (on `pass` and on a failing command), each
entry of its table of cold timings against the commands earlier BENCH
files recorded (on a stubbed runner: no sweep or chain runs here), the
alternation of a parent tree with the checkout and the fields it adds (on a
stubbed timer), the extraction of a parent tree (from a throwaway git
repository) and, in real processes once each, its two start-up timings."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_snapshot.py")
_spec = importlib.util.spec_from_file_location("bench_snapshot", _PATH)
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)

META = {"backend": "fractions", "commit": "abc123", "nproc": 2, "python": "3.11.7", "src_lines": 2583}
FINAL = {
    "correct": True,
    "attempted": 42,
    "failed": 0,
    "metrics": {
        "family.run_s": {"value": 0.61, "unit": "s"},
        "condition.peak_rss_mb": {"value": 22.5, "unit": "MB"},
    },
}


def test_parse_run_output_reads_meta_and_final_line():
    text = "meta %s\n%s\n" % (json.dumps(META, sort_keys=True), json.dumps(FINAL))
    got = bench_snapshot.parse_run_output(text)
    assert got == dict(
        META,
        correct=True,
        attempted=42,
        failed=0,
        metrics={"condition.peak_rss_mb": 22.5, "family.run_s": 0.61},
    )


def test_parse_run_output_rejects_output_without_meta():
    with pytest.raises(ValueError):
        bench_snapshot.parse_run_output(json.dumps(FINAL) + "\n")


def test_src_lines_by_module_counts_each_python_file(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (pkg / "sub" / "b.py").write_text("w = 4\nlast = 5")  # no final newline
    (pkg / "notes.txt").write_text("not\ncode\n")
    got = bench_snapshot.src_lines_by_module(str(tmp_path / "src"))
    assert got == {"pkg/__init__.py": 0, "pkg/a.py": 3, "pkg/sub/b.py": 1}
    assert list(got) == sorted(got)


def test_wall_s_times_a_fresh_process():
    assert bench_snapshot.wall_s([sys.executable, "-c", "pass"]) > 0
    with pytest.raises(subprocess.CalledProcessError):
        bench_snapshot.wall_s([sys.executable, "-c", "raise SystemExit(1)"])


# each cold timing as earlier BENCH files recorded it: name -> (python
# arguments, run count, whether PYTHONPATH=src is set)
EXPECTED = {
    "bare_start_s": (["-c", "pass"], 11, False),
    "import_s": (["-c", "import katzexp, katzexp.cli"], 11, True),
    "condition_29_s": (["-m", "katzexp.cli", "check-condition", "--prime", "29"], 3, True),
    "extended_37_jobs2_s": (["-m", "katzexp.cli", "check-condition", "--extended",
                             "--prime", "37", "--jobs", "2"], 3, True),
    "chain_7_60_s": (["-c", "from katzexp import phi_image; phi_image(60, 7)"], 3, True),
    "theorem_f_pprec8_s": (["-m", "katzexp.cli", "verify-theorem", "--id", "F", "--prime", "5",
                            "--s", "1", "--max-index", "21", "--pprec", "8"], 3, True),
    "examples_s": (["-m", "katzexp.cli", "reproduce-examples"], 11, True),
}


def test_cold_timings_are_the_recorded_commands():
    assert bench_snapshot.COLD_TIMINGS == EXPECTED


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cold_times_run_each_entry_in_fresh_processes(monkeypatch, name):
    calls = []

    def stub_run(argv, env=None, check=False, stdout=None, stderr=None):
        calls.append((argv, env and env["PYTHONPATH"], check, stdout, stderr))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(bench_snapshot.subprocess, "run", stub_run)
    monkeypatch.setattr(bench_snapshot, "COLD_TIMINGS",
                        {name: bench_snapshot.COLD_TIMINGS[name]})
    times = bench_snapshot.cold_times()
    assert list(times) == [name] and times[name] >= 0
    args, runs, src = EXPECTED[name]
    pythonpath = os.path.abspath("src") if src else None
    want = ([sys.executable, *args], pythonpath, True, subprocess.DEVNULL, subprocess.DEVNULL)
    assert calls == [want] * runs


def test_startup_times_time_the_bare_interpreter_and_the_package_import(monkeypatch):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    startup = {name: (args, 1, src) for name, (args, _runs, src)
               in bench_snapshot.COLD_TIMINGS.items() if name in ("bare_start_s", "import_s")}
    monkeypatch.setattr(bench_snapshot, "COLD_TIMINGS", startup)
    times = bench_snapshot.cold_times()
    assert sorted(times) == ["bare_start_s", "import_s"]
    assert all(t > 0 for t in times.values())


def test_cold_times_alternate_the_parent_tree_with_the_checkout(monkeypatch, tmp_path):
    parent_src, checkout_src = str(tmp_path / "src"), os.path.abspath("src")
    calls = []

    def stub_wall_s(argv, env=None):
        calls.append((argv, env and env["PYTHONPATH"]))
        return 2.0 if env and env["PYTHONPATH"] == parent_src else 1.0

    monkeypatch.setattr(bench_snapshot, "wall_s", stub_wall_s)
    monkeypatch.setattr(bench_snapshot, "COLD_TIMINGS", {
        "condition_29_s": EXPECTED["condition_29_s"],
        "bare_start_s": (["-c", "pass"], 2, False),
    })
    times = bench_snapshot.cold_times(str(tmp_path))
    condition = [sys.executable, *EXPECTED["condition_29_s"][0]]
    # the parent goes first on even runs, the checkout on odd ones
    assert calls == [(condition, parent_src), (condition, checkout_src),
                     (condition, checkout_src), (condition, parent_src),
                     (condition, parent_src), (condition, checkout_src)] + [
        ([sys.executable, "-c", "pass"], None)] * 4
    assert times == {
        "condition_29_s": 1.0, "condition_29_s_parent": 2.0, "condition_29_s_ratio": 0.5,
        "bare_start_s": 1.0, "bare_start_s_parent": 1.0, "bare_start_s_ratio": 1.0,
    }


def test_extract_tree_writes_the_committed_tree(monkeypatch, tmp_path):
    repo, parent = tmp_path / "repo", tmp_path / "parent"
    (repo / "src" / "pkg").mkdir(parents=True)
    parent.mkdir()
    (repo / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    monkeypatch.chdir(repo)
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "src"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "src" / "pkg" / "mod.py").write_text("x = 2\n")  # not committed
    assert bench_snapshot.extract_tree("HEAD", str(parent)) == str(parent)
    assert (parent / "src" / "pkg" / "mod.py").read_text() == "x = 1\n"


def test_a_snapshot_compiles_src_before_its_cold_timings(monkeypatch, tmp_path):
    """Without --parent too, the checkout's src/ is compiled before the
    perfbench run and before any cold timing, so that neither perfbench's
    workers nor the cold timings compile the package."""
    events = []
    output = "meta %s\n%s\n" % (json.dumps(META), json.dumps(FINAL))

    def stub_run(argv, **kw):
        events.append(("perfbench", argv[1]))
        return subprocess.CompletedProcess(argv, 0, output, "")

    def stub_cold_times(parent=None):
        events.append(("time", parent))
        return {"bare_start_s": 0.05}

    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    monkeypatch.setattr(bench_snapshot.subprocess, "run", stub_run)
    monkeypatch.setattr(bench_snapshot.compileall, "compile_dir",
                        lambda root, quiet=0: events.append(("compile", root)))
    monkeypatch.setattr(bench_snapshot, "cold_times", stub_cold_times)
    assert bench_snapshot.main(["--pr", "7"]) == 0
    assert events == [("compile", "src"), ("perfbench", "perfbench/run.py"), ("time", None)]
    snapshot = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert snapshot["bare_start_s"] == 0.05 and snapshot["pr"] == 7
