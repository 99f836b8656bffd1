"""The BENCH snapshot tool: its parser on canned perfbench output (perfbench
itself is never run here), its line count per source file (on a temporary
tree), its start-up timer and its condition and chain timers (on a stubbed
runner: no sweep or chain runs here)."""

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


def test_median_start_s_times_fresh_processes():
    assert bench_snapshot.median_start_s("pass", runs=3) > 0
    with pytest.raises(subprocess.CalledProcessError):
        bench_snapshot.median_start_s("raise SystemExit(1)", runs=1)


def test_startup_times_time_the_bare_interpreter_and_the_package_import(monkeypatch):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), os.pardir))
    times = bench_snapshot.startup_times(runs=1)
    assert sorted(times) == ["bare_start_s", "import_s"]
    assert all(t > 0 for t in times.values())


def _stub_runs(monkeypatch):
    """The calls that median_wall_s makes, recorded instead of run."""
    calls = []

    def stub_run(argv, env=None, check=False, stdout=None, stderr=None):
        calls.append((argv, env["PYTHONPATH"], check, stdout, stderr))
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(bench_snapshot.subprocess, "run", stub_run)
    return calls


def test_condition_29_s_times_three_cold_cli_runs(monkeypatch):
    calls = _stub_runs(monkeypatch)
    assert bench_snapshot.condition_29_s() >= 0
    argv = [sys.executable, "-m", "katzexp.cli", "check-condition", "--prime", "29"]
    src = os.path.abspath("src")
    assert calls == [(argv, src, True, subprocess.DEVNULL, subprocess.DEVNULL)] * 3


def test_extended_37_jobs2_s_times_three_cold_pooled_cli_runs(monkeypatch):
    calls = _stub_runs(monkeypatch)
    assert bench_snapshot.extended_37_jobs2_s() >= 0
    argv = [sys.executable, "-m", "katzexp.cli", "check-condition", "--extended",
            "--prime", "37", "--jobs", "2"]
    src = os.path.abspath("src")
    assert calls == [(argv, src, True, subprocess.DEVNULL, subprocess.DEVNULL)] * 3


def test_chain_7_60_s_times_three_cold_phi_image_runs(monkeypatch):
    calls = _stub_runs(monkeypatch)
    assert bench_snapshot.chain_7_60_s() >= 0
    argv = [sys.executable, "-c", "from katzexp import phi_image; phi_image(60, 7)"]
    src = os.path.abspath("src")
    assert calls == [(argv, src, True, subprocess.DEVNULL, subprocess.DEVNULL)] * 3
