"""Report commands and the CLI wrapper.

The command layer is where certified claims, sharpness witnesses, and
published-value comparisons meet, so these tests pin the exact JSON shape,
the aggregate status rules, the reload revalidation, and the process exit
codes.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import re
import subprocess
import sys
import time

import pytest

from katzexp import (
    cmd_check_condition,
    cmd_check_condition_extended,
    cmd_hauptmodul,
    cmd_katz,
    cmd_reproduce_examples,
    cmd_verify_theorem,
    eis_ratio,
    qprec_for_split,
    qs_to_json,
    revalidate_report,
)
from katzexp.errors import (
    InvalidWeight,
    KatzexpError,
    ResourceBudgetExceeded,
    UnsupportedPrime,
)
from katzexp.reports import aggregate_status
from katzexp import cli, reports

T_VALS_24 = ["0", "1", "1", "3", "3", "4", "4", "5", "5", "6", "4"]


def strip_wall_time(payload: str) -> str:
    return re.sub(r'"wall_time": [0-9.e+-]+', '"wall_time": 0', payload)


def claims(report):
    return [e for e in report.results if e.get("role") == "claim"]


def witnesses(report):
    return [e for e in report.results if e.get("role") == "witness"]


# -- reproduce-examples -----------------------------------------------------


def test_reproduce_examples_certified():
    r = cmd_reproduce_examples()
    assert r.status == "certified"
    assert r.command == "reproduce-examples"
    by_label = {e["label"]: e for e in r.results}
    b3 = by_label["window coordinate of b_3"]
    assert b3["computed"] == "-340364160000/236364091"
    assert b3["matches"]
    b6 = by_label["window coordinate of b_6"]
    assert b6["computed"] == "30710845440000/236364091"
    assert b6["matches"]
    vals = by_label["valuations v_5(b_3), v_5(b_6)"]
    assert vals["computed"] == ["4", "4"]


def test_reproduce_examples_negative_findings():
    r = cmd_reproduce_examples()
    sharp = [e for e in witnesses(r) if "no offset" in e["label"]]
    assert len(sharp) == 1
    assert sharp[0]["certificate"]["first_failure"] == 6
    assert sharp[0]["expected"] == {"first_failure": 6}
    assert sharp[0]["matches_expected"]
    by_label = {e["label"]: e for e in r.results}
    hm = by_label["hauptmodul valuations of V(E_24)/E_24"]
    assert hm["computed"] == T_VALS_24
    assert hm["matches"]
    viol = by_label["first hauptmodul floor violation at rate 1/6"]
    assert viol["computed"] == 10


def test_reports_serialize_deterministically():
    a = strip_wall_time(cmd_reproduce_examples().dumps())
    b = strip_wall_time(cmd_reproduce_examples().dumps())
    assert a == b


def test_report_revalidates_after_json_round_trip():
    r = cmd_reproduce_examples()
    reloaded = json.loads(r.dumps())
    assert revalidate_report(reloaded)


def test_revalidation_catches_tampering():
    base = json.loads(cmd_reproduce_examples().dumps())
    cert_entries = [
        i for i, e in enumerate(base["results"]) if e["kind"] == "certificate"
    ]
    idx = cert_entries[0]

    doctored = copy.deepcopy(base)
    doctored["results"][idx]["valuations"][3][1] = "0"
    assert not revalidate_report(doctored)

    doctored = copy.deepcopy(base)
    doctored["results"][idx]["certificate"]["verdicts"][6] = "pass"
    assert not revalidate_report(doctored)

    doctored = copy.deepcopy(base)
    doctored["results"][idx]["certificate"]["first_failure"] = None
    assert not revalidate_report(doctored)

    # fields derived from others are re-derived by the rules that wrote them
    doctored = copy.deepcopy(base)
    doctored["status"] = "failed"
    assert not revalidate_report(doctored)

    doctored = copy.deepcopy(base)
    comparison = next(e for e in doctored["results"] if e["kind"] == "comparison")
    comparison["computed"] = "bogus"
    assert not revalidate_report(doctored)

    doctored = copy.deepcopy(base)
    pinned = next(e for e in doctored["results"] if "matches_expected" in e)
    pinned["matches_expected"] = False
    assert not revalidate_report(doctored)


# -- check-condition --------------------------------------------------------


def test_check_condition_p5():
    r = cmd_check_condition(5)
    assert r.status == "certified"
    assert [e["label"] for e in r.results] == ["n=%d" % n for n in range(1, 6)]
    for n, entry in enumerate(r.results, start=1):
        cert = entry["certificate"]
        assert cert["rho"] == "5/6"
        assert cert["verdicts"] == ["pass"] * (n + 1)
    assert r.provenance == {
        "qprec": qprec_for_split(5, 5),
        "pprec": "inf",
        "max_index": 5,
    }
    assert revalidate_report(r)


def test_check_condition_parallel_matches_serial():
    serial = strip_wall_time(cmd_check_condition(7).dumps())
    parallel = strip_wall_time(cmd_check_condition(7, jobs=2).dumps())
    assert serial == parallel


def test_check_condition_rejects_bad_prime():
    with pytest.raises(UnsupportedPrime):
        cmd_check_condition(4)
    with pytest.raises(UnsupportedPrime):
        cmd_check_condition(3)


def test_check_condition_budget():
    with pytest.raises(ResourceBudgetExceeded):
        cmd_check_condition(13, budget_seconds=1e-9)
    with pytest.raises(ResourceBudgetExceeded):
        cmd_check_condition_extended(13, budget_seconds=1e-9)


def test_check_condition_parallel_budget_does_not_wait_for_the_sweep():
    """A parallel overrun raises as the first entry arrives and stops the
    workers; the whole p = 23 sweep takes tens of seconds."""
    started = time.perf_counter()
    with pytest.raises(ResourceBudgetExceeded):
        cmd_check_condition(23, jobs=2, budget_seconds=1e-9)
    assert time.perf_counter() - started < 5
    assert multiprocessing.active_children() == []


class RecordingSerialContext:
    """Stands in for the spawn context: records each pool size, maps serially."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def imap(self, fn, items):
        return map(fn, items)

    def terminate(self):
        pass


def test_check_condition_pool_never_outnumbers_the_targets(monkeypatch):
    ctx = RecordingSerialContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    serial = strip_wall_time(cmd_check_condition(5).dumps())
    assert strip_wall_time(cmd_check_condition(5, jobs=64).dumps()) == serial
    assert ctx.sizes == [5]
    # a pool of one would be a serial run in a second process
    assert len(reports._condition_sweep([(1, 5, "n=1")], 4, None, time.perf_counter())) == 1
    assert ctx.sizes == [5]


def test_check_condition_extended_small_range():
    r = cmd_check_condition_extended(7)
    assert r.status == "certified"
    labels = [e["label"] for e in r.results]
    assert labels[:2] == ["p=5, n=1", "p=5, n=2"]
    assert labels[-1] == "p=7, n=7"
    assert len(labels) == 5 + 7
    assert r.parameters == {"extended": True, "max_prime": 7}
    assert revalidate_report(r)


# -- verify-theorem ---------------------------------------------------------


def test_theorem_b_weight_24():
    r = cmd_verify_theorem("B", 5, 30, k=24)
    assert r.status == "certified"
    assert all(e["certificate"]["first_failure"] is None for e in claims(r))
    rates = {e["certificate"]["rho"]: e["certificate"]["c"] for e in claims(r)}
    assert rates == {"1/6": "1", "1/9": "0"}

    sharp = [e for e in witnesses(r) if e["kind"] == "certificate"]
    assert len(sharp) == 1
    assert sharp[0]["certificate"]["first_failure"] == 30

    hm = [e for e in witnesses(r) if e["kind"] == "hauptmodul"]
    assert len(hm) == 1
    assert hm[0]["valuations"] == T_VALS_24
    assert hm[0]["first_floor_violation"] == 10
    assert revalidate_report(r)


def test_theorem_b_rejects_bad_weight():
    with pytest.raises(InvalidWeight):
        cmd_verify_theorem("B", 5, 10, k=26)
    with pytest.raises(ValueError):
        cmd_verify_theorem("B", 5, 10)


def test_theorem_c_index_6():
    r = cmd_verify_theorem("C", 5, 6, n=6)
    assert r.status == "certified"
    assert len(claims(r)) == 4
    assert all(e["certificate"]["first_failure"] is None for e in claims(r))
    labels = [e["label"] for e in claims(r)]
    assert sum("e_6," in lab for lab in labels) == 2
    assert sum("e*_6" in lab for lab in labels) == 2
    sharp = witnesses(r)
    assert len(sharp) == 1
    assert sharp[0]["certificate"]["first_failure"] == 6


def test_theorem_e_gates():
    r = cmd_verify_theorem("E", 5, 12, k=28)
    assert r.status == "certified"
    assert claims(r)[0]["certificate"]["rho"] == "1/6"

    r = cmd_verify_theorem("E", 5, 7, n=7)
    assert r.status == "certified"
    assert claims(r)[0]["certificate"]["rho"] == "5/6"

    # digit sums 8 and 8 sit at the excluded value
    with pytest.raises(InvalidWeight):
        cmd_verify_theorem("E", 5, 10, k=24)
    with pytest.raises(InvalidWeight):
        cmd_verify_theorem("E", 5, 6, n=6)
    with pytest.raises(ValueError):
        cmd_verify_theorem("E", 5, 6)
    with pytest.raises(ValueError):
        cmd_verify_theorem("E", 5, 6, k=28, n=7)


def test_theorem_f_precision_edge():
    ok = cmd_verify_theorem("F", 5, 21, s=1, pprec=4)
    assert ok.status == "certified"
    assert ok.provenance["pprec"] == "4"

    edge = cmd_verify_theorem("F", 5, 24, s=1, pprec=4)
    assert edge.status == "inconclusive"
    cert = claims(edge)[0]["certificate"]
    assert cert["first_failure"] is None
    assert cert["verdicts"].count("inconclusive") == 1
    assert cert["verdicts"][24] == "inconclusive"

    with pytest.raises(InvalidWeight):
        cmd_verify_theorem("F", 5, 10, s=4)


def test_theorem_a_family():
    r = cmd_verify_theorem("A", 5, 24, pprec=4)
    assert r.status == "certified"
    assert r.parameters["s"] == 1
    assert r.parameters["pprec"] == 4
    rates = {e["certificate"]["rho"]: e["certificate"]["c"] for e in claims(r)}
    assert rates == {"1/6": "1", "1/9": "0"}
    assert revalidate_report(r)


def test_unknown_theorem():
    with pytest.raises(ValueError):
        cmd_verify_theorem("Q", 5, 5)


# -- katz and hauptmodul commands ------------------------------------------


def test_cmd_katz_default_rate_is_sharp():
    e6, _ = eis_ratio(6, 5, 40)
    r = cmd_katz(e6, 5, 6)
    assert r.parameters["rho"] == "5/6"
    assert r.parameters["c"] == "0"
    assert r.status == "failed"
    assert r.results[0]["certificate"]["first_failure"] == 6
    assert r.provenance["qprec"] == 40

    r = cmd_katz(e6, 5, 6, rho="5/6", c=1)
    assert r.status == "certified"


def test_cmd_hauptmodul_vector():
    r = cmd_hauptmodul(5, 24, 11)
    assert r.status == "certified"
    assert r.results[0]["valuations"] == T_VALS_24
    with pytest.raises(InvalidWeight):
        cmd_hauptmodul(5, 7, 4)
    with pytest.raises(UnsupportedPrime):
        cmd_hauptmodul(11, 24, 4)


def test_revalidation_rederives_hauptmodul_floors():
    base = json.loads(cmd_verify_theorem("B", 5, 30, k=24).dumps())
    idx = next(i for i, e in enumerate(base["results"]) if e["kind"] == "hauptmodul")
    assert revalidate_report(base)

    doctored = copy.deepcopy(base)
    doctored["results"][idx]["first_floor_violation"] = None
    assert not revalidate_report(doctored)

    doctored = copy.deepcopy(base)
    doctored["results"][idx]["floor_at_sharp_rate"][4] = "1"
    assert not revalidate_report(doctored)

    # raising the dip at t^10 to the floor moves the first violation
    doctored = copy.deepcopy(base)
    doctored["results"][idx]["valuations"][10] = "9"
    assert not revalidate_report(doctored)

    # a raw vector claims no floor, so it names no violation
    raw = json.loads(cmd_hauptmodul(5, 24, 11).dumps())
    assert revalidate_report(raw)
    raw["results"][0]["first_floor_violation"] = 10
    assert not revalidate_report(raw)


# -- status aggregation -----------------------------------------------------


def fake_cert(role, verdicts, first_failure=None, expected=None):
    entry = {
        "kind": "certificate",
        "label": "x",
        "role": role,
        "certificate": {
            "p": 5,
            "rho": "1/6",
            "c": "0",
            "max_index": len(verdicts) - 1,
            "verdicts": list(verdicts),
            "first_failure": first_failure,
        },
        "valuations": [],
        "pprec": "inf",
    }
    if expected is not None:
        entry["expected"] = expected
        entry["matches_expected"] = all(
            entry["certificate"].get(key) == want for key, want in expected.items()
        )
    return entry


def test_aggregate_status_rules():
    assert aggregate_status([]) == "certified"
    assert aggregate_status([fake_cert("claim", ["pass", "pass"])]) == "certified"
    assert (
        aggregate_status([fake_cert("claim", ["pass", "inconclusive"])])
        == "inconclusive"
    )
    assert (
        aggregate_status([fake_cert("claim", ["pass", "fail"], first_failure=1)])
        == "failed"
    )
    # witness failures are informational unless pinned by an expectation
    assert (
        aggregate_status([fake_cert("witness", ["fail"], first_failure=0)])
        == "certified"
    )
    pinned = fake_cert(
        "witness", ["pass"], first_failure=None, expected={"first_failure": 3}
    )
    assert aggregate_status([pinned]) == "failed"
    met = fake_cert(
        "witness", ["fail"], first_failure=3, expected={"first_failure": 3}
    )
    assert aggregate_status([met]) == "certified"
    bad_comparison = {
        "kind": "comparison",
        "label": "y",
        "role": "claim",
        "computed": "1",
        "published": "2",
        "matches": False,
    }
    assert aggregate_status([bad_comparison]) == "failed"


# -- command line -----------------------------------------------------------


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("target", ["", "missing/report.json"], ids=["directory", "missing-parent"])
def test_cli_unwritable_out_exits_3(tmp_path, capsys, target):
    out_path = tmp_path / target if target else tmp_path
    args = ["verify-theorem", "--id", "B", "--prime", "5", "--k", "24", "--max-index", "3"]
    code, out, err = run_cli(args + ["--out", str(out_path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "target, message",
    [("", "it is a directory"), ("missing/report.json", "its parent is not a directory"),
     ("a_file/report.json", "its parent is not a directory")],
    ids=["directory", "missing-parent", "file-parent"],
)
def test_cli_bad_out_fails_before_the_run(tmp_path, capsys, monkeypatch, target, message):
    runs = []
    monkeypatch.setattr(cli, "_dispatch", runs.append)
    (tmp_path / "a_file").write_text("kept")
    before = sorted(tmp_path.iterdir())
    out_path = tmp_path / target if target else tmp_path
    code, out, err = run_cli(["reproduce-examples", "--out", str(out_path)], capsys)
    assert (code, out, runs) == (3, "", [])
    assert err == "error: cannot write --out %s: %s\n" % (out_path, message)
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "a_file").read_text() == "kept"


def test_cli_out_check_leaves_an_existing_file_alone(tmp_path, capsys, monkeypatch):
    """A writable --out passes the check untouched: a run that fails keeps it."""

    def failing_run(args):
        raise KatzexpError("stub failure")

    monkeypatch.setattr(cli, "_dispatch", failing_run)
    out_file = tmp_path / "report.json"
    out_file.write_text("previous report")
    code, _, err = run_cli(["reproduce-examples", "--out", str(out_file)], capsys)
    assert (code, err) == (3, "error: stub failure\n")
    assert out_file.read_text() == "previous report"


def test_cli_reproduce_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(["reproduce-examples", "--out", str(out_file)], capsys)
    assert code == 0
    assert "certified" in out
    reloaded = json.loads(out_file.read_text())
    assert reloaded["status"] == "certified"
    assert revalidate_report(reloaded)


def test_cli_stdout_json(capsys):
    code, out, _ = run_cli(
        ["verify-theorem", "--id", "C", "--prime", "5", "--n", "6",
         "--max-index", "6"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify-theorem"
    assert report["parameters"]["n"] == 6


def test_cli_exit_failed(tmp_path, capsys):
    e6, _ = eis_ratio(6, 5, 40)
    series_file = tmp_path / "e6.json"
    series_file.write_text(json.dumps(qs_to_json(e6)))
    code, _, _ = run_cli(
        ["katz", "--input", str(series_file), "--prime", "5", "--max-index", "6"],
        capsys,
    )
    assert code == 1
    code, _, _ = run_cli(
        ["katz", "--input", str(series_file), "--prime", "5", "--max-index", "6",
         "--rho", "5/6", "--offset", "1"],
        capsys,
    )
    assert code == 0


def test_cli_exit_inconclusive(capsys):
    code, _, _ = run_cli(
        ["verify-theorem", "--id", "F", "--prime", "5", "--s", "1",
         "--max-index", "24"],
        capsys,
    )
    assert code == 2


def test_cli_theorem_f_at_s_equal_to_p(capsys):
    # s! carries a factor of p, so the Bernoulli step needs a third guard digit
    code, out, err = run_cli(
        ["verify-theorem", "--id", "F", "--prime", "5", "--s", "5",
         "--max-index", "6", "--pprec", "2"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert revalidate_report(json.loads(out))


def test_cli_exit_domain_error(capsys):
    code, _, err = run_cli(
        ["verify-theorem", "--id", "E", "--prime", "5", "--k", "24",
         "--max-index", "10"],
        capsys,
    )
    assert code == 3
    assert "digit sum" in err
    code, _, err = run_cli(["check-condition"], capsys)
    assert code == 3


def test_cli_usage_error_exits_3():
    proc = subprocess.run(
        [sys.executable, "-m", "katzexp.cli", "verify-theorem", "--id", "Z",
         "--prime", "5", "--max-index", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3

    proc = subprocess.run(
        [sys.executable, "-m", "katzexp.cli", "check-condition", "--prime", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "certified"


@pytest.mark.parametrize(
    "content, extra, message",
    [
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--rho", "1/0"], "error:"),
        ({"prec": 2, "coeffs": ["1", "2/0"]}, [], "error:"),
        ({"prec": 2}, [], "error:"),
        (["1", "2"], [], "error:"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--prime", "9"], "error:"),
        ({"prec": [1], "coeffs": ["1"]}, [], "error:"),
        ({"prec": 1.5, "coeffs": ["1"]}, [], "error: prec must be an integer, got 1.5"),
        ({"prec": True, "coeffs": ["1"]}, [], "error: prec must be an integer, got True"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--rho", "3/2"], "error:"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--rho=-1/6"], "error:"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--offset", "-1"], "error:"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--rho", "-1/6"],
         "error: rate rho = -1/6 outside [0, 1]"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--offset", "-1/2"],
         "error: offset c = -1/2 is negative"),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--max-index=-1"],
         "error: max_index must be >= 0, got -1"),
    ],
    ids=["rho-zero-denominator", "coeff-zero-denominator", "no-coeffs", "list",
         "prime-9", "prec-list", "prec-float", "prec-bool", "rho-above-1", "rho-negative", "offset-negative",
         "rho-negative-fraction", "offset-negative-fraction", "max-index-negative"],
)
def test_cli_bad_katz_input_exits_3(tmp_path, capsys, content, extra, message):
    series_file = tmp_path / "f.json"
    series_file.write_text(json.dumps(content))
    args = ["katz", "--input", str(series_file), "--prime", "5", "--max-index", "1"]
    code, _, err = run_cli(args + extra, capsys)
    assert code == 3
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("terms", ["-20", "0"])
def test_cli_hauptmodul_rejects_terms_below_one(capsys, terms):
    code, out, err = run_cli(
        ["hauptmodul", "--prime", "5", "--weight", "24", "--terms", terms], capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--id", "A", "--pprec", "0"], "error: pprec must be >= 1, got 0"),
        (["--id", "A", "--pprec", "-2"], "error: pprec must be >= 1, got -2"),
        (["--id", "F", "--s", "1", "--pprec", "0"], "error: pprec must be >= 1, got 0"),
        (["--id", "F", "--s", "-1"], "error: s must be >= 1, got -1"),
        (["--id", "F", "--s", "0"], "error: s must be >= 1, got 0"),
        (["--id", "C", "--n", "-3"], "error: n must be >= 1, got -3"),
    ],
    ids=["A-pprec-0", "A-pprec-negative", "F-pprec-0", "F-s-negative", "F-s-0",
         "C-n-negative"],
)
def test_cli_bad_theorem_input_exits_3(capsys, extra, message):
    code, out, err = run_cli(
        ["verify-theorem", "--prime", "5", "--max-index", "3"] + extra, capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [["--prime", "5", "--jobs", "0"], ["--prime", "5", "--jobs", "-3"],
     ["--extended", "--prime", "7", "--jobs", "0"]],
    ids=["jobs-0", "jobs-negative", "extended-jobs-0"],
)
def test_cli_check_condition_rejects_jobs_below_one(capsys, extra):
    code, out, err = run_cli(["check-condition"] + extra, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: jobs must be >= 1, got %s" % extra[-1])


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_cli_check_condition_rejects_budget_at_or_below_zero(monkeypatch, capsys, budget):
    def no_split(args):
        raise AssertionError("split computed for %r" % (args,))

    # refused before the first split is computed
    monkeypatch.setattr(reports, "_condition_entry", no_split)
    code, out, err = run_cli(
        ["check-condition", "--prime", "5", "--budget-seconds", budget], capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: budget_seconds must be > 0, got %s" % budget)


def test_cli_missing_input_file(capsys):
    code, _, err = run_cli(
        ["katz", "--input", "/nonexistent/f.json", "--prime", "5",
         "--max-index", "2"],
        capsys,
    )
    assert code == 3
