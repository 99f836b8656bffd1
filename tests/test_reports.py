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
import os
import re
import subprocess
import sys
import time

import pytest

from katzexp import (
    INF,
    QQ,
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
from katzexp.classical import eisenstein_series
from katzexp.family import estar_family
from katzexp.katz import eisenstein_sweep, katz_split_classical, rate_verdicts, window_bounds
from katzexp.reports import aggregate_status
from katzexp import cli, family, reports

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


def _certificate(report, role):
    return next(
        e for e in report["results"] if e["kind"] == "certificate" and e["role"] == role
    )


def _drop_verdicts(report):
    del _certificate(report, "witness")["certificate"]["verdicts"]


def _rho_not_a_rational(report):
    _certificate(report, "claim")["certificate"]["rho"] = "x"


def _valuation_not_an_integer(report):
    _certificate(report, "claim")["valuations"][3][1] = "oops"


def _claim_at_a_lower_rate(report):
    """Rate 5/6, offset 1 rewritten to 1/6 with consistent verdicts; the
    label still states the rate that was certified."""
    claim = _certificate(report, "claim")
    rows = [(i, INF if v == "inf" else int(v), z) for i, v, z in claim["valuations"]]
    verdicts, first_failure = rate_verdicts(rows, QQ(1, 6), QQ(1), INF)
    claim["certificate"].update(rho="1/6", verdicts=list(verdicts), first_failure=first_failure)
    assert claim["label"] == "split of E_24, rate 5/6, offset 1"


def _witness_at_another_prime(report):
    _certificate(report, "witness")["certificate"]["p"] = 7


@pytest.mark.parametrize(
    "tamper",
    [_drop_verdicts, _rho_not_a_rational, _valuation_not_an_integer, _claim_at_a_lower_rate,
     _witness_at_another_prime],
    ids=["verdicts-removed", "rho-x", "valuation-oops", "claim-relabelled-rate", "witness-p-7"],
)
def test_revalidation_refuses_tampered_examples(tamper):
    report = json.loads(cmd_reproduce_examples().dumps())
    tamper(report)
    assert revalidate_report(report) is False


def test_revalidation_refuses_certificates_at_another_prime():
    """Every certificate of a report at p = 5 moved to p = 11 together."""
    report = json.loads(cmd_verify_theorem("B", 5, 6, k=24).dumps())
    assert revalidate_report(report)
    for entry in report["results"]:
        if entry["kind"] == "certificate":
            entry["certificate"]["p"] = 11
    assert revalidate_report(report) is False


def test_revalidation_refuses_a_restated_working_precision():
    """A report at pprec 4 whose parameters and provenance both claim 9."""
    report = json.loads(cmd_verify_theorem("A", 5, 6).dumps())
    assert revalidate_report(report)
    assert report["parameters"]["pprec"] == 4
    report["parameters"]["pprec"] = 9
    report["provenance"]["pprec"] = "9"
    assert revalidate_report(report) is False


def test_revalidation_refuses_a_negative_rate():
    """rho = -1 passes every index, but no writer certifies a rate below 0."""
    report = json.loads(cmd_check_condition(5).dumps())
    for entry in report["results"]:
        entry["certificate"]["rho"] = "-1"
    assert revalidate_report(report) is False


SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")


def golden(command):
    with open(SNAPSHOT, "r", encoding="utf-8") as fh:
        return json.load(fh)[command]["report"]


def rederived(report):
    """report with each certificate's verdicts, first failure and max_index,
    and the status, recomputed from its stored rows, as a forger would."""
    for entry in report["results"]:
        if entry["kind"] == "certificate":
            cert = entry["certificate"]
            rows = [(i, INF if v == "inf" else int(v), z) for i, v, z in entry["valuations"]]
            pprec = INF if entry["pprec"] == "inf" else int(entry["pprec"])
            verdicts, cert["first_failure"] = rate_verdicts(
                rows, QQ(cert["rho"]), QQ(cert["c"]), pprec
            )
            cert.update(verdicts=list(verdicts), max_index=len(rows) - 1)
    report["status"] = aggregate_status(report["results"])
    return report


def failed_katz():
    """cmd_katz(e6, 5, 6): the sharp rate fails at index 6."""
    e6, _ = eis_ratio(6, 5, 40)
    return json.loads(cmd_katz(e6, 5, 6).dumps())


def _katz_failure_made_structural():
    report = failed_katz()
    report["results"][0]["valuations"][6][2] = True
    return rederived(report)


def _katz_claim_made_a_witness():
    report = failed_katz()
    report["results"][0]["role"] = "witness"
    report["status"] = "certified"
    return report


def _examples_qprec_1():
    report = golden("reproduce-examples")
    report["provenance"]["qprec"] = 1
    return report


def _examples_published_value_rewritten():
    report = golden("reproduce-examples")
    report["results"][0]["computed"] = report["results"][0]["published"] = "1/2"
    return report


def _condition_n4_deleted():
    report = golden("check-condition --prime 7")
    del report["results"][3]
    return report


def _katz_cut_below_the_failure():
    report = failed_katz()
    del report["results"][0]["valuations"][6:]
    return rederived(report)


def _theorem_a_pprec_restated_everywhere():
    """pprec 9 in the parameters, provenance and certificates; the labels
    still say mod 5^4."""
    report = json.loads(cmd_verify_theorem("A", 5, 6).dumps())
    report["parameters"]["pprec"], report["provenance"]["pprec"] = 9, "9"
    for entry in report["results"]:
        entry["pprec"] = "9"
    return rederived(report)


def _extended_max_prime_97():
    report = golden("check-condition --extended --prime 7")
    report["parameters"]["max_prime"] = 97
    return report


def _theorem_b_max_index_30():
    report = json.loads(cmd_verify_theorem("B", 5, 6, k=24).dumps())
    report["parameters"]["max_index"] = 30
    return report


@pytest.mark.parametrize(
    "tamper",
    [_katz_failure_made_structural, _katz_claim_made_a_witness, _examples_qprec_1,
     _examples_published_value_rewritten, _condition_n4_deleted, _katz_cut_below_the_failure,
     _theorem_a_pprec_restated_everywhere, _extended_max_prime_97, _theorem_b_max_index_30],
    ids=["katz-structural-6", "katz-claim-witness", "examples-qprec-1", "examples-published",
         "condition-n4-deleted", "katz-cut-below-6", "A-pprec-9", "extended-max-prime-97",
         "B-max-index-30"],
)
def test_revalidation_ties_entries_to_the_parameters(tamper):
    """Each report is consistent entry by entry, so only the command's plan
    for its parameters can refuse it."""
    assert revalidate_report(tamper()) is False


def test_untampered_computed_reports_revalidate():
    computed = (failed_katz(), cmd_verify_theorem("A", 5, 6), cmd_verify_theorem("B", 5, 6, k=24))
    assert all(revalidate_report(report) for report in computed)


@pytest.mark.parametrize(
    "command, key, value",
    [("check-condition --prime 7", "prime", 1000003),
     ("check-condition --extended --prime 7", "max_prime", 300000),
     ("verify-theorem --id B --prime 5 --k 24 --max-index 30", "max_index", 10**8)],
    ids=["prime-1000003", "max-prime-300000", "max-index-1e8"],
)
def test_revalidation_work_is_bounded_by_the_stored_report(command, key, value):
    report = golden(command)
    report["parameters"][key] = value
    started = time.perf_counter()
    assert revalidate_report(report) is False
    assert time.perf_counter() - started < 1


def test_revalidation_decides_huge_primes_at_once():
    report = golden("check-condition --extended --prime 7")
    for max_prime, seconds in ((10**16, 0.5), (10**30, 0.05)):
        report["parameters"]["max_prime"] = max_prime
        started = time.perf_counter()
        assert revalidate_report(report) is False
        assert time.perf_counter() - started < seconds, max_prime


def test_theorem_gates_refuse_stored_reports_without_building_series(monkeypatch):
    def no_series(*args):
        raise AssertionError("a series was built for %r" % (args,))

    for name in ("eisenstein_series", "estar_family", "eis_ratio"):
        monkeypatch.setattr(reports, name, no_series)
    b = golden("verify-theorem --id B --prime 5 --k 24 --max-index 30")
    b["parameters"]["k"] = 25
    e = golden("verify-theorem --id E --prime 5 --k 4 --max-index 10")
    e["parameters"]["k"] = 24  # digit sum 8, not 4
    for report in (b, e):
        with pytest.raises(InvalidWeight):
            reports.COMMANDS["verify-theorem"].plan(report["parameters"])
        assert revalidate_report(report) is False


# the required options of each subcommand, with small values
MINIMAL_ARGV = {
    "check-condition": ["--prime", "5"],
    "reproduce-examples": [],
    "verify-theorem": ["--id", "B", "--prime", "5", "--max-index", "4", "--k", "24"],
    "katz": ["--input", "series.json", "--prime", "5", "--max-index", "4"],
    "hauptmodul": ["--prime", "5", "--weight", "24", "--terms", "3"],
}


@pytest.mark.parametrize("name", sorted(reports.COMMANDS))
def test_every_command_plans_the_parameters_its_options_parse_to(name):
    """A row's options and its plan agree on the parameter names and values,
    and the one-command parser that cli.main builds parses them as the full
    table does."""
    argv = [name] + MINIMAL_ARGV[name]
    args = cli.build_parser().parse_args(argv)
    assert vars(cli.build_parser([name]).parse_args(argv)) == vars(args)
    assert isinstance(reports.COMMANDS[name].plan(vars(args)), reports.Plan)


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
    # the workers' units are whole primes: 5, 7 and 11 here
    serial = strip_wall_time(cmd_check_condition_extended(11).dumps())
    parallel = strip_wall_time(cmd_check_condition_extended(11, jobs=2).dumps())
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
    """Every prime checks the budget before each split, in a worker as in a
    serial run, so a parallel overrun raises before the first split and the
    workers stop long before they would finish the primes up to 23."""
    started = time.perf_counter()
    with pytest.raises(ResourceBudgetExceeded):
        cmd_check_condition_extended(23, jobs=2, budget_seconds=1e-9)
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
    # the targets are primes: 5, 7, 11 and 13 here
    ctx = RecordingSerialContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    serial = strip_wall_time(cmd_check_condition_extended(13).dumps())
    assert strip_wall_time(cmd_check_condition_extended(13, jobs=64).dumps()) == serial
    assert ctx.sizes == [4]
    # a pool of one would be a serial run in a second process
    assert strip_wall_time(cmd_check_condition(13, jobs=64).dumps()) == strip_wall_time(
        cmd_check_condition(13).dumps())
    assert ctx.sizes == [4]


def test_check_condition_pooled_prime_stops_inside_itself(monkeypatch):
    """A pooled prime checks the budget before each of its splits, not once it
    has finished, so at most one split starts past the deadline."""
    starts = []

    def slow_sweep(p, M):
        for n in range(1, p + 1):
            starts.append(time.monotonic())
            time.sleep(0.02)
            yield [0] * (n + 1), False

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingSerialContext())
    monkeypatch.setattr(reports, "eisenstein_sweep", slow_sweep)
    # no later than the sweep's own deadline, and splits are 0.02 s apart
    deadline = time.monotonic() + 0.15
    with pytest.raises(ResourceBudgetExceeded):
        cmd_check_condition_extended(13, jobs=2, budget_seconds=0.15)
    assert sum(start > deadline for start in starts) <= 1


def test_check_condition_sweep_matches_exact_splits():
    """The capped sweep against katz_split_classical, its fallback and oracle."""
    for p in (5, 7, 11, 13, 17, 19, 23):
        for n, (vals, _) in enumerate(reports._condition_prime(p)[0], 1):
            f = eisenstein_series(n * (p - 1), qprec_for_split(p, n))
            assert vals == [t.val for t in katz_split_classical(f, n, p).terms], (p, n)


def test_check_condition_redoes_only_the_split_of_one():
    # b_1 of E_12 / E_12 = 1 is 0, so "at least p^17" at p = 13
    redone = [n for n, (_, exact) in enumerate(reports._condition_prime(13)[0], 1) if exact]
    assert redone == [1]


@pytest.mark.parametrize("command", [["--prime", "7"], ["--extended", "--prime", "7"]])
def test_check_condition_reports_survive_escalating_every_split(monkeypatch, capsys, command):
    """With the cap at p^1 every index i >= 1 outside a structural zero reads
    "at least 1", so every split that has one is redone exactly."""
    redone, have_window = [], []

    def cap_at_1(p, M):
        for n, (vals, exact) in enumerate(eisenstein_sweep(p, 1), 1):
            redone.append(exact)
            have_window.append(any(lo < hi for lo, hi in (window_bounds(i, p) for i in range(1, n + 1))))
            yield vals, exact

    monkeypatch.setattr(reports, "eisenstein_sweep", cap_at_1)
    code, out, _ = run_cli(["check-condition"] + command, capsys)
    want = golden("check-condition " + " ".join(command))
    report = json.loads(out)
    report.pop("wall_time")
    assert code == 0
    assert json.dumps(report, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert redone == have_window and any(redone)


def test_check_condition_prints_progress_per_prime_of_an_extended_sweep(capsys):
    code, out, err = run_cli(["check-condition", "--extended", "--prime", "13"], capsys)
    assert code == 0
    # stdout is the report alone
    want = cmd_check_condition_extended(13).dumps() + "\n"
    capsys.readouterr()
    assert strip_wall_time(out) == strip_wall_time(want)
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["p=5", "p=7", "p=11", "p=13"]
    for line, p, exact in zip(lines, (5, 7, 11, 13), (0, 0, 0, 1)):
        assert re.fullmatch(r"p=%d: %d splits, %d exact, \d+\.\d\d s" % (p, p, exact), line)
    code, out, err = run_cli(["check-condition", "--prime", "13"], capsys)
    assert (code, err) == (0, "")


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


def test_theorem_e_with_n_builds_e_n_alone(monkeypatch):
    # the row splits e_n only, so its unit-root twin e*_n is never built
    def no_twin(*args):
        raise AssertionError("e*_n built for %r" % (args,))

    monkeypatch.setattr(family, "estar_k", no_twin)
    r = cmd_verify_theorem("E", 5, 12, n=4)
    assert r.status == "certified"
    assert [e["label"] for e in claims(r)] == ["e_4, sharp rate 5/6, no offset"]


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


@pytest.mark.parametrize(
    "rho, c, message",
    [("2", "0", "rate rho = 2 outside [0, 1]"), ("-1/6", "0", "rate rho = -1/6 outside [0, 1]"),
     (None, "-1", "offset c = -1 is negative")],
    ids=["rho-2", "rho-negative", "offset-negative"],
)
def test_katz_plan_refuses_a_rate_outside_its_domain_before_splitting(monkeypatch, rho, c, message):
    def no_split(*args):
        raise AssertionError("a split was computed for %r" % (args,))

    monkeypatch.setattr(reports, "katz_split_function", no_split)
    e6, _ = eis_ratio(6, 5, 40)
    with pytest.raises(ValueError, match=re.escape(message)):
        cmd_katz(e6, 5, 6, rho=rho, c=c)
    with pytest.raises(ValueError, match=re.escape(message)):
        reports.COMMANDS["katz"].plan({"prime": 5, "max_index": 6, "rho": rho, "c": c})


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


def parse_outcome(args, capsys):
    """run_cli for a command line that argparse may end with SystemExit."""
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# command lines that end in the parser or the plan: every --help, no command,
# an unknown one, a trailing unknown argument for each command, a missing
# required option, a non-integer --prime and an unknown theorem id
PARSER_ARGV = (
    [["--help"], [], ["bogus"]]
    + [[name, "--help"] for name in reports.COMMANDS]
    + [[name] + MINIMAL_ARGV[name] + ["--bogus"] for name in reports.COMMANDS]
    + [["hauptmodul", "--prime", "5", "--weight", "24"],
       ["check-condition", "--prime", "five"],
       ["verify-theorem", "--id", "Z", "--prime", "5", "--max-index", "3"]]
)


@pytest.mark.parametrize("args", PARSER_ARGV, ids=lambda args: " ".join(args) or "no-arguments")
def test_one_command_parser_answers_as_the_full_table(monkeypatch, capsys, args):
    shipped = parse_outcome(args, capsys)
    full_table = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: full_table())
    assert parse_outcome(args, capsys) == shipped


def test_usage_errors_name_the_command_argument(capsys):
    """The full table's errors read the subparsers' dest, and every usage
    line lists the commands."""
    usage = "{%s}" % ",".join(reports.COMMANDS)
    code, out, err = parse_outcome([], capsys)
    assert (code, out) == (3, "") and usage in err
    assert err.endswith("error: the following arguments are required: command\n")
    code, out, err = parse_outcome(["bogus"], capsys)
    assert (code, out) == (3, "") and usage in err
    assert "error: argument command: invalid choice: 'bogus'" in err
    code, out, err = parse_outcome(["reproduce-examples", "--bogus"], capsys)
    assert (code, out) == (3, "") and usage in err
    assert err.endswith("error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize(
    "args, built",
    [([name] + MINIMAL_ARGV[name], [name]) for name in reports.COMMANDS]
    + [(["--help"], list(reports.COMMANDS))],
    ids=lambda value: " ".join(value),
)
def test_a_request_builds_the_subparser_of_its_command_alone(monkeypatch, capsys, args, built):
    names = []
    add_parser = cli.argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **keywords):
        names.append(name)
        return add_parser(self, name, **keywords)

    def refusing_run(name, parameters):
        raise KatzexpError("no run in this test")

    monkeypatch.setattr(cli.argparse._SubParsersAction, "add_parser", counting_add_parser)
    monkeypatch.setattr(cli, "run", refusing_run)
    assert parse_outcome(args, capsys)[0] in (0, 3)
    assert names == built


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
    monkeypatch.setattr(cli, "run", lambda *args: runs.append(args))
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

    def failing_run(name, parameters):
        raise KatzexpError("stub failure")

    monkeypatch.setattr(cli, "run", failing_run)
    out_file = tmp_path / "report.json"
    out_file.write_text("previous report")
    code, _, err = run_cli(["reproduce-examples", "--out", str(out_file)], capsys)
    assert (code, err) == (3, "error: stub failure\n")
    assert out_file.read_text() == "previous report"


def _e6():
    return eis_ratio(6, 5, 40)[0]


# one golden parameter set per command, as CLI arguments and as the library
# call that must write the same report; {f} is a file holding _e6()
PARITY = [
    ("check-condition --prime 7", lambda: cmd_check_condition(7)),
    ("check-condition --extended --prime 7 --jobs 2",
     lambda: cmd_check_condition_extended(7, jobs=2)),
    ("reproduce-examples", cmd_reproduce_examples),
    ("verify-theorem --id B --prime 5 --k 24 --max-index 30",
     lambda: cmd_verify_theorem("B", 5, 30, k=24)),
    ("verify-theorem --id c --prime 5 --n 6 --max-index 12",
     lambda: cmd_verify_theorem("c", 5, 12, n=6)),
    ("verify-theorem --id A --prime 5 --max-index 10 --pprec 2",
     lambda: cmd_verify_theorem("A", 5, 10, pprec=2)),
    ("hauptmodul --prime 5 --weight 24 --terms 11", lambda: cmd_hauptmodul(5, 24, 11)),
    ("katz --input {f} --prime 5 --max-index 6", lambda: cmd_katz(_e6(), 5, 6)),
    ("katz --input {f} --prime 5 --max-index 6 --rho 10/12 --offset 1",
     lambda: cmd_katz(_e6(), 5, 6, rho=QQ(5, 6), c=1)),
]


@pytest.mark.parametrize("command, call", PARITY, ids=[command for command, _ in PARITY])
def test_cli_and_library_write_the_same_report(tmp_path, capsys, command, call):
    series_file = tmp_path / "e6.json"
    series_file.write_text(json.dumps(qs_to_json(_e6())))
    code, out, _ = run_cli(command.format(f=series_file).split(), capsys)
    report = call()
    assert code == cli.EXIT_CODES[report.status]
    assert strip_wall_time(out) == strip_wall_time(report.dumps() + "\n")


@pytest.mark.parametrize(
    "option, rate",
    [("rho", "0.5"), ("rho", 0.5), ("rho", 0.1), ("c", "0.5"), ("c", 0.25)],
    ids=["rho-decimal", "rho-float-half", "rho-float-tenth", "offset-decimal", "offset-float"],
)
def test_cmd_katz_refuses_the_rates_the_command_line_refuses(tmp_path, capsys, option, rate):
    series_file = tmp_path / "e6.json"
    series_file.write_text(json.dumps(qs_to_json(_e6())))
    flag = {"rho": "--rho", "c": "--offset"}[option]
    code, out, err = run_cli(
        ["katz", "--input", str(series_file), "--prime", "5", "--max-index", "6", flag, str(rate)], capsys)
    message = 'expected a rational "num" or "num/den", got '
    assert (code, out) == (3, "")
    assert err == "error: %s%r\n" % (message, str(rate))
    with pytest.raises(ValueError, match=re.escape(message + repr(rate))):
        cmd_katz(_e6(), 5, 6, **{option: rate})


def test_extended_sweep_defaults_to_97_on_both_paths(monkeypatch, capsys):
    swept = []

    def stub_sweep(primes, jobs, budget_seconds):
        swept.append(primes)
        return [[INF] * (n + 1) for p in primes for n in range(1, p + 1)]

    monkeypatch.setattr(reports, "_condition_sweep", stub_sweep)
    code, out, _ = run_cli(["check-condition", "--extended"], capsys)
    report = cmd_check_condition_extended()
    assert code == 0 and report.parameters == {"extended": True, "max_prime": 97}
    assert strip_wall_time(out) == strip_wall_time(report.dumps() + "\n")
    assert swept[0] == swept[1] == [q for q in range(5, 98) if all(q % d for d in range(2, q))]


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


def test_cli_katz_reads_a_capped_series_at_its_modulus(tmp_path, capsys):
    # V(g)/g for the family member g at s = 1, known mod 5^4: indices 6, 9
    # and 12 are undecidable there, in the report on the series and in the
    # one on its file alike
    f = reports._vratio(estar_family(1, 5, 50, 4), 5)
    want = cmd_katz(f, 5, 12, rho=QQ(5, 6)).dumps() + "\n"
    series_file = tmp_path / "f.json"
    series_file.write_text(json.dumps(qs_to_json(f)))
    args = ["katz", "--input", str(series_file), "--prime", "5", "--max-index", "12", "--rho", "5/6"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (1, "")
    assert strip_wall_time(out) == strip_wall_time(want)
    report = json.loads(out)
    assert report["provenance"]["pprec"] == "4"
    verdicts = report["results"][0]["certificate"]["verdicts"]
    assert [i for i, v in enumerate(verdicts) if v != "pass"] == [3, 6, 9, 12]
    assert [verdicts[i] for i in (3, 6, 9, 12)] == ["fail"] + ["inconclusive"] * 3


def test_cli_exit_inconclusive(capsys):
    code, _, _ = run_cli(
        ["verify-theorem", "--id", "F", "--prime", "5", "--s", "1",
         "--max-index", "24"],
        capsys,
    )
    assert code == 2


def test_cli_theorem_f_at_s_equal_to_p(capsys):
    # s = p, the first s with a nontrivial character tau^(-s) whose
    # B_{s,tau^(-s)} reads a B_j with p in its denominator (B_{p-1})
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


def test_cli_reads_the_theorem_id_in_any_case(capsys):
    got = []
    for theorem in ("b", "B"):
        code, out, err = run_cli(
            ["verify-theorem", "--id", theorem, "--prime", "5", "--k", "24", "--max-index", "6"],
            capsys,
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        del report["wall_time"]
        got.append(report)
    assert got[0] == got[1]


def test_cli_hauptmodul_plan_refuses_a_prime_without_a_hauptmodul(capsys):
    args = ["hauptmodul", "--prime", "11", "--weight", "24", "--terms", "11"]
    assert run_cli(args, capsys) == (
        3, "", "error: hauptmodul available for p in 5, 7, 13; got 11\n"
    )


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
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--rho", "1.5"],
         """error: expected a rational "num" or "num/den", got '1.5'\n"""),
        ({"prec": 3, "coeffs": ["1", "0", "0"]}, ["--rho", "abc"],
         """error: expected a rational "num" or "num/den", got 'abc'\n"""),
        ({"prec": 3, "coeffs": ["1", "x", "0"]}, [],
         """error: expected a rational "num" or "num/den", got 'x'\n"""),
        ({"prec": 3, "coeffs": ["1", "0", "0"], "modulus": 49}, [],
         "error: a series known mod 49 cannot be split at p = 5\n"),
        ({"prec": 3, "coeffs": ["1", "25", "0"], "modulus": 25}, [],
         "error: coefficient of q^1 is not a residue in [0, 25)\n"),
        ({"prec": 3, "coeffs": ["1", "0", "0"], "modulus": 1}, [],
         "error: modulus must be an integer > 1, got 1\n"),
        ({"prec": 3, "coeffs": ["1", "0", "0"], "modulus": 25.0}, [],
         "error: modulus must be an integer > 1, got 25.0\n"),
    ],
    ids=["rho-zero-denominator", "coeff-zero-denominator", "no-coeffs", "list",
         "prime-9", "prec-list", "prec-float", "prec-bool", "rho-above-1", "rho-negative", "offset-negative",
         "rho-negative-fraction", "offset-negative-fraction", "max-index-negative",
         "rho-decimal", "rho-word", "coeff-word", "modulus-of-another-prime",
         "residue-out-of-range", "modulus-1", "modulus-float"],
)
def test_cli_bad_katz_input_exits_3(tmp_path, capsys, content, extra, message):
    series_file = tmp_path / "f.json"
    series_file.write_text(json.dumps(content))
    args = ["katz", "--input", str(series_file), "--prime", "5", "--max-index", "1"]
    code, _, err = run_cli(args + extra, capsys)
    assert code == 3
    assert err.startswith(message)
    assert "Traceback" not in err


# two counts below one, and one whose first list no allocation can hold,
# so that it fails at once
@pytest.mark.parametrize("terms", ["-20", "0", "100000000000"])
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
        (["--id", "A", "--k", "24"], "error: theorem A takes s, not k"),
        (["--id", "B", "--k", "24", "--n", "3", "--s", "9"],
         "error: theorem B takes k, not s or n"),
        (["--id", "E", "--n", "2", "--s", "3"], "error: theorem E takes n or k, not s"),
        (["--id", "B", "--k", "24", "--pprec", "9"],
         "error: theorem B is computed exactly and takes no pprec"),
        (["--id", "C", "--n", "2", "--pprec", "-3"],
         "error: theorem C is computed exactly and takes no pprec"),
        (["--id", "E", "--k", "24", "--pprec", "4"],
         "error: theorem E is computed exactly and takes no pprec"),
        (["--id", "Z"], "error: unknown theorem 'Z'\n"),
        # sizes whose first list no allocation can hold, so it fails at once
        (["--id", "B", "--k", "24", "--max-index", "100000000000"], "error: out of memory\n"),
        (["--id", "A", "--max-index", "100000000000"], "error: out of memory\n"),
    ],
    ids=["A-pprec-0", "A-pprec-negative", "F-pprec-0", "F-s-negative", "F-s-0",
         "C-n-negative", "A-stray-k", "B-stray-s-n", "E-stray-s", "B-pprec", "C-pprec",
         "E-pprec", "Z", "B-out-of-memory", "A-out-of-memory"],
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
    def no_split(*args):
        raise AssertionError("split computed for %r" % (args,))

    # refused before the first split is computed
    monkeypatch.setattr(reports, "eisenstein_sweep", no_split)
    code, out, err = run_cli(
        ["check-condition", "--prime", "5", "--budget-seconds", budget], capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: budget_seconds must be > 0, got %s" % budget)


def test_cli_prime_beyond_the_primality_bound_exits_3(capsys):
    code, out, err = run_cli(["check-condition", "--prime", str(10**30)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: primality is decided below")


def test_cli_missing_input_file(capsys):
    code, _, err = run_cli(
        ["katz", "--input", "/nonexistent/f.json", "--prime", "5",
         "--max-index", "2"],
        capsys,
    )
    assert code == 3
