"""Golden reports: every pinned CLI command must reproduce its snapshot.

Each command runs through cli.main; its JSON report, minus wall_time, and
its exit code are compared with tests/golden_reports.json. The snapshot was
captured before the report layer was restructured, so any change to a
certificate, a label, a provenance field or an exit code shows up here.
"""

from __future__ import annotations

import json
import os

import pytest

from katzexp import cli, revalidate_report

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")

COMMANDS = (
    "check-condition --prime 7",
    "check-condition --extended --prime 7",
    "reproduce-examples",
    "verify-theorem --id A --prime 5 --max-index 10 --pprec 2",
    "verify-theorem --id B --prime 5 --k 24 --max-index 30",
    "verify-theorem --id C --prime 5 --n 6 --max-index 12",
    "verify-theorem --id E --prime 5 --n 1 --max-index 10",
    "verify-theorem --id E --prime 5 --k 4 --max-index 10",
    "verify-theorem --id F --prime 5 --s 1 --max-index 21 --pprec 4",
    # B_k at k = 9376, the classical-limit weight at 5^5
    "verify-theorem --id F --prime 5 --s 1 --max-index 21 --pprec 5",
    "verify-theorem --id F --prime 5 --s 3 --max-index 10 --pprec 2",
    "hauptmodul --prime 5 --weight 24 --terms 11",
    "katz --input {e8} --prime 5 --max-index 4",
)


def _e8_json(N=20):
    """E_8 = 1 + 480 sum sigma_7(n) q^n, written without katzexp."""
    coeffs = ["1"] + [
        str(480 * sum(d ** 7 for d in range(1, n + 1) if n % d == 0))
        for n in range(1, N)
    ]
    return {"prec": N, "coeffs": coeffs}


def run_command(command, workdir, capsys):
    """(exit code, report dict without wall_time) for one pinned command."""
    e8 = os.path.join(str(workdir), "e8.json")
    with open(e8, "w", encoding="utf-8") as fh:
        json.dump(_e8_json(), fh)
    code = cli.main(command.format(e8=e8).split())
    report = json.loads(capsys.readouterr().out)
    report.pop("wall_time")
    return code, report


def load_snapshot():
    with open(SNAPSHOT, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_covers_every_command():
    assert sorted(load_snapshot()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_snapshot(command, tmp_path, capsys):
    want = load_snapshot()[command]
    code, report = run_command(command, tmp_path, capsys)
    assert code == want["rc"]
    assert report == want["report"]


@pytest.mark.parametrize("command", COMMANDS)
def test_snapshot_revalidates(command):
    assert revalidate_report(load_snapshot()[command]["report"])
