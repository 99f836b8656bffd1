"""Revalidation of every golden report, as properties.

A stored report revalidates only if each entry equals the form its writer
derives from the entry's input fields. So changing any one derived field (a
certificate's verdicts, first failure, max_index, matches_expected or the
rate text of its label, a comparison's matches, a hauptmodul floor or first
floor violation, or the status) makes revalidate_report return False. A
malformed report (a key deleted, a value replaced by one of another type)
gets a bool too, never an exception.
"""

from __future__ import annotations

import copy
import json
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from katzexp import revalidate_report

SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")

with open(SNAPSHOT, "r", encoding="utf-8") as fh:
    REPORTS = {command: pinned["report"] for command, pinned in json.load(fh).items()}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def derived_paths(report):
    """The path to every derived field of a report."""
    paths = [("status",)]
    for n, entry in enumerate(report["results"]):
        at = ("results", n)
        if entry["kind"] == "certificate":
            cert = at + ("certificate",)
            verdicts = entry["certificate"]["verdicts"]
            paths += [cert + ("first_failure",), cert + ("max_index",), cert + ("verdicts",)]
            paths += [cert + ("verdicts", j) for j in range(len(verdicts))]
            paths += [at + (key,) for key in ("matches_expected",) if key in entry]
            paths += [at + ("label",)] if "rate " in entry["label"] else []
        elif entry["kind"] == "comparison":
            paths.append(at + ("matches",))
        else:
            floors = entry.get("floor_at_sharp_rate", [])
            paths.append(at + ("first_floor_violation",))
            paths += [at + ("floor_at_sharp_rate", j) for j in range(len(floors))]
    return paths


def node_paths(node, at=()):
    """The path to every key and list item under node."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield at + (key,)
            yield from node_paths(child, at + (key,))


def get(node, path):
    for key in path:
        node = node[key]
    return node


def as_json(value):
    return json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("command", sorted(REPORTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_changing_a_derived_field_fails_revalidation(command, data):
    report = copy.deepcopy(REPORTS[command])
    path = data.draw(st.sampled_from(derived_paths(report)), label="path")
    new = data.draw(_json_values, label="value")
    old = get(report, path)
    if path[-1] == "label":
        # only the text after "rate " is derived; the prefix is the writer's
        head, rate, _ = old.partition("rate ")
        new = head + rate + (new if isinstance(new, str) else as_json(new))
    assume(as_json(new) != as_json(old))
    get(report, path[:-1])[path[-1]] = new
    assert revalidate_report(report) is False


@pytest.mark.parametrize("command", sorted(REPORTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deleting_a_key_gives_a_bool(command, data):
    report = copy.deepcopy(REPORTS[command])
    keys = [path for path in node_paths(report) if isinstance(path[-1], str)]
    path = data.draw(st.sampled_from(keys), label="path")
    del get(report, path[:-1])[path[-1]]
    assert isinstance(revalidate_report(report), bool)


@pytest.mark.parametrize("command", sorted(REPORTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_value_of_another_type_gives_a_bool(command, data):
    report = copy.deepcopy(REPORTS[command])
    path = data.draw(st.sampled_from(list(node_paths(report))), label="path")
    old = get(report, path)
    new = data.draw(_json_values.filter(lambda v: type(v) is not type(old)), label="value")
    get(report, path[:-1])[path[-1]] = new
    assert isinstance(revalidate_report(report), bool)
