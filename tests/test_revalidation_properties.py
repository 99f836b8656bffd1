"""Revalidation of every golden report, as properties.

A stored report revalidates only if the plan of its command, run on its
parameters and filled with its computed values, gives it back. The computed
values are a certificate's valuation at an index that is not a structural
zero, a comparison's computed side, a hauptmodul valuation, and the input
qprec and pprec of a katz report (a golden report has no wall_time). So
changing anything else (a parameter, label, role, rate, index, structural
flag, verdict, expectation, published value, floor, provenance field or the
status) makes revalidate_report return False. A malformed report (a key
deleted, a value replaced by one of another type) gets a bool too, never an
exception.
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


def computed_paths(report):
    """The path to every computed value of a report: what no plan fixes."""
    paths = [("provenance", key) for key in ("qprec", "pprec") if report["command"] == "katz"]
    for n, entry in enumerate(report["results"]):
        at = ("results", n)
        if entry["kind"] == "certificate":
            rows = entry["valuations"]
            paths += [at + ("valuations", i, 1) for i, (_, _, z) in enumerate(rows) if not z]
        elif entry["kind"] == "comparison":
            paths.append(at + ("computed",))
            paths += [at + ("computed",) + path for path in node_paths(entry["computed"])]
        else:
            paths += [at + ("valuations", j) for j in range(len(entry["valuations"]))]
    return paths


def plan_paths(report):
    """The path to every key and list item of a report but its computed values."""
    computed = set(computed_paths(report))
    return [path for path in node_paths(report) if path not in computed]


def masked(report, paths):
    """report as JSON with the value at each of paths (where it still exists) blanked."""
    report = copy.deepcopy(report)
    for path in paths:
        try:
            get(report, path)  # a key or index the report no longer has stays absent
            get(report, path[:-1])[path[-1]] = None
        except (LookupError, TypeError):
            pass
    return as_json(report)


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
def test_changing_anything_but_a_computed_value_fails_revalidation(command, data):
    original = REPORTS[command]
    report = copy.deepcopy(original)
    path = data.draw(st.sampled_from(plan_paths(report)), label="path")
    new = data.draw(_json_values, label="value")
    assume(as_json(new) != as_json(get(report, path)))
    get(report, path[:-1])[path[-1]] = new
    # a new list or dict that differs from the old one only in computed values
    computed = computed_paths(original)
    assume(masked(report, computed) != masked(original, computed))
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
