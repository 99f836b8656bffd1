"""Self-tests of the benchmark harness. Run from the checkout root:

    python3 perfbench/selftest.py
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _workdir():
    path = os.path.join(ROOT, ".perfbench", "work")
    os.makedirs(path, exist_ok=True)
    return path


class TracerTest(unittest.TestCase):
    def test_qs_mul_spans_nest_under_katz_split_classical(self):
        req = {"kind": "cli", "argv": ["check-condition", "--prime", "5"]}
        out = run.Runner(ROOT, _workdir()).job([req], True)
        self.assertEqual(out["results"][0]["rc"], 0)
        spans = {s[0]: s for s in out["spans"]}
        under = 0
        for sid, parent, request, name, *_ in spans.values():
            if name != "series.qs_mul":
                continue
            self.assertEqual(request, 0)
            while parent is not None:
                if spans[parent][3] == "katz.katz_split_classical":
                    under += 1
                    break
                parent = spans[parent][1]
        self.assertGreater(under, 0)

    def test_every_copy_of_a_function_is_rebound(self):
        import katzexp
        import katzexp.katz
        import katzexp.series

        original = katzexp.series.qs_mul
        Tracer().install()
        try:
            self.assertIsNot(katzexp.series.qs_mul, original)
            self.assertIs(katzexp.katz.qs_mul, katzexp.series.qs_mul)
            self.assertIs(katzexp.qs_mul, katzexp.series.qs_mul)
        finally:
            for mod in [m for n, m in sys.modules.items() if n.startswith("katzexp")]:
                for attr, obj in list(vars(mod).items()):
                    if callable(obj) and hasattr(obj, "__wrapped__"):
                        setattr(mod, attr, obj.__wrapped__)
        self.assertIs(katzexp.qs_mul, original)


class OracleTest(unittest.TestCase):
    def test_tampered_golden_raises_fail_frac(self):
        req = {"kind": "cli", "argv": ["reproduce-examples"]}
        key = workloads.request_id(req)
        for tamper, want_failed in ((False, 0), (True, 1)):
            w = workloads.Workload("family", 1, _workdir())
            w.requests = [req]
            if tamper:
                w.golden[key] = dict(w.golden[key], digest="0" * 64)
            summary = run.summarize("family", [run.Runner(ROOT, _workdir()).run_pass(w, False)], [], 0)
            self.assertEqual((summary["attempted"], summary["failed"]), (1, want_failed))

    def test_katz_inputs_follow_the_seed(self):
        a, vals_a = workloads.katz_input(11)
        b, vals_b = workloads.katz_input(11)
        c, _ = workloads.katz_input(12)
        self.assertEqual(a, b)
        self.assertEqual(vals_a, vals_b)
        self.assertNotEqual(a, c)

    def test_katz_oracle_rejects_a_wrong_valuation(self):
        blob, vals = workloads.katz_input(3)
        with tempfile.NamedTemporaryFile("wb", suffix=".json", dir=_workdir(), delete=False) as fh:
            fh.write(blob)
        argv = ["katz", "--input", fh.name, "--prime", str(workloads.KATZ_PRIME),
                "--max-index", str(workloads.KATZ_MAX_INDEX)]
        try:
            out = run.Runner(ROOT, _workdir()).job([{"kind": "cli", "argv": argv}], False)
        finally:
            os.remove(fh.name)
        res = out["results"][0]
        self.assertIsNone(workloads.check_katz(vals, workloads.KATZ_PRIME, res["rc"], res["output"]))
        wrong = list(vals)
        wrong[0] += 1
        self.assertIsNotNone(workloads.check_katz(wrong, workloads.KATZ_PRIME, res["rc"], res["output"]))


if __name__ == "__main__":
    unittest.main()
