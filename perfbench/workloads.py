"""The benchmark's workloads: which requests each pass sends, the inputs the
seed generates for them, and the oracle that checks every output.

A request is one call into katzexp that a user would make: a CLI command
(kind "cli") or a library function (kind "lib"). The harness groups
requests into worker jobs; every job runs in a fresh process, so each one
pays the cold caches (the Miller power cache, the Bernoulli table, the
Newton chain cache) exactly as a CLI user does.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# condition: exact splits of high-weight Eisenstein series. Short series
# (N <= 40) with huge rational coefficients, so qs_mul dominates and the
# Bernoulli, family, Hecke and recurrence code is nearly idle.
CONDITION_CLI = (
    ("check-condition", "--prime", "13"),
    ("reproduce-examples",),
    ("verify-theorem", "--id", "B", "--prime", "5", "--k", "24", "--max-index", "30"),
    ("verify-theorem", "--id", "C", "--prime", "5", "--n", "6", "--max-index", "12"),
    ("hauptmodul", "--prime", "5", "--weight", "24", "--terms", "11"),
)
# the seed-generated weight-0 input for the katz request
KATZ_PRIME, KATZ_MAX_INDEX = 7, 24

# family: Bernoulli numbers at weights near 1000-1300 dominate; the series
# layer works on integers mod p^M at N = 50. F at p=5, s=1 is left out on
# purpose: it repeats A's construction.
FAMILY_CLI = (
    ("verify-theorem", "--id", "A", "--prime", "5", "--max-index", "21", "--pprec", "3"),
    ("verify-theorem", "--id", "F", "--prime", "11", "--s", "1", "--max-index", "10", "--pprec", "2"),
    ("verify-theorem", "--id", "F", "--prime", "5", "--s", "3", "--max-index", "21", "--pprec", "4"),
)

# orbit_chain: the only workload for hecke (strided convolution) and
# recurrence (sparse Newton chain); series at large N, small coefficients.
ORBIT_ARGS = {"n": 2, "p": 5, "iters": 3, "N": 625}
CHAIN_ARGS = {"p": 7, "n_max": 30}
# agreement depths of the orbit with e*_2: the first three of criterion 6's
# 15, 22, 29, 36 (read at N = 3750, four iterates)
ORBIT_DEPTHS = [15, 22, 29]

WORKLOADS = ("condition", "family", "orbit_chain")


def request_id(req):
    if req["kind"] == "cli":
        return " ".join(req["argv"])
    args = ",".join("%s=%s" % kv for kv in sorted(req["args"].items()))
    return "%s(%s)" % (req["call"], args)


def canonical_digest(report_text):
    """sha256 of a report with its wall_time removed."""
    report = json.loads(report_text)
    report.pop("wall_time", None)
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- seed-generated katz input ------------------------------------------------


def _vp(x, p):
    x = Fraction(x)
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _unit(rng, bits, p):
    while True:
        u = rng.randrange(1, 1 << bits)
        if u % p:
            return u


def katz_input(seed, p=KATZ_PRIME, max_index=KATZ_MAX_INDEX):
    """A weight-0 series f = sum_i b_i / E_{p-1}^i with seed-chosen b_i.

    Each b_i is sum_j c_j M_j over the Miller forms M_j of its window, with
    c_j = +-p^e u / w for units u, w. The Miller forms are integral with
    unit leading terms at distinct exponents, so v_p(b_i) is the smallest
    v_p(c_j): the expected valuations never come from the split under test.
    Returns (file bytes, expected valuations, None marking an empty window).
    """
    from katzexp.classical import eisenstein_series, miller_form
    from katzexp.katz import window_bounds
    from katzexp.reports import qprec_for_split
    from katzexp.series import QSeries, qs_inv, qs_mul

    rng = random.Random("katz:%d" % seed)
    N = qprec_for_split(p, max_index)
    inv_e = qs_inv(eisenstein_series(p - 1, N))
    bs, vals = [], []
    for i in range(max_index + 1):
        lo, hi = window_bounds(i, p)
        acc = [Fraction(0)] * N
        coords = []
        for j in range(lo, hi):
            sign = rng.choice((1, -1))
            c = Fraction(sign * p ** rng.randint(0, i + 1) * _unit(rng, 40, p), _unit(rng, 12, p))
            coords.append(c)
            form = miller_form(i * (p - 1), j, N)
            for m in range(N):
                acc[m] += c * form.coeffs[m]
        bs.append(QSeries(tuple(acc)))
        vals.append(min(_vp(c, p) for c in coords) if coords else None)
    f = bs[max_index]
    for i in range(max_index - 1, -1, -1):
        f = QSeries(tuple(x + y for x, y in zip(qs_mul(f, inv_e).coeffs, bs[i].coeffs)))
    coeffs = []
    for c in f.coeffs:
        c = Fraction(c)
        coeffs.append(str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator))
    blob = json.dumps({"prec": N, "coeffs": coeffs}, sort_keys=True).encode()
    return blob, vals


# -- oracles -------------------------------------------------------------------


def check_cli_golden(golden, req, rc, output):
    want = golden.get(request_id(req))
    if want is None:
        return "no golden digest for %r" % request_id(req)
    if rc != want["rc"]:
        return "exit code %d, golden %d" % (rc, want["rc"])
    if canonical_digest(output) != want["digest"]:
        return "report differs from its golden digest"
    return None


def check_katz(expected_vals, p, rc, output):
    """The split must give back the generator's v_p(b_i), and each verdict
    must be v_p(b_i) >= rho*i with rho = p/(p+1) (pass on empty windows)."""
    report = json.loads(output)
    (entry,) = report["results"]
    rho = Fraction(p, p + 1)
    got_vals, want_verdicts = [], []
    for (idx, v, structural), want in zip(entry["valuations"], expected_vals):
        got_vals.append(None if v == "inf" else int(v))
        want_verdicts.append("pass" if structural or (want is not None and want >= rho * idx) else "fail")
    if got_vals != expected_vals:
        return "valuations %s, generator %s" % (got_vals, expected_vals)
    if entry["certificate"]["verdicts"] != want_verdicts:
        return "verdicts differ from v_p(b_i) >= %s*i" % rho
    want_rc = 1 if "fail" in want_verdicts else 0
    if rc != want_rc:
        return "exit code %d, expected %d" % (rc, want_rc)
    return None


def _agreement_depth(f, g, p):
    vals = [_vp(Fraction(a) - Fraction(b), p) for a, b in zip(f, g)]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def check_orbit(estar, orbit):
    """Depths against e*_2 never decrease and match criterion 6's figures."""
    depths = [_agreement_depth(g, estar, ORBIT_ARGS["p"]) for g in orbit]
    finite = [d for d in depths if d is not None]
    if finite != sorted(finite) or depths != ORBIT_DEPTHS:
        return "agreement depths %s, expected %s" % (depths, ORBIT_DEPTHS)
    return None


def check_chain(seq, images):
    """Reduced Phi(y_n) must equal s_n with A = t_p and B = t_{p+1}."""
    for n, terms in enumerate(images, start=1):
        want = [[list(k), r] for k, r in seq[n].terms]
        if terms != want:
            return "reduced phi image of y_%d differs from s_%d" % (n, n)
    if len(images) != CHAIN_ARGS["n_max"]:
        return "chain stopped at n=%d" % len(images)
    return None


# -- the workload objects ------------------------------------------------------


class Workload:
    """Requests of one pass and their oracles; seed-determined."""

    def __init__(self, name, seed, workdir):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.rng = random.Random("order:%s:%d" % (name, seed))
        self.golden = load_golden()
        self.requests = []
        self._checks = {}
        if name == "condition":
            self.requests = [{"kind": "cli", "argv": list(a)} for a in CONDITION_CLI]
            blob, vals = katz_input(seed)
            path = os.path.join(workdir, "katz-input-%d.json" % seed)
            with open(path, "wb") as fh:
                fh.write(blob)
            katz = {"kind": "cli", "argv": [
                "katz", "--input", os.path.relpath(path), "--prime", str(KATZ_PRIME),
                "--max-index", str(KATZ_MAX_INDEX),
            ]}
            self.requests.append(katz)
            self._checks[request_id(katz)] = lambda rc, out: check_katz(vals, KATZ_PRIME, rc, out)
        elif name == "family":
            self.requests = [{"kind": "cli", "argv": list(a)} for a in FAMILY_CLI]
        else:
            from katzexp.family import eis_ratio
            from katzexp.recurrence import s_sequence

            estar = eis_ratio(2, ORBIT_ARGS["p"], ORBIT_ARGS["N"] // ORBIT_ARGS["p"])[1].coeffs
            seq = s_sequence(CHAIN_ARGS["p"], CHAIN_ARGS["n_max"])
            orbit = {"kind": "lib", "call": "iterate_H", "args": dict(ORBIT_ARGS)}
            chain = {"kind": "lib", "call": "chain", "args": dict(CHAIN_ARGS)}
            self.requests = [orbit, chain]
            self._checks[request_id(orbit)] = lambda rc, out: check_orbit(estar, out)
            self._checks[request_id(chain)] = lambda rc, out: check_chain(seq, out)

    def jobs(self):
        """The worker jobs of one pass, in a seed-chosen order. The library
        workload runs its requests in one fresh process per pass."""
        reqs = list(self.requests)
        self.rng.shuffle(reqs)
        if self.name == "orbit_chain":
            return [reqs]
        return [[r] for r in reqs]

    def check(self, req, rc, output):
        """None when the output is correct, else the reason it is not."""
        check = self._checks.get(request_id(req))
        if check is not None:
            return check(rc, output)
        return check_cli_golden(self.golden, req, rc, output)
