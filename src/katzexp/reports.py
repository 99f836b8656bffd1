"""Reproducible verification runs with machine-readable reports.

Each command computes a finite family of exact certificates and wraps them in
a RunReport: what was asked, what was computed, at which q- and p-adic
precision, and an aggregate status. A report never asserts anything beyond
the index range it actually computed; negative findings are recorded as
witness entries with the observed failure index. Certificates embed the
coefficient valuations they were judged on, so a reloaded report can be
re-checked without redoing the modular-form arithmetic (revalidate_report).
"""

from __future__ import annotations

import json
import time
from typing import Callable, NamedTuple

from ._rational import INF, QQ, is_prime, rational_from_str, rational_to_str
from .classical import dim_weight, eisenstein_series
from .errors import InvalidWeight, PrecisionTooLow, ResourceBudgetExceeded, UnsupportedPrime
from .family import eis_ratio, estar_family
from .katz import (
    certify_rate,
    hauptmodul_valuations,
    katz_split_classical,
    katz_split_function,
    rate_verdicts,
)
from .recurrence import delta_p
from .series import apply_V, qs_div, qs_reduce_mod

STATUS_CERTIFIED = "certified"
STATUS_FAILED = "failed"
STATUS_INCONCLUSIVE = "inconclusive"


def _val_str(v):
    return "inf" if v == INF else str(int(v))


def _val_parse(s):
    return INF if s == "inf" else int(s)


def qprec_for_split(p, max_index):
    """q-adic precision 8 past the last window, at weight (max_index + 1)(p - 1)."""
    return dim_weight((max_index + 1) * (p - 1))[0] + 8


class RunReport(NamedTuple):
    command: str
    parameters: dict
    results: list
    provenance: dict
    status: str
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return self._asdict()

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def certificate_entry(label, role, ke, cert, *, expected=None, note=None):
    """Report entry for one rate certificate, valuations embedded.

    role "claim" feeds the aggregate status; role "witness" is informational
    unless an expectation is attached (then a mismatch fails the report).
    """
    entry = {
        "kind": "certificate",
        "label": label,
        "role": role,
        "certificate": cert.to_json(),
        "valuations": [
            [t.index, _val_str(t.val), bool(t.structural_zero)] for t in ke.terms
        ],
        "pprec": _val_str(ke.effective_pprec),
    }
    if note is not None:
        entry["note"] = note
    if expected is not None:
        entry["expected"] = dict(expected)
        entry["matches_expected"] = _meets(entry["certificate"], expected)
    return entry


def _meets(cert, expected):
    """Whether a certificate's JSON carries every expected key's value."""
    return all(cert.get(key) == want for key, want in expected.items())


def _rate_entry(prefix, role, ke, rho, c, **kwargs):
    """certificate_entry for rate (rho, c), labelled prefix + the rate."""
    cert = certify_rate(ke, rho, c)
    offset = "no offset" if cert.c == 0 else "offset " + rational_to_str(cert.c)
    label = "%srate %s, %s" % (prefix, rational_to_str(cert.rho), offset)
    return certificate_entry(label, role, ke, cert, **kwargs)


def _hauptmodul_entry(name, t_vals, note, **fields):
    return {
        "kind": "hauptmodul",
        "label": name + " in the hauptmodul coordinate",
        "role": "witness",
        "valuations": [_val_str(v) for v in t_vals],
        "note": note,
        **fields,
    }


def comparison_entry(label, computed, published, *, note=None):
    entry = {
        "kind": "comparison",
        "label": label,
        "role": "claim",
        "computed": computed,
        "published": published,
        "matches": computed == published,
    }
    if note is not None:
        entry["note"] = note
    return entry


def aggregate_status(results) -> str:
    """failed > inconclusive > certified, judged on claims and pinned witnesses."""
    saw_inconclusive = False
    for entry in results:
        if entry.get("matches_expected") is False:
            return STATUS_FAILED
        if entry.get("role") != "claim":
            continue
        if entry["kind"] == "comparison":
            if not entry["matches"]:
                return STATUS_FAILED
        elif entry["kind"] == "certificate":
            cert = entry["certificate"]
            if cert["first_failure"] is not None:
                return STATUS_FAILED
            if "inconclusive" in cert["verdicts"]:
                saw_inconclusive = True
    return STATUS_INCONCLUSIVE if saw_inconclusive else STATUS_CERTIFIED


def revalidate_report(report) -> bool:
    """Recheck every derived field of a report by the rules that wrote it.

    Takes a report dict (RunReport.to_json output or a json.load of it) and
    recomputes each certificate's verdicts and first failure from the stored
    valuations, threshold rho*i - c and working precision, each
    matches_expected from its certificate, each comparison's matches, each
    hauptmodul floor and first floor violation, and the aggregate status.
    True iff everything agrees.
    """
    if isinstance(report, RunReport):
        report = report.to_json()
    for entry in report["results"]:
        if entry.get("kind") == "comparison":
            if entry["matches"] != (entry["computed"] == entry["published"]):
                return False
        if entry.get("kind") == "hauptmodul":
            vals = [_val_parse(v) for v in entry["valuations"]]
            floors = entry.get("floor_at_sharp_rate")
            want = (None, None) if floors is None else (_floors(len(vals)), _floor_violation(vals))
            if (floors, entry["first_floor_violation"]) != want:
                return False
        if entry.get("kind") != "certificate":
            continue
        cert = entry["certificate"]
        if "expected" in entry and entry["matches_expected"] != _meets(cert, entry["expected"]):
            return False
        rows = [(idx, _val_parse(v), structural) for idx, v, structural in entry["valuations"]]
        rho, c = rational_from_str(cert["rho"]), rational_from_str(cert["c"])
        verdicts, first_failure = rate_verdicts(rows, rho, c, _val_parse(entry["pprec"]))
        stored = (cert["verdicts"], cert["first_failure"], cert["max_index"])
        if (list(verdicts), first_failure, len(verdicts) - 1) != stored:
            return False
    return report["status"] == aggregate_status(report["results"])


def _finish(command, parameters, results, started, *, qprec, max_index, pprec="inf"):
    return RunReport(
        command=command,
        parameters=parameters,
        results=results,
        provenance={"qprec": qprec, "pprec": pprec, "max_index": max_index},
        status=aggregate_status(results),
        wall_time=time.perf_counter() - started,
    )


# -- the Condition ----------------------------------------------------------


def _require_prime(p):
    if not is_prime(p) or p < 5:
        raise UnsupportedPrime("need a prime p >= 5, got %r" % (p,))


def _require_max_index(max_index):
    if max_index < 0:
        raise ValueError("max_index must be >= 0, got %r" % (max_index,))


def _condition_entry(args):
    n, p, label = args
    N = qprec_for_split(p, n)
    E = eisenstein_series(n * (p - 1), N)
    ke = katz_split_classical(E, n, p)
    cert = certify_rate(ke, QQ(p, p + 1), 0)
    return certificate_entry(label, "claim", ke, cert)


def _condition_sweep(targets, jobs, budget_seconds, started):
    """Condition entries for the (n, p, label) targets, in order.

    One loop serves the serial map and the pool.imap of at most one worker
    per target. The budget is checked as each entry arrives; on overrun
    ResourceBudgetExceeded is raised and the pool is terminated, dropping
    targets still pending or running, so a sweep is complete or absent.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %r" % (jobs,))
    if budget_seconds is not None and not budget_seconds > 0:
        raise ValueError("budget_seconds must be > 0, got %g" % budget_seconds)
    workers = min(jobs, len(targets))
    if workers > 1:
        import multiprocessing  # loaded for a parallel sweep only
    pool = multiprocessing.get_context("spawn").Pool(workers) if workers > 1 else None
    entries = (pool.imap if pool else map)(_condition_entry, targets)
    results = []
    try:
        for (n, p, _), entry in zip(targets, entries):
            results.append(entry)
            if (
                budget_seconds is not None
                and len(results) < len(targets)
                and time.perf_counter() - started > budget_seconds
            ):
                raise ResourceBudgetExceeded(
                    "condition sweep exceeded %gs after p=%d, n=%d" % (budget_seconds, p, n)
                )
    finally:
        if pool is not None:
            pool.terminate()
    return results


def cmd_check_condition(p, *, jobs=1, budget_seconds=None) -> RunReport:
    """Certify v_p(b_i) >= pi/(p+1) for the splits of E_{n(p-1)}, n = 1..p."""
    started = time.perf_counter()
    _require_prime(p)
    targets = [(n, p, "n=%d" % n) for n in range(1, p + 1)]
    results = _condition_sweep(targets, jobs, budget_seconds, started)
    return _finish(
        "check-condition", {"prime": p, "max_n": p}, results, started,
        qprec=qprec_for_split(p, p), max_index=p,
    )


def cmd_check_condition_extended(
    max_prime=97, *, jobs=1, budget_seconds=None
) -> RunReport:
    """Run the full condition sweep for every prime 5 <= p <= max_prime."""
    started = time.perf_counter()
    primes = [p for p in range(5, max_prime + 1) if is_prime(p)]
    if not primes:
        raise UnsupportedPrime("no primes in [5, %d]" % max_prime)
    targets = [(n, p, "p=%d, n=%d" % (p, n)) for p in primes for n in range(1, p + 1)]
    results = _condition_sweep(targets, jobs, budget_seconds, started)
    return _finish(
        "check-condition", {"extended": True, "max_prime": max_prime}, results, started,
        qprec=max(qprec_for_split(p, p) for p in primes), max_index=primes[-1],
    )


# -- worked examples at p = 5 ----------------------------------------------


def _vratio(g, p):
    return qs_div(apply_V(g, p), g)


def _floor_violation(t_vals):
    """First j whose t-coefficient sits below the rate-1/(p+1) floor j/2."""
    bad = (j for j, v in enumerate(t_vals) if v != INF and QQ(v) < QQ(j, 2))
    return next(bad, None)


def _floors(terms):
    """The floors j/2, j < terms, that membership at rate 1/(p+1) forces."""
    return [rational_to_str(QQ(j, 2)) for j in range(terms)]


_C1 = "-340364160000/236364091"
_C2 = "30710845440000/236364091"
_T_VALS_24 = [0, 1, 1, 3, 3, 4, 4, 5, 5, 6, 4]


def cmd_reproduce_examples() -> RunReport:
    """Replay the p = 5 weight-24 computations against their published values.

    Positive side: the two window coordinates of the split of E_24 and the
    valuations v_5(b_3) = v_5(b_6) = 4. Negative side: the split of e_6 fails
    the offsetless 5/6 rate exactly at index 6, and the hauptmodul expansion
    of V(E_24)/E_24 dips to valuation 4 at t^10, below the ceil(j/2) floor
    that membership at rate 1/6 would force on those coefficients.
    """
    started = time.perf_counter()
    p = 5
    N = qprec_for_split(p, 6)
    E24 = eisenstein_series(24, N)
    ke = katz_split_classical(E24, 6, p)
    t_vals = hauptmodul_valuations(_vratio(E24, p), p, len(_T_VALS_24))
    results = [
        comparison_entry(
            "window coordinate of b_3",
            rational_to_str(ke.term(3).miller_coords[0]),
            _C1,
        ),
        comparison_entry(
            "window coordinate of b_6",
            rational_to_str(ke.term(6).miller_coords[0]),
            _C2,
        ),
        comparison_entry(
            "valuations v_5(b_3), v_5(b_6)",
            [_val_str(ke.term(3).val), _val_str(ke.term(6).val)],
            ["4", "4"],
        ),
        _rate_entry(
            "split of E_24, ", "witness", ke, QQ(p, p + 1), 0,
            expected={"first_failure": 6},
            note="sharp rate fails exactly at the top index; offset 1 repairs it",
        ),
        _rate_entry("split of E_24, ", "claim", ke, QQ(p, p + 1), 1),
        comparison_entry(
            "hauptmodul valuations of V(E_24)/E_24",
            [_val_str(v) for v in t_vals],
            [str(v) for v in _T_VALS_24],
            note=(
                "valuation 4 at t^10 is below the floor 5 required at rate "
                "1/6, so V(E_24)/E_24 is not overconvergent at that rate"
            ),
        ),
        comparison_entry(
            "first hauptmodul floor violation at rate 1/6", _floor_violation(t_vals), 10
        ),
    ]
    return _finish("reproduce-examples", {"prime": p}, results, started, qprec=N, max_index=6)


# -- theorem-shaped claims --------------------------------------------------


def _family_targets(s, p, max_index, pprec):
    """V(g)/g mod p^pprec for the weight-0 family member g at s."""
    if pprec < 1:
        raise PrecisionTooLow("pprec must be >= 1, got %r" % (pprec,))
    N = max(50, qprec_for_split(p, max_index))
    g = estar_family(s, p, N, pprec).series
    return N, pprec, [qs_reduce_mod(_vratio(g, p), p ** pprec)]


def _vratio_targets(k, p, max_index, pprec):
    """V(E_k)/E_k, exact, for a weight k >= 4 divisible by p-1."""
    if k < 4 or k % (p - 1) != 0:
        raise InvalidWeight("V(E_k)/E_k needs k >= 4 divisible by %d" % (p - 1))
    N = qprec_for_split(p, max_index)
    return N, INF, [_vratio(eisenstein_series(k, N), p)]


def _ladder_targets(n, p, max_index, pprec):
    """e_n and its unit-root counterpart e*_n, exact."""
    if n < 1:
        raise InvalidWeight("n must be >= 1, got %d" % n)
    N = max(qprec_for_split(p, max_index), qprec_for_split(p, n))
    return N, INF, list(eis_ratio(n, p, N))


def _digit_sum_gate(what, m, p, *, below=False):
    """m >= 1, and delta_p(m) must equal p-1, or stay below it."""
    if m < 1:
        raise InvalidWeight("%s must be >= 1, got %d" % (what, m))
    gate = delta_p(m, p)
    if (gate < p - 1) if below else (gate == p - 1):
        return
    need = ("it below %d" if below else "%d") % (p - 1)
    raise InvalidWeight("digit sum of %s is %d, need %s" % (what, gate, need))


class Theorem(NamedTuple):
    """One theorem-shaped statement as data.

    build(value, p, max_index, pprec) -> (qprec, working pprec, series);
    targets pairs each series used with its label format and the note of
    its sharp-rate witness (None: no witness). The claims are the standard
    pair (base, 1), (2/3 base, 0), or with sharp=True just (base, 0).
    """

    build: Callable
    targets: tuple
    base_p: bool = False  # base rate p/(p+1) rather than 1/(p+1)
    sharp: bool = False
    gate: Callable | None = None  # (value, p); raises on a domain error
    default: int | None = None
    hauptmodul: bool = False  # hauptmodul floor witness at p in {5, 7, 13}


THEOREMS = {
    # V(g)/g for the weight-0 family member at s (default 1), mod p^pprec
    ("A", "s"): Theorem(
        _family_targets,
        (("V(g)/g for the weight-0 family member at s={v} mod {p}^{pprec}", None),),
        default=1,
    ),
    # V(E_k)/E_k for a classical weight k divisible by p-1
    ("B", "k"): Theorem(
        _vratio_targets,
        (("V(E_{v})/E_{v}", "sharpness probe; a failure here does not touch the claims"),),
        hauptmodul=True,
    ),
    # e_n and its unit-root counterpart
    ("C", "n"): Theorem(
        _ladder_targets,
        (("e_{v}", "sharpness probe at the top index"), ("unit-root e*_{v}", None)),
        base_p=True,
    ),
    # the digit-sum-gated sharp rates: delta_p(n(p-1)) = p-1, or delta_p(k) = p-1
    ("E", "n"): Theorem(
        _ladder_targets, (("e_{v}", None),), base_p=True, sharp=True,
        gate=lambda n, p: _digit_sum_gate("n(p-1)", n * (p - 1), p),
    ),
    ("E", "k"): Theorem(
        _vratio_targets, (("V(E_{v})/E_{v}", None),), sharp=True,
        gate=lambda k, p: _digit_sum_gate("k", k, p),
    ),
    # the complementary family gate delta_p(s) < p-1
    ("F", "s"): Theorem(
        _family_targets,
        (("V(g)/g for the family member at s={v} mod {p}^{pprec}", None),),
        sharp=True, gate=lambda s, p: _digit_sum_gate("s", s, p, below=True),
    ),
}


def cmd_verify_theorem(
    theorem, p, max_index, *, s=None, k=None, n=None, pprec=4
) -> RunReport:
    """Certify one theorem-shaped overconvergence statement up to max_index.

    theorem picks its row of THEOREMS by the parameter given (s for A and F,
    k for B, n for C, exactly one of n or k for E); A and F work mod
    p^pprec, the others exactly.
    """
    started = time.perf_counter()
    theorem = theorem.upper()
    _require_prime(p)
    _require_max_index(max_index)
    rows = {param: row for (thm, param), row in THEOREMS.items() if thm == theorem}
    if not rows:
        raise ValueError("unknown theorem %r" % (theorem,))
    given = {"s": s, "k": k, "n": n}
    usable = [q for q, row in rows.items() if given[q] is not None or row.default is not None]
    if len(usable) != 1:
        raise ValueError("theorem %s needs exactly one of %s" % (theorem, " or ".join(rows)))
    (param,) = usable
    row = rows[param]
    value = row.default if given[param] is None else given[param]
    if row.gate is not None:
        row.gate(value, p)

    parameters = {"theorem": theorem, "prime": p, "max_index": max_index, param: value}
    qprec, work_pprec, series = row.build(value, p, max_index, pprec)
    if work_pprec != INF:
        parameters["pprec"] = pprec
    base = QQ(p if row.base_p else 1, p + 1)
    rates = ((base, 0),) if row.sharp else ((base, 1), (base * QQ(2, 3), 0))
    results = []
    # zip stops at the targets the row names: E with n splits e_n alone
    for (name, witness), f in zip(row.targets, series):
        name = name.format(v=value, p=p, pprec=pprec)
        ke = katz_split_function(f, p, max_index, pprec=work_pprec)
        prefix = name + (", sharp " if row.sharp else ", ")
        results += [_rate_entry(prefix, "claim", ke, rho, c) for rho, c in rates]
        if witness is not None:
            results.append(_rate_entry(name + ", sharp ", "witness", ke, base, 0, note=witness))
        if row.hauptmodul and p in (5, 7, 13):
            terms = 2 * max_index // (p + 1) + 1
            t_vals = hauptmodul_valuations(f, p, terms)
            note = "membership at rate 1/%d would force the floor on every listed coefficient"
            results.append(_hauptmodul_entry(
                name, t_vals, note % (p + 1),
                floor_at_sharp_rate=_floors(terms),
                first_floor_violation=_floor_violation(t_vals),
            ))

    return _finish(
        "verify-theorem", parameters, results, started,
        qprec=qprec, max_index=max_index, pprec=_val_str(work_pprec),
    )


# -- raw splits and hauptmodul vectors --------------------------------------


def cmd_katz(f, p, max_index, *, rho=None, c=0) -> RunReport:
    """Split a weight-0 q-series and certify one rate (default p/(p+1))."""
    started = time.perf_counter()
    _require_prime(p)
    _require_max_index(max_index)
    if rho is None:
        rho = QQ(p, p + 1)
    ke = katz_split_function(f, p, max_index)
    results = [_rate_entry("input series, ", "claim", ke, rho, c)]
    parameters = {
        "prime": p,
        "max_index": max_index,
        "rho": rational_to_str(rho),
        "c": rational_to_str(c),
    }
    return _finish("katz", parameters, results, started, qprec=f.prec, max_index=max_index)


def cmd_hauptmodul(p, k, terms) -> RunReport:
    """Valuation vector of V(E_k)/E_k in the genus-zero coordinate at p."""
    started = time.perf_counter()
    if k < 4 or k % 2 != 0:
        raise InvalidWeight("need an even weight k >= 4")
    if terms < 1:
        raise PrecisionTooLow("hauptmodul needs --terms >= 1, got %d" % terms)
    N = terms + 8
    f = _vratio(eisenstein_series(k, N), p)
    t_vals = hauptmodul_valuations(f, p, terms)
    results = [
        _hauptmodul_entry(
            "V(E_%d)/E_%d" % (k, k), t_vals,
            "raw valuation vector; no rate claim attached",
            first_floor_violation=None,
        )
    ]
    return _finish(
        "hauptmodul", {"prime": p, "weight": k, "terms": terms}, results, started,
        qprec=N, max_index=terms - 1,
    )
