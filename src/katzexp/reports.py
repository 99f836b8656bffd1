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
from .katz import hauptmodul_valuations, katz_split_classical, katz_split_function, rate_verdicts
from .recurrence import delta_p
from .series import apply_V, qs_div

STATUS_CERTIFIED = "certified"
STATUS_FAILED = "failed"
STATUS_INCONCLUSIVE = "inconclusive"


def _val_str(v):
    return "inf" if v == INF else str(int(v))


def _val_parse(s):
    return INF if s == "inf" else int(s)


def _floor_violation(t_vals):
    """First j whose t-coefficient sits below the rate-1/(p+1) floor j/2."""
    bad = (j for j, v in enumerate(t_vals) if v != INF and QQ(v) < QQ(j, 2))
    return next(bad, None)


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


def _derived(entry):
    """The entry with its derived fields recomputed from the rest: the one
    rule by which every entry is written and revalidated.

    A certificate gets its verdicts, first failure and max_index from
    rate_verdicts on its valuations (row i at index i), rate and working
    precision, then its matches_expected and the rate text after the first
    "rate " of its label; a comparison gets matches; a hauptmodul vector gets
    floor_at_sharp_rate and first_floor_violation, a floor being stated only
    where the entry has that key. Input fields come back in canonical form;
    malformed ones raise.
    """
    kind = entry["kind"]
    out = {key: entry[key] for key in ("kind", "label", "role")}
    if "note" in entry:
        out["note"] = entry["note"]
    if kind == "comparison":
        out.update(computed=entry["computed"], published=entry["published"])
        out["matches"] = entry["computed"] == entry["published"]
    elif kind == "hauptmodul":
        vals = [_val_parse(v) for v in entry["valuations"]]
        out.update(valuations=[_val_str(v) for v in vals], first_floor_violation=None)
        if "floor_at_sharp_rate" in entry:  # the floors j/2 that rate 1/(p+1) forces
            out["floor_at_sharp_rate"] = [rational_to_str(QQ(j, 2)) for j in range(len(vals))]
            out["first_floor_violation"] = _floor_violation(vals)
    elif kind == "certificate":
        cert = entry["certificate"]
        rho, c = rational_from_str(cert["rho"]), rational_from_str(cert["c"])
        rows = [(i, _val_parse(v), bool(z)) for i, (_, v, z) in enumerate(entry["valuations"])]
        pprec = _val_parse(entry["pprec"])
        verdicts, first_failure = rate_verdicts(rows, rho, c, pprec)
        out["certificate"] = {
            "p": cert["p"],
            "rho": rational_to_str(rho),
            "c": rational_to_str(c),
            "max_index": len(verdicts) - 1,
            "verdicts": list(verdicts),
            "first_failure": first_failure,
        }
        out.update(valuations=[[i, _val_str(v), z] for i, v, z in rows], pprec=_val_str(pprec))
        head, rate, _ = out["label"].partition("rate ")
        if rate:
            offset = "no offset" if c == 0 else "offset " + rational_to_str(c)
            out["label"] = "%srate %s, %s" % (head, rational_to_str(rho), offset)
        if "expected" in entry:
            out["expected"] = expected = dict(entry["expected"])
            met = (out["certificate"].get(key) == want for key, want in expected.items())
            out["matches_expected"] = all(met)
    else:
        raise ValueError("unknown entry kind %r" % (kind,))
    return out


def _entry(kind, label, role, **fields):
    return _derived(dict(kind=kind, label=label, role=role, **fields))


def _rate_entry(label, role, ke, rho, c, **fields):
    """Certificate entry for v_p(b_i) >= rho*i - c on the split ke, valuations
    embedded; a label ending in "rate " gets the rate written after it.

    role "claim" feeds the aggregate status; role "witness" is informational
    unless an expectation is attached (then a mismatch fails the report).
    """
    rate = {"p": ke.p, "rho": rational_to_str(QQ(rho)), "c": rational_to_str(QQ(c))}
    rows = [[t.index, _val_str(t.val), t.structural_zero] for t in ke.terms]
    pprec = _val_str(ke.effective_pprec)
    return _entry(
        "certificate", label, role, certificate=rate, valuations=rows, pprec=pprec, **fields
    )


def _comparison(label, computed, published, **fields):
    return _entry("comparison", label, "claim", computed=computed, published=published, **fields)


def _hauptmodul_entry(name, t_vals, note, **fields):
    label, vals = name + " in the hauptmodul coordinate", [_val_str(v) for v in t_vals]
    return _entry("hauptmodul", label, "witness", valuations=vals, note=note, **fields)


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
    """Recheck a report by the rule that wrote it, without its modular forms.

    Takes a report dict (RunReport.to_json output or a json.load of it).
    True iff every entry equals its _derived form, compared as sorted JSON
    so that a value of another type differs too, every certificate's p is
    the report's prime where its parameters name one, every certificate's
    pprec is the provenance pprec, and so is the parameters' pprec where
    they name one, and the status is the aggregate_status of the entries.
    A malformed report is False.
    """
    if isinstance(report, RunReport):
        report = report.to_json()
    try:
        results = report["results"]
        derived = [_derived(entry) for entry in results]
        same = json.dumps(results, sort_keys=True) == json.dumps(derived, sort_keys=True)
        prime = report["parameters"].get("prime")  # an extended sweep names none
        primes = {e["certificate"]["p"] for e in results if e["kind"] == "certificate"}
        same = same and (prime is None or primes <= {prime})
        pprec = report["provenance"]["pprec"]
        pprecs = {e["pprec"] for e in results if e["kind"] == "certificate"}
        same = same and pprecs <= {pprec} and str(report["parameters"].get("pprec", pprec)) == pprec
        return same and report["status"] == aggregate_status(results)
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError):
        return False


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
    ke = katz_split_classical(eisenstein_series(n * (p - 1), qprec_for_split(p, n)), n, p)
    return _rate_entry(label, "claim", ke, QQ(p, p + 1), 0)


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


def cmd_check_condition_extended(max_prime=97, *, jobs=1, budget_seconds=None) -> RunReport:
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
    b3, b6 = ke.term(3), ke.term(6)
    results = [
        _comparison("window coordinate of b_3", rational_to_str(b3.miller_coords[0]), _C1),
        _comparison("window coordinate of b_6", rational_to_str(b6.miller_coords[0]), _C2),
        _comparison(
            "valuations v_5(b_3), v_5(b_6)", [_val_str(b3.val), _val_str(b6.val)], ["4", "4"]
        ),
        _rate_entry(
            "split of E_24, rate ", "witness", ke, QQ(p, p + 1), 0,
            expected={"first_failure": 6},
            note="sharp rate fails exactly at the top index; offset 1 repairs it",
        ),
        _rate_entry("split of E_24, rate ", "claim", ke, QQ(p, p + 1), 1),
        _comparison(
            "hauptmodul valuations of V(E_24)/E_24",
            [_val_str(v) for v in t_vals],
            [str(v) for v in _T_VALS_24],
            note=(
                "valuation 4 at t^10 is below the floor 5 required at rate "
                "1/6, so V(E_24)/E_24 is not overconvergent at that rate"
            ),
        ),
        _comparison(
            "first hauptmodul floor violation at rate 1/6", _floor_violation(t_vals), 10
        ),
    ]
    return _finish("reproduce-examples", {"prime": p}, results, started, qprec=N, max_index=6)


# -- theorem-shaped claims --------------------------------------------------


def _family_targets(s, p, max_index, pprec):
    """V(g)/g for the weight-0 family member g at s, known mod p^pprec (default 4)."""
    pprec = 4 if pprec is None else pprec
    if pprec < 1:
        raise PrecisionTooLow("pprec must be >= 1, got %r" % (pprec,))
    N = max(50, qprec_for_split(p, max_index))
    return N, [_vratio(estar_family(s, p, N, pprec), p)]


def _vratio_targets(k, p, max_index, pprec):
    """V(E_k)/E_k, exact, for a weight k >= 4 divisible by p-1."""
    if k < 4 or k % (p - 1) != 0:
        raise InvalidWeight("V(E_k)/E_k needs k >= 4 divisible by %d" % (p - 1))
    N = qprec_for_split(p, max_index)
    return N, [_vratio(eisenstein_series(k, N), p)]


def _ladder_targets(n, p, max_index, pprec):
    """e_n and its unit-root counterpart e*_n, exact."""
    if n < 1:
        raise InvalidWeight("n must be >= 1, got %d" % n)
    N = max(qprec_for_split(p, max_index), qprec_for_split(p, n))
    return N, list(eis_ratio(n, p, N))


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

    build(value, p, max_index, pprec) -> (qprec, series), each series
    carrying the p-adic precision it is known to; targets pairs each series
    used with its label format and the note of its sharp-rate witness (None:
    no witness). The claims are the standard pair (base, 1), (2/3 base, 0),
    or with sharp=True just (base, 0).
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
    theorem, p, max_index, *, s=None, k=None, n=None, pprec=None
) -> RunReport:
    """Certify one theorem-shaped overconvergence statement up to max_index.

    theorem picks its row of THEOREMS by the parameter given (s for A and F,
    k for B, n for C, exactly one of n or k for E); A and F work mod
    p^pprec (default 4), the others exactly and refuse a pprec.
    """
    started = time.perf_counter()
    theorem = theorem.upper()
    _require_prime(p)
    _require_max_index(max_index)
    rows = {param: row for (thm, param), row in THEOREMS.items() if thm == theorem}
    if not rows:
        raise ValueError("unknown theorem %r" % (theorem,))
    given = {"s": s, "k": k, "n": n}
    stray = [q for q, v in given.items() if v is not None and q not in rows]
    if stray:
        raise ValueError(
            "theorem %s takes %s, not %s" % (theorem, " or ".join(rows), " or ".join(stray))
        )
    usable = [q for q, row in rows.items() if given[q] is not None or row.default is not None]
    if len(usable) != 1:
        raise ValueError("theorem %s needs exactly one of %s" % (theorem, " or ".join(rows)))
    (param,) = usable
    row = rows[param]
    value = row.default if given[param] is None else given[param]
    if pprec is not None and row.build is not _family_targets:
        raise ValueError("theorem %s is computed exactly and takes no pprec" % theorem)
    if row.gate is not None:
        row.gate(value, p)

    parameters = {"theorem": theorem, "prime": p, "max_index": max_index, param: value}
    qprec, series = row.build(value, p, max_index, pprec)
    base = QQ(p if row.base_p else 1, p + 1)
    rates = ((base, 0),) if row.sharp else ((base, 1), (base * QQ(2, 3), 0))
    results = []
    # zip stops at the targets the row names: E with n splits e_n alone
    for (name, witness), f in zip(row.targets, series):
        ke = katz_split_function(f, p, max_index)
        name = name.format(v=value, p=p, pprec=ke.effective_pprec)
        sharp = name + ", sharp rate "
        label = sharp if row.sharp else name + ", rate "
        results += [_rate_entry(label, "claim", ke, rho, c) for rho, c in rates]
        if witness is not None:
            results.append(_rate_entry(sharp, "witness", ke, base, 0, note=witness))
        if row.hauptmodul and p in (5, 7, 13):
            terms = 2 * max_index // (p + 1) + 1
            t_vals = hauptmodul_valuations(f, p, terms)
            note = "membership at rate 1/%d would force the floor on every listed coefficient"
            # the key states the floor; _derived writes it and its first violation
            results.append(
                _hauptmodul_entry(name, t_vals, note % (p + 1), floor_at_sharp_rate=None)
            )

    if ke.effective_pprec != INF:
        parameters["pprec"] = ke.effective_pprec
    return _finish(
        "verify-theorem", parameters, results, started,
        qprec=qprec, max_index=max_index, pprec=_val_str(ke.effective_pprec),
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
    results = [_rate_entry("input series, rate ", "claim", ke, rho, c)]
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
            "V(E_%d)/E_%d" % (k, k), t_vals, "raw valuation vector; no rate claim attached"
        )
    ]
    return _finish(
        "hauptmodul", {"prime": p, "weight": k, "terms": terms}, results, started,
        qprec=N, max_index=terms - 1,
    )
