"""Reproducible verification runs with machine-readable reports.

Each command is one row of COMMANDS: a plan, which maps its parameters to
everything its report states except the computed values, a computation,
which supplies those values, and its command-line options; run executes a
row (see Plan, Command and revalidate_report). In a capped report a stored
valuation at or above pprec, "inf" included, means "at least pprec"; every
verdict depends only on min(v, pprec).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, NamedTuple

from ._rational import INF, QQ, is_prime, rational_from_str, rational_to_str
from .classical import HAUPTMODUL_PRIMES, eisenstein_series, require_hauptmodul_prime, require_prime
from .errors import InvalidWeight, PrecisionTooLow, ResourceBudgetExceeded, UnsupportedPrime
from .family import eis_ratio, estar_family
from .katz import eisenstein_sweep, hauptmodul_valuations, katz_split_classical
from .katz import katz_split_function, qprec_for_split
from .katz import rate_verdicts, require_rate, window_bounds
from .recurrence import delta_p
from .series import apply_V, qs_div, qs_pow

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


class Plan(NamedTuple):
    """A command's report before computation: the canonical parameters, one
    layout per entry (all but its computed values; an iterable, lazy where
    entries may be many) and the provenance, a field left None being the
    computation's (katz's input precision)."""

    parameters: dict
    results: object
    provenance: dict


class Command(NamedTuple):
    """One subcommand as data. plan(parameters) -> Plan refuses parameters
    outside the command's domain; compute(plan, parameters) -> (the value of
    each entry of plan.results, in order; the computed provenance fields).
    arguments holds (flag, argparse keywords) pairs whose destinations are
    the parameter names the plan and the computation read."""

    plan: Callable
    compute: Callable
    help: str
    arguments: tuple = ()


def _provenance(qprec, max_index, pprec=INF):
    return {"qprec": qprec, "pprec": _val_str(pprec), "max_index": max_index}


def _rated(head, rho, c):
    """head followed by the rate of v_p(b_i) >= rho*i - c, as labels state it."""
    offset = "no offset" if c == 0 else "offset " + rational_to_str(c)
    return "%srate %s, %s" % (head, rational_to_str(rho), offset)


def _cert(label, role, p, rho, c, max_index, **fields):
    """Layout of the certificate v_p(b_i) >= rho*i - c for i = 0..max_index."""
    rate = {"p": p, "rho": rational_to_str(rho), "c": rational_to_str(c)}
    return dict(kind="certificate", label=label, role=role, certificate=rate,
                size=max_index + 1, **fields)


def _hauptmodul(name, terms, note, floor=False):
    """Layout of a t-valuation vector; floor states the floors j/2 of rate 1/(p+1)."""
    label = name + " in the hauptmodul coordinate"
    return dict(kind="hauptmodul", label=label, role="witness", note=note, size=terms, floor=floor)


def _comparison(label, published, **fields):
    return dict(kind="comparison", label=label, role="claim", published=published, **fields)


def _fill(layout, value, pprec):
    """The entry of layout with its computed value and all it derives: a
    certificate's value is v_p(b_i) per index (inf at a structural zero,
    whatever is given), a hauptmodul entry's its t-valuations, a comparison's
    its computed side. A value of another length raises ValueError first."""
    if layout["kind"] == "comparison":
        return dict(layout, computed=value, matches=value == layout["published"])
    entry = dict(layout)
    size = entry.pop("size")
    if len(value) != size:
        raise ValueError("%d values for %d indices" % (len(value), size))
    if entry["kind"] == "hauptmodul":
        entry.update(valuations=[_val_str(v) for v in value], first_floor_violation=None)
        if entry.pop("floor"):
            entry["floor_at_sharp_rate"] = [rational_to_str(QQ(j, 2)) for j in range(size)]
            entry["first_floor_violation"] = _floor_violation(value)
        return entry
    cert = entry["certificate"] = dict(entry["certificate"], max_index=size - 1)
    zeros = (lo == hi for lo, hi in (window_bounds(i, cert["p"]) for i in range(size)))
    rows = [(i, INF if z else v, z) for i, (v, z) in enumerate(zip(value, zeros))]
    rho, c = rational_from_str(cert["rho"]), rational_from_str(cert["c"])
    verdicts, cert["first_failure"] = rate_verdicts(rows, rho, c, pprec)
    cert["verdicts"] = list(verdicts)
    entry.update(valuations=[[i, _val_str(v), z] for i, v, z in rows], pprec=_val_str(pprec))
    if "expected" in entry:
        met = (cert[key] == want for key, want in entry["expected"].items())
        entry["matches_expected"] = all(met)
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


def run(name, parameters) -> RunReport:
    """The report of COMMANDS[name] on parameters: the one place that plans,
    computes and assembles, timed from before the plan."""
    started, command = time.perf_counter(), COMMANDS[name]
    plan = command.plan(parameters)
    plan = plan._replace(results=list(plan.results))
    values, computed = command.compute(plan, parameters)
    return _assemble(name, plan, values, started, **computed)


def _assemble(command, plan, values, started=None, **computed):
    """The report of plan filled with values, one per layout (ValueError on
    another count), each filled only as its layout is reached, and with the
    computed provenance fields; a writer passes its start time for wall_time."""
    provenance = dict(plan.provenance, **computed)
    pprec = _val_parse(provenance["pprec"])
    pairs = zip(plan.results, values, strict=True)
    results = [_fill(layout, value, pprec) for layout, value in pairs]
    wall_time = 0.0 if started is None else time.perf_counter() - started
    status = aggregate_status(results)
    return RunReport(command, plan.parameters, results, provenance, status, wall_time)


def _stored_value(entry):
    """The computed value of a stored entry: what no plan fixes."""
    if entry["kind"] == "comparison":
        return entry["computed"]
    cert = entry["kind"] == "certificate"
    return [_val_parse(row[1] if cert else row) for row in entry["valuations"]]


def revalidate_report(report) -> bool:
    """True iff the plan of a stored report's parameters, filled with its
    stored values, gives the report back (as sorted JSON, without wall_time).

    Takes RunReport.to_json output or a json.load of it. Parameters a writer
    refuses, and malformed reports, give False. Layouts are filled only as
    far as the stored entries reach, so inflated parameters cost no more than
    the stored report; the stored valuations themselves are taken on trust.
    """
    if isinstance(report, RunReport):
        report = report.to_json()
    try:
        plan = COMMANDS[report["command"]].plan(report["parameters"])
        stored = report["provenance"]
        computed = {key: stored[key] for key, v in plan.provenance.items() if v is None}
        values = (_stored_value(entry) for entry in report["results"])
        rebuilt = _assemble(report["command"], plan, values, **computed).to_json()
        stored = dict(report, wall_time=rebuilt["wall_time"])
        return json.dumps(rebuilt, sort_keys=True) == json.dumps(stored, sort_keys=True)
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError):
        return False


def _require_split(p, max_index):
    require_prime(p)
    if max_index < 0:
        raise ValueError("max_index must be >= 0, got %r" % (max_index,))


# -- the Condition ----------------------------------------------------------


def _condition_plan(params):
    """One claim v_p(b_i) >= pi/(p+1) on the split of E_{n(p-1)} for each
    n = 1..p, at one prime or (extended) at every prime 5 <= p <= max_prime,
    which the command line calls --prime and which defaults to 97."""
    if params.get("extended"):
        top = params.get("max_prime", params.get("prime"))
        top = 97 if top is None else top
        last = next((q for q in range(top, 4, -1) if is_prime(q)), None)
        if last is None:
            raise UnsupportedPrime("no primes in [5, %d]" % top)
        primes = (q for q in range(5, last + 1) if is_prime(q))
        parameters, label = {"extended": True, "max_prime": top}, "p={p}, n={n}"
    else:
        last = params.get("prime")
        if last is None:
            raise UnsupportedPrime("check-condition needs --prime (or --extended)")
        require_prime(last)
        primes, parameters, label = [last], {"prime": last, "max_n": last}, "n={n}"
    layouts = (_cert(label.format(p=p, n=n), "claim", p, QQ(p, p + 1), 0, n)
               for p in primes for n in range(1, p + 1))
    return Plan(parameters, layouts, _provenance(qprec_for_split(last, last), last))


def _condition_prime(p, budget_seconds=None, deadline=None):
    """The splits of E_{n(p-1)} for n = 1..p, one prime's unit of work, serial
    or pooled: (valuations, whether the split was redone exactly) per split
    and the seconds they took. They run mod p^M, M = p + 4; see
    eisenstein_sweep. At every prime from 13 to 97 the one split redone is
    n = 1, whose b_1 is 0; the largest finite valuation is M - 3 from p = 29
    to 97 and M - 2 at p = 23. No split starts past the time.monotonic()
    deadline."""
    started, pairs = time.perf_counter(), []
    splits = eisenstein_sweep(p, p + 4)
    for n in range(1, p + 1):
        # time.monotonic is system-wide, so a spawned worker reads its parent's clock
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceBudgetExceeded(
                "condition sweep exceeded %gs before p=%d, n=%d" % (budget_seconds, p, n))
        pairs.append(next(splits))
    return pairs, time.perf_counter() - started


def _condition_sweep(primes, jobs, budget_seconds):
    """The valuations of every split at each prime, in order (n = 1..p at
    each), computed one prime at a time: serially, or by the pool.imap of at
    most one worker per prime. Every prime checks the budget before each
    split, in a worker as in a serial run; on overrun ResourceBudgetExceeded
    is raised and the pool terminated, so a sweep is complete or absent. A
    sweep over more than one prime writes one line to stderr per prime."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %r" % (jobs,))
    if budget_seconds is not None and not budget_seconds > 0:
        raise ValueError("budget_seconds must be > 0, got %g" % budget_seconds)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    sweep = functools.partial(_condition_prime, budget_seconds=budget_seconds, deadline=deadline)
    workers = min(jobs, len(primes))
    if workers > 1:
        import multiprocessing  # loaded for a parallel sweep only
    pool = multiprocessing.get_context("spawn").Pool(workers) if workers > 1 else None
    results = []
    try:
        for p, (pairs, seconds) in zip(primes, (pool.imap if pool else map)(sweep, primes)):
            results += [vals for vals, _ in pairs]
            if len(primes) > 1:
                exact = sum(redone for _, redone in pairs)
                print("p=%d: %d splits, %d exact, %.2f s" % (p, p, exact, seconds), file=sys.stderr)
    finally:
        if pool is not None:
            pool.terminate()
    return results


def _condition_compute(plan, params):
    primes = list(dict.fromkeys(e["certificate"]["p"] for e in plan.results))
    return _condition_sweep(primes, params.get("jobs", 1), params.get("budget_seconds")), {}


def cmd_check_condition(p, *, jobs=1, budget_seconds=None) -> RunReport:
    """Certify v_p(b_i) >= pi/(p+1) for the splits of E_{n(p-1)}, n = 1..p."""
    return run("check-condition", {"prime": p, "jobs": jobs, "budget_seconds": budget_seconds})


def cmd_check_condition_extended(max_prime=None, *, jobs=1, budget_seconds=None) -> RunReport:
    """Run the full condition sweep for every prime 5 <= p <= max_prime (default 97)."""
    return run("check-condition", dict(extended=True, max_prime=max_prime, jobs=jobs,
                                       budget_seconds=budget_seconds))


# -- worked examples at p = 5 ----------------------------------------------


def _vratio(g, p):
    return qs_div(apply_V(g, p), g)


_T_VALS_24 = ["0", "1", "1", "3", "3", "4", "4", "5", "5", "6", "4"]


def _examples_plan(params):
    """The published p = 5 weight-24 values: b_3 and b_6 of the split of E_24,
    its sharp rate failing at index 6, and the t^10 dip of V(E_24)/E_24."""
    layouts = [
        _comparison("window coordinate of b_3", "-340364160000/236364091"),
        _comparison("window coordinate of b_6", "30710845440000/236364091"),
        _comparison("valuations v_5(b_3), v_5(b_6)", ["4", "4"]),
        _cert("split of E_24, rate 5/6, no offset", "witness", 5, QQ(5, 6), 0, 6,
              expected={"first_failure": 6},
              note="sharp rate fails exactly at the top index; offset 1 repairs it"),
        _cert("split of E_24, rate 5/6, offset 1", "claim", 5, QQ(5, 6), 1, 6),
        _comparison("hauptmodul valuations of V(E_24)/E_24", list(_T_VALS_24),
                    note="valuation 4 at t^10 is below the floor 5 required at rate 1/6, "
                    "so V(E_24)/E_24 is not overconvergent at that rate"),
        _comparison("first hauptmodul floor violation at rate 1/6", 10),
    ]
    return Plan({"prime": 5}, layouts, _provenance(qprec_for_split(5, 6), 6))


def _examples_compute(plan, params):
    E24 = eisenstein_series(24, plan.provenance["qprec"])
    ke = katz_split_classical(E24, 6, 5)
    t_vals = hauptmodul_valuations(_vratio(E24, 5), 5, len(_T_VALS_24))
    vals, b3, b6 = [t.val for t in ke.terms], ke.terms[3], ke.terms[6]
    values = [rational_to_str(b3.miller_coords[0]), rational_to_str(b6.miller_coords[0]),
              [_val_str(b3.val), _val_str(b6.val)], vals, vals,
              [_val_str(v) for v in t_vals], _floor_violation(t_vals)]
    return values, {}


def cmd_reproduce_examples() -> RunReport:
    """Replay the p = 5 weight-24 computations against their published values."""
    return run("reproduce-examples", {})


# -- theorem-shaped claims --------------------------------------------------


def _family_targets(s, p, max_index, pprec):
    """V(g)/g for the weight-0 family member g at s, known mod p^pprec."""
    N = max(50, qprec_for_split(p, max_index))
    return N, lambda: [_vratio(estar_family(s, p, N, pprec), p)]


def _vratio_targets(k, p, max_index, pprec):
    """V(E_k)/E_k, exact."""
    N = qprec_for_split(p, max_index)
    return N, lambda: [_vratio(eisenstein_series(k, N), p)]


def _en_targets(n, p, max_index, pprec):
    """e_n = E_{n(p-1)} / E_{p-1}^n alone, exact."""
    N = max(qprec_for_split(p, max_index), qprec_for_split(p, n))
    return N, lambda: [qs_div(eisenstein_series(n * (p - 1), N), qs_pow(eisenstein_series(p - 1, N), n))]


def _ladder_targets(n, p, max_index, pprec):
    """e_n and its unit-root counterpart e*_n, exact."""
    N, _ = _en_targets(n, p, max_index, pprec)
    return N, lambda: list(eis_ratio(n, p, N))


def _vratio_gate(k, p):
    if k < 4 or k % (p - 1) != 0:
        raise InvalidWeight("V(E_k)/E_k needs k >= 4 divisible by %d" % (p - 1))


def _digit_sum_gate(what, m, p, *, below=False):
    """delta_p(m) must equal p-1, or stay below it."""
    gate = delta_p(m, p)
    if (gate < p - 1) if below else (gate == p - 1):
        return
    need = ("it below %d" if below else "%d") % (p - 1)
    raise InvalidWeight("digit sum of %s is %d, need %s" % (what, gate, need))


class Theorem(NamedTuple):
    """One theorem-shaped statement as data.

    build(value, p, max_index, pprec) -> (qprec, a function computing the
    series, each carrying its p-adic precision); targets pairs each series
    used with its label format and the note of its sharp-rate witness (None:
    no witness). The claims are the standard pair (base, 1), (2/3 base, 0),
    or with sharp=True just (base, 0).
    """

    build: Callable
    targets: tuple
    base_p: bool = False  # base rate p/(p+1) rather than 1/(p+1)
    sharp: bool = False
    gate: Callable = lambda value, p: None  # raises on a domain error; value >= 1 always
    default: int | None = None
    hauptmodul: bool = False  # hauptmodul floor witness at p in {5, 7, 13}


THEOREMS = {
    # V(g)/g for the weight-0 family member at s (default 1), mod p^pprec
    ("A", "s"): Theorem(
        _family_targets,
        (("V(g)/g for the weight-0 family member at s={v} mod {p}^{pprec}", None),), default=1,
    ),
    # V(E_k)/E_k for a classical weight k divisible by p-1
    ("B", "k"): Theorem(
        _vratio_targets,
        (("V(E_{v})/E_{v}", "sharpness probe; a failure here does not touch the claims"),),
        gate=_vratio_gate, hauptmodul=True,
    ),
    # e_n and its unit-root counterpart
    ("C", "n"): Theorem(
        _ladder_targets,
        (("e_{v}", "sharpness probe at the top index"), ("unit-root e*_{v}", None)), base_p=True,
    ),
    # the digit-sum-gated sharp rates: delta_p(n(p-1)) = p-1, or delta_p(k) = p-1,
    # which also gives (p-1) | k
    ("E", "n"): Theorem(
        _en_targets, (("e_{v}", None),), base_p=True, sharp=True,
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


def _theorem_plan(params):
    """The plan of verify-theorem: the row of THEOREMS is picked by the
    parameter given (s for A and F, k for B, n for C, one of n or k for E);
    A and F work mod p^pprec (default 4)."""
    theorem = params["theorem"].upper()
    p, top, pprec = params["prime"], params["max_index"], params.get("pprec")
    _require_split(p, top)
    rows = {param: row for (thm, param), row in THEOREMS.items() if thm == theorem}
    if not rows:
        raise ValueError("unknown theorem %r" % (theorem,))
    given = {q: params.get(q) for q in ("s", "k", "n")}
    stray = [q for q, v in given.items() if v is not None and q not in rows]
    if stray:
        takes = (theorem, " or ".join(rows), " or ".join(stray))
        raise ValueError("theorem %s takes %s, not %s" % takes)
    usable = [q for q, row in rows.items() if given[q] is not None or row.default is not None]
    if len(usable) != 1:
        raise ValueError("theorem %s needs exactly one of %s" % (theorem, " or ".join(rows)))
    (param,) = usable
    row = rows[param]
    value = row.default if given[param] is None else given[param]
    if row.build is not _family_targets:
        if pprec is not None:
            raise ValueError("theorem %s is computed exactly and takes no pprec" % theorem)
        pprec = INF
    if value < 1:
        raise InvalidWeight("%s must be >= 1, got %d" % (param, value))
    row.gate(value, p)
    parameters = {"theorem": theorem, "prime": p, "max_index": top, param: value}
    if pprec != INF:
        pprec = parameters["pprec"] = 4 if pprec is None else pprec
        if pprec < 1:
            raise PrecisionTooLow("pprec must be >= 1, got %r" % (pprec,))
    qprec, _ = row.build(value, p, top, pprec)
    base = QQ(p if row.base_p else 1, p + 1)
    rates = ((base, 0),) if row.sharp else ((base, 1), (base * QQ(2, 3), 0))
    layouts = []
    for name, witness in row.targets:
        name = name.format(v=value, p=p, pprec=pprec)
        head = name + (", sharp " if row.sharp else ", ")
        layouts += [_cert(_rated(head, rho, c), "claim", p, rho, c, top) for rho, c in rates]
        if witness is not None:
            label = _rated(name + ", sharp ", base, 0)
            layouts.append(_cert(label, "witness", p, base, 0, top, note=witness))
        if row.hauptmodul and p in HAUPTMODUL_PRIMES:
            note = "membership at rate 1/%d would force the floor on every listed coefficient"
            layouts.append(_hauptmodul(name, 2 * top // (p + 1) + 1, note % (p + 1), floor=True))
    return Plan(parameters, layouts, _provenance(qprec, top, pprec))


def _theorem_compute(plan, params):
    """One split per series of the plan's THEOREMS row, filling the layouts
    whose labels begin with that series' name; a hauptmodul layout takes the
    series' t-valuations."""
    parameters, pprec = plan.parameters, _val_parse(plan.provenance["pprec"])
    p, top = parameters["prime"], parameters["max_index"]
    param = next(q for q in ("s", "k", "n") if q in parameters)
    row, value = THEOREMS[parameters["theorem"], param], parameters[param]
    _, series = row.build(value, p, top, pprec)
    values = []
    for f, (name, _) in zip(series(), row.targets, strict=True):
        ke = katz_split_function(f, p, top)
        if ke.effective_pprec != pprec:
            raise PrecisionTooLow("split known mod p^%s, not p^%s" % (ke.effective_pprec, pprec))
        vals, name = [t.val for t in ke.terms], name.format(v=value, p=p, pprec=pprec)
        values += [hauptmodul_valuations(f, p, e["size"]) if e["kind"] == "hauptmodul" else vals
                   for e in plan.results if e["label"].startswith(name)]
    return values, {}


def cmd_verify_theorem(theorem, p, max_index, *, s=None, k=None, n=None, pprec=None) -> RunReport:
    """Certify one theorem-shaped overconvergence statement up to max_index."""
    return run("verify-theorem", dict(theorem=theorem, prime=p, max_index=max_index,
                                      s=s, k=k, n=n, pprec=pprec))


# -- raw splits and hauptmodul vectors --------------------------------------


def _katz_plan(params):
    """One claim at rate rho (default p/(p+1)) and offset c, both given as
    "num" or "num/den", on a split; the input's q- and p-adic precision are
    the computation's."""
    p, top = params["prime"], params["max_index"]
    rho = None if params["rho"] is None else rational_from_str(params["rho"])
    c = rational_from_str(params["c"])
    _require_split(p, top)
    rho = QQ(p, p + 1) if rho is None else rho
    require_rate(rho, c)
    parameters = dict(prime=p, max_index=top, rho=rational_to_str(rho), c=rational_to_str(c))
    layout = _cert(_rated("input series, ", rho, c), "claim", p, rho, c, top)
    return Plan(parameters, [layout], {"qprec": None, "pprec": None, "max_index": top})


def _katz_compute(plan, params):
    f = params["series"]
    ke = katz_split_function(f, plan.parameters["prime"], plan.parameters["max_index"])
    return [[t.val for t in ke.terms]], {"qprec": f.prec, "pprec": _val_str(ke.effective_pprec)}


def _rate_param(x):
    """An int or rational rate as the plan reads it; anything else goes to the
    plan unparsed, so a float or "0.5" fails there as on the command line."""
    return rational_to_str(x) if isinstance(x, (int, QQ)) else x


def cmd_katz(f, p, max_index, *, rho=None, c=0) -> RunReport:
    """Split a weight-0 q-series and certify one rate (default p/(p+1))."""
    return run("katz", dict(series=f, prime=p, max_index=max_index, c=_rate_param(c), rho=_rate_param(rho)))


def _hauptmodul_plan(params):
    """The raw valuation vector of V(E_k)/E_k in the genus-zero coordinate at p."""
    p, k, terms = params["prime"], params["weight"], params["terms"]
    if k < 4 or k % 2 != 0:
        raise InvalidWeight("need an even weight k >= 4")
    if terms < 1:
        raise PrecisionTooLow("hauptmodul needs --terms >= 1, got %d" % terms)
    require_hauptmodul_prime(p)
    note = "raw valuation vector; no rate claim attached"
    layout = _hauptmodul("V(E_%d)/E_%d" % (k, k), terms, note)
    parameters = {"prime": p, "weight": k, "terms": terms}
    return Plan(parameters, [layout], _provenance(terms + 8, terms - 1))


def _hauptmodul_compute(plan, params):
    p, k, terms = (plan.parameters[key] for key in ("prime", "weight", "terms"))
    f = _vratio(eisenstein_series(k, plan.provenance["qprec"]), p)
    return [hauptmodul_valuations(f, p, terms)], {}


def cmd_hauptmodul(p, k, terms) -> RunReport:
    """Valuation vector of V(E_k)/E_k in the genus-zero coordinate at p."""
    return run("hauptmodul", {"prime": p, "weight": k, "terms": terms})


# every subcommand, by the name its reports carry, in the order --help lists them
COMMANDS = {
    "check-condition": Command(
        _condition_plan, _condition_compute,
        "certify the coefficient-valuation condition for one prime or a range",
        (("--prime", dict(type=int, help="prime p >= 5 (default 97 with --extended)")),
         ("--extended", dict(action="store_true",
                             help="sweep every prime from 5 up to --prime instead of just one")),
         ("--jobs", dict(type=int, default=1, help="parallel workers")),
         ("--budget-seconds", dict(type=float, help="abort (exit > 2) instead of running "
                                   "past this wall-clock budget")))),
    "reproduce-examples": Command(
        _examples_plan, _examples_compute, "replay the published p=5 weight-24 computations"),
    "verify-theorem": Command(
        _theorem_plan, _theorem_compute, "certify one theorem-shaped rate statement",
        (("--id", dict(required=True, dest="theorem", metavar="ID",
                       help="which statement: A, B, C, E or F (any case)")),
         ("--prime", dict(type=int, required=True)),
         ("--max-index", dict(type=int, required=True)),
         ("--s", dict(type=int, help="family parameter (A, F)")),
         ("--k", dict(type=int, help="classical weight (B, E)")),
         ("--n", dict(type=int, help="Eisenstein ratio index (C, E)")),
         ("--pprec", dict(type=int, help="p-adic working precision for A and F (default 4)")))),
    # the command line reads --input into the series that the computation splits
    "katz": Command(
        _katz_plan, _katz_compute, "split a weight-0 q-series from a JSON file",
        (("--input", dict(required=True, help="JSON file with prec and coeffs")),
         ("--prime", dict(type=int, required=True)),
         ("--max-index", dict(type=int, required=True)),
         ("--rho", dict(help="rate to certify (default p/(p+1))")),
         ("--offset", dict(default="0", dest="c", metavar="OFFSET",
                           help="offset c in v >= rho*i - c")))),
    "hauptmodul": Command(
        _hauptmodul_plan, _hauptmodul_compute,
        "valuation vector of V(E_k)/E_k in the genus-zero coordinate",
        (("--prime", dict(type=int, required=True, help="5, 7 or 13")),
         ("--weight", dict(type=int, required=True)),
         ("--terms", dict(type=int, required=True)))),
}
