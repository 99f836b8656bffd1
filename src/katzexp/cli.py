"""Command-line front end for the verification commands.

Every subcommand prints a RunReport as JSON (or writes it with --out) and
exits 0 when all claims certified, 1 when some claim failed, 2 when nothing
failed but some verdict was inconclusive at the working precision, 3 for bad
input or a domain error (usage, malformed files, unsupported primes or
weights, an exceeded budget), and 4 only for an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from ._rational import rational_from_str
from .errors import KatzexpError
from .reports import (
    STATUS_CERTIFIED,
    STATUS_FAILED,
    STATUS_INCONCLUSIVE,
    cmd_check_condition,
    cmd_check_condition_extended,
    cmd_hauptmodul,
    cmd_katz,
    cmd_reproduce_examples,
    cmd_verify_theorem,
)
from .series import qs_from_json

EXIT_CODES = {STATUS_CERTIFIED: 0, STATUS_FAILED: 1, STATUS_INCONCLUSIVE: 2}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage, which collides with "inconclusive"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1/6 is a negative rational, not an option
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="katzexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser(
        "check-condition",
        help="certify the coefficient-valuation condition for one prime or a range",
    )
    pc.add_argument("--prime", type=int, help="prime p >= 5 (default 97 with --extended)")
    pc.add_argument(
        "--extended",
        action="store_true",
        help="sweep every prime from 5 up to --prime instead of just one",
    )
    pc.add_argument("--jobs", type=int, default=1, help="parallel workers")
    pc.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="abort (exit > 2) instead of running past this wall-clock budget",
    )

    pr = sub.add_parser(
        "reproduce-examples",
        help="replay the published p=5 weight-24 computations",
    )

    pv = sub.add_parser(
        "verify-theorem", help="certify one theorem-shaped rate statement"
    )
    pv.add_argument("--id", required=True, help="which statement: A, B, C, E or F (any case)")
    pv.add_argument("--prime", type=int, required=True)
    pv.add_argument("--max-index", type=int, required=True)
    pv.add_argument("--s", type=int, default=None, help="family parameter (A, F)")
    pv.add_argument("--k", type=int, default=None, help="classical weight (B, E)")
    pv.add_argument("--n", type=int, default=None, help="Eisenstein ratio index (C, E)")
    pv.add_argument(
        "--pprec", type=int, default=None, help="p-adic working precision for A and F (default 4)"
    )

    pk = sub.add_parser("katz", help="split a weight-0 q-series from a JSON file")
    pk.add_argument("--input", required=True, help="JSON file with prec and coeffs")
    pk.add_argument("--prime", type=int, required=True)
    pk.add_argument("--max-index", type=int, required=True)
    pk.add_argument("--rho", default=None, help="rate to certify (default p/(p+1))")
    pk.add_argument("--offset", default="0", help="offset c in v >= rho*i - c")

    ph = sub.add_parser(
        "hauptmodul", help="valuation vector of V(E_k)/E_k in the genus-zero coordinate"
    )
    ph.add_argument("--prime", type=int, required=True, help="5, 7 or 13")
    ph.add_argument("--weight", type=int, required=True)
    ph.add_argument("--terms", type=int, required=True)

    for sp in (pc, pr, pv, pk, ph):
        sp.add_argument(
            "--out", default=None, help="write the report here instead of stdout"
        )
    return parser


def _dispatch(args):
    if args.command == "check-condition":
        if args.extended:
            return cmd_check_condition_extended(
                *([] if args.prime is None else [args.prime]),
                jobs=args.jobs,
                budget_seconds=args.budget_seconds,
            )
        if args.prime is None:
            raise KatzexpError("check-condition needs --prime (or --extended)")
        return cmd_check_condition(
            args.prime, jobs=args.jobs, budget_seconds=args.budget_seconds
        )
    if args.command == "reproduce-examples":
        return cmd_reproduce_examples()
    if args.command == "verify-theorem":
        return cmd_verify_theorem(
            args.id,
            args.prime,
            args.max_index,
            s=args.s,
            k=args.k,
            n=args.n,
            pprec=args.pprec,
        )
    if args.command == "katz":
        with open(args.input, "r", encoding="utf-8") as fh:
            f = qs_from_json(json.load(fh))
        rho = None if args.rho is None else rational_from_str(args.rho)
        return cmd_katz(
            f, args.prime, args.max_index, rho=rho, c=rational_from_str(args.offset)
        )
    if args.command == "hauptmodul":
        return cmd_hauptmodul(args.prime, args.weight, args.terms)
    raise AssertionError(args.command)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # fail before the run, creating and truncating nothing
        if args.out and os.path.isdir(args.out):
            raise KatzexpError("cannot write --out %s: it is a directory" % args.out)
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise KatzexpError("cannot write --out %s: its parent is not a directory" % args.out)
        report = _dispatch(args)
    except (KatzexpError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except Exception:
        import traceback  # loaded on this path only

        traceback.print_exc()
        return 4
    payload = report.dumps()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:  # a directory, a missing parent, no permission
            print("error: %s" % exc, file=sys.stderr)
            return 3
        print("%s (report written to %s)" % (report.status, args.out))
    else:
        print(payload)
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
