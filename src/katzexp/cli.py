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

from .errors import KatzexpError
from .reports import COMMANDS, STATUS_CERTIFIED, STATUS_FAILED, STATUS_INCONCLUSIVE, run
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


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each of names, rows of COMMANDS.
    Its usage line lists every command either way; the full table keeps the
    default metavar, which its "invalid choice" and "required" errors read."""
    parser = _Parser(prog="katzexp", description=__doc__)
    metavar = None if len(names) == len(COMMANDS) else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar=metavar)
    for name in names:
        command = COMMANDS[name]
        sp = sub.add_parser(name, help=command.help)
        for flag, keywords in command.arguments:
            sp.add_argument(flag, **keywords)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a request builds only its own command's parser; --help, no command or
    # an unknown one builds the whole table
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(names).parse_args(argv)
    try:
        # fail before the run, creating and truncating nothing
        if args.out and os.path.isdir(args.out):
            raise KatzexpError("cannot write --out %s: it is a directory" % args.out)
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise KatzexpError("cannot write --out %s: its parent is not a directory" % args.out)
        if args.command == "katz":
            with open(args.input, "r", encoding="utf-8") as fh:
                args.series = qs_from_json(json.load(fh))
        report = run(args.command, vars(args))
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
