"""Command-line front end for the verification commands.

Every subcommand prints a RunReport as JSON (or writes it with --out) and
exits 0 when all claims certified, 1 when some claim failed, 2 when nothing
failed but some verdict was inconclusive at the working precision, 3 for bad
input or a domain error (usage, malformed files, unsupported primes or
weights, an exceeded budget), and 4 only for an internal error.

A request in its canonical form (each option spelled in full and followed
by its value) is read straight off its row of COMMANDS; any other command
line, --help included, goes to argparse, whose parser holds every row and
alone prints usage, help and errors. run then plans the request and calls
the plan's computation.
"""

from __future__ import annotations

import json
import os
import sys

from .errors import KatzexpError
from .reports import COMMANDS, STATUS_CERTIFIED, STATUS_FAILED, STATUS_INCONCLUSIVE, run
from .series import qs_from_json

EXIT_CODES = {STATUS_CERTIFIED: 0, STATUS_FAILED: 1, STATUS_INCONCLUSIVE: 2}


def build_parser():
    """The parser with a subparser for each row of COMMANDS."""
    import argparse  # loaded for help and usage errors only
    import re

    class _Parser(argparse.ArgumentParser):
        """argparse exits 2 on bad usage, which collides with "inconclusive"."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # a value such as -1/6 is a negative rational, not an option
            self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(3, "%s: error: %s\n" % (self.prog, message))

    # --help describes the commands and exit codes, not how a request is read
    parser = _Parser(prog="katzexp", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag, keywords in command.arguments:
            sp.add_argument(flag, **keywords)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _plain_args(name, argv):
    """vars(build_parser().parse_args([name, *argv])) when argv is canonical,
    else None: every token an option of the row of name (or --out) in full,
    a store_true option alone, every other option followed by a value not
    starting with "-" that its type accepts, and every required option there."""
    options = dict(COMMANDS[name].arguments, **{"--out": {}})
    dests = {flag: kw.get("dest", flag[2:].replace("-", "_")) for flag, kw in options.items()}
    args = {dests[flag]: kw.get("default", False if kw.get("action") == "store_true" else None)
            for flag, kw in options.items()}
    args["command"] = name
    missing = {flag for flag, kw in options.items() if kw.get("required")}
    tokens = iter(argv)
    for flag in tokens:
        if flag not in options:
            return None
        keywords, value = options[flag], True
        if keywords.get("action") != "store_true":
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except (TypeError, ValueError):
                return None
        args[dests[flag]] = value
        missing.discard(flag)
    return None if missing else args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argv and argv[0] in COMMANDS and _plain_args(argv[0], argv[1:])
    if not args:  # --help, no command, an unknown one or a malformed request
        args = vars(build_parser().parse_args(argv))
    out = args["out"]
    try:
        # fail before the run, creating and truncating nothing
        if out and os.path.isdir(out):
            raise KatzexpError("cannot write --out %s: it is a directory" % out)
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise KatzexpError("cannot write --out %s: its parent is not a directory" % out)
        if args["command"] == "katz":
            with open(args["input"], "r", encoding="utf-8") as fh:
                try:
                    data = json.load(fh)
                except RecursionError:  # nesting past the decoder's depth
                    raise ValueError("%s nests too deeply to be a series" % args["input"]) from None
            args["series"] = qs_from_json(data)
        report = run(args["command"], args)
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
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:  # a directory, a missing parent, no permission
            print("error: %s" % exc, file=sys.stderr)
            return 3
        print("%s (report written to %s)" % (report.status, out))
    else:
        print(payload)
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
