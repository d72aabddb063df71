"""Command-line surface: parse the command line, then run the command.

Every command reads one JSON document, prints a report (all rationals as
exact "p/q" strings, keys sorted, byte-identical for identical inputs) and
exits with 0 when every residual in the report is zero, 1 when some residual
or verdict is nonzero/negative, and 2 on a parse or schema error, which is
reported as one line on stderr with nothing on stdout.

Parsing loads no computation: this module imports only argparse, gc and sys,
and ``main`` imports ``difflie.commands`` (the readers, the handlers and
everything they load) only once the command line parses.  So
``difflie --help`` and every usage error start without compiling or
importing any of it.

Run as the process's program (``argv is None``: the ``difflie`` console
script, ``python -m difflie.cli``), ``main`` calls ``gc.freeze()`` once the
command has run, when its report is on stdout and any ``--json-out`` file
is written and closed.  Interpreter shutdown then leaves the cyclic objects
(the module dicts, functions and classes of the package, the standard
library and ``site``) to the operating system instead of walking and
freeing them: about 6 ms of a 60-100 ms job on a shared 2-core host.
atexit handlers, stdio flushes and the exit status are unchanged.  A
caller that passes ``argv`` (the tests, library use) goes on running, and
a freeze would keep its process's cyclic garbage for good, so there
``main`` does not freeze.
"""

import argparse
import gc
import sys

from . import FLAVORS


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, with exit status 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


# The largest --max-degree and --order accepted.  cohomology reports
# C^0..C^N, homotopy-check every arity through N and key-formula one sample
# per unit of N, so their work grows with N itself, and a huge N would run
# until the process is killed instead of exiting 2.  Every cochain space
# above degree dim + 1 is 0, and no document whose computation finishes has
# a dimension near this cap.
MAX_COUNT = 10 ** 4


def bounded_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    if n > MAX_COUNT:
        raise argparse.ArgumentTypeError("must be at most %d, got %d"
                                         % (MAX_COUNT, n))
    return n


def parse_scalar(text):
    """The --weight type: linalg.parse_scalar, loaded only when the option
    is given.  argparse names this function in the message for a value it
    rejects."""
    from . import linalg
    return linalg.parse_scalar(text)


def build_parser():
    p = _Parser(
        prog="difflie",
        description="Exact verifications for differential Lie algebras of "
                    "arbitrary weight.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, actions=None):
        sp = sub.add_parser(name)
        if actions:
            sp.add_argument("action", choices=actions)
        sp.add_argument("path")
        sp.add_argument("--json-out", default=None)
        return sp

    def weight(sp):
        sp.add_argument("--weight", type=parse_scalar, default=None)
        return sp

    def max_degree(sp, default):
        sp.add_argument("--max-degree", type=bounded_int, default=default)
        return sp

    # each subcommand declares only the options its handler reads
    weight(command("check-axioms"))
    max_degree(weight(command("cohomology")), 4).add_argument(
        "--flavor", choices=FLAVORS, default="difflie")
    weight(command("mc-check"))
    max_degree(weight(command("twist")), 3)
    sp = command("key-formula")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--order", type=bounded_int, default=5)
    command("morphism-check").add_argument("--seed", type=int, default=0)
    command("extension", ["build", "extract", "classify"])
    command("deform", ["verify", "rigidify"])
    max_degree(command("homotopy-check"), None)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    from .commands import run
    code = run(args)
    if argv is None:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
