"""The argparse parser of the command line.  ``cli.build_parser().parse_args``
hands it every command line that ``cli._plain_args`` does not take: it prints
the help and every usage error, and it parses the valid command lines that
only argparse reads, such as one with an abbreviated flag.  A valid command
line of the usual form loads neither this module nor ``argparse``,
``gettext`` and ``locale``."""

import argparse
import sys

from hodgeloci import cli


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        """Help text goes to stdout through ``cli._Stdout``, so that a failed
        write raises ``WriteFailed``; argparse would drop the ``OSError``."""
        if message and file is sys.stdout:
            out = cli._Stdout()
            out.write(message)
            out.commit()
        else:
            super()._print_message(message, file)


def parser() -> argparse.ArgumentParser:
    """The parser of every command in ``cli.COMMANDS``: its flags after
    ``--output``, and ``fn``, its ``cli._cmd_<name>``."""
    top = _Parser(
        prog="hodgeloci",
        description="Exact period series, foliation tangency and Frobenius-power "
                    "checks, and hypergeometric isogeny-locus sampling.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, flags) in cli.COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        command.add_argument("--output", default=None, help="write output to this path")
        for flag, keywords in flags:
            command.add_argument(flag, **keywords)
        command.set_defaults(fn=cli._body(name))
    return top
