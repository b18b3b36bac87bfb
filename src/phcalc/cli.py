"""Command-line interface.

Subcommands: betti, pbetti, mu, barcode, check, gen, bench.  Exit
codes: 0 success, 1 usage or parse error, 2 validation failure,
3 mathematical-invariant violation, 4 out of memory.  File arguments
accept `-` for standard input; a closed standard input or output, or
a stdout whose reader has gone (`-: Broken pipe`), is an error at `-`.
Each subcommand returns its whole answer and `main` writes it once, so
stdout holds the whole answer or nothing.  Every integer option is read
by `_integer` and written as a facet-line vertex is, in ASCII digits
after an optional `-`: `0_0`, `+1`, ` 1` and non-ASCII digits are usage
errors.

Each subcommand's arguments are declared once, in the table `COMMANDS`.
`main` hands argv to `_read_plain`, which reads the plain form -- the
subcommand, then its positionals and options in any order, each option
spelled in full with its value as the next word -- and gives the
namespace argparse would.  Only argv it declines (help, a usage error,
an abbreviated option, `--opt=value`, a value starting with `-`) imports
argparse, whose parser `_build_parser` makes from the same table, so
every output is argparse's as before.

`run` is the entry point of the `phcalc` script and of `python -m
phcalc.cli`: it calls `main`, flushes stdout and stderr, and ends the
process without the interpreter's teardown.  `main` returns the exit
code, for callers in process.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import suppress
from types import SimpleNamespace

from .filtration import Filtration, FiltrationError
from .files import _VERTEX, ParseError, parse_facets, parse_filtration, serialize_barcodes
from .persistence import _top_down, barcode, mu, mu_infinity, persistent_betti

# Every process loads the modules above, and with them `_value`; the rest load in
# the subcommands that use them, so a process imports only what its subcommand runs:
#   barcode        render, for text and SVG
#   pbetti, mu     nothing more
#   check          checks and ranks; with --oracle, oracle, complexes and gf2 too
#   betti          complexes and gf2
#   gen            generate
#   bench          generate, complexes, gf2 and ranks
# and argparse (with gettext) loads only for argv that `_read_plain` declines.  The
# cmd_* functions take either namespace; their `argparse.Namespace` annotations are
# never evaluated.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MATH = 3
EXIT_MEMORY = 4


def _integer(text: str, least: float = 0, expected: str = "an integer >= 0") -> int:
    """``text`` as an integer >= ``least``, written as a facet-line vertex is.

    That is ASCII digits after an optional `-` (`files._VERTEX`); `int()`
    alone would also take `+1`, `1_0`, ` 1` and non-ASCII digits.  Any
    other text is a ValueError, which `_read_plain` declines and argparse
    reports with its message, as `_build_parser` passes it on.
    """
    with suppress(ValueError):  # int() past the interpreter's digit limit
        if _VERTEX.fullmatch(text) and (value := int(text)) >= least:
            return value
    raise ValueError(f"expected {expected}, got {text!r}")


def _level_or_inf(text: str) -> int | None:
    return None if text == "inf" else _integer(text, 0, "an integer >= 0 or inf")


def _signed(text: str) -> int:  # gen and bench leave their range checks to generate
    return _integer(text, float("-inf"), "an integer")


def _triangle_list(text: str) -> list[int]:
    try:
        values = [_signed(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError("each triangle count must be >= 1")
    return values


def _read_text(path: str) -> str:
    """The file, or stdin at "-", as strict UTF-8 less one leading byte-order mark.

    Stdin's bytes go through the same text-mode reader as a file's, so
    the two are read exactly alike: CR LF and CR become LF, as universal
    newlines translate them, and a decode error names the same position.
    The whole input is decoded in one read, and the mark is dropped
    after decoding, so that position is the byte offset in the input,
    the mark's 3 bytes included.  The reader owns only a buffer over the
    bytes read from stdin, so closing it leaves stdin open.
    """
    if path == "-" and sys.stdin is None:
        raise ParseError("-", "standard input is closed")
    try:
        with (io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()), encoding="utf-8")
              if path == "-" else open(path, encoding="utf-8")) as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(path, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, str(exc)) from None


def _write_text(path: str | None, text: str) -> None:
    """Write the file, or stdout at None or "-"; an error names the path, or "-".

    Stdout is flushed here, so that a reader gone from its pipe is an
    error at "-" now.  A failed flush leaves its bytes in stdout's
    buffer, so stdout is then pointed at the null device: `run`'s flush
    writes them there, and does not fail once more.
    """
    try:
        if path is None or path == "-":
            if sys.stdout is None:
                raise OSError("standard output is closed")
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
                raise
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise OSError(f"{path or '-'}: {exc.strerror or exc}") from None


def _load_filtration(args: argparse.Namespace) -> Filtration:
    doc = parse_filtration(_read_text(args.file), incremental=args.incremental)
    return doc.to_filtration()


# Each cmd_* returns (exit code, its whole answer); main writes the answer.


def cmd_betti(args: argparse.Namespace) -> tuple[int, str]:
    from .complexes import Simplex, closure_of_facets

    complex_ = closure_of_facets(map(Simplex, parse_facets(_read_text(args.file))))
    return EXIT_OK, f"{complex_.betti(args.dim)}\n"


def cmd_pbetti(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_filtration(args)
    return EXIT_OK, f"{persistent_betti(f, args.dim, args.birth, args.death)}\n"


def cmd_mu(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_filtration(args)
    if args.death is None:
        return EXIT_OK, f"{mu_infinity(f, args.dim, args.birth)}\n"
    return EXIT_OK, f"{mu(f, args.dim, args.birth, args.death)}\n"


def cmd_barcode(args: argparse.Namespace) -> tuple[int, str]:
    f = _load_filtration(args)
    dims = range(max(f.dim, 0) + 1) if args.all_dims else [args.dim]
    codes = _top_down(barcode, f, dims)
    if args.format == "text":
        from .render import ascii_bars

        text = "\n".join(ascii_bars(b, f.m) for b in codes)
    elif args.format == "json":
        text = serialize_barcodes(codes)
    else:
        from .render import svg_document

        text = svg_document(codes, f.m)
    return EXIT_OK, text


def cmd_check(args: argparse.Namespace) -> tuple[int, str]:
    from .checks import check

    failed, text = check(_load_filtration(args), args.max_dim, args.oracle)
    return EXIT_MATH if failed else EXIT_OK, text


def cmd_gen(args: argparse.Namespace) -> tuple[int, str]:
    from .generate import random_filtration_document

    doc = random_filtration_document(args.triangles, args.levels, args.vertices, args.seed)
    return EXIT_OK, doc.serialize()


def cmd_bench(args: argparse.Namespace) -> tuple[int, str]:
    from .generate import bench_table

    return EXIT_OK, bench_table(args.triangles, args.levels, args.seed)


FLAG = "store_true"  # the kind of an option that takes no value

_FILTRATION = (
    (("file",), "file", None, None, True, "filtration file, or - for stdin"),
    (("--incremental",), "incremental", FLAG, False, False,
     "levels list only the facets new at each level"),
)

# Every subcommand's arguments, read by `_read_plain` and built into argparse by
# `_build_parser`.  name: (cmd_* function, help, arguments, the dests of a required
# one-of group).  An argument is (flags, or the positional's name; dest; kind: a
# converter, FLAG, a tuple of choices or None for the text as given; default;
# required; help).  argparse's short and long flags keep their order, as help shows it.
COMMANDS = {
    "betti": (cmd_betti, "Betti number of a facet-list complex", (
        (("file",), "file", None, None, True, "facet list file, or - for stdin"),
        (("-n", "--dim"), "dim", _integer, None, True, None),
    ), ()),
    "pbetti": (cmd_pbetti, "persistent Betti number", (
        *_FILTRATION,
        (("-n", "--dim"), "dim", _integer, None, True, None),
        (("-j", "--birth"), "birth", _integer, None, True, None),
        (("-p", "--death"), "death", _integer, None, True, None),
    ), ()),
    "mu": (cmd_mu, "interval multiplicity", (
        *_FILTRATION,
        (("-n", "--dim"), "dim", _integer, None, True, None),
        (("-j", "--birth"), "birth", _integer, None, True, None),
        (("-p", "--death"), "death", _level_or_inf, None, True,
         "death level, or inf for classes that never die"),
    ), ()),
    "barcode": (cmd_barcode, "barcode of a filtration", (
        *_FILTRATION,
        (("-n", "--dim"), "dim", _integer, None, False, None),
        (("--all-dims",), "all_dims", FLAG, False, False, None),
        (("--format",), "format", ("text", "json", "svg"), "text", False, None),
        (("-o", "--output"), "output", None, None, False, "output file (default stdout)"),
    ), ("dim", "all_dims")),
    "check": (cmd_check, "verify structural invariants", (
        *_FILTRATION,
        (("--max-dim",), "max_dim", _integer, None, False, None),
        (("--oracle",), "oracle", FLAG, False, False,
         "also compare against brute-force enumeration"),
    ), ()),
    "gen": (cmd_gen, "generate a random filtration", (
        (("--triangles", "-t"), "triangles", _signed, None, True, None),
        (("--levels", "-l"), "levels", _signed, None, True, None),
        (("--vertices", "-v"), "vertices", _signed, None, False, None),
        (("--seed", "-s"), "seed", _signed, 0, False, None),
        (("-o", "--output"), "output", None, None, False, "output file (default stdout)"),
    ), ()),
    "bench": (cmd_bench, "timing table over random inputs", (
        (("--triangles", "-t"), "triangles", _triangle_list, [10, 50, 100, 200, 500], False,
         "comma-separated triangle counts"),
        (("--levels", "-l"), "levels", _signed, 5, False, None),
        (("--seed", "-s"), "seed", _signed, 0, False, None),
    ), ()),
}


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give ``argv`` in the plain form, or None.

    The plain form is a subcommand, then its positionals and options in
    any order, each option spelled in full, once, with its value as the
    next word.  Anything else is declined and left to argparse: a word
    starting with `-` (but `-` alone) that is no option of the
    subcommand, such as `-h`, `--`, `--all`, `--format=json` or `-n1`; a
    repeated option; a missing value or one starting with `-`, such as
    `-s -3`; a value its kind refuses; the wrong number of positionals; a
    missing required option; and a one-of group not given exactly once.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments, one_of = COMMANDS[argv[0]]
    by_flag = {flag: argument for argument in arguments for flag in argument[0]}
    values = {dest: default for _, dest, _, default, _, _ in arguments}
    given, positionals = set(), []
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-" or word == "-":
            positionals.append(word)
            continue
        if word not in by_flag or by_flag[word][1] in given:
            return None
        _, dest, kind, *_ = by_flag[word]
        given.add(dest)
        if kind == FLAG:
            values[dest] = True
            continue
        value = next(words, "--")  # a missing value is declined as a dashed one is
        if value[:1] == "-" and value != "-":
            return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        elif kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[dest] = value
    names = [dest for flags, dest, *_ in arguments if flags[0][0] != "-"]
    if len(positionals) != len(names):
        return None
    given.update(names)
    if any(required and dest not in given for _, dest, _, _, required, _ in arguments):
        return None
    if one_of and len(given.intersection(one_of)) != 1:
        return None
    values.update(zip(names, positionals))
    return SimpleNamespace(command=argv[0], func=func, **values)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`, for argv that `_read_plain` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose --help, with stdout closed, prints nothing.

        argparse would print the help to stderr then; `main` reports the
        closed stdout instead, as it does for any answer.  Subparsers take
        their parent's class.
        """

        def print_help(self, file=None) -> None:
            if file is not None or sys.stdout is not None:
                super().print_help(file)

    def typed(convert):  # argparse prints an ArgumentTypeError's message as it is
        def read(text: str):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return read

    parser = _Parser(prog="phcalc", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, arguments, one_of) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=summary)
        group = None
        for flags, dest, kind, default, required, help_ in arguments:
            if flags[0][0] != "-":
                sub.add_argument(*flags, help=help_)
                continue
            spec = {"dest": dest, "default": default, "help": help_}
            if kind == FLAG:
                spec["action"] = kind
            elif isinstance(kind, tuple):
                spec["choices"] = kind
            elif kind is not None:
                spec["type"] = typed(kind)
            if dest in one_of:  # the group is required, and its members may not be
                group = group or sub.add_mutually_exclusive_group(required=True)
                group.add_argument(*flags, **spec)
            else:
                sub.add_argument(*flags, required=required, **spec)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
            if exc.code != 0:
                return EXIT_USAGE
            # the text may wait in stdout's buffer: it is flushed as an answer is; with
            # stdout closed `_Parser` printed nothing, and writing the answer reports it
            args = SimpleNamespace(command="--help", func=lambda args: (EXIT_OK, ""))
    try:
        code, text = args.func(args)
        _write_text(getattr(args, "output", None), text)
        return code
    except MemoryError:
        error, code = f"out of memory in {args.command}", EXIT_MEMORY
    except FiltrationError as exc:
        error, code = exc, EXIT_VALIDATION
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        error, code = exc, EXIT_USAGE
    if sys.stderr is not None:  # a closed stderr leaves the exit code to report
        sys.stderr.write(f"phcalc: error: {error}\n")
    return code


def run() -> None:
    """Exit with ``main()``'s code once stdout and stderr are flushed, skipping teardown.

    With the answer written, `os._exit` ends the process without the
    interpreter's teardown, as mypy's `util.hard_exit` does.  It exits
    through `sys.exit`, teardown and all, when a flush fails, in
    development mode (`-X dev`), whose teardown warnings then show, and
    when a trace or profile function is set, so that a profiler run as
    `python -m cProfile -m phcalc.cli` still prints its report.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    if sys.flags.dev_mode or sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
