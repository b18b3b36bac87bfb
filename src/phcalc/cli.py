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

`run` is the entry point of the `phcalc` script and of `python -m
phcalc.cli`: it calls `main`, flushes stdout and stderr, and ends the
process without the interpreter's teardown.  `main` returns the exit
code, for callers in process.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import suppress

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

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MATH = 3
EXIT_MEMORY = 4


def _integer(text: str, least: float = 0, expected: str = "an integer >= 0") -> int:
    """``text`` as an integer >= ``least``, written as a facet-line vertex is.

    That is ASCII digits after an optional `-` (`files._VERTEX`); `int()`
    alone would also take `+1`, `1_0`, ` 1` and non-ASCII digits.
    """
    with suppress(ValueError):  # int() past the interpreter's digit limit
        if _VERTEX.fullmatch(text) and (value := int(text)) >= least:
            return value
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _level_or_inf(text: str) -> int | None:
    return None if text == "inf" else _integer(text, 0, "an integer >= 0 or inf")


def _signed(text: str) -> int:  # gen and bench leave their range checks to generate
    return _integer(text, float("-inf"), "an integer")


def _triangle_list(text: str) -> list[int]:
    try:
        values = [_signed(part) for part in text.split(",") if part]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("each triangle count must be >= 1")
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


def _add_filtration_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="filtration file, or - for stdin")
    sub.add_argument(
        "--incremental",
        action="store_true",
        help="levels list only the facets new at each level",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose --help, with stdout closed, prints nothing.

    argparse would print the help to stderr then; `main` reports the
    closed stdout instead, as it does for any answer.  Subparsers take
    their parent's class.
    """

    def print_help(self, file=None) -> None:
        if file is not None or sys.stdout is not None:
            super().print_help(file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phcalc", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("betti", help="Betti number of a facet-list complex")
    sub.add_argument("file", help="facet list file, or - for stdin")
    sub.add_argument("-n", "--dim", type=_integer, required=True)
    sub.set_defaults(func=cmd_betti)

    sub = subparsers.add_parser("pbetti", help="persistent Betti number")
    _add_filtration_arguments(sub)
    sub.add_argument("-n", "--dim", type=_integer, required=True)
    sub.add_argument("-j", "--birth", type=_integer, required=True)
    sub.add_argument("-p", "--death", type=_integer, required=True)
    sub.set_defaults(func=cmd_pbetti)

    sub = subparsers.add_parser("mu", help="interval multiplicity")
    _add_filtration_arguments(sub)
    sub.add_argument("-n", "--dim", type=_integer, required=True)
    sub.add_argument("-j", "--birth", type=_integer, required=True)
    sub.add_argument(
        "-p", "--death", type=_level_or_inf, required=True,
        help="death level, or inf for classes that never die",
    )
    sub.set_defaults(func=cmd_mu)

    sub = subparsers.add_parser("barcode", help="barcode of a filtration")
    _add_filtration_arguments(sub)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", "--dim", type=_integer)
    group.add_argument("--all-dims", action="store_true")
    sub.add_argument("--format", choices=("text", "json", "svg"), default="text")
    sub.add_argument("-o", "--output", help="output file (default stdout)")
    sub.set_defaults(func=cmd_barcode)

    sub = subparsers.add_parser("check", help="verify structural invariants")
    _add_filtration_arguments(sub)
    sub.add_argument("--max-dim", type=_integer, default=None)
    sub.add_argument(
        "--oracle", action="store_true",
        help="also compare against brute-force enumeration",
    )
    sub.set_defaults(func=cmd_check)

    sub = subparsers.add_parser("gen", help="generate a random filtration")
    sub.add_argument("--triangles", "-t", type=_signed, required=True)
    sub.add_argument("--levels", "-l", type=_signed, required=True)
    sub.add_argument("--vertices", "-v", type=_signed, default=None)
    sub.add_argument("--seed", "-s", type=_signed, default=0)
    sub.add_argument("-o", "--output", help="output file (default stdout)")
    sub.set_defaults(func=cmd_gen)

    sub = subparsers.add_parser("bench", help="timing table over random inputs")
    sub.add_argument(
        "--triangles", "-t", type=_triangle_list, default=[10, 50, 100, 200, 500],
        help="comma-separated triangle counts",
    )
    sub.add_argument("--levels", "-l", type=_signed, default=5)
    sub.add_argument("--seed", "-s", type=_signed, default=0)
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code != 0:
            return EXIT_USAGE
        # the text may wait in stdout's buffer: it is flushed as an answer is; with
        # stdout closed `_Parser` printed nothing, and writing the answer reports it
        args = argparse.Namespace(command="--help", func=lambda args: (EXIT_OK, ""))
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
