"""Command-line interface.

Subcommands: betti, pbetti, mu, barcode, check, gen, bench.  Exit
codes: 0 success, 1 usage or parse error, 2 validation failure,
3 mathematical-invariant violation.  File arguments accept `-` for
standard input.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from .complexes import Simplex, closure_of_facets
from .filtration import Filtration, FiltrationError
from .files import ParseError, parse_facets, parse_filtration, serialize_barcodes
from .persistence import (
    barcode,
    check_fundamental_lemma,
    mu,
    mu_infinity,
    persistent_betti,
)

# oracle, generate and render load in the subcommands that use them: a process
# imports only what its subcommand runs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MATH = 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _level_or_inf(text: str) -> int | None:
    if text == "inf":
        return None
    return _nonneg_int(text)


def _triangle_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
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
    try:
        with (io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()), encoding="utf-8")
              if path == "-" else open(path, encoding="utf-8")) as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(path, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, str(exc)) from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from None


def _load_filtration(args: argparse.Namespace) -> Filtration:
    doc = parse_filtration(_read_text(args.file), incremental=args.incremental)
    return doc.to_filtration()


def cmd_betti(args: argparse.Namespace) -> int:
    facets = parse_facets(_read_text(args.file))
    complex_ = closure_of_facets(facets)
    print(complex_.betti(args.dim))
    return EXIT_OK


def cmd_pbetti(args: argparse.Namespace) -> int:
    f = _load_filtration(args)
    print(persistent_betti(f, args.dim, args.birth, args.death))
    return EXIT_OK


def cmd_mu(args: argparse.Namespace) -> int:
    f = _load_filtration(args)
    if args.death is None:
        print(mu_infinity(f, args.dim, args.birth))
    else:
        print(mu(f, args.dim, args.birth, args.death))
    return EXIT_OK


def _top_down(run, f: Filtration, dims) -> list:
    """[run(f, n) for n in dims], run top down: each reduction is cleared by the one above.

    The order is the caller's, not `_pivots`'s: a `_pivots(f, d)` that
    reduced D_{d+1} first would reduce every dimension above d, though
    one barcode reads only D_n and D_{n+1}.  Tried, it made `barcode -n
    0` on `gen -t 3000 -l 10 -s 1` go from 16.4-17.0 to 20.4-24.1 ms,
    and from 69-79 to 100-101 ms at T = 10,000 (Python 3.11.7).
    """
    return [run(f, n) for n in reversed(dims)][::-1]


def cmd_barcode(args: argparse.Namespace) -> int:
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
    _write_text(args.output, text)
    return EXIT_OK


# A `check` section maps (f, max_dim) to its violations, or to None if skipped.
# Sections read D_0..D_{max_dim+1} of K^m in birth order, kept on f and built
# once; each level's are a prefix of them.


def _check_nilpotency(f: Filtration, max_dim: int) -> list[dict]:
    """D_n D_{n+1} is a prefix of K^m's: nonzero from the first bad column's birth."""
    first: dict[int, int] = {}
    for n in range(max_dim + 1):
        faces = f._birth_columns(n)[1]
        for birth, col in zip(*f._birth_columns(n + 1)):
            product = 0
            while col:
                low = col & -col
                product ^= faces[low.bit_length() - 1]
                col ^= low
            if product:
                first[n] = birth
                break
    return [
        {"check": "nilpotency", "level": j, "dim": n,
         "detail": "boundary of boundary is nonzero"}
        for j in range(len(f)) for n, birth in first.items() if j >= birth
    ]


def _check_inclusions(f: Filtration, max_dim: int) -> list[dict]:
    """K^j in K^{j+1} is a chain map iff no column's last-born face (top row) is later."""
    violations = []
    for n in range(1, max_dim + 1):
        faces = f.births(n - 1)
        for (verts, birth), col in zip(f.births(n), f._birth_columns(n)[1]):
            if not col:  # no face, so none born later; nilpotency judges it
                continue
            face, born = faces[col.bit_length() - 1]
            if born > birth:  # the square of levels born - 1 and born fails
                violations.append(
                    {"check": "chain-map-square", "level": born - 1, "dim": n,
                     "detail": f"face {Simplex(face)} of {Simplex(verts)} is born "
                               f"at {born}, after it at {birth}"}
                )
    return violations


def _check_lemma(f: Filtration, max_dim: int) -> list[dict]:
    reports = _top_down(check_fundamental_lemma, f, range(max_dim + 1))
    return [
        {"check": "fundamental-lemma", "dim": n, "kind": v.kind, "k": v.k, "l": v.l,
         "detail": f"expected {v.expected}, got {v.actual}"}
        for n, report in enumerate(reports) for v in report.violations
    ]


def _check_oracle(f: Filtration, max_dim: int) -> list[dict] | None:
    """Differential test against the brute-force oracle.

    Past the enumeration bound the section stops: it fails if it found a
    violation before, and is skipped (None) otherwise.
    """
    from .oracle import EnumerationLimitError, oracle_betti, oracle_persistent_betti

    violations = []
    try:
        for j in range(len(f)):
            for n in range(max_dim + 1):
                fast = f[j].betti(n)
                slow = oracle_betti(f[j], n)
                if fast != slow:
                    violations.append(
                        {"check": "oracle-betti", "level": j, "dim": n,
                         "detail": f"rank method {fast}, oracle {slow}"}
                    )
        for n in range(max_dim + 1):
            for j in range(len(f)):
                for p in range(j, len(f)):
                    fast = persistent_betti(f, n, j, p)
                    slow = oracle_persistent_betti(f, n, j, p)
                    if fast != slow:
                        violations.append(
                            {"check": "oracle-pbetti", "dim": n, "j": j, "p": p,
                             "detail": f"rank method {fast}, oracle {slow}"}
                        )
    except EnumerationLimitError:
        return violations or None
    return violations


def cmd_check(args: argparse.Namespace) -> int:
    f = _load_filtration(args)
    top = max(f.dim, 0)  # every check above the top dimension is empty
    max_dim = top if args.max_dim is None else min(args.max_dim, top)
    sections = [("nilpotency", _check_nilpotency), ("inclusions", _check_inclusions),
                ("fundamental-lemma", _check_lemma)]
    if args.oracle:
        sections.append(("oracle", _check_oracle))
    violations = []
    for name, section in sections:
        found = section(f, max_dim)
        if found is None:
            print(f"{name}: skipped (enumeration bound)")
        else:
            print(f"{name}: {'FAIL' if found else 'ok'}")
            violations += found

    if violations:
        print(json.dumps(violations, indent=2))
        return EXIT_MATH
    print("all checks passed")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import random_filtration_document

    doc = random_filtration_document(
        args.triangles, args.levels, args.vertices, args.seed
    )
    _write_text(args.output, doc.serialize())
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from .generate import random_filtration_document

    betti_times = []
    pbetti_times = []
    for triangles in args.triangles:
        doc = random_filtration_document(triangles, args.levels, seed=args.seed)
        f = doc.to_filtration()
        top = f[f.m]

        start = time.perf_counter()
        for n in range(3):
            top.betti(n)
        betti_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        persistent_betti(f, 1, 0, f.m)
        barcode(f, 1)
        pbetti_times.append(time.perf_counter() - start)

    label_width = len("Persistent Betti")
    print("# wall-clock seconds per triangle count")
    print(" " * label_width + "".join(f"{t:>10}" for t in args.triangles))
    print(f"{'Betti':<{label_width}}"
          + "".join(f"{s:>10.3f}" for s in betti_times))
    print(f"{'Persistent Betti':<{label_width}}"
          + "".join(f"{s:>10.3f}" for s in pbetti_times))
    return EXIT_OK


def _add_filtration_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="filtration file, or - for stdin")
    sub.add_argument(
        "--incremental",
        action="store_true",
        help="levels list only the facets new at each level",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="phcalc", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("betti", help="Betti number of a facet-list complex")
    sub.add_argument("file", help="facet list file, or - for stdin")
    sub.add_argument("-n", "--dim", type=_nonneg_int, required=True)
    sub.set_defaults(func=cmd_betti)

    sub = subparsers.add_parser("pbetti", help="persistent Betti number")
    _add_filtration_arguments(sub)
    sub.add_argument("-n", "--dim", type=_nonneg_int, required=True)
    sub.add_argument("-j", "--birth", type=_nonneg_int, required=True)
    sub.add_argument("-p", "--death", type=_nonneg_int, required=True)
    sub.set_defaults(func=cmd_pbetti)

    sub = subparsers.add_parser("mu", help="interval multiplicity")
    _add_filtration_arguments(sub)
    sub.add_argument("-n", "--dim", type=_nonneg_int, required=True)
    sub.add_argument("-j", "--birth", type=_nonneg_int, required=True)
    sub.add_argument(
        "-p", "--death", type=_level_or_inf, required=True,
        help="death level, or inf for classes that never die",
    )
    sub.set_defaults(func=cmd_mu)

    sub = subparsers.add_parser("barcode", help="barcode of a filtration")
    _add_filtration_arguments(sub)
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", "--dim", type=_nonneg_int)
    group.add_argument("--all-dims", action="store_true")
    sub.add_argument("--format", choices=("text", "json", "svg"), default="text")
    sub.add_argument("-o", "--output", help="output file (default stdout)")
    sub.set_defaults(func=cmd_barcode)

    sub = subparsers.add_parser("check", help="verify structural invariants")
    _add_filtration_arguments(sub)
    sub.add_argument("--max-dim", type=_nonneg_int, default=None)
    sub.add_argument(
        "--oracle", action="store_true",
        help="also compare against brute-force enumeration",
    )
    sub.set_defaults(func=cmd_check)

    sub = subparsers.add_parser("gen", help="generate a random filtration")
    sub.add_argument("--triangles", "-t", type=int, required=True)
    sub.add_argument("--levels", "-l", type=int, required=True)
    sub.add_argument("--vertices", "-v", type=int, default=None)
    sub.add_argument("--seed", "-s", type=int, default=0)
    sub.add_argument("-o", "--output", help="output file (default stdout)")
    sub.set_defaults(func=cmd_gen)

    sub = subparsers.add_parser("bench", help="timing table over random inputs")
    sub.add_argument(
        "--triangles", "-t", type=_triangle_list, default=[10, 50, 100, 200, 500],
        help="comma-separated triangle counts",
    )
    sub.add_argument("--levels", "-l", type=int, default=5)
    sub.add_argument("--seed", "-s", type=int, default=0)
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except FiltrationError as exc:
        print(f"phcalc: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"phcalc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
