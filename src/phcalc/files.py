"""On-disk formats: facet lists, filtration documents, barcode documents.

Facet lists (plain text, one facet per line) and filtration documents
(JSON) are read; filtration documents and barcodes (JSON) are written.
Parsing reports a location with every error.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from itertools import chain, compress, count, repeat
from operator import is_

from ._value import Value, _canonical
from .filtration import Filtration
from .persistence import Barcode, PersistencePair


class ParseError(ValueError):
    """Malformed input, with a human-readable location."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


# Most simplices the facets of one input may close to: one 20-vertex
# facet, or about 150,000 distinct triangles.
MAX_CLOSURE_SIZE = 1 << 20


class _ClosureBound:
    """Bounds the closure of the facets read so far, before any is built.

    A k-vertex facet closes to 2**k - 1 simplices, so the sum over the
    distinct facets bounds the closure.  The facet that takes the sum
    past MAX_CLOSURE_SIZE is rejected at its location.  ``parsed`` maps
    each raw vertex tuple read so far, and each canonical tuple, to its
    canonical tuple, so a facet listed at many levels is checked once,
    and counted once however its vertices are ordered.  The check is
    the one `Simplex` runs after its type check, so a reader refuses
    what `Simplex` refuses, with the same message.
    """

    def __init__(self) -> None:
        self.total = 0
        self.parsed: dict[tuple[int, ...], tuple[int, ...]] = {}

    def facet(self, raw: tuple[int, ...], where: str) -> tuple[int, ...]:
        """The canonical tuple of the ints ``raw``; checked and bounded when first read."""
        facet = self.parsed.get(raw)
        if facet is not None:
            return facet
        try:
            facet = _canonical(raw)
        except ValueError as exc:
            raise ParseError(where, str(exc)) from None
        if self.parsed.setdefault(facet, facet) is facet:  # a new canonical tuple
            self.total += (1 << len(facet)) - 1
            if self.total > MAX_CLOSURE_SIZE:
                raise ParseError(
                    where, f"the facets so far may close to {self.total} simplices,"
                    f" more than {MAX_CLOSURE_SIZE}"
                )
        self.parsed[raw] = facet
        return facet


# A vertex of a facet line: ASCII digits after an optional `-`, as in JSON;
# `int()` would also take `+1`, `1_0` and non-ASCII digits
_VERTEX = re.compile(r"-?[0-9]+")


def parse_facets(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse a facet list, one facet per line, into canonical vertex tuples.

    Vertices are space-separated.  A line ends at LF, CR LF or CR, as
    universal newlines end it, so the line numbers are those a text-mode
    read counts; any other whitespace, a form feed, NEL or U+2028
    included, separates vertices.  `#` starts a comment; blank lines are
    skipped.  An empty result is legal and denotes the empty complex.
    """
    facets = []
    bound = _ClosureBound()
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not all(map(_VERTEX.fullmatch, tokens)):
            shown = f"{line[:80]!r}{'...' if len(line) > 80 else ''}"  # cut a long line
            raise ParseError(f"line {lineno}", f"vertices must be integers, got {shown}")
        try:
            vertices = tuple(map(int, tokens))  # non-empty, and ints: the regex says so
        except ValueError as exc:  # past the interpreter's digit limit
            raise ParseError(f"line {lineno}", str(exc)) from None
        facets.append(bound.facet(vertices, f"line {lineno}"))
    return tuple(facets)


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except RecursionError:
        raise ParseError("document", "nested too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError("document", str(exc)) from None


def _facet_at(obj: object, where: str, bound: _ClosureBound) -> tuple[int, ...]:
    """The facet a list of vertices read at ``where`` names, checked and bounded once."""
    if not isinstance(obj, list) or not obj:
        raise ParseError(where, "each facet must be a non-empty list of vertices")
    for k, v in enumerate(obj):
        if type(v) is not int:
            raise ParseError(f"{where}[{k}]", f"vertex must be an integer, got {v!r}")
    # keyed only after the type check: True == 1 would alias the two
    return bound.facet(tuple(obj), where)


def _plain(raw_level: list) -> bool:
    """Whether every facet of a level is a non-empty list of ints, in C-level passes.

    Exact types only, so `true` never passes as 1.  A level that fails
    is read entry by entry, which locates the first bad one.
    """
    return (
        set(map(type, raw_level)) <= {list}
        and all(raw_level)
        and set(map(type, chain.from_iterable(raw_level))) <= {int}
    )


class FiltrationDocument(Value):
    """A filtration as written to disk: the facets of each level, as canonical vertex tuples.

    Each level lists every facet present at it, or with ``incremental``
    only the facets new at it, as an `--incremental` file does.
    """

    levels: tuple[tuple[tuple[int, ...], ...], ...]
    name: str | None = None
    incremental: bool = False
    _filtration = None  # built on first use; not annotated, so not a compared field

    def to_filtration(self) -> Filtration:
        """The filtration of these levels, read in the document's mode, built once and kept."""
        if self._filtration is None:
            object.__setattr__(self, "_filtration", Filtration._of_tuples(self.levels, self.incremental))
        return self._filtration

    def serialize(self) -> str:
        """The document in the layout of ``json.dumps(..., indent=2)``, and a newline.

        Written from the vertices' digits; only the name goes through
        `json`, whose indented encoder runs in pure Python.
        """
        levels = _array((_array((_array(map(str, facet), "      ") for facet in level), "    ")
                         for level in self.levels), "  ")
        name = "" if self.name is None else f'  "name": {json.dumps(self.name)},\n'
        return f'{{\n{name}  "levels": {levels}\n}}\n'


def _array(items: Iterable[str], indent: str) -> str:
    """The JSON array of written items as ``json.dumps(indent=2)`` lays it out at ``indent``."""
    body = f",\n{indent}  ".join(items)
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def parse_filtration(text: str, incremental: bool = False) -> FiltrationDocument:
    """Parse a filtration document; validate it by building its filtration.

    With incremental=True each level lists only the facets new at that
    level, and the document keeps those lists and records the mode; the
    filtration inserts each level's facets into its birth table as it
    sweeps, so nesting holds by construction and no level is made
    cumulative.  In the default cumulative mode a non-nested file raises
    FiltrationError.  The whole file is read before the table is built,
    so a ParseError anywhere comes first.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("document", "top level must be an object")
    unknown = set(doc) - {"name", "levels"}
    if unknown:
        raise ParseError("document", f"unknown fields {sorted(unknown)}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("name", f"must be a string, got {name!r}")
    raw_levels = doc.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise ParseError("levels", "must be a non-empty list of levels")

    levels: list[tuple[tuple[int, ...], ...]] = []
    bound = _ClosureBound()
    for j, raw_level in enumerate(raw_levels):
        if not isinstance(raw_level, list):
            raise ParseError(f"levels[{j}]", "each level must be a list of facets")
        if not _plain(raw_level):  # read entry by entry, to raise at the first bad one
            for k, raw in enumerate(raw_level):
                _facet_at(raw, f"levels[{j}][{k}]", bound)
        facets = list(map(bound.parsed.get, map(tuple, raw_level)))
        for k in compress(count(), map(is_, facets, repeat(None))):  # the entries not read before
            facets[k] = bound.facet(tuple(raw_level[k]), f"levels[{j}][{k}]")
        levels.append(tuple(facets))
    document = FiltrationDocument(tuple(levels), name, incremental)
    document.to_filtration()  # fail now
    return document


def _pair_to_dict(pair: PersistencePair) -> dict[str, object]:
    death = None if pair.is_infinite else pair.death
    return {"birth": pair.birth, "death": death, "multiplicity": pair.multiplicity}


def serialize_barcodes(barcodes: list[Barcode] | tuple[Barcode, ...]) -> str:
    doc = {
        "barcodes": [
            {
                "dimension": b.dimension,
                "intervals": [_pair_to_dict(p) for p in b.pairs],
            }
            for b in barcodes
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
