"""On-disk formats: facet lists, filtration documents, barcode documents.

Facet lists (plain text, one facet per line) and filtration documents
(JSON) are read; filtration documents and barcodes (JSON) are written.
Parsing reports a location with every error.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress, count, repeat
from operator import is_

from ._value import Value
from .complexes import Simplex
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
    each raw vertex tuple read so far, and each facet's canonical tuple,
    to its admitted facet, so a facet listed at many levels is built and
    checked once, and counted once however its vertices are ordered.
    """

    def __init__(self) -> None:
        self.total = 0
        self.parsed: dict[tuple[int, ...], Simplex] = {}

    def facet(self, raw: tuple[int, ...], where: str) -> Simplex:
        """The facet ``raw`` names; built, checked and bounded the first time it is read."""
        facet = self.parsed.get(raw)
        if facet is not None:
            return facet
        try:
            facet = Simplex(raw)
        except ValueError as exc:
            raise ParseError(where, str(exc)) from None
        if self.parsed.setdefault(facet.vertices, facet) is facet:  # a new canonical tuple
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


def parse_facets(text: str) -> tuple[Simplex, ...]:
    """Parse a facet list: one facet per line, vertices space-separated.

    A line ends at LF, CR LF or CR, as universal newlines end it, so the
    line numbers are those a text-mode read counts; any other
    whitespace, a form feed, NEL or U+2028 included, separates vertices.
    `#` starts a comment; blank lines are skipped.  An empty result is
    legal and denotes the empty complex.
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


def _facet_at(obj: object, where: str, bound: _ClosureBound) -> Simplex:
    """The facet a list of vertices read at ``where`` names, built and bounded once."""
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
    """A filtration as written to disk: cumulative facet lists per level."""

    levels: tuple[tuple[Simplex, ...], ...]
    name: str | None = None
    _filtration = None  # built on first use; not annotated, so not a compared field

    def to_filtration(self) -> Filtration:
        """The filtration of these levels, built once; parsed documents carry it."""
        if self._filtration is None:
            object.__setattr__(self, "_filtration", Filtration(self.levels))
        return self._filtration

    def serialize(self) -> str:
        doc: dict[str, object] = {}
        if self.name is not None:
            doc["name"] = self.name
        doc["levels"] = [
            [list(f.vertices) for f in level] for level in self.levels
        ]
        return json.dumps(doc, indent=2) + "\n"


def parse_filtration(text: str, incremental: bool = False) -> FiltrationDocument:
    """Parse a filtration document; validate it by building its filtration.

    With incremental=True each level lists only the facets new at that
    level; they are accumulated into cumulative lists, so nesting holds
    by construction.  In the default cumulative mode a non-nested file
    raises FiltrationError; the document carries the validated filtration.
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

    levels: list[tuple[Simplex, ...]] = []
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
        parsed = tuple(facets)
        if incremental and levels:
            parsed = levels[-1] + parsed
        levels.append(parsed)
    document = FiltrationDocument(tuple(levels), name)
    document.to_filtration()  # fail now, and keep it for the caller
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
