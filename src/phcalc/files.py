"""On-disk formats: facet lists, filtration documents, barcode documents.

Complexes travel as plain text (one facet per line); filtrations and
barcodes travel as JSON.  Parsing reports a location with every error,
and each serializer round-trips with its parser on canonical inputs.
"""

from __future__ import annotations

import json
import math
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
            vertices = [int(f) for f in tokens]
        except ValueError as exc:  # past the interpreter's digit limit
            raise ParseError(f"line {lineno}", str(exc)) from None
        facets.append(_facet_at(vertices, f"line {lineno}", bound))
    return tuple(facets)


def serialize_facets(facets: tuple[Simplex, ...] | list[Simplex]) -> str:
    return "".join(" ".join(str(v) for v in f) + "\n" for f in facets)


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


def _plain_facets(raw_level: list, j: int, bound: _ClosureBound) -> tuple[Simplex, ...]:
    """The facets of a plain level; only raw tuples not read before are built, in order."""
    facets = list(map(bound.parsed.get, map(tuple, raw_level)))
    for k in compress(count(), map(is_, facets, repeat(None))):  # the entries not read before
        facets[k] = bound.facet(tuple(raw_level[k]), f"levels[{j}][{k}]")
    return tuple(facets)


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
        if _plain(raw_level):
            parsed = _plain_facets(raw_level, j, bound)
        else:
            parsed = tuple(
                _facet_at(raw, f"levels[{j}][{k}]", bound) for k, raw in enumerate(raw_level)
            )
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


def _pair_at(obj: object, where: str) -> PersistencePair:
    if not isinstance(obj, dict):
        raise ParseError(where, "each interval must be an object")
    unknown = set(obj) - {"birth", "death", "multiplicity"}
    if unknown:
        raise ParseError(where, f"unknown fields {sorted(unknown)}")
    if "death" not in obj:  # only null is a death that never comes
        raise ParseError(where, "missing field 'death'")
    birth = obj.get("birth")
    death = obj.get("death")
    count = obj.get("multiplicity")
    if type(birth) is not int:
        raise ParseError(where, f"birth must be an integer, got {birth!r}")
    if death is not None and type(death) is not int:
        raise ParseError(where, f"death must be an integer or null, got {death!r}")
    if type(count) is not int:
        raise ParseError(where, f"multiplicity must be an integer, got {count!r}")
    try:
        return PersistencePair(birth, math.inf if death is None else death, count)
    except ValueError as exc:
        raise ParseError(where, str(exc)) from None


def parse_barcodes(text: str) -> tuple[Barcode, ...]:
    """The barcodes of a document as `serialize_barcodes` writes it.

    Each dimension is listed once, and each interval once, in (birth,
    death) order, so one barcode has one document.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict) or set(doc) != {"barcodes"}:
        raise ParseError("document", "top level must be an object with 'barcodes'")
    raw_barcodes = doc["barcodes"]
    if not isinstance(raw_barcodes, list):
        raise ParseError("barcodes", "must be a list")
    out = []
    for i, raw in enumerate(raw_barcodes):
        where = f"barcodes[{i}]"
        if not isinstance(raw, dict) or set(raw) != {"dimension", "intervals"}:
            raise ParseError(where, "must have exactly 'dimension' and 'intervals'")
        dim = raw["dimension"]
        if type(dim) is not int or dim < 0:
            raise ParseError(f"{where}.dimension", f"must be a count, got {dim!r}")
        if any(b.dimension == dim for b in out):
            raise ParseError(f"{where}.dimension", f"dimension {dim} listed twice")
        intervals = raw["intervals"]
        if not isinstance(intervals, list):
            raise ParseError(f"{where}.intervals", "must be a list")
        pairs = tuple(
            _pair_at(p, f"{where}.intervals[{k}]") for k, p in enumerate(intervals)
        )
        for k in range(1, len(pairs)):
            before, pair = pairs[k - 1], pairs[k]
            if (before.birth, before.death) == (pair.birth, pair.death):
                raise ParseError(f"{where}.intervals[{k}]", f"interval {pair} listed twice")
            if (before.birth, before.death) > (pair.birth, pair.death):
                raise ParseError(
                    f"{where}.intervals[{k}]",
                    f"interval {pair} listed after {before}, out of (birth, death) order",
                )
        out.append(Barcode(dim, pairs))
    return tuple(out)
