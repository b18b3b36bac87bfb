"""The frozen value classes' shared base, and the argument checks every path shares.

The standard library's record decorator imports `inspect`, `ast` and
`dis`, which a short-lived CLI process pays for on every start.  This
base compiles only the constructor, hash and comparisons of each class,
as that decorator does: generic ones that loop over the fields measured
slower.

The vertex-tuple helpers and the dimension and level checks live here
too, beside the base that every module imports, so that a process that
builds no `Simplex` never compiles `complexes`, which imports them back.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations
from operator import index

_set = object.__setattr__


def _canonical(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted form of a tuple of ints; refuses one that names no simplex.

    `Simplex` checks the types first; the file readers admit only ints.
    """
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("a simplex needs at least one vertex")
    if verts[0] < 0:
        raise ValueError(f"vertex {verts[0]!r} is not a non-negative integer")
    if len(set(verts)) != len(verts):
        raise ValueError(f"duplicate vertices in {verts}")
    return verts


def subsets(vertices: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every non-empty subset of a canonical vertex tuple, itself included."""
    for size in range(1, len(vertices) + 1):
        yield from combinations(vertices, size)


def _require_integer(name: str, value: int) -> None:
    """Refuse a dimension or level that is no integer, as indexing does."""
    try:
        index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _require_dim(n: int) -> None:
    _require_integer("dimension n", n)
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")


class Value:
    """An immutable record whose annotated names are its fields, in order.

    A class attribute of a field's name is its default.  The constructor
    sets the fields, then calls ``__post_init__`` if the class has one.
    Instances hash as the tuple of their fields and compare as it, only
    against their own class: for equality always, for order with
    ``order=True``.  Assigning or deleting an attribute raises
    AttributeError; copies and pickles go back through the constructor.
    """

    def __init_subclass__(cls, order: bool = False) -> None:
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        own = "".join(f"self.{name}, " for name in fields)
        other = "".join(f"other.{name}, " for name in fields)
        source = [f"def __init__(self, {', '.join(fields)}):"]
        source += [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            source.append("    self.__post_init__()")
        source.append(f"def __hash__(self):\n    return hash(({own}))")
        ops = [("eq", "==")]
        if order:
            ops += [("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">=")]
        for name, op in ops:
            source.append(
                f"def __{name}__(self, other):\n    if other.__class__ is self.__class__:\n"
                f"        return ({own}) {op} ({other})\n    return NotImplemented"
            )
        methods: dict = {}
        exec("\n".join(source), {"_set": _set}, methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls.__init__.__defaults__ = tuple(vars(cls)[n] for n in fields if n in vars(cls)) or None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
