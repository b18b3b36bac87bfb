"""Spans around phcalc's public functions, installed from outside the package.

`Tracer.install` replaces each traced function where its callers look
it up -- class attributes, module globals, the names `phcalc.cli`
imports and the package namespace -- with a wrapper that records one
span per call: name, start, end, parent and a size.  Spans stay in
memory until `Tracer.dump`.  `layer_totals` turns a dump into self
times, call counts and summed sizes per span name.

Nothing under `src/` changes; importing this module imports no phcalc.
"""

from __future__ import annotations

import functools
import itertools
import json
import time


def _result_shape(args, result) -> int:
    return result.rows * result.cols


def _self_shape(args, result) -> int:
    return args[0].rows * args[0].cols


def _text_arg(args, result) -> int:
    return len(args[0].encode())


def _text_result(args, result) -> int:
    return len(result.encode())


def _total_bars(args, result) -> int:
    return result.total_bars()


# (module, class or None, attribute, span name, size of one call or None)
TARGETS = (
    ("gf2", "Gf2Matrix", "kernel_basis", "gf2.kernel_basis", _self_shape),
    ("gf2", "Gf2Matrix", "rank", "gf2.rank", _self_shape),
    ("gf2", "Gf2Matrix", "hstack", "gf2.hstack", None),
    ("gf2", "Gf2Matrix", "multiply", "gf2.multiply", None),
    ("complexes", "SimplicialComplex", "boundary_matrix", "complexes.boundary_matrix",
     _result_shape),
    ("complexes", None, "closure_of_facets", "complexes.closure_of_facets", None),
    ("filtration", "Filtration", "__init__", "filtration.Filtration", None),
    ("filtration", "Filtration", "inclusion_matrix", "filtration.inclusion_matrix", None),
    ("filtration", None, "validate", "filtration.validate", None),
    ("files", None, "parse_filtration", "files.parse_filtration", _text_arg),
    ("files", None, "serialize_barcodes", "files.serialize_barcodes", _text_result),
    ("render", None, "ascii_bars", "render.ascii_bars", _text_result),
    ("persistence", None, "betti_table", "persistence.betti_table", None),
    ("persistence", None, "barcode", "persistence.barcode", _total_bars),
    ("persistence", None, "check_fundamental_lemma",
     "persistence.check_fundamental_lemma", None),
    ("persistence", None, "persistent_betti", "persistence.persistent_betti", None),
    ("cli", None, "main", "cli.main", None),
)

# Every module that binds a traced function under its own name.
MODULES = ("cli", "complexes", "files", "filtration", "gf2", "persistence", "render")


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent_index, size]``."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._simplices = itertools.count()

    def span(self, name: str, fn, size=None):
        """``fn`` wrapped so that each call records a span."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            record = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in ``TARGETS`` and count Simplex constructions."""
        import importlib

        import phcalc

        modules = [importlib.import_module(f"phcalc.{m}") for m in MODULES]
        for module_name, class_name, attr, name, size in TARGETS:
            module = importlib.import_module(f"phcalc.{module_name}")
            if class_name is not None:
                cls = getattr(module, class_name)
                setattr(cls, attr, self.span(name, getattr(cls, attr), size))
                continue
            original = getattr(module, attr)
            wrapped = self.span(name, original, size)
            for holder in [phcalc, *modules]:
                if getattr(holder, attr, None) is original:
                    setattr(holder, attr, wrapped)

        simplex = phcalc.complexes.Simplex
        post_init = simplex.__post_init__

        def counted(obj):
            next(self._simplices)
            post_init(obj)

        simplex.__post_init__ = counted

    def snapshot(self) -> dict:
        """The spans and the Simplex count since the last reset; once per reset."""
        return {"spans": self.spans, "simplices": next(self._simplices)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def layer_totals(dump: dict) -> dict[str, dict[str, float]]:
    """Self seconds, calls and summed size per span name, from one dump.

    A span's self time is its duration minus the durations of its
    direct children; spans nest, because the traced program runs on
    one thread.  Raises ValueError if the self times do not add up to
    the root spans' durations.
    """
    spans = dump["spans"]
    covered = [0] * len(spans)
    root_ns = 0
    for _, start, end, parent, _ in spans:
        if parent < 0:
            root_ns += end - start
        else:
            covered[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    self_ns_sum = 0
    for (name, start, end, _, size), child_ns in zip(spans, covered):
        self_ns = end - start - child_ns
        self_ns_sum += self_ns
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "size": 0})
        entry["self_s"] += self_ns / 1e9
        entry["calls"] += 1
        entry["size"] += size
    if self_ns_sum != root_ns:
        raise ValueError(f"self times sum to {self_ns_sum} ns, roots span {root_ns} ns")
    return totals
