"""Exact persistent homology over GF(2).

Builds simplicial complexes from facet lists, validates filtrations,
and computes Betti numbers, persistent Betti numbers, interval
multiplicities, and barcodes by exact bit-packed rank arithmetic,
with a brute-force enumeration oracle for differential testing.

The public names below load their module on first use, so a program
that needs only some of them imports only those modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "complexes": ("SimplicialComplex", "Simplex", "closure_of_facets", "is_complex"),
    "filtration": ("Filtration", "FiltrationError", "FiltrationViolation", "validate"),
    "gf2": ("Gf2Matrix",),
    "oracle": ("ChainSet", "EnumerationLimitError", "enumerate_image", "enumerate_kernel",
               "oracle_betti", "oracle_persistent_betti"),
    "persistence": ("INFINITE_DEATH", "Barcode", "PersistencePair", "barcode", "betti_table",
                    "check_fundamental_lemma", "mu", "mu_infinity", "persistent_betti",
                    "persistent_betti_simplified"),
    "ranks": ("LemmaReport", "LemmaViolation"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """Resolve a public name from its home module, once (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
