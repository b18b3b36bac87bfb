"""Exact persistent homology over GF(2).

Builds simplicial complexes from facet lists, validates filtrations,
and computes Betti numbers, persistent Betti numbers, interval
multiplicities, and barcodes by exact bit-packed rank arithmetic,
with a brute-force enumeration oracle for differential testing.
"""

from .complexes import SimplicialComplex, Simplex, closure_of_facets, is_complex
from .filtration import Filtration, FiltrationError, FiltrationViolation, validate
from .gf2 import Gf2Matrix
from .oracle import (
    ChainSet,
    EnumerationLimitError,
    enumerate_image,
    enumerate_kernel,
    oracle_betti,
    oracle_persistent_betti,
)
from .persistence import (
    INFINITE_DEATH,
    Barcode,
    LemmaReport,
    LemmaViolation,
    PersistencePair,
    barcode,
    betti_table,
    check_fundamental_lemma,
    mu,
    mu_infinity,
    persistent_betti,
    persistent_betti_simplified,
)

__version__ = "0.1.0"

__all__ = [
    "Barcode",
    "ChainSet",
    "EnumerationLimitError",
    "Filtration",
    "FiltrationError",
    "FiltrationViolation",
    "Gf2Matrix",
    "INFINITE_DEATH",
    "LemmaReport",
    "LemmaViolation",
    "PersistencePair",
    "Simplex",
    "SimplicialComplex",
    "barcode",
    "betti_table",
    "check_fundamental_lemma",
    "closure_of_facets",
    "enumerate_image",
    "enumerate_kernel",
    "is_complex",
    "mu",
    "mu_infinity",
    "oracle_betti",
    "oracle_persistent_betti",
    "persistent_betti",
    "persistent_betti_simplified",
    "validate",
    "__version__",
]
