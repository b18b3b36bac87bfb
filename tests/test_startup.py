"""What a phcalc process loads: the lazy package namespace and per-subcommand imports.

Tests in one interpreter share `sys.modules`, so a module imported by an
earlier test would hide an import a subcommand lacks; each probe here
runs in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phcalc
from phcalc.generate import random_filtration_document

SRC = str(Path(phcalc.__file__).resolve().parent.parent)

# Loads everything listed, then prints the modules the last statement loaded.
PROBE = """
import sys
before = set(sys.modules)
{statement}
sys.stdout.flush()
sys.stderr.write("\\nLOADED " + " ".join(sorted(set(sys.modules) - before)))
"""

UNUSED_BY_BARCODE_AND_CHECK = {
    "dataclasses", "phcalc.gf2", "phcalc.oracle", "phcalc.generate", "phcalc.render",
}

HOMES = {
    "complexes": ["SimplicialComplex", "Simplex", "closure_of_facets", "is_complex"],
    "filtration": ["Filtration", "FiltrationError", "FiltrationViolation", "validate"],
    "gf2": ["Gf2Matrix"],
    "oracle": ["ChainSet", "EnumerationLimitError", "enumerate_image", "enumerate_kernel",
               "oracle_betti", "oracle_persistent_betti"],
    "persistence": ["INFINITE_DEATH", "Barcode", "PersistencePair", "barcode", "betti_table",
                    "check_fundamental_lemma", "mu", "mu_infinity", "persistent_betti",
                    "persistent_betti_simplified"],
    "ranks": ["LemmaReport", "LemmaViolation"],
}

# the rank formula, and the dense complexes that only betti, the oracle and bench build
RANKS_AND_COMPLEXES = {"phcalc.ranks", "phcalc.complexes"}


def _loaded(statement: str, *flags: str) -> tuple[str, set[str]]:
    """Run ``statement`` in a fresh interpreter: its stdout and the modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, *flags, "-c", PROBE.format(statement=statement)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout, set(run.stderr.rpartition("\nLOADED ")[2].split())


def _main(*argv: str) -> tuple[str, set[str]]:
    statement = f"import phcalc.cli\nassert phcalc.cli.main({list(argv)!r}) == 0"
    return _loaded(statement)


@pytest.fixture(scope="module")
def gen_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "gen.json"
    path.write_text(random_filtration_document(8, 3, seed=1).serialize())
    return str(path)


def test_package_import_loads_no_submodule():
    _, loaded = _loaded("import phcalc")
    assert not {m for m in loaded if m.startswith("phcalc.")}
    assert "dataclasses" not in loaded


def test_cli_import_loads_no_unused_module():
    _, loaded = _loaded("import phcalc.cli")
    assert "phcalc.cli" in loaded
    assert not loaded & UNUSED_BY_BARCODE_AND_CHECK


def test_json_barcode_and_check_load_no_unused_module(gen_file):
    out, loaded = _main("barcode", gen_file, "--all-dims", "--format", "json")
    assert '"barcodes"' in out
    assert not loaded & UNUSED_BY_BARCODE_AND_CHECK
    out, loaded = _main("check", gen_file)
    assert out.endswith("all checks passed\n")
    assert not loaded & UNUSED_BY_BARCODE_AND_CHECK


def test_barcode_and_check_import_no_typing_without_site(gen_file):
    # -S skips `site`, which may import `typing` first; phcalc takes its
    # annotation names from collections.abc and imports no `typing` itself
    no_typing = "\nassert 'typing' not in sys.modules, sorted(sys.modules)"
    _, loaded = _loaded("import phcalc.cli" + no_typing, "-S")
    assert "phcalc.cli" in loaded
    for argv in (["barcode", gen_file, "--all-dims", "--format", "json"],
                 ["barcode", gen_file, "--all-dims", "--format", "text"],
                 ["check", gen_file]):
        run = f"import phcalc.cli\nassert phcalc.cli.main({argv!r}) == 0"
        _, loaded = _loaded(run + no_typing, "-S")
        assert "phcalc.persistence" in loaded


def test_text_barcode_loads_render_and_oracle_check_loads_oracle(gen_file):
    _, loaded = _main("barcode", gen_file, "--all-dims", "--format", "text")
    assert "phcalc.render" in loaded
    assert not loaded & (UNUSED_BY_BARCODE_AND_CHECK - {"phcalc.render"})
    out, loaded = _main("check", gen_file, "--oracle")
    assert "oracle: ok" in out
    assert "phcalc.oracle" in loaded


def test_only_check_loads_the_check_sections(gen_file, tmp_path):
    facets = tmp_path / "facets.txt"
    facets.write_text("0 1 2\n")
    for argv in (["barcode", gen_file, "--all-dims"],
                 ["pbetti", gen_file, "-n", "1", "-j", "0", "-p", "2"],
                 ["mu", gen_file, "-n", "0", "-j", "0", "-p", "inf"],
                 ["betti", str(facets), "-n", "0"],
                 ["gen", "-t", "4", "-l", "2"]):
        _, loaded = _main(*argv)
        assert "phcalc.checks" not in loaded, argv
    _, loaded = _main("check", gen_file)
    assert "phcalc.checks" in loaded


@pytest.mark.parametrize("argv", [
    ["barcode", "FILE", "--all-dims", "--format", "text"],
    ["barcode", "FILE", "--all-dims", "--format", "json"],
    ["barcode", "FILE", "--all-dims", "--format", "svg"],
    ["pbetti", "FILE", "-n", "1", "-j", "0", "-p", "2"],
    ["mu", "FILE", "-n", "1", "-j", "0", "-p", "2"],
    ["mu", "FILE", "-n", "0", "-j", "0", "-p", "inf"],
    ["gen", "-t", "4", "-l", "2"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_barcodes_point_queries_and_gen_load_neither_ranks_nor_complexes(argv, gen_file):
    _, loaded = _main(*[gen_file if a == "FILE" else a for a in argv])
    assert "phcalc.persistence" in loaded
    assert not loaded & RANKS_AND_COMPLEXES


def test_check_loads_ranks_and_not_complexes(gen_file):
    out, loaded = _main("check", gen_file)
    assert out.endswith("all checks passed\n")
    assert "phcalc.ranks" in loaded and "phcalc.complexes" not in loaded


def test_betti_and_oracle_check_load_complexes(gen_file, tmp_path):
    facets = tmp_path / "facets.txt"
    facets.write_text("0 1 2\n2 3\n")
    out, loaded = _main("betti", str(facets), "-n", "0")
    assert out == "1\n" and "phcalc.complexes" in loaded
    out, loaded = _main("check", gen_file, "--oracle")
    assert "oracle: ok" in out and RANKS_AND_COMPLEXES <= loaded


# Runs phcalc's main on its argv; then prints its exit code and the modules it loaded.
CLI_PROBE = """
import sys
before = set(sys.modules)
import phcalc.cli
code = phcalc.cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"\\nEXIT {code} LOADED " + " ".join(sorted(set(sys.modules) - before)))
"""

ARGPARSE = {"argparse", "gettext"}


def _cli(*argv: str) -> tuple[int, str, str, set[str]]:
    """``main(argv)`` in a fresh interpreter, with help 80 columns wide: its exit code,
    stdout and stderr, and the modules it loaded."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    err, _, tail = run.stderr.rpartition("\nEXIT ")
    code, _, loaded = tail.partition(" LOADED ")
    return int(code), run.stdout, err, set(loaded.split())


@pytest.mark.parametrize("argv", [
    ["barcode", "FILE", "--all-dims", "--format", "text"],
    ["barcode", "FILE", "--format", "json", "--all-dims"],
    ["barcode", "FILE", "-n", "1", "--format", "svg"],
    ["pbetti", "FILE", "-n", "1", "-j", "0", "-p", "2"],
    ["mu", "FILE", "-n", "1", "-j", "0", "-p", "2"],
    ["mu", "FILE", "-n", "0", "-j", "0", "-p", "inf"],
    ["check", "FILE"],
    ["betti", "FACETS", "--dim", "0"],
    ["gen", "-t", "4", "-l", "2", "--seed", "3"],
], ids=" ".join)
def test_a_plain_call_loads_no_argparse(argv, gen_file, tmp_path):
    facets = tmp_path / "facets.txt"
    facets.write_text("0 1 2\n2 3\n")
    files = {"FILE": gen_file, "FACETS": str(facets)}
    code, out, err, loaded = _cli(*[files.get(a, a) for a in argv])
    assert (code, err) == (0, "") and out
    assert not loaded & ARGPARSE


TINY = '{"levels": [[[0], [1]], [[0, 1]], [[0, 1], [1, 2], [0, 2]]]}\n'

BARCODE_USAGE = """\
usage: phcalc barcode [-h] [--incremental] (-n DIM | --all-dims)
                      [--format {text,json,svg}] [-o OUTPUT]
                      file
"""

# what phcalc printed for these argv before its arguments were read without argparse:
# (argv, exit code, stdout, stderr), with FILE the filtration TINY
ARGPARSE_CALLS = [
    (["--help"], 0, """\
usage: phcalc [-h] {betti,pbetti,mu,barcode,check,gen,bench} ...

Command-line interface.

positional arguments:
  {betti,pbetti,mu,barcode,check,gen,bench}
    betti               Betti number of a facet-list complex
    pbetti              persistent Betti number
    mu                  interval multiplicity
    barcode             barcode of a filtration
    check               verify structural invariants
    gen                 generate a random filtration
    bench               timing table over random inputs

options:
  -h, --help            show this help message and exit
""", ""),
    (["barcode", "--help"], 0, BARCODE_USAGE + """
positional arguments:
  file                  filtration file, or - for stdin

options:
  -h, --help            show this help message and exit
  --incremental         levels list only the facets new at each level
  -n DIM, --dim DIM
  --all-dims
  --format {text,json,svg}
  -o OUTPUT, --output OUTPUT
                        output file (default stdout)
""", ""),
    (["barcode", "FILE"], 1, "", BARCODE_USAGE
     + "phcalc barcode: error: one of the arguments -n/--dim --all-dims is required\n"),
    (["barcode", "FILE", "--all"], 0,
     "# dim 0, levels 0..2\n[0,1)    *o\n[0,inf)  *-->\n\n# dim 1, levels 0..2\n[2,inf)    *>\n",
     ""),
    (["gen", "-t", "3", "-l", "2", "-s", "-3"], 0, """\
{
  "name": "random triangles=3 levels=2 vertices=6 seed=-3",
  "levels": [
    [
      [
        0,
        3,
        4
      ],
      [
        1,
        2,
        3
      ]
    ],
    [
      [
        1,
        4,
        5
      ],
      [
        0,
        3,
        4
      ],
      [
        1,
        2,
        3
      ]
    ]
  ]
}
""", ""),
]


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_CALLS,
                         ids=[" ".join(call[0]) for call in ARGPARSE_CALLS])
def test_help_usage_errors_and_other_spellings_load_argparse_and_print_as_before(
        argv, code, out, err, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(TINY)
    got_code, got_out, got_err, loaded = _cli(*[str(path) if a == "FILE" else a for a in argv])
    assert (got_code, got_out, got_err) == (code, out, err)
    assert "argparse" in loaded


def test_every_public_name_and_each_moved_names_old_import_resolves():
    # the rank formula moved to `ranks` and the vertex helpers to `_value`;
    # the names keep their import paths
    statement = """
import phcalc
values = {name: getattr(phcalc, name) for name in phcalc.__all__}
from phcalc.persistence import (
    LemmaReport, LemmaViolation, betti_table, check_fundamental_lemma,
    persistent_betti_simplified,
)
from phcalc.complexes import _missing_face, subsets
from phcalc import ranks
assert (LemmaReport, LemmaViolation) == (ranks.LemmaReport, ranks.LemmaViolation)
assert values["betti_table"] is betti_table
assert subsets((0, 1)) is not None and callable(_missing_face)
print(len(values))
"""
    out, _ = _loaded(statement)
    assert out == f"{len(phcalc.__all__)}\n"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from phcalc import *", namespace)
    assert set(phcalc.__all__) <= namespace.keys()
    assert sorted(phcalc.__all__) == sorted(
        [name for names in HOMES.values() for name in names] + ["__version__"]
    )


@pytest.mark.parametrize("module", sorted(HOMES))
def test_public_names_are_their_home_module_objects(module):
    home = importlib.import_module(f"phcalc.{module}")
    for name in HOMES[module]:
        assert getattr(phcalc, name) is getattr(home, name)
        assert name in dir(phcalc)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        phcalc.no_such_name  # noqa: B018
    assert getattr(phcalc, "no_such_name", None) is None
    assert phcalc.__version__ == "0.1.0"
