"""Run the tier-1 suite against a fixed list of single-site mutants of src.

Each mutant replaces one text that occurs exactly once in one file.  A
copy of src and tests is made in a temporary directory; each mutant is
patched into the copy, tier-1 runs there with -x, and the file is put
back.  The working tree is never written.  A mutant the suite passes on
survives; the script exits 1 if a survivor is not listed as equivalent,
with its reason, or if the unmutated copy fails.

    python3 tools/mutants.py

Mutation testing is surveyed in Jia and Harman, "An Analysis and Survey
of the Development of Mutation Testing", IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    equivalent: str | None = None  # why the suite cannot kill it, if it cannot


P, R, C, CH, FT, FI, CX, O = (f"src/phcalc/{m}.py" for m in (
    "persistence", "ranks", "cli", "checks", "filtration", "files", "complexes", "oracle"))

MUTANTS = [
    # the reduction adds no earlier column, and only clears the pivot bit
    Mutant(P, "col ^= reduced[low]", "col ^= 1 << low"),
    # the beta builder reads rank_g[q] as the raises born before q, or z of the level before j
    Mutant(R, "map(sub, later, rank_g[j:])", "map(sub, later, ([0] + rank_g)[j:])"),
    Mutant(R, "initial=z[j])", "initial=z[j - 1])"),
    # a row of beta counts the bars born before j, not by j, or those dying at p too; and
    # persistent_betti reads its kept row one level early
    Mutant(P, "if birth <= j < death:", "if birth < j < death:"),
    Mutant(P, "deaths[min(death, m + 1) - j - 1]", "deaths[min(death, m) - j]"),
    Mutant(P, "    return row[p - j]\n", "    return row[p - j - 1]\n"),
    # persistent_betti's inline test, and mu's and mu_infinity's one range check, admit m + 1
    Mutant(P, "0 <= j <= p < len(f._levels)", "0 <= j <= p <= len(f._levels)"),
    Mutant(P, "0 <= j < p < len(f._levels)", "0 <= j < p <= len(f._levels)"),
    Mutant(P, "0 <= j < len(f._levels)", "0 <= j <= len(f._levels)"),
    # ... the row shift, both counts of the z list (each of the births before j), and rank D_1
    # read as rank D_0, which is 0
    Mutant(R, "shift = bisect_right(", "shift = bisect_left("),
    Mutant(R, "zip(accumulate(cells), _rank_g(f, n - 1))",
           "zip([0, *accumulate(cells)], _rank_g(f, n - 1))"),
    Mutant(R, "zip(accumulate(cells), _rank_g(f, n - 1))",
           "zip(accumulate(cells), [0] + _rank_g(f, n - 1))"),
    Mutant(R, "if n >= 0 else [0]", "if n > 0 else [0]"),
    # mu reads the bar one level early, and mu_infinity the bar born one level early
    Mutant(P, ".get((j, p), 0)", ".get((j, p - 1), 0)"),
    Mutant(P, ".get((j, INFINITE_DEATH), 0)", ".get((j - 1, INFINITE_DEATH), 0)"),
    # off by one: the negative-count, span, inclusion and nilpotency checks
    Mutant(R, "for p in range(k + 1, m + 2):", "for p in range(k + 1, m + 1):"),
    Mutant(R, "for l in range(k, m + 1)", "for l in range(k + 1, m + 1)"),
    Mutant(CH, "if born > birth:", "if born > birth + 1:"),
    Mutant(CH, "if j >= birth", "if j > birth"),
    # persistent_betti keeps no row of beta, and no bars are kept; above the top dimension
    # persistent_betti builds and keeps a row of zeros, the bars reduce and keep empty
    # pivots, and the grid builds and keeps empty columns
    Mutant(P, "row = f._rows[n, j] = _bar_row(f, n, j)", "row = _bar_row(f, n, j)"),
    Mutant(P, "    f._bars[n] = bars\n", ""),
    Mutant(P, "        if not f._cells(n):  # above the top dimension", "        if False:  #"),
    Mutant(P, "if n in f._bars or not f._cells(n):", "if n in f._bars:"),
    Mutant(R, "    if not f._cells(n):\n        yield from", "    if False:\n        yield from"),
    # a simplex takes the birth of the last level that adds it, not the first
    Mutant(FT, "births.setdefault(verts, j)", "births[verts] = j"),
    # the nesting check is off at level 1
    Mutant(FT, "if not previous <= facets:", "if j != 1 and not previous <= facets:"),
    # an incremental level is held to the nesting check, as a cumulative one is
    Mutant(FT, "if not incremental:", "if True:"),
    # a document's levels are read as cumulative whatever its mode
    Mutant(FI, "Filtration._of_tuples(self.levels, self.incremental)",
           "Filtration._of_tuples(self.levels, False)"),
    # the closure bound admits one simplex more
    Mutant(FI, "if self.total > MAX_CLOSURE_SIZE:", "if self.total > MAX_CLOSURE_SIZE + 1:"),
    # a CLI integer option takes whatever int() takes, less surrounding space
    Mutant(C, "if _VERTEX.fullmatch(text) and", "if text.strip() and"),
    # run ends the process without flushing stdout and stderr, or without teardown
    # in development mode or under a profiler
    Mutant(C, "                stream.flush()\n", "                pass\n"),
    Mutant(C, "if sys.flags.dev_mode or ", "if "),
    Mutant(C, " or sys.getprofile() is not None", ""),
    # barcode's reader takes neither or both of -n and --all-dims, which argparse refuses;
    # every subcommand loads argparse, which only help, usage errors and other spellings need
    Mutant(C, "    if one_of and len(given.intersection(one_of)) != 1:\n        return None\n", ""),
    Mutant(C, "import io\n", "import argparse\nimport io\n"),
    # every subcommand loads the dense complexes, which only betti needs
    Mutant(C, "from .filtration import Filtration, FiltrationError\n",
           "from .complexes import Simplex, closure_of_facets\n"
           "from .filtration import Filtration, FiltrationError\n"),
    # a level with an empty facet passes as plain
    Mutant(FI, "        and all(raw_level)\n", ""),
    # the face-closure check skips the vertices of each edge
    Mutant(CX, "if len(verts) > 1", "if len(verts) > 2"),
    # each side's boundary builder reads a face's row one too far: the rank side's, the
    # reduction's
    Mutant(FT, "bits |= 1 << row_of[face]", "bits |= 2 << row_of[face]"),
    Mutant(P, "bits |= 1 << row_of[face]", "bits |= 2 << row_of[face]"),
    # the barcode keeps a bar born and killed at one level
    Mutant(P, "if birth < death:", "if birth <= death:"),
    # the oracle's meet of two subspaces takes their union
    Mutant(O, "set(self.members) & set(other.members)", "set(self.members) | set(other.members)"),
    # clamps at 0, which change nothing unless a rank is already wrong
    Mutant(CX, "return ns - self.boundary_matrix(n).rank() - self.boundary_matrix(n + 1).rank()",
           "return max(0, ns - self.boundary_matrix(n).rank()"
           " - self.boundary_matrix(n + 1).rank())",
           equivalent="|S_n| - rank D_n - rank D_{n+1} is the dimension of a"
           " homology space, never negative while the ranks are right"),
]


def _tier1(copy: Path) -> tuple[bool, float]:
    """Whether tier-1 passes in ``copy``, stopping at the first failure, and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=600,
        )
    except subprocess.TimeoutExpired:  # a mutant that hangs the suite is caught
        return False, time.perf_counter() - start
    return run.returncode == 0, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="phcalc-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        passed, seconds = _tier1(copy)
        print(f"{'unmutated':<10}{'passes' if passed else 'FAILS':<12}{seconds:6.1f} s")
        if not passed:
            return 1
        unexplained = []
        for k, mutant in enumerate(MUTANTS, 1):
            path = copy / mutant.file
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                print(f"mutant {k}: {mutant.old!r} occurs {source.count(mutant.old)}"
                      f" times in {mutant.file}, not once")
                return 1
            path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                survived, seconds = _tier1(copy)
            finally:
                path.write_text(source, encoding="utf-8")
            verdict = "killed"
            if survived:
                verdict = "equivalent" if mutant.equivalent else "SURVIVED"
                if not mutant.equivalent:
                    unexplained.append(k)
            print(f"{k:<10}{verdict:<12}{seconds:6.1f} s  {mutant.file}:"
                  f" {mutant.old.strip()!r} -> {mutant.new.strip()!r}")
    print(f"{len(MUTANTS)} mutants, {len(unexplained)} unexplained survivors,"
          f" {time.perf_counter() - start:.0f} s in all")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
