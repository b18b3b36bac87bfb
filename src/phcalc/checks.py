"""The sections of `phcalc check`, and the report they make.

A section maps (f, max_dim) to its violations, or to None if skipped.
Sections read D_0..D_{max_dim+1} of K^m in birth order, kept on f and
built once; each level's are a prefix of them.

`cli.cmd_check` imports this module inside its function, so no other
subcommand compiles it.  It imports no `phcalc.cli`: under `python -m
phcalc.cli` that module is `__main__`, and a second import would
compile and run it again.  The names taken from `persistence` are bound
when this module is first imported, after `cli.main` has started, so a
wrapper set on them before then, as a tracer's, is the one called.
"""

from __future__ import annotations

import json

from .filtration import Filtration
from .persistence import _top_down, betti_table, check_fundamental_lemma


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
        faces = f._cells(n - 1)
        for (verts, birth), col in zip(f._cells(n), f._birth_columns(n)[1]):
            if not col:  # no face, so none born later; nilpotency judges it
                continue
            face, born = faces[col.bit_length() - 1]
            if born > birth:  # the square of levels born - 1 and born fails
                from .complexes import Simplex

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

    An oracle answer that differs from the rank method's (`betti` per
    level, `betti_table` per level pair) is a violation, and so is an
    oracle that refuses its input as inconsistent (boundaries that are
    not cycles, an inclusion that is not injective).  Past the
    enumeration bound the section stops: it fails if it found a violation
    before, and is skipped (None) otherwise.
    """
    from .oracle import EnumerationLimitError, oracle_betti, oracle_persistent_betti

    violations = []

    def compare(record: dict, fast: int, oracle, *args) -> None:
        try:
            slow = oracle(*args)
        except EnumerationLimitError:
            raise
        except ValueError as error:  # the oracle's own consistency check failed
            slow = f"refused: {error}"
        if fast != slow:
            violations.append({**record, "detail": f"rank method {fast}, oracle {slow}"})

    try:
        for j in range(len(f)):
            for n in range(max_dim + 1):
                compare({"check": "oracle-betti", "level": j, "dim": n},
                        f[j].betti(n), oracle_betti, f[j], n)
        for n in range(max_dim + 1):
            table = betti_table(f, n)
            for j in range(len(f)):
                for p in range(j, len(f)):
                    compare({"check": "oracle-pbetti", "dim": n, "j": j, "p": p},
                            table[(j, p)], oracle_persistent_betti, f, n, j, p)
    except EnumerationLimitError:
        return violations or None
    return violations


def check(f: Filtration, max_dim: int | None, oracle: bool) -> tuple[bool, str]:
    """Run every section on f up to max_dim (None: the top): (any failed, the report).

    The report is one line per section, then `all checks passed` or
    every violation as one JSON list.
    """
    top = max(f.dim, 0)  # every check above the top dimension is empty
    max_dim = top if max_dim is None else min(max_dim, top)
    sections = [("nilpotency", _check_nilpotency), ("inclusions", _check_inclusions),
                ("fundamental-lemma", _check_lemma)]
    if oracle:
        sections.append(("oracle", _check_oracle))
    lines, violations = [], []
    for name, section in sections:
        found = section(f, max_dim)
        if found is None:
            lines.append(f"{name}: skipped (enumeration bound)")
        else:
            lines.append(f"{name}: {'FAIL' if found else 'ok'}")
            violations += found
    lines.append(json.dumps(violations, indent=2) if violations else "all checks passed")
    return bool(violations), "\n".join(lines) + "\n"
