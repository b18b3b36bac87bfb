"""Barcode renderings: aligned ASCII bars and an SVG export.

Both renderings expand multiplicities, draw one row per interval
instance, and order rows by (birth, death) with infinite deaths last.
"""

from __future__ import annotations

from .persistence import Barcode, PersistencePair


def _expanded(barcode: Barcode) -> list[PersistencePair]:
    out = []
    for pair in barcode.pairs:
        out.extend([pair] * pair.multiplicity)
    return out


def ascii_bars(barcode: Barcode, last_level: int) -> str:
    """One text row per interval instance, one column per level.

    `*` marks the birth level, `-` the levels lived through, `o` the
    finite death level, and a trailing `>` a class that never dies.
    Rows are prefixed with the interval label; lines starting with `#`
    are headers, so bar rows are exactly the lines containing `*`.
    """
    rows = [f"# dim {barcode.dimension}, levels 0..{last_level}"]
    width = max(
        (len(str(p)) for p in barcode.pairs),
        default=0,
    )
    for pair in _expanded(barcode):
        end, mark = (last_level + 1, ">") if pair.is_infinite else (pair.death, "o")
        bar = " " * pair.birth + "*" + "-" * (end - pair.birth - 1) + mark
        rows.append(f"{str(pair):<{width}}  {bar}")
    return "\n".join(rows) + "\n"


# SVG geometry, in user units.
_CELL = 24  # width of one filtration level
_ROW = 18  # height of one bar row
_MARGIN = 46  # left margin for tick labels and panel padding
_TOP = 34  # space above the grid for the panel title


def _svg_panel(barcode: Barcode, last_level: int, x0: int) -> tuple[list[str], int, int]:
    """One barcode panel; returns (elements, width, height)."""
    bars = _expanded(barcode)
    cols = last_level + 2  # one per level plus overflow space for arrows
    grid_w = cols * _CELL
    grid_h = max(len(bars), 1) * _ROW
    left = x0 + _MARGIN
    top = _TOP
    parts = [
        f'<text x="{left + grid_w / 2:g}" y="{top - 14}" text-anchor="middle" '
        f'class="title">dim {barcode.dimension}</text>'
    ]
    for c in range(cols + 1):
        x = left + c * _CELL
        parts.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{top + grid_h}" class="grid"/>'
        )
    for r in range(max(len(bars), 1) + 1):
        y = top + r * _ROW
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{left + grid_w}" y2="{y}" class="grid"/>'
        )
    for level in range(last_level + 1):
        x = left + (level + 0.5) * _CELL
        parts.append(
            f'<text x="{x:g}" y="{top + grid_h + 14}" text-anchor="middle" '
            f'class="tick">K{level}</text>'
        )
    # bottom row first, matching the axis-style reading order
    for i, pair in enumerate(reversed(bars)):
        y = top + grid_h - (i + 0.5) * _ROW
        x_birth = left + (pair.birth + 0.5) * _CELL
        end = last_level + 1 if pair.is_infinite else pair.death
        x_end = left + (end + 0.5) * _CELL
        parts.append(
            f'<line x1="{x_birth:g}" y1="{y:g}" x2="{x_end:g}" y2="{y:g}" class="bar"/>'
        )
        if pair.is_infinite:
            parts.append(
                f'<path d="M {x_end:g} {y - 4:g} L {x_end + 7:g} {y:g} L {x_end:g} {y + 4:g} Z" '
                f'class="head"/>'
            )
        else:
            parts.append(f'<circle cx="{x_end:g}" cy="{y:g}" r="3.5" class="death"/>')
        parts.append(f'<circle cx="{x_birth:g}" cy="{y:g}" r="3.5" class="birth"/>')
    width = _MARGIN + grid_w + _CELL // 2
    height = top + grid_h + 26
    return parts, width, height


def svg_document(barcodes: list[Barcode] | tuple[Barcode, ...], last_level: int) -> str:
    """Side-by-side panels, one per dimension, sharing the level axis."""
    elements: list[str] = []
    x0 = 0
    height = 0
    for barcode in barcodes:
        parts, width, panel_h = _svg_panel(barcode, last_level, x0)
        elements.extend(parts)
        x0 += width
        height = max(height, panel_h)
    style = (
        ".grid{stroke:#ccc;stroke-width:0.5}"
        ".bar{stroke:#000;stroke-width:2}"
        ".birth{fill:#000}"
        ".death{fill:#fff;stroke:#000;stroke-width:1.5}"
        ".head{fill:#000}"
        ".title{font:13px sans-serif}"
        ".tick{font:11px sans-serif}"
    )
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{max(x0, 1)}" '
        f'height="{max(height, 1)}" viewBox="0 0 {max(x0, 1)} {max(height, 1)}">\n'
        f"<style>{style}</style>\n{body}\n</svg>\n"
    )
