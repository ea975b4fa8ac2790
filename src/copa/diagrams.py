"""Cell grids and renderings for copartition diagrams.

The grid stacks the sky block on top of the conjugated ground block.  Each
sky row is the rectangle row (len(ground) cells labeled m) followed by the
sky part written m-modularly: one remainder cell labeled b, then
(part - b) / m cells labeled m.  Ground parts are written the same way
(remainder a, then m cells) and the whole ground block is transposed, so
its first row is the row of remainder cells.

The boundary runs under the rectangle and then up its right edge.  In
ASCII that is a "|" between rectangle and sky cells plus a dashed line
between the blocks; the SVG draws the same polyline.
"""

from .copartitions import Copartition
from .errors import DomainError


def diagram_cells(c: Copartition) -> tuple[tuple[int, ...], ...]:
    """All cell labels, row by row, without the boundary marking.

    For parameters with a = b = m distinct copartitions can share a grid;
    otherwise the grid determines the copartition.
    """
    a, b, m = c.params
    w = len(c.ground)
    rows: list[tuple[int, ...]] = []
    for part in c.sky:
        rows.append((m,) * w + (b,) + (m,) * ((part - b) // m))
    ground_rows = [(a,) + (m,) * ((g - a) // m) for g in c.ground]
    height = max((len(r) for r in ground_rows), default=0)
    for t in range(height):
        rows.append(tuple(r[t] for r in ground_rows if len(r) > t))
    return tuple(rows)


def render_ascii(c: Copartition) -> str:
    """Text rendering with the ground/sky boundary marked."""
    m = c.m
    w = len(c.ground)
    cells = diagram_cells(c)
    if not cells:
        return ""
    width = max(len(str(v)) for row in cells for v in row)
    sky_rows = cells[: len(c.sky)]
    ground_rows = cells[len(c.sky) :]
    lines = []
    for row in sky_rows:
        left = " ".join(str(v).rjust(width) for v in row[:w])
        right = " ".join(str(v).rjust(width) for v in row[w:])
        lines.append((left + " " if left else "") + "| " + right)
    dash = "-" * (w * (width + 1))
    lines.append(dash + "+")
    for row in ground_rows:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


def render_svg(c: Copartition, cell: int = 28) -> str:
    """Self-contained SVG rendering; cells plus the boundary polyline."""
    cells = diagram_cells(c)
    if not cells:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1"/>'
    w = len(c.ground)
    s = len(c.sky)
    cols = max(len(row) for row in cells)
    width = cols * cell + 2
    height = len(cells) * cell + 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, row in enumerate(cells):
        for j, v in enumerate(row):
            x = 1 + j * cell
            y = 1 + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                'fill="white" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 5}" '
                f'text-anchor="middle" font-size="{cell // 2}">{v}</text>'
            )
    # Boundary: under the rectangle block, then up its right edge.
    x0 = 1
    xw = 1 + w * cell
    ys = 1 + s * cell
    parts.append(
        f'<polyline points="{x0},{ys} {xw},{ys} {xw},1" '
        'fill="none" stroke="red" stroke-width="3"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def render_diagram(c: Copartition, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(c)
    if format == "svg":
        return render_svg(c)
    raise DomainError(f"unknown diagram format {format!r}")
