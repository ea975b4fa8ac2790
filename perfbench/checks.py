"""Output checks that do not trust the code under test.

Rendered diagrams are checked against properties computed here from the
copartition itself: every cell carries its weight, so the labels sum to the
size, and the SVG draws one rectangle per cell.
"""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET

_INT = re.compile(r"\d+")
_SVG = "{http://www.w3.org/2000/svg}"


def series_digest(series, order: int) -> str:
    """Digest of every nonzero (q^n, marker) coefficient with n <= order."""
    h = hashlib.sha256()
    for n in range(order + 1):
        for (x, y), c in sorted(series.coefficient(n).items()):
            if c:
                h.update(f"{n}:{x}:{y}:{c};".encode())
    return h.hexdigest()[:32]


def scalar_prefix(series, order: int) -> list[int]:
    return [series.coefficient_int(n) for n in range(order + 1)]


def cell_count(c) -> int:
    """Cells of the diagram: the rectangle, then each part written
    m-modularly (one remainder cell plus one cell per m)."""
    w, s = len(c.ground), len(c.sky)
    return (
        w * s
        + sum(1 + (p - c.b) // c.m for p in c.sky)
        + sum(1 + (g - c.a) // c.m for g in c.ground)
    )


def ascii_ok(text: str, c) -> bool:
    return sum(int(t) for t in _INT.findall(text)) == c.size


def svg_ok(text: str, c) -> bool:
    root = ET.fromstring(text)
    rects = root.findall(f"{_SVG}rect")
    labels = [int(t.text) for t in root.findall(f"{_SVG}text")]
    return len(rects) == len(labels) == cell_count(c) and sum(labels) == c.size
