"""Breadth-first body partition used only as a cross-check.

Shares nothing with the census's vectorized component pass: it walks
plain Python cell sets, joining any two live cells within Chebyshev
distance 2, the census's merge radius.
"""

from __future__ import annotations

Cell = tuple[int, int]

_MERGE_OFFSETS = tuple(
    (dx, dy)
    for dx in range(-2, 3)
    for dy in range(-2, 3)
    if (dx, dy) != (0, 0)
)


def clusters(cells: frozenset[Cell]) -> list[frozenset[Cell]]:
    """Partition live cells into bodies merged within Chebyshev 2."""
    seen: set[Cell] = set()
    out: list[frozenset[Cell]] = []
    for start in cells:
        if start in seen:
            continue
        frontier = [start]
        seen.add(start)
        member: list[Cell] = []
        while frontier:
            x, y = frontier.pop()
            member.append((x, y))
            for dx, dy in _MERGE_OFFSETS:
                nb = (x + dx, y + dy)
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        out.append(frozenset(member))
    return out
