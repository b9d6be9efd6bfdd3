"""Sparse Game of Life engine (B3/S23) on an unbounded plane.

Live cells are kept as a frozenset of (x, y) integer pairs, x growing
rightward and y growing downward.  ``step`` is a plain sparse
neighbor-count pass in Python.  ``step_n`` runs a vectorized numpy
stepper over sorted 64-bit keys that pack each cell's coordinates
relative to the bounding-box corner, so the packed path is chosen by
extent alone: it serves any run whose extent plus twice its length
fits a 31-bit field, wherever the board sits.  The emission census
keeps its board in the same keys for its whole horizon.  Only boards
wider than that fall back to the Python pass.  Both paths produce
bit-identical cell sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Pattern",
    "EmptyPatternError",
    "CoordinateOverflowError",
    "step",
    "step_n",
    "canonicalize",
    "translate",
    "population",
    "bounding_box",
]

Cell = tuple[int, int]

# Coordinates live in the signed 64-bit range; the engine refuses to
# evolve a pattern whose run could leave it rather than wrap.
COORD_MIN = -(2**63)
COORD_MAX = 2**63 - 1

# Packed keys hold x * _FIELD + y, both relative to an origin, in two
# 31-bit fields.
_FIELD_BITS = 31
_FIELD = 1 << _FIELD_BITS

_NEIGHBOR_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy
)
_PACKED_OFFSETS = tuple(dx * _FIELD + dy for dx, dy in _NEIGHBOR_OFFSETS)
_PACKED_OFFSETS_NP = np.array(_PACKED_OFFSETS, dtype=np.int64)


class EmptyPatternError(ValueError):
    """Raised by operations that need at least one live cell."""


class CoordinateOverflowError(OverflowError):
    """Raised when an evolution could push cells outside the 64-bit range."""


@dataclass(frozen=True)
class Pattern:
    """A finite set of live cells plus a generation counter."""

    cells: frozenset[Cell] = field(default_factory=frozenset)
    generation: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells


def population(p: Pattern) -> int:
    """Number of live cells."""
    return len(p.cells)


def bounding_box(p: Pattern) -> tuple[int, int, int, int]:
    """(min_x, min_y, max_x, max_y) of the live cells."""
    if not p.cells:
        raise EmptyPatternError("bounding box of an empty pattern")
    xs = [x for x, _ in p.cells]
    ys = [y for _, y in p.cells]
    return min(xs), min(ys), max(xs), max(ys)


def translate(p: Pattern, dx: int, dy: int) -> Pattern:
    return Pattern(
        frozenset((x + dx, y + dy) for x, y in p.cells), p.generation
    )


def canonicalize(p: Pattern) -> tuple[Pattern, Cell]:
    """Translate so the bounding-box corner sits at (0, 0).

    Returns the translated pattern and the offset that was removed, so
    ``translate(canonical, *offset)`` reconstructs the original.
    """
    if not p.cells:
        raise EmptyPatternError("cannot canonicalize an empty pattern")
    min_x, min_y, _, _ = bounding_box(p)
    if (min_x, min_y) == (0, 0):
        return p, (0, 0)
    return translate(p, -min_x, -min_y), (min_x, min_y)


def _evolve_py(cells: frozenset[Cell]) -> frozenset[Cell]:
    """One B3/S23 generation by sparse neighbor counting."""
    counts: Counter[Cell] = Counter()
    for x, y in cells:
        for dx, dy in _NEIGHBOR_OFFSETS:
            counts[(x + dx, y + dy)] += 1
    return frozenset(
        c for c, n in counts.items() if n == 3 or (n == 2 and c in cells)
    )


def _check_headroom(p: Pattern, generations: int) -> None:
    """Refuse runs that could escape the 64-bit coordinate range.

    One generation moves the bounding box by at most one cell in each
    direction (nothing outruns a chess king), so the whole run is safe
    when box +/- generations stays inside the range.
    """
    if not p.cells:
        return
    min_x, min_y, max_x, max_y = bounding_box(p)
    if (
        min_x - generations < COORD_MIN
        or min_y - generations < COORD_MIN
        or max_x + generations > COORD_MAX
        or max_y + generations > COORD_MAX
    ):
        raise CoordinateOverflowError(
            f"evolving {generations} generation(s) could leave the signed "
            f"64-bit coordinate range"
        )


def step(p: Pattern) -> Pattern:
    """The next generation under B3/S23."""
    _check_headroom(p, 1)
    return Pattern(_evolve_py(p.cells), p.generation + 1)


def _packed_origin(p: Pattern, generations: int) -> Cell | None:
    """Origin for packing p over the next generations, or None if too wide.

    The origin is the bounding-box corner moved back by generations, so
    every cell and neighbor the run can touch packs without carry
    exactly when the extent plus 2 x generations fits one field.
    """
    if not p.cells:
        return 0, 0
    min_x, min_y, max_x, max_y = bounding_box(p)
    if max(max_x - min_x, max_y - min_y) + 1 + 2 * generations > _FIELD:
        return None
    return min_x - generations, min_y - generations


def _pack(cells: frozenset[Cell], origin: Cell) -> np.ndarray:
    ox, oy = origin
    keys = np.fromiter(
        ((x - ox) * _FIELD + (y - oy) for x, y in cells),
        dtype=np.int64,
        count=len(cells),
    )
    keys.sort()
    return keys


def _unpack(keys: np.ndarray, origin: Cell) -> frozenset[Cell]:
    xs = (keys >> _FIELD_BITS) + origin[0]
    ys = (keys & (_FIELD - 1)) + origin[1]
    return frozenset(zip(xs.tolist(), ys.tolist()))


def _evolve_np(keys: np.ndarray) -> np.ndarray:
    """One generation over sorted packed keys."""
    neighbors = (keys[None, :] + _PACKED_OFFSETS_NP[:, None]).ravel()
    uniq, counts = np.unique(neighbors, return_counts=True)
    alive = np.isin(uniq, keys, assume_unique=True)
    return uniq[(counts == 3) | ((counts == 2) & alive)]


def step_n(p: Pattern, n: int) -> Pattern:
    """n-fold iteration of ``step``."""
    if n < 0:
        raise ValueError("generation count must be non-negative")
    if n == 0:
        return p
    _check_headroom(p, n)
    if not p.cells:
        return Pattern(p.cells, p.generation + n)

    origin = _packed_origin(p, n)
    if origin is not None:
        keys = _pack(p.cells, origin)
        for _ in range(n):
            if keys.size == 0:
                break
            keys = _evolve_np(keys)
        return Pattern(_unpack(keys, origin), p.generation + n)

    cells = p.cells
    for _ in range(n):
        cells = _evolve_py(cells)
    return Pattern(cells, p.generation + n)
