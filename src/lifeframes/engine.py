"""Sparse Game of Life engine (B3/S23) on an unbounded plane.

Live cells are kept as a frozenset of (x, y) integer pairs, x growing
rightward and y growing downward.  ``step`` is a plain sparse
neighbor-count pass in Python.  ``step_n``, the ship detector and the
emission census all step one packed ``Board``: sorted 64-bit keys that
pack each cell's coordinates relative to the bounding-box corner,
advanced in place by one sort of their neighbor keys per generation.
It serves any run whose extent plus twice its length fits a 31-bit
field, wherever the board sits.  Only ``step_n`` falls back to the
Python pass, for wider boards.  Both paths produce bit-identical cell
sets and apply the same population guard.  A board that recurs, in
place or moved, jumps exactly over the whole periods left of a run.
The board also splits itself into bodies for the census from the same
sort, looks them up by shape, and takes them off or puts them back, so
the key format stays in this module.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

__all__ = [
    "Pattern",
    "EmptyPatternError",
    "CoordinateOverflowError",
    "ExplosiveGrowthError",
    "MERGE_RADIUS",
    "Board",
    "step",
    "step_n",
    "canonicalize",
    "translate",
    "population",
    "bounding_box",
]

Cell = tuple[int, int]
Box = tuple[int, int, int, int]
V = TypeVar("V")

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

# Chebyshev distance 2 is the merge radius: two cells that far apart
# can still feed the same dead neighbor, so their clusters are one
# causal body for the next step.
MERGE_RADIUS = 2


class EmptyPatternError(ValueError):
    """Raised by operations that need at least one live cell."""


class CoordinateOverflowError(OverflowError):
    """Raised when an evolution could push cells outside the 64-bit range."""


class ExplosiveGrowthError(RuntimeError):
    """Growth blew past the configured bound before the run ended."""

    def __init__(self, message: str, generation: int, current_population: int):
        super().__init__(message)
        self.generation = generation
        self.population = current_population


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


def _neighbor_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor keys of sorted keys, sorted, and the argsort (i is cell i % n).

    Each neighbor offset adds a sorted run, so a stable sort merges them.
    """
    neighbors = np.add.outer(_PACKED_OFFSETS_NP, keys).ravel()
    order = np.argsort(neighbors, kind="stable")
    return neighbors[order], order


def _evolve_np(keys: np.ndarray, neighbors: np.ndarray | None = None) -> np.ndarray:
    """One generation over non-empty sorted keys, from their neighbor sort if given.

    Each run of equal neighbor keys counts one cell's live neighbors.
    """
    if neighbors is None:
        neighbors = np.add.outer(_PACKED_OFFSETS_NP, keys).ravel()
        neighbors.sort(kind="stable")
    last = np.flatnonzero(np.append(neighbors[1:] != neighbors[:-1], True))
    counts = np.diff(last, prepend=-1)
    cells = neighbors[last]
    # A key's neighbor key + _FIELD + 1 sorts after it, so at < cells.size.
    at = np.searchsorted(cells, keys)
    live = at[cells[at] == keys]
    keep = counts == 3
    keep[live[counts[live] == 2]] = True
    return cells[keep]


def _component_labels(keys: np.ndarray, sort: tuple | None = None) -> np.ndarray:
    """Label each sorted key with the first index of its body.

    Distinct cells share a neighbor cell exactly when their Chebyshev
    distance is 1 or 2, the merge radius, so each run of
    ``_neighbor_sort(keys)`` (sort, if given) joins its cells.  Roots are
    hooked to smaller joined roots and pointer jumping flattens the trees
    until no joined pair differs; a body's smallest index is never hooked.
    """
    neighbors, order = _neighbor_sort(keys) if sort is None else sort
    labels = np.arange(keys.size)
    source = np.tile(labels, 8)[order]
    joined = np.flatnonzero(neighbors[1:] == neighbors[:-1])
    a, b = src, dst = source[joined], source[joined + 1]
    while a.size:
        labels[np.maximum(a, b)] = np.minimum(a, b)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        a, b = labels[src], labels[dst]
        differ = a != b
        src, dst, a, b = src[differ], dst[differ], a[differ], b[differ]
    return labels


def _shift(old: np.ndarray, new: np.ndarray) -> int | None:
    """The packed move taking sorted keys old onto new, or None."""
    # Relative to the box corner, as in ``Board.shape``: relative to the
    # first key, keys could alias across the y field.
    a, b = (
        int(k[0] >> _FIELD_BITS << _FIELD_BITS) + int((k & (_FIELD - 1)).min())
        for k in (old, new)
    )
    return b - a if np.array_equal(old - a, new - b) else None


def _checked_count(n: int, name: str) -> int:
    """n as a plain int (numpy integers too); TypeError for a bool or a non-integer."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise TypeError(f"{name} must be an int, not {type(n).__name__}")
    return operator.index(n)


def _check_factor(factor: float | None) -> None:
    """Refuse a population factor that is nan, infinite or not above 0."""
    # Every comparison with nan is false, so nan is refused here too.
    if factor is not None and not 0 < factor < math.inf:
        raise ValueError(
            f"population_factor must be a finite number above 0, not {factor!r}"
        )


def _check_growth(
    start: int, factor: float | None, count: int, generation: int
) -> None:
    """Refuse a population above factor x the start count of its run."""
    if factor is not None and count > start * factor:
        raise ExplosiveGrowthError(
            f"population {count} exceeds {factor} x initial {start} "
            f"at generation {generation}",
            generation,
            count,
        )


class Board:
    """A board held as sorted packed keys and stepped in place.

    Packed once for a run of generations steps plus margin cells of
    slack a side (ints at least 0, else TypeError or ValueError, as is
    each step's count): a run that could leave the 64-bit range, or
    whose extent plus 2 x (generations + margin) exceeds 2**31, raises
    CoordinateOverflowError.  With a population_factor (finite and above
    0, else ValueError), each step raises ExplosiveGrowthError above
    that factor x the start count.
    """

    def __init__(
        self,
        p: Pattern,
        generations: int,
        margin: int = 0,
        population_factor: float | None = None,
    ):
        generations = _checked_count(generations, "generations")
        margin = _checked_count(margin, "margin")
        if generations < 0 or margin < 0:
            raise ValueError("generations and margin must be non-negative")
        _check_factor(population_factor)
        _check_headroom(p, generations)
        origin = _packed_origin(p, generations + margin)
        if origin is None:
            raise CoordinateOverflowError(
                f"board extent plus 2 x {generations + margin} cells does "
                f"not fit the {_FIELD_BITS}-bit packed fields"
            )
        self._origin = origin
        self._keys = _pack(p.cells, origin)
        self._sorted = None, None, None  # keys that bodies() split, their sort
        self._margin = margin
        self.generation = p.generation
        self._start = (p.generation, len(p.cells))
        self._end = p.generation + generations
        self._factor = population_factor

    @property
    def population(self) -> int:
        return self._keys.size

    def step(self, generations: int = 1) -> None:
        """Advance in place; an empty board only counts the generations.

        A board that recurs, in place or moved, jumps exactly over the
        whole periods left (Brent's cycle search, one saved board); the
        cycle's populations have all passed the growth check.
        """
        end = self.generation + _checked_count(generations, "generations")
        if not self.generation <= end <= self._end:
            raise ValueError("stepping back or past the run the board was packed for")
        first, count = self._start
        saved, saved_at, power = self._keys, self.generation, 1
        # Take, put and the jump replace the keys, so a stale sort is unused.
        neighbors = self._sorted[1] if self._sorted[0] is self._keys else None
        while self.generation < end and self._keys.size:
            self._keys, neighbors = _evolve_np(self._keys, neighbors), None
            self.generation += 1
            _check_growth(count, self._factor, self._keys.size, self.generation - first)
            if self.generation < end and self._keys.size == saved.size:
                shift = _shift(saved, self._keys)
                if shift is not None:
                    period = self.generation - saved_at
                    cycles = (end - self.generation) // period
                    self._keys = self._keys + cycles * shift
                    self.generation += cycles * period
            if self.generation - saved_at == power:
                saved, saved_at, power = self._keys, self.generation, 2 * power
        self.generation = end

    def box(self) -> Box | None:
        """The box (min_x, min_y, max_x, max_y), or None for an empty board."""
        if not self._keys.size:
            return None
        # Keys sort x-major, so the first and last keys hold the x range.
        x0, x1 = int(self._keys[0] >> _FIELD_BITS), int(self._keys[-1] >> _FIELD_BITS)
        ys = self._keys & (_FIELD - 1)
        ox, oy = self._origin
        return x0 + ox, int(ys.min()) + oy, x1 + ox, int(ys.max()) + oy

    def shape(self) -> tuple[bytes, Box]:
        """The canonical shape and the box (min_x, min_y, max_x, max_y).

        Shapes are the bytes of the keys relative to the box corner, so
        they are equal exactly when the cells match modulo translation.
        """
        box = self.box()
        if box is None:
            raise EmptyPatternError("an empty board has no shape")
        x0, y0 = box[0] - self._origin[0], box[1] - self._origin[1]
        return (self._keys - (x0 * _FIELD + y0)).tobytes(), box

    def _placed(
        self, shape: bytes, corner: Cell
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The keys of shape at corner, where they sort, and which are live."""
        keys = np.frombuffer(shape, dtype=np.int64)
        x, y = corner[0] - self._origin[0], corner[1] - self._origin[1]
        width, height = int(keys[-1] >> _FIELD_BITS), int((keys & (_FIELD - 1)).max())
        if min(x, y) < 0 or max(x + width, y + height) >= _FIELD:
            raise ValueError(f"a body at {corner} is outside the packed fields")
        keys = keys + (x * _FIELD + y)
        at = np.searchsorted(self._keys, keys)
        # Keys are never negative, so -1 stands past the last key.
        return keys, at, np.append(self._keys, -1)[at] == keys

    def take(self, shape: bytes, corner: Cell) -> None:
        """Take shape (from ``shape()``) at corner off; ValueError unless all live."""
        _, at, live = self._placed(shape, corner)
        if not live.all():
            raise ValueError(f"the body at {corner} is not all live")
        self._keys = np.delete(self._keys, at)

    def put(self, shape: bytes, corner: Cell) -> None:
        """Put shape at corner on the board; ValueError if any of its cells is live."""
        keys, at, live = self._placed(shape, corner)
        if live.any():
            raise ValueError(f"the body at {corner} overlaps live cells")
        self._keys = np.insert(self._keys, at, keys)

    def bodies(
        self, table: Mapping[int, Mapping[bytes, V]]
    ) -> tuple[dict[tuple[bytes, Cell], V], Box | None]:
        """Split the board into bodies and look them up by shape.

        Bodies are the cells joined within Chebyshev distance
        MERGE_RADIUS.  table maps a population to {shape: value}, with
        shapes as ``shape()`` makes them; only bodies of a listed size
        are looked up, one batch per size.  Returns the values of the
        matched bodies keyed by (shape, box corner), and the union box
        of all other bodies (None when there are none).  The merge pass
        reaches MERGE_RADIUS cells past the run, so the board must be
        packed with margin >= MERGE_RADIUS, else ValueError.
        """
        if self._margin < MERGE_RADIUS:
            raise ValueError(f"bodies need a margin of at least {MERGE_RADIUS}")
        matched: dict[tuple[bytes, Cell], V] = {}
        keys = self._keys
        if keys.size == 0:
            return matched, None
        self._sorted = keys, *_neighbor_sort(keys)
        labels = _component_labels(keys, self._sorted[1:])
        order = np.argsort(labels, kind="stable")
        grouped = keys[order]
        sorted_labels = labels[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1]))
        )
        sizes = np.diff(np.append(starts, keys.size))
        # Keys sort x-major, so a body's first and last keys hold its x
        # range; its y range needs a reduction.
        xs = grouped >> _FIELD_BITS
        ys = grouped & (_FIELD - 1)
        min_x, max_x = xs[starts], xs[starts + sizes - 1]
        min_y = np.minimum.reduceat(ys, starts)
        max_y = np.maximum.reduceat(ys, starts)
        ox, oy = self._origin
        is_body = np.ones(starts.size, dtype=bool)
        for size, by_shape in table.items():
            picked = np.flatnonzero(sizes == size)
            if picked.size == 0:
                continue
            corner = (min_x[picked] << _FIELD_BITS) + min_y[picked]
            rows = grouped[starts[picked, None] + np.arange(size)] - corner[:, None]
            shapes = rows.view(f"V{8 * size}").ravel().tolist()
            for i, shape, x, y in zip(
                picked.tolist(), shapes, min_x[picked].tolist(), min_y[picked].tolist()
            ):
                value = by_shape.get(shape)
                if value is not None:
                    matched[(shape, (x + ox, y + oy))] = value
                    is_body[i] = False
        if not is_body.any():
            return matched, None
        return matched, (
            int(min_x[is_body].min()) + ox,
            int(min_y[is_body].min()) + oy,
            int(max_x[is_body].max()) + ox,
            int(max_y[is_body].max()) + oy,
        )

    def pattern(self) -> Pattern:
        return Pattern(_unpack(self._keys, self._origin), self.generation)


def step_n(p: Pattern, n: int, population_factor: float | None = None) -> Pattern:
    """n-fold iteration of ``step``.

    On the packed path a board that recurs, in place or moved, jumps
    exactly over the whole periods left.  With a population_factor,
    raises ExplosiveGrowthError at the first generation whose
    population exceeds that factor times p's; a factor that is nan,
    infinite or not above 0 raises ValueError, a non-int n TypeError.
    """
    n = _checked_count(n, "n")
    _check_factor(population_factor)
    if n < 0:
        raise ValueError("generation count must be non-negative")
    if n == 0:
        return p
    if _packed_origin(p, n) is not None:
        board = Board(p, n, population_factor=population_factor)
        board.step(n)
        return board.pattern()

    _check_headroom(p, n)
    cells = p.cells
    for t in range(1, n + 1):
        cells = _evolve_py(cells)
        _check_growth(len(p.cells), population_factor, len(cells), t)
    return Pattern(cells, p.generation + n)
