"""Sparse Game of Life engine (B3/S23) on an unbounded plane.

Live cells are kept as a frozenset of (x, y) integer pairs, x growing
rightward and y growing downward.  ``step`` is a plain sparse
neighbor-count pass in Python, the reference.  ``step_n``, the ship
detector and the emission census all step one packed ``Board``: sorted
64-bit keys that pack each cell's coordinates in two 31-bit fields
centred on the box, advanced in place by one sort of their neighbor
keys per generation.  The box grows by at most a cell a side per
generation, so the board counts the free cells to the nearer of the
fields' and the 64-bit edge, re-centres the fields once they are used
up, and refuses the 64-bit edge where iterating ``step`` would.  A
board whose shape (its keys from the box corner) recurs jumps exactly
over the whole periods left of a run.  ``step_n`` squeezes the wide empty
bands of a board too wide for the fields.  The board also splits itself
into bodies for the census from the same sort, looks them up by shape,
and takes them off or puts them back, so the key format stays here.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect
from collections import Counter
from collections.abc import Callable, Mapping
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

# Coordinates live in the signed 64-bit range: a box at its edge is not stepped.
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
    """Raised when a step could leave the 64-bit range or the packed fields."""


class ExplosiveGrowthError(RuntimeError):
    """Growth blew past the configured bound before the run ended."""

    def __init__(self, message: str, generation: int, current_population: int):
        super().__init__(message)
        self.generation = generation
        self.population = current_population


@dataclass(frozen=True)
class Pattern:
    """A finite set of live cells plus a generation counter (an int)."""

    cells: frozenset[Cell] = field(default_factory=frozenset)
    generation: int = 0

    def __post_init__(self):
        if type(self.generation) is not int:
            object.__setattr__(
                self, "generation", _checked_count(self.generation, "generation")
            )

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


def _check_headroom(box: Box, generation: int) -> int:
    """Free cells on box's tightest side to the 64-bit edge; refuse a board
    at generation whose box touches it.

    One generation moves the bounding box by at most one cell in each
    direction (nothing outruns a chess king), so the next one is in
    range when this one is a cell clear of the edge.
    """
    x0, y0, x1, y1 = box
    room = min(x0 - COORD_MIN, y0 - COORD_MIN, COORD_MAX - x1, COORD_MAX - y1)
    if room <= 0:
        raise CoordinateOverflowError(
            f"box {box} at generation {generation} reaches the edge of the "
            f"signed 64-bit coordinate range"
        )
    return room


def step(p: Pattern) -> Pattern:
    """The next generation under B3/S23."""
    _check_headroom(bounding_box(p) if p.cells else (0, 0, 0, 0), p.generation)
    return Pattern(_evolve_py(p.cells), p.generation + 1)


def _room(box: Box, origin: Cell) -> int:
    """Free cells on box's tightest side, to the fields' edge or the 64-bit one."""
    (x0, y0, x1, y1), (ox, oy) = box, origin
    packed = min(x0 - ox, y0 - oy, _FIELD - 1 - x1 + ox, _FIELD - 1 - y1 + oy)
    return min(packed, x0 - COORD_MIN, y0 - COORD_MIN, COORD_MAX - x1, COORD_MAX - y1)


def _fits(box: Box, generations: int = 1) -> bool:
    """Whether the fields keep box a free cell a side at each re-centring while
    it grows a cell a side a generation for generations (at least 1)."""
    return max(box[2] - box[0], box[3] - box[1]) + 2 * generations < _FIELD


def _clear_cycles(cycles: int, box: Box, move: Cell, period: int) -> int:
    """At most cycles periods a board recurring from box skips clear of the 64-bit edge.

    A period grows the box at most period - 1 cells a side and moves it
    by move; the sides it does not near were cleared by the last period.
    """
    for v, low, high in zip(move, box[:2], box[2:]):
        if v:
            clear = COORD_MAX - high if v > 0 else low - COORD_MIN
            cycles = min(cycles, max(0, (clear - period) // abs(v) + 1))
    return cycles


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
    # In Python ints: a centred origin may lie outside the 64-bit range.
    xs = [x + origin[0] for x in (keys >> _FIELD_BITS).tolist()]
    ys = [y + origin[1] for y in (keys & (_FIELD - 1)).tolist()]
    return frozenset(zip(xs, ys))


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


def _component_labels(keys: np.ndarray, sort: tuple) -> np.ndarray:
    """Label each sorted key with the first index of its body.

    Distinct cells share a neighbor cell exactly when their Chebyshev
    distance is 1 or 2, the merge radius, so each run of sort, that is
    ``_neighbor_sort(keys)``, joins its cells.  Roots are
    hooked to smaller joined roots and pointer jumping flattens the trees
    until no joined pair differs; a body's smallest index is never hooked.
    """
    neighbors, order = sort
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


def _extent(keys: np.ndarray) -> Box:
    """(min_x, min_y, max_x, max_y) of non-empty sorted keys, in field cells."""
    # Keys sort x-major, so the first and last keys hold the x range.
    x0, x1 = int(keys[0] >> _FIELD_BITS), int(keys[-1] >> _FIELD_BITS)
    ys = keys & (_FIELD - 1)
    return x0, int(ys.min()), x1, int(ys.max())


def _shape(keys: np.ndarray, origin: Cell) -> tuple[bytes, Box]:
    """The bytes of non-empty sorted keys relative to their box corner, equal
    exactly for translates, and their box (min_x, min_y, max_x, max_y) at origin."""
    # Relative to the first key, keys could alias across the y field.
    (x0, y0, x1, y1), (ox, oy) = _extent(keys), origin
    return (keys - (x0 * _FIELD + y0)).tobytes(), (x0 + ox, y0 + oy, x1 + ox, y1 + oy)


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


class Board:
    """A board held as sorted packed keys and stepped in place.

    It raises CoordinateOverflowError where ``step`` would, judged on its
    own box, or where its box leaves the packed fields no free cell a side
    (also when built).  With a population_factor (finite and above 0,
    else ValueError), each step raises ExplosiveGrowthError above that
    factor x the start count.
    """

    def __init__(self, p: Pattern, *, population_factor: float | None = None):
        _check_factor(population_factor)
        self.generation = p.generation
        self._keys, self._origin = np.empty(0, dtype=np.int64), (0, 0)
        self._centre(bounding_box(p) if p.cells else (0, 0, 0, 0))
        self._keys = _pack(p.cells, self._origin)
        self._sorted = None, None, None  # keys that bodies() split, their sort
        self._start = (p.generation, len(p.cells))
        self._factor = population_factor

    def _centre(self, box: Box) -> None:
        """Centre the fields on box; CoordinateOverflowError if they have no room."""
        if not _fits(box):
            raise CoordinateOverflowError(
                f"box {box} at generation {self.generation} fills the packed fields"
            )
        free = _FIELD - 1 - box[2] + box[0], _FIELD - 1 - box[3] + box[1]
        nx, ny = box[0] - free[0] // 2, box[1] - free[1] // 2
        ox, oy = self._origin
        if self._keys.size:
            self._keys = self._keys - ((nx - ox) * _FIELD + ny - oy)
        self._origin, self._room = (nx, ny), _room(box, (nx, ny))

    @property
    def population(self) -> int:
        return self._keys.size

    def step(self, generations: int = 1) -> None:
        """Advance in place; an empty board only counts the generations.

        A board whose shape recurs, in place or moved, jumps exactly over
        the whole periods left, short of the 64-bit edge, by moving its
        origin (Brent's cycle search, one saved board); the cycle's
        populations passed the growth check.
        """
        end = self.generation + _checked_count(generations, "generations")
        if end < self.generation:
            raise ValueError("stepping back")
        first, count = self._start
        saved, saved_at, power = (self._keys, self._origin), self.generation, 1
        # Take, put and re-centring replace the keys, so a stale sort is unused.
        neighbors = self._sorted[1] if self._sorted[0] is self._keys else None
        while self.generation < end and self._keys.size:
            if self._room < 1:  # refuse where step does, once the fields have room
                self._centre(box := self.box())
                _check_headroom(box, self.generation)
            self._keys, neighbors = _evolve_np(self._keys, neighbors), None
            self._room -= 1
            self.generation += 1
            size = self._keys.size
            if self._factor is not None and size > count * self._factor:
                t = self.generation - first
                message = f"population {size} exceeds {self._factor} x initial {count}"
                raise ExplosiveGrowthError(f"{message} at generation {t}", t, size)
            if self.generation < end and self._keys.size == saved[0].size:
                (shape, (sx, sy, _, _)), (now, box) = _shape(*saved), self.shape()
                if shape == now:
                    period = self.generation - saved_at
                    dx, dy = box[0] - sx, box[1] - sy
                    cycles = (end - self.generation) // period
                    if dx or dy:  # a moving board jumps short of the 64-bit edge
                        cycles = _clear_cycles(cycles, box, (dx, dy), period)
                        self._room = 0  # and checks it before the next step
                    ox, oy = self._origin
                    self._origin = ox + cycles * dx, oy + cycles * dy
                    self.generation += cycles * period
            if self.generation - saved_at == power:
                saved, saved_at = (self._keys, self._origin), self.generation
                power *= 2
        self.generation = end

    def box(self) -> Box | None:
        """The box (min_x, min_y, max_x, max_y), or None for an empty board."""
        if not self._keys.size:
            return None
        (x0, y0, x1, y1), (ox, oy) = _extent(self._keys), self._origin
        return x0 + ox, y0 + oy, x1 + ox, y1 + oy

    def shape(self) -> tuple[bytes, Box]:
        """The canonical shape and the box, as ``_shape`` makes them."""
        if not self._keys.size:
            raise EmptyPatternError("an empty board has no shape")
        return _shape(self._keys, self._origin)

    def _placed(self, shape: bytes, corner: Cell) -> tuple[np.ndarray, ...]:
        """The keys of shape at corner, where they sort, which are live; see put."""
        keys = np.frombuffer(shape, dtype=np.int64)
        (x, y), (_, _, width, height) = corner[:2], _extent(keys)
        body = x, y, x + width, y + height
        if _room(body, self._origin) < 1:
            box = self.box() or body
            union = (*map(min, box[:2], body[:2]), *map(max, box[2:], body[2:]))
            if _fits(union):
                self._centre(union)
        if _room(body, self._origin) < 0:
            raise ValueError(f"a body at {corner} is outside the packed fields")
        self._room = min(self._room, _room(body, self._origin))
        keys = keys + ((x - self._origin[0]) * _FIELD + y - self._origin[1])
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
        """Put shape at corner on the board; ValueError if any of its cells is live.

        A body with no room re-centres the fields; one too far raises ValueError.
        """
        keys, at, live = self._placed(shape, corner)
        if live.any():
            raise ValueError(f"the body at {corner} overlaps live cells")
        self._keys = np.insert(self._keys, at, keys)

    def bodies(
        self, table: Mapping[bytes, V]
    ) -> tuple[dict[tuple[bytes, Cell], V], Box | None]:
        """Split the board into bodies and look them up by shape.

        Bodies are the cells joined within Chebyshev distance
        MERGE_RADIUS.  table maps shapes, as ``shape()`` makes them, to
        values; a shape holds 8 bytes a cell, so the bodies of each listed
        size are looked up in one batch.  Returns the values of the
        matched bodies keyed by (shape, box corner), and the union box of
        all other bodies (None when there are none).
        """
        matched: dict[tuple[bytes, Cell], V] = {}
        if self._keys.size == 0:
            return matched, None
        if self._room < 1:
            self._centre(self.box())
        keys = self._keys
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
        for size in {len(shape) // 8 for shape in table}:
            picked = np.flatnonzero(sizes == size)
            if picked.size == 0:
                continue
            corner = (min_x[picked] << _FIELD_BITS) + min_y[picked]
            rows = grouped[starts[picked, None] + np.arange(size)] - corner[:, None]
            shapes = rows.view(f"V{8 * size}").ravel().tolist()
            for i, shape, x, y in zip(
                picked.tolist(), shapes, min_x[picked].tolist(), min_y[picked].tolist()
            ):
                value = table.get(shape)
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


def _squeeze(cells: frozenset[Cell], r: int) -> tuple[frozenset[Cell], Callable]:
    """cells with each empty band wider than 2r + 1 narrowed to 2r + 1, and the
    map back for cells up to r generations on: parts that far apart evolve
    alone, and a cell stays on its part's side of each narrowed band's middle."""
    axes = []
    for order in (sorted({cell[axis] for cell in cells}) for axis in (0, 1)):
        places, middles, back = {order[0]: order[0]}, [], [0]
        for last, c in zip(order, order[1:]):
            if c - last > 2 * r + 2:
                middles.append(places[last] + r + 1)
                back.append(back[-1] + c - last - 2 * r - 2)
            places[c] = c - back[-1]
        axes.append((places, middles, back))
    (xs, x_mid, x_back), (ys, y_mid, y_back) = axes
    return frozenset((xs[x], ys[y]) for x, y in cells), lambda moved: frozenset(
        (x + x_back[bisect(x_mid, x)], y + y_back[bisect(y_mid, y)]) for x, y in moved
    )


def step_n(p: Pattern, n: int, population_factor: float | None = None) -> Pattern:
    """n-fold iteration of ``step``, refusing at the generation it would.

    One packed ``Board`` runs it, jumping over whole periods.  A board too
    wide for the fields runs on squeezed (``_squeeze``), r generations at a
    time: r is at most its room to the 64-bit edge, halved until the
    squeezed box fits, else the board refuses with the fields' error.  With
    a population_factor, raises ExplosiveGrowthError at the first
    generation over that factor times p's population; a factor that is
    nan, infinite or not above 0 raises ValueError, a non-int n TypeError.
    """
    n = _checked_count(n, "n")
    _check_factor(population_factor)
    if n < 0:
        raise ValueError("generation count must be non-negative")
    end, q = p.generation + n, p
    while q.generation < end:
        cells, r, back = q.cells, end - q.generation, None
        if q.cells and not _fits(box := bounding_box(q)):
            r = min(r, _check_headroom(box, q.generation))
            while r:  # halve r until its squeeze fits; else the board refuses q
                squeezed = _squeeze(q.cells, r)
                if _fits(bounding_box(Pattern(squeezed[0])), r):
                    cells, back = squeezed
                    break
                r //= 2
        board = Board(Pattern(cells, q.generation), population_factor=population_factor)
        board._start = p.generation, len(p.cells)
        try:
            board.step(r)
        except CoordinateOverflowError:
            if _fits(board.box()):
                raise  # the 64-bit edge; one that outgrows the fields is squeezed
        q = board.pattern()
        if back:
            q = Pattern(back(q.cells), q.generation)
    return q
