"""Sparse Game of Life engine (B3/S23) on an unbounded plane.

Live cells are kept as a frozenset of (x, y) integer pairs, x growing
rightward and y growing downward.  ``step`` is a plain sparse
neighbor-count pass in Python, the reference.  ``step_n``, the ship
detector and the emission census all step one packed ``Board``: sorted
64-bit keys that pack each cell's coordinates in two 31-bit fields
centred on the box, advanced in place by one sort of their neighbor
keys per generation.  The box grows by at most a cell a side per
generation, so the board counts the free cells to the nearer of the
fields' and the 64-bit edge, re-packs the fields, squeezing the wide
empty bands of a box too wide for them, once they are used up, and
refuses the 64-bit edge where iterating ``step`` would.  A board whose
shape (its keys from the box corner) recurs jumps exactly over the
whole periods left of a run.  The board also splits itself into bodies
for the census from the same sort, looks them up by shape, and takes
them off or puts them back, so the key format stays here.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate
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
    """A finite set of live cells plus a generation counter (an int).

    Coordinates are ints: ``step``, ``Board``, ``translate`` and
    ``canonicalize`` take numpy integers as ints and refuse any other
    coordinate with TypeError.
    """

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
    dx, dy = _checked_count(dx, "dx"), _checked_count(dy, "dy")
    return Pattern(
        frozenset((x + dx, y + dy) for x, y in _plain(p.cells)), p.generation
    )


def canonicalize(p: Pattern) -> tuple[Pattern, Cell]:
    """Translate so the bounding-box corner sits at (0, 0).

    Returns the translated pattern and the offset that was removed, so
    ``translate(canonical, *offset)`` reconstructs the original.
    """
    if not p.cells:
        raise EmptyPatternError("cannot canonicalize an empty pattern")
    p = Pattern(_plain(p.cells), p.generation)
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


def _check_headroom(box: Box, generation: int) -> None:
    """Refuse a board at generation whose box touches the 64-bit edge.

    One generation moves the bounding box by at most one cell in each
    direction (nothing outruns a chess king), so the next one is in
    range when this one is a cell clear of the edge.
    """
    x0, y0, x1, y1 = box
    if min(x0 - COORD_MIN, y0 - COORD_MIN, COORD_MAX - x1, COORD_MAX - y1) <= 0:
        raise CoordinateOverflowError(
            f"box {box} at generation {generation} reaches the edge of the "
            f"signed 64-bit coordinate range"
        )


def step(p: Pattern) -> Pattern:
    """The next generation under B3/S23."""
    p = Pattern(_plain(p.cells), p.generation)
    _check_headroom(bounding_box(p) if p.cells else (0, 0, 0, 0), p.generation)
    return Pattern(_evolve_py(p.cells), p.generation + 1)


def _room(box: Box, origin: Cell) -> int:
    """Free cells on box's tightest side, to the fields' edge or the 64-bit one."""
    (x0, y0, x1, y1), (ox, oy) = box, origin
    packed = min(x0 - ox, y0 - oy, _FIELD - 1 - x1 + ox, _FIELD - 1 - y1 + oy)
    return min(packed, x0 - COORD_MIN, y0 - COORD_MIN, COORD_MAX - x1, COORD_MAX - y1)


def _fits(box: Box) -> bool:
    """Whether fields centred on box keep it a free cell a side."""
    return max(box[2] - box[0], box[3] - box[1]) + 2 < _FIELD


def _band_room(order: list[int]) -> int:
    """The most r for which sorted coordinates squeezed by r keep r cells free
    a side: narrowing the k widest gaps, of total S, to 2r + 2 spans at most
    span - S + 2k + 2r(k + 1), exactly when just they are wider."""
    free = _FIELD - 1 - (order[-1] - order[0])
    gaps = sorted((c - last for last, c in zip(order, order[1:])), reverse=True)
    sums = accumulate(gaps, initial=0)
    return max((free + s - 2 * k) // (2 * k + 2) for k, s in enumerate(sums))


def _squeeze(orders: list[list[int]], r: int) -> list[tuple[dict, list, list]]:
    """Per axis of sorted coordinates, each empty band wider than 2r + 1
    narrowed to 2r + 1, where parts evolve alone for r generations: where
    each coordinate goes, the middles, and the width removed before each."""
    axes = []
    for order in orders:
        places, middles, back = {order[0]: order[0]}, [], [0]
        for last, c in zip(order, order[1:]):
            if c - last > 2 * r + 2:
                middles.append(places[last] + r + 1)
                back.append(back[-1] + c - last - 2 * r - 2)
            places[c] = c - back[-1]
        axes.append((places, middles, back))
    return axes


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


def _widened(fields: list[int], band: tuple[list[int], list[int]]) -> list[int]:
    """Field coordinates on one axis, each widened by the bands before it."""
    middles, back = band
    return [f + back[bisect(middles, f)] for f in fields]


def _plane(box: Box, origin: Cell, bands) -> Box:
    """box, in field cells, on the plane, through the bands if any."""
    (x0, y0, x1, y1), (ox, oy) = box, origin
    if bands:
        (x0, x1), (y0, y1) = map(_widened, ((x0, x1), (y0, y1)), bands)
    return x0 + ox, y0 + oy, x1 + ox, y1 + oy


def _unpack(keys: np.ndarray, origin: Cell, bands=None) -> frozenset[Cell]:
    # In Python ints: a centred origin may lie outside the 64-bit range.
    xs, ys = (keys >> _FIELD_BITS).tolist(), (keys & (_FIELD - 1)).tolist()
    if bands:
        xs, ys = map(_widened, (xs, ys), bands)
    return frozenset(zip([x + origin[0] for x in xs], [y + origin[1] for y in ys]))


def _neighbor_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbor keys of n sorted keys, sorted, and the index map order.

    Sorted neighbor i is entry order[i] of the 8 x n offset-major outer
    sum: the neighbor of cell order[i] % n at offset order[i] // n.  Each
    neighbor offset adds a sorted run, so a stable sort merges them.
    """
    neighbors = np.add.outer(_PACKED_OFFSETS_NP, keys).ravel()
    order = neighbors.argsort(kind="stable")
    return neighbors[order], order


def _evolve_np(keys: np.ndarray, neighbors: np.ndarray | None = None) -> np.ndarray:
    """One generation over non-empty sorted keys, from their neighbor sort if given.

    Each run of equal neighbor keys counts one cell's live neighbors.
    """
    if neighbors is None:
        neighbors = np.add.outer(_PACKED_OFFSETS_NP, keys).ravel()
        neighbors.sort(kind="stable")
    ends = np.empty(neighbors.size, dtype=bool)
    np.not_equal(neighbors[1:], neighbors[:-1], out=ends[:-1])
    ends[-1] = True
    last = ends.nonzero()[0]
    counts = np.empty_like(last)
    counts[0] = last[0] + 1
    np.subtract(last[1:], last[:-1], out=counts[1:])
    cells = neighbors[last]
    # A key's neighbor key + _FIELD + 1 sorts after it, so at < cells.size.
    at = cells.searchsorted(keys)
    live = at[cells[at] == keys]
    keep = counts == 3
    keep[live[counts[live] == 2]] = True
    return cells[keep]


def _component_labels(keys: np.ndarray, sort: tuple) -> np.ndarray:
    """Label each sorted key with the first index of its body.

    Distinct cells share a neighbor cell exactly when their Chebyshev
    distance is 1 or 2, the merge radius, so each run of sort, that is
    ``_neighbor_sort(keys)``, joins its cells.  Sorted neighbor i belongs
    to cell order[i] % n, read without a division from the n labels
    repeated once per offset.  Roots are hooked to smaller joined roots
    and pointer jumping flattens the trees until no joined pair differs;
    a body's smallest index is never hooked.
    """
    neighbors, order = sort
    labels = np.arange(keys.size)
    source = np.concatenate((labels,) * 8)[order]
    joined = (neighbors[1:] == neighbors[:-1]).nonzero()[0]
    a, b = src, dst = source[joined], source[joined + 1]
    while a.size:
        labels[np.maximum(a, b)] = np.minimum(a, b)
        while not np.logical_and.reduce((jumped := labels[labels]) == labels):
            labels = jumped
        a, b = labels[src], labels[dst]
        differ = a != b
        src, dst, a, b = src[differ], dst[differ], a[differ], b[differ]
    return labels


def _extent(keys: np.ndarray) -> Box:
    """(min_x, min_y, max_x, max_y) of non-empty sorted keys, in field cells."""
    # Keys sort x-major, so the first and last keys hold the x range.
    x0, x1 = int(keys[0]) >> _FIELD_BITS, int(keys[-1]) >> _FIELD_BITS
    ys = keys & (_FIELD - 1)
    return x0, int(np.minimum.reduce(ys)), x1, int(np.maximum.reduce(ys))


def _key_shape(keys: np.ndarray) -> tuple[bytes, Box]:
    """The bytes of non-empty sorted keys from their box corner, and their box
    in field cells."""
    # Relative to the first key, keys could alias across the y field.
    x0, y0, x1, y1 = extent = _extent(keys)
    return (keys - (x0 * _FIELD + y0)).tobytes(), extent


def _band_shape(keys: np.ndarray, bands) -> bytes:
    """What squeezed keys add to their shape: after 8 bytes of -1 (never a
    relative key), each band's gap and width; nothing if not squeezed."""
    if not bands:
        return b""
    axes = np.sort(keys >> _FIELD_BITS), np.sort(keys & (_FIELD - 1))
    gaps = [a.searchsorted(mid).tolist() for a, (mid, _) in zip(axes, bands)]
    widths = [b - a for _, back in bands for a, b in zip(back, back[1:])]
    return b"\xff" * 8 + repr((gaps, widths)).encode()


def _shape(keys: np.ndarray, origin: Cell, bands=None) -> tuple[bytes, Box]:
    """The shape of non-empty sorted keys, equal exactly for translates, and
    their box on the plane."""
    shape, extent = _key_shape(keys)
    return shape + _band_shape(keys, bands), _plane(extent, origin, bands)


def _checked_count(n: int, name: str) -> int:
    """n as a plain int (numpy integers too); TypeError for a bool or a non-integer."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise TypeError(f"{name} must be an int, not {type(n).__name__}")
    return operator.index(n)


def _plain(cells: frozenset[Cell]) -> frozenset[Cell]:
    """cells with plain int coordinates, through ``_checked_count``: numpy
    integers become ints, a bool or another non-integer raises TypeError."""
    if all(type(x) is int is type(y) for x, y in cells):
        return cells
    return frozenset((_checked_count(x, "x"), _checked_count(y, "y")) for x, y in cells)


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
    own box, or where no squeeze fits its box in the packed fields (also
    when built).  A squeezed board maps every box, corner, cell and shape
    through its bands: per axis, their middles in field cells and the
    width removed before each.  With a population_factor (finite and
    above 0, else ValueError), each step raises ExplosiveGrowthError above
    that factor x the start count.
    """

    def __init__(self, p: Pattern, *, population_factor: float | None = None):
        _check_factor(population_factor)
        self.generation = p.generation
        self._repack(_plain(p.cells))
        self._sorted = None, None, None  # keys that bodies() split, their sort
        self._listed = None, None  # the table bodies() last read, its sizes
        self._start = (p.generation, len(p.cells))
        self._factor = population_factor

    def _repack(self, cells: frozenset | None = None, extra=frozenset()) -> np.ndarray:
        """Pack cells (the board's own if None) centred on the box of cells and
        extra, and return extra's keys; a box that does not fit is squeezed
        first, by the r of ``_band_room``, and refused if r is below 1."""
        if cells is None:
            cells = _unpack(self._keys, self._origin, self._bands)
        whole, axes, r = cells | extra if extra else cells, (), math.inf
        box = fit = bounding_box(Pattern(whole)) if whole else (0, 0, 0, 0)
        if not _fits(box):
            orders = [sorted({cell[axis] for cell in whole}) for axis in (0, 1)]
            if (r := min(map(_band_room, orders))) < 1:
                raise CoordinateOverflowError(
                    f"box {box} at generation {self.generation} fills the packed fields"
                )
            axes = (xs, _, _), (ys, _, _) = _squeeze(orders, r)
            cells, extra = ({(xs[x], ys[y]) for x, y in c} for c in (cells, extra))
            fit = xs[box[0]], ys[box[1]], xs[box[2]], ys[box[3]]
        free = _FIELD - 1 - fit[2] + fit[0], _FIELD - 1 - fit[3] + fit[1]
        self._origin = origin = fit[0] - free[0] // 2, fit[1] - free[1] // 2
        # A squeeze keeps the low corner, so only the high sides come nearer.
        self._room = min(r, _room(fit, origin), COORD_MAX - max(box[2:]))
        self._bands = axes and tuple(
            ([m - o for m in mid], back) for o, (_, mid, back) in zip(origin, axes)
        )
        self._keys = _pack(cells, origin)
        return _pack(extra, origin)

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
        saved, mark = (self._keys, self._origin, self._bands), None
        saved_at, power = self.generation, 1
        # Take, put and re-packing replace the keys, so a stale sort is unused.
        neighbors = self._sorted[1] if self._sorted[0] is self._keys else None
        while self.generation < end and self._keys.size:
            if self._room < 1:  # refuse where step does, else re-pack the fields
                _check_headroom(self.box(), self.generation)
                self._repack()
            self._keys, neighbors = _evolve_np(self._keys, neighbors), None
            self._room -= 1
            self.generation += 1
            size = self._keys.size
            if self._factor is not None and size > count * self._factor:
                t = self.generation - first
                message = f"population {size} exceeds {self._factor} x initial {count}"
                raise ExplosiveGrowthError(f"{message} at generation {t}", t, size)
            if self.generation < end and self._keys.size == saved[0].size:
                # Equal shapes of two packings are translates, fresh or not.
                # The saved shape is read once, and a band part only past
                # equal keys: the key bytes are the first 8 a cell.
                shape, (sx, sy, _, _) = mark = mark or _shape(*saved)
                same, extent = _key_shape(self._keys)
                if shape.startswith(same) and shape[len(same) :] == _band_shape(
                    self._keys, self._bands
                ):
                    period = self.generation - saved_at
                    box = _plane(extent, self._origin, self._bands)
                    dx, dy = box[0] - sx, box[1] - sy
                    cycles = (end - self.generation) // period
                    if dx or dy:  # a moving board jumps short of the 64-bit edge
                        cycles = _clear_cycles(cycles, box, (dx, dy), period)
                        self._room = 0  # and checks it before the next step
                    ox, oy = self._origin
                    self._origin = ox + cycles * dx, oy + cycles * dy
                    self.generation += cycles * period
            if self.generation - saved_at == power:
                saved, mark = (self._keys, self._origin, self._bands), None
                saved_at, power = self.generation, 2 * power
        self.generation = end

    def box(self) -> Box | None:
        """The box (min_x, min_y, max_x, max_y), or None for an empty board."""
        if not self._keys.size:
            return None
        return _plane(_extent(self._keys), self._origin, self._bands)

    def shape(self) -> tuple[bytes, Box]:
        """The canonical shape and the box, as ``_shape`` makes them, packed
        afresh if squeezed or too wide, so that its bands fit translates."""
        if not self._keys.size:
            raise EmptyPatternError("an empty board has no shape")
        if self._bands or (self._room < 1 and not _fits(self.box())):
            self._repack()
        return _shape(self._keys, self._origin, self._bands)

    def _placed(self, shape: bytes, corner: Cell) -> tuple[np.ndarray, ...]:
        """The keys of shape at corner, where they sort, which are live; see put."""
        keys = np.frombuffer(shape, dtype=np.int64)
        (x, y), (_, _, width, height) = corner[:2], _extent(keys)
        body = x, y, x + width, y + height
        if self._bands or _room(body, self._origin) < 1:
            keys = self._repack(extra=_unpack(keys, corner))
        else:
            self._room = min(self._room, _room(body, self._origin))
            keys = keys + ((x - self._origin[0]) * _FIELD + y - self._origin[1])
        at = self._keys.searchsorted(keys)
        # Keys are never negative, so -1 stands past the last key.
        return keys, at, np.append(self._keys, -1)[at] == keys

    def take(self, shape: bytes, corner: Cell) -> None:
        """Take shape (from ``shape()``) at corner off; ValueError unless all live."""
        _, at, live = self._placed(shape, corner)
        if not np.logical_and.reduce(live):
            raise ValueError(f"the body at {corner} is not all live")
        self._keys = np.delete(self._keys, at)

    def put(self, shape: bytes, corner: Cell) -> None:
        """Put shape at corner on the board; ValueError if any of its cells is live."""
        keys, at, live = self._placed(shape, corner)
        if np.logical_or.reduce(live):
            raise ValueError(f"the body at {corner} overlaps live cells")
        self._keys = np.insert(self._keys, at, keys)

    def bodies(
        self, table: Mapping[bytes, V]
    ) -> tuple[dict[tuple[bytes, Cell], V], Box | None]:
        """Split the board into bodies and look them up by shape.

        Bodies are the cells joined within Chebyshev distance
        MERGE_RADIUS.  table maps shapes, as ``shape()`` makes them, to
        values; a shape holds 8 bytes a cell, so one pass picks the bodies
        of a listed size and slices their shapes from one byte string (the
        sizes are read once per table object, which must not change).
        Returns the values of the matched bodies keyed by (shape, box
        corner), and the union box of all other bodies (None if none).
        """
        matched: dict[tuple[bytes, Cell], V] = {}
        if self._keys.size == 0:
            return matched, None
        if self._room < 1:
            self._repack()
        if self._listed[0] is not table:  # flags by size; the last is for larger
            sizes = [len(shape) // 8 for shape in table]
            self._listed = table, np.zeros(max(sizes, default=0) + 2, dtype=bool)
            self._listed[1][sizes] = True
        listed = self._listed[1]
        keys = self._keys
        self._sorted = keys, *_neighbor_sort(keys)
        labels = _component_labels(keys, self._sorted[1:])
        order = labels.argsort(kind="stable")
        grouped = keys[order]
        sorted_labels = labels[order]
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=first[1:])
        starts = first.nonzero()[0]
        sizes = np.empty_like(starts)
        sizes[-1] = keys.size - starts[-1]
        np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
        # Keys sort x-major, so a body's first and last keys hold its x
        # range; its y range needs a reduction.
        xs = grouped >> _FIELD_BITS
        ys = grouped & (_FIELD - 1)
        min_x, max_x = xs[starts], xs[starts + sizes - 1]
        min_y = np.minimum.reduceat(ys, starts)
        max_y = np.maximum.reduceat(ys, starts)
        # Each key from its body's corner key, as ``shape()`` makes them.
        relative = (grouped - ((min_x << _FIELD_BITS) + min_y).repeat(sizes)).tobytes()
        picked = listed[np.minimum(sizes, listed.size - 1)].nonzero()[0]
        begin, ox, oy = 8 * starts[picked], *self._origin
        spans = zip(begin.tolist(), (begin + 8 * sizes[picked]).tolist())
        xs, ys = min_x[picked].tolist(), min_y[picked].tolist()
        if self._bands:  # no body spans a band's middle while the board has room
            xs, ys = map(_widened, (xs, ys), self._bands)
        is_body = np.ones(starts.size, dtype=bool)
        for i, (a, b), x, y in zip(picked.tolist(), spans, xs, ys):
            shape = relative[a:b]
            value = table.get(shape)
            if value is not None:
                matched[(shape, (x + ox, y + oy))] = value
                is_body[i] = False
        if not np.logical_or.reduce(is_body):
            return matched, None
        low = np.minimum.reduce(min_x[is_body]), np.minimum.reduce(min_y[is_body])
        high = np.maximum.reduce(max_x[is_body]), np.maximum.reduce(max_y[is_body])
        return matched, _plane(tuple(map(int, low + high)), self._origin, self._bands)

    def pattern(self) -> Pattern:
        return Pattern(_unpack(self._keys, self._origin, self._bands), self.generation)


def step_n(p: Pattern, n: int, population_factor: float | None = None) -> Pattern:
    """n-fold iteration of ``step``, refusing at the generation it would.

    One packed ``Board`` runs it.  With a population_factor, raises
    ExplosiveGrowthError at the first generation over that factor times
    p's population; a factor that is nan, infinite or not above 0 raises
    ValueError, a non-int n TypeError.
    """
    n = _checked_count(n, "n")
    _check_factor(population_factor)
    if n < 0:
        raise ValueError("generation count must be non-negative")
    if not n:
        return p
    board = Board(p, population_factor=population_factor)
    board.step(n)
    return board.pattern()
