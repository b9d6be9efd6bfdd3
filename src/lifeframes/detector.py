"""Kinematic measurement from raw evolution.

Everything here is observational: a pattern is stepped and its cell
sets compared, and period, displacement and velocity fall out of the
comparison.  Nothing is assumed from a name or a lookup table except
in the emission census, where a small cluster is recognized by exact
cell-set match against known ship phases and its velocity is still
measured from its own sightings rather than copied from the catalog.

The census keeps its board as the engine's sorted packed keys for the
whole horizon: it steps them with the vectorized evolver and splits
them into bodies with a vectorized component pass, so no generation
is unpacked into Python cell sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import (
    _FIELD,
    _FIELD_BITS,
    Cell,
    CoordinateOverflowError,
    EmptyPatternError,
    Pattern,
    _check_headroom,
    _evolve_np,
    _pack,
    _packed_origin,
    bounding_box,
    canonicalize,
    population,
    step,
)

__all__ = [
    "DEFAULT_MAX_EXTENT",
    "DEFAULT_POPULATION_FACTOR",
    "ExplosiveGrowthError",
    "ShipReport",
    "EmissionEvent",
    "detect_ship",
    "detect_emissions",
]

DEFAULT_POPULATION_FACTOR = 10.0
DEFAULT_MAX_EXTENT = 10_000

# Chebyshev distance 2 is the merge radius: two cells that far apart
# can still feed the same dead neighbor, so their clusters are one
# causal body for the next step.
_MERGE_RADIUS = 2
# The forward half of that neighborhood as packed-key offsets: each
# merging pair is found once, from its smaller key.
_FORWARD_MERGE_OFFSETS = np.array(
    [
        dx * _FIELD + dy
        for dx in range(_MERGE_RADIUS + 1)
        for dy in range(-_MERGE_RADIUS, _MERGE_RADIUS + 1)
        if dx > 0 or dy > 0
    ],
    dtype=np.int64,
)


class ExplosiveGrowthError(RuntimeError):
    """Growth blew past the configured bound before any recurrence."""

    def __init__(self, message: str, generation: int, current_population: int):
        super().__init__(message)
        self.generation = generation
        self.population = current_population


@dataclass(frozen=True)
class ShipReport:
    """Measured recurrence of a pattern: period, shift, and phases.

    phases holds the canonical form of each of the period generations,
    starting from the pattern that was handed to the detector.
    """

    period: int
    displacement: tuple[int, int]
    phases: tuple[Pattern, ...]

    @property
    def velocity(self) -> tuple[Fraction, Fraction]:
        dx, dy = self.displacement
        return Fraction(dx, self.period), Fraction(dy, self.period)

    @property
    def speed(self) -> Fraction:
        """Chebyshev speed max(|vx|, |vy|)."""
        vx, vy = self.velocity
        return max(abs(vx), abs(vy))

    @property
    def kind(self) -> str:
        if self.displacement != (0, 0):
            return "ship"
        return "oscillator" if self.period > 1 else "still-life"


@dataclass(frozen=True)
class EmissionEvent:
    """A ship seen leaving a parent pattern, with measured velocity."""

    birth_generation: int
    ship: ShipReport
    ground_velocity: tuple[Fraction, Fraction]
    first_sighting: Cell

    def __post_init__(self):
        vx, vy = self.ground_velocity
        if max(abs(vx), abs(vy)) > 1:
            raise ValueError("measured velocity exceeds the speed of light")


def detect_ship(
    p: Pattern,
    max_period: int = 64,
    population_factor: float = DEFAULT_POPULATION_FACTOR,
    max_extent: int = DEFAULT_MAX_EXTENT,
) -> ShipReport | None:
    """Find the smallest period at which p recurs modulo translation.

    Returns None when no recurrence shows up within max_period (the
    pattern may still be periodic with a longer period, or may never
    settle).  Raises ExplosiveGrowthError when the population grows
    past population_factor times the initial count, or the bounding
    box past max_extent on a side, before any recurrence.
    """
    if not p.cells:
        raise EmptyPatternError("cannot measure an empty pattern")
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    start_population = population(p)
    population_limit = start_population * population_factor
    first, anchor0 = canonicalize(p)
    phases = [first]
    q = p
    for t in range(1, max_period + 1):
        q = step(q)
        if not q.cells:
            return None
        if population(q) > population_limit:
            raise ExplosiveGrowthError(
                f"population {population(q)} exceeds "
                f"{population_factor} x initial {start_population} "
                f"at generation {t} with no recurrence",
                t,
                population(q),
            )
        min_x, min_y, max_x, max_y = bounding_box(q)
        if max_x - min_x + 1 > max_extent or max_y - min_y + 1 > max_extent:
            raise ExplosiveGrowthError(
                f"bounding box exceeds {max_extent} on a side "
                f"at generation {t} with no recurrence",
                t,
                population(q),
            )
        canon, anchor = canonicalize(q)
        if canon.cells == first.cells:
            return ShipReport(
                period=t,
                displacement=(anchor[0] - anchor0[0], anchor[1] - anchor0[1]),
                phases=tuple(phases),
            )
        phases.append(canon)
    return None


def _box_gap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> int:
    """Chebyshev distance between two bounding boxes (0 when touching)."""
    gap_x = max(a[0] - b[2], b[0] - a[2], 0)
    gap_y = max(a[1] - b[3], b[1] - a[3], 0)
    return max(gap_x, gap_y)


def _component_labels(keys: np.ndarray) -> np.ndarray:
    """Label each sorted key with the first index of its body.

    Cells within Chebyshev distance 2 are joined: one searchsorted
    finds every pair at a forward merge offset, then every root is
    hooked to the smallest root it touches and pointer jumping
    flattens the trees, until no joined pair carries two labels.
    """
    n = keys.size
    targets = (keys[None, :] + _FORWARD_MERGE_OFFSETS[:, None]).ravel()
    found = np.minimum(np.searchsorted(keys, targets), n - 1)
    hit = np.flatnonzero(keys[found] == targets)
    src, dst = hit % n, found[hit]
    labels = np.arange(n)
    while True:
        a, b = labels[src], labels[dst]
        differ = a != b
        if not differ.any():
            return labels
        src, dst, a, b = src[differ], dst[differ], a[differ], b[differ]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


@dataclass
class _PhaseEntry:
    """One canonical ship phase with its per-step anchor motion."""

    report: ShipReport
    extent: Cell
    step_offset: Cell
    next_shape: bytes


def _shape_key(cells: frozenset[Cell]) -> bytes:
    """A canonical shape as the bytes of its sorted packed keys."""
    return _pack(cells, (0, 0)).tobytes()


def _phase_entries(report: ShipReport) -> list[tuple[bytes, _PhaseEntry]]:
    """Walk one full period of a ship and record each phase's step.

    The walk re-derives, with the engine itself, where each phase's
    corner moves on the next generation; the census needs that to
    follow one physical ship through consecutive generations.
    """
    q = report.phases[0]
    anchors: list[Cell] = [(0, 0)]
    shapes: list[frozenset[Cell]] = [q.cells]
    for _ in range(report.period):
        q = step(q)
        canon, anchor = canonicalize(q)
        anchors.append(anchor)
        shapes.append(canon.cells)
    if shapes[report.period] != shapes[0]:
        raise ValueError("catalog entry does not recur at its stated period")
    if anchors[report.period] != report.displacement:
        raise ValueError("catalog entry does not move by its stated displacement")
    out = []
    for i in range(report.period):
        if shapes[i] != report.phases[i].cells:
            raise ValueError("catalog entry phases are out of order")
        delta = (
            anchors[i + 1][0] - anchors[i][0],
            anchors[i + 1][1] - anchors[i][1],
        )
        extent = bounding_box(report.phases[i])[2:]
        next_shape = _shape_key(shapes[(i + 1) % report.period])
        out.append((_shape_key(shapes[i]), _PhaseEntry(report, extent, delta, next_shape)))
    return out


def _sightings(
    keys: np.ndarray, table: dict[int, dict[bytes, _PhaseEntry]]
) -> tuple[dict[tuple[bytes, Cell], _PhaseEntry], tuple[int, int, int, int] | None]:
    """Split one generation's packed board into bodies.

    Returns the bodies that match a catalog phase, keyed by shape and
    box corner, and the union box of all the other bodies (None when
    there are none).  Only bodies with as many cells as some catalog
    phase are looked up, one batch per size.
    """
    matched: dict[tuple[bytes, Cell], _PhaseEntry] = {}
    if keys.size == 0:
        return matched, None
    labels = _component_labels(keys)
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
            entry = by_shape.get(shape)
            if entry is not None:
                matched[(shape, (x, y))] = entry
                is_body[i] = False
    if not is_body.any():
        return matched, None
    return matched, (
        int(min_x[is_body].min()),
        int(min_y[is_body].min()),
        int(max_x[is_body].max()),
        int(max_y[is_body].max()),
    )


@dataclass
class _Track:
    """One physical ship being followed generation by generation."""

    entry: _PhaseEntry
    anchor: Cell
    first_generation: int
    first_anchor: Cell
    first_gap: int | None
    confirmed: bool = False


def detect_emissions(
    p: Pattern,
    horizon: int,
    catalog: list[ShipReport],
) -> list[EmissionEvent]:
    """Census of ships escaping p within the first horizon generations.

    Per generation the live cells are split into bodies (clusters
    merged within Chebyshev distance 2).  A body whose cell set
    exactly matches a catalog ship phase modulo translation becomes a
    candidate and is followed through consecutive generations; it is
    reported once it has been sighted again in the same phase a whole
    number of periods later, strictly farther from the non-matching
    main body than at first sighting.  Velocity is the measured anchor
    shift divided by the elapsed generations.

    The board runs on packed keys, which hold the extent plus
    2 x (horizon + 2) cells on a side (the 2 is the merge radius).  A
    board wider than 2**31 minus that slack raises
    CoordinateOverflowError before the first generation, as does one
    whose run could leave the signed 64-bit coordinate range.
    """
    ships = [r for r in catalog if r.kind == "ship"]
    if not ships:
        raise ValueError("catalog holds no ships, so nothing can be confirmed")
    shortest = min(r.period for r in ships)
    if horizon < shortest:
        raise ValueError(
            f"horizon {horizon} is shorter than the shortest catalog "
            f"period {shortest}, so no sighting can be confirmed"
        )
    _check_headroom(p, horizon)
    origin = _packed_origin(p, horizon + _MERGE_RADIUS)
    if origin is None:
        raise CoordinateOverflowError(
            f"board extent plus 2 x {horizon + _MERGE_RADIUS} generations "
            f"does not fit the census's {_FIELD_BITS}-bit packed fields"
        )

    # Per phase size, the phases of that many cells keyed by shape.
    table: dict[int, dict[bytes, _PhaseEntry]] = {}
    for report in ships:
        for shape, entry in _phase_entries(report):
            by_shape = table.setdefault(len(shape) // 8, {})
            known = by_shape.get(shape)
            if known is None:
                by_shape[shape] = entry
            elif (
                known.report.period != entry.report.period
                or known.report.displacement != entry.report.displacement
            ):
                raise ValueError("two catalog ships share a phase shape")

    events: list[EmissionEvent] = []
    tracks: list[_Track] = []
    keys = _pack(p.cells, origin)
    for generation in range(horizon + 1):
        matched, body = _sightings(keys, table)

        surviving: list[_Track] = []
        for track in tracks:
            dx, dy = track.entry.step_offset
            key = (track.entry.next_shape, (track.anchor[0] + dx, track.anchor[1] + dy))
            entry = matched.pop(key, None)
            if entry is None:
                continue
            track.entry = entry
            track.anchor = key[1]
            surviving.append(track)
            if track.confirmed:
                continue
            elapsed = generation - track.first_generation
            if elapsed == 0 or elapsed % track.entry.report.period:
                continue
            if body is not None and track.first_gap is not None:
                w, h = entry.extent
                here = (
                    track.anchor[0],
                    track.anchor[1],
                    track.anchor[0] + w,
                    track.anchor[1] + h,
                )
                if _box_gap(here, body) <= track.first_gap:
                    continue
            velocity = (
                Fraction(track.anchor[0] - track.first_anchor[0], elapsed),
                Fraction(track.anchor[1] - track.first_anchor[1], elapsed),
            )
            track.confirmed = True
            events.append(
                EmissionEvent(
                    birth_generation=track.first_generation,
                    ship=track.entry.report,
                    ground_velocity=velocity,
                    first_sighting=(
                        track.first_anchor[0] + origin[0],
                        track.first_anchor[1] + origin[1],
                    ),
                )
            )
        tracks = surviving

        for (shape, anchor), entry in matched.items():
            gap = None
            if body is not None:
                w, h = entry.extent
                gap = _box_gap((anchor[0], anchor[1], anchor[0] + w, anchor[1] + h), body)
            tracks.append(
                _Track(
                    entry=entry,
                    anchor=anchor,
                    first_generation=generation,
                    first_anchor=anchor,
                    first_gap=gap,
                )
            )

        if generation < horizon and keys.size:
            keys = _evolve_np(keys)

    events.sort(key=lambda e: (e.birth_generation, e.first_sighting))
    return events
