"""Kinematic measurement from raw evolution.

Everything here is observational: a pattern is stepped and its cell
sets compared, and period, displacement and velocity fall out of the
comparison.  Nothing is assumed from a name or a lookup table except
in the emission census, where a small cluster is recognized by exact
cell-set match against known ship phases and its velocity is still
measured from its own sightings rather than copied from the catalog.

The ship detector and the census step the engine's packed ``Board``
and compare its opaque canonical shapes.  The census's catalog table
comes from the walk ``detect_ship`` made to measure each ship, which
the report carries; a report built by hand is walked again, and checked.
The board also splits itself into bodies for the census and looks
them up in the census's catalog table, so no generation is unpacked
into Python cell sets and this module holds only census policy: the
table, the tracks, the escape rule and the velocities.  The census
state is translation-equivariant, so once it repeats the census
replays its remaining events exactly instead of stepping on.  A
confirmed ship clear of the rest evolves alone, so it leaves the board
until it comes near it again, and a board whose ships escape repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import (
    MERGE_RADIUS,
    Board,
    Box,
    Cell,
    EmptyPatternError,
    ExplosiveGrowthError,
    Pattern,
    _cells_shape,
    _checked_count,
    translate,
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

@dataclass(frozen=True)
class ShipReport:
    """Measured recurrence of a pattern: period, shift, and phases.

    phases holds the canonical form of each of the period generations,
    starting from the pattern that was handed to the detector.
    """

    period: int
    displacement: tuple[int, int]
    phases: tuple[Pattern, ...]
    # The Board class that measured it, and the board's (shape, box from
    # the start corner) at generations 0 to period: shapes are that
    # engine's bytes.  Not a field, so it is no part of the report's value
    # and a report built by hand has none.
    _walk = None

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
    box past max_extent on a side, before any recurrence; a max_extent
    that is nan, infinite or below 1 raises ValueError.  A board that no
    squeeze fits in the packed fields, or at the signed 64-bit edge,
    raises CoordinateOverflowError at the generation it gets there.

    The report keeps the walk it was measured on, outside its value, so
    the census builds its table without walking the ship again.
    """
    if not p.cells:
        raise EmptyPatternError("cannot measure an empty pattern")
    if _checked_count(max_period, "max_period") < 1:
        raise ValueError("max_period must be at least 1")
    # Every comparison with nan is false, so nan is refused here too.
    if not 1 <= max_extent < math.inf:
        raise ValueError(f"max_extent must be finite and >= 1, not {max_extent!r}")
    board = Board(p, population_factor=population_factor)
    first, (x0, y0, x1, y1) = board.shape()
    phases = [translate(p, -x0, -y0)]
    walk = [(first, (0, 0, x1 - x0, y1 - y0))]
    for t in range(1, max_period + 1):
        board.step()
        if not board.population:
            return None
        shape, (min_x, min_y, max_x, max_y) = board.shape()
        if max_x - min_x + 1 > max_extent or max_y - min_y + 1 > max_extent:
            raise ExplosiveGrowthError(
                f"bounding box exceeds {max_extent} on a side "
                f"at generation {t} with no recurrence",
                t,
                board.population,
            )
        walk.append((shape, (min_x - x0, min_y - y0, max_x - x0, max_y - y0)))
        if shape == first:
            report = ShipReport(
                period=t,
                displacement=(min_x - x0, min_y - y0),
                phases=tuple(phases),
            )
            object.__setattr__(report, "_walk", (Board, tuple(walk)))
            return report
        phases.append(translate(board.pattern(), -min_x, -min_y))
    return None


@dataclass
class _PhaseEntry:
    """One canonical ship phase with its per-step anchor motion."""

    report: ShipReport
    extent: Cell
    step_offset: Cell
    next_shape: bytes


def _phase_entries(report: ShipReport) -> list[tuple[bytes, _PhaseEntry]]:
    """Each phase's shape and step, read off one full period's walk.

    The walk gives, from the engine itself, where each phase's corner
    moves on the next generation; the census needs that to follow one
    physical ship through consecutive generations.  It is the walk
    detect_ship measured the report on, with this engine's Board; a
    report without one, built by hand or by ``dataclasses.replace``, is
    walked here, and its period, displacement and phase order are
    checked against the walk.
    """
    made_by, walk = report._walk or (None, None)
    if made_by is not Board:
        board = Board(report.phases[0])
        walk = [board.shape()]
        for _ in range(report.period):
            board.step()
            walk.append(board.shape())
        last_shape, last_box = walk[-1]
        if last_shape != walk[0][0]:
            raise ValueError("catalog entry does not recur at its stated period")
        if last_box[:2] != report.displacement:
            raise ValueError("catalog entry does not move by its stated displacement")
        for phase, (shape, _) in zip(report.phases, walk):
            if shape != _cells_shape(phase):
                raise ValueError("catalog entry phases are out of order")
    out = []
    for i in range(len(report.phases)):
        (shape, (x0, y0, x1, y1)), (next_shape, (x, y, _, _)) = walk[i : i + 2]
        entry = _PhaseEntry(report, (x1 - x0, y1 - y0), (x - x0, y - y0), next_shape)
        out.append((shape, entry))
    return out


def _box(anchor: Cell, extent: Cell) -> Box:
    (x, y), (w, h) = anchor, extent
    return x, y, x + w, y + h


def _shifted(box: Box, v: Cell, k: int) -> Box:
    """box moved by k·v."""
    dx, dy = k * v[0], k * v[1]
    return box[0] + dx, box[1] + dy, box[2] + dx, box[3] + dy


def _union(a: Box | None, b: Box | None) -> Box | None:
    if a is None or b is None:
        return a or b
    return min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])


def _gap(a: Box, b: Box | None):
    """Chebyshev distance between two boxes: 0 when touching, inf from None."""
    if b is None:
        return math.inf
    return max(b[0] - a[2], a[0] - b[2], b[1] - a[3], a[1] - b[3], 0)


def _next(entry: _PhaseEntry, anchor: Cell) -> tuple[bytes, Cell]:
    """The sighting a ship in this phase at anchor makes a generation later."""
    (x, y), (dx, dy) = anchor, entry.step_offset
    return entry.next_shape, (x + dx, y + dy)


@dataclass
class _Track:
    """One physical ship being followed generation by generation."""

    first_generation: int
    first_anchor: Cell
    first_gap: int | None
    confirmed: bool = False


# Cells 3 apart (Chebyshev) share no neighbour, so parts of the board
# that far apart evolve on their own for the next generation.
_APART = MERGE_RADIUS + 1


@dataclass
class _Retired:
    """A confirmed ship off the board since generation.

    Its hull and velocity are in units of 1/scale cells, so that both
    are whole: its cells at generation t lie in hull + t·velocity, hull
    being the union over one period of its phase boxes less t·velocity.
    """

    generation: int
    scale: int
    velocity: Cell
    hull: Box


def _retired(key, generation: int, phases: dict, scale: int) -> _Retired:
    """The ship sighted at key = (shape, anchor), retired at generation."""
    report, hull = phases[key[0]].report, None
    v = tuple(d * scale // report.period for d in report.displacement)
    for t in range(generation, generation + report.period):
        entry = phases[key[0]]
        box = tuple(c * scale for c in _box(key[1], entry.extent))
        hull = _union(hull, _shifted(box, v, -t))
        key = _next(entry, key[1])
    return _Retired(generation, scale, v, hull)


def _alone(key: tuple[bytes, Cell], matched: dict, body: Box | None) -> bool:
    """Whether the matched body at key is _APART from the box of all other bodies."""
    ship, rest = _box(key[1], matched[key].extent), body
    for other, entry in matched.items():
        if other != key:
            rest = _union(rest, _box(other[1], entry.extent))
    return _gap(ship, rest) >= _APART


def _widens(a: Box, b: Box, w: Cell, u: Cell, apart: int) -> bool:
    """Whether a + k·w + τ·u is at least apart from b for every k >= 1, τ >= 0.

    The census's one separation test.  Each side's separation is affine
    in k and τ, so one that is at least apart at k = 1, τ = 0 and shrinks
    along neither w nor u stays so: a separating axis that only widens.
    """
    x0, y0, x1, y1 = _shifted(a, w, 1)
    sides = (x0 - b[2], 1, 0), (b[0] - x1, -1, 0), (y0 - b[3], 1, 1), (b[1] - y1, -1, 1)
    return any(g >= apart and min(d * w[i], d * u[i]) >= 0 for g, d, i in sides)


def _clear(o: _Retired, ship: _Retired, w: Cell = (0, 0)) -> bool:
    """Whether o from its retirement on, and each copy w on, stays _APART from ship.

    In ship's frame o drifts by u, the velocity difference.
    """
    u = o.velocity[0] - ship.velocity[0], o.velocity[1] - ship.velocity[1]
    hull = _shifted(o.hull, u, o.generation)
    return _widens(hull, ship.hull, w, u, _APART * ship.scale)


def _replay_keeps_apart(retired, boxes, backs, saved_at: int, move: Cell) -> bool:
    """Whether replaying whole periods keeps every retired ship off the board.

    boxes holds the board's box (or None) of each generation of the
    period from saved_at, and backs each ship put back since saved_at and
    when; one retired before the period and back in it refuses.  In a
    retired ship's frame, each later period moves on by w = move − period·v
    the board's boxes, the box each ship retired and back in the period
    swept, and each ship retired in the period and still off, which
    _clear follows; each needs a side that widens.
    """
    if any(o.generation < saved_at < t for o, t in backs):
        return False
    period = len(boxes)
    for ship in retired:
        (vx, vy), s = ship.velocity, ship.scale
        w = move[0] * s - period * vx, move[1] * s - period * vy
        hulls = [
            _shifted(tuple(c * s for c in box), ship.velocity, -t)
            for t, box in enumerate(boxes, saved_at)
            if box is not None
        ]
        for o, back in backs:
            if o.generation >= saved_at:
                u = o.velocity[0] - vx, o.velocity[1] - vy
                ends = _shifted(o.hull, u, o.generation), _shifted(o.hull, u, back)
                hulls.append(_union(*ends))
        if not all(_widens(h, ship.hull, w, (0, 0), _APART * s) for h in hulls):
            return False
        if not all(_clear(o, ship, w) for o in retired if o.generation >= saved_at):
            return False
    return True


def _census_state(board: Board, tracks: dict, generation: int) -> tuple[tuple, Cell]:
    """The census state modulo translation, and the box corner it is taken at.

    The board's shape and the tracks, anchors taken from the corner; a
    confirmed track is only its key, as it can change no output again.
    """
    shape, (cx, cy, _, _) = board.shape() if board.population else (None, (0,) * 4)
    rows = []
    for (s, (x, y)), t in tracks.items():
        row = (s, x - cx, y - cy)
        if not t.confirmed:
            fx, fy = t.first_anchor
            row += (generation - t.first_generation, fx - cx, fy - cy, t.first_gap)
        rows.append(row)
    return (shape, frozenset(rows)), (cx, cy)


def _moved(event: EmissionEvent, generations: int, dx: int, dy: int) -> EmissionEvent:
    """event born generations later and first sighted (dx, dy) away, unchecked."""
    (x, y), copy = event.first_sighting, object.__new__(EmissionEvent)
    born, at = event.birth_generation + generations, (x + dx, y + dy)
    vars(copy).update(vars(event), birth_generation=born, first_sighting=at)
    return copy


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

    The catalog's phases are looked up by shape in a table read off the
    walk each ship's report carries from detect_ship; a report built by
    hand is walked once first, and refused (ValueError) unless it recurs
    with its period, displacement and phases in order.

    Each generation's census state (the board's shape and its tracks,
    taken from the box corner) is compared with the last two saves of
    Brent's search, made at generations 2^k − 1.  Once it repeats one
    of them with period P and move m, each later generation confirms
    the events of P generations before, born P later and first sighted
    m away: those are replayed as unchecked copies and the stepping stops.
    The board's box of every generation and the ships put back are kept
    from the older save on, and the replay rule reads one whole period of boxes.

    Escaped ships leave the board, so the gun's census repeats too
    (period 30: its state saved at 15 is seen at 45, and the 23-gun
    battery's saved at 63 at 93).  Cells 3 apart share no neighbour, and
    ship hulls move linearly, so two boxes with a side 3 apart that
    never shrinks stay apart.  So it is exact: a confirmed ship 3 clear
    of all other bodies' box, with such a side to every retired ship's
    hull, is taken off and evolves alone; before each split, one within
    2 of the board's box goes back with its confirmed track, which can
    change no output meanwhile.  A replay needs no ship retired before
    the period back in it, and such a side from every retired ship's
    hull to the board's boxes of the period, the boxes swept by ships
    retired and back in it, and each ship retired in it and still off,
    moved on by whole periods, the last drifting as in a retirement
    (_clear).  A board that keeps growing still steps every generation.

    A board that no squeeze fits, or at the signed 64-bit edge, raises
    CoordinateOverflowError at the generation it gets there.
    """
    ships = [r for r in catalog if r.kind == "ship"]
    if not ships:
        raise ValueError("catalog holds no ships, so nothing can be confirmed")
    shortest = min(r.period for r in ships)
    if _checked_count(horizon, "horizon") < shortest:
        raise ValueError(
            f"horizon {horizon} is shorter than the shortest catalog "
            f"period {shortest}, so no sighting can be confirmed"
        )
    board = Board(p)

    # Every ship phase keyed by shape.
    phases: dict[bytes, _PhaseEntry] = {}
    for report in ships:
        for shape, entry in _phase_entries(report):
            old = phases.setdefault(shape, entry).report
            if (old.period, old.displacement) != (report.period, report.displacement):
                raise ValueError("two catalog ships share a phase shape")
    scale = math.lcm(*(r.period for r in ships))

    # Each event with the generation that confirmed it.
    confirmed: list[tuple[int, EmissionEvent]] = []
    # Live tracks keyed by the sighting each should make next.
    tracks: dict[tuple[bytes, Cell], _Track] = {}
    # Ships off the board, keyed like tracks; the board's box of each
    # generation and the ships put back, and when, since the older save.
    retired: dict[tuple[bytes, Cell], _Retired] = {}
    boxes: list[Box | None] = []
    backs: list[tuple[_Retired, int]] = []
    # Brent's cycle search: the last two saved census states, older
    # first, each with when it was saved and its population; a new one
    # is saved whenever the generations since the newer reach a power of
    # two, so at 0, 1, 3, 7 and so on.
    power = 1
    saves = [(0, board.population, _census_state(board, tracks, 0))]
    for generation in range(horizon + 1):
        box = board.box()
        boxes.append(box)
        for key in list(retired):
            if _gap(_box(key[1], phases[key[0]].extent), box) < _APART:
                board.put(*key)
                backs.append((retired.pop(key), generation))
                tracks[key] = _Track(generation, key[1], None, confirmed=True)
        retired = {_next(phases[s], a): ship for (s, a), ship in retired.items()}
        here = replay = None
        if generation > saves[-1][0] and board.population in {n for _, n, _ in saves}:
            here = state, (cx, cy) = _census_state(board, tracks, generation)
            for saved_at, _, (saved, (sx, sy)) in saves:
                span, move = boxes[saved_at - saves[0][0] : -1], (cx - sx, cy - sy)
                if state == saved and _replay_keeps_apart(
                    retired.values(), span, backs, saved_at, move
                ):
                    replay = saved_at, len(span), move
                    break
        if replay:
            saved_at, period, (mx, my) = replay
            cycle = [(t, e) for t, e in confirmed if t >= saved_at]
            for k in range(1, (horizon - saved_at) // period + 1 if cycle else 1):
                confirmed += [
                    (t + k * period, _moved(e, k * period, k * mx, k * my))
                    for t, e in cycle
                    if t + k * period <= horizon
                ]
            break
        if generation - saves[-1][0] == power:
            here = here or _census_state(board, tracks, generation)
            del boxes[: saves[-1][0] - saves[0][0]]
            saves = [saves[-1], (generation, board.population, here)]
            power *= 2
            backs = [(o, t) for o, t in backs if t >= saves[0][0]]
        matched, body = board.bodies(phases)
        following: dict[tuple[bytes, Cell], _Track] = {}
        for (shape, anchor), entry in matched.items():
            track = tracks.get((shape, anchor))
            if track is None:
                gap = None if body is None else _gap(_box(anchor, entry.extent), body)
                track = _Track(generation, anchor, gap)
            elif not track.confirmed:
                elapsed = generation - track.first_generation
                if elapsed % entry.report.period == 0 and (
                    body is None
                    or track.first_gap is None
                    or _gap(_box(anchor, entry.extent), body) > track.first_gap
                ):
                    track.confirmed = True
                    x0, y0 = track.first_anchor
                    event = EmissionEvent(
                        birth_generation=track.first_generation,
                        ship=entry.report,
                        ground_velocity=(
                            Fraction(anchor[0] - x0, elapsed),
                            Fraction(anchor[1] - y0, elapsed),
                        ),
                        first_sighting=track.first_anchor,
                    )
                    confirmed.append((generation, event))
            if track.confirmed and _alone((shape, anchor), matched, body):
                ship = _retired((shape, anchor), generation, phases, scale)
                if all(_clear(ship, o) for o in retired.values()):
                    board.take(shape, anchor)
                    retired[_next(entry, anchor)] = ship
                    continue
            following[_next(entry, anchor)] = track
        tracks = following

        if generation < horizon:
            board.step()

    events = [event for _, event in confirmed]
    events.sort(key=lambda e: (e.birth_generation, e.first_sighting))
    return events
