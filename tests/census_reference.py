"""The emission census in plain Python, used only as a cross-check.

Shares nothing with the packed board's body split: each generation is
stepped with the Python ``step``, split into bodies by
``cluster_reference.clusters`` and matched against the catalog by
canonical cell sets.  A phase's step offset and successor come from
stepping the phase itself.  Tracks are a list; each follows its ship to
the predicted next sighting, and a ship is confirmed when, a whole
number of periods after its first sighting, it is strictly farther
from the union box of the unmatched bodies than it was then.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cluster_reference import clusters
from lifeframes.detector import EmissionEvent, ShipReport
from lifeframes.engine import Pattern, bounding_box, canonicalize, step

Cell = tuple[int, int]
Box = tuple[int, int, int, int]


@dataclass
class _Phase:
    report: ShipReport
    extent: Cell
    step_offset: Cell
    next_cells: frozenset[Cell]


@dataclass
class _Track:
    phase: _Phase
    anchor: Cell
    first_generation: int
    first_anchor: Cell
    first_gap: int | None
    confirmed: bool = False


def _box_gap(a: Box, b: Box) -> int:
    gap_x = max(a[0] - b[2], b[0] - a[2], 0)
    gap_y = max(a[1] - b[3], b[1] - a[3], 0)
    return max(gap_x, gap_y)


def _phase_box(phase: _Phase, anchor: Cell) -> Box:
    w, h = phase.extent
    return anchor[0], anchor[1], anchor[0] + w, anchor[1] + h


def _phase_table(catalog: list[ShipReport]) -> dict[frozenset[Cell], _Phase]:
    """Every canonical ship phase; the first ship to list a shape keeps it."""
    table: dict[frozenset[Cell], _Phase] = {}
    for report in catalog:
        if report.kind != "ship":
            continue
        for phase in report.phases:
            canon, _ = canonicalize(phase)
            _, _, max_x, max_y = bounding_box(canon)
            after, offset = canonicalize(step(canon))
            table.setdefault(
                canon.cells, _Phase(report, (max_x, max_y), offset, after.cells)
            )
    return table


def detect_emissions(
    p: Pattern, horizon: int, catalog: list[ShipReport]
) -> list[EmissionEvent]:
    table = _phase_table(catalog)
    events: list[EmissionEvent] = []
    tracks: list[_Track] = []
    q = p
    for generation in range(horizon + 1):
        matched: dict[tuple[frozenset[Cell], Cell], _Phase] = {}
        others: list[Box] = []
        for body in clusters(q.cells):
            canon, anchor = canonicalize(Pattern(body))
            phase = table.get(canon.cells)
            if phase is None:
                others.append(bounding_box(Pattern(body)))
            else:
                matched[(canon.cells, anchor)] = phase
        union = None
        if others:
            union = (
                min(b[0] for b in others),
                min(b[1] for b in others),
                max(b[2] for b in others),
                max(b[3] for b in others),
            )

        surviving: list[_Track] = []
        for track in tracks:
            dx, dy = track.phase.step_offset
            anchor = (track.anchor[0] + dx, track.anchor[1] + dy)
            phase = matched.pop((track.phase.next_cells, anchor), None)
            if phase is None:
                continue
            track.phase, track.anchor = phase, anchor
            surviving.append(track)
            elapsed = generation - track.first_generation
            if track.confirmed or elapsed % phase.report.period:
                continue
            if union is not None and track.first_gap is not None:
                if _box_gap(_phase_box(phase, anchor), union) <= track.first_gap:
                    continue
            track.confirmed = True
            events.append(
                EmissionEvent(
                    birth_generation=track.first_generation,
                    ship=phase.report,
                    ground_velocity=(
                        Fraction(anchor[0] - track.first_anchor[0], elapsed),
                        Fraction(anchor[1] - track.first_anchor[1], elapsed),
                    ),
                    first_sighting=track.first_anchor,
                )
            )
        tracks = surviving

        for (_, anchor), phase in matched.items():
            gap = None
            if union is not None:
                gap = _box_gap(_phase_box(phase, anchor), union)
            tracks.append(_Track(phase, anchor, generation, anchor, gap))

        if generation < horizon:
            q = step(q)

    events.sort(key=lambda e: (e.birth_generation, e.first_sighting))
    return events
