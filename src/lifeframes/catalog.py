"""Built-in pattern library with verified kinematics.

Every entry embeds its RLE so nothing depends on external files.  The
expected summaries are measurements, re-taken by the verify command,
never trusted inputs.  The ship catalog used by the emission census is
expanded here into all plane orientations, each one re-measured by the
detector rather than transformed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detector import ShipReport, detect_ship
from .engine import Cell, Pattern, _checked_count, canonicalize
from .patterns import parse_rle

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "entry",
    "catalog_pattern",
    "ship_catalog",
    "named_ship_catalog",
    "gun_battery",
]


@dataclass(frozen=True)
class CatalogEntry:
    """A named pattern with an optional measured (period, shift)."""

    name: str
    rle: str
    expected: tuple[int, tuple[int, int]] | None


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "glider",
        "x = 3, y = 3, rule = B3/S23\nbob$2bo$3o!\n",
        (4, (1, 1)),
    ),
    CatalogEntry(
        "block",
        "x = 2, y = 2, rule = B3/S23\n2o$2o!\n",
        (1, (0, 0)),
    ),
    CatalogEntry(
        "blinker",
        "x = 3, y = 1, rule = B3/S23\n3o!\n",
        (2, (0, 0)),
    ),
    CatalogEntry(
        "lwss",
        "x = 5, y = 4, rule = B3/S23\nbo2bo$o$o3bo$4o!\n",
        (4, (-2, 0)),
    ),
    CatalogEntry(
        "eater1",
        "x = 4, y = 4, rule = B3/S23\n2o$obo$2bo$2b2o!\n",
        (1, (0, 0)),
    ),
    CatalogEntry(
        "gosper_gun",
        "x = 36, y = 9, rule = B3/S23\n"
        "24bo$22bobo$12b2o6b2o12b2o$11bo3bo4b2o12b2o$2o8bo5bo3b2o$2o8bo3bob2o"
        "4bobo$10bo5bo7bo$11bo3bo$12b2o!\n",
        None,
    ),
)


def entry(name: str) -> CatalogEntry:
    for e in CATALOG:
        if e.name == name:
            return e
    known = ", ".join(e.name for e in CATALOG)
    raise KeyError(f"no catalog entry {name!r} (have: {known})")


def catalog_pattern(name: str) -> Pattern:
    return parse_rle(entry(name).rle).to_pattern()


# The eight plane symmetries as integer matrices (x, y) -> (ax+by, cx+dy).
_ORIENTATIONS = (
    (1, 0, 0, 1),
    (0, -1, 1, 0),
    (-1, 0, 0, -1),
    (0, 1, -1, 0),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, -1, 0),
)


def _transform(cells: frozenset[Cell], m: tuple[int, int, int, int]) -> frozenset[Cell]:
    a, b, c, d = m
    return frozenset((a * x + b * y, c * x + d * y) for x, y in cells)


def named_ship_catalog(max_period: int = 16) -> list[tuple[str, ShipReport]]:
    """All orientations of every catalog ship, each freshly measured.

    Symmetric orientations collapse to one report; the glider keeps
    four headings, so the census can recognize a ship whichever way
    it flies.  An orientation that is already a phase of a kept report
    would measure that report's phases again, so it is not measured.
    """
    out: list[tuple[str, ShipReport]] = []
    seen: set[frozenset[Cell]] = set()  # every phase of the kept reports
    for e in CATALOG:
        base = parse_rle(e.rle).to_pattern()
        base_report = detect_ship(base, max_period)
        if base_report is None or base_report.kind != "ship":
            continue
        for m in _ORIENTATIONS:
            turned = canonicalize(Pattern(_transform(base.cells, m)))[0]
            if turned.cells in seen:
                continue
            identity = m == _ORIENTATIONS[0]
            report = base_report if identity else detect_ship(turned, max_period)
            if report is None:
                raise RuntimeError(f"orientation of {e.name} failed to recur")
            seen.update(ph.cells for ph in report.phases)
            out.append((e.name, report))
    return out


def ship_catalog(max_period: int = 16) -> list[ShipReport]:
    return [report for _, report in named_ship_catalog(max_period)]


# Offset of the eater relative to the gun that parks it on the glider
# lane; the pairing keeps the unit's population bounded forever.
_EATER_OFFSET = (40, 26)
_UNIT_SPACING = 60


def gun_unit() -> Pattern:
    """One gun feeding its glider stream into an absorbing eater."""
    gun = catalog_pattern("gosper_gun").cells
    ex, ey = _EATER_OFFSET
    eater = {(x + ex, y + ey) for x, y in catalog_pattern("eater1").cells}
    return Pattern(frozenset(gun | eater))


def gun_battery(units: int = 23) -> Pattern:
    """A stack of absorbing gun units with bounded total population.

    Units are spaced far enough apart that no unit ever feeds another,
    so the battery's population oscillates around units times the
    single-unit average instead of growing.  The default stack starts
    at 989 cells and settles near 1500.
    """
    units = _checked_count(units, "units")
    if units < 1:
        raise ValueError("a battery needs at least one unit")
    unit = gun_unit().cells
    cells: set[Cell] = set()
    for i in range(units):
        shift = i * _UNIT_SPACING
        cells.update((x, y + shift) for x, y in unit)
    return Pattern(frozenset(cells))
