"""Ship detection by plain stepping, used only as a cross-check.

Shares no stepping with the detector's packed board: it advances the
pattern with the Python ``step``, puts each generation in canonical
form with ``canonicalize`` and compares cell sets.  The guards are the
detector's, checked in the same order each generation: population,
then bounding box.
"""

from __future__ import annotations

from lifeframes.detector import (
    DEFAULT_MAX_EXTENT,
    DEFAULT_POPULATION_FACTOR,
    ExplosiveGrowthError,
    ShipReport,
)
from lifeframes.engine import (
    EmptyPatternError,
    Pattern,
    bounding_box,
    canonicalize,
    population,
    step,
)


def detect_ship(
    p: Pattern,
    max_period: int = 64,
    population_factor: float = DEFAULT_POPULATION_FACTOR,
    max_extent: int = DEFAULT_MAX_EXTENT,
) -> ShipReport | None:
    """Smallest period at which p recurs modulo translation, or None."""
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
