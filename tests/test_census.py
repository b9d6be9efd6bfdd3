"""The emission census against a plain-Python reference.

``census_reference`` steps with the Python ``step``, splits bodies by
breadth-first search and matches canonical cell sets, so it shares
nothing with the packed board's body split or the census's track
dictionary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census_reference
from lifeframes.catalog import CATALOG, _ORIENTATIONS, catalog_pattern, ship_catalog
from lifeframes.detector import detect_emissions
from lifeframes.engine import Pattern

PIECES = [catalog_pattern(e.name).cells for e in CATALOG]


@pytest.fixture(scope="module")
def ships():
    return ship_catalog()


@st.composite
def scenes(draw):
    """1-4 catalog pieces in any orientation plus loose cells, shifted far.

    The shift of up to 2**40 a side moves every box corner far from
    the origin, so absolute coordinates are exercised.
    """
    offset = st.integers(-40, 40)
    cells = set()
    for _ in range(draw(st.integers(1, 4))):
        a, b, c, d = draw(st.sampled_from(_ORIENTATIONS))
        dx, dy = draw(offset), draw(offset)
        piece = draw(st.sampled_from(PIECES))
        cells |= {(a * x + b * y + dx, c * x + d * y + dy) for x, y in piece}
    cells |= draw(st.frozensets(st.tuples(offset, offset), max_size=12))
    shift = st.integers(-(2**40), 2**40)
    sx, sy = draw(shift), draw(shift)
    return Pattern(frozenset((x + sx, y + sy) for x, y in cells))


class TestCensusAgainstReference:
    @given(scenes(), st.integers(4, 60))
    @settings(max_examples=150, deadline=None)
    def test_random_scenes(self, ships, scene, horizon):
        assert detect_emissions(scene, horizon, ships) == (
            census_reference.detect_emissions(scene, horizon, ships)
        )

    def test_gun_over_three_hundred_generations(self, ships):
        gun = catalog_pattern("gosper_gun")
        events = detect_emissions(gun, 300, ships)
        assert len(events) == 9
        assert events == census_reference.detect_emissions(gun, 300, ships)
