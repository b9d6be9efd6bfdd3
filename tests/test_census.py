"""The emission census against a plain-Python reference.

``census_reference`` steps with the Python ``step``, splits bodies by
breadth-first search and matches canonical cell sets, so it shares
nothing with the packed board's body split or the census's track
dictionary.  The census's recurrence jump is also checked against
the same census with its state search patched never to match.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census_reference
from lifeframes import detector
from lifeframes.catalog import (
    CATALOG,
    _ORIENTATIONS,
    catalog_pattern,
    gun_battery,
    ship_catalog,
)
from lifeframes.detector import _Track, detect_emissions
from lifeframes.engine import Board, Pattern, translate

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


def unjumped(p, horizon, ships):
    """The census with its state search never matching, so it steps to the end."""

    def never_equal(board, tracks, generation):
        return object(), (0, 0)

    with mock.patch.object(detector, "_census_state", never_equal):
        return detect_emissions(p, horizon, ships)


def splits(p, horizon, ships):
    """The census and the number of body splits it made."""
    spy = mock.patch.object(Board, "bodies", autospec=True, side_effect=Board.bodies)
    with spy as bodies:
        events = detect_emissions(p, horizon, ships)
    return events, bodies.call_count


class TestRecurrenceJump:
    """A census whose state repeats replays its remaining events exactly."""

    @given(scenes(), st.integers(4, 400))
    @settings(max_examples=80, deadline=None)
    def test_random_scenes(self, ships, scene, horizon):
        assert detect_emissions(scene, horizon, ships) == (
            unjumped(scene, horizon, ships)
        )

    @pytest.mark.parametrize("units", [1, 2])
    def test_battery_at_every_horizon_around_the_jump(self, ships, units):
        battery = gun_battery(units)
        for horizon in [*range(85, 131), 400]:
            assert detect_emissions(battery, horizon, ships) == (
                unjumped(battery, horizon, ships)
            ), horizon
        assert detect_emissions(battery, 130, ships) == (
            census_reference.detect_emissions(battery, 130, ships)
        )

    def test_battery_settles_from_generation_fifty_nine(self, ships):
        # Period 30 from generation 59: the state saved at 63 is seen
        # again at 93, so generations 0-92 are split, whatever the horizon.
        assert splits(gun_battery(23), 300, ships) == ([], 93)
        assert splits(gun_battery(23), 10**6, ships) == ([], 93)

    def test_gun_never_settles(self, ships):
        events, count = splits(catalog_pattern("gosper_gun"), 300, ships)
        assert (len(events), count) == (9, 301)

    def test_replayed_events_repeat_each_period(self, ships):
        # Two mirrored guns whose gliders meet and vanish: two gliders
        # are confirmed every 30 generations and the board never grows.
        gun = catalog_pattern("gosper_gun").cells
        right = max(x for x, _ in gun) + 37
        guns = Pattern(gun | frozenset((right - x, y) for x, y in gun))
        events, count = splits(guns, 1000, ships)
        assert count == 123
        assert events == unjumped(guns, 1000, ships)
        # Pairs are confirmed at generations 160 and 182, after the jump.
        for horizon in (159, 160, 181, 182):
            assert detect_emissions(guns, horizon, ships) == (
                unjumped(guns, horizon, ships)
            ), horizon
        assert [e.birth_generation for e in events] == sorted(
            list(range(28, 1000, 30)) * 2
        )
        assert detect_emissions(guns, 200, ships) == (
            census_reference.detect_emissions(guns, 200, ships)
        )

    def test_state_holds_what_later_events_read(self):
        glider = catalog_pattern("glider")

        def state(p, track, generation, key=(b"s", (5, 6))):
            board = Board(p, 0, margin=2)
            return detector._census_state(board, {key: track}, generation)

        base, corner = state(glider, _Track(3, (1, 2), 4), 10)
        assert corner == (0, 0)
        for other in [
            state(glider, _Track(3, (1, 2), 4), 11),
            state(glider, _Track(3, (2, 2), 4), 10),
            state(glider, _Track(3, (1, 2), None), 10),
            state(glider, _Track(3, (1, 2), 4), 10, (b"s", (5, 7))),
            state(glider, _Track(3, (1, 2), 4, confirmed=True), 10),
            state(catalog_pattern("block"), _Track(3, (1, 2), 4), 10),
        ]:
            assert other[0] != base
        track, key = _Track(3, (8, -1), 4), (b"s", (12, 3))
        moved = state(translate(glider, 7, -3), track, 10, key)
        assert moved == (base, (7, -3))
        done = state(glider, _Track(3, (1, 2), 4, confirmed=True), 10)
        assert state(glider, _Track(0, (9, 9), None, confirmed=True), 20) == done
