from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_reference import clusters
from lifeframes.catalog import catalog_pattern, ship_catalog
from lifeframes.detector import (
    EmissionEvent,
    ExplosiveGrowthError,
    ShipReport,
    _component_labels,
    detect_emissions,
    detect_ship,
)
from lifeframes.engine import (
    CoordinateOverflowError,
    EmptyPatternError,
    Pattern,
    _pack,
    _packed_origin,
    _unpack,
    step_n,
    translate,
)

R_PENTOMINO = Pattern(frozenset({(1, 0), (2, 0), (0, 1), (1, 1), (1, 2)}))


@pytest.fixture(scope="module")
def ships():
    return ship_catalog()


class TestDetectShip:
    def test_glider_report(self):
        report = detect_ship(catalog_pattern("glider"))
        assert report is not None
        assert report.period == 4
        assert report.displacement == (1, 1)
        assert report.velocity == (F(1, 4), F(1, 4))
        assert report.speed == F(1, 4)
        assert report.kind == "ship"
        assert len(report.phases) == 4
        assert report.phases[0].cells == frozenset(
            {(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}
        )

    def test_report_is_phase_independent(self):
        base = detect_ship(catalog_pattern("glider"))
        for k in range(1, 4):
            shifted = detect_ship(step_n(catalog_pattern("glider"), k))
            assert shifted.period == base.period
            assert shifted.speed == base.speed
            assert {p.cells for p in shifted.phases} == {
                p.cells for p in base.phases
            }

    def test_lwss_travels_west(self):
        report = detect_ship(catalog_pattern("lwss"))
        assert report.period == 4
        assert report.displacement == (-2, 0)
        assert report.velocity == (F(-1, 2), F(0))
        assert report.speed == F(1, 2)

    def test_still_lifes(self):
        for name in ("block", "eater1"):
            report = detect_ship(catalog_pattern(name))
            assert report.period == 1
            assert report.displacement == (0, 0)
            assert report.kind == "still-life"

    def test_blinker_oscillates(self):
        report = detect_ship(catalog_pattern("blinker"))
        assert report.period == 2
        assert report.speed == 0
        assert report.kind == "oscillator"

    def test_methuselah_has_no_short_period(self):
        assert detect_ship(R_PENTOMINO, max_period=8) is None

    def test_population_blowup_is_reported(self):
        with pytest.raises(ExplosiveGrowthError) as info:
            detect_ship(R_PENTOMINO, max_period=512, population_factor=2.0)
        assert info.value.population > 2 * len(R_PENTOMINO)
        assert info.value.generation > 0

    def test_extent_bound(self):
        with pytest.raises(ExplosiveGrowthError):
            detect_ship(catalog_pattern("glider"), max_extent=2)

    def test_empty_pattern(self):
        with pytest.raises(EmptyPatternError):
            detect_ship(Pattern(frozenset()))

    def test_period_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_ship(catalog_pattern("glider"), max_period=0)

    def test_dying_pattern_reports_nothing(self):
        lonely = Pattern(frozenset({(0, 0), (5, 5)}))
        assert detect_ship(lonely) is None


# Offsets at Chebyshev distance exactly 2 (still merged) and 3 (apart).
MERGE_EDGE_OFFSETS = [
    (dx, dy)
    for dx in range(-3, 4)
    for dy in range(-3, 4)
    if max(abs(dx), abs(dy)) in (2, 3)
]


@st.composite
def merge_edge_cells(draw):
    """Random cells around the origin plus pairs at distance 2 or 3."""
    coord = st.integers(-20, 20)
    loose = draw(st.frozensets(st.tuples(coord, coord), min_size=1, max_size=40))
    pairs = draw(
        st.lists(st.tuples(coord, coord, st.sampled_from(MERGE_EDGE_OFFSETS)), max_size=12)
    )
    return (
        loose
        | {(x, y) for x, y, _ in pairs}
        | {(x + dx, y + dy) for x, y, (dx, dy) in pairs}
    )


class TestComponentLabels:
    @given(merge_edge_cells())
    @settings(max_examples=200)
    def test_partition_matches_the_reference(self, cells):
        origin = _packed_origin(Pattern(cells), 2)
        keys = _pack(cells, origin)
        labels = _component_labels(keys)
        bodies = {
            _unpack(keys[labels == label], origin) for label in set(labels.tolist())
        }
        assert bodies == set(clusters(cells))
        for label in set(labels.tolist()):
            assert label == (labels == label).argmax()

    def test_pair_at_distance_two_merges_and_three_does_not(self):
        for gap, count in ((2, 1), (3, 2)):
            for dy in range(-gap, gap + 1):
                cells = frozenset({(0, 0), (gap, dy)})
                keys = _pack(cells, _packed_origin(Pattern(cells), 2))
                assert len(set(_component_labels(keys).tolist())) == count


class TestEmissionEvent:
    def test_ground_velocity_is_light_bounded(self):
        ship = detect_ship(catalog_pattern("glider"))
        with pytest.raises(ValueError):
            EmissionEvent(
                birth_generation=0,
                ship=ship,
                ground_velocity=(F(2), F(0)),
                first_sighting=(0, 0),
            )


class TestDetectEmissions:
    def test_gun_census_over_three_hundred_generations(self, ships):
        events = detect_emissions(catalog_pattern("gosper_gun"), 300, ships)
        assert len(events) == 9
        assert [e.birth_generation for e in events] == [
            28 + 30 * k for k in range(9)
        ]
        for event in events:
            assert event.ground_velocity == (F(1, 4), F(1, 4))
            assert event.first_sighting == (22, 9)
            assert event.ship.kind == "ship"
            assert event.ship.speed == F(1, 4)

    def test_each_glider_reported_exactly_once(self, ships):
        short = detect_emissions(catalog_pattern("gosper_gun"), 120, ships)
        long = detect_emissions(catalog_pattern("gosper_gun"), 300, ships)
        assert [e.birth_generation for e in short] == [
            e.birth_generation for e in long[: len(short)]
        ]

    def test_lone_glider_is_its_own_emission(self, ships):
        events = detect_emissions(catalog_pattern("glider"), 20, ships)
        assert len(events) == 1
        event = events[0]
        assert event.birth_generation == 0
        assert event.ground_velocity == (F(1, 4), F(1, 4))
        assert event.first_sighting == (0, 0)

    def test_one_period_horizon_suffices_for_a_lone_ship(self, ships):
        events = detect_emissions(catalog_pattern("glider"), 4, ships)
        assert len(events) == 1

    def test_lone_lwss(self, ships):
        events = detect_emissions(catalog_pattern("lwss"), 20, ships)
        assert len(events) == 1
        assert events[0].ground_velocity == (F(-1, 2), F(0))

    def test_still_life_emits_nothing(self, ships):
        assert detect_emissions(catalog_pattern("block"), 40, ships) == []

    def test_approaching_ship_is_not_an_escape(self, ships):
        glider = catalog_pattern("glider")
        wall = {(x + 20, y + 20) for (x, y) in catalog_pattern("block").cells}
        scene = Pattern(frozenset(glider.cells | wall))
        assert detect_emissions(scene, 12, ships) == []

    def test_census_holds_extent_plus_twice_horizon_plus_merge_slack(self, ships):
        glider = catalog_pattern("glider")
        horizon = 8
        # The packed fields hold 2**31 cells a side: the board's extent
        # plus 2 x (horizon + merge radius 2).
        fits = 2**31 - 2 * (horizon + 2) - 3
        scene = Pattern(glider.cells | translate(glider, fits, 0).cells)
        events = detect_emissions(scene, horizon, ships)
        assert [e.first_sighting for e in events] == [(0, 0), (fits, 0)]

        wide = Pattern(glider.cells | translate(glider, fits + 1, 0).cells)
        with pytest.raises(CoordinateOverflowError, match="packed fields"):
            detect_emissions(wide, horizon, ships)

    def test_horizon_shorter_than_any_period(self, ships):
        with pytest.raises(ValueError, match="shorter"):
            detect_emissions(catalog_pattern("gosper_gun"), 3, ships)

    def test_catalog_without_ships(self):
        block = detect_ship(catalog_pattern("block"))
        with pytest.raises(ValueError, match="no ships"):
            detect_emissions(catalog_pattern("gosper_gun"), 300, [block])
