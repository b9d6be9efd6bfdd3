from dataclasses import fields, replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import census_reference
from cluster_reference import clusters
from test_board import SMALL_DETECTOR, SMALL_FIELDS
from test_engine import crowded_cells
from lifeframes.catalog import catalog_pattern, gun_battery, named_ship_catalog, ship_catalog
from lifeframes.detector import (
    EmissionEvent,
    ExplosiveGrowthError,
    ShipReport,
    _phase_entries,
    _phase_steps,
    detect_emissions,
    detect_ship,
)
from lifeframes.engine import (
    Board,
    EmptyPatternError,
    Pattern,
    _component_labels,
    _neighbor_sort,
    _pack,
    _unpack,
    bounding_box,
    step,
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
    """Random cells around the origin plus pairs at distance 2 or 3.

    The loose cells are sparse, or up to 144 cells crowded into a 12 x 12
    square, where one neighbor cell is shared by 3 to 8 live cells.
    """
    coord = st.integers(-20, 20)
    loose = draw(
        st.one_of(
            st.frozensets(st.tuples(coord, coord), min_size=1, max_size=40),
            crowded_cells(12).filter(bool),
        )
    )
    pairs = draw(
        st.lists(st.tuples(coord, coord, st.sampled_from(MERGE_EDGE_OFFSETS)), max_size=12)
    )
    return (
        loose
        | {(x, y) for x, y, _ in pairs}
        | {(x + dx, y + dy) for x, y, (dx, dy) in pairs}
    )


def _origin(cells):
    """An origin that packs cells and their neighbors without carry."""
    x0, y0, _, _ = bounding_box(Pattern(cells))
    return x0 - 1, y0 - 1


class TestComponentLabels:
    @given(merge_edge_cells())
    @example(step_n(gun_battery(23), 60).cells)
    @example(step_n(catalog_pattern("gosper_gun"), 2000).cells)
    @example(frozenset({(0, 0)}))
    @example(frozenset((3 * i, 3 * j) for i in range(3) for j in range(3)))  # none join
    @settings(max_examples=200, deadline=None)
    def test_partition_matches_the_reference(self, cells):
        origin = _origin(cells)
        keys = _pack(cells, origin)
        labels = _component_labels(keys, _neighbor_sort(keys))
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
                keys = _pack(cells, _origin(cells))
                labels = _component_labels(keys, _neighbor_sort(keys))
                assert len(set(labels.tolist())) == count


def looked_up(bodies, table):
    """Board.bodies' result from reference bodies: each body whose size some
    listed shape has is looked up by its shape, the rest make the union box."""
    sizes, matched, rest = {len(shape) // 8 for shape in table}, {}, None
    for body in bodies:
        shape, box = Board(Pattern(body)).shape()
        if len(body) in sizes and shape in table:
            matched[(shape, box[:2])] = table[shape]
        elif rest is None:
            rest = box
        else:
            rest = (*map(min, rest[:2], box[:2]), *map(max, rest[2:], box[2:]))
    return matched, rest


SMALL = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1)


class TestBodyLookup:
    """Board.bodies picks and looks up the bodies of every listed size in one pass."""

    @given(merge_edge_cells(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_per_size_lookup(self, cells, data):
        # Each table lists some of the board's own bodies and up to four
        # small shapes, which may be of sizes the board lacks; the board
        # keeps its sizes per table, so a second table is looked up too.
        sx, sy = data.draw(st.tuples(*[st.integers(-(2**40), 2**40)] * 2))
        cells = frozenset((x + sx, y + sy) for x, y in cells)
        bodies = sorted(clusters(cells), key=sorted)
        board = Board(Pattern(cells))
        for _ in range(2):
            flags = st.lists(st.booleans(), min_size=len(bodies), max_size=len(bodies))
            listed = data.draw(flags)
            extra = data.draw(st.lists(SMALL, max_size=4))
            table = {Board(Pattern(e)).shape()[0]: -1 - i for i, e in enumerate(extra)}
            for i, body in enumerate(bodies):
                if listed[i]:
                    table[Board(Pattern(body)).shape()[0]] = i
            assert board.bodies(table) == looked_up(bodies, table)

    def test_sizes_absent_larger_bodies_and_no_match(self):
        ships = [r for r in ship_catalog() if r.kind == "ship"]
        phases = {Board(ph).shape()[0]: r for r in ships for ph in r.phases}
        listed = {len(ph) for r in ships for ph in r.phases}
        beehive = frozenset({(1, 0), (2, 0), (0, 1), (3, 1), (1, 2), (2, 2)})
        tables = [phases, {}, {Board(Pattern(beehive)).shape()[0]: 1}]
        # Blocks are smaller than any ship phase and the shuttles larger.
        gun = step_n(catalog_pattern("gosper_gun"), 100)
        for p in [gun, step_n(gun_battery(3), 60)]:
            bodies = clusters(p.cells)
            sizes = sorted(map(len, bodies))
            assert sizes[0] < min(listed) < max(listed) < sizes[-1]
            for table in tables:
                assert Board(p).bodies(table) == looked_up(bodies, table)
        assert Board(gun).bodies(tables[2]) == ({}, bounding_box(gun))


def test_a_shape_without_a_board_fits_the_fields_as_a_board_does():
    gaps = 2**31 - 3, 2**31 - 2, 2**31 - 1
    fits, wide, wider = [Pattern(frozenset({(0, 0), (gap, 1)})) for gap in gaps]
    assert Board(fits).shape()[0] == _pack(fits.cells, (0, 0)).tobytes()
    # A box too wide for the fields is squeezed alike wherever it lies,
    # and its band's width tells it from one a cell wider.
    squeezed = [Board(p).shape()[0] for p in (wide, translate(wide, -5, 2**40), wider)]
    assert squeezed[0] == squeezed[1] != squeezed[2]
    # A wide ship's phases are such shapes, in the census's table of its
    # report and of an equal one.
    glider = catalog_pattern("glider")
    pair = Pattern(glider.cells | translate(glider, 2**31, 0).cells)
    report = detect_ship(pair, max_extent=2**32)
    for walked in (report, replace(report)):
        assert [Board(ph).shape()[0] for ph in report.phases] == [
            shape for shape, _ in _phase_entries(walked)
        ]
    # A box that no squeeze fits is refused.
    row = SMALL_FIELDS.Pattern(frozenset((4 * k, 0) for k in range(300)))
    with pytest.raises(SMALL_FIELDS.CoordinateOverflowError, match="fills the"):
        SMALL_FIELDS.Board(row)


def _carried_walks():
    """Every catalog ship, each also measured away from the origin, and
    two gliders 2**31 apart, a squeezed walk."""
    named = [(f"{name} {i}", r) for i, (name, r) in enumerate(named_ship_catalog())]
    moved = [(f"{name} moved", detect_ship(translate(r.phases[0], 100, -7))) for name, r in named]
    glider = catalog_pattern("glider")
    pair = Pattern(translate(glider, 5, -3).cells | translate(glider, 5 + 2**31, -3).cells)
    return named + moved + [("glider pair 2**31 apart", detect_ship(pair, max_extent=2**32))]


CARRIED = _carried_walks()


class TestCarriedWalk:
    """The census's ship table is one checked walk of a report, cached by
    the report's value; each entry holds the report it was asked for."""

    @staticmethod
    def _table(report):
        table = _phase_entries(report)
        assert all(e.report is report for _, e in table)
        return [
            (shape, e.report, e.extent, e.step_offset, e.next_shape)
            for shape, e in table
        ]

    @pytest.mark.parametrize("name, report", CARRIED, ids=[n for n, _ in CARRIED])
    def test_the_table_equals_the_one_a_fresh_walk_makes(self, name, report):
        twin = replace(report)
        by_hand = ShipReport(report.period, report.displacement, report.phases)
        assert self._table(report) == self._table(twin) == self._table(by_hand)
        fresh = _phase_steps.__wrapped__(by_hand)
        assert [(s, report, *steps) for s, *steps in fresh] == self._table(report)
        assert len(fresh) == report.period

    def test_a_walk_from_another_engine_is_walked_again(self):
        # A report measured on 1 024-cell fields is of that engine's
        # ShipReport class, so it never shares a cache entry with this
        # engine's equal report, and each engine walks it with its Board.
        glider = SMALL_DETECTOR.detect_ship(catalog_pattern("glider"))
        ours = detect_ship(catalog_pattern("glider"))
        assert glider != ours
        assert self._table(glider) == self._table(replace(glider))
        assert [row[2:] for row in self._table(glider)] == [
            row[2:] for row in self._table(ours)
        ]
        assert SMALL_DETECTOR._phase_entries(glider)[0][0] != _phase_entries(glider)[0][0]

    @pytest.mark.parametrize("name, report", CARRIED, ids=[n for n, _ in CARRIED])
    def test_the_walk_is_no_part_of_the_value(self, name, report):
        twin = replace(report)
        assert twin == report and hash(twin) == hash(report)
        assert repr(twin) == repr(report)
        assert [f.name for f in fields(report)] == ["period", "displacement", "phases"]
        by_hand = ShipReport(report.period, report.displacement, report.phases)
        assert by_hand == report and vars(by_hand) == vars(report)

    def test_a_census_steps_only_its_own_board(self, monkeypatch):
        # The first census walks the catalog; the second finds every
        # walk cached.
        _phase_steps.cache_clear()
        gun, ships = catalog_pattern("gosper_gun"), ship_catalog()
        assert len(detect_emissions(gun, 300, ship_catalog())) == 9
        built, stepped = [], set()
        init, step = Board.__init__, Board.step

        def spy_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def spy_step(self, *args):
            stepped.add(id(self))
            step(self, *args)

        monkeypatch.setattr(Board, "__init__", spy_init)
        monkeypatch.setattr(Board, "step", spy_step)
        events = detect_emissions(gun, 300, ships)
        assert len(events) == 9
        assert len(built) == 1 and stepped == {id(built[0])}

    def test_events_hold_the_catalogs_own_reports(self):
        # An equal catalog built afresh hits the cache, yet its census
        # names its own reports, not those the cache was filled from.
        gun = catalog_pattern("gosper_gun")
        first, second = ship_catalog(), ship_catalog()
        assert first == second
        events = detect_emissions(gun, 300, first)
        again = detect_emissions(gun, 300, second)
        assert again == events and len(again) == 9
        assert all(any(e.ship is r for r in second) for e in again)
        assert not any(e.ship is r for e in again for r in first)

    def test_a_refusal_is_not_cached(self):
        glider = detect_ship(catalog_pattern("glider"))
        wrong = replace(glider, displacement=(1, -1))
        for _ in range(2):
            with pytest.raises(ValueError, match="does not move by"):
                detect_emissions(catalog_pattern("glider"), 20, [glider, wrong])

    @pytest.mark.parametrize("field", ["phases", "displacement"])
    def test_an_unhashable_report_is_refused(self, field):
        # The table is cached by the report's value, so a report needs one.
        glider = detect_ship(catalog_pattern("glider"))
        entry = replace(glider, **{field: list(getattr(glider, field))})
        with pytest.raises(TypeError, match="unhashable"):
            detect_emissions(catalog_pattern("glider"), 20, [glider, entry])


def _far_gliders():
    glider = catalog_pattern("glider")
    return Pattern(glider.cells | translate(glider, 2**31, 0).cells)


@pytest.mark.parametrize(
    "kind, p, ship",
    [
        (kind, catalog_pattern(name), name == "glider")
        for name in ("glider", "gosper_gun")
        for kind in (int, np.int32, np.int64)
    ]
    # int32 cannot hold an offset of 2**31.
    + [(np.int64, _far_gliders(), True)],
    ids=[f"{n} {k}" for n in ("glider", "gun") for k in ("int", "int32", "int64")]
    + ["gliders 2**31 apart int64"],
)
def test_numpy_integer_coordinates_are_taken_as_ints(kind, p, ship, ships):
    q = Pattern(frozenset((kind(x), kind(y)) for x, y in p.cells))

    def plain(cells):
        return all(type(c) is int for cell in cells for c in cell)

    for run in (step, lambda p: step_n(p, 60)):
        stepped = run(q)
        assert stepped == run(p) and plain(stepped.cells)
    report = detect_ship(q, max_extent=2**32)
    assert report == detect_ship(p, max_extent=2**32)
    assert (report is not None) == ship
    assert report is None or all(plain(ph.cells) for ph in report.phases)
    events = detect_emissions(q, 300, ships)
    assert events == detect_emissions(p, 300, ships)
    assert plain(e.first_sighting for e in events)


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

    @pytest.mark.parametrize(
        "velocity", [(F(2), F(0)), (F(0), F(-5, 4)), (F(1) + F(1, 10**9), F(1))]
    )
    def test_the_check_holds_once_a_census_replays(self, ships, velocity):
        # Replayed events are copied without the check; the constructor
        # keeps it.
        assert len(detect_emissions(catalog_pattern("gosper_gun"), 300, ships)) == 9
        ship = detect_ship(catalog_pattern("glider"))
        with pytest.raises(ValueError, match="exceeds the speed of light"):
            EmissionEvent(0, ship, velocity, (0, 0))


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
        # plus one free cell a side, whatever the horizon.
        fits = 2**31 - 5
        scene = Pattern(glider.cells | translate(glider, fits, 0).cells)
        events = detect_emissions(scene, horizon, ships)
        assert [e.first_sighting for e in events] == [(0, 0), (fits, 0)]

        # One cell more and the board is squeezed, with the same events.
        wide = Pattern(glider.cells | translate(glider, fits + 1, 0).cells)
        events = detect_emissions(wide, horizon, ships)
        assert [e.first_sighting for e in events] == [(0, 0), (fits + 1, 0)]
        assert events == census_reference.detect_emissions(wide, horizon, ships)
        # A narrow board is never refused for a long horizon.
        assert detect_emissions(catalog_pattern("block"), 4 * 10**9, ships) == []
        assert detect_emissions(gun_battery(23), 2**31, ships) == []

    def test_horizon_shorter_than_any_period(self, ships):
        with pytest.raises(ValueError, match="shorter"):
            detect_emissions(catalog_pattern("gosper_gun"), 3, ships)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda g: ShipReport(3, g.displacement, g.phases[:3]), "does not recur"),
            (lambda g: replace(g, displacement=(1, -1)), "does not move by"),
            (lambda g: replace(g, phases=g.phases[::-1]), "out of order"),
            (
                lambda g: ShipReport(8, (2, 2), g.phases * 2),
                "share a phase shape",
            ),
        ],
        ids=["period", "displacement", "phase-order", "shared-shape"],
    )
    def test_a_catalog_entry_the_engine_contradicts(self, change, message):
        # Each census walks every catalog ship with the engine first.
        glider = detect_ship(catalog_pattern("glider"))
        assert (glider.period, glider.displacement) == (4, (1, 1))
        with pytest.raises(ValueError, match=message):
            detect_emissions(catalog_pattern("glider"), 20, [glider, change(glider)])

    @pytest.mark.parametrize(
        "period, count",
        [(0, 0), (-4, 0), (4, 0), (4, 2), (4, 6)],
        ids=["period 0", "period -4", "no phases", "2 phases", "6 phases"],
    )
    def test_a_catalog_entry_with_a_phase_count_other_than_its_period(
        self, period, count
    ):
        # Two of the glider's phases would pass a phase-by-phase check
        # and find no glider at all.
        glider = detect_ship(catalog_pattern("glider"))
        entry = ShipReport(period, (1, 1), (glider.phases * 2)[:count])
        with pytest.raises(ValueError, match=f"has {count} phases for period {period}"):
            detect_emissions(catalog_pattern("glider"), 40, [glider, entry])

    def test_a_catalog_listing_a_ship_twice_is_accepted(self, ships):
        glider = catalog_pattern("glider")
        twice = detect_emissions(glider, 20, ships + ships)
        assert twice == detect_emissions(glider, 20, ships)

    def test_catalog_without_ships(self):
        block = detect_ship(catalog_pattern("block"))
        with pytest.raises(ValueError, match="no ships"):
            detect_emissions(catalog_pattern("gosper_gun"), 300, [block])
