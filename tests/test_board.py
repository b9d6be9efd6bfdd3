"""The packed Board shared by step_n, the ship detector and the census.

The detector is checked against ``ship_reference``, which steps with
the Python ``step`` and compares canonical cell sets; the population
guard is checked on both of step_n's paths.  The jump over whole
periods of a recurring board is checked against plain stepping.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ship_reference
from test_census import scenes
from lifeframes import catalog, engine
from lifeframes.catalog import (
    catalog_pattern,
    gun_battery,
    named_ship_catalog,
    ship_catalog,
)
from lifeframes.detector import DEFAULT_MAX_EXTENT, detect_emissions, detect_ship
from lifeframes.engine import (
    Board,
    CoordinateOverflowError,
    ExplosiveGrowthError,
    Pattern,
    _evolve_py,
    bounding_box,
    step_n,
)

R_PENTOMINO = frozenset({(1, 0), (2, 0), (0, 1), (1, 1), (1, 2)})


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError(f"{name} should not run")

    monkeypatch.setattr(engine, name, forbidden)


class TestPopulationBound:
    def test_step_n_names_the_first_generation_over_it(self):
        with pytest.raises(ExplosiveGrowthError) as info:
            step_n(Pattern(R_PENTOMINO), 512, population_factor=2.0)
        assert (info.value.generation, info.value.population) == (6, 12)
        assert step_n(Pattern(R_PENTOMINO), 5, population_factor=2.0).generation == 5

    def test_detect_ship_stops_at_the_same_generation(self):
        with pytest.raises(ExplosiveGrowthError) as info:
            detect_ship(Pattern(R_PENTOMINO), max_period=512, population_factor=2.0)
        assert (info.value.generation, info.value.population) == (6, 12)

    def test_python_path_applies_it_too(self, monkeypatch):
        _forbid(monkeypatch, "_evolve_np")
        wide = R_PENTOMINO | {(x + 2**31, y) for x, y in R_PENTOMINO}
        with pytest.raises(ExplosiveGrowthError) as info:
            step_n(Pattern(wide), 512, population_factor=2.0)
        assert (info.value.generation, info.value.population) == (6, 24)


class TestFactorCheck:
    """A factor that is nan, infinite or not above 0 is refused before any step."""

    BAD = [float("nan"), float("inf"), float("-inf"), 0, -1]

    @pytest.fixture(autouse=True)
    def _no_stepping(self, monkeypatch):
        _forbid(monkeypatch, "_evolve_np")
        _forbid(monkeypatch, "_evolve_py")

    @pytest.mark.parametrize("factor", BAD)
    def test_step_n_on_the_packed_path(self, factor):
        with pytest.raises(ValueError, match="population_factor"):
            step_n(Pattern(R_PENTOMINO), 200, population_factor=factor)

    @pytest.mark.parametrize("factor", BAD)
    def test_step_n_on_the_python_path(self, factor):
        wide = R_PENTOMINO | {(x + 2**31, y) for x, y in R_PENTOMINO}
        with pytest.raises(ValueError, match="population_factor"):
            step_n(Pattern(wide), 200, population_factor=factor)

    @pytest.mark.parametrize("factor", BAD)
    def test_detect_ship(self, factor):
        with pytest.raises(ValueError, match="population_factor"):
            detect_ship(Pattern(R_PENTOMINO), population_factor=factor)

    @pytest.mark.parametrize("factor", BAD)
    def test_board(self, factor):
        with pytest.raises(ValueError, match="population_factor"):
            Board(Pattern(R_PENTOMINO), 4, population_factor=factor)


class TestMaxExtentCheck:
    """A max_extent that is nan, infinite or below 1 is refused before any step."""

    @pytest.mark.parametrize("extent", [float("nan"), float("inf"), 0, -1])
    def test_detect_ship(self, monkeypatch, extent):
        _forbid(monkeypatch, "_evolve_np")
        with pytest.raises(ValueError, match="max_extent"):
            detect_ship(Pattern(R_PENTOMINO), population_factor=100, max_extent=extent)


class TestBodies:
    def test_matched_corners_and_the_union_box_are_absolute(self):
        glider = catalog_pattern("glider")
        x, y = 2**40, -(2**40)
        block = {(x + 10, y + 20), (x + 11, y + 20), (x + 10, y + 21), (x + 11, y + 21)}
        loose = {(x - 30, y + 5)}
        cells = {(x + gx, y + gy) for gx, gy in glider.cells} | block | loose
        board = Board(Pattern(frozenset(cells)), 0, margin=2)
        shape, _ = Board(glider, 0).shape()
        matched, union = board.bodies({5: {shape: "glider"}})
        assert matched == {(shape, (x, y)): "glider"}
        assert union == (x - 30, y + 5, x + 11, y + 21)

    def test_nothing_unmatched_gives_no_union_box(self):
        glider = catalog_pattern("glider")
        shape, _ = Board(glider, 0).shape()
        matched, union = Board(glider, 0, margin=2).bodies({5: {shape: 1}})
        assert matched == {(shape, (0, 0)): 1} and union is None
        assert Board(Pattern(frozenset()), 0, margin=2).bodies({}) == ({}, None)

    def test_needs_the_merge_radius_as_margin(self):
        with pytest.raises(ValueError, match="margin"):
            Board(catalog_pattern("glider"), 4, margin=1).bodies({})


class TestTakeAndPut:
    """The census takes escaped ships off the board and puts them back."""

    def _board(self):
        glider = catalog_pattern("glider")
        x, y = 2**40, -(2**40)
        block = frozenset({(x + 9, y), (x + 10, y), (x + 9, y + 1), (x + 10, y + 1)})
        cells = frozenset((x + gx, y + gy) for gx, gy in glider.cells) | block
        board = Board(Pattern(cells), 8, margin=2)
        board.step(4)
        shape, _ = Board(glider, 0).shape()
        matched, union = board.bodies({5: {shape: "glider"}})
        [(shape, corner)] = matched
        return board, shape, corner, block, union

    def test_a_matched_body_comes_off_and_goes_back(self):
        board, shape, corner, block, union = self._board()
        assert corner == (2**40 + 1, -(2**40) + 1)
        before = board.shape(), board.pattern()
        board.take(shape, corner)
        assert board.pattern().cells == block
        assert board.box() == union
        board.put(shape, corner)
        assert (board.shape(), board.pattern()) == before
        assert board.box() == before[0][1]
        board.take(*board.shape())
        assert board.population == 0 and board.box() is None

    def test_a_wrong_body_raises_and_leaves_the_board_alone(self):
        board, shape, (x, y), _, _ = self._board()
        before = board.pattern()
        for corner in [(x + 1, y), (x, y - 1), (x + 8, y - 1)]:
            with pytest.raises(ValueError, match="not all live"):
                board.take(shape, corner)
        for corner in [(x, y), (x + 1, y + 1), (x + 7, y - 2)]:
            with pytest.raises(ValueError, match="overlaps live cells"):
                board.put(shape, corner)
        for corner in [(x - 2**31, y), (x, y + 2**31)]:
            with pytest.raises(ValueError, match="outside the packed fields"):
                board.put(shape, corner)
        assert board.pattern() == before
        empty = Board(Pattern(frozenset()), 4, margin=2)
        with pytest.raises(ValueError, match="not all live"):
            empty.take(shape, (0, 0))


class TestPlannedRun:
    def test_board_refuses_steps_past_its_planned_run(self):
        board = Board(catalog_pattern("glider"), 4)
        board.step(3)
        with pytest.raises(ValueError, match="packed for"):
            board.step(2)

    @pytest.mark.parametrize("generations, margin", [(-5, 0), (-1, 2), (4, -1)])
    def test_board_refuses_a_negative_run_or_margin(
        self, monkeypatch, generations, margin
    ):
        # Packing first would put the origin past the cells.
        _forbid(monkeypatch, "_pack")
        with pytest.raises(ValueError, match="non-negative"):
            Board(catalog_pattern("glider"), generations, margin)

    def test_board_refuses_a_negative_step(self):
        glider = catalog_pattern("glider")
        board = Board(glider, 10)
        with pytest.raises(ValueError, match="back"):
            board.step(-3)
        assert board.pattern() == glider
        board.step(10)
        assert board.pattern() == _stepped(glider, 10)

    def test_detect_ship_refuses_a_period_bound_too_wide_for_the_fields(
        self, monkeypatch
    ):
        _forbid(monkeypatch, "_evolve_np")
        _forbid(monkeypatch, "_evolve_py")
        with pytest.raises(CoordinateOverflowError, match="packed fields"):
            detect_ship(catalog_pattern("glider"), max_period=2**31)


def _outcome(detect, p, **limits):
    """A detector's report, or the generation and population it refused at."""
    try:
        return detect(p, max_period=8, **limits)
    except ExplosiveGrowthError as exc:
        return ("explosive", exc.generation, exc.population)


PIECES = [
    catalog_pattern(name).cells
    for name in ("glider", "lwss", "block", "blinker", "eater1")
]


@st.composite
def small_boards(draw):
    """Loose random cells, or a few of them around one catalog piece.

    The pieces make recurrences common enough to compare: a soup alone
    almost always dies or runs past max_period.
    """
    coord = st.integers(-8, 8)
    piece = draw(st.sampled_from([frozenset()] + PIECES))
    dx, dy = draw(coord), draw(coord)
    loose = draw(st.frozensets(st.tuples(coord, coord), max_size=3 if piece else 24))
    cells = loose | {(x + dx, y + dy) for x, y in piece}
    assume(cells)
    return Pattern(cells, draw(st.integers(0, 5)))


class TestDetectShipAgainstSteppingReference:
    @given(
        small_boards(),
        st.sampled_from([1.0, 1.5, 2.0, 10.0]),
        st.sampled_from([4, 8, DEFAULT_MAX_EXTENT]),
    )
    @settings(max_examples=300)
    def test_random_boards(self, p, factor, extent):
        limits = dict(population_factor=factor, max_extent=extent)
        assert _outcome(detect_ship, p, **limits) == _outcome(
            ship_reference.detect_ship, p, **limits
        )

    def test_named_ship_catalog_in_all_orientations(self, monkeypatch):
        measured = named_ship_catalog()
        monkeypatch.setattr(catalog, "detect_ship", ship_reference.detect_ship)
        assert named_ship_catalog() == measured


def _stepped(p, n):
    """p after n generations of the plain Python pass."""
    cells = p.cells
    for _ in range(n):
        cells = _evolve_py(cells)
    return Pattern(cells, p.generation + n)


def _run(p, n, factor):
    """step_n's result, or the generation and population it refused at."""
    try:
        return step_n(p, n, population_factor=factor)
    except ExplosiveGrowthError as exc:
        return ("explosive", exc.generation, exc.population)


class TestRecurrenceJump:
    """A board that recurs jumps over whole periods and lands exactly."""

    @given(scenes(), st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_catalog_scenes(self, p, n):
        assert step_n(p, n) == _stepped(p, n)

    def test_battery_around_its_first_jump(self):
        # One unit repeats from generation 59 with period 30; the
        # search sees the repeat at generation 94 and jumps from there.
        battery = gun_battery(1)
        expected = _stepped(battery, 85)
        for n in range(85, 131):
            assert step_n(battery, n) == expected
            expected = _stepped(expected, 1)

    def test_battery_over_ten_thousand_generations(self):
        battery = gun_battery(1)
        assert step_n(battery, 10_000) == _stepped(battery, 10_000)

    @pytest.mark.parametrize(
        "factor", [1.05, 1.2, 1.5, 1.6, 1.65, 1.7, 1.8, 1.82, 2.0, 3.0, 25.0, 70.0]
    )
    @pytest.mark.parametrize("name", ["battery", "r_pentomino"])
    def test_growth_errors_match_the_python_path(self, monkeypatch, name, factor):
        p = gun_battery(1) if name == "battery" else Pattern(R_PENTOMINO)
        packed = _run(p, 1200, factor)
        monkeypatch.setattr(engine, "_packed_origin", lambda p, n: None)
        assert packed == _run(p, 1200, factor)

    def test_shapes_compare_from_the_box_corner(self):
        # Relative to the first key, (0, 5), (1, 0) and (0, 0), (0, F - 5)
        # both read 0, F - 5, yet they are not translates.
        field = 2**31
        old = np.array([5, field], dtype=np.int64)
        assert engine._shift(old, np.array([0, field - 5], dtype=np.int64)) is None
        moved = old + 3 * field - 7
        assert engine._shift(old, moved) == 3 * field - 7

    def test_single_steps_make_no_shape_compare(self, monkeypatch):
        _forbid(monkeypatch, "_shift")
        with pytest.raises(AssertionError, match="_shift"):
            step_n(catalog_pattern("glider"), 10)
        assert detect_ship(catalog_pattern("glider")).period == 4
        assert detect_ship(_stepped(gun_battery(1), 59), max_period=40).period == 30
        events = detect_emissions(catalog_pattern("gosper_gun"), 120, ship_catalog())
        assert len(events) == 3


class TestSortReuse:
    """step reuses the neighbor sort of ``bodies`` only for the keys it sorted.

    Taking a ship off after the split, or putting one back, must make
    the next step sort again; a run long enough to jump follows.
    """

    @given(
        scenes(),
        st.sampled_from(["nothing", "take", "put"]),
        st.integers(1, 8),
        st.integers(-6, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_steps_after_bodies_match_the_python_pass(self, scene, action, k, dy):
        glider = catalog_pattern("glider")
        shape, _ = Board(glider, 0).shape()
        _, y0, x1, _ = bounding_box(scene)
        # Three columns clear of the scene, the glider is a body of its own.
        corner = (x1 + 3, y0 + dy)
        ship = {(corner[0] + x, corner[1] + y) for x, y in glider.cells}
        cells = scene.cells | ship
        board = Board(Pattern(cells), 64, margin=2)
        if action == "put":
            board.take(shape, corner)
        matched, _ = board.bodies({5: {shape: "glider"}})
        assert ((shape, corner) in matched) == (action != "put")
        if action == "take":
            board.take(shape, corner)
            cells = scene.cells
        elif action == "put":
            board.put(shape, corner)
        board.step(k)
        assert board.pattern() == _stepped(Pattern(cells), k)
        board.step(64 - k)
        assert board.pattern() == _stepped(Pattern(cells), 64)
