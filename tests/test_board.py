"""The packed Board shared by step_n, the ship detector and the census.

The detector is checked against ``ship_reference``, which steps with
the Python ``step`` and compares canonical cell sets; the population
guard is checked on both of step_n's paths.  The jump over whole
periods of a recurring board is checked against plain stepping, and
every 64-bit refusal against the generation at which ``step`` refuses.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import census_reference
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
    COORD_MAX,
    COORD_MIN,
    Board,
    CoordinateOverflowError,
    ExplosiveGrowthError,
    Pattern,
    _evolve_py,
    bounding_box,
    step,
    step_n,
    translate,
)

R_PENTOMINO = frozenset({(1, 0), (2, 0), (0, 1), (1, 1), (1, 2)})


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError(f"{name} should not run")

    monkeypatch.setattr(engine, name, forbidden)


def _too_wide(monkeypatch):
    """Make every board too wide for the packed fields, so step_n runs Python."""

    def no_room(self, box):
        raise CoordinateOverflowError("no room in the packed fields")

    monkeypatch.setattr(Board, "_centre", no_room)


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
            Board(Pattern(R_PENTOMINO), population_factor=factor)


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
        board = Board(Pattern(frozenset(cells)))
        shape, _ = Board(glider).shape()
        matched, union = board.bodies({5: {shape: "glider"}})
        assert matched == {(shape, (x, y)): "glider"}
        assert union == (x - 30, y + 5, x + 11, y + 21)

    def test_nothing_unmatched_gives_no_union_box(self):
        glider = catalog_pattern("glider")
        shape, _ = Board(glider).shape()
        matched, union = Board(glider).bodies({5: {shape: 1}})
        assert matched == {(shape, (0, 0)): 1} and union is None
        assert Board(Pattern(frozenset())).bodies({}) == ({}, None)


class TestTakeAndPut:
    """The census takes escaped ships off the board and puts them back."""

    def _board(self):
        glider = catalog_pattern("glider")
        x, y = 2**40, -(2**40)
        block = frozenset({(x + 9, y), (x + 10, y), (x + 9, y + 1), (x + 10, y + 1)})
        cells = frozenset((x + gx, y + gy) for gx, gy in glider.cells) | block
        board = Board(Pattern(cells))
        board.step(4)
        shape, _ = Board(glider).shape()
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
        empty = Board(Pattern(frozenset()))
        with pytest.raises(ValueError, match="not all live"):
            empty.take(shape, (0, 0))


class TestRecentring:
    """A body put where the fields have no room for it re-centres them."""

    def test_a_body_past_the_edge_moves_the_fields(self):
        # Two blocks 2**31 - 8 apart leave three free cells a side.  A
        # third block one column past the second has no room left, but
        # the three still fit once the fields are centred on them.
        block = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
        far = 2**31 - 8
        board = Board(Pattern(block | _moved(block, far, 0)))
        shape, _ = Board(Pattern(block)).shape()
        board.put(shape, (far + 3, 0))
        cells = block | _moved(block, far, 0) | _moved(block, far + 3, 0)
        assert board.pattern().cells == cells
        board.step(2)
        assert board.pattern() == _stepped(Pattern(cells), 2)
        # Two columns further on, the four would not fit.
        before = board.pattern()
        with pytest.raises(ValueError, match="outside the packed fields"):
            board.put(shape, (far + 7, 0))
        assert board.pattern() == before


    def test_a_body_put_near_the_edge_lowers_the_room(self):
        # Two blocks 2**31 - 20 apart in y leave nine free cells a side.
        # A glider put one cell inside the top edge, flying up, leaves
        # one: the fields must be re-centred after its first step, long
        # before the blocks would need it.  (A y field that runs over
        # carries into x.)
        block = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
        far = 2**31 - 20
        board = Board(Pattern(block | _moved(block, 0, far)))
        up = frozenset((x, 2 - y) for x, y in GLIDER_CELLS)
        shape, _ = Board(Pattern(up)).shape()
        board.put(shape, (10, -8))
        cells = block | _moved(block, 0, far) | _moved(up, 10, -8)
        for t in range(1, 13):
            board.step()
            assert board.pattern() == _stepped(Pattern(cells), t)


class TestPlannedRun:
    """No caller plans a run: a board steps as far as it is asked."""

    def test_a_board_steps_any_count_in_any_pieces(self):
        glider = catalog_pattern("glider")
        board = Board(glider)
        board.step(3)
        board.step(2**40)
        assert board.pattern() == step_n(glider, 2**40 + 3)

    @pytest.mark.parametrize("generations, margin", [(-5, 0), (-1, 2)])
    def test_board_refuses_a_negative_run_or_margin(
        self, monkeypatch, generations, margin
    ):
        # The run and the margin are gone, and population_factor is
        # keyword-only, so neither is read as a factor: both are refused
        # before packing.
        _forbid(monkeypatch, "_pack")
        for args in [(generations,), (4, margin)]:
            with pytest.raises(TypeError, match="positional"):
                Board(catalog_pattern("glider"), *args)

    def test_board_refuses_a_negative_step(self):
        glider = catalog_pattern("glider")
        board = Board(glider)
        with pytest.raises(ValueError, match="back"):
            board.step(-3)
        assert board.pattern() == glider
        board.step(10)
        assert board.pattern() == _stepped(glider, 10)

    def test_detect_ship_refuses_a_period_bound_too_wide_for_the_fields(
        self, monkeypatch
    ):
        # Only the board's width limits the packed fields, not the run:
        # a period bound at the top of the 64-bit range measures the glider.
        glider = catalog_pattern("glider")
        assert detect_ship(glider, max_period=COORD_MAX).period == 4
        _forbid(monkeypatch, "_evolve_np")
        _forbid(monkeypatch, "_evolve_py")
        wide = glider.cells | translate(glider, 2**31 - 4, 0).cells
        with pytest.raises(CoordinateOverflowError, match="packed fields"):
            detect_ship(Pattern(wide), max_period=8, max_extent=2**32)


class TestCountCheck:
    """Counts are ints, checked before any step; numpy integers become ints."""

    NOT_INTS = [2.5, 4.0, True, "3"]

    @pytest.mark.parametrize("n", NOT_INTS)
    def test_step_n(self, monkeypatch, n):
        _forbid(monkeypatch, "_pack")
        _forbid(monkeypatch, "_evolve_py")
        with pytest.raises(TypeError, match=r"^n must be an int, not "):
            step_n(catalog_pattern("glider"), n)

    @pytest.mark.parametrize("bad", NOT_INTS)
    @pytest.mark.parametrize("slot", ["generations"])
    def test_board(self, monkeypatch, bad, slot):
        # The board takes no run length: its count is the step's.
        _forbid(monkeypatch, "_evolve_np")
        with pytest.raises(TypeError, match=rf"^{slot} must be an int, not "):
            Board(catalog_pattern("glider")).step(**{slot: bad})

    @pytest.mark.parametrize("n", NOT_INTS)
    def test_board_step(self, n):
        glider = catalog_pattern("glider")
        board = Board(glider)
        with pytest.raises(TypeError, match=r"^generations must be an int, not "):
            board.step(n)
        assert (board.generation, board.pattern()) == (0, glider)

    def test_detectors(self, monkeypatch):
        ships = ship_catalog()
        _forbid(monkeypatch, "_pack")
        with pytest.raises(TypeError, match="must be an int, not float"):
            detect_ship(catalog_pattern("glider"), 8.0)
        with pytest.raises(TypeError, match="must be an int, not float"):
            detect_emissions(catalog_pattern("gosper_gun"), 300.0, ships)

    @pytest.mark.parametrize("generation", [2.5, 4.0, True, "3"])
    def test_pattern_generation(self, generation):
        glider = catalog_pattern("glider")
        with pytest.raises(TypeError, match=r"^generation must be an int, not "):
            step_n(Pattern(glider.cells, generation), 3)

    def test_numpy_integers_become_ints(self):
        glider = catalog_pattern("glider")
        started = Pattern(glider.cells, np.int64(3))
        assert type(started.generation) is int and started.generation == 3
        assert step_n(started, 2).generation == 5
        evolved = step_n(glider, np.int64(3))
        assert type(evolved.generation) is int
        assert evolved == _stepped(glider, 3)
        board = Board(glider)
        board.step(np.int64(3))
        assert type(board.generation) is int
        assert board.pattern() == evolved
        board.step(np.int16(7))
        assert board.pattern() == _stepped(glider, 10)


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
        _too_wide(monkeypatch)
        assert packed == _run(p, 1200, factor)

    def test_shapes_compare_from_the_box_corner(self):
        # Relative to the first key, (0, 5), (1, 0) and (0, 0), (0, F - 5)
        # both read 0, F - 5, yet they are not translates.
        field = 2**31
        old = np.array([5, field], dtype=np.int64)
        assert engine._shift(old, np.array([0, field - 5], dtype=np.int64)) is None
        # The move is in cells: 3 * field - 7 packed is (2, field - 7).
        moved = old + 3 * field - 7
        assert engine._shift(old, moved) == (2, field - 7)

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
        shape, _ = Board(glider).shape()
        _, y0, x1, _ = bounding_box(scene)
        # Three columns clear of the scene, the glider is a body of its own.
        corner = (x1 + 3, y0 + dy)
        ship = {(corner[0] + x, corner[1] + y) for x, y in glider.cells}
        cells = scene.cells | ship
        board = Board(Pattern(cells))
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


GLIDER_CELLS = catalog_pattern("glider").cells
# The glider mirrored in x: it flies left and down.
LEFT_GLIDER = frozenset((2 - x, y) for x, y in GLIDER_CELLS)


def _moved(cells, dx, dy):
    return frozenset((x + dx, y + dy) for x, y in cells)


def _spy(monkeypatch, log):
    """Log each re-centring (with its generation), kernel step and board compare."""
    centre, evolve_np, evolve_py, shift = (
        Board._centre,
        engine._evolve_np,
        engine._evolve_py,
        engine._shift,
    )

    def spy_centre(self, box):
        log.append(("centre", self.generation))
        return centre(self, box)

    def spy_np(*args):
        log.append(("np",))
        return evolve_np(*args)

    def spy_py(*args):
        log.append(("py",))
        return evolve_py(*args)

    def spy_shift(old, new):
        move = shift(old, new)
        log.append(("shift", move))
        return move

    monkeypatch.setattr(Board, "_centre", spy_centre)
    monkeypatch.setattr(engine, "_evolve_np", spy_np)
    monkeypatch.setattr(engine, "_evolve_py", spy_py)
    monkeypatch.setattr(engine, "_shift", spy_shift)


def _turned(cells, sign, shift):
    """cells turned a half turn (sign -1) or not (1), then moved by shift a side."""
    return frozenset((sign * x + shift, sign * y + shift) for x, y in cells)


def _count(log, kind):
    return sum(1 for entry in log if entry[0] == kind)


class TestWindow:
    """The packed fields follow the board: only its width limits them."""

    @pytest.mark.parametrize("k", [0, 1, 64])
    @pytest.mark.parametrize("edge", ["min", "max"])
    def test_boards_at_the_64_bit_edges(self, monkeypatch, edge, k):
        # An R-pentomino and a glider flying at the edge, k cells in, so
        # a run of k generations just stays in range.
        if edge == "min":
            sign, shift = -1, COORD_MIN + 14 + k
        else:
            sign, shift = 1, COORD_MAX - 14 - k
        glider = _turned(_moved(GLIDER_CELLS, 12, 12), sign, shift)
        p = Pattern(_turned(R_PENTOMINO, sign, shift) | glider)
        _forbid(monkeypatch, "_evolve_py")
        assert step_n(p, k) == _stepped(p, k)
        board = Board(p)
        assert (board.pattern(), board.box()) == (p, bounding_box(p))
        shape, box = Board(Pattern(glider)).shape()
        matched, rest = board.bodies({5: {shape: "glider"}})
        assert matched == {(shape, box[:2]): "glider"}
        assert rest == bounding_box(Pattern(p.cells - glider))
        board.step(k)
        assert board.pattern() == _stepped(p, k)

    @pytest.mark.parametrize("edge", ["min", "max"])
    def test_a_glider_jumps_to_the_edge(self, monkeypatch, edge):
        # Flying towards the edge from 1002 cells in, the glider's box
        # touches it at generation 3997, where step refuses.  step_n
        # jumps most of the way, steps the rest, and refuses there too.
        if edge == "min":
            sign, shift = -1, COORD_MIN + 1002
        else:
            sign, shift = 1, COORD_MAX - 1002
        p = Pattern(_turned(GLIDER_CELLS, sign, shift))
        at_edge = _stepped(p, 3997)
        refused = "at generation 3997 reaches the edge of the signed 64-bit"
        with pytest.raises(CoordinateOverflowError, match=refused):
            step(at_edge)
        log = []
        _spy(monkeypatch, log)
        assert step_n(p, 3997) == at_edge
        for n in (3998, 2**64):
            with pytest.raises(CoordinateOverflowError, match=refused):
                step_n(p, n)
        # Three calls, each in a few dozen kernel steps at most.
        assert _count(log, "py") == 0 and _count(log, "np") < 3 * 30

    def test_two_gliders_flying_together_recentre_and_jump(self, monkeypatch):
        # 2**31 - 12 apart, the pair leaves four free cells a side, so the
        # fields are re-centred every few generations; the pair recurs
        # every 4 generations, and a jump spans a re-centring.
        p = Pattern(GLIDER_CELLS | _moved(GLIDER_CELLS, 2**31 - 12, 0))
        board = Board(p)
        expected = p
        for _ in range(200):
            board.step()
            expected = _stepped(expected, 1)
            assert board.pattern() == expected
        log = []
        _spy(monkeypatch, log)
        assert step_n(p, 200) == expected
        assert _count(log, "centre") >= 2 and _count(log, "py") == 0
        # The first board compare that matches is the jump: generation g,
        # the saved board at g - 4, and a re-centring in between.
        jump = next(i for i, e in enumerate(log) if e[0] == "shift" and e[1])
        g = _count(log[:jump], "np")
        assert any(e == ("centre", t) for e in log[:jump] for t in range(g - 4, g))
        assert _count(log, "np") < 200

    def test_two_gliders_flying_apart_outgrow_the_fields(self, monkeypatch):
        # 2**31 - 10 apart and drifting apart by half a cell a generation,
        # the pair outgrows the fields within a few generations.
        p = Pattern(LEFT_GLIDER | _moved(GLIDER_CELLS, 2**31 - 10, 0))
        expected = _stepped(p, 40)
        log = []
        with monkeypatch.context() as patched:
            _spy(patched, log)
            assert step_n(p, 40) == expected
        assert _count(log, "np") > 0 and _count(log, "py") > 0
        assert _count(log, "np") + _count(log, "py") == 40
        board = Board(p)
        with pytest.raises(CoordinateOverflowError, match="packed fields"):
            board.step(40)
        assert 0 < board.generation < 40
        assert board.pattern() == _stepped(p, board.generation)
        with pytest.raises(CoordinateOverflowError, match="packed fields"):
            detect_ship(p, max_period=40, max_extent=2**32)

    def test_a_census_puts_a_ship_back_while_the_room_is_0(self, monkeypatch):
        # The gun and blinker that bring each glider back, and a block far
        # enough to the left that the fields keep one free cell a side:
        # every generation's step uses it up before the put-backs.
        block = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
        blinker = {(20, 14), (21, 14), (22, 14)}
        gun = catalog_pattern("gosper_gun").cells
        scene = Pattern(gun | blinker | _moved(block, -(2**31) + 39, 0))
        rooms = []
        put = Board.put

        def spy_put(self, shape, corner):
            rooms.append(self._room)
            return put(self, shape, corner)

        ships = ship_catalog()
        with monkeypatch.context() as patched:
            patched.setattr(Board, "put", spy_put)
            events = detect_emissions(scene, 100, ships)
        assert rooms and set(rooms) == {0}
        assert events == census_reference.detect_emissions(scene, 100, ships)

    @pytest.mark.parametrize(
        "corner", [(0, 0), (COORD_MIN + 8, 7), (COORD_MAX - 9, COORD_MAX - 8)]
    )
    def test_a_board_that_dies(self, monkeypatch, corner):
        pair = frozenset({corner, (corner[0] + 1, corner[1])})
        assert step_n(Pattern(pair), 8) == Pattern(frozenset(), 8)
        board = Board(Pattern(pair))
        board.step(5)
        assert (board.population, board.box()) == (0, None)
        assert board.pattern() == Pattern(frozenset(), 5)
        assert board.bodies({}) == ({}, None)
        # A glider put on the dead board, 2**40 away, steps on as usual.
        glider = catalog_pattern("glider")
        x, y = corner[0] - 2**40 if corner[0] > 0 else corner[0] + 2**40, corner[1]
        board.put(Board(glider).shape()[0], (x, y))
        board.step(3)
        assert board.pattern().cells == _stepped(translate(glider, x, y), 3).cells


EDGE_PIECES = [
    catalog_pattern(name).cells for name in ("block", "blinker", "glider", "lwss")
]


@st.composite
def edge_boards(draw):
    """A block, blinker, glider or LWSS in any orientation, at most 64 cells
    from one or two 64-bit edges: a side or a corner of the range."""
    turn = draw(st.sampled_from(catalog._ORIENTATIONS))
    cells = catalog._transform(draw(st.sampled_from(EDGE_PIECES)), turn)
    box = bounding_box(Pattern(cells))
    sides = draw(st.sampled_from([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)][1:]))
    shift = []
    for side, low, high in zip(sides, box[:2], box[2:]):
        if side < 0:
            shift.append(COORD_MIN + draw(st.integers(0, 64)) - low)
        else:
            shift.append(COORD_MAX - draw(st.integers(0, 64)) - high if side else -low)
    return translate(Pattern(cells, draw(st.integers(0, 5))), *shift)


def _refused(run):
    """run's result, or the message of the CoordinateOverflowError it raised."""
    try:
        return run()
    except CoordinateOverflowError as exc:
        return str(exc)


def _iterated(p, n):
    for _ in range(n):
        p = step(p)
    return p


class TestEdgeExactness:
    """Every 64-bit refusal fires where iterating ``step`` refuses.

    The message names the box and the generation, so equal messages
    refuse at the same generation.  Runs far past the period jump, and
    the jump must stop short of the edge.
    """

    @given(edge_boards(), st.integers(0, 400))
    @settings(max_examples=150, deadline=None)
    def test_step_n_and_board_refuse_where_step_does(self, p, n):
        expected = _refused(lambda: _iterated(p, n))
        assert _refused(lambda: step_n(p, n)) == expected
        board = Board(p)
        assert _refused(lambda: board.step(n) or board.pattern()) == expected
