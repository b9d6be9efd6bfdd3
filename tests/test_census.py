"""The emission census against a plain-Python reference.

``census_reference`` steps with the Python ``step``, splits bodies by
breadth-first search and matches canonical cell sets, so it shares
nothing with the packed board's body split or the census's track
dictionary.  The census's recurrence jump is also checked against
the same census with its state search patched never to match, and
its retirement of escaped ships against the same census with
retirement patched off.
"""

import functools
import itertools
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
from lifeframes.detector import EmissionEvent, _Track, detect_emissions
from lifeframes.engine import (
    COORD_MAX,
    Board,
    CoordinateOverflowError,
    Pattern,
    bounding_box,
    step_n,
    translate,
)

GLIDER = catalog_pattern("glider").cells

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


GUN = catalog_pattern("gosper_gun").cells

# Beside the stream of the gun as the catalog lays it out.
BESIDE = [frozenset(), frozenset({(20, 14), (21, 14), (22, 14)})]
BESIDE += [frozenset({(22, 13), (23, 13), (22, 14), (23, 14)})]

# The scenes whose split counts are pinned: the gun, the battery, the
# gun with its mirror 60 cells to the left firing apart, the gun with a
# blinker beside its stream, the gun with a copy 62 left and 26 down
# firing side by side, and the gun with its mirror 37 cells to the
# right, whose gliders meet.
_RIGHT = max(x for x, _ in GUN) + 37
SCENES = {
    "gun": Pattern(GUN),
    "battery": gun_battery(23),
    "apart": Pattern(GUN | frozenset((-x - 60, y) for x, y in GUN)),
    "blinker": Pattern(GUN | BESIDE[1]),
    "side": Pattern(GUN | frozenset((x - 62, y + 26) for x, y in GUN)),
    "mirrored": Pattern(GUN | frozenset((_RIGHT - x, y) for x, y in GUN)),
}


@st.composite
def gun_scenes(draw):
    """Two or three guns, each turned and up to 80 cells from the first.

    So their streams may run apart, side by side or across each other;
    the first gun may have a blinker or block beside its stream, nudged
    by up to 2 cells.
    """
    near, offset = st.integers(-2, 2), st.integers(-80, 80)
    extra, nx, ny = draw(st.sampled_from(BESIDE)), draw(near), draw(near)
    piece, cells = GUN | {(x + nx, y + ny) for x, y in extra}, set()
    for i in range(draw(st.integers(2, 3))):
        a, b, c, d = draw(st.sampled_from(_ORIENTATIONS))
        dx, dy = (draw(offset), draw(offset)) if i else (0, 0)
        cells |= {(a * x + b * y + dx, c * x + d * y + dy) for x, y in piece}
        piece = GUN
    return Pattern(frozenset(cells))


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

    def test_replayed_events_repeat_each_period(self, ships):
        # Two mirrored guns whose gliders meet and vanish: two gliders
        # are confirmed every 30 generations and the board never grows.
        guns = SCENES["mirrored"]
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

    @pytest.mark.parametrize("name", SCENES)
    def test_replayed_events_equal_stepped_ones(self, ships, name):
        # Every scene replays from generation 123 at the latest, with
        # period 30, so 300 is at least three periods past its replay.
        events, made = splits(SCENES[name], 300, ships)
        assert made <= 123
        stepped = unjumped(SCENES[name], 300, ships)
        assert events == stepped
        assert list(map(hash, events)) == list(map(hash, stepped))
        assert list(map(repr, events)) == list(map(repr, stepped))
        assert all(type(e) is EmissionEvent for e in events)

    def test_state_holds_what_later_events_read(self):
        glider = catalog_pattern("glider")

        def state(p, track, generation, key=(b"s", (5, 6))):
            board = Board(p)
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


def unretired(p, horizon, ships):
    """The census with no ship ever retired, so every ship stays on the board.

    Every retirement first asks _alone, and nothing else does, so the
    replays run as in the census with no ship off the board.
    """
    take = mock.patch.object(Board, "take", autospec=True, side_effect=Board.take)
    with mock.patch.object(detector, "_alone", lambda *args: False), take as taken:
        events = detect_emissions(p, horizon, ships)
    assert not taken.called
    return events


def spied(p, horizon, ships):
    """The census, ships taken off and put back, and replays refused."""
    take = mock.patch.object(Board, "take", autospec=True, side_effect=Board.take)
    put = mock.patch.object(Board, "put", autospec=True, side_effect=Board.put)
    check, refused = detector._replay_keeps_apart, []

    def replay(*args):
        exact = check(*args)
        refused.extend([args[3]] * (not exact))
        return exact

    with take as taken, put as returned:
        with mock.patch.object(detector, "_replay_keeps_apart", replay):
            events = detect_emissions(p, horizon, ships)
    return events, taken.call_count, returned.call_count, refused


def replay_calls(p, horizon, ships):
    """Each call of the replay rule as (generation, saved_at, boxes), and the
    board's box at each generation, read after each step of the census.

    The ships' reports carry the walks they were measured on, so every
    step is the census's.
    """
    step, check, read, calls = Board.step, detector._replay_keeps_apart, [], []

    def stepped(board):
        step(board)
        read.append(board.box())

    def replay(retired, boxes, backs, saved_at, move):
        calls.append((len(read), saved_at, boxes))
        return check(retired, boxes, backs, saved_at, move)

    with mock.patch.object(Board, "step", stepped):
        with mock.patch.object(detector, "_replay_keeps_apart", replay):
            detect_emissions(p, horizon, ships)
    return calls, [Board(p).box(), *read]


class TestRetirement:
    """A confirmed ship far from the rest leaves the board until it comes near again."""

    @given(scenes(), st.integers(4, 400))
    @settings(max_examples=150, deadline=None)
    def test_random_scenes(self, ships, scene, horizon):
        events = detect_emissions(scene, horizon, ships)
        assert events == unretired(scene, horizon, ships)
        if horizon <= 60:
            assert events == census_reference.detect_emissions(scene, horizon, ships)

    @given(gun_scenes(), st.integers(300, 400), st.integers(60, 120))
    @settings(max_examples=25, deadline=None)
    def test_gun_scenes(self, ships, scene, horizon, short):
        # Ships retire at up to eight velocities, and some come back.
        assert detect_emissions(scene, horizon, ships) == (
            unjumped(scene, horizon, ships)
        )
        assert detect_emissions(scene, short, ships) == (
            census_reference.detect_emissions(scene, short, ships)
        )

    def test_gun_settles_once_its_gliders_retire(self, ships):
        # Each glider leaves the board once 3 cells clear of the gun, so
        # the board repeats with period 30: the state saved at 15 is seen
        # again at 45.
        gun = catalog_pattern("gosper_gun").cells
        for a, b, c, d in _ORIENTATIONS:
            turned = Pattern(frozenset((a * x + b * y, c * x + d * y) for x, y in gun))
            for horizon, count in [(300, 9), (2000, 66), (10**6, 33333)]:
                events, split = splits(turned, horizon, ships)
                assert (len(events), split) == (count, 45), (a, b, c, d, horizon)

    def test_gliders_meeting_head_on(self, ships):
        # Both gliders are confirmed at generation 4, well apart, but only
        # the first leaves the board: the second closes on it.  The first
        # comes back before they meet, and their collision sends out two
        # new gliders, born at 17, which both leave the board in turn.
        scene = Pattern(GLIDER | frozenset((12 - x, 6 - y) for x, y in GLIDER))
        events, taken, returned, refused = spied(scene, 120, ships)
        assert (taken, returned) == (3, 1)
        assert [e.birth_generation for e in events] == [0, 0, 17, 17]
        assert events == unretired(scene, 120, ships)
        assert events == census_reference.detect_emissions(scene, 120, ships)

    def test_a_glider_on_its_way_into_a_beehive(self, ships):
        # The glider leaves the board at generation 4; the rest settles
        # into a beehive by 7, but every replay from there is refused,
        # as the glider is heading for it.  It comes back at 13, and the
        # crash sends out a new glider, born at 23.
        pre_beehive = {(1, 6), (1, 7), (2, 7), (0, 8), (1, 8), (2, 8)}
        pre_beehive |= {(0, 9), (1, 9), (2, 9)}
        scene = Pattern(GLIDER | frozenset(pre_beehive))
        events, taken, returned, refused = spied(scene, 60, ships)
        assert returned == 1 and refused and set(refused) == {7}
        assert [e.birth_generation for e in events] == [0, 23]
        assert events == unretired(scene, 60, ships)
        assert events == census_reference.detect_emissions(scene, 60, ships)

    def test_a_blinker_beside_the_stream_brings_each_glider_back(self, ships):
        # The blinker's box swings by a cell every generation, so each
        # glider retired 3 cells clear of it comes back for a generation.
        # A ship retired and put back inside a period does so again in
        # every later one, so the census replays: the state saved at 63
        # is seen again at 93.
        scene = SCENES["blinker"]
        events, taken, returned, refused = spied(scene, 200, ships)
        assert (taken, returned, refused) == (5, 4, [])
        assert splits(scene, 200, ships) == (events, 93)
        assert [e.birth_generation for e in events] == [35, 65, 95, 125, 155]
        assert events == unretired(scene, 200, ships)
        assert events == unjumped(scene, 200, ships)
        assert events == census_reference.detect_emissions(scene, 200, ships)

    def test_two_guns_firing_apart(self, ships):
        # The gun and its mirror 60 cells to the left retire gliders at
        # two velocities from generation 90; each later copy only draws
        # away from those retired before it, so the state saved at 63
        # replays from 93.
        guns = SCENES["apart"]
        events, split = splits(guns, 400, ships)
        assert (len(events), split) == (26, 93)
        assert events == unjumped(guns, 400, ships)
        assert splits(guns, 8000, ships)[1] == 93

    def test_two_guns_side_by_side(self, ships):
        # The gun and a copy 62 cells to the left and 26 down fire
        # parallel streams.  Each later copy of a glider slides back
        # along its stream, so its gap to a glider of the other stream
        # shrinks at first, but one side of it is well over 3 and only
        # widens: the state saved at 63 replays from 93.
        guns = SCENES["side"]
        for horizon in (400, 2000, 8000):
            assert splits(guns, horizon, ships)[1] == 93, horizon
        events = detect_emissions(guns, 2000, ships)
        assert len(events) == 130
        assert events == unjumped(guns, 2000, ships)

    def test_guns_and_battery_with_nothing_to_retire(self, ships):
        # The mirrored guns' gliders stay inside the box of the two guns
        # until they meet, and the battery's gliders never escape, so no
        # ship leaves the board and the splits stay as they were.
        for scene, horizon, count, split in [
            (SCENES["mirrored"], 1000, 66, 123),
            (gun_battery(23), 300, 0, 93),
        ]:
            events, taken, returned, _ = spied(scene, horizon, ships)
            assert (len(events), taken, returned) == (count, 0, 0)
            assert splits(scene, horizon, ships) == (events, split)

    @pytest.mark.parametrize(
        "name, split, count",
        [
            ("gun", 45, 13),
            ("battery", 93, 0),
            ("apart", 93, 26),
            ("blinker", 93, 12),
            ("side", 93, 24),
            ("mirrored", 123, 26),
        ],
    )
    def test_split_and_event_counts(self, ships, name, split, count):
        # The census compares each state with its last two saves and
        # replays from the first the rule accepts.  It keeps the board's
        # box of every generation since the older save, so no period
        # lacks one: the gun replays from the state saved at 15, the
        # mirrored guns from 63 at 123, the others from 63 at 93.
        events, made = splits(SCENES[name], 400, ships)
        assert (made, len(events)) == (split, count)
        assert events == unjumped(SCENES[name], 400, ships)

    @pytest.mark.parametrize("name", SCENES)
    def test_the_replay_rule_reads_one_whole_period(self, ships, name):
        # Each call gets the board's box of every generation from the
        # save up to the one it is made at, and no other.
        calls, read = replay_calls(SCENES[name], 400, ships)
        assert calls
        for generation, saved_at, boxes in calls:
            assert len(boxes) == generation - saved_at > 0
            assert boxes == read[saved_at:generation]


def replays(retired, backs=(), move=(0, 0)):
    """Whether a replay of period 30 from generation 10 keeps apart.

    The board is empty through the period.
    """
    return detector._replay_keeps_apart(retired, [None] * 30, list(backs), 10, move)


def gap_at(ship, other, t):
    """The gap, in cells, between the hulls of two retired ships at generation t."""
    a = detector._shifted(ship.hull, ship.velocity, t)
    return detector._gap(a, detector._shifted(other.hull, other.velocity, t)) / ship.scale


def closest_copy(ship, other, period, move, copies=4, span=300):
    """The least gap, in cells, from ship to copies 1..copies of other.

    Each copy is taken over the span generations from its retirement,
    period and move later than the one before, by brute force.
    """
    s, least = ship.scale, None
    for k, tau in itertools.product(range(1, copies + 1), range(span)):
        t = other.generation + k * period + tau
        copy = detector._shifted(other.hull, other.velocity, t - k * period)
        copy = detector._shifted(copy, move, k * s)
        gap = detector._gap(copy, detector._shifted(ship.hull, ship.velocity, t))
        least = gap if least is None else min(least, gap)
    return least / s


def retire(ships, corner, dx, dy, generation=0):
    """A glider moving by (dx, dy) each period of 4, or an LWSS for a move
    of 2 along an axis, retired at generation with its box corner at corner."""
    phases = {s: e for r in ships for s, e in detector._phase_entries(r)}
    [report] = [r for r in ships if r.displacement == (dx, dy) and r.period == 4]
    key = (Board(report.phases[0]).shape()[0], corner)
    return detector._retired(key, generation, phases, 4)


MOVES = [(1, 1), (1, -1), (-1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]


@st.composite
def retirements(draw):
    """A glider or LWSS in any orientation, at a random corner and generation."""
    corner = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
    return draw(corner), *draw(st.sampled_from(MOVES)), draw(st.integers(0, 40))


class TestRetirementRules:
    """The hull gaps that keep retired ships apart, on hand-placed gliders.

    A glider moving by (dx, dy) each period of 4, or an LWSS for a move
    of 2 along an axis, is retired at generation 0 with its box corner at
    corner.
    """

    @pytest.fixture()
    def glider(self, ships):
        return functools.partial(retire, ships)

    def test_ships_retire_only_if_they_never_close_in(self, glider):
        ahead = glider((0, 0), 1, 1)
        assert detector._clear(glider((-10, -10), 1, 1), ahead)
        assert detector._clear(glider((-20, 0), -1, 1), ahead)
        # Same velocity, too close; then head-on 20 apart, still 3 clear now.
        assert not detector._clear(glider((-4, -4), 1, 1), ahead)
        assert not detector._clear(glider((20, 20), -1, -1), ahead)

    def test_a_side_that_widens_is_all_a_retirement_needs(self, glider):
        # In the older glider's frame a glider flying (-1, 1) drifts by
        # (-1/2, 1/2) cells a generation.  This one starts 4.5 cells to
        # its right and 3 below: the gap, set by the side to the right,
        # shrinks, but the side below is 3 already and only widens.
        older = glider((0, 0), 1, -1)
        below = glider((8, 6), -1, 1)
        assert [gap_at(older, below, t) for t in (0, 1)] == [4.5, 4.0]
        assert detector._clear(below, older)
        assert min(gap_at(older, below, t) for t in range(300)) == 4
        # The trade: this one, retiring at 10, starts 3 to the right and
        # 2.5 below, so no side is 3 and widens, and it stays on the
        # board, though the side below reaches 3 a generation later and
        # it never comes within 3.  Such a refusal costs only splits.
        close = glider((9, 3), -1, 1, generation=10)
        assert [gap_at(older, close, t) for t in (10, 11)] == [3, 3]
        assert not detector._clear(close, older)
        assert min(gap_at(older, close, t) for t in range(10, 310)) == 3

    def test_replay_follows_the_copies_of_the_ships_retired_in_it(self, glider):
        # Period 30 from generation 10, move 0, like a gun: each copy of a
        # ship retired in the period lands 7.5 cells behind the one
        # before.  The older glider, retired at 0, is at (2.5, 2.5) by 10;
        # one retired at 10 a period or two ahead of it has a copy that
        # runs into it.
        older = glider((0, 0), 1, 1)
        for corner, exact in [((-5, -5), True), ((10, 10), False), ((18, 18), False)]:
            newer = glider(corner, 1, 1, generation=10)
            assert replays([older, newer]) is exact
        # A ship retired in the period at another velocity whose copies
        # only draw away replays.
        aside = glider((-60, 60), -1, 1, generation=10)
        assert replays([older, aside])
        assert closest_copy(older, aside, 30, (0, 0)) >= 3
        assert replays([older])

    def test_a_ship_at_another_velocity_needs_a_side_that_widens(self, glider):
        # In the older glider's frame, each copy of a ship retired in the
        # period lands w further on than the one before, and then drifts
        # by u, the velocity difference, from the generation it retires.
        older = glider((0, 0), 1, 1)
        # Shrinks along u: on a board moving 15 cells right a period, as
        # a c/2 rake does, the copies of a glider flying (-1, 1) start 6
        # cells to the right of the older one, and each lands 7.5 cells
        # further right, but each then drifts back half a cell a
        # generation, and crosses it.
        crossing = glider((4, 12), -1, 1, generation=10)
        # Shrinks along w: on a still board, the copies of a glider
        # flying (1, -1) start 7.75 cells to its right and keep that
        # while they drift, but each lands 7.5 cells further left.
        behind = glider((20, 14), 1, -1, generation=10)
        for ship, move in [(crossing, (15, 0)), (behind, (0, 0))]:
            assert detector._clear(ship, older)
            assert not replays([older, ship], move=move)
            assert closest_copy(older, ship, 30, move) < 3

    def test_ships_put_back_in_the_period(self, glider):
        older = glider((0, 0), 1, 1)
        # A ship retired before the period and back in it refuses; one
        # back at the generation saved came back before that state.
        early = glider((-30, -30), 1, 1, generation=5)
        assert not replays([older], [(early, 20)])
        assert replays([older], [(early, 10)])
        # A ship retired and back in the period does the same in every
        # later one, so the box it sweeps meanwhile moves on by whole
        # periods as the board's boxes do.
        for corner, exact in [((-5, -5), True), ((10, 10), False)]:
            newer = glider(corner, 1, 1, generation=12)
            assert replays([older], [(newer, 25)]) is exact
        # At another velocity the sweep runs from where the ship retired
        # to where it came back.  On a board moving 15 cells a period
        # along y, each copy of an LWSS flying (2, 0) from 12 to 38 is
        # clear of the older glider at both ends, but not on the way.
        lwss = glider((0, -4), 2, 0, generation=12)
        assert not replays([older], [(lwss, 38)], move=(0, 15))
        assert closest_copy(older, lwss, 30, (0, 15), span=27) < 3

    @given(
        retirements(),
        retirements(),
        st.integers(1, 60),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_clear_ship_never_comes_within_3(self, ships, a, b, period, move):
        # Whatever _clear accepts, brute force finds at least 3 cells
        # apart: the ship over 300 generations from its retirement, or
        # each of four copies a period and move on over as long.
        o, ship = retire(ships, *a), retire(ships, *b)
        if detector._clear(o, ship):
            span = range(o.generation, o.generation + 300)
            assert min(gap_at(o, ship, t) for t in span) >= 3
        (vx, vy), (mx, my) = ship.velocity, move
        if detector._clear(o, ship, (mx * 4 - period * vx, my * 4 - period * vy)):
            assert closest_copy(ship, o, period, move) >= 3


def gun_near_the_edge():
    """The catalog gun with its box 600 cells from COORD_MAX on both axes.

    Its gliders fly to (+1/4, +1/4), towards that corner.
    """
    gun = catalog_pattern("gosper_gun")
    _, _, x1, y1 = bounding_box(gun)
    return translate(gun, COORD_MAX - 600 - x1, COORD_MAX - 600 - y1)


def test_step_n_refuses_the_gun_at_the_64_bit_edge():
    message = "at generation 2416 reaches the edge"
    with pytest.raises(CoordinateOverflowError, match=message):
        step_n(gun_near_the_edge(), 3000)


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="the census takes escaped gliders off the board, so its board never "
    "reaches the edge that iterated step reaches at generation 2416 (ROADMAP item 11)",
)
def test_the_census_refuses_where_step_n_does(ships):
    with pytest.raises(CoordinateOverflowError):
        detect_emissions(gun_near_the_edge(), 3000, ships)
