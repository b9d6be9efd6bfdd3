import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import evolve_dense
from lifeframes import engine
from lifeframes.engine import (
    COORD_MAX,
    CoordinateOverflowError,
    EmptyPatternError,
    Pattern,
    bounding_box,
    canonicalize,
    population,
    step,
    step_n,
    translate,
)

GLIDER = frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)})

# The glider's four successive shapes, written out cell by cell, with
# the whole cycle shifted one cell right and one down after four steps.
GLIDER_PHASES = [
    frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}),
    frozenset({(0, 0), (2, 0), (1, 1), (2, 1), (1, 2)}),
    frozenset({(2, 0), (0, 1), (2, 1), (1, 2), (2, 2)}),
    frozenset({(0, 0), (1, 1), (2, 1), (0, 2), (1, 2)}),
]

BLOCK = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
BLINKER = frozenset({(0, 0), (1, 0), (2, 0)})


def cells_strategy(max_coord=24, max_size=40):
    coord = st.integers(min_value=0, max_value=max_coord)
    return st.frozensets(st.tuples(coord, coord), max_size=max_size)


@st.composite
def crowded_cells(draw, side):
    """Cells of a side x side square, one row bitmask each, often near half full."""
    rows = draw(st.lists(st.integers(0, 2**side - 1), min_size=side, max_size=side))
    return frozenset(
        (x, y) for y, row in enumerate(rows) for x in range(side) if row >> x & 1
    )


def test_glider_phase_cycle():
    q = Pattern(GLIDER)
    for expected in GLIDER_PHASES:
        canon, _ = canonicalize(q)
        assert canon.cells == expected
        q = step(q)
    assert q.cells == {(x + 1, y + 1) for x, y in GLIDER}


def test_glider_population_is_five():
    assert population(Pattern(GLIDER)) == 5


def test_block_is_a_fixed_point():
    assert step(Pattern(BLOCK)).cells == BLOCK


def test_blinker_flips_and_returns():
    once = step(Pattern(BLINKER))
    assert once.cells == {(1, -1), (1, 0), (1, 1)}
    assert step(once).cells == BLINKER


def test_step_increments_generation():
    p = Pattern(BLOCK, generation=7)
    assert step(p).generation == 8
    assert step_n(p, 5).generation == 12


def test_empty_pattern_stays_empty():
    p = Pattern()
    assert step(p).cells == frozenset()
    assert step_n(p, 1000).cells == frozenset()
    assert step_n(p, 1000).generation == 1000


def test_bounding_box_of_empty_raises():
    with pytest.raises(EmptyPatternError):
        bounding_box(Pattern())
    with pytest.raises(EmptyPatternError):
        canonicalize(Pattern())


def test_bounding_box_of_block():
    assert bounding_box(Pattern(BLOCK)) == (0, 0, 1, 1)
    assert (1, 1) in Pattern(BLOCK) and (2, 1) not in Pattern(BLOCK)


def test_step_n_rejects_negative():
    with pytest.raises(ValueError):
        step_n(Pattern(BLOCK), -1)


def test_step_n_zero_is_identity():
    p = Pattern(GLIDER, generation=3)
    assert step_n(p, 0) is p


@pytest.mark.parametrize("bad", [0.5, 1.0, True], ids=["float", "whole float", "bool"])
def test_a_coordinate_that_is_not_an_integer_is_refused(bad):
    # Taken as it came, 0.5 made step and step_n disagree, and True was 1.
    p = Pattern(BLINKER | {(bad, 9)})
    for run in (step, lambda p: step_n(p, 1)):
        with pytest.raises(TypeError, match="must be an int"):
            run(p)


@pytest.mark.parametrize("kind", [np.int32, np.int64])
def test_translate_and_canonicalize_take_numpy_integers_as_ints(kind):
    # In numpy's arithmetic each wrapped around at the int32 edge.
    lo, hi = kind(-(2**31)), kind(2**31 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = translate(Pattern(frozenset({(hi, kind(0))})), 1, kind(hi))
        canon, offset = canonicalize(Pattern(frozenset({(lo, kind(0)), (lo + 1, kind(0))})))
    assert moved == Pattern(frozenset({(2**31, 2**31 - 1)}))
    assert canon == Pattern(frozenset({(0, 0), (1, 0)})) and offset == (-(2**31), 0)
    ints = [c for p in (moved, canon) for cell in p.cells for c in cell]
    assert all(type(c) is int for c in ints + list(offset))
    with pytest.raises(TypeError, match="must be an int"):
        canonicalize(Pattern(frozenset({(0.5, 0)})))
    with pytest.raises(TypeError, match="dx must be an int"):
        translate(Pattern(BLINKER), 0.5, 0)


def test_overflow_guard_near_coordinate_limit():
    p = Pattern(frozenset({(COORD_MAX, 0), (COORD_MAX, 1), (COORD_MAX - 1, 0)}))
    with pytest.raises(CoordinateOverflowError):
        step(p)


def test_step_n_overflow_guard_counts_generations():
    # A still life 10 cells from the edge never reaches it, so it runs
    # any number of generations; one at the edge is refused before its
    # first step, at its own generation, by step_n as by step.
    p = translate(Pattern(BLOCK), COORD_MAX - 10, 0)
    assert step_n(p, 11) == Pattern(p.cells, 11)
    assert step_n(p, 2**70) == Pattern(p.cells, 2**70)
    edge = translate(Pattern(BLOCK, 5), COORD_MAX - 1, 0)
    for run in (step, lambda q: step_n(q, 1)):
        with pytest.raises(CoordinateOverflowError, match="at generation 5 reaches"):
            run(edge)


def test_far_coordinates_still_evolve():
    far = translate(Pattern(GLIDER), 2**40, -(2**40))
    assert step_n(far, 4).cells == translate(
        Pattern(GLIDER), 2**40 + 1, -(2**40) + 1
    ).cells


CORNERS = [(0, 0), (-(2**40), 7), (2**40, -(2**40))]


def _two_gliders(gap: int, axis: int, corner: tuple[int, int], cells=GLIDER) -> set:
    """Glider cells at corner and gap cells further along axis (0 = x, 1 = y)."""
    x0, y0 = corner
    sx, sy = (gap, 0) if axis == 0 else (0, gap)
    return {(x + x0 + k * sx, y + y0 + k * sy) for x, y in cells for k in (0, 1)}


def _dense_two_gliders(gap: int, axis: int, corner: tuple[int, int], n: int) -> set:
    """Each glider evolved alone on the dense grid, then put back in place."""
    return _two_gliders(gap, axis, corner, evolve_dense(GLIDER, n))


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError(f"{name} should not run")

    monkeypatch.setattr(engine, name, forbidden)


def _squeezes(monkeypatch, repacks=None):
    """Count the calls of engine._squeeze, and of Board._repack in repacks."""
    calls, squeeze, repack = [], engine._squeeze, engine.Board._repack

    def counted(*args):
        calls.append(args[1])
        return squeeze(*args)

    def repacked(*args, **kwargs):
        repacks.append(args[0].generation)
        return repack(*args, **kwargs)

    monkeypatch.setattr(engine, "_squeeze", counted)
    if repacks is not None:
        monkeypatch.setattr(engine.Board, "_repack", repacked)
    return calls


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("corner", CORNERS)
def test_board_wider_than_the_fields_takes_the_python_path(monkeypatch, axis, corner):
    # It does not: the board runs packed, with its empty band squeezed.
    _forbid(monkeypatch, "_evolve_py")
    _forbid(monkeypatch, "step")
    repacks = []
    squeezes = _squeezes(monkeypatch, repacks)
    gap, n = 2**31, 8
    board = Pattern(frozenset(_two_gliders(gap, axis, corner)))
    assert step_n(board, n).cells == _dense_two_gliders(gap, axis, corner, n)
    # Each re-pack squeezes once, for far more generations than the run.
    assert len(squeezes) == len(repacks) > 0 and min(squeezes) > 2**28


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("corner", CORNERS)
def test_board_at_the_edge_of_the_extent_window(monkeypatch, n, axis, corner):
    # The board is gap + 3 wide, and both gliders fly the same way, so
    # it keeps one free cell a side in a 2**31-cell field whatever the
    # run's length; one more cell gets its empty band squeezed.  Neither
    # runs the Python pass.
    gap = 2**31 - 5
    for width, squeezed in ((gap, False), (gap + 1, True)):
        board = Pattern(frozenset(_two_gliders(width, axis, corner)))
        with monkeypatch.context() as patched:
            _forbid(patched, "_evolve_py")
            _forbid(patched, "step")
            squeezes = _squeezes(patched)
            got = step_n(board, n).cells
        assert got == _dense_two_gliders(width, axis, corner, n)
        assert bool(squeezes) == squeezed


def test_a_glider_refused_at_the_edge_runs_no_python(monkeypatch):
    # The board's own 64-bit refusal passes through step_n as it is: no
    # unpacking and no step to raise it again.
    glider = translate(Pattern(GLIDER), COORD_MAX - 1002, 0)
    refused = (
        f"box ({COORD_MAX - 2}, 1000, {COORD_MAX}, 1002) at generation 3999 "
        "reaches the edge of the signed 64-bit coordinate range"
    )
    _forbid(monkeypatch, "_evolve_py")
    _forbid(monkeypatch, "step")
    _forbid(monkeypatch, "_squeeze")

    def unpacked(self):
        raise AssertionError("Board.pattern should not run")

    monkeypatch.setattr(engine.Board, "pattern", unpacked)
    with pytest.raises(CoordinateOverflowError) as err:
        step_n(glider, 10**6)
    assert str(err.value) == refused


def test_two_blocks_far_apart_jump_a_billion_generations(monkeypatch):
    # The squeezed board is a still life, so it jumps: a few kernel steps,
    # also to the top of the 64-bit range.
    blocks = Pattern(BLOCK | {(x + 2**31, y) for x, y in BLOCK})
    steps, evolve = [], engine._evolve_np

    def counted(*args):
        steps.append(1)
        return evolve(*args)

    monkeypatch.setattr(engine, "_evolve_np", counted)
    _forbid(monkeypatch, "_evolve_py")
    assert step_n(blocks, 10**9) == Pattern(blocks.cells, 10**9)
    assert 0 < len(steps) < 20
    assert step_n(blocks, COORD_MAX) == Pattern(blocks.cells, COORD_MAX)
    assert len(steps) < 40


@given(cells_strategy())
def test_determinism(cells):
    p = Pattern(cells)
    assert step(p).cells == step(p).cells


@given(cells_strategy(), st.integers(-50, 50), st.integers(-50, 50))
def test_translation_equivariance(cells, dx, dy):
    p = Pattern(cells)
    assert step(translate(p, dx, dy)).cells == translate(step(p), dx, dy).cells


@given(cells_strategy())
def test_locality_chebyshev_one(cells):
    p = Pattern(cells)
    after = step(p).cells
    for x, y in after:
        assert any(
            max(abs(x - ox), abs(y - oy)) <= 1 for ox, oy in cells
        ), "a cell appeared farther than a king move from everything"


@given(cells_strategy(), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=60)
def test_step_n_composes(cells, a, b):
    p = Pattern(cells)
    assert step_n(p, a + b).cells == step_n(step_n(p, a), b).cells


@given(cells_strategy(max_coord=16, max_size=30), st.integers(1, 8))
@settings(max_examples=60)
def test_step_n_agrees_with_repeated_step(cells, n):
    p = Pattern(cells)
    q = p
    for _ in range(n):
        q = step(q)
    assert step_n(p, n).cells == q.cells


# Crowded boards of up to 144 cells give cells 3 to 8 live neighbors.
@given(
    st.one_of(cells_strategy(max_coord=11, max_size=36), crowded_cells(12)),
    st.integers(0, 10),
)
@settings(max_examples=80, deadline=None)
def test_agrees_with_dense_reference(cells, n):
    assert step_n(Pattern(cells), n).cells == evolve_dense(cells, n)


# Both branches of the packed step: the census hands it the split's sort.
@given(st.one_of(cells_strategy(max_coord=11, max_size=36), crowded_cells(12)).filter(bool))
@example(frozenset({(0, 0)}))
@example(BLOCK)
@example(frozenset({(0, 0), (1, 0), (5, 5)}))  # dies out
@settings(max_examples=80, deadline=None, derandomize=True)
def test_packed_step_with_and_without_the_neighbor_sort(cells):
    # The margin keeps the neighbor keys of cells from 0 up in the fields.
    keys = engine._pack(cells, (-1, -1))
    want = engine._pack(engine._evolve_py(cells), (-1, -1)).tolist()
    assert engine._evolve_np(keys).tolist() == want
    assert engine._evolve_np(keys, engine._neighbor_sort(keys)[0]).tolist() == want


def test_dense_reference_sample_sweep():
    rng = random.Random(20260822)
    for _ in range(50):
        cells = frozenset(
            (rng.randrange(12), rng.randrange(12))
            for _ in range(rng.randrange(10, 60))
        )
        assert step_n(Pattern(cells), 10).cells == evolve_dense(cells, 10)


def test_canonicalize_round_trip():
    p = translate(Pattern(GLIDER), -17, 9)
    canon, (ox, oy) = canonicalize(p)
    assert bounding_box(canon)[:2] == (0, 0)
    assert translate(canon, ox, oy).cells == p.cells
