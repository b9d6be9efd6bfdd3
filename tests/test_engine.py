import random

import pytest
from hypothesis import given, settings
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


def test_bounding_box_of_block():
    assert bounding_box(Pattern(BLOCK)) == (0, 0, 1, 1)


def test_step_n_rejects_negative():
    with pytest.raises(ValueError):
        step_n(Pattern(BLOCK), -1)


def test_step_n_zero_is_identity():
    p = Pattern(GLIDER, generation=3)
    assert step_n(p, 0) is p


def test_overflow_guard_near_coordinate_limit():
    p = Pattern(frozenset({(COORD_MAX, 0), (COORD_MAX, 1), (COORD_MAX - 1, 0)}))
    with pytest.raises(CoordinateOverflowError):
        step(p)


def test_step_n_overflow_guard_counts_generations():
    p = translate(Pattern(BLOCK), COORD_MAX - 10, 0)
    step_n(p, 9)
    with pytest.raises(CoordinateOverflowError):
        step_n(p, 11)


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


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("corner", CORNERS)
def test_board_wider_than_the_fields_takes_the_python_path(monkeypatch, axis, corner):
    _forbid(monkeypatch, "_evolve_np")
    gap, n = 2**31, 8
    board = Pattern(frozenset(_two_gliders(gap, axis, corner)))
    assert step_n(board, n).cells == _dense_two_gliders(gap, axis, corner, n)


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("corner", CORNERS)
def test_board_at_the_edge_of_the_extent_window(monkeypatch, n, axis, corner):
    # The board is gap + 3 wide, so extent plus 2 x generations exactly
    # fills a 2**31-cell field; one more cell sends it to Python.
    gap = 2**31 - 2 * n - 3
    for width, unused in ((gap, "_evolve_py"), (gap + 1, "_evolve_np")):
        board = Pattern(frozenset(_two_gliders(width, axis, corner)))
        with monkeypatch.context() as patched:
            _forbid(patched, unused)
            got = step_n(board, n).cells
        assert got == _dense_two_gliders(width, axis, corner, n)


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


@given(cells_strategy(max_coord=11, max_size=36), st.integers(0, 10))
@settings(max_examples=80)
def test_agrees_with_dense_reference(cells, n):
    assert step_n(Pattern(cells), n).cells == evolve_dense(cells, n)


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
