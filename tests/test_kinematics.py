import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scan_reference import row_peak_by_bisection, scan_all_points

from lifeframes.kinematics import (
    CompositionResult,
    DeviationReport,
    Velocity2,
    _row_peak,
    chebyshev_speed,
    compose_oblique,
    compose_parallel,
    deviation,
    direction_degrees,
    direction_tangent,
    galilean,
    invert_oblique,
    lorentz,
    max_deviation_scan,
    polar_components,
)

unit = st.fractions(min_value=0, max_value=1, max_denominator=64)
signed = st.fractions(min_value=-1, max_value=1, max_denominator=32)
carrier = st.fractions(min_value=0, max_value=F(63, 64), max_denominator=64)


@st.composite
def shared_denominators(draw):
    """Two unit-interval fractions whose denominators share a factor."""
    k = draw(st.integers(min_value=2, max_value=30))
    d1 = k * draw(st.integers(min_value=1, max_value=30))
    d2 = k * draw(st.integers(min_value=1, max_value=30))
    n1 = draw(st.integers(min_value=0, max_value=d1))
    n2 = draw(st.integers(min_value=0, max_value=d2))
    return F(n1, d1), F(n2, d2)


class _Rational(F):
    """A Fraction subclass: accepted, but handed back as a plain Fraction."""


class TestWorkedNumbers:
    def test_equal_halves(self):
        assert compose_parallel(F(1, 2), F(1, 2)) == F(3, 4)

    def test_mixed_pair(self):
        assert compose_parallel(F(2, 5), F(1, 2)) == F(7, 10)

    def test_galilean_overshoots(self):
        assert galilean(F(2, 5), F(1, 2)) == F(9, 10)

    def test_lorentz_lands_between(self):
        assert lorentz(F(2, 5), F(1, 2)) == F(3, 4)

    def test_deviation_of_mixed_pair(self):
        assert deviation(F(2, 5), F(1, 2)).delta == F(1, 20)

    def test_light_absorbs_everything(self):
        assert compose_parallel(F(7, 9), 1) == 1
        assert compose_parallel(1, 1) == 1


class TestOblique:
    def test_straight_up_from_quarter_carrier(self):
        result = compose_oblique(F(1, 4), Velocity2(0, F(1, 3)))
        assert result.v12 == Velocity2(F(1, 4), F(1, 4))
        assert result.tan_chi == 1
        assert result.law == "life"

    def test_carrier_at_rest_changes_nothing(self):
        bullet = Velocity2(F(1, 3), F(-1, 4))
        assert compose_oblique(0, bullet).v12 == bullet

    def test_reduces_to_parallel(self):
        result = compose_oblique(F(2, 5), Velocity2(F(1, 2), 0))
        assert result.v12 == Velocity2(F(7, 10), 0)
        assert result.tan_chi == 0

    def test_vertical_result_has_no_tangent(self):
        result = compose_oblique(F(1, 2), Velocity2(-1, F(1, 2)))
        assert result.v12.vx == 0
        assert result.tan_chi is None

    def test_carrier_must_be_below_light(self):
        with pytest.raises(ValueError):
            compose_oblique(1, Velocity2(0, F(1, 2)))
        with pytest.raises(ValueError):
            compose_oblique(F(-1, 4), Velocity2(0, F(1, 2)))


class TestInverse:
    def test_embryo_of_ground_glider(self):
        rider = invert_oblique(F(1, 2), Velocity2(F(1, 4), F(1, 4)))
        assert rider == Velocity2(F(-1, 2), F(1, 2))

    def test_identity_frame(self):
        v = Velocity2(F(1, 4), F(-1, 4))
        assert invert_oblique(0, v) == v

    def test_unreachable_ground_velocity(self):
        with pytest.raises(ValueError, match="speed of light"):
            invert_oblique(F(1, 2), Velocity2(0, 1))

    def test_carrier_bound(self):
        with pytest.raises(ValueError):
            invert_oblique(1, Velocity2(0, 0))


class TestDirections:
    def test_diagonal_tangent(self):
        assert direction_tangent(Velocity2(F(1, 4), F(1, 4))) == 1

    def test_accepts_composition_result(self):
        result = compose_oblique(F(1, 4), Velocity2(0, F(1, 3)))
        assert direction_tangent(result) == 1

    def test_vertical_is_none(self):
        assert direction_tangent(Velocity2(0, F(1, 2))) is None

    def test_zero_velocity_rejected(self):
        with pytest.raises(ValueError, match="no direction"):
            direction_tangent(Velocity2(0, 0))

    def test_degrees_are_display_floats(self):
        assert direction_degrees(Velocity2(F(1, 4), F(1, 4))) == pytest.approx(45.0)
        assert direction_degrees(Velocity2(F(-1, 4), F(1, 4))) == pytest.approx(135.0)


class TestPolar:
    def test_pythagorean_tangent(self):
        assert polar_components(F(5, 12), F(3, 4)) == Velocity2(F(1, 3), F(1, 4))

    def test_axis_courses(self):
        assert polar_components(F(1, 2), 0) == Velocity2(F(1, 2), 0)
        assert polar_components(F(1, 2), None) == Velocity2(0, F(1, 2))

    def test_irrational_tangent_rejected(self):
        with pytest.raises(ValueError, match="irrational"):
            polar_components(F(1, 2), F(1, 2))

    def test_diagonal_needs_components_not_polar(self):
        # tan 45 deg would need cos = 1/sqrt(2); the glider's course is
        # expressible only componentwise.
        with pytest.raises(ValueError, match="irrational"):
            polar_components(F(1, 4), 1)


class TestGuards:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            compose_parallel(0.5, F(1, 2))
        with pytest.raises(TypeError):
            Velocity2(0.25, F(1, 4))
        with pytest.raises(TypeError):
            lorentz(F(1, 2), 0.5)

    def test_unit_interval_enforced(self):
        with pytest.raises(ValueError):
            compose_parallel(F(3, 2), 0)
        with pytest.raises(ValueError):
            deviation(0, F(-1, 4))

    @pytest.mark.parametrize(
        "fn, args, error, message",
        [
            (compose_parallel, (F(3, 2), 0), ValueError, "v1 must lie in [0, 1], got 3/2"),
            (compose_parallel, (0, -1), ValueError, "v2 must lie in [0, 1], got -1"),
            (compose_parallel, (0.5, 0), TypeError, "v1 must be an exact rational, not a float"),
            (compose_parallel, (0, 0.5), TypeError, "v2 must be an exact rational, not a float"),
            # v1 is checked in full before v2 is looked at
            (compose_parallel, (F(3, 2), 0.5), ValueError, "v1 must lie in [0, 1], got 3/2"),
            (deviation, (F(3, 2), 0), ValueError, "v1 must lie in [0, 1], got 3/2"),
            (deviation, (0, -1), ValueError, "v2 must lie in [0, 1], got -1"),
            (deviation, (0.5, 0), TypeError, "v1 must be an exact rational, not a float"),
            (deviation, (0, 0.5), TypeError, "v2 must be an exact rational, not a float"),
            (polar_components, (F(3, 2), 0), ValueError, "v2 must lie in [0, 1], got 3/2"),
            (polar_components, (-1, None), ValueError, "v2 must lie in [0, 1], got -1"),
            (polar_components, (0.5, 0), TypeError, "v2 must be an exact rational, not a float"),
        ],
    )
    def test_error_messages_are_pinned(self, fn, args, error, message):
        with pytest.raises(error) as caught:
            fn(*args)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_velocity_light_bound(self):
        with pytest.raises(ValueError, match="speed of light"):
            Velocity2(F(5, 4), 0)

    def test_velocity_str(self):
        assert str(Velocity2(F(1, 4), F(-1, 3))) == "(1/4, -1/3)"

    def test_galilean_may_break_light(self):
        assert galilean(F(3, 4), F(3, 4)) == F(3, 2)

    def test_lorentz_pole(self):
        with pytest.raises(ValueError):
            lorentz(1, -1)

    def test_chebyshev_speed(self):
        assert chebyshev_speed(Velocity2(F(1, 4), F(-1, 2))) == F(1, 2)


class TestExactInputs:
    @given(
        unit,
        st.floats(min_value=0, max_value=1),
        st.sampled_from([float, np.float64]),
    )
    def test_floats_refused_in_either_place(self, v, x, kind):
        x = kind(x)
        for args in ((x, v), (v, x)):
            with pytest.raises(TypeError):
                compose_parallel(*args)
            with pytest.raises(TypeError):
                Velocity2(*args)

    @given(st.sampled_from([0, 1, False, True]), unit)
    def test_ints_and_bools_accepted(self, n, v):
        assert compose_parallel(n, v) == compose_parallel(F(n), v)
        assert compose_parallel(v, n) == compose_parallel(v, F(n))
        assert Velocity2(n, v) == Velocity2(F(n), v)

    @given(unit, unit)
    def test_fraction_subclass_accepted(self, a, b):
        result = compose_parallel(_Rational(a), _Rational(b))
        assert type(result) is F
        assert result == compose_parallel(a, b)
        v = Velocity2(_Rational(a), _Rational(b))
        assert type(v.vx) is F and type(v.vy) is F
        assert v == Velocity2(a, b)

    @given(st.one_of(st.tuples(unit, unit), shared_denominators()))
    @example((F(1, 6), F(1, 4)))  # 9/24 before normalising
    def test_equals_operator_form_and_is_normalised(self, pair):
        a, b = pair
        result = compose_parallel(a, b)
        assert type(result) is F
        assert result == a + b - a * b
        assert result.denominator > 0
        assert math.gcd(result.numerator, result.denominator) == 1


class TestScan:
    def test_coarse_grid_peaks_at_center(self):
        report = max_deviation_scan(F(1, 4))
        assert report == DeviationReport(F(1, 2), F(1, 2), F(1, 20))

    def test_matches_direct_maximization(self):
        m = 10
        best = max(
            (deviation(F(i, m), F(j, m)).delta, F(i, m), F(j, m))
            for i in range(m + 1)
            for j in range(m + 1)
        )
        report = max_deviation_scan(F(1, m))
        assert report.delta == best[0]

    def test_first_maximizer_in_row_major_order(self):
        m = 10
        report = max_deviation_scan(F(1, m))
        for i in range(m + 1):
            for j in range(m + 1):
                d = deviation(F(i, m), F(j, m)).delta
                if d == report.delta:
                    assert (report.v1, report.v2) == (F(i, m), F(j, m))
                    return
        pytest.fail("scan maximum not on its own grid")

    def test_equals_the_full_grid_scan(self):
        for m in [*range(1, 151), 256, 500]:
            assert max_deviation_scan(F(1, m)) == scan_all_points(m), m

    @pytest.mark.parametrize("m", [*range(2, 41), 105, 231, 390])
    def test_row_peak_is_the_first_maximizer_of_its_row(self, m):
        # Row 5 of M=10, row 27 of M=36 and one row each of M=105, 231
        # and 390 peak on two adjacent j; the first of the two must win.
        for i in range(1, m):
            row = [F(j * (m - j), m * m + i * j) for j in range(m + 1)]
            assert _row_peak(m, i) == row.index(max(row)), (m, i)

    @pytest.mark.parametrize("m", [1000, 65536])
    def test_row_peak_equals_the_bisection_on_every_row(self, m):
        for i in range(1, m):
            assert _row_peak(m, i) == row_peak_by_bisection(m, i), (m, i)

    def test_thousandth_grid_is_pinned(self):
        assert max_deviation_scan(F(1, 1000)) == DeviationReport(
            F(453, 1000), F(453, 1000), F(61400379681, 1205209000000)
        )

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError):
            max_deviation_scan(F(2, 3))
        with pytest.raises(ValueError):
            max_deviation_scan(0)


@given(unit, unit)
def test_closure(a, b):
    assert 0 <= compose_parallel(a, b) <= 1


@given(unit, unit)
def test_commutativity(a, b):
    assert compose_parallel(a, b) == compose_parallel(b, a)


@given(unit, unit, unit)
def test_associativity(a, b, c):
    assert compose_parallel(compose_parallel(a, b), c) == compose_parallel(
        a, compose_parallel(b, c)
    )


@given(unit, unit, unit)
def test_monotonicity(a, b, c):
    lo, hi = min(a, b), max(a, b)
    assert compose_parallel(lo, c) <= compose_parallel(hi, c)


@given(unit)
def test_absorbing_light(v):
    assert compose_parallel(v, 1) == 1
    assert compose_parallel(1, v) == 1


@given(unit)
def test_rest_is_identity(v):
    assert compose_parallel(v, 0) == v


@given(unit, unit)
def test_factorized_form(a, b):
    assert 1 - compose_parallel(a, b) == (1 - a) * (1 - b)


@given(unit, unit)
def test_deviation_is_lorentz_minus_board(a, b):
    assert deviation(a, b).delta == lorentz(a, b) - compose_parallel(a, b)


@given(unit, unit)
def test_deviation_nonnegative(a, b):
    assert deviation(a, b).delta >= 0


@given(unit, unit)
def test_dominance(a, b):
    assume(0 < a < 1 and 0 < b < 1)
    assert compose_parallel(a, b) < lorentz(a, b) < galilean(a, b)


@given(carrier, unit)
def test_oblique_reduction(v1, v2x):
    result = compose_oblique(v1, Velocity2(v2x, 0))
    assert result.v12.vx == compose_parallel(v1, v2x)
    assert result.v12.vy == 0


@given(carrier, signed, signed)
def test_oblique_stays_light_bounded(v1, v2x, v2y):
    result = compose_oblique(v1, Velocity2(v2x, v2y))
    assert chebyshev_speed(result.v12) <= 1


@given(carrier, signed, signed)
def test_inverse_round_trip(v1, v2x, v2y):
    bullet = Velocity2(v2x, v2y)
    ground = compose_oblique(v1, bullet).v12
    assert invert_oblique(v1, ground) == bullet


@given(carrier, signed, signed)
def test_forward_round_trip(v1, gx, gy):
    ground = Velocity2(gx, gy)
    try:
        bullet = invert_oblique(v1, ground)
    except ValueError:
        assume(False)
    assert compose_oblique(v1, bullet).v12 == ground


@given(carrier, signed, signed)
def test_tangent_matches_components(v1, v2x, v2y):
    result = compose_oblique(v1, Velocity2(v2x, v2y))
    if result.v12.vx == 0:
        assert result.tan_chi is None
    else:
        assert result.tan_chi == result.v12.vy / result.v12.vx
