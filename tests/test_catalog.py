from fractions import Fraction as F

import numpy as np
import pytest

from lifeframes.catalog import (
    CATALOG,
    catalog_pattern,
    entry,
    gun_battery,
    gun_unit,
    named_ship_catalog,
    ship_catalog,
)
from lifeframes.detector import detect_ship
from lifeframes.engine import step_n

EXPECTED_POPULATIONS = {
    "glider": 5,
    "block": 4,
    "blinker": 3,
    "lwss": 9,
    "eater1": 7,
    "gosper_gun": 36,
}


def test_every_entry_parses():
    for item in CATALOG:
        pattern = catalog_pattern(item.name)
        assert len(pattern) == EXPECTED_POPULATIONS[item.name]


def test_expected_measurements_hold():
    for item in CATALOG:
        if item.expected is None:
            continue
        period, displacement = item.expected
        report = detect_ship(catalog_pattern(item.name))
        assert report is not None, item.name
        assert report.period == period, item.name
        assert report.displacement == displacement, item.name


def test_unknown_name_lists_the_known_ones():
    with pytest.raises(KeyError, match="glider"):
        entry("gliider")


def test_named_ship_catalog_covers_eight_orientations():
    named = named_ship_catalog()
    assert len(named) == 8
    velocities = {report.velocity for _, report in named}
    diagonal = {(F(sx, 4), F(sy, 4)) for sx in (-1, 1) for sy in (-1, 1)}
    axial = {(F(-1, 2), F(0)), (F(1, 2), F(0)), (F(0), F(-1, 2)), (F(0), F(1, 2))}
    assert velocities == diagonal | axial
    assert {name for name, _ in named} == {"glider", "lwss"}
    assert all(report.kind == "ship" for _, report in named)


def test_ship_catalog_matches_named_listing():
    assert {r.velocity for r in ship_catalog()} == {
        report.velocity for _, report in named_ship_catalog()
    }


def test_gun_unit_is_absorbing():
    unit = gun_unit()
    assert len(unit) == 43
    later = step_n(unit, 300)
    again = step_n(later, 30)
    assert later.cells == again.cells
    assert len(later) <= 100


def test_battery_population_scales_linearly():
    assert len(gun_battery(2)) == 86
    assert len(gun_battery(23)) == 989


def test_battery_stays_bounded():
    peak = 0
    current = gun_battery(2)
    for _ in range(10):
        current = step_n(current, 30)
        peak = max(peak, len(current))
    assert peak < 2 * 86 + 60


def test_battery_needs_a_unit():
    with pytest.raises(ValueError):
        gun_battery(0)


@pytest.mark.parametrize("units", [True, "2", 2.0])
def test_battery_counts_units_in_ints(units):
    with pytest.raises(TypeError, match=r"^units must be an int, not "):
        gun_battery(units)


def test_battery_takes_numpy_integers():
    assert gun_battery(np.int64(2)) == gun_battery(2)
    assert len(gun_battery(np.int64(2))) == 86
