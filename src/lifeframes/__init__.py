"""Velocity translation on the Life board, verified by simulation.

The package pairs an exact-rational implementation of the moving-frame
composition laws with a sparse Life engine and a detector that
measures ship kinematics from raw evolution, so every law can be
checked against what the board actually does.
"""

from .catalog import CATALOG, CatalogEntry, catalog_pattern, gun_battery, ship_catalog
from .detector import (
    EmissionEvent,
    ShipReport,
    detect_emissions,
    detect_ship,
)
from .engine import (
    CoordinateOverflowError,
    EmptyPatternError,
    ExplosiveGrowthError,
    Pattern,
    bounding_box,
    canonicalize,
    population,
    step,
    step_n,
    translate,
)
from .kinematics import (
    CompositionResult,
    DeviationReport,
    Velocity2,
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
from .patterns import (
    PatternDocument,
    PatternFormatError,
    emit_plaintext,
    emit_rle,
    parse_auto,
    parse_plaintext,
    parse_rle,
)
from .tokens import (
    CarrierBulletRun,
    OracleReport,
    ScheduleError,
    TokenRun,
    exhaustive_check,
    run_carrier_bullet,
    run_pawn_duel,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CarrierBulletRun",
    "CatalogEntry",
    "CompositionResult",
    "CoordinateOverflowError",
    "DeviationReport",
    "EmissionEvent",
    "EmptyPatternError",
    "ExplosiveGrowthError",
    "OracleReport",
    "Pattern",
    "PatternDocument",
    "PatternFormatError",
    "ScheduleError",
    "ShipReport",
    "TokenRun",
    "Velocity2",
    "bounding_box",
    "canonicalize",
    "catalog_pattern",
    "chebyshev_speed",
    "compose_oblique",
    "compose_parallel",
    "detect_emissions",
    "detect_ship",
    "deviation",
    "direction_degrees",
    "direction_tangent",
    "emit_plaintext",
    "emit_rle",
    "exhaustive_check",
    "galilean",
    "gun_battery",
    "invert_oblique",
    "lorentz",
    "max_deviation_scan",
    "parse_auto",
    "parse_plaintext",
    "parse_rle",
    "polar_components",
    "population",
    "run_carrier_bullet",
    "run_pawn_duel",
    "ship_catalog",
    "step",
    "step_n",
    "translate",
]
