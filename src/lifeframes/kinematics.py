"""Exact velocity-frame arithmetic for Life patterns.

Velocities are cells per generation with the speed of light c = 1 cell
per generation; speed is the Chebyshev magnitude max(|vx|, |vy|), the
metric under which a diagonal step costs the same as an orthogonal one.
Everything here is ``fractions.Fraction`` arithmetic, no rounding:

* the board law  v12 = v1 + v2 - v1*v2  (equivalently 1 - (1-v1)(1-v2))
  for a bullet fired parallel to its carrier's course,
* its two-component form for an oblique shot,
* the Galilean sum and the Lorentz formula as comparison baselines,
* the exact gap between the Lorentz and board laws, with a grid scanner
  for its maximum,
* the inverse transform recovering a bullet's carrier-frame velocity
  from what a ground observer measures.

Floats are rejected everywhere; feed exact rationals end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Union

__all__ = [
    "Velocity2",
    "CompositionResult",
    "DeviationReport",
    "compose_parallel",
    "compose_oblique",
    "direction_tangent",
    "direction_degrees",
    "polar_components",
    "galilean",
    "lorentz",
    "deviation",
    "max_deviation_scan",
    "invert_oblique",
    "chebyshev_speed",
]

Law = Literal["life", "galilean", "lorentz"]

Rationalish = Union[Fraction, int]


def _exact(value: Rationalish, name: str) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational, not a float")
    return Fraction(value)


def _unit_interval(value: Rationalish, name: str) -> Fraction:
    v = _exact(value, name)
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return v


@dataclass(frozen=True)
class Velocity2:
    """A velocity as exact per-axis components, Chebyshev speed <= 1."""

    vx: Fraction
    vy: Fraction

    def __post_init__(self):
        object.__setattr__(self, "vx", _exact(self.vx, "vx"))
        object.__setattr__(self, "vy", _exact(self.vy, "vy"))
        if max(abs(self.vx), abs(self.vy)) > 1:
            raise ValueError(
                f"({self.vx}, {self.vy}) exceeds the speed of light"
            )

    def __str__(self) -> str:
        return f"({self.vx}, {self.vy})"


@dataclass(frozen=True)
class CompositionResult:
    """Ground-frame velocity, the law that produced it, and its direction.

    ``tan_chi`` is the exact direction tangent v12y/v12x, or None when
    the x component vanishes (a vertical course, or no motion at all).
    """

    v12: Velocity2
    law: Law
    tan_chi: Fraction | None


@dataclass(frozen=True)
class DeviationReport:
    """The exact Lorentz-minus-board gap at one parallel velocity pair."""

    v1: Fraction
    v2: Fraction
    delta: Fraction


def chebyshev_speed(v: Velocity2) -> Fraction:
    """max(|vx|, |vy|): how a Life board measures speed."""
    return max(abs(v.vx), abs(v.vy))


def compose_parallel(v1: Rationalish, v2: Rationalish) -> Fraction:
    """Ground speed of a bullet fired along its carrier's course.

    v1 + v2 - v1*v2, exactly, normalised once.  Fixes 1 (light is
    light in every frame) and never leaves [0, 1] for inputs in [0, 1].
    """
    # _unit_interval's checks, inlined so each part is read only once
    a = v1 if type(v1) is Fraction else _exact(v1, "v1")
    an, ad = a.numerator, a.denominator
    if not 0 <= an <= ad:
        raise ValueError(f"v1 must lie in [0, 1], got {a}")
    b = v2 if type(v2) is Fraction else _exact(v2, "v2")
    bn, bd = b.numerator, b.denominator
    if not 0 <= bn <= bd:
        raise ValueError(f"v2 must lie in [0, 1], got {b}")
    return Fraction(an * bd + bn * ad - an * bn, ad * bd)


def galilean(v1: Rationalish, v2: Rationalish) -> Fraction:
    """Plain velocity sum, the baseline that breaks the light bound."""
    return _exact(v1, "v1") + _exact(v2, "v2")


def lorentz(v1: Rationalish, v2: Rationalish) -> Fraction:
    """(v1 + v2) / (1 + v1*v2), the special-relativity comparison law."""
    a = _exact(v1, "v1")
    b = _exact(v2, "v2")
    if a * b == -1:
        raise ValueError("lorentz composition undefined at v1*v2 = -1")
    return (a + b) / (1 + a * b)


def compose_oblique(v1: Rationalish, bullet: Velocity2) -> CompositionResult:
    """Ground-frame components of a bullet fired at any angle.

    The carrier moves at v1 along x; the bullet's components are given
    in the carrier's frame.  Ground components come out as

        v12x = v1 + (1 - v1) * v2x
        v12y = (1 - v1) * v2y

    Signed bullet components are accepted (the inverse transform needs
    them), so v12x may point against the carrier's course.
    """
    a = _exact(v1, "v1")
    if not 0 <= a < 1:
        raise ValueError(f"carrier velocity must lie in [0, 1), got {a}")
    rest = 1 - a
    v12 = Velocity2(a + rest * bullet.vx, rest * bullet.vy)
    tan_chi = None if v12.vx == 0 else v12.vy / v12.vx
    return CompositionResult(v12=v12, law="life", tan_chi=tan_chi)


def direction_tangent(
    result: CompositionResult | Velocity2,
) -> Fraction | None:
    """Exact course tangent v12y/v12x; None for a purely vertical course."""
    v = result.v12 if isinstance(result, CompositionResult) else result
    if v.vx == 0:
        if v.vy == 0:
            raise ValueError("a zero velocity has no direction")
        return None
    return v.vy / v.vx


def direction_degrees(v: Velocity2) -> float:
    """Course angle in degrees, display only (floating point)."""
    return math.degrees(math.atan2(float(v.vy), float(v.vx)))


def polar_components(
    v2: Rationalish, tan_psi: Fraction | int | None
) -> Velocity2:
    """(v2*cos, v2*sin) for a nominal speed and direction tangent.

    The nominal polar speed carries no board meaning (no Pythagoras on
    a Life grid), so this is a convenience restricted to the cases
    where the components come out exactly rational: an axis-aligned
    course, or a tangent from a Pythagorean triple.  ``tan_psi=None``
    means straight along y.
    """
    speed = _unit_interval(v2, "v2")
    if tan_psi is None:
        return Velocity2(Fraction(0), speed)
    t = _exact(tan_psi, "tan_psi")
    hyp2 = t.numerator**2 + t.denominator**2
    hyp = math.isqrt(hyp2)
    if hyp * hyp != hyp2:
        raise ValueError(
            f"tan psi = {t} has irrational cos/sin; "
            "supply the velocity components directly"
        )
    cos = Fraction(t.denominator, hyp)
    sin = Fraction(t.numerator, hyp)
    return Velocity2(speed * cos, speed * sin)


def invert_oblique(v1: Rationalish, v12: Velocity2) -> Velocity2:
    """Recover the carrier-frame bullet from its ground-frame velocity.

    Exact inverse of ``compose_oblique``:  v2x = (v12x - v1)/(1 - v1),
    v2y = v12y/(1 - v1).  Raises if the given ground velocity is not
    reachable from any light-bounded bullet on this carrier.
    """
    a = _exact(v1, "v1")
    if not 0 <= a < 1:
        raise ValueError(f"carrier velocity must lie in [0, 1), got {a}")
    rest = 1 - a
    return Velocity2((v12.vx - a) / rest, v12.vy / rest)


def deviation(v1: Rationalish, v2: Rationalish) -> DeviationReport:
    """Exact amount by which Lorentz overshoots the board law.

    delta = v1*v2*(1 - v1 - v2 + v1*v2) / (1 + v1*v2), which equals
    lorentz(v1, v2) - compose_parallel(v1, v2) identically.
    """
    a = _unit_interval(v1, "v1")
    b = _unit_interval(v2, "v2")
    delta = a * b * (1 - a - b + a * b) / (1 + a * b)
    return DeviationReport(v1=a, v2=b, delta=delta)


def _row_peak(m: int, i: int) -> int:
    """First j in [0, M] maximizing j*(M-j) / (M^2 + i*j), for 0 < i < M."""
    m2 = m * m
    lo, hi = 0, m - 1
    while lo < hi:
        j = (lo + hi) // 2
        ij = i * j
        # g_i(j) >= g_i(j+1), with the row's factor i*(M-i)/M^2 cancelled
        if j * (m - j) * (m2 + ij + i) >= (j + 1) * (m - j - 1) * (m2 + ij):
            hi = j
        else:
            lo = j + 1
    return lo


def max_deviation_scan(step: Rationalish) -> DeviationReport:
    """Maximize the deviation over the grid {0, step, .., 1}^2, exactly.

    ``step`` must divide 1.  Runs in pure integer arithmetic: with
    step = 1/M the value at (i/M, j/M) is

        g_i(j) = i*(M-i) * j*(M-j) / (M^2 * (M^2 + i*j))

    Rows i = 0 and i = M are all zero.  For 0 < i < M and lam > 0,
    g_i(j) >= lam exactly where a strictly concave quadratic in j,
    i*(M-i)*j*(M-j) - lam*M^2*(M^2 + i*j), is >= 0.  So on the integers
    g_i rises strictly to its maximum, on one j or two adjacent ones,
    and falls strictly after it: the first j with g_i(j) >= g_i(j+1),
    found by bisection in integer cross-multiplication, is the row's
    first maximizer.  Row peaks are compared in row order with a
    strict >, so the result is the exact maximum and its first grid
    point in row-major order, in about 2*M*log2(M) evaluations
    instead of (M+1)^2.
    """
    s = _exact(step, "step")
    if s <= 0 or (1 / s).denominator != 1:
        raise ValueError(f"step must be a positive divisor of 1, got {s}")
    m = int(1 / s)
    m2 = m * m

    best_num, best_den = 0, 1
    best_i, best_j = 0, 0
    for i in range(1, m):
        j = _row_peak(m, i)
        num = i * (m - i) * j * (m - j)
        den = m2 * (m2 + i * j)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            best_i, best_j = i, j
    return DeviationReport(
        v1=Fraction(best_i, m),
        v2=Fraction(best_j, m),
        delta=Fraction(best_num, best_den),
    )
