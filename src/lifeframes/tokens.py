"""Jump-or-rest token schedules: discrete motion stripped to the bone.

A token on a file of squares makes P moves, each either a one-square
jump or a stay; after n jumps in P moves its velocity is n/P.  Two
tokens never move on the same move, so a bullet riding a carrier can
only jump while the carrier rests.  That scheduling constraint is the
whole mechanism behind the composition law, and simulating the
schedules directly gives an independent check of the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .kinematics import compose_parallel

__all__ = [
    "TokenRun",
    "CarrierBulletRun",
    "OracleReport",
    "ScheduleError",
    "run_carrier_bullet",
    "run_pawn_duel",
    "exhaustive_check",
]


class ScheduleError(ValueError):
    """An infeasible or conflicting move schedule."""


@dataclass(frozen=True)
class TokenRun:
    """One token's schedule: which of its P moves were jumps."""

    total_moves: int
    jump_moves: frozenset[int]

    def __post_init__(self):
        if self.total_moves < 1:
            raise ScheduleError("need at least one move")
        if not all(0 <= t < self.total_moves for t in self.jump_moves):
            raise ScheduleError("jump index outside the move range")

    @property
    def displacement(self) -> int:
        return len(self.jump_moves)

    @property
    def velocity(self) -> Fraction:
        return Fraction(self.displacement, self.total_moves)

    @property
    def trace(self) -> tuple[int, ...]:
        """Position after each move."""
        pos = 0
        out = []
        for t in range(self.total_moves):
            pos += t in self.jump_moves
            out.append(pos)
        return tuple(out)


@dataclass(frozen=True)
class CarrierBulletRun:
    """A bullet carried through P moves, jumping only on carrier rests."""

    total_moves: int
    carrier_jumps: frozenset[int]
    bullet_jumps: frozenset[int]

    def __init__(
        self,
        total_moves: int,
        carrier_jumps: frozenset[int],
        bullet_jumps: frozenset[int],
    ) -> None:
        # The generated frozen __init__ pays one object.__setattr__ per field.
        fields = self.__dict__
        fields["total_moves"] = total_moves
        fields["carrier_jumps"] = carrier_jumps
        fields["bullet_jumps"] = bullet_jumps

    @property
    def displacement(self) -> int:
        """Ground displacement: carried jumps plus the bullet's own."""
        return len(self.carrier_jumps) + len(self.bullet_jumps)

    @property
    def v12(self) -> Fraction:
        return Fraction(self.displacement, self.total_moves)

    @property
    def trace(self) -> tuple[int, ...]:
        """Bullet's ground position after each move."""
        pos = 0
        out = []
        for t in range(self.total_moves):
            pos += (t in self.carrier_jumps) or (t in self.bullet_jumps)
            out.append(pos)
        return tuple(out)


# Default runs share their jump sets: 4096 spans of fewer than 64 moves
# stay under ~10 MB.
@lru_cache(maxsize=4096)
def _span(start: int, stop: int) -> frozenset[int]:
    return frozenset(range(start, stop))


def _pick(pool: Sequence[int], k: int, chosen: Iterable[int] | None) -> frozenset[int]:
    if chosen is None:
        return frozenset(pool[:k])
    picked = frozenset(chosen)
    if len(picked) != k or not picked <= set(pool):
        raise ScheduleError("explicit schedule does not fit the available moves")
    return picked


def run_carrier_bullet(
    total_moves: int,
    carrier_jump_count: int,
    bullet_jump_count: int,
    carrier_jumps: Iterable[int] | None = None,
    bullet_jumps: Iterable[int] | None = None,
) -> CarrierBulletRun:
    """Schedule a carrier and its bullet over P moves and run them.

    The carrier jumps on carrier_jump_count moves; the bullet jumps on
    bullet_jump_count of the remaining rest moves.  Default placement
    is earliest-first; explicit move sets may be supplied instead (the
    resulting velocity must not depend on them).  Default jump sets of
    fewer than 64 moves come from a bounded cache, so runs share them.
    """
    p = total_moves
    if p < 1:
        raise ScheduleError("need at least one move")
    if not 0 <= carrier_jump_count <= p:
        raise ScheduleError(f"carrier cannot jump {carrier_jump_count} of {p} moves")
    rest_count = p - carrier_jump_count
    if not 0 <= bullet_jump_count <= rest_count:
        raise ScheduleError(
            f"bullet cannot jump {bullet_jump_count} times in "
            f"{rest_count} carrier rest moves"
        )
    if carrier_jumps is None and bullet_jumps is None:
        n1, n2 = carrier_jump_count, bullet_jump_count
        # For counts >= 0, n1 | n2 is below 64 exactly when both are, and
        # | refuses a float, which could otherwise find an equal int's span.
        if n1 | n2 < 64:
            return CarrierBulletRun(p, _span(0, n1), _span(n1, n1 + n2))
        return CarrierBulletRun(p, frozenset(range(n1)), frozenset(range(n1, n1 + n2)))
    carrier = _pick(range(p), carrier_jump_count, carrier_jumps)
    if carrier_jumps is None:
        rests: Sequence[int] = range(carrier_jump_count, p)
    else:
        rests = [t for t in range(p) if t not in carrier]
    bullet = _pick(rests, bullet_jump_count, bullet_jumps)
    return CarrierBulletRun(p, carrier, bullet)


def run_pawn_duel(
    total_moves: int,
    white_jumps: Iterable[int],
    black_jumps: Iterable[int],
) -> int:
    """Closing displacement of two tokens approaching head-on.

    The two never move simultaneously (overlapping schedules are
    rejected), so the closing distance over P moves is capped at P:
    the combined speed never beats light.
    """
    white = TokenRun(total_moves, frozenset(white_jumps))
    black = TokenRun(total_moves, frozenset(black_jumps))
    if white.jump_moves & black.jump_moves:
        raise ScheduleError("simultaneous move requested")
    return white.displacement + black.displacement


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the token-versus-formula sweep."""

    max_total_moves: int
    cases: int
    counterexamples: tuple[tuple[int, int, int], ...]

    @property
    def consistent(self) -> bool:
        return not self.counterexamples


def exhaustive_check(max_total_moves: int) -> OracleReport:
    """Compare every feasible (P, n1, n2) schedule against the formula.

    Each case runs its schedule, run_carrier_bullet(P, n1, n2), and the
    formula, compose_parallel(n1/P, n2/(P-n1)), once each; the runs share
    their jump sets through run_carrier_bullet's bounded cache.  When n1 = P
    the carrier never rests and only n2 = 0 is feasible; its undefined
    0/0 bullet velocity is taken as 0, matching the absorbing light case.
    The inputs come from one table of unit fractions per call, unit[d][n]
    = n/d with unit[0] = [0].  The run's v12 = displacement/P is compared
    with the formula's L as displacement * L.denominator != L.numerator * P,
    which is exact because P > 0 and L.denominator > 0; a law returning a
    plain int works too.
    """
    if isinstance(max_total_moves, bool) or not isinstance(max_total_moves, int):
        kind = type(max_total_moves).__name__
        raise TypeError(f"max_total_moves must be an int, not {kind}")
    if max_total_moves < 1:
        raise ScheduleError("need at least one move")
    unit = [[Fraction(0)]] + [
        [Fraction(n, d) for n in range(d + 1)] for d in range(1, max_total_moves + 1)
    ]
    cases = 0
    bad: list[tuple[int, int, int]] = []
    for p in range(1, max_total_moves + 1):
        for n1 in range(p + 1):
            v1 = unit[p][n1]
            by_n2 = unit[p - n1]
            for n2 in range(p - n1 + 1):
                moved = run_carrier_bullet(p, n1, n2).displacement
                law = compose_parallel(v1, by_n2[n2])
                if moved * law.denominator != law.numerator * p:
                    bad.append((p, n1, n2))
            cases += p - n1 + 1
    return OracleReport(max_total_moves, cases, tuple(bad))
