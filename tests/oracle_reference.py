"""Token oracle kept as the straightforward loop, used only as a cross-check.

Builds both velocities as fresh ``Fraction`` objects for every case and
compares the run's v12 with the law's value by ``!=``, so it shares
nothing with the package's unit-fraction table or its integer
cross-check.  The law is a parameter, so a patched law can be replayed
here and in ``tokens.exhaustive_check`` alike.
"""

from __future__ import annotations

from fractions import Fraction

from lifeframes.kinematics import compose_parallel
from lifeframes.tokens import OracleReport, ScheduleError, run_carrier_bullet


def exhaustive_check_reference(
    max_total_moves: int, law=compose_parallel
) -> OracleReport:
    """Every feasible (P, n1, n2) schedule against ``law(n1/P, n2/(P-n1))``."""
    if max_total_moves < 1:
        raise ScheduleError("need at least one move")
    cases = 0
    bad: list[tuple[int, int, int]] = []
    for p in range(1, max_total_moves + 1):
        for n1 in range(p + 1):
            rest = p - n1
            v1 = Fraction(n1, p)
            for n2 in range(rest + 1):
                v2 = Fraction(n2, rest) if rest else Fraction(0)
                simulated = run_carrier_bullet(p, n1, n2).v12
                if simulated != law(v1, v2):
                    bad.append((p, n1, n2))
                cases += 1
    return OracleReport(max_total_moves, cases, tuple(bad))
