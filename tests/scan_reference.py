"""Brute-force deviation scan used only as a cross-check.

Visits every point of the grid {0, 1/M, .., 1}^2 in row-major order and
keeps the first strict maximum, so it shares nothing with the package's
row-wise bisection beyond the formula for the gap itself.
"""

from __future__ import annotations

from fractions import Fraction

from lifeframes.kinematics import DeviationReport


def scan_all_points(m: int) -> DeviationReport:
    """Exact maximum gap over the (m+1)^2 grid and its first grid point.

    The value at (i/M, j/M) is i*j*(M-i)*(M-j) / (M^2 * (M^2 + i*j));
    candidates are compared by cross-multiplication.
    """
    m2 = m * m

    best_num, best_den = 0, 1
    best_i, best_j = 0, 0
    for i in range(m + 1):
        left = m - i
        for j in range(m + 1):
            ij = i * j
            num = ij * left * (m - j)
            den = m2 * (m2 + ij)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_i, best_j = i, j
    return DeviationReport(
        v1=Fraction(best_i, m),
        v2=Fraction(best_j, m),
        delta=Fraction(best_num, best_den),
    )
