"""Deviation scans used only as cross-checks.

``scan_all_points`` visits every point of the grid {0, 1/M, .., 1}^2 in
row-major order and keeps the first strict maximum, so it shares nothing
with the package's row-wise peak search beyond the formula for the gap
itself.  ``row_peak_by_bisection`` finds a row's first maximizer by
bisection, with no closed form for the real peak.
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


def row_peak_by_bisection(m: int, i: int) -> int:
    """First j in [0, M] maximizing j*(M-j) / (M^2 + i*j), for 0 < i < M.

    Row i rises strictly to its maximum and falls strictly after it, so
    the first j with g_i(j) >= g_i(j+1) is bisected for in integers.
    """
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
