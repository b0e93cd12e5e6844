"""Taylor series in v = -u of g(u) = sin(sqrt u)/sqrt u, g', g'' (d/du) and
(k - 1 + u/3) g / v^2, (m - 1 - u/6) g / v^2 for k = cos(sqrt u) / g and
m = 1 / g, shared by both variance factors.  Ten terms of each leave a
truncation error below 1e-18 for |u| <= 1, where the closed forms cancel."""

import math

SINC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(12))
SINC_D1_SERIES = tuple(-(k + 1) / math.factorial(2 * k + 3) for k in range(12))
SINC_D2_SERIES = tuple((k + 2) * (k + 1) / math.factorial(2 * k + 5) for k in range(12))
K_DEV_SERIES = tuple(-4 * n * (n - 1) / (3 * math.factorial(2 * n + 1)) for n in range(2, 12))
M_DEV_SERIES = tuple((2 * n + 3) * (n - 1) / (3 * math.factorial(2 * n + 1)) for n in range(2, 12))


def horner(coeffs: tuple, v: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc
