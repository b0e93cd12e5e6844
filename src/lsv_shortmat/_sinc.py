"""Taylor series in v = -u of the kernel f(u) = cos(sqrt u),
g(u) = sin(sqrt u)/sqrt u and of g', g'' (d/du), shared by both variance
factors.  Twelve terms leave a truncation error below 1e-18 for |u| <= 1,
where the closed forms of g' and g'' lose digits to cancellation."""

import math

COS_SERIES = tuple(1.0 / math.factorial(2 * k) for k in range(12))
SINC_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(12))
SINC_D1_SERIES = tuple(-(k + 1) / math.factorial(2 * k + 3) for k in range(12))
SINC_D2_SERIES = tuple((k + 2) * (k + 1) / math.factorial(2 * k + 5) for k in range(12))


def horner(coeffs: tuple, v: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc
