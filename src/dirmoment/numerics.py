"""Shared numeric plumbing: constants and float serialization.

The two constants used by closed-form expressions are pinned as 20-digit
literals so results do not depend on the host libm:
    EULER_GAMMA  Euler-Mascheroni constant
    ZETA2        zeta(2) = pi^2 / 6
"""

from __future__ import annotations

import math

__all__ = ["EULER_GAMMA", "ZETA2", "fmt_float"]

EULER_GAMMA = 0.57721566490153286061
ZETA2 = 1.6449340668482264365


def fmt_float(x: float) -> str:
    """Shortest-exact decimal rendering used by all file output."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")
