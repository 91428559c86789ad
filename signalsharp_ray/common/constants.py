"""Numeric tolerance constants.

The exact values are load-bearing for golden-output parity with the
reference engine (variance clamps, zero checks, positivity checks);
see /root/reference/SignalSharp/Common/Constants.cs:20-48.
"""

DEFAULT_EPSILON = 1e-9
STRICT_EPSILON = 1e-12
DEFAULT_RELATIVE_EPSILON = 1e-7
VARIANCE_EPSILON = 1e-10


def is_effectively_zero(x: float, eps: float = DEFAULT_EPSILON) -> bool:
    return abs(x) < eps

