"""Exact half-integer Gamma values and binomials.

All combinatorial factors (factorials, binomials with half-integer entries,
Gamma values at half-integers) are kept exact.  A number q * pi^(k/2) is
carried as the pair (q, k) of a Fraction q and an int k; floats appear only
when the caller converts such a pair at the very end of a pipeline.
"""

from __future__ import annotations

import math
from fractions import Fraction


def half_integer_binomial(j: int, k: int, n: int) -> Fraction:
    """Exact C(j-1+n/2, k+n/2) for integer j >= 1, 0 <= k <= j-1, dimension n >= 1.

    Evaluates the product formula
        prod_{i=k+1}^{j-1} (i + n/2) / (j-1-k)!
    (empty product = 1).  For even n this agrees with the ordinary integer
    binomial C(j-1+n/2, k+n/2).
    """
    if n <= 0:
        raise ValueError(f"dimension must be positive, got {n}")
    if j < 1:
        raise ValueError(f"j must be a positive integer, got {j}")
    if k < 0 or k > j - 1:
        raise ValueError(f"k must satisfy 0 <= k <= j-1, got k={k}, j={j}")
    half_n = Fraction(n, 2)
    prod = Fraction(1)
    for i in range(k + 1, j):
        prod *= i + half_n
    return prod / math.factorial(j - 1 - k)


def gamma_half_integer(two_z: int) -> tuple[Fraction, int] | None:
    """Exact Gamma(two_z / 2) = q * pi^(k/2) as the pair (q, k), for any
    integer two_z.

    Odd two_z = 2m + 1: Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi) for
    m >= 0, and Gamma(1/2 - m) = (-4)^m m! / (2m)! sqrt(pi) for m > 0.
    Even two_z > 0: the factorial (two_z/2 - 1)!.
    Even two_z <= 0: None, a pole of Gamma.  A pole is a legitimate value
    (it signals an absent expansion coefficient in even dimension), not an
    error.
    """
    if two_z % 2 == 0:
        z = two_z // 2
        if z <= 0:
            return None
        return Fraction(math.factorial(z - 1)), 0
    m = abs(two_z - 1) // 2
    ratio = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
    return (ratio if two_z > 0 else (-1) ** m / ratio), 1
