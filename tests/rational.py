"""An exact rational oracle for the order-p change of variable.

Every float is a rational number, and ``fractions.Fraction`` converts it
exactly.  The finite-level change of variable

    f(S_u) - f(S_0) - sum_j sum_{k=1}^{p-1} f^(k)(S_j) dS_j^k / k!
        = 1/(p-1)! sum_j int_(min, max] |S_{j+1} - x|^(p-1) d f^(p-1)(x)

is Taylor's formula with integral remainder on each interval, summed, so
on any float path it holds exactly in Q.  Here both sides are recomputed
from that definition in Fractions: no engine code, no float rounding and no
summation order.  The test functions are written out by hand:

- :class:`AbsPow`, |x - a|^(p-1): its (p-1)-th derivative steps from
  -(p-1)! to (p-1)! at a (right-continuous), so the remainder is the atom
  2 (p-1)! |S_{j+1} - a|^(p-1) on every interval whose bracket (min, max]
  holds a;
- :class:`Poly`, a polynomial: the remainder is the density f^(p),
  integrated exactly against |S_{j+1} - x|^(p-1).

:func:`tanaka_meyer_plus` does the same for the Tanaka-Meyer identity of
the positive part at a level a,

    ((S_u - a)^+)^(p-1) - ((S_0 - a)^+)^(p-1)
        - sum_j 1(S_j > a) {(S_{j+1} - a)^(p-1) - (S_j - a)^(p-1)}
        = sum_j 1_(min, max](a) |S_{j+1} - a|^(p-1),

which holds exactly in Q on every interval whose left end is not a: a
sample equal to a breaks it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Sequence


class AbsPow:
    """|x - a|^(p-1), with derivatives taken on the piece right of x."""

    def __init__(self, a: float, p: int):
        self.a, self.p = Fraction(a), p

    def derivative(self, x: Fraction, k: int) -> Fraction:
        d = self.p - 1
        sign = 1 if x >= self.a else -1
        return sign * Fraction(factorial(d), factorial(d - k)) * (x - self.a) ** (d - k)

    def remainder(self, a: Fraction, b: Fraction) -> Fraction:
        """int over (min, max] of |b - x|^(p-1) d f^(p-1)(x)."""
        if min(a, b) < self.a <= max(a, b):
            return 2 * factorial(self.p - 1) * abs(b - self.a) ** (self.p - 1)
        return Fraction(0)


class Poly:
    """The polynomial with ascending coefficients ``coeffs``."""

    def __init__(self, coeffs: Sequence[float], p: int):
        self.p = p
        c = [Fraction(v) for v in coeffs]
        # ascending coefficients of f, f', ..., f^(p): the last one is the density
        self.derived = [[c[i] * factorial(i) / factorial(i - k) for i in range(k, len(c))] for k in range(p + 1)]

    def derivative(self, x: Fraction, k: int) -> Fraction:
        return _horner(self.derived[k], x)

    def remainder(self, a: Fraction, b: Fraction) -> Fraction:
        """int from min to max of |b - x|^(p-1) f^(p)(x) dx, term by term:
        |b - x|^(p-1) is (b - x)^(p-1) below b and -(b - x)^(p-1) above it
        (p - 1 is odd)."""
        lo, hi = min(a, b), max(a, b)
        d = self.p - 1
        # (b - x)^d f^(p)(x) in powers of x, and its antiderivative
        coeffs = [Fraction(0)] * (d + len(self.derived[-1]))
        for m in range(d + 1):
            for i, g in enumerate(self.derived[-1]):
                coeffs[m + i] += comb(d, m) * (-1) ** m * b ** (d - m) * g
        antiderivative = [Fraction(0)] + [c / (n + 1) for n, c in enumerate(coeffs)]
        integral = _horner(antiderivative, hi) - _horner(antiderivative, lo)
        return integral if b == hi else -integral


def _horner(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


class Sides(NamedTuple):
    """Both sides of the identity on one level, exactly, and the sums of
    the magnitudes of the terms each side adds up."""

    lhs: Fraction
    rhs: Fraction
    lhs_magnitude: Fraction
    rhs_magnitude: Fraction


def _kept(level: Sequence[int], last: int) -> tuple:
    """The intervals ``(i, j)`` of ``level`` (grid indices) whose left end
    is at or before grid index ``last``, and the grid index where the last
    of them ends (0 if none is kept)."""
    points = [int(i) for i in level]
    kept = [(i, j) for i, j in zip(points, points[1:]) if i <= last]
    return kept, kept[-1][1] if kept else 0


def _sides(lhs_terms: list, rhs_terms: list) -> Sides:
    return Sides(sum(lhs_terms, Fraction(0)), sum(rhs_terms, Fraction(0)),
                 sum(map(abs, lhs_terms), Fraction(0)), sum(map(abs, rhs_terms), Fraction(0)))


def change_of_variable(values: Sequence[float], level: Sequence[int], last: int, p: int, f) -> Sides:
    """Both sides on the intervals of ``level`` (grid indices) whose left
    end is at or before grid index ``last``."""
    s = [Fraction(v) for v in values]
    kept, end = _kept(level, last)
    change = [f.derivative(s[end], 0), -f.derivative(s[0], 0)]
    compensator = [-f.derivative(s[i], k) * (s[j] - s[i]) ** k / factorial(k)
                   for i, j in kept for k in range(1, p)]
    return _sides(change + compensator, [f.remainder(s[i], s[j]) / factorial(p - 1) for i, j in kept])


def tanaka_meyer_plus(values: Sequence[float], level: Sequence[int], last: int, p: int, a: float) -> Sides:
    """Both sides of the plus-variant Tanaka-Meyer identity at level a, on
    the intervals of :func:`change_of_variable`: the positive part's power
    change less the compensated sum, and the discrete local time at a.
    Each power (S - a)^(p-1) of the compensated sum is a term of its own."""
    s = [Fraction(v) for v in values]
    a, d = Fraction(a), p - 1
    kept, end = _kept(level, last)
    change = [max(s[end] - a, 0) ** d, -max(s[0] - a, 0) ** d]
    compensator = [term for i, j in kept if s[i] > a for term in (-(s[j] - a) ** d, (s[i] - a) ** d)]
    local_time = [abs(s[j] - a) ** d for i, j in kept if min(s[i], s[j]) < a <= max(s[i], s[j])]
    return _sides(change + compensator, local_time)
