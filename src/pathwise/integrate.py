"""Compensated Riemann sums, test-function calculus and mollification.

The integral of ``f'(S)`` against a path of finite p-th variation is built
as the limit of order-p compensated Riemann sums

    sum_{t_j <= t} sum_{k=1}^{p-1} t_k(S_{t_j}) * (S_{t_{j+1}} - S_{t_j})^k,

with ``t_k = f^(k) / k!``.  Test functions give these Taylor coefficients,
not derivatives, all from one kernel, :func:`_taylor_shift`, and every
Taylor term of the package reads them without forming a factorial.

Test functions are piecewise polynomials; the remainder's measure
``d t_(p-1) = d f^(p-1) / (p-1)!`` is carried around explicitly as atoms
(so abs_pow's has mass 2 at every order) plus a piecewise-polynomial
density, whose part of each interval is Taylor's tail in closed form, so
compensated-sum remainders are paired against local times without
quadrature.

Pieces are stored in shifted bases (coefficients of ``(x - center)**k``
with the center at the piece's breakpoint); this avoids the catastrophic
cancellation that expanded monomial coefficients would cause near
breakpoints and keeps the per-level change-of-variable identity exact to
rounding.

Test functions outside the smooth class are mollified, ``f_m = f * phi_m``
with the standard bump.  Derivatives of ``f_m`` are convolution integrals
over the bump's support, split at the kinks of f into sub-spans where the
integrand is smooth and evaluated there by a fixed Gauss-Legendre rule, so
the module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._util import LevelStack, Table, bracket_contributions, check_level, even_order, ipow, unique_sorted
from .errors import CoverageError, ParameterError
from .localtime import SpaceGrid, _grid_level, occupation_density_local_time
from .paths import SampledPath

__all__ = [
    "TestFunction",
    "StieltjesMeasure",
    "SmoothCallable",
    "tanaka_class",
    "discrete_local_time_point",
    "stieltjes_pairing",
    "Mollifier",
    "mollify",
    "MollifiedFunction",
    "modified_follmer_integral",
    "ModifiedFollmerReport",
    "TANAKA_CLASS_NAMES",
    "DEFAULT_M_SCHEDULE",
    "ALT_M_SCHEDULE",
]

TANAKA_CLASS_NAMES = ("pos_part_pow", "neg_part_pow", "abs_pow", "poly", "x_pow_pm1")

# geometric mollification schedules: the support 1/m shrinks uniformly.
# Whether the two-parameter limit is schedule-independent has no finite
# certificate; running both built-ins and comparing finest sums is the
# available cross-check.
DEFAULT_M_SCHEDULE = (2, 4, 8, 16, 32)
ALT_M_SCHEDULE = (3, 9, 27)


def _taylor_shift(coeffs, h, order: int, pos=None) -> np.ndarray:
    """Entry k is ``P^(k)(h) / k!`` for k = 0 ... order, P the polynomial
    with ascending coefficients ``coeffs`` (first axis; each row gathered
    at the piece indices ``pos`` if given, and broadcast against h).  By
    synthetic division in one buffer: pass k runs Horner's rule,
    ``c_j += h * c_(j+1)``, down to index k, so entry k is final after pass
    k and pass 0 is Horner's rule for P(h).  Orders above the degree read 0.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    h = np.asarray(h, dtype=float)
    deg = coeffs.shape[0] - 1
    shape = np.broadcast_shapes(coeffs.shape[1:] if pos is None else np.shape(pos), h.shape)
    out = np.empty((max(deg, order) + 1,) + shape)
    for j, row in enumerate(coeffs):
        out[j] = row if pos is None else row.take(pos)
    out[deg + 1:] = 0.0
    for k in range(min(order, deg - 1) + 1):
        for j in range(deg - 1, k - 1, -1):
            out[j] += h * out[j + 1]
    return out[:order + 1]


def _taylor_sum(t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``sum_{k>=1} t[k] * d**k`` by Horner's rule in d: the Taylor step of
    every compensated sum, from the Taylor coefficients ``t`` (first axis)
    at the interval's left value and its increment d."""
    if len(t) < 2:
        return np.zeros_like(d)
    acc = t[-1]
    for tk in t[-2:0:-1]:
        acc = tk + d * acc
    return acc * d


def _derivative_taylor(f, x, order: int) -> np.ndarray:
    """``f^(k)(x) / k!`` for k = 0 ... order, from ``f.derivative``: the
    Taylor coefficients of a function given by its derivatives."""
    return np.array([np.asarray(f.derivative(x, k), dtype=float) / math.factorial(k) for k in range(order + 1)])


@dataclass(frozen=True)
class TestFunction:
    """Piecewise polynomial with exact Taylor coefficients.

    ``breakpoints`` are sorted; piece i covers ``[b_{i-1}, b_i)`` with the
    outer pieces unbounded, so evaluation at a breakpoint uses the right
    piece (right-continuous convention).  ``pieces[i]`` holds ascending
    coefficients of ``(x - centers[i])**k``.  ``smoothness`` is the declared
    class: one-sided derivatives up to that order match at every
    breakpoint (``None`` means infinitely smooth).
    """

    breakpoints: np.ndarray
    pieces: Tuple[np.ndarray, ...]
    centers: np.ndarray
    smoothness: Optional[int]
    name: str = ""
    # column i: the coefficients of piece i, zero-padded to the highest degree
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = np.asarray(self.breakpoints, dtype=float)
        pieces = tuple(np.asarray(c, dtype=float) for c in self.pieces)
        if not all(np.all(np.isfinite(x)) for x in (bps, *pieces)):
            raise ParameterError("test function breakpoints and coefficients must be finite")
        if bps.size and np.any(np.diff(bps) <= 0):
            raise ParameterError("breakpoints must be strictly increasing")
        if len(pieces) != bps.size + 1:
            raise ParameterError("need exactly len(breakpoints) + 1 pieces")
        if any(c.ndim != 1 or c.size == 0 for c in pieces):
            raise ParameterError("every piece needs a list of one or more coefficients")
        centers = np.asarray(self.centers, dtype=float)
        if centers.shape != (len(pieces),) or not np.all(np.isfinite(centers)):
            raise ParameterError(f"need one finite center per piece, got {centers.tolist()}")
        table = np.zeros((max(c.size for c in pieces), len(pieces)))
        for i, c in enumerate(pieces):
            table[:c.size, i] = c
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "_table", table)

    # -- evaluation -----------------------------------------------------

    def taylor(self, x, order: int) -> np.ndarray:
        """``f^(k)(x) / k!`` for k = 0 ... order, shaped ``(order + 1,) +
        x.shape``: each x's piece by one ``searchsorted``, its coefficients
        gathered by piece index and shifted to x by :func:`_taylor_shift`."""
        x = np.asarray(x, dtype=float)
        if len(self.pieces) == 1:
            return _taylor_shift(self._table[:, 0], x - self.centers[0], order)
        pos = np.searchsorted(self.breakpoints, x, side="right")
        return _taylor_shift(self._table, x - self.centers.take(pos), order, pos)

    def derivative(self, x, k: int = 0):
        """k-th derivative at x (k = 0 is the value itself): k! times the
        Taylor coefficient of order k; vectorized."""
        scalar = np.isscalar(x)
        out = math.factorial(k) * self.taylor(np.atleast_1d(np.asarray(x, dtype=float)), k)[k]
        return float(out[0]) if scalar else out

    def value(self, x):
        return self.derivative(x, 0)

    def _taylor_jumps(self, order: int) -> np.ndarray:
        """Per breakpoint, the jump of ``f^(order) / order!``: the right
        piece's Taylor coefficient there less the left piece's."""
        i = np.arange(self.breakpoints.size)
        right, left = (_taylor_shift(self._table, self.breakpoints - self.centers[j], order, j)[order]
                       for j in (i + 1, i))
        return right - left

    def jump(self, order: int, bp_index: int) -> float:
        """Jump of the order-th derivative across breakpoint ``bp_index``."""
        return math.factorial(order) * float(self._taylor_jumps(order)[bp_index])

    @property
    def degree(self) -> int:
        return max(int(c.size) - 1 for c in self.pieces)

    def smoothness_defect(self, up_to: int) -> float:
        """Largest one-sided mismatch of f, f', ..., f^(up_to) at the
        breakpoints; zero for an honestly declared smoothness class."""
        return max((math.factorial(k) * float(np.max(np.abs(self._taylor_jumps(k)), initial=0.0))
                    for k in range(up_to + 1)), default=0.0)

    def stieltjes_measure(self, order: int) -> "StieltjesMeasure":
        """The Lebesgue-Stieltjes measure ``d t_order`` of the Taylor
        coefficient ``t_order = f^(order) / order!``: atoms at the
        breakpoints where it jumps, plus its derivative ``(order + 1)
        t_(order+1)`` as density."""
        atoms = tuple((float(b), float(mass)) for b, mass in zip(self.breakpoints, self._taylor_jumps(order))
                      if mass != 0.0)
        k = order + 1
        pieces = tuple(np.array([k * math.comb(j, k) for j in range(k, c.size)], dtype=float) * c[k:]
                       if c.size > k else np.zeros(1) for c in self.pieces)
        if not any(np.any(c) for c in pieces):
            return StieltjesMeasure(atoms=atoms, density=None)
        sm = None if self.smoothness is None else max(self.smoothness - k, -1)
        dens = TestFunction(breakpoints=self.breakpoints, pieces=pieces, centers=self.centers, smoothness=sm,
                            name=f"d t_{order} of {self.name}" if self.name else "")
        return StieltjesMeasure(atoms=atoms, density=dens)


@dataclass(frozen=True)
class StieltjesMeasure:
    """Atoms plus a piecewise-polynomial density; the representation of the
    remainder's measure ``d t_(p-1) = d f^(p-1) / (p-1)!`` of a test
    function."""

    atoms: Tuple[Tuple[float, float], ...]
    density: Optional[TestFunction]

    @property
    def is_zero(self) -> bool:
        return not self.atoms and self.density is None


class SmoothCallable:
    """A smooth (non-polynomial) function given by callables for its
    derivatives; order k must be supplied to be usable."""

    def __init__(self, derivatives: Sequence[Callable[[np.ndarray], np.ndarray]], name: str = ""):
        self._derivatives = list(derivatives)
        self.name = name
        self.smoothness = None
        self.breakpoints = np.empty(0)

    def derivative(self, x, k: int = 0):
        if k >= len(self._derivatives):
            raise ParameterError(
                f"derivative order {k} unavailable for {self.name or 'callable function'}"
            )
        return self._derivatives[k](np.asarray(x, dtype=float))

    def value(self, x):
        return self.derivative(x, 0)

    def taylor(self, x, order: int) -> np.ndarray:
        return _derivative_taylor(self, x, order)


def _monomial(degree: int, sign: float = 1.0) -> np.ndarray:
    c = np.zeros(degree + 1)
    c[degree] = sign
    return c


def tanaka_class(name: str, p: int, a: float = 0.0, coeffs: Optional[Sequence[float]] = None) -> TestFunction:
    """Construct the standard order-p test functions.

    ``pos_part_pow``: ((x-a)^+)^(p-1), whose Taylor coefficient of order
    p-1 is the right-continuous step 1_[a, inf), so d t_(p-1) is a single
    atom of mass 1 at a.  ``neg_part_pow``: ((x-a)^-)^(p-1) (atom 1 at a as
    well).  ``abs_pow``: |x-a|^(p-1) (atom 2).  ``poly``: the polynomial
    with the given ascending coefficients.  ``x_pow_pm1``: x^(p-1).
    """
    p = even_order(p)
    d = p - 1
    if name == "pos_part_pow":
        return TestFunction(
            breakpoints=np.array([a]),
            pieces=(np.zeros(1), _monomial(d)),
            centers=np.array([a, a]),
            smoothness=p - 2,
            name=f"pos_part_pow(a={a}, p={p})",
        )
    if name == "neg_part_pow":
        return TestFunction(
            breakpoints=np.array([a]),
            pieces=(_monomial(d, -1.0), np.zeros(1)),
            centers=np.array([a, a]),
            smoothness=p - 2,
            name=f"neg_part_pow(a={a}, p={p})",
        )
    if name == "abs_pow":
        return TestFunction(
            breakpoints=np.array([a]),
            pieces=(_monomial(d, -1.0), _monomial(d)),
            centers=np.array([a, a]),
            smoothness=p - 2,
            name=f"abs_pow(a={a}, p={p})",
        )
    if name == "poly":
        if coeffs is None:
            raise ParameterError("poly requires coeffs")
        return TestFunction(
            breakpoints=np.empty(0),
            pieces=(np.asarray(coeffs, dtype=float),),
            centers=np.zeros(1),
            smoothness=None,
            name="poly",
        )
    if name == "x_pow_pm1":
        return tanaka_class("poly", p, coeffs=_monomial(d))
    raise ParameterError(f"unknown test function {name!r}; expected one of {TANAKA_CLASS_NAMES}")


# -- compensated Riemann sums ------------------------------------------


def _interval_sums(path: SampledPath, levels, t: float, terms: Callable, *args):
    """Per-level sums of ``terms(a, b, *args)`` over the intervals credited
    at t, a and b the path values at their ends (:meth:`LevelStack.sums`
    at its one checkpoint); ``levels`` is a hierarchy or a sequence of
    levels."""
    sums = LevelStack.build(path, levels, [t]).sums(lambda a, b: terms(a, b, *args), path.values)
    return sums[:, 0] if isinstance(sums, np.ndarray) else [s[:, 0] for s in sums]


def _follmer_sums(a: np.ndarray, b: np.ndarray, p: int, f) -> np.ndarray:
    """The order-p compensated sum's terms; at a breakpoint the Taylor
    coefficients are the right piece's."""
    return _taylor_sum(f.taylor(a, p - 1), b - a)


def _tanaka_meyer_sums(sa: np.ndarray, sb: np.ndarray, p: int, a_level: float) -> np.ndarray:
    """The Tanaka-Meyer compensated sum's terms at level a_level:
    ``1_(a,inf)(S_{t_j}) {(S_{t_{j+1}}-a)^(p-1) - (S_{t_j}-a)^(p-1)}``."""
    check_level(a_level)
    w = (sa > a_level).astype(float)
    return w * (ipow(sb - a_level, p - 1) - ipow(sa - a_level, p - 1))


def discrete_local_time_point(path: SampledPath, level: np.ndarray, p: int, x: float, t: float) -> float:
    """Order-p discrete local time at the exact location x for one level:
    ``sum 1_(min,max](x) |S_{t_{j+1}} - x|**(p-1)`` over intervals with
    t_j <= t (the half-open bracket never fires on ties)."""
    p = even_order(p)
    return float(_interval_sums(path, (level,), t, bracket_contributions, p, x)[0])


def _tail(q: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """``sum_i q[i] * y**(p+i) / (p+i)``, Horner's rule in y: the integral
    from 0 to y of ``u**(p-1)`` times the polynomial with Taylor
    coefficients q."""
    acc = q[-1] / (p + len(q) - 1)
    for i in range(len(q) - 2, -1, -1):
        acc = q[i] / (p + i) + y * acc
    return acc * ipow(y, p)


def _measure_remainder_sums(a: np.ndarray, b: np.ndarray, p: int, measure: StieltjesMeasure):
    """The remainder's terms, one by one, each with one entry per interval:
    per atom, the discrete local time at it (:func:`bracket_contributions`);
    per density piece q, ``int |b - x|**(p-1) q(x) dx`` over the part of the
    bracket (min, max] in the piece, in closed form: Taylor's tail
    :func:`_tail` from q's Taylor coefficients at b, taken at a and at b
    each clipped to the piece (so 0 where the bracket misses it), the
    first less the second.  Since p - 1 is odd, both orientations of the
    interval read this one form."""
    for loc, _ in measure.atoms:
        yield bracket_contributions(a, b, p, loc)
    dens = measure.density
    if dens is not None:
        spans = np.concatenate([[-np.inf], dens.breakpoints, [np.inf]])
        for i, coeffs in enumerate(dens.pieces):
            if not np.any(coeffs):
                continue
            q = _taylor_shift(coeffs, b - dens.centers[i], coeffs.size - 1)
            far, near = (np.clip(x, spans[i], spans[i + 1]) - b for x in (a, b))
            yield _tail(q, far, p) - _tail(q, near, p)


def _remainder(sums: Sequence[np.ndarray], measure: StieltjesMeasure, levels: int) -> np.ndarray:
    """Per level, the sums of :func:`_measure_remainder_sums`' terms added to
    zeros in turn, each atom's times its mass (a density's times 1.0)."""
    masses = [mass for _, mass in measure.atoms] + [1.0] * len(sums)
    return sum((m * s for m, s in zip(masses, sums)), np.zeros(levels))


def stieltjes_pairing(
    field_slice: np.ndarray,
    grid,
    measure: StieltjesMeasure,
    point_eval: Optional[Callable[[float], float]] = None,
) -> float:
    """Pair a local-time slice on a spatial grid against a measure.

    Atom terms require ``point_eval``, a dedicated evaluation of the local
    time at the exact atom location (grid interpolation is not used and
    not accepted).  Density terms use the per-cell midpoint rule
    ``cellwidth * sum L(center) * density(center)``.
    """
    total = 0.0
    if measure.atoms:
        if point_eval is None:
            raise ParameterError("pairing a measure with atoms requires a point evaluator")
        for loc, mass in measure.atoms:
            if not (grid.lo <= loc <= grid.hi):
                raise CoverageError(f"atom at {loc} lies outside grid [{grid.lo}, {grid.hi}]")
            total += mass * float(point_eval(loc))
    if measure.density is not None:
        centers = grid.centers
        total += grid.cellwidth * float(
            np.sum(np.asarray(field_slice, dtype=float) * measure.density.value(centers))
        )
    return total


# -- mollification ------------------------------------------------------

# integral of exp(1/(x^2 - 1)) over (-1, 1); normalizes the standard bump.
_BUMP_MASS = 0.44399381616807943


def _bump(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 / (ui * ui - 1.0)) / _BUMP_MASS
    return out


def _bump_prime(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    w = ui * ui - 1.0
    out[inside] = np.exp(1.0 / w) / _BUMP_MASS * (-2.0 * ui / (w * w))
    return out


# Gauss-Legendre nodes per kink-free sub-span of the mollifier support.
# The bump is C-infinity but flat at its ends, so the rule converges
# faster than any power of the node count without being spectral: against
# adaptive quadrature the worst gap of the tabulated derivatives, relative
# to max(1, |value|), is about 3e-9 at 64 nodes, 8e-14 at 128 and 8e-15 at
# 256; at 512 rounding makes it grow again.
_MOLLIFY_NODES = 256
# quadrature points per block of abscissae; bounds the working set
_MOLLIFY_BLOCK_POINTS = 2**17


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    # imported here: only mollification uses the rule, and its nodes are
    # the engine's one LAPACK call
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def _span_rule(edges: np.ndarray):
    """Gauss-Legendre points and weights on every span between consecutive
    ``edges`` (last axis), shaped ``edges.shape[:-1] + (spans, nodes)``."""
    nodes, weights = _gauss_legendre(_MOLLIFY_NODES)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * nodes, half[..., None] * weights


@dataclass(frozen=True)
class Mollifier:
    """The scaled bump ``phi_m(x) = m * phi(m x)`` with unit mass and
    support ``[-1/m, 1/m]``."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ParameterError(f"mollifier order must be >= 1, got {self.order}")

    @property
    def support(self) -> Tuple[float, float]:
        return (-1.0 / self.order, 1.0 / self.order)

    def value(self, y):
        return self.order * _bump(self.order * np.asarray(y, dtype=float))

    def derivative_value(self, y):
        return self.order**2 * _bump_prime(self.order * np.asarray(y, dtype=float))

    def normalization_defect(self) -> float:
        """``|int phi_m - 1|`` under the quadrature rule the mollified
        derivatives use."""
        y, w = _span_rule(np.asarray(self.support))
        return abs(float(np.sum(self.value(y) * w)) - 1.0)


class MollifiedFunction:
    """``f_m = f * phi_m`` with derivatives up to ``smoothness + 2``.

    ``f_m^(k)(x)`` integrates ``f^(k)(x - y) phi_m(y)`` over the mollifier
    support; one order beyond the highest bounded piecewise derivative,
    the last derivative moves onto the kernel and ``f^(k-1)(x - y)
    phi_m'(y)`` is integrated instead.  For each x the support is split at
    the kinks ``x - b_i`` of ``y -> f(x - y)`` and a fixed Gauss-Legendre
    rule runs on every kink-free sub-span, vectorised over the abscissae;
    against adaptive quadrature with the kinks as breakpoints the results
    agree to about 1e-14 relative.
    """

    def __init__(self, f: TestFunction, m: int):
        self.f = f
        self.mollifier = Mollifier(m)
        self.name = f"mollified(m={m}) {getattr(f, 'name', '')}".strip()
        # highest order with a bounded piecewise representative
        self._max_direct = None if f.smoothness is None else f.smoothness + 1

    def derivative(self, x, k: int = 0):
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._derivative_many(xs, k)
        return float(out[0]) if scalar else out

    def value(self, x):
        return self.derivative(x, 0)

    def taylor(self, x, order: int) -> np.ndarray:
        return _derivative_taylor(self, x, order)

    def _derivative_many(self, xs: np.ndarray, k: int) -> np.ndarray:
        if self._max_direct is None:
            k_direct, kernel_order = k, 0
        else:
            k_direct = min(k, self._max_direct)
            kernel_order = k - k_direct
        if kernel_order > 1:
            raise ParameterError(
                f"derivative order {k} exceeds what mollification of a "
                f"C^{self.f.smoothness} function supports here"
            )
        m = self.mollifier
        lo, hi = m.support
        kernel = m.value if kernel_order == 0 else m.derivative_value
        # reversed, the kinks x - b_i ascend; those clipped to the support
        # leave empty sub-spans
        bps = getattr(self.f, "breakpoints", np.empty(0))[::-1]
        block = max(1, _MOLLIFY_BLOCK_POINTS // ((bps.size + 1) * _MOLLIFY_NODES))
        out = np.empty_like(xs)
        for s in range(0, xs.size, block):
            x = xs[s:s + block, None]
            edges = np.concatenate(
                [np.full_like(x, lo), np.clip(x - bps, lo, hi), np.full_like(x, hi)], axis=1
            )
            y, w = _span_rule(edges)
            fk = self.f.derivative((x[:, :, None] - y).ravel(), k_direct).reshape(y.shape)
            out[s:s + block] = np.sum(fk * kernel(y) * w, axis=(1, 2))
        return out


def mollify(f: TestFunction, m: int) -> MollifiedFunction:
    """Smooth approximation ``f * phi_m``; see :class:`MollifiedFunction`."""
    return MollifiedFunction(f, m)


class _Tabulated:
    """Taylor coefficients tabulated over a fixed set of abscissae; lets a
    mollified function ride through the compensated sums without
    re-quadrature."""

    def __init__(self, xs: np.ndarray, tables: np.ndarray):
        self.xs = xs
        self.tables = tables

    def taylor(self, x, order: int) -> np.ndarray:
        return self.tables[:order + 1, np.searchsorted(self.xs, np.asarray(x, dtype=float))]


@dataclass
class ModifiedFollmerReport:
    """Double-limit diagnostics for the mollified compensated sums.

    ``sums[i, j]`` is the order-p compensated sum of ``f_{m_i}`` on level
    j; ``target`` is ``f(S_u) - f(S_0) - I`` with I the pairing of the
    occupation-density local time against d f^(p-1) / (p-1)! and u the end
    of the last finest-level interval that local time credits at t.
    """

    m_schedule: tuple
    level_labels: tuple
    sums: np.ndarray
    target: float
    abs_err: np.ndarray
    finest_err_by_m: np.ndarray
    err_decreasing_in_m: bool

    def csv_table(self) -> Table:
        """Rows ``m,level,sum,target,abs_err``."""
        return Table((self.m_schedule, self.level_labels), (self.sums, self.target, self.abs_err))

    def __str__(self):
        lines = [
            "modified Follmer integral report",
            f"  target (change-of-variable closed form): {self.target!r}",
            f"  finest-level |sum - target| per m {list(self.m_schedule)}: "
            + ", ".join(f"{e:.3e}" for e in self.finest_err_by_m),
            f"  error decreasing in m at the finest level: {self.err_decreasing_in_m}",
        ]
        return "\n".join(lines)


def modified_follmer_integral(
    path: SampledPath,
    hierarchy,
    p: int,
    f: TestFunction,
    t: float,
    m_schedule: Sequence[int] = DEFAULT_M_SCHEDULE,
    cells: int = 256,
) -> ModifiedFollmerReport:
    """Mollified compensated sums against the occupation-density target.

    For each mollification order m the compensated sum of ``f_m`` is
    computed on every hierarchy level; the closed-form target pairs the
    occupation-density local time against ``d f^(p-1) / (p-1)!`` (atoms are
    evaluated at the histogram cell containing them, the exact evaluation
    a piecewise-constant density admits).
    """
    p = even_order(p)
    if len(m_schedule) == 0:
        raise ParameterError("m_schedule needs at least one mollification order")
    measure = f.stieltjes_measure(p - 1)
    # the grid must cover the measure atoms as well; local time is zero
    # outside the path range, so the extra cells only pin the pairing
    grid = SpaceGrid.cover([path], cells, points=[loc for loc, _ in measure.atoms])
    occ = occupation_density_local_time(path, p, grid, [t])
    slice_t = occ.values[0]

    def hist_eval(x: float) -> float:
        return float(slice_t[grid.cell_index(x)])

    pairing = stieltjes_pairing(slice_t, grid, measure, point_eval=hist_eval)
    # f changes up to where the histogram's credited (finest) intervals end
    (end,) = _grid_level(path, [t]).ends[0]
    target = float(f.value(path.values[end]) - f.value(path.values[0]) - pairing)

    # mollified derivatives are tabulated once per m over every grid value
    # the compensated sums can touch; levels then reuse the table.
    xs = unique_sorted(path.values)
    sums = np.empty((len(m_schedule), hierarchy.n_levels))
    for i, m in enumerate(m_schedule):
        fm = mollify(f, m)
        # the compensated sum reads orders 1 ... p-1: f_m itself is left 0
        tables = [np.zeros_like(xs)] + [fm.derivative(xs, k) / math.factorial(k) for k in range(1, p)]
        sums[i] = _interval_sums(path, hierarchy, t, _follmer_sums, p, _Tabulated(xs, np.array(tables)))
    abs_err = np.abs(sums - target)
    finest = abs_err[:, -1]
    decreasing = bool(np.all(np.diff(finest) <= 1e-12)) if finest.size > 1 else True
    return ModifiedFollmerReport(
        m_schedule=tuple(m_schedule),
        level_labels=tuple(hierarchy.level_labels),
        sums=sums,
        target=target,
        abs_err=abs_err,
        finest_err_by_m=finest,
        err_decreasing_in_m=decreasing,
    )
