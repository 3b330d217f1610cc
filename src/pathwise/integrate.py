"""Compensated Riemann sums, test-function calculus and mollification.

The integral of ``f'(S)`` against a path of finite p-th variation is built
as the limit of order-p compensated Riemann sums

    sum_{t_j <= t} sum_{k=1}^{p-1} f^(k)(S_{t_j}) / k! * (S_{t_{j+1}} - S_{t_j})^k.

Every such sum in the package, along ranks too, takes its per-interval
Taylor step from one function, ``_taylor_sum``.

Test functions are piecewise polynomials with exact derivatives; the
distributional derivative d f^(p-1) is carried around explicitly as atoms
plus a piecewise-polynomial density, so compensated-sum remainders can be
paired against local times without quadrature error.

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
    "follmer_sum",
    "tanaka_meyer_sum",
    "measure_remainder_sum",
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


def _polyval(x, c: np.ndarray):
    """The polynomial with ascending coefficients c at x, by Horner's rule
    in numpy.polynomial's own operations, so with its bytes."""
    out = c[-1] + x * 0
    for ci in c[-2::-1]:
        out = ci + out * x
    return out


def _diff_coeffs(c: np.ndarray, k: int) -> np.ndarray:
    """Ascending coefficients of the k-th derivative: ``j * c[j]`` at j - 1,
    as numpy.polynomial's polyder forms them."""
    out = np.asarray(c, dtype=float)
    for _ in range(k):
        out = np.arange(1, out.size) * out[1:] if out.size > 1 else np.zeros(1)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Piecewise polynomial with exact derivative calculus.

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
    # order k -> the pieces' k-th derivative coefficients, built on first use
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "centers", centers)

    # -- evaluation -----------------------------------------------------

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.breakpoints, x, side="right")

    def _coeffs(self, k: int) -> Tuple[np.ndarray, ...]:
        """Coefficients of every piece's k-th derivative, differentiated
        once per order and shared read-only between calls."""
        if k == 0:
            return self.pieces
        out = self._derived.get(k)
        if out is None:
            out = tuple(_diff_coeffs(c, k) for c in self.pieces)
            for c in out:
                c.setflags(write=False)
            self._derived[k] = out
        return out

    def derivative(self, x, k: int = 0):
        """k-th derivative at x (k = 0 is the value itself); vectorized."""
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        coeffs = self._coeffs(k)
        if len(coeffs) == 1:
            # one piece covers every x: polyval is elementwise, so this is
            # what the masked loop below would write
            out = _polyval(xs - self.centers[0], coeffs[0])
            return float(out[0]) if scalar else out
        out = np.empty_like(xs)
        pos = self._piece_index(xs)
        # the pieces present, without sorting the abscissae as unique would
        for i in np.flatnonzero(np.bincount(pos.ravel(), minlength=len(self.pieces))):
            mask = pos == i
            out[mask] = _polyval(xs[mask] - self.centers[i], coeffs[i])
        return float(out[0]) if scalar else out

    def value(self, x):
        return self.derivative(x, 0)

    def piece_derivative_value(self, i: int, x: float, k: int) -> float:
        return float(_polyval(x - self.centers[i], self._coeffs(k)[i]))

    def jump(self, order: int, bp_index: int) -> float:
        """Jump of the order-th derivative across breakpoint ``bp_index``."""
        b = float(self.breakpoints[bp_index])
        right = self.piece_derivative_value(bp_index + 1, b, order)
        left = self.piece_derivative_value(bp_index, b, order)
        return right - left

    def differentiated(self, k: int) -> "TestFunction":
        """The piecewise k-th derivative as a new TestFunction (jumps at
        breakpoints become invisible; use :meth:`stieltjes_measure` when
        the distributional part matters)."""
        sm = None if self.smoothness is None else max(self.smoothness - k, -1)
        return TestFunction(
            breakpoints=self.breakpoints,
            pieces=self._coeffs(k),
            centers=self.centers,
            smoothness=sm,
            name=f"{self.name}^({k})" if self.name else "",
        )

    @property
    def degree(self) -> int:
        return max(int(c.size) - 1 for c in self.pieces)

    def smoothness_defect(self, up_to: int) -> float:
        """Largest one-sided mismatch of f, f', ..., f^(up_to) at the
        breakpoints; zero for an honestly declared smoothness class."""
        worst = 0.0
        for j in range(self.breakpoints.size):
            for k in range(up_to + 1):
                worst = max(worst, abs(self.jump(k, j)))
        return worst

    def stieltjes_measure(self, order: int) -> "StieltjesMeasure":
        """The Lebesgue-Stieltjes measure ``d f^(order)`` as atoms (jumps of
        f^(order) at breakpoints) plus the density f^(order+1)."""
        atoms = []
        for j in range(self.breakpoints.size):
            mass = self.jump(order, j)
            if mass != 0.0:
                atoms.append((float(self.breakpoints[j]), mass))
        dens = self.differentiated(order + 1)
        if all(np.all(c == 0.0) for c in dens.pieces):
            dens = None
        return StieltjesMeasure(atoms=tuple(atoms), density=dens)


@dataclass(frozen=True)
class StieltjesMeasure:
    """Atoms plus a piecewise-polynomial density; the representation of the
    distributional derivative ``d f^(p-1)`` of a test function."""

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


def _monomial(degree: int, sign: float = 1.0) -> np.ndarray:
    c = np.zeros(degree + 1)
    c[degree] = sign
    return c


def tanaka_class(name: str, p: int, a: float = 0.0, coeffs: Optional[Sequence[float]] = None) -> TestFunction:
    """Construct the standard order-p test functions.

    ``pos_part_pow``: ((x-a)^+)^(p-1), whose (p-1)-th derivative is the
    right-continuous step (p-1)! 1_[a, inf), so d f^(p-1) is a single atom
    of mass (p-1)! at a.  ``neg_part_pow``: ((x-a)^-)^(p-1) (atom (p-1)!
    at a as well).  ``abs_pow``: |x-a|^(p-1) (atom 2 (p-1)!).  ``poly``:
    the polynomial with the given ascending coefficients.  ``x_pow_pm1``:
    x^(p-1).
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
    at t, a and b the path values at their ends (:meth:`LevelStack.sums`);
    ``levels`` is a hierarchy or a sequence of levels."""
    return LevelStack.build(path, levels, [t]).sums(lambda a, b: terms(a, b, *args), path.values)


def _taylor_sum(derivative: Callable[[int], np.ndarray], d: np.ndarray, p: int) -> np.ndarray:
    """``sum_{k=1}^{p-1} derivative(k) * d**k / k!``, added to zeros term by
    term, the power by repeated multiplication and k! a running float
    (finite for every order :func:`even_order` admits)."""
    acc = np.zeros_like(d)
    power = d.copy()
    fact = 1.0
    for k in range(1, p):
        fact *= k
        acc += derivative(k) * power / fact
        power = power * d
    return acc


def _follmer_sums(a: np.ndarray, b: np.ndarray, p: int, f) -> np.ndarray:
    return _taylor_sum(lambda k: f.derivative(a, k), b - a, p)


def follmer_sum(path: SampledPath, level: np.ndarray, p: int, f, t: float) -> float:
    """Order-p compensated Riemann sum of f along one partition level.

    Derivatives at breakpoints use the right-continuous one-sided values.
    For f(x) = x this telescopes to ``S_u - S_0`` exactly at every level,
    u the right end of the level's last interval credited at t.
    """
    p = even_order(p)
    return float(_interval_sums(path, (level,), t, _follmer_sums, p, f)[0])


def _tanaka_meyer_sums(sa: np.ndarray, sb: np.ndarray, p: int, a_level: float, variant: str) -> np.ndarray:
    check_level(a_level)
    if variant == "plus":
        w = (sa > a_level).astype(float)
    elif variant == "minus":
        w = (sa < a_level).astype(float)
    elif variant == "sign":
        w = np.where(sa >= a_level, 1.0, -1.0)
    else:
        raise ParameterError(f"variant must be plus|minus|sign, got {variant!r}")
    da = ipow(sa - a_level, p - 1)
    db = ipow(sb - a_level, p - 1)
    return w * (db - da)


def tanaka_meyer_sum(path: SampledPath, level: np.ndarray, p: int, a_level: float, variant: str, t: float) -> float:
    """The Tanaka-Meyer compensated sum at level a_level.

    ``plus``:  sum 1_(a,inf)(S_{t_j}) {(S_{t_{j+1}}-a)^(p-1) - (S_{t_j}-a)^(p-1)}
    ``minus``: the same with 1_(-inf,a)
    ``sign``:  weights sign(S_{t_j}-a) with sign(0) = +1.
    """
    p = even_order(p)
    return float(_interval_sums(path, (level,), t, _tanaka_meyer_sums, p, a_level, variant)[0])


def discrete_local_time_point(path: SampledPath, level: np.ndarray, p: int, x: float, t: float) -> float:
    """Order-p discrete local time at the exact location x for one level:
    ``sum 1_(min,max](x) |S_{t_{j+1}} - x|**(p-1)`` over intervals with
    t_j <= t (the half-open bracket never fires on ties)."""
    p = even_order(p)
    return float(_interval_sums(path, (level,), t, bracket_contributions, p, x)[0])


@lru_cache(maxsize=64)
def _gauss_legendre(n: int):
    # imported here: only density remainders and mollification use the
    # rule, and its nodes are the engine's one LAPACK call
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def _measure_remainder_sums(a: np.ndarray, b: np.ndarray, p: int, measure: StieltjesMeasure):
    """The remainder's terms, one by one, each with one entry per interval:
    per atom, the discrete local time at it (:func:`bracket_contributions`);
    per density piece, its exact quadrature over the part of the bracket in
    the piece, of zero width where the bracket misses the piece."""
    for loc, _ in measure.atoms:
        yield bracket_contributions(a, b, p, loc)
    dens = measure.density
    if dens is not None:
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        spans = np.concatenate([[-np.inf], dens.breakpoints, [np.inf]])
        for i, coeffs in enumerate(dens.pieces):
            if not np.any(coeffs):
                continue
            seg_lo = np.maximum(lo, spans[i])
            seg_hi = np.maximum(np.minimum(hi, spans[i + 1]), seg_lo)
            deg = (p - 1) + (coeffs.size - 1)
            nodes, weights = _gauss_legendre(deg // 2 + 1)
            mid = 0.5 * (seg_lo + seg_hi)
            half = 0.5 * (seg_hi - seg_lo)
            # each interval's rule summed node by node, in one fixed order
            # on every CPU, where a BLAS product's order depends on its kernel
            for k, (node, weight) in enumerate(zip(nodes.tolist(), weights.tolist())):
                xq = mid + half * node
                integ = ipow(np.abs(b - xq), p - 1) * _polyval(xq - dens.centers[i], coeffs) * weight
                quad = integ if k == 0 else quad + integ
            yield half * quad


def _remainder(sums: Sequence[np.ndarray], measure: StieltjesMeasure, levels: int) -> np.ndarray:
    """Per level, the sums of :func:`_measure_remainder_sums`' terms added to
    zeros in turn, each atom's times its mass (a density's times 1.0)."""
    masses = [mass for _, mass in measure.atoms] + [1.0] * len(sums)
    return sum((m * s for m, s in zip(masses, sums)), np.zeros(levels))


def measure_remainder_sum(path: SampledPath, level: np.ndarray, p: int, measure: StieltjesMeasure, t: float) -> float:
    """Exact evaluation of ``sum_j int over (S_{t_j}, S_{t_{j+1}}] of
    |S_{t_{j+1}} - x|**(p-1) d mu(x)`` for an atoms-plus-polynomial-density
    measure mu.

    Atom contributions are evaluated at the exact atom locations; density
    contributions use Gauss-Legendre rules of sufficient order, which are
    exact for the polynomial integrands that arise here.
    """
    p = even_order(p)
    return float(_remainder(_interval_sums(path, (level,), t, _measure_remainder_sums, p, measure), measure, 1)[0])


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
    """Derivative lookup table over a fixed set of abscissae; lets a
    mollified function ride through follmer_sum without re-quadrature."""

    def __init__(self, xs: np.ndarray, tables: dict):
        self.xs = xs
        self.tables = tables

    def derivative(self, x, k: int = 0):
        pos = np.searchsorted(self.xs, np.asarray(x, dtype=float))
        return self.tables[k][pos]


@dataclass
class ModifiedFollmerReport:
    """Double-limit diagnostics for the mollified compensated sums.

    ``sums[i, j]`` is the order-p compensated sum of ``f_{m_i}`` on level
    j; ``target`` is ``f(S_u) - f(S_0) - I / (p-1)!`` with I the pairing
    of the occupation-density local time against d f^(p-1) and u the end
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
    occupation-density local time against ``d f^(p-1)`` (atoms are
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
    target = float(
        f.value(path.values[end]) - f.value(path.values[0]) - pairing / math.factorial(p - 1)
    )

    # mollified derivatives are tabulated once per m over every grid value
    # the compensated sums can touch; levels then reuse the table.
    xs = unique_sorted(path.values)
    sums = np.empty((len(m_schedule), hierarchy.n_levels))
    for i, m in enumerate(m_schedule):
        fm = mollify(f, m)
        tables = {k: fm.derivative(xs, k) for k in range(1, p)}
        tab = _Tabulated(xs, tables)
        sums[i] = _interval_sums(path, hierarchy, t, _follmer_sums, p, tab)
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
