from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathwise import (
    CellIndicator,
    ParameterError,
    PartitionHierarchy,
    PathSpec,
    SampledPath,
    SpaceGrid,
    discrete_local_time_point,
    dyadic_hierarchy,
    generate,
    identity_suite,
    ito_residual,
    lebesgue_hierarchy,
    occupation_check,
    occupation_density_local_time,
    range_anchors,
    scaling_check,
    scaling_root_preset,
    tanaka_class,
)
from pathwise import acceptance
from pathwise._util import (
    Points,
    bracket_contributions,
    ipow,
    left_endpoint_counts,
    median,
    snap_checkpoints,
)
from pathwise import integrate
from pathwise.integrate import SmoothCallable
from pathwise.tanaka import _tm_proxy_increments, finite_n_report, tanaka_meyer_report
from tests import rational
from tests.conftest import csv_rows, level_sum, make_walk, one_level, relative_gap, traced_peak

FULL = np.arange(9)
COARSE = np.array([0, 2, 4, 6, 8])

walks = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
    min_size=9,
    max_size=9,
).map(lambda v: make_walk(np.asarray(v, dtype=float)))


# -- the exact change-of-variable identity --------------------------------


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("name", ["pos_part_pow", "neg_part_pow", "abs_pow"])
def test_finite_level_identity_on_rough_paths(p, name, bm_path, rough_path):
    path = bm_path if p == 2 else rough_path
    hier = dyadic_hierarchy(path, 8)
    f = tanaka_class(name, p, a=0.1517)
    for lev in hier.levels:
        assert finite_n_report(path, one_level(lev), p, f, 1.0).relative_residuals[0] <= 1e-9


def test_polynomials_have_zero_measure_term(bm_path):
    # degree <= p-1: the compensated sum telescopes to the change exactly
    f = tanaka_class("poly", 2, coeffs=[1.0, -0.5])
    lev = dyadic_hierarchy(bm_path, 6).level(6)
    assert f.stieltjes_measure(1).is_zero
    change = f.value(bm_path.values[-1]) - f.value(bm_path.values[0])
    assert level_sum(bm_path, lev, 1.0, integrate._follmer_sums, 2, f) == pytest.approx(change, rel=1e-12)


# checkpoints of the 9-sample walks: the grid times 0, 1/8, ..., 1 and
# times inside a cell, which snap to the nearer of its two grid times
checkpoints = st.one_of(
    st.integers(0, 8).map(lambda k: k / 8),
    st.tuples(st.integers(0, 7), st.floats(min_value=0.01, max_value=0.99)).map(lambda c: (c[0] + c[1]) / 8),
)


@settings(max_examples=150, deadline=None)
@given(
    walks,
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False, width=32),
    st.sampled_from([2, 4]),
    st.sampled_from(["pos_part_pow", "neg_part_pow", "abs_pow", "poly"]),
    st.sampled_from([0, 1]),
    checkpoints,
)
def test_finite_level_identity_is_exact_for_arbitrary_walks(path, a, p, name, which, t):
    # flagship property: the identity is algebra, valid for every walk,
    # anchor, order, test function, level and checkpoint, including
    # engineered ties
    if name == "poly":
        f = tanaka_class("poly", p, coeffs=[0.3, -1.0] + [0.5] * (p - 2))
    else:
        f = tanaka_class(name, p, a=a)
    level = (FULL, COARSE)[which]
    assert finite_n_report(path, one_level(level), p, f, t).relative_residuals[0] <= 1e-9


def test_finite_level_identity_with_on_grid_ties():
    # path values hit the anchor exactly; the right-continuous derivative
    # convention keeps the identity exact
    path = make_walk([0.0, 1.0, 0.5, 0.5, 0.0, -1.0, 0.0, 2.0, 0.5])
    for p in (2, 4):
        for name in ("pos_part_pow", "neg_part_pow", "abs_pow"):
            f = tanaka_class(name, p, a=0.5)
            for level in (FULL, COARSE, np.array([0, 8])):
                assert finite_n_report(path, one_level(level), p, f, 1.0).relative_residuals[0] <= 1e-9


def test_finite_level_identity_rejects_rough_f(rough_path):
    f2 = tanaka_class("abs_pow", 2, a=0.0)  # only C^0 across the kink
    with pytest.raises(ParameterError):
        finite_n_report(rough_path, one_level(FULL), 4, f2, 1.0)


def test_finite_n_report_passes(bm_path):
    hier = dyadic_hierarchy(bm_path, 8)
    rep = finite_n_report(bm_path, hier, 2, tanaka_class("abs_pow", 2, a=-0.2), 1.0)
    assert rep.exactness == "exact-per-level"
    assert rep.passed


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("path_name", ["fbm", "triangle"])
def test_finite_n_identity_is_the_one_level_report(path_name, p, triangle_path):
    if path_name == "fbm":
        path = generate(PathSpec(kind="fbm", hurst=1.0 / p, seed=11, n_max=8))
    else:
        path = triangle_path
    hier = dyadic_hierarchy(path, 8)
    for _, f in acceptance._test_functions(p, *range_anchors(path, [0.37])):
        rep = finite_n_report(path, hier, p, f, 1.0)
        # the report keeps the gaps that its exact gate and C1 read
        gaps = rep.relative_residuals.tolist()
        for lev, lhs, rhs, gap in zip(hier.levels, rep.lhs.tolist(), rep.rhs.tolist(), gaps):
            one = finite_n_report(path, one_level(lev), p, f, 1.0).relative_residuals[0]
            assert one == relative_gap(lhs, rhs) == gap


@pytest.fixture(scope="module")
def bm_seed3():
    return generate(PathSpec(kind="bm", n_max=10, seed=3))


@pytest.mark.parametrize("t", [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("kind", ["dyadic", "lebesgue"])
def test_exact_identities_hold_at_every_checkpoint(bm_seed3, kind, t):
    # each level's sums end at the right end of its last credited interval,
    # past t on a coarse level; both sides must end there
    path = bm_seed3
    hier = dyadic_hierarchy(path, 8) if kind == "dyadic" else lebesgue_hierarchy(path, 6)
    (a,) = range_anchors(path, [0.37])
    assert a not in path.values
    assert tanaka_meyer_report(path, hier, 2, a, t).passed
    assert finite_n_report(path, hier, 2, tanaka_class("abs_pow", 2), t).passed


def test_tanaka_meyer_report_passes(rough_path):
    hier = dyadic_hierarchy(rough_path, 8)
    rep = tanaka_meyer_report(rough_path, hier, 4, 0.0831, 1.0)
    assert rep.passed
    rows = csv_rows(("identity", "level", "lhs", "rhs", "residual", "class"), rep.csv_table())
    assert len(rows) == 8 and rows[0][5] == "exact-per-level"


# -- the level stack against the per-level loops it replaced ----------------
#
# The identities below evaluate their summands once over the stacked
# intervals of all levels and reduce per level.  These oracles are the
# loops they replaced, one level at a time; the stacked results must have
# the same bytes.


def _per_level_intervals(path, level, t):
    idx = np.asarray(level, dtype=np.int64)
    _, cps = snap_checkpoints(path, [t])
    count = int(left_endpoint_counts(idx, cps)[0])
    return path.values[idx[:-1]][:count], path.values[idx[1:]][:count]


def _horner_step(coeffs, d):
    """sum_{k>=1} coeffs[k] * d**k by Horner's rule in d, from the highest
    order down."""
    acc = coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc = c + d * acc
    return acc * d


def _per_level_follmer_sum(path, level, p, f, t):
    a, b = _per_level_intervals(path, level, t)
    if a.size == 0:
        return 0.0
    return float(np.sum(_horner_step(f.taylor(a, p - 1), b - a)))


def _per_level_measure_remainder_sum(path, level, p, measure, t):
    """The remainder over one whole level, each term with one entry per
    interval: an atom's |b - loc|**(p-1) where the bracket (min, max] holds
    loc and 0 elsewhere; a density piece's Taylor tail over the part of the
    bracket in the piece: with q the piece's Taylor coefficients at b,
    sum_i q_i y**(p+i) / (p+i) at y the clipped end on a's side less at the
    one on b's, both less b (equal where the bracket misses the piece)."""
    a, b = _per_level_intervals(path, level, t)
    if a.size == 0:
        return 0.0
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    total = 0.0
    for loc, mass in measure.atoms:
        total += mass * float(np.sum(np.where((lo < loc) & (loc <= hi), ipow(np.abs(b - loc), p - 1), 0.0)))
    dens = measure.density
    if dens is not None:
        spans = np.concatenate([[-np.inf], dens.breakpoints, [np.inf]])
        for i, coeffs in enumerate(dens.pieces):
            if not np.any(coeffs):
                continue
            seg_lo = np.maximum(lo, spans[i])
            seg_hi = np.maximum(np.minimum(hi, spans[i + 1]), seg_lo)
            q = integrate._taylor_shift(coeffs, b - dens.centers[i], coeffs.size - 1)

            def tail(y):
                acc = q[-1] / (p + coeffs.size - 1)
                for j in range(coeffs.size - 2, -1, -1):
                    acc = q[j] / (p + j) + y * acc
                return acc * ipow(y, p)

            far, near = np.where(a < b, seg_lo, seg_hi) - b, np.where(a < b, seg_hi, seg_lo) - b
            total += float(np.sum(tail(far) - tail(near)))
    return total


def _per_level_end(path, level, t):
    """The path value where the level's sums credited at t end: the right
    endpoint of its last credited interval."""
    idx = np.asarray(level, dtype=np.int64)
    _, cps = snap_checkpoints(path, [t])
    return path.values[idx[left_endpoint_counts(idx, cps)[0]]]


def _per_level_change_of_variable(path, hier, p, f, t):
    measure = f.stieltjes_measure(p - 1)
    lhs = [
        float(f.value(_per_level_end(path, lev, t)) - f.value(path.values[0]))
        - _per_level_follmer_sum(path, lev, p, f, t)
        for lev in hier.levels
    ]
    rhs = [_per_level_measure_remainder_sum(path, lev, p, measure, t) for lev in hier.levels]
    return lhs, rhs


def _per_level_tanaka_meyer(path, hier, p, a, t):
    lhs, rhs = [], []
    for lev in hier.levels:
        change = float(
            ipow(max(_per_level_end(path, lev, t) - a, 0.0), p - 1) - ipow(max(path.values[0] - a, 0.0), p - 1)
        )
        sa, sb = _per_level_intervals(path, lev, t)
        tm = lt = 0.0
        if sa.size:
            w = (sa > a).astype(float)
            tm = float(np.sum(w * (ipow(sb - a, p - 1) - ipow(sa - a, p - 1))))
            lt = float(np.sum(bracket_contributions(sa, sb, p, a)))
        lhs.append(change - tm)
        rhs.append(lt)
    return lhs, rhs


def _per_level_ito(path, hier, p, f, t):
    rhs = []
    for lev in hier.levels:
        a, b = _per_level_intervals(path, lev, t)
        pv_term = float(np.sum(f.taylor(a, p)[p] * ipow(np.abs(b - a), p)))
        rhs.append(_per_level_follmer_sum(path, lev, p, f, t) + pv_term)
    return rhs


def _per_level_scaling(path, mapped, hier, p, fa, factor, a):
    lhs, rhs = [], []
    for lev in hier.levels:
        ga, gb = _per_level_intervals(mapped, lev, path.T)
        sa, sb = _per_level_intervals(path, lev, path.T)
        lhs.append(np.sum(bracket_contributions(ga, gb, p, fa)))
        rhs.append(factor * np.sum(bracket_contributions(sa, sb, p, a)))
    return lhs, rhs


def _same_bytes(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def _hierarchy(path, kind):
    """Dyadic or Lebesgue levels 1..4, or the dyadic ones with an
    interval-free level (index 0 alone) in the middle of the stack."""
    if kind == "lebesgue":
        return lebesgue_hierarchy(path, 4)
    hier = dyadic_hierarchy(path, 4)
    if kind == "dyadic":
        return hier
    levels = hier.levels[:2] + (np.array([0]),) + hier.levels[2:]
    return PartitionHierarchy(kind="dyadic", levels=levels, level_labels=(1, 2, 0, 3, 4), nested=False)


def _positive_part_power(a, p):
    """((x - a)^+)^p: C^(p-1), so d f^(p-1) is a density and not an atom."""
    pieces = (np.zeros(1), np.eye(p + 1)[p])
    return integrate.TestFunction(np.array([a]), pieces, np.array([a, a]), smoothness=p - 1, name="pos^p")


# values on a coarse lattice make ties with each other and with the anchor
tie_walks = st.lists(
    st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
    ),
    min_size=17,
    max_size=17,
).map(lambda v: make_walk(np.asarray(v, dtype=float)))


@settings(max_examples=120, deadline=None)
@given(
    tie_walks,
    st.one_of(st.integers(0, 16), st.floats(min_value=-2.0, max_value=2.0, width=32)),
    st.sampled_from([2, 4]),
    st.sampled_from(["dyadic", "lebesgue", "interval-free level"]),
    st.sampled_from([0.0, 0.3125, 0.5, 1.0]),
)
def test_stacked_identities_are_bit_identical_to_per_level_loops(path, anchor, p, kind, t):
    # an integer anchor picks a sample, so the anchor ties with the path on grid
    a = float(path.values[anchor]) if isinstance(anchor, int) else float(anchor)
    if kind == "lebesgue" and np.ptp(path.values) == 0.0:
        kind = "dyadic"
    hier = _hierarchy(path, kind)

    functions = [tanaka_class(name, p, a=a) for name in ("pos_part_pow", "neg_part_pow", "abs_pow")]
    functions += [
        tanaka_class("poly", p, coeffs=[0.3, -1.0, 0.5, 0.2, -0.1, 0.05][: p + 2]),
        _positive_part_power(a, p),
    ]
    for f in functions:
        rep = finite_n_report(path, hier, p, f, t)
        lhs, rhs = _per_level_change_of_variable(path, hier, p, f, t)
        assert _same_bytes(rep.lhs, lhs) and _same_bytes(rep.rhs, rhs), f.name

    rep = tanaka_meyer_report(path, hier, p, a, t)
    lhs, rhs = _per_level_tanaka_meyer(path, hier, p, a, t)
    assert _same_bytes(rep.lhs, lhs) and _same_bytes(rep.rhs, rhs)

    smooth = tanaka_class("poly", p, coeffs=[0.3, -1.0, 0.5, 0.2, -0.1, 0.05][: p + 2])
    assert _same_bytes(ito_residual(path, hier, p, smooth, t).rhs, _per_level_ito(path, hier, p, smooth, t))

    affine = tanaka_class("poly", 2, coeffs=[0.7, -2.0])
    mapped = make_walk(affine.value(path.values))
    rep = scaling_check(path, affine, a, hier, p)
    lhs, rhs = _per_level_scaling(path, mapped, hier, p, affine.value(a), 2.0 ** (p - 1), a)
    assert _same_bytes(rep.lhs, lhs) and _same_bytes(rep.rhs, rhs)


def _per_level_identity_suite(X, Y, hierarchy, p):
    """The loop :func:`identity_suite` ran before its sums moved onto the
    interval kernel: (lhs, rhs, details) of each of its reports."""
    t_idx = X.n_samples - 1
    absX = np.abs(X.values)
    Xp = np.maximum(X.values, 0.0)
    Xm = np.maximum(-X.values, 0.0)
    names = ("nonneg", "pos_part", "neg_part", "zero_set", "max", "min", "minmax")
    rows = {name: {k: [] for k in ("lhs", "rhs", "d1")} for name in names}

    for lev in hierarchy.levels:
        la, lb = lev[:-1], lev[1:]
        cnt = int(np.searchsorted(la, t_idx, side="right"))
        la, lb = la[:cnt], lb[:cnt]
        Xa, Xb = X.values[la], X.values[lb]
        Ya, Yb = Y.values[la], Y.values[lb]
        Aa, Ab = absX[la], absX[lb]
        Xpa, Xpb = Xp[la], Xp[lb]
        Xma, Xmb = Xm[la], Xm[lb]
        dLA = _tm_proxy_increments(Aa, Ab, p)
        dLX = _tm_proxy_increments(Xa, Xb, p)
        dLY = _tm_proxy_increments(Ya, Yb, p)
        dLM = _tm_proxy_increments(np.maximum(Xa, Ya), np.maximum(Xb, Yb), p)
        dLm = _tm_proxy_increments(np.minimum(Xa, Ya), np.minimum(Xb, Yb), p)

        r = rows["nonneg"]
        r["lhs"].append(np.sum(dLA))
        r["rhs"].append(np.sum((Aa == 0.0) * ipow(Ab, p - 1)))

        r = rows["pos_part"]
        r["lhs"].append(np.sum(dLX))
        r["rhs"].append(np.sum(_tm_proxy_increments(Xpa, Xpb, p)))
        r["d1"].append(np.sum((Xa == 0.0) * ipow(Xpb, p - 1)))

        r = rows["neg_part"]
        r["lhs"].append(np.sum(dLX))
        r["rhs"].append(np.sum(_tm_proxy_increments(Xma, Xmb, p)))
        r["d1"].append(np.sum((Xa == 0.0) * ipow(Xmb, p - 1)))

        r = rows["zero_set"]
        r["lhs"].append(np.sum((Xa == 0.0) * ipow(Xb, p - 1)))
        r["rhs"].append(0.0)

        tie_both = (Xa == 0.0) & (Ya == 0.0)

        r = rows["max"]
        r["lhs"].append(np.sum(dLM))
        collision = ipow(np.maximum(Xpb, np.maximum(Yb, 0.0)), p - 1)
        r["rhs"].append(
            np.sum((Ya < 0.0) * dLX) + np.sum((Xa < 0.0) * dLY) + np.sum(tie_both * collision)
        )

        r = rows["min"]
        r["lhs"].append(np.sum(dLm))
        collision_min = ipow(np.minimum(Xpb, np.maximum(Yb, 0.0)), p - 1)
        r["rhs"].append(
            np.sum((Ya > 0.0) * dLX) + np.sum((Xa > 0.0) * dLY) + np.sum(tie_both * collision_min)
        )

        r = rows["minmax"]
        r["lhs"].append(np.sum(dLM) + np.sum(dLm))
        r["rhs"].append(np.sum(dLX) + np.sum(dLY))

    part = {"tie_sum": "d1"}
    details = ({}, part, part, {}, {}, {}, {})
    return [
        (rows[name]["lhs"], rows[name]["rhs"], {k: rows[name][key] for k, key in d.items()})
        for name, d in zip(names, details)
    ]


# integer walks: exact zeros of a path and exact ties between two
integer_walks = st.lists(st.integers(-3, 3), min_size=33, max_size=33).map(
    lambda v: make_walk(0.5 * np.asarray(v, dtype=float))
)


@settings(max_examples=150, deadline=None)
@given(integer_walks, integer_walks, st.booleans(), st.sampled_from([2, 4]), st.booleans())
def test_identity_suite_is_bit_identical_to_its_per_level_loop(X, Y, same, p, lebesgue):
    if same:
        Y = X
    if lebesgue and np.ptp(X.values) > 0.0:
        hier = lebesgue_hierarchy(X, 4)
    else:
        hier = dyadic_hierarchy(X, 5)
    reports = identity_suite(X, Y, hier, p)
    want = _per_level_identity_suite(X, Y, hier, p)
    assert len(reports) == len(want)
    for rep, (lhs, rhs, details) in zip(reports, want):
        assert _same_bytes(rep.lhs, lhs) and _same_bytes(rep.rhs, rhs), rep.identity
        assert _same_bytes(rep.residuals, np.abs(np.asarray(lhs) - np.asarray(rhs))), rep.identity
        assert rep.details.keys() == details.keys(), rep.identity
        for name, values in details.items():
            assert _same_bytes(rep.details[name], values), (rep.identity, name)


def test_finite_n_report_memory_follows_the_largest_level():
    # the whole 16-level hierarchy holds 2N intervals; the report's working
    # set is that of its largest level, N intervals (the single stack of
    # every level read 11 MiB traced here)
    path = generate(PathSpec(kind="bm", n_max=16, seed=7))
    hier = dyadic_hierarchy(path, 16)
    f = tanaka_class("abs_pow", 2, a=0.0)
    finite_n_report(path, hier, 2, f, 1.0)
    rep, peak = traced_peak(finite_n_report, path, hier, 2, f, 1.0)
    assert rep.passed
    assert peak < 7.5 * 2**20, peak


# -- the change of variable against an exact rational oracle ------------------

_POLY5 = [0.1, -0.3, 0.5, 0.25, -0.125, 0.2]
_POLY8 = [0.1, -0.3, 0.5, 0.25, -0.125, 0.2, -0.05, 0.03, 0.01]
# a float side may miss its exact value by c eps sum|terms|.  Measured on
# levels 4, 7 and 10 of the cases below, the worst c is 2.69, at p = 8 on a
# poly rhs (2.05 at p = 6); the sides at p in {2, 4} read at most 1.76, the
# piecewise densities 1.85 and the offset paths 1.12.  With the density
# remainder by Gauss-Legendre quadrature they read 2.78 at p in {2, 4},
# 9.5 at p in {6, 8}, 11.6 on the piecewise densities and 2.7e6 on the
# offset paths.
_ORACLE_C = 4
_ORACLE_SPECS = [PathSpec(kind="bm", n_max=10, seed=3), PathSpec(kind="bm", n_max=10, T=1e-6, seed=4),
                 PathSpec(kind="fbm", hurst=0.25, n_max=10, seed=5)]
_ORACLE_IDS = ["bm", "bm-T1e-6", "fbm-H0.25"]
# t is the grid time 717 dt: the interval that starts there is credited
_LAST = 717


def _assert_exact_in_rationals(path, p, functions, levels=(4, 7, 10)):
    """Both sides of the change of variable at the given dyadic levels,
    each within _ORACLE_C eps sum|terms| of its exact value in Fractions,
    for (engine function, rational twin) pairs.  Level 10 holds 717 of the
    credited intervals and nearly all of the Fractions' time."""
    hier = dyadic_hierarchy(path, max(levels))
    eps = Fraction(np.finfo(float).eps)
    for f, exact_f in functions:
        rep = finite_n_report(path, hier, p, f, _LAST * path.dt)
        for n in levels:
            sides = rational.change_of_variable(path.values, hier.level(n), _LAST, p, exact_f)
            assert sides.lhs == sides.rhs, (p, f.name, n)
            for got, exact, magnitude in ((rep.lhs[n - 1], sides.lhs, sides.lhs_magnitude),
                                          (rep.rhs[n - 1], sides.rhs, sides.rhs_magnitude)):
                assert abs(Fraction(float(got)) - exact) <= _ORACLE_C * eps * magnitude, (p, f.name, n)


def _abs_pow_and_poly(path, p, coeffs):
    # a sample value, so some brackets start or end at the atom
    a = float(np.median(path.values))
    assert a in path.values
    return [(tanaka_class("abs_pow", p, a=a), rational.AbsPow(a, p)),
            (tanaka_class("poly", p, coeffs=coeffs), rational.Poly(coeffs, p))]


@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=_ORACLE_IDS)
def test_change_of_variable_is_exact_in_rationals(spec):
    # the two remainders of the whole-level kernel's masked terms: the atom
    # of abs_pow and the density of a poly of degree 5 >= p
    path = generate(spec)
    for p in (2, 4):
        _assert_exact_in_rationals(path, p, _abs_pow_and_poly(path, p, _POLY5))


@pytest.mark.parametrize("p", [6, 8])
@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=_ORACLE_IDS)
def test_change_of_variable_is_exact_in_rationals_at_orders_6_and_8(spec, p):
    # the same at the orders no acceptance row runs, with a poly of degree 8,
    # on levels 4 and 7 (tier-1 time)
    path = generate(spec)
    _assert_exact_in_rationals(path, p, _abs_pow_and_poly(path, p, _POLY8), levels=(4, 7))


def _pos_part_power(a, q):
    """((x - a)^+)^q, one breakpoint at a."""
    return integrate.TestFunction(np.array([a]), (np.zeros(1), np.eye(q + 1)[q]), np.array([a, a]), smoothness=q - 1)


@pytest.mark.parametrize("p", [2, 4])
def test_a_density_piece_clipped_inside_a_bracket_is_exact_in_rationals(p):
    # ((x - a)^+)^q for q > p - 1: d f^(p-1) is a density, 0 left of a and
    # a polynomial right of it, so every bracket that holds a integrates
    # only its part right of a; a at a sample and between two samples
    path = generate(_ORACLE_SPECS[0])
    v = np.sort(path.values)
    between = float(0.5 * (v[v.size // 2 - 1] + v[v.size // 2]))
    level = dyadic_hierarchy(path, 7).level(7)
    for a in (float(np.median(path.values)), between):
        lo, hi = np.minimum(path.values[level[:-1]], path.values[level[1:]]), np.maximum(
            path.values[level[:-1]], path.values[level[1:]])
        assert np.sum((lo < a) & (a < hi)) >= 2
        _assert_exact_in_rationals(path, p, [(_pos_part_power(a, q), rational.PosPartPow(a, q, p))
                                             for q in (p + 1, p + 3)], levels=(4, 7))


@pytest.mark.parametrize("offset", [1e3, -1e3])
def test_a_path_far_from_zero_is_exact_in_rationals(offset):
    # the polys are centred at 0 and the path is not: every Taylor
    # coefficient and the density's tail are shifted by about 1000
    base = generate(_ORACLE_SPECS[0])
    path = SampledPath(base.T, base.n_max, base.values + offset, metadata={"kind": "offset"})
    for p in (2, 4):
        _assert_exact_in_rationals(path, p, _abs_pow_and_poly(path, p, _POLY8), levels=(4, 7))


def test_the_rational_oracle_catches_a_dropped_tail_term(monkeypatch):
    # the closed-form remainder without its highest term misses the exact
    # density remainder of a poly of degree 5 at p = 4 (its density has
    # two Taylor terms)
    real = integrate._tail
    monkeypatch.setattr(integrate, "_tail", lambda q, y, p: real(q[:-1], y, p))
    path = generate(_ORACLE_SPECS[0])
    with pytest.raises(AssertionError):
        _assert_exact_in_rationals(path, 4, _abs_pow_and_poly(path, 4, _POLY5)[1:], levels=(4,))


@pytest.mark.parametrize("spec", [
    PathSpec(kind="bm", n_max=10, seed=3),
    PathSpec(kind="bm", n_max=10, T=1e-6, seed=4),
    PathSpec(kind="fbm", hurst=0.25, n_max=10, seed=5),
], ids=["bm", "bm-T1e-6", "fbm-H0.25"])
def test_tanaka_meyer_is_exact_in_rationals_away_from_ties(spec):
    # the plus variant at a level between the two middle samples: its float
    # sides read at most 0.61 eps sum|terms| off their exact values
    path = generate(spec)
    hier = dyadic_hierarchy(path, 10)
    last = 717
    v = np.sort(path.values)
    a = float(0.5 * (v[v.size // 2 - 1] + v[v.size // 2]))
    assert a not in path.values
    eps = Fraction(np.finfo(float).eps)
    for p in (2, 4):
        rep = tanaka_meyer_report(path, hier, p, a, last * path.dt)
        for n in (4, 7, 10):
            sides = rational.tanaka_meyer_plus(path.values, hier.level(n), last, p, a)
            assert sides.lhs == sides.rhs, (p, n)
            for got, exact, magnitude in ((rep.lhs[n - 1], sides.lhs, sides.lhs_magnitude),
                                          (rep.rhs[n - 1], sides.rhs, sides.rhs_magnitude)):
                assert abs(Fraction(float(got)) - exact) <= _ORACLE_C * eps * magnitude, (p, n)
        # at a sample that the path leaves upwards, the finest level's
        # interval from it adds (S_{i+1} - a)^(p-1) to the lhs alone
        i = int(np.flatnonzero(np.diff(path.values[: last + 2]) > 0)[0])
        tie = float(path.values[i])
        sides = rational.tanaka_meyer_plus(path.values, hier.level(10), last, p, tie)
        assert sides.lhs - sides.rhs == (Fraction(path.values[i + 1]) - Fraction(tie)) ** (p - 1)


# -- Ito residuals ----------------------------------------------------------


def test_ito_residual_square_is_exact(bm_path):
    f = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])
    rep = ito_residual(bm_path, dyadic_hierarchy(bm_path, 6), 2, f, 1.0)
    assert np.all(rep.residuals <= 1e-12)


def test_ito_residual_cubic_on_linear_path_quarters():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=10))
    f = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 0.0, 1.0])
    rep = ito_residual(path, dyadic_hierarchy(path, 8), 2, f, 1.0)
    ratios = rep.residuals[1:] / rep.residuals[:-1]
    np.testing.assert_allclose(ratios, 0.25, rtol=1e-6)


def test_ito_residual_requires_smoothness(bm_path):
    f = tanaka_class("pos_part_pow", 2, a=0.0)
    with pytest.raises(ParameterError):
        ito_residual(bm_path, dyadic_hierarchy(bm_path, 4), 2, f, 1.0)


@pytest.mark.slow
def test_ito_residual_quartic_on_bm_small_at_level_14():
    f = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 0.0, 0.0, 1.0])
    finals = []
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=14, seed=900 + seed))
        rep = ito_residual(path, dyadic_hierarchy(path, 14), 2, f, 1.0)
        finals.append(rep.residuals[-1])
    assert median(finals) < 0.05


class _NoBetween(Points):
    """A level that refuses ``between``, the oscillation's reader."""

    def between(self, lo, hi):
        raise AssertionError("the level was read for an oscillation")


def test_identity_suite_reads_no_oscillation(bm_path):
    # the suite's terms are its levels' intervals alone: no band width
    saw = make_walk(0.5 * np.resize([0.0, 1, 0, -1], bm_path.n_samples))
    hier = dyadic_hierarchy(bm_path, 7)
    refusing = PartitionHierarchy(hier.kind, [_NoBetween(lev) for lev in hier.levels], hier.level_labels,
                                  hier.nested)
    for p in (2, 4):
        got = identity_suite(bm_path, saw, refusing, p)
        want = identity_suite(bm_path, saw, hier, p)
        assert [r.identity for r in got] == [r.identity for r in want]
        for rep, ref in zip(got, want):
            assert _same_bytes(rep.lhs, ref.lhs) and _same_bytes(rep.rhs, ref.rhs), rep.identity
            assert rep.passed == ref.passed, rep.identity
            assert rep.details.keys() == ref.details.keys(), rep.identity
            for name, values in ref.details.items():
                assert _same_bytes(rep.details[name], values), (rep.identity, name)


# -- identity suite ---------------------------------------------------------


def test_suite_nonneg_identity_is_exact_on_abs_bm(bm_path):
    other = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=10, seed=8))
    hier = dyadic_hierarchy(bm_path, 8)
    reports = identity_suite(bm_path, other, hier, 2)
    nonneg = reports[0]
    assert nonneg.exactness == "exact-per-level"
    assert nonneg.passed
    # |X| starts at exactly zero, so the only exact-tie charge per level is
    # the first interval's |X(t_1)|; interior samples never tie at a float 0
    for lev, rhs in zip(hier.levels, nonneg.rhs):
        first = abs(bm_path.values[lev[1]])
        assert rhs == pytest.approx(first, rel=1e-15)


def test_suite_nonneg_identity_with_engineered_zeros():
    # sawtooth touching zero on-grid: nontrivial exact-tie mass on both sides
    saw = make_walk(0.5 * np.array([0.0, 1, 2, 1, 0, 1, 2, 1, 0]))
    reports = identity_suite(saw, saw, dyadic_hierarchy(saw, 3), 2)
    nonneg = reports[0]
    assert nonneg.passed
    assert np.any(nonneg.rhs > 0.0)
    np.testing.assert_allclose(nonneg.lhs, nonneg.rhs, rtol=0, atol=1e-15)


def test_suite_handles_constant_zero_path(bm_path):
    zero = make_walk(np.zeros(bm_path.n_samples))
    reports = identity_suite(zero, bm_path, dyadic_hierarchy(bm_path, 6), 2)
    assert len(reports) == 7
    for rep in reports:
        assert np.all(np.isfinite(rep.lhs)) and np.all(np.isfinite(rep.rhs))


def test_suite_minmax_symmetric_under_swap(bm_path):
    other = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=10, seed=31))
    hier = dyadic_hierarchy(bm_path, 7)
    rep_xy = identity_suite(bm_path, other, hier, 2)[-1]
    rep_yx = identity_suite(other, bm_path, hier, 2)[-1]
    np.testing.assert_array_equal(rep_xy.lhs, rep_yx.lhs)
    np.testing.assert_array_equal(rep_xy.rhs, rep_yx.rhs)


def test_suite_positive_part_proxies_match_on_generic_paths(bm_path):
    # the telescoped local-time proxy at 0 and the half-open-bracket local
    # time agree except on the start interval, where the path sits at the
    # float 0 exactly and the two tie conventions split
    other = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=10, seed=32))
    hier = dyadic_hierarchy(bm_path, 7)
    reports = identity_suite(bm_path, other, hier, 2)
    pos = reports[1]
    for lab, lev, lhs in zip(pos.level_labels, hier.levels, pos.lhs):
        direct = discrete_local_time_point(bm_path, lev, 2, 0.0, 1.0)
        first = abs(bm_path.values[lev[1]])
        assert abs(float(lhs) - direct) <= first + 1e-15


def test_suite_grid_mismatch_rejected(bm_path):
    small = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=6, seed=1))
    with pytest.raises(ParameterError):
        identity_suite(bm_path, small, dyadic_hierarchy(small, 3), 2)


# -- scaling ---------------------------------------------------------------


def test_scaling_affine_doubling_is_exact(bm_path):
    f = tanaka_class("poly", 2, coeffs=[0.0, 2.0])
    rep = scaling_check(bm_path, f, 0.1234, dyadic_hierarchy(bm_path, 8), 2)
    assert rep.exactness == "exact-per-level"
    assert rep.passed


def test_scaling_translation_is_exact(rough_path):
    f = tanaka_class("poly", 4, coeffs=[5.0, 1.0])
    rep = scaling_check(rough_path, f, -0.0521, dyadic_hierarchy(rough_path, 8), 4)
    assert rep.passed


def test_scaling_rejects_non_monotone(bm_path):
    f = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])  # x^2 changes sign
    with pytest.raises(ParameterError):
        scaling_check(bm_path, f, 0.0, dyadic_hierarchy(bm_path, 4), 2)


def test_scaling_exp_ratio_close_to_one(bm_path):
    f = SmoothCallable([np.exp, np.exp], name="exp")
    rep = scaling_check(bm_path, f, 0.0, dyadic_hierarchy(bm_path, 10), 2)
    assert rep.exactness == "limit-only"
    ratio = rep.lhs[-1] / rep.rhs[-1]
    assert abs(ratio - 1.0) < 0.2


def test_scaling_root_preset_vanishes(bm_path):
    nonneg = make_walk(np.abs(bm_path.values))
    rep = scaling_root_preset(nonneg, 0.5, dyadic_hierarchy(nonneg, 8), 2)
    assert np.all(rep.lhs == 0.0) and np.all(rep.rhs == 0.0)


def test_scaling_root_preset_validation(bm_path):
    with pytest.raises(ParameterError):
        scaling_root_preset(bm_path, 0.5, dyadic_hierarchy(bm_path, 4), 2)  # signed path
    nonneg = make_walk(np.abs(bm_path.values))
    with pytest.raises(ParameterError):
        scaling_root_preset(nonneg, 1.5, dyadic_hierarchy(nonneg, 4), 2)


# -- occupation-density checks ----------------------------------------------


def test_occupation_check_constant_g_is_mass_conservation(bm_path):
    grid = SpaceGrid.cover([bm_path], 64)
    g = tanaka_class("poly", 2, coeffs=[1.0])
    (rep,) = occupation_check(bm_path, 2, g, [grid], 1.0)
    assert rep.passed
    pv = np.sum(np.diff(bm_path.values) ** 2)
    assert rep.lhs[0] == pytest.approx(pv, rel=1e-12)
    assert rep.rhs[0] == pytest.approx(pv, rel=1e-12)


def test_occupation_check_cell_indicator_exact(rough_path):
    grid = SpaceGrid.cover([rough_path], 48)
    g = CellIndicator(grid, range(10, 30))
    (rep,) = occupation_check(rough_path, 4, g, [grid], 1.0)
    assert rep.exactness == "exact-per-level"
    assert rep.passed


@pytest.mark.parametrize("t", [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
def test_occupation_check_is_exact_on_the_cell_of_s_t(bm_seed3, t):
    # the interval that starts at t is credited on both sides, so an
    # indicator of the cell holding S_t sees its mass on both
    path = bm_seed3
    grid = SpaceGrid.cover([path], 64)
    _, (k,) = snap_checkpoints(path, [t])
    g = CellIndicator(grid, [int(grid.cell_index(path.values[k]))])
    (rep,) = occupation_check(path, 2, g, [grid], t)
    assert rep.lhs[0] > 0.0
    assert rep.passed


def test_occupation_check_smooth_quadratic_within_tolerance(bm_path):
    grid = SpaceGrid.cover([bm_path], 128)
    g = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])
    (rep,) = occupation_check(bm_path, 2, g, [grid], 1.0)
    assert rep.passed
    assert rep.residuals[0] <= rep.threshold


def test_occupation_check_bins_each_grid_as_the_density_does():
    # one call on C4's six grids: the lhs and [S]^p once, and each rhs the
    # pairing of g with occupation_density_local_time on that grid
    occ = acceptance.DEFAULT_CONFIG["occupation"]
    path = generate(PathSpec(kind="fbm", hurst=0.5, seed=occ["smooth_seed_base"], n_max=occ["n_max"]))
    g = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])
    grids = [SpaceGrid.cover([path], cells) for cells in occ["smooth_cells"]]
    reps = occupation_check(path, 2, g, grids, 1.0)
    assert len(reps) == len(grids)
    for grid, rep in zip(grids, reps):
        density = occupation_density_local_time(path, 2, grid, [1.0]).values[0]
        rhs = 2 * grid.cellwidth * float(np.sum(np.asarray(g.value(grid.centers), dtype=float) * density))
        assert rep.rhs.tobytes() == np.array([rhs]).tobytes()
        (one,) = occupation_check(path, 2, g, [grid], 1.0)
        assert (rep.lhs.tobytes(), rep.rhs.tobytes(), rep.threshold, rep.passed, rep.details) == (
            one.lhs.tobytes(), one.rhs.tobytes(), one.threshold, one.passed, one.details)
    assert len({rep.lhs.tobytes() for rep in reps}) == 1
    assert len({rep.details["pth_variation"] for rep in reps}) == 1


def test_cell_indicator_validation():
    grid = SpaceGrid(0.0, 1.0, 10)
    with pytest.raises(ParameterError):
        CellIndicator(grid, [11])
    g = CellIndicator(grid, [2, 3])
    with pytest.raises(ParameterError):
        g.derivative(np.array([0.5]), 1)
