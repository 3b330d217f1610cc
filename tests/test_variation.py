import numpy as np
import pytest

from pathwise import (
    ParameterError,
    PathSpec,
    dyadic_hierarchy,
    generate,
    increment_power_sums,
    pth_variation,
    variation_convergence_report,
)
from pathwise._util import median
from tests.conftest import csv_rows, make_walk


def test_linear_quadratic_variation_closed_form():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=10))
    hier = dyadic_hierarchy(path, 8)
    curve = pth_variation(path, hier, 2, [1.0])
    for n, row in zip(curve.level_labels, curve.per_level):
        # 2**n intervals, each contributing (2**-n)**2
        assert row[-1] == pytest.approx(2.0**-n, rel=1e-12)


def test_checkpoint_zero_credits_the_first_interval(bm_path):
    hier = dyadic_hierarchy(bm_path, 4)
    curve = pth_variation(bm_path, hier, 2, [0.0, 1.0])
    for lev, row in zip(hier.levels, curve.per_level):
        first = abs(bm_path.values[lev[1]] - bm_path.values[lev[0]]) ** 2
        assert row[0] == pytest.approx(first, rel=1e-12)


def test_rows_nonnegative_and_nondecreasing(bm_path, rough_path, triangle_path):
    cps = [0.1, 0.25, 0.5, 0.8, 1.0]
    for path, p in ((bm_path, 2), (rough_path, 4), (triangle_path, 2)):
        curve = pth_variation(path, dyadic_hierarchy(path, path.n_max - 2), p, cps)
        assert np.all(curve.per_level >= 0.0)
        assert np.all(np.diff(curve.per_level, axis=1) >= 0.0)


def test_parameter_validation(bm_path):
    hier = dyadic_hierarchy(bm_path, 3)
    for bad_p in (1, 3, 0, -2):
        with pytest.raises(ParameterError):
            pth_variation(bm_path, hier, bad_p, [1.0])


def test_telescoping_first_variation_on_monotone_path():
    # raw helper: p = 1 on a monotone path telescopes at every level
    path = generate(PathSpec(kind="linear", slope=2.5, T=1.0, n_max=8))
    hier = dyadic_hierarchy(path, 8)
    for lev in hier.levels:
        val = increment_power_sums(path, lev, 1.0, [path.T])[0]
        assert val == pytest.approx(abs(path.values[-1] - path.values[0]), rel=1e-13)
        # without checkpoints the sum runs over the whole path
        assert increment_power_sums(path, lev, 1.0).tolist() == [val]


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.0, -1.0])
def test_increment_power_sums_refuses_a_p_that_is_not_finite_or_below_1(p):
    # these read [nan], [0.], the interval count and an ipow error
    path = generate(PathSpec(kind="bm", n_max=6, seed=1))
    with pytest.raises(ParameterError, match=f"p = {p}"):
        increment_power_sums(path, dyadic_hierarchy(path, 6).finest, p)


def test_closure_bound_for_combinations(bm_path, rough_path):
    # |x+y|^p <= 2^(p-1) (|x|^p + |y|^p) transfers to every level sum
    X, Y = bm_path, rough_path
    p = 2
    hier = dyadic_hierarchy(X, 8)
    cps = [0.25, 0.5, 1.0]
    vx = pth_variation(X, hier, p, cps).per_level
    vy = pth_variation(Y, hier, p, cps).per_level
    bound = 2 ** (p - 1) * (vx + vy)
    combos = (
        X.values + Y.values,
        np.maximum(X.values, Y.values),
        np.minimum(X.values, Y.values),
        np.maximum(X.values, 0.0),
        np.maximum(-X.values, 0.0),
    )
    for vals in combos:
        vc = pth_variation(make_walk(vals), hier, p, cps).per_level
        assert np.all(vc <= bound + 1e-12)


def test_convergence_report_linear_halves():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=10))
    curve = pth_variation(path, dyadic_hierarchy(path, 8), 2, [1.0])
    rep = variation_convergence_report(curve)
    ratios = rep.sup_diffs[1:] / rep.sup_diffs[:-1]
    np.testing.assert_allclose(ratios, 0.5, rtol=1e-10)
    assert rep.monotone_decreasing


def test_convergence_report_constant_zero(constant_path):
    curve = pth_variation(constant_path, dyadic_hierarchy(constant_path, 3), 2, [1.0])
    assert np.all(curve.per_level == 0.0)


def test_convergence_report_needs_two_levels(bm_path):
    curve = pth_variation(bm_path, dyadic_hierarchy(bm_path, 1), 2, [1.0])
    with pytest.raises(ParameterError):
        variation_convergence_report(curve)


@pytest.mark.slow
def test_bm_sup_difference_small_at_fine_levels():
    # finest consecutive rows differ by less than 0.1 in sup norm, median
    # over 20 seeds, for quadratic variation at 12 levels
    diffs = []
    cps = np.linspace(0.05, 1.0, 20)
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=seed))
        curve = pth_variation(path, dyadic_hierarchy(path, 12), 2, cps)
        rep = variation_convergence_report(curve)
        diffs.append(rep.sup_diffs[-1])
    assert median(diffs) < 0.1


@pytest.mark.slow
def test_rough_pth_variation_matches_gaussian_moment():
    # [S]^4(1) -> 3.0 for H = 1/4 at the finest dyadic level
    vals = []
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.25, T=1.0, n_max=14, seed=seed))
        hier = dyadic_hierarchy(path, 14)
        vals.append(pth_variation(path, hier, 4, [1.0]).per_level[-1, -1])
    assert abs(median(vals) - 3.0) <= 0.3


def test_csv_rows_schema(bm_path):
    curve = pth_variation(bm_path, dyadic_hierarchy(bm_path, 3), 2, [0.5, 1.0])
    rows = csv_rows(("level", "t", "value"), curve.csv_table())
    assert len(rows) == 3 * 2
    level, t, value = rows[0]
    assert level == "1" and float(t) == 0.5 and float(value) >= 0.0
