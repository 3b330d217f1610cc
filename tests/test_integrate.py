import bisect
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings, strategies as st

from pathwise import (
    CoverageError,
    Mollifier,
    ParameterError,
    PathSpec,
    SpaceGrid,
    StieltjesMeasure,
    discrete_local_time_point,
    dyadic_hierarchy,
    follmer_sum,
    generate,
    measure_remainder_sum,
    modified_follmer_integral,
    mollify,
    stieltjes_pairing,
    tanaka_class,
    tanaka_meyer_sum,
)
from pathwise import integrate
from tests.conftest import csv_rows, make_walk, modules_loaded, relative_gap, single_interval_path

FULL = np.arange(9)
COARSE = np.array([0, 4, 8])

walks = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
    min_size=9,
    max_size=9,
).map(lambda v: make_walk(np.asarray(v, dtype=float)))


# -- test-function calculus ----------------------------------------------


def test_pos_part_pow_pieces_and_measure():
    f = tanaka_class("pos_part_pow", 4, a=0.0)
    xs = np.array([-1.0, -0.1, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(f.value(xs), np.maximum(xs, 0.0) ** 3)
    mu = f.stieltjes_measure(3)
    assert mu.atoms == ((0.0, 6.0),)
    assert mu.density is None


def test_neg_part_pow_value_and_atom():
    f = tanaka_class("neg_part_pow", 2, a=1.0)
    xs = np.array([-1.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(f.value(xs), np.maximum(1.0 - xs, 0.0))
    assert f.stieltjes_measure(1).atoms == ((1.0, 1.0),)


def test_abs_pow_atom_mass_two():
    f = tanaka_class("abs_pow", 2, a=0.0)
    mu = f.stieltjes_measure(1)
    assert mu.atoms == ((0.0, 2.0),)
    assert mu.density is None


def test_poly_measure_is_pure_density():
    f = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])  # x^2
    mu = f.stieltjes_measure(1)
    assert mu.atoms == ()
    np.testing.assert_allclose(mu.density.value(np.array([-3.0, 0.0, 7.0])), 2.0)


def test_unknown_name_rejected():
    with pytest.raises(ParameterError):
        tanaka_class("bogus", 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_anchor_is_refused(bad):
    with pytest.raises(ParameterError, match="must be finite"):
        tanaka_class("abs_pow", 2, a=bad)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_non_finite_coefficients_are_refused(bad):
    with pytest.raises(ParameterError, match="must be finite"):
        tanaka_class("poly", 4, coeffs=[0.0, bad, 1.0])


def test_a_piece_without_coefficients_or_center_is_refused():
    # a piece without a coefficient has no degree and no value
    with pytest.raises(ParameterError, match="one or more coefficients"):
        tanaka_class("poly", 2, coeffs=[])
    with pytest.raises(ParameterError, match="one or more coefficients"):
        integrate.TestFunction(breakpoints=[0.0], pieces=([1.0], []), centers=[0.0, 0.0], smoothness=None)
    for centers in ([0.0], [0.0, 0.0, 0.0], [0.0, math.nan], [[0.0, 0.0]]):
        with pytest.raises(ParameterError, match="one finite center per piece"):
            integrate.TestFunction(breakpoints=[0.0], pieces=([1.0], [2.0]), centers=centers, smoothness=None)


def test_smoothness_defect_vanishes_for_the_tanaka_classes():
    for p in (2, 4):
        for name in ("pos_part_pow", "neg_part_pow", "abs_pow"):
            f = tanaka_class(name, p, a=0.3)
            assert f.smoothness_defect(p - 2) == 0.0
            # the (p-1)-th derivative genuinely jumps
            assert f.jump(p - 1, 0) != 0.0


def test_derivative_right_continuity_at_breakpoint():
    f = tanaka_class("pos_part_pow", 2, a=0.5)
    assert f.derivative(0.5, 1) == 1.0  # right piece, not the left zero


def _polyder_chain(c, k):
    """Piece coefficients differentiated k times, re-run on every call as
    TestFunction did before it cached them."""
    for _ in range(k):
        c = npoly.polyder(c) if c.size > 1 else np.zeros(1)
    return c


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("name", integrate.TANAKA_CLASS_NAMES)
def test_cached_derivative_coefficients_are_bit_identical_to_polyder_chain(name, p):
    a = 0.3
    f = tanaka_class(name, p, a=a, coeffs=[0.3, -1.2, 0.7, 1.1][:p])
    xs = np.array([a - 1.0, a - 1e-9, np.nextafter(a, -np.inf), a,
                   np.nextafter(a, np.inf), a + 1e-9, a + 1.0])
    pos = np.searchsorted(f.breakpoints, xs, side="right")
    for k in range(p + 1):
        chain = [_polyder_chain(c, k) for c in f.pieces]
        want = np.array([npoly.polyval(x - f.centers[i], chain[i]) for x, i in zip(xs, pos)])
        # the first call fills the cache, the second reads it
        assert np.array_equal(f.derivative(xs, k), want)
        assert np.array_equal(f.derivative(xs, k), want)
        assert [f.derivative(x, k) for x in xs] == want.tolist()
        for i, c in enumerate(chain):
            assert np.array_equal(f.differentiated(k).pieces[i], c)
            assert f.piece_derivative_value(i, a, k) == float(npoly.polyval(a - f.centers[i], c))


_coefficients = st.lists(st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         min_size=1, max_size=8).map(np.array)
_abscissae = st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300]), min_size=1,
                      max_size=12).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_coefficients, _abscissae)
def test_horner_helpers_are_numpy_polynomials_bytes(c, x):
    # numpy.polynomial (+0.74 MiB resident) is not imported by the engine:
    # its polyval and polyder operations are repeated, so are their bytes
    assert integrate._polyval(x, c).tobytes() == npoly.polyval(x, c).tobytes()
    assert integrate._polyval(x[:, None] + x, c).tobytes() == npoly.polyval(x[:, None] + x, c).tobytes()
    x0 = float(x[0])
    assert np.float64(integrate._polyval(x0, c)).tobytes() == np.float64(npoly.polyval(x0, c)).tobytes()
    for k in range(1, 4):
        assert integrate._diff_coeffs(c, k).tobytes() == _polyder_chain(c, k).tobytes()


@pytest.mark.parametrize("coeffs", [[0.3, -1.2, 0.7, 1.1], [0.0, 0.0, 0.0, 1.0], [2.0]])
def test_one_piece_derivatives_are_bit_identical_to_the_masked_path(coeffs):
    f = tanaka_class("poly", 4, coeffs=coeffs)
    # the same piece twice, split above every input: the per-piece masked
    # loop runs, and every x falls in its first piece
    twin = integrate.TestFunction(breakpoints=[1e300], pieces=f.pieces * 2,
                                  centers=np.repeat(f.centers, 2), smoothness=None)
    xs = np.random.default_rng(3).standard_normal((3, 17)) * 4.0
    xs[0, :3] = [-0.0, 0.0, 1e50]
    for k in range(4):
        for x in (0.7, -0.0, np.float64(-1.3), np.array(2.5), xs):
            got, want = f.derivative(x, k), twin.derivative(x, k)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert isinstance(f.derivative(0.7, k), float)
        assert f.derivative(np.array(2.5), k).shape == (1,)
        assert f.derivative(xs, k).shape == xs.shape


# -- compensated Riemann sums ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(walks, st.sampled_from([2, 4]))
def test_follmer_identity_map_telescopes(path, p):
    f = tanaka_class("poly", p, coeffs=[0.0, 1.0])
    for level in (FULL, COARSE):
        val = follmer_sum(path, level, p, f, 1.0)
        assert relative_gap(val, path.values[-1] - path.values[0]) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(walks, st.sampled_from([2, 4]))
def test_follmer_power_binomial_identity(path, p):
    coeffs = [0.0] * p + [1.0]  # x^p
    f = tanaka_class("poly", p, coeffs=coeffs)
    for level in (FULL, COARSE):
        inc = np.diff(path.values[level])
        expect = path.values[-1] ** p - path.values[0] ** p - np.sum(inc**p)
        assert relative_gap(follmer_sum(path, level, p, f, 1.0), expect) <= 2.0**-40


def test_follmer_square_closed_form(bm_path):
    f = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0])
    lev = dyadic_hierarchy(bm_path, 6).level(6)
    inc = np.diff(bm_path.values[lev])
    expect = bm_path.values[-1] ** 2 - bm_path.values[0] ** 2 - np.sum(inc**2)
    assert follmer_sum(bm_path, lev, 2, f, 1.0) == pytest.approx(expect, rel=1e-12)


def test_tanaka_meyer_dead_indicator(bm_path):
    a = bm_path.values.max() + 1.0
    lev = dyadic_hierarchy(bm_path, 5).level(5)
    assert tanaka_meyer_sum(bm_path, lev, 2, a, "plus", 1.0) == 0.0


def test_tanaka_meyer_two_point_hand_values():
    lev = np.array([0, 2])
    up = single_interval_path(0.0, 1.0)
    down = single_interval_path(1.0, 0.0)
    assert tanaka_meyer_sum(up, lev, 2, 0.5, "plus", 1.0) == 0.0
    assert tanaka_meyer_sum(down, lev, 2, 0.5, "plus", 1.0) == pytest.approx(-1.0)


def test_tanaka_meyer_sign_convention_at_zero():
    # sign(0) = +1: a start value exactly at the level counts as positive
    path = single_interval_path(0.5, 1.5)
    lev = np.array([0, 2])
    val = tanaka_meyer_sum(path, lev, 2, 0.5, "sign", 1.0)
    assert val == pytest.approx((1.5 - 0.5) - 0.0)


def test_tanaka_meyer_equals_follmer_of_pos_part(bm_path):
    a = 0.3217
    f = tanaka_class("pos_part_pow", 2, a=a)
    hier = dyadic_hierarchy(bm_path, 8)
    for lev in hier.levels:
        tm = tanaka_meyer_sum(bm_path, lev, 2, a, "plus", 1.0)
        fo = follmer_sum(bm_path, lev, 2, f, 1.0)
        assert relative_gap(tm, fo) <= 1e-12


def test_tanaka_meyer_sign_is_plus_minus_difference(rough_path):
    a = 0.1113
    hier = dyadic_hierarchy(rough_path, 7)
    for lev in hier.levels:
        plus = tanaka_meyer_sum(rough_path, lev, 4, a, "plus", 1.0)
        minus = tanaka_meyer_sum(rough_path, lev, 4, a, "minus", 1.0)
        sign = tanaka_meyer_sum(rough_path, lev, 4, a, "sign", 1.0)
        assert relative_gap(sign, plus - minus) <= 1e-12


def test_variant_validation(bm_path):
    with pytest.raises(ParameterError):
        tanaka_meyer_sum(bm_path, FULL, 2, 0.0, "both", 1.0)


# -- local time at a point / measure pairing ------------------------------


def test_local_time_point_single_interval_hand_values():
    path = single_interval_path(0.0, 1.0)
    lev = np.array([0, 2])
    assert discrete_local_time_point(path, lev, 2, 0.5, 1.0) == pytest.approx(0.5)
    assert discrete_local_time_point(path, lev, 4, 0.5, 1.0) == pytest.approx(0.125)


def test_local_time_point_above_running_max(bm_path):
    x = bm_path.values.max() + 0.5
    lev = dyadic_hierarchy(bm_path, 6).level(6)
    assert discrete_local_time_point(bm_path, lev, 2, x, 1.0) == 0.0


def test_stieltjes_pairing_single_atom():
    grid = SpaceGrid(-1.0, 2.0, 30)
    mu = StieltjesMeasure(atoms=((0.25, 6.0),), density=None)
    val = stieltjes_pairing(np.zeros(30), grid, mu, point_eval=lambda x: 0.5)
    assert val == pytest.approx(3.0)


def test_stieltjes_pairing_zero_measure():
    grid = SpaceGrid(-1.0, 2.0, 30)
    mu = StieltjesMeasure(atoms=(), density=None)
    assert stieltjes_pairing(np.ones(30), grid, mu) == 0.0


def test_stieltjes_pairing_density_midpoint_rule():
    # L(x) = (1 - x) on (0, 1] from the single up-move 0 -> 1; density 2
    path = single_interval_path(0.0, 1.0)
    lev = np.array([0, 2])
    cells = 64
    grid = SpaceGrid(-0.25, 1.25, cells)
    L = np.array([discrete_local_time_point(path, lev, 2, x, 1.0) for x in grid.centers])
    mu = tanaka_class("poly", 2, coeffs=[0.0, 0.0, 1.0]).stieltjes_measure(1)
    val = stieltjes_pairing(L, grid, mu)
    assert abs(val - 1.0) <= 2 * grid.cellwidth


def test_stieltjes_pairing_requires_point_eval_for_atoms():
    grid = SpaceGrid(-1.0, 1.0, 8)
    mu = StieltjesMeasure(atoms=((0.0, 1.0),), density=None)
    with pytest.raises(ParameterError):
        stieltjes_pairing(np.zeros(8), grid, mu)


def test_stieltjes_pairing_atom_outside_coverage():
    grid = SpaceGrid(-1.0, 1.0, 8)
    mu = StieltjesMeasure(atoms=((5.0, 1.0),), density=None)
    with pytest.raises(CoverageError):
        stieltjes_pairing(np.zeros(8), grid, mu, point_eval=lambda x: 0.0)


def test_measure_remainder_abs_pow_is_twice_the_local_time(bm_path):
    a = 0.271828
    f = tanaka_class("abs_pow", 2, a=a)
    mu = f.stieltjes_measure(1)
    hier = dyadic_hierarchy(bm_path, 7)
    for lev in hier.levels:
        rem = measure_remainder_sum(bm_path, lev, 2, mu, 1.0)
        lt = discrete_local_time_point(bm_path, lev, 2, a, 1.0)
        assert relative_gap(rem, 2.0 * lt) <= 1e-12


# -- mollification ---------------------------------------------------------


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
def test_mollifier_normalization(m):
    assert Mollifier(m).normalization_defect() <= 1e-10


def test_mollifier_support(m=8):
    phi = Mollifier(m)
    ys = np.array([-1.0, -1.0 / m - 1e-9, 1.0 / m + 1e-9, 1.0])
    np.testing.assert_array_equal(phi.value(ys), 0.0)
    assert phi.value(0.0) > 0.0


def test_mollifier_derivative_matches_finite_differences():
    phi = Mollifier(4)
    ys = np.linspace(-0.24, 0.24, 9)
    h = 1e-6
    fd = (phi.value(ys + h) - phi.value(ys - h)) / (2 * h)
    np.testing.assert_allclose(phi.derivative_value(ys), fd, atol=1e-4)


def test_mollify_constant_is_unchanged():
    f = tanaka_class("poly", 2, coeffs=[3.5])
    fm = mollify(f, 4)
    for x in (-2.0, 0.0, 1.7):
        assert fm.value(x) == pytest.approx(3.5, abs=1e-9)


def test_mollify_identity_map_is_unchanged():
    # odd moments of the symmetric bump vanish
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    fm = mollify(f, 8)
    for x in (-1.0, 0.2, 3.0):
        assert fm.value(x) == pytest.approx(x, abs=1e-9)


def test_mollify_positive_part_at_kink():
    f = tanaka_class("pos_part_pow", 2, a=0.0)  # x^+
    for m in (2, 8, 32):
        val = mollify(f, m).value(0.0)
        assert 0.0 < val < 0.5 / m
    # pointwise convergence at a sample point
    errs = [abs(mollify(f, m).value(0.05) - 0.05) for m in (2, 8, 32)]
    assert errs[0] > errs[-1]
    assert errs[-1] <= 1e-6


def test_mollified_derivative_of_kink_is_smoothed_step():
    f = tanaka_class("pos_part_pow", 2, a=0.0)
    fm = mollify(f, 4)
    assert fm.derivative(-0.5, 1) == pytest.approx(0.0, abs=1e-10)
    assert fm.derivative(0.5, 1) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < fm.derivative(0.0, 1) < 1.0


def small_bm(seed=11):
    return generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=6, seed=seed))


def test_modified_follmer_polynomial_matches_plain_sums():
    # mollification commutes with the degree <= p-1 Taylor stencil
    path = small_bm()
    f = tanaka_class("poly", 2, coeffs=[0.5, 2.0])
    hier = dyadic_hierarchy(path, 5)
    rep = modified_follmer_integral(path, hier, 2, f, 1.0, m_schedule=(2, 4), cells=64)
    plain = [follmer_sum(path, lev, 2, f, 1.0) for lev in hier.levels]
    lip = 2.0  # |f'| on the path range
    for i, m in enumerate(rep.m_schedule):
        for j in range(len(hier.levels)):
            assert abs(rep.sums[i, j] - plain[j]) <= 10.0 * (1.0 / m) * lip + 1e-8


def test_modified_follmer_needs_three_cells_for_its_grid():
    # its default grid has a one-cell margin on each side of the path range
    # and the atoms
    path = small_bm()
    hier = dyadic_hierarchy(path, 5)
    with pytest.raises(ParameterError, match="at least 3 cells"):
        modified_follmer_integral(path, hier, 2, tanaka_class("abs_pow", 2), 1.0, m_schedule=(2,), cells=2)


def test_modified_follmer_refuses_an_empty_schedule():
    # it returned sums of shape (0, levels) and err_decreasing_in_m=True
    path = small_bm()
    with pytest.raises(ParameterError, match="m_schedule"):
        modified_follmer_integral(path, dyadic_hierarchy(path, 5), 2, tanaka_class("abs_pow", 2), 1.0, m_schedule=())


def test_modified_follmer_far_kink_agrees_exactly():
    # path range avoids [a - 1/m, a + 1/m]; locally f is linear so the
    # mollification changes nothing
    path = small_bm()
    a = float(path.values.min()) - 2.0
    f = tanaka_class("pos_part_pow", 2, a=a)
    hier = dyadic_hierarchy(path, 5)
    rep = modified_follmer_integral(path, hier, 2, f, 1.0, m_schedule=(2,), cells=64)
    plain = [follmer_sum(path, lev, 2, f, 1.0) for lev in hier.levels]
    np.testing.assert_allclose(rep.sums[0], plain, atol=1e-7)


@pytest.mark.slow
def test_modified_follmer_error_decreases_in_m_on_rough_paths():
    # double-limit behaviour: with the partition fine enough to resolve the
    # mollification width (steps of about 0.03 against a support of 1/8),
    # the finest-level error at m = 8 is below that at m = 2 in the median
    # over 20 seeds.  The 32-cell target keeps the histogram's own noise,
    # which every m shares, below that gap: with 128 cells at n_max = 7
    # the medians for m = 2, 4, 8 rose on 3 of the seed sets 0-19, 100-119,
    # 200-219 and 300-319.  Here the median at m = 8 was 0.20-0.67 of the
    # one at m = 2 on each of the ten sets 1000-1019, ..., 1180-1199, whether
    # the Brownian steps were drawn directly or by circulant embedding.
    # Tabulating every m from mollify(f, 2) makes the two medians equal,
    # and the check fails.  The steps of an m = 2, 4, 8 ladder are too
    # close for the noise: with circulant-embedding paths its medians rose
    # from m = 4 to m = 8 on 2 of those ten sets.
    f = tanaka_class("abs_pow", 2, a=0.0)
    errs = []
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=10, seed=100 + seed))
        hier = dyadic_hierarchy(path, 10)
        rep = modified_follmer_integral(path, hier, 2, f, 1.0, m_schedule=(2, 8), cells=32)
        errs.append(rep.finest_err_by_m)
    med = np.median(np.asarray(errs), axis=0)
    assert np.all(np.diff(med) < 0.0), f"median errors not decreasing: {med}"


def test_modified_follmer_csv_rows():
    path = small_bm()
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    hier = dyadic_hierarchy(path, 3)
    rep = modified_follmer_integral(path, hier, 2, f, 1.0, m_schedule=(2, 4), cells=32)
    rows = csv_rows(("m", "level", "sum", "target", "abs_err"), rep.csv_table())
    assert len(rows) == 2 * 3
    m, level, value, target, abs_err = rows[0]
    assert m == "2" and level == "1" and float(abs_err) == abs(float(value) - float(target))


def test_modified_follmer_schedules_cross_check():
    # the closed-form target never depends on the schedule, and for a
    # linear f (mollification-invariant) both built-in schedules produce
    # the same sums up to quadrature tolerance
    from pathwise.integrate import ALT_M_SCHEDULE

    path = small_bm()
    f = tanaka_class("poly", 2, coeffs=[0.0, 3.0])
    hier = dyadic_hierarchy(path, 5)
    rep_a = modified_follmer_integral(path, hier, 2, f, 1.0, m_schedule=(2, 4), cells=64)
    rep_b = modified_follmer_integral(path, hier, 2, f, 1.0, m_schedule=ALT_M_SCHEDULE[:2], cells=64)
    assert rep_a.target == rep_b.target
    np.testing.assert_allclose(rep_a.sums[-1], rep_b.sums[-1], atol=1e-7)


# -- closed-form mollification ---------------------------------------------


def test_import_loads_no_scipy():
    # scipy is only the tests' quadrature reference, never an engine import
    assert [m for m in modules_loaded("import pathwise") if m.split(".")[0] == "scipy"] == []


def _scalar_reference_integrand(f, m, x, direct, kernel_order):
    """y -> f^(direct)(x - y) phi_m^(kernel_order)(y) on Python floats:
    an independent re-statement of the integrand, cheap enough for quad."""
    bps = f.breakpoints.tolist()
    pieces = [integrate._diff_coeffs(c, direct).tolist()[::-1] for c in f.pieces]
    centers = f.centers.tolist()

    def integrand(y):
        u = x - y
        i = bisect.bisect_right(bps, u)
        fk = 0.0
        for c in pieces[i]:
            fk = fk * (u - centers[i]) + c
        v = m * y
        if abs(v) >= 1.0:
            return 0.0
        w = v * v - 1.0
        bump = math.exp(1.0 / w) / integrate._BUMP_MASS
        return fk * (m * bump if kernel_order == 0 else m * m * bump * (-2.0 * v / (w * w)))

    return integrand


@pytest.mark.parametrize("m", [2, 8, 32])
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("name", ["pos_part_pow", "abs_pow"])
def test_mollified_derivatives_match_adaptive_quadrature(name, p, m):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    a = 0.1
    f = tanaka_class(name, p, a=a)
    fm = mollify(f, m)
    lo, hi = fm.mollifier.support
    # at and around the kink, and where it reaches the ends of the support
    xs = a + np.array([-1.0, -0.5, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.5, 1.0]) / m
    for k in range(p + 1):
        direct = min(k, p - 1)  # k = p moves the last derivative onto the kernel
        got = fm.derivative(xs, k)
        for x, g in zip(xs.tolist(), got):
            with warnings.catch_warnings():
                # quad reports roundoff where the exact value is 0 (the
                # kernel derivative against a kink at the support's end)
                warnings.simplefilter("ignore", scipy_integrate.IntegrationWarning)
                want, _ = scipy_integrate.quad(
                    _scalar_reference_integrand(f, m, x, direct, k - direct), lo, hi,
                    points=[x - a] if lo < x - a < hi else None, epsabs=1e-13, epsrel=1e-13, limit=200,
                )
            assert abs(g - want) <= 1e-12, f"k={k} x={x!r}: {g!r} vs quad {want!r}"


def test_mollified_derivatives_converge_under_node_doubling(monkeypatch):
    f = tanaka_class("abs_pow", 4, a=0.1)
    xs = 0.1 + np.linspace(-0.15, 0.15, 31)  # kink inside, at the ends and outside the support

    def tables(nodes):
        monkeypatch.setattr(integrate, "_MOLLIFY_NODES", nodes)
        return np.array([mollify(f, 8).derivative(xs, k) for k in range(5)])

    n = integrate._MOLLIFY_NODES
    quarter, half, full, double = (tables(c) for c in (n // 4, n // 2, n, 2 * n))
    gaps = [np.max(np.abs(b - a)) for a, b in ((quarter, half), (half, full), (full, double))]
    # halving the nodes costs accuracy fast; doubling the default gains nothing
    assert gaps[1] < 1e-3 * gaps[0]
    assert gaps[2] <= 1e-13 * np.max(np.abs(full))
