from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathwise import (
    CoverageError,
    ParameterError,
    PathSpec,
    PartitionHierarchy,
    SpaceGrid,
    berman_ratio_check,
    discrete_local_time,
    discrete_local_time_curves,
    dyadic_hierarchy,
    gaussian_moment,
    generate,
    lebesgue_hierarchy,
    occupation_density_local_time,
    occupation_time_density,
    oscillation,
    proper_order_report,
    running_extrema,
    uniform_convergence_report,
    weighted_occupation_local_time,
)
from pathwise import _util
from pathwise._util import bracket_contributions, ipow, left_endpoint_counts, median, snap_checkpoints
from pathwise.localtime import _order_flag
from tests.conftest import csv_rows, make_walk, traced_peak


def test_gaussian_moment_double_factorial():
    assert gaussian_moment(2) == 1.0
    assert gaussian_moment(4) == 3.0
    assert gaussian_moment(6) == 15.0


def test_space_grid_cover_has_margin(bm_path):
    grid = SpaceGrid.cover([bm_path], 64)
    m, M = bm_path.values.min(), bm_path.values.max()
    assert grid.lo < m and grid.hi > M
    assert grid.lo == pytest.approx(m - grid.cellwidth)
    assert grid.hi == pytest.approx(M + grid.cellwidth)


def test_space_grid_cover_degenerate_constant(constant_path):
    grid = SpaceGrid.cover([constant_path], 16)
    assert grid.lo < 2.0 < grid.hi


def test_space_grid_cover_takes_extra_points(bm_path):
    # a point outside the path's range widens the grid as a path value would
    m, M = float(bm_path.values.min()), float(bm_path.values.max())
    point = m - 1.5
    grid = SpaceGrid.cover([bm_path], 40, points=[point])
    cw = (M - point) / 38
    assert grid == SpaceGrid(point - cw, M + cw, 40)
    # points inside the range change nothing
    assert SpaceGrid.cover([bm_path], 40, points=[0.5 * (m + M)]) == SpaceGrid.cover([bm_path], 40)


def test_space_grid_validation():
    with pytest.raises(ParameterError):
        SpaceGrid(1.0, 1.0, 8)
    with pytest.raises(ParameterError):
        SpaceGrid(0.0, 1.0, 0)


@pytest.mark.parametrize("args, name", [
    ((-10.0, np.inf, 4), "hi"),  # its cellwidth was inf, and every density read 0
    ((np.nan, 10.0, 4), "lo"),
    ((-10, 10, 4.5), "cells"),  # a TypeError from inside numpy
    ((-10, 10, True), "cells"),
])
def test_space_grid_refuses_non_finite_bounds_and_a_cell_count_that_is_not_an_integer(args, name):
    with pytest.raises(ParameterError, match=f"grid field '{name}'"):
        SpaceGrid(*args)
    # a numpy integer is a count
    assert SpaceGrid(-10, 10, np.int64(4)).cellwidth == 5.0


def test_space_grid_edges_are_made_once_and_read_only():
    grid = SpaceGrid(-1.0, 3.0, 8)
    edges = grid.edges
    assert grid.edges is edges and not edges.flags.writeable
    assert edges.tobytes() == np.linspace(-1.0, 3.0, 9).tobytes()
    with pytest.raises(ValueError):
        edges[0] = 0.0
    # the cached edges are no field: equal grids stay equal and hash alike
    assert grid == SpaceGrid(-1.0, 3.0, 8) and hash(grid) == hash(SpaceGrid(-1.0, 3.0, 8))


def test_coverage_error(bm_path):
    grid = SpaceGrid(0.0, 0.1, 4)
    hier = dyadic_hierarchy(bm_path, 3)
    with pytest.raises(CoverageError):
        discrete_local_time(bm_path, hier, 2, grid, [1.0])


def test_field_matches_point_evaluation(bm_path):
    hier = dyadic_hierarchy(bm_path, 5)
    grid = SpaceGrid.cover([bm_path], 32)
    field = discrete_local_time(bm_path, hier, 2, grid, [0.5, 1.0])
    # oracle: evaluate the same sums one location at a time
    for gi in (5, 16, 27):
        x = grid.centers[gi]
        curves = discrete_local_time_curves(bm_path, hier, 2, float(x), [0.5, 1.0])
        np.testing.assert_allclose(field.per_level[:, :, gi], curves, rtol=0, atol=1e-14)


def test_field_invariants(bm_path, rough_path):
    # support sits inside the running range of the credited intervals
    # (their right endpoints can lie beyond the checkpoint, because the
    # t_j <= t rule credits the interval starting at the checkpoint too),
    # widened by one cell; at t = T this is the full-path range
    for path, p in ((bm_path, 2), (rough_path, 4)):
        hier = dyadic_hierarchy(path, 7)
        grid = SpaceGrid.cover([path], 48)
        cps = [0.25, 0.5, 0.75, 1.0]
        field = discrete_local_time(path, hier, p, grid, cps)
        assert np.all(field.per_level >= 0.0)
        assert np.all(np.diff(field.per_level, axis=1) >= 0.0)
        m_run, M_run = running_extrema(path)
        for i, lev in enumerate(hier.levels):
            left = lev[:-1]
            for j, t in enumerate(field.checkpoint_times):
                count = int(np.searchsorted(left, snap_checkpoints(path, [t])[1][0], side="right"))
                horizon = lev[count]  # right endpoint of the last credited interval
                lo = m_run[horizon] - grid.cellwidth
                hi = M_run[horizon] + grid.cellwidth
                outside = (grid.centers < lo) | (grid.centers > hi)
                assert np.all(field.per_level[i, j, outside] == 0.0)
        final = field.per_level[:, -1, :]
        lo = path.values.min() - grid.cellwidth
        hi = path.values.max() + grid.cellwidth
        outside = (grid.centers < lo) | (grid.centers > hi)
        assert np.all(final[:, outside] == 0.0)


def test_temporal_stieltjes_localization(bm_path):
    # increments of the local time at a only charge intervals whose start
    # lies within one oscillation of a
    hier = dyadic_hierarchy(bm_path, 8)
    a = 0.1473
    for lev in hier.levels:
        osc = oscillation(bm_path, lev)
        sa = bm_path.values[lev[:-1]]
        sb = bm_path.values[lev[1:]]
        dL = bracket_contributions(sa, sb, 2, a)
        below = sa < a - osc
        above = sa > a + osc
        assert np.sum(below * dL) == 0.0
        assert np.sum(above * dL) == 0.0


def test_occupation_density_linear_bound():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=10))
    grid = SpaceGrid.cover([path], 32)
    occ = occupation_density_local_time(path, 2, grid, [1.0])
    bound = 2.0**-path.n_max / (2 * grid.cellwidth)
    assert np.all(occ.values <= bound + 1e-15)


def test_occupation_density_mass_conservation(bm_path, rough_path):
    for path, p in ((bm_path, 2), (rough_path, 4)):
        grid = SpaceGrid.cover([path], 77)
        cps = [0.3, 0.6, 1.0]
        occ = occupation_density_local_time(path, p, grid, cps)
        inc = np.abs(np.diff(path.values)) ** p
        for j, t in enumerate(occ.checkpoint_times):
            idx = int(snap_checkpoints(path, [t])[1][0])
            # t_j <= t credits the interval starting at the checkpoint too
            pv = np.sum(inc[: min(idx + 1, inc.size)])
            total = p * grid.cellwidth * np.sum(occ.values[j])
            assert abs(total - pv) <= 2.0**-40 * max(1.0, pv)


@pytest.mark.slow
def test_occupation_density_total_mass_tracks_pth_variation():
    # cellwidth * sum values(T) -> [S]^2(1) / 2 = 0.5 for Brownian paths
    vals = []
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=seed))
        grid = SpaceGrid.cover([path], 64)
        occ = occupation_density_local_time(path, 2, grid, [1.0])
        vals.append(grid.cellwidth * np.sum(occ.values[0]))
    assert abs(median(vals) - 0.5) <= 0.05


def test_weighted_occupation_matches_time_density_at_half():
    path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=9, seed=21))
    grid = SpaceGrid.cover([path], 40)
    w = weighted_occupation_local_time(path, 0.5, grid, [0.5, 1.0])
    tau = occupation_time_density(path, grid, [0.5, 1.0])
    np.testing.assert_allclose(w.values, tau.values, rtol=1e-12, atol=1e-15)


def test_weighted_occupation_constant_path_total_mass():
    path = generate(PathSpec(kind="constant", value=1.5, T=2.0, n_max=6))
    grid = SpaceGrid(0.0, 3.0, 30)
    for hurst in (0.25, 0.5, 0.75):
        w = weighted_occupation_local_time(path, hurst, grid, [2.0])
        total = grid.cellwidth * np.sum(w.values[0])
        assert total == pytest.approx(2.0 ** (2 * hurst), rel=1e-12)
        # single occupied cell
        assert np.count_nonzero(w.values[0]) == 1


def test_weighted_occupation_total_masses_differ_by_hurst():
    path = generate(PathSpec(kind="fbm", hurst=0.5, T=4.0, n_max=8, seed=2))
    grid = SpaceGrid.cover([path], 50)
    t_half = weighted_occupation_local_time(path, 0.5, grid, [4.0])
    t_quarter = weighted_occupation_local_time(path, 0.25, grid, [4.0])
    assert grid.cellwidth * np.sum(t_half.values[0]) == pytest.approx(4.0, rel=1e-12)
    assert grid.cellwidth * np.sum(t_quarter.values[0]) == pytest.approx(2.0, rel=1e-12)


def test_weighted_occupation_validates_hurst(bm_path):
    grid = SpaceGrid.cover([bm_path], 16)
    with pytest.raises(ParameterError):
        weighted_occupation_local_time(bm_path, 1.2, grid, [1.0])


def test_berman_ratio_expected_values(bm_path):
    grid = SpaceGrid.cover([bm_path], 48)
    rep = berman_ratio_check(bm_path, 2, grid)
    assert rep.expected_ratio == 0.5
    assert rep.per_cell_ratio.size > 0


def test_berman_ratio_expected_value_quartic(rough_path):
    grid = SpaceGrid.cover([rough_path], 48)
    rep = berman_ratio_check(rough_path, 4, grid)
    assert rep.expected_ratio == 0.75


def test_berman_ratio_rejects_non_fbm(linear_path):
    grid = SpaceGrid.cover([linear_path], 16)
    with pytest.raises(ParameterError):
        berman_ratio_check(linear_path, 2, grid)


def test_berman_ratio_rejects_hurst_mismatch(bm_path):
    grid = SpaceGrid.cover([bm_path], 16)
    with pytest.raises(ParameterError):
        berman_ratio_check(bm_path, 4, grid)


def test_uniform_convergence_constant(constant_path):
    hier = dyadic_hierarchy(constant_path, 3)
    grid = SpaceGrid.cover([constant_path], 8)
    field = discrete_local_time(constant_path, hier, 2, grid, [1.0])
    rep = uniform_convergence_report(field)
    assert np.all(rep.sup_diffs == 0.0)
    assert np.all(rep.weak_values == 0.0)


def test_uniform_convergence_hand_computed_small_path():
    # 3-sample path with a custom two-level hierarchy; oracle re-evaluates
    # the sup distance by direct looping
    path = make_walk([0.0, 1.0, 0.25])
    hier = PartitionHierarchy(
        kind="dyadic",
        levels=(np.array([0, 2]), np.array([0, 1, 2])),
        level_labels=(0, 1),
        nested=True,
    )
    grid = SpaceGrid(-0.5, 1.5, 16)
    field = discrete_local_time(path, hier, 2, grid, [1.0])
    rep = uniform_convergence_report(field)

    def brute(level_pairs, x):
        total = 0.0
        for a, b in level_pairs:
            lo, hi = min(a, b), max(a, b)
            if lo < x <= hi:
                total += abs(b - x)
        return total

    coarse = [(0.0, 0.25)]
    fine = [(0.0, 1.0), (1.0, 0.25)]
    sup = max(abs(brute(fine, x) - brute(coarse, x)) for x in grid.centers)
    assert rep.sup_diffs[0] == pytest.approx(sup, rel=1e-13)


@pytest.mark.slow
def test_weak_diagnostic_differences_shrink_for_bm():
    diffs = []
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=500 + seed))
        hier = dyadic_hierarchy(path, 12)
        grid = SpaceGrid.cover([path], 64)
        field = discrete_local_time(path, hier, 2, grid, [1.0])
        diffs.append(uniform_convergence_report(field).weak_diffs)
    med = np.median(np.asarray(diffs), axis=0)  # (levels-1, densities)
    assert np.all(med[-1] < med[0])


@pytest.mark.slow
def test_proper_order_flags_for_bm():
    # quadratic order is the proper one for H = 1/2: r = 2 stays stable,
    # r = 4 dies out (flags of the median sup curves over 20 seeds)
    curves = {2: [], 4: []}
    for seed in range(20):
        path = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=700 + seed))
        hier = dyadic_hierarchy(path, 12)
        grid = SpaceGrid.cover([path], 64)
        rep = proper_order_report(path, hier, [2, 4], grid)
        curves[2].append(rep.sup_values[0])
        curves[4].append(rep.sup_values[1])
    assert _order_flag(np.median(np.asarray(curves[2]), axis=0)) == "stable"
    assert _order_flag(np.median(np.asarray(curves[4]), axis=0)) == "vanishing"


def test_proper_order_linear_path_vanishes():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=10))
    hier = dyadic_hierarchy(path, 10)
    grid = SpaceGrid.cover([path], 32)
    rep = proper_order_report(path, hier, [2, 4, 6], grid)
    assert rep.flags == ("vanishing", "vanishing", "vanishing")


def test_proper_order_single_level_has_no_flags(bm_path):
    hier = dyadic_hierarchy(bm_path, 1)
    grid = SpaceGrid.cover([bm_path], 16)
    rep = proper_order_report(bm_path, hier, [2], grid)
    assert rep.flags == (None,)


def test_csv_rows_schema(bm_path):
    hier = dyadic_hierarchy(bm_path, 2)
    grid = SpaceGrid.cover([bm_path], 4)
    field = discrete_local_time(bm_path, hier, 2, grid, [0.5, 1.0])
    rows = csv_rows(("level", "t", "x", "value"), field.csv_table())
    assert len(rows) == 2 * 2 * 4
    level, t, x, value = rows[0]
    assert level == "1" and float(t) == 0.5 and float(x) == grid.centers[0] and float(value) >= 0.0


def test_reports_render_named_fields(bm_path):
    hier = dyadic_hierarchy(bm_path, 4)
    grid = SpaceGrid.cover([bm_path], 24)
    field = discrete_local_time(bm_path, hier, 2, grid, [1.0])
    text = str(uniform_convergence_report(field))
    assert "sup_(t,x)" in text and "gauss(mu=" in text
    ratio_text = str(berman_ratio_check(bm_path, 2, grid))
    assert "theoretical ratio" in ratio_text and "spatial average" in ratio_text
    order_text = str(proper_order_report(bm_path, hier, [2], grid))
    assert "order 2" in order_text


# -- bit-for-bit agreement with the dense prefix sums -------------------------


def dense_local_time(path, hierarchy, p, grid, checkpoints):
    """Reference: the (intervals x cells) masked tensor, cumsum over
    intervals, gathered at the checkpoint counts."""
    _, cps = snap_checkpoints(path, checkpoints)
    centers = grid.centers
    out = np.zeros((hierarchy.n_levels, cps.size, grid.cells))
    for i, lev in enumerate(hierarchy.levels):
        a = path.values[lev[:-1]]
        b = path.values[lev[1:]]
        lo = np.minimum(a, b)[:, None]
        hi = np.maximum(a, b)[:, None]
        contrib = np.where(
            (centers[None, :] > lo) & (centers[None, :] <= hi),
            ipow(np.abs(b[:, None] - centers[None, :]), p - 1),
            0.0,
        )
        cums = np.concatenate([np.zeros((1, grid.cells)), np.cumsum(contrib, axis=0)])
        out[i] = cums[left_endpoint_counts(lev, cps)]
    return out


def two_search_local_time(path, hierarchy, p, grid, checkpoints):
    """Reference: the sweep that searched the centres for both endpoint
    values of every interval on every level, with one ``np.add.at`` over
    each checkpoint's prefix of (cell, weight) pairs."""
    _, cps = snap_checkpoints(path, checkpoints)
    centers = grid.centers
    out = np.zeros((hierarchy.n_levels, cps.size, grid.cells))
    for i, lev in enumerate(hierarchy.levels):
        a = path.values[lev[:-1]]
        b = path.values[lev[1:]]
        first = np.searchsorted(centers, np.minimum(a, b), side="right")
        stop = np.searchsorted(centers, np.maximum(a, b), side="right")
        offsets = np.concatenate([[0], np.cumsum(stop - first)])
        owner = np.repeat(np.arange(a.size), stop - first)
        cell = first[owner] + (np.arange(offsets[-1]) - offsets[owner])
        weight = ipow(np.abs(b[owner] - centers[cell]), p - 1)
        for j, n in enumerate(offsets[left_endpoint_counts(lev, cps)]):
            np.add.at(out[i, j], cell[:n], weight[:n])
    return out


def prefix_density(path, grid, weights, checkpoints, denominator):
    """Reference: one ``np.add.at`` over the whole prefix per checkpoint."""
    _, cps = snap_checkpoints(path, checkpoints)
    cells = grid.cell_index(path.values[:-1])
    out = np.zeros((cps.size, grid.cells))
    for j, c in enumerate(cps):
        count = min(int(c) + 1, path.n_samples - 1)
        np.add.at(out[j], cells[:count], weights[:count])
    return out / denominator


@st.composite
def integer_walks(draw):
    """Integer-valued walks with ties (zero steps) and a grid whose centres
    (or edges) sit exactly on the integers the walk visits.  A scale of 0.3
    makes the sums round, so the order of the additions shows."""
    k = draw(st.integers(1, 6))
    steps = draw(st.lists(st.integers(-3, 3), min_size=2**k, max_size=2**k))
    ints = np.concatenate([[0.0], np.cumsum(steps, dtype=float)]) + draw(st.integers(-2, 2))
    scale = draw(st.sampled_from([1.0, 0.3]))
    path = make_walk(scale * ints)
    m, M = ints.min(), ints.max()
    extra = draw(st.integers(0, 2))
    placement = draw(st.sampled_from(["centres", "edges", "cover"]))
    if placement == "centres":
        lo, hi, cells = m - 0.5 - extra, M + 0.5 + extra, int(M - m) + 1 + 2 * extra
        grid = SpaceGrid(scale * lo, scale * hi, cells)
    elif placement == "edges":
        lo, hi, cells = m - 1.0 - extra, M + 1.0 + extra, int(M - m) + 2 + 2 * extra
        grid = SpaceGrid(scale * lo, scale * hi, cells)
    else:
        grid = SpaceGrid.cover([path], draw(st.integers(3, 40)))
    checkpoints = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    return path, grid, checkpoints


@settings(max_examples=300, deadline=None)
@given(
    integer_walks(),
    st.sampled_from([2, 4, 6]),
    st.sampled_from(["dyadic", "lebesgue"]),
    st.sampled_from([2, 3, 1 << 16]),
)
def test_sparse_field_is_bit_identical_to_dense(walk, p, kind, block):
    # checkpoints fall inside coarse cells; small blocks split runs of
    # pairs mid-interval and mid-segment.  With samples on the cell centres
    # a tie could part ranking each sample once from searching the min and
    # max of each interval, so the two-search sweep is checked byte for byte
    path, grid, checkpoints = walk
    if kind == "lebesgue":
        assume(np.ptp(path.values) > 0)
        hier = lebesgue_hierarchy(path, 3)
    else:
        hier = dyadic_hierarchy(path, path.n_max)
    with mock.patch.object(_util, "_BLOCK_PAIRS", block):
        field = discrete_local_time(path, hier, p, grid, checkpoints)
        two_search = two_search_local_time(path, hier, p, grid, checkpoints)
    assert np.array_equal(field.per_level, dense_local_time(path, hier, p, grid, checkpoints))
    assert field.per_level.tobytes() == two_search.tobytes()


def test_ranked_sweep_is_bit_identical_to_two_searches_on_an_fbm_path():
    path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=12, seed=3))
    grid = SpaceGrid.cover([path], 64)
    checkpoints = [0.3, 1.0]
    for hier in (dyadic_hierarchy(path, 12), lebesgue_hierarchy(path, 6)):
        field = discrete_local_time(path, hier, 4, grid, checkpoints)
        want = two_search_local_time(path, hier, 4, grid, checkpoints)
        assert field.per_level.tobytes() == want.tobytes()


def test_berman_ratio_bins_the_path_once(rough_path):
    # the report equals the one built from the two public densities, which
    # bin the path twice
    grid = SpaceGrid.cover([rough_path], 48)
    with mock.patch.object(SpaceGrid, "cell_index", autospec=True, side_effect=SpaceGrid.cell_index) as spy:
        rep = berman_ratio_check(rough_path, 4, grid)
    assert spy.call_count == 1
    occ = occupation_density_local_time(rough_path, 4, grid, [1.0]).values[0]
    tau = occupation_time_density(rough_path, grid, [1.0]).values[0]
    sel = tau > 0
    assert rep.per_cell_ratio.tobytes() == (occ[sel] / tau[sel]).tobytes()
    assert rep.occupation_weights.tobytes() == tau[sel].tobytes()
    assert rep.average_ratio == float(np.sum(occ[sel] / tau[sel] * tau[sel]) / np.sum(tau[sel]))


@settings(max_examples=200, deadline=None)
@given(integer_walks(), st.sampled_from([2, 4]), st.sampled_from([2, 3, 1 << 16]))
def test_binned_densities_are_bit_identical_to_prefix_sums(walk, p, block):
    path, grid, checkpoints = walk
    w_var = ipow(np.abs(np.diff(path.values)), p)
    w_time = np.full(path.n_samples - 1, path.dt)
    w_hurst = path.times[1:] ** 0.5 - path.times[:-1] ** 0.5
    with mock.patch.object(_util, "_BLOCK_PAIRS", block):
        occ = occupation_density_local_time(path, p, grid, checkpoints).values
        tau = occupation_time_density(path, grid, checkpoints).values
        weighted = weighted_occupation_local_time(path, 0.25, grid, checkpoints).values
    assert np.array_equal(occ, prefix_density(path, grid, w_var, checkpoints, p * grid.cellwidth))
    assert np.array_equal(tau, prefix_density(path, grid, w_time, checkpoints, grid.cellwidth))
    assert np.array_equal(weighted, prefix_density(path, grid, w_hurst, checkpoints, grid.cellwidth))


def test_field_working_set_is_bounded_for_full_range_zigzag():
    # every finest-level step swings across the whole grid, so the touched
    # pairs are about intervals x cells; a dense float64 temporary would be
    # 2**14 * 256 * 8 B = 32 MiB
    n_max, cells = 14, 256
    path = make_walk((-1.0) ** np.arange(2**n_max + 1))
    hier = dyadic_hierarchy(path, n_max)
    grid = SpaceGrid.cover([path], cells)
    field, peak = traced_peak(discrete_local_time, path, hier, 4, grid, [0.5, 1.0])
    assert peak < 8 * 2**20
    # against the sequential dense reference at each centre: a cumsum of
    # the bracket contributions, read at the checkpoint counts
    _, cps = snap_checkpoints(path, [0.5, 1.0])
    for gi in (1, 128, 254):
        x = float(grid.centers[gi])
        for i, lev in enumerate(hier.levels):
            terms = bracket_contributions(path.values[lev[:-1]], path.values[lev[1:]], 4, x)
            want = np.concatenate([[0.0], np.cumsum(terms)])[left_endpoint_counts(lev, cps)]
            np.testing.assert_allclose(field.per_level[i, :, gi], want, rtol=1e-14, atol=0)


def test_field_bytes_do_not_depend_on_the_pair_block():
    # blocks of 16 pairs cut nearly every interval's run of cells; 2**13 is
    # the module's, 2**16 the size it had before
    path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=12, seed=3))
    grid = SpaceGrid.cover([path], 128)
    for hier in (dyadic_hierarchy(path, 12), lebesgue_hierarchy(path, 6)):
        fields = set()
        for block in (1 << 4, 1 << 13, 1 << 16):
            with mock.patch.object(_util, "_BLOCK_PAIRS", block):
                fields.add(discrete_local_time(path, hier, 4, grid, [0.3, 1.0]).per_level.tobytes())
        assert len(fields) == 1


@pytest.mark.parametrize("cells, dtype", [(255, np.uint8), (256, np.uint16)])
def test_ranks_take_the_smallest_type_that_holds_every_rank(cells, dtype):
    # a sample's rank counts the centres at or below it, 0 to cells: the
    # walk reaches both ends of a grid that fits it exactly, so 255 cells
    # still fit a byte and 256 need two
    path = make_walk(np.concatenate([[0.0], np.linspace(1.0, 0.0, 63) ** 2, [1.0]]))
    grid = SpaceGrid(0.0, 1.0, cells)
    hier = dyadic_hierarchy(path, path.n_max)
    with mock.patch.object(_util.LevelStack, "cell_sums", autospec=True,
                           side_effect=_util.LevelStack.cell_sums) as spy:
        field = discrete_local_time(path, hier, 4, grid, [0.5, 1.0])
    rank = spy.call_args.args[-1]
    assert rank.dtype == dtype and rank.min() == 0 and rank.max() == cells
    assert field.per_level.tobytes() == two_search_local_time(path, hier, 4, grid, [0.5, 1.0]).tobytes()


def test_field_peak_memory_at_n_max_18():
    # run-field's dyadic field (18 levels, 128 cells, 4 checkpoints): one
    # int64 rank per sample and blocks of 2**16 pairs traced 4.90 MiB,
    # 2.45x the path bytes; one-byte ranks, ranked a block at a time, and
    # blocks of 2**13 pairs trace 1.21 MiB, 0.61x
    path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=18, seed=1))
    hier = dyadic_hierarchy(path, 18)
    grid = SpaceGrid.cover([path], 128)
    _, peak = traced_peak(discrete_local_time, path, hier, 4, grid, [0.25, 0.5, 0.75, 1.0])
    assert peak <= 0.75 * path.values.nbytes, peak / path.values.nbytes


@pytest.mark.parametrize("T", [1.0, 0.7, 3.0, 1e-3])
def test_weighted_density_times_are_path_times_bit_for_bit(T):
    # each chunk's times come from np.linspace's formula, k * (T / N) + 0.0
    # with the last time T, and not from path.times; two chunks and the
    # last one's end are checked against the prefix sums over path.times
    path = generate(PathSpec(kind="bm", T=T, n_max=16, seed=4))
    grid = SpaceGrid.cover([path], 32)
    checkpoints = [T / 3, T]
    w_hurst = path.times[1:] ** 0.6 - path.times[:-1] ** 0.6
    weighted = weighted_occupation_local_time(path, 0.3, grid, checkpoints).values
    assert weighted.tobytes() == prefix_density(path, grid, w_hurst, checkpoints, grid.cellwidth).tobytes()


def _searched_cells(grid, x):
    return np.clip(np.searchsorted(grid.edges, np.asarray(x, dtype=float), side="right") - 1, 0, grid.cells - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e12, 1e12),
    st.floats(1e-9, 1e6),
    st.integers(1, 5000),
    st.lists(st.floats(-1.5, 2.5), min_size=1, max_size=20),
)
def test_cell_index_is_the_clipped_edge_search(lo, width, cells, fracs):
    # the arithmetic estimate, moved at most one cell by the edges, gives
    # searchsorted's cell for every edge, one ulp on either side of it, and
    # values inside and outside the grid; grids too fine for their offset
    # take the search itself
    hi = lo + width
    assume(lo < hi)
    grid = SpaceGrid(lo, hi, cells)
    e = grid.edges
    x = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), lo + width * np.array(fracs),
                        [-np.inf, np.inf, np.nan]])
    assert grid.cell_index(x).tobytes() == _searched_cells(grid, x).tobytes()
    assert int(grid.cell_index(x[1])) == int(_searched_cells(grid, x[1]))


def test_cell_index_of_collapsed_edges():
    # cells narrower than the ulp of the offset: neighbouring edges are
    # equal, and the index is the search's
    for lo, hi, cells in ((1e16, 1e16 + 8.0, 100), (1.0, 1.0 + 2.0**-50, 64), (-3e8, -3e8 + 1e-7, 4096)):
        grid = SpaceGrid(lo, hi, cells)
        e = grid.edges
        assert np.any(np.diff(e) == 0.0)
        x = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), np.linspace(lo, hi, 999)])
        assert grid.cell_index(x).tobytes() == _searched_cells(grid, x).tobytes()
