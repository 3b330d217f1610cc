
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pathwise import (
    ParameterError,
    PartitionHierarchy,
    PathSpec,
    ResolutionError,
    dyadic_hierarchy,
    generate,
    increment_power_sums,
    lebesgue_hierarchy,
    oscillation,
    pth_variation,
)
from pathwise import partitions
from tests.conftest import make_walk, traced_peak


def test_dyadic_levels_are_the_expected_index_sets():
    path = generate(PathSpec(kind="linear", n_max=3))
    hier = dyadic_hierarchy(path, 2)
    np.testing.assert_array_equal(hier.level(1), [0, 4, 8])
    np.testing.assert_array_equal(hier.level(2), [0, 2, 4, 6, 8])
    assert hier.nested


def test_dyadic_level_sizes(bm_path):
    hier = dyadic_hierarchy(bm_path, 6)
    for n, lev in zip(hier.level_labels, hier.levels):
        assert lev.size == 2**n + 1
        assert lev[0] == 0 and lev[-1] == bm_path.n_samples - 1


def test_dyadic_nesting_holds(bm_path):
    hier = dyadic_hierarchy(bm_path, 7)
    for coarse, fine in zip(hier.levels, hier.levels[1:]):
        assert np.all(np.isin(coarse, fine))


def test_dyadic_resolution_error(bm_path):
    with pytest.raises(ResolutionError):
        dyadic_hierarchy(bm_path, bm_path.n_max + 1)


def test_lebesgue_on_identity_path_spaces_by_threshold():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=8))
    hier = lebesgue_hierarchy(path, 4)
    for n, lev in zip(hier.level_labels, hier.levels):
        # S(t) = t advances by 2**-n exactly every 2**(n_max - n) grid steps
        step = 2 ** (path.n_max - n)
        np.testing.assert_array_equal(lev, np.arange(0, path.n_samples, step))
    # so each level's points are points of the next, not the reverse
    assert hier.nested


def test_lebesgue_rejects_constant_path(constant_path):
    with pytest.raises(ParameterError):
        lebesgue_hierarchy(constant_path, 2)


def test_lebesgue_monotone_oscillation_bound(bm_path):
    # monotone transform of a rough path: running max is non-decreasing
    vals = np.maximum.accumulate(bm_path.values)
    from tests.conftest import make_walk

    mono = make_walk(vals)
    hier = lebesgue_hierarchy(mono, 5)
    gap = np.max(np.abs(np.diff(vals)))
    for n, lev in zip(hier.level_labels, hier.levels):
        assert oscillation(mono, lev) <= 2.0**-n + gap + 1e-15


def test_lebesgue_nested_flag_is_reported(bm_path):
    hier = lebesgue_hierarchy(bm_path, 5)
    expect = all(
        np.all(np.isin(c, f)) for c, f in zip(hier.levels, hier.levels[1:])
    )
    assert hier.nested == expect


def test_oscillation_constant_is_zero(constant_path):
    hier = dyadic_hierarchy(constant_path, 2)
    assert oscillation(constant_path, hier.level(1)) == 0.0


def test_oscillation_linear_dyadic():
    path = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=8))
    hier = dyadic_hierarchy(path, 6)
    for n in hier.level_labels:
        assert oscillation(path, hier.level(n)) == pytest.approx(2.0**-n, rel=1e-12)


def test_oscillation_triangle_trivial_level(triangle_path):
    level0 = np.array([0, triangle_path.n_samples - 1])
    assert oscillation(triangle_path, level0) == pytest.approx(1.0)


def test_oscillation_uses_interior_points(triangle_path):
    # endpoint-only range of [0, T] would be 0 for the triangle
    level0 = np.array([0, triangle_path.n_samples - 1])
    endpoints_only = abs(triangle_path.values[-1] - triangle_path.values[0])
    assert oscillation(triangle_path, level0) > endpoints_only


def test_oscillation_monotone_under_refinement(bm_path, rough_path):
    for path in (bm_path, rough_path):
        hier = dyadic_hierarchy(path, path.n_max)
        oscs = [oscillation(path, lev) for lev in hier.levels]
        assert np.all(np.diff(oscs) <= 1e-15)


def test_oscillation_validates_level(bm_path):
    with pytest.raises(ParameterError):
        oscillation(bm_path, np.array([1, 5]))


def _whole_path_oscillation(values, idx):
    """Reference: the reduceat over the whole path that the blocked reader
    replaced."""
    seg_max = np.maximum(np.maximum.reduceat(values, idx[:-1]), values[idx[1:]])
    seg_min = np.minimum(np.minimum.reduceat(values, idx[:-1]), values[idx[1:]])
    return float(np.max(seg_max - seg_min))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 7, 1 << 15]), st.sampled_from([None, np.abs]))
def test_blocked_oscillation_is_the_whole_path_oscillation(data, block, fn):
    # blocks of one or a few samples cut cells anywhere, begin on level
    # points and inside cells; a scale of 0.3 keeps the widths inexact
    n = data.draw(st.integers(1, 80))
    steps = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    values = np.concatenate([[0.0], np.cumsum(steps, dtype=float)]) * data.draw(st.sampled_from([1.0, 0.3]))
    interior = data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    idx = np.array([0, *sorted(interior), n])
    if fn is not None:
        values = fn(values)
    want = _whole_path_oscillation(values, idx)
    with mock.patch.object(partitions, "_OSC_BLOCK", block):
        assert partitions._oscillation(values, idx) == want


def test_blocked_oscillation_validates_every_block():
    path = make_walk(np.arange(9.0))
    with mock.patch.object(partitions, "_OSC_BLOCK", 2):
        assert oscillation(path, np.array([0, 2, 4, 5, 6, 8])) == 2.0
        with pytest.raises(ParameterError, match="strictly increasing"):
            oscillation(path, np.array([0, 2, 4, 6, 5, 8]))


def _lebesgue_levels_oracle(vals, levels):
    """The numpy-scalar scan that the chunked Python-float scan replaced."""
    out = []
    last = vals.size - 1
    for n in range(1, levels + 1):
        eps = 2.0 ** (-n)
        pts = [0]
        anchor = vals[0]
        for j in range(1, vals.size):
            if abs(vals[j] - anchor) >= eps:
                pts.append(j)
                anchor = vals[j]
        if pts[-1] != last:
            pts.append(last)
        out.append(np.asarray(pts, dtype=np.int64))
    return out


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.integers(-3, 3), min_size=32, max_size=32),
    k=st.integers(0, 4),
    shift=st.sampled_from([0.0, 0.1]),
    nudge=st.none() | st.lists(st.integers(-1, 1), min_size=33, max_size=33),
    lockstep_min=st.integers(1, 4),
    skip_block=st.integers(1, 4),
    lockstep_group=st.sampled_from([1, 3, 8, 1 << 13]),
)
def test_lebesgue_scan_is_bit_identical_to_numpy_scalar_scan(
    steps, k, shift, nudge, lockstep_min, skip_block, lockstep_group
):
    # integer walks scaled by 2**-k: increments hit the thresholds (and
    # twice the thresholds, the forced-crossing bound) exactly and repeat
    # values; the shift makes the differences round, and a one-ulp nudge
    # per sample puts steps just above, on or just below those bounds.
    # A lockstep width of a few stretches, groups of a few and tiny blocks
    # send the walks through the numpy passes, the hand-over of each
    # group's stretches still open to the Python scan, and its block skip.
    vals = np.concatenate([[0.0], np.cumsum(steps)]) * 2.0**-k + shift
    if nudge is not None:
        vals = np.nextafter(vals, vals + np.asarray(nudge, dtype=float))
    assume(vals.max() > vals.min())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_LOCKSTEP_MIN", lockstep_min)
        mp.setattr(partitions, "_SKIP_BLOCK", skip_block)
        mp.setattr(partitions, "_LOCKSTEP_GROUP", lockstep_group)
        hier = lebesgue_hierarchy(make_walk(vals), 6)
    want = _lebesgue_levels_oracle(vals, 6)
    assert len(hier.levels) == len(want)
    for got, ref in zip(hier.levels, want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75])
def test_lebesgue_levels_of_fbm_match_the_scalar_scan(hurst):
    # the module's own lockstep width and block size, on paths whose coarse
    # levels are one long stretch and whose fine levels are mostly forced
    path = generate(PathSpec(kind="fbm", hurst=hurst, n_max=12, seed=3))
    hier = lebesgue_hierarchy(path, 10)
    want = _lebesgue_levels_oracle(path.values, 10)
    assert len(hier.levels) == len(want)
    for got, ref in zip(hier.levels, want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("group", [64, 500])
def test_lebesgue_levels_in_lockstep_groups_match_the_scalar_scan(group):
    # groups far smaller than a fine level's stretches (thousands at
    # n_max = 12): each group runs its own numpy passes and hands its
    # longest stretches to Python, and the forced levels are searched in
    # blocks of 1,000 steps
    path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=12, seed=3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_LOCKSTEP_GROUP", group)
        mp.setattr(partitions, "_OSC_BLOCK", 1000)
        hier = lebesgue_hierarchy(path, 10)
    want = _lebesgue_levels_oracle(path.values, 10)
    assert len(hier.levels) == len(want)
    for got, ref in zip(hier.levels, want):
        assert np.array_equal(got, ref)


def test_lebesgue_hierarchy_peak_memory_at_n_max_18():
    # as 8 index arrays the levels took 6.5 MiB, and the stretch scan
    # peaked at 9.1 MiB with one byte per step for its first forced level;
    # with the float64 steps it took 10.9 MiB, collecting each level as a
    # list of Python ints 15.0 MiB, and an index and a length per forced
    # crossing (nearly every step at the finest level) 12.4 MiB.  As packed
    # bits (index arrays for the two sparsest) the levels hold 0.20 MiB
    # and the scan peaked at 4.39 MiB with the whole np.diff of the path
    # held, and peaks at 2.33 MiB with the steps a block at a time, int32
    # stretch bounds and the lockstep in groups (level 6, 63,289
    # stretches, sets it).  The bound leaves 10% for other numpy versions
    path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=18, seed=5))
    hier, peak = traced_peak(lebesgue_hierarchy, path, 8)
    assert peak < 2.6 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"
    assert [type(part).__name__ for part in hier.parts] == ["Points"] * 2 + ["Packed"] * 6


def test_dyadic_hierarchy_holds_no_index_array():
    # 20 strides: 2.0x the path bytes as index arrays, 0.0004x now
    path = generate(PathSpec(kind="bm", n_max=20, seed=1))
    hier, peak = traced_peak(dyadic_hierarchy, path, 20)
    assert peak <= 0.01 * path.values.nbytes, peak / path.values.nbytes
    assert all(type(part).__name__ == "Stride" for part in hier.parts)


@pytest.mark.parametrize("levels", [1074, 1075])
def test_lebesgue_levels_stop_where_the_threshold_is_zero(levels):
    # 2.0**-n is 0.0 from n = 1075 on, where every sample would cross:
    # such levels held the whole grid under a label that claims 2**-n
    path = generate(PathSpec(kind="fbm", hurst=0.25, n_max=4, seed=1))
    if levels == 1074:
        assert lebesgue_hierarchy(path, levels).n_levels == 1074
    else:
        with pytest.raises(ParameterError, match=r"1\.\.1074"):
            lebesgue_hierarchy(path, levels)


@pytest.mark.parametrize("points", [[0, 10, 20, 30], [0, 30, 20, 64], [0, 10, 10, 64], [0, 10, 70]],
                         ids=["short", "unordered", "repeated", "past-the-grid"])
def test_a_supplied_level_must_run_from_0_to_the_last_grid_index(points):
    # these read a variation "at t = 1" that stopped at index 30, summed
    # back-steps, summed a zero-length interval, or failed with a bare
    # IndexError
    path = generate(PathSpec(kind="bm", n_max=6, seed=1))
    with pytest.raises(ParameterError, match="strictly increasing from 0 to the last grid index"):
        pth_variation(path, PartitionHierarchy("custom", [points], (1,), nested=False), 2, [1.0])
    with pytest.raises(ParameterError, match="strictly increasing from 0 to the last grid index"):
        increment_power_sums(path, np.array(points), 2)


def test_hierarchy_levels_are_the_index_arrays(bm_path):
    # built on each access from the descriptors: the dyadic index sets, and
    # the scalar scan's Lebesgue points, at 200 and 1074 levels too, where
    # the thresholds are subnormal, round or are the least subnormal, on a
    # path with ties (zero steps) that no threshold crosses
    hier = dyadic_hierarchy(bm_path, bm_path.n_max)
    for n, lev in zip(hier.level_labels, hier.levels):
        assert lev.dtype == np.int64 and lev.tolist() == list(range(0, bm_path.n_samples, 2 ** (bm_path.n_max - n)))
        assert hier.level(n).tolist() == lev.tolist()
    walk = make_walk(np.concatenate([[0.0], np.cumsum(np.resize([0.3, 0.0, -1.1, 0.0, 0.0, 2.5, -0.7], 64))]))
    for path in (generate(PathSpec(kind="fbm", hurst=0.25, n_max=6, seed=3)), walk):
        for levels in (8, 200, 1074):
            hier = lebesgue_hierarchy(path, levels)
            want = _lebesgue_levels_oracle(path.values, levels)
            assert len(hier.levels) == levels
            for got, ref in zip(hier.levels, want):
                assert got.dtype == np.int64 and np.array_equal(got, ref)
            assert hier.finest.tolist() == want[-1].tolist()


_SPECIAL_STEPS = [0.0, -0.0, 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1.0, 4.0, 1e300]


@settings(max_examples=60, deadline=None)
@given(
    levels=st.sampled_from([8, 200, 1023, 1024, 1100]),
    drawn=st.lists(
        st.sampled_from(_SPECIAL_STEPS) | st.floats(0.0, 1e300) | st.floats(0.0, 1e-300), max_size=40
    ),
)
def test_forced_levels_match_the_float_thresholds(levels, drawn):
    # a step is forced at level n exactly when its magnitude exceeds
    # fl(_FORCED_STEP * 2**-n): every threshold and its float neighbours,
    # signed zeros, subnormals and huge steps.  Up to 254 levels the first
    # forced level takes one byte, beyond two.  Up to n = 1023 the
    # thresholds are normal floats, from 1024 on subnormal, from 1036 on
    # they lose their 2**-40 bit and from 1075 on they are 0
    thresholds = np.array([partitions._FORCED_STEP * 2.0**-n for n in range(1, levels + 1)])
    near = np.concatenate([thresholds, np.nextafter(thresholds, np.inf), np.nextafter(thresholds, -np.inf)])
    steps = np.concatenate([near, _SPECIAL_STEPS, drawn])
    forced = partitions._forced_levels(steps.copy(), levels)
    assert forced.dtype == np.min_scalar_type(levels + 1)
    wrong = (forced[:, None] <= np.arange(1, levels + 1)) != (np.abs(steps)[:, None] > thresholds)
    assert not wrong.any(), steps[wrong.any(axis=1)]
