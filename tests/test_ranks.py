import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathwise import (
    ParameterError,
    PartitionHierarchy,
    PathSpec,
    build_rank_system,
    collision_local_time,
    discrete_local_time_point,
    dyadic_hierarchy,
    generate,
    lebesgue_hierarchy,
    rank_decomposition,
    rank_decompositions,
    rank_sum_identity,
    simplified_cross_term,
    tanaka_class,
)
from pathwise import ranks
from pathwise._util import bracket_contributions, ipow, left_endpoint_counts, snap_checkpoints
from tests.conftest import csv_rows, make_walk, traced_peak


@pytest.fixture(scope="module")
def fbm_trio():
    return [
        generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=9, seed=s)) for s in (41, 42, 43)
    ]


@pytest.fixture(scope="module")
def crossing_pair():
    up = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=6))
    down = make_walk(1.0 - up.values)
    return [up, down]


def test_single_path_rank_is_identity(bm_path):
    system = build_rank_system([bm_path])
    np.testing.assert_array_equal(system.ranked[0], bm_path.values)
    assert np.all(system.counts == 1)


def test_small_rank_example_by_hand():
    x1 = make_walk([1.0, 2.0, 3.0])
    x2 = make_walk([2.0, 2.0, 2.0])
    system = build_rank_system([x1, x2])
    np.testing.assert_array_equal(system.ranked[0], [2.0, 2.0, 3.0])
    np.testing.assert_array_equal(system.ranked[1], [1.0, 2.0, 2.0])
    np.testing.assert_array_equal(system.counts[:, 1], [2, 2])  # total tie


def test_tie_counts_equal_the_dense_comparison():
    # exact ties between integer walks, all three paths tied at t = 0
    rng = np.random.default_rng(5)
    walks = [make_walk(np.concatenate([[0.0], np.cumsum(rng.integers(-1, 2, 64))])) for _ in range(3)]
    system = build_rank_system(walks)
    # no count exceeds m, so they take m's narrowest dtype, one byte here
    dense = (system.values[None, :, :] == system.ranked[:, None, :]).sum(axis=1).astype(np.uint8)
    assert system.counts.dtype == np.min_scalar_type(3) == dense.dtype
    assert np.array_equal(system.counts, dense)
    assert np.all(system.counts[:, 0] == 3) and np.any(system.counts[:, 1:] == 2)


def test_rank_system_working_set_is_linear_in_the_path_count():
    # the outputs are two (m, N + 1) float arrays and the tie counts, one
    # byte each; the network adds one scratch row and its swap mask, freed
    # before the counts' boolean comparison of neighbouring rows, not an
    # (m, m, N + 1) comparison.  2.38x at m = 3 and 2.24x at m = 16, where
    # int64 counts took 3.09x and 3.12x
    for m in (3, 16):
        paths = [generate(PathSpec(kind="bm", n_max=14, seed=s)) for s in range(m)]
        path_bytes = sum(q.values.nbytes for q in paths)
        _, peak = traced_peak(build_rank_system, paths)
        assert peak <= 2.5 * path_bytes, (m, peak, path_bytes)


def test_all_rank_decomposition_working_set_is_linear_in_the_path_count():
    # one gather of the m value, rank and tie-count rows of the block, their
    # occupant order, and one rank's row temporaries at a time; a per-rank
    # pass over all m paths held about 27x the path bytes here
    paths = [generate(PathSpec(kind="fbm", hurst=0.25, n_max=14, seed=s)) for s in range(8)]
    system = build_rank_system(paths)
    hier = dyadic_hierarchy(paths[0], 14)
    f = tanaka_class("x_pow_pm1", 4)
    path_bytes = sum(q.values.nbytes for q in paths)
    decs, peak = traced_peak(rank_decompositions, system, hier, 4, f, [0.25, 0.5, 0.75, 1.0])
    assert all(dec.passed for dec in decs)
    assert peak <= 16 * path_bytes, (peak, path_bytes)


def test_total_tie_counts():
    x = make_walk([0.5, -1.0, 2.0])
    system = build_rank_system([x, x])
    assert np.all(system.counts == 2)
    assert np.all(system.membership(1))


def test_rank_system_invariants(fbm_trio):
    system = build_rank_system(fbm_trio)
    assert np.all(np.diff(system.ranked, axis=0) <= 0.0)
    np.testing.assert_array_equal(
        np.sort(system.ranked, axis=0), np.sort(system.values, axis=0)
    )
    # reciprocal-count weights sum to one at every (rank, time)
    for k in range(1, system.m + 1):
        w = system.membership(k) / system.counts[k - 1][None, :]
        np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=1e-14)


def test_rank_gap_sign_structure(fbm_trio):
    system = build_rank_system(fbm_trio)
    for k in range(1, system.m + 1):
        for h in range(1, system.m + 1):
            gap = system.ranked[k - 1] - system.ranked[h - 1]
            pos = np.maximum(gap, 0.0)
            if h > k:
                np.testing.assert_array_equal(pos, gap)
            else:
                np.testing.assert_array_equal(pos, np.zeros_like(gap))


def test_mismatched_grids_rejected(bm_path):
    other = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=6, seed=1))
    with pytest.raises(ParameterError):
        build_rank_system([bm_path, other])


def _tied_walks(rng, m, n_max, levels):
    return [make_walk(rng.choice(levels, 2**n_max + 1)) for _ in range(m)]


def test_ranked_rows_are_the_descending_sort_bit_for_bit():
    # five levels, no zero among them, so equal values have equal bits
    rng = np.random.default_rng(11)
    for m in range(1, 21):
        system = build_rank_system(_tied_walks(rng, m, 6, [-1.5, -0.5, 0.25, 1.0, 2.0]))
        assert system.ranked.tobytes() == (-np.sort(-system.values, axis=0)).tobytes(), m
        dense = (system.values[None, :, :] == system.ranked[:, None, :]).sum(axis=1)
        assert system.counts.dtype == np.min_scalar_type(m) and np.array_equal(system.counts, dense), m


def test_signed_zero_ties_keep_the_rows_order():
    # +0.0 and -0.0 tie; each column's ranks are its values in a stable
    # descending sort, the tied zeros in the order of their rows
    rng = np.random.default_rng(12)
    for m in (2, 3, 5, 9):
        system = build_rank_system(_tied_walks(rng, m, 6, [-1.0, -0.0, 0.0, 1.0]))
        want = np.array([[col[i] for i in sorted(range(m), key=lambda i: -col[i])] for col in system.values.T]).T
        assert system.ranked.tobytes() == want.tobytes(), m
        assert np.any(np.signbit(system.ranked) & (system.ranked == 0.0))
        dense = (system.values[None, :, :] == system.ranked[:, None, :]).sum(axis=1)
        assert np.array_equal(system.counts, dense), m


def test_occupants_sit_at_their_ranks_on_a_tied_system():
    rng = np.random.default_rng(13)
    system = build_rank_system(_tied_walks(rng, 6, 7, [-1.0, -0.0, 0.0, 0.5, 1.0]))
    assert np.any(system.counts > 1)
    occupants = ranks._occupants(system.values)
    cols = np.arange(system.values.shape[1])
    for k in range(system.m):
        assert system.values[occupants[k], cols].tobytes() == system.ranked[k].tobytes()


# -- collision local times ---------------------------------------------------


def test_collision_orders_validated(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 4)
    with pytest.raises(ParameterError):
        collision_local_time(system, 2, 2, hier, 2, [1.0])
    with pytest.raises(ParameterError):
        collision_local_time(system, 3, 1, hier, 2, [1.0])


def test_separated_paths_have_no_collision_charge():
    a = generate(PathSpec(kind="linear", slope=1.0, T=1.0, n_max=6))
    b = make_walk(a.values + 5.0)
    system = build_rank_system([b, a])  # b always above a
    hier = dyadic_hierarchy(a, 5)
    col = collision_local_time(system, 1, 2, hier, 2, [0.5, 1.0])
    assert np.all(col.local_time_at_zero == 0.0)
    assert np.all(col.exact_tie_charge == 0.0)


def test_crossing_linear_paths_against_brute_force(crossing_pair):
    system = build_rank_system(crossing_pair)
    hier = dyadic_hierarchy(crossing_pair[0], 6)
    p = 2
    col = collision_local_time(system, 1, 2, hier, p, [1.0])
    gap = system.ranked[0] - system.ranked[1]
    for i, lev in enumerate(hier.levels):
        # brute-force oracle: loop the discrete local-time summands at 0
        lt = 0.0
        tie = 0.0
        for a, b in zip(gap[lev[:-1]], gap[lev[1:]]):
            lo, hi = min(a, b), max(a, b)
            if lo < 0.0 <= hi:
                lt += abs(b) ** (p - 1)
            if a == 0.0:
                tie += b ** (p - 1)
        assert col.local_time_at_zero[i, -1] == pytest.approx(lt, abs=1e-15)
        assert col.exact_tie_charge[i, -1] == pytest.approx(tie, rel=1e-15)
    # the nonnegative gap never dips below zero: the half-open bracket at 0
    # stays silent and all collision charge sits in the exact-tie sums
    assert np.all(col.local_time_at_zero == 0.0)
    fine_labels = [n for n in hier.level_labels if n >= 1]
    assert np.all(col.exact_tie_charge[[hier.level_labels.index(n) for n in fine_labels], -1] > 0.0)


def test_collision_curves_nondecreasing(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 7)
    col = collision_local_time(system, 1, 3, hier, 2, [0.25, 0.5, 0.75, 1.0])
    assert np.all(np.diff(col.local_time_at_zero, axis=1) >= 0.0)
    assert np.all(np.diff(col.exact_tie_charge, axis=1) >= 0.0)


def test_collision_symmetric_under_relabeling(fbm_trio):
    hier = dyadic_hierarchy(fbm_trio[0], 7)
    a = collision_local_time(build_rank_system(fbm_trio), 1, 2, hier, 2, [1.0])
    shuffled = [fbm_trio[2], fbm_trio[0], fbm_trio[1]]
    b = collision_local_time(build_rank_system(shuffled), 1, 2, hier, 2, [1.0])
    np.testing.assert_array_equal(a.local_time_at_zero, b.local_time_at_zero)
    np.testing.assert_array_equal(a.exact_tie_charge, b.exact_tie_charge)


# -- rank local-time sum ------------------------------------------------------


def test_rank_sum_single_path_gap_is_zero(bm_path):
    system = build_rank_system([bm_path])
    rep = rank_sum_identity(system, dyadic_hierarchy(bm_path, 6), 2)
    assert np.all(rep.residuals == 0.0)


def test_rank_sum_mirrored_path_reports_boundary_degeneracy(bm_path):
    # with X2 = -X1 the ranked paths are |X| and -|X|, both one-sided at 0.
    # |X| never charges the half-open bracket there; -|X| charges exactly
    # once per level, on the initial descent from the exact zero at t = 0.
    # The per-level gap therefore stays macroscopic: this is the boundary
    # degeneracy of point evaluation at the edge of the support, reported,
    # never gated.
    mirror = make_walk(-bm_path.values)
    system = build_rank_system([bm_path, mirror])
    hier = dyadic_hierarchy(bm_path, 8)
    rep = rank_sum_identity(system, hier, 2)
    for lev, lhs, rhs in zip(hier.levels, rep.lhs, rep.rhs):
        assert lhs == pytest.approx(abs(bm_path.values[lev[1]]), rel=1e-15)
        direct = discrete_local_time_point(bm_path, lev, 2, 0.0, 1.0) + \
            discrete_local_time_point(mirror, lev, 2, 0.0, 1.0)
        assert rhs == pytest.approx(direct, rel=1e-12)
    assert rep.exactness == "limit-only"


def test_rank_sum_identity_close_for_independent_bm(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 9)
    rep = rank_sum_identity(system, hier, 2)
    assert rep.rhs[-1] > 0
    assert rep.residuals[-1] <= 0.2 * rep.rhs[-1]


# -- the decomposition ---------------------------------------------------------


def brute_force_decomposition(system, k, lev, p, f, t_idx):
    """Independent oracle: plain-Python re-evaluation of the four sums."""
    A = B = C = D = 0.0
    vals = system.values
    rk = system.ranked[k - 1]
    left, right = lev[:-1], lev[1:]
    for la, lb in zip(left, right):
        if la > t_idx:
            break
        Ra, Rb = rk[la], rk[lb]
        dR = Rb - Ra
        for r in range(1, p):
            A += f.derivative(float(Ra), r) / math.factorial(r) * dR**r
        members = [i for i in range(system.m) if vals[i, la] == Ra]
        n_k = len(members)
        for i in members:
            Xa, Xb = vals[i, la], vals[i, lb]
            dX = Xb - Xa
            gap = Rb - Xb
            for r in range(1, p):
                B += f.derivative(float(Xa), r) / math.factorial(r) * dX**r / n_k
            for ell in range(1, p - 1):
                for r in range(ell, p):
                    C += (
                        f.derivative(float(Ra), r)
                        / (math.factorial(ell) * math.factorial(r - ell))
                        * dX ** (r - ell)
                        * gap**ell
                        / n_k
                    )
            D += f.derivative(float(Ra), p - 1) / math.factorial(p - 1) * gap ** (p - 1) / n_k
    return A, B, C, D


def test_single_path_decomposition_collapses(bm_path):
    system = build_rank_system([bm_path])
    hier = dyadic_hierarchy(bm_path, 6)
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    dec = rank_decomposition(system, 1, hier, 2, f, [0.5, 1.0])
    np.testing.assert_allclose(dec.B, dec.A, rtol=1e-12)
    assert np.all(dec.C == 0.0) and np.all(dec.D == 0.0)
    assert dec.passed


@pytest.mark.parametrize("p", [2, 4])
def test_decomposition_exact_for_bm_systems(p, fbm_trio):
    paths = fbm_trio if p == 2 else [
        generate(PathSpec(kind="fbm", hurst=0.25, T=1.0, n_max=9, seed=s)) for s in (44, 45)
    ]
    system = build_rank_system(paths)
    hier = dyadic_hierarchy(paths[0], 9)
    f = tanaka_class("x_pow_pm1", p)
    for k in range(1, system.m + 1):
        dec = rank_decomposition(system, k, hier, p, f, [0.3, 0.7, 1.0])
        assert dec.passed, f"k={k}: worst rel {dec.relative_residual.max()}"
        if p == 2:
            assert np.all(dec.C == 0.0)


def test_decomposition_matches_brute_force_on_crossing_paths(crossing_pair):
    system = build_rank_system(crossing_pair)
    hier = dyadic_hierarchy(crossing_pair[0], 5)
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    dec = rank_decomposition(system, 1, hier, 2, f, [1.0])
    t_idx = crossing_pair[0].n_samples - 1
    for i, lev in enumerate(hier.levels):
        A, B, C, D = brute_force_decomposition(system, 1, lev, 2, f, t_idx)
        assert dec.A[i, -1] == pytest.approx(A, abs=1e-12)
        assert dec.B[i, -1] == pytest.approx(B, abs=1e-12)
        assert dec.C[i, -1] == pytest.approx(C, abs=1e-12)
        assert dec.D[i, -1] == pytest.approx(D, abs=1e-12)
        assert abs(A - (B + C + D)) <= 1e-12


def test_decomposition_brute_force_quartic(fbm_trio):
    system = build_rank_system(fbm_trio)
    lev = dyadic_hierarchy(fbm_trio[0], 4).level(4)
    f = tanaka_class("x_pow_pm1", 4)
    dec = rank_decomposition(system, 2, dyadic_hierarchy(fbm_trio[0], 4), 4, f, [1.0])
    A, B, C, D = brute_force_decomposition(system, 2, lev, 4, f, fbm_trio[0].n_samples - 1)
    assert dec.A[-1, -1] == pytest.approx(A, rel=1e-12)
    assert dec.B[-1, -1] == pytest.approx(B, rel=1e-12)
    assert dec.C[-1, -1] == pytest.approx(C, rel=1e-12)
    assert dec.D[-1, -1] == pytest.approx(D, rel=1e-12)


def test_decomposition_plus_minus_split(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 7)
    f = tanaka_class("x_pow_pm1", 4)
    dec = rank_decomposition(system, 2, hier, 4, f, [1.0])
    np.testing.assert_allclose(dec.D, dec.D_plus - dec.D_minus, atol=1e-14)
    # middle rank loses to the rank above and gains on the rank below
    assert np.any(dec.D_plus != 0.0) and np.any(dec.D_minus != 0.0)


def test_decomposition_rank_validation(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 4)
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    with pytest.raises(ParameterError):
        rank_decomposition(system, 4, hier, 2, f, [1.0])


def test_decomposition_csv_rows(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 3)
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    dec = rank_decomposition(system, 1, hier, 2, f, [0.5, 1.0])
    rows = csv_rows(("k", "level", "t", "A", "B", "C", "D", "residual"), dec.csv_table())
    assert len(rows) == 3 * 2
    k, level, t, A, B, C, D, residual = rows[0]
    assert k == "1" and level == "1" and float(t) == 0.5
    assert float(residual) == abs(float(A) - (float(B) + float(C) + float(D)))


# -- simplified cross term ------------------------------------------------------


def test_simplified_cross_term_empty_for_p2(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 5)
    f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
    rep = simplified_cross_term(system, 1, hier, 2, f, [1.0])
    assert np.all(rep.simplified == 0.0) and np.all(rep.gap == 0.0)


def test_simplified_cross_term_single_path_zero(bm_path):
    system = build_rank_system([bm_path])
    hier = dyadic_hierarchy(bm_path, 5)
    f = tanaka_class("x_pow_pm1", 4)
    rep = simplified_cross_term(system, 1, hier, 4, f, [1.0])
    assert np.all(rep.simplified == 0.0) and np.all(rep.full == 0.0)


def test_simplified_cross_term_identical_for_degree_one():
    # with f = x every Taylor tail vanishes, so the reduced and full cross
    # terms are the same sum
    paths = [generate(PathSpec(kind="fbm", hurst=0.25, T=1.0, n_max=8, seed=s)) for s in (3, 4)]
    system = build_rank_system(paths)
    hier = dyadic_hierarchy(paths[0], 8)
    f = tanaka_class("poly", 4, coeffs=[0.0, 1.0])
    rep = simplified_cross_term(system, 1, hier, 4, f, [1.0])
    assert np.all(rep.gap == 0.0)
    assert np.any(rep.full != 0.0)


def test_simplified_cross_term_gap_reported_for_cubic():
    # for f = x^3 the omitted Taylor tails ride on every rank crossing; the
    # per-level gap is genuinely nonzero (and grows with the crossing count
    # at these resolutions), so it is reported rather than gated
    paths = [generate(PathSpec(kind="fbm", hurst=0.25, T=1.0, n_max=9, seed=s)) for s in (7, 8)]
    system = build_rank_system(paths)
    hier = dyadic_hierarchy(paths[0], 9)
    f = tanaka_class("x_pow_pm1", 4)
    rep = simplified_cross_term(system, 1, hier, 4, f, [1.0])
    assert rep.gap.shape == rep.full.shape
    assert np.any(rep.gap[:, -1] > 0.0)
    np.testing.assert_allclose(rep.gap, np.abs(rep.simplified - rep.full), atol=0)


def test_simplified_cross_term_requires_vanishing_high_derivatives(fbm_trio):
    system = build_rank_system(fbm_trio)
    hier = dyadic_hierarchy(fbm_trio[0], 4)
    too_high = tanaka_class("poly", 4, coeffs=[0.0, 0.0, 0.0, 0.0, 1.0])  # x^4
    with pytest.raises(ParameterError):
        simplified_cross_term(system, 1, hier, 4, too_high, [1.0])
    kinked = tanaka_class("pos_part_pow", 4, a=0.0)
    with pytest.raises(ParameterError):
        simplified_cross_term(system, 1, hier, 4, kinked, [1.0])

# -- the level stack against the per-level loops it replaced -------------------
#
# The rank sums evaluate their summands once over the stacked intervals of
# all levels and sum them per level up to each checkpoint.  These oracles
# are the loops they replaced, one level at a time; the stacked results
# must have the same bytes.


def _running_rows(summands, counts):
    """A level's sums at its checkpoint counts: the np.sum of each segment
    between consecutive counts, chained in order from +0.0."""
    rows, total = [], 0.0
    for lo, hi in zip([0, *counts], counts):
        total = total + np.sum(summands[lo:hi])
        rows.append(total)
    return np.array(rows)


def _taylor_terms(derivs, d, p):
    """sum_{r<p} derivs[r] d**r / r!, each term derivs[r] * d**r / r! added
    to zeros in turn, the power by repeated multiplication and the
    factorial a running float."""
    out, power, fact = np.zeros_like(d), d.copy(), 1.0
    for r in range(1, p):
        fact *= r
        out += derivs[r] * power / fact
        power = power * d
    return out


def _per_level_decomposition(system, k, hierarchy, p, f, checkpoints):
    rk, nk = system.ranked[k - 1], system.counts[k - 1]
    fact = [math.factorial(i) for i in range(p + 1)]
    _, cps = snap_checkpoints(system.paths[0], checkpoints)
    rows = {key: [] for key in ("A", "B", "C", "D", "D_plus", "D_minus")}
    for lev in hierarchy.levels:
        la, lb = lev[:-1], lev[1:]
        counts = left_endpoint_counts(lev, cps)
        Ra, Rb = rk[la], rk[lb]
        dR = Rb - Ra
        Xa, Xb = system.values[:, la], system.values[:, lb]
        dX = Xb - Xa
        gap = Rb - Xb
        w = (Xa == Ra[None, :]) / nk[la][None, :]
        fr = {r: np.asarray(f.derivative(Ra, r), dtype=float) for r in range(1, p)}
        fXa = {r: np.asarray(f.derivative(Xa, r), dtype=float) for r in range(1, p)}
        a_sum = _taylor_terms(fr, dR, p)
        b_terms = _taylor_terms(fXa, dX, p)
        c_terms = np.zeros_like(Xa)
        for ell in range(1, p - 1):
            gl = ipow(gap, ell)
            for r in range(ell, p):
                c_terms += fr[r][None, :] / (fact[ell] * fact[r - ell]) * ipow(dX, r - ell) * gl
        dcoef = fr[p - 1] / fact[p - 1]
        sums = {
            "A": a_sum,
            "B": np.sum(w * b_terms, axis=0),
            "C": np.sum(w * c_terms, axis=0),
            "D": np.sum(w * ipow(gap, p - 1), axis=0) * dcoef,
            "D_plus": np.sum(w * ipow(np.maximum(gap, 0.0), p - 1), axis=0) * dcoef,
            "D_minus": np.sum(w * ipow(np.maximum(-gap, 0.0), p - 1), axis=0) * dcoef,
        }
        for key, summands in sums.items():
            rows[key].append(_running_rows(summands, counts))
    return {key: np.asarray(v) for key, v in rows.items()}


def _per_level_simplified(system, k, hierarchy, p, f, checkpoints):
    rk, nk = system.ranked[k - 1], system.counts[k - 1]
    _, cps = snap_checkpoints(system.paths[0], checkpoints)
    rows = []
    for lev in hierarchy.levels:
        la, lb = lev[:-1], lev[1:]
        Ra = rk[la]
        Xa, Xb = system.values[:, la], system.values[:, lb]
        gap = rk[lb] - Xb
        w = (Xa == Ra[None, :]) / nk[la][None, :]
        fXa = {ell: np.asarray(f.derivative(Xa, ell), dtype=float) for ell in range(1, p - 1)}
        terms = _taylor_terms(fXa, gap, p - 1)
        rows.append(_running_rows(np.sum(w * terms, axis=0), left_endpoint_counts(lev, cps)))
    return np.asarray(rows)


def _per_level_collision(gap_values, hierarchy, p, cps):
    """Running local time at 0 and exact-tie charge of a rank gap."""
    local_time, ties = [], []
    for lev in hierarchy.levels:
        ga, gb = gap_values[lev[:-1]], gap_values[lev[1:]]
        counts = left_endpoint_counts(lev, cps)
        local_time.append(_running_rows(bracket_contributions(ga, gb, p, 0.0), counts))
        ties.append(_running_rows((ga == 0.0) * ipow(gb, p - 1), counts))
    return np.asarray(local_time), np.asarray(ties)


def _per_level_rank_sum(system, hierarchy, p, x):
    def summed(rows, la, lb):
        return sum(float(np.sum(bracket_contributions(r[la], r[lb], p, x))) for r in rows)

    lhs = [summed(system.ranked, lev[:-1], lev[1:]) for lev in hierarchy.levels]
    rhs = [summed(system.values, lev[:-1], lev[1:]) for lev in hierarchy.levels]
    return lhs, rhs


def _same_bytes(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


# a coarse lattice of values makes ranks tie often, including at t = 0;
# -0.0 ties with 0.0 but has its own bits
lattice_walks = st.lists(
    st.one_of(
        st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32),
    ),
    min_size=17,
    max_size=17,
).map(lambda v: make_walk(np.asarray(v, dtype=float)))


# m paths, or one path m times, where every rank is tied everywhere
rank_systems = st.integers(2, 5).flatmap(lambda m: st.one_of(
    st.lists(lattice_walks, min_size=m, max_size=m),
    lattice_walks.map(lambda walk: [walk] * m),
))


@settings(max_examples=100, deadline=None)
@given(
    rank_systems,
    st.integers(1, 3),
    st.sampled_from([2, 4]),
    st.sampled_from(["dyadic", "lebesgue", "interval-free level"]),
    st.sampled_from([[0.0], [0.3125], [0.5, 1.0], [0.0, 0.3125, 1.0]]),
)
def test_stacked_rank_sums_are_bit_identical_to_per_level_loops(paths, k, p, kind, checkpoints):
    system = build_rank_system(paths)
    k = min(k, system.m)
    if kind == "lebesgue" and np.ptp(paths[0].values) > 0.0:
        hier = lebesgue_hierarchy(paths[0], 4)
    else:
        hier = dyadic_hierarchy(paths[0], 4)
        if kind == "interval-free level":
            levels = hier.levels[:2] + (np.array([0]),) + hier.levels[2:]
            hier = PartitionHierarchy(kind="dyadic", levels=levels, level_labels=(1, 2, 0, 3, 4), nested=False)

    poly = tanaka_class("poly", p, coeffs=[0.3, -1.2, 0.7, 1.1][:p])
    for f in (poly, tanaka_class("abs_pow", p, a=0.5), tanaka_class("poly", p, coeffs=[0.2, 0.0, 1.0, -0.5, 0.3, 0.1])):
        decs = rank_decompositions(system, hier, p, f, checkpoints)
        assert [dec.k for dec in decs] == list(range(1, system.m + 1))
        for dec in decs + [rank_decomposition(system, k, hier, p, f, checkpoints)]:
            want = _per_level_decomposition(system, dec.k, hier, p, f, checkpoints)
            for key, rows in want.items():
                assert _same_bytes(getattr(dec, key), rows), (f.name, dec.k, key)

    simp = simplified_cross_term(system, k, hier, p, poly, checkpoints)
    assert _same_bytes(simp.simplified, _per_level_simplified(system, k, hier, p, poly, checkpoints))

    _, cps = snap_checkpoints(paths[0], checkpoints)
    for h in range(k + 1, system.m + 1):
        col = collision_local_time(system, k, h, hier, p, checkpoints)
        local_time, ties = _per_level_collision(system.ranked[k - 1] - system.ranked[h - 1], hier, p, cps)
        assert _same_bytes(col.local_time_at_zero, local_time)
        assert _same_bytes(col.exact_tie_charge, ties)

    rep = rank_sum_identity(system, hier, p, x=0.5)
    lhs, rhs = _per_level_rank_sum(system, hier, p, 0.5)
    assert _same_bytes(rep.lhs, lhs) and _same_bytes(rep.rhs, rhs)
