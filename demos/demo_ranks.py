"""Integration along ranks.

Sorting m rough paths at every time produces ranked paths whose
compensated sums decompose exactly: A (ranked sum) = B (occupation-
weighted original sums) + C (binomial cross terms, empty for p = 2) + D
(collision charges from rank gaps). The decomposition holds to rounding
at every level, while the summed local times of ranked vs original paths
agree only in the limit.

Run:  python demos/demo_ranks.py
"""

import numpy as np

from pathwise import (
    PathSpec,
    build_rank_system,
    collision_local_time,
    dyadic_hierarchy,
    generate,
    rank_decompositions,
    rank_sum_identity,
    tanaka_class,
)

paths = [generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=s)) for s in (21, 22, 23)]
system = build_rank_system(paths)
hier = dyadic_hierarchy(paths[0], 12)

print("rank occupation at t = 1:",
      {f"rank {k}": int(system.counts[k - 1, -1]) for k in range(1, 4)})

f = tanaka_class("poly", 2, coeffs=[0.0, 1.0])
print("\ndecomposition of the top-rank compensated sum (f = x, p = 2, t = 1)")
print(f"{'level':>5} {'A':>10} {'B':>10} {'D':>10} {'A-(B+C+D)':>12}")
dec = rank_decompositions(system, hier, 2, f, [1.0])[0]
for i, n in enumerate(dec.level_labels):
    if n in (2, 4, 8, 12):
        print(f"{n:>5} {dec.A[i, 0]:>10.5f} {dec.B[i, 0]:>10.5f} {dec.D[i, 0]:>10.5f}"
              f" {dec.residual[i, 0]:>12.2e}")
print(f"exact at 1e-9 relative across all levels: {dec.passed}")

col = collision_local_time(system, 1, 2, hier, 2, [1.0])
print("\ncollision charge between ranks 1 and 2 (exact-tie sums, last levels):",
      np.array2string(col.exact_tie_charge[-4:, -1], precision=4))
print("half-open-bracket local time of the nonnegative gap at 0 stays",
      float(np.max(col.local_time_at_zero)))

rep = rank_sum_identity(system, hier, 2)
print("\nsummed local times at 0, ranked vs original (limit identity):")
for i, n in enumerate(rep.level_labels):
    if n in (4, 8, 12):
        print(f"  level {n:>2}: ranked {rep.lhs[i]:.4f}  original {rep.rhs[i]:.4f}"
              f"  gap {rep.residuals[i]:.4f}")
