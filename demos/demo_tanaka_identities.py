"""Exact-at-every-level identities.

The change-of-variable formula for a C^(p-2) test function with a BV
derivative is a telescoped Taylor expansion: at every partition level the
compensated Riemann sum plus the local-time pairing reproduces
f(S_t) - f(S_0) to rounding. Tanaka-Meyer is the special case
f = ((x-a)^+)^(p-1), and affine maps scale local times exactly.

Run:  python demos/demo_tanaka_identities.py
"""

import numpy as np

from pathwise import (
    PathSpec,
    dyadic_hierarchy,
    finite_n_report,
    generate,
    identity_suite,
    scaling_check,
    tanaka_class,
    tanaka_meyer_report,
)

path = generate(PathSpec(kind="fbm", hurst=0.25, T=1.0, n_max=12, seed=11))
hier = dyadic_hierarchy(path, 12)

print("relative residual of the order-4 change-of-variable identity")
print(f"{'level':>5}" + "".join(f"{name:>16}" for name in ("pos_part", "neg_part", "abs", "poly")))
fns = [
    tanaka_class("pos_part_pow", 4, a=0.1),
    tanaka_class("neg_part_pow", 4, a=0.1),
    tanaka_class("abs_pow", 4, a=0.1),
    tanaka_class("poly", 4, coeffs=[0.3, -1.2, 0.7, 1.1]),
]
reports = [finite_n_report(path, hier, 4, f, 1.0) for f in fns]
for n in (2, 6, 10, 12):
    i = hier.level_labels.index(n)
    print(f"{n:>5}" + "".join(f"{rep.relative_residuals[i]:>16.2e}" for rep in reports))

print("\nTanaka-Meyer at five anchors (worst relative residual across levels)")
m, M = path.values.min(), path.values.max()
for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
    a = m + frac * (M - m)
    rep = tanaka_meyer_report(path, hier, 4, a, 1.0)
    worst = np.max(rep.residuals / np.maximum(1.0, np.abs(rep.rhs)))
    print(f"  a = {a:+.4f}: {worst:.2e}  passed={rep.passed}")

bm = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=1))
other = generate(PathSpec(kind="fbm", hurst=0.5, T=1.0, n_max=12, seed=2))
print("\nlocal-time identity suite on two independent Brownian paths (finest level)")
for rep in identity_suite(bm, other, dyadic_hierarchy(bm, 12), 2):
    print(f"  {rep.identity:<45} lhs={rep.lhs[-1]:>9.5f} rhs={rep.rhs[-1]:>9.5f} [{rep.exactness}]")

print("\naffine scaling is exact; exponential scaling converges")
aff = scaling_check(bm, tanaka_class("poly", 2, coeffs=[0.0, 2.0]), 0.1, dyadic_hierarchy(bm, 12), 2)
print(f"  f(x) = 2x: worst |lhs - rhs| = {np.max(aff.residuals):.2e} (exact per level)")
from pathwise import SmoothCallable

exp_rep = scaling_check(bm, SmoothCallable([np.exp, np.exp], name="exp"), 0.0,
                        dyadic_hierarchy(bm, 12), 2)
print(f"  f(x) = exp(x): finest-level side ratio = {exp_rep.lhs[-1] / exp_rep.rhs[-1]:.4f}")
