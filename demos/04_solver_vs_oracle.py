"""Cross-checking the convex solver against the brute-force grid oracle.

For binary joints the feasible coupling polytope is low-dimensional enough to
enumerate on a grid.  This script draws random joints and compares the
dual barrier solver's solution with an exhaustive grid search over the polytope.
"""

import numpy as np

from fusionpid.info import Joint3
from fusionpid.pid import brute_force_qstar, pid_from_joint, pid_from_solution

rng = np.random.default_rng(4)
worst = 0.0
for trial in range(10):
    mass = rng.exponential(size=(2, 2, 2))
    p = Joint3(mass / mass.sum())
    solved = pid_from_joint(p)
    oracle = pid_from_solution(p, brute_force_qstar(p, 1000))
    gap = max(
        abs(solved.r - oracle.r),
        abs(solved.u1 - oracle.u1),
        abs(solved.u2 - oracle.u2),
        abs(solved.s - oracle.s),
    )
    worst = max(worst, gap)
    print(
        f"trial {trial}: solver (R={solved.r:.4f}, S={solved.s:.4f}) "
        f"vs oracle (R={oracle.r:.4f}, S={oracle.s:.4f})  gap {gap:.2e}"
    )

print()
print(f"worst component discrepancy over 10 trials: {worst:.2e}")
