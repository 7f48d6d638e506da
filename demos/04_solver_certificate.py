"""The solver's own certificate, on dense and sparse joints of growing label size.

Every solve returns a certified gap: the dual value at a strictly feasible
dual point minus H(Y | Y1, Y2) at the returned q*, an upper bound on the
distance to the optimum. This script draws dense joints and joints with about
40% of their cells nonzero at n = 2, 3, 5 and 7, and prints each solve's
Newton steps, certified gap, feasibility residual and largest consistency
residual. A joint that carries no information about y is solved and
certified like any other.
"""

import numpy as np

from fusionpid.info import Joint3
from fusionpid.pid import OBJECTIVE_TOL, pid_from_joint

rng = np.random.default_rng(4)
print(f"{'kind':<7} {'n':>2} {'steps':>5} {'gap (bits)':>11} {'feasibility':>11} {'consistency':>11}")
worst = 0.0
for n in (2, 3, 5, 7):
    for kind, support in (("dense", 1.0), ("sparse", 0.4)):
        mass = np.zeros((n, n, n))
        while not mass.any():
            mass = rng.exponential(size=(n, n, n)) * (rng.random((n, n, n)) < support)
        res = pid_from_joint(Joint3(mass / mass.sum()))
        worst = max(worst, res.objective_gap)
        print(
            f"{kind:<7} {n:>2} {res.iterations:>5} {res.objective_gap:>11.1e} "
            f"{res.feasibility_residual:>11.1e} {max(res.consistency['residuals'].values()):>11.1e}"
        )

print()
print(f"largest certified gap: {worst:.1e} bits (converged at <= {OBJECTIVE_TOL:.0e})")
