"""Grid-search oracle for the max-entropy program of a binary joint.

An independent, coarser check of `fusionpid.pid.solve_qstar`: for n = 2 each
y-slice of a feasible coupling is fixed by one cell, so the oracle grids that
cell in both slices and scores every pair. The acceptance tests compare the
solver's R/U1/U2/S with the oracle's at resolution 2000.
"""

import math

import numpy as np

from fusionpid.info import Joint3
from fusionpid.pid import _marginals


class OracleError(ValueError):
    pass


MAX_GRID_POINTS = 2 * 10**8
# Rows of slice 0's grid scored at once: at resolution 2000 a temporary is 125 KiB, under
# glibc's 128 KiB mmap threshold (1 MB blocks, mapped anew each time, took twice as long).
ORACLE_BLOCK_ROWS = 2


def _plogp_sum(q, axis):
    """-sum q log2 q over `axis`, with 0 log 0 = 0."""
    return -np.sum(q * np.log2(q, out=np.zeros_like(q), where=q > 0), axis=axis)


def _slice_grid(r, c, grid_resolution):
    """One y-slice of a binary joint at every grid point: a (4, points) array of its cells, clipped at 0.

    The slice is the 2x2 table with row sums r and column sums c. Its cell
    t = q[0, 0] fixes it: [[t, r0 - t], [c0 - t, (r1 - c0) + t]], with t in
    [max(0, r0 + c0 - r.sum()), min(r0, c0)]. An interval that is empty or a
    single point, rounding included, is the one point t = min(r0, c0), which
    also covers an empty slice and a zero row or column.
    """
    lo, hi = max(0.0, r[0] + c[0] - r.sum()), min(r[0], c[0])
    t = np.linspace(lo, hi, grid_resolution) if lo < hi else np.array([hi])
    return np.clip(np.stack([t, r[0] - t, c[0] - t, (r[1] - c[0]) + t]), 0.0, None)


def brute_force_qstar(p, grid_resolution=1000):
    """Independent grid-search oracle for the same max-entropy program, for binary (n = 2) joints only.

    Each y-slice k of p is a 2x2 table fixed by its one cell q[0, 0, k] (see
    `_slice_grid`). The oracle grids that cell in both slices and returns the
    pair with the largest H(Y | Y1, Y2) = H(Y1, Y2, Y) - H(Y1, Y2), the first
    maximum in C order (slice 0 slowest). H(Y1, Y2, Y) is one term per slice,
    computed on the slice's own grid; H(Y1, Y2) on the product grid,
    ORACLE_BLOCK_ROWS rows of slice 0's grid at a time. Raises OracleError for
    n != 2, a grid_resolution below 2 or a product grid over MAX_GRID_POINTS.
    """
    if p.size != 2:
        raise OracleError(f"the grid oracle takes binary joints only, got n = {p.size}")
    if grid_resolution < 2:
        raise OracleError("grid_resolution must be at least 2")
    if grid_resolution**2 > MAX_GRID_POINTS:
        raise OracleError(f"grid of {grid_resolution**2} points exceeds cap; lower the resolution")
    m1, m2, _ = _marginals(p)
    q0, q1 = (_slice_grid(m1[:, k], m2[:, k], grid_resolution) for k in range(2))
    h0, h1 = _plogp_sum(q0, 0), _plogp_sum(q1, 0)
    best_val, best = -math.inf, None
    for a in range(0, q0.shape[1], ORACLE_BLOCK_ROWS):
        rows = slice(a, a + ORACLE_BLOCK_ROWS)
        vals = (h0[rows, None] + h1) - _plogp_sum(q0[:, rows, None] + q1[:, None, :], 0)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[i, j] > best_val:
            best_val, best = vals[i, j], (a + i, j)
    q = np.stack([q0[:, best[0]], q1[:, best[1]]], axis=1).reshape(2, 2, 2)
    return Joint3(q / q.sum())
