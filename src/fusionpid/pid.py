"""Marginal-constrained max-entropy program and the R/U1/U2/S decomposition.

The optimizing distribution q* maximizes H_q(Y | Y1, Y2) over the polytope of
joints matching the (y1, y) and (y2, y) pairwise marginals of p while leaving
the (y1, y2) coupling free. The solver runs a damped log-barrier Newton method
on the program's geometric-program dual, reads q* off the central-path
multipliers, makes its marginals exact by rescaling the rows and columns of
every y-slice, and certifies the result with the gap between the dual value
and H(Y | Y1, Y2) at the returned q*. A grid-search oracle over the same
polytope provides an independent cross-check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .info import Joint3, conditional_entropy_output, empirical_joint, information

FEAS_TOL = 1e-9
CLAMP_TOL = 1e-6
DEGENERATE_TOTAL = 1e-9
CONSISTENCY_TOL = 1e-4
# A solve is converged when its certified gap to the optimum is at most
# OBJECTIVE_TOL bits; MAX_ITERATIONS caps the Newton steps as a safety bound.
OBJECTIVE_TOL = 1e-6
MAX_ITERATIONS = 10000
# Marginal entries at or below the smallest normal float are zero support:
# the dual variables of denormal mass would overflow exp() in `recover`.
TINY = np.finfo(float).tiny


class InfeasibleError(ValueError):
    pass


class OracleError(ValueError):
    pass


@dataclass
class PIDResult:
    r: float
    u1: float
    u2: float
    s: float
    total: float
    q_star: Joint3
    iterations: int = 0
    objective_gap: float = 0.0
    feasibility_residual: float = 0.0
    converged: bool = True
    consistency: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "r": self.r,
            "u1": self.u1,
            "u2": self.u2,
            "s": self.s,
            "total": self.total,
            "iterations": self.iterations,
            "objective_gap": self.objective_gap,
            "feasibility_residual": self.feasibility_residual,
            "converged": self.converged,
            "consistency": self.consistency,
        }


def _marginals(p):
    """p(y1, y), p(y2, y) and p(y) of the joint p: the data of the polytope."""
    m1, m2 = p.mass.sum(axis=1), p.mass.sum(axis=0)
    return m1, m2, m1.sum(axis=0)


def feasible_residual(q_mass, p):
    """Largest deviation of q's (y1, y) and (y2, y) marginals from the joint p's."""
    m1, m2, _ = _marginals(p)
    return max(float(np.max(np.abs(q_mass.sum(axis=1) - m1))), float(np.max(np.abs(q_mass.sum(axis=0) - m2))))


def feasible_initial(p):
    """Conditional-product coupling q0 = p(y1|y) p(y2|y) p(y), always feasible."""
    m1, m2, py = _marginals(p)
    outer = m1[:, None, :] * m2[None, :, :]
    return Joint3(np.divide(outer, py, out=np.zeros_like(outer), where=py > 0))


LN2 = math.log(2.0)
# Barrier parameter growth between centerings, and the Newton decrement
# lambda^2 / 2 at which a centering stops.
BARRIER_GROWTH = 50.0
CENTERING_TOL = 1e-6
# The barrier's own duality gap (blocks / t) is driven below this share of
# OBJECTIVE_TOL before q* is read off, leaving the rest of the tolerance to
# the marginal fit.
GAP_SHARE = 0.1
FIT_STEPS = 20
# Added to the Jacobi-scaled Newton systems (unit diagonal) so that rounding
# cannot make them indefinite.
RIDGE = 1e-12


def _newton_solve(hess, rhs):
    """Solve hess x = rhs after Jacobi scaling plus RIDGE, both applied to
    hess in place (the caller's matrix is consumed, no copy is made).

    A variable with no curvature (every weight it touches underflowed to 0)
    gets a zero step.
    """
    diag = hess.diagonal()
    scale = np.divide(1.0, np.sqrt(diag), out=np.zeros(len(diag)), where=diag > 0)
    hess *= scale[:, None]
    hess *= scale
    hess.flat[:: len(diag) + 1] += RIDGE
    return scale * np.linalg.solve(hess, scale * rhs)


class _DualBarrier:
    """The geometric-program dual of the max-entropy program, in nats.

    With m1 = p(y1, y) and m2 = p(y2, y) the marginals of the joint p:
    minimize <a, m1> + <b, m2> subject to, for every block (i, j),
    g_ij = log sum_k exp(-a_ik - b_jk) <= 0, the sum running over the cells
    (i, j, k) with m1[i, k] > 0 and m2[j, k] > 0 (Bertschinger et al.,
    "Quantifying unique information", Entropy 2014). x = (a.ravel(),
    b.ravel()); a variable whose marginal is zero touches no cell. Cells see
    only a + b, which leaves one free shift per y: the b_jk of the largest
    m2[j, k] of every y is held fixed, and Newton systems are solved over the
    other variables. (Fixing a b_jk of tiny mass would leave a nearly free
    shift among the heavy variables and a near-singular system.)

    The barrier of block (i, j) is -log(1 - exp(g_ij)), the log barrier of
    the same constraint written as sum_k exp(-a_ik - b_jk) <= 1. Near the
    boundary it equals -log(-g_ij); deep inside it stays bounded, so a block
    of mass 1e-9 sits at g of about log(t 1e-9) on the central path, not at
    -1 / (t 1e-9) as under -log(-g), where its softmax weights underflow.
    """

    def __init__(self, p):
        n = p.size
        m1, m2, _ = _marginals(p)
        self.marg = np.concatenate([m1.ravel(), m2.ravel()])
        self.cells = (m1[:, None, :] > TINY) & (m2[None, :, :] > TINY)
        ci, cj, ck = np.nonzero(self.cells)  # ordered by block (i, j)
        self.col_a = ci * n + ck
        self.col_b = n * n + cj * n + ck
        new_block = np.r_[True, (ci[1:] != ci[:-1]) | (cj[1:] != cj[:-1])]
        self.starts = np.flatnonzero(new_block)
        self.block_of = np.cumsum(new_block) - 1
        free = self.marg > TINY
        free[n * n + np.argmax(m2, axis=0) * n + np.arange(n)] = False
        self.free = np.flatnonzero(free)
        # Newton systems are assembled by index arithmetic in rows of width
        # F + 1: the F free variables, then a spare slot, sliced off, for the
        # fixed and untouched ones. pos_a, pos_b: each cell's two variables.
        self.width = width = len(self.free) + 1
        pos = np.full(len(self.marg), width - 1)
        pos[self.free] = np.arange(width - 1)
        pa, pb = self.pos_a, self.pos_b = pos[self.col_a], pos[self.col_b]
        # E^T diag(w) E has a cell's w at (a, a), (b, b), (a, b) and (b, a);
        # the block rows v have its p at (block, a) and (block, b)
        self.cell_index = np.concatenate([pa * width + pa, pb * width + pb, pa * width + pb, pb * width + pa])
        self.row_index = np.concatenate([self.block_of * width + pa, self.block_of * width + pb])
        self.cell_rep, self.row_rep = np.tile(np.arange(len(ci)), 4), np.tile(np.arange(len(ci)), 2)

    @property
    def n_blocks(self):
        return len(self.starts)

    def margins(self, cell_mass):
        """The (y1, y) and (y2, y) marginals of per-cell masses, as one vector like `marg`."""
        size = len(self.marg)
        return np.bincount(self.col_a, cell_mass, size) + np.bincount(self.col_b, cell_mass, size)

    def blocks(self, x):
        """Cell exponents s = -(a_ik + b_jk), block log-sum-exps g, in-block softmax p."""
        s = -(x[self.col_a] + x[self.col_b])
        top = np.maximum.reduceat(s, self.starts)
        e = np.exp(s - top[self.block_of])
        total = np.add.reduceat(e, self.starts)
        return s, top + np.log(total), e / total[self.block_of]

    def _cell_term(self, w):
        """E^T diag(w) E over the free variables, E the cells' 0/1 incidence rows."""
        return np.bincount(self.cell_index, w[self.cell_rep], self.width**2).reshape(self.width, -1)[:-1, :-1]

    def newton_step(self, t, g, p):
        """Newton direction of the barrier objective t <x, m> + sum -log(1 - exp(g)), its decrement,
        and the step along it at and beyond which some block leaves the feasible set."""
        u = np.exp(g) / -np.expm1(g)  # derivative of the barrier in g
        w = u[self.block_of] * p  # t * q on the central path
        grad = (t * self.marg - self.margins(w))[self.free]
        v = np.bincount(self.row_index, p[self.row_rep], self.n_blocks * self.width).reshape(-1, self.width)[:, :-1]
        hess = self._cell_term(w) + (v.T * (u * u)) @ v
        step = -_newton_solve(hess, grad)
        dx = np.zeros(len(self.marg))
        dx[self.free] = step
        # g_ij is convex along dx with slope -(v dx)_ij at 0, so it is >= 0 from
        # where its tangent reaches 0 on: the limit is the least such step over
        # the rising blocks, widened by a relative 1e-9 against rounding
        rate = float(((v @ step) / g).max())
        limit = (1.0 + 1e-9) / rate if rate > 0 else math.inf
        return dx, -float(grad @ step), limit

    def line_search(self, x, dx, t, g, decrement, step, limit):
        """Backtrack from `step` until the point stays strictly feasible and the barrier objective drops.

        Steps at or beyond `limit` are infeasible and are halved without being tried.
        """
        for _ in range(30):
            if step < limit:
                x_new = x + step * dx
                s, g_new, p = self.blocks(x_new)
                if np.all(g_new < 0):
                    # the change in t <x, m>, from the step actually taken
                    change = t * float(self.marg @ (x_new - x))
                    change += float(np.sum(np.log(-np.expm1(g)) - np.log(-np.expm1(g_new))))
                    if change <= -0.1 * step * decrement:
                        return x_new, s, g_new, p
            step *= 0.5
        return None

    def recover(self, s, g, t, tol):
        """q* on the cells from the central-path multipliers, with exact marginals.

        log q_ijk = -a_ik - b_jk - log(t (1 - exp(g_ij))). Its marginals are
        off by the centering residual; rescaling the rows (i, k) and columns
        (j, k) of every y-slice removes that (iterative proportional fitting,
        with each rescaling found by Newton's method on the log scalings).
        """
        log_q = s - np.log(-t * np.expm1(g))[self.block_of]
        for _ in range(FIT_STEPS):
            q = np.exp(log_q)
            excess = self.margins(q) - self.marg
            if np.max(np.abs(excess)) <= tol:
                break
            y = np.append(_newton_solve(self._cell_term(q), excess[self.free]), 0.0)
            log_q -= y[self.pos_a] + y[self.pos_b]
        return q


def solve_qstar(joint):
    """Maximize H_q(Y | Y1, Y2) over the polytope of the joint's pairwise marginals, through its dual.

    Damped log-barrier Newton method on the geometric-program dual (see
    `_DualBarrier`), started from the dual point of the conditional-product
    coupling q0 and followed along the central path until the barrier gap
    (blocks / t) is a small share of OBJECTIVE_TOL. q* is read off the
    central-path multipliers, q_ijk = lambda_ij softmax_k(-a_ik - b_jk), and
    a per-y rescaling of its rows and columns in the log domain makes its
    marginals exact. The reported objective_gap is the certificate: the dual
    value at the strictly feasible dual point minus H(Y | Y1, Y2) at the
    returned q*, a sound upper bound on the distance to the optimum, and
    the solve is converged when it is at most OBJECTIVE_TOL. MAX_ITERATIONS
    caps the Newton steps; a solve stopped there returns unconverged.

    Returns (Joint3, diagnostics dict).
    """
    # `p` names the in-block softmax below, so the joint is `joint` here
    prog = _DualBarrier(joint)
    q0 = feasible_initial(joint).mass
    m1, m2, py = _marginals(joint)
    # dual point of q0 (a_ik + b_jk = -log q0_ijk), moved one nat inside
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * np.log(py)
        a = np.where(m1 > TINY, half + 1.0 - np.log(m1), 0.0)
        b = np.where(m2 > TINY, half - np.log(m2), 0.0)
    x = np.concatenate([a.ravel(), b.ravel()])
    s, g, p = prog.blocks(x)
    t = prog.n_blocks / (float(prog.marg @ x) - LN2 * conditional_entropy_output(q0))
    target = GAP_SHARE * OBJECTIVE_TOL * LN2
    q = np.zeros(prog.cells.shape)
    it, step = 0, 1.0
    while True:
        while it < MAX_ITERATIONS:
            dx, decrement, limit = prog.newton_step(t, g, p)
            if not decrement > 2 * CENTERING_TOL:  # centered, or NaN
                break
            it += 1
            moved = prog.line_search(x, dx, t, g, decrement, step, limit)
            step = 1.0
            if moved is None:
                break
            x, s, g, p = moved
        barrier_gap = prog.n_blocks / t
        if barrier_gap <= target or it >= MAX_ITERATIONS:
            q[prog.cells] = prog.recover(s, g, t, 0.01 * FEAS_TOL)
            objective = conditional_entropy_output(q)
            # a uniform shift of a restores any rounding-level infeasibility
            dual = (float(prog.marg @ x) + max(0.0, float(g.max()))) / LN2
            gap = max(dual - objective, 0.0)
            if gap <= OBJECTIVE_TOL or it >= MAX_ITERATIONS or barrier_gap <= 1e-3 * target:
                break
        t *= BARRIER_GROWTH
        # x(t) approaches the optimum like 1/t, so the first Newton step after
        # raising t overshoots the new center by about the growth factor
        step = 1.0 / BARRIER_GROWTH
    residual = feasible_residual(q, joint)
    # written so that NaN fails them: overflow in `recover` can leave NaN in q
    if not (np.isfinite(gap) and np.all(np.isfinite(q))):
        raise InfeasibleError("solver broke down numerically")
    if not residual <= FEAS_TOL * 100:
        raise InfeasibleError(f"solver left the feasible set (residual {residual})")
    diagnostics = {
        "iterations": it,
        "objective_gap": gap,
        "feasibility_residual": residual,
        "converged": gap <= OBJECTIVE_TOL,
        "objective": objective,
    }
    return Joint3(q / q.sum()), diagnostics


def _slice_parametrization(r, c):
    """Base point and basis directions for one transportation slice.

    Free cells are the (i, j) with i, j below the last nonzero row/column; the
    remaining cells are determined by the margins. Returns (base, bases,
    bounds) in full-slice coordinates; bounds are per-parameter upper limits
    ([lo, hi] exact interval in the single-parameter case).
    """
    n = len(r)
    rows = np.flatnonzero(r > 0)
    cols = np.flatnonzero(c > 0)
    a, b = len(rows), len(cols)
    base = np.zeros((n, n))
    if a == 0:
        return base, [], []
    if a == 1 or b == 1:
        if a == 1:
            base[rows[0], :] = c
        else:
            base[:, cols[0]] = r
        return base, [], []
    total = r.sum()
    for i in rows[:-1]:
        base[i, cols[-1]] = r[i]
    for j in cols[:-1]:
        base[rows[-1], j] = c[j]
    base[rows[-1], cols[-1]] = r[rows[-1]] - c[cols[:-1]].sum()
    bases, bounds = [], []
    for i in rows[:-1]:
        for j in cols[:-1]:
            d = np.zeros((n, n))
            d[i, j] = 1.0
            d[i, cols[-1]] = -1.0
            d[rows[-1], j] = -1.0
            d[rows[-1], cols[-1]] = 1.0
            bases.append(d)
            if a == 2 and b == 2:
                lo = max(0.0, r[i] + c[j] - total)
                hi = min(r[i], c[j])
            else:
                lo, hi = 0.0, min(r[i], c[j])
            bounds.append((lo, hi))
    return base, bases, bounds


MAX_GRID_POINTS = 2 * 10**8


def _plogp_sum(q, axis):
    """-sum q log2 q over `axis`, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.sum(np.where(q > 0, q * np.log2(q), 0.0), axis=axis)


def _slice_terms(base, basis, grids, index):
    """One y-slice at flat indices of its own parameter grid: its cells
    (clipped at 0), whether each point is feasible, and -sum q log2 q."""
    q = base.ravel()[None, :]
    if grids:
        coords = np.unravel_index(index, tuple(len(g) for g in grids))
        q = q + np.stack([g[i] for g, i in zip(grids, coords)], axis=1) @ basis
    else:
        q = np.broadcast_to(q, (len(index), q.shape[1]))
    feasible = np.all(q >= -1e-12, axis=1)
    q = np.clip(q, 0.0, None)
    return q, feasible, _plogp_sum(q, 1)


def brute_force_qstar(p, grid_resolution=1000):
    """Independent grid-search oracle for the same max-entropy program over the joint p's polytope.

    Parametrizes each y-slice of the polytope as a transportation polytope
    and exhaustively grid-searches the free parameters, returning the best
    feasible grid point. Tractable only for a handful of free parameters.
    H(Y | Y1, Y2) = H(Y1, Y2, Y) - H(Y1, Y2), and H(Y1, Y2, Y) is one term
    per y-slice that depends on that slice's parameters only, so each term
    is computed on the slice's own grid and only H(Y1, Y2) on the product
    grid.
    """
    if grid_resolution < 2:
        raise OracleError("grid_resolution must be at least 2")
    n = p.size
    m1, m2, _ = _marginals(p)
    slices = []
    for k in range(n):
        base, bases, bounds = _slice_parametrization(m1[:, k], m2[:, k])
        basis = np.stack([d.ravel() for d in bases]) if bases else None
        slices.append((base, basis, [np.linspace(lo, hi, grid_resolution) for lo, hi in bounds]))
    n_par = sum(len(grids) for _, _, grids in slices)
    if n_par == 0:
        return Joint3(np.stack([base for base, _, _ in slices], axis=2))
    if n_par > 6:
        raise OracleError(f"{n_par} free parameters is too many to enumerate")
    total_points = grid_resolution**n_par
    if total_points > MAX_GRID_POINTS:
        raise OracleError(
            f"grid of {total_points} points exceeds cap; lower the resolution"
        )
    # the product grid in C order, the first slice's parameters varying
    # slowest, as (leading slices) x (last slice) blocks of at most `chunk` points
    sizes = [grid_resolution ** len(grids) for _, _, grids in slices]
    chunk = 1 << 16
    cached = [_slice_terms(*s, np.arange(size)) if size <= chunk else None for s, size in zip(slices, sizes)]

    def terms(k, index):
        return _slice_terms(*slices[k], index) if cached[k] is None else tuple(a[index] for a in cached[k])

    last = sizes[-1]
    rows, cols = max(1, chunk // last), min(last, chunk)
    leading = total_points // last
    best_val, best_q = -math.inf, None
    for a in range(0, leading, rows):
        lead = [terms(k, i) for k, i in enumerate(np.unravel_index(np.arange(a, min(a + rows, leading)), sizes[:-1]))]
        q_lead = sum((q for q, _, _ in lead[1:]), lead[0][0])
        h_lead = sum(h for _, _, h in lead)
        f_lead = np.logical_and.reduce([f for _, f, _ in lead])
        for b in range(0, last, cols):
            q, f, h = terms(n - 1, np.arange(b, min(b + cols, last)))
            feasible = f_lead[:, None] & f[None, :]
            if not feasible.any():
                continue
            h2 = _plogp_sum((q_lead[:, None, :] + q[None, :, :]).reshape(-1, n, n), (1, 2))
            vals = np.where(feasible.ravel(), (h_lead[:, None] + h[None, :]).ravel() - h2, -np.inf)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                row, col = divmod(j, len(h))
                best_q = np.stack([t[0][row].reshape(n, n) for t in lead] + [q[col].reshape(n, n)], axis=2)
    if best_q is None:
        raise OracleError("no feasible grid point found")
    return Joint3(best_q / best_q.sum())


def _clamp(value, failures, name):
    if value < -CLAMP_TOL:
        failures.append(f"{name} = {value:.3e} below clamp tolerance")
        return value
    return max(value, 0.0)


def pid_from_solution(p, q_star, diagnostics=None, p_info=None):
    """Extract R, U1, U2, S (in bits) from the optimizing distribution.

    `p_info` is p's `information`, when the caller has it already.
    """
    resid = feasible_residual(q_star.mass, p)
    if resid > 1e-6:
        raise InfeasibleError(f"q_star violates the marginal constraints ({resid:.2e})")
    total = (information(p) if p_info is None else p_info)["total"]
    info = information(q_star)
    failures = []
    r = _clamp(info["ii"], failures, "R")
    u1 = _clamp(info["c1"], failures, "U1")
    u2 = _clamp(info["c2"], failures, "U2")
    s = _clamp(total - info["total"], failures, "S")
    diagnostics = diagnostics or {}
    result = PIDResult(
        r=r,
        u1=u1,
        u2=u2,
        s=s,
        total=total,
        q_star=q_star,
        iterations=diagnostics.get("iterations", 0),
        objective_gap=diagnostics.get("objective_gap", 0.0),
        feasibility_residual=resid,
        converged=diagnostics.get("converged", True) and not failures,
    )
    if failures:
        result.consistency["failures"] = failures
    return result


def check_consistency(result, p, p_info=None):
    """Residuals of the five bookkeeping identities tying R/U1/U2/S to p (`p_info`: its `information`, if known)."""
    info = information(p) if p_info is None else p_info
    residuals = {
        "r_plus_u1": abs(result.r + result.u1 - info["i1"]),
        "r_plus_u2": abs(result.r + result.u2 - info["i2"]),
        "u1_plus_s": abs(result.u1 + result.s - info["c1"]),
        "u2_plus_s": abs(result.u2 + result.s - info["c2"]),
        "r_minus_s": abs(result.r - result.s - info["ii"]),
    }
    return {
        "residuals": residuals,
        "tolerance": CONSISTENCY_TOL,
        "passed": all(v <= CONSISTENCY_TOL for v in residuals.values()),
    }


def convert(data, smoothing=0.0):
    """Full pipeline: triples -> joint -> q* -> PIDResult with consistency report."""
    return pid_from_joint(empirical_joint(data, smoothing=smoothing))


def pid_from_joint(p):
    info = information(p)
    if info["total"] <= DEGENERATE_TOTAL:
        # no task information: the sum identity forces every component to 0
        result = PIDResult(
            r=0.0, u1=0.0, u2=0.0, s=0.0, total=0.0, q_star=feasible_initial(p)
        )
    else:
        q_star, diagnostics = solve_qstar(p)
        result = pid_from_solution(p, q_star, diagnostics, info)
    result.consistency.update(check_consistency(result, p, info))
    return result
