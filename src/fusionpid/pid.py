"""Marginal-constrained max-entropy program and the R/U1/U2/S decomposition.

The optimizing distribution q* maximizes H_q(Y | Y1, Y2) over the polytope of
joints matching the (y1, y) and (y2, y) pairwise marginals of p while leaving
the (y1, y2) coupling free. The solver runs a damped log-barrier Newton method
on the program's geometric-program dual, reads q* off the central-path
multipliers, makes its marginals exact by rescaling the rows and columns of
every y-slice, and certifies the result with the gap between the dual value
and H(Y | Y1, Y2) at the returned q*.
"""

import math
from dataclasses import dataclass, field, fields

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
        """Every field but q_star, the keys of a report's `pid` block."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "q_star"}


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
# lambda^2 / 2 at which a centering stops: CENTERING_TOL in the final stage,
# whose multipliers q* is read off, and LOOSE_CENTERING_TOL before it, where
# the center only has to be close enough for the next stage's Newton steps.
BARRIER_GROWTH = 50.0
CENTERING_TOL = 1e-6
LOOSE_CENTERING_TOL = 0.5
# The barrier's own duality gap (blocks / t) is driven below this share of
# OBJECTIVE_TOL before q* is read off, leaving the rest of the tolerance to
# the marginal fit.
GAP_SHARE = 0.1
FIT_STEPS = 20
# Added to the Jacobi-scaled Newton systems (unit diagonal) so that rounding
# cannot make them indefinite.
RIDGE = 1e-12


def _scale(hess):
    """Jacobi-scale hess in place and add RIDGE to its diagonal; returns the scale.

    A variable with no curvature (every weight it touches underflowed to 0)
    gets a zero scale, and so a zero step.
    """
    diag = hess.diagonal()
    scale = np.divide(1.0, np.sqrt(diag), out=np.zeros(len(diag)), where=diag > 0)
    hess *= scale[:, None]
    hess *= scale
    hess.flat[:: len(diag) + 1] += RIDGE
    return scale


def _newton_solve(hess, rhs):
    """Solve hess x = rhs through `_scale`, which consumes the caller's matrix (no copy is made)."""
    scale = _scale(hess)
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
        self.marg_free = self.marg[self.free]
        self.col_ab = np.concatenate([self.col_a, self.col_b])
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
        return np.bincount(self.col_ab, np.concatenate([cell_mass, cell_mass]), len(self.marg))

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

    def newton_system(self, g, p):
        """The Newton system of the barrier objective t <x, m> + sum -log(1 - exp(g)) at the point
        with blocks g and softmax p, none of it dependent on t: the Hessian, Jacobi-scaled plus
        RIDGE, its scale, the free part of the margins of t * q and the block rows v."""
        u = np.exp(g) / -np.expm1(g)  # derivative of the barrier in g
        w = u[self.block_of] * p  # t * q on the central path
        cell = self._cell_term(w)
        v = np.bincount(self.row_index, p[self.row_rep], self.n_blocks * self.width).reshape(-1, self.width)[:, :-1]
        hess = cell + (v.T * (u * u)) @ v
        # the margins of w are the diagonal of E^T diag(w) E, summed there in the same order
        return hess, _scale(hess), cell.diagonal(), v

    def newton_step(self, system, t, g):
        """Newton direction at barrier parameter t from the point's `newton_system`, its decrement,
        and the step along it at and beyond which some block leaves the feasible set."""
        hess, scale, mw, v = system
        grad = t * self.marg_free - mw
        step = -(scale * np.linalg.solve(hess, scale * grad))
        dx = np.zeros(len(self.marg))
        dx[self.free] = step
        # g_ij is convex along dx with slope -(v dx)_ij at 0, so it is >= 0 from
        # where its tangent reaches 0 on: the limit is the least such step over
        # the rising blocks, widened by a relative 1e-9 against rounding
        rate = float(((v @ step) / g).max())
        limit = (1.0 + 1e-9) / rate if rate > 0 else math.inf
        return dx, -float(grad @ step), limit

    def line_search(self, x, dx, t, barrier, decrement, step, limit):
        """Backtrack from `step` until the point stays strictly feasible and the barrier objective drops.

        `barrier` is the current point's sum log(1 - exp(g)); the accepted point
        is returned with its own. Steps at or beyond `limit` are infeasible and
        are halved without being tried.
        """
        slope = t * float(self.marg @ dx)  # the slope of t <x, m> along dx
        for _ in range(30):
            if step < limit:
                x_new = x + step * dx
                s, g_new, p = self.blocks(x_new)
                if g_new.max() < 0:
                    barrier_new = float(np.sum(np.log(-np.expm1(g_new))))
                    change = step * slope + barrier - barrier_new
                    if change <= -0.1 * step * decrement:
                        return x_new, s, g_new, p, barrier_new
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
    (blocks / t) is a small share of OBJECTIVE_TOL, at t = t_final. t grows
    by BARRIER_GROWTH between stages, except that the last jump lands on
    t_final itself. Stages below t_final stop at a Newton decrement of
    LOOSE_CENTERING_TOL; only the final stage (t >= t_final), whose point
    q* and the certificate are read from, is centered to CENTERING_TOL
    (Boyd & Vandenberghe, Convex Optimization, 11.3). The Newton system
    (`_DualBarrier.newton_system`) does not depend on t, so it is built once
    per dual point, the starting point and each point a line search accepts:
    the step that shows a stage centered and the first step of the next
    stage, at the larger t, solve the same system. q* is read off the
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
    barrier = float(np.sum(np.log(-np.expm1(g))))
    system = prog.newton_system(g, p)
    t = prog.n_blocks / (float(prog.marg @ x) - LN2 * conditional_entropy_output(q0))
    target = GAP_SHARE * OBJECTIVE_TOL * LN2
    t_final = prog.n_blocks / target
    q = np.zeros(prog.cells.shape)
    it, step = 0, 1.0
    while True:
        final = t >= t_final
        tol = CENTERING_TOL if final else LOOSE_CENTERING_TOL
        while it < MAX_ITERATIONS:
            dx, decrement, limit = prog.newton_step(system, t, g)
            if not decrement > 2 * tol:  # centered, or NaN
                break
            it += 1
            moved = prog.line_search(x, dx, t, barrier, decrement, step, limit)
            step = 1.0
            if moved is None:
                break
            x, s, g, p, barrier = moved
            system = prog.newton_system(g, p)
        if final or it >= MAX_ITERATIONS:
            q[prog.cells] = prog.recover(s, g, t, 0.01 * FEAS_TOL)
            objective = conditional_entropy_output(q)
            # a uniform shift of a restores any rounding-level infeasibility
            dual = (float(prog.marg @ x) + max(0.0, float(g.max()))) / LN2
            gap = max(dual - objective, 0.0)
            if gap <= OBJECTIVE_TOL or it >= MAX_ITERATIONS or t >= 1e3 * t_final:
                break
        # the last jump lands on t_final rather than up to BARRIER_GROWTH past it
        if t < t_final < t * BARRIER_GROWTH:
            growth, t = t_final / t, t_final
        else:
            growth, t = BARRIER_GROWTH, t * BARRIER_GROWTH
        # x(t) approaches the optimum like 1/t, so the first Newton step after
        # raising t overshoots the new center by about the growth factor
        step = 1.0 / growth
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
