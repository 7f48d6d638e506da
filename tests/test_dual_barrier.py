"""The dual barrier's internals against dense references kept here.

The solver assembles its Newton systems by index arithmetic, skips line-search
steps that a convexity bound shows infeasible, and reads every information
term off one entropy table per joint. Each is checked against the plain
formula it replaces: the dense (cells x free variables) incidence matrix, the
blocks evaluated at the skipped steps, and the per-term entropy formulas
written out in `reference_terms`.
"""

import numpy as np
import pytest

from fusionpid import pid
from fusionpid.info import Joint3
from fusionpid.pid import (
    CLAMP_TOL,
    FIT_STEPS,
    RIDGE,
    InfeasibleError,
    check_consistency,
    pid_from_joint,
    solve_qstar,
)

SIZES = [2, 3, 4, 5, 6, 7]


def dense_joint(rng, n):
    return rng.exponential(size=(n, n, n))


def sparse_joint(rng, n):
    """Exponential masses on a ~40% share of the cells."""
    m = rng.exponential(size=(n, n, n)) * (rng.random((n, n, n)) < 0.4)
    m[0, 0, 0] += float(not m.any())
    return m


def zero_marginal_joint(rng, n):
    m = rng.exponential(size=(n, n, n))
    m[n - 1] = 0.0  # y1 never takes its last value
    return m


def denormal_joint(rng, n):
    """Two heavy cells, one zero cell and 5e-324 in every other cell."""
    m = np.full((n, n, n), 5e-324)
    m[0, 0, 1], m[0, n - 1, n - 1], m[0, 0, 0] = 0.8, 0.2, 0.0
    return m


KINDS = {"dense": dense_joint, "sparse": sparse_joint, "zero-marginal": zero_marginal_joint, "denormal": denormal_joint}


def joint(kind, n, seed=0):
    m = KINDS[kind](np.random.default_rng([seed, n, list(KINDS).index(kind)]), n)
    return Joint3(m / m.sum())


# --- dense references ---------------------------------------------------


def incidence(prog):
    """The (cells x variables) 0/1 matrix: row c has a 1 at each of cell c's two variables."""
    e = np.zeros((len(prog.col_a), len(prog.marg)))
    rows = np.arange(len(prog.col_a))
    e[rows, prog.col_a] = 1.0
    e[rows, prog.col_b] = 1.0
    return e


def reference_newton_solve(hess, rhs):
    diag = np.diag(hess)
    scale = np.zeros_like(diag)
    scale[diag > 0] = 1.0 / np.sqrt(diag[diag > 0])
    scaled = hess * scale[:, None] * scale[None, :]
    scaled[np.diag_indices_from(scaled)] += RIDGE
    return scale * np.linalg.solve(scaled, scale * rhs)


def reference_newton_system(prog, t, g, p):
    """Gradient and Hessian of the barrier objective over the free variables."""
    e = incidence(prog)[:, prog.free]
    u = np.exp(g) / -np.expm1(g)
    w = u[prog.block_of] * p
    grad = t * prog.marg[prog.free] - e.T @ w
    v = np.add.reduceat(p[:, None] * e, prog.starts, axis=0)
    return grad, (e.T * w) @ e + (v.T * (u * u)) @ v


def reference_recover(prog, s, g, t, tol):
    """`recover` with the incidence matrix: q on the cells and every fit matrix."""
    full = incidence(prog)
    e = full[:, prog.free]
    log_q = s - np.log(-t * np.expm1(g))[prog.block_of]
    fits = []
    for _ in range(FIT_STEPS):
        q = np.exp(log_q)
        excess = full.T @ q - prog.marg
        if np.max(np.abs(excess)) <= tol:
            break
        fits.append((e.T * q) @ e)
        log_q -= e @ reference_newton_solve(fits[-1], excess[prog.free])
    return q, fits


def assert_close(actual, expected, rel=1e-12, scale=None):
    """Equal up to `rel` times the largest entry of `expected`, or of `scale` if given."""
    scale = np.max(np.abs(expected if scale is None else scale), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= rel * scale, (actual, expected)


def traced_solve(p, monkeypatch):
    """Solve p's program, recording each Newton step's inputs and the system
    handed to `_newton_solve`, and each `recover` call with its fit matrices."""
    systems, steps, recovers = [], [], []
    real_solve = pid._newton_solve
    real_step, real_recover = pid._DualBarrier.newton_step, pid._DualBarrier.recover

    def newton_solve(hess, rhs):
        systems.append((hess.copy(), rhs.copy()))
        return real_solve(hess, rhs)

    def newton_step(self, t, g, p):
        systems.clear()
        out = real_step(self, t, g, p)
        steps.append((self, t, g.copy(), p.copy(), systems[0], out))
        return out

    def recover(self, s, g, t, tol):
        systems.clear()
        q = real_recover(self, s, g, t, tol)
        recovers.append((self, s.copy(), g.copy(), t, tol, [hess for hess, _ in systems], q))
        return q

    monkeypatch.setattr(pid, "_newton_solve", newton_solve)
    monkeypatch.setattr(pid._DualBarrier, "newton_step", newton_step)
    monkeypatch.setattr(pid._DualBarrier, "recover", recover)
    solve_qstar(p)
    monkeypatch.undo()
    return steps, recovers


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("n", SIZES)
def test_newton_systems_match_dense_incidence_reference(kind, n, monkeypatch):
    steps, recovers = traced_solve(joint(kind, n), monkeypatch)
    assert steps and recovers
    for prog, t, g, p, (hess, grad), (dx, decrement, _) in steps:
        ref_grad, ref_hess = reference_newton_system(prog, t, g, p)
        assert_close(hess, ref_hess)
        # the gradient is a difference of terms of size t * marg, which sets its rounding
        assert_close(grad, ref_grad, scale=t * prog.marg)
        # the step from the reference Hessian, for the gradient the solver used
        ref_step = -reference_newton_solve(ref_hess, grad)
        assert_close(dx[prog.free], ref_step)
        assert not np.any(np.delete(dx, prog.free))
        assert decrement == pytest.approx(-float(grad @ ref_step), rel=1e-12)
    for prog, s, g, t, tol, fits, q in recovers:
        ref_q, ref_fits = reference_recover(prog, s, g, t, tol)
        assert len(fits) == len(ref_fits)
        for fit, ref_fit in zip(fits, ref_fits):
            assert_close(fit, ref_fit)
        assert_close(q, ref_q)


def test_barrier_arrays_grow_like_cells_not_cells_times_variables():
    # at n = 15 the dense incidence matrix alone took 3375 x 450 doubles (12 MB)
    prog = pid._DualBarrier(joint("dense", 15))
    assert sum(v.nbytes for v in vars(prog).values() if isinstance(v, np.ndarray)) < 1e6


# --- the line search's feasibility limit -----------------------------------


def strictly_feasible_point(prog, rng):
    """Random dual variables, with every a_ik shifted so that max g is in [-2, -0.01)."""
    x = rng.normal(scale=2.0, size=len(prog.marg))
    _, g, _ = prog.blocks(x)
    x[: len(x) // 2] += g.max() + rng.uniform(0.01, 2.0)
    return x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_feasibility_limit_is_sound(kind, n, monkeypatch):
    # newton_step's limit is checked along random directions: `_newton_solve`
    # is replaced by a random draw, so the step is -draw on the free variables
    rng = np.random.default_rng([n, len(kind)])
    monkeypatch.setattr(pid, "_newton_solve", lambda hess, rhs: rng.normal(size=len(rhs)))
    finite = 0
    for trial in range(25):
        prog = pid._DualBarrier(joint(kind, n, seed=trial))
        x = strictly_feasible_point(prog, rng)
        _, g, p = prog.blocks(x)
        assert g.max() < 0
        dx, _, limit = prog.newton_step(10.0 ** rng.uniform(-2, 6), g, p)
        assert limit > 0
        if np.isinf(limit):
            continue
        finite += 1
        for factor in (1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.1, 2.0, 10.0, 1e3):
            _, g_new, _ = prog.blocks(x + factor * limit * dx)
            assert g_new.max() >= 0, (trial, factor, limit)
    assert finite >= 15


@pytest.mark.filterwarnings("error")
def test_line_search_never_tries_a_step_past_the_limit(monkeypatch):
    tried = []
    real_blocks = pid._DualBarrier.blocks
    monkeypatch.setattr(pid._DualBarrier, "blocks", lambda self, x: tried.append(x) or real_blocks(self, x))
    prog = pid._DualBarrier(joint("dense", 3))
    x = strictly_feasible_point(prog, np.random.default_rng(5))
    _, g, _ = prog.blocks(x)
    dx = np.zeros_like(x)
    dx[prog.free] = 1.0
    tried.clear()
    # every halving of 1 down to 2^-29 is at or past a limit of 2^-30: none is tried
    assert prog.line_search(x, dx, 1.0, g, 1.0, 1.0, 2.0**-30) is None
    assert not tried


# --- one entropy table per joint ---------------------------------------------


def entropy(mass):
    m = mass[mass > 0]
    return float(-(m * np.log2(m)).sum())


def mi(m2):
    """I(A; B) of a 2-D joint."""
    return entropy(m2.sum(axis=1)) + entropy(m2.sum(axis=0)) - entropy(m2)


def cmi(m, given):
    """I(A; B | C) of a 3-D joint, C the `given` axis: H(A, C) + H(B, C) - H(A, B, C) - H(C)."""
    a, b = [axis for axis in range(3) if axis != given]
    return entropy(m.sum(axis=b)) + entropy(m.sum(axis=a)) - entropy(m) - entropy(m.sum(axis=(a, b)))


def reference_terms(p, res):
    """R, U1, U2, S, the total and the five consistency residuals, one entropy at a time."""
    q, m = res.q_star.mass, p.mass
    n = len(m)

    def clamp(value):
        return value if value < -CLAMP_TOL else max(value, 0.0)

    def interaction(x):  # I(Y1; Y2; Y) = I(Y1; Y2) - I(Y1; Y2 | Y)
        return mi(x.sum(axis=2)) - cmi(x, given=2)

    total = mi(m.reshape(-1, n))
    r = clamp(interaction(q))
    u1 = clamp(cmi(q, given=1))
    u2 = clamp(cmi(q, given=0))
    s = clamp(total - mi(q.reshape(-1, n)))
    residuals = {
        "r_plus_u1": abs(res.r + res.u1 - mi(m.sum(axis=1))),
        "r_plus_u2": abs(res.r + res.u2 - mi(m.sum(axis=0))),
        "u1_plus_s": abs(res.u1 + res.s - cmi(m, given=1)),
        "u2_plus_s": abs(res.u2 + res.s - cmi(m, given=0)),
        "r_minus_s": abs(res.r - res.s - interaction(m)),
    }
    return [r, u1, u2, s, total], residuals


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_entropy_table_matches_per_term_reference(n):
    rng = np.random.default_rng(90 + n)
    checked = 0
    for _ in range(8):
        m = rng.exponential(size=(n, n, n)) * (rng.random((n, n, n)) < rng.uniform(0.3, 0.9))
        m[0, 0, 0] += float(not m.any())
        p = Joint3(m / m.sum())
        try:
            res = pid_from_joint(p)
        except InfeasibleError:
            continue
        checked += 1
        components, residuals = reference_terms(p, res)
        assert [res.r, res.u1, res.u2, res.s, res.total] == pytest.approx(components, abs=1e-12)
        table = check_consistency(res, p)["residuals"]
        assert table.keys() == residuals.keys()
        for key, value in residuals.items():
            assert table[key] == pytest.approx(value, abs=1e-12), key
    assert checked >= 6
