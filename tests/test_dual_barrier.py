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
from fusionpid.info import Joint3, information
from fusionpid.pid import (
    CENTERING_TOL,
    FEAS_TOL,
    FIT_STEPS,
    GAP_SHARE,
    LN2,
    OBJECTIVE_TOL,
    RIDGE,
    InfeasibleError,
    check_consistency,
    pid_from_joint,
    solve_qstar,
)
from fusionpid.synth import GATES, GateSpec, canonical_joint

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


def near_deterministic_joint(rng, n):
    """One heavy output cell per (y1, y2) over a 1e-12 floor: y is nearly a function of (y1, y2)."""
    m = np.full((n, n, n), 1e-12)
    m[np.arange(n)[:, None], np.arange(n), rng.integers(n, size=(n, n))] = rng.exponential(size=(n, n))
    return m


KINDS = {"dense": dense_joint, "sparse": sparse_joint, "zero-marginal": zero_marginal_joint, "denormal": denormal_joint}
# Near-deterministic joints reach final-stage Newton systems with condition
# numbers of 1e7-1e8. There the rounding difference between the two Hessian
# assemblies alone moves the step by more than the 1e-12 that the dense
# reference comparison allows (at n = 4 on about a third of seeds, before and
# after loose centering), so they run in every test here but that one, and
# `test_near_deterministic_newton_steps_match_dense_reference_to_their_conditioning`
# compares their steps under a bound scaled by the condition number.
ALL_KINDS = {**KINDS, "near-deterministic": near_deterministic_joint}


def joint(kind, n, seed=0):
    m = ALL_KINDS[kind](np.random.default_rng([seed, n, list(ALL_KINDS).index(kind)]), n)
    return Joint3(m / m.sum())


# --- dense references ---------------------------------------------------


def incidence(prog):
    """The (cells x variables) 0/1 matrix: row c has a 1 at each of cell c's two variables."""
    e = np.zeros((len(prog.col_a), len(prog.marg)))
    rows = np.arange(len(prog.col_a))
    e[rows, prog.col_a] = 1.0
    e[rows, prog.col_b] = 1.0
    return e


def scaled_system(hess):
    """The Jacobi scale of `hess` and the scaled system plus RIDGE that the solver solves."""
    diag = np.diag(hess)
    scale = np.zeros_like(diag)
    scale[diag > 0] = 1.0 / np.sqrt(diag[diag > 0])
    scaled = hess * scale[:, None] * scale[None, :]
    scaled[np.diag_indices_from(scaled)] += RIDGE
    return scale, scaled


def reference_newton_solve(hess, rhs):
    scale, scaled = scaled_system(hess)
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
    e = incidence(prog)[:, prog.free]
    log_q = s - np.log(-t * np.expm1(g))[prog.block_of]
    fits = []
    for _ in range(FIT_STEPS):
        q = np.exp(log_q)
        excess = e.T @ q - prog.marg[prog.free]
        if np.max(np.abs(excess)) <= tol:
            break
        fits.append((e.T * q) @ e)
        log_q -= e @ reference_newton_solve(fits[-1], excess)
    return q, fits


def assert_close(actual, expected, rel=1e-12, scale=None):
    """Equal up to `rel` times the largest entry of `expected`, or of `scale` if given."""
    scale = np.max(np.abs(expected if scale is None else scale), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= rel * scale, (actual, expected)


def traced_solve(p, monkeypatch):
    """Solve p's program, recording each Newton step's inputs with the Hessian
    handed to `_scale` and the gradient of its system, and each `recover` call
    with its fit matrices."""
    scaled, built, steps, recovers = [], {}, [], []
    real_scale = pid._scale
    real_system, real_step = pid._DualBarrier.newton_system, pid._DualBarrier.newton_step
    real_recover = pid._DualBarrier.recover

    def scale(hess):
        scaled.append(hess.copy())
        return real_scale(hess)

    def newton_system(self, g, p, em1):
        scaled.clear()
        system = real_system(self, g, p, em1)
        built[id(system)] = (system, p.copy(), scaled[0])  # held, so that no id is reused
        return system

    def newton_step(self, system, t, g):
        out = real_step(self, system, t, g)
        _, p, hess = built[id(system)]
        grad = t * self.marg_free - system[2]  # the gradient newton_step forms
        steps.append((self, t, g.copy(), p, (hess, grad), out))
        return out

    def recover(self, s, g, t, tol):
        scaled.clear()
        q = real_recover(self, s, g, t, tol)
        recovers.append((self, s.copy(), g.copy(), t, tol, list(scaled), q))
        return q

    monkeypatch.setattr(pid, "_scale", scale)
    monkeypatch.setattr(pid._DualBarrier, "newton_system", newton_system)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", SIZES)
def test_near_deterministic_newton_steps_match_dense_reference_to_their_conditioning(n, monkeypatch):
    # the assemblies agree to 1e-12 as on every other kind; the step may then
    # differ from the reference's by what the scaled system's condition number
    # kappa makes of a rounding of the Hessian: 8 kappa eps, relative (over
    # seeds 0-9 the worst seen is 0.57 kappa eps, where 4 of 1736 steps pass 1e-12)
    eps = np.finfo(float).eps
    for seed in range(10):
        steps, recovers = traced_solve(joint("near-deterministic", n, seed), monkeypatch)
        assert steps and recovers
        for prog, t, g, p, (hess, grad), (dx, decrement, _) in steps:
            ref_grad, ref_hess = reference_newton_system(prog, t, g, p)
            assert_close(hess, ref_hess)
            assert_close(grad, ref_grad, scale=t * prog.marg)
            ref_step = -reference_newton_solve(ref_hess, grad)
            bound = 8 * np.linalg.cond(scaled_system(ref_hess)[1]) * eps
            assert_close(dx[prog.free], ref_step, rel=bound)
            assert not np.any(np.delete(dx, prog.free))
            assert decrement == pytest.approx(-float(grad @ ref_step), rel=bound)
        for prog, s, g, t, tol, fits, q in recovers:
            ref_q, ref_fits = reference_recover(prog, s, g, t, tol)
            assert len(fits) == len(ref_fits)
            for fit, ref_fit in zip(fits, ref_fits):
                assert_close(fit, ref_fit)
            assert_close(q, ref_q)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(ALL_KINDS))
@pytest.mark.parametrize("n", SIZES)
def test_only_the_final_stage_is_centered_tightly(kind, n, monkeypatch):
    p = joint(kind, n)
    steps, recovers = traced_solve(p, monkeypatch)
    prog = recovers[0][0]
    # q* is first read at t_final = blocks / target itself, not up to BARRIER_GROWTH past it
    assert recovers[0][3] == prog.n_blocks / (GAP_SHARE * OBJECTIVE_TOL * LN2)
    # a stage ends in its last newton_step: at a final stage, the one just before `recover`
    last = {t: decrement for _, t, _, _, _, (_, decrement, _) in steps}
    for _, _, _, t, _, _, _ in recovers:
        assert last[t] <= 2 * CENTERING_TOL, (t, last[t])
    # the intermediate stages stop at LOOSE_CENTERING_TOL, short of CENTERING_TOL
    assert max(decrement for t, decrement in last.items() if t < recovers[0][3]) > 2 * CENTERING_TOL
    res = pid_from_joint(p)
    assert res.converged and res.objective_gap <= OBJECTIVE_TOL and res.consistency["passed"], res.to_json()


REUSE_SOLVES = [(gate, 2) for gate in GATES] + [
    (kind, n) for kind in ("dense", "sparse", "near-deterministic") for n in SIZES
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, n", REUSE_SOLVES)
def test_one_newton_system_per_point_reused_across_the_barrier_jump(kind, n, monkeypatch):
    p = canonical_joint(GateSpec(kind)) if kind in GATES else joint(kind, n)
    built, failed, point, steps = [], [], {}, []
    real_system, real_step = pid._DualBarrier.newton_system, pid._DualBarrier.newton_step
    real_search = pid._DualBarrier.line_search

    def newton_system(self, g, p, em1):
        built.append(g)
        point.setdefault("p", p)  # the first system is built at the starting point
        return real_system(self, g, p, em1)

    def line_search(self, *args):
        moved = real_search(self, *args)
        if moved is None:
            failed.append(args)
        else:
            point["p"] = moved[3]
        return moved

    def newton_step(self, system, t, g):
        out = real_step(self, system, t, g)
        # the same step from a system built afresh at the current point
        fresh = real_step(self, real_system(self, g, point["p"], -np.expm1(g)), t, g)
        steps.append((t, out, fresh))
        return out

    monkeypatch.setattr(pid._DualBarrier, "newton_system", newton_system)
    monkeypatch.setattr(pid._DualBarrier, "line_search", line_search)
    monkeypatch.setattr(pid._DualBarrier, "newton_step", newton_step)
    _, diagnostics = solve_qstar(p)
    monkeypatch.undo()
    # one system at the starting point and one per accepted step: none is
    # built again when t grows, so a stage's first step reuses the last one
    assert len(built) == diagnostics["iterations"] + 1 - len(failed)
    assert len({t for t, _, _ in steps}) >= 2
    # bit for bit: a system kept after the point moved would give another step
    for t, (dx, decrement, limit), (ref_dx, ref_decrement, ref_limit) in steps:
        assert dx.tobytes() == ref_dx.tobytes(), t
        assert np.array([decrement, limit]).tobytes() == np.array([ref_decrement, ref_limit]).tobytes(), t


@pytest.mark.parametrize("kind", list(ALL_KINDS))
def test_newton_system_margins_are_the_cell_margins_bit_for_bit(kind, monkeypatch):
    """The margins of w that `newton_system` reads off the diagonal of E^T diag(w) E are,
    byte for byte, one bincount of w over the cells' a and b variables: both sum each margin
    in cell order."""
    checked = []
    real_system = pid._DualBarrier.newton_system

    def newton_system(self, g, p, em1):
        system = real_system(self, g, p, em1)
        u = np.exp(g) / -np.expm1(g)
        w = u[self.block_of] * p
        expected = np.bincount(np.r_[self.col_a, self.col_b], np.r_[w, w], len(self.marg))[self.free]
        assert system[2].tobytes() == expected.tobytes()
        checked.append(len(expected))
        return system

    monkeypatch.setattr(pid._DualBarrier, "newton_system", newton_system)
    for n in SIZES:
        solve_qstar(joint(kind, n))
    assert checked


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", list(ALL_KINDS))
@pytest.mark.parametrize("n", SIZES)
def test_recovered_q_meets_every_marginal_though_only_the_free_ones_are_fitted(kind, n, monkeypatch):
    # per y, p's and q's (y1, y) and (y2, y) marginals both sum to p(y), so the excess of
    # each y's fixed b is at most the other 2n - 1 excesses, each within the fit's tol
    _, recovers = traced_solve(joint(kind, n), monkeypatch)
    assert recovers
    for prog, _, _, _, tol, _, q in recovers:
        assert tol == 0.01 * FEAS_TOL
        excess = incidence(prog).T @ q - prog.marg
        assert np.max(np.abs(excess[prog.free])) <= tol
        assert np.max(np.abs(excess)) <= (2 * n - 1) * tol


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
def test_feasibility_limit_is_sound(kind, n):
    # newton_step's limit is checked along random directions: the point's
    # Newton system keeps its block rows v, but its matrix and scale are the
    # identity and its margins make the gradient a random draw, so the step is
    # -draw on the free variables (up to the rounding of t * marg_free)
    rng = np.random.default_rng([n, len(kind)])
    finite = 0
    for trial in range(25):
        prog = pid._DualBarrier(joint(kind, n, seed=trial))
        x = strictly_feasible_point(prog, rng)
        _, g, p = prog.blocks(x)
        assert g.max() < 0
        t, free = 10.0 ** rng.uniform(-2, 6), len(prog.free)
        *_, v = prog.newton_system(g, p, -np.expm1(g))
        system = (np.eye(free), np.ones(free), t * prog.marg_free - rng.normal(size=free), v)
        dx, _, limit = prog.newton_step(system, t, g)
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
    barrier = float(np.sum(np.log(-np.expm1(g))))
    # every halving of 1 down to 2^-29 is at or past a limit of 2^-30: none is tried
    assert prog.line_search(x, dx, 1.0, barrier, 1.0, 1.0, 2.0**-30) is None
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
        return value if value < -OBJECTIVE_TOL else max(value, 0.0)

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
        table = check_consistency(res, information(p))["residuals"]
        assert table.keys() == residuals.keys()
        for key, value in residuals.items():
            assert table[key] == pytest.approx(value, abs=1e-12), key
    assert checked >= 6
