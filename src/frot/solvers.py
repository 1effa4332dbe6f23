"""Entropic (Sinkhorn) and exact optimal-transport solvers.

The entropic solver performs alternating row/column scalings of a Gibbs
kernel and absorbs the scalings into the dual potentials whenever one grows
large (Schmitzer 2019, section 3), so one loop is stable at every eps.  Every
LP in the package, the transportation LP here and the epigraph LP in
``minmax``, goes through ``solve_lp``, the one place that builds an LP: it
assembles the column-wise constraint matrix, scales the costs to unit
maximum and solves by HiGHS dual simplex (Huangfu & Hall 2018), called
through scipy's private HiGHS bindings with presolve off.  It returns a
vertex-optimal basic solution, its plan clipped onto the 0 bound, with the
marginal duals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as highs
from scipy.special import xlogy

from .measures import TransportPlan


class SolverFailure(RuntimeError):
    """Fatal numerical failure inside a solver."""


#: exp(x) is subnormal or 0.0 in double precision for every x below this,
#: and ``_exp`` writes 0.0 at and below it: a kernel that holds subnormals
#: makes BLAS mat-vecs about twice as slow, and such entries are below
#: 1e-220 in any plan whose scalings are in bounds
_EXP_UNDERFLOW = float(np.log(np.finfo(float).tiny))

#: Sinkhorn absorbs its scalings into the potentials once one leaves
#: [exp(-TAU), exp(TAU)]
_SCALING_TAU = 100.0
_SCALING_MIN = float(np.exp(-_SCALING_TAU))
_SCALING_MAX = float(np.exp(_SCALING_TAU))

#: Sinkhorn checks its scaling bounds and its residual once per this many
#: scaling sweeps
_CHECK_EVERY = 10


@dataclass(frozen=True)
class SinkhornConfig:
    """Knobs for the entropic solver."""

    epsilon: float
    t_max: int = 1000
    tol: float = 1e-9

    def __post_init__(self):
        if not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite (got {self.epsilon})")
        if self.epsilon == 0:
            raise ValueError(
                "epsilon = 0 is the unregularized problem; use emd_exact_solve"
            )
        if self.epsilon < 0:
            raise ValueError("epsilon must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SinkhornResult:
    """Entropic plan and how the solve went.  ``iterations`` counts every
    sweep kept; ``residuals`` holds the row-side L1 marginal deviation at
    each check (after each block of sweeps and each log-domain sweep), and
    ``converged`` is ``residuals[-1] <= tol``."""

    plan: TransportPlan
    objective: float
    transport_cost: float
    converged: bool
    iterations: int
    residuals: np.ndarray
    potentials: tuple


def entropy(plan_matrix: np.ndarray) -> float:
    """H(P) = sum_ij p_ij (log p_ij - 1), with 0 log 0 = 0."""
    p = np.asarray(plan_matrix)
    return float(np.sum(xlogy(p, p) - p))


def _check_marginals(a, b):
    """Checked weights for every solver, with b rescaled to a's mass (b
    itself when the masses are equal): the masses may differ by up to
    2e-9, beyond HiGHS's 1e-10 feasibility tolerance and Sinkhorn's tol."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("weights must be finite (got NaN or inf)")
    mass_a, mass_b = a.sum(), b.sum()
    if abs(mass_a - 1.0) > 1e-9 or abs(mass_b - 1.0) > 1e-9:
        raise ValueError(f"weights must each sum to 1 (got {mass_a} and {mass_b})")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("weights must be nonnegative")
    return a, b * (mass_a / mass_b)


def _check_order(p) -> None:
    # NaN fails both comparisons
    if not 1 <= p < np.inf:
        raise ValueError(f"order p must be finite and at least 1 (got {p})")


def sinkhorn_solve(a, b, C, cfg: SinkhornConfig, init_g=None) -> SinkhornResult:
    """Entropic OT by Sinkhorn iteration.

    Solves min <P, C> + eps * H(P) over couplings of (a, b), returning the
    plan in Gibbs form diag(u) K diag(v).  Each sweep updates u then v, in
    blocks of 10 sweeps (never past ``cfg.t_max``) between checks.  The
    first sweep runs in the log domain instead and folds u and v into the
    potentials that define K; so does one sweep in place of any block whose
    last scalings leave [e^-100, e^100] or turn non-finite, which is then
    dropped.  The row-side L1 marginal deviation is checked after each
    block and each log-domain sweep; iteration stops once it is at most
    ``cfg.tol``, or after ``cfg.t_max`` sweeps, in which case the result
    is flagged ``converged=False`` and a warning is emitted.

    Parameters
    ----------
    a, b : array-like
        Strictly positive weights, each summing to 1; b is rescaled to
        a's mass.
    C : array-like, shape (n, m)
        Finite nonnegative cost matrix.
    cfg : SinkhornConfig
    init_g : array-like of shape (m,), optional
        Warm-start column potential ``g`` from a previous solve on a nearby
        cost; the first sweep computes the row potential from it.

    Returns
    -------
    SinkhornResult
        With dual potentials ``(f, g)`` such that
        ``P = exp((f[:, None] + g[None, :] - C) / eps)``.
    """
    a, b = _check_marginals(a, b)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("sinkhorn_solve requires strictly positive weights")
    C = np.asarray(C, dtype=float)
    if C.shape != (a.shape[0], b.shape[0]):
        raise ValueError(f"cost shape {C.shape} does not match weights")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    if C.min() < 0:
        raise ValueError("cost matrix must be nonnegative")
    if init_g is not None:
        init_g = np.asarray(init_g, dtype=float)
        if init_g.shape != b.shape or not np.all(np.isfinite(init_g)):
            raise ValueError(
                f"init_g must be a finite vector of shape {b.shape} "
                f"(got shape {init_g.shape})"
            )

    eps = cfg.epsilon
    plan, f, g, sweeps, residuals = _sinkhorn(a, b, C, cfg, init_g)
    converged = residuals[-1] <= cfg.tol

    if not converged:
        # message kept static so the warnings machinery dedupes repeats;
        # the achieved residual is in the result
        warnings.warn(
            "Sinkhorn stopped at t_max before reaching tol; the result is "
            "flagged (converged=False) and carries its residual trace",
            RuntimeWarning,
            stacklevel=2,
        )
    transport_cost = float(np.sum(plan * C))
    return SinkhornResult(
        plan=TransportPlan.from_matrix(plan, a, b),
        objective=transport_cost + eps * entropy(plan),
        transport_cost=transport_cost,
        converged=converged,
        iterations=sweeps,
        residuals=np.asarray(residuals),
        potentials=(f, g),
    )


def _sinkhorn(a, b, C, cfg, init_g):
    # Scaled potentials (phi, psi) = (f, g) / eps are kept in two parts: the
    # absorbed (phi0, psi0), from which the kernel K = exp(phi0 + psi0 - C/eps)
    # is built, and the scalings (u, v), so that phi = phi0 + log u and
    # psi = psi0 + log v.  A scaling sweep costs two mat-vecs on K; an
    # absorption sweep is the log-domain c-transform pair, after which
    # (u, v) = 1 and K is the current plan.  Scaling sweeps run in blocks of
    # _CHECK_EVERY between checks; a block that ends out of bounds is
    # dropped and replaced by one absorption sweep from its starting point,
    # which is the same iterate up to rounding.
    eps = cfg.epsilon
    n, m = C.shape
    log_a = np.log(a)
    log_b = np.log(b)
    neg_c = -C / eps
    if init_g is None:
        psi0 = np.zeros_like(b)
    else:
        psi0 = init_g / eps
    # (u, v) share one buffer, so one min/max pair bounds both
    scalings = np.ones(n + m)
    u, v = scalings[:n], scalings[n:]
    Kv = np.empty(n)
    KTu = np.empty(m)
    residuals = []
    sweeps = 0
    absorb = True
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            if absorb:
                # phi only depends on psi, so u needs no folding
                psi = psi0 + np.log(v)
                phi0 = log_a - _lse(neg_c + psi[None, :], axis=1)
                psi0 = log_b - _lse(neg_c + phi0[:, None], axis=0)
                K = _exp(neg_c + phi0[:, None] + psi0[None, :])
                scalings.fill(1.0)
                K.sum(axis=1, out=Kv)
                sweeps += 1
            else:
                v_start = v.copy()
                block = min(_CHECK_EVERY, cfg.t_max - sweeps)
                for _ in range(block):
                    np.divide(a, Kv, out=u)
                    np.dot(K.T, u, out=KTu)
                    np.divide(b, KTu, out=v)
                    np.dot(K, v, out=Kv)
                if not _bounded(scalings):
                    v[:] = v_start
                    absorb = True
                    continue
                sweeps += block
            # column marginals are exact after the v update; the residual is
            # the row-side L1 deviation u * (K v) - a
            residuals.append(float(np.abs(u * Kv - a).sum()))
            if residuals[-1] <= cfg.tol or sweeps == cfg.t_max:
                break
            absorb = False
    plan = u[:, None] * K * v[None, :]
    return plan, eps * (phi0 + np.log(u)), eps * (psi0 + np.log(v)), sweeps, residuals


def _bounded(scaling: np.ndarray) -> bool:
    # also False for NaN, which min and max propagate
    return bool(_SCALING_MIN <= scaling.min() and scaling.max() <= _SCALING_MAX)


def _exp(M: np.ndarray) -> np.ndarray:
    # numpy takes a slow path where exp underflows, and BLAS a slow one on
    # subnormals; small-epsilon kernels are mostly such entries, so skip them
    return np.exp(M, out=np.zeros(M.shape), where=M > _EXP_UNDERFLOW)


def _lse(M: np.ndarray, axis: int) -> np.ndarray:
    # inline log-sum-exp: scipy's version dominates the sweep cost at desk
    # scale through argument checking overhead
    mx = M.max(axis=axis)
    shifted = M - (mx[:, None] if axis == 1 else mx[None, :])
    return mx + np.log(_exp(shifted).sum(axis=axis))


#: HiGHS dual simplex without presolve, which finds nothing to remove in a
#: transportation LP.  The default feasibility tolerances (1e-7) are
#: absolute, which lets the simplex stop at a worse vertex on small or
#: widely ranged costs.
_HIGHS_OPTIONS = {"output_flag": False, "solver": "simplex", "simplex_strategy": 1,
                  "presolve": "off", "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int
    eq_duals: np.ndarray


def solve_lp(a, b, C) -> LpResult:
    """Solve the transportation LP min <P, C> over couplings of (a, b), or,
    for a stack C of shape (L, n, m), the epigraph LP min t s.t.
    <P, C_k> <= t, by HiGHS dual simplex.

    The LP runs on the costs scaled to unit maximum, so that the solver's
    absolute tolerances are relative to the cost scale; ``objective`` and
    ``eq_duals`` (the n row then m column marginal duals) are scaled back.
    ``x`` is the LP's vertex: the row-major plan, clipped onto its 0 bound,
    then for a stack the free t of the scaled LP.  Raises
    :class:`SolverFailure` unless HiGHS reports an optimal solution.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape[-2:]
    nm = n * m
    scale = float(np.abs(C).max(initial=0.0)) or 1.0
    scaled = C / scale
    # plan column (i, j) holds 1 in row i and in row n + j of the marginal
    # block, then for a stack C_k[i, j] in epigraph row k: a fixed stride of
    # 2 + L entries, of which HiGHS drops the explicit zeros
    index = np.stack(np.divmod(np.arange(nm), m), axis=1) + [0, n]
    value = np.ones((nm, 2))
    cost = scaled.ravel()
    row_lower = row_upper = np.concatenate([a, b])
    col_lower = np.zeros(nm)
    if C.ndim == 3:
        L = len(C)
        t_rows = n + m + np.arange(L)
        # np.append flattens the plan columns, then adds t's: -1 in each row
        index = np.append(np.hstack([index, np.broadcast_to(t_rows, (nm, L))]), t_rows)
        value = np.append(np.hstack([value, scaled.reshape(L, nm).T]), -np.ones(L))
        cost = np.zeros(nm + 1)
        cost[nm] = 1.0
        row_lower = np.concatenate([row_lower, np.full(L, -np.inf)])
        row_upper = np.concatenate([row_upper, np.zeros(L)])
        col_lower = np.append(col_lower, -np.inf)
    index, value = index.ravel(), value.ravel()
    stride = 2 + row_lower.size - n - m  # 2 + L
    # column j starts at j * stride; the last one, t's for a stack, ends at
    # the last entry
    start = np.minimum(np.arange(cost.size + 1) * stride, index.size)

    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = cost.size, row_lower.size
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, col_lower, np.full(cost.size, np.inf)
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    # the bindings copy lists into the matrix about 3x faster than arrays
    matrix = lp.a_matrix_  # column-wise by default
    matrix.num_col_, matrix.num_row_ = cost.size, row_lower.size
    matrix.start_, matrix.index_, matrix.value_ = start.tolist(), index.tolist(), value.tolist()
    solver = highs._Highs()
    for name, option in _HIGHS_OPTIONS.items():
        solver.setOptionValue(name, option)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverFailure(
            f"LP failed: HiGHS model status {solver.modelStatusToString(status).lower()} "
            f"after {info.simplex_iteration_count} simplex iterations"
        )
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    # HiGHS meets x >= 0 only to its feasibility tolerance
    np.clip(x[:nm], 0.0, None, out=x[:nm])
    return LpResult(
        x=x,
        objective=scale * float(info.objective_function_value),
        iterations=int(info.simplex_iteration_count),
        eq_duals=scale * np.array(solution.row_dual[:n + m]),
    )


@dataclass(frozen=True)
class EmdResult:
    plan: TransportPlan
    objective: float
    dual_row: np.ndarray
    dual_col: np.ndarray


def emd_exact_solve(a, b, C) -> EmdResult:
    """Exact (unregularized) OT over the transportation polytope.

    Returns a vertex-optimal plan minimizing <P, C>, its objective, and
    the LP duals of the row/column marginal constraints, from HiGHS dual
    simplex through ``solve_lp``, which scales the costs to unit maximum.
    The plan couples a with b rescaled to a's mass.
    """
    a, b = _check_marginals(a, b)
    C = np.asarray(C, dtype=float)
    if C.shape != (a.shape[0], b.shape[0]):
        raise ValueError(f"cost shape {C.shape} does not match weights")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")

    n = a.size
    res = solve_lp(a, b, C)
    return EmdResult(
        plan=TransportPlan.from_matrix(res.x.reshape(C.shape), a, b),
        objective=res.objective,
        dual_row=res.eq_duals[:n],
        dual_col=res.eq_duals[n:],
    )


def assignment_plan(a, b, C) -> np.ndarray | None:
    """Exact OT plan by linear assignment when both weight vectors are one
    constant of the same length, else ``None``.

    For uniform weights and n = m some optimal vertex of the transportation
    polytope is a permutation matrix scaled by 1/n (Birkhoff-von Neumann),
    which ``linear_sum_assignment`` finds without an LP.  Plan only: callers
    that need the marginal duals, or other weights, use ``emd_exact_solve``.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        return None
    # a Python float compares with an array faster than a numpy scalar does;
    # a NaN weight equals nothing, so it rules the fast path out
    w = float(a[0])
    if not ((a == w).all() and (b == w).all()):
        return None
    rows, cols = linear_sum_assignment(C)
    plan = np.zeros(np.shape(C))
    plan[rows, cols] = w
    return plan


def sorted_wasserstein_1d(xs, ys, p: float = 1.0) -> float:
    """p-Wasserstein distance between uniform 1-D samples of any sizes.

    In 1-D the optimal coupling pairs the two quantile functions (Peyre &
    Cuturi 2019, section 2.6).  For n and m sorted samples these are step
    functions on [0, 1] that change value only at multiples of 1/n and of
    1/m.  On the integer grid 0 = t_0 <= t_1 <= ... <= t_(n+m) = n m of
    the merged multiples {i m} and {j n}, the interval (t_(k-1), t_k] / (n m)
    therefore pairs x_((t_k - 1) // m) with y_((t_k - 1) // n), and
    W_p^p = sum_k (t_k - t_(k-1)) |x_((t_k - 1) // m) - y_((t_k - 1) // n)|^p / (n m).
    For n = m this is the mean of |x_(i) - y_(i)|^p.
    """
    xs = np.sort(np.asarray(xs, dtype=float).reshape(-1))
    ys = np.sort(np.asarray(ys, dtype=float).reshape(-1))
    n, m = xs.size, ys.size
    if n == 0 or m == 0:
        raise ValueError("samples must be non-empty")
    _check_order(p)
    t = np.sort(np.concatenate([np.arange(0, n * m + 1, m), np.arange(n, n * m + 1, n)]))
    last = t[1:] - 1
    gaps = np.abs(xs[last // m] - ys[last // n])
    return float((np.diff(t).dot(gaps**p) / (n * m)) ** (1.0 / p))
