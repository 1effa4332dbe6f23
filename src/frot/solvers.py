"""Entropic (Sinkhorn) and exact optimal-transport solvers.

The entropic solver performs alternating row/column scalings of a Gibbs
kernel and absorbs the scalings into the dual potentials whenever one grows
large (Schmitzer 2019, section 3), so one loop is stable at every eps.  Every
LP in the package, the transportation LP here and the epigraph LP in
``minmax``, goes through ``solve_lp``: HiGHS dual simplex (Huangfu & Hall
2018), called through scipy's private HiGHS bindings with presolve off, on
sparse constraints built from ``marginal_constraints``.  It returns a
vertex-optimal basic solution together with the equality duals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy import _core as highs
from scipy.special import xlogy

from .measures import TransportPlan


class SolverFailure(RuntimeError):
    """Fatal numerical failure inside a solver."""


#: exp(x) rounds to exactly 0.0 in double precision for every x <= this
_EXP_UNDERFLOW = -746.0

#: Sinkhorn absorbs its scalings into the potentials once one leaves
#: [exp(-TAU), exp(TAU)]
_SCALING_TAU = 100.0
_SCALING_MIN = float(np.exp(-_SCALING_TAU))
_SCALING_MAX = float(np.exp(_SCALING_TAU))


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
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("weights must be finite (got NaN or inf)")
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError(
            f"weights must each sum to 1 (got {a.sum()} and {b.sum()})"
        )
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("weights must be nonnegative")
    return a, b


def sinkhorn_solve(a, b, C, cfg: SinkhornConfig, init_g=None) -> SinkhornResult:
    """Entropic OT by Sinkhorn iteration.

    Solves min <P, C> + eps * H(P) over couplings of (a, b), returning the
    plan in Gibbs form diag(u) K diag(v).  Each sweep updates u then v; the
    first sweep, and any sweep whose scalings would leave [e^-100, e^100]
    or turn non-finite, runs in the log domain instead and folds u and v
    into the potentials that define K.  Iteration stops when the row-side
    L1 marginal deviation drops to ``cfg.tol`` or after ``cfg.t_max``
    sweeps, in which case the result is flagged ``converged=False`` and a
    warning is emitted.

    Parameters
    ----------
    a, b : array-like
        Strictly positive weights, each summing to 1.
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

    eps = cfg.epsilon
    plan, f, g, residuals, converged = _sinkhorn(a, b, C, cfg, init_g)

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
        iterations=len(residuals),
        residuals=np.asarray(residuals),
        potentials=(f, g),
    )


def _sinkhorn(a, b, C, cfg, init_g):
    # Scaled potentials (phi, psi) = (f, g) / eps are kept in two parts: the
    # absorbed (phi0, psi0), from which the kernel K = exp(phi0 + psi0 - C/eps)
    # is built, and the scalings (u, v), so that phi = phi0 + log u and
    # psi = psi0 + log v.  A scaling sweep costs two mat-vecs on K; an
    # absorption sweep is the log-domain c-transform pair, after which
    # (u, v) = 1 and K is the current plan.
    eps = cfg.epsilon
    log_a = np.log(a)
    log_b = np.log(b)
    neg_c = -C / eps
    if init_g is None:
        psi0 = np.zeros_like(b)
    else:
        psi0 = np.asarray(init_g, dtype=float) / eps
    u = np.ones_like(a)
    v = np.ones_like(b)
    K = None
    residuals = []
    converged = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(cfg.t_max):
            if K is not None:
                u_next = a / Kv
                v_next = b / (K.T @ u_next)
            if K is None or not (_bounded(u_next) and _bounded(v_next)):
                # absorption sweep from the last bounded scalings; phi only
                # depends on psi, so u needs no folding
                psi = psi0 + np.log(v)
                phi0 = log_a - _lse(neg_c + psi[None, :], axis=1)
                psi0 = log_b - _lse(neg_c + phi0[:, None], axis=0)
                K = _exp(neg_c + phi0[:, None] + psi0[None, :])
                u = np.ones_like(a)
                v = np.ones_like(b)
                Kv = K.sum(axis=1)
            else:
                u, v = u_next, v_next
                Kv = K @ v
            # column marginals are exact after the v update; the sweep
            # residual is the row-side L1 deviation u * (K v) - a
            residuals.append(float(np.abs(u * Kv - a).sum()))
            if residuals[-1] <= cfg.tol:
                converged = True
                break
    plan = u[:, None] * K * v[None, :]
    return plan, eps * (phi0 + np.log(u)), eps * (psi0 + np.log(v)), residuals, converged


def _bounded(scaling: np.ndarray) -> bool:
    # also False for NaN, which min and max propagate
    return bool(_SCALING_MIN <= scaling.min() and scaling.max() <= _SCALING_MAX)


def _exp(M: np.ndarray) -> np.ndarray:
    # exp underflows to exactly 0 below -745.14, but numpy takes a slow path
    # there; small-epsilon kernels are mostly such entries, so skip them
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


def marginal_constraints(n: int, m: int) -> sparse.csr_matrix:
    """Sparse (n + m) x nm rows giving the row sums, then the column sums,
    of a row-major vec(P) for an n x m plan P."""
    flat = np.arange(n * m)
    indices = np.concatenate([flat, flat.reshape(n, m).T.ravel()])
    indptr = np.concatenate([np.arange(n) * m, n * m + np.arange(m + 1) * n])
    return sparse.csr_matrix((np.ones(2 * n * m), indices, indptr), shape=(n + m, n * m))


def solve_lp(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None)) -> LpResult:
    """Solve min c'x s.t. A_eq x = b_eq, A_ub x <= b_ub within ``bounds`` by
    HiGHS dual simplex.

    ``bounds`` is one (lower, upper) pair for every variable or one row per
    variable; ``None`` means unbounded.  Returns a vertex optimizer, its
    objective, the simplex iteration count and the duals of the equality
    rows.  Raises :class:`SolverFailure` unless HiGHS reports an optimal
    solution.
    """
    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    rows = [sparse.csr_matrix(A_eq)]
    row_lower, row_upper = [b_eq], [b_eq]
    if A_ub is not None:
        b_ub = np.asarray(b_ub, dtype=float)
        rows.append(sparse.csr_matrix(A_ub))
        row_lower.append(np.full(b_ub.size, -np.inf))
        row_upper.append(b_ub)
    # csr blocks stack by concatenation; HiGHS takes the columns
    A = sparse.vstack(rows, format="csr").tocsc()
    lower, upper = np.array(bounds, dtype=float).reshape(-1, 2).T  # None -> nan
    col_lower = np.broadcast_to(np.where(np.isnan(lower), -np.inf, lower), c.shape)
    col_upper = np.broadcast_to(np.where(np.isnan(upper), np.inf, upper), c.shape)

    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = A.shape[1], A.shape[0]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, col_lower, col_upper
    lp.row_lower_, lp.row_upper_ = np.concatenate(row_lower), np.concatenate(row_upper)
    # the bindings copy lists into the matrix about 3x faster than arrays
    matrix = lp.a_matrix_  # column-wise by default
    matrix.num_col_, matrix.num_row_ = A.shape[1], A.shape[0]
    matrix.start_, matrix.index_, matrix.value_ = (
        A.indptr.tolist(), A.indices.tolist(), A.data.tolist())
    solver = highs._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        solver.setOptionValue(name, value)
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
    return LpResult(
        x=np.array(solution.col_value),
        objective=float(info.objective_function_value),
        iterations=int(info.simplex_iteration_count),
        eq_duals=np.array(solution.row_dual[:b_eq.size]),
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
    simplex through ``solve_lp``.  The LP runs on C / max|C|, so that the
    solver's absolute tolerances are relative to the cost scale.
    """
    a, b = _check_marginals(a, b)
    if abs(a.sum() - b.sum()) > 1e-9:
        raise ValueError("infeasible: weight sums differ by more than 1e-9")
    C = np.asarray(C, dtype=float)
    if C.shape != (a.shape[0], b.shape[0]):
        raise ValueError(f"cost shape {C.shape} does not match weights")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")

    n, m = C.shape
    scale = float(np.abs(C).max(initial=0.0)) or 1.0
    res = solve_lp((C / scale).ravel(), marginal_constraints(n, m), np.concatenate([a, b]))
    plan = TransportPlan.from_matrix(res.x.reshape(n, m), a, b)
    return EmdResult(
        plan=plan,
        objective=scale * res.objective,
        dual_row=scale * res.eq_duals[:n],
        dual_col=scale * res.eq_duals[n:],
    )


def assignment_plan(a, b, C) -> np.ndarray | None:
    """Exact OT plan by linear assignment when both weight vectors are one
    constant of the same length, else ``None``.

    For uniform weights and n = m some optimal vertex of the transportation
    polytope is a permutation matrix scaled by 1/n (Birkhoff-von Neumann),
    which ``linear_sum_assignment`` finds without an LP.  Plan only: callers
    that need the marginal duals, or other weights, use ``emd_exact_solve``.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size != b.size or np.any(a != a[0]) or np.any(b != a[0]):
        return None
    rows, cols = linear_sum_assignment(C)
    plan = np.zeros(np.shape(C))
    plan[rows, cols] = a[0]
    return plan


def sorted_wasserstein_1d(xs, ys, p: float = 1.0) -> float:
    """p-Wasserstein distance between equal-size uniform 1-D samples.

    Sorting gives the optimal monotone coupling, so the distance is
    (mean_i |x_(i) - y_(i)|^p)^(1/p).
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("samples must be non-empty")
    if xs.size != ys.size:
        raise ValueError(
            f"sorted 1-D fast path requires equal sample counts ({xs.size} vs {ys.size}); "
            "use emd_exact_solve for the general case"
        )
    if p < 1:
        raise ValueError("order p must be at least 1")
    diffs = np.abs(np.sort(xs) - np.sort(ys))
    return float(np.mean(diffs**p) ** (1.0 / p))
