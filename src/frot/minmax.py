"""Feature-robust optimal transport: min over plans of the max over
simplex-weighted group costs.

Two solution paths are provided.  The smoothed path replaces the inner max
by the soft maximum eta * log sum exp(<P, C_k> / eta), whose inner argmax
has the closed softmax form, and minimizes it with Frank-Wolfe steps whose
linear subproblems are OT problems (exact or entropic).  The exact path
rewrites min-max of linear functions as the epigraph LP min t subject to
<P, C_k> <= t and solves it by HiGHS dual simplex through
``solvers.solve_lp``, the one LP path of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import GroupedCost, GroupedMeasure, TransportPlan, _check_cost_stack
from .solvers import (
    SinkhornConfig,
    SolverFailure,
    _check_marginals,
    assignment_plan,
    emd_exact_solve,
    sinkhorn_solve,
    solve_lp,
)

#: desk-scale guard for the epigraph LP: on uniform random costs, 200 x 200
#: plans take about 0.4 s with 3 groups and 3 s with 20 (2-vCPU Xeon)
LP_MAX_VARIABLES = 40_000

SUBSOLVERS = ("exact_emd", "sinkhorn")


def check_lp_size(n: int, m: int) -> None:
    """Raise ``ValueError`` when an n x m plan exceeds the epigraph LP's
    ``LP_MAX_VARIABLES`` guard."""
    if n * m > LP_MAX_VARIABLES:
        raise ValueError(
            f"epigraph LP limited to {LP_MAX_VARIABLES} plan variables, got {n * m}"
        )


def _cost_stack(costs) -> np.ndarray:
    """Accept a GroupedCost or a raw (L, n, m) stack of matrices, checked
    as GroupedCost checks its own."""
    if isinstance(costs, GroupedCost):
        return costs.matrices
    return _check_cost_stack(costs)


def _plan_matrix(plan) -> np.ndarray:
    if isinstance(plan, TransportPlan):
        return plan.matrix
    return np.asarray(plan, dtype=float)


def group_costs(plan, costs) -> np.ndarray:
    """Per-group transport costs <P, C_k>, shape (L,)."""
    stack = _cost_stack(costs)
    P = _plan_matrix(plan)
    if P.shape != stack.shape[1:]:
        raise ValueError(f"plan shape {P.shape} does not match costs {stack.shape[1:]}")
    return stack.reshape(len(stack), -1) @ P.ravel()


def _smoothed_max(phi: np.ndarray, eta: float):
    """The soft maximum eta * log sum exp(phi/eta) of the group costs phi
    and its maximizing weights softmax(phi/eta).

    Both use the max shift of Blanchard, Higham & Higham (2021), as
    ``scipy.special.logsumexp`` and ``softmax`` do, with the same
    operations in the same order, so the results agree bit for bit; the
    entries equal to the max are split out of the log-sum-exp's sum.  On a
    vector of a few group costs scipy's array-API dispatch costs more than
    the arithmetic.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    z = phi / eta
    # Python's max and count on a short list beat numpy's reductions; NaN
    # reaches the results through exp and the sums wherever it sits
    values = z.tolist()
    mx = max(values)
    count = values.count(mx)
    shifted = np.exp(z - mx)
    rest = np.where(z == mx, 0.0, shifted).sum() / count
    objective = float(eta * (np.log1p(rest) + np.log(count) + mx))
    return objective, shifted / shifted.sum()


def smoothed_max_objective(plan, costs, eta: float) -> float:
    """Soft maximum of the per-group costs: eta * log sum exp(<P, C_k>/eta).

    Computed with a max-shifted log-sum-exp; exact for a single group and
    bounded between max_k <P, C_k> and max_k <P, C_k> + eta * log L.
    """
    return _smoothed_max(group_costs(plan, costs), eta)[0]


def alpha_weights(plan, costs, eta: float) -> np.ndarray:
    """Maximizing simplex weights for the entropy-regularized inner problem.

    alpha_k = exp(<P, C_k>/eta) / sum_k' exp(<P, C_k'>/eta), evaluated with
    a max shift so large cost ratios cannot overflow.
    """
    return _smoothed_max(group_costs(plan, costs), eta)[1]


def frot_gradient(plan, costs, eta: float) -> np.ndarray:
    """Gradient of the smoothed objective in the plan: sum_k alpha_k C_k."""
    alpha = alpha_weights(plan, costs, eta)
    stack = _cost_stack(costs)
    return (alpha @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


@dataclass(frozen=True)
class FrotConfig:
    """Settings for the Frank-Wolfe solver.

    ``subsolver`` picks the linear-subproblem solver: ``"exact_emd"``
    solves it exactly (by linear assignment when both weight vectors are
    uniform and n = m, else by the transportation LP), ``"sinkhorn"`` adds
    epsilon-entropy and solves the regularized problem to the Sinkhorn
    default residual tolerance (inexact; the inexactness is surfaced in the
    solution metadata).  An exact iteration whose gradient is bitwise
    equal to the last one solved reuses that plan.  On the 50x50
    synthetic pairs (2 groups) all ten gradients are equal, and a solve
    of 10 iterations including the cost build takes a median of about
    0.53 ms exact and 18 ms entropic at epsilon = 0.02 (``bench/run.py``
    workloads ``fw_exact``, seeds 61-80, and ``fw_entropic``, seeds 81-84,
    20-s runs on a 2-vCPU Xeon container, one BLAS thread).
    The iteration starts from the product coupling a b', and each entropic
    subproblem is warm-started from the previous one's column potential.
    """

    eta: float
    fw_iters: int = 10
    subsolver: str = "exact_emd"
    epsilon: float = 0.02
    # warm-started subproblems refine across iterations, so each one gets a
    # modest sweep budget by default; raise it when plan accuracy matters
    sinkhorn_t_max: int = 300

    def __post_init__(self):
        if not (np.isfinite(self.eta) and np.isfinite(self.epsilon)):
            raise ValueError(
                f"eta and epsilon must be finite (got {self.eta}, {self.epsilon})"
            )
        if self.eta == 0:
            raise ValueError(
                "eta = 0 removes the smoothing; solve the epigraph LP "
                "(frot_lp_solve) instead"
            )
        if self.eta < 0:
            raise ValueError("eta must be positive")
        if self.fw_iters < 1:
            raise ValueError("fw_iters must be at least 1")
        if self.subsolver not in SUBSOLVERS:
            raise ValueError(f"subsolver must be one of {SUBSOLVERS}")
        if self.subsolver == "sinkhorn" and self.epsilon <= 0:
            raise ValueError("sinkhorn subsolver requires epsilon > 0")


@dataclass(frozen=True)
class FrotSolution:
    """Output of the Frank-Wolfe solver.

    ``alpha`` is the closed-form softmax weight vector evaluated at the
    returned plan.  ``objective_trace`` holds the smoothed objective at
    every iterate (length ``fw_iters`` + 1) and ``fw_gap_trace`` the
    linearization gaps <P_t - P_hat, M_t> (length ``fw_iters``).
    """

    plan: TransportPlan
    alpha: np.ndarray
    objective_trace: np.ndarray
    fw_gap_trace: np.ndarray
    metadata: dict

    @property
    def max_group_cost(self) -> float:
        """The unsmoothed objective max_k <P, C_k> of the returned plan."""
        return self.metadata["max_group_cost"]


def round_to_polytope(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project a near-feasible nonnegative plan onto exact marginals.

    Rows and columns overshooting their targets are scaled down, then the
    leftover row/column deficits are filled with their outer product.  The
    L1 perturbation is proportional to the input's marginal violation, so
    an accurate plan is barely moved.
    """
    P = np.asarray(P, dtype=float)
    rows = P.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(rows > 0, np.minimum(a / rows, 1.0), 1.0)
    P = P * scale[:, None]
    cols = P.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(cols > 0, np.minimum(b / cols, 1.0), 1.0)
    P = P * scale[None, :]
    u = np.clip(a - P.sum(axis=1), 0.0, None)
    v = np.clip(b - P.sum(axis=0), 0.0, None)
    total = u.sum()
    if total > 0:
        P = P + np.outer(u, v) / total
    return P


def frot_fw_solve(
    src: GroupedMeasure,
    dst: GroupedMeasure,
    costs,
    cfg: FrotConfig,
    init_matrix=None,
) -> FrotSolution:
    """Minimize the smoothed max of group costs with Frank-Wolfe.

    Each of the ``cfg.fw_iters`` iterations linearizes the objective at the
    current plan (gradient sum_k alpha_k C_k), solves the resulting OT
    subproblem, and moves with step 2/(2 + t).  All iterates are convex
    combinations of feasible plans and hence marginal-feasible.  With the
    exact subsolver, an iteration whose gradient is bitwise equal to the
    last one solved reuses that subproblem's plan instead of solving it
    again.

    Parameters
    ----------
    src, dst : GroupedMeasure
    costs : GroupedCost or (L, n, m) array
        Per-group cost matrices for the pair.
    cfg : FrotConfig
    init_matrix : ndarray, optional
        A coupling of the two weight vectors to start from in place of
        a b'.  The first step has size 2/(2 + 0) = 1 and replaces the plan
        outright, so the starting plan sets only the first linearization
        point and ``objective_trace[0]``.
    """
    stack = _cost_stack(costs)
    # the stack as L rows of length n*m: each stack product below is then
    # the one dot call np.tensordot would make, without its per-call set-up
    flat = stack.reshape(len(stack), -1)
    a, b = src.weights, dst.weights
    if stack.shape[1:] != (a.size, b.size):
        raise ValueError(
            f"cost stack shape {stack.shape} does not match measure sizes "
            f"({a.size}, {b.size})"
        )
    if init_matrix is None:
        P = np.outer(a, b)
    else:
        init = TransportPlan.from_matrix(init_matrix, a, b)
        if init.marginal_residual > 1e-9:
            raise ValueError(
                f"init_matrix is not a coupling of the weights (marginal "
                f"residual {init.marginal_residual:.3g})"
            )
        # the iterate is updated in place below; the plan's matrix is read-only
        P = init.matrix.copy()
    if cfg.subsolver == "sinkhorn":
        sub_cfg = SinkhornConfig(epsilon=cfg.epsilon, t_max=cfg.sinkhorn_t_max)
    init_g = None
    # the last gradient given to the exact subsolver and its optimal plan
    M_exact = P_exact = None
    objective_trace = []
    gap_trace = []
    converged_all = True
    max_residual = 0.0
    # one n x m buffer for the temporaries of the gap and the step
    buf = np.empty_like(P)

    for t in range(cfg.fw_iters + 1):
        phi = flat.dot(P.ravel())
        objective, alpha = _smoothed_max(phi, cfg.eta)
        objective_trace.append(objective)
        if t == cfg.fw_iters:
            break

        M = alpha.dot(flat).reshape(P.shape)
        if cfg.subsolver == "exact_emd":
            if M_exact is not None and (M == M_exact).all():
                # an exact subproblem is a function of M alone: a gradient
                # equal to the last one gets the same optimal plan
                P_hat = P_exact
            else:
                P_hat = assignment_plan(a, b, M)
                if P_hat is None:
                    try:
                        P_hat = emd_exact_solve(a, b, M).plan.matrix
                    except SolverFailure as exc:
                        raise SolverFailure(
                            f"EMD subproblem failed at iteration {t}: {exc}"
                        ) from exc
                M_exact, P_exact = M, P_hat
        else:
            result = sinkhorn_solve(a, b, M, sub_cfg, init_g=init_g)
            # keep every iterate exactly marginal-feasible; the entropic
            # solver's own violation is recorded below
            P_hat = round_to_polytope(result.plan.matrix, a, b)
            init_g = result.potentials[1]
            converged_all = converged_all and result.converged
            max_residual = max(max_residual, float(result.plan.marginal_residual))

        # <P - P_hat, M> and (1 - gamma) P + gamma P_hat, with the same
        # operations in the same order as those two expressions
        np.subtract(P, P_hat, out=buf)
        buf *= M
        gap_trace.append(float(buf.sum()))
        gamma = 2.0 / (2.0 + t)
        P *= 1.0 - gamma
        np.multiply(P_hat, gamma, out=buf)
        P += buf

    return FrotSolution(
        plan=TransportPlan.from_matrix(P, a, b),
        alpha=alpha,
        objective_trace=np.asarray(objective_trace),
        fw_gap_trace=np.asarray(gap_trace),
        metadata={
            "iterations": cfg.fw_iters,
            "subsolver_converged_all": bool(converged_all),
            "max_subsolver_residual": max_residual,
            "max_group_cost": float(phi.max()),
        },
    )


@dataclass(frozen=True)
class FrotLpResult:
    plan: TransportPlan
    objective: float
    iterations: int


def frot_lp_solve(costs, a, b) -> FrotLpResult:
    """Exact min-max of the group costs via the epigraph LP.

    Variables are vec(P) >= 0 and a free t; the objective is t, the
    inequality rows are vec(C_k) . vec(P) - t <= 0, and the equality rows
    are the n row and m column marginals.  ``solvers.solve_lp`` builds
    this LP from the stack and solves it by HiGHS dual simplex, returning
    an exact vertex optimizer of min_P max_k <P, C_k>; ``iterations`` is
    its iteration count.
    """
    stack = _cost_stack(costs)
    a, b = _check_marginals(a, b)
    n, m = stack.shape[1:]
    if (n, m) != (a.size, b.size):
        raise ValueError(f"cost stack shape {stack.shape} does not match weights")
    check_lp_size(n, m)
    nm = n * m

    res = solve_lp(a, b, stack)
    plan = TransportPlan.from_matrix(res.x[:nm].reshape(n, m), a, b)
    # nonnegative costs force t* >= 0; snap sub-tolerance solver crud (t of
    # the scaled LP) to the exact zero so p-th roots downstream stay exact
    objective = res.objective if res.x[nm] > 1e-12 else 0.0
    return FrotLpResult(plan=plan, objective=objective, iterations=res.iterations)


@dataclass(frozen=True)
class MaxminResult:
    group_index: int
    alpha: np.ndarray
    distances: np.ndarray
    tie: bool


def maxmin_frot(src: GroupedMeasure, dst: GroupedMeasure, costs) -> MaxminResult:
    """Max-min variant: pick the single group with the largest OT cost.

    Solves the exact per-group OT problem for every group and returns the
    argmax group, the corresponding one-hot weight vector, and all
    per-group distances.  Ties go to the lowest group index and are
    flagged.
    """
    stack = _cost_stack(costs)
    a, b = src.weights, dst.weights
    distances = np.array([emd_exact_solve(a, b, C).objective for C in stack])
    best = int(np.argmax(distances))
    alpha = np.zeros(stack.shape[0])
    alpha[best] = 1.0
    scale = max(abs(distances[best]), 1.0)
    tie = int(np.sum(distances >= distances[best] - 1e-12 * scale)) > 1
    return MaxminResult(group_index=best, alpha=alpha, distances=distances, tie=tie)


def fw_convergence_bound(costs, eta: float, t: int) -> float:
    """Optimality-gap bound for the Frank-Wolfe iterate at step t.

    Returns 4 sigma_max / (eta (t + 2)) where sigma_max is the largest
    eigenvalue of the Gram matrix of the vectorized cost matrices, from a
    dense symmetric eigensolver on the L x L Gram.  Exact subproblem
    solutions are assumed (inexactness would scale the bound).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if t < 1:
        raise ValueError("t must be at least 1")
    stack = _cost_stack(costs)
    flat = stack.reshape(stack.shape[0], -1)
    sigma_max = float(np.linalg.eigvalsh(flat @ flat.T)[-1])
    return 4.0 * sigma_max / (eta * (t + 2))
