"""Shared factories and independent oracles used across the test suite."""

from itertools import permutations

import numpy as np

from frot import build_grouped_measure


def random_grouped_pair(rng, n, m, widths, scale=1.0, uniform_weights=True):
    """Random grouped measures with a shared group structure."""
    d = sum(widths)
    src_pts = scale * rng.normal(size=(n, d))
    dst_pts = scale * rng.normal(size=(m, d))
    if uniform_weights:
        wa = wb = None
    else:
        wa = rng.uniform(0.2, 1.0, size=n)
        wb = rng.uniform(0.2, 1.0, size=m)
    return (
        build_grouped_measure(src_pts, widths, wa),
        build_grouped_measure(dst_pts, widths, wb),
    )


def random_birkhoff_plan(rng, n, n_perms=4):
    """Random coupling of uniform marginals: a convex mix of permutations."""
    weights = rng.dirichlet(np.ones(n_perms))
    plan = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        plan[np.arange(n), perm] += w / n
    return plan


def brute_force_emd_uniform(C):
    """Exact EMD for uniform square instances by enumerating the Birkhoff
    vertices (permutation matrices); independent of any LP code."""
    n = C.shape[0]
    best = min(sum(C[i, p[i]] for i in range(n)) for p in permutations(range(n)))
    return best / n


def sinkhorn_fixed_point_oracle(a, b, C, eps, tol=1e-14, max_iter=500_000):
    """Log-domain fixed-point iteration for the entropic plan, written
    directly from the scaling equations; independent of the package path."""
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    for _ in range(max_iter):
        f_new = np.array([
            eps * np.log(a[i]) - eps * _lse((g - C[i]) / eps) for i in range(len(a))
        ])
        g_new = np.array([
            eps * np.log(b[j]) - eps * _lse((f_new - C[:, j]) / eps) for j in range(len(b))
        ])
        delta = max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
        f, g = f_new, g_new
        if delta < tol:
            break
    return np.exp((f[:, None] + g[None, :] - C) / eps)


def _lse(v):
    m = np.max(v)
    return m + np.log(np.sum(np.exp(v - m)))


def entropic_objective(P, C, eps):
    mask = P > 0
    ent = float(np.sum(P[mask] * (np.log(P[mask]) - 1.0)))
    return float(np.sum(P * C)) + eps * ent


def projected_gradient_entropic_oracle(a, b, C, eps, steps=4000, lr=None):
    """Projected-gradient descent for entropic OT on the transport polytope.

    Gradient steps on <P, C> + eps * sum p (log p - 1) are projected onto
    the affine marginal subspace in closed form; the entropy barrier keeps
    iterates positive, with a tiny floor as a safeguard.  A final
    Dykstra-style projection lands the iterate in the polytope before the
    objective is read off.
    """
    n, m = C.shape
    P = np.outer(a, b)
    if lr is None:
        lr = 0.25 * eps / max(1.0, np.abs(C).max())
    floor = 1e-12
    for _ in range(steps):
        grad = C + eps * np.log(np.maximum(P, floor))
        P = _project_affine_marginals(P - lr * grad, a, b)
        P = np.maximum(P, floor)
    P = _dykstra_polytope(P, a, b)
    return entropic_objective(P, C, eps)


def _project_affine_marginals(Z, a, b):
    """Euclidean projection onto {M : M 1 = a, M' 1 = b}."""
    n, m = Z.shape
    row_err = Z.sum(axis=1) - a
    col_err = Z.sum(axis=0) - b
    total = Z.sum() - 1.0
    Z = Z - row_err[:, None] / m - col_err[None, :] / n + total / (n * m)
    return Z


def _dykstra_polytope(Z, a, b, iters=400):
    """Dykstra alternating projections onto the marginal affine set and the
    nonnegative orthant (correction term only for the non-affine set)."""
    q = np.zeros_like(Z)
    X = Z
    for _ in range(iters):
        X = _project_affine_marginals(X, a, b)
        Y = np.clip(X + q, 0.0, None)
        q = X + q - Y
        X = Y
    return _project_affine_marginals(X, a, b)


def per_sweep_sinkhorn_oracle(a, b, C, eps, t_max, tol, init_g=None):
    """The absorption-stabilized Sinkhorn loop with its bound and residual
    checks after every sweep, kept as a reference for the blocked loop in
    ``frot.solvers``.  Returns (plan, iterations, converged)."""
    from frot.solvers import _SCALING_MAX, _SCALING_MIN, _exp, _lse

    def bounded(s):
        return bool(_SCALING_MIN <= s.min() and s.max() <= _SCALING_MAX)

    log_a, log_b = np.log(a), np.log(b)
    neg_c = -C / eps
    psi0 = np.zeros_like(b) if init_g is None else np.asarray(init_g) / eps
    u, v = np.ones_like(a), np.ones_like(b)
    K = None
    converged = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, t_max + 1):
            if K is not None:
                u_next = a / Kv
                v_next = b / (K.T @ u_next)
            if K is None or not (bounded(u_next) and bounded(v_next)):
                psi = psi0 + np.log(v)
                phi0 = log_a - _lse(neg_c + psi[None, :], axis=1)
                psi0 = log_b - _lse(neg_c + phi0[:, None], axis=0)
                K = _exp(neg_c + phi0[:, None] + psi0[None, :])
                u, v = np.ones_like(a), np.ones_like(b)
                Kv = K.sum(axis=1)
            else:
                u, v = u_next, v_next
                Kv = K @ v
            if np.abs(u * Kv - a).sum() <= tol:
                converged = True
                break
    return u[:, None] * K * v[None, :], iterations, converged


def reference_fw_solve(src, dst, costs, cfg):
    """The Frank-Wolfe loop written with ``np.tensordot`` and scipy's
    log-sum-exp and softmax, kept as a reference for the matrix-vector
    products and inline smoothed max of ``frot.minmax.frot_fw_solve``.
    Starts from a b'; returns a ``FrotSolution``."""
    from scipy.special import logsumexp, softmax

    from frot.measures import TransportPlan
    from frot.minmax import FrotSolution, _cost_stack, round_to_polytope
    from frot.solvers import (SinkhornConfig, assignment_plan, emd_exact_solve,
                              sinkhorn_solve)

    stack = _cost_stack(costs)
    a, b = src.weights, dst.weights
    P = np.outer(a, b)
    sub_cfg = SinkhornConfig(epsilon=cfg.epsilon, t_max=cfg.sinkhorn_t_max)
    init_g = None
    objective_trace, gap_trace = [], []
    converged_all, max_residual = True, 0.0
    for t in range(cfg.fw_iters + 1):
        phi = np.tensordot(stack, P, axes=([1, 2], [0, 1]))
        objective_trace.append(float(cfg.eta * logsumexp(phi / cfg.eta)))
        alpha = softmax(phi / cfg.eta)
        if t == cfg.fw_iters:
            break
        M = np.tensordot(alpha, stack, axes=1)
        if cfg.subsolver == "exact_emd":
            P_hat = assignment_plan(a, b, M)
            if P_hat is None:
                P_hat = emd_exact_solve(a, b, M).plan.matrix
        else:
            result = sinkhorn_solve(a, b, M, sub_cfg, init_g=init_g)
            P_hat = round_to_polytope(result.plan.matrix, a, b)
            init_g = result.potentials[1]
            converged_all = converged_all and result.converged
            max_residual = max(max_residual, float(result.plan.marginal_residual))
        gap_trace.append(float(np.sum((P - P_hat) * M)))
        gamma = 2.0 / (2.0 + t)
        P = (1.0 - gamma) * P + gamma * P_hat
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
