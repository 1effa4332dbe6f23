import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frot import (
    SinkhornConfig,
    emd_exact_solve,
    frot_lp_solve,
    sinkhorn_solve,
    sorted_wasserstein_1d,
)
from frot import solvers
from frot.measures import build_grouped_cost, build_grouped_measure
from frot.solvers import (
    _CHECK_EVERY,
    _EXP_UNDERFLOW,
    SolverFailure,
    _exp,
    _lse,
    assignment_plan,
    entropy,
    solve_lp,
)

from helpers import (
    brute_force_emd_uniform,
    per_sweep_sinkhorn_oracle,
    projected_gradient_entropic_oracle,
    random_birkhoff_plan,
    sinkhorn_fixed_point_oracle,
)


def test_single_support_forces_plan():
    result = sinkhorn_solve([1.0], [1.0], [[3.7]], SinkhornConfig(epsilon=0.5))
    np.testing.assert_allclose(result.plan.matrix, [[1.0]], atol=1e-15)


def test_two_by_two_matches_fixed_point_oracle():
    a = b = np.array([0.5, 0.5])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.1, tol=1e-14))
    oracle = sinkhorn_fixed_point_oracle(a, b, C, 0.1)
    np.testing.assert_allclose(result.plan.matrix, oracle, atol=1e-12)
    # frozen values from the oracle run: diagonal 0.5 / (1 + e^-10)
    assert result.plan.matrix[0, 0] == pytest.approx(0.4999773010656488, abs=1e-12)
    assert result.plan.matrix[0, 1] == pytest.approx(2.2698934351195188e-05, abs=1e-12)
    assert result.plan.matrix[0, 0] > result.plan.matrix[0, 1]


def test_objective_matches_projected_gradient_oracle():
    rng = np.random.default_rng(42)
    C = rng.uniform(0.0, 0.25, size=(3, 3))
    a = rng.uniform(0.5, 1.5, 3)
    a /= a.sum()
    b = rng.uniform(0.5, 1.5, 3)
    b /= b.sum()
    eps = 0.05
    result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=eps, tol=1e-13, t_max=20000))
    oracle = projected_gradient_entropic_oracle(a, b, C, eps)
    assert result.objective == pytest.approx(oracle, abs=1e-6)


def _count_absorptions(monkeypatch):
    """Patch ``_lse`` to count absorption sweeps, which call it twice each;
    returns a function giving the count so far."""
    calls = []
    real = solvers._lse
    monkeypatch.setattr(solvers, "_lse", lambda M, axis: calls.append(axis) or real(M, axis))
    return lambda: len(calls) // 2


def test_plan_has_gibbs_rank_structure(monkeypatch):
    # at eps = 0.01 the scalings leave their bounds after the first sweep,
    # so the returned (f, g) carry folded-in scalings
    absorptions = _count_absorptions(monkeypatch)
    rng = np.random.default_rng(1)
    C0 = rng.uniform(0.0, 1.0, size=(5, 4))
    a = np.full(5, 0.2)
    b = np.full(4, 0.25)
    for eps, scale, min_absorptions in ((0.3, 1.0, 1), (0.01, 20.0, 2)):
        C = scale * C0
        before = absorptions()
        result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=eps, t_max=5000))
        assert result.converged
        assert absorptions() - before >= min_absorptions
        f, g = result.potentials
        support = result.plan.matrix > 0.0
        np.testing.assert_allclose(
            np.log(result.plan.matrix[support]),
            ((f[:, None] + g[None, :] - C) / eps)[support], atol=1e-8
        )


def test_residuals_monotone_non_increasing(monkeypatch):
    # the 6 x 5 case at scale 100 (C / eps up to 500) absorbs again after
    # the first sweep
    absorptions = _count_absorptions(monkeypatch)
    for m, scale, min_absorptions in ((6, 1.0, 1), (5, 100.0, 2)):
        C = scale * np.random.default_rng(9).uniform(0.0, 1.0, size=(6, m))
        a = np.full(6, 1.0 / 6.0)
        b = np.full(m, 1.0 / m)
        before = absorptions()
        result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.2, tol=1e-12, t_max=5000))
        assert absorptions() - before >= min_absorptions
        assert np.all(np.diff(result.residuals) <= 1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_transport_cost_approaches_exact_as_epsilon_shrinks():
    rng = np.random.default_rng(23)
    C = rng.uniform(0.0, 1.0, size=(5, 5))
    a = b = np.full(5, 0.2)
    exact = emd_exact_solve(a, b, C).objective
    costs = []
    for eps in (1.0, 0.1, 0.01):
        result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=eps, t_max=20000))
        costs.append(float(np.sum(result.plan.matrix * C)))
    assert costs[0] >= costs[1] >= costs[2] >= exact - 1e-9
    assert costs[2] - exact < 0.05


def test_epsilon_zero_points_to_exact_solver():
    with pytest.raises(ValueError, match="emd_exact_solve"):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="positive"):
        SinkhornConfig(epsilon=-1.0)
    with pytest.raises(ValueError, match="t_max"):
        SinkhornConfig(epsilon=0.1, t_max=0)
    with pytest.raises(ValueError, match="tol"):
        SinkhornConfig(epsilon=0.1, tol=0.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_sinkhorn_config_rejects_non_finite_epsilon(eps):
    with pytest.raises(ValueError, match="finite"):
        SinkhornConfig(epsilon=eps)


def test_underflowing_gibbs_kernel_converges():
    # exp(-C / eps) underflows to 0 off the diagonal; the absorbed kernel
    # does not need it
    C = np.array([[0.0, 900.0], [900.0, 0.0]])
    a = b = np.array([0.5, 0.5])
    result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.1))
    assert result.converged
    np.testing.assert_allclose(result.plan.matrix, 0.5 * np.eye(2), atol=1e-15)


def test_lse_matches_plain_formula_bitwise():
    # skipping the terms whose exp underflows must not change a single bit,
    # including shifts on either side of the underflow threshold
    rng = np.random.default_rng(5)
    wide = rng.uniform(-3000.0, 0.0, size=(30, 40))
    edge = rng.uniform(-750.0, -740.0, size=(30, 40))
    edge[:, 0] = 0.0
    edge[0, :] = 0.0
    for M in (wide, edge):
        for axis in (0, 1):
            mx = M.max(axis=axis)
            plain = mx + np.log(np.exp(M - np.expand_dims(mx, axis)).sum(axis=axis))
            np.testing.assert_array_equal(_lse(M, axis), plain)


def test_exp_writes_no_subnormals():
    # a subnormal kernel entry slows every mat-vec on it; _exp flushes
    # them to 0 and keeps every normal result bitwise
    tiny = np.finfo(float).tiny
    x = np.concatenate([
        np.linspace(-750.0, 0.0, 200_001),
        _EXP_UNDERFLOW + np.arange(-50, 51) * np.spacing(_EXP_UNDERFLOW),
    ])
    out = _exp(x)
    assert not np.any((out != 0.0) & (out < tiny))
    plain = np.exp(x)
    kept = x > _EXP_UNDERFLOW
    np.testing.assert_array_equal(out[kept], plain[kept])
    assert np.all(out[~kept] == 0.0)
    assert np.all(plain[x < _EXP_UNDERFLOW] < tiny)


def test_lse_bitwise_across_subnormal_flush():
    # shifted terms in a band around log(tiny), where _exp now writes 0
    # for what np.exp returns as subnormals
    rng = np.random.default_rng(8)
    band = rng.uniform(_EXP_UNDERFLOW - 2.0, _EXP_UNDERFLOW + 2.0, size=(30, 40))
    band[:, 0] = 0.0
    band[0, :] = 0.0
    band[3, :5] = _EXP_UNDERFLOW
    band[4, :5] = np.nextafter(_EXP_UNDERFLOW, 0.0)
    for axis in (0, 1):
        mx = band.max(axis=axis)
        plain = mx + np.log(np.exp(band - np.expand_dims(mx, axis)).sum(axis=axis))
        np.testing.assert_array_equal(_lse(band, axis), plain)


def _blocked_vs_per_sweep_cases():
    # (n, m, cost scale, eps); scale 100 at eps 0.01 puts C / eps up to
    # 1e4, so the scalings leave their bounds and blocks are dropped
    shapes = ((5, 4), (6, 9), (12, 7), (20, 20), (30, 40))
    for k, (n, m) in enumerate(shapes):
        for scale, eps in ((1.0, 0.3), (1.0, 0.05), (100.0, 0.01)):
            yield pytest.param(n, m, scale, eps, k, id=f"{n}x{m}-s{scale:g}-e{eps:g}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n, m, scale, eps, seed", list(_blocked_vs_per_sweep_cases()))
def test_blocked_loop_matches_per_sweep_oracle(n, m, scale, eps, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, m)))
    C = scale * rng.uniform(0.0, 1.0, size=(n, m))
    a = rng.uniform(0.5, 1.5, n)
    a /= a.sum()
    b = rng.uniform(0.5, 1.5, m)
    b /= b.sum()
    tol = 1e-9
    for t_max in (1, 3, 25, 1000):
        result = sinkhorn_solve(a, b, C, SinkhornConfig(eps, t_max=t_max, tol=tol))
        _, oracle_iters, oracle_converged = per_sweep_sinkhorn_oracle(
            a, b, C, eps, t_max, tol)
        assert result.converged == oracle_converged
        assert result.converged == (result.residuals[-1] <= tol)
        assert len(result.residuals) <= result.iterations <= t_max
        if result.converged:
            # checks fall at most _CHECK_EVERY sweeps apart
            assert oracle_iters <= result.iterations < oracle_iters + _CHECK_EVERY
        else:
            assert result.iterations == oracle_iters == t_max
        # the same number of sweeps gives the same plan up to rounding
        plan, iters, _ = per_sweep_sinkhorn_oracle(
            a, b, C, eps, result.iterations, 1e-300)
        assert iters == result.iterations
        assert np.abs(result.plan.matrix - plan).sum() <= 1e-12


def test_warm_start_from_converged_column_potential():
    # g alone determines the first sweep's row potential, so a converged g
    # on the same cost reproduces the plan in one sweep
    rng = np.random.default_rng(6)
    C = rng.uniform(0.0, 1.0, size=(6, 5))
    a = rng.uniform(0.5, 1.5, 6)
    a /= a.sum()
    b = rng.uniform(0.5, 1.5, 5)
    b /= b.sum()
    for eps in (0.3, 0.05):
        cfg = SinkhornConfig(epsilon=eps)
        cold = sinkhorn_solve(a, b, C, cfg)
        warm = sinkhorn_solve(a, b, C, cfg, init_g=cold.potentials[1])
        assert cold.converged and cold.iterations > 1
        assert warm.converged and warm.iterations == 1
        assert np.abs(warm.plan.matrix - cold.plan.matrix).sum() <= 1e-8


@pytest.mark.parametrize("init_g", [np.zeros(1), np.zeros(5), np.zeros((4, 1)),
                                    np.array([0.0, np.nan, 0.0, 0.0]),
                                    np.array([0.0, 0.0, -np.inf, 0.0])],
                         ids=["length-1", "length-5", "column", "nan", "inf"])
def test_warm_start_potential_is_checked(init_g):
    C = np.random.default_rng(7).uniform(0.0, 1.0, size=(3, 4))
    a = np.full(3, 1.0 / 3.0)
    b = np.full(4, 0.25)
    with pytest.raises(ValueError, match="init_g"):
        sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.1), init_g=init_g)


def test_non_convergence_is_flagged_not_fatal():
    rng = np.random.default_rng(2)
    C = rng.uniform(0.0, 1.0, size=(8, 8))
    a = b = np.full(8, 1.0 / 8.0)
    with pytest.warns(RuntimeWarning, match="flagged"):
        result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.01, t_max=3))
    assert not result.converged
    assert result.iterations == 3


def test_sinkhorn_balances_masses_the_weight_check_accepts():
    # the masses differ by 1.8e-9, and each passes the 1e-9 sum check; the
    # columns are exact after every sweep, so unless b is given a's mass
    # the row residual cannot fall below that gap, which is above tol
    a = np.full(3, 1 / 3 + 3e-10)
    b = np.full(3, 1 / 3 - 3e-10)
    C = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=1.0, t_max=20000))
    assert result.converged
    assert result.iterations < 100


def test_strictly_positive_weights_required():
    with pytest.raises(ValueError, match="strictly positive"):
        sinkhorn_solve([1.0, 0.0], [0.5, 0.5], np.zeros((2, 2)),
                       SinkhornConfig(epsilon=0.1))


@pytest.mark.parametrize("C, match", [
    (np.zeros((2, 3)), "cost shape"),
    (np.array([[0.0, np.nan], [1.0, 0.0]]), "must be finite"),
    (np.array([[0.0, np.inf], [1.0, 0.0]]), "must be finite"),
    (np.array([[0.0, -1.0], [1.0, 0.0]]), "nonnegative"),
], ids=["shape", "nan", "inf", "negative"])
def test_sinkhorn_cost_is_checked(C, match):
    with pytest.raises(ValueError, match=match):
        sinkhorn_solve([0.5, 0.5], [0.5, 0.5], C, SinkhornConfig(epsilon=0.1))


def test_entropy_convention():
    # H(P) = sum p (log p - 1); uniform 2x2 plan
    P = np.full((2, 2), 0.25)
    assert entropy(P) == pytest.approx(4 * 0.25 * (np.log(0.25) - 1.0))
    assert entropy(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------


def test_emd_zero_cost_matching():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = emd_exact_solve([0.5, 0.5], [0.5, 0.5], C)
    np.testing.assert_allclose(result.plan.matrix, 0.5 * np.eye(2), atol=1e-12)
    assert result.objective == pytest.approx(0.0, abs=1e-12)


def test_emd_single_sink_forces_plan():
    a = np.array([0.2, 0.3, 0.5])
    C = np.array([[4.0], [1.0], [2.0]])
    result = emd_exact_solve(a, [1.0], C)
    np.testing.assert_allclose(result.plan.matrix.ravel(), a, atol=1e-12)
    assert result.objective == pytest.approx(float(a @ C.ravel()))


def test_emd_matches_birkhoff_brute_force():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0.0, 1.0, size=(3, 3))
        uniform = np.full(3, 1.0 / 3.0)
        result = emd_exact_solve(uniform, uniform, C)
        assert result.objective == pytest.approx(brute_force_emd_uniform(C), abs=1e-12)


def test_emd_is_optimal_among_random_feasible_plans():
    rng = np.random.default_rng(77)
    C = rng.uniform(0.0, 2.0, size=(6, 6))
    uniform = np.full(6, 1.0 / 6.0)
    opt = emd_exact_solve(uniform, uniform, C).objective
    for _ in range(100):
        plan = random_birkhoff_plan(rng, 6)
        assert float(np.sum(plan * C)) >= opt - 1e-10


def test_emd_complementary_slackness():
    rng = np.random.default_rng(13)
    C = rng.uniform(0.0, 1.0, size=(5, 7))
    a = rng.uniform(0.5, 1.5, 5)
    a /= a.sum()
    b = rng.uniform(0.5, 1.5, 7)
    b /= b.sum()
    result = emd_exact_solve(a, b, C)
    reduced = C - result.dual_row[:, None] - result.dual_col[None, :]
    assert reduced.min() >= -1e-9
    support = result.plan.matrix > 1e-12
    assert np.abs(reduced[support]).max() <= 1e-9


def test_solve_lp_infeasible_detected():
    # unequal masses: no coupling of the two marginals exists
    with pytest.raises(SolverFailure, match="infeasible"):
        solve_lp([0.5, 0.5], [1.0, 1.0], np.ones((2, 2)))


def test_solve_lp_failure_names_status_and_iterations():
    with pytest.raises(SolverFailure, match=r"status infeasible after \d+ simplex iterations"):
        solve_lp([0.5, 0.5], [1.0, 1.0], np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected_by_every_solver(bad):
    w = [bad, 0.5]
    ok = [0.5, 0.5]
    C = np.ones((2, 2))
    for a, b in ((w, ok), (ok, w)):
        with pytest.raises(ValueError, match="weights must be finite"):
            sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.1))
        with pytest.raises(ValueError, match="weights must be finite"):
            emd_exact_solve(a, b, C)
        with pytest.raises(ValueError, match="weights must be finite"):
            frot_lp_solve(np.stack([C, C]), a, b)


# ---------------------------------------------------------------------------
# binding drift: solve_lp calls scipy's private HiGHS bindings directly, so
# it is checked against the public linprog on the same LPs
# ---------------------------------------------------------------------------


def test_highs_bindings_importable():
    try:
        from scipy.optimize._highspy._core import _Highs  # noqa: F401
    except ImportError as exc:
        pytest.fail(f"scipy's HiGHS bindings, which solve_lp uses, are gone: {exc}")


def _random_weights(rng, n):
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def _linprog_reference(a, b, C):
    """The same LP assembled independently for ``linprog``: sparse marginal
    rows over the row-major vec(P), and for a stack an epigraph block with
    a free t column."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = C.shape[-2:]
    A_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    b_eq = np.concatenate([a, b])
    highs = dict(method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                             "dual_feasibility_tolerance": 1e-10})
    if C.ndim == 2:
        return linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, **highs)
    L = C.shape[0]
    return linprog(np.append(np.zeros(n * m), 1.0),
                   A_ub=sparse.hstack([sparse.csr_matrix(C.reshape(L, -1)), -np.ones((L, 1))]),
                   b_ub=np.zeros(L),
                   A_eq=sparse.hstack([A_eq, sparse.csr_matrix((n + m, 1))]), b_eq=b_eq,
                   bounds=[(0, None)] * (n * m) + [(None, None)], **highs)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["transport", "epigraph", "zeros", "tiny"])
def test_solve_lp_matches_linprog_oracle(seed, kind):
    """``solve_lp(a, b, C)`` against ``linprog`` on the same LP: random
    transportation LPs, and epigraph LPs with 3 groups: random, with exact
    zero entries, and at cost scale 1e-9 (the reference solves that one on
    the unit-scale costs)."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 30, size=2)
    a, b = _random_weights(rng, n), _random_weights(rng, m)
    shape = (n, m) if kind == "transport" else (3, n, m)
    unit = rng.uniform(0.0, 1.0, shape)
    if kind == "zeros":
        unit[rng.uniform(size=shape) < 0.3] = 0.0
    cost_scale = 1e-9 if kind == "tiny" else 1.0
    C = cost_scale * unit

    ours = solve_lp(a, b, C)
    oracle = _linprog_reference(a, b, unit)
    assert oracle.status == 0
    assert ours.objective == pytest.approx(cost_scale * oracle.fun, rel=1e-10)
    # objective and duals come back in the caller's units: strong duality
    assert ours.eq_duals.shape == (n + m,)
    assert a @ ours.eq_duals[:n] + b @ ours.eq_duals[n:] == pytest.approx(ours.objective, rel=1e-9)
    for x in (ours.x, oracle.x):
        P = x[:n * m].reshape(n, m)
        assert P.min() >= -1e-9
        np.testing.assert_allclose(P.sum(axis=1), a, rtol=0, atol=1e-9)
        np.testing.assert_allclose(P.sum(axis=0), b, rtol=0, atol=1e-9)
    P = ours.x[:n * m].reshape(n, m)
    assert P.min() >= 0.0
    if C.ndim == 3:
        assert np.tensordot(C, P).max() <= ours.objective + 1e-9 * cost_scale


@pytest.mark.parametrize("seed", [168, 281])
def test_solve_lp_plan_is_exactly_nonnegative(seed):
    """HiGHS meets x >= 0 only to its 1e-10 feasibility tolerance; on these
    epigraph LPs its raw plan has entries of -2.4e-13 (seed 168) and
    -6.4e-14 (seed 281).  ``solve_lp`` clips them onto the bound."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 12))
    s = 0.3 * rng.standard_normal(12)
    y = rng.standard_normal((40, 12)) + s
    src = build_grouped_measure(x, [2] * 6)
    dst = build_grouped_measure(y, [2] * 6)
    stack = build_grouped_cost(src, dst, "squared_euclidean").matrices
    res = solve_lp(src.weights, dst.weights, stack)
    plan = res.x[:-1].reshape(40, 40)
    assert plan.min() >= 0.0
    np.testing.assert_allclose(plan.sum(axis=1), src.weights, rtol=0, atol=1e-9)
    np.testing.assert_allclose(plan.sum(axis=0), dst.weights, rtol=0, atol=1e-9)
    lp = frot_lp_solve(stack, src.weights, dst.weights)
    assert lp.objective == res.objective
    np.testing.assert_array_equal(lp.plan.matrix, plan)


@pytest.mark.parametrize("d", [2e-10, 5e-10, 9e-10])
def test_lp_solvers_accept_every_pair_the_weight_check_accepts(d):
    # the masses differ by d, within the 1e-9 the weight check allows but
    # beyond the LP's 1e-10 feasibility tolerance
    a = np.array([1 / 3, 1 / 3, 1 / 3 + d])
    b = np.full(3, 1 / 3)
    C = np.arange(9.0).reshape(3, 3)
    for x, y in ((a, b), (b, a)):
        assert emd_exact_solve(x, y, C).objective == pytest.approx(4.0, rel=1e-8)
        assert frot_lp_solve(np.stack([C, C.T]), x, y).objective == pytest.approx(
            4.0, rel=1e-8)


def test_emd_infeasible_weights_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        emd_exact_solve([0.6, 0.6], [0.5, 0.5], np.zeros((2, 2)))
    # sums to 1, so only the sign check catches it before the LP
    with pytest.raises(ValueError, match="nonnegative"):
        emd_exact_solve([1.5, -0.5], [0.5, 0.5], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        emd_exact_solve([0.5, 0.5], [0.5, 0.5], np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError, match="cost shape"):
        emd_exact_solve([0.5, 0.5], [0.5, 0.5], np.zeros((2, 3)))


@st.composite
def _square_costs(draw):
    """(kind, C): square cost matrices that are all zeros, small integers
    (many ties), continuous, or continuous at a 1e-12 scale; n from 1 up.
    Continuous entries are 0 or at least 1e-6, so that no product with the
    plan's 1/n underflows."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["zeros", "small_int", "float", "tiny"]))
    if kind == "zeros":
        return kind, np.zeros((n, n))
    if kind == "small_int":
        return kind, draw(arrays(float, (n, n), elements=st.integers(0, 3).map(float)))
    entries = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    C = draw(arrays(float, (n, n), elements=entries))
    return kind, C * 1e-12 if kind == "tiny" else C


@settings(max_examples=150, deadline=None)
@given(_square_costs())
# at HiGHS's default absolute tolerances the LP returned objective 1e-9 here
@example(("tiny", 1e-9 * np.array([[0.0, 1.0], [1.0, 1.0]])))
def test_assignment_plan_is_an_exact_optimal_coupling(case):
    kind, C = case
    n = C.shape[0]
    uniform = np.full(n, 1.0 / n)
    P = assignment_plan(uniform, uniform, C)
    assert P.shape == (n, n) and P.min() >= 0.0
    np.testing.assert_array_equal(P.sum(axis=1), uniform)
    np.testing.assert_array_equal(P.sum(axis=0), uniform)
    cost = float(np.sum(P * C))
    assert cost == pytest.approx(brute_force_emd_uniform(C), rel=1e-12, abs=0.0)
    # the LP runs on C / max|C| with tight tolerances, so it finds the same
    # optimum at every cost scale
    exact = emd_exact_solve(uniform, uniform, C).objective
    assert cost <= exact + 1e-15 * max(C.max(), 1.0)
    assert cost == pytest.approx(exact, rel=1e-12, abs=1e-15 * C.max())


def test_assignment_plan_declines_other_weights():
    C = np.ones((3, 3))
    uniform = np.full(3, 1.0 / 3.0)
    assert assignment_plan(uniform, [0.2, 0.3, 0.5], C) is None
    assert assignment_plan([0.2, 0.3, 0.5], uniform, C) is None
    assert assignment_plan(uniform, np.full(4, 0.25), np.ones((3, 4))) is None


def _declined_by_the_array_scans(a, b):
    """The weight check ``assignment_plan`` made with ``np.any`` scans,
    kept as the reference for which inputs the fast path declines."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    return a.size != b.size or np.any(a != a[0]) or np.any(b != a[0])


@pytest.mark.parametrize("a, b, declined", [
    (np.full(3, 1 / 3), np.full(4, 0.25), True),
    ([0.2, 0.3, 0.5], np.full(3, 1 / 3), True),
    (np.full(3, 1 / 3), np.full(3, 0.5), True),
    (np.full(3, 0.5), np.full(3, 1 / 3), True),
    (np.full(3, np.nan), np.full(3, np.nan), True),
    ([np.nan], [np.nan], True),
    ([1 / 3, np.nan, 1 / 3], np.full(3, 1 / 3), True),
    (np.full(3, 1 / 3), [1 / 3, 1 / 3, np.nan], True),
    ([1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3], False),
    (np.full((3, 1), 1 / 3), np.full(3, 1 / 3), False),
    ([0.0, -0.0], [-0.0, 0.0], False),
    ([1.0], [1.0], False),
], ids=["n != m", "non-constant a", "b another constant", "a another constant",
        "NaN weights", "one NaN weight", "NaN in a", "NaN in b", "lists",
        "column vector", "signed zeros", "one point"])
def test_assignment_plan_declines_the_same_weights_as_the_array_scans(a, b, declined):
    C = np.arange(np.size(a) * np.size(b), dtype=float).reshape(np.size(a), np.size(b))
    assert _declined_by_the_array_scans(a, b) == declined
    P = assignment_plan(a, b, C)
    assert (P is None) == declined
    if not declined:
        np.testing.assert_array_equal(P.sum(axis=1), np.ravel(a))


# ---------------------------------------------------------------------------
# sorted 1-D distance
# ---------------------------------------------------------------------------


def test_sorted_1d_identity():
    xs = np.array([3.0, -1.0, 2.0])
    assert sorted_wasserstein_1d(xs, xs.copy(), p=2) == 0.0


def test_sorted_1d_hand_computed():
    assert sorted_wasserstein_1d([0.0, 1.0], [1.0, 2.0], p=1) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_sorted_1d_matches_exact_solver(p):
    rng = np.random.default_rng(4)
    xs = rng.normal(size=10)
    ys = rng.normal(loc=0.5, size=10)
    uniform = np.full(10, 0.1)
    D = np.abs(xs[:, None] - ys[None, :]) ** p
    exact = emd_exact_solve(uniform, uniform, D).objective ** (1.0 / p)
    assert sorted_wasserstein_1d(xs, ys, p=p) == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sorted_1d_matches_exact_solver_on_unequal_sizes(p):
    # continuous samples, and small integers that put ties inside and
    # across the two samples
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 30, size=2)
        if seed % 2:
            xs = rng.integers(0, 4, size=n).astype(float)
            ys = rng.integers(0, 4, size=m).astype(float)
        else:
            xs = rng.normal(size=n)
            ys = rng.normal(loc=0.5, size=m)
        D = np.abs(xs[:, None] - ys[None, :]) ** p
        exact = emd_exact_solve(np.full(n, 1.0 / n), np.full(m, 1.0 / m), D)
        assert sorted_wasserstein_1d(xs, ys, p=p) == pytest.approx(
            exact.objective ** (1.0 / p), rel=1e-12, abs=1e-15)


def test_sorted_1d_errors():
    with pytest.raises(ValueError, match="non-empty"):
        sorted_wasserstein_1d([], [], p=1)
    with pytest.raises(ValueError, match="at least 1"):
        sorted_wasserstein_1d([1.0], [2.0], p=0.5)
