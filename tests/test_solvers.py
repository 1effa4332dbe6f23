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
from frot.solvers import SolverFailure, _lse, assignment_plan, entropy, solve_lp

from helpers import (
    brute_force_emd_uniform,
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


def test_non_convergence_is_flagged_not_fatal():
    rng = np.random.default_rng(2)
    C = rng.uniform(0.0, 1.0, size=(8, 8))
    a = b = np.full(8, 1.0 / 8.0)
    with pytest.warns(RuntimeWarning, match="flagged"):
        result = sinkhorn_solve(a, b, C, SinkhornConfig(epsilon=0.01, t_max=3))
    assert not result.converged
    assert result.iterations == 3


def test_strictly_positive_weights_required():
    with pytest.raises(ValueError, match="strictly positive"):
        sinkhorn_solve([1.0, 0.0], [0.5, 0.5], np.zeros((2, 2)),
                       SinkhornConfig(epsilon=0.1))


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
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(SolverFailure, match="infeasible"):
        solve_lp(np.ones(2), A, b)


def test_solve_lp_failure_names_status_and_iterations():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverFailure, match=r"status infeasible after \d+ simplex iterations"):
        solve_lp(np.ones(2), A, np.array([1.0, 2.0]))


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


def _transport_lp(rng, n, m):
    a, b = _random_weights(rng, n), _random_weights(rng, m)
    c = rng.uniform(0.0, 1.0, n * m)
    return dict(c=c, A_eq=solvers.marginal_constraints(n, m), b_eq=np.concatenate([a, b]))


def _epigraph_lp(rng, n, m, L):
    lp = _transport_lp(rng, n, m)
    nm = n * m
    c = np.zeros(nm + 1)
    c[nm] = 1.0
    bounds = np.tile([0.0, np.inf], (nm + 1, 1))
    bounds[nm, 0] = -np.inf
    return dict(
        c=c,
        A_eq=np.hstack([lp["A_eq"].toarray(), np.zeros((n + m, 1))]),
        b_eq=lp["b_eq"],
        A_ub=np.hstack([rng.uniform(0.0, 1.0, (L, nm)), -np.ones((L, 1))]),
        b_ub=np.zeros(L),
        bounds=bounds,
    )


def _assert_feasible(x, lp, tol=1e-9):
    lower, upper = np.asarray(lp.get("bounds", (0.0, np.inf)), dtype=float).T
    assert np.all(x >= lower - tol) and np.all(x <= upper + tol)
    np.testing.assert_allclose(lp["A_eq"] @ x, lp["b_eq"], rtol=0, atol=tol)
    if "A_ub" in lp:
        assert np.all(lp["A_ub"] @ x <= lp["b_ub"] + tol)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["transport", "epigraph"])
def test_solve_lp_matches_linprog_oracle(seed, kind):
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 30, size=2)
    lp = _transport_lp(rng, n, m) if kind == "transport" else _epigraph_lp(rng, n, m, 3)
    ours = solve_lp(**lp)
    oracle = linprog(**lp, method="highs-ds",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    assert oracle.status == 0
    assert ours.objective == pytest.approx(oracle.fun, rel=1e-10)
    assert ours.eq_duals.shape == (n + m,)
    _assert_feasible(ours.x, lp)
    _assert_feasible(oracle.x, lp)


def test_emd_infeasible_weights_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        emd_exact_solve([0.6, 0.6], [0.5, 0.5], np.zeros((2, 2)))
    # sums to 1, so only the sign check catches it before the LP
    with pytest.raises(ValueError, match="nonnegative"):
        emd_exact_solve([1.5, -0.5], [0.5, 0.5], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        emd_exact_solve([0.5, 0.5], [0.5, 0.5], np.array([[np.nan, 0], [0, 0]]))


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


# ---------------------------------------------------------------------------
# sorted 1-D fast path
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


def test_sorted_1d_errors():
    with pytest.raises(ValueError, match="non-empty"):
        sorted_wasserstein_1d([], [], p=1)
    with pytest.raises(ValueError, match="equal sample counts"):
        sorted_wasserstein_1d([1.0], [1.0, 2.0], p=1)
    with pytest.raises(ValueError, match="at least 1"):
        sorted_wasserstein_1d([1.0], [2.0], p=0.5)
