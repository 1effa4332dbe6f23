import numpy as np
import pytest

from frot import (
    FrotConfig,
    alpha_weights,
    build_grouped_cost,
    emd_exact_solve,
    frot_fw_solve,
    frot_gradient,
    frot_lp_solve,
    fw_convergence_bound,
    group_costs,
    sinkhorn_solve,
    smoothed_max_objective,
    synth_generate,
)
from frot.minmax import _smoothed_max, round_to_polytope
from frot.solvers import SinkhornConfig, SolverFailure, assignment_plan

from helpers import random_birkhoff_plan, random_grouped_pair, reference_fw_solve


def _uniform_plan(n, m):
    return np.full((n, m), 1.0 / (n * m))


# ---------------------------------------------------------------------------
# smoothed max, weights, gradient
# ---------------------------------------------------------------------------


def test_smoothed_max_single_group_is_exact():
    rng = np.random.default_rng(0)
    C = rng.uniform(0.0, 1.0, size=(1, 3, 4))
    P = _uniform_plan(3, 4)
    assert smoothed_max_objective(P, C, eta=0.7) == pytest.approx(
        float(np.sum(P * C[0])), abs=1e-12
    )


def test_smoothed_max_equal_costs_identity():
    # all group costs equal v: soft max collapses to v + eta log L
    C = np.stack([np.full((2, 2), 3.0)] * 4)
    P = _uniform_plan(2, 2)
    v = 3.0
    for eta in (0.1, 1.0, 10.0):
        assert smoothed_max_objective(P, C, eta) == pytest.approx(
            v + eta * np.log(4), abs=1e-12
        )


def test_smoothed_max_frozen_value():
    # a mass-1 plan against constant matrices gives group costs (1, 2);
    # at eta=1 the soft max is 2 + log(1 + e^-1)
    C = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0)])
    P = np.full((2, 2), 0.25)
    assert smoothed_max_objective(P, C, 1.0) == pytest.approx(2.313261687518223,
                                                              abs=1e-12)


def test_smoothed_max_requires_positive_eta():
    with pytest.raises(ValueError, match="eta"):
        smoothed_max_objective(_uniform_plan(2, 2), np.zeros((1, 2, 2)), 0.0)
    with pytest.raises(ValueError, match="eta"):
        alpha_weights(_uniform_plan(2, 2), np.zeros((1, 2, 2)), -1.0)


def test_alpha_symmetric_costs_give_uniform_weights():
    C = np.stack([np.eye(3)] * 5)
    alpha = alpha_weights(_uniform_plan(3, 3), C, eta=0.2)
    np.testing.assert_allclose(alpha, np.full(5, 0.2), atol=1e-14)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)


def test_alpha_hard_max_limit():
    C = np.stack([np.zeros((2, 2)), np.full((2, 2), 40.0)])
    alpha = alpha_weights(_uniform_plan(2, 2), C, eta=0.01)
    np.testing.assert_allclose(alpha, [0.0, 1.0], atol=1e-300)


def test_alpha_frozen_softmax_value():
    C = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0)])
    alpha = alpha_weights(np.full((2, 2), 0.25), C, eta=1.0)
    np.testing.assert_allclose(alpha, [0.2689414213699951, 0.7310585786300049],
                               atol=1e-14)


def test_gradient_single_group_is_cost_matrix():
    rng = np.random.default_rng(5)
    C = rng.uniform(size=(1, 3, 3))
    np.testing.assert_allclose(frot_gradient(_uniform_plan(3, 3), C, 1.0), C[0],
                               atol=1e-14)


def test_gradient_symmetric_mixture():
    rng = np.random.default_rng(6)
    base = rng.uniform(size=(3, 3))
    C = np.stack([base, base.T])
    P = _uniform_plan(3, 3)
    # both groups have the same transport cost under the uniform plan
    np.testing.assert_allclose(frot_gradient(P, C, 0.5), (C[0] + C[1]) / 2, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(2, 3, 3))
    P = random_birkhoff_plan(rng, 3)
    eta = 0.5
    grad = frot_gradient(P, C, eta)
    step = 1e-6
    for i in range(3):
        for j in range(3):
            Pp, Pm = P.copy(), P.copy()
            Pp[i, j] += step
            Pm[i, j] -= step
            fd = (smoothed_max_objective(Pp, C, eta)
                  - smoothed_max_objective(Pm, C, eta)) / (2 * step)
            assert grad[i, j] == pytest.approx(fd, abs=1e-5)


_SMOOTHED_MAX_CASES = {
    "one group": [3.7],
    "two-way tie": [2.0, 2.0, 1.0],
    "three-way tie": [5.0, 0.3, 5.0, 5.0],
    "exact zeros": [0.0, 0.0, 1.5],
    "all zero": [0.0, 0.0],
    "ratio 1e300": [1e300, 1.0, 1e-300],
    "tiny beside zero": [1e-300, 0.0, 2e-300],
    "twenty groups": np.random.default_rng(12).uniform(0.0, 3.0, size=20).tolist(),
    "twenty groups, tied": [1.0, 0.5] * 10,
}


@pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("phi", list(_SMOOTHED_MAX_CASES.values()),
                         ids=list(_SMOOTHED_MAX_CASES))
def test_smoothed_max_matches_scipy_bit_for_bit(phi, eta):
    from scipy.special import logsumexp, softmax

    phi = np.asarray(phi)
    objective, alpha = _smoothed_max(phi, eta)
    assert objective == float(eta * logsumexp(phi / eta))
    assert alpha.tobytes() == softmax(phi / eta).tobytes()


@pytest.mark.parametrize("position", range(3))
def test_smoothed_max_propagates_nan_in_any_position(position):
    phi = np.array([1.0, 2.0, 0.5])
    phi[position] = np.nan
    with np.errstate(all="ignore"):
        objective, alpha = _smoothed_max(phi, 1.0)
    assert np.isnan(objective)
    assert np.isnan(alpha).all()


@pytest.mark.parametrize("phi", [[np.inf, 1.0], [1.0, np.inf], [0.5, np.inf, np.inf]])
def test_smoothed_max_of_an_infinite_cost_is_infinite(phi):
    with np.errstate(all="ignore"):
        objective, _ = _smoothed_max(np.array(phi), 1.0)
    assert objective == np.inf


@pytest.mark.parametrize("position", range(3))
def test_smoothed_max_gives_a_minus_infinite_cost_weight_zero(position):
    phi = np.array([1.0, 2.0, 0.5])
    phi[position] = -np.inf
    with np.errstate(all="ignore"):
        objective, alpha = _smoothed_max(phi, 1.0)
    assert alpha[position] == 0.0
    assert np.isfinite(objective)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n, m", [(5, 5), (4, 7)])
def test_stack_products_equal_tensordot_forms(n, m):
    rng = np.random.default_rng(13)
    C = rng.uniform(0.0, 2.0, size=(3, n, m))
    P = rng.dirichlet(np.ones(n * m)).reshape(n, m)
    phi = group_costs(P, C)
    assert phi.tobytes() == np.tensordot(C, P, axes=([1, 2], [0, 1])).tobytes()
    alpha = alpha_weights(P, C, 0.5)
    assert (frot_gradient(P, C, 0.5).tobytes()
            == np.tensordot(alpha, C, axes=1).tobytes())
    # a plan in column-major order reads the same entries
    assert group_costs(np.asfortranarray(P), C).tobytes() == phi.tobytes()


# ---------------------------------------------------------------------------
# Frank-Wolfe solver
# ---------------------------------------------------------------------------


def test_fw_concentrates_on_informative_group():
    src, dst = synth_generate(20, 20, seed=0)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    sol = frot_fw_solve(src, dst, costs,
                        FrotConfig(eta=1.0, fw_iters=10, subsolver="sinkhorn",
                                   epsilon=0.02))
    assert sol.alpha[0] >= 0.999
    assert sol.plan.marginal_residual <= 1e-12
    assert np.all(np.isfinite(sol.objective_trace))
    # FW evaluates (objective, alpha) with the public formulas, bit for bit
    np.testing.assert_array_equal(sol.alpha, alpha_weights(sol.plan, costs, 1.0))
    assert sol.objective_trace[-1] == smoothed_max_objective(sol.plan, costs, 1.0)


def test_fw_single_group_degenerates_to_subsolver():
    rng = np.random.default_rng(3)
    src, dst = random_grouped_pair(rng, 6, 6, [3])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    sol = frot_fw_solve(src, dst, costs, FrotConfig(eta=0.5, fw_iters=5))
    exact = emd_exact_solve(src.weights, dst.weights, costs.matrices[0])
    assert sol.objective_trace[-1] == pytest.approx(exact.objective, abs=1e-8)

    sol_sink = frot_fw_solve(
        src, dst, costs,
        FrotConfig(eta=0.5, fw_iters=5, subsolver="sinkhorn", epsilon=0.5,
                   sinkhorn_t_max=3000))
    sink = sinkhorn_solve(src.weights, dst.weights, costs.matrices[0],
                          SinkhornConfig(epsilon=0.5, t_max=3000))
    assert sink.converged
    rounded = round_to_polytope(sink.plan.matrix, src.weights, dst.weights)
    assert sol_sink.objective_trace[-1] == pytest.approx(
        float(np.sum(rounded * costs.matrices[0])), abs=1e-8)


def test_fw_iterates_stay_feasible_and_gaps_nonnegative():
    # the run of t iterations returns the t-th iterate of the longer runs
    rng = np.random.default_rng(8)
    src, dst = random_grouped_pair(rng, 5, 7, [2, 3], uniform_weights=False)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    for t in range(1, 13):
        sol = frot_fw_solve(src, dst, costs, FrotConfig(eta=0.3, fw_iters=t))
        P = sol.plan.matrix
        assert P.min() >= 0.0
        assert np.abs(P.sum(axis=1) - src.weights).sum() <= 1e-9
        assert np.abs(P.sum(axis=0) - dst.weights).sum() <= 1e-9
        assert sol.metadata["iterations"] == t
        assert sol.objective_trace.shape == (t + 1,)
        assert sol.fw_gap_trace.shape == (t,)
        assert np.all(sol.fw_gap_trace >= -1e-10)


def test_fw_matches_lp_at_small_eta():
    src, dst = random_grouped_pair(np.random.default_rng(21), 4, 4, [1, 2])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    lp = frot_lp_solve(costs, src.weights, dst.weights)
    sol = frot_fw_solve(src, dst, costs, FrotConfig(eta=0.1, fw_iters=200))
    final_max = float(group_costs(sol.plan, costs).max())
    assert abs(final_max - lp.objective) / max(lp.objective, 1e-12) <= 0.01


def test_fw_init_matrix_must_be_a_coupling():
    rng = np.random.default_rng(31)
    src, dst = random_grouped_pair(rng, 3, 3, [2], uniform_weights=False)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    cfg = FrotConfig(eta=1.0, fw_iters=3)
    with pytest.raises(ValueError, match="mass"):
        frot_fw_solve(src, dst, costs, cfg, init_matrix=np.ones((3, 3)))
    # unit mass, wrong marginals
    with pytest.raises(ValueError, match="coupling"):
        frot_fw_solve(src, dst, costs, cfg, init_matrix=np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValueError, match="shape"):
        frot_fw_solve(src, dst, costs, cfg, init_matrix=np.eye(2) / 2.0)
    product = np.outer(src.weights, dst.weights)
    warm = frot_fw_solve(src, dst, costs, cfg, init_matrix=product)
    cold = frot_fw_solve(src, dst, costs, cfg)
    np.testing.assert_array_equal(warm.plan.matrix, cold.plan.matrix)
    np.testing.assert_array_equal(warm.objective_trace, cold.objective_trace)


def test_fw_init_matrix_sets_only_the_first_linearization_point():
    # step 2/(2 + 0) = 1 replaces the starting plan outright; with one group
    # every plan has the same weights alpha = (1,), so every start gives the
    # same iterates after objective_trace[0]
    rng = np.random.default_rng(4)
    src, dst = random_grouped_pair(rng, 6, 6, [3])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    cfg = FrotConfig(eta=1.0, fw_iters=4)
    cold = frot_fw_solve(src, dst, costs, cfg)
    warm = frot_fw_solve(src, dst, costs, cfg,
                         init_matrix=random_birkhoff_plan(rng, 6))
    assert warm.objective_trace[0] != cold.objective_trace[0]
    np.testing.assert_array_equal(warm.objective_trace[1:], cold.objective_trace[1:])
    np.testing.assert_array_equal(warm.plan.matrix, cold.plan.matrix)


def _solution_bytes(sol):
    return (sol.plan.matrix.tobytes(), sol.alpha.tobytes(),
            sol.objective_trace.tobytes(), sol.fw_gap_trace.tobytes(),
            repr(sol.metadata))


@pytest.mark.parametrize("raw_stack", [False, True], ids=["GroupedCost", "raw stack"])
@pytest.mark.parametrize("subsolver", ["exact_emd", "sinkhorn"])
@pytest.mark.filterwarnings("ignore:Sinkhorn stopped at t_max:RuntimeWarning")
def test_fw_leaves_its_inputs_intact(subsolver, raw_stack):
    rng = np.random.default_rng(47)
    src, dst = random_grouped_pair(rng, 6, 6, [1, 2])
    grouped = build_grouped_cost(src, dst, "squared_euclidean")
    costs = grouped.matrices.copy() if raw_stack else grouped
    init = random_birkhoff_plan(rng, 6)
    assert init.flags.writeable
    snapshot = [init.copy(), grouped.matrices.copy(), src.weights.copy(),
                dst.weights.copy()]
    if raw_stack:
        snapshot.append(costs.copy())
    cfg = FrotConfig(eta=0.5, fw_iters=6, subsolver=subsolver)
    first = frot_fw_solve(src, dst, costs, cfg, init_matrix=init)
    second = frot_fw_solve(src, dst, costs, cfg, init_matrix=init)
    after = [init, grouped.matrices, src.weights, dst.weights]
    if raw_stack:
        after.append(costs)
    for was, now in zip(snapshot, after):
        assert now.tobytes() == was.tobytes()
    # back-to-back solves on the same inputs share no state
    assert _solution_bytes(first) == _solution_bytes(second)
    # a read-only start, such as another solution's plan, is accepted too
    frot_fw_solve(src, dst, costs, cfg, init_matrix=first.plan.matrix)


@pytest.mark.parametrize("stack", [np.full((2, 3, 3), np.nan),
                                   np.full((2, 3, 3), np.inf),
                                   np.full((2, 3, 3), -1.0)],
                         ids=["nan", "inf", "negative"])
def test_raw_cost_stacks_are_validated(stack):
    src, dst = random_grouped_pair(np.random.default_rng(0), 3, 3, [1, 1])
    a, b = src.weights, dst.weights
    with pytest.raises(ValueError, match="cost matrices must be"):
        frot_lp_solve(stack, a, b)
    with pytest.raises(ValueError, match="cost matrices must be"):
        frot_fw_solve(src, dst, stack, FrotConfig(eta=1.0, fw_iters=2))
    with pytest.raises(ValueError, match="cost matrices must be"):
        group_costs(np.outer(a, b), stack)


def test_shape_mismatches_are_rejected():
    src, dst = random_grouped_pair(np.random.default_rng(0), 3, 4, [1, 1])
    stack = np.ones((2, 4, 3))
    with pytest.raises(ValueError, match="does not match measure sizes"):
        frot_fw_solve(src, dst, stack, FrotConfig(eta=1.0))
    with pytest.raises(ValueError, match="does not match weights"):
        frot_lp_solve(stack, src.weights, dst.weights)
    with pytest.raises(ValueError, match="does not match costs"):
        group_costs(np.outer(src.weights, dst.weights), stack)


def test_fw_names_the_iteration_of_a_failed_subproblem(monkeypatch):
    calls = []

    def fail_second(a, b, C):
        calls.append(C.shape)
        if len(calls) == 2:
            raise SolverFailure("synthetic breakdown")
        return emd_exact_solve(a, b, C)

    monkeypatch.setattr("frot.minmax.emd_exact_solve", fail_second)
    src, dst = random_grouped_pair(np.random.default_rng(3), 4, 5, [1, 2])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    with pytest.raises(SolverFailure, match="at iteration 1: synthetic breakdown"):
        frot_fw_solve(src, dst, costs, FrotConfig(eta=0.5, fw_iters=5))


def _count_lp_calls(monkeypatch):
    calls = []

    def counting(a, b, C):
        calls.append(C.shape)
        return emd_exact_solve(a, b, C)

    monkeypatch.setattr("frot.minmax.emd_exact_solve", counting)
    return calls


@pytest.mark.parametrize("n, m, uniform, lp_calls", [
    (6, 6, True, 0),    # square, uniform: every subproblem is an assignment
    (6, 7, True, 5),    # non-square: one LP per iteration
    (6, 6, False, 5),   # square, non-uniform weights: one LP per iteration
])
def test_fw_exact_subproblem_dispatch(monkeypatch, n, m, uniform, lp_calls):
    calls = _count_lp_calls(monkeypatch)
    rng = np.random.default_rng(40)
    src, dst = random_grouped_pair(rng, n, m, [1, 2], uniform_weights=uniform)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    sol = frot_fw_solve(src, dst, costs,
                        FrotConfig(eta=0.5, fw_iters=5, subsolver="exact_emd"))
    assert sol.metadata["iterations"] == 5
    assert len(calls) == lp_calls


def test_fw_assignment_path_matches_lp_path(monkeypatch):
    # continuous random costs: each linear subproblem has a unique optimum,
    # so both paths visit the same vertices
    rng = np.random.default_rng(41)
    src, dst = random_grouped_pair(rng, 8, 8, [1, 2, 3])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    cfg = FrotConfig(eta=0.5, fw_iters=15, subsolver="exact_emd")
    fast = frot_fw_solve(src, dst, costs, cfg)
    calls = _count_lp_calls(monkeypatch)
    monkeypatch.setattr("frot.minmax.assignment_plan", lambda a, b, C: None)
    slow = frot_fw_solve(src, dst, costs, cfg)
    assert len(calls) == 15
    np.testing.assert_allclose(fast.objective_trace, slow.objective_trace,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fast.plan.matrix, slow.plan.matrix, atol=1e-12)


@pytest.mark.parametrize("n, m, uniform", [
    (8, 8, True),     # square uniform: assignment subproblems
    (6, 9, True),     # non-square: transportation LP
    (7, 7, False),    # non-uniform weights: transportation LP
], ids=["square uniform", "non-square", "non-uniform"])
@pytest.mark.parametrize("subsolver", ["exact_emd", "sinkhorn"])
@pytest.mark.filterwarnings("ignore:Sinkhorn stopped at t_max:RuntimeWarning")
def test_fw_matches_tensordot_scipy_reference(n, m, uniform, subsolver):
    rng = np.random.default_rng(42)
    src, dst = random_grouped_pair(rng, n, m, [1, 2, 2], uniform_weights=uniform)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    for eta in (0.01, 1.0, 100.0):
        cfg = FrotConfig(eta=eta, fw_iters=8, subsolver=subsolver)
        got = frot_fw_solve(src, dst, costs, cfg)
        ref = reference_fw_solve(src, dst, costs, cfg)
        for field in ("alpha", "objective_trace", "fw_gap_trace"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()
        assert got.plan.matrix.tobytes() == ref.plan.matrix.tobytes()
        assert repr(got.metadata) == repr(ref.metadata)


def test_fw_exact_calls_assignment_plan_once_per_iteration(monkeypatch):
    # the LP-path test above forces that path through this module name; a
    # dispatch decided once per solve would bypass it
    calls = []

    def counting(a, b, C):
        calls.append(C.shape)
        return assignment_plan(a, b, C)

    monkeypatch.setattr("frot.minmax.assignment_plan", counting)
    rng = np.random.default_rng(43)
    src, dst = random_grouped_pair(rng, 6, 6, [1, 2])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    frot_fw_solve(src, dst, costs, FrotConfig(eta=0.5, fw_iters=7))
    assert calls == [(6, 6)] * 7


def _count_calls(monkeypatch, name, solver):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return solver(*args, **kwargs)

    monkeypatch.setattr(f"frot.minmax.{name}", counting)
    return calls


def test_fw_exact_reuses_the_assignment_of_a_repeated_gradient(monkeypatch):
    # one group: alpha = [1] and M = C_0 at every iteration
    calls = _count_calls(monkeypatch, "assignment_plan", assignment_plan)
    rng = np.random.default_rng(44)
    src, dst = random_grouped_pair(rng, 6, 6, [2])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    sol = frot_fw_solve(src, dst, costs, FrotConfig(eta=0.5, fw_iters=6))
    assert calls == [(6, 6)]
    assert sol.metadata["iterations"] == 6 and sol.fw_gap_trace.size == 6


def test_fw_exact_reuses_the_lp_plan_of_a_repeated_gradient(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    rng = np.random.default_rng(45)
    src, dst = random_grouped_pair(rng, 6, 7, [2])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    frot_fw_solve(src, dst, costs, FrotConfig(eta=0.5, fw_iters=6))
    assert calls == [(6, 7)]


@pytest.mark.filterwarnings("ignore:Sinkhorn stopped at t_max:RuntimeWarning")
def test_fw_entropic_solves_every_subproblem_of_a_repeated_gradient(monkeypatch):
    # each Sinkhorn call is warm-started from the last one, so an equal
    # gradient is still a different computation
    calls = _count_calls(monkeypatch, "sinkhorn_solve", sinkhorn_solve)
    rng = np.random.default_rng(46)
    src, dst = random_grouped_pair(rng, 6, 6, [2])
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    frot_fw_solve(src, dst, costs, FrotConfig(eta=0.5, fw_iters=6, subsolver="sinkhorn"))
    assert calls == [(6, 6)] * 6


@pytest.mark.parametrize("seed, n", [(0, 12), (1, 12), (2, 12), (1000, 50)],
                         ids=["0", "1", "2", "50x50-1000"])
def test_fw_exact_reuse_matches_the_reference_loop_bitwise(seed, n):
    # the reference loop solves every subproblem; the dominant group makes
    # the gradient repeat here, so the solver reuses its first plan.  The
    # 50 x 50 case is a pair of the fw_exact benchmark's pool
    src, dst = synth_generate(n, n, seed)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    cfg = FrotConfig(eta=1.0)
    got = frot_fw_solve(src, dst, costs, cfg)
    ref = reference_fw_solve(src, dst, costs, cfg)
    for field in ("alpha", "objective_trace", "fw_gap_trace"):
        assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()
    assert got.plan.matrix.tobytes() == ref.plan.matrix.tobytes()
    assert repr(got.metadata) == repr(ref.metadata)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fw_exact_on_the_synthetic_pairs_makes_one_oracle_call(monkeypatch, seed):
    # pins the subproblem traffic of the fw_exact benchmark's instances: the
    # noise group's weight stays below the last bit of the informative
    # group's costs, so all ten gradients are equal
    assignments = _count_calls(monkeypatch, "assignment_plan", assignment_plan)
    lps = _count_lp_calls(monkeypatch)
    src, dst = synth_generate(50, 50, seed)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    frot_fw_solve(src, dst, costs, FrotConfig(eta=1.0, fw_iters=10))
    assert assignments == [(50, 50)] and lps == []


def test_frot_config_validation():
    with pytest.raises(ValueError, match="frot_lp_solve"):
        FrotConfig(eta=0.0)
    with pytest.raises(ValueError, match="positive"):
        FrotConfig(eta=-1.0)
    with pytest.raises(ValueError, match="subsolver"):
        FrotConfig(eta=1.0, subsolver="magic")
    with pytest.raises(ValueError, match="fw_iters"):
        FrotConfig(eta=1.0, fw_iters=0)
    # settings the solve cannot run are rejected at construction
    with pytest.raises(ValueError, match="fw_iters must be an integer"):
        FrotConfig(eta=1.0, fw_iters=2.5)
    with pytest.raises(ValueError, match="sinkhorn_t_max=0: t_max must be at least 1"):
        FrotConfig(eta=1.0, subsolver="sinkhorn", sinkhorn_t_max=0)
    with pytest.raises(ValueError, match="epsilon=0.0.*unregularized"):
        FrotConfig(eta=1.0, subsolver="sinkhorn", epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon=-0.1.*positive"):
        FrotConfig(eta=1.0, subsolver="sinkhorn", epsilon=-0.1)


@pytest.mark.parametrize("eta, epsilon", [(np.nan, 0.02), (np.inf, 0.02),
                                          (1.0, np.nan), (1.0, -np.inf)])
def test_frot_config_rejects_non_finite_eta_and_epsilon(eta, epsilon):
    with pytest.raises(ValueError, match="finite"):
        FrotConfig(eta=eta, epsilon=epsilon)


def test_round_to_polytope_restores_marginals():
    rng = np.random.default_rng(14)
    a = rng.uniform(0.5, 1.5, 6)
    a /= a.sum()
    b = rng.uniform(0.5, 1.5, 5)
    b /= b.sum()
    P = np.outer(a, b) + rng.uniform(-0.01, 0.01, size=(6, 5))
    P = np.clip(P, 0.0, None)
    rounded = round_to_polytope(P, a, b)
    assert np.abs(rounded.sum(axis=1) - a).sum() <= 1e-12
    assert np.abs(rounded.sum(axis=0) - b).sum() <= 1e-12
    assert rounded.min() >= 0.0


# ---------------------------------------------------------------------------
# epigraph LP
# ---------------------------------------------------------------------------


def test_lp_single_group_equals_exact_ot():
    rng = np.random.default_rng(17)
    src, dst = random_grouped_pair(rng, 5, 6, [3], uniform_weights=False)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    lp = frot_lp_solve(costs, src.weights, dst.weights)
    exact = emd_exact_solve(src.weights, dst.weights, costs.matrices[0])
    assert lp.objective == pytest.approx(exact.objective, abs=1e-9)


def test_lp_identical_groups_equal_exact_ot():
    rng = np.random.default_rng(18)
    C = rng.uniform(0.0, 1.0, size=(4, 4))
    stack = np.stack([C, C, C])
    uniform = np.full(4, 0.25)
    lp = frot_lp_solve(stack, uniform, uniform)
    exact = emd_exact_solve(uniform, uniform, C)
    assert lp.objective == pytest.approx(exact.objective, abs=1e-9)


def test_lp_two_by_two_analytic_optimum():
    # plans are [[s, .5-s], [.5-s, s]]; objectives (1-2s, 2s) balance at 1/4
    stack = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    uniform = np.array([0.5, 0.5])
    # the optimum scales with the costs, however small or large they are
    for scale in (1e-12, 1.0, 1e6):
        lp = frot_lp_solve(scale * stack, uniform, uniform)
        assert lp.objective == pytest.approx(0.5 * scale, rel=1e-12)
        np.testing.assert_allclose(lp.plan.matrix, np.full((2, 2), 0.25), atol=1e-10)


def test_lp_size_guard():
    with pytest.raises(ValueError, match="limited"):
        frot_lp_solve(np.zeros((1, 201, 201)), np.full(201, 1 / 201),
                      np.full(201, 1 / 201))


# ---------------------------------------------------------------------------
# convergence bound
# ---------------------------------------------------------------------------


def test_bound_zero_costs():
    assert fw_convergence_bound(np.zeros((3, 2, 2)), eta=1.0, t=5) == 0.0


def test_bound_identity_hand_value():
    stack = np.eye(2).reshape(1, 2, 2)
    for eta, t in ((1.0, 1), (0.5, 7)):
        assert fw_convergence_bound(stack, eta, t) == pytest.approx(
            8.0 / (eta * (t + 2)), rel=1e-8
        )


def test_bound_matches_dense_eigensolver():
    rng = np.random.default_rng(25)
    stack = rng.uniform(0.0, 1.0, size=(4, 5, 6))
    flat = stack.reshape(4, -1)
    sigma = float(np.linalg.eigvalsh(flat @ flat.T).max())
    eta, t = 0.7, 9
    assert fw_convergence_bound(stack, eta, t) == pytest.approx(
        4.0 * sigma / (eta * (t + 2)), rel=1e-6
    )


def test_bound_validation():
    with pytest.raises(ValueError, match="eta"):
        fw_convergence_bound(np.zeros((1, 2, 2)), eta=0.0, t=1)
    with pytest.raises(ValueError, match="t must"):
        fw_convergence_bound(np.zeros((1, 2, 2)), eta=1.0, t=0)


# ---------------------------------------------------------------------------
# smoothed-objective properties (full-strength versions run in acceptance)
# ---------------------------------------------------------------------------


def test_convexity_along_random_segments():
    rng = np.random.default_rng(26)
    C = rng.uniform(0.0, 2.0, size=(3, 5, 5))
    eta = 0.4
    for _ in range(40):
        P1 = random_birkhoff_plan(rng, 5)
        P2 = random_birkhoff_plan(rng, 5)
        theta = rng.uniform(0.1, 0.9)
        mixed = smoothed_max_objective(theta * P1 + (1 - theta) * P2, C, eta)
        convex = (theta * smoothed_max_objective(P1, C, eta)
                  + (1 - theta) * smoothed_max_objective(P2, C, eta))
        assert mixed <= convex + 1e-9


def test_envelope_sandwich_and_small_eta_limit():
    rng = np.random.default_rng(27)
    C = rng.uniform(0.0, 1.0, size=(4, 4, 4))
    P = random_birkhoff_plan(rng, 4)
    hard_max = float(group_costs(P, C).max())
    for eta in (1.0, 0.1, 0.01):
        G = smoothed_max_objective(P, C, eta)
        assert hard_max <= G + 1e-12
        assert G <= hard_max + eta * np.log(4) + 1e-12


def test_alpha_beats_simplex_grid():
    rng = np.random.default_rng(28)
    eta = 0.7
    phi = rng.uniform(0.0, 3.0, size=3)
    C = np.stack([np.full((2, 2), p) for p in phi])
    P = np.full((2, 2), 0.25)
    alpha = alpha_weights(P, C, eta)

    def J(al):
        al = np.asarray(al)
        mask = al > 0
        ent = np.sum(al[mask] * (np.log(al[mask]) - 1.0))
        return float(al @ phi - eta * ent)

    ticks = np.linspace(0.0, 1.0, 45)
    best_grid = max(
        J([x, y, 1.0 - x - y])
        for x in ticks for y in ticks if x + y <= 1.0 + 1e-12
    )
    assert J(alpha) >= best_grid - 1e-8
