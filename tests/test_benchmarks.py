import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import msacontrol as mc
from msacontrol.benchmarks import _decision_nodes, _node_index_map, tree_random_control
from msacontrol.model import constant_fn

from dense_paths import dense_states


class TestExample41:
    def test_penalty_weight_small_L(self):
        # 10 L^4 [1 + (1 + L^2)(1 + 8 L^2 e^{8 L^2})] at L = 0.1
        assert mc.example41(0.1).rho == pytest.approx(2.0975e-3, rel=1e-4)

    def test_penalty_weight_unit_L(self):
        expected = 10.0 * (1.0 + 2.0 * (1.0 + 8.0 * math.exp(8.0)))
        bench = mc.example41(1.0)
        assert bench.rho == expected
        assert bench.rho == pytest.approx(4.768e5, rel=1e-3)

    def test_L_range_enforced(self):
        with pytest.raises(mc.ConfigurationError):
            mc.example41(0.0)
        with pytest.raises(mc.ConfigurationError):
            mc.example41(math.sqrt(math.pi) + 1e-6)

    def test_optimal_quadruple_is_all_zero(self):
        bench = mc.example41(0.1)
        M, N = 2000, 20
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 1)
        ctl = mc.constant_control([0.0], M, N)
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        bwd = mc.solve_state_bsde(bench.spec, fwd, mc.RegressionBackend())
        assert np.all(dense_states(fwd) == 0.0)
        assert np.all(bwd.values == 0.0)
        assert np.all(bwd.integrand == 0.0)
        assert bwd.j_estimate == 0.0 == bench.jstar


class TestLqProblem:
    def test_asymmetric_inputs_rejected(self):
        with pytest.raises(mc.ConfigurationError, match="symmetric"):
            mc.lq_problem(gamma_mat=[[1.0, 0.5], [0.0, 1.0]],
                          a_mat=np.eye(2), b_mat=[[1.0]],
                          b1=np.zeros((2, 2)), b2=np.zeros(2),
                          sigma_fn=lambda t, u: np.zeros((len(u), 2, 1)),
                          domain=mc.FiniteSet([[0.0]]), n=2, d=1, k=1,
                          x0=np.zeros(2), horizon=1.0)

    def test_symmetry_is_exact(self):
        # within allclose's rtol of 1e-5 of its transpose, yet the bundle's
        # f_x = A x is off x'Ax/2's gradient by (A - A')x/2
        with pytest.raises(mc.ConfigurationError, match="^A must be symmetric$"):
            mc.lq_problem(**lq_kwargs(a_mat=[[1.0, 1.0], [1.0 + 1e-7, 1.0]]))
        # the shipped instances still build
        assert mc.lq_desk().name == "lq"
        mc.lq_problem(gamma_mat=[[1.0]], a_mat=[[1.0]], b_mat=[[1.0]], b1=[[0.0]], b2=[0.0],
                      sigma_fn=lambda t, u: u[:, :, None].astype(float),
                      domain=mc.Box([-1.0], [1.0], [21]), n=1, d=1, k=1, x0=np.zeros(1),
                      horizon=1.0)

    def test_desk_optimum_is_zero_control(self):
        bench = mc.lq_desk()
        tree = mc.tree_bruteforce(bench.spec, bench.domain, 3)
        assert tree.jstar == 0.0
        assert np.all(tree.policy == 0.0)

    def test_pure_control_cost_minimizes_pointwise(self):
        bench = mc.lq_problem(
            gamma_mat=[[0.0]], a_mat=[[0.0]], b_mat=[[1.0]], b1=[[0.0]],
            b2=[0.0], sigma_fn=lambda t, u: u[:, :, None],
            domain=mc.FiniteSet([[-1.0], [0.0], [1.0]]),
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0)
        cfg = mc.MsaConfig(rho=0.0, n_paths=2000, steps=10, seed=3, max_iters=3,
                           backend=mc.RegressionBackend(degree=1))
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert np.all(res.last_control.values == 0.0)

    @staticmethod
    def _identity_gap(N, M=40_000):
        bench = mc.lq_desk()
        backend = mc.RegressionBackend(degree=1)
        grid = mc.TimeGrid(1.0, N)
        batch = mc.sample_brownian(grid, M, 1, 29)
        u = mc.random_control(bench.domain, M, N, 101)
        v = mc.random_control(bench.domain, M, N, 202)
        fwd_u = mc.simulate_forward(bench.spec, u, batch)
        bwd_u = mc.solve_state_bsde(bench.spec, fwd_u, backend)
        fwd_v = mc.simulate_forward(bench.spec, v, batch)
        bwd_v = mc.solve_state_bsde(bench.spec, fwd_v, backend)
        first = mc.first_order_adjoint(bench.spec, fwd_u, bwd_u, backend)
        P_ode = mc.lq_second_order_ode([[1.0]], [[1.0]], [[0.0]], grid)
        q = first.q[:, :, 0, 0]
        uu = u.values[:, :, 0]
        vv = v.values[:, :, 0]
        hhat = (q * (vv - uu) + 0.5 * (vv ** 2 - uu ** 2)
                + 0.5 * P_ode[None, :-1, 0, 0] * (vv - uu) ** 2)
        diff = (bwd_v.values[:, 0] - bwd_u.values[:, 0]) - hhat.sum(axis=1) * grid.dt
        return diff.mean(), diff.std(ddof=1) / np.sqrt(M)

    def test_cost_difference_identity(self):
        # J(v) - J(u) = E int [H(v, u) - H(u, u)] dt on the quadratic problem.
        # The identity is a continuous-time statement; the Euler scheme leaves
        # an O(dt) remainder (~0.62 dt here), so the check carries a dt term
        # and the remainder must halve when the grid is refined.
        gap20, se20 = self._identity_gap(20)
        assert abs(gap20) < 3 * se20 + 1.0 / 20
        gap40, se40 = self._identity_gap(40)
        assert abs(gap40) < 0.65 * abs(gap20) + 3 * (se20 + se40)

    def test_deterministic_P_is_psd(self):
        P = mc.lq_second_order_ode([[1.0]], [[1.0]], [[0.0]], mc.TimeGrid(1.0, 20))
        assert np.all(np.linalg.eigvalsh(P) >= -1e-12)


class TestLinearRecursiveProblem:
    def test_degenerate_additive_utility_shape(self):
        beta = 0.5
        bench = mc.linrec_desk(beta)
        tree = mc.tree_bruteforce(bench.spec, bench.domain, 3)
        assert tree.jstar == 0.0
        assert np.all(tree.policy == 0.0)

    def test_control_independent_cost(self):
        bench = mc.linear_recursive_problem(
            b1=[[0.0]], b2=[[0.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
            sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
            f1=[0.0], f2=0.0, f3=lambda t, u: np.zeros(len(u)),
            alpha=[1.0], gamma=0.0, domain=mc.Box([-1.0], [1.0], [3]),
            x0=np.array([5.0]), horizon=1.0)
        M, N = 500, 10
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 4)
        for value in (-1.0, 0.0, 1.0):
            ctl = mc.constant_control([value], M, N)
            fwd = mc.simulate_forward(bench.spec, ctl, batch)
            bwd = mc.solve_state_bsde(bench.spec, fwd, mc.RegressionBackend())
            assert bwd.j_estimate == pytest.approx(5.0, abs=1e-10)

    def test_requires_box_domain(self):
        with pytest.raises(mc.ConfigurationError, match="Box"):
            mc.linear_recursive_problem(
                b1=[[0.0]], b2=[[0.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
                sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
                f1=[0.0], f2=0.5, f3=lambda t, u: u[:, 0] ** 2,
                alpha=[0.0], gamma=0.0, domain=mc.FiniteSet([[0.0]]),
                x0=np.zeros(1), horizon=1.0)

    def test_second_order_declared_vanishing(self):
        assert mc.second_order_vanishes(mc.linrec_desk().spec)


def lq_kwargs(**changes):
    """lq_problem's arguments at n = 2, d = k = 1, with ``changes`` applied."""
    return dict(dict(gamma_mat=np.eye(2), a_mat=np.eye(2), b_mat=[[1.0]],
                     b1=np.zeros((2, 2)), b2=np.zeros(2),
                     sigma_fn=lambda t, u: np.zeros((len(u), 2, 1)),
                     domain=mc.FiniteSet([[0.0]]), n=2, d=1, k=1, x0=np.zeros(2),
                     horizon=1.0), **changes)


def linrec_kwargs(**changes):
    """linear_recursive_problem's arguments at n = d = k = 2, with ``changes`` applied."""
    return dict(dict(b1=np.zeros((2, 2)), b2=np.zeros((2, 2)), b3=np.zeros(2),
                     sigma1=np.zeros((2, 2, 2)), sigma2=np.zeros((2, 2, 2)),
                     sigma3=np.zeros((2, 2)), f1=np.zeros(2), f2=0.5,
                     f3=lambda t, u: (u ** 2).sum(axis=1), alpha=np.zeros(2), gamma=0.0,
                     domain=mc.Box([-1.0, -1.0], [1.0, 1.0], [3, 3]), x0=np.zeros(2),
                     horizon=1.0, n=2, d=2, k=2), **changes)


PROBLEMS = {"lq": (mc.lq_problem, lq_kwargs),
            "linrec": (mc.linear_recursive_problem, linrec_kwargs)}


@pytest.mark.parametrize("problem, name, value, shape", [
    ("lq", "b1", lambda t: np.eye(2), (2, 2)),  # a function of time is not a coefficient
    ("lq", "b1", np.zeros((3, 3)), (2, 2)),
    ("linrec", "b1", lambda t: np.eye(2), (2, 2)),
    ("linrec", "b1", np.zeros((3, 3)), (2, 2)),
    ("linrec", "f2", lambda t: 0.5, ()),
])
def test_malformed_coefficient_is_named(problem, name, value, shape):
    build, kwargs = PROBLEMS[problem]
    message = re.escape(f"{name} must be a constant array of shape {shape}: ")
    with pytest.raises(mc.ConfigurationError, match="^" + message):
        build(**kwargs(**{name: value}))


class TestTreeBruteforce:
    def test_example41_depth3(self):
        bench = mc.example41(0.1)
        tree = mc.tree_bruteforce(bench.spec, bench.domain, 3)
        assert tree.jstar == 0.0
        assert tree.policy_count == 128
        assert tree.decision_nodes == 7
        assert tree.mode == "nonrecombining"

    def test_lq_depth3_policy_space(self):
        bench = mc.lq_desk()
        tree = mc.tree_bruteforce(bench.spec, bench.domain, 3)
        assert tree.policy_count == 3 ** 7
        assert tree.jstar == 0.0

    def test_control_independent_coefficients_all_equal(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.array([1.0]), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0] ** 2)
        dom = mc.FiniteSet([[0.0], [1.0]])
        tree = mc.tree_bruteforce(spec, dom, 3)
        # every policy prices identically, so the best is the first enumerated
        assert np.all(tree.policy == 0.0)
        base = 1.0 + 1.0  # E[X_T^2] = x0^2 + T on the exact tree
        assert tree.jstar == pytest.approx(base, abs=1e-12)

    def test_budget_refusal_includes_count(self, z_driven):
        # f = 5 z fails the comparison condition at depth 4 (5 sqrt(1/4) > 1), so
        # the 3^15 policies of the class would have to be enumerated
        dom = mc.FiniteSet([[-1.0], [0.0], [1.0]])
        with pytest.raises(mc.ConfigurationError, match="14348907"):
            mc.tree_bruteforce(z_driven(5.0), dom, 4)  # 3^15 policies

    def test_depth_and_dimension_guards(self):
        bench = mc.example41(0.1)
        # 4^9 rows of the induction and 2^511 policies are over the budget
        with pytest.raises(mc.ConfigurationError, match="needs 262144 rows"):
            mc.tree_bruteforce(bench.spec, bench.domain, 9)
        # any state dimension prices: X = (W, int u dW), Phi = |x|^2, so
        # J(u) = T + E int u^2 dt, least at u = 0 with J* = T = 1
        spec2 = mc.ProblemSpec.build(
            n=2, d=1, k=1, x0=np.zeros(2), horizon=1.0,
            drift=lambda t, x, u: np.zeros_like(x),
            diffusion=lambda t, x, u: np.stack([np.ones_like(u), u], axis=1),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.sum(x ** 2, axis=1))
        tree = mc.tree_bruteforce(spec2, bench.domain, 3)
        assert tree.jstar == pytest.approx(1.0, abs=1e-12)
        assert np.all(tree.policy == 0.0)
        assert tree.node_states.shape == (7, 2)
        # the tree flips one coin per step
        spec_d2 = mc.ProblemSpec.build(
            n=1, d=2, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.zeros((1, 2))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.zeros(len(x)))
        with pytest.raises(mc.ConfigurationError, match="d = 1"):
            mc.tree_bruteforce(spec_d2, bench.domain, 3)

    def test_stacked_policies_price_as_alone(self):
        # depth 2, nonrecombining: node 0 at step 0, node 1 after an up flip
        # (paths 0, 1), node 2 after a down flip (paths 2, 3)
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: u.astype(float),
            diffusion=lambda t, x, u: np.full((len(x), 1, 1), 0.5),
            driver=lambda t, x, y, z, u: 0.3 * u[:, 0] ** 2 + 0.1 * y + np.sin(z[:, 0]),
            terminal=lambda x: (x[:, 0] - 0.4) ** 2)
        values = [-1.0, 0.0, 1.0]
        dom = mc.FiniteSet([[v] for v in values])
        batch, backend = mc.tree_batch(2), mc.tree_backend(2)
        policies = list(itertools.product(values, repeat=3))   # (root, up, down)
        prices = []
        for a, b, c in policies:
            ctl = mc.ControlField(table=[[a], [b], [c]], index=[[0, 1], [0, 1], [0, 2], [0, 2]])
            fwd = mc.simulate_forward(spec, ctl, batch)
            prices.append(mc.solve_state_bsde(spec, fwd, backend).j_estimate)
        assert len(set(prices)) == 27
        tree = mc.tree_bruteforce(spec, dom, 2)
        best = int(np.argmin(prices))
        assert tree.jstar == min(prices)
        assert tuple(tree.policy[:, 0]) == policies[best]

    def test_ties_go_to_the_first_enumerated_policy(self):
        # X_T = (u_0 + u_1) dt with dt = 1/2 and Phi = (X_T - 1/2)^2: both
        # (root, up, down) = (0, 1, 1) and (1, 0, 0) reach J = 0, and the
        # enumeration (root most significant) meets (0, 1, 1) first
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: u.astype(float),
            diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: (x[:, 0] - 0.5) ** 2)
        tree = mc.tree_bruteforce(spec, mc.FiniteSet([[0.0], [1.0]]), 2)
        assert tree.jstar == 0.0
        assert tree.policy[:, 0].tolist() == [0.0, 1.0, 1.0]

    def test_unknown_mode_refused(self):
        bench = mc.lq_desk()
        with pytest.raises(mc.ConfigurationError, match="^unknown tree mode 'sideways'$"):
            mc.tree_bruteforce(bench.spec, bench.domain, 3, mode="sideways")

    @pytest.mark.parametrize("domain", [mc.FiniteSet([[0.0, 0.0], [1.0, 1.0]]),
                                        mc.Box([-1.0, -1.0], [1.0, 1.0], [3, 2])],
                             ids=["finite-set", "box"])
    def test_domain_of_another_width_refused(self, domain):
        # a k = 2 domain on a k = 1 problem failed with "control/batch dimensions
        # disagree with the problem"
        bench = mc.example41(0.1)
        with pytest.raises(mc.ConfigurationError,
                           match=r"^control domain has k = 2, the problem k = 1$"):
            mc.tree_bruteforce(bench.spec, domain, 3)

    def test_refused_policy_is_named(self):
        # u = 1 drives the state to +inf; policy 4 = (root, up, down) = (1, 0, 0)
        # is the first whose state breaks, at step 1 on every one of its paths
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.where(u == 1.0, np.inf, 0.0),
            diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0] ** 2)
        with pytest.raises(mc.SimulationError) as info:
            mc.tree_bruteforce(spec, mc.FiniteSet([[0.0], [1.0]]), 2)
        assert str(info.value) == ("policy 4 with node controls [[1.0], [0.0], [0.0]] "
                                   "drives the state non-finite at step 1")
        assert (info.value.path, info.value.step) == (0, 1)
        assert isinstance(info.value.__cause__, mc.SimulationError)

    def test_non_finite_cost_names_the_policy(self):
        # f is NaN for u = 2 from t = 0.5 on; policy 2 = (0, 0, 2) is the first
        # whose lower node at step 1 uses u = 2, on paths 2 and 3 of its block
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: u.astype(float),
            diffusion=constant_fn(np.full((1, 1), 0.2)),
            driver=lambda t, x, y, z, u: np.where((u[:, 0] == 2.0) & (t >= 0.5), np.nan,
                                                  0.1 * u[:, 0] ** 2),
            terminal=lambda x: (x[:, 0] - 0.3) ** 2)
        assert mc.tree_bruteforce(spec, mc.FiniteSet([[0.0], [1.0]]), 2).jstar == (
            pytest.approx(0.0593, abs=1e-4))
        with pytest.raises(mc.NumericalError) as info:
            mc.tree_bruteforce(spec, mc.FiniteSet([[0.0], [1.0], [2.0]]), 2)
        assert str(info.value) == ("policy 2 with node controls [[0.0], [0.0], [2.0]] "
                                   "gives a non-finite cost at step 1")
        assert (info.value.path, info.value.step) == (2, 1)
        assert isinstance(info.value.__cause__, mc.NumericalError)

    def test_recombining_mode_counts(self):
        bench = mc.example41(0.1)
        tree = mc.tree_bruteforce(bench.spec, bench.domain, 4, mode="recombining")
        assert tree.mode == "recombining"
        assert tree.decision_nodes == 10          # 1 + 2 + 3 + 4
        assert tree.policy_count == 2 ** 10
        assert tree.jstar == 0.0

    @pytest.mark.parametrize("mode", ["nonrecombining", "recombining"])
    @pytest.mark.parametrize("steps", [7, 8])
    def test_example41_past_six_steps_is_certified(self, steps, mode):
        # the induction's 4^steps rows (65 536 at depth 8) are within the budget
        bench = mc.example41(0.1)
        tree = mc.tree_bruteforce(bench.spec, bench.domain, steps, mode=mode)
        assert not tree.enumerated and tree.jstar == 0.0
        assert tree.decision_nodes == (2 ** steps - 1 if mode == "nonrecombining"
                                       else steps * (steps + 1) // 2)
        assert np.all(tree.policy == 0.0) and np.all(tree.node_states == 0.0)

    def test_lq_desk_depth_7_is_refused_by_the_induction_rows(self):
        # lq declares df = 0, so the answer would be certified, but 6^7 rows are over
        # the budget, and so are 3^127 policies
        bench = mc.lq_desk()
        with pytest.raises(mc.ConfigurationError, match="backward induction needs 279936 rows"):
            mc.tree_bruteforce(bench.spec, bench.domain, 7)

    def test_one_candidate_past_the_path_budget_is_refused_before_any_tree(
            self, monkeypatch):
        # one candidate has one policy at any depth: only the 2^steps paths bound it
        def no_tree(*args):
            raise AssertionError("a tree batch was built")

        monkeypatch.setattr(mc.benchmarks, "tree_batch", no_tree)
        bench = mc.example41(0.1)
        with pytest.raises(mc.ConfigurationError, match=r"2\^18 paths, over the budget"):
            mc.tree_bruteforce(bench.spec, mc.FiniteSet([[0.0]]), 18)

    @pytest.mark.parametrize("mode, count", [
        ("nonrecombining", "2^131071"),
        ("recombining", "11417981541647679048466287755595961091061972992")])
    def test_over_budget_class_is_refused_before_any_tree(self, mode, count, monkeypatch):
        # 4^17 rows and 2^(2^17 - 1) or 2^153 policies: the refusal reads (steps, mode)
        # alone, so it builds no tree batch, node map or other array of the tree
        def no_tree(*args):
            raise AssertionError("a tree batch was built")

        monkeypatch.setattr(mc.benchmarks, "tree_batch", no_tree)
        bench = mc.example41(0.1)
        tracemalloc.start()
        try:
            with pytest.raises(mc.ConfigurationError) as info:
                mc.tree_bruteforce(bench.spec, bench.domain, 17, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"backward induction needs 17179869184 rows, and policy enumeration needs "
            f"{count} evaluations, over the budget of 200000")
        assert peak < 1e6

    @pytest.mark.parametrize("mode", ["nonrecombining", "recombining"])
    def test_node_map_is_read_off_the_path_index(self, mode):
        # the same bytes as the map read off the signs of tree_batch's increments
        for steps in range(1, 9):
            signs = np.sign(mc.tree_batch(steps).increments[:, :, 0])
            want = np.empty(signs.shape, dtype=int)
            for j in range(steps):
                if mode == "nonrecombining":  # the down flips before step j, as bits
                    want[:, j] = 2 ** j - 1 + (signs[:, :j] < 0) @ 2 ** np.arange(j)[::-1]
                else:  # the up flips before step j
                    want[:, j] = j * (j + 1) // 2 + (signs[:, :j] > 0).sum(axis=1)
            got = _node_index_map(steps, mode)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert np.array_equal(np.unique(got), np.arange(_decision_nodes(steps, mode)))

    def test_huge_policy_count_is_named_by_its_power(self, z_driven):
        # 2^16383 policies have more digits than an int prints: the refusal names the power
        dom = mc.FiniteSet([[-0.5], [1.0]])
        with pytest.raises(mc.ConfigurationError,
                           match=r"needs 268435456 rows, and policy enumeration needs 2\^16383"):
            mc.tree_bruteforce(z_driven(5.0), dom, 14)

    def test_tree_backward_is_exact_child_average(self):
        # solver Y on the tree equals the average of the two children plus
        # f dt at every interior node, as computed
        bench = mc.example41(0.2)
        steps = 3
        batch = mc.tree_batch(steps)
        ctl = tree_random_control(bench.domain, steps, 7)
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        bwd = mc.solve_state_bsde(bench.spec, fwd, mc.tree_backend(steps))
        dt = batch.dt
        for j in range(steps - 1, 0, -1):
            block = 2 ** (steps - j)
            ynext = bwd.values[:, j + 1].reshape(-1, block)
            yhat = np.repeat(ynext.mean(axis=1), block)
            zhat = np.repeat(
                (bwd.values[:, j + 1] * batch.increments[:, j, 0])
                .reshape(-1, block).mean(axis=1), block) / dt
            f = bench.spec.driver(batch.grid.nodes[j], fwd.state(j), yhat,
                                  zhat[:, None], ctl.values[:, j, :])
            assert np.array_equal(bwd.values[:, j], yhat + f * dt)


def family_spec(gen):
    """Affine drift and diffusion, a driver in x^2, y, sin z, u^2 and x u, and a
    quadratic terminal cost, with coefficients drawn from ``gen``."""
    a0, a1, a2, s0, s1, s2 = gen.uniform(-0.5, 0.5, 6)
    s0 = 0.3 + abs(s0)
    c = gen.uniform(-0.5, 0.5, 5)
    g, m = gen.uniform(0.2, 1.0), gen.uniform(-0.5, 0.5)
    return mc.ProblemSpec.build(
        n=1, d=1, k=1, x0=np.array([gen.uniform(-0.5, 0.5)]), horizon=1.0,
        drift=lambda t, x, u: a0 + a1 * x + a2 * u,
        diffusion=lambda t, x, u: (s0 + s1 * x + s2 * u)[:, :, None],
        driver=lambda t, x, y, z, u: (c[0] * x[:, 0] ** 2 + c[1] * y + c[2] * np.sin(z[:, 0])
                                      + c[3] * u[:, 0] ** 2 + c[4] * x[:, 0] * u[:, 0]),
        terminal=lambda x: g * (x[:, 0] - m) ** 2,
        bounds=mc.Bounds(df=max(abs(c[1]), abs(c[2]))))  # |f_y| = |c1|, |f_z| <= |c2|


def enumerate_only(monkeypatch, *args, **kwargs):
    """``tree_bruteforce`` with the backward induction never certified."""
    with monkeypatch.context() as patch:
        patch.setattr(mc.benchmarks, "_backward_induction", lambda *a: None)
        return mc.tree_bruteforce(*args, **kwargs)


class TestBackwardInduction:
    def test_matches_the_enumeration_on_random_specs(self, monkeypatch):
        gen = np.random.default_rng(2026)
        fallbacks = {"nonrecombining": 0, "recombining": 0}
        for _ in range(24):
            spec = family_spec(gen)
            for steps, points in ((3, [[-1.0], [0.0], [1.0]]), (4, [[-0.5], [1.0]])):
                dom = mc.FiniteSet(points)
                for mode in fallbacks:
                    tree = mc.tree_bruteforce(spec, dom, steps, mode=mode)
                    reference = enumerate_only(monkeypatch, spec, dom, steps, mode=mode)
                    assert reference.enumerated
                    assert tree.jstar == reference.jstar
                    assert np.array_equal(tree.policy, reference.policy)
                    assert np.array_equal(tree.node_states, reference.node_states)
                    fallbacks[mode] += tree.enumerated
        # the adapted optimum lies outside the recombining class somewhere, and
        # every adapted optimum of the family is certified
        assert fallbacks["recombining"] >= 1
        assert fallbacks["nonrecombining"] == 0

    @pytest.mark.parametrize("c", [-6.0, -2.5, 2.5, 4.0, 6.0])
    def test_failed_comparison_falls_back(self, monkeypatch, z_driven, c):
        # |c| sqrt(1/3) > 1: the one-step map decreases in the down child's value
        dom = mc.FiniteSet([[-1.0], [0.0], [1.0]])
        assert mc.tree_bruteforce(z_driven(c), dom, 3).enumerated  # no bound declared
        assert mc.tree_bruteforce(z_driven(c, df=abs(c)), dom, 3).enumerated
        # within df (sqrt(dt) + dt) < 1 the induction answers
        within = z_driven(c / 8, df=abs(c) / 8)
        tree = mc.tree_bruteforce(within, dom, 3)
        assert not tree.enumerated
        assert tree.jstar == enumerate_only(monkeypatch, within, dom, 3).jstar

    @pytest.mark.parametrize("declared", [False, True])
    @pytest.mark.parametrize("steps, parts, df, optimum, certified_wrong", [
        # f = 0.6 sin(8.4 z + 1.62) at t = 0 only: the root's up child taking a
        # costlier control raises z past the sine's peak and lowers the root's cost
        (2, dict(drift=lambda t, x, u: u.astype(float),
                 diffusion=lambda t, x, u: np.full((len(x), 1, 1), 0.1),
                 driver=lambda t, x, y, z, u: 0.6 * np.sin(8.4 * z[:, 0] + 1.62) * (t < 0.25),
                 terminal=lambda x: 1.6 * (x[:, 0] - 0.1) ** 2),
         0.6 * 8.4, 0.0273292, 0.3248),
        # the cheaper policy departs from the induction two steps below the root
        (3, dict(drift=lambda t, x, u: u - x,
                 diffusion=lambda t, x, u: (0.089 + 0.3 * u)[:, :, None],
                 driver=lambda t, x, y, z, u: (1.2 * np.sin(2.64 * z[:, 0] + 1.31) * (t < 0.36)
                                               - 0.165 * y + 0.2 * u[:, 0] ** 2),
                 terminal=lambda x: 0.41 * (x[:, 0] - 0.086) ** 2),
         1.2 * 2.64, 0.74000, 0.75417),
    ], ids=["depth-2", "depth-3"])
    def test_sine_counterexamples_fall_back(self, monkeypatch, declared, steps, parts, df,
                                            optimum, certified_wrong):
        # f_y and f_z meet |f_z| sqrt(dt) < 1 + f_y dt at every point the induction
        # visits, and an induction certified by that read certified_wrong; the
        # driver's true bound fails df (sqrt(dt) + dt) < 1, so the policies are priced
        spec = mc.ProblemSpec.build(n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
                                    bounds=mc.Bounds(df=df if declared else None), **parts)
        dom = mc.FiniteSet([[-1.0], [0.0], [1.0]])
        tree = mc.tree_bruteforce(spec, dom, steps)
        reference = enumerate_only(monkeypatch, spec, dom, steps)
        assert tree.enumerated
        assert tree.jstar == reference.jstar
        assert np.array_equal(tree.policy, reference.policy)
        assert tree.jstar == pytest.approx(optimum, abs=1e-5)
        assert tree.jstar < certified_wrong - 0.01

    @pytest.mark.parametrize("where, parts, points, error, message", [
        # u = 1 drives X_1 to +inf, first in policy 4 = (root, up, down) = (1, 0, 0)
        ("state", dict(drift=lambda t, x, u: np.where(u == 1.0, np.inf, 0.0),
                       diffusion=constant_fn(np.ones((1, 1))),
                       driver=lambda t, x, y, z, u: np.zeros(len(x)),
                       terminal=lambda x: x[:, 0] ** 2),
         [[0.0], [1.0]], mc.SimulationError,
         "policy 4 with node controls [[1.0], [0.0], [0.0]] drives the state non-finite "
         "at step 1"),
        # Phi is NaN at X_T = u_0 + u_1 = 2, first on the down paths of policy 5 = (1, 0, 1)
        ("terminal", dict(drift=lambda t, x, u: 2.0 * u,
                          diffusion=constant_fn(np.zeros((1, 1))),
                          driver=lambda t, x, y, z, u: np.zeros(len(x)),
                          terminal=lambda x: np.where(x[:, 0] > 1.5, np.nan, x[:, 0])),
         [[0.0], [1.0]], mc.NumericalError,
         "policy 5 with node controls [[1.0], [0.0], [1.0]] gives a non-finite cost at step 2"),
        # f is NaN for u = 2 from t = 0.5 on, first on the down paths of policy 2 = (0, 0, 2)
        ("value", dict(drift=lambda t, x, u: u.astype(float),
                       diffusion=constant_fn(np.full((1, 1), 0.2)),
                       driver=lambda t, x, y, z, u: np.where(
                           (u[:, 0] == 2.0) & (t >= 0.5), np.nan, 0.1 * u[:, 0] ** 2),
                       terminal=lambda x: (x[:, 0] - 0.3) ** 2),
         [[0.0], [1.0], [2.0]], mc.NumericalError,
         "policy 2 with node controls [[0.0], [0.0], [2.0]] gives a non-finite cost at step 1"),
    ], ids=["state", "terminal", "value"])
    def test_non_finite_induction_falls_back_to_the_enumeration(self, monkeypatch, where,
                                                                 parts, points, error, message):
        # df = 0 certifies the comparison, so the induction runs; it meets the
        # non-finite number and answers None, and the enumeration names the policy
        spec = mc.ProblemSpec.build(n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
                                    bounds=mc.Bounds(df=0.0), **parts)
        real, answers = mc.benchmarks._backward_induction, []

        def spy(*args):
            answers.append(real(*args))
            return answers[-1]

        monkeypatch.setattr(mc.benchmarks, "_backward_induction", spy)
        with pytest.raises(error) as info:
            mc.tree_bruteforce(spec, mc.FiniteSet(points), 2)
        assert answers == [None]
        assert str(info.value) == message

    @pytest.mark.parametrize("mode", ["nonrecombining", "recombining"])
    @pytest.mark.parametrize("maker", [mc.example41, lambda L: mc.lq_desk()])
    def test_desk_optimum_at_depth_6(self, maker, mode):
        bench = maker(0.1)
        tree = mc.tree_bruteforce(bench.spec, bench.domain, 6, mode=mode)
        assert tree.jstar == 0.0
        assert not tree.enumerated
        assert np.all(tree.policy == 0.0)


class TestMsaTreeEquivalence:
    @pytest.mark.parametrize("maker", [mc.example41, lambda L: mc.lq_desk()])
    def test_msa_reaches_tree_optimum(self, maker):
        bench = maker(0.1)
        steps = 3
        tree = mc.tree_bruteforce(bench.spec, bench.domain, steps)
        init = tree_random_control(bench.domain, steps, 5)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps, seed=5,
                           max_iters=10)
        res = mc.run_msa(bench.spec, bench.domain, cfg, init, hints=bench.hints,
                         batch=mc.tree_batch(steps, bench.spec.horizon),
                         backend=mc.tree_backend(steps))
        assert abs(res.final_j - tree.jstar) <= 1e-10
