import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import msacontrol as mc
from msacontrol.bsde import _design_matrix, _monomial_plan, _proxies, _step_features
from msacontrol.model import constant_fn
from msacontrol.stochastics import _time_major

from dense_paths import dense_forward


def linear_driver_spec(alpha: float, x0: float) -> mc.ProblemSpec:
    """f = alpha * y, Phi(x) = x, dX = dW: closed-form Y_0 = e^{alpha T} x0."""
    return mc.ProblemSpec.build(
        n=1, d=1, k=1, x0=np.array([x0]), horizon=1.0,
        drift=constant_fn(np.zeros(1)),
        diffusion=constant_fn(np.ones((1, 1))),
        driver=lambda t, x, y, z, u: alpha * y,
        terminal=lambda x: x[:, 0],
        derivatives=dict(
            f_x=lambda t, x, y, z, u: np.zeros((len(x), 1)),
            f_y=lambda t, x, y, z, u: np.full(len(x), alpha),
            f_z=lambda t, x, y, z, u: np.zeros((len(x), 1)),
            f_hess=lambda t, x, y, z, u: np.zeros((len(x), 3, 3)),
            b_x=lambda t, x, u: np.zeros((len(x), 1, 1)),
            sigma_x=lambda t, x, u: np.zeros((len(x), 1, 1, 1)),
            b_xx=lambda t, x, u: np.zeros((len(x), 1, 1, 1)),
            sigma_xx=lambda t, x, u: np.zeros((len(x), 1, 1, 1, 1)),
            phi_x=lambda x: np.ones((len(x), 1)),
            phi_xx=lambda x: np.zeros((len(x), 1, 1))))


def solved(spec, M, N, seed, degree=2):
    batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, N), M, spec.d, seed)
    ctl = mc.constant_control(np.zeros(spec.k), M, N)
    fwd = mc.simulate_forward(spec, ctl, batch)
    bwd = mc.solve_state_bsde(spec, fwd, mc.RegressionBackend(degree=degree))
    return batch, fwd, bwd


def reference_state_bsde(spec, forward, backend):
    """The cost BSDE's own backward loop, before it became a solve_bsde caller."""
    batch, control = forward.batch, forward.control
    M, N, dt = batch.n_paths, batch.grid.steps, batch.dt
    nodes = batch.grid.nodes
    Y = _time_major((M, N + 1))
    Z = _time_major((M, N, spec.d))
    Y[:, N] = spec.terminal(forward.state(N))
    driver_sum = np.zeros(M)
    for j in range(N - 1, -1, -1):
        feats = _step_features(forward.state(j), control.at(j))
        targets = np.concatenate(
            [Y[:, j + 1][:, None], Y[:, j + 1][:, None] * batch.increments[:, j, :]],
            axis=1)
        proj = backend.project(j, feats, targets)
        yhat = proj[:, 0]
        Z[:, j, :] = proj[:, 1:] / dt
        xj = forward.state(j)
        uj = control.at(j)
        Y[:, j] = yhat + spec.driver(nodes[j], xj, yhat, Z[:, j, :], uj) * dt
        driver_sum += Y[:, j] - yhat
    Y[:, 0] = Y[:, N] + driver_sum
    return Y, Z, float(np.mean(Y[:, 0]))


def stacked_tree_inputs(bench, steps, rows, seed):
    """Forward paths of the tree oracle's stacked batch: rows / 2^steps policies."""
    tree = mc.tree_batch(steps, bench.spec.horizon)
    copies = rows // tree.n_paths
    increments = np.tile(tree.increments.swapaxes(0, 1), (1, copies, 1)).swapaxes(0, 1)
    batch = mc.BrownianBatch(tree.grid, increments)
    control = mc.random_control(bench.domain, rows, steps, seed)
    return mc.simulate_forward(bench.spec, control, batch)


class TestCondexpFit:
    """The conditional-expectation fit ``RegressionBackend.project``, checked on its
    in-sample fitted values."""

    def test_constant_targets_reproduced(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 1))
        fitted = mc.RegressionBackend(degree=2).project(0, x, np.full(500, 3.25))
        np.testing.assert_allclose(fitted, 3.25, rtol=0.0, atol=1e-10)

    def test_linear_slope_recovered(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(10_000, 1))
        noise = rng.normal(size=10_000)
        y = 2.0 * x[:, 0] + noise
        fitted = mc.RegressionBackend(degree=1).project(0, x, y)
        slope = np.polyfit(x[:, 0], fitted, 1)[0]
        stderr = 1.0 / np.sqrt(10_000)  # unit noise, unit feature variance
        assert abs(slope - 2.0) < 3 * stderr

    def test_degree_zero_is_sample_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(256, 1))
        y = rng.normal(size=256)
        fitted = mc.RegressionBackend(degree=0).project(0, x, y)
        np.testing.assert_allclose(fitted, y.mean(), rtol=0.0, atol=1e-12)

    def test_fewer_samples_than_basis_functions_refused(self):
        # degree 2 in two features: 1, x, u, x^2, x u, u^2
        rng = np.random.default_rng(3)
        backend = mc.RegressionBackend(degree=2)
        x, u = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        assert backend.project(0, (x, u), rng.normal(size=6)).shape == (6,)
        with pytest.raises(mc.ConfigurationError) as info:
            backend.project(0, (x[:5], u[:5]), rng.normal(size=5))
        assert str(info.value) == ("need at least as many samples (5) as basis "
                                   "functions (6)")

    @pytest.mark.parametrize("design", ["zero", "constant", "binary", "opposite"])
    def test_collinear_design_projects_onto_its_span(self, design):
        # the fitted values of a rank-deficient design are those of least squares
        # on the design with its zero and repeated columns removed
        M = 20_000
        rng = np.random.default_rng(5)
        x, v = rng.normal(size=M), rng.normal(size=M)
        u = rng.integers(0, 2, size=M).astype(float)
        one = np.ones(M)
        features, degree, full_rank = {
            "zero": (np.zeros((M, 1)), 1, one[:, None]),  # a zero column
            "constant": (np.full((M, 1), 0.7), 1, one[:, None]),  # a constant X_0
            "binary": (np.stack([x, u], 1), 2,  # u^2 = u on {0, 1}
                       np.stack([one, x, u, x * x, x * u], 1)),
            "opposite": (np.stack([x, v, -v], 1), 2,  # u_2 = -u_1
                         np.stack([one, x, v, x * x, x * v, v * v], 1)),
        }[design]
        y = rng.normal(size=M) + features.sum(axis=1) + x * x
        fitted = mc.RegressionBackend(degree=degree).project(0, features, y)
        expected = full_rank @ np.linalg.lstsq(full_rank, y, rcond=None)[0]
        if full_rank.shape[1] == 1:
            np.testing.assert_allclose(expected, y.mean(), rtol=1e-14)
        assert np.max(np.abs(fitted - expected)) <= 1e-13 * np.max(np.abs(expected))


def concatenated_projection(degree, features, targets):
    """The regression's fitted values on one concatenated feature array, written
    out as one expression per line: the reference for ``project`` on blocks."""
    A = _design_matrix(features, _monomial_plan(features.shape[1], degree))
    gram = A.T @ A
    scale = np.sqrt(np.diag(gram))
    scale[scale == 0.0] = 1.0
    gram /= scale
    gram /= scale[:, None]
    eigvals, eigvecs = np.linalg.eigh(gram)
    keep = eigvals > 1e-12 * eigvals[-1]
    W = eigvecs[:, keep] / (scale[:, None] * np.sqrt(eigvals[keep]))
    return A @ (W @ (W.T @ (A.T @ targets)))


class TestProjectInPlace:
    """``project`` reads the blocks (X_j, u_j) in place and writes its fitted
    values over the targets it is given as ``out``, with the bits of a fit on
    the concatenated features into a new array."""

    @pytest.mark.parametrize("width", [None, 6], ids=["vector", "matrix"])
    @pytest.mark.parametrize("design", ["generic", "binary", "constant", "opposite", "zero"])
    def test_regression_on_blocks_is_bitwise(self, design, width):
        M = 3_000
        rng = np.random.default_rng(8)
        state, v = rng.normal(size=(M, 2)), rng.normal(size=(M, 1))
        x, u = {
            "generic": (state, v),
            "binary": (state, rng.integers(0, 2, size=(M, 1)).astype(float)),  # u^2 = u
            "constant": (np.full((M, 1), 0.7), v),  # X_0 repeats the intercept
            "opposite": (state[:, :1], np.concatenate([v, -v], axis=1)),  # u_2 = -u_1
            "zero": (state, np.zeros((M, 1))),  # a zero control column
        }[design]
        targets = rng.normal(size=(M,) if width is None else (M, width))
        want = concatenated_projection(2, np.concatenate([x, u], axis=1), targets)
        backend = mc.RegressionBackend(degree=2)
        assert backend.project(3, np.concatenate([x, u], axis=1), targets).tobytes() == \
            want.tobytes()
        out = targets.copy()
        got = backend.project(3, _step_features(x, u), out, out=out)
        assert got is out and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [0, 2, 4])
    def test_tree_into_out_is_bitwise(self, step):
        steps, M = 5, 64
        rng = np.random.default_rng(step)
        targets = rng.normal(size=(M, 3))
        block = 2 ** (steps - step)
        means = np.einsum("gbr->gr", targets.reshape(M // block, block, -1)) / block
        want = np.repeat(means, block, axis=0)
        backend = mc.tree_backend(steps)
        features = _step_features(rng.normal(size=(M, 1)), rng.normal(size=(M, 1)))
        assert backend.project(step, features, targets).tobytes() == want.tobytes()
        out = targets.copy()
        got = backend.project(step, features, out, out=out)
        assert got is out and got.tobytes() == want.tobytes()

    def test_proxies_hold_one_targets_array(self):
        # one _proxies call holds the design while it projects and the proxies
        # once it has, each beside the one targets-sized array that the
        # projection overwrites: no features copy, no second targets array
        M, N, n, d = 4_000, 4, 2, 2
        rng = np.random.default_rng(4)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, d, 4)
        control = mc.random_control(mc.FiniteSet([[0.0], [1.0], [-1.0]]), M, N, 4)
        forward = dense_forward(rng.normal(size=(M, N + 1, n)), control, batch)
        nxt, u = [rng.normal(size=M), rng.normal(size=(M, n))], control.at(1)
        backend = mc.RegressionBackend(degree=2)
        _proxies(nxt, 1, forward, u, backend)  # warm-up: the plan cache stays out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            phats, qs = _proxies(nxt, 1, forward, u, backend)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        design = M * len(_monomial_plan(n + 1, 2)) * 8
        targets = M * (1 + n) * (1 + d) * 8
        proxies = sum(a.nbytes for a in phats + qs)
        # a ufunc reading a strided view (q_j's fitted columns) buffers up to
        # np.getbufsize() elements of it
        buffer = np.getbufsize() * 8
        assert proxies == targets
        assert peak <= targets + max(design, proxies) + buffer + 8192, (peak, design, targets)


class TestSolveStateBsde:
    def test_zero_driver_constant_terminal(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.full(len(x), 4.5))
        M, N = 2000, 10
        _, _, bwd = solved(spec, M, N, 3)
        assert np.allclose(bwd.values, 4.5, atol=1e-9)
        assert bwd.j_estimate == pytest.approx(4.5, abs=1e-9)
        # Z is zero up to increment-regression noise, ~ c / sqrt(M dt) in rms
        rms = np.sqrt(np.mean(bwd.integrand ** 2))
        assert rms < 5 * 4.5 / np.sqrt(M * 0.1)

    def test_zero_driver_constant_terminal_exact_on_tree(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.full(len(x), 4.5))
        steps = 4
        batch = mc.tree_batch(steps)
        ctl = mc.constant_control([0.0], batch.n_paths, steps)
        fwd = mc.simulate_forward(spec, ctl, batch)
        bwd = mc.solve_state_bsde(spec, fwd, mc.tree_backend(steps))
        assert np.all(bwd.values == 4.5)
        assert np.all(bwd.integrand == 0.0)
        assert bwd.j_estimate == 4.5

    def test_example41_zero_control_cost_is_exactly_zero(self):
        spec = mc.example41(0.1).spec
        _, _, bwd = solved(spec, 5000, 20, 4)
        assert bwd.j_estimate == 0.0
        assert np.all(bwd.values == 0.0)
        assert np.all(bwd.integrand == 0.0)

    def test_linear_driver_zero_start(self):
        _, _, bwd = solved(linear_driver_spec(0.5, 0.0), 100_000, 20, 42)
        assert abs(bwd.j_estimate) < 3 * bwd.j_stderr

    def test_linear_driver_matches_discrete_closed_form(self):
        # the scheme compounds (1 + alpha dt) per step on a martingale state,
        # so J must equal (1 + alpha dt)^N * mean(X_T) to solver precision
        spec = linear_driver_spec(0.5, 1.0)
        N = 20
        batch, fwd, bwd = solved(spec, 50_000, N, 42)
        factor = (1 + 0.5 * batch.grid.dt) ** N
        assert bwd.j_estimate == pytest.approx(
            factor * fwd.state(N)[:, 0].mean(), abs=1e-10)

    def test_terminal_condition_bitwise(self):
        spec = linear_driver_spec(0.3, 0.5)
        _, fwd, bwd = solved(spec, 3000, 10, 5)
        assert np.array_equal(bwd.values[:, -1], spec.terminal(fwd.state(10)))

    def test_tower_property_zero_driver(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.cos(x[:, 0]))
        _, _, bwd = solved(spec, 50_000, 20, 6)
        means = bwd.values.mean(axis=0)
        stderr = bwd.values[:, -1].std(ddof=1) / np.sqrt(50_000)
        assert np.max(np.abs(means - means[-1])) < 3 * stderr

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_basis_degree_consistency(self, degree):
        _, _, bwd = solved(linear_driver_spec(0.5, 0.0), 50_000, 20, 7,
                           degree=degree)
        assert abs(bwd.j_estimate) < 3 * bwd.j_stderr + 1e-3

    @pytest.mark.parametrize("case", ["regression d=1", "regression d=2", "tree"])
    def test_matches_reference_loop_bitwise(self, case, curvature_spec):
        if case == "tree":
            bench, steps = mc.example41(0.5), 4
            spec, backend = bench.spec, mc.tree_backend(steps)
            batch = mc.tree_batch(steps)
            control = mc.benchmarks.tree_random_control(bench.domain, steps, 3)
        else:
            if case == "regression d=1":
                bench = mc.example41(0.5)
                spec, domain = bench.spec, bench.domain
            else:
                spec = curvature_spec
                domain = mc.FiniteSet([[0.0, 0.0], [1.0, -1.0], [-0.5, 0.5]])
            backend = mc.RegressionBackend(degree=2)
            batch = mc.sample_brownian(mc.TimeGrid(1.0, 8), 600, spec.d, 3)
            control = mc.random_control(domain, 600, 8, 3)
        forward = mc.simulate_forward(spec, control, batch)
        want_y, want_z, want_j = reference_state_bsde(spec, forward, backend)
        got = mc.solve_state_bsde(spec, forward, backend)
        assert np.array_equal(got.values, want_y)
        assert np.array_equal(got.integrand, want_z)
        assert got.j_estimate == want_j
        assert np.any(want_z != 0.0)
        assert np.array_equal(mc.pathwise_cost(spec, forward, backend), want_y[:, 0])

    def test_non_finite_driver_names_step_and_path(self):
        grid = mc.TimeGrid(1.0, 5)
        base = linear_driver_spec(0.5, 1.0)

        def driver(t, x, y, z, u):
            out = base.driver(t, x, y, z, u)
            if t == grid.nodes[2]:
                out[5] = np.nan
            return out

        spec = dataclasses.replace(base, driver=driver)
        batch = mc.sample_brownian(grid, 200, 1, 1)
        ctl = mc.constant_control([0.0], 200, 5)
        fwd = mc.simulate_forward(spec, ctl, batch)
        with pytest.raises(mc.NumericalError,
                           match=r"^step 2: non-finite solution on path 5$") as info:
            mc.solve_state_bsde(spec, fwd, mc.RegressionBackend())
        assert (info.value.path, info.value.step) == (5, 2)
        cfg = mc.MsaConfig(rho=0.0, n_paths=200, steps=5, seed=1, max_iters=1)
        with pytest.raises(mc.NumericalError,
                           match=r"^iteration 1: step 2: non-finite solution on path 5$"):
            mc.run_msa(spec, mc.FiniteSet([[0.0]]), cfg, ctl, batch=batch)

    def test_stacked_oracle_peak_heap_within_one_path_array(self):
        # 8 192 rows, the tree oracle's chunk: the sweep may hold at most one
        # more (M,) float array at its peak than the cost loop it replaced
        steps, rows = 5, 8192
        reference = stacked_pricing_peak(reference_state_bsde, steps, rows)
        assert stacked_pricing_peak(mc.solve_state_bsde, steps, rows) <= reference + 8 * rows

    def test_pathwise_cost_peak_heap_below_the_stored_horizons(self):
        # the oracle's 8 192-row chunk priced without Y (N+1 floats per row) and
        # Z (N d floats per row). The slack: Phi(X_T) and Y_{j+1}, which the
        # stored pass keeps as views of Y, are (M,) arrays of their own here;
        # 4 KiB more covers small objects
        steps, rows, d = 5, 8192, 1
        horizons = (steps + 1 + steps * d) * rows * 8
        slack = 2 * 8 * rows + 4096
        assert (stacked_pricing_peak(mc.pathwise_cost, steps, rows)
                <= stacked_pricing_peak(mc.solve_state_bsde, steps, rows) - horizons + slack)

    def test_tree_pricing_makes_no_features_copy(self, monkeypatch):
        # the tree backend reads no features and writes over the targets: the
        # oracle's 8 192-row chunk grows the heap by at least one (M, n + k) float
        # array less than with each step's features and fitted values copied
        steps, rows = 5, 8192
        spec = mc.example41(0.1).spec
        in_place = stacked_pricing_peak(mc.pathwise_cost, steps, rows)
        monkeypatch.setattr(mc.bsde, "_proxies", copying_proxies)
        copying = stacked_pricing_peak(mc.pathwise_cost, steps, rows)
        assert in_place <= copying - 8 * rows * (spec.n + spec.k), (in_place, copying)


def poisoned_terminal(spec, path, value):
    """``spec`` with Phi(X_T) replaced by ``value`` on one path."""
    def terminal(x):
        out = np.array(spec.terminal(x), dtype=float)
        out[path] = value
        return out

    return dataclasses.replace(spec, terminal=terminal)


class TestSweepGuards:
    """``solve_bsde``'s guards, shared by every backward solve: the tree depth, the
    finite terminals and carries, and the step that a failure names."""

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
    @pytest.mark.parametrize("solve", ["pathwise_cost", "solve_state_bsde", "run_msa"])
    def test_non_finite_terminal_names_step_n_and_its_path(self, solve, value):
        # a +inf Phi(X_T) reached the regression, whose matmul warned (an error
        # under this suite's -W error) before any step was named
        N, M, bad = 5, 200, 17
        spec = poisoned_terminal(linear_driver_spec(0.5, 1.0), bad, value)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 1)
        ctl = mc.constant_control([0.0], M, N)
        prefix = "iteration 1: " if solve == "run_msa" else ""
        with pytest.raises(mc.NumericalError,
                           match=rf"^{prefix}step {N}: non-finite solution on path {bad}$") \
                as info:
            if solve == "run_msa":
                cfg = mc.MsaConfig(rho=0.0, n_paths=M, steps=N, seed=1, max_iters=1)
                mc.run_msa(spec, mc.FiniteSet([[0.0]]), cfg, ctl, batch=batch)
            else:
                getattr(mc, solve)(spec, mc.simulate_forward(spec, ctl, batch),
                                   mc.RegressionBackend())
        assert (info.value.path, info.value.step) == (bad, N)

    @pytest.mark.parametrize("depth", [5, 3])
    @pytest.mark.parametrize("solve", ["pathwise_cost", "solve_state_bsde",
                                       "first_order_adjoint"])
    def test_tree_backend_of_another_depth_refused(self, solve, depth):
        # two groups of a 4-step tree are 32 paths, a multiple of a 5-step tree's
        # 32: the 5-step backend averaged across the groups and priced this
        # example41(0.5) batch at 0.0074 against 0.0870, with no error
        bench, steps = mc.example41(0.5), 4
        forward = stacked_tree_inputs(bench, steps, 2 * 2 ** steps, 3)
        right = mc.tree_backend(steps)
        args = (bench.spec, forward)
        if solve == "first_order_adjoint":
            args += (mc.solve_state_bsde(bench.spec, forward, right),)
        getattr(mc, solve)(*args, right)
        with pytest.raises(mc.ConfigurationError,
                           match=f"^tree backend has {depth} steps, the batch {steps}$"):
            getattr(mc, solve)(*args, mc.tree_backend(depth))

    @pytest.mark.parametrize("case", ["regression", "tree"])
    def test_pathwise_cost_is_the_stored_y0(self, case):
        bench = mc.example41(0.5)
        if case == "tree":
            steps, backend = 4, mc.tree_backend(4)
            forward = stacked_tree_inputs(bench, steps, 2 ** steps, 3)
        else:
            backend, N, M = mc.RegressionBackend(), 8, 600
            batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 3)
            forward = mc.simulate_forward(bench.spec,
                                          mc.random_control(bench.domain, M, N, 3), batch)
        stored = mc.solve_state_bsde(bench.spec, forward, backend)
        y0 = mc.pathwise_cost(bench.spec, forward, backend)
        assert y0.tobytes() == stored.values[:, 0].tobytes()
        assert stored.j_estimate == mc.bsde.cost_estimate(y0)[0]

    def test_solve_bsde_returns_step_0s_carries(self):
        M, N = 64, 4
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 2)
        fwd = dense_forward(np.zeros((M, N + 1, 1)), mc.constant_control([0.0], M, N), batch)
        terminals = [np.full(M, 2.0), np.full((M, 2), 3.0)]
        steps = []

        def step(j, u, phats, qs):
            steps.append(j)
            return [phats[0] + 1.0, phats[1] * 2.0]

        y0, p0 = mc.solve_bsde(terminals, step, fwd, mc.RegressionBackend(degree=0))
        assert terminals == [] and steps == [3, 2, 1, 0]
        assert np.allclose(y0, 2.0 + N) and np.allclose(p0, 3.0 * 2 ** N)


def copying_proxies(nxt, j, forward, u, backend):
    """``bsde._proxies`` with copies: the features (X_j, u_j) and the stacked targets
    concatenated, and the fitted values returned in a new array."""
    batch = forward.batch
    M, d = batch.n_paths, batch.d
    flat = np.concatenate([p.reshape(M, -1) for p in nxt], axis=1)
    R = flat.shape[1]
    targets = np.concatenate(
        [flat, (flat[:, :, None] * batch.increments[:, j, None, :]).reshape(M, R * d)], axis=1)
    del flat
    proj = backend.project(j, np.concatenate([forward.state(j), u], axis=1), targets)
    del targets
    phats, qs, col = [], [], 0
    for p in nxt:
        r = p.size // M
        phats.append(proj[:, col:col + r].reshape(p.shape).copy())
        qs.append(proj[:, R + col * d:R + (col + r) * d].reshape(p.shape + (d,)) / batch.dt)
        col += r
    return phats, qs


def stacked_pricing_peak(solve, steps, rows):
    """tracemalloc peak of ``solve`` pricing example41 on a stacked tree batch."""
    bench = mc.example41(0.1)
    forward = stacked_tree_inputs(bench, steps, rows, 2)
    backend = mc.tree_backend(steps)
    solve(bench.spec, forward, backend)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solve(bench.spec, forward, backend)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def solve_one(terminal, step, batch, states, backend):
    """p (M, N+1, r) and q (M, N, r, d) of one equation, stored from solve_bsde's step
    along the given (M, N+1, n) states under a zero control."""
    M, N = batch.n_paths, batch.grid.steps
    fwd = dense_forward(states, mc.constant_control([0.0], M, N), batch)
    p = np.empty((M, N + 1) + terminal.shape[1:])
    q = np.empty((M, N) + terminal.shape[1:] + (batch.d,))
    p[:, N] = terminal

    def store(j, u, phats, qs):
        q[:, j] = qs[0]
        p[:, j] = step(j, phats[0], qs[0])
        return [p[:, j]]

    mc.solve_bsde([terminal], store, fwd, backend)
    return p, q


class TestSolveLinearBsde:
    """solve_bsde on linear equations."""

    def test_all_zero_coefficients_constant_solution(self):
        M, N, r, d = 5000, 8, 2, 1
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, d, 1)
        terminal = np.tile([1.5, -2.0], (M, 1))
        p, q = solve_one(terminal, lambda j, phat, qj: phat, batch,
                         np.zeros((M, N + 1, 1)), mc.RegressionBackend(degree=0))
        assert np.allclose(p, terminal[:, None, :], atol=1e-9)
        # q targets are const * dW: zero up to mean-of-increment noise
        assert np.max(np.abs(q)) < 5 * 2.0 / np.sqrt(M * batch.dt)

    def test_deterministic_ode_oracle(self):
        # drift A' p with A deterministic, deterministic terminal: p solves the
        # linear ODE p' = -A' p; independent oracle via scipy RK45
        N, M = 200, 64
        a_mat = np.array([[0.3, -0.2], [0.1, 0.4]])
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 2)
        terminal = np.tile([1.0, 0.5], (M, 1))
        p, q = solve_one(
            terminal, lambda j, phat, qj: phat + phat @ a_mat * batch.dt,
            batch, np.zeros((M, N + 1, 1)), mc.RegressionBackend(degree=0))
        sol = solve_ivp(lambda t, y: -a_mat.T @ y, (1.0, 0.0), [1.0, 0.5],
                        rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(p[:, 0, :] - sol.y[:, -1])) < 1e-3

    def test_zero_driver_reduction_preserves_mean(self):
        M, N = 5000, 10
        rng = np.random.default_rng(3)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 3)
        terminal = rng.normal(size=(M, 1))
        # random regression features: the zero control adds only zero columns
        p, _ = solve_one(terminal, lambda j, phat, qj: phat, batch,
                         rng.normal(size=(M, N + 1, 1)), mc.RegressionBackend(degree=2))
        assert p[:, 0, 0].mean() == pytest.approx(terminal.mean(), abs=1e-9)
        assert np.array_equal(p[:, -1, :], terminal)


class TestExactTreeBackend:
    def test_block_means(self):
        backend = mc.ExactTreeBackend(steps=3)
        targets = np.arange(8.0)[:, None]
        # conditioning on the first flip averages each half
        out = backend.project(1, None, targets)
        assert np.allclose(out[:4], 1.5)
        assert np.allclose(out[4:], 5.5)
        # conditioning on the first two flips (the last step) averages each pair
        assert np.array_equal(backend.project(2, None, targets),
                              np.repeat([[0.5], [2.5], [4.5], [6.5]], 2, axis=0))

    @pytest.mark.parametrize("step", [-1, 3, 4])
    def test_step_outside_the_tree_refused(self, step):
        # a step past the depth made a block of 2^(steps - step) paths: 1 at
        # step == steps, and a float, a bare TypeError, beyond it
        with pytest.raises(mc.ConfigurationError,
                           match=f"tree backend of 3 steps has no step {step}"):
            mc.ExactTreeBackend(steps=3).project(step, None, np.zeros((8, 1)))

    def test_stacked_batch_projects_each_group_alone(self):
        backend = mc.ExactTreeBackend(steps=3)
        targets = np.random.default_rng(3).normal(size=(16, 2))
        for step in range(3):
            stacked = backend.project(step, None, targets)
            alone = [backend.project(step, None, half) for half in (targets[:8], targets[8:])]
            assert np.array_equal(stacked, np.concatenate(alone))

    @pytest.mark.parametrize("steps", [2.5, 0, -1, True])
    def test_depth_must_be_a_positive_integer(self, steps):
        # 2.5 was accepted, and its first project asked for a multiple of 5.66 paths
        with pytest.raises(mc.ConfigurationError, match="steps must be an integer >= 1"):
            mc.ExactTreeBackend(steps=steps)

    def test_path_count_must_be_a_multiple_of_the_tree(self):
        with pytest.raises(mc.ConfigurationError, match="multiple of 8"):
            mc.ExactTreeBackend(steps=3).project(1, None, np.zeros((12, 2)))
