import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import msacontrol as mc
from msacontrol.adjoint import _upsilon_batch
from msacontrol.bsde import BackwardPaths
from msacontrol.model import constant_fn
from msacontrol.stochastics import BrownianBatch, ControlField

from dense_paths import dense_forward


def zero_spec(n=1, d=1, k=1):
    return mc.ProblemSpec.build(
        n=n, d=d, k=k, x0=np.zeros(n), horizon=1.0,
        drift=constant_fn(np.zeros(n)), diffusion=constant_fn(np.zeros((n, d))),
        driver=lambda t, x, y, z, u: np.zeros(len(x)),
        terminal=lambda x: np.zeros(len(x)))


def pipeline(bench, M, N, seed, control=None, backend=None):
    backend = backend or mc.RegressionBackend()
    batch = mc.sample_brownian(mc.TimeGrid(bench.spec.horizon, N), M, bench.spec.d, seed)
    ctl = control if control is not None else mc.random_control(bench.domain, M, N, seed)
    fwd = mc.simulate_forward(bench.spec, ctl, batch)
    bwd = mc.solve_state_bsde(bench.spec, fwd, backend)
    first = mc.first_order_adjoint(bench.spec, fwd, bwd, backend)
    return batch, fwd, bwd, first


def nontrivial_linrec():
    """Linear recursive instance with a genuinely time-varying costate."""
    return mc.linear_recursive_problem(
        b1=[[-0.2]], b2=[[0.3]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
        sigma2=np.full((1, 1, 1), 0.5), sigma3=np.full((1, 1), 0.2),
        f1=[0.3], f2=0.4, f3=lambda t, u: u[:, 0] ** 2,
        alpha=[1.0], gamma=0.0,
        domain=mc.Box([-1.0], [1.0], [3]), x0=np.array([0.5]), horizon=1.0)


def random_curvature_case(n, d, N, M, seed=123):
    """Constant random derivatives and random paths for the second-order solve.

    Returns (spec, forward, backward, control, first, constants); the
    constants (BX, SX, BXX, SXX, FZ, FY, H0, PHIXX) are the derivative values
    a reference recursion needs.
    """
    rng = np.random.default_rng(seed)
    mdim = n + 1 + d
    BX = rng.normal(size=(n, n))
    SX = rng.normal(size=(d, n, n))
    BXX = rng.normal(size=(n, n, n))
    BXX = 0.5 * (BXX + BXX.transpose(0, 2, 1))
    SXX = rng.normal(size=(d, n, n, n))
    SXX = 0.5 * (SXX + SXX.transpose(0, 1, 3, 2))
    FZ = rng.normal(size=d)
    FY = rng.normal()
    H0 = rng.normal(size=(mdim, mdim))
    H0 = 0.5 * (H0 + H0.T)
    PHIXX = rng.normal(size=(n, n))
    PHIXX = 0.5 * (PHIXX + PHIXX.T)
    deriv = dict(
        b_x=constant_fn(BX), sigma_x=constant_fn(SX), b_xx=constant_fn(BXX),
        sigma_xx=constant_fn(SXX),
        f_x=lambda t, x, y, z, u: np.zeros((len(x), n)),
        f_y=lambda t, x, y, z, u: np.full(len(x), FY),
        f_z=lambda t, x, y, z, u: np.broadcast_to(FZ, (len(x), d)).copy(),
        f_hess=lambda t, x, y, z, u: np.broadcast_to(H0, (len(x), mdim, mdim)).copy(),
        phi_x=lambda x: np.zeros((len(x), n)),
        phi_xx=lambda x: np.broadcast_to(PHIXX, (len(x), n, n)).copy())
    spec = mc.ProblemSpec.build(
        n=n, d=d, k=1, x0=np.zeros(n), horizon=1.0,
        drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t, x, u: np.zeros((len(x), n, d)),
        driver=lambda t, x, y, z, u: np.zeros(len(x)),
        terminal=lambda x: np.zeros(len(x)), derivatives=deriv)
    grid = mc.TimeGrid(1.0, N)
    dW = rng.normal(size=(M, N, d)) * np.sqrt(grid.dt)
    batch = BrownianBatch(grid, dW)
    X = rng.normal(size=(M, N + 1, n))
    Yv = rng.normal(size=(M, N + 1))
    Zv = rng.normal(size=(M, N, d))
    ctl = ControlField(table=rng.normal(size=(M * N, 1)), index=np.arange(M * N).reshape(M, N))
    fwd = dense_forward(X, ctl, batch)
    bwd = BackwardPaths(values=Yv, integrand=Zv, j_estimate=0.0, j_stderr=0.0)
    first = mc.FirstOrderAdjoint(p=rng.normal(size=(M, N + 1, n)),
                                 q=rng.normal(size=(M, N, n, d)))
    return spec, fwd, bwd, ctl, first, (BX, SX, BXX, SXX, FZ, FY, H0, PHIXX)


class TestStepPoint:
    @pytest.mark.parametrize("name", ["b_xx", "f_hess", "phi_x", "sigma"])
    def test_names_other_than_its_five_derivatives_refused(self, name):
        # b_xx, f_hess and phi_x are in the bundle, but a step's node reads only
        # f_z, f_y, f_x, sigma_x and b_x
        x = np.zeros((3, 1))
        point = mc.adjoint.StepPoint(mc.example41(0.1).spec, 0.0, x, np.zeros(3), x, x)
        with pytest.raises(AttributeError, match=f"^{name}$"):
            getattr(point, name)
        assert point.f_z.shape == (3, 1) and not hasattr(point, name)


class TestFirstOrderAdjoint:
    def test_example41_constant_costate(self):
        # truth is p = L, q = 0; the estimate deviates through the
        # f_z * q-hat drift feedback, at the increment-regression noise scale
        bench = mc.example41(0.1)
        _, _, _, first = pipeline(bench, 20_000, 20, 5)
        assert np.max(np.abs(first.p - 0.1)) < 5e-3
        assert np.sqrt(np.mean(first.q ** 2)) < 1e-2
        p0 = first.p[:, 0, 0]
        assert abs(p0.mean() - 0.1) < 5e-4  # in-sample drift noise, O(basis/M)

    def test_example41_exact_on_tree(self):
        bench = mc.example41(0.1)
        steps = 4
        batch = mc.tree_batch(steps)
        ctl = mc.constant_control([0.0], batch.n_paths, steps)
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        bwd = mc.solve_state_bsde(bench.spec, fwd, mc.tree_backend(steps))
        first = mc.first_order_adjoint(bench.spec, fwd, bwd, mc.tree_backend(steps))
        # exact up to float summation order inside the block means
        assert np.max(np.abs(first.p - 0.1)) < 1e-14
        assert np.max(np.abs(first.q)) < 1e-14

    def test_example41_hint_matches_regression(self):
        bench = mc.example41(0.1)
        steps = 4
        hint = bench.hints.first_order_ode(mc.TimeGrid(1.0, steps))
        assert np.all(hint == 0.1)
        # exact conditional expectations: the regression solve is the hint
        batch = mc.tree_batch(steps)
        ctl = mc.benchmarks.tree_random_control(bench.domain, steps, 3)
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        bwd = mc.solve_state_bsde(bench.spec, fwd, mc.tree_backend(steps))
        first = mc.first_order_adjoint(bench.spec, fwd, bwd, mc.tree_backend(steps))
        assert np.max(np.abs(first.p - hint[None])) < 1e-9
        assert np.max(np.abs(first.q)) < 1e-9
        # Monte Carlo: the projections keep the mean, so mean q is the mean of
        # the raw targets p_{j+1} dW_j / dt, whose per-path stderr bounds it
        batch, _, _, first = pipeline(bench, 4000, 20, 12)
        q = first.q[:, :, 0, 0]
        raw = (first.p[:, 1:, 0] * batch.increments[:, :, 0] / batch.dt).mean(axis=1)
        assert abs(q.mean()) <= 3 * raw.std(ddof=1) / np.sqrt(len(raw))

    def test_non_finite_costate_names_step_and_path(self):
        bench = mc.example41(0.1)
        steps = 3

        def phi_x(x):
            out = np.full((len(x), 1), 0.1)
            out[6] = np.nan
            return out

        spec = dataclasses.replace(bench.spec, derivatives=dataclasses.replace(
            bench.spec.derivatives, phi_x=phi_x))
        batch = mc.tree_batch(steps)
        ctl = mc.constant_control([0.0], batch.n_paths, steps)
        fwd = mc.simulate_forward(spec, ctl, batch)
        bwd = mc.solve_state_bsde(spec, fwd, mc.tree_backend(steps))
        # the tree backend keeps the NaN inside its block of paths 6 and 7
        with pytest.raises(mc.NumericalError,
                           match=r"^step 2: non-finite solution on path 6$"):
            mc.first_order_adjoint(spec, fwd, bwd, mc.tree_backend(steps))

    def test_zero_spec(self):
        bench = mc.Benchmark(name="zero", spec=zero_spec(), domain=mc.FiniteSet([[0.0]]),
                             rho=0.0, hints=mc.RunHints())
        _, _, _, first = pipeline(bench, 500, 10, 1)
        assert np.all(first.p == 0.0)
        assert np.all(first.q == 0.0)

    def test_linear_recursive_matches_ode(self):
        bench = nontrivial_linrec()
        N = 20
        _, _, _, first = pipeline(bench, 10_000, N, 2)
        p_ode = mc.ode_adjoint_linear([0.3], 0.4, [[-0.2]], [1.0], mc.TimeGrid(1.0, N))
        mc_mean = first.p[:, :, 0].mean(axis=0)
        assert np.max(np.abs(mc_mean - p_ode[:, 0])) < 1e-2


class TestSecondOrderAdjoint:
    def test_example41_vanishes_along_optimum(self):
        bench = mc.example41(0.1)
        M, N = 5000, 20
        ctl = mc.constant_control([0.0], M, N)
        _, fwd, bwd, first = pipeline(bench, M, N, 3, control=ctl)
        second = mc.second_order_adjoint(bench.spec, fwd, bwd, first, mc.RegressionBackend())
        assert np.max(np.abs(second.P)) < 1e-8
        # the nodes example41 hints in place of this solve are those zeros
        nodes = bench.hints.second_order_ode(mc.TimeGrid(1.0, N))
        assert nodes.shape == (N + 1, 1, 1) and not np.any(nodes)

    def test_lq_matches_deterministic_ode(self):
        bench = mc.lq_desk()
        N = 20
        _, fwd, bwd, first = pipeline(bench, 5000, N, 4)
        second = mc.second_order_adjoint(bench.spec, fwd, bwd, first, mc.RegressionBackend())
        P_ode = mc.lq_second_order_ode([[1.0]], [[1.0]], [[0.0]], mc.TimeGrid(1.0, N))
        diff = np.abs(second.P[:, :, 0, 0] - P_ode[None, :, 0, 0])
        assert np.max(diff) < 1e-2
        assert second.asymmetry < 1e-6
        # symmetry after projection is exact
        assert np.array_equal(second.P, second.P.transpose(0, 1, 3, 2))

    def test_zero_spec_vanishes(self):
        bench = mc.Benchmark(name="zero", spec=zero_spec(), domain=mc.FiniteSet([[0.0]]),
                             rho=0.0, hints=mc.RunHints())
        _, fwd, bwd, first = pipeline(bench, 200, 5, 5)
        second = mc.second_order_adjoint(bench.spec, fwd, bwd, first,
                                         mc.RegressionBackend(degree=0))
        assert np.all(second.P == 0.0)

    def test_declared_zero_hessians_are_not_evaluated(self):
        spec, fwd, bwd, ctl, first, _ = random_curvature_case(3, 2, 2, 40)
        calls = []

        def zero_spy(name, shape):
            def spy(t, x, u):
                calls.append(name)
                return np.zeros((len(x),) + shape)
            return spy

        dv = dataclasses.replace(spec.derivatives, b_xx=zero_spy("b_xx", (3, 3, 3)),
                                 sigma_xx=zero_spy("sigma_xx", (2, 3, 3, 3)))

        def psi(structure):
            flagged = dataclasses.replace(spec, derivatives=dv, structure=structure)
            point = mc.adjoint.StepPoint(flagged, 0.5, fwd.state(1), bwd.values[:, 1],
                                         bwd.integrand[:, 1], ctl.values[:, 1])
            return mc.adjoint.psi_matrix(point, first.p[:, 1], first.q[:, 1])

        full = psi(mc.Structure())
        assert sorted(calls) == ["b_xx", "sigma_xx"]
        calls.clear()
        skipped = psi(mc.Structure(b_xx_zero=True, sigma_xx_zero=True))
        assert calls == []
        assert np.array_equal(skipped, full)

    @pytest.mark.parametrize("n, d", [(2, 1), (3, 2)])
    def test_vectorized_step_matches_direct_matrix_recursion(self, n, d):
        N, M = 3, 1
        spec, fwd, bwd, _, first, consts = random_curvature_case(n, d, N, M)
        BX, SX, BXX, SXX, FZ, FY, H0, PHIXX = consts
        dW, dt = fwd.batch.increments, fwd.batch.dt
        p1, q1 = first.p, first.q
        sol = mc.second_order_adjoint(spec, fwd, bwd, first, mc.RegressionBackend(degree=0))
        # independent straightforward recursion, matrix by matrix
        P = PHIXX.copy()
        expected = [None] * (N + 1)
        expected[N] = P.copy()
        for j in range(N - 1, -1, -1):
            Qs = [P * dW[0, j, i] / dt for i in range(d)]
            drift = FY * P + BX.T @ P + P.T @ BX
            for i in range(d):
                sx = SX[i]
                drift = drift + FZ[i] * (sx.T @ P + P.T @ sx) + sx.T @ P @ sx
                drift = drift + FZ[i] * Qs[i] + sx.T @ Qs[i] + Qs[i].T @ sx
            p = p1[0, j]
            q = q1[0, j]
            ups = np.zeros((n, d))
            for i in range(d):
                ups[:, i] = SX[i].T @ p + q[:, i]
            psi = np.zeros((n, n))
            for jj in range(n):
                psi = psi + BXX[jj] * p[jj]
            for i in range(d):
                for jj in range(n):
                    psi = psi + SXX[i, jj] * (FZ[i] * p[jj] + q[jj, i])
            mm = np.concatenate([np.eye(n), p[:, None], ups], axis=1)
            psi = psi + mm @ H0 @ mm.T
            P = P + (drift + psi) * dt
            expected[j] = P.copy()
        worst = max(np.max(np.abs(sol.P[0, j] - expected[j])) for j in range(N + 1))
        assert worst < 1e-12

    def test_each_derivative_is_evaluated_once_per_step(self):
        N = 4
        spec, fwd, bwd, _, first, _ = random_curvature_case(2, 1, N, 50)
        calls = {"sigma_x": 0, "f_z": 0}

        def counted(name):
            fn = getattr(spec.derivatives, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        dv = dataclasses.replace(spec.derivatives, sigma_x=counted("sigma_x"),
                                 f_z=counted("f_z"))
        counted_spec = dataclasses.replace(spec, derivatives=dv)
        backend = mc.RegressionBackend(degree=1)
        sol = mc.second_order_adjoint(counted_spec, fwd, bwd, first, backend)
        assert calls == {"sigma_x": N, "f_z": N}
        ref = mc.second_order_adjoint(spec, fwd, bwd, first, backend)
        assert np.array_equal(sol.P, ref.P) and np.array_equal(sol.Q, ref.Q)

    def test_peak_memory_grows_like_the_solution(self):
        # the shape of the n=4 curvature benchmark: n=4, d=2, M=400; no
        # coefficient tensor may span the horizon, so from N=10 to N=40 the
        # peak grows about as much as the returned P and Q do
        def peak_and_output(N):
            spec, fwd, bwd, _, first, _ = random_curvature_case(4, 2, N, 400)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sol = mc.second_order_adjoint(spec, fwd, bwd, first, mc.RegressionBackend())
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(sol.P))
            return peak, sol.P.nbytes + sol.Q.nbytes

        peak_short, out_short = peak_and_output(10)
        peak_long, out_long = peak_and_output(40)
        assert peak_long - peak_short <= 1.5 * (out_long - out_short)


class TestUpsilon:
    # column i = (sigma_x^i)' p + q^i, at one point as a one-row batch
    def test_zero_inputs(self):
        spec = zero_spec()
        sx = spec.derivatives.sigma_x(0.0, np.zeros((1, 1)), np.zeros((1, 1)))
        out = _upsilon_batch(sx, np.ones((1, 1)), np.zeros((1, 1, 1)))[0]
        assert np.all(out == 0.0)

    def test_scalar_formula(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)),
            diffusion=lambda t, x, u: (2.0 * x)[:, :, None],
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.zeros(len(x)),
            derivatives=dict(sigma_x=lambda t, x, u: np.full((len(x), 1, 1, 1), 2.0)))
        sx = spec.derivatives.sigma_x(0.0, np.ones((1, 1)), np.zeros((1, 1)))
        out = _upsilon_batch(sx, np.full((1, 1), 3.0), np.full((1, 1, 1), 5.0))[0]
        assert out[0, 0] == pytest.approx(11.0)

    def test_example41_vanishes(self):
        spec = mc.example41(0.2).spec
        sx = spec.derivatives.sigma_x(0.5, np.zeros((1, 1)), np.zeros((1, 1)))
        out = _upsilon_batch(sx, np.full((1, 1), 0.2), np.zeros((1, 1, 1)))[0]
        assert np.all(out == 0.0)


class TestDeterministicOdes:
    def test_trivial_costate(self):
        grid = mc.TimeGrid(1.0, 16)
        p = mc.ode_adjoint_linear([0.0], 0.0, [[0.0]], [2.5], grid)
        assert np.allclose(p, 2.5)

    def test_exponential_costate(self):
        beta = 0.7
        grid = mc.TimeGrid(1.0, 64)
        p = mc.ode_adjoint_linear([0.0], beta, [[0.0]], [1.0], grid)
        t = grid.nodes
        assert np.max(np.abs(p[:, 0] - np.exp(beta * (1.0 - t)))) < 1e-8

    # n = 2 with a non-symmetric b1, f1 != 0 and f2 != 0, where a transposed
    # coupling would show; the references integrate the same ODEs backward
    B1 = np.array([[-0.3, 0.8], [-0.5, 0.2]])
    F1, F2, ALPHA = np.array([0.4, -0.7]), 0.6, np.array([1.0, -0.5])
    A = np.array([[1.0, 0.3], [0.3, 0.5]])
    GAMMA = np.array([[0.8, -0.2], [-0.2, 1.2]])

    @classmethod
    def costate_error(cls, N):
        grid = mc.TimeGrid(1.0, N)
        ref = cls.reference(lambda p: -((cls.F2 * np.eye(2) + cls.B1.T) @ p + cls.F1),
                            cls.ALPHA, grid)
        return np.max(np.abs(mc.ode_adjoint_linear(cls.F1, cls.F2, cls.B1, cls.ALPHA, grid)
                             - ref))

    @classmethod
    def lq_error(cls, N):
        grid = mc.TimeGrid(1.0, N)
        ref = cls.reference(
            lambda y: -(cls.B1.T @ y.reshape(2, 2) + y.reshape(2, 2).T @ cls.B1 + cls.A).ravel(),
            cls.GAMMA.ravel(), grid)
        return np.max(np.abs(mc.lq_second_order_ode(cls.GAMMA, cls.A, cls.B1, grid)
                             - ref.reshape(-1, 2, 2)))

    @staticmethod
    def reference(rhs, end, grid):
        sol = solve_ivp(lambda t, y: rhs(y), (grid.horizon, 0.0), end, method="DOP853",
                        t_eval=grid.nodes[::-1], rtol=1e-12, atol=1e-12)
        return sol.y.T[::-1]

    @pytest.mark.parametrize("error", ["costate_error", "lq_error"])
    def test_two_dimensional_march_matches_solve_ivp(self, error):
        assert getattr(self, error)(64) < 1e-9

    @pytest.mark.parametrize("error", ["costate_error", "lq_error"])
    def test_two_dimensional_march_is_fourth_order(self, error):
        ratio = getattr(self, error)(8) / getattr(self, error)(16)
        assert 14.0 <= ratio <= 18.0


class TestExplicitP0Oracle:
    def test_example41_statistical(self):
        bench = mc.example41(0.1)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 20_000, 1, 6)
        ctl = mc.random_control(bench.domain, 20_000, 20, 6)
        est, se = mc.explicit_p0_oracle(bench.spec, ctl, batch)
        assert abs(est[0] - 0.1) < 3 * se[0]

    def test_example41_exact_on_tree(self):
        # the uniform tree enumeration integrates the transition exponential
        # exactly, so p0 = L to rounding
        bench = mc.example41(0.1)
        steps = 4
        batch = mc.tree_batch(steps)
        ctl = mc.constant_control([0.0], batch.n_paths, steps)
        est, _ = mc.explicit_p0_oracle(bench.spec, ctl, batch,
                                       backend=mc.tree_backend(steps))
        assert est[0] == pytest.approx(0.1, abs=1e-12)

    def test_zero_spec(self):
        spec = zero_spec()
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 500, 1, 7)
        est, _ = mc.explicit_p0_oracle(spec, mc.constant_control([0.0], 500, 10), batch)
        assert np.all(est == 0.0)

    def test_linear_recursive_matches_ode(self):
        # compare at fine N: the oracle carries the Euler compounding bias of
        # the shared discretization, the Runge-Kutta path does not
        bench = nontrivial_linrec()
        N = 200
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), 20_000, 1, 8)
        ctl = mc.random_control(bench.domain, 20_000, N, 8)
        est, se = mc.explicit_p0_oracle(bench.spec, ctl, batch)
        p_ode = mc.ode_adjoint_linear([0.3], 0.4, [[-0.2]], [1.0], mc.TimeGrid(1.0, N))
        assert abs(est[0] - p_ode[0, 0]) < 3 * se[0] + 1e-3


class TestEmpiricalKnorm:
    def test_zero_integrand(self):
        bench = mc.example41(0.1)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 300, 1, 9)
        ctl = mc.constant_control([0.0], 300, 10)
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        out = mc.empirical_knorm(np.zeros((300, 10, 1, 1)), fwd, mc.RegressionBackend())
        assert out == 0.0

    def test_constant_integrand(self):
        bench = mc.example41(0.1)
        N, c = 10, 0.8
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), 300, 1, 9)
        ctl = mc.random_control(bench.domain, 300, N, 9)
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        out = mc.empirical_knorm(np.full((300, N, 1, 1), c), fwd, mc.RegressionBackend())
        assert out == pytest.approx(c * c * 1.0, abs=1e-8)

    def test_resolves_an_integrand_of_the_control(self):
        # q_0 = u_0 on U = {0, 1}: conditioned on (X_0, u_0) the tail is u_0 dt, whose
        # largest value is dt; X_0 alone is constant, and gives only its mean
        bench, M, N = mc.example41(0.1), 300, 10
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 9)
        fwd = mc.simulate_forward(bench.spec, mc.random_control(bench.domain, M, N, 9), batch)
        q = np.zeros((M, N, 1, 1))
        q[:, 0, 0, 0] = fwd.control.at(0)[:, 0]
        out = mc.empirical_knorm(q, fwd, mc.RegressionBackend())
        assert out == pytest.approx(batch.dt, rel=1e-9)

    def test_example41_near_zero(self):
        # true q vanishes; the diagnostic sees squared regression noise only
        bench = mc.example41(0.1)
        _, fwd, _, first = pipeline(bench, 5000, 20, 10)
        out = mc.empirical_knorm(first.q, fwd, mc.RegressionBackend())
        assert out < 1e-2


def multidim_linrec():
    """n = d = k = 2 instance with a non-symmetric drift matrix.

    The transpose in the costate drift only matters for n > 1, so this guards
    the multidimensional assembly of the adjoint pipeline against an ODE
    reference.
    """
    n, d, k = 2, 2, 2
    b1 = np.array([[-0.3, 0.1], [0.05, -0.2]])
    b2 = np.array([[0.4, 0.0], [0.1, 0.3]])
    s1 = np.zeros((d, n, n))
    s1[0] = [[0.2, 0.0], [0.0, 0.1]]
    s1[1] = [[0.0, 0.1], [0.1, 0.0]]
    s2 = np.zeros((d, n, k))
    s2[0, 0, 0] = 0.3
    s2[1, 1, 1] = 0.2
    s3 = np.zeros((d, n))
    s3[0] = [0.1, 0.0]
    s3[1] = [0.0, 0.15]
    f1 = np.array([0.25, -0.1])
    bench = mc.linear_recursive_problem(
        b1=b1, b2=b2, b3=[0.0, 0.0], sigma1=s1, sigma2=s2, sigma3=s3,
        f1=f1, f2=0.3, f3=lambda t, u: (u ** 2).sum(axis=1),
        alpha=[1.0, 0.5], gamma=0.1,
        domain=mc.Box([-1.0, -1.0], [1.0, 1.0], [3, 3]),
        x0=np.array([0.3, -0.2]), horizon=1.0, n=n, d=d, k=k)
    return bench, (f1, 0.3, b1, np.array([1.0, 0.5]))


class TestMultidimensionalAdjoint:
    def test_regression_and_oracle_track_the_costate_ode(self):
        bench, (f1, f2, b1, alpha) = multidim_linrec()
        N, M = 20, 20_000
        grid = mc.TimeGrid(1.0, N)
        batch = mc.sample_brownian(grid, M, bench.spec.d, 31)
        ctl = mc.random_control(bench.domain, M, N, 31)
        backend = mc.RegressionBackend()
        fwd = mc.simulate_forward(bench.spec, ctl, batch)
        bwd = mc.solve_state_bsde(bench.spec, fwd, backend)
        first = mc.first_order_adjoint(bench.spec, fwd, bwd, backend)
        p_ode = mc.ode_adjoint_linear(f1, f2, b1, alpha, grid)
        # both routes carry the shared Euler compounding bias, O(dt)
        assert np.max(np.abs(first.p.mean(axis=0) - p_ode)) < 1e-2
        est, _ = mc.explicit_p0_oracle(bench.spec, ctl, batch, backend=backend)
        assert np.max(np.abs(est - p_ode[0])) < 1e-2
        # the two Monte Carlo routes agree far more tightly with each other
        assert np.max(np.abs(first.p[:, 0, :].mean(axis=0) - est)) < 1e-3

    def test_full_solver_runs_and_descends(self):
        bench, _ = multidim_linrec()
        cfg = mc.MsaConfig(rho=0.0, n_paths=4000, steps=20, seed=31, max_iters=4)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert res.records[0].descent > 0
        for prev, nxt in zip(res.records, res.records[1:]):
            assert nxt.j <= prev.j + 3 * (prev.j_stderr + nxt.j_stderr)
        for rec in res.records:
            assert rec.mu <= 3 * rec.mu_stderr


class TestBoundednessAcrossIterations:
    def test_costate_magnitudes_do_not_grow(self):
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=4000, steps=20, seed=12,
                           max_iters=6)
        # without the costate hint, so that max|p| comes from the regression
        hints = dataclasses.replace(bench.hints, first_order_ode=None)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=hints)
        first, last = res.records[0], res.records[-1]
        assert last.max_abs_p <= 1.5 * first.max_abs_p
        assert last.max_abs_P <= max(1.5 * first.max_abs_P, 1e-12)
