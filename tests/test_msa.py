import numpy as np
import pytest

import msacontrol as mc


def records_equal_except_wall(a, b):
    fields = ("m", "j", "j_stderr", "mu", "mu_stderr", "descent")
    return len(a) == len(b) and all(
        getattr(ra, f) == getattr(rb, f) for ra, rb in zip(a, b) for f in fields)


def curvature_problem():
    """n = 2, d = 1 with state-dependent diffusion and curvature in Phi and f.

    dX = (B X + b u) dt + (S X + s u + c) dW, f = x'A x / 2 + u^2 / 2 + sin z / 2,
    Phi = x'G x / 2: no structure flag holds, so run_msa solves P.
    """
    n, m = 2, 4
    B = np.array([[-0.2, 0.3], [0.1, -0.1]])
    S = np.array([[0.2, 0.1], [-0.1, 0.3]])
    b, s, c = np.array([0.3, -0.2]), np.array([0.2, 0.1]), np.array([0.2, 0.1])
    A, G = np.eye(n), np.array([[1.0, 0.2], [0.2, 0.5]])

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), m, m))
        out[:, :n, :n] = A
        out[:, n + 1, n + 1] = -0.5 * np.sin(z[:, 0])
        return out

    spec = mc.ProblemSpec.build(
        n=n, d=1, k=1, x0=np.array([0.5, -0.3]), horizon=1.0,
        drift=lambda t, x, u: x @ B.T + u * b,
        diffusion=lambda t, x, u: (x @ S.T + u * s + c)[:, :, None],
        driver=lambda t, x, y, z, u: (0.5 * np.einsum("mi,ij,mj->m", x, A, x)
                                      + 0.5 * u[:, 0] ** 2 + 0.5 * np.sin(z[:, 0])),
        terminal=lambda x: 0.5 * np.einsum("mi,ij,mj->m", x, G, x),
        derivatives=dict(
            b_x=lambda t, x, u: np.broadcast_to(B, (len(x), n, n)).copy(),
            sigma_x=lambda t, x, u: np.broadcast_to(S, (len(x), 1, n, n)).copy(),
            b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
            sigma_xx=lambda t, x, u: np.zeros((len(x), 1, n, n, n)),
            f_x=lambda t, x, y, z, u: x @ A,
            f_y=lambda t, x, y, z, u: np.zeros(len(x)),
            f_z=lambda t, x, y, z, u: 0.5 * np.cos(z),
            f_hess=f_hess,
            phi_x=lambda x: x @ G,
            phi_xx=lambda x: np.broadcast_to(G, (len(x), n, n)).copy()))
    return spec, mc.FiniteSet([[-0.5], [0.0], [0.5]])


class TestComputeMu:
    def test_zero_decrease(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 50, 1, 1)
        mu, se = mc.compute_mu(np.zeros((50, 10)), np.zeros((50, 10, 1)), batch)
        assert mu == 0.0
        assert se == 0.0

    def test_z_independent_driver_is_plain_average(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 500, 1, 2)
        rng = np.random.default_rng(0)
        hhat = -np.abs(rng.normal(size=(500, 10)))
        mu, _ = mc.compute_mu(hhat, np.zeros((500, 10, 1)), batch)
        assert mu == pytest.approx(hhat.sum(axis=1).mean() * batch.dt, abs=1e-14)

    def test_example41_fixed_point_mu_is_zero(self):
        bench = mc.example41(0.1)
        M, N = 2000, 20
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=3, max_iters=2)
        init = mc.constant_control([0.0], M, N)
        res = mc.run_msa(bench.spec, bench.domain, cfg, init, hints=bench.hints)
        assert res.records[0].mu == 0.0


class TestRunMsa:
    def test_example41_descends_to_zero(self):
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=4000, steps=20, seed=7,
                           max_iters=4)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert res.records[0].j > 0.0
        for rec in res.records[1:]:
            assert abs(rec.j) <= max(1e-3, 3 * rec.j_stderr)
        assert res.final_j == 0.0

    def test_fixed_point_stops_at_first_iteration(self):
        bench = mc.example41(0.1)
        M, N = 1000, 20
        init = mc.constant_control([0.0], M, N)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=5,
                           max_iters=10, epsilon=1e-8)
        res = mc.run_msa(bench.spec, bench.domain, cfg, init, hints=bench.hints)
        assert res.stopped_early
        assert res.m_eps == 1
        assert len(res.records) == 1
        assert np.array_equal(res.returned_control.values, init.values)
        assert np.array_equal(res.last_control.values, init.values)

    def test_bitwise_reproducible(self):
        bench = mc.lq_desk()
        cfg = mc.MsaConfig(rho=0.0, n_paths=2000, steps=10, seed=13, max_iters=4)
        r1 = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        r2 = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert records_equal_except_wall(r1.records, r2.records)
        assert np.array_equal(r1.last_control.values, r2.last_control.values)
        assert np.array_equal(r1.returned_control.values, r2.returned_control.values)

    def test_mu_nonpositive_within_noise(self):
        bench = mc.lq_desk()
        cfg = mc.MsaConfig(rho=0.0, n_paths=4000, steps=10, seed=17, max_iters=6,
                           backend=mc.RegressionBackend(degree=1))
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        for rec in res.records:
            assert rec.mu <= 3 * rec.mu_stderr

    def test_max_iters_zero_returns_empty(self):
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=100, steps=5, seed=1, max_iters=0)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert res.records == []

    def test_config_validation(self):
        with pytest.raises(mc.ConfigurationError):
            mc.MsaConfig(rho=-1.0, n_paths=10, steps=5, seed=0)
        with pytest.raises(mc.ConfigurationError):
            mc.MsaConfig(rho=0.0, n_paths=0, steps=5, seed=0)
        with pytest.raises(mc.ConfigurationError):
            mc.MsaConfig(rho=0.0, n_paths=10, steps=5, seed=0, epsilon=0.0)
        with pytest.raises(mc.ConfigurationError):
            mc.MsaConfig(rho=0.0, n_paths=10, steps=5, seed=0, second_order="maybe")

    def test_solver_errors_carry_iteration_index(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.array([1.0]), horizon=1.0,
            drift=lambda t, x, u: np.where(t > 0.5, np.full_like(x, np.nan), x * 40.0),
            diffusion=lambda t, x, u: np.zeros((len(x), 1, 1)),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        cfg = mc.MsaConfig(rho=0.0, n_paths=50, steps=4, seed=0, max_iters=3)
        with pytest.raises(mc.SimulationError, match="iteration"):
            mc.run_msa(spec, mc.FiniteSet([[0.0]]), cfg, "random")

    def test_non_finite_hamiltonian_names_iteration_and_step(self):
        # the driver is NaN only for the candidate u = 1 from t = 0.5 on, which
        # the initial control never visits, so only the update step sees it
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.zeros_like(x),
            diffusion=lambda t, x, u: np.ones((len(x), 1, 1)),
            driver=lambda t, x, y, z, u: np.where((u[:, 0] == 1.0) & (t > 0.45),
                                                  np.nan, 0.1 * z[:, 0]),
            terminal=lambda x: x[:, 0])
        cfg = mc.MsaConfig(rho=0.0, n_paths=200, steps=20, seed=0, max_iters=2,
                           second_order="skip")
        init = mc.constant_control([0.0], 200, 20)
        with pytest.raises(mc.NumericalError,
                           match=r"^iteration 1: step 10: .* on path 0 at candidate 1"):
            mc.run_msa(spec, mc.FiniteSet([[0.0], [1.0]]), cfg, init)


    def test_max_asym_P_records_the_second_order_asymmetry(self):
        spec, domain = curvature_problem()
        M, N, seed = 500, 10, 3
        cfg = mc.MsaConfig(rho=0.0, n_paths=M, steps=N, seed=seed, max_iters=3)
        res = mc.run_msa(spec, domain, cfg, "random")
        assert len(res.max_asym_P) == len(res.records)
        assert max(res.max_asym_P) <= 1e-12 * max(res.max_abs_P)
        # the first record is what the solve at the initial control reports
        backend = cfg.backend
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, seed)
        ctl = mc.random_control(domain, M, N, seed)
        fwd = mc.simulate_forward(spec, ctl, batch)
        bwd = mc.solve_state_bsde(spec, fwd, ctl, backend)
        first = mc.first_order_adjoint(spec, fwd, bwd, ctl, backend)
        second = mc.second_order_adjoint(spec, fwd, bwd, ctl, first, backend)
        assert res.max_asym_P[0] == second.asymmetry > 0.0
        # the hinted and the zero branch record exact zeros
        for desk in (mc.lq_desk(), mc.example41(0.1)):
            cfg = mc.MsaConfig(rho=desk.rho, n_paths=200, steps=N, seed=seed, max_iters=2)
            res = mc.run_msa(desk.spec, desk.domain, cfg, "random", hints=desk.hints)
            assert res.max_asym_P == [0.0] * len(res.records)


class TestNearOptimalityGap:
    def make_records(self, js, descents, mus=None):
        mus = mus or [0.0] * len(js)
        return [mc.IterationRecord(m=i + 1, j=j, j_stderr=1e-4, mu=mu,
                                   mu_stderr=1e-5, descent=desc, wall_ms=1.0)
                for i, (j, desc, mu) in enumerate(zip(js, descents, mus))]

    def test_stop_at_first_iteration(self):
        recs = self.make_records([0.5], [1e-6])
        rep = mc.near_optimality_gap(recs, 1e-3, f_y_bound=0.0, horizon=1.0)
        assert rep.m_eps == 1
        assert not rep.descent_violated

    def test_gap_against_oracle(self):
        recs = self.make_records([0.5, 0.1, 0.02], [0.4, 0.08, 1e-7])
        rep = mc.near_optimality_gap(recs, 1e-4, f_y_bound=0.5, horizon=1.0,
                                     jstar=0.01)
        assert rep.m_eps == 3
        assert rep.gap == pytest.approx(0.01)
        assert rep.ratio == pytest.approx(0.01 / np.sqrt(1e-4))
        assert rep.bound_scale == pytest.approx(np.exp(0.5))

    def test_increasing_costs_flagged(self):
        recs = self.make_records([0.1, 0.2, 0.3], [-0.1, -0.1, 1e-9])
        rep = mc.near_optimality_gap(recs, 1e-3, f_y_bound=0.0, horizon=1.0)
        assert rep.descent_violated


class TestReturnedControlConvention:
    def test_returned_is_one_before_last_minimizer(self):
        # run long enough for a strict descent then exact stationarity
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=2000, steps=10, seed=23,
                           max_iters=10, epsilon=1e-12)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert res.stopped_early
        # the returned control prices to the J recorded at the stopping step
        assert res.m_eps == len(res.records)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 2000, 1, 23)
        fwd = mc.simulate_forward(bench.spec, res.returned_control, batch)
        bwd = mc.solve_state_bsde(bench.spec, fwd, res.returned_control,
                                  mc.RegressionBackend())
        assert bwd.j_estimate == pytest.approx(res.records[-1].j, abs=1e-12)


def c_order_copy(batch, control):
    """The same noise and control values, stored path-major (C order)."""
    c_batch = mc.BrownianBatch(grid=batch.grid, n_paths=batch.n_paths, d=batch.d,
                               seed=batch.seed,
                               increments=np.ascontiguousarray(batch.increments))
    return c_batch, mc.ControlField(np.ascontiguousarray(control.values))


class TestLayoutIndependence:
    @pytest.mark.parametrize("problem", ["curvature-n2", "curvature-n4-d2-k2"])
    def test_run_msa_bitwise_equal_across_layouts(self, problem, curvature_spec):
        if problem == "curvature-n2":
            (spec, domain), rho = curvature_problem(), 0.0
        else:
            spec, domain = curvature_spec, mc.Box([-1.0, -0.5], [1.0, 0.5], [3, 3])
            rho = 0.7
        M, N = 300, 8
        cfg = mc.MsaConfig(rho=rho, n_paths=M, steps=N, seed=21, max_iters=2)
        batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, N), M, spec.d, 21)
        initial = mc.random_control(domain, M, N, 21)
        c_batch, c_initial = c_order_copy(batch, initial)
        assert not c_batch.increments[:, 0].flags.c_contiguous
        assert not c_initial.values[:, 0].flags.c_contiguous
        runs = [mc.run_msa(spec, domain, cfg, ctl, batch=b)
                for b, ctl in ((batch, initial), (c_batch, c_initial))]
        time_major, c_order = runs
        assert records_equal_except_wall(time_major.records, c_order.records)
        for name in ("returned_control", "last_control"):
            assert np.array_equal(getattr(time_major, name).values,
                                  getattr(c_order, name).values)
        for name in ("max_abs_p", "max_abs_P", "max_asym_P"):
            assert np.array_equal(getattr(time_major, name), getattr(c_order, name))
        assert max(time_major.max_abs_P) > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_compute_mu(self, seed):
        # the step sums of a strided hhat differ in the last bit; with three
        # paths that difference reaches mu on each of these seeds
        M, N = 3, 20
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 2, 4)
        rng = np.random.default_rng(seed)
        hhat = -np.abs(rng.normal(size=(M, N)))
        fz = 0.3 * rng.normal(size=(M, N, 2))
        hhat_time_major = np.empty((N, M)).swapaxes(0, 1)
        hhat_time_major[...] = hhat
        c_batch, _ = c_order_copy(batch, mc.constant_control([0.0], M, N))
        want = mc.compute_mu(hhat, fz, c_batch)
        assert mc.compute_mu(hhat_time_major, fz, batch) == want
        assert mc.compute_mu(hhat_time_major, fz, c_batch) == want


class TestTimeMajorRunArrays:
    @pytest.mark.parametrize("bench_name", ["example41", "lq_desk"])
    def test_step_slices_are_contiguous(self, bench_name, monkeypatch):
        msa = mc.msa
        bench = mc.example41(0.2) if bench_name == "example41" else mc.lq_desk()
        seen = {}

        def record(name, arr):
            for j in (0, arr.shape[1] // 2, arr.shape[1] - 1):
                seen.setdefault(name, []).append(arr[:, j].flags.c_contiguous)

        def spy_class(cls):
            def build(**fields):
                for name, arr in fields.items():
                    if name in ("q", "Q"):
                        record(name, arr)
                return cls(**fields)
            return build

        real_minimize, real_mu = msa.minimize_step, msa.compute_mu

        def minimize_spy(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs):
            out = real_minimize(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs)
            for name, arr in (("x", x), ("y", y), ("z", z), ("q_j", q), ("u_prev", u_prev)):
                seen.setdefault(name, []).append(arr.flags.c_contiguous)
            return out

        def mu_spy(hhat, fz, batch):
            record("hhat", hhat)
            return real_mu(hhat, fz, batch)

        monkeypatch.setattr(msa, "FirstOrderAdjoint", spy_class(msa.FirstOrderAdjoint))
        monkeypatch.setattr(msa, "SecondOrderAdjoint", spy_class(msa.SecondOrderAdjoint))
        monkeypatch.setattr(msa, "minimize_step", minimize_spy)
        monkeypatch.setattr(msa, "compute_mu", mu_spy)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=200, steps=6, seed=3, max_iters=2)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        record("u_new", res.last_control.values)
        # the hinted adjoint's zero integrand is built inside run_msa
        assert ("q" if bench_name == "example41" else "Q") in seen
        assert {"x", "y", "z", "q_j", "u_prev", "hhat", "u_new"} <= set(seen)
        assert all(all(flags) for flags in seen.values()), seen
