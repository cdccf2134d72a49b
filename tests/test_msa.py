import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msacontrol as mc
from msacontrol.stochastics import _time_major


def records_equal_except_wall(a, b):
    fields = ("m", "j", "j_stderr", "mu", "mu_stderr", "descent", "weight_ess",
              "weight_max_ratio")
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


def streamed_sums(hhat, fz, increments):
    """compute_mu's three per-path sums of (M, N) and (M, N, d) grids, accumulated
    like the update sweep: from the last step to the first, one step at a time."""
    sums = np.zeros((3, hhat.shape[0]))
    for j in range(hhat.shape[1] - 1, -1, -1):
        sums[0] += hhat[:, j]
        sums[1] += (fz[:, j] * increments[:, j]).sum(axis=1)
        sums[2] += (fz[:, j] * fz[:, j]).sum(axis=1)
    return sums


class TestComputeMu:
    def test_zero_decrease(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 50, 1, 1)
        mu, se, ess, ratio = mc.compute_mu(np.zeros(50), np.zeros(50), np.zeros(50), batch.dt)
        assert mu == 0.0
        assert se == 0.0
        assert ess == ratio == 1.0

    def test_z_independent_driver_is_plain_average(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 500, 1, 2)
        rng = np.random.default_rng(0)
        hhat = -np.abs(rng.normal(size=(500, 10)))
        sums = streamed_sums(hhat, np.zeros((500, 10, 1)), batch.increments)
        mu, *_ = mc.compute_mu(*sums, batch.dt)
        assert mu == pytest.approx(hhat.sum(axis=1).mean() * batch.dt, abs=1e-14)

    def test_weights_are_girsanov_weights(self):
        # the streamed exponent gives the weights of girsanov_weights, bitwise
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 400, 2, 3)
        fz = 0.4 * np.random.default_rng(1).normal(size=(400, 10, 2))
        w = mc.girsanov_weights(fz, batch)
        sums = streamed_sums(np.ones((400, 10)), fz, batch.increments)
        samples = w * sums[0] * batch.dt
        mu, se, ess, ratio = mc.compute_mu(*sums, batch.dt)
        assert mu == np.mean(samples)
        assert se == np.std(samples, ddof=1) / np.sqrt(400)
        assert ess == w.sum() ** 2 / (400 * (w * w).sum())
        assert ratio == w.max() / w.mean()
        assert 0.0 < ess < 1.0 < ratio

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

    def test_girsanov_weight_statistics(self):
        # f_z = 0 on the quadratic desk, so every weight is exactly 1
        bench = mc.lq_desk()
        cfg = mc.MsaConfig(rho=0.0, n_paths=500, steps=10, seed=3, max_iters=3)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert [(r.weight_ess, r.weight_max_ratio) for r in res.records] == [(1.0, 1.0)] * 3
        bench = mc.example41(0.5)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=500, steps=10, seed=3, max_iters=3)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        for rec in res.records:
            assert 0.0 < rec.weight_ess <= 1.0
            assert rec.weight_max_ratio >= 1.0
        assert res.records[0].weight_ess < 1.0

    @pytest.mark.parametrize("bench_name, calls", [("lq_desk", 0), ("example41", 3 * 10)])
    def test_declared_zero_f_z_skips_girsanov_terms(self, bench_name, calls, monkeypatch):
        # lq_desk declares f_z_zero, so its sweep adds no Girsanov terms;
        # example41's driver reads z, so every step of every pass adds them
        bench = mc.lq_desk() if bench_name == "lq_desk" else mc.example41(0.5)
        seen = []

        def spy(*args):
            seen.append(args)
            return mc.stochastics.girsanov_terms(*args)

        monkeypatch.setattr(mc.msa, "girsanov_terms", spy)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=300, steps=10, seed=3, max_iters=3)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert bench.spec.structure.f_z_zero == (calls == 0)
        assert len(res.records) == 3 and len(seen) == calls

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

    def test_integer_initial_control_runs_as_float(self):
        # an int64 control once truncated every update u^m_j to an integer
        bench, domain = mc.lq_desk(), mc.Box([-1.0], [1.0], [5])
        M, N = 256, 5
        cfg = mc.MsaConfig(rho=0.0, n_paths=M, steps=N, seed=0, max_iters=3)
        runs = [mc.run_msa(bench.spec, domain, cfg,
                           mc.ControlField(np.ones((M, N, 1), dtype=dtype)), hints=bench.hints)
                for dtype in (np.float64, np.int64)]
        assert records_equal_except_wall(runs[0].records, runs[1].records)
        assert {0.5, -0.5} <= set(np.unique(runs[1].last_control.values))
        for name in ("returned_control", "last_control"):
            values = getattr(runs[1], name).values
            assert values.dtype == np.float64
            assert np.array_equal(getattr(runs[0], name).values, values)

    @pytest.mark.parametrize("horizon, steps, paths, message", [
        (2.0, 10, 200, "spec.horizon: 2.0 against 1.0"),
        (1.0, 12, 200, "config.steps: 12 against 10"),
        (1.0, 10, 100, "config.n_paths: 100 against 200"),
    ], ids=["horizon", "steps", "n_paths"])
    def test_batch_must_match_the_run(self, horizon, steps, paths, message):
        bench = mc.example41(0.1)
        batch = mc.sample_brownian(mc.TimeGrid(horizon, steps), paths, 1, 0)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=200, steps=10, seed=0, max_iters=1)
        with pytest.raises(mc.ConfigurationError, match=f"^batch does not match {message}$"):
            mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints,
                       batch=batch)

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
        # the initial control never visits, so only the update step sees it;
        # the backward sweep meets the last of those steps first
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.zeros_like(x),
            diffusion=lambda t, x, u: np.ones((len(x), 1, 1)),
            driver=lambda t, x, y, z, u: np.where((u[:, 0] == 1.0) & (t > 0.45),
                                                  np.nan, 0.1 * z[:, 0]),
            terminal=lambda x: x[:, 0],
            structure=mc.Structure(b_xx_zero=True, sigma_xx_zero=True, phi_xx_zero=True,
                                   f_hess_zero=True))
        cfg = mc.MsaConfig(rho=0.0, n_paths=200, steps=20, seed=0, max_iters=2)
        init = mc.constant_control([0.0], 200, 20)
        with pytest.raises(mc.NumericalError,
                           match=r"^iteration 1: step 19: .* on path 0 at candidate 1") as info:
            mc.run_msa(spec, mc.FiniteSet([[0.0], [1.0]]), cfg, init)
        assert info.value.path == 0
        assert info.value.step == 19

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
    """The same noise, and the control's dense values, stored path-major (C order)."""
    c_batch = mc.BrownianBatch(grid=batch.grid, n_paths=batch.n_paths, d=batch.d,
                               seed=batch.seed,
                               increments=np.ascontiguousarray(batch.increments))
    return c_batch, np.ascontiguousarray(control.values)


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
        c_batch, c_values = c_order_copy(batch, initial)
        assert not c_batch.increments[:, 0].flags.c_contiguous
        assert not c_values[:, 0].flags.c_contiguous
        runs = [mc.run_msa(spec, domain, cfg, ctl, batch=b)
                for b, ctl in ((batch, initial), (c_batch, mc.ControlField(c_values)))]
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
        # the sweep streams its sums from step slices (girsanov_terms), so
        # strided and time-major grids give the reference's values bitwise
        M, N = 3, 20
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 2, 4)
        rng = np.random.default_rng(seed)
        hhat = -np.abs(rng.normal(size=(M, N)))
        fz = 0.3 * rng.normal(size=(M, N, 2))
        hhat_time_major = np.empty((N, M)).swapaxes(0, 1)
        hhat_time_major[...] = hhat
        fz_time_major = np.empty((N, M, 2)).swapaxes(0, 1)
        fz_time_major[...] = fz
        c_batch, _ = c_order_copy(batch, mc.constant_control([0.0], M, N))

        def mu(h, f, b):
            sums = np.zeros((3, M))
            for j in range(N - 1, -1, -1):
                sums[0] += h[:, j]
                mc.stochastics.girsanov_terms(sums[1:], f[:, j], b.increments[:, j])
            return mc.compute_mu(*sums, b.dt)

        want = mc.compute_mu(*streamed_sums(hhat, fz, c_batch.increments), batch.dt)
        assert mu(hhat, fz, c_batch) == want
        assert mu(hhat_time_major, fz_time_major, batch) == want
        assert mu(hhat_time_major, fz, c_batch) == want


class TestTimeMajorRunArrays:
    @pytest.mark.parametrize("bench_name", ["example41", "lq_desk"])
    def test_step_slices_are_contiguous(self, bench_name, monkeypatch):
        msa = mc.msa
        bench = mc.example41(0.2) if bench_name == "example41" else mc.lq_desk()
        seen = {}

        def record(name, arr):
            for j in (0, arr.shape[1] // 2, arr.shape[1] - 1):
                seen.setdefault(name, []).append(arr[:, j].flags.c_contiguous)

        real_minimize = msa.minimize_step

        def minimize_spy(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs):
            out = real_minimize(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs)
            for name, arr in (("x", x), ("y", y), ("z", z), ("q_j", q), ("u_prev", u_prev)):
                seen.setdefault(name, []).append(arr.flags.c_contiguous)
            return out

        monkeypatch.setattr(msa, "minimize_step", minimize_spy)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=200, steps=6, seed=3, max_iters=2)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        record("u_new", res.last_control.values)
        assert {"x", "y", "z", "q_j", "u_prev", "u_new"} <= set(seen)
        assert all(all(flags) for flags in seen.values()), seen


class TestControlsAsIndices:
    def test_solver_never_builds_a_dense_control(self, monkeypatch):
        # every solver read gathers one step (ControlField.at); reading the dense
        # values would build a float64 (M, N, k) horizon
        bench = mc.lq_desk()
        M, N, steps = 256, 5, 3
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=2, max_iters=2)
        tree_cfg = dataclasses.replace(cfg, n_paths=2 ** steps, steps=steps)
        initials = [mc.constant_control([0.5], M, N), mc.random_control(bench.domain, M, N, 2)]
        tree_initial = mc.benchmarks.tree_random_control(bench.domain, steps, 2)

        def refuse(self):
            raise AssertionError("a solver read ControlField.values")

        monkeypatch.setattr(mc.ControlField, "values", property(refuse))
        runs = [mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints)
                for initial in initials + ["random"]]
        runs.append(mc.run_msa(bench.spec, bench.domain, tree_cfg, tree_initial,
                               hints=bench.hints, batch=mc.tree_batch(steps),
                               backend=mc.tree_backend(steps)))
        for mode in ("nonrecombining", "recombining"):
            assert mc.tree_bruteforce(bench.spec, bench.domain, steps, mode=mode).jstar == 0.0
        monkeypatch.undo()
        assert all(np.isfinite(res.final_j) for res in runs)
        # u^1 of the off-grid run: samples that kept 0.5, and samples that left it
        assert 0 < np.count_nonzero(runs[0].returned_control.values == 0.5) < M * N

    def test_peak_heap_holds_no_float_control_horizon(self):
        # example41 at M = 20 000, N = 20, the caller holding its initial control
        # as the benchmark does. Stored as float64 (M, N, k) arrays, the initial
        # control, u^{m-1} and u^m lay beside one pass's states at the peak; as
        # one-byte indices the run must peak more than two of them lower.
        bench = mc.example41(0.1)
        M, n, k, seed = 20_000, bench.spec.n, bench.spec.k, 7

        def peak(N):
            batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, seed)
            cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=seed, max_iters=2)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                initial = mc.random_control(bench.domain, M, N, seed)
                mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints,
                           batch=batch)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def float_horizons(N):  # one pass's states and three float64 controls
            return M * (N + 1) * n * 8 + 3 * M * N * k * 8

        peak(1)  # warm-up: caches filled on the first run stay out of the peaks
        # a step's working set does not grow with N, so a one-step run's peak
        # stands for it; its own controls are indices already, which only
        # lowers this estimate of the float64 run's peak
        float_peak = peak(1) + float_horizons(20) - float_horizons(1)
        assert peak(20) < float_peak - 2 * M * 20 * k * 8


def separate_passes(spec, domain, cfg, initial, hints):
    """run_msa as separate passes: the cost BSDE and both adjoints stored over
    the horizon, then an ascending update loop, then an f_z grid for mu (its
    sums taken as the sweep streams them), then a re-pricing of the new
    control; stops on cfg.epsilon like run_msa.

    Returns (records, returned control, last control, max |p|, max |P|,
    max asymmetry), the reference the single sweep must match bit for bit.
    """
    batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, cfg.steps), cfg.n_paths,
                               spec.d, cfg.seed)
    backend, candidates = cfg.backend, mc.enumerate_controls(domain)
    M, N, n, d = cfg.n_paths, cfg.steps, spec.n, spec.d
    nodes = batch.grid.nodes
    p_ode = hints.first_order_ode(batch.grid) if hints.first_order_ode else None
    P_ode = hints.second_order_ode(batch.grid) if hints.second_order_ode else None
    u_prev = initial
    forward = mc.simulate_forward(spec, u_prev, batch)
    backward = mc.solve_state_bsde(spec, forward, u_prev, backend)
    records, max_p, max_P, asym = [], [], [], []
    for m in range(1, cfg.max_iters + 1):
        if p_ode is not None:
            first = mc.FirstOrderAdjoint(p=np.broadcast_to(p_ode, (M,) + p_ode.shape),
                                         q=_time_major((M, N, n, d), np.zeros))
        else:
            first = mc.first_order_adjoint(spec, forward, backward, u_prev, backend)
        if P_ode is not None:
            second = mc.SecondOrderAdjoint(P=np.broadcast_to(P_ode, (M,) + P_ode.shape),
                                           Q=_time_major((M, N, n, n, d), np.zeros),
                                           asymmetry=0.0)
        elif mc.second_order_vanishes(spec):
            second = mc.adjoint.zero_second_order(spec, batch)
        else:
            second = mc.second_order_adjoint(spec, forward, backward, u_prev, first, backend)
        u_values = u_prev.values  # the reference slices dense values; run_msa gathers
        u_new = _time_major(u_values.shape)
        hhat = _time_major((M, N))
        for j in range(N):
            u_new[:, j, :], h_new, h_prev, *_ = mc.hamiltonian.minimize_step(
                spec, nodes[j], forward.states[:, j, :], backward.values[:, j],
                backward.integrand[:, j, :], first.p[:, j, :], first.q[:, j], second.P[:, j],
                u_values[:, j, :], candidates, cfg.rho, h_fn=hints.hamiltonian,
                pen_fn=hints.penalty)
            hhat[:, j] = h_new - h_prev
        fz = np.empty((M, N, d))
        for j in range(N):
            fz[:, j, :] = spec.derivatives.f_z(nodes[j], forward.states[:, j, :],
                                               backward.values[:, j],
                                               backward.integrand[:, j, :],
                                               u_values[:, j, :])
        mu, mu_se, ess, ratio = mc.compute_mu(*streamed_sums(hhat, fz, batch.increments),
                                              batch.dt)
        u_new = mc.ControlField(u_new)
        forward_new = mc.simulate_forward(spec, u_new, batch)
        backward_new = mc.solve_state_bsde(spec, forward_new, u_new, backend)
        records.append(mc.IterationRecord(
            m=m, j=backward.j_estimate, j_stderr=backward.j_stderr, mu=mu, mu_stderr=mu_se,
            descent=backward.j_estimate - backward_new.j_estimate, wall_ms=0.0,
            weight_ess=ess, weight_max_ratio=ratio))
        max_p.append(float(np.max(np.abs(first.p if p_ode is None else p_ode))))
        max_P.append(float(np.max(np.abs(second.P if P_ode is None else P_ode))))
        asym.append(second.asymmetry)
        if cfg.epsilon is not None and records[-1].descent < cfg.epsilon:
            return records, u_prev, u_new, max_p, max_P, asym
        u_before = u_prev
        u_prev, forward, backward = u_new, forward_new, backward_new
    return records, u_before, u_prev, max_p, max_P, asym


def sweep_sources():
    """(spec, domain, rho, hints, initial control) for each way p and P reach the
    update, and for an initial control off the enumeration."""
    spec, domain = curvature_problem()
    # any nodes do as a costate hint here: the reference reads the same ones
    p_nodes = mc.RunHints(first_order_ode=lambda grid: np.outer(grid.nodes, [0.3, -0.2]))
    cases = {"p-solved-P-solved": (spec, domain, 0.5, mc.RunHints(), mc.random_control),
             "p-hinted-P-solved": (spec, domain, 0.5, p_nodes, mc.random_control)}
    for name, bench in (("p-solved-P-hinted", mc.lq_desk()),
                        ("p-hinted-P-declared-zero", mc.example41(0.1)),
                        ("p-hinted-P-zero-by-flags", mc.linrec_desk())):
        cases[name] = (bench.spec, bench.domain, bench.rho, bench.hints, mc.random_control)
    # u = 0.5 lies between lq_desk's {-1, 0, 1}, and early on it beats all three on
    # many samples, which then keep it
    bench = mc.lq_desk()
    cases["off-grid-initial"] = (bench.spec, bench.domain, bench.rho, bench.hints,
                                 lambda domain, M, N, seed: mc.constant_control([0.5], M, N))
    return cases


def curvature_everywhere_problem():
    """n = 4, d = 2, k = 2 with b_xx, sigma_xx, phi_xx and f_hess all non-zero.

    b = B1 x + B2 u + s(x), sigma^i = S1_i x + S2_i u + c_i + s(x) with
    s(x) = sin(x) / 10 elementwise, f = x'A x / 2 + |u|^2 / 2 + sum_i sin z_i / 2
    + y^2 / 10, Phi = x'G x / 2.
    """
    n, d, k = 4, 2, 2
    m = n + 1 + d
    gen = np.random.Generator(np.random.Philox(key=4))
    b1 = -0.2 * np.eye(n) + 0.05 * gen.standard_normal((n, n))
    b2 = 0.3 * gen.standard_normal((n, k))
    s1 = 0.1 * gen.standard_normal((d, n, n))
    s2 = 0.3 * gen.standard_normal((d, n, k))
    c = 0.2 * gen.standard_normal((d, n))
    a, g = 0.5 * np.eye(n), np.eye(n)
    diag = np.arange(n)

    def d2sin(x):  # (M, n, n, n): the Hessian of component j of sin(x) / 10
        out = np.zeros((len(x), n, n, n))
        out[:, diag, diag, diag] = -0.1 * np.sin(x)
        return out

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), m, m))
        out[:, :n, :n] = a
        out[:, n, n] = 0.2
        out[:, n + 1 + np.arange(d), n + 1 + np.arange(d)] = -0.5 * np.sin(z)
        return out

    spec = mc.ProblemSpec.build(
        n=n, d=d, k=k, x0=np.array([0.5, -0.3, 0.2, 0.1]), horizon=1.0,
        drift=lambda t, x, u: x @ b1.T + u @ b2.T + 0.1 * np.sin(x),
        diffusion=lambda t, x, u: (np.einsum("inj,mj->mni", s1, x)
                                   + np.einsum("inj,mj->mni", s2, u) + c.T[None]
                                   + 0.1 * np.sin(x)[:, :, None]),
        driver=lambda t, x, y, z, u: (0.5 * np.einsum("mi,ij,mj->m", x, a, x)
                                      + 0.5 * (u * u).sum(axis=1)
                                      + 0.5 * np.sin(z).sum(axis=1) + 0.1 * y * y),
        terminal=lambda x: 0.5 * np.einsum("mi,ij,mj->m", x, g, x),
        derivatives=dict(
            b_x=lambda t, x, u: b1 + 0.1 * np.cos(x)[:, :, None] * np.eye(n),
            sigma_x=lambda t, x, u: s1 + (0.1 * np.cos(x)[:, :, None] * np.eye(n))[:, None],
            b_xx=lambda t, x, u: d2sin(x),
            sigma_xx=lambda t, x, u: np.repeat(d2sin(x)[:, None], d, axis=1),
            f_x=lambda t, x, y, z, u: x @ a,
            f_y=lambda t, x, y, z, u: 0.2 * y,
            f_z=lambda t, x, y, z, u: 0.5 * np.cos(z),
            f_hess=f_hess,
            phi_x=lambda x: x @ g,
            phi_xx=lambda x: np.broadcast_to(g, (len(x), n, n)).copy()))
    return spec, mc.FiniteSet([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])


@st.composite
def affine_specs(draw):
    """n <= 2, d = k = 1: drift and diffusion affine in (x, u), a driver with y
    and sin z terms (f_y, f_z != 0) and curvature in f and Phi, so the sweep
    solves both p and P."""
    n = draw(st.integers(1, 2))

    def coefs(shape, lo=-0.5, hi=0.5):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    B, b, S, s = coefs((n, n)), coefs(n), coefs((n, n), -0.3, 0.3), coefs(n, -0.3, 0.3)
    c, g = coefs(n, 0.1, 0.5), coefs(n, 0.2, 1.0)
    a, cy, cz = coefs(3, 0.1, 1.0) * np.array([1.0, draw(st.sampled_from([-1.0, 1.0])), 1.0])
    G = np.diag(g)

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), n + 2, n + 2))
        out[:, :n, :n] = a * np.eye(n)
        out[:, n + 1, n + 1] = -cz * np.sin(z[:, 0])
        return out

    spec = mc.ProblemSpec.build(
        n=n, d=1, k=1, x0=coefs(n), horizon=1.0,
        drift=lambda t, x, u: x @ B.T + u * b,
        diffusion=lambda t, x, u: (x @ S.T + u * s + c)[:, :, None],
        driver=lambda t, x, y, z, u: (0.5 * a * (x * x).sum(axis=1) + 0.5 * u[:, 0] ** 2
                                      + cy * y + cz * np.sin(z[:, 0])),
        terminal=lambda x: 0.5 * np.einsum("mi,ij,mj->m", x, G, x),
        derivatives=dict(
            b_x=lambda t, x, u: np.broadcast_to(B, (len(x), n, n)).copy(),
            sigma_x=lambda t, x, u: np.broadcast_to(S, (len(x), 1, n, n)).copy(),
            b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
            sigma_xx=lambda t, x, u: np.zeros((len(x), 1, n, n, n)),
            f_x=lambda t, x, y, z, u: a * x,
            f_y=lambda t, x, y, z, u: np.full(len(x), cy),
            f_z=lambda t, x, y, z, u: cz * np.cos(z),
            f_hess=f_hess,
            phi_x=lambda x: x @ G,
            phi_xx=lambda x: np.broadcast_to(G, (len(x), n, n)).copy()))
    return spec, draw(st.sampled_from([0.0, 0.5])), draw(st.integers(0, 2 ** 16))


class TestSingleSweep:
    @settings(max_examples=15, deadline=None)
    @given(case=affine_specs(), stop=st.integers(1, 3))
    def test_fused_sweep_matches_separate_passes(self, case, stop):
        spec, rho, seed = case
        domain, M, N = mc.FiniteSet([[-0.5], [0.0], [0.5]]), 64, 4
        assert not mc.second_order_vanishes(spec)
        cfg = mc.MsaConfig(rho=rho, n_paths=M, steps=N, seed=seed, max_iters=3)
        initial = mc.random_control(domain, M, N, seed)
        descents = [rec.descent for rec in
                    separate_passes(spec, domain, cfg, initial, mc.RunHints())[0]]
        # the smallest epsilon that stops at record `stop`, or else at record 1
        eps = np.nextafter(max(descents[stop - 1], 0.0), np.inf)
        if not all(desc >= eps for desc in descents[:stop - 1]):
            stop, eps = 1, np.nextafter(max(descents[0], 0.0), np.inf)
        for run_cfg in (cfg, dataclasses.replace(cfg, epsilon=float(eps))):
            res = mc.run_msa(spec, domain, run_cfg, initial)
            records, returned, last, max_p, max_P, asym = separate_passes(
                spec, domain, run_cfg, initial, mc.RunHints())
            assert records_equal_except_wall(res.records, records)
            assert np.array_equal(res.returned_control.values, returned.values)
            assert np.array_equal(res.last_control.values, last.values)
            assert (res.max_abs_p, res.max_abs_P, res.max_asym_P) == (max_p, max_P, asym)
        assert res.stopped_early and res.m_eps == stop == len(res.records)

    @pytest.mark.parametrize("iters", [1, 3])
    def test_one_backward_pass_per_iteration(self, iters, monkeypatch):
        # one sweep per pass, pricing u^{m-1} on the way, and one cost pass
        # for the last control that stores no horizon
        spec, domain = curvature_problem()
        calls = {"solve_bsde": 0, "solve_state_bsde": 0}

        def spied(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        for module in (mc.msa, mc.bsde):
            monkeypatch.setattr(module, "solve_bsde", spied("solve_bsde", mc.bsde.solve_bsde))
        monkeypatch.setattr(mc.msa, "solve_state_bsde",
                            spied("solve_state_bsde", mc.msa.solve_state_bsde))
        cfg = mc.MsaConfig(rho=0.5, n_paths=200, steps=6, seed=5, max_iters=iters)
        res = mc.run_msa(spec, domain, cfg, "random")
        assert len(res.records) == iters
        assert calls == {"solve_bsde": iters + 1, "solve_state_bsde": 0}

    @pytest.mark.parametrize("source", list(sweep_sources()))
    def test_bitwise_equal_to_separate_passes(self, source):
        spec, domain, rho, hints, make_initial = sweep_sources()[source]
        M, N, seed = 300, 8, 11
        cfg = mc.MsaConfig(rho=rho, n_paths=M, steps=N, seed=seed, max_iters=3)
        initial = make_initial(domain, M, N, seed)
        res = mc.run_msa(spec, domain, cfg, initial, hints=hints)
        records, returned, last, max_p, max_P, asym = separate_passes(
            spec, domain, cfg, initial, hints)
        assert records_equal_except_wall(res.records, records)
        for got, want in ((res.returned_control, returned), (res.last_control, last)):
            assert got.values.tobytes() == want.values.tobytes()
        if source == "off-grid-initial":  # some samples kept 0.5 through every update
            assert 0 < np.count_nonzero(res.last_control.values == 0.5) < M * N
        assert res.max_abs_p == max_p
        assert res.max_abs_P == max_P
        assert res.max_asym_P == asym

    @pytest.mark.parametrize("problem", ["curvature", "example41"])
    def test_derivatives_evaluated_once_per_node(self, problem, monkeypatch):
        if problem == "curvature":
            (spec, domain), rho, hints = curvature_problem(), 0.5, mc.RunHints()
            expected = ("f_z", "f_y", "f_x", "sigma_x", "b_x")
        else:
            bench = mc.example41(0.1)
            spec, domain, rho, hints = bench.spec, bench.domain, bench.rho, bench.hints
            expected = ("f_z",)
        calls = {}
        in_update = [False]

        def counted(name, fn):
            def wrapper(*args):
                if not in_update[0]:
                    calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            return wrapper

        real_minimize = mc.msa.minimize_step

        def minimize_uncounted(*args, **kwargs):
            in_update[0] = True
            try:
                return real_minimize(*args, **kwargs)
            finally:
                in_update[0] = False

        names = ("f_z", "f_y", "f_x", "sigma_x", "b_x")
        derivatives = dataclasses.replace(
            spec.derivatives,
            **{name: counted(name, getattr(spec.derivatives, name)) for name in names})
        spec = dataclasses.replace(spec, derivatives=derivatives)
        monkeypatch.setattr(mc.msa, "minimize_step", minimize_uncounted)
        iters, N = 2, 6
        cfg = mc.MsaConfig(rho=rho, n_paths=200, steps=N, seed=5, max_iters=iters)
        mc.run_msa(spec, domain, cfg, "random", hints=hints)
        assert calls == {name: iters * N for name in expected}

    def test_update_reuses_the_node_derivatives(self):
        # The penalty's terms at the current control read the sweep's node, so
        # each derivative runs once there and once per candidate chunk (one
        # chunk here), not a third time at the current control.
        (spec, domain), names = curvature_problem(), ("f_z", "f_y", "f_x", "sigma_x", "b_x")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        derivatives = dataclasses.replace(
            spec.derivatives,
            **{name: counted(name, getattr(spec.derivatives, name)) for name in names})
        spec = dataclasses.replace(spec, derivatives=derivatives)
        iters, N = 2, 6
        cfg = mc.MsaConfig(rho=0.5, n_paths=200, steps=N, seed=5, max_iters=iters)
        mc.run_msa(spec, domain, cfg, "random")
        assert calls == dict.fromkeys(names, 2 * iters * N)

    def test_peak_heap_growth_in_steps_below_horizon_adjoints(self):
        spec, domain = curvature_everywhere_problem()
        n, d, M, seed = spec.n, spec.d, 400, 7
        assert not mc.second_order_vanishes(spec)

        def peak(N):
            batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, N), M, d, seed)
            initial = mc.random_control(domain, M, N, seed)
            cfg = mc.MsaConfig(rho=0.5, n_paths=M, steps=N, seed=seed, max_iters=2)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                mc.run_msa(spec, domain, cfg, initial, batch=batch)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        # p (n), q (n d), P (n^2) and Q (n^2 d) floats per path and step, over
        # the 10 extra steps
        horizon_adjoints = M * 10 * (n + n * d + n * n + n * n * d) * 8
        assert peak(20) - peak(10) < horizon_adjoints

    def test_peak_heap_growth_in_steps_within_one_pass(self):
        # no run holds Y, Z, an adjoint, the decrease or f_z over the horizon:
        # per path and step, over the 10 extra steps, only the states (n), the
        # current and the new control (2 k) and the increments (d) grow
        spec, _ = curvature_everywhere_problem()
        one_pass = 400 * 10 * (spec.n + 2 * spec.k + spec.d) * 8
        assert peak_heap_growth_in_steps(max_iters=2)[0] < one_pass

    def test_peak_heap_growth_in_steps_drops_dead_controls(self):
        # without epsilon nothing can return u^{m-2}, so from the third pass
        # on only the current and the new control are held, as in one pass
        spec, _ = curvature_everywhere_problem()
        two_controls = 400 * 10 * (spec.n + 2 * spec.k + spec.d) * 8
        growth, res = peak_heap_growth_in_steps(max_iters=4)
        assert growth < two_controls
        assert not res.stopped_early

    def test_peak_heap_growth_in_steps_keeps_one_more_control(self):
        # under an epsilon, from the third pass on, u^{m-2} is kept too: it is
        # the control an epsilon stop returns. This epsilon never fires.
        spec, _ = curvature_everywhere_problem()
        three_controls = 400 * 10 * (spec.n + 3 * spec.k + spec.d) * 8
        growth, res = peak_heap_growth_in_steps(max_iters=3, epsilon=1e-3)
        assert growth < three_controls
        assert res.stopped_early is False

    def test_dropped_control_changes_no_result(self):
        # an epsilon that never fires keeps u^{m-2} to the end; without one it
        # is dropped, and both runs return the same records and controls
        spec, domain = curvature_everywhere_problem()
        M, N, seed = 400, 10, 7
        initial = mc.random_control(domain, M, N, seed)
        cfg = mc.MsaConfig(rho=0.5, n_paths=M, steps=N, seed=seed, max_iters=4)
        free = mc.run_msa(spec, domain, cfg, initial)
        kept = mc.run_msa(spec, domain, dataclasses.replace(cfg, epsilon=1e-3), initial)
        assert not (free.stopped_early or kept.stopped_early)
        assert records_equal_except_wall(free.records, kept.records)
        for name in ("returned_control", "last_control"):
            a, b = getattr(free, name).values, getattr(kept, name).values
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def peak_heap_growth_in_steps(max_iters, epsilon=None):
    """tracemalloc peak of run_msa at N = 20 minus that at N = 10 (M = 400),
    with the N = 20 run's result."""
    spec, domain = curvature_everywhere_problem()
    M, seed = 400, 7

    def peak(N):
        batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, N), M, spec.d, seed)
        initial = mc.random_control(domain, M, N, seed)
        cfg = mc.MsaConfig(rho=0.5, n_paths=M, steps=N, seed=seed, max_iters=max_iters,
                           epsilon=epsilon)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = mc.run_msa(spec, domain, cfg, initial, batch=batch)
            return tracemalloc.get_traced_memory()[1] - start, res
        finally:
            tracemalloc.stop()

    peak(10)  # warm-up: caches filled on the first run stay out of the growth
    (high, res), (low, _) = peak(20), peak(10)
    return high - low, res
