import numpy as np
import pytest

import msacontrol as mc


def records_equal_except_wall(a, b):
    fields = ("m", "j", "j_stderr", "mu", "mu_stderr", "descent")
    return len(a) == len(b) and all(
        getattr(ra, f) == getattr(rb, f) for ra, rb in zip(a, b) for f in fields)


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
