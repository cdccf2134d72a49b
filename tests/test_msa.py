import dataclasses
import tracemalloc

import numpy as np
import pytest

import msacontrol as mc
from msacontrol.stochastics import _time_major, _time_major_copy


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

        real_minimize, real_mu = msa.minimize_step, msa.compute_mu

        def minimize_spy(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs):
            out = real_minimize(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs)
            for name, arr in (("x", x), ("y", y), ("z", z), ("q_j", q), ("u_prev", u_prev)):
                seen.setdefault(name, []).append(arr.flags.c_contiguous)
            return out

        def mu_spy(hhat, fz, batch):
            record("hhat", hhat)
            return real_mu(hhat, fz, batch)

        monkeypatch.setattr(msa, "minimize_step", minimize_spy)
        monkeypatch.setattr(msa, "compute_mu", mu_spy)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=200, steps=6, seed=3, max_iters=2)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        record("u_new", res.last_control.values)
        assert {"x", "y", "z", "q_j", "u_prev", "hhat", "u_new"} <= set(seen)
        assert all(all(flags) for flags in seen.values()), seen


def separate_passes(spec, domain, cfg, initial, hints):
    """Fixed-length run_msa as separate passes: both adjoints stored over the
    horizon, then an ascending update loop, then an f_z grid for mu.

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
    u_prev = mc.ControlField(_time_major_copy(initial.values))
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
        u_new = _time_major(u_prev.values.shape)
        hhat = _time_major((M, N))
        for j in range(N):
            u_new[:, j, :], h_new, h_prev, _ = mc.hamiltonian.minimize_step(
                spec, nodes[j], forward.states[:, j, :], backward.values[:, j],
                backward.integrand[:, j, :], first.p[:, j, :], first.q[:, j], second.P[:, j],
                u_prev.values[:, j, :], candidates, cfg.rho, h_fn=hints.hamiltonian,
                pen_fn=hints.penalty)
            hhat[:, j] = h_new - h_prev
        fz = np.empty((M, N, d))
        for j in range(N):
            fz[:, j, :] = spec.derivatives.f_z(nodes[j], forward.states[:, j, :],
                                               backward.values[:, j],
                                               backward.integrand[:, j, :],
                                               u_prev.values[:, j, :])
        mu, mu_se = mc.compute_mu(hhat, fz, batch)
        u_new = mc.ControlField(u_new)
        forward_new = mc.simulate_forward(spec, u_new, batch)
        backward_new = mc.solve_state_bsde(spec, forward_new, u_new, backend)
        records.append(mc.IterationRecord(
            m=m, j=backward.j_estimate, j_stderr=backward.j_stderr, mu=mu, mu_stderr=mu_se,
            descent=backward.j_estimate - backward_new.j_estimate, wall_ms=0.0))
        max_p.append(float(np.max(np.abs(first.p if p_ode is None else p_ode))))
        max_P.append(float(np.max(np.abs(second.P if P_ode is None else P_ode))))
        asym.append(second.asymmetry)
        u_before = u_prev
        u_prev, forward, backward = u_new, forward_new, backward_new
    return records, u_before, u_prev, max_p, max_P, asym


def sweep_sources():
    """(spec, domain, rho, hints) for each way p and P reach the update."""
    spec, domain = curvature_problem()
    # any nodes do as a costate hint here: the reference reads the same ones
    p_nodes = mc.RunHints(first_order_ode=lambda grid: np.outer(grid.nodes, [0.3, -0.2]))
    cases = {"p-solved-P-solved": (spec, domain, 0.5, mc.RunHints()),
             "p-hinted-P-solved": (spec, domain, 0.5, p_nodes)}
    for name, bench in (("p-solved-P-hinted", mc.lq_desk()),
                        ("p-hinted-P-declared-zero", mc.example41(0.1)),
                        ("p-hinted-P-zero-by-flags", mc.linrec_desk())):
        cases[name] = (bench.spec, bench.domain, bench.rho, bench.hints)
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


class TestSingleSweep:
    @pytest.mark.parametrize("source", list(sweep_sources()))
    def test_bitwise_equal_to_separate_passes(self, source):
        spec, domain, rho, hints = sweep_sources()[source]
        M, N, seed = 300, 8, 11
        cfg = mc.MsaConfig(rho=rho, n_paths=M, steps=N, seed=seed, max_iters=3)
        initial = mc.random_control(domain, M, N, seed)
        res = mc.run_msa(spec, domain, cfg, initial, hints=hints)
        records, returned, last, max_p, max_P, asym = separate_passes(
            spec, domain, cfg, initial, hints)
        assert records_equal_except_wall(res.records, records)
        assert np.array_equal(res.returned_control.values, returned.values)
        assert np.array_equal(res.last_control.values, last.values)
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
