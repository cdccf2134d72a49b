import dataclasses
import math
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msacontrol as mc
from msacontrol.stochastics import _time_major

from dense_paths import girsanov_weights


def records_equal_except_wall(a, b):
    fields = ("m", "j", "j_stderr", "mu", "mu_stderr", "descent", "weight_ess",
              "weight_max_ratio", "max_abs_p", "max_abs_P", "max_asym_P")
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
        w = girsanov_weights(fz, batch)
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

    @pytest.mark.parametrize("bench_name", ["lq_desk", "example41"])
    def test_every_computed_step_adds_girsanov_terms(self, bench_name, monkeypatch):
        # Every step of every computed pass adds f_z . dW and |f_z|^2, also where
        # f_z = 0 (lq_desk): those are exact zeros, so its weights stay exactly 1.
        # At its formula rho example41(0.5) keeps every control from pass 1 on,
        # and passes 2 and 3 are copies; at rho = 0.3 each pass changes some
        bench = mc.lq_desk() if bench_name == "lq_desk" else mc.example41(0.5)
        seen = []

        def spy(*args):
            seen.append(args)
            return mc.stochastics.girsanov_terms(*args)

        monkeypatch.setattr(mc.msa, "girsanov_terms", spy)
        rho = bench.rho if bench_name == "lq_desk" else 0.3
        cfg = mc.MsaConfig(rho=rho, n_paths=300, steps=10, seed=3, max_iters=3)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert len(res.records) == 3 and len(seen) == 3 * 10
        assert all(rec.changed_frac > 0.0 for rec in res.records[:-1])

    def test_max_iters_zero_returns_empty(self):
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=100, steps=5, seed=1, max_iters=0)
        res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
        assert res.records == []

    def test_config_validation(self):
        # nan < 0 is false, so a bare sign check let nan (and inf) through
        for rho in (-1.0, float("nan"), float("inf")):
            with pytest.raises(mc.ConfigurationError, match="rho must be finite"):
                mc.MsaConfig(rho=rho, n_paths=10, steps=5, seed=0)
        with pytest.raises(mc.ConfigurationError):
            mc.MsaConfig(rho=0.0, n_paths=0, steps=5, seed=0)
        with pytest.raises(mc.ConfigurationError):
            mc.MsaConfig(rho=0.0, n_paths=10, steps=5, seed=0, epsilon=0.0)
        # numpy integers are counts too
        cfg = mc.MsaConfig(rho=0.0, n_paths=np.int64(10), steps=np.uint8(5), seed=0,
                           max_iters=np.int32(0))
        assert mc.TimeGrid(1.0, cfg.steps).nodes.shape == (6,)

    @pytest.mark.parametrize("make, message", [
        (lambda: mc.MsaConfig(rho=0, n_paths=10.5, steps=2, seed=1), "n_paths must be an integer"),
        (lambda: mc.MsaConfig(rho=0, n_paths=10, steps=2.0, seed=1), "steps must be an integer"),
        (lambda: mc.MsaConfig(rho=0, n_paths=10, steps=2, seed=1, max_iters=1.5),
         "max_iters must be an integer"),
        (lambda: mc.MsaConfig(rho=0, n_paths=True, steps=2, seed=1), "n_paths must be an integer"),
        (lambda: mc.RegressionBackend(degree=1.5), "degree must be an integer"),
        (lambda: mc.TimeGrid(1.0, 2.5), "steps must be an integer"),
        (lambda: mc.TimeGrid(float("inf"), 2), "horizon must be positive and finite"),
        (lambda: mc.sample_brownian(mc.TimeGrid(1.0, 2), 10.5, 1, 0),
         "n_paths must be an integer"),
    ], ids=["msa-paths", "msa-steps", "msa-iters", "msa-paths-bool", "degree", "grid-steps",
            "grid-inf-horizon", "brownian-paths"])
    def test_non_integral_count_or_infinite_horizon_refused(self, make, message):
        # each was once accepted, to fail later (or run with dt = inf)
        with pytest.raises(mc.ConfigurationError, match=message):
            make()

    @pytest.mark.parametrize("initial, message", [
        ("zeros", "^unknown initial control 'zeros'$"),
        (mc.constant_control([0.0], 9, 5), "^initial control shape does not match the run$"),
        (mc.constant_control([0.0], 10, 4), "^initial control shape does not match the run$"),
        (mc.constant_control([0.0, 0.0], 10, 5),
         "^initial control shape does not match the run$"),
    ], ids=["unknown-name", "paths", "steps", "k"])
    def test_malformed_initial_control_refused(self, initial, message):
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=10, steps=5, seed=0, max_iters=1)
        with pytest.raises(mc.ConfigurationError, match=message):
            mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints)

    @pytest.mark.parametrize("initial", [
        mc.constant_control([0.5], 10, 5),  # off the grid: re-indexed over the candidates
        "random",
    ], ids=["off-grid", "random"])
    def test_domain_of_another_width_refused(self, initial):
        # an off-grid initial control failed in ControlField.over with a bare
        # ValueError, and "random" with "control/batch dimensions disagree"
        bench = mc.example41(0.1)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=10, steps=5, seed=0, max_iters=1)
        with pytest.raises(mc.ConfigurationError,
                           match=r"^control domain has k = 2, the problem k = 1$"):
            mc.run_msa(bench.spec, mc.FiniteSet([[0.0, 0.0], [1.0, 1.0]]), cfg, initial,
                       hints=bench.hints)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, True, np.float64(3.0)],
                             ids=["negative", "2**128", "float", "bool", "numpy-float"])
    @pytest.mark.parametrize("make", [
        lambda seed: mc.MsaConfig(rho=0.0, n_paths=10, steps=2, seed=seed),
        lambda seed: mc.sample_brownian(mc.TimeGrid(1.0, 2), 10, 1, seed),
        lambda seed: mc.random_control(mc.example41(0.1).domain, 10, 2, seed),
        lambda seed: mc.benchmarks.tree_random_control(mc.example41(0.1).domain, 2, seed),
    ], ids=["msa-config", "brownian", "random-control", "tree-control"])
    def test_seed_outside_the_philox_keys_refused(self, make, seed):
        # -1 and 2**128 failed with numpy's bare ValueError, 1.5 was truncated to 1
        with pytest.raises(mc.ConfigurationError, match=r"^seed must be an integer in "):
            make(seed)

    @pytest.mark.parametrize("seed", [0, np.uint64(7), 2 ** 128 - 1],
                             ids=["zero", "numpy-int", "2**128-1"])
    def test_seed_inside_the_philox_keys_accepted(self, seed):
        assert mc.MsaConfig(rho=0.0, n_paths=10, steps=2, seed=seed).seed == seed
        assert mc.sample_brownian(mc.TimeGrid(1.0, 2), 10, 1, seed).n_paths == 10

    def test_integer_initial_control_runs_as_float(self):
        # an int64 control once truncated every update u^m_j to an integer
        bench, domain = mc.lq_desk(), mc.Box([-1.0], [1.0], [5])
        M, N = 256, 5
        cfg = mc.MsaConfig(rho=0.0, n_paths=M, steps=N, seed=0, max_iters=3)
        runs = [mc.run_msa(bench.spec, domain, cfg,
                           mc.ControlField(table=np.ones((1, 1), dtype=dtype),
                                           index=np.zeros((M, N), dtype=int)),
                           hints=bench.hints)
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

    @pytest.mark.parametrize("depth", [3, 2])
    def test_tree_backend_of_another_depth_refused(self, depth):
        # a 3-step backend on a 4-step tree ran on, blocks one flip too fine (record
        # 2 at J = 0.265625 against 0.0), and a 2-step one raised a bare TypeError;
        # pass 1's sweep refuses both before any regression runs
        bench, steps = mc.lq_desk(), 4
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps, seed=3,
                           max_iters=2)
        initial = mc.benchmarks.tree_random_control(bench.domain, steps, 3)
        with pytest.raises(mc.ConfigurationError,
                           match=f"^iteration 1: tree backend has {depth} steps, "
                                 f"the batch {steps}$"):
            mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints,
                       batch=mc.tree_batch(steps), backend=mc.tree_backend(depth))

    @pytest.mark.parametrize("name, shape, wanted", [
        ("first_order_ode", (21,), (21, 1)),
        ("second_order_ode", (21, 1), (21, 1, 1)),
        ("first_order_ode", (30,), (21, 1)),
    ], ids=["p-flat", "P-flat", "p-long"])
    def test_hint_nodes_of_the_wrong_shape_refused(self, name, shape, wanted):
        # at M = N + 1 a flat (N + 1,) costate broadcast along the paths, not the
        # nodes, and the run went on silently (mu -0.11277 against -0.11721 here)
        bench = mc.example41(0.5)
        hints = mc.RunHints(**{name: lambda grid: np.resize(grid.nodes, shape)})
        cfg = mc.MsaConfig(rho=0.3, n_paths=21, steps=20, seed=1, max_iters=1)
        with pytest.raises(mc.ConfigurationError,
                           match=re.escape(f"RunHints.{name} gave nodes of shape {shape}, "
                                           f"not {wanted}")):
            mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=hints)

    @pytest.mark.parametrize("lone", ["hamiltonian", "penalty"])
    def test_a_lone_hint_is_refused_when_the_hints_are_built(self, lone):
        # a lone hint once reached run_msa, which simulated a pass and stepped the
        # adjoints before minimize_step refused it at iteration 1
        hints = mc.example41(0.1).hints
        with pytest.raises(mc.ConfigurationError, match="hamiltonian and penalty go together"):
            dataclasses.replace(hints, **{lone: None})
        with pytest.raises(mc.ConfigurationError, match="go together"):
            mc.RunHints(**{lone: getattr(hints, lone)})

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

    @pytest.mark.parametrize("desk, name, bad, named", [
        ("example41", "phi_x", 6, 6), ("lq_desk", "phi_xx", 5, 5)])
    def test_non_finite_adjoint_is_named_before_the_update_reads_it(self, desk, name, bad,
                                                                    named):
        # a NaN terminal adjoint on path `bad`, solved without hints on the 3-step
        # tree: the sweep names the terminal at step 3, before any regression or the
        # Hamiltonian reads it
        bench = mc.example41(0.1) if desk == "example41" else mc.lq_desk()
        terminal = getattr(bench.spec.derivatives, name)

        def poisoned(x):
            out = np.array(terminal(x), dtype=float)
            out[bad] = np.nan
            return out

        spec = dataclasses.replace(bench.spec, derivatives=dataclasses.replace(
            bench.spec.derivatives, **{name: poisoned}))
        steps = 3
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps, seed=3,
                           max_iters=1)
        with pytest.raises(mc.NumericalError, match=rf"^iteration 1: step 3: non-finite "
                                                    rf"solution on path {named}$") as info:
            mc.run_msa(spec, bench.domain, cfg,
                       mc.benchmarks.tree_random_control(bench.domain, steps, 3),
                       batch=mc.tree_batch(steps), backend=mc.tree_backend(steps))
        assert (info.value.path, info.value.step) == (named, 3)

    def test_max_asym_P_records_the_second_order_asymmetry(self):
        spec, domain = curvature_problem()
        M, N, seed = 500, 10, 3
        cfg = mc.MsaConfig(rho=0.0, n_paths=M, steps=N, seed=seed, max_iters=3)
        res = mc.run_msa(spec, domain, cfg, "random")
        asym = [rec.max_asym_P for rec in res.records]
        assert max(asym) <= 1e-12 * max(rec.max_abs_P for rec in res.records)
        # the first record is what the solve at the initial control reports
        backend = cfg.backend
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, seed)
        ctl = mc.random_control(domain, M, N, seed)
        fwd = mc.simulate_forward(spec, ctl, batch)
        bwd = mc.solve_state_bsde(spec, fwd, backend)
        first = mc.first_order_adjoint(spec, fwd, bwd, backend)
        second = mc.second_order_adjoint(spec, fwd, bwd, first, backend)
        assert asym[0] == second.asymmetry > 0.0
        # the hinted and the zero branch record exact zeros
        for desk in (mc.lq_desk(), mc.example41(0.1)):
            cfg = mc.MsaConfig(rho=desk.rho, n_paths=200, steps=N, seed=seed, max_iters=2)
            res = mc.run_msa(desk.spec, desk.domain, cfg, "random", hints=desk.hints)
            assert [rec.max_asym_P for rec in res.records] == [0.0] * len(res.records)


def sweep_again(spec, domain, cfg, hints, control, m):
    """Pass m along ``control`` by run_msa's own sweep, fed as run_msa feeds it:
    (record with its descent open, the new control)."""
    batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, cfg.steps), cfg.n_paths, spec.d,
                               cfg.seed)
    p_ode = hints.first_order_ode(batch.grid) if hints.first_order_ode else None
    P_ode = hints.second_order_ode(batch.grid) if hints.second_order_ode else None
    if P_ode is None and mc.second_order_vanishes(spec):
        P_ode = np.zeros((cfg.steps + 1, spec.n, spec.n))
    return mc.msa._update_sweep(m, time.perf_counter(), spec,
                                mc.simulate_forward(spec, control, batch), p_ode, P_ode,
                                mc.enumerate_controls(domain), cfg.rho, hints, cfg.backend)


class TestFixedPointCopies:
    """A pass that keeps every control is a fixed point of the update on the shared
    batch: each later pass would repeat it bit for bit, so run_msa copies its record."""

    M, N, SEED = 1000, 10, 3

    def run(self, L, hinted, monkeypatch=None, **config):
        bench = mc.example41(L)
        hints = bench.hints if hinted else mc.RunHints()
        calls = {"simulate_forward": 0, "minimize_step": 0}
        if monkeypatch is not None:
            for name, fn in (("simulate_forward", mc.stochastics.simulate_forward),
                             ("minimize_step", mc.hamiltonian.minimize_step)):
                def spy(*args, _name=name, _fn=fn, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(mc.msa, name, spy)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=self.M, steps=self.N, seed=self.SEED,
                           max_iters=6, **config)
        initial = mc.random_control(bench.domain, self.M, self.N, self.SEED)
        res = mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=hints)
        return bench, cfg, hints, initial, res, calls

    @pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "solved"])
    def test_frozen_run_makes_one_pass(self, hinted, monkeypatch):
        # at its formula rho example41(1.0)'s penalty outweighs every candidate's
        # gain, so pass 1 keeps every control: passes 2-6 are copies, and the last
        # control is pass 1's, which pass 1 priced, so nothing simulates again
        *_, initial, res, calls = self.run(1.0, hinted, monkeypatch)
        assert calls == {"simulate_forward": 1, "minimize_step": self.N}
        assert [rec.m for rec in res.records] == [1, 2, 3, 4, 5, 6]
        assert [rec.changed_frac for rec in res.records] == [0.0] * 6
        assert [rec.descent for rec in res.records] == [0.0] * 6
        assert not res.stopped_early
        for control in (res.returned_control, res.last_control):
            assert control.values.tobytes() == initial.values.tobytes()

    @pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "solved"])
    def test_frozen_run_stops_after_one_pass(self, hinted, monkeypatch):
        *_, initial, res, calls = self.run(1.0, hinted, monkeypatch, epsilon=1e-9)
        assert calls == {"simulate_forward": 1, "minimize_step": self.N}
        assert res.stopped_early and res.m_eps == 1 and len(res.records) == 1
        assert res.records[0].descent == 0.0
        assert res.returned_control.values.tobytes() == initial.values.tobytes()

    @pytest.mark.parametrize("L, hinted", [(1.0, True), (1.0, False), (0.1, True)],
                             ids=["frozen-hinted", "frozen-solved", "example41-0.1"])
    def test_copies_equal_a_recomputed_pass(self, L, hinted):
        bench, cfg, hints, _, res, _ = self.run(L, hinted)
        fixed = next(rec.m for rec in res.records if rec.changed_frac == 0.0)
        assert fixed < cfg.max_iters  # at least one record is a copy
        again, u_next = sweep_again(bench.spec, bench.domain, cfg, hints,
                                    res.last_control, cfg.max_iters + 1)
        assert np.array_equal(u_next.index, res.last_control.index)
        fields = [f.name for f in dataclasses.fields(mc.IterationRecord)
                  if f.name not in ("m", "wall_ms", "descent")]
        for rec in res.records[fixed - 1:]:
            assert [getattr(rec, f) for f in fields] == [getattr(again, f) for f in fields]
        # the recomputed J(u^m) closes every record from the fixed point on, the
        # last one too: each descent is 0.0
        assert [rec.descent for rec in res.records[fixed - 1:]] == \
            [rec.j - again.j for rec in res.records[fixed - 1:]] == \
            [0.0] * (cfg.max_iters - fixed + 1)

    def test_changed_frac_is_the_share_of_changed_cells(self):
        bench = mc.example41(0.5)
        M, N, seed = self.M, self.N, self.SEED
        controls = [mc.random_control(bench.domain, M, N, seed)]
        for iters in (1, 2, 3):  # rho = 0.3: every pass changes some controls
            cfg = mc.MsaConfig(rho=0.3, n_paths=M, steps=N, seed=seed, max_iters=iters)
            res = mc.run_msa(bench.spec, bench.domain, cfg, controls[0], hints=bench.hints)
            controls.append(res.last_control)
        for rec, before, after in zip(res.records, controls, controls[1:]):
            changed = (after.values != before.values).any(axis=2)
            assert rec.changed_frac == np.count_nonzero(changed) / (M * N)
        assert res.records[0].changed_frac > 0.0


def last_pricing_case(name):
    """(spec, domain, config, initial, run_msa keywords, pricing calls wanted) of a
    run that ends at a fixed point (0 calls) or not (1 call)."""
    if name in ("frozen", "example41-0.1"):
        bench, (M, N, seed) = mc.example41(1.0 if name == "frozen" else 0.1), (1000, 10, 3)
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=seed, max_iters=6)
        return (bench.spec, bench.domain, cfg, mc.random_control(bench.domain, M, N, seed),
                {"hints": bench.hints}, 0)
    if name == "lq-tree":
        bench, steps, seed = mc.lq_desk(), 4, 7
        cfg = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps, seed=seed,
                           max_iters=10)
        return (bench.spec, bench.domain, cfg,
                mc.benchmarks.tree_random_control(bench.domain, steps, seed),
                {"hints": bench.hints, "batch": mc.tree_batch(steps, bench.spec.horizon),
                 "backend": mc.tree_backend(steps)}, 0)
    (spec, domain), iters = curvature_problem(), int(name[-1])  # every pass changes u
    cfg = mc.MsaConfig(rho=0.5, n_paths=200, steps=6, seed=5, max_iters=iters)
    return spec, domain, cfg, mc.random_control(domain, 200, 6, 5), {}, 1


class TestLastPricing:
    """A run that ends at a fixed point closes its last record with descent 0.0: its
    last control is u^{m-1}, which the last computed sweep priced on the same batch.
    Only a run that ends elsewhere prices its last control on its own."""

    @pytest.mark.parametrize("name", ["frozen", "example41-0.1", "lq-tree", "curvature-1",
                                      "curvature-3"])
    def test_only_a_run_off_a_fixed_point_prices_its_last_control(self, name, monkeypatch):
        spec, domain, cfg, initial, kwargs, pricing = last_pricing_case(name)
        calls = {"simulate_forward": 0, "pathwise_cost": 0}
        for fn in (mc.stochastics.simulate_forward, mc.bsde.pathwise_cost):
            def spy(*args, _fn=fn, **kw):
                calls[_fn.__name__] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(mc.msa, fn.__name__, spy)
        res = mc.run_msa(spec, domain, cfg, initial, **kwargs)
        assert len(res.records) == cfg.max_iters and not res.stopped_early
        # the passes up to the first fixed point are computed, the later ones copied
        swept = next((rec.m for rec in res.records if rec.changed_frac == 0.0),
                     cfg.max_iters)
        assert calls == {"simulate_forward": swept + pricing, "pathwise_cost": pricing}
        if pricing == 0:
            assert swept < cfg.max_iters
            assert res.records[-1].descent == 0.0
            assert res.final_j == res.records[-1].j
        else:
            assert res.records[-1].changed_frac > 0.0

    @pytest.mark.parametrize("L", [1.0, 0.1])
    def test_the_skipped_pricing_matches_bit_for_bit_when_only_Y_is_regressed(self, L):
        # hinted example41 regresses Y alone, so pricing the last control by
        # pathwise_cost repeats the last sweep's J exactly
        spec, domain, cfg, initial, kwargs, _ = last_pricing_case(
            "frozen" if L == 1.0 else "example41-0.1")
        res = mc.run_msa(spec, domain, cfg, initial, **kwargs)
        assert res.records[-1].changed_frac == 0.0
        assert priced(spec, cfg, res.last_control) == res.records[-1].j == res.final_j

    def test_the_skipped_pricing_differs_only_by_rounding_under_stacked_columns(self):
        # the sweep regresses Y together with P's columns in one projection, so a
        # pricing of Y alone may differ in the last bits (here by about 3e-15): the
        # rounding the fixed-point rule takes out of the last descent, now exactly 0.0
        spec, domain, rho, hints, make_initial = sweep_sources()["p-hinted-P-solved"]
        M, N, seed = 300, 8, 11
        cfg = mc.MsaConfig(rho=rho, n_paths=M, steps=N, seed=seed, max_iters=3)
        res = mc.run_msa(spec, domain, cfg, make_initial(domain, M, N, seed), hints=hints)
        assert res.records[-1].changed_frac == 0.0 and res.records[-1].descent == 0.0
        j = res.records[-1].j
        assert abs(priced(spec, cfg, res.last_control) - j) <= 1e-12 * abs(j)

    def test_epsilon_stop_on_the_last_allowed_pass(self):
        # example41(0.1)'s pass 2 keeps every control: with max_iters = 2 the rule
        # closes record 2 with 0.0 and stops there, as the copy of pass 3 does
        spec, domain, cfg, initial, kwargs, _ = last_pricing_case("example41-0.1")
        runs = [mc.run_msa(spec, domain, dataclasses.replace(cfg, max_iters=iters,
                                                             epsilon=1e-9),
                           initial, **kwargs) for iters in (2, 3)]
        u_1 = mc.run_msa(spec, domain, dataclasses.replace(cfg, max_iters=1), initial,
                         **kwargs).last_control
        for res in runs:
            assert [rec.changed_frac == 0.0 for rec in res.records] == [False, True]
            assert res.stopped_early and res.m_eps == 2
            assert res.records[-1].descent == 0.0
            for control in (res.returned_control, res.last_control):
                assert control.values.tobytes() == u_1.values.tobytes()
        assert records_equal_except_wall(*(res.records for res in runs))


    @pytest.mark.parametrize("iters", [2, 3])
    def test_a_failure_names_the_last_pass(self, iters, monkeypatch):
        # the hinted H prefers u + 1, so u^m = m on every path; u = 2 drives X_1 to
        # +inf. With 2 passes the last pricing (of u^2) fails, with 3 pass 3's own
        # forward pass: either way the error names iteration {max_iters}
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.where(u >= 2.0, np.inf, 0.0),
            diffusion=lambda t, x, u: np.ones((len(x), 1, 1)),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0] ** 2)
        hints = mc.RunHints(
            hamiltonian=lambda spec, t, x, y, z, p, q, P, v, u: (
                -1.0 * (v[:, 0] == u[:, 0] + 1.0)),
            penalty=lambda spec, t, x, y, z, p, q, v, u: np.zeros(len(x)))
        M, N = 16, 4
        cfg = mc.MsaConfig(rho=0.0, n_paths=M, steps=N, seed=5, max_iters=iters)
        calls = []
        real = mc.msa.simulate_forward

        def spy(spec, control, batch):
            calls.append(np.unique(control.values).tolist())
            return real(spec, control, batch)

        monkeypatch.setattr(mc.msa, "simulate_forward", spy)
        with pytest.raises(mc.SimulationError) as info:
            mc.run_msa(spec, mc.FiniteSet([[0.0], [1.0], [2.0]]), cfg,
                       mc.constant_control([0.0], M, N), hints=hints)
        assert calls == [[0.0], [1.0], [2.0]]
        assert str(info.value) == f"iteration {iters}: non-finite state at path 0, step 1"
        assert (info.value.path, info.value.step) == (0, 1)


def priced(spec, cfg, control):
    """J of ``control`` priced on its own on the run's batch, as a run that does not
    end at a fixed point prices its last control."""
    batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, cfg.steps), cfg.n_paths, spec.d,
                               cfg.seed)
    forward = mc.simulate_forward(spec, control, batch)
    return mc.bsde.cost_estimate(mc.pathwise_cost(spec, forward, cfg.backend))[0]


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

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")], ids=["zero", "-1", "nan"])
    def test_epsilon_must_be_positive(self, epsilon):
        # 0 divided by zero in gap / sqrt(epsilon); -1 and nan reported no stop
        recs = self.make_records([0.5, 0.1], [0.4, -1e-9])
        with pytest.raises(mc.ConfigurationError, match="epsilon must be positive"):
            mc.near_optimality_gap(recs, epsilon, f_y_bound=0.0, horizon=1.0, jstar=0.0)


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
        bwd = mc.solve_state_bsde(bench.spec, fwd, mc.RegressionBackend())
        assert bwd.j_estimate == pytest.approx(res.records[-1].j, abs=1e-12)


def c_order_copy(batch, control):
    """The same noise, and the control's dense values, stored path-major (C order)."""
    c_batch = mc.BrownianBatch(batch.grid, np.ascontiguousarray(batch.increments))
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
                for b, ctl in ((batch, initial),
                               (c_batch, mc.ControlField(table=c_values.reshape(M * N, -1),
                                                         index=np.arange(M * N).reshape(M, N))))]
        time_major, c_order = runs
        assert records_equal_except_wall(time_major.records, c_order.records)
        for name in ("returned_control", "last_control"):
            assert np.array_equal(getattr(time_major, name).values,
                                  getattr(c_order, name).values)
        for name in ("max_abs_p", "max_abs_P", "max_asym_P"):
            assert np.array_equal([getattr(rec, name) for rec in time_major.records],
                                  [getattr(rec, name) for rec in c_order.records])
        assert max(rec.max_abs_P for rec in time_major.records) > 0.0

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
    @pytest.mark.parametrize("case", ["example41", "lq_desk", "curvature"])
    def test_step_slices_are_contiguous(self, case, monkeypatch):
        # the curvature case solves both adjoints, so their steps receive
        # proxies too: every proxy of a step is a contiguous array of its own
        msa = mc.msa
        if case == "curvature":
            (spec, domain), rho, hints = curvature_everywhere_problem(), 0.5, None
        else:
            bench = mc.example41(0.2) if case == "example41" else mc.lq_desk()
            spec, domain, rho, hints = bench.spec, bench.domain, bench.rho, bench.hints
        seen, proxies = {}, []  # per step, the proxies its step functions received

        def record(name, arr):
            for j in (0, arr.shape[1] // 2, arr.shape[1] - 1):
                seen.setdefault(name, []).append(arr[:, j].flags.c_contiguous)

        real_minimize = msa.minimize_step

        def minimize_spy(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs):
            out = real_minimize(spec, t, x, y, z, p, q, P, u_prev, *args, **kwargs)
            for name, arr in (("x", x), ("y", y), ("z", z), ("q_j", q), ("u_prev", u_prev)):
                seen.setdefault(name, []).append(arr.flags.c_contiguous)
            return out

        def spy_on(module, name, positions):  # positional argument -> the proxy's name
            real = getattr(module, name)

            def spy(*args):
                if name == "cost_step":  # the first step function of each step
                    proxies.append({})
                proxies[-1].update({proxy: args[i] for i, proxy in positions.items()})
                return real(*args)

            monkeypatch.setattr(module, name, spy)

        monkeypatch.setattr(msa, "minimize_step", minimize_spy)
        # the sweep's cost step (bsde.cost_sweep_step) calls bsde's cost_step
        spy_on(mc.bsde, "cost_step", {3: "yhat", 4: "z"})
        spy_on(msa, "first_order_step", {1: "phat_p", 2: "q_p"})
        spy_on(msa, "second_order_step", {1: "phat_P", 2: "Q_P"})
        cfg = mc.MsaConfig(rho=rho, n_paths=200, steps=6, seed=3, max_iters=2)
        res = mc.run_msa(spec, domain, cfg, "random", hints=hints)
        record("u_new", res.last_control.values)
        for arrays in proxies:
            for name, arr in arrays.items():
                seen.setdefault(name, []).append(arr.flags.c_contiguous)
            named = list(arrays.items())
            for i, (a, arr_a) in enumerate(named):
                for b, arr_b in named[i + 1:]:
                    assert not np.shares_memory(arr_a, arr_b), (a, b)
        wanted = {"x", "y", "z", "q_j", "u_prev", "u_new", "yhat"}
        if case == "curvature":
            wanted |= {"phat_p", "q_p", "phat_P", "Q_P"}
        assert wanted <= set(seen)
        assert all(all(flags) for flags in seen.values()), seen


class TestSweepWorkingSet:
    """One solved-adjoint pass of the curvature case (n = 4, d = 2, M = 400): a
    sweep step frees each of its arrays once their last reader has run."""

    M, N = 400, 6

    def run_pass(self, spec, domain):
        cfg = mc.MsaConfig(rho=0.5, n_paths=self.M, steps=self.N, seed=7, max_iters=1)
        return mc.run_msa(spec, domain, cfg, "random")

    def test_peak_growth_inside_the_step_kernels(self, monkeypatch):
        # inside second_order_step and minimize_step the traced heap grows by
        # at most one step's carries (Y, p and P) plus every derivative at the
        # node: the kernels' own temporaries stay below that
        msa = mc.msa
        spec, domain = curvature_everywhere_problem()
        M, n, d, k, dv = self.M, spec.n, spec.d, spec.k, spec.derivatives
        x, u, y, z = np.zeros((M, n)), np.zeros((M, k)), np.zeros(M), np.zeros((M, d))
        derivatives = ([getattr(dv, name)(0.0, x, y, z, u)
                        for name in ("f_x", "f_y", "f_z", "f_hess")]
                       + [getattr(dv, name)(0.0, x, u)
                          for name in ("b_x", "sigma_x", "b_xx", "sigma_xx")])
        bound = M * (1 + n + n * n) * 8 + sum(a.nbytes for a in derivatives)
        growth = {}

        def traced(name):
            real = getattr(msa, name)

            def spy(*args, **kwargs):
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = real(*args, **kwargs)
                growth.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] - entry)
                return out

            monkeypatch.setattr(msa, name, spy)

        traced("second_order_step")
        traced("minimize_step")
        self.run_pass(spec, domain)  # warm-up: caches filled once stay out of the peaks
        growth.clear()
        tracemalloc.start()
        try:
            self.run_pass(spec, domain)
        finally:
            tracemalloc.stop()
        assert {name: len(g) for name, g in growth.items()} == {
            "second_order_step": self.N, "minimize_step": self.N}
        assert max(map(max, growth.values())) < bound, (growth, bound)

    def test_terminals_and_carries_go_before_the_update(self, monkeypatch):
        # at step j's update no frame holds Phi_x(X_T), Phi_xx(X_T) or step
        # j + 1's Y, p and P: the first step's projection stacked the terminals,
        # and step j's projection the carries
        msa = mc.msa
        spec, domain = curvature_everywhere_problem()
        terminals, carries, checked = [], [], []  # weak references; steps checked

        def referenced(real, refs):
            def wrapped(*args, **kwargs):
                out = real(*args, **kwargs)
                refs().append(weakref.ref(out[0] if isinstance(out, tuple) else out))
                return out
            return wrapped

        dv = spec.derivatives
        spec = dataclasses.replace(spec, derivatives=dataclasses.replace(
            dv, phi_x=referenced(dv.phi_x, lambda: terminals),
            phi_xx=referenced(dv.phi_xx, lambda: terminals)))
        real_cost_step = mc.bsde.cost_step  # called by the sweep's cost rule

        def cost_spy(*args):  # the first step function of each step
            carries.append([])
            return real_cost_step(*args)

        monkeypatch.setattr(mc.bsde, "cost_step", referenced(cost_spy, lambda: carries[-1]))
        for name in ("first_order_step", "second_order_step"):
            monkeypatch.setattr(msa, name,
                                referenced(getattr(msa, name), lambda: carries[-1]))
        real_minimize = msa.minimize_step

        def minimize_spy(*args, **kwargs):
            alive = [ref() is not None for ref in terminals]
            alive += [ref() is not None for refs in carries[:-1] for ref in refs]
            assert not any(alive), f"step {len(carries)} from the end: {alive}"
            checked.append(len(carries[-1]))
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(msa, "minimize_step", minimize_spy)
        self.run_pass(spec, domain)
        assert len(terminals) == 2 and checked == [3] * self.N

    def test_regressed_y0_goes_before_step_0s_update(self, monkeypatch):
        # at step 0 the node reads the pathwise Y_0; the regressed one that
        # cost_step returned is not held beside it while the update runs
        msa = mc.msa
        spec, domain = curvature_everywhere_problem()
        values, alive = [], []
        real_cost_step, real_minimize = mc.bsde.cost_step, msa.minimize_step

        def cost_spy(*args):
            out = real_cost_step(*args)
            values.append(weakref.ref(out))
            return out

        def minimize_spy(*args, **kwargs):
            alive.append(values[-1]() is not None)
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(mc.bsde, "cost_step", cost_spy)  # the sweep's cost rule calls it
        monkeypatch.setattr(msa, "minimize_step", minimize_spy)
        self.run_pass(spec, domain)
        # steps N - 1, ..., 1 read their own Y_j; step 0 reads y_T + driver sum
        assert alive == [True] * (self.N - 1) + [False]


def columns_written(prev_index, choices):
    """u^m's index written column by column, every column, from each step's choices
    (-1 where a sample keeps u^{m-1}'s index)."""
    index = np.empty_like(prev_index)
    for j, choice in choices.items():
        np.copyto(index[:, j], choice, casting="unsafe")
        np.copyto(index[:, j], prev_index[:, j], where=choice < 0)
    return index


class TestCopyOnWriteControl:
    """u^m's index is made at the first step whose controls change; a pass that
    keeps every control returns u^{m-1} itself."""

    M, N, SEED = 2_000, 8, 5
    FIRST = {"last step": N - 1, "middle step": N // 2, "step 0 only": 0, "nowhere": None}

    def masked_updates(self, monkeypatch, first, choices):
        """Pass 1's updates keep every control at the steps before ``first`` in the
        sweep (all of them for None); later passes run as they are. Each call's
        choices go into ``choices`` by step, unless it is None."""
        real, calls = mc.msa.minimize_step, [0]

        def update(*args, **kwargs):
            u_new, h_new, h_prev, choice = real(*args, **kwargs)
            j = self.N - 1 - calls[0] % self.N
            if calls[0] < self.N and (first is None or j > first):
                u_new, h_new, choice = args[8].copy(), h_prev.copy(), np.full_like(choice, -1)
            calls[0] += 1
            if choices is not None:
                choices[j] = choice
            return u_new, h_new, h_prev, choice

        monkeypatch.setattr(mc.msa, "minimize_step", update)

    def inputs(self):
        """example41(0.5), its config and a random u^0 over the candidates."""
        bench = mc.example41(0.5)
        cfg = mc.MsaConfig(rho=0.1, n_paths=self.M, steps=self.N, seed=self.SEED,
                           max_iters=3)
        initial = mc.random_control(bench.domain, self.M, self.N, self.SEED)
        return bench, cfg, initial.over(mc.enumerate_controls(bench.domain))

    @pytest.mark.parametrize("where", list(FIRST))
    def test_one_pass_matches_writing_every_column(self, where, monkeypatch):
        first, choices = self.FIRST[where], {}
        bench, cfg, u_prev = self.inputs()
        self.masked_updates(monkeypatch, first, choices)
        record, u_new = sweep_again(bench.spec, bench.domain, cfg, bench.hints, u_prev, 1)
        want = columns_written(u_prev.index, choices)
        changed = want != u_prev.index
        assert record.changed_frac == np.count_nonzero(changed) / (self.M * self.N)
        assert u_new.table is u_prev.table and np.array_equal(u_new.index, want)
        assert u_new.index.dtype == u_prev.index.dtype
        if first is None:
            assert u_new is u_prev and record.changed_frac == 0.0
        else:
            assert changed[:, first].any() and not changed[:, first + 1:].any()
            assert u_new.index[:, 0].flags.c_contiguous  # time-major, as u^{m-1}'s

    @pytest.mark.parametrize("where", list(FIRST))
    def test_runs_match_writing_every_column(self, where, monkeypatch):
        # the same runs with every pass's u^m replaced by the index written column
        # by column: the records, changed_frac too, and both controls agree
        bench, cfg, initial = self.inputs()
        runs = []
        for reference in (False, True):
            monkeypatch.undo()
            choices = {}
            self.masked_updates(monkeypatch, self.FIRST[where], choices)
            if reference:
                real = mc.msa._update_sweep

                def sweep(m, started, spec, forward, *args):
                    record, _ = real(m, started, spec, forward, *args)
                    index = columns_written(forward.control.index, choices)
                    return record, mc.ControlField(table=forward.control.table, index=index)

                monkeypatch.setattr(mc.msa, "_update_sweep", sweep)
            runs.append(mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints))
        got, want = runs
        assert records_equal_except_wall(got.records, want.records)
        assert [r.changed_frac for r in got.records] == [r.changed_frac for r in want.records]
        for name in ("returned_control", "last_control"):
            assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes()
        assert (got.records[0].changed_frac == 0.0) == (where == "nowhere")

    def test_a_pass_that_keeps_every_control_makes_no_index(self, monkeypatch):
        bench, cfg, u_prev = self.inputs()
        self.masked_updates(monkeypatch, None, None)
        sweep_again(bench.spec, bench.domain, cfg, bench.hints, u_prev, 1)  # warm-up
        monkeypatch.undo()
        self.masked_updates(monkeypatch, None, None)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            record, u_new = sweep_again(bench.spec, bench.domain, cfg, bench.hints, u_prev, 1)
            growth = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert u_new is u_prev and record.changed_frac == 0.0
        assert growth < self.M * self.N, growth

    @pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "solved"])
    def test_update_result_goes_before_the_next_update(self, hinted, monkeypatch):
        # step j's four update arrays are freed in step j, before step j - 1's
        # update runs
        bench = mc.example41(0.5)
        real, refs, alive = mc.msa.minimize_step, [], []

        def update(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            out = real(*args, **kwargs)
            refs[:] = [weakref.ref(a) for a in out]
            return out

        monkeypatch.setattr(mc.msa, "minimize_step", update)
        cfg = mc.MsaConfig(rho=0.1, n_paths=self.M, steps=self.N, seed=self.SEED,
                           max_iters=1)
        mc.run_msa(bench.spec, bench.domain, cfg, "random",
                   hints=bench.hints if hinted else None)
        assert alive == [[]] + [[False] * 4] * (self.N - 1)

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


class TestCheckpointedStates:
    def test_peak_heap_growth_in_steps_holds_no_state_horizon(self):
        # example41 at M = 20 000 and 6 passes, N = 20 against N = 80, the caller
        # holding the noise and the initial control. Per path, only the two
        # one-byte control indices (u^{m-1} and u^m) grow with the steps; the
        # states add only the checkpoints X_0, every s-th node and X_N, and one
        # segment of s - 1 recomputed nodes, s = ceil(sqrt(N + 1)). A float64
        # state horizon would add 8 M n bytes per step: 9.6 MB here.
        bench = mc.example41(0.1)
        M, n, seed = 20_000, bench.spec.n, 7

        def peak(N):
            batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, seed)
            initial = mc.random_control(bench.domain, M, N, seed)
            cfg = mc.MsaConfig(rho=bench.rho, n_paths=M, steps=N, seed=seed, max_iters=6)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                mc.run_msa(bench.spec, bench.domain, cfg, initial, hints=bench.hints,
                           batch=batch)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def state_slices(N):
            s = math.isqrt(N) + 1
            return -(-N // s) + 1 + s - 1

        assert (state_slices(20), state_slices(80)) == (9, 18)
        # the time grid and the two hint ODEs' nodes, (N + 1) (1 + n + n^2) floats,
        # and a few KB of Python objects: less than 0.1 MB, below any per-path
        # horizon over the 60 extra steps (a one-byte one is 1.2 MB)
        path_free = 100_000
        bound = (2 * M * 60 + 8 * M * n * (state_slices(80) - state_slices(20))
                 + path_free)
        peak(20)  # warm-up: caches filled on the first run stay out of the growth
        assert peak(80) - peak(20) < bound


def stored_pass(spec, forward, backend, first=None, second=None):
    """The sweep's backward solves as one ``solve_bsde`` pass whose step writes the
    horizons, built from the public step functions: Y, then p unless ``first`` is
    given, then P unless ``second`` is given, projected together as the sweep
    projects them. The step-0 node, and the stored Y_0, read the pathwise Y_0.

    Returns (BackwardPaths, FirstOrderAdjoint, SecondOrderAdjoint).
    """
    batch = forward.batch
    M, N, n, d, dt, nodes = (batch.n_paths, batch.grid.steps, spec.n, spec.d, batch.dt,
                             batch.grid.nodes)
    x_T, solve_p, solve_P = forward.state(N), first is None, second is None
    Y, Z = _time_major((M, N + 1)), _time_major((M, N, d))
    Y[:, N] = spec.terminal(x_T)
    horizons = [(Y, Z)]  # per equation, its time-major (p, q), terminal written
    if solve_p:
        first = mc.FirstOrderAdjoint(p=_time_major((M, N + 1, n)), q=_time_major((M, N, n, d)))
        first.p[:, N] = spec.derivatives.phi_x(x_T)
        horizons.append((first.p, first.q))
    if solve_P:
        P, Q = _time_major((M, N + 1, n, n)), _time_major((M, N, n, n, d))
        P[:, N] = spec.derivatives.phi_xx(x_T)
        horizons.append((P, Q))
    driver_sum, asym = np.zeros(M), 0.0

    def step(j, u, phats, qs):
        nonlocal asym
        x = forward.state(j)
        y = mc.bsde.cost_step(spec, nodes[j], x, phats[0], qs[0], u, dt)
        driver_sum[...] += y - phats[0]
        if j == 0:
            y = Y[:, N] + driver_sum
        point = mc.adjoint.StepPoint(spec, nodes[j], x, y, qs[0], u)
        solved = [y]
        if solve_p:
            solved.append(mc.adjoint.first_order_step(point, phats[1], qs[1], dt))
            p, q = solved[1], qs[1]
        else:
            p, q = first.p[:, j], first.q[:, j]
        if solve_P:
            P_j, asym_j = mc.adjoint.second_order_step(point, phats[-1], qs[-1], p, q, dt)
            asym = max(asym, asym_j)
            solved.append(P_j)
        for (p_all, q_all), p_j, q_j in zip(horizons, solved, qs):
            p_all[:, j], q_all[:, j] = p_j, q_j
        return [p_all[:, j] for p_all, _ in horizons]

    mc.solve_bsde([p_all[:, N] for p_all, _ in horizons], step, forward, backend)
    backward = mc.BackwardPaths(Y, Z, *mc.bsde.cost_estimate(Y[:, 0]))
    if solve_P:
        second = mc.SecondOrderAdjoint(P=P, Q=Q, asymmetry=asym)
    return backward, first, second


def separate_passes(spec, domain, cfg, initial, hints):
    """run_msa as separate passes: one stored pass of the cost BSDE and the solved
    adjoints (``stored_pass``), then an ascending update loop, then an f_z grid
    for mu (its sums taken as the sweep streams them); the new control is priced
    by the next pass, or after the last pass by ``solve_state_bsde`` unless it
    equals the pass's current control byte for byte (a fixed point, which that
    pass priced: descent 0.0), and the run stops on cfg.epsilon like run_msa.

    Returns (records, returned control, last control), the adjoint maxima on the
    records: the reference the single sweep must match bit for bit.
    """
    batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, cfg.steps), cfg.n_paths,
                               spec.d, cfg.seed)
    backend, candidates = cfg.backend, mc.enumerate_controls(domain)
    M, N, n, d = cfg.n_paths, cfg.steps, spec.n, spec.d
    nodes = batch.grid.nodes
    p_ode = hints.first_order_ode(batch.grid) if hints.first_order_ode else None
    P_ode = hints.second_order_ode(batch.grid) if hints.second_order_ode else None
    given_first = given_second = None
    if p_ode is not None:
        given_first = mc.FirstOrderAdjoint(p=np.broadcast_to(p_ode, (M,) + p_ode.shape),
                                           q=_time_major((M, N, n, d), np.zeros))
    if P_ode is not None:
        given_second = mc.SecondOrderAdjoint(P=np.broadcast_to(P_ode, (M,) + P_ode.shape),
                                             Q=_time_major((M, N, n, n, d), np.zeros),
                                             asymmetry=0.0)
    elif mc.second_order_vanishes(spec):
        given_second = mc.adjoint.zero_second_order(spec, batch)
    u_prev = initial
    forward = mc.simulate_forward(spec, u_prev, batch)
    backward, first, second = stored_pass(spec, forward, backend, given_first, given_second)
    records = []
    for m in range(1, cfg.max_iters + 1):
        u_values = u_prev.values  # the reference slices dense values; run_msa gathers
        u_new = _time_major(u_values.shape)
        hhat = _time_major((M, N))
        for j in range(N):
            u_new[:, j, :], h_new, h_prev, *_ = mc.hamiltonian.minimize_step(
                spec, nodes[j], forward.state(j), backward.values[:, j],
                backward.integrand[:, j, :], first.p[:, j, :], first.q[:, j], second.P[:, j],
                u_values[:, j, :], candidates, cfg.rho, h_fn=hints.hamiltonian,
                pen_fn=hints.penalty)
            hhat[:, j] = h_new - h_prev
        fz = np.empty((M, N, d))
        for j in range(N):
            fz[:, j, :] = spec.derivatives.f_z(nodes[j], forward.state(j),
                                               backward.values[:, j],
                                               backward.integrand[:, j, :],
                                               u_values[:, j, :])
        mu, mu_se, ess, ratio = mc.compute_mu(*streamed_sums(hhat, fz, batch.increments),
                                              batch.dt)
        u_new = mc.ControlField(table=u_new.reshape(M * N, -1),
                                index=np.arange(M * N).reshape(M, N))
        forward_new = mc.simulate_forward(spec, u_new, batch)
        if m < cfg.max_iters:
            backward_new, first_new, second_new = stored_pass(
                spec, forward_new, backend, given_first, given_second)
        elif u_new.values.tobytes() == u_values.tobytes():
            backward_new, first_new, second_new = backward, None, None
        else:
            backward_new, first_new, second_new = (
                mc.solve_state_bsde(spec, forward_new, backend), None, None)
        records.append(mc.IterationRecord(
            m=m, j=backward.j_estimate, j_stderr=backward.j_stderr, mu=mu, mu_stderr=mu_se,
            descent=backward.j_estimate - backward_new.j_estimate, wall_ms=0.0,
            weight_ess=ess, weight_max_ratio=ratio,
            max_abs_p=float(np.max(np.abs(first.p if p_ode is None else p_ode))),
            max_abs_P=float(np.max(np.abs(second.P if P_ode is None else P_ode))),
            max_asym_P=second.asymmetry))
        if cfg.epsilon is not None and records[-1].descent < cfg.epsilon:
            return records, u_prev, u_new
        u_before = u_prev
        u_prev, forward, backward = u_new, forward_new, backward_new
        first, second = first_new, second_new
    return records, u_before, u_prev


def sweep_sources():
    """(spec, domain, rho, hints, initial control) for each way p and P reach the
    update, and for an initial control off the enumeration."""
    spec, domain = curvature_problem()
    # any nodes do as a costate hint here: the reference reads the same ones
    p_nodes = mc.RunHints(first_order_ode=lambda grid: np.outer(grid.nodes, [0.3, -0.2]))
    cases = {"p-solved-P-solved": (spec, domain, 0.5, mc.RunHints(), mc.random_control),
             "p-hinted-P-solved": (spec, domain, 0.5, p_nodes, mc.random_control)}
    for name, bench in (("p-solved-P-hinted", mc.lq_desk()),
                        ("p-hinted-P-hinted-zero", mc.example41(0.1)),
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
            records, returned, last = separate_passes(
                spec, domain, run_cfg, initial, mc.RunHints())
            assert records_equal_except_wall(res.records, records)  # the maxima too
            assert np.array_equal(res.returned_control.values, returned.values)
            assert np.array_equal(res.last_control.values, last.values)
        assert res.stopped_early and res.m_eps == stop == len(res.records)

    @pytest.mark.parametrize("iters", [1, 3])
    def test_one_backward_pass_per_iteration(self, iters, monkeypatch):
        # one sweep per pass, pricing u^{m-1} on the way, and one cost pass
        # for the last control that stores no horizon; each sweep regresses
        # all of a step's equations (here Y, p and P) in one projection
        spec, domain = curvature_problem()
        calls = {"solve_bsde": 0, "solve_state_bsde": 0, "project": 0}

        def spied(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        for module in (mc.msa, mc.bsde):
            monkeypatch.setattr(module, "solve_bsde", spied("solve_bsde", mc.bsde.solve_bsde))
        monkeypatch.setattr(mc.msa, "solve_state_bsde",
                            spied("solve_state_bsde", mc.msa.solve_state_bsde))
        monkeypatch.setattr(mc.RegressionBackend, "project",
                            spied("project", mc.RegressionBackend.project))
        steps = 6
        cfg = mc.MsaConfig(rho=0.5, n_paths=200, steps=steps, seed=5, max_iters=iters)
        res = mc.run_msa(spec, domain, cfg, "random")
        assert len(res.records) == iters
        assert calls == {"solve_bsde": iters + 1, "solve_state_bsde": 0,
                         "project": (iters + 1) * steps}

    @pytest.mark.parametrize("source", list(sweep_sources()))
    def test_bitwise_equal_to_separate_passes(self, source):
        spec, domain, rho, hints, make_initial = sweep_sources()[source]
        M, N, seed = 300, 8, 11
        cfg = mc.MsaConfig(rho=rho, n_paths=M, steps=N, seed=seed, max_iters=3)
        initial = make_initial(domain, M, N, seed)
        res = mc.run_msa(spec, domain, cfg, initial, hints=hints)
        records, returned, last = separate_passes(spec, domain, cfg, initial, hints)
        assert records_equal_except_wall(res.records, records)  # the maxima too
        for got, want in ((res.returned_control, returned), (res.last_control, last)):
            assert got.values.tobytes() == want.values.tobytes()
        if source == "off-grid-initial":  # some samples kept 0.5 through every update
            assert 0 < np.count_nonzero(res.last_control.values == 0.5) < M * N

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
