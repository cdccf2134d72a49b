"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The heavy fixtures (the two 30-iteration runs and the full-scale demo run)
are shared across criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import msacontrol as mc
from msacontrol.benchmarks import tree_random_control
from msacontrol.hamiltonian import _gap, h_batch, minimize_step, penalty_batch
from msacontrol.model import constant_fn

from dense_paths import girsanov_weights

RUNTIME_BUDGET_S = 300.0


@contextmanager
def criterion(name):
    try:
        yield
    except AssertionError:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


def combined_se(a, b):
    return float(np.sqrt(a * a + b * b))


@pytest.fixture(scope="module")
def ex41_full_run():
    bench = mc.example41(0.1)
    cfg = mc.MsaConfig(rho=bench.rho, n_paths=100_000, steps=20, seed=7,
                       max_iters=8)
    t0 = time.perf_counter()
    res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ex41_thirty_run():
    bench = mc.example41(0.1)
    cfg = mc.MsaConfig(rho=bench.rho, n_paths=30_000, steps=20, seed=11,
                       max_iters=30)
    return mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)


@pytest.fixture(scope="module")
def lq_thirty_run():
    bench = mc.lq_desk()
    cfg = mc.MsaConfig(rho=0.0, n_paths=32_768, steps=20, seed=11, max_iters=30,
                       backend=mc.RegressionBackend(degree=1))
    t0 = time.perf_counter()
    res = mc.run_msa(bench.spec, bench.domain, cfg, "random", hints=bench.hints)
    return res, time.perf_counter() - t0


def assert_monotone(records):
    for prev, nxt in zip(records, records[1:]):
        tol = 3 * combined_se(prev.j_stderr, nxt.j_stderr)
        assert nxt.j <= prev.j + tol, (
            f"J rose at m={nxt.m}: {prev.j} -> {nxt.j}, tol {tol}")


def assert_mu_diagnostics(records):
    for rec in records:
        assert rec.mu <= 3 * rec.mu_stderr, f"mu_m positive at m={rec.m}"
    last, first = records[-1], records[0]
    assert abs(last.mu) <= max(3 * last.mu_stderr, 0.1 * abs(first.mu))


class TestAcceptance:
    def test_example41_descent(self, ex41_full_run):
        res, elapsed = ex41_full_run
        with criterion("example41 descent (L=0.1, M=1e5, N=20)"):
            assert res.records[0].j > 0.0
            for rec in res.records[1:]:
                assert abs(rec.j) <= max(1e-3, 3 * rec.j_stderr), f"m={rec.m}"
            assert abs(res.final_j) <= 1e-3
            assert elapsed < RUNTIME_BUDGET_S

    def test_monotone_descent(self, ex41_thirty_run, lq_thirty_run):
        lq_res, _ = lq_thirty_run
        with criterion("monotone descent over 30 iterations (example41 + lq)"):
            assert len(ex41_thirty_run.records) == 30
            assert len(lq_res.records) == 30
            assert_monotone(ex41_thirty_run.records)
            assert_monotone(lq_res.records)

    def test_mu_diagnostics(self, ex41_thirty_run, lq_thirty_run):
        lq_res, _ = lq_thirty_run
        with criterion("mu_m nonpositive and vanishing"):
            assert_mu_diagnostics(ex41_thirty_run.records)
            assert_mu_diagnostics(lq_res.records)

    def test_lq_rate(self, lq_thirty_run):
        res, elapsed = lq_thirty_run
        bench = mc.lq_desk()
        with criterion("quadratic-cost 1/m rate bound"):
            tree = mc.tree_bruteforce(bench.spec, bench.domain, 3)
            assert tree.jstar == 0.0  # oracle-confirmed optimum
            m0 = next(rec.m for rec in res.records if -rec.mu < 0.5)
            assert m0 <= 5
            gap_m0 = res.records[m0 - 1].j - tree.jstar
            c1 = max(gap_m0, 1.0)
            for rec in res.records:
                if rec.m >= m0:
                    gap = rec.j - tree.jstar
                    assert rec.m * gap <= c1 + 1e-12, f"m={rec.m}, gap={gap}"
            assert elapsed < RUNTIME_BUDGET_S

    def test_near_optimality_scaling(self):
        bench = mc.linrec_desk()
        with criterion("near-optimality gap scales like sqrt(epsilon)"):
            tree = mc.tree_bruteforce(bench.spec, bench.domain, 3)
            ratios = []
            gaps = []
            for eps in (1e-2, 1e-3, 1e-4):
                cfg = mc.MsaConfig(rho=0.0, n_paths=8192, steps=20, seed=11,
                                   max_iters=20, epsilon=eps)
                res = mc.run_msa(bench.spec, bench.domain, cfg, "random",
                                 hints=bench.hints)
                rep = mc.near_optimality_gap(res.records, eps, f_y_bound=0.5,
                                             horizon=1.0, jstar=tree.jstar)
                assert rep.m_eps is not None
                assert not rep.descent_violated
                gaps.append(rep.gap)
                ratios.append(rep.ratio)
            if max(abs(g) for g in gaps) <= 1e-9:
                pass  # solver sits at the oracle optimum; band holds vacuously
            else:
                finite = [abs(r) for r in ratios]
                assert max(finite) <= 10.0 * max(min(finite), 1e-9)

    @pytest.mark.parametrize("label,maker", [
        ("example41", lambda: mc.example41(0.1)),
        ("lq", lambda: mc.lq_desk()),
    ])
    def test_tree_oracle_equivalence(self, label, maker):
        bench = maker()
        with criterion(f"solver matches tree optimum exactly ({label})"):
            steps = 3
            tree = mc.tree_bruteforce(bench.spec, bench.domain, steps)
            init = tree_random_control(bench.domain, steps, 5)
            cfg = mc.MsaConfig(rho=bench.rho, n_paths=2 ** steps, steps=steps,
                               seed=5, max_iters=10)
            res = mc.run_msa(bench.spec, bench.domain, cfg, init,
                             hints=bench.hints,
                             batch=mc.tree_batch(steps, bench.spec.horizon),
                             backend=mc.tree_backend(steps))
            assert abs(res.final_j - tree.jstar) <= 1e-10

    def test_bsde_solver_accuracy(self):
        alpha = 0.5
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)),
            diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: alpha * y,
            terminal=lambda x: x[:, 0])
        with criterion("cost BSDE reproduces the linear closed form"):
            M, N = 100_000, 20
            batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 42)
            ctl = mc.constant_control([0.0], M, N)
            fwd = mc.simulate_forward(spec, ctl, batch)
            bwd = mc.solve_state_bsde(spec, fwd, mc.RegressionBackend(degree=2))
            assert abs(bwd.j_estimate - 0.0) <= 3 * bwd.j_stderr + 2e-3

    def test_adjoint_cross_checks(self):
        with criterion("adjoint cross-checks (p0 oracle, LQ P ODE, matrix recursion)"):
            # mean p0 from the regression solver vs the explicit representation
            backend = mc.RegressionBackend()
            for bench, M in ((mc.example41(0.1), 100_000), (mc.lq_desk(), 50_000),
                             (mc.linrec_desk(), 20_000)):
                batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), M, 1, 9)
                ctl = mc.random_control(bench.domain, M, 20, 9)
                oracle, se_o = mc.explicit_p0_oracle(bench.spec, ctl, batch,
                                                     backend=backend)
                fwd = mc.simulate_forward(bench.spec, ctl, batch)
                bwd = mc.solve_state_bsde(bench.spec, fwd, backend)
                first = mc.first_order_adjoint(bench.spec, fwd, bwd, backend)
                p0 = first.p[:, 0, :]
                se_r = p0.std(axis=0, ddof=1) / np.sqrt(M)
                diff = abs(p0.mean(axis=0)[0] - oracle[0])
                assert diff <= 3 * combined_se(se_o[0], se_r[0]) + 1e-12, bench.name

            # second-order adjoint vs its deterministic equation on the
            # quadratic problem
            bench = mc.lq_desk()
            batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 5000, 1, 4)
            ctl = mc.random_control(bench.domain, 5000, 20, 4)
            fwd = mc.simulate_forward(bench.spec, ctl, batch)
            bwd = mc.solve_state_bsde(bench.spec, fwd, backend)
            first = mc.first_order_adjoint(bench.spec, fwd, bwd, backend)
            second = mc.second_order_adjoint(bench.spec, fwd, bwd, first, backend)
            P_ode = mc.lq_second_order_ode([[1.0]], [[1.0]], [[0.0]],
                                           mc.TimeGrid(1.0, 20))
            assert np.max(np.abs(second.P[:, :, 0, 0] - P_ode[None, :, 0, 0])) < 1e-2

            # batched matrix stepping vs a direct matrix recursion
            from test_adjoint import TestSecondOrderAdjoint
            check = TestSecondOrderAdjoint().test_vectorized_step_matches_direct_matrix_recursion
            for n, d in ((2, 1), (3, 2)):
                check(n, d)

    def test_invariant_suite(self):
        with criterion("invariant suite (reductions, descent, weights, replay)"):
            bench = mc.example41(0.3)
            spec = bench.spec
            rng = np.random.default_rng(0)
            # penalty and delta vanish at v = u, and rho = 0 ranks by H alone, exactly
            B, cands = 50, mc.enumerate_controls(bench.domain)
            x, y, z, p = (rng.normal(size=(B, 1)), rng.normal(size=B),
                          rng.normal(size=(B, 1)), rng.normal(size=(B, 1)))
            q, P = rng.normal(size=(B, 1, 1)), rng.normal(size=(B, 1, 1))
            u_prev = rng.choice([0.0, 1.0], size=(B, 1))
            assert np.all(penalty_batch(spec, 0.4, x, y, z, p, q, u_prev, u_prev) == 0.0)
            h_cands = [h_batch(spec, 0.4, x, y, z, p, q, P, c, u_prev) for c in cands]
            h_new = minimize_step(spec, 0.4, x, y, z, p, q, P, u_prev, cands, 0.0)[1]
            assert np.array_equal(h_new, np.min(h_cands, axis=0))
            s_u = spec.diffusion(0.4, x, u_prev)
            assert np.all(_gap(p, s_u, s_u)[1] == 0.0)

            # pointwise Hamiltonian decrease at every sampled (path, step)
            M, N = 4000, 20
            batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 3)
            ctl = mc.random_control(bench.domain, M, N, 3)
            fwd = mc.simulate_forward(spec, ctl, batch)
            bwd = mc.solve_state_bsde(spec, fwd, mc.RegressionBackend())
            first = mc.first_order_adjoint(spec, fwd, bwd, mc.RegressionBackend())
            cands = mc.enumerate_controls(bench.domain)
            zero_P = np.zeros((M, 1, 1))
            for j in range(N):
                _, h_new, h_prev, *_ = minimize_step(
                    spec, batch.grid.nodes[j], fwd.state(j), bwd.values[:, j],
                    bwd.integrand[:, j], first.p[:, j], first.q[:, j], zero_P,
                    ctl.values[:, j], cands, bench.rho)
                assert np.all(h_new <= h_prev)

            # Girsanov weights stay a unit-mean density
            fz = spec.derivatives.f_z(0.0, fwd.state(0), bwd.values[:, 0],
                                      bwd.integrand[:, 0], ctl.values[:, 0])
            fz_grid = np.empty((M, N, 1))
            for j in range(N):
                fz_grid[:, j] = spec.derivatives.f_z(
                    batch.grid.nodes[j], fwd.state(j), bwd.values[:, j],
                    bwd.integrand[:, j], ctl.values[:, j])
            w = girsanov_weights(fz_grid, batch)
            se = w.std(ddof=1) / np.sqrt(M)
            assert abs(w.mean() - 1.0) <= 5 * se

            # a full run replays bitwise under a fixed seed
            cfg = mc.MsaConfig(rho=bench.rho, n_paths=2000, steps=10, seed=21,
                               max_iters=4)
            r1 = mc.run_msa(spec, bench.domain, cfg, "random", hints=bench.hints)
            r2 = mc.run_msa(spec, bench.domain, cfg, "random", hints=bench.hints)
            for a, b in zip(r1.records, r2.records):
                assert (a.m, a.j, a.j_stderr, a.mu, a.mu_stderr, a.descent) == \
                       (b.m, b.j, b.j_stderr, b.mu, b.mu_stderr, b.descent)
            assert np.array_equal(r1.last_control.values, r2.last_control.values)

    def test_large_L_fluctuation_recorded_not_asserted(self):
        # the L=1 run is reproduced and recorded only: no pass/fail band is
        # applied to the cost trace. With the formula penalty weight (~4.8e5)
        # every control change is priced out and the trace freezes; with the
        # penalty off the update oscillates around the optimum, which is the
        # published fluctuating picture.
        bench = mc.example41(1.0)
        for label, rho in (("formula rho", bench.rho), ("rho=0", 0.0)):
            cfg = mc.MsaConfig(rho=rho, n_paths=20_000, steps=20, seed=7,
                               max_iters=10)
            res = mc.run_msa(bench.spec, bench.domain, cfg, "random",
                             hints=bench.hints)
            trace = [rec.j for rec in res.records]
            print(f"\n[ACCEPTANCE] L=1 cost trace, {label} (recorded only):",
                  [float(f"{v:.5g}") for v in trace])
            assert all(np.isfinite(trace))
