import numpy as np
import pytest

import msacontrol as mc
from msacontrol.model import constant_fn


class TestTimeGrid:
    def test_nodes_cover_interval(self):
        grid = mc.TimeGrid(2.0, 8)
        nodes = grid.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert np.all(np.diff(nodes) > 0)
        assert grid.dt == pytest.approx(0.25)

    def test_invalid_grid(self):
        with pytest.raises(mc.ConfigurationError):
            mc.TimeGrid(1.0, 0)
        with pytest.raises(mc.ConfigurationError):
            mc.TimeGrid(-1.0, 5)


class TestSampleBrownian:
    def test_same_seed_bitwise_identical(self):
        grid = mc.TimeGrid(1.0, 20)
        b1 = mc.sample_brownian(grid, 2, 1, 42)
        b2 = mc.sample_brownian(grid, 2, 1, 42)
        assert np.array_equal(b1.increments, b2.increments)

    def test_growing_paths_keeps_prefix(self):
        grid = mc.TimeGrid(1.0, 10)
        small = mc.sample_brownian(grid, 1000, 2, 5)
        large = mc.sample_brownian(grid, 9000, 2, 5)
        assert np.array_equal(small.increments, large.increments[:1000])

    def test_per_step_moments(self):
        M = 100_000
        grid = mc.TimeGrid(1.0, 20)
        batch = mc.sample_brownian(grid, M, 1, 0)
        var = batch.increments[:, :, 0].var(axis=0)
        assert np.all(np.abs(var - grid.dt) < 10 * grid.dt / np.sqrt(M))
        assert np.all(np.abs(var - grid.dt) < 0.05 * grid.dt)
        mean = batch.increments[:, :, 0].mean(axis=0)
        assert np.max(np.abs(mean)) < 5.0 / np.sqrt(M)

    def test_component_independence(self):
        grid = mc.TimeGrid(1.0, 4)
        batch = mc.sample_brownian(grid, 100_000, 2, 1)
        for j in range(4):
            corr = np.corrcoef(batch.increments[:, j, 0], batch.increments[:, j, 1])[0, 1]
            assert abs(corr) < 0.05


class TestSimulateForward:
    def test_frozen_dynamics(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.array([1.5]), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 50, 1, 3)
        fwd = mc.simulate_forward(spec, mc.constant_control([0.0], 50, 10), batch)
        assert np.all(fwd.states == 1.5)

    def test_example41_zero_control_freezes_state(self):
        spec = mc.example41(0.1).spec
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 100, 1, 7)
        fwd = mc.simulate_forward(spec, mc.constant_control([0.0], 100, 20), batch)
        assert np.all(fwd.states == 0.0)

    def test_example41_unit_control_is_brownian(self):
        spec = mc.example41(0.1).spec
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 200, 1, 7)
        fwd = mc.simulate_forward(spec, mc.constant_control([1.0], 200, 20), batch)
        walked = np.cumsum(batch.increments[:, :, 0], axis=1)
        assert np.array_equal(fwd.states[:, 1:, 0], walked)

    def test_resimulation_bitwise_reproducible(self):
        bench = mc.example41(0.1)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 64, 1, 11)
        ctl = mc.random_control(bench.domain, 64, 20, 11)
        a = mc.simulate_forward(bench.spec, ctl, batch)
        b = mc.simulate_forward(bench.spec, ctl, batch)
        assert np.array_equal(a.states, b.states)

    def test_weak_exactness_additive_case(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 100_000, 1, 19)
        fwd = mc.simulate_forward(spec, mc.constant_control([0.0], 100_000, 20), batch)
        var = fwd.states[:, -1, 0].var()
        assert 0.95 < var < 1.05

    def test_non_finite_state_reports_indices(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.array([2.0]), horizon=1.0,
            drift=lambda t, x, u: np.full_like(x, np.nan),
            diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 5), 10, 1, 0)
        with pytest.raises(mc.SimulationError, match="path"):
            mc.simulate_forward(spec, mc.constant_control([0.0], 10, 5), batch)


class TestRandomControl:
    def test_values_in_domain(self):
        dom = mc.FiniteSet([[-1.0], [0.0], [1.0]])
        ctl = mc.random_control(dom, 100, 10, 3)
        pts = mc.enumerate_controls(dom)
        assert np.all(np.isin(ctl.values, pts))

    def test_seeded(self):
        dom = mc.Box([0.0], [1.0], [4])
        a = mc.random_control(dom, 20, 5, 9)
        b = mc.random_control(dom, 20, 5, 9)
        assert np.array_equal(a.values, b.values)


class TestGirsanovWeights:
    def test_zero_integrand_gives_unit_weights(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 12), 30, 1, 2)
        w = mc.girsanov_weights(np.zeros((30, 12, 1)), batch)
        assert np.all(w == 1.0)

    def test_constant_integrand_closed_form(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 50_000, 1, 6)
        c = 0.4
        w = mc.girsanov_weights(np.full((50_000, 20, 1), c), batch)
        w_t = batch.increments[:, :, 0].sum(axis=1)
        expected = np.exp(c * w_t - 0.5 * c * c * 1.0)
        assert np.allclose(w, expected, rtol=1e-12)
        stderr = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) < 5 * stderr

    def test_example41_along_frozen_trajectory(self):
        # u = 0 keeps Z = 0, so f_z = L cos(0) = L, a constant integrand
        bench = mc.example41(0.1)
        M, N = 20_000, 20
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 8)
        fz = bench.spec.derivatives.f_z(0.0, np.zeros((M, 1)), np.zeros(M),
                                        np.zeros((M, 1)), np.zeros((M, 1)))
        assert np.all(fz == 0.1)
        fz_grid = np.broadcast_to(fz[:, None, :], (M, N, 1))
        w = mc.girsanov_weights(fz_grid, batch)
        w_t = batch.increments[:, :, 0].sum(axis=1)
        assert np.allclose(w, np.exp(0.1 * w_t - 0.005), rtol=1e-12)
        stderr = w.std(ddof=1) / np.sqrt(M)
        assert abs(w.mean() - 1.0) < 5 * stderr

    def test_overflow_names_path(self):
        grid = mc.TimeGrid(1.0, 5)
        huge = mc.BrownianBatch(grid=grid, n_paths=4, d=1, seed=None,
                                increments=np.full((4, 5, 1), 1e3))
        with pytest.raises(mc.NumericalError, match="overflow at path"):
            mc.girsanov_weights(np.ones((4, 5, 1)), huge)

    def test_underflow_names_path(self):
        batch = mc.sample_brownian(grid=mc.TimeGrid(1.0, 5), n_paths=4, d=1, seed=1)
        with pytest.raises(mc.NumericalError, match="underflow at path"):
            mc.girsanov_weights(np.full((4, 5, 1), 1e6), batch)


def assert_step_slices_contiguous(arr, name):
    for j in sorted({0, arr.shape[1] // 2, arr.shape[1] - 1}):
        assert arr[:, j].flags.c_contiguous, f"{name}[:, {j}] is strided"


class TestTimeMajorLayout:
    """Every horizon array the package allocates has contiguous step slices."""

    def test_noise_and_controls(self):
        dom = mc.Box([-1.0], [1.0], [5])
        grid = mc.TimeGrid(1.0, 6)
        arrays = {
            # 5000 paths: one full Philox block and a partial one
            "sample_brownian": mc.sample_brownian(grid, 5000, 2, 3).increments,
            "random_control": mc.random_control(dom, 50, 6, 1).values,
            "constant_control": mc.constant_control([0.5, 1.0], 50, 6).values,
            "tree_batch": mc.benchmarks.tree_batch(4).increments,
            "tree_random_control": mc.benchmarks.tree_random_control(dom, 4, 2).values,
        }
        for name, arr in arrays.items():
            assert_step_slices_contiguous(arr, name)

    def test_solver_outputs(self):
        bench = mc.lq_desk()
        spec, backend = bench.spec, mc.RegressionBackend()
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 6), 64, 1, 4)
        control = mc.random_control(bench.domain, 64, 6, 4)
        forward = mc.simulate_forward(spec, control, batch)
        backward = mc.solve_state_bsde(spec, forward, control, backend)
        first = mc.adjoint.first_order_adjoint(spec, forward, backward, control, backend)
        second = mc.adjoint.second_order_adjoint(spec, forward, backward, control, first,
                                                 backend)
        zero = mc.adjoint.zero_second_order(spec, batch)
        arrays = {
            "X": forward.states, "Y": backward.values, "Z": backward.integrand,
            "p": first.p, "q": first.q, "P": second.P, "Q": second.Q,
            "features": mc.adjoint._features_grid(forward, control, backend),
            "zero P": zero.P, "zero Q": zero.Q,
        }
        for name, arr in arrays.items():
            assert_step_slices_contiguous(arr, name)

    def test_tree_oracle_stacks_time_major(self, monkeypatch):
        seen = []
        real = mc.benchmarks.simulate_forward

        def spy(spec, control, batch):
            seen.append(batch.n_paths)
            assert_step_slices_contiguous(control.values, "policy controls")
            assert_step_slices_contiguous(batch.increments, "tiled increments")
            return real(spec, control, batch)

        monkeypatch.setattr(mc.benchmarks, "simulate_forward", spy)
        bench = mc.lq_desk()
        tree = mc.benchmarks.tree_bruteforce(bench.spec, bench.domain, 3)
        assert tree.jstar == 0.0
        # stacked chunks and the final single-policy pass were all checked
        assert len(seen) >= 2 and seen[-1] == 8 and max(seen) > 8


class TestLayoutIndependentReductions:
    def test_girsanov_weights(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 300, 2, 5)
        fz = 0.3 * np.random.default_rng(1).normal(size=(300, 20, 2))
        c_batch = mc.BrownianBatch(grid=batch.grid, n_paths=300, d=2, seed=5,
                                   increments=np.ascontiguousarray(batch.increments))
        assert not batch.increments.flags.c_contiguous
        fz_time_major = np.empty((20, 300, 2)).swapaxes(0, 1)
        fz_time_major[...] = fz
        want = mc.girsanov_weights(fz, c_batch)
        assert np.array_equal(mc.girsanov_weights(fz, batch), want)
        assert np.array_equal(mc.girsanov_weights(fz_time_major, batch), want)
        assert np.array_equal(mc.girsanov_weights(fz_time_major, c_batch), want)
