import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import msacontrol as mc
from msacontrol.model import constant_fn

from dense_paths import dense_forward, dense_states, girsanov_weights


class TestTimeGrid:
    def test_nodes_cover_interval(self):
        grid = mc.TimeGrid(2.0, 8)
        nodes = grid.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert np.all(np.diff(nodes) > 0)
        assert grid.dt == pytest.approx(0.25)

    def test_nodes_computed_once_and_read_only(self):
        grid = mc.TimeGrid(2.0, 8)
        assert grid.nodes is grid.nodes
        assert grid.nodes.tobytes() == np.linspace(0.0, 2.0, 9).tobytes()
        with pytest.raises(ValueError):
            grid.nodes[0] = 1.0
        assert grid == mc.TimeGrid(2.0, 8)  # the cache is not a field

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

    def test_partial_block_draws_only_its_rows(self):
        # 400 of a 4 096-path block: the increments and one draw of their size are
        # 2 x 128 000 bytes, where a whole block's draw alone is 1.31 MB. The slack
        # covers numpy's 8 192-element ufunc buffer for the strided time-major write
        grid, M, d = mc.TimeGrid(1.0, 20), 400, 2
        nbytes = M * grid.steps * d * 8
        mc.sample_brownian(grid, 1, d, 7)  # numpy.random loads on first use
        tracemalloc.start()
        try:
            batch = mc.sample_brownian(grid, M, d, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.increments.nbytes == nbytes
        assert peak <= 2 * nbytes + 100_000
        # and the rows are the first rows of the whole block's draw
        whole = np.random.Generator(np.random.Philox(key=7).jumped(0)).standard_normal(
            (4096, grid.steps, d))
        assert batch.increments.tobytes() == (np.sqrt(grid.dt) * whole[:M]).tobytes()


class TestBrownianBatch:
    def test_sizes_are_read_off_the_increments(self):
        grid = mc.TimeGrid(1.0, 4)
        batch = mc.BrownianBatch(grid, np.zeros((3, 4, 2)))
        assert (batch.n_paths, batch.d, batch.dt) == (3, 2, 0.25)
        assert [f.name for f in dataclasses.fields(mc.BrownianBatch)] == ["grid", "increments"]

    @pytest.mark.parametrize("shape", [(3, 6, 1), (3, 4), (3, 4, 1, 1), (0, 4, 1), (3, 4, 0)],
                             ids=["six-steps-on-four", "2-d", "4-d", "no-paths", "no-noise"])
    def test_increments_that_do_not_fit_the_grid_refused(self, shape):
        with pytest.raises(mc.ConfigurationError, match=r"\(n_paths, 4, d\)") as info:
            mc.BrownianBatch(mc.TimeGrid(1.0, 4), np.zeros(shape))
        assert str(shape) in str(info.value)


class TestSimulateForward:
    def test_frozen_dynamics(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.array([1.5]), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 10), 50, 1, 3)
        fwd = mc.simulate_forward(spec, mc.constant_control([0.0], 50, 10), batch)
        assert np.all(dense_states(fwd) == 1.5)

    def test_example41_zero_control_freezes_state(self):
        spec = mc.example41(0.1).spec
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 100, 1, 7)
        fwd = mc.simulate_forward(spec, mc.constant_control([0.0], 100, 20), batch)
        assert np.all(dense_states(fwd) == 0.0)

    def test_example41_unit_control_is_brownian(self):
        spec = mc.example41(0.1).spec
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 200, 1, 7)
        fwd = mc.simulate_forward(spec, mc.constant_control([1.0], 200, 20), batch)
        walked = np.cumsum(batch.increments[:, :, 0], axis=1)
        assert np.array_equal(dense_states(fwd)[:, 1:, 0], walked)

    def test_resimulation_bitwise_reproducible(self):
        bench = mc.example41(0.1)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 64, 1, 11)
        ctl = mc.random_control(bench.domain, 64, 20, 11)
        a = mc.simulate_forward(bench.spec, ctl, batch)
        b = mc.simulate_forward(bench.spec, ctl, batch)
        assert np.array_equal(dense_states(a), dense_states(b))

    def test_weak_exactness_additive_case(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 100_000, 1, 19)
        fwd = mc.simulate_forward(spec, mc.constant_control([0.0], 100_000, 20), batch)
        var = fwd.state(20)[:, 0].var()
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


    @pytest.mark.parametrize("paths, steps", [(9, 5), (10, 4), (10, 6)])
    def test_control_of_another_shape_refused(self, paths, steps):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 5), 10, 1, 0)
        with pytest.raises(mc.ConfigurationError) as info:
            mc.simulate_forward(mc.example41(0.1).spec,
                                mc.constant_control([0.0], paths, steps), batch)
        assert str(info.value) == (f"control shape ({paths}, {steps}) does not match "
                                   f"batch (10, 5)")

    @pytest.mark.parametrize("k, d", [(2, 1), (1, 2)], ids=["control-k", "noise-d"])
    def test_dimension_other_than_the_problems_refused(self, k, d):
        spec = mc.example41(0.1).spec  # k = d = 1
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 5), 10, d, 0)
        with pytest.raises(mc.ConfigurationError,
                           match="^control/batch dimensions disagree with the problem$"):
            mc.simulate_forward(spec, mc.constant_control(np.zeros(k), 10, 5), batch)


def reference_states(spec, control, batch):
    """X_0..X_N by a plain Euler loop over contiguous (M, n) slices."""
    nodes, dt, controls = batch.grid.nodes, batch.dt, control.values
    states = [np.broadcast_to(spec.x0, (batch.n_paths, spec.n)).copy()]
    for j in range(batch.grid.steps):
        x, u = states[-1], np.ascontiguousarray(controls[:, j])
        dw = batch.increments[:, j, :]
        states.append(x + spec.drift(nodes[j], x, u) * dt
                      + np.einsum("mnd,md->mn", spec.diffusion(nodes[j], x, u), dw))
    return states


def small_state_dependent_spec():
    """n = 2, d = 2, k = 1: drift and diffusion both move with the state."""
    return mc.ProblemSpec.build(
        n=2, d=2, k=1, x0=np.array([0.3, -0.2]), horizon=1.0,
        drift=lambda t, x, u: -0.5 * x + np.sin(x[:, ::-1]) * u,
        diffusion=lambda t, x, u: (0.2 + 0.1 * np.tanh(x))[:, :, None]
        * np.array([[1.0, 0.5], [-0.3, 1.0]])[None] * (1.0 + u[:, :, None]),
        driver=lambda t, x, y, z, u: (x * x).sum(axis=1),
        terminal=lambda x: (x * x).sum(axis=1))


class TestCheckpointedStates:
    """``state(j)`` returns the bits of a dense Euler loop, whether X_j was kept or
    recomputed from a checkpoint, in any order of reads."""

    @pytest.mark.parametrize("N", [1, 2, 5, 6, 20, 80])
    @pytest.mark.parametrize("problem", ["example41", "lq_desk", "state-dependent"])
    def test_every_node_matches_a_dense_euler_loop(self, problem, N):
        if problem == "state-dependent":
            spec, domain = small_state_dependent_spec(), mc.Box([-0.5], [0.5], [5])
        else:
            bench = mc.example41(0.1) if problem == "example41" else mc.lq_desk()
            spec, domain = bench.spec, bench.domain
        M = 48
        batch = mc.sample_brownian(mc.TimeGrid(spec.horizon, N), M, spec.d, N)
        control = mc.random_control(domain, M, N, N + 1)
        want = reference_states(spec, control, batch)
        gen = np.random.default_rng(N)
        orders = {"descending": range(N, -1, -1), "ascending": range(N + 1),
                  "random": gen.integers(0, N + 1, size=3 * (N + 1))}
        for name, order in orders.items():
            forward = mc.simulate_forward(spec, control, batch)
            for j in order:
                x = forward.state(int(j))
                assert x.shape == (M, spec.n) and x.flags.c_contiguous
                assert np.array_equal(x, want[j]), f"{name} read of node {j}"
        dense = np.stack(want, axis=1)
        assert np.array_equal(dense_states(forward), dense)
        given = dense_forward(dense, control, batch)
        assert all(np.array_equal(given.state(j), want[j]) for j in range(N, -1, -1))

    def test_non_finite_state_raises_from_the_first_pass(self):
        # X jumps to inf on any path past 1.2; the first such node lies between
        # two checkpoints at N = 20, and the forward pass itself must name it
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.where(x > 1.2, np.inf, 0.0),
            diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: x[:, 0])
        M, N = 64, 20
        batch = mc.sample_brownian(mc.TimeGrid(1.0, N), M, 1, 2)
        control = mc.constant_control([0.0], M, N)
        with np.errstate(invalid="ignore"):
            states = reference_states(spec, control, batch)
        step = next(j for j, x in enumerate(states) if not np.isfinite(x).all())
        path = int(np.argmax(~np.isfinite(states[step][:, 0])))
        assert 0 < step < N and step % 5
        with pytest.raises(mc.SimulationError) as info:
            mc.simulate_forward(spec, control, batch)
        assert str(info.value) == f"non-finite state at path {path}, step {step}"
        assert (info.value.path, info.value.step) == (path, step)

    @pytest.mark.parametrize("j", [-1, 6, 100])
    def test_node_outside_the_grid_refused(self, j):
        bench = mc.example41(0.1)
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 5), 8, 1, 0)
        forward = mc.simulate_forward(bench.spec, mc.constant_control([1.0], 8, 5), batch)
        with pytest.raises(IndexError, match=rf"^node {j} outside 0\.\.5$"):
            forward.state(j)

    @pytest.mark.parametrize("shape", [(64, 7, 1), (32, 6, 1), (64, 6), (64, 6, 1, 1)])
    def test_given_states_must_match_the_batch(self, shape):
        # the batch has 64 paths and 5 steps, so 6 nodes
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 5), 64, 1, 0)
        control = mc.constant_control([0.0], 64, 5)
        with pytest.raises(mc.ConfigurationError) as info:
            dense_forward(np.zeros(shape), control, batch)
        assert str(shape) in str(info.value) and "(64, 5)" in str(info.value)


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


# few distinct rows, with -0.0 beside 0.0 and non-finite values, which must keep their bits
ROW_VALUES = [-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]


@st.composite
def table_controls(draw):
    """A (C, k) table, floats from ROW_VALUES, integers, or more than 256 rows, and an
    (M, N) index into it, int64 or already uint8, stored path-major or time-major."""
    kind = draw(st.sampled_from(["floats", "integers", "over-256-rows"]))
    k = draw(st.integers(1, 2))
    if kind == "over-256-rows":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        table = rng.normal(size=(300, k))
        index = rng.integers(0, 300, size=(40, 8))
    else:
        rows = draw(st.integers(1, 8))
        table = draw(hnp.arrays(np.int64, (rows, k), elements=st.integers(-3, 3))
                     if kind == "integers" else
                     hnp.arrays(float, (rows, k), elements=st.sampled_from(ROW_VALUES)))
        index = draw(hnp.arrays(draw(st.sampled_from([np.int64, np.uint8])),
                                (draw(st.integers(1, 6)), draw(st.integers(1, 5))),
                                elements=st.integers(0, rows - 1)))
    if draw(st.booleans()):
        time_major = np.empty(index.shape[::-1], index.dtype)
        time_major[...] = index.T
        index = time_major.T
    return table, index


class TestControlField:
    @settings(max_examples=60, deadline=None)
    @given(control=table_controls())
    def test_table_round_trip_is_bitwise(self, control):
        table, index = control
        ctl = mc.ControlField(table=table, index=index)
        assert ctl.table.dtype == np.float64
        assert ctl.table.tobytes() == table.astype(float).tobytes()
        assert np.array_equal(ctl.index, index)
        assert ctl.index.dtype == (np.uint8 if len(table) <= 256 else np.uint16)
        want = table.astype(float)[index]
        got = ctl.values
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for j in range(ctl.steps):
            assert ctl.index[:, j].flags.c_contiguous
            step = ctl.at(j)
            assert step.flags.c_contiguous and step.tobytes() == got[:, j].tobytes()

    def test_over_puts_the_given_rows_first(self):
        ctl = mc.ControlField(table=[[0.5], [-0.0], [1.0]], index=[[0, 1], [2, 0]])
        rows = np.array([[-1.0], [0.0], [1.0]])
        moved = ctl.over(rows)
        assert moved.table[:3].tobytes() == rows.tobytes()
        # 0.5 and -0.0 match none of the rows, bit for bit, so they follow them once each
        assert len(moved.table) == 5
        assert {r.tobytes() for r in moved.table[3:]} == {np.array([0.5]).tobytes(),
                                                          np.array([-0.0]).tobytes()}
        assert moved.values.tobytes() == ctl.values.tobytes()
        # a control already over the rows keeps its index array
        assert moved.over(rows).index is moved.index

    def test_index_widens_past_256_rows(self):
        ctl = mc.constant_control([0.25], 3, 2).over(np.arange(256.0)[:, None])
        assert len(ctl.table) == 257 and ctl.index.dtype == np.uint16
        assert np.all(ctl.values == 0.25)

    @pytest.mark.parametrize("table, index, message", [
        (np.zeros((2, 1)), np.array([[0, 2]]), "outside the table's 2 rows"),
        (np.zeros((2, 1)), np.array([[0, -1]]), "outside the table's 2 rows"),
        (np.zeros(2), np.zeros((1, 2), dtype=int), "must be \\(C, k\\)"),
        # a float or bool index was once truncated to [[0, 1]]
        (np.zeros((2, 1)), np.array([[0.7, 1.9]]), "integer dtype, got float64"),
        (np.zeros((2, 1)), np.array([[False, True]]), "integer dtype, got bool"),
    ])
    def test_bad_index_or_table_refused(self, table, index, message):
        with pytest.raises(mc.ConfigurationError, match=message):
            mc.ControlField(table=table, index=index)


class TestGirsanovWeights:
    def test_zero_integrand_gives_unit_weights(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 12), 30, 1, 2)
        w = girsanov_weights(np.zeros((30, 12, 1)), batch)
        assert np.all(w == 1.0)

    def test_constant_integrand_closed_form(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 50_000, 1, 6)
        c = 0.4
        w = girsanov_weights(np.full((50_000, 20, 1), c), batch)
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
        w = girsanov_weights(fz_grid, batch)
        w_t = batch.increments[:, :, 0].sum(axis=1)
        assert np.allclose(w, np.exp(0.1 * w_t - 0.005), rtol=1e-12)
        stderr = w.std(ddof=1) / np.sqrt(M)
        assert abs(w.mean() - 1.0) < 5 * stderr

    def test_overflow_names_path(self):
        grid = mc.TimeGrid(1.0, 5)
        huge = mc.BrownianBatch(grid, np.full((4, 5, 1), 1e3))
        with pytest.raises(mc.NumericalError, match="overflow at path"):
            girsanov_weights(np.ones((4, 5, 1)), huge)

    def test_underflow_names_path(self):
        batch = mc.sample_brownian(grid=mc.TimeGrid(1.0, 5), n_paths=4, d=1, seed=1)
        with pytest.raises(mc.NumericalError, match="underflow at path"):
            girsanov_weights(np.full((4, 5, 1), 1e6), batch)

    @pytest.mark.parametrize("log_w, message", [
        ([0.0, 1.0, -np.inf, 2.0], "underflow at path 2"),
        ([0.0, 1.0, -701.0, np.inf], "underflow at path 2"),
        ([0.0, np.nan, -np.inf, 2.0], "overflow at path 1"),
        ([0.0, 1.0, np.inf, -np.inf], "overflow at path 2"),
        ([0.0, 700.0, -700.0, 701.0], "overflow at path 3"),
    ], ids=["minus-inf", "below-minus-700", "nan", "plus-inf", "above-700"])
    def test_first_bad_exponent_is_named(self, log_w, message):
        # the first path whose exponent is out of range, whichever way it fails
        with pytest.raises(mc.NumericalError, match=f"^Girsanov weight {message}$") as info:
            mc.stochastics.girsanov_exp(np.array(log_w))
        assert info.value.path == int(message.rsplit(" ", 1)[1])


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
            "random_control": mc.random_control(dom, 50, 6, 1).index,
            "constant_control": mc.constant_control([0.5, 1.0], 50, 6).index,
            "tree_batch": mc.benchmarks.tree_batch(4).increments,
            "tree_random_control": mc.benchmarks.tree_random_control(dom, 4, 2).index,
        }
        for name, arr in arrays.items():
            assert_step_slices_contiguous(arr, name)

    def test_solver_outputs(self):
        bench = mc.lq_desk()
        spec, backend = bench.spec, mc.RegressionBackend()
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 6), 64, 1, 4)
        control = mc.random_control(bench.domain, 64, 6, 4)
        forward = mc.simulate_forward(spec, control, batch)
        backward = mc.solve_state_bsde(spec, forward, backend)
        first = mc.adjoint.first_order_adjoint(spec, forward, backward, backend)
        second = mc.adjoint.second_order_adjoint(spec, forward, backward, first, backend)
        zero = mc.adjoint.zero_second_order(spec, batch)
        arrays = {
            "X": dense_states(forward), "Y": backward.values, "Z": backward.integrand,
            "p": first.p, "q": first.q, "P": second.P, "Q": second.Q,
            "zero P": zero.P, "zero Q": zero.Q,
        }
        for name, arr in arrays.items():
            assert_step_slices_contiguous(arr, name)

    def test_tree_oracle_stacks_time_major(self, monkeypatch):
        seen = []
        real = mc.benchmarks.simulate_forward

        def spy(spec, control, batch):
            seen.append(batch.n_paths)
            assert_step_slices_contiguous(control.index, "policy controls")
            assert_step_slices_contiguous(batch.increments, "tiled increments")
            return real(spec, control, batch)

        monkeypatch.setattr(mc.benchmarks, "simulate_forward", spy)
        # the policies are enumerated only where the backward induction is not certified
        monkeypatch.setattr(mc.benchmarks, "_backward_induction", lambda *args: None)
        bench = mc.lq_desk()
        tree = mc.benchmarks.tree_bruteforce(bench.spec, bench.domain, 3)
        assert tree.jstar == 0.0 and tree.enumerated
        # stacked chunks and the final single-policy pass were all checked
        assert len(seen) >= 2 and seen[-1] == 8 and max(seen) > 8


class TestGirsanovTerms:
    """``girsanov_terms`` sums each row by ``einsum``, without an (M, d) product."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_sums_equal_the_row_sums_of_the_products_bitwise(self, d):
        # up to d = 2 the two add in one order; from d = 3 on they may differ in
        # the last bit
        M = 5_000
        rng = np.random.default_rng(d)
        start = rng.normal(size=(2, M))
        stored = mc.stochastics._time_major((M, 2, d))  # step slices, as the sweep reads them
        stored[...] = rng.normal(size=(M, 2, d))
        for fz, dw in ((rng.normal(size=(M, d)), rng.normal(size=(M, d))),
                       (stored[:, 0], stored[:, 1])):
            sums = start.copy()
            mc.stochastics.girsanov_terms(sums, fz, dw)
            assert np.array_equal(sums[0], start[0] + (fz * dw).sum(axis=1))
            assert np.array_equal(sums[1], start[1] + (fz * fz).sum(axis=1))

    def test_one_call_holds_one_row_sum(self):
        # an (M, d) product would add 8 M d bytes, 160 000 here, past the 64 KiB slack
        M, d = 20_000, 1
        rng = np.random.default_rng(0)
        fz, dw, sums = rng.normal(size=(M, d)), rng.normal(size=(M, d)), np.zeros((2, M))
        mc.stochastics.girsanov_terms(sums, fz, dw)  # warm-up
        tracemalloc.start()
        try:
            mc.stochastics.girsanov_terms(sums, fz, dw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * M + 65_536


class TestLayoutIndependentReductions:
    def test_girsanov_weights(self):
        batch = mc.sample_brownian(mc.TimeGrid(1.0, 20), 300, 2, 5)
        fz = 0.3 * np.random.default_rng(1).normal(size=(300, 20, 2))
        c_batch = mc.BrownianBatch(batch.grid, np.ascontiguousarray(batch.increments))
        assert not batch.increments.flags.c_contiguous
        fz_time_major = np.empty((20, 300, 2)).swapaxes(0, 1)
        fz_time_major[...] = fz
        want = girsanov_weights(fz, c_batch)
        assert np.array_equal(girsanov_weights(fz, batch), want)
        assert np.array_equal(girsanov_weights(fz_time_major, batch), want)
        assert np.array_equal(girsanov_weights(fz_time_major, c_batch), want)
