import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msacontrol as mc
from msacontrol.model import constant_fn


def zero_coeff_spec(n=1, d=1, k=1, value=0.7):
    """Spec with constant coefficients everywhere (all derivatives vanish)."""
    return mc.ProblemSpec.build(
        n=n, d=d, k=k, x0=np.zeros(n), horizon=1.0,
        drift=constant_fn(np.full(n, value)),
        diffusion=constant_fn(np.full((n, d), value)),
        driver=lambda t, x, y, z, u: np.full(len(x), value),
        terminal=lambda x: np.full(len(x), value))


def row(*values):
    """values as one-row float arrays: a list gives (1, len), a number (1,)."""
    return tuple(np.array([v], dtype=float) for v in values)


class TestProblemSpec:
    @pytest.mark.parametrize("name", ["n", "d", "k"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, 0])
    def test_non_integral_or_non_positive_dimension_refused(self, name, value):
        # 1.5, 2.0 and True were accepted, and check_derivatives later failed with a TypeError
        dims = {"n": 1, "d": 1, "k": 1, name: value}
        with pytest.raises(mc.ConfigurationError, match=f"^{name} must be an integer >= 1"):
            mc.ProblemSpec.build(
                **dims, x0=np.zeros(1), horizon=1.0,
                drift=lambda t, x, u: np.zeros_like(x),
                diffusion=lambda t, x, u: np.zeros((len(x), 1, 1)),
                driver=lambda t, x, y, z, u: np.zeros(len(x)),
                terminal=lambda x: np.zeros(len(x)))

    def test_numpy_integer_dimensions_accepted(self):
        spec = zero_coeff_spec(n=np.int64(2), d=np.int32(1))
        assert (spec.n, spec.d) == (2, 1)

    @pytest.mark.parametrize("changes, message", [
        ({"horizon": 0.0}, "horizon must be positive"),
        ({"horizon": -1.0}, "horizon must be positive"),
        # an infinite horizon was accepted, and check_derivatives then failed in
        # numpy with OverflowError: high - low range exceeds valid bounds
        ({"horizon": float("inf")}, "^horizon must be positive and finite, got inf$"),
        ({"horizon": float("nan")}, "^horizon must be positive and finite, got nan$"),
        ({"x0": np.zeros(1)}, r"x0 must have shape \(2,\), got \(1,\)"),
        ({"x0": np.zeros(3)}, r"x0 must have shape \(2,\), got \(3,\)"),
        ({"derivatives": {"f_zz": None, "b_x": None, "phi_xxx": None}},
         r"unknown derivative names: \['f_zz', 'phi_xxx'\]"),
    ], ids=["zero-horizon", "negative-horizon", "inf-horizon", "nan-horizon", "short-x0",
            "long-x0", "unknown-derivatives"])
    def test_malformed_spec_refused(self, changes, message):
        kwargs = dict(n=2, d=1, k=1, x0=np.zeros(2), horizon=1.0,
                      drift=lambda t, x, u: np.zeros_like(x),
                      diffusion=lambda t, x, u: np.zeros((len(x), 2, 1)),
                      driver=lambda t, x, y, z, u: np.zeros(len(x)),
                      terminal=lambda x: np.zeros(len(x)))
        with pytest.raises(mc.ConfigurationError, match=message):
            mc.ProblemSpec.build(**{**kwargs, **changes})


class TestCoefficients:
    # a single point is a one-row batch of the spec's own callables
    def test_example41_sigma_is_control(self):
        spec = mc.example41(1.0).spec
        x, u = row([3.0], [1.0])
        b, s = spec.drift(0.5, x, u)[0], spec.diffusion(0.5, x, u)[0]
        assert b == pytest.approx(0.0)
        assert s[0, 0] == pytest.approx(1.0)

    def test_deterministic_bitwise(self):
        spec = mc.example41(0.3).spec
        x, u = row([0.4], [1.0])
        out1 = spec.drift(0.25, x, u), spec.diffusion(0.25, x, u)
        out2 = spec.drift(0.25, x, u), spec.diffusion(0.25, x, u)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_lq_affine_drift(self):
        bench = mc.lq_problem(
            gamma_mat=[[1.0]], a_mat=[[1.0]], b_mat=[[1.0]],
            b1=[[0.5]], b2=[0.1], sigma_fn=lambda t, u: u[:, :, None],
            domain=mc.FiniteSet([[0.0], [1.0]]), n=1, d=1, k=1,
            x0=np.zeros(1), horizon=1.0)
        b = bench.spec.drift(0.0, *row([2.0], [0.0]))[0]
        assert b[0] == pytest.approx(1.1)

    def test_constant_fn_serves_coefficients_and_phi_derivatives(self):
        # one rule for a constant derivative, whichever signature it is called by
        value = np.array([[1.0, -2.0], [0.5, 3.0]])
        fn = constant_fn(value)
        x = np.zeros((3, 2))
        u, y, z = np.zeros((3, 1)), np.zeros(3), np.zeros((3, 1))
        calls = [fn(x), fn(0.5, x, u), fn(0.5, x, y, z, u)]
        for out in calls:
            assert np.array_equal(out, np.broadcast_to(value, (3, 2, 2)))
            assert out.flags.writeable and not np.shares_memory(out, value)
        assert not np.shares_memory(calls[0], calls[1])
        assert constant_fn(0.25)(x).tolist() == [0.25] * 3


class TestDriver:
    def test_example41_sine(self):
        spec = mc.example41(1.0).spec
        x, y, z, u = row([0.0], 0.0, [np.pi / 2], [0.0])
        assert spec.driver(0.0, x, y, z, u)[0] == pytest.approx(1.0)

    def test_zero_driver(self):
        bench = mc.linrec_desk()
        # desk instance has f1 = 0, f2 = beta; with y = 0 and u = 0 it vanishes
        x, y, z, u = row([1.0], 0.0, [0.0], [0.0])
        assert bench.spec.driver(0.3, x, y, z, u)[0] == 0.0

    def test_linear_recursive_values(self):
        bench = mc.linear_recursive_problem(
            b1=[[0.0]], b2=[[0.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
            sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
            f1=[1.0], f2=2.0, f3=lambda t, u: u[:, 0] ** 2,
            alpha=[0.0], gamma=0.0,
            domain=mc.Box([-1.0], [1.0], [3]), x0=np.zeros(1), horizon=1.0)
        x, y, z, u = row([1.0], 1.0, [0.0], [0.5])
        assert bench.spec.driver(0.0, x, y, z, u)[0] == pytest.approx(3.25)


class TestCheckDerivatives:
    def test_example41_closed_forms_pass(self):
        rep = mc.check_derivatives(mc.example41(0.7).spec, sample_count=30, tol=1e-6, seed=4)
        assert rep.all_passed
        assert rep.errors["f_z"] < 1e-6

    @pytest.mark.parametrize("count", [2.5, True])
    def test_sample_count_must_be_an_integer(self, count):
        with pytest.raises(mc.ConfigurationError,
                           match=r"^sample_count must be an integer >= 1, got "):
            mc.check_derivatives(mc.example41(0.7).spec, sample_count=count)

    def test_constant_coefficients_exact_zero(self):
        rep = mc.check_derivatives(zero_coeff_spec(), sample_count=10, tol=1e-12, seed=0)
        assert all(err == 0.0 for err in rep.errors.values())

    def test_wrong_f_y_is_flagged(self):
        bench = mc.example41(0.5)
        bad = dict(
            b_x=bench.spec.derivatives.b_x, sigma_x=bench.spec.derivatives.sigma_x,
            b_xx=bench.spec.derivatives.b_xx, sigma_xx=bench.spec.derivatives.sigma_xx,
            f_x=bench.spec.derivatives.f_x,
            f_y=lambda t, x, y, z, u: np.ones(len(x)),  # truth is 0
            f_z=bench.spec.derivatives.f_z, f_hess=bench.spec.derivatives.f_hess,
            phi_x=bench.spec.derivatives.phi_x, phi_xx=bench.spec.derivatives.phi_xx)
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=bench.spec.drift, diffusion=bench.spec.diffusion,
            driver=bench.spec.driver, terminal=bench.spec.terminal,
            derivatives=bad)
        rep = mc.check_derivatives(spec, sample_count=10, tol=1e-4, seed=1)
        assert not rep.passed("f_y")
        assert rep.passed("f_z")
        assert rep.worst == ("f_y", rep.errors["f_y"])

    def test_worst_is_the_largest_error_and_its_name(self):
        # the benchmark reports a failed derivative check by ``worst``
        rep = mc.DerivativeReport(errors={"b_x": 0.0, "f_z": 2e-3, "f_y": 5e-4, "phi_x": 2e-3},
                                  tol=1e-3, fd_fallback=frozenset())
        assert rep.worst == ("f_z", 2e-3)  # a tie goes to the first name
        assert not rep.all_passed and rep.passed("f_y")

    # right on every one-row batch, wrong on any larger one: f_z repeats row
    # 0's value for every row, f_y returns one value for the whole batch
    @pytest.mark.parametrize("name", ["f_z", "f_y"])
    def test_derivative_right_only_on_one_row_is_flagged(self, name):
        bench = mc.example41(0.5)
        dv = bench.spec.derivatives
        derivatives = {key: getattr(dv, key) for key in mc.model.DERIVATIVE_NAMES}
        wrong = {"f_z": lambda t, x, y, z, u: np.repeat(dv.f_z(t, x, y, z, u)[:1], len(x), axis=0),
                 "f_y": lambda t, x, y, z, u: np.zeros(1)}
        derivatives[name] = wrong[name]
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=bench.spec.drift, diffusion=bench.spec.diffusion,
            driver=bench.spec.driver, terminal=bench.spec.terminal,
            derivatives=derivatives)
        rep = mc.check_derivatives(spec, sample_count=10, tol=1e-4, seed=1)
        assert [key for key in rep.errors if not rep.passed(key)] == [name]

    @pytest.mark.parametrize("flag", [f.name for f in dataclasses.fields(mc.Structure)])
    def test_declared_zero_that_is_not_zero_fails(self, flag):
        # every derivative of this spec is nonzero at almost every point
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.sin(x) + u,
            diffusion=lambda t, x, u: (np.cos(x) + u)[:, :, None],
            driver=lambda t, x, y, z, u: np.sin(x[:, 0]) + y * z[:, 0] + z[:, 0] ** 2,
            terminal=lambda x: x[:, 0] ** 3,
            structure=mc.Structure(**{flag: True}))
        rep = mc.check_derivatives(spec, sample_count=10, tol=1e-4, seed=1)
        assert [key for key in rep.errors if not rep.passed(key)] == [flag]
        assert rep.errors[flag] == np.inf

    @pytest.mark.parametrize("bench", [mc.example41(0.5), mc.lq_desk(), mc.linrec_desk()],
                             ids=lambda bench: bench.name)
    def test_shipped_structural_zeros_hold(self, bench):
        rep = mc.check_derivatives(bench.spec, sample_count=10, seed=2)
        flags = [key for key in rep.errors if key.endswith("_zero")]
        assert flags and all(rep.errors[key] == 0.0 for key in flags)
        assert rep.all_passed

    def test_fallback_checks_at_exact_zero(self):
        # the fallback and the checker difference at the same steps, so a derivative
        # the fallback filled in reads exactly 0, in every entry
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.sin(x),
            diffusion=lambda t, x, u: (x * u)[:, :, None],
            driver=lambda t, x, y, z, u: np.cos(z[:, 0]) * y,
            terminal=lambda x: x[:, 0] ** 2)
        rep = mc.check_derivatives(spec, sample_count=15, tol=0.0, seed=3)
        assert rep.errors == dict.fromkeys(mc.model.DERIVATIVE_NAMES, 0.0)
        assert rep.all_passed
        assert len(rep.fd_fallback) == len(mc.model.DERIVATIVE_NAMES)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, True],
                             ids=["negative", "2**128", "float", "bool"])
    def test_seed_outside_the_philox_keys_refused(self, seed):
        with pytest.raises(mc.ConfigurationError, match=r"^seed must be an integer in "):
            mc.check_derivatives(mc.example41(0.7).spec, sample_count=2, seed=seed)

    def test_fallback_driver_gradient_is_row_wise(self):
        # each row's gradient comes from its own point, also in a batch
        spec = mc.ProblemSpec.build(
            n=2, d=1, k=1, x0=np.zeros(2), horizon=1.0,
            drift=lambda t, x, u: np.zeros_like(x),
            diffusion=constant_fn(np.ones((2, 1))),
            driver=lambda t, x, y, z, u: (0.5 * (x * x).sum(axis=1) + y * y
                                          + np.sin(z[:, 0]) * u[:, 0]),
            terminal=lambda x: x[:, 0])
        rng = np.random.default_rng(2)
        B = 50
        x, y = rng.normal(size=(B, 2)), rng.normal(size=B)
        z, u = rng.normal(size=(B, 1)), rng.normal(size=(B, 1))
        dv = spec.derivatives
        assert {"f_x", "f_y", "f_z"} <= dv.fd_fallback
        np.testing.assert_allclose(dv.f_x(0.1, x, y, z, u), x, atol=1e-8)
        np.testing.assert_allclose(dv.f_y(0.1, x, y, z, u), 2 * y, atol=1e-8)
        np.testing.assert_allclose(dv.f_z(0.1, x, y, z, u), np.cos(z) * u, atol=1e-8)


    def test_fallback_differences_each_block_once(self):
        # f_x, f_y and f_z each difference their own block of (x, y, z): a node
        # that reads all three calls the driver 2n + 2 + 2d times, 14 at n = 4, d = 2
        calls = [0]

        def driver(t, x, y, z, u):
            calls[0] += 1
            return x.sum(axis=1) * y + np.sin(z).sum(axis=1) * u[:, 0]

        spec = mc.ProblemSpec.build(
            n=4, d=2, k=1, x0=np.zeros(4), horizon=1.0,
            drift=lambda t, x, u: np.zeros_like(x), diffusion=constant_fn(np.ones((4, 2))),
            driver=driver, terminal=lambda x: x[:, 0])
        rng = np.random.default_rng(5)
        x, y, z, u = (rng.normal(size=shape) for shape in ((30, 4), 30, (30, 2), (30, 1)))
        point = mc.adjoint.StepPoint(spec, 0.2, x, y, z, u)
        np.testing.assert_allclose(point.f_x, np.repeat(y[:, None], 4, axis=1), atol=1e-8)
        np.testing.assert_allclose(point.f_y, x.sum(axis=1), atol=1e-8)
        np.testing.assert_allclose(point.f_z, np.cos(z) * u, atol=1e-8)
        assert calls[0] == 14

class TestBounds:
    @pytest.mark.parametrize("df", [-0.1, np.inf, np.nan])
    def test_negative_or_non_finite_bound_refused(self, df):
        # the tree oracle certifies its backward induction by df (sqrt(dt) + dt) < 1,
        # which a negative bound would meet for any driver
        with pytest.raises(mc.ConfigurationError, match="Bounds.df"):
            mc.Bounds(df=df)

    def test_declared_bounds(self):
        assert mc.Bounds().df is None
        assert mc.example41(0.3).spec.bounds.df == 0.3
        assert mc.lq_desk().spec.bounds.df == 0.0

    @pytest.mark.parametrize("bench", [mc.example41(0.1), mc.example41(1.0),
                                       mc.example41(np.sqrt(np.pi)), mc.lq_desk()],
                             ids=["ex41-0.1", "ex41-1", "ex41-sqrtpi", "lq"])
    def test_shipped_bounds_hold_on_the_sample(self, bench):
        # sampled max(|f_y|, |f_z|): 0.0999988, 0.998797 and 1.76576 for example41
        # (declared L), 0 for lq (declared 0)
        rep = mc.check_derivatives(bench.spec)
        assert rep.errors["df"] == 0.0
        assert rep.all_passed

    @pytest.mark.parametrize("df", [1.0, 4.9])
    def test_understated_bound_fails(self, df, z_driven):
        # f = 5 z: |f_z| = 5 everywhere
        rep = mc.check_derivatives(z_driven(5.0, df=df))
        assert rep.errors["df"] == np.inf
        assert [key for key in rep.errors if not rep.passed(key)] == ["df"]

    def test_understated_bound_on_f_y_fails(self):
        # f = 2 y: |f_y| = 2 everywhere, f_z = 0
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: u.astype(float),
            diffusion=lambda t, x, u: np.full((len(x), 1, 1), 0.5),
            driver=lambda t, x, y, z, u: 2.0 * y, terminal=lambda x: x[:, 0],
            bounds=mc.Bounds(df=1.0))
        assert mc.check_derivatives(spec).errors["df"] == np.inf

    def test_undeclared_bound_has_no_entry(self, z_driven):
        assert "df" not in mc.check_derivatives(z_driven(5.0)).errors
        assert mc.check_derivatives(z_driven(5.0, df=6.0)).errors["df"] == 0.0


class TestHessianSymmetry:
    @pytest.mark.parametrize("spec_fn", [
        lambda: mc.example41(0.4).spec,
        lambda: mc.ProblemSpec.build(
            n=2, d=1, k=1, x0=np.zeros(2), horizon=1.0,
            drift=lambda t, x, u: np.sin(x),
            diffusion=lambda t, x, u: (x * x)[:, :, None],
            driver=lambda t, x, y, z, u: np.exp(x[:, 0] * z[:, 0]) + y * y,
            terminal=lambda x: x[:, 0] * x[:, 1]),
    ])
    def test_d2f_symmetric_at_100_points(self, spec_fn):
        spec = spec_fn()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, spec.n))
        y = rng.normal(size=100)
        z = rng.normal(size=(100, spec.d))
        u = rng.normal(size=(100, spec.k))
        hess = spec.derivatives.f_hess(0.3, x, y, z, u)
        assert np.max(np.abs(hess - hess.transpose(0, 2, 1))) == 0.0


def scalar_fd_hessian(fn, x, step):
    """The central 4-point Hessian of a scalar fn: (B, p) -> (B,), one component at a
    time: the reference that the vector-valued fallback must match bit for bit."""
    h = step * np.maximum(1.0, np.abs(x))
    p = x.shape[1]
    out = np.empty((len(x), p, p))
    for a in range(p):
        for b in range(a, p):
            plus, cross = np.zeros_like(x), np.zeros_like(x)
            plus[:, a] += h[:, a]
            plus[:, b] += h[:, b]
            cross[:, a] += h[:, a]
            cross[:, b] -= h[:, b]
            out[:, a, b] = out[:, b, a] = (
                (fn(x + plus) - fn(x + cross) - fn(x - cross) + fn(x - plus))
                / (4.0 * h[:, a] * h[:, b]))
    return out


class TestFiniteDifferenceHessians:
    N, D = 3, 2

    @pytest.fixture
    def counted(self):
        """A fallback-only n = 3, d = 2 spec, with its drift and diffusion calls counted."""
        calls = {"drift": 0, "diffusion": 0}
        mix = np.arange(1.0, 1.0 + self.N * self.N * self.D).reshape(self.N, self.N, self.D)

        def drift(t, x, u):
            calls["drift"] += 1
            return np.sin(x * u) + x[:, [1, 2, 0]] ** 2

        def diffusion(t, x, u):
            calls["diffusion"] += 1
            return np.cos(np.einsum("bj,jnd->bnd", x, mix) * 0.1) * u[:, :, None]

        spec = mc.ProblemSpec.build(
            n=self.N, d=self.D, k=1, x0=np.zeros(self.N), horizon=1.0, drift=drift,
            diffusion=diffusion,
            driver=lambda t, x, y, z, u: np.exp(0.1 * x[:, 0] * z[:, 1]) + y * y * u[:, 0],
            terminal=lambda x: np.sin(x[:, 0] * x[:, 1]) + x[:, 2] ** 3)
        return spec, calls

    def test_vector_hessians_equal_the_per_component_ones_bitwise(self, counted):
        spec, calls = counted
        n, d = self.N, self.D
        rng = np.random.default_rng(11)
        x, u = rng.normal(size=(40, n)), rng.normal(size=(40, 1))
        y, z = rng.normal(size=40), rng.normal(size=(40, d))
        t, step, dv = 0.3, mc.model.FD_STEP_HESS, spec.derivatives
        pairs = 4 * n * (n + 1) // 2  # evaluations of one 4-point Hessian in n variables

        b_xx = dv.b_xx(t, x, u)
        assert calls["drift"] == pairs
        want = np.stack([scalar_fd_hessian(lambda xs, j=j: spec.drift(t, xs, u)[:, j],
                                           x, step) for j in range(n)], axis=1)
        assert calls["drift"] == pairs + n * pairs  # the reference's n times as many
        assert b_xx.shape == (40, n, n, n) and b_xx.tobytes() == want.tobytes()

        sigma_xx = dv.sigma_xx(t, x, u)
        assert calls["diffusion"] == pairs
        want = np.empty((40, d, n, n, n))
        for i in range(d):
            for j in range(n):
                want[:, i, j] = scalar_fd_hessian(
                    lambda xs, i=i, j=j: spec.diffusion(t, xs, u)[:, j, i], x, step)
        assert calls["diffusion"] == pairs + n * d * pairs
        assert sigma_xx.shape == want.shape and sigma_xx.tobytes() == want.tobytes()

        w = np.concatenate([x, y[:, None], z], axis=1)
        want = scalar_fd_hessian(
            lambda ws: spec.driver(t, ws[:, :n], ws[:, n], ws[:, n + 1:], u), w, step)
        assert dv.f_hess(t, x, y, z, u).tobytes() == want.tobytes()
        assert dv.phi_xx(x).tobytes() == scalar_fd_hessian(spec.terminal, x, step).tobytes()


class TestControlDomains:
    def test_finite_set_binary_order(self):
        dom = mc.example41(0.1).domain
        pts = mc.enumerate_controls(dom)
        assert np.array_equal(pts, [[0.0], [1.0]])

    def test_box_resolution_three(self):
        pts = mc.enumerate_controls(mc.Box([-1.0], [1.0], [3]))
        assert np.array_equal(pts, [[-1.0], [0.0], [1.0]])

    def test_finite_set_passthrough_k2(self):
        dom = mc.FiniteSet([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(mc.enumerate_controls(dom), [[0.0, 0.0], [1.0, 0.0]])

    def test_box_lexicographic_k2(self):
        pts = mc.enumerate_controls(mc.Box([0.0, 0.0], [1.0, 1.0], [2, 2]))
        assert np.array_equal(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_invalid_domains_rejected(self):
        with pytest.raises(mc.ConfigurationError):
            mc.FiniteSet(np.zeros((0, 1)))
        with pytest.raises(mc.ConfigurationError):
            mc.FiniteSet([[1.0], [1.0]])
        with pytest.raises(mc.ConfigurationError):
            mc.Box([1.0], [0.0], [3])
        with pytest.raises(mc.ConfigurationError):
            mc.Box([0.0], [1.0], [1])

    def test_box_scalar_resolution_broadcasts_to_every_axis(self):
        for resolution in (3, [3]):
            box = mc.Box([-1.0, 0.0], [1.0, 2.0], resolution)
            assert box.resolution.tolist() == [3, 3]
            pts = mc.enumerate_controls(box)
            assert pts.shape == (9, 2)
            assert np.array_equal(pts[:3], [[-1, 0], [-1, 1], [-1, 2]])

    @pytest.mark.parametrize("lower, upper, resolution", [
        ([0.0, 0.0], [1.0], [3]),
        ([0.0], [1.0, 1.0], [3]),
        ([0.0, 0.0], [1.0, 1.0], [3, 3, 3]),
        ([0.0], [1.0], [3, 3]),
    ], ids=["short-upper", "short-lower", "long-resolution", "resolution-per-missing-axis"])
    def test_box_shapes_that_differ_refused(self, lower, upper, resolution):
        with pytest.raises(mc.ConfigurationError,
                           match="Box lower/upper/resolution shapes differ"):
            mc.Box(lower, upper, resolution)

    @pytest.mark.parametrize("domain", [[[0.0], [1.0]], np.zeros((2, 1)), "box"])
    def test_enumerating_an_unsupported_domain_refused(self, domain):
        with pytest.raises(mc.ConfigurationError,
                           match=f"unsupported control domain: {type(domain).__name__}$"):
            mc.enumerate_controls(domain)

    @pytest.mark.parametrize("make", [
        lambda: mc.Box([0.0], [1.0], [2.7]),       # was cast to 2 grid points
        lambda: mc.Box([0.0], [1.0], 3.0),
        lambda: mc.Box([0.0], [np.inf], [3]),      # enumerated [nan, inf, inf]
        lambda: mc.Box([-np.inf], [0.0], [3]),
        lambda: mc.Box([np.nan], [1.0], [3]),      # NaN passed lower <= upper
        lambda: mc.Box([0.0, 0.0], [1.0, np.nan], [3, 3]),
        lambda: mc.FiniteSet([[0.0], [np.nan]]),
        lambda: mc.FiniteSet([[np.inf, 0.0]]),
    ], ids=["float-resolution", "float-scalar-resolution", "infinite-upper",
            "infinite-lower", "nan-lower", "nan-upper-k2", "nan-point", "infinite-point"])
    def test_mangled_domains_refused(self, make):
        with pytest.raises(mc.ConfigurationError):
            make()

    @settings(max_examples=40, deadline=None)
    @given(lo=st.floats(-5, 5), width=st.floats(0, 5),
           res=st.integers(2, 7))
    def test_box_grid_properties(self, lo, width, res):
        box = mc.Box([lo], [lo + width], [res])
        pts = mc.enumerate_controls(box)
        assert len(pts) == res
        assert np.all(pts[:, 0] >= lo - 1e-12)
        assert np.all(pts[:, 0] <= lo + width + 1e-12)
        assert np.array_equal(pts, mc.enumerate_controls(box))  # deterministic
