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


class TestEvalCoefficients:
    def test_example41_sigma_is_control(self):
        spec = mc.example41(1.0).spec
        b, s = mc.eval_coefficients(spec, 0.5, [3.0], [1.0])
        assert b == pytest.approx(0.0)
        assert s[0, 0] == pytest.approx(1.0)

    def test_deterministic_bitwise(self):
        spec = mc.example41(0.3).spec
        out1 = mc.eval_coefficients(spec, 0.25, [0.4], [1.0])
        out2 = mc.eval_coefficients(spec, 0.25, [0.4], [1.0])
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_lq_affine_drift(self):
        bench = mc.lq_problem(
            gamma_mat=[[1.0]], a_mat=[[1.0]], b_mat=[[1.0]],
            b1=[[0.5]], b2=[0.1], sigma_fn=lambda t, u: u[:, :, None],
            domain=mc.FiniteSet([[0.0], [1.0]]), n=1, d=1, k=1,
            x0=np.zeros(1), horizon=1.0)
        b, _ = mc.eval_coefficients(bench.spec, 0.0, [2.0], [0.0])
        assert b[0] == pytest.approx(1.1)

    def test_dimension_mismatch_is_config_error(self):
        spec = mc.example41(0.1).spec
        with pytest.raises(mc.ConfigurationError):
            mc.eval_coefficients(spec, 0.0, [1.0, 2.0], [0.0])
        with pytest.raises(mc.ConfigurationError):
            mc.eval_coefficients(spec, 2.0, [1.0], [0.0])  # t outside horizon

    def test_non_finite_names_the_coefficient(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.full_like(x, np.nan),
            diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.zeros(len(x)))
        with pytest.raises(mc.EvaluationError, match="drift"):
            mc.eval_coefficients(spec, 0.0, [1.0], [0.0])


class TestEvalDriver:
    def test_example41_sine(self):
        spec = mc.example41(1.0).spec
        val = mc.eval_driver(spec, 0.0, [0.0], 0.0, [np.pi / 2], [0.0])
        assert val == pytest.approx(1.0)

    def test_zero_driver(self):
        bench = mc.linrec_desk()
        # desk instance has f1 = 0, f2 = beta; with y = 0 and u = 0 it vanishes
        assert mc.eval_driver(bench.spec, 0.3, [1.0], 0.0, [0.0], [0.0]) == 0.0

    def test_linear_recursive_values(self):
        bench = mc.linear_recursive_problem(
            b1=[[0.0]], b2=[[0.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
            sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
            f1=[1.0], f2=2.0, f3=lambda t, u: u[:, 0] ** 2,
            alpha=[0.0], gamma=0.0,
            domain=mc.Box([-1.0], [1.0], [3]), x0=np.zeros(1), horizon=1.0)
        val = mc.eval_driver(bench.spec, 0.0, [1.0], 1.0, [0.0], [0.5])
        assert val == pytest.approx(3.25)


class TestCheckDerivatives:
    def test_example41_closed_forms_pass(self):
        rep = mc.check_derivatives(mc.example41(0.7).spec, sample_count=30,
                                   step=1e-5, tol=1e-6, seed=4)
        assert rep.all_passed
        assert rep.errors["f_z"] < 1e-6

    def test_constant_coefficients_exact_zero(self):
        rep = mc.check_derivatives(zero_coeff_spec(), sample_count=10,
                                   step=1e-4, tol=1e-12, seed=0)
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
        rep = mc.check_derivatives(spec, sample_count=10, step=1e-5, tol=1e-4, seed=1)
        assert not rep.passed("f_y")
        assert rep.passed("f_z")

    def test_fallback_passes_at_ten_step_squared(self):
        # derivatives generated by the fallback at the same step the checker uses
        step = 1e-5
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: np.sin(x),
            diffusion=lambda t, x, u: (x * u)[:, :, None],
            driver=lambda t, x, y, z, u: np.cos(z[:, 0]) * y,
            terminal=lambda x: x[:, 0] ** 2,
            fd_step=step, fd_step_hess=step)
        rep = mc.check_derivatives(spec, sample_count=15, step=step,
                                   tol=10 * step ** 2, seed=3)
        assert rep.all_passed
        assert len(rep.fd_fallback) == len(mc.model.DERIVATIVE_NAMES)

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
        for p in pts:
            assert mc.domain_contains(box, p)
