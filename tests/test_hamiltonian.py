import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msacontrol as mc
from msacontrol.hamiltonian import h_batch, minimize_step, penalty_batch
from msacontrol.model import constant_fn

floats = st.floats(-2.0, 2.0)


def point(spec, t=0.2, x=0.0, y=0.0, z=0.0, p=0.0, q=0.0, P=0.0, u=0.0):
    return mc.HamiltonianPoint(
        t=t, x=np.full(spec.n, x), y=y, z=np.full(spec.d, z),
        p=np.full(spec.n, p), q=np.full((spec.n, spec.d), q),
        P=np.full((spec.n, spec.n), P), u_prev=np.full(spec.k, u))


def sigma_state_spec():
    """n = d = k = 1 with sigma = v x, used for the delta examples."""
    return mc.ProblemSpec.build(
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
        drift=constant_fn(np.zeros(1)),
        diffusion=lambda t, x, u: (u * x)[:, :, None],
        driver=lambda t, x, y, z, u: np.zeros(len(x)),
        terminal=lambda x: np.zeros(len(x)))


class TestDeltaTilde:
    def test_coincident_controls_vanish(self):
        spec = sigma_state_spec()
        out = mc.delta_tilde(spec, 0.1, [1.3], [0.7], [0.4], [0.4])
        assert np.all(out == 0.0)

    def test_example41_linear_in_control_gap(self):
        spec = mc.example41(1.0).spec
        out = mc.delta_tilde(spec, 0.0, [0.0], [1.0], [1.0], [0.0])
        assert out[0] == pytest.approx(1.0)

    def test_state_dependent_diffusion(self):
        spec = sigma_state_spec()
        out = mc.delta_tilde(spec, 0.0, [3.0], [2.0], [1.0], [0.0])
        assert out[0] == pytest.approx(6.0)


class TestEvalG:
    def test_example41_closed_form(self):
        L = 0.3
        spec = mc.example41(L).spec
        for z in (-0.5, 0.0, 1.2):
            for v, u in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
                got = mc.eval_G(spec, 0.4, [0.0], 0.0, [z], [L], np.zeros((1, 1)),
                                [v], [u])
                assert got == pytest.approx(np.sin(L * z + L * L * (v - u)), abs=1e-14)

    def test_all_zero_spec(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.zeros(len(x)))
        assert mc.eval_G(spec, 0.0, [1.0], 1.0, [1.0], [1.0], np.ones((1, 1)),
                         [1.0], [0.0]) == 0.0

    def test_linear_recursive_closed_form(self):
        bench = mc.linear_recursive_problem(
            b1=[[0.0]], b2=[[1.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
            sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
            f1=[0.0], f2=0.0, f3=lambda t, u: u[:, 0] ** 2,
            alpha=[0.0], gamma=0.0, domain=mc.Box([-2.0], [2.0], [5]),
            x0=np.zeros(1), horizon=1.0)
        # G = p(b1 x + b2 v + b3) + f1 x + f2 y + f3(v) = 1*2 + 4 = 6
        got = mc.eval_G(bench.spec, 0.0, [0.0], 0.0, [0.0], [1.0],
                        np.zeros((1, 1)), [2.0], [0.0])
        assert got == pytest.approx(6.0)


class TestEvalH:
    def test_zero_curvature_reduces_to_G(self):
        spec = mc.example41(0.5).spec
        pt = point(spec, z=0.7, p=0.5, u=1.0)
        for v in (0.0, 1.0):
            h = mc.eval_H(spec, pt, [v])
            g = mc.eval_G(spec, pt.t, pt.x, pt.y, pt.z, pt.p, pt.q, [v], pt.u_prev)
            assert h == g

    def test_curvature_term_scalar(self):
        # sigma = v: H - G = 0.5 * P * (v - u)^2 = 0.5 * 2 * 4 = 4
        spec = mc.example41(1.0).spec
        pt = point(spec, P=2.0, u=1.0)
        h = mc.eval_H(spec, pt, [3.0])
        g = mc.eval_G(spec, pt.t, pt.x, pt.y, pt.z, pt.p, pt.q, [3.0], pt.u_prev)
        assert h - g == pytest.approx(4.0)

    def test_lq_closed_form(self):
        bench = mc.lq_desk()
        pt = point(bench.spec, x=0.6, p=0.9, q=0.4, P=1.3, u=-1.0)
        v = 1.0
        expected = (0.4 * v + 0.5 * (0.6 ** 2 + v ** 2)
                    + 0.5 * 1.3 * (v - (-1.0)) ** 2)
        assert mc.eval_H(bench.spec, pt, [v]) == pytest.approx(expected, abs=1e-12)


class TestEvalHAug:
    def test_candidate_equals_current_reduces_to_H(self):
        spec = mc.example41(0.4).spec
        pt = point(spec, z=0.3, p=0.4, u=1.0)
        assert mc.eval_H_aug(spec, pt, [1.0], rho=3.7) == mc.eval_H(spec, pt, [1.0])

    def test_example41_override_matches_paper_form(self):
        bench = mc.example41(0.1)
        spec, rho = bench.spec, bench.rho
        pt = point(spec, z=0.2, p=0.1, u=1.0)
        # general augmented Hamiltonian at (p = L, q = 0, P = 0) differs from
        # the problem's simplified form only through the z-derivative penalty,
        # negligible at this scale
        general = mc.eval_H_aug(spec, pt, [0.0], rho=rho)
        simplified = np.sin(0.1 * 0.2 + 0.01 * (0.0 - 1.0)) + rho / 2.0
        assert general == pytest.approx(simplified, abs=1e-8)
        # and the attached override reproduces it exactly
        hv = bench.hints.hamiltonian(spec, pt.t, pt.x[None], np.array([pt.y]),
                                     pt.z[None], pt.p[None], pt.q[None],
                                     pt.P[None], np.array([0.0]), pt.u_prev[None])
        pen = bench.hints.penalty(spec, pt.t, pt.x[None], np.array([pt.y]),
                                  pt.z[None], pt.p[None], pt.q[None],
                                  np.array([0.0]), pt.u_prev[None])
        assert hv[0] + rho / 2.0 * pen[0] == pytest.approx(simplified, abs=1e-15)

    def test_penalty_scales_linearly_in_rho(self):
        spec = mc.example41(0.8).spec
        pt = point(spec, z=-0.4, p=0.8, u=0.0)
        h = mc.eval_H(spec, pt, [1.0])
        rho = 0.37
        single = mc.eval_H_aug(spec, pt, [1.0], rho) - h
        double = mc.eval_H_aug(spec, pt, [1.0], 2 * rho) - h
        assert double == pytest.approx(2 * single, rel=1e-12)


class TestMinimizeHAug:
    def test_example41_worked_update(self):
        bench = mc.example41(0.1)
        pt = point(bench.spec, z=0.0, p=0.1, u=1.0)
        u_new, value = mc.minimize_H_aug(bench.spec, pt, bench.domain, bench.rho)
        assert u_new[0] == 0.0
        assert value == pytest.approx(np.sin(-0.01) + bench.rho / 2.0, abs=1e-8)
        assert value == pytest.approx(-0.0090, abs=2e-4)

    def test_fixed_point_returns_current(self):
        bench = mc.example41(0.1)
        pt = point(bench.spec, z=0.0, p=0.1, u=0.0)  # 0 already optimal
        u_new, value = mc.minimize_H_aug(bench.spec, pt, bench.domain, bench.rho)
        assert u_new[0] == 0.0
        assert value == mc.eval_H_aug(bench.spec, pt, [0.0], bench.rho)

    def test_matches_exhaustive_scan_on_lq(self):
        bench = mc.lq_desk()
        rng = np.random.default_rng(3)
        for _ in range(25):
            pt = point(bench.spec, x=rng.normal(), y=rng.normal(), z=rng.normal(),
                       p=rng.normal(), q=rng.normal(), P=abs(rng.normal()) + 0.5,
                       u=rng.choice([-1.0, 0.0, 1.0]))
            u_new, value = mc.minimize_H_aug(bench.spec, pt, bench.domain, 0.0)
            scan = [mc.eval_H_aug(bench.spec, pt, v, 0.0)
                    for v in mc.enumerate_controls(bench.domain)]
            assert value == min(scan)
            assert u_new[0] == mc.enumerate_controls(bench.domain)[int(np.argmin(scan)), 0]

    def test_descent_guarantee_pointwise(self):
        bench = mc.example41(0.3)
        rng = np.random.default_rng(8)
        B = 500
        x = rng.normal(size=(B, 1))
        y = rng.normal(size=B)
        z = rng.normal(size=(B, 1))
        p = rng.normal(size=(B, 1))
        q = rng.normal(size=(B, 1, 1))
        P = rng.normal(size=(B, 1, 1))
        u_prev = rng.choice([0.0, 1.0], size=(B, 1))
        cands = mc.enumerate_controls(bench.domain)
        u_new, h_new, h_prev, h_aug_new = minimize_step(
            bench.spec, 0.5, x, y, z, p, q, P, u_prev, cands, bench.rho)
        assert np.all(h_new <= h_prev)          # exact, not just in expectation
        assert np.all(h_aug_new <= h_prev)


class TestReductionProperties:
    @settings(max_examples=30, deadline=None)
    @given(z=floats, p=floats, u=st.sampled_from([0.0, 1.0]),
           v=st.sampled_from([0.0, 1.0]), rho=st.floats(0.0, 5.0))
    def test_rho_zero_reduces_to_H(self, z, p, u, v, rho):
        spec = mc.example41(0.6).spec
        pt = point(spec, z=z, p=p, u=u)
        assert mc.eval_H_aug(spec, pt, [v], 0.0) == mc.eval_H(spec, pt, [v])
        assert mc.eval_H_aug(spec, pt, [v], rho) >= mc.eval_H(spec, pt, [v])

    @settings(max_examples=30, deadline=None)
    @given(z=floats, p=floats, q=floats, P=floats, u=st.sampled_from([0.0, 1.0]))
    def test_value_independent_of_enumeration_order(self, z, p, q, P, u):
        spec = mc.example41(0.6).spec
        pt = point(spec, z=z, p=p, q=q, P=P, u=u)
        fwd = mc.minimize_H_aug(spec, pt, mc.FiniteSet([[0.0], [1.0]]), 1.3)[1]
        rev = mc.minimize_H_aug(spec, pt, mc.FiniteSet([[1.0], [0.0]]), 1.3)[1]
        assert fwd == rev

    def test_state_only_driver_kills_yz_penalties(self):
        # driver independent of y and z: the G_y and G_z penalty terms vanish
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: u.copy(),
            diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: x[:, 0] ** 2 + u[:, 0],
            terminal=lambda x: x[:, 0])
        rng = np.random.default_rng(5)
        B = 40
        x = rng.normal(size=(B, 1))
        y = rng.normal(size=B)
        z = rng.normal(size=(B, 1))
        p = rng.normal(size=(B, 1))
        q = rng.normal(size=(B, 1, 1))
        v = np.array([1.0])
        u = np.zeros((B, 1))
        pen = penalty_batch(spec, 0.3, x, y, z, p, q, v, u)
        db = spec.drift(0.3, x, np.broadcast_to(v, (B, 1))) - spec.drift(0.3, x, u)
        df = (spec.driver(0.3, x, y, z, np.broadcast_to(v, (B, 1)))
              - spec.driver(0.3, x, y, z, u))
        dv = spec.derivatives
        gx_v = np.einsum("mij,mi->mj", dv.b_x(0.3, x, np.broadcast_to(v, (B, 1))), p)
        gx_u = np.einsum("mij,mi->mj", dv.b_x(0.3, x, u), p)
        manual = (db ** 2).sum(1) + df ** 2 + ((gx_v - gx_u) ** 2).sum(1)
        assert np.allclose(pen, manual, atol=1e-10)


def loop_reference(spec, t, x, y, z, p, q, P, u_prev, candidates, rho):
    """minimize_step as one public h_batch / penalty_batch call per candidate."""
    h_vals = np.array([h_batch(spec, t, x, y, z, p, q, P, c, u_prev) for c in candidates])
    if rho != 0.0:
        aug_vals = np.array([
            hv + 0.5 * rho * penalty_batch(spec, t, x, y, z, p, q, c, u_prev)
            for hv, c in zip(h_vals, candidates)])
    else:
        aug_vals = h_vals
    best = np.argmin(aug_vals, axis=0)
    rows = np.arange(len(x))
    h_prev = h_batch(spec, t, x, y, z, p, q, P, u_prev, u_prev)
    keep = aug_vals[best, rows] > h_prev
    u_new = candidates[best].copy()
    u_new[keep] = u_prev[keep]
    return (u_new, np.where(keep, h_prev, h_vals[best, rows]), h_prev,
            np.where(keep, h_prev, aug_vals[best, rows]))


def random_step_inputs(spec, candidates, B, seed):
    rng = np.random.default_rng(seed)
    n, d = spec.n, spec.d
    P = rng.normal(size=(B, n, n))
    u_prev = candidates[rng.integers(0, len(candidates), size=B)]
    u_prev[::7] = rng.uniform(-0.5, 0.5, size=u_prev[::7].shape)  # off the enumeration
    return (rng.normal(size=(B, n)), rng.normal(size=B), rng.normal(size=(B, d)),
            rng.normal(size=(B, n)), rng.normal(size=(B, n, d)), P + P.transpose(0, 2, 1),
            u_prev)


class TestHoistedMinimizeStep:
    # Candidates are stacked max(1, 8192 // B) at a time: all 12 at B = 64,
    # 2 per chunk at B = 3000 (6 chunks) and B = 3500 (11 chunks, the last
    # one partial), one at a time without stacking at B = 8193.
    @pytest.mark.parametrize("case", ["curvature-box-rho", "curvature-box-rho0",
                                      "example41-general", "curvature-box-rho-B3000",
                                      "lq-grid21-rho-B3500", "curvature-box-rho-B8193"])
    def test_bitwise_equal_to_per_candidate_loop(self, case, curvature_spec):
        B = int(case.rsplit("-B", 1)[1]) if "-B" in case else 64
        if case.startswith("curvature"):
            spec = curvature_spec
            candidates = mc.enumerate_controls(mc.Box([-1.0, -0.5], [1.0, 0.5], [4, 3]))
            rho = 0.0 if "-rho0" in case else 0.7
        elif case.startswith("lq-grid21"):
            spec, rho = mc.lq_desk().spec, 0.5
            candidates = mc.enumerate_controls(mc.Box([-1.0], [1.0], [21]))
        else:
            bench = mc.example41(0.3)
            spec, rho = bench.spec, bench.rho
            candidates = mc.enumerate_controls(bench.domain)
        x, y, z, p, q, P, u_prev = random_step_inputs(spec, candidates, B, 11)
        got = minimize_step(spec, 0.35, x, y, z, p, q, P, u_prev, candidates, rho)
        want = loop_reference(spec, 0.35, x, y, z, p, q, P, u_prev, candidates, rho)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("hinted", [False, True])
    def test_ties_go_to_the_first_candidate(self, hinted):
        # no coefficient depends on the control, so every candidate ties on every path
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=lambda t, x, u: x.copy(), diffusion=constant_fn(np.ones((1, 1))),
            driver=lambda t, x, y, z, u: x[:, 0] * y, terminal=lambda x: x[:, 0])
        candidates = np.array([[0.5], [-1.0], [2.0]])
        x, y, z, p, q, P, _ = random_step_inputs(spec, candidates, 50, 3)
        hints = dict(h_fn=h_batch, pen_fn=penalty_batch) if hinted else {}
        u_new = minimize_step(spec, 0.1, x, y, z, p, q, P, np.full((50, 1), 2.0),
                              candidates, 0.5, **hints)[0]
        assert np.all(u_new == 0.5)

    def test_heap_does_not_grow_with_stacked_candidates(self):
        # Stacking every candidate into one batch grows the peak with the
        # candidate count through the tiled inputs and every intermediate;
        # chunks of bounded rows leave only the (n_c, B) value arrays:
        # h_vals, pen_vals, the rho-scaled penalty and aug_vals.
        spec, B, rho = mc.lq_desk().spec, 4096, 0.5

        def peak(n_c):
            candidates = mc.enumerate_controls(mc.Box([-1.0], [1.0], [n_c]))
            inputs = random_step_inputs(spec, candidates, B, 5)
            tracemalloc.start()
            try:
                minimize_step(spec, 0.35, *inputs, candidates, rho)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(21)  # warm-up
        growth = peak(41) - peak(21)
        kept = 4 * (41 - 21) * B * 8
        assert growth <= 1.25 * kept


def nan_driver_spec(bad_u):
    """Driver NaN at control value bad_u on the path whose state is 3, else z."""
    return mc.ProblemSpec.build(
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
        drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
        driver=lambda t, x, y, z, u: np.where(
            (u[:, 0] == bad_u) & (x[:, 0] == 3.0), np.nan, z[:, 0]),
        terminal=lambda x: x[:, 0])


class TestNonFiniteHamiltonian:
    def inputs(self, u_prev, B=6):
        x = np.arange(B, dtype=float)[:, None]
        return (x, np.zeros(B), np.ones((B, 1)), np.ones((B, 1)), np.zeros((B, 1, 1)),
                np.zeros((B, 1, 1)), np.full((B, 1), u_prev))

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_candidate_names_path_and_candidate(self, rho):
        spec = nan_driver_spec(bad_u=1.0)
        candidates = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(mc.NumericalError, match=r"on path 3 at candidate 1 \[1\.0\]"):
            minimize_step(spec, 0.2, *self.inputs(0.0), candidates, rho)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_candidate_in_a_later_chunk_names_path_and_candidate(self, rho):
        # at B = 3000 the candidates are stacked two at a time: 4.0 is in the third chunk
        spec = nan_driver_spec(bad_u=4.0)
        candidates = np.arange(5.0)[:, None]
        with pytest.raises(mc.NumericalError, match=r"on path 3 at candidate 4 \[4\.0\]"):
            minimize_step(spec, 0.2, *self.inputs(0.0, B=3000), candidates, rho)

    def test_current_control_names_path(self):
        spec = nan_driver_spec(bad_u=0.5)
        with pytest.raises(mc.NumericalError, match="current control on path 3"):
            minimize_step(spec, 0.2, *self.inputs(0.5), np.array([[0.0], [1.0]]), 0.0)
