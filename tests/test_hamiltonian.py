import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import msacontrol as mc
from msacontrol.hamiltonian import _gap, h_batch, minimize_step, penalty_batch
from msacontrol.model import constant_fn

floats = st.floats(-2.0, 2.0)


def point(spec, t=0.2, x=0.0, y=0.0, z=0.0, p=0.0, q=0.0, P=0.0, u=0.0):
    """(t, x, y, z, p, q, P, u) at one (t, omega): each array a one-row batch."""
    n, d, k = spec.n, spec.d, spec.k
    return (t, np.full((1, n), x), np.full(1, y), np.full((1, d), z), np.full((1, n), p),
            np.full((1, n, d), q), np.full((1, n, n), P), np.full((1, k), u))


def sigma_state_spec():
    """n = d = k = 1 with sigma = v x, used for the delta examples."""
    return mc.ProblemSpec.build(
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
        drift=constant_fn(np.zeros(1)),
        diffusion=lambda t, x, u: (u * x)[:, :, None],
        driver=lambda t, x, y, z, u: np.zeros(len(x)),
        terminal=lambda x: np.zeros(len(x)))


class TestDelta:
    # delta_i = (sigma^i(v) - sigma^i(u))' p, the second output of _gap
    def test_coincident_controls_vanish(self):
        spec = sigma_state_spec()
        t, x, _, _, p, _, _, u = point(spec, t=0.1, x=1.3, p=0.7, u=0.4)
        s_u = spec.diffusion(t, x, u)
        assert np.all(_gap(p, s_u, s_u)[1] == 0.0)

    def test_example41_linear_in_control_gap(self):
        spec = mc.example41(1.0).spec
        t, x, _, _, p, _, _, u = point(spec, t=0.0, p=1.0)
        _, delta = _gap(p, spec.diffusion(t, x, np.ones((1, 1))), spec.diffusion(t, x, u))
        assert delta[0, 0] == pytest.approx(1.0)

    def test_state_dependent_diffusion(self):
        spec = sigma_state_spec()
        t, x, _, _, p, _, _, u = point(spec, t=0.0, x=3.0, p=2.0)
        _, delta = _gap(p, spec.diffusion(t, x, np.ones((1, 1))), spec.diffusion(t, x, u))
        assert delta[0, 0] == pytest.approx(6.0)


class TestG:
    # G is H at P = 0, where the curvature term adds an exact 0
    def test_example41_closed_form(self):
        L = 0.3
        spec = mc.example41(L).spec
        for z in (-0.5, 0.0, 1.2):
            for v, u in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
                t, x, y, z_, p, q, P, u_ = point(spec, t=0.4, z=z, p=L, u=u)
                got = h_batch(spec, t, x, y, z_, p, q, P, [v], u_)[0]
                assert got == pytest.approx(np.sin(L * z + L * L * (v - u)), abs=1e-14)

    def test_all_zero_spec(self):
        spec = mc.ProblemSpec.build(
            n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
            drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.zeros((1, 1))),
            driver=lambda t, x, y, z, u: np.zeros(len(x)),
            terminal=lambda x: np.zeros(len(x)))
        t, x, y, z, p, q, P, u = point(spec, t=0.0, x=1.0, y=1.0, z=1.0, p=1.0, q=1.0)
        assert h_batch(spec, t, x, y, z, p, q, P, [1.0], u)[0] == 0.0

    def test_linear_recursive_closed_form(self):
        bench = mc.linear_recursive_problem(
            b1=[[0.0]], b2=[[1.0]], b3=[0.0], sigma1=np.zeros((1, 1, 1)),
            sigma2=np.zeros((1, 1, 1)), sigma3=np.zeros((1, 1)),
            f1=[0.0], f2=0.0, f3=lambda t, u: u[:, 0] ** 2,
            alpha=[0.0], gamma=0.0, domain=mc.Box([-2.0], [2.0], [5]),
            x0=np.zeros(1), horizon=1.0)
        # G = p(b1 x + b2 v + b3) + f1 x + f2 y + f3(v) = 1*2 + 4 = 6
        t, x, y, z, p, q, P, u = point(bench.spec, t=0.0, p=1.0)
        got = h_batch(bench.spec, t, x, y, z, p, q, P, [2.0], u)[0]
        assert got == pytest.approx(6.0)


class TestH:
    def test_zero_curvature_reduces_to_G(self):
        # G read off the spec's own coefficients: p'b(v) + q's(v) + f(z + delta)
        spec = mc.example41(0.5).spec
        t, x, y, z, p, q, P, u = point(spec, z=0.7, p=0.5, u=1.0)
        for v in (0.0, 1.0):
            v_ = np.array([[v]])
            s = spec.diffusion(t, x, v_)
            _, dz = _gap(p, s, spec.diffusion(t, x, u))
            g = ((p * spec.drift(t, x, v_)).sum(1) + (q * s).sum((1, 2))
                 + spec.driver(t, x, y, z + dz, v_))
            assert h_batch(spec, t, x, y, z, p, q, P, [v], u)[0] == g[0]

    def test_curvature_term_scalar(self):
        # sigma = v: H - G = 0.5 * P * (v - u)^2 = 0.5 * 2 * 4 = 4
        spec = mc.example41(1.0).spec
        t, x, y, z, p, q, P, u = point(spec, P=2.0, u=1.0)
        h = h_batch(spec, t, x, y, z, p, q, P, [3.0], u)[0]
        g = h_batch(spec, t, x, y, z, p, q, np.zeros_like(P), [3.0], u)[0]
        assert h - g == pytest.approx(4.0)

    def test_lq_closed_form(self):
        bench = mc.lq_desk()
        t, x, y, z, p, q, P, u = point(bench.spec, x=0.6, p=0.9, q=0.4, P=1.3, u=-1.0)
        v = 1.0
        expected = (0.4 * v + 0.5 * (0.6 ** 2 + v ** 2)
                    + 0.5 * 1.3 * (v - (-1.0)) ** 2)
        assert h_batch(bench.spec, t, x, y, z, p, q, P, [v], u)[0] == pytest.approx(
            expected, abs=1e-12)


class TestAugmentedH:
    # the augmented value minimize_step ranks is h_batch + rho / 2 * penalty_batch
    def test_candidate_equals_current_reduces_to_H(self):
        spec = mc.example41(0.4).spec
        t, x, y, z, p, q, P, u = point(spec, z=0.3, p=0.4, u=1.0)
        assert penalty_batch(spec, t, x, y, z, p, q, [1.0], u)[0] == 0.0

    def test_example41_override_matches_paper_form(self):
        bench = mc.example41(0.1)
        spec, rho = bench.spec, bench.rho
        t, x, y, z, p, q, P, u = point(spec, z=0.2, p=0.1, u=1.0)
        # general augmented Hamiltonian at (p = L, q = 0, P = 0) differs from
        # the problem's simplified form only through the z-derivative penalty,
        # negligible at this scale
        general = (h_batch(spec, t, x, y, z, p, q, P, [0.0], u)[0]
                   + rho / 2.0 * penalty_batch(spec, t, x, y, z, p, q, [0.0], u)[0])
        simplified = np.sin(0.1 * 0.2 + 0.01 * (0.0 - 1.0)) + rho / 2.0
        assert general == pytest.approx(simplified, abs=1e-8)
        # and the attached override, handed stacked (rows, k) candidates, reproduces it
        v = np.zeros((1, 1))
        hv = bench.hints.hamiltonian(spec, t, x, y, z, p, q, P, v, u)
        pen = bench.hints.penalty(spec, t, x, y, z, p, q, v, u)
        assert hv[0] + rho / 2.0 * pen[0] == pytest.approx(simplified, abs=1e-15)

    def test_penalty_scales_linearly_in_rho(self):
        bench = mc.example41(0.8)
        spec, cands = bench.spec, mc.enumerate_controls(bench.domain)
        t, x, y, z, p, q, P, u = point(spec, z=-0.4, p=0.8, u=0.0)
        h = h_batch(spec, t, x, y, z, p, q, P, [1.0], u)[0]
        pen = penalty_batch(spec, t, x, y, z, p, q, [1.0], u)[0]
        rho = 0.37
        single = h + 0.5 * rho * pen - h
        double = h + 0.5 * (2 * rho) * pen - h
        assert double == pytest.approx(2 * single, rel=1e-12)
        # and minimize_step ranks the candidates by exactly that value, at either weight
        for weight in (rho, 2 * rho, 40.0):
            aug = [h_batch(spec, t, x, y, z, p, q, P, c, u)[0]
                   + 0.5 * weight * penalty_batch(spec, t, x, y, z, p, q, c, u)[0]
                   for c in cands]
            choice = minimize_step(spec, t, x, y, z, p, q, P, u, cands, weight)[3]
            assert choice[0] == int(np.argmin(aug))


class TestMinimizeStepAtOnePoint:
    def test_example41_worked_update(self):
        bench = mc.example41(0.1)
        spec, rho = bench.spec, bench.rho
        t, x, y, z, p, q, P, u = point(spec, z=0.0, p=0.1, u=1.0)
        u_new, h_new, _, choice = minimize_step(spec, t, x, y, z, p, q, P, u,
                                                mc.enumerate_controls(bench.domain), rho)
        assert u_new[0, 0] == 0.0 and choice[0] == 0
        value = h_new[0] + rho / 2.0 * penalty_batch(spec, t, x, y, z, p, q, u_new[0], u)[0]
        assert value == pytest.approx(np.sin(-0.01) + rho / 2.0, abs=1e-8)
        assert value == pytest.approx(-0.0090, abs=2e-4)

    def test_fixed_point_returns_current(self):
        bench = mc.example41(0.1)
        t, x, y, z, p, q, P, u = point(bench.spec, z=0.0, p=0.1, u=0.0)  # 0 already optimal
        u_new, h_new, h_prev, choice = minimize_step(
            bench.spec, t, x, y, z, p, q, P, u, mc.enumerate_controls(bench.domain),
            bench.rho)
        assert u_new[0, 0] == 0.0 and choice[0] == 0
        assert h_new[0] == h_prev[0]  # u's penalty vanishes: its augmented value is H

    def test_driver_runs_once_at_the_current_control(self):
        # H(u) is G(u), and the penalty's driver term at u reads that same value:
        # one call at u, then one for H and one for the penalty per candidate chunk
        bench, seen = mc.example41(0.5), []

        def driver(t, x, y, z, u):
            seen.append(np.array(u))
            return bench.spec.driver(t, x, y, z, u)

        spec = dataclasses.replace(bench.spec, driver=driver)
        t, x, y, z, p, q, P, u = point(spec, z=0.3, p=0.5, u=0.25)  # no candidate is u
        minimize_step(spec, t, x, y, z, p, q, P, u, mc.enumerate_controls(bench.domain),
                      bench.rho)
        assert sum(np.array_equal(v, u) for v in seen) == 1 and len(seen) == 3

    def test_matches_exhaustive_scan_on_lq(self):
        bench = mc.lq_desk()
        cands = mc.enumerate_controls(bench.domain)
        rng = np.random.default_rng(3)
        for _ in range(25):
            t, x, y, z, p, q, P, u = point(
                bench.spec, x=rng.normal(), y=rng.normal(), z=rng.normal(), p=rng.normal(),
                q=rng.normal(), P=abs(rng.normal()) + 0.5, u=rng.choice([-1.0, 0.0, 1.0]))
            u_new, h_new, _, _ = minimize_step(bench.spec, t, x, y, z, p, q, P, u, cands, 0.0)
            scan = [h_batch(bench.spec, t, x, y, z, p, q, P, v, u)[0] for v in cands]
            assert h_new[0] == min(scan)
            assert u_new[0, 0] == cands[int(np.argmin(scan)), 0]

    def test_descent_guarantee_pointwise(self):
        bench = mc.example41(0.3)
        spec, rho = bench.spec, bench.rho
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
        u_new, h_new, h_prev, _ = minimize_step(
            spec, 0.5, x, y, z, p, q, P, u_prev, cands, rho)
        assert np.all(h_new <= h_prev)          # exact, not just in expectation
        aug_new = h_new + 0.5 * rho * penalty_batch(spec, 0.5, x, y, z, p, q, u_new, u_prev)
        assert np.all(aug_new <= h_prev)


class TestReductionProperties:
    @settings(max_examples=30, deadline=None)
    @given(z=floats, p=floats, u=st.sampled_from([0.0, 1.0]),
           v=st.sampled_from([0.0, 1.0]), rho=st.floats(0.0, 5.0))
    def test_rho_zero_reduces_to_H(self, z, p, u, v, rho):
        spec = mc.example41(0.6).spec
        cands = np.array([[0.0], [1.0]])
        t, x, y, z, p, q, P, u = point(spec, z=z, p=p, u=u)
        h = h_batch(spec, t, x, y, z, p, q, P, [v], u)[0]
        assert h + 0.5 * rho * penalty_batch(spec, t, x, y, z, p, q, [v], u)[0] >= h
        # at rho = 0 the update ranks the candidates by H alone
        h_new = minimize_step(spec, t, x, y, z, p, q, P, u, cands, 0.0)[1]
        assert h_new[0] == min(h_batch(spec, t, x, y, z, p, q, P, c, u)[0] for c in cands)

    @settings(max_examples=30, deadline=None)
    @given(z=floats, p=floats, q=floats, P=floats, u=st.sampled_from([0.0, 1.0]))
    def test_value_independent_of_enumeration_order(self, z, p, q, P, u):
        spec, rho = mc.example41(0.6).spec, 1.3
        t, x, y, z, p, q, P, u = point(spec, z=z, p=p, q=q, P=P, u=u)

        def aug(v):
            return (h_batch(spec, t, x, y, z, p, q, P, v, u)[0]
                    + 0.5 * rho * penalty_batch(spec, t, x, y, z, p, q, v, u)[0])

        fwd, rev = (minimize_step(spec, t, x, y, z, p, q, P, u, np.array(c), rho)[0][0]
                    for c in ([[0.0], [1.0]], [[1.0], [0.0]]))
        assert aug(fwd) == aug(rev) == min(aug([0.0]), aug([1.0]))

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
            np.where(keep, -1, best))


def random_step_inputs(spec, candidates, B, seed):
    rng = np.random.default_rng(seed)
    n, d = spec.n, spec.d
    P = rng.normal(size=(B, n, n))
    u_prev = candidates[rng.integers(0, len(candidates), size=B)]
    u_prev[::7] = rng.uniform(-0.5, 0.5, size=u_prev[::7].shape)  # off the enumeration
    return (rng.normal(size=(B, n)), rng.normal(size=B), rng.normal(size=(B, d)),
            rng.normal(size=(B, n)), rng.normal(size=(B, n, d)), P + P.transpose(0, 2, 1),
            u_prev)


# the candidates of the curv-n4 benchmark workload, for n = 4, d = 2, k = 2
CURV_CONTROLS = np.array([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])


class TestHoistedMinimizeStep:
    # Candidates are stacked max(1, 458 752 // (B * row_bytes)) at a time. A node
    # row is 696 bytes for the curvature spec at rho > 0, 344 at rho = 0, and
    # 104 for n = d = k = 1 at rho > 0: all 12 at B = 48, 2 per chunk at
    # B = 300 (6 chunks) and for lq-grid21 at B = 2000 (11 chunks, the last one
    # partial), one at a time without stacking at B = 330.
    @pytest.mark.parametrize("case", ["curvature-box-rho", "curvature-box-rho0",
                                      "example41-general", "curvature-box-rho-B300",
                                      "lq-grid21-rho-B2000", "curvature-box-rho-B330"])
    def test_bitwise_equal_to_per_candidate_loop(self, case, curvature_spec):
        B = int(case.rsplit("-B", 1)[1]) if "-B" in case else 48
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

    def test_heap_does_not_grow_with_stacked_candidates(self, hints=None):
        # Stacking every candidate into one batch grows the peak with the
        # candidate count through the tiled inputs and every intermediate;
        # chunks of bounded rows, each folded into the running selection as
        # soon as it is evaluated, leave no (n_c, B) array at all. At B = 2048
        # the 104-byte rows of the general pair stack 2 candidates per call, the
        # 56-byte rows of the hints 4. The bound is one (B,) float array; a
        # value table of 20 more candidates at rho > 0 would add 2 * 20 * B floats.
        spec, B, rho = mc.lq_desk().spec, 2048, 0.5
        hints = hints or {}

        def peak(n_c):
            candidates = mc.enumerate_controls(mc.Box([-1.0], [1.0], [n_c]))
            inputs = random_step_inputs(spec, candidates, B, 5)
            tracemalloc.start()
            try:
                minimize_step(spec, 0.35, *inputs, candidates, rho, **hints)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(21)  # warm-up
        base = peak(21)
        assert peak(41) - base <= 8 * B
        assert peak(201) - base <= 8 * B

    def test_heap_does_not_grow_with_stacked_hinted_candidates(self):
        # hints are evaluated on the same stacked chunks as the general pair
        self.test_heap_does_not_grow_with_stacked_candidates(
            dict(h_fn=h_batch, pen_fn=penalty_batch))

    @pytest.mark.parametrize("case, B, want", [
        # curv-n4's rho > 0 node is 696 bytes a row: no stacking at 400 paths
        ("curvature-rho", 400, [400] * 4),
        # lq-grid21's 56-byte rows at rho = 0 stack 2 of its 21 candidates a call
        ("lq-grid21-rho0", 4096, [4096] + [8192] * 10 + [4096]),
        # 12 candidates of the 696-byte node fit one call at 16 paths
        ("curvature-rho-12", 16, [16, 192])])
    def test_stacking_follows_the_node_bytes(self, case, B, want, curvature_spec):
        # row counts of the drift calls: once at u_prev, then once per call
        if case.startswith("curvature"):
            spec, rho = curvature_spec, 0.7
            candidates = (mc.enumerate_controls(mc.Box([-1.0, -0.5], [1.0, 0.5], [4, 3]))
                          if case.endswith("-12") else CURV_CONTROLS)
        else:
            spec, rho = mc.lq_desk().spec, 0.0
            candidates = mc.enumerate_controls(mc.Box([-1.0], [1.0], [21]))
        rows = []

        def drift(t, x, u):
            rows.append(len(x))
            return spec.drift(t, x, u)

        spy = dataclasses.replace(spec, drift=drift)
        minimize_step(spy, 0.35, *random_step_inputs(spec, candidates, B, 5), candidates, rho)
        assert rows == want

    def test_heap_does_not_grow_with_a_wide_node(self, curvature_spec):
        # a 696-byte node row tiled once per stacked candidate (three at B = 400,
        # 0.84 MB) and every wide intermediate with it would set the peak; one
        # candidate per call adds only the running selection's (B,) arrays
        spec, B, rho, candidates = curvature_spec, 400, 0.7, CURV_CONTROLS

        def peak(n_c):
            inputs = random_step_inputs(spec, candidates, B, 5)
            tracemalloc.start()
            try:
                minimize_step(spec, 0.35, *inputs, candidates[:n_c], rho)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # warm-up
        assert peak(3) - peak(1) <= 3 * 8 * B

    @pytest.mark.parametrize("lone", ["h_fn", "pen_fn"])
    def test_a_lone_hint_is_refused(self, lone):
        # the hints replace the general pair together: a lone one is not paired
        # with the general other half
        spec = mc.lq_desk().spec
        candidates = mc.enumerate_controls(mc.Box([-1.0], [1.0], [3]))
        hint = {"h_fn": h_batch, "pen_fn": penalty_batch}[lone]
        with pytest.raises(mc.ConfigurationError, match="both or neither"):
            minimize_step(spec, 0.35, *random_step_inputs(spec, candidates, 8, 5),
                          candidates, 0.5, **{lone: hint})

    @pytest.mark.parametrize("hinted", [False, True])
    def test_a_current_control_of_the_wrong_shape_is_refused(self, hinted):
        # a (k,) u_prev passed the general branch until a sample kept its
        # control, where u_new[keep] = u_prev[keep] raised IndexError
        spec, B = mc.lq_desk().spec, 4
        zeros = (np.zeros((B, 1)), np.zeros(B), np.zeros((B, 1)), np.zeros((B, 1)),
                 np.zeros((B, 1, 1)), np.zeros((B, 1, 1)))
        hints = dict(h_fn=h_batch, pen_fn=penalty_batch) if hinted else {}
        with pytest.raises(mc.ConfigurationError,
                           match=r"^u_prev must have shape \(4, 1\), got \(1,\)$"):
            minimize_step(spec, 0.3, *zeros, [0.0], np.array([[-1.0], [1.0]]), 0.0, **hints)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# few distinct values, so exact ties (and +0.0 against -0.0) are frequent
tie_prone = st.sampled_from([-1.5, -0.25, -0.0, 0.0, 0.25, 1.0, 3.0])


class TestSelection:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_c=st.sampled_from([1, 2, 3, 21]), B=st.integers(1, 30),
           rho=st.sampled_from([0.0, 0.75]))
    def test_matches_argmin_and_gather(self, data, n_c, B, rho):
        # hinted h_fn and pen_fn hand minimize_step drawn (n_c, B) values, row-wise
        # over the stacked candidates, so only the selection runs: it must
        # reproduce np.argmin plus gathers
        h = data.draw(hnp.arrays(float, (n_c, B), elements=tie_prone))
        pen = np.abs(data.draw(hnp.arrays(float, (n_c, B), elements=tie_prone)))
        candidates = np.arange(n_c, dtype=float)[:, None]
        on = np.array(data.draw(st.lists(st.integers(-1, n_c - 1), min_size=B, max_size=B)))
        rows = np.arange(B)
        # u_prev is candidate `on` (its penalty vanishes there, and h_prev is its H)
        # or -1, off the enumeration, with a drawn h_prev that may beat every candidate
        u_prev = np.where(on >= 0, on, -1.0).astype(float)[:, None]
        pen[on[on >= 0], rows[on >= 0]] = 0.0
        h_prev = data.draw(hnp.arrays(float, B, elements=tie_prone))
        h_prev[on >= 0] = h[on[on >= 0], rows[on >= 0]]

        def drawn(table, x, v):
            # row r of a stacked call is path r % B under candidate v[r] (a (k,) v: every row)
            rows = np.arange(len(x))
            return table[np.broadcast_to(v, (len(x), 1))[:, 0].astype(int), rows % B]

        def h_fn(spec, t, x, y, z, p, q, P, v, u):
            return h_prev.copy() if v is u else drawn(h, x, v)

        def pen_fn(spec, t, x, y, z, p, q, v, u):
            return drawn(pen, x, v)

        zeros = (np.zeros((B, 1)), np.zeros(B), np.zeros((B, 1)), np.zeros((B, 1)),
                 np.zeros((B, 1, 1)), np.zeros((B, 1, 1)))
        got = minimize_step(mc.lq_desk().spec, 0.3, *zeros, u_prev, candidates, rho,
                            h_fn=h_fn, pen_fn=pen_fn)

        aug = h + 0.5 * rho * pen if rho != 0.0 else h
        best = np.argmin(aug, axis=0)
        keep = aug[best, rows] > h_prev
        u_new = candidates[best].copy()
        u_new[keep] = u_prev[keep]
        want = (u_new, np.where(keep, h_prev, h[best, rows]), h_prev,
                np.where(keep, -1, best))
        assert all(same_bits(g, w) for g, w in zip(got, want))
        for i, a in enumerate(got):
            assert not np.shares_memory(a, candidates)
            assert not any(np.shares_memory(a, b) for b in got[i + 1:])


def nan_driver_spec(bad_u, bad_x=3.0):
    """Driver NaN where the control is bad_u and the state the paired bad_x
    (each a value or a list), else z. Path i has state i in the tests below."""
    bad_u, bad_x = np.atleast_1d(bad_u), np.atleast_1d(bad_x)
    return mc.ProblemSpec.build(
        n=1, d=1, k=1, x0=np.zeros(1), horizon=1.0,
        drift=constant_fn(np.zeros(1)), diffusion=constant_fn(np.ones((1, 1))),
        driver=lambda t, x, y, z, u: np.where(
            ((u[:, :1] == bad_u) & (x[:, :1] == bad_x)).any(axis=1), np.nan, z[:, 0]),
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
        # the candidates are stacked two at a time, 56-byte rows at B = 3000 and
        # 104-byte rows (rho > 0) at B = 1500: 4.0 is in the third chunk
        spec = nan_driver_spec(bad_u=4.0)
        candidates = np.arange(5.0)[:, None]
        B = 3000 if rho == 0.0 else 1500
        with pytest.raises(mc.NumericalError, match=r"on path 3 at candidate 4 \[4\.0\]"):
            minimize_step(spec, 0.2, *self.inputs(0.0, B=B), candidates, rho)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("hinted", [False, True])
    def test_lower_path_in_a_later_chunk_is_named(self, rho, hinted):
        # the chunks are {0, 1}, {2, 3} and {4}, 56-byte rows at B = 3000 and the
        # general pair's 104-byte rows (rho > 0) at B = 1500: path 5 is bad at
        # candidate 1 in the first chunk, the lower path 3 at candidates 3 and
        # 4 in the later ones; the report waits for every candidate, so it
        # names path 3 and its first bad candidate
        spec = nan_driver_spec(bad_u=[1.0, 3.0, 4.0], bad_x=[5.0, 3.0, 3.0])
        candidates = np.arange(5.0)[:, None]
        hints = dict(h_fn=h_batch, pen_fn=penalty_batch) if hinted else {}
        B = 1500 if rho != 0.0 and not hinted else 3000
        with pytest.raises(mc.NumericalError,
                           match=r"Hamiltonian nan on path 3 at candidate 3 \[3\.0\]") as err:
            minimize_step(spec, 0.2, *self.inputs(0.0, B=B), candidates, rho, **hints)
        assert err.value.path == 3

    def test_current_control_names_path(self):
        spec = nan_driver_spec(bad_u=0.5)
        with pytest.raises(mc.NumericalError, match="current control on path 3"):
            minimize_step(spec, 0.2, *self.inputs(0.5), np.array([[0.0], [1.0]]), 0.0)
