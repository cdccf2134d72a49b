"""The per-node kernels against plain einsum and power references.

Each kernel contracts over flattened axes or with batched BLAS products; the
references below spell out the documented formula over the original tensor
indices. Errors are measured against the same reference evaluated on the
absolute values of the operands, the sum of the magnitudes of the terms,
so cancellation in a random draw cannot make a correct kernel fail.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msacontrol as mc
from msacontrol.adjoint import psi_matrix, second_order_step
from msacontrol.bsde import _design_matrix, _monomial_plan
from msacontrol.hamiltonian import _g_derivatives

REL = 1e-13

shapes = dict(B=st.integers(1, 64), n=st.integers(1, 4), d=st.integers(1, 3),
              seed=st.integers(0, 2 ** 32 - 1))


def assert_close(got, ref, scale):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= REL * scale)


def g_operands(B, n, d, seed):
    rng = np.random.default_rng(seed)
    return dict(b_x=rng.normal(size=(B, n, n)), f_x=rng.normal(size=(B, n)),
                f_y=rng.normal(size=B), f_z=rng.normal(size=(B, d)),
                p=rng.normal(size=(B, n)), q=rng.normal(size=(B, n, d)),
                sx_v=rng.normal(size=(B, d, n, n)), sx_u=rng.normal(size=(B, d, n, n)))


def g_x_reference(o, sign=-1.0):
    """sum_i b_x^{ij} p^i + sum_{i,a} sx_v^{ia} (q^{ai} + fz_i p^a) - sx_u^{ia} fz_i p^a + f_x,
    the sx_u term added with ``sign``."""
    coef = o["q"] + o["p"][:, :, None] * o["f_z"][:, None, :]       # (B, n, d)
    return (np.einsum("mij,mi->mj", o["b_x"], o["p"])
            + np.einsum("miab,mai->mb", o["sx_v"], coef)
            + sign * np.einsum("mi,ma,miab->mb", o["f_z"], o["p"], o["sx_u"])
            + o["f_x"])


def g_x_kernel(o):
    gx, gy, gz = _g_derivatives(o.__getitem__, o["p"], o["q"], o["sx_v"], o["sx_u"])
    assert gy is o["f_y"] and gz is o["f_z"]
    return gx


def psi_operands(B, n, d, seed, structure=mc.Structure()):
    rng = np.random.default_rng(seed)
    m = n + 1 + d
    hess = rng.normal(size=(B, m, m))
    bxx, sxx = rng.normal(size=(B, n, n, n)), rng.normal(size=(B, d, n, n, n))
    dv = SimpleNamespace(f_hess=lambda t, x, y, z, u: hess, b_xx=lambda t, x, u: bxx,
                         sigma_xx=lambda t, x, u: sxx)
    point = SimpleNamespace(dv=dv, structure=structure, t=0.3, x=None, y=None, z=None,
                            u=None, sigma_x=rng.normal(size=(B, d, n, n)),
                            f_z=rng.normal(size=(B, d)))
    return point, rng.normal(size=(B, n)), rng.normal(size=(B, n, d)), (hess, bxx, sxx)


def psi_expression(point, p, q):
    """psi_matrix as one expression per term, with every temporary it makes."""
    dv, t, x, u = point.dv, point.t, point.x, point.u
    M, n = p.shape
    hess = dv.f_hess(t, x, point.y, point.z, u)
    eye = np.broadcast_to(np.eye(n), (M, n, n))
    ups = np.einsum("miab,ma->mbi", point.sigma_x, p) + q
    mmat = np.concatenate([eye, p[:, :, None], ups], axis=2)
    psi = mmat @ hess @ mmat.transpose(0, 2, 1)
    if not point.structure.b_xx_zero:
        bxx = dv.b_xx(t, x, u)
        psi += np.einsum("mj,mjr->mr", p, bxx.reshape(M, n, n * n)).reshape(M, n, n)
    if not point.structure.sigma_xx_zero:
        sxx = dv.sigma_xx(t, x, u)
        coef = point.f_z[:, :, None] * p[:, None, :] + q.transpose(0, 2, 1)
        dn = coef.shape[1] * n
        psi += np.einsum("mr,mrs->ms", coef.reshape(M, dn),
                         sxx.reshape(M, dn, n * n)).reshape(M, n, n)
    return psi


def second_order_expression(point, phat, Qj, p, q, dt):
    """second_order_step as one expression per noise term, with every temporary it makes."""
    sx, fz = point.sigma_x, point.f_z
    s = point.b_x.transpose(0, 2, 1) @ phat
    drift = point.f_y[:, None, None] * phat + s + s.transpose(0, 2, 1)
    for i in range(sx.shape[1]):
        fzi = fz[:, i, None, None]
        sxt = sx[:, i].transpose(0, 2, 1)
        ti = sxt @ phat
        ri = sxt @ Qj[..., i]
        drift += (fzi * (ti + ti.transpose(0, 2, 1)) + ti @ sx[:, i]
                  + fzi * Qj[..., i] + ri + ri.transpose(0, 2, 1))
    drift += psi_expression(point, p, q)
    P = phat + drift * dt
    Pt = P.transpose(0, 2, 1)
    return 0.5 * (P + Pt), float(np.max(np.abs(P - Pt)))


def projection_slices(rng, B, n, d):
    """Non-symmetric (B, n, n) phat and (B, n, n, d) Q cut out of one (B, R (1 + d))
    fitted matrix, as the sweep's projection lays them out: strided views."""
    R = 1 + n + n * n  # Y, p and vec P
    proj = rng.normal(size=(B, R * (1 + d)))
    col = 1 + n
    phat = proj[:, col:col + n * n].reshape(B, n, n)
    Q = proj[:, R + col * d:R + (col + n * n) * d].reshape(B, n, n, d)
    assert not (phat.flags.c_contiguous or Q.flags.c_contiguous)
    return phat, Q


def psi_reference(sx, fz, p, q, hess, bxx, sxx):
    """(I, p, Ups) D2f (I, p, Ups)' + sum_j b_xx^j p^j + sum_{ij} sxx^{ij} (fz_i p^j + q^{ji})."""
    B, n = p.shape
    ups = np.einsum("miab,ma->mbi", sx, p) + q
    mmat = np.concatenate([np.broadcast_to(np.eye(n), (B, n, n)), p[:, :, None], ups], axis=2)
    return (np.einsum("mia,mab,mjb->mij", mmat, hess, mmat)
            + np.einsum("mjab,mj->mab", bxx, p)
            + np.einsum("mijab,mij->mab", sxx, fz[:, :, None] * p[:, None, :]
                        + q.transpose(0, 2, 1)))


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    def test_g_derivatives(self, B, n, d, seed):
        o = g_operands(B, n, d, seed)
        got, ref = g_x_kernel(o), g_x_reference(o)
        scale = g_x_reference({k: np.abs(v) for k, v in o.items()}, sign=1.0)
        assert_close(got, ref, scale)
        if n == d == 1:
            assert np.array_equal(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(**shapes)
    def test_psi_matrix(self, B, n, d, seed):
        # Not bitwise at n = d = 1: the (1, 3) x (3, 3) BLAS products fuse
        # multiply and add, which no elementwise reference reproduces.
        point, p, q, (hess, bxx, sxx) = psi_operands(B, n, d, seed)
        got = psi_matrix(point, p, q)
        ref = psi_reference(point.sigma_x, point.f_z, p, q, hess, bxx, sxx)
        scale = psi_reference(*map(np.abs, (point.sigma_x, point.f_z, p, q, hess, bxx, sxx)))
        assert_close(got, ref, scale)

    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 64), n=st.integers(1, 4), k=st.integers(1, 2),
           degree=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_design_matrix(self, B, n, k, degree, seed):
        # the regression features are the state and the control, n + k columns
        features = np.random.default_rng(seed).normal(size=(B, n + k))
        # each column's exponents, by degree, in combinations_with_replacement order
        exponents = [np.bincount(combo, minlength=n + k)
                     for deg in range(degree + 1)
                     for combo in itertools.combinations_with_replacement(range(n + k), deg)]
        got = _design_matrix(features, _monomial_plan(n + k, degree))
        ref = np.stack([np.prod([features[:, i] ** e for i, e in enumerate(exp)], axis=0)
                        for exp in exponents], axis=1)
        assert_close(got, ref, np.abs(ref))
        if degree <= 2:
            assert np.array_equal(got, ref)

    def test_monomial_plan_is_a_cached_tuple(self):
        plan = _monomial_plan(3, 2)
        assert isinstance(plan, tuple) and plan is _monomial_plan(3, 2)
        # 1, x0, x1, x2, then x0 x0, x0 x1, x0 x2, x1 x1, x1 x2, x2 x2
        assert plan == (None, (0, 0), (0, 1), (0, 2),
                        (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2))


class TestKernelBits:
    """The in-place kernels round as the one-expression forms above: every sum
    is taken in the same order, so the results are equal to the bit."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("zero", [False, True])
    @settings(max_examples=8, deadline=None)
    @given(B=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1))
    def test_second_order_step_and_psi(self, n, d, zero, B, seed):
        structure = mc.Structure(b_xx_zero=zero, sigma_xx_zero=zero)
        point, p, q, _ = psi_operands(B, n, d, seed, structure)
        rng = np.random.default_rng(seed + 1)
        point.b_x, point.f_y = rng.normal(size=(B, n, n)), rng.normal(size=B)
        phat, Q = projection_slices(rng, B, n, d)
        assert np.array_equal(psi_matrix(point, p, q), psi_expression(point, p, q))
        got, asym = second_order_step(point, phat, Q, p, q, 0.05)
        ref, ref_asym = second_order_expression(point, phat, Q, p, q, 0.05)
        assert got.flags.c_contiguous and np.array_equal(got, ref)
        assert asym == ref_asym and (asym > 0.0) == (n > 1)
