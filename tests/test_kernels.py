"""The per-node kernels against plain einsum and power references.

Each kernel contracts over flattened axes or with batched BLAS products; the
references below spell out the documented formula over the original tensor
indices. Errors are measured against the same reference evaluated on the
absolute values of the operands, the sum of the magnitudes of the terms,
so cancellation in a random draw cannot make a correct kernel fail.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import msacontrol as mc
from msacontrol.adjoint import psi_matrix
from msacontrol.bsde import _design_matrix, _monomial_exponents
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
        exponents = _monomial_exponents(n + k, degree)
        got = _design_matrix(features, exponents)
        ref = np.stack([np.prod([features[:, i] ** e for i, e in enumerate(exp)], axis=0)
                        for exp in exponents], axis=1)
        assert_close(got, ref, np.abs(ref))
        if degree <= 2:
            assert np.array_equal(got, ref)

    def test_monomial_exponents_are_cached_tuples(self):
        exps = _monomial_exponents(3, 2)
        assert isinstance(exps, tuple) and exps is _monomial_exponents(3, 2)
        assert exps[:4] == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(exps) == 10
