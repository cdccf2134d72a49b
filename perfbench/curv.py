"""The curv-n4 problem: n=4, d=2, k=2 with curvature everywhere it counts.

    b(x, u)       = B1 x + B2 u
    sigma^i(x, u) = S1_i x + S2_i u + c_i            (column i of sigma)
    f(x, y, z, u) = x'A x / 2 + |u|^2 / 2 + cf * sum_i sin z_i
    Phi(x)        = x'G x / 2

Terminal and driver curvature make the second-order adjoint non-trivial, the
state-dependent diffusion makes sigma_x non-zero, and f_z = cf cos z gives
non-trivial Girsanov weights. Every derivative is closed-form, so no run can
time the finite-difference fallback by accident. The matrices are fixed
constants of the problem; the workload seed only drives the noise and the
initial control.
"""

from __future__ import annotations

import numpy as np

N_STATE, N_NOISE, N_CONTROL = 4, 2, 2
CF = 0.5
CONTROLS = np.array([[0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])
RHO = 0.5


def _coefficients():
    n, d, k = N_STATE, N_NOISE, N_CONTROL
    gen = np.random.Generator(np.random.Philox(key=4))
    b1 = -0.2 * np.eye(n) + 0.05 * gen.standard_normal((n, n))
    b2 = 0.3 * gen.standard_normal((n, k))
    s1 = 0.1 * gen.standard_normal((d, n, n))
    s2 = 0.3 * gen.standard_normal((d, n, k))
    c = 0.2 * gen.standard_normal((d, n))
    a = 0.5 * np.eye(n)
    g = np.eye(n)
    x0 = np.array([0.5, -0.3, 0.2, 0.1])
    return b1, b2, s1, s2, c, a, g, x0


def build(mc):
    """(spec, domain, rho) of curv-n4, built with the given msacontrol package."""
    n, d, k = N_STATE, N_NOISE, N_CONTROL
    m = n + 1 + d
    b1, b2, s1, s2, c, a, g, x0 = _coefficients()

    def drift(t, x, u):
        return x @ b1.T + u @ b2.T

    def diffusion(t, x, u):
        return (np.einsum("inj,mj->mni", s1, x) + np.einsum("inj,mj->mni", s2, u)
                + c.T[None, :, :])

    def driver(t, x, y, z, u):
        return (0.5 * np.einsum("mi,ij,mj->m", x, a, x) + 0.5 * (u * u).sum(axis=1)
                + CF * np.sin(z).sum(axis=1))

    def terminal(x):
        return 0.5 * np.einsum("mi,ij,mj->m", x, g, x)

    def f_hess(t, x, y, z, u):
        out = np.zeros((len(x), m, m))
        out[:, :n, :n] = a
        idx = np.arange(n + 1, m)
        out[:, idx, idx] = -CF * np.sin(z)
        return out

    derivatives = dict(
        b_x=lambda t, x, u: np.broadcast_to(b1, (len(x), n, n)).copy(),
        sigma_x=lambda t, x, u: np.broadcast_to(s1, (len(x), d, n, n)).copy(),
        b_xx=lambda t, x, u: np.zeros((len(x), n, n, n)),
        sigma_xx=lambda t, x, u: np.zeros((len(x), d, n, n, n)),
        f_x=lambda t, x, y, z, u: x @ a,
        f_y=lambda t, x, y, z, u: np.zeros(len(x)),
        f_z=lambda t, x, y, z, u: CF * np.cos(z),
        f_hess=f_hess,
        phi_x=lambda x: x @ g,
        phi_xx=lambda x: np.broadcast_to(g, (len(x), n, n)).copy(),
    )
    spec = mc.ProblemSpec.build(
        n=n, d=d, k=k, x0=x0, horizon=1.0, drift=drift, diffusion=diffusion,
        driver=driver, terminal=terminal, derivatives=derivatives,
        structure=mc.Structure(b_xx_zero=True, sigma_xx_zero=True))
    return spec, mc.FiniteSet(CONTROLS), RHO
