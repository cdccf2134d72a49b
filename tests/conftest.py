import numpy as np
import pytest
from hypothesis import settings

import msacontrol as mc

# Fixed example generation, so that a failing property reproduces on a re-run;
# select it with --hypothesis-profile=ci. Local runs keep the default profile.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def curvature_spec():
    """n = 4, d = 2, k = 2: state-dependent diffusion, driver curved in y and z."""
    n, d, k = 4, 2, 2
    gen = np.random.default_rng(4)
    b1 = -0.2 * np.eye(n) + 0.05 * gen.standard_normal((n, n))
    b2 = 0.3 * gen.standard_normal((n, k))
    s1 = 0.1 * gen.standard_normal((d, n, n))
    s2 = 0.3 * gen.standard_normal((d, n, k))
    c = 0.2 * gen.standard_normal((d, n))
    return mc.ProblemSpec.build(
        n=n, d=d, k=k, x0=np.zeros(n), horizon=1.0,
        drift=lambda t, x, u: x @ b1.T + u @ b2.T,
        diffusion=lambda t, x, u: (np.einsum("inj,mj->mni", s1, x)
                                   + np.einsum("inj,mj->mni", s2, u) + c.T[None]),
        driver=lambda t, x, y, z, u: (0.5 * (x * x).sum(axis=1) + 0.5 * (u * u).sum(axis=1)
                                      + 0.5 * np.sin(z + u).sum(axis=1)
                                      + 0.2 * y * np.tanh(u[:, 0])),
        terminal=lambda x: 0.5 * (x * x).sum(axis=1))
