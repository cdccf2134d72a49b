"""Whole-horizon views that only tests build: a trajectory from given dense states,
the dense states of a trajectory, and the Girsanov weights of an f_z path.

The solver never holds any of them; it reads one step at a time.
"""

import numpy as np

import msacontrol as mc
from msacontrol.stochastics import _time_major, girsanov_exp, girsanov_terms


def dense_forward(states, control, batch) -> mc.ForwardPaths:
    """A ``ForwardPaths`` keeping every node of the given (M, N + 1, n) X: the
    stride-1 stored form, which recomputes nothing. Refuses (ConfigurationError)
    states whose shape does not match the batch."""
    M, N = batch.n_paths, batch.grid.steps
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[:2] != (M, N + 1):
        raise mc.ConfigurationError(f"states shape {states.shape} does not match the "
                                    f"batch's (M, N + 1, n) with (M, N) = ({M}, {N})")
    return mc.ForwardPaths(control, batch, None,
                           np.ascontiguousarray(states.swapaxes(0, 1)), 1)


def dense_states(forward: mc.ForwardPaths) -> np.ndarray:
    """The dense (M, N + 1, n) float64 trajectory, time-major, read node by node."""
    batch = forward.batch
    X = _time_major((batch.n_paths, batch.grid.steps + 1, forward.state(0).shape[1]))
    for j in range(X.shape[1]):
        X[:, j] = forward.state(j)
    return X


def girsanov_weights(fz_path, batch) -> np.ndarray:
    """Doleans-Dade exponential weights from f_z along a trajectory.

    weight_m = exp( sum_{j,i} fz[m,j,i] dW[m,j,i] - (1/2) sum_j |fz[m,j]|^2 dt )
    with the left-point rule, so the integrand stays adapted. The step sums are
    streamed from j = N-1 down to 0 with the update sweep's ``girsanov_terms``
    and ``girsanov_exp``, so the weights are ``compute_mu``'s, bitwise, whatever
    layout either operand has.
    """
    fz = np.asarray(fz_path, dtype=float)
    if fz.shape != batch.increments.shape:
        raise mc.ConfigurationError(
            f"fz grid shape {fz.shape} does not match increments {batch.increments.shape}")
    sums = np.zeros((2, batch.n_paths))
    for j in range(fz.shape[1] - 1, -1, -1):
        girsanov_terms(sums, fz[:, j], batch.increments[:, j])
    return girsanov_exp(sums[0] - 0.5 * batch.dt * sums[1])
