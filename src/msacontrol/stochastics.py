"""Time grid, seeded Brownian batches, forward Euler, and Girsanov weights.

Sampling uses the counter-based Philox generator in fixed-size path blocks, so
growing the path count extends a batch without reshuffling earlier paths, and
one batch is reused across all solver iterations (common random numbers).

Every per-path horizon array is indexed (path, step, ...) but stored with the
step axis outermost (``_time_major``), because every solver phase reads and
writes one step slice a[:, j] at a time; that slice is then one C-contiguous
block instead of a gather strided by the whole horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericalError, SimulationError
from .model import ControlDomain, ProblemSpec, enumerate_controls

Array = np.ndarray

_PATH_BLOCK = 4096          # paths drawn per Philox stream
_CONTROL_STREAM = 2 ** 32   # jump offset for control sampling, beyond any path block
_EXP_OVERFLOW = 700.0


def _time_major(shape, alloc=np.empty, dtype=float) -> Array:
    """``alloc`` an array of shape (M, N, ...) whose step slices a[:, j] are contiguous."""
    return alloc((shape[1], shape[0]) + tuple(shape[2:]), dtype=dtype).swapaxes(0, 1)


def _time_major_copy(values: Array) -> Array:
    """``values`` if its step slices are already contiguous, else a time-major copy."""
    if values[:, 0].flags.c_contiguous:
        return values
    out = _time_major(values.shape, dtype=values.dtype)
    out[...] = values
    return out


def _time_major_take(table: Array, idx: Array) -> Array:
    """table[idx] for an (M, N) index array, stored time-major.

    The index is transposed into C order first: fancy indexing lays out its
    result like the index when each table row holds a single value.
    """
    return table[np.ascontiguousarray(idx.T)].swapaxes(0, 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * horizon / steps, j = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigurationError("horizon must be positive")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> Array:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class BrownianBatch:
    """Seeded increments dW ~ Normal(0, dt), shape (n_paths, steps, d).

    Batches made by ``sample_brownian`` are stored time-major; one passed in
    any other layout gives the same results, only slower.
    """

    grid: TimeGrid
    n_paths: int
    d: int
    seed: Optional[int]
    increments: Array

    @property
    def dt(self) -> float:
        return self.grid.dt


def sample_brownian(grid: TimeGrid, n_paths: int, d: int, seed: int) -> BrownianBatch:
    """Draw a reproducible batch of Brownian increments.

    Paths are generated in blocks of 4096, one jumped Philox stream per block;
    a larger n_paths with the same seed extends the batch bitwise.
    """
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    root = np.random.Philox(key=seed)
    scale = np.sqrt(grid.dt)
    increments = _time_major((n_paths, grid.steps, d))
    for start in range(0, n_paths, _PATH_BLOCK):
        gen = np.random.Generator(root.jumped(start // _PATH_BLOCK))
        draws = gen.standard_normal((_PATH_BLOCK, grid.steps, d))
        rows = increments[start:start + _PATH_BLOCK]
        np.multiply(scale, draws[:len(rows)], out=rows)
    return BrownianBatch(grid=grid, n_paths=n_paths, d=d, seed=seed,
                         increments=increments)


@dataclass(frozen=True)
class ControlField:
    """Piecewise-constant control values per (path, step), shape (M, N, k).

    The package's constructors store the values time-major; ``run_msa`` copies
    a caller's control of any other layout once, so results never depend on it.
    """

    values: Array

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def steps(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return self.values.shape[2]


def constant_control(value, n_paths: int, steps: int) -> ControlField:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    values = _time_major((n_paths, steps, value.shape[0]))
    values[...] = value
    return ControlField(values)


def random_control(domain: ControlDomain, n_paths: int, steps: int, seed: int) -> ControlField:
    """I.i.d. uniform draws from the enumerated domain per (path, step)."""
    candidates = enumerate_controls(domain)
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(_CONTROL_STREAM))
    idx = gen.integers(0, len(candidates), size=(n_paths, steps))
    return ControlField(_time_major_take(candidates, idx))


@dataclass(frozen=True)
class ForwardPaths:
    """Euler trajectory of the state, shape (M, steps + 1, n), stored time-major."""

    states: Array
    control: ControlField
    batch: BrownianBatch


def simulate_forward(spec: ProblemSpec, control: ControlField,
                     batch: BrownianBatch) -> ForwardPaths:
    """Forward Euler: X_{j+1} = X_j + b dt + sigma dW_j, X_0 = x0."""
    M, N = batch.n_paths, batch.grid.steps
    if control.values.shape[:2] != (M, N):
        raise ConfigurationError(
            f"control shape {control.values.shape[:2]} does not match batch ({M}, {N})")
    if control.k != spec.k or batch.d != spec.d:
        raise ConfigurationError("control/batch dimensions disagree with the problem")
    dt = batch.dt
    nodes = batch.grid.nodes
    X = _time_major((M, N + 1, spec.n))
    X[:, 0, :] = spec.x0
    for j in range(N):
        xj = X[:, j, :]
        uj = control.values[:, j, :]
        b = spec.drift(nodes[j], xj, uj)
        s = spec.diffusion(nodes[j], xj, uj)
        X[:, j + 1, :] = xj + b * dt + np.einsum("mnd,md->mn", s, batch.increments[:, j, :])
        if not np.all(np.isfinite(X[:, j + 1, :])):
            bad = np.argwhere(~np.isfinite(X[:, j + 1, :]))[0]
            raise SimulationError(f"non-finite state at path {bad[0]}, step {j + 1}",
                                  path=int(bad[0]), step=j + 1)
    return ForwardPaths(states=X, control=control, batch=batch)


def girsanov_weights(fz_path: Array, batch: BrownianBatch) -> Array:
    """Doleans-Dade exponential weights from f_z along a trajectory.

    weight_m = exp( sum_{j,i} fz[m,j,i] dW[m,j,i] - (1/2) sum_j |fz[m,j]|^2 dt )
    with the left-point rule, so the integrand stays adapted.

    Both operands are reduced from C-order (path-major) copies: the order in
    which einsum sums over the steps follows the memory layout, so the weights
    stay bitwise the same whatever layout the increments are stored in.
    """
    fz = np.ascontiguousarray(fz_path, dtype=float)
    increments = np.ascontiguousarray(batch.increments)
    if fz.shape != increments.shape:
        raise ConfigurationError(
            f"fz grid shape {fz.shape} does not match increments {increments.shape}")
    log_w = (np.einsum("mjd,mjd->m", fz, increments)
             - 0.5 * batch.dt * np.einsum("mjd,mjd->m", fz, fz))
    if not np.all(np.isfinite(log_w)) or np.any(log_w > _EXP_OVERFLOW):
        raise NumericalError(
            f"Girsanov weight overflow at path {int(np.argmax(log_w))}")
    if np.any(log_w < -_EXP_OVERFLOW):
        # exp would flush to 0, violating positivity of the density
        raise NumericalError(
            f"Girsanov weight underflow at path {int(np.argmin(log_w))}")
    return np.exp(log_w)
