"""Time grid, seeded Brownian batches, forward Euler, and Girsanov weights.

Sampling uses the counter-based Philox generator in fixed-size path blocks, so
growing the path count extends a batch without reshuffling earlier paths, and
one batch is reused across all solver iterations (common random numbers).

Every per-path horizon array is indexed (path, step, ...) but stored with the
step axis outermost (``_time_major``), because every solver phase reads and
writes one step slice a[:, j] at a time; that slice is then one C-contiguous
block instead of a gather strided by the whole horizon. A control horizon is
an index into a table of control rows (``ControlField``), one byte per path and
step for up to 256 rows, and each reader gathers the step it needs. The states
are not a horizon: ``ForwardPaths`` keeps X at about sqrt(N) checkpoints and
recomputes one segment between two of them at a time (``state(j)``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (ConfigurationError, NumericalError, SimulationError, check_count,
                     check_horizon, check_seed)
from .model import ControlDomain, ProblemSpec, enumerate_controls

Array = np.ndarray

_PATH_BLOCK = 4096          # paths drawn per Philox stream
_CONTROL_STREAM = 2 ** 32   # jump offset for control sampling, beyond any path block
_TREE_CONTROL_STREAM = 2 ** 33  # jump offset for tree-adapted control sampling
_EXP_OVERFLOW = 700.0


def _time_major(shape, alloc=np.empty, dtype=float) -> Array:
    """``alloc`` an array of shape (M, N, ...) whose step slices a[:, j] are contiguous."""
    return alloc((shape[1], shape[0]) + tuple(shape[2:]), dtype=dtype).swapaxes(0, 1)


def _index_dtype(rows: int) -> np.dtype:
    """The narrowest unsigned dtype that numbers ``rows`` table rows: uint8 up to 256."""
    return np.min_scalar_type(max(rows - 1, 0))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * horizon / steps, j = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        check_horizon(self.horizon)
        check_count("steps", self.steps, 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @functools.cached_property
    def nodes(self) -> Array:
        """The steps + 1 times t_j, computed once per grid and read-only."""
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class BrownianBatch:
    """Increments dW of shape (n_paths, steps, d) on ``grid``: the sizes are read
    off the increments, and construction refuses increments that are not 3-D,
    have no path or no noise axis, or have a step count other than the grid's.

    Batches made by ``sample_brownian`` are stored time-major; one passed in
    any other layout gives the same results, only slower.
    """

    grid: TimeGrid
    increments: Array

    def __post_init__(self):
        increments = np.asarray(self.increments, dtype=float)
        shape, N = increments.shape, self.grid.steps
        if not (len(shape) == 3 and shape[0] >= 1 and shape[1] == N and shape[2] >= 1):
            raise ConfigurationError(f"increments of shape {shape} do not fit the grid's "
                                     f"(n_paths, {N}, d), n_paths and d >= 1")
        object.__setattr__(self, "increments", increments)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def d(self) -> int:
        return self.increments.shape[2]

    @property
    def dt(self) -> float:
        return self.grid.dt


def sample_brownian(grid: TimeGrid, n_paths: int, d: int, seed: int) -> BrownianBatch:
    """Draw a reproducible batch of Brownian increments.

    Paths are generated in blocks of 4096, one jumped Philox stream per block;
    a larger n_paths with the same seed extends the batch bitwise. A block's
    normals fill in C order, so a partial last block draws only the rows it
    keeps: they are the first rows of the whole block's draw.
    """
    check_count("n_paths", n_paths, 1)
    check_count("d", d, 1)
    check_seed(seed)
    root = np.random.Philox(key=seed)
    scale = np.sqrt(grid.dt)
    increments = _time_major((n_paths, grid.steps, d))
    for start in range(0, n_paths, _PATH_BLOCK):
        gen = np.random.Generator(root.jumped(start // _PATH_BLOCK))
        rows = increments[start:start + _PATH_BLOCK]
        np.multiply(scale, gen.standard_normal(rows.shape), out=rows)
    return BrownianBatch(grid, increments)


class ControlField:
    """Piecewise-constant controls per (path, step), shape (M, N, k), held as a
    ``table`` (C, k) of float64 control rows and an (M, N) ``index`` into it.

    The index has the narrowest unsigned dtype that numbers C rows (uint8 up
    to 256) and is stored time-major. ``at(j)`` gathers one step's (M, k)
    rows, so no solver phase builds the dense array; ``values`` builds it for
    a caller that asks.
    """

    __slots__ = ("table", "index")

    def __init__(self, *, table: Array, index: Array):
        table, index = np.asarray(table, dtype=float), np.asarray(index)
        if table.ndim != 2 or index.ndim != 2:
            raise ConfigurationError(f"control table must be (C, k) and index (M, N), "
                                     f"got {table.shape} and {index.shape}")
        if not np.issubdtype(index.dtype, np.integer):  # a float or bool would be truncated
            raise ConfigurationError(f"control index must have an integer dtype, "
                                     f"got {index.dtype}")
        if index.size and not (index.min() >= 0 and index.max() < len(table)):
            raise ConfigurationError(f"control index outside the table's {len(table)} rows")
        dtype = _index_dtype(len(table))
        if index.dtype != dtype or not index[:, :1].flags.c_contiguous:
            stored = _time_major(index.shape, dtype=dtype)
            stored[...] = index
            index = stored
        self.table, self.index = table, index

    def __repr__(self) -> str:
        return (f"ControlField(n_paths={self.n_paths}, steps={self.steps}, k={self.k}, "
                f"rows={len(self.table)})")

    @property
    def n_paths(self) -> int:
        return self.index.shape[0]

    @property
    def steps(self) -> int:
        return self.index.shape[1]

    @property
    def k(self) -> int:
        return self.table.shape[1]

    def at(self, j: int) -> Array:
        """Step j's controls, (M, k) float64 and C-contiguous."""
        return self.table.take(self.index[:, j], axis=0)

    @property
    def values(self) -> Array:
        """The dense (M, N, k) float64 controls, built on each read, time-major."""
        return self.table[self.index.T].swapaxes(0, 1)

    def over(self, rows: Array) -> "ControlField":
        """The same controls over a table whose first rows are ``rows``, followed by
        this control's distinct rows that are none of them, matched by bit pattern."""
        rows = np.asarray(rows, dtype=float)
        position, extra = {}, []
        for i, row in enumerate(rows):
            position.setdefault(row.tobytes(), i)
        remap = np.empty(len(self.table), dtype=np.intp)
        for r, row in enumerate(self.table):
            key = row.tobytes()
            if key not in position:
                position[key] = len(rows) + len(extra)
                extra.append(row)
            remap[r] = position[key]
        table = np.concatenate([rows, np.reshape(extra, (-1, rows.shape[1]))])
        if np.array_equal(remap, np.arange(len(self.table))):
            return ControlField(table=table, index=self.index)
        index = _time_major(self.index.shape, dtype=_index_dtype(len(table)))
        for j in range(self.steps):  # a step at a time: no (M, N) intp temporary
            index[:, j] = remap.take(self.index[:, j])
        return ControlField(table=table, index=index)


def constant_control(value, n_paths: int, steps: int) -> ControlField:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return ControlField(table=value[None],
                        index=_time_major((n_paths, steps), np.zeros, np.uint8))


def random_control(domain: ControlDomain, n_paths: int, steps: int, seed: int) -> ControlField:
    """I.i.d. uniform draws from the enumerated domain per (path, step)."""
    check_seed(seed)
    candidates = enumerate_controls(domain)
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(_CONTROL_STREAM))
    return ControlField(table=candidates,
                        index=gen.integers(0, len(candidates), size=(n_paths, steps)))


class ForwardPaths:
    """Euler trajectory of the state, X (M, steps + 1, n), under ``control`` and
    ``batch``'s noise, stored as its (K, M, n) ``kept`` nodes: X_0, every
    ``every``-th node and X_N.

    ``state(j)`` returns X_j as a contiguous (M, n) array. It recomputes a node
    between two kept ones from the one before it with ``spec``'s Euler step, the
    forward pass's own ``_euler_step``, so the bits are the pass's, and it holds
    one such segment (at most ``every`` - 1 slices) at a time. ``simulate_forward``
    keeps every s-th node, s = ceil(sqrt(steps + 1)), or every node (``every`` =
    1, ``spec`` never read) where checkpoints plus one segment would not halve
    the slices stored, as on desk-scale grids. Stored slices are read-only: a
    recompute starts from them.
    """

    __slots__ = ("control", "batch", "_spec", "_kept", "_every", "_segment")

    def __init__(self, control: ControlField, batch: BrownianBatch,
                 spec: Optional[ProblemSpec], kept: Array, every: int):
        kept.flags.writeable = False
        self.control, self.batch, self._spec, self._kept, self._every = (
            control, batch, spec, kept, every)
        self._segment = (None, None)  # (its checkpoint, its nodes' states)

    def state(self, j: int) -> Array:
        """X_j, (M, n) float64, C-contiguous and read-only."""
        N = self.batch.grid.steps
        if not 0 <= j <= N:
            raise IndexError(f"node {j} outside 0..{N}")
        if j == N:
            return self._kept[-1]
        c, r = divmod(j, self._every)
        if r == 0:
            return self._kept[c]
        if self._segment[0] != c:
            self._segment = (None, None)  # the last segment goes before the next is made
            self._segment = (c, self._recompute(c))
        return self._segment[1][r - 1]

    def _recompute(self, c: int) -> List[Array]:
        """The nodes after checkpoint c and before the next, stepped from it."""
        segment, x = [], self._kept[c]
        start = c * self._every
        for j in range(start, min(start + self._every, self.batch.grid.steps) - 1):
            x = _euler_step(self._spec, self.control, self.batch, j, x)
            x.flags.writeable = False
            segment.append(x)
        return segment


def _checkpoint_stride(steps: int) -> int:
    """s = ceil(sqrt(steps + 1)), or 1 (every node kept) where checkpoints plus one
    segment would not halve the steps + 1 slices stored."""
    s = math.isqrt(steps) + 1
    return s if 2 * (-(-steps // s) + s) <= steps + 1 else 1


def _euler(spec: ProblemSpec, t: float, x: Array, u: Array, dt: float, dw: Array) -> Array:
    """x + b(t, x, u) dt + sigma(t, x, u) dw, row by row: the one Euler formula, shared
    by the forward pass, its recomputes and the tree oracle's backward induction."""
    b = spec.drift(t, x, u)
    s = spec.diffusion(t, x, u)
    return x + b * dt + np.einsum("mnd,md->mn", s, dw)


def _euler_step(spec: ProblemSpec, control: ControlField, batch: BrownianBatch, j: int,
                x: Array) -> Array:
    """X_{j+1} = X_j + b dt + sigma dW_j from x = X_j: the forward pass's step, and
    each recompute's."""
    return _euler(spec, batch.grid.nodes[j], x, control.at(j), batch.dt,
                 batch.increments[:, j, :])


def simulate_forward(spec: ProblemSpec, control: ControlField,
                     batch: BrownianBatch) -> ForwardPaths:
    """Forward Euler: X_{j+1} = X_j + b dt + sigma dW_j, X_0 = x0, as the
    ``ForwardPaths`` of its kept X_0, every s-th node and X_N, s from
    ``_checkpoint_stride``. Raises SimulationError naming the first path and
    step where X is not finite."""
    M, N = batch.n_paths, batch.grid.steps
    if control.index.shape != (M, N):
        raise ConfigurationError(
            f"control shape {control.index.shape} does not match batch ({M}, {N})")
    if control.k != spec.k or batch.d != spec.d:
        raise ConfigurationError("control/batch dimensions disagree with the problem")
    every = _checkpoint_stride(N)
    kept = np.empty((-(-N // every) + 1, M, spec.n))  # X_0, every s-th node and X_N
    kept[0] = spec.x0
    x = kept[0]
    for j in range(N):
        x = _euler_step(spec, control, batch, j, x)
        if not np.all(np.isfinite(x)):
            bad = np.argwhere(~np.isfinite(x))[0]
            raise SimulationError(f"non-finite state at path {bad[0]}, step {j + 1}",
                                  path=int(bad[0]), step=j + 1)
        if (j + 1) % every == 0:  # step on from the kept copy, so the step's result is freed
            kept[(j + 1) // every] = x
            x = kept[(j + 1) // every]
    kept[-1] = x
    return ForwardPaths(control, batch, spec, kept, every)


def girsanov_terms(sums: Array, fz: Array, dw: Array) -> None:
    """Add one step's f_z . dW_j to sums[0] and its |f_z|^2 to sums[1], per path."""
    sums[0] += np.einsum("md,md->m", fz, dw)
    sums[1] += np.einsum("md,md->m", fz, fz)


def girsanov_exp(log_w: Array) -> Array:
    """exp(log_w), refusing an exponent whose exp overflows (NaN, +inf or > 700) or
    flushes to 0 (-inf or < -700), naming the first such path."""
    bad = ~(np.abs(log_w) <= _EXP_OVERFLOW)  # NaN compares false
    if bad.any():
        path = int(np.argmax(bad))
        # an underflow would flush the weight to 0, violating positivity of the density
        what = "underflow" if log_w[path] < 0 else "overflow"
        raise NumericalError(f"Girsanov weight {what} at path {path}", path=path)
    return np.exp(log_w)
