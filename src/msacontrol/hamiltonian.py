"""Hamiltonian evaluation and the pointwise control update.

Everything here is pure and batched over one leading sample axis; a single
(t, omega) is a one-row batch. ``h_batch``, ``penalty_batch`` and the solver's
``minimize_step`` share one set of per-candidate helpers, so each formula is
written once. ``h_batch`` and ``penalty_batch`` take the candidate control v
as a single point (k,) or a per-sample array (B, k); ``minimize_step`` always
hands its helpers and hints stacked (rows, k) arrays.

``minimize_step`` stacks candidates along the sample axis, as many per call as
fit the node arrays it tiles into ``_STACK_BYTES``, and folds each call into
the selection at once, so its memory does not grow with the candidate count
and a wide node is not tiled past the budget. Every formula is row-wise and
the stacked copies keep the memory layout of their inputs, so the values are
bitwise equal to evaluating one candidate at a time. At v = u the diffusion
gap is 0, so the current control's H is its G, and the current control's
drift, diffusion and driver are each evaluated once per call.

The G-derivatives contract sigma_x over its flattened (noise, state) axis.
The diffusion gap, G and H's curvature term keep per-axis einsums, the
fastest at n = d = 1 (a batched ``(P @ ds) * ds`` is about 5x slower there).

The augmented Hamiltonian adds rho/2 times squared coefficient and
G-derivative differences between the candidate and the current control; its
derivative terms are assembled from the closed-form bundle (chain rule through
z + delta), never finite differences, because they sit inside a minimization.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from .adjoint import StepPoint
from .errors import ConfigurationError, NumericalError
from .model import ProblemSpec

Array = np.ndarray

# Bytes of tiled node arrays per stacked evaluation: 8 192 rows of the 56-byte
# node at n = d = k = 1 (x, y, z, p, q, P and sigma(u)). Larger stacks lose:
# 16 384 rows raise the lq-grid21 peak heap by 7.6%, and all 86k rows of its
# 21 candidates are slower than one candidate at a time. A wide node, such as
# curv-n4's 696-byte row at rho > 0 over 400 paths, is not tiled at all.
_STACK_BYTES = 8192 * 56


def _ctl(v, B: int, k: int) -> Array:
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.broadcast_to(v, (B, k))
    return v


def _gap(p: Array, s: Array, s_u: Array):
    """(ds, delta): diffusion gap sigma(v) - sigma(u) and delta_i = (ds^i)' p."""
    ds = s - s_u
    return ds, np.einsum("mnd,mn->md", ds, p)


def _g(p: Array, q: Array, b: Array, s: Array, f: Array) -> Array:
    """G = p'b + sum_i (q^i)' s^i + f from a control's drift b, diffusion s and driver f."""
    g = np.einsum("mn,mn->m", p, b)
    g += np.einsum("mnd,mnd->m", q, s)
    g += f
    return g


def _candidate(spec: ProblemSpec, t, x, y, z, p, q, P, v, s_u):
    """H at the candidate v with the terms its penalty shares: (h, b, ds, z + delta).
    H is G at the shifted z plus the curvature term of the diffusion gap ds."""
    b = spec.drift(t, x, v)
    s = spec.diffusion(t, x, v)
    ds, delta = _gap(p, s, s_u)
    zs = np.add(z, delta, out=delta)
    h = _g(p, q, b, s, spec.driver(t, x, y, zs, v))
    h += 0.5 * np.einsum("mni,mnk,mki->m", ds, P, ds)
    return h, b, ds, zs


def _evaluated(dv, t, x, y, z, v) -> Callable[[str], Array]:
    """Reader of sigma_x, b_x, f_x, f_y and f_z of the bundle dv at a candidate's
    (t, x, y, z, v), evaluating afresh at every read, so no caller holds one
    beyond its use."""
    return lambda name: dv.at(name, t, x, y, z, v)


def _g_derivatives(at, p, q, sx_v, sx_u):
    """(G_x, G_y, G_z) at the candidate v, with b_x, f_x, f_y and f_z read by
    ``at(name)`` at v and shifted z, and sigma_x at v and at u.

    The sigma_x terms, sum_{i,a} sx_v^{ia} (q^{ai} + f_{z_i} p^a) - sx_u^{ia} f_{z_i} p^a,
    contract over the flattened, contiguous (i, a) axis of length d * n.
    """
    fz = at("f_z")
    M, d, n = sx_v.shape[:3]
    fzp = (fz[:, :, None] * p[:, None, :]).reshape(M, d * n)
    gx = (np.einsum("mij,mi->mj", at("b_x"), p)
          + np.einsum("mr,mrb->mb", q.transpose(0, 2, 1).reshape(M, d * n) + fzp,
                      sx_v.reshape(M, d * n, n))
          - np.einsum("mr,mrb->mb", fzp, sx_u.reshape(M, d * n, n))
          + at("f_x"))
    return gx, at("f_y"), fz


def _current(node: StepPoint, p, q, b_u, f_u) -> tuple:
    """(drift(u), driver(u), sigma_x(u), G_x, G_y, G_z at (u, u)): the terms at the
    current control u that every candidate's penalty compares against, from its
    drift b_u and driver f_u. The derivatives are read off ``node``, the
    ``StepPoint`` at (t, x, y, z, u)."""
    sx = node.sigma_x
    return (b_u, f_u, sx) + _g_derivatives(functools.partial(getattr, node), p, q, sx, sx)


def _penalty(spec: ProblemSpec, t, x, y, z, p, q, v, b, ds, zs, cur: tuple) -> Array:
    """Squared-difference penalty of the candidate v against ``_current``'s terms."""
    b_u, f_u, sx_u, gx_u, gy_u, gz_u = cur
    db = b - b_u
    df = spec.driver(t, x, y, z, v) - f_u
    pen = (db ** 2).sum(axis=1)
    pen += (ds ** 2).sum(axis=(1, 2))
    pen += df ** 2
    at = _evaluated(spec.derivatives, t, x, y, zs, v)
    gx_v, gy_v, gz_v = _g_derivatives(at, p, q, at("sigma_x"), sx_u)
    pen += ((gx_v - gx_u) ** 2).sum(axis=1)
    pen += (gy_v - gy_u) ** 2
    pen += ((gz_v - gz_u) ** 2).sum(axis=1)
    return pen


def h_batch(spec: ProblemSpec, t: float, x: Array, y: Array, z: Array,
            p: Array, q: Array, P: Array, v, u) -> Array:
    """H = G + (1/2) sum_i (sigma^i(v) - sigma^i(u))' P (sigma^i(v) - sigma^i(u))."""
    B = x.shape[0]
    v = _ctl(v, B, spec.k)
    u = _ctl(u, B, spec.k)
    return _candidate(spec, t, x, y, z, p, q, P, v, spec.diffusion(t, x, u))[0]


def penalty_batch(spec: ProblemSpec, t: float, x: Array, y: Array, z: Array,
                  p: Array, q: Array, v, u) -> Array:
    """Squared-difference penalty of the augmented Hamiltonian (without rho/2).

    sum_{psi in {b, sigma, f}} |psi(v) - psi(u)|^2
    + sum_{w in {x, y, z}} |G_w(v, u) - G_w(u, u)|^2,
    the driver difference taken at the unshifted z.
    """
    B = x.shape[0]
    v = _ctl(v, B, spec.k)
    u = _ctl(u, B, spec.k)
    cur = _current(StepPoint(spec, t, x, y, z, u), p, q, spec.drift(t, x, u),
                   spec.driver(t, x, y, z, u))
    ds, delta = _gap(p, spec.diffusion(t, x, v), spec.diffusion(t, x, u))
    return _penalty(spec, t, x, y, z, p, q, v, spec.drift(t, x, v), ds,
                    np.add(z, delta, out=delta), cur)


def minimize_step(spec: ProblemSpec, t: float, x: Array, y: Array, z: Array,
                  p: Array, q: Array, P: Array, u_prev: Array, candidates: Array,
                  rho: float, h_fn: Optional[Callable] = None,
                  pen_fn: Optional[Callable] = None, *, node=None):
    """Argmin of the augmented Hamiltonian over the candidate list, per sample.

    Ties go to the lowest candidate index. Samples whose current control
    u_prev, a (B, k) array (else ConfigurationError), beats every candidate
    (possible only off the enumeration) keep it. Returns four distinct arrays
    (u_new (B, k), h_new (B,), h_prev (B,), choice (B,)): h_new and h_prev are
    plain (non-augmented) values, and choice is the index of each sample's
    winning candidate, or -1 where the sample keeps its current control. Once
    every candidate is evaluated, raises NumericalError naming the first path
    with a non-finite augmented value (and its first such candidate) or h_prev.

    Candidates are stacked along the sample axis, c = max(1, _STACK_BYTES //
    (B * row_bytes)) of them per call, where row_bytes sums one row of each
    node array that stacking tiles: x, y, z, p, q, P and, without hints,
    sigma(u_prev) plus, for rho > 0, the current control's penalty terms, or,
    with hints, u_prev. ``_STACK_BYTES`` is 8 192 rows of the 56-byte node at
    n = d = k = 1; a chunk of one candidate is its row broadcast to (B, k).
    The hints h_fn and pen_fn, both or neither (else ConfigurationError),
    take h_batch's and penalty_batch's arguments with v and u_prev as
    (rows, k) arrays stacked like the node. Without hints,
    u_prev's drift, diffusion and driver are evaluated once per call, h_prev is
    its G, and each candidate's drift, diffusion and diffusion gap are
    evaluated once, shared by H and the penalty; the values are bitwise equal
    to h_batch and penalty_batch called one candidate at a time. ``node``, the
    sweep's ``StepPoint`` at (t, x, y, z, u_prev), lends the penalty its
    derivatives at the current control; without it, the call builds that
    point, which goes once the current control's terms are formed.

    Each chunk is folded into a running selection as soon as it is evaluated,
    so no (candidates, B) table exists: row by row, ``aug < low`` in one
    reused mask moves the index, the augmented value and the plain H into
    place. The selection starts at +inf, so the first candidate takes the
    same test as the rest. Data movement only, so no bit changes; strict <
    keeps ties, +0.0 against -0.0 too, at the lowest index.
    """
    if (h_fn is None) != (pen_fn is None):
        raise ConfigurationError("the hints h_fn and pen_fn go together: give both or neither")
    B = x.shape[0]
    if np.shape(u_prev) != (B, spec.k):
        raise ConfigurationError(f"u_prev must have shape ({B}, {spec.k}), got {np.shape(u_prev)}")
    best, mask = np.zeros(B, dtype=np.intp), np.empty(B, dtype=bool)
    # the lowest augmented value so far and, for rho > 0, the plain H beside it
    low, pick = np.full(B, np.inf), (np.empty(B) if rho != 0.0 else None)
    bad = None  # (path, candidate, value): the lowest bad path, its first candidate

    def fold(i0: int, h: Array, pen: Optional[Array]) -> None:
        """Folds candidates i0, i0 + 1, ...: plain values h, B per candidate, and, for
        rho > 0, penalties pen, in whose buffer the augmented h + rho/2 pen is formed."""
        nonlocal bad
        aug = h if pen is None else np.add(h, np.multiply(pen, 0.5 * rho, out=pen), out=pen)
        h, aug = h.reshape(-1, B), aug.reshape(-1, B)
        finite = np.isfinite(aug)
        if not finite.all():  # lowest path first, then its lowest row
            path, row = (int(a[0]) for a in np.nonzero(~finite.T))
            if bad is None or path < bad[0]:
                bad = (path, i0 + row, aug[row, path])
        for r in range(len(aug)):
            np.less(aug[r], low, out=mask)
            np.copyto(best, i0 + r, where=mask)
            np.copyto(low, aug[r], where=mask)
            if pick is not None:
                np.copyto(pick, h[r], where=mask)

    args = (x, y, z, p, q, P)  # the node's arrays, stacked like the candidates
    if h_fn is None:
        b_u, s_u = spec.drift(t, x, u_prev), spec.diffusion(t, x, u_prev)
        f_u = spec.driver(t, x, y, z, u_prev)
        h_prev = _g(p, q, b_u, s_u, f_u)  # H(u) = G(u): the diffusion gap is 0 at v = u
        args += (s_u,)
        if rho != 0.0:  # then the current terms the penalty reads
            args += _current(node if node is not None else StepPoint(spec, t, x, y, z, u_prev),
                             p, q, b_u, f_u)

        def evaluate(v, x, y, z, p, q, P, s_u, *cur):
            h, b, ds, zs = _candidate(spec, t, x, y, z, p, q, P, v, s_u)
            return h, (_penalty(spec, t, x, y, z, p, q, v, b, ds, zs, cur)
                       if rho != 0.0 else None)
    else:  # h_prev is evaluated after the candidates, so it is not held over them
        h_prev, args = None, args + (u_prev,)

        def evaluate(v, x, y, z, p, q, P, u):
            h = h_fn(spec, t, x, y, z, p, q, P, v, u)
            # a copy, so the augmented value never overwrites what the hint returned
            return h, (np.array(pen_fn(spec, t, x, y, z, p, q, v, u), dtype=float)
                       if rho != 0.0 else None)
    n_c = len(candidates)
    # one copy of the node arrays is B rows of row_bytes each
    c = min(n_c, max(1, _STACK_BYTES // sum([a.nbytes for a in args])))
    if c > 1:
        # unlike np.tile, concatenate keeps each array's memory layout: einsum
        # may order a sum by its operands' strides, and so set the last bit by it
        args = tuple(np.concatenate([a] * c) for a in args)
    for i0 in range(0, n_c, c):
        n = min(c, n_c - i0)
        v = (candidates[i0:i0 + n].repeat(B, 0) if n > 1
             else np.broadcast_to(candidates[i0], (B, spec.k)))
        fold(i0, *evaluate(v, *(a[:n * B] for a in args)))
    if h_prev is None:
        h_prev = h_fn(spec, t, x, y, z, p, q, P, u_prev, u_prev)
    bad_prev = ~np.isfinite(h_prev)
    if bad is not None or bad_prev.any():
        path = int(np.argmax(bad_prev)) if bad_prev.any() else B
        if bad is not None and bad[0] <= path:
            path, idx, value = bad
            raise NumericalError(
                f"non-finite augmented Hamiltonian {value} on path {path} "
                f"at candidate {idx} {candidates[idx].tolist()}", path=path)
        raise NumericalError(
            f"non-finite Hamiltonian {h_prev[path]} at the current control on path {path}",
            path=path)
    u_new, h_new = candidates.take(best, axis=0), (low if pick is None else pick)
    keep = low > h_prev  # penalty vanishes at v = u_prev
    if keep.any():
        u_new[keep], h_new[keep] = u_prev[keep], h_prev[keep]
        best[keep] = -1
    return u_new, h_new, h_prev, best
