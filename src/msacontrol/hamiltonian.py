"""Hamiltonian evaluation and the pointwise control update.

Everything here is pure. The batch functions take one leading sample axis;
they and the solver's ``minimize_step`` share one set of per-candidate
helpers, so each formula is written once. The single-point wrappers mirror
them for direct use and testing. The candidate control v may be a single
point (k,) or a per-sample array (B, k).

``minimize_step`` stacks candidates along the sample axis and evaluates them
in chunks of at most ``_ROW_CHUNK`` rows. Every formula is row-wise and the
stacked copies keep the memory layout of their inputs, so the values are
bitwise equal to evaluating one candidate at a time.

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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model import ControlDomain, ProblemSpec, enumerate_controls

Array = np.ndarray

# Rows per stacked evaluation. Larger chunks lose: 16 384 rows raise the
# lq-grid21 peak heap by 7.6%, and all 86k rows of its 21 candidates are
# slower than one candidate at a time.
_ROW_CHUNK = 8192


@dataclass(frozen=True)
class HamiltonianPoint:
    """Arguments of the augmented Hamiltonian at one (t, omega)."""

    t: float
    x: Array          # (n,)
    y: float
    z: Array          # (d,)
    p: Array          # (n,)
    q: Array          # (n, d)
    P: Array          # (n, n)
    u_prev: Array     # (k,)


def _ctl(v, B: int, k: int) -> Array:
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.broadcast_to(v, (B, k))
    return v


def _gap(p: Array, s: Array, s_u: Array):
    """(ds, delta): diffusion gap sigma(v) - sigma(u) and delta_i = (ds^i)' p."""
    ds = s - s_u
    return ds, np.einsum("mnd,mn->md", ds, p)


def _g(spec: ProblemSpec, t: float, x: Array, y: Array, p: Array, q: Array,
       v: Array, b: Array, s: Array, zs: Array) -> Array:
    """G from the candidate's drift b, diffusion s and shifted z."""
    return (np.einsum("mn,mn->m", p, b)
            + np.einsum("mnd,mnd->m", q, s)
            + spec.driver(t, x, y, zs, v))


def _h(spec: ProblemSpec, t: float, x: Array, y: Array, p: Array, q: Array,
       P: Array, v: Array, b: Array, s: Array, ds: Array, zs: Array) -> Array:
    """H = G plus the curvature term of the diffusion gap ds."""
    g = _g(spec, t, x, y, p, q, v, b, s, zs)
    return g + 0.5 * np.einsum("mni,mnk,mki->m", ds, P, ds)


def _candidate(spec: ProblemSpec, t, x, y, z, p, q, P, v, s_u):
    """H at the candidate v with the terms its penalty shares: (h, b, ds, z + delta)."""
    b = spec.drift(t, x, v)
    s = spec.diffusion(t, x, v)
    ds, delta = _gap(p, s, s_u)
    zs = z + delta
    return _h(spec, t, x, y, p, q, P, v, b, s, ds, zs), b, ds, zs


def _evaluated(dv, t, x, y, z, v) -> Callable[[str], Array]:
    """Reader of sigma_x, b_x, f_x, f_y and f_z of the bundle dv at (t, x, y, z, v),
    evaluating afresh at every read, so no caller holds one beyond its use."""
    def read(name: str) -> Array:
        yz = () if name in ("sigma_x", "b_x") else (y, z)
        return getattr(dv, name)(t, x, *yz, v)
    return read


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


class _Current(NamedTuple):
    """Terms at the current control u that every candidate's penalty compares against."""

    b: Array        # drift(u)
    f: Array        # driver at the unshifted z
    sx: Array       # sigma_x(u)
    g_derivs: tuple  # (G_x, G_y, G_z) at (u, u)


def _map_current(fn: Callable[[Array], Array], cur: _Current) -> _Current:
    return _Current(b=fn(cur.b), f=fn(cur.f), sx=fn(cur.sx),
                    g_derivs=tuple(map(fn, cur.g_derivs)))


def _current(spec: ProblemSpec, t, x, y, z, p, q, u, b_u, zs_u, node=None) -> _Current:
    """b_u is drift(u) and zs_u is z + delta(u, u), equal to z up to the sign of
    a zero. ``node``, when given, supplies sigma_x, b_x, f_x, f_y and f_z at
    (t, x, y, z, u) in place of evaluating them here."""
    at = (functools.partial(getattr, node) if node is not None
          else _evaluated(spec.derivatives, t, x, y, zs_u, u))
    sx = at("sigma_x")
    return _Current(b=b_u, f=spec.driver(t, x, y, z, u), sx=sx,
                    g_derivs=_g_derivatives(at, p, q, sx, sx))


def _penalty(spec: ProblemSpec, t, x, y, z, p, q, v, b, ds, zs, cur: _Current) -> Array:
    """Squared-difference penalty of the candidate v against the current terms."""
    db = b - cur.b
    df = spec.driver(t, x, y, z, v) - cur.f
    pen = (db ** 2).sum(axis=1) + (ds ** 2).sum(axis=(1, 2)) + df ** 2
    at = _evaluated(spec.derivatives, t, x, y, zs, v)
    gx_v, gy_v, gz_v = _g_derivatives(at, p, q, at("sigma_x"), cur.sx)
    gx_u, gy_u, gz_u = cur.g_derivs
    pen = pen + ((gx_v - gx_u) ** 2).sum(axis=1)
    pen = pen + (gy_v - gy_u) ** 2
    pen = pen + ((gz_v - gz_u) ** 2).sum(axis=1)
    return pen


def delta_tilde_batch(spec: ProblemSpec, t: float, x: Array, p: Array,
                      v, u) -> Array:
    """Component i = (sigma^i(t, x, v) - sigma^i(t, x, u))' p, shape (B, d)."""
    B = x.shape[0]
    v = _ctl(v, B, spec.k)
    u = _ctl(u, B, spec.k)
    return _gap(p, spec.diffusion(t, x, v), spec.diffusion(t, x, u))[1]


def g_batch(spec: ProblemSpec, t: float, x: Array, y: Array, z: Array,
            p: Array, q: Array, v, u) -> Array:
    """G = p'b(v) + sum_i (q^i)' sigma^i(v) + f(t, x, y, z + delta, v)."""
    B = x.shape[0]
    v = _ctl(v, B, spec.k)
    u = _ctl(u, B, spec.k)
    s = spec.diffusion(t, x, v)
    _, delta = _gap(p, s, spec.diffusion(t, x, u))
    return _g(spec, t, x, y, p, q, v, spec.drift(t, x, v), s, z + delta)


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
    s_u = spec.diffusion(t, x, u)
    _, delta_u = _gap(p, s_u, s_u)
    cur = _current(spec, t, x, y, z, p, q, u, spec.drift(t, x, u), z + delta_u)
    ds, delta = _gap(p, spec.diffusion(t, x, v), s_u)
    return _penalty(spec, t, x, y, z, p, q, v, spec.drift(t, x, v), ds, z + delta, cur)


def h_aug_batch(spec: ProblemSpec, t: float, x: Array, y: Array, z: Array,
                p: Array, q: Array, P: Array, v, u, rho: float) -> Array:
    vals = h_batch(spec, t, x, y, z, p, q, P, v, u)
    if rho != 0.0:
        vals = vals + 0.5 * rho * penalty_batch(spec, t, x, y, z, p, q, v, u)
    return vals


HamiltonianFn = Callable[..., Array]


def minimize_step(spec: ProblemSpec, t: float, x: Array, y: Array, z: Array,
                  p: Array, q: Array, P: Array, u_prev: Array, candidates: Array,
                  rho: float, h_fn: Optional[HamiltonianFn] = None,
                  pen_fn: Optional[HamiltonianFn] = None, *, node=None):
    """Argmin of the augmented Hamiltonian over the candidate list, per sample.

    Ties go to the lowest candidate index. Samples whose current control beats
    every candidate (possible only off the enumeration) keep it. Returns
    (u_new (B, k), h_new (B,), h_prev (B,), h_aug_new (B,)) where h_* are
    values of the plain (non-augmented) Hamiltonian. Raises NumericalError
    naming the first path with a non-finite augmented value or h_prev.

    Without hints, the terms at u_prev are evaluated once per call, and each
    candidate's drift, diffusion and diffusion gap once, shared by H and the
    penalty. Candidates are stacked along the sample axis in chunks of at most
    ``_ROW_CHUNK`` (8 192) rows, so a chunk holds max(1, 8192 // B) of them;
    the values are bitwise equal to those of h_batch and penalty_batch called
    one candidate at a time. ``node``, the sweep's ``StepPoint`` at (t, x, y,
    z, u_prev), lends the penalty its derivatives at the current control.
    """
    B = x.shape[0]
    n_c = len(candidates)
    h_vals = np.empty((n_c, B))
    pen_vals = np.empty((n_c, B)) if rho != 0.0 else None
    if h_fn is None and pen_fn is None:
        u = _ctl(u_prev, B, spec.k)
        b_u = spec.drift(t, x, u)
        s_u = spec.diffusion(t, x, u)
        ds_u, delta_u = _gap(p, s_u, s_u)
        zs_u = z + delta_u
        h_prev = _h(spec, t, x, y, p, q, P, u, b_u, s_u, ds_u, zs_u)
        if rho != 0.0:
            cur = _current(spec, t, x, y, z, p, q, u, b_u, zs_u, node)
        c = min(n_c, max(1, _ROW_CHUNK // B))
        args = (x, y, z, p, q, P, s_u)
        if c > 1:
            def stack(a):
                # unlike np.tile, keeps a's memory layout: einsum may order a
                # sum by its operands' strides, and so set the last bit by it
                return np.concatenate([a] * c)
            args = tuple(map(stack, args))
            if rho != 0.0:
                cur = _map_current(stack, cur)
        for i0 in range(0, n_c, c):
            i1 = min(i0 + c, n_c)
            r = (i1 - i0) * B
            xc, yc, zc, pc, qc, Pc, s_uc = (a[:r] for a in args)
            v = np.repeat(candidates[i0:i1], B, axis=0)
            h, b, ds, zs = _candidate(spec, t, xc, yc, zc, pc, qc, Pc, v, s_uc)
            h_vals[i0:i1] = h.reshape(i1 - i0, B)
            if rho != 0.0:
                cur_c = _map_current(lambda a: a[:r], cur)
                pen = _penalty(spec, t, xc, yc, zc, pc, qc, v, b, ds, zs, cur_c)
                pen_vals[i0:i1] = pen.reshape(i1 - i0, B)
    else:
        h_fn = h_fn or h_batch
        pen_fn = pen_fn or penalty_batch
        for idx, cand in enumerate(candidates):
            h_vals[idx] = h_fn(spec, t, x, y, z, p, q, P, cand, u_prev)
            if rho != 0.0:
                pen_vals[idx] = pen_fn(spec, t, x, y, z, p, q, cand, u_prev)
        h_prev = h_fn(spec, t, x, y, z, p, q, P, u_prev, u_prev)
    aug_vals = h_vals + 0.5 * rho * pen_vals if rho != 0.0 else h_vals
    _check_finite(aug_vals, h_prev, candidates)
    best = _argmin_rows(aug_vals)
    rows = np.arange(B)
    keep = aug_vals[best, rows] > h_prev  # penalty vanishes at v = u_prev
    u_new = candidates[best].copy()
    u_new[keep] = u_prev[keep]
    h_new = np.where(keep, h_prev, h_vals[best, rows])
    h_aug_new = np.where(keep, h_prev, aug_vals[best, rows])
    return u_new, h_new, h_prev, h_aug_new


def _argmin_rows(vals: Array) -> Array:
    """np.argmin(vals, axis=0) for finite vals, as a running minimum over the rows.

    The axis-0 argmin runs one short reduction per column; this runs n_c - 1
    vectorized passes. Strict < keeps ties at the lowest row.
    """
    best = np.zeros(vals.shape[1], dtype=np.intp)
    low = vals[0].copy()
    for i in range(1, len(vals)):
        best[vals[i] < low] = i
        np.minimum(low, vals[i], out=low)
    return best


def _check_finite(aug_vals: Array, h_prev: Array, candidates: Array) -> None:
    """Raise on the first path whose candidate values or current value are not finite."""
    bad_aug = ~np.isfinite(aug_vals)
    bad_prev = ~np.isfinite(h_prev)
    if not (bad_aug.any() or bad_prev.any()):
        return
    path = int(np.argmax(bad_aug.any(axis=0) | bad_prev))
    if bad_aug[:, path].any():
        idx = int(np.argmax(bad_aug[:, path]))
        raise NumericalError(
            f"non-finite augmented Hamiltonian {aug_vals[idx, path]} on path {path} "
            f"at candidate {idx} {candidates[idx].tolist()}", path=path)
    raise NumericalError(
        f"non-finite Hamiltonian {h_prev[path]} at the current control on path {path}",
        path=path)


# ---------------------------------------------------------------------------
# single-point surface

def _point_arrays(spec: ProblemSpec, point: HamiltonianPoint):
    x = np.asarray(point.x, dtype=float).reshape(1, spec.n)
    y = np.asarray([point.y], dtype=float)
    z = np.asarray(point.z, dtype=float).reshape(1, spec.d)
    p = np.asarray(point.p, dtype=float).reshape(1, spec.n)
    q = np.asarray(point.q, dtype=float).reshape(1, spec.n, spec.d)
    P = np.asarray(point.P, dtype=float).reshape(1, spec.n, spec.n)
    u = np.asarray(point.u_prev, dtype=float).reshape(1, spec.k)
    return x, y, z, p, q, P, u


def delta_tilde(spec: ProblemSpec, t: float, x, p, v, u) -> Array:
    x = np.asarray(x, dtype=float).reshape(1, spec.n)
    p = np.asarray(p, dtype=float).reshape(1, spec.n)
    v = np.asarray(v, dtype=float).reshape(1, spec.k)
    u = np.asarray(u, dtype=float).reshape(1, spec.k)
    return delta_tilde_batch(spec, t, x, p, v, u)[0]


def eval_G(spec: ProblemSpec, t: float, x, y, z, p, q, v, u) -> float:
    x = np.asarray(x, dtype=float).reshape(1, spec.n)
    z = np.asarray(z, dtype=float).reshape(1, spec.d)
    p = np.asarray(p, dtype=float).reshape(1, spec.n)
    q = np.asarray(q, dtype=float).reshape(1, spec.n, spec.d)
    v = np.asarray(v, dtype=float).reshape(1, spec.k)
    u = np.asarray(u, dtype=float).reshape(1, spec.k)
    return float(g_batch(spec, t, x, np.asarray([y], dtype=float), z, p, q, v, u)[0])


def eval_H(spec: ProblemSpec, point: HamiltonianPoint, v) -> float:
    x, y, z, p, q, P, u = _point_arrays(spec, point)
    v = np.asarray(v, dtype=float).reshape(1, spec.k)
    return float(h_batch(spec, point.t, x, y, z, p, q, P, v, u)[0])


def eval_H_aug(spec: ProblemSpec, point: HamiltonianPoint, v, rho: float) -> float:
    if rho < 0:
        raise ConfigurationError("rho must be >= 0")
    x, y, z, p, q, P, u = _point_arrays(spec, point)
    v = np.asarray(v, dtype=float).reshape(1, spec.k)
    return float(h_aug_batch(spec, point.t, x, y, z, p, q, P, v, u, rho)[0])


def minimize_H_aug(spec: ProblemSpec, point: HamiltonianPoint,
                   domain: ControlDomain, rho: float) -> Tuple[Array, float]:
    """Best candidate and its augmented value; first lowest index wins ties."""
    if rho < 0:
        raise ConfigurationError("rho must be >= 0")
    candidates = enumerate_controls(domain)
    x, y, z, p, q, P, u = _point_arrays(spec, point)
    u_new, _, h_prev, h_aug_new = minimize_step(
        spec, point.t, x, y, z, p, q, P, u, candidates, rho)
    return u_new[0], float(h_aug_new[0])
