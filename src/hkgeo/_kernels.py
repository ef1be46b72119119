"""Hot numeric kernels, one vectorised numpy implementation each.

The two Euler kernels share one time-major stepping loop, _euler_rows.

``benchmarks/bench_kernels.py`` times them at fixed shapes.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "EXP_FLOOR",
    "scaling_sweep",
    "euler_besq_paths",
    "euler_besq_exit",
    "maxplus_transform",
    "stamp_kernel",
]

BACKEND = "numpy"


# Floor of the exponent x - max in a log-sum-exp, and of an entropic plan's
# exponent (let._dual_newton).  np.exp is several times slower below about
# -708 (and over a hundred times slower where its result is subnormal),
# while e^-700 < 1e-304 is far below one ulp of a sum whose largest term
# is 1: a term clamped here, or a plan cell zeroed, cannot change a result.
EXP_FLOOR = -700.0


def scaling_sweep(f, g, logw0, logw1, cost, eps, n_iter, tol):
    """Log-domain scaling updates for the KL-penalized entropy-transport problem.

    Updates the dual potentials in place, with the stabilized log-sum-exp:
        f_i <- eps/(1+eps) * (log w0_i - lse_j((g_j - cost_ij)/eps)),
        g_j <- eps/(1+eps) * (log w1_j - lse_i((f_i - cost_ij)/eps)),
    the g update using the new f.  Forbidden cells carry cost = +inf and
    drop out of the lse; a row (column) without a finite cell gets the
    potential +inf and drops out of every column's (row's) lse and of the
    returned change.  Each lse term is divided by the largest one before
    np.exp, and its exponent is floored at EXP_FLOOR: a floored term, at
    most e^-700, is below one ulp of the sum, whose largest term is 1.
    Returns the number of iterations run and the last max potential change.
    """
    lam = 1.0 / (1.0 + eps)
    delta = np.inf
    it = 0
    m = np.empty_like(cost)
    g_in = np.where(np.isfinite(g), g, 0.0)  # +inf from an earlier call would make inf - inf
    while it < n_iter and delta > tol:
        lse0, live0 = _lse(np.subtract(g_in[None, :], cost, out=m), eps, 1)
        f_new = lam * eps * (logw0 - lse0)
        lse1, live1 = _lse(np.subtract(f_new[:, None], cost, out=m), eps, 0)
        g_new = lam * eps * (logw1 - lse1)
        delta = max(np.abs(f_new - f).max(initial=0.0, where=live0),
                    np.abs(g_new - g).max(initial=0.0, where=live1))
        f[:] = f_new
        g[:] = g_in = g_new
        it += 1
    if it:
        f[~live0] = np.inf
        g[~live1] = np.inf
    return it, delta


def _lse(m, eps, axis):
    """log sum exp of m / eps along axis, overwriting m, and the mask of the
    lines with an entry above -inf.  A line without one gets a finite
    stand-in; its potential becomes +inf when the sweep returns."""
    m /= eps
    top = m.max(axis=axis, keepdims=True)
    live = top > -np.inf
    top[~live] = 0.0
    m -= top
    np.maximum(m, EXP_FLOOR, out=m)
    np.exp(m, out=m)
    return (top + np.log(m.sum(axis=axis, keepdims=True))).ravel(), live.ravel()


# Steps per block of normals transposed into the time-major loop: a block
# of 128 x 2,000 doubles is 2 MB, and transposing all normals at once would
# double their memory.
EULER_BLOCK = 128


def _euler_rows(x0, theta, dt, normals):
    """Full-truncation Euler x <- max(x + sqrt(2 x^+) sqrt(dt) z + theta dt, 0),
    time-major.

    x0: a scalar or one state per path; normals: (n_paths, n_steps).  The
    states are held as rows of an (n_steps + 1, n_paths) array, and the
    normals are transposed one block of EULER_BLOCK steps at a time, so every
    step reads and writes contiguous rows.  Each step is evaluated in place,
    in the order x + ((sqrt(2 max(x, 0)) sqrt(dt)) z) + theta dt, into its
    row of the block, where the steps below 0 are counted before the clip.
    Returns the states and the number of clipped steps.
    """
    n_paths, n_steps = normals.shape
    xt = np.empty((n_steps + 1, n_paths))
    xt[0] = x0
    sq = np.sqrt(dt)
    drift = theta * dt
    s = np.empty(n_paths)
    zb = np.empty((min(EULER_BLOCK, n_steps), n_paths))
    clipped = 0
    for n0 in range(0, n_steps, EULER_BLOCK):
        z = zb[: min(EULER_BLOCK, n_steps - n0)]
        z[...] = normals[:, n0 : n0 + len(z)].T
        for n, step in enumerate(z, n0):
            x = xt[n]
            np.maximum(x, 0.0, out=s)
            s *= 2.0
            np.sqrt(s, out=s)
            s *= sq
            step *= s
            step += x
            step += drift
            np.maximum(step, 0.0, out=xt[n + 1])
        clipped += int(np.count_nonzero(z < 0.0))
    return xt, clipped


def euler_besq_paths(x0, theta, dt, normals):
    """Full-truncation Euler for dx = sqrt(2 x^+) dW + theta dt.

    normals: (n_paths, n_steps) standard normals.  Returns the path matrix
    (n_paths, n_steps + 1), an F-ordered view of the time-major states, and
    the fraction of clipped steps.
    """
    n_paths, n_steps = normals.shape
    xt, clipped = _euler_rows(x0, theta, dt, normals)
    return xt.T, clipped / float(n_paths * n_steps)


def euler_besq_exit(x0, theta, a, b, dt, normals):
    """Run Euler paths from per-path states until exit from (a, b); returns
    (labels, final states): label +1 where b is hit first, 0 where a is hit
    first, -1 where the step budget ran out.  Every path runs the whole
    budget; one argmax over the steps finds each path's first exit, and an
    exited path's final state is its state at that exit."""
    n_paths, n_steps = normals.shape
    xt, _ = _euler_rows(x0, theta, dt, normals)
    out = np.full(n_paths, -1, dtype=np.int64)
    final = xt[-1].copy()
    if n_steps:
        steps = xt[1:]
        exited = steps <= a
        exited |= steps >= b
        first = exited.argmax(axis=0)
        cols = np.flatnonzero(exited[first, np.arange(n_paths)])
        final[cols] = x_exit = steps[first[cols], cols]
        out[cols] = x_exit >= b
    return out, final


def maxplus_transform(xs, ys, psi):
    """phi(x) = max_y (<x, y> - psi(y)) for points xs (n,) or (n, d) and
    ys (m,) or (m, d).  The per-axis products x_k * y_k are summed into one
    (n, m) buffer in place, psi is subtracted in place, and rows are maxed."""
    xs = xs.reshape(len(xs), -1)
    ys = ys.reshape(len(ys), -1)
    acc = np.multiply.outer(xs[:, 0], ys[:, 0])
    for k in range(1, xs.shape[1]):
        acc += np.multiply.outer(xs[:, k], ys[:, k])
    acc -= psi
    return acc.max(axis=1)


def stamp_kernel(idx, w, patch, grid, strides):
    """Scatter-add: grid[flat + offsets] += w_i * patch for each atom index.

    idx: (n,) flat center indices into the padded grid; patch: flattened
    kernel weights at precomputed flat offsets ``strides``.  Overlapping
    patches accumulate, in atom order.
    """
    np.add.at(grid, (idx[:, None] + strides).ravel(), (w[:, None] * patch).ravel())
    return grid
