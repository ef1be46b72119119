"""Hot numeric kernels, one vectorised numpy implementation each.

``benchmarks/bench_kernels.py`` times them at fixed shapes.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "scaling_sweep",
    "euler_besq_paths",
    "euler_besq_exit",
    "maxplus_transform",
    "stamp_kernel",
]

BACKEND = "numpy"


def scaling_sweep(f, g, logw0, logw1, cost, eps, n_iter, tol):
    """Log-domain scaling updates for the KL-penalized entropy-transport problem.

    Updates the dual potentials in place, with the stabilized log-sum-exp:
        f_i <- eps/(1+eps) * (log w0_i - lse_j((g_j - cost_ij)/eps)),
        g_j <- eps/(1+eps) * (log w1_j - lse_i((f_i - cost_ij)/eps)),
    the g update using the new f.  Forbidden cells carry cost = +inf and
    drop out of the lse.  Returns the number of iterations run and the last
    max potential change.
    """
    lam = 1.0 / (1.0 + eps)
    delta = np.inf
    it = 0
    while it < n_iter and delta > tol:
        m0 = (g[None, :] - cost) / eps
        a = np.max(m0, axis=1)
        a = np.where(np.isfinite(a), a, 0.0)
        lse0 = a + np.log(np.sum(np.exp(m0 - a[:, None]), axis=1))
        f_new = lam * eps * (logw0 - lse0)
        m1 = (f_new[:, None] - cost) / eps
        b = np.max(m1, axis=0)
        b = np.where(np.isfinite(b), b, 0.0)
        lse1 = b + np.log(np.sum(np.exp(m1 - b[None, :]), axis=0))
        g_new = lam * eps * (logw1 - lse1)
        delta = max(np.max(np.abs(f_new - f)), np.max(np.abs(g_new - g)))
        f[:] = f_new
        g[:] = g_new
        it += 1
    return it, delta


def euler_besq_paths(x0, theta, dt, normals):
    """Full-truncation Euler for dx = sqrt(2 x^+) dW + theta dt.

    normals: (n_paths, n_steps) standard normals.  Returns the path matrix
    (n_paths, n_steps + 1) and the fraction of clipped steps.
    """
    n_paths, n_steps = normals.shape
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = x0
    sq = np.sqrt(dt)
    clipped = 0
    for n in range(n_steps):
        xn = x[:, n]
        step = xn + np.sqrt(2.0 * np.maximum(xn, 0.0)) * sq * normals[:, n] + theta * dt
        clipped += int(np.sum(step < 0.0))
        x[:, n + 1] = np.maximum(step, 0.0)
    return x, clipped / float(n_paths * n_steps)


def euler_besq_exit(x0, theta, a, b, dt, normals):
    """Run Euler paths from per-path states until exit from (a, b); returns
    (labels, final states): label +1 where b is hit first, 0 where a is hit
    first, -1 where the step budget ran out."""
    n_paths, n_steps = normals.shape
    out = np.full(n_paths, -1, dtype=np.int64)
    x = np.array(x0, dtype=float).copy()
    alive = np.ones(n_paths, dtype=bool)
    sq = np.sqrt(dt)
    for n in range(n_steps):
        if not np.any(alive):
            break
        xa = x[alive]
        xa = xa + np.sqrt(2.0 * np.maximum(xa, 0.0)) * sq * normals[alive, n] + theta * dt
        xa = np.maximum(xa, 0.0)
        x[alive] = xa
        idx = np.flatnonzero(alive)
        hit_a = xa <= a
        hit_b = xa >= b
        out[idx[hit_a]] = 0
        out[idx[hit_b]] = 1
        alive[idx[hit_a | hit_b]] = False
    return out, x


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
