import math

import numpy as np
import pytest

from hkgeo import _kernels


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# plain-Python scalar references: one element at a time, no vectorisation
# ---------------------------------------------------------------------------

def _lse_update(lam, eps, logw, other, cost_row):
    """lam * eps * (logw - lse_j((other_j - cost_j) / eps)), -inf cells dropped."""
    vals = [(o - c) / eps for o, c in zip(other, cost_row)]
    m = max(vals)
    if m == -math.inf:
        m = 0.0
    s = sum(math.exp(v - m) for v in vals if v > -math.inf)
    return lam * eps * (logw - (m + math.log(s)))


def ref_scaling_sweep(f, g, logw0, logw1, cost, eps, n_iter, tol):
    n0, n1 = len(f), len(g)
    lam = 1.0 / (1.0 + eps)
    delta = math.inf
    it = 0
    while it < n_iter and delta > tol:
        f_new = [_lse_update(lam, eps, logw0[i], g, cost[i]) for i in range(n0)]
        g_new = [_lse_update(lam, eps, logw1[j], f_new, cost[:, j]) for j in range(n1)]
        delta = max(max(abs(a - b) for a, b in zip(f_new, f)),
                    max(abs(a - b) for a, b in zip(g_new, g)))
        f[:] = f_new
        g[:] = g_new
        it += 1
    return it, delta


def _euler_step(x, theta, sq, dt, z):
    r = x if x > 0.0 else 0.0
    return x + math.sqrt(2.0 * r) * sq * z + theta * dt


def ref_euler_besq_paths(x0, theta, dt, normals):
    n_paths, n_steps = normals.shape
    x = np.empty((n_paths, n_steps + 1))
    sq = math.sqrt(dt)
    clipped = 0
    for p in range(n_paths):
        x[p, 0] = x0
        for n in range(n_steps):
            step = _euler_step(x[p, n], theta, sq, dt, normals[p, n])
            if step < 0.0:
                clipped += 1
                step = 0.0
            x[p, n + 1] = step
    return x, clipped / float(n_paths * n_steps)


def ref_euler_besq_exit(x0, theta, a, b, dt, normals):
    n_paths, n_steps = normals.shape
    out = np.full(n_paths, -1, dtype=np.int64)
    x_final = np.empty(n_paths)
    sq = math.sqrt(dt)
    for p in range(n_paths):
        xv = x0[p]
        for n in range(n_steps):
            xv = max(_euler_step(xv, theta, sq, dt, normals[p, n]), 0.0)
            if xv <= a:
                out[p] = 0
                break
            if xv >= b:
                out[p] = 1
                break
        x_final[p] = xv
    return out, x_final


def ref_maxplus_transform(xs, ys, psi):
    return np.array([max(x * y - p for y, p in zip(ys, psi)) for x in xs])


def ref_maxplus_transform_nd(xs, ys, psi):
    return np.array([max(sum(a * b for a, b in zip(x, y)) - p for y, p in zip(ys, psi)) for x in xs])


def ref_stamp_kernel(idx, w, patch, grid, strides):
    for i in range(len(idx)):
        for k in range(len(strides)):
            grid[idx[i] + strides[k]] += w[i] * patch[k]
    return grid


# ---------------------------------------------------------------------------


class TestBackendsAgree:
    """The numpy kernels reproduce the plain-Python scalar references above."""

    def test_scaling_sweep(self, rng):
        n0, n1 = 7, 9
        cost = rng.uniform(0, 5, (n0, n1))
        cost[0, :3] = np.inf
        logw0 = np.log(rng.uniform(0.2, 2, n0))
        logw1 = np.log(rng.uniform(0.2, 2, n1))
        f1, g1 = np.zeros(n0), np.zeros(n1)
        f2, g2 = np.zeros(n0), np.zeros(n1)
        it1, _ = ref_scaling_sweep(f1, g1, logw0, logw1, cost, 0.05, 200, 1e-10)
        it2, _ = _kernels.scaling_sweep(f2, g2, logw0, logw1, cost, 0.05, 200, 1e-10)
        assert it1 == it2
        assert np.allclose(f1, f2, atol=1e-11)
        assert np.allclose(g1, g2, atol=1e-11)

    def test_euler_paths(self, rng):
        normals = rng.standard_normal((50, 200))
        x1, c1 = ref_euler_besq_paths(0.7, 1.3, 1e-3, normals)
        x2, c2 = _kernels.euler_besq_paths(0.7, 1.3, 1e-3, normals)
        assert np.array_equal(x1, x2)
        assert c1 == c2

    def test_euler_exit(self, rng):
        normals = rng.standard_normal((100, 5000))
        x0 = np.full(100, 1.0)
        o1, f1 = ref_euler_besq_exit(x0, 1.0, 0.5, 2.0, 1e-3, normals)
        o2, f2 = _kernels.euler_besq_exit(x0, 1.0, 0.5, 2.0, 1e-3, normals)
        assert np.array_equal(o1, o2)
        assert np.array_equal(f1, f2)

    def test_maxplus(self, rng):
        xs = np.linspace(-2, 2, 101)
        ys = np.linspace(-3, 3, 151)
        psi = 0.5 * ys**2 + rng.normal(0, 0.1, len(ys))
        a = ref_maxplus_transform(xs, ys, psi)
        b = _kernels.maxplus_transform(xs, ys, psi)
        assert np.allclose(a, b, atol=1e-12)

    def test_maxplus_2d(self, rng):
        xs = rng.uniform(-2, 2, (60, 2))
        ys = rng.uniform(-3, 3, (80, 2))
        psi = 0.5 * np.sum(ys**2, axis=1) + rng.normal(0, 0.1, len(ys))
        a = ref_maxplus_transform_nd(xs, ys, psi)
        b = _kernels.maxplus_transform(xs, ys, psi)
        assert np.allclose(a, b, atol=1e-12)
        # a 1-D transform gives the same values from (n,) and (n, 1) arrays
        assert np.array_equal(_kernels.maxplus_transform(xs[:, :1], ys[:, :1], psi),
                              _kernels.maxplus_transform(xs[:, 0], ys[:, 0], psi))

    def test_stamp(self, rng):
        grid1 = np.zeros(1000)
        grid2 = np.zeros(1000)
        idx = rng.integers(100, 900, size=20)
        w = rng.uniform(0, 1, 20)
        strides = np.arange(-5, 6, dtype=np.int64)
        patch = rng.uniform(0, 1, 11)
        ref_stamp_kernel(idx, w, patch, grid1, strides)
        _kernels.stamp_kernel(idx, w, patch, grid2, strides)
        assert np.allclose(grid1, grid2, atol=1e-14)

    def test_stamp_accumulates_repeated_centres(self, rng):
        # the same centre three times and patches that overlap: every
        # contribution must land, none may overwrite another
        idx = np.array([500, 500, 503, 500, 496], dtype=np.int64)
        w = rng.uniform(0.5, 1, len(idx))
        strides = np.arange(-5, 6, dtype=np.int64)
        patch = rng.uniform(0, 1, 11)
        grid1 = rng.uniform(0, 1, 1000)
        grid2 = grid1.copy()
        ref_stamp_kernel(idx, w, patch, grid1, strides)
        out = _kernels.stamp_kernel(idx, w, patch, grid2, strides)
        assert out is grid2
        assert np.array_equal(grid1, grid2)
        fresh = _kernels.stamp_kernel(idx, w, patch, np.zeros(1000), strides)
        assert fresh[500] == pytest.approx((w[0] + w[1] + w[3]) * patch[5] + w[2] * patch[2] + w[4] * patch[9])
        assert fresh.sum() == pytest.approx(w.sum() * patch.sum())


class TestBackend:
    def test_backend_is_numpy(self):
        assert _kernels.BACKEND == "numpy"
