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
    x0 = np.broadcast_to(x0, n_paths)  # a scalar or one state per path
    clipped = 0
    for p in range(n_paths):
        x[p, 0] = x0[p]
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

    def test_scaling_sweep_far_cells(self, rng):
        # costs U(0, 10) at eps = 1e-2: most exponents lie below -708, where
        # np.exp slows down or underflows, and some cells are forbidden
        n0, n1 = 12, 17
        cost = rng.uniform(0, 10, (n0, n1))
        cost[rng.uniform(size=cost.shape) < 0.1] = np.inf
        cost[:, 0] = cost[0, :] = 1.0  # every row and column keeps a finite cell
        logw0 = np.log(rng.uniform(0.2, 2, n0))
        logw1 = np.log(rng.uniform(0.2, 2, n1))
        f1, g1 = np.zeros(n0), np.zeros(n1)
        f2, g2 = np.zeros(n0), np.zeros(n1)
        ref_scaling_sweep(f1, g1, logw0, logw1, cost, 1e-2, 30, 0.0)
        with np.errstate(all="raise"):
            _kernels.scaling_sweep(f2, g2, logw0, logw1, cost, 1e-2, 30, 0.0)
        assert np.allclose(f1, f2, rtol=0, atol=1e-11)
        assert np.allclose(g1, g2, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_scaling_sweep_forbidden_line(self, rng, transpose):
        # row 1 (column 1 when transposed) has no finite cell: its potential
        # is +inf and it drops out of every other line's lse, which matches
        # the reference on the problem without it; a second call starts from
        # that +inf
        cost = rng.uniform(0, 3, (4, 5))
        cost[1] = np.inf
        logw0, logw1 = np.log(rng.uniform(0.2, 2, 4)), np.log(rng.uniform(0.2, 2, 5))
        if transpose:
            cost, logw0, logw1 = cost.T.copy(), logw1, logw0
        live = np.isfinite(cost).any(axis=1), np.isfinite(cost).any(axis=0)
        f, g = np.zeros(cost.shape[0]), np.zeros(cost.shape[1])
        f1, g1 = np.zeros(live[0].sum()), np.zeros(live[1].sum())
        for n_iter in (50, 10):
            with np.errstate(all="raise"):
                it, delta = _kernels.scaling_sweep(f, g, logw0, logw1, cost, 0.1, n_iter, 0.0)
            ref_scaling_sweep(f1, g1, logw0[live[0]], logw1[live[1]], cost[np.ix_(*live)], 0.1, n_iter, 0.0)
            assert it == n_iter and np.isfinite(delta)
            assert (g if transpose else f)[1] == np.inf
            assert np.allclose(f[live[0]], f1, rtol=0, atol=1e-11)
            assert np.allclose(g[live[1]], g1, rtol=0, atol=1e-11)

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

    # step counts at the edges of the blocks of normals the Euler loop transposes
    EULER_STEPS = [1, _kernels.EULER_BLOCK - 1, _kernels.EULER_BLOCK, _kernels.EULER_BLOCK + 1, 300]

    @pytest.mark.parametrize("n_steps", EULER_STEPS)
    def test_euler_paths_block_edges(self, rng, n_steps):
        # per-path starts from 0, at a coarse dt and a small drift, clip often
        x0 = np.array([0.0, 0.0, 1e-3, 0.05, 0.3, 1.0, 2.5])
        normals = rng.standard_normal((len(x0), n_steps))
        x1, c1 = ref_euler_besq_paths(x0, 0.3, 1e-2, normals)
        x2, c2 = _kernels.euler_besq_paths(x0, 0.3, 1e-2, normals)
        assert np.array_equal(x1, x2)
        assert c1 == c2
        if n_steps >= 100:
            assert c1 > 0

    @pytest.mark.parametrize("n_steps", EULER_STEPS)
    def test_euler_paths_absorbing(self, rng, n_steps):
        # theta = 0 from x0 = 0 stays at 0, and no step counts as clipped
        normals = rng.standard_normal((5, n_steps))
        x1, c1 = ref_euler_besq_paths(0.0, 0.0, 1e-2, normals)
        x2, c2 = _kernels.euler_besq_paths(0.0, 0.0, 1e-2, normals)
        assert np.array_equal(x1, x2) and not x2.any()
        assert c1 == c2 == 0.0

    @pytest.mark.parametrize("n_steps", EULER_STEPS)
    def test_euler_exit_block_edges(self, rng, n_steps):
        # x0 = 0 exits at a and x0 = 3 at b on the first step; x0 = 1 paths
        # stay inside for a while, and some never exit
        x0 = np.concatenate([[0.0, 3.0], np.full(30, 1.0), rng.uniform(0.6, 1.9, 30)])
        normals = rng.standard_normal((len(x0), n_steps))
        o1, f1 = ref_euler_besq_exit(x0, 1.5, 0.5, 2.0, 1e-3, normals)
        o2, f2 = _kernels.euler_besq_exit(x0, 1.5, 0.5, 2.0, 1e-3, normals)
        assert np.array_equal(o1, o2)
        assert np.array_equal(f1, f2)
        assert o2[0] == 0 and f2[0] == 1.5e-3
        assert o2[1] == 1
        assert np.any(o2 == -1)

    def test_euler_exit_absorbing(self, rng):
        # theta = 0 from x0 = 0: every path exits at a on its first step at 0
        normals = rng.standard_normal((4, _kernels.EULER_BLOCK + 1))
        o1, f1 = ref_euler_besq_exit(np.zeros(4), 0.0, 0.5, 2.0, 1e-2, normals)
        o2, f2 = _kernels.euler_besq_exit(np.zeros(4), 0.0, 0.5, 2.0, 1e-2, normals)
        assert np.array_equal(o1, o2) and np.array_equal(f1, f2)
        assert not o2.any() and not f2.any()

    def test_euler_exit_on_boundary(self, rng):
        # from 0, a pure drift step of theta dt lands exactly on a (or b):
        # a path on the boundary has exited
        normals = rng.standard_normal((3, 2))
        for theta, label in ((1.0, 0), (4.0, 1)):
            o1, f1 = ref_euler_besq_exit(np.zeros(3), theta, 0.5, 2.0, 0.5, normals)
            o2, f2 = _kernels.euler_besq_exit(np.zeros(3), theta, 0.5, 2.0, 0.5, normals)
            assert np.array_equal(o1, o2) and np.array_equal(f1, f2)
            assert np.all(o2 == label) and np.all(f2 == theta * 0.5)

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


class TestBenchKernels:
    """benchmarks/bench_kernels.py reaches into the LET solver's private
    Newton step and stage loop; these toy-shape calls keep it running."""

    @pytest.fixture(scope="class")
    def bench(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
        spec = importlib.util.spec_from_file_location("bench_kernels", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("n0, n1", [(20, 12), (12, 20)])
    def test_schur_step(self, bench, n0, n1):
        seconds = bench.bench_schur_step(n0, n1)[bench.KEY]
        assert 0.0 < seconds < math.inf

    @pytest.mark.parametrize("newton", [True, False])
    def test_forest_plan(self, bench, newton):
        seconds = bench.bench_forest_plan(12, 20, 1e-2, newton)[bench.KEY]
        assert 0.0 < seconds < math.inf
