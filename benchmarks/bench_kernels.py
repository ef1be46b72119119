"""Time each hkgeo kernel at a fixed shape.

Run:  python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from hkgeo import _kernels


def timeit(fn, *args, repeat=5, warmup=1):
    for _ in range(warmup):
        fn(*[a.copy() if isinstance(a, np.ndarray) else a for a in args])
    best = np.inf
    for _ in range(repeat):
        cargs = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        t0 = time.perf_counter()
        fn(*cargs)
        best = min(best, time.perf_counter() - t0)
    return best


# each bench_* returns {KEY: seconds}; perfbench/run.py reads this historical key
KEY = "numba"


def bench_scaling(n0=200, n1=400, iters=300):
    rng = np.random.default_rng(0)
    cost = rng.uniform(0, 10, (n0, n1))
    logw0 = np.log(rng.uniform(0.2, 2, n0))
    logw1 = np.log(rng.uniform(0.2, 2, n1))
    f, g = np.zeros(n0), np.zeros(n1)
    return {KEY: timeit(_kernels.scaling_sweep, f, g, logw0, logw1, cost, 1e-2, iters, 0.0)}


def bench_euler(n_paths=2000, n_steps=2000):
    rng = np.random.default_rng(1)
    normals = rng.standard_normal((n_paths, n_steps))
    return {KEY: timeit(_kernels.euler_besq_paths, 1.0, 1.5, 1e-3, normals)}


def bench_maxplus(n=2000, m=3000):
    rng = np.random.default_rng(2)
    xs = np.linspace(-1, 1, n)
    ys = np.linspace(-5, 5, m)
    psi = 0.5 * ys**2 + rng.normal(0, 0.1, m)
    return {KEY: timeit(_kernels.maxplus_transform, xs, ys, psi)}


def bench_stamp(n_atoms=5000, patch=81, grid=200_000):
    rng = np.random.default_rng(3)
    idx = rng.integers(patch, grid - patch, size=n_atoms)
    w = rng.uniform(0, 1, n_atoms)
    strides = np.arange(-(patch // 2), patch // 2 + 1, dtype=np.int64)
    vals = rng.uniform(0, 1, patch)
    return {KEY: timeit(_kernels.stamp_kernel, idx, w, vals, np.zeros(grid), strides)}


def main():
    benches = {
        "scaling_sweep (200x400, 300 it)": bench_scaling,
        "euler_besq    (2000 x 2000)": bench_euler,
        "maxplus       (2000 x 3000)": bench_maxplus,
        "stamp_kernel  (5000 atoms)": bench_stamp,
    }
    print(f"{'kernel':36s} {_kernels.BACKEND:>10s}")
    for label, bench in benches.items():
        print(f"{label:36s} {bench()[KEY]*1e3:9.2f}ms")


if __name__ == "__main__":
    main()
