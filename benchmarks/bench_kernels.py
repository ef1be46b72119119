"""Time each hkgeo kernel, one Newton step and one forest plan of the LET
solver, at a fixed shape.

Run:  python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from hkgeo import _kernels, let
from hkgeo.measures import DiscreteMeasure


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


def bench_euler_exit(n_paths=1000, n_steps=500):
    """One segment of empirical_hitting: x0 = 1, theta = 1.5, (a, b) = (0.5, 2)."""
    rng = np.random.default_rng(1)
    normals = rng.standard_normal((n_paths, n_steps))
    return {KEY: timeit(_kernels.euler_besq_exit, np.ones(n_paths), 1.5, 0.5, 2.0, 2.5e-4, normals)}


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


def bench_schur_step(n0=317, n1=161, eps=1e-3):
    """One Newton step of the LET solver on a plan spanning 1e-320 to 1, the
    spread of an entropic plan at eps = 1e-3 (317 x 161 is the 2-D
    potentials pair of perfbench)."""
    rng = np.random.default_rng(4)
    gamma = 10.0 ** rng.uniform(-320, 0, (n0, n1))
    d_out = rng.uniform(0.2, 2, n0) + gamma.sum(axis=1) / eps
    d_in = rng.uniform(0.2, 2, n1) + gamma.sum(axis=0) / eps
    grad_out, grad_in = rng.normal(size=n0), rng.normal(size=n1)
    scratch = np.empty_like(gamma), np.empty_like(gamma), np.empty(gamma.shape, dtype=bool), np.empty((n1, n1))
    return {KEY: timeit(let._schur_step, gamma, d_out, d_in, grad_out, grad_in, eps, scratch)}


def _stage_plan(n0, n1, eps_final, newton):
    """The entropic plan that the solver hands to its forest at eps_final, on
    a random 2-D ghk problem drawn as perfbench's let_large draws its pairs.
    Without newton each stage is its opening scaling sweep only, for shapes
    where the dense Newton step does not fit."""
    rng = np.random.default_rng(5)
    mu0, mu1 = (DiscreteMeasure(rng.normal(0, 1.2, (n, 2)), rng.uniform(0.1, 2.0, n)) for n in (n0, n1))
    w0, w1, cost = mu0.weights, mu1.weights, let.let_problem(mu0, mu1, "ghk").cost
    f, g = np.zeros(n0), np.zeros(n1)
    gamma = np.empty(cost.shape)
    for eps in let.EPS_STAGES:
        _kernels.scaling_sweep(f, g, np.log(w0), np.log(w1), cost, eps, 1, 0.0)
        if newton:
            let._dual_newton(f, g, w0, w1, cost, eps, gamma)
        if eps <= eps_final:
            break
    if not newton:
        gamma = np.exp((f[:, None] + g[None, :] - cost) / eps)
    return gamma, w0, w1, cost


def bench_forest_plan(n0=100, n1=200, eps=1e-4, newton=True):
    """One forest plan (it overwrites its plan, so each call gets a fresh
    copy, made outside the timing).  The defaults are a let_large solve's
    plan at eps = 1e-4."""
    return {KEY: timeit(let._forest_plan, *_stage_plan(n0, n1, eps, newton))}


# ROADMAP's target for one forest plan at n = n0 + n1 ~ 5,400 atoms
FOREST_TARGET_S = 0.050


def main():
    benches = {
        "scaling_sweep (200x400, 300 it)": bench_scaling,
        "euler_besq    (2000 x 2000)": bench_euler,
        "euler_exit    (1000 x 500)": bench_euler_exit,
        "maxplus       (2000 x 3000)": bench_maxplus,
        "stamp_kernel  (5000 atoms)": bench_stamp,
        "schur_step    (317 x 161)": bench_schur_step,
        "forest_plan   (100 x 200, eps 1e-4)": bench_forest_plan,
    }
    print(f"{'kernel':36s} {_kernels.BACKEND:>10s}")
    for label, bench in benches.items():
        print(f"{label:36s} {bench()[KEY]*1e3:9.2f}ms")
    big = bench_forest_plan(3505, 1901, 1e-4, newton=False)[KEY]
    print(f"{'forest_plan   (3505 x 1901, sweeps)':36s} {big*1e3:9.2f}ms"
          f"   (target <= {FOREST_TARGET_S*1e3:.0f} ms, not gated)")


if __name__ == "__main__":
    main()
