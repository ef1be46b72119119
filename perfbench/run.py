"""hkgeo benchmark: certified solves, potential pairs and Monte-Carlo samples.

    python3 perfbench/run.py --workload let_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root; the library is imported from ``src/``.  One
process, one caller in a closed loop (the next operation starts when the
previous one returns), one BLAS thread.  The workload's inputs are made from
--seed; passes over that fixed input set repeat until --seconds would be
exceeded by one more pass, and at least MIN_PASSES times.  Times are each
operation's mean over the passes.

Prints the environment record, every metric with its unit, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a separate traced run.  README.md in this
directory explains the workloads and what each metric should move.
"""

import os

# One BLAS thread: the caller is single-threaded, and the figures should not
# depend on what else runs on the other cores.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("let_small", "let_large", "potentials", "montecarlo")
SETUP_REPEATS = 5
MIN_PASSES = 3        # the fewest passes a mean is taken over
SWEEP_ITERS = 50      # scaling-sweep iterations of the fixed-shape timing


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy input sizes, for the smoke test")
    return ap.parse_args(argv)


def import_hkgeo():
    """hkgeo from this checkout's src/, or exit with code 1 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import hkgeo
    except ImportError as e:
        sys.exit(f"cannot import hkgeo from {SRC}: {e}")
    if SRC.resolve() not in Path(hkgeo.__file__).resolve().parents:
        sys.exit(f"hkgeo was imported from {hkgeo.__file__}, not from {SRC}")
    return hkgeo


def _git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def _blas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment(hkgeo):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "backend": hkgeo._kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Gate:
    """Counts every operation run and the ones whose output failed its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def run(self, op):
        """Run op, check its output, and return the seconds the call took."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            self.failed.append(op.name)
            return time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        try:
            ok = bool(op.check(out))
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed.append(op.name)
        return seconds


def run_pass(ops, gate):
    """One pass over the fixed input set: the latency of each operation."""
    return [gate.run(op) for op in ops]


def repeat_for(seconds, min_rounds, one_round):
    """one_round() until one more round would end after ``seconds``, and at
    least ``min_rounds`` times; the list of what each round returned."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now - t_start + (now - t0) > seconds:
            return rounds


def setup(make, seed, toy):
    """One set-up: a fresh interpreter importing hkgeo and its CLI (the
    import cost), input generation and warm-up; the inputs and its time."""
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hkgeo, hkgeo.cli"], env=env, cwd=ROOT, check=True)
    ops, warmup = make(np.random.default_rng(seed), toy)
    for op in warmup:
        op.call()
    return ops, time.perf_counter() - t0


def mean_times(passes):
    """Each operation's mean time over the passes.  The host's speed switches
    between a fast and a slow mode within seconds and drifts over minutes.
    The mean over every pass of the run weighs both modes by the time spent
    in them, and repeats from run to run better than a best-of, which
    depends on whether a run caught a fast moment, or a median, which flips
    from one mode to the other."""
    return [statistics.fmean(lat) for lat in zip(*passes)]


def end_to_end(passes, ops, setup_times):
    per_op = mean_times(passes)
    wall = sum(per_op)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (sum(op.items for op in ops) / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def fixed_shape_timings(toy):
    """The four kernel timings of benchmarks/bench_kernels.py, at its shapes
    (the sweep at SWEEP_ITERS iterations; toy shapes for the smoke test), on
    the backend hkgeo imported.  The script's column "numba" times
    ``_kernels.active_impls``, which is that backend."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_kernels as bk

    if toy:
        sweep, euler, maxplus, stamp = (bk.bench_scaling(20, 40, 5), bk.bench_euler(50, 50),
                                        bk.bench_maxplus(50, 60), bk.bench_stamp(50, 81, 2000))
        iters = 5
    else:
        sweep, euler, maxplus, stamp = (bk.bench_scaling(iters=SWEEP_ITERS), bk.bench_euler(),
                                        bk.bench_maxplus(), bk.bench_stamp())
        iters = SWEEP_ITERS
    return {
        "kernels.scaling_sweep.fixed_200x400_us_per_iteration": (1e6 * sweep["numba"] / iters, "us"),
        "kernels.euler_besq_paths.fixed_2000x2000_s": (euler["numba"], "s"),
        "kernels.maxplus_transform.fixed_2000x3000_s": (maxplus["numba"], "s"),
        "kernels.stamp_kernel.fixed_5000_atoms_s": (stamp["numba"], "s"),
    }


def traced(ops, seconds, gate, toy):
    """Untraced and traced passes in alternation, as many of each; the
    per-layer figures are per traced pass, and the tracing overhead is the
    difference of the two kinds' sums of per-operation means."""
    import tracing

    tracer = tracing.Tracer()

    def traced_pass():
        tracing.install(tracer)
        try:
            return run_pass(ops, gate)
        finally:
            tracer.restore()

    t0 = time.perf_counter()
    fixed = fixed_shape_timings(toy)
    # the fixed-shape timings count against --seconds, as the passes do
    pairs = repeat_for(seconds - (time.perf_counter() - t0), 2,
                       lambda: (run_pass(ops, gate), traced_pass()))
    plain, spanned = zip(*pairs)
    overhead = sum(mean_times(spanned)) - sum(mean_times(plain))
    items = len(spanned) * sum(op.items for op in ops)
    metrics = tracing.per_layer(tracer, len(spanned), items, overhead)
    metrics.update(fixed)
    return metrics, 2 * len(pairs)


def measure(ops, make, args, gate):
    """Untraced passes for --seconds, with the remaining set-ups spread
    between them, so that setup_s samples the same stretch of time as the
    passes; a run too short for that makes them at its end."""
    later = SETUP_REPEATS - 1
    setup_times = []
    t_start = time.perf_counter()

    def one_pass():
        lat = run_pass(ops, gate)
        if len(setup_times) < later * (time.perf_counter() - t_start) / args.seconds:
            setup_times.append(setup(make, args.seed, args.toy)[1])
        return lat

    passes = repeat_for(args.seconds, MIN_PASSES, one_pass)
    while len(setup_times) < later:
        setup_times.append(setup(make, args.seed, args.toy)[1])
    return passes, setup_times


def run_one(args):
    import workloads

    make = workloads.WORKLOADS[args.workload]
    ops, first_setup = setup(make, args.seed, args.toy)
    gate = Gate()
    if args.trace:
        metrics, n_passes = traced(ops, args.seconds, gate, args.toy)
    else:
        passes, setup_times = measure(ops, make, args, gate)
        metrics, n_passes = end_to_end(passes, ops, [first_setup] + setup_times), len(passes)
    print(f"workload {args.workload}: {n_passes} pass(es) of {len(ops)} operations "
          f"(an item is one of {workloads.ITEMS[args.workload]})")
    if not args.trace:
        lat = [x for p in passes for x in p]
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"  op latency p90 {1e3 * p90:.1f} ms over all {len(lat)} timed calls, "
              f"{sum(x > p90 for x in lat)} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit}")
    print(f"  failed {len(gate.failed)} of {gate.attempted} operations: {sorted(set(gate.failed))}")
    return {
        "correct": not gate.failed,
        "attempted": gate.attempted,
        "failed": len(gate.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, then one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[1:-1]))  # the first line is the environment record
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None):
    args = parse_args(argv)
    hkgeo = import_hkgeo()
    print(json.dumps({"env": environment(hkgeo)}), flush=True)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
